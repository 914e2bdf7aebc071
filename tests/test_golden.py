"""The benchmark grid designs and the command-line outputs against the committed files in ``golden/``."""
import copy
import json

import numpy as np

from golden import make_outputs
from golden.make_table_specs import PATH, REPLICATIONS, SEED, entries


def test_table_specs_match_the_golden_file():
    golden = json.loads(PATH.read_text(encoding="utf-8"))
    assert (golden["replications"], golden["seed"]) == (REPLICATIONS, SEED)
    # through JSON, so tuples compare as the lists the file holds
    assert make_outputs.difference(golden["grids"], json.loads(json.dumps(entries())), 0.0, "grids") is None


def test_outputs_match_the_golden_file():
    golden = json.loads(make_outputs.PATH.read_text(encoding="utf-8"))
    assert (golden["replications"], golden["seed"], golden["series"], golden["k"]) == (
        make_outputs.REPLICATIONS, make_outputs.SEED, make_outputs.SERIES, make_outputs.K)
    # integers, strings and bools exactly; floats to 1e-12 relative, for other CPUs' last bits
    assert make_outputs.difference(golden["outputs"], make_outputs.outputs(), 1e-12) is None


def test_the_output_comparison_names_a_changed_statistic_and_alpha_hat():
    golden = json.loads(make_outputs.PATH.read_text(encoding="utf-8"))["outputs"]
    key = "test --phi log-excess --adjust lag1"
    for name in ("statistic", "alpha_hat"):
        value = golden[key][name]
        for changed, rel in ((value * (1.0 + 1e-11), 1e-12), (float(np.nextafter(value, np.inf)), 0.0)):
            outputs = copy.deepcopy(golden)
            outputs[key][name] = changed
            assert make_outputs.difference(golden, outputs, rel) == f"outputs.{key}.{name}: {changed!r} is not {value!r}"
    outputs = copy.deepcopy(golden)
    outputs[key]["l_hat"] += 1
    assert make_outputs.difference(golden, outputs, 1e-12).startswith(f"outputs.{key}.l_hat: ")

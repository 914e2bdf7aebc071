"""The command-line outputs, every benchmark grid design among them, against the committed ``golden/outputs.json``."""
import copy
import json

import numpy as np

from golden import make_outputs

GOLDEN = json.loads(make_outputs.PATH.read_text(encoding="utf-8"))


def mismatch(golden: dict, outputs: dict) -> str | None:
    """The first difference in the tier-1 comparison, or None.

    Integers, strings and bools must be equal and floats within 1e-12 relative, for other CPUs' last bits; the
    floats of the grid designs (the ``spec`` entries of each ``tables`` report) must be equal too.
    """
    designs = lambda out: {key: [entry["spec"] for entry in out[key]["report"]] for key in out if "tables" in key}
    return (make_outputs.difference(golden, outputs, 1e-12)
            or make_outputs.difference(designs(golden), designs(outputs), 0.0, "designs"))


def test_outputs_match_the_golden_file():
    assert (GOLDEN["replications"], GOLDEN["seed"], GOLDEN["series"], GOLDEN["k"]) == (
        make_outputs.REPLICATIONS, make_outputs.SEED, make_outputs.SERIES, make_outputs.K)
    assert mismatch(GOLDEN["outputs"], make_outputs.outputs()) is None


def test_the_output_comparison_names_a_changed_statistic_and_alpha_hat():
    golden = GOLDEN["outputs"]
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


def test_the_comparison_passes_a_computed_float_1e_13_off_but_not_a_design_float_1_ulp_off():
    outputs = copy.deepcopy(GOLDEN["outputs"])
    entry = outputs["tables 2"]["report"][0]
    entry["rows"][0]["mean_alpha_hat"] *= 1.0 + 1e-13
    assert mismatch(GOLDEN["outputs"], outputs) is None
    entry["spec"]["level"] = float(np.nextafter(0.05, 1.0))
    assert mismatch(GOLDEN["outputs"], outputs) == "designs.tables 2[0].level: 0.05000000000000001 is not 0.05"

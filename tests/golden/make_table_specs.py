"""Write ``table_specs.json``: every benchmark grid design, pinned field by field.

    PYTHONPATH=src python tests/golden/make_table_specs.py

For each table id and both values of ``include_large``, the file holds each
spec's ``spec_fingerprint`` (the CSV row key) and its spec entry in
``results_to_report``. ``tests/test_golden.py`` rebuilds the same entries and
compares them exactly. Regenerating the file changes that check; say so, and
why, in CHANGES.md.
"""
import json
import platform
from pathlib import Path

import numpy as np

from tailshift.experiments import TABLE_IDS, TableResult, results_to_report, spec_fingerprint, table_specs

PATH = Path(__file__).with_name("table_specs.json")
REPLICATIONS = 20
SEED = 3


def entries() -> dict:
    """``{"<table id>/<small|full>": [{"fingerprint": ..., "spec": ...}, ...]}`` for every grid."""
    grids = {}
    for table_id in TABLE_IDS:
        for include_large in (False, True):
            specs = table_specs(table_id, replications=REPLICATIONS, seed=SEED, include_large=include_large)
            report = json.loads(results_to_report([TableResult(spec=spec, rows=()) for spec in specs]))
            grids[f"{table_id}/{'full' if include_large else 'small'}"] = [
                {"fingerprint": spec_fingerprint(spec), "spec": result["spec"]}
                for spec, result in zip(specs, report["results"])
            ]
    return grids


def main() -> None:
    payload = {
        "made_on": {"python": platform.python_version(), "numpy": np.__version__},
        "replications": REPLICATIONS,
        "seed": SEED,
        "grids": entries(),
    }
    PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

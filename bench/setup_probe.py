"""Time ``import tailshift`` and its first analytic critical value in this fresh interpreter.

    python3 bench/setup_probe.py SRC_DIR

Prints one JSON object: ``import_s``, ``critical_value_s`` and ``setup_s``
(their sum). Exits 1 if ``tailshift`` does not come from ``SRC_DIR``.
"""
import json
import sys
import time
from pathlib import Path

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
start = time.perf_counter()
import tailshift  # noqa: E402
imported = time.perf_counter()
from tailshift.null_dist import analytic_critical_values  # noqa: E402

analytic_critical_values((0.95,))
done = time.perf_counter()

if Path(tailshift.__file__).resolve().parent != src / "tailshift":
    sys.exit(f"tailshift was imported from {tailshift.__file__}, not from {src}")
print(json.dumps({"import_s": imported - start, "critical_value_s": done - imported, "setup_s": done - start}))

"""Set-up time of one workload in a fresh interpreter.

Run by run.py as ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  Times
``import nanoband`` and the generation of the workload's inputs (the
64-piece projections included) and prints one JSON line.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import nanoband  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

jobs, stats = workloads.make_pool(sys.argv[1], int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0,
                  "project_s": stats.project_s, "jobs": len(jobs)}))

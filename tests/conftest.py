"""Pin the BLAS/OpenMP thread pools to one thread, as benchmarks/run.py does.

The pools read these variables once, when numpy first loads its BLAS, so this
module must run before anything imports numpy. On a 2-core machine a second
BLAS thread competes with every other process for the cores: criterion 1's
dense oracle solves slowed several-fold while another process was busy.
setdefault keeps any value the caller set.

The benchmark's directory goes on sys.path too: tests build inputs with its
workloads module and pin outputs with its digests and checks.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

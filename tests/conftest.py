"""Shared test set-up.

BLAS and OpenMP are pinned to one thread before numpy loads, whichever
library (OpenBLAS, MKL) the numpy build links: the hot path multiplies
matrices of a few dozen rows, where a second thread only burns CPU.  An
explicit setting in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

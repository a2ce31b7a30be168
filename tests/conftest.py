"""Shared test set-up.

BLAS is pinned to one thread before numpy loads: the hot path multiplies
60x60 matrices, where a second BLAS thread only burns CPU.  An explicit
setting in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

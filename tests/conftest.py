"""Shared test set-up.

BLAS and OpenMP are pinned to one thread before numpy loads, whichever
library (OpenBLAS, MKL) the numpy build links: the hot path multiplies
matrices of a few dozen rows, where a second thread only burns CPU.  An
explicit setting in the environment wins.

The ``evolve_recording`` fixture runs ``evolve_density`` and also returns
every state it recorded, for the tests that read states a run no longer
keeps.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from invariantlab import lindblad  # noqa: E402  (numpy loads after the pins)
from invariantlab.operators import DensityMatrix  # noqa: E402


def _evolve_recording(model, rho0, t_max, h, record_every):
    """``evolve_density`` and every state its record reduced.

    A run keeps only its last state, so the states are taken from a
    wrapper around ``lindblad._step_density`` for this one call: each is
    the dense array ``record`` received, which no later step writes, as a
    ``DensityMatrix`` without validation.
    """
    states = []
    step = lindblad._step_density

    def recording(model, table, a0, n, h, record, every):
        def keep(i, arr):
            record(i, arr)
            states.append(DensityMatrix(arr, validate=False))
        step(model, table, a0, n, h, keep, every)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindblad, "_step_density", recording)
        traj = lindblad.evolve_density(model, rho0, t_max, h,
                                       record_every=record_every)
    return traj, states


@pytest.fixture
def evolve_recording():
    """``_evolve_recording``: (trajectory, every recorded state)."""
    return _evolve_recording

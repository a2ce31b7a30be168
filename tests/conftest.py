"""Shared test set-up.

BLAS and OpenMP are pinned to one thread before numpy loads, whichever
library (OpenBLAS, MKL) the numpy build links: the hot path multiplies
matrices of a few dozen rows, where a second thread only burns CPU.  An
explicit setting in the environment wins.

The ``evolve_recording`` fixture runs ``evolve_density`` and also returns
every state it recorded, for the tests that read states a run no longer
keeps.  The ``phase_peaks`` fixture measures the traced memory peak of
each named ``runner`` phase of a call.  The ``flip_a3`` fixture turns
every model's jump operator into the sign-flipped mutant.
"""

import os
import tracemalloc

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# numpy loads after the pins
from invariantlab import lindblad, runner  # noqa: E402
from invariantlab.operators import DensityMatrix  # noqa: E402


def _evolve_recording(model, rho0, t_max, h, record_every):
    """``evolve_density`` and every state its record reduced.

    A run keeps only its last state, so the states are taken from a
    wrapper around ``lindblad._step_density`` for this one call: each is
    a copy of the live array ``record`` received, as a ``DensityMatrix``
    without validation (which copies its entries).
    """
    states = []
    step = lindblad._step_density

    def recording(kernel, table, a0, n, h, record, every):
        def keep(i, arr):
            record(i, arr)
            states.append(DensityMatrix(arr, validate=False))
        return step(kernel, table, a0, n, h, keep, every)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindblad, "_step_density", recording)
        traj = lindblad.evolve_density(model, rho0, t_max, h,
                                       record_every=record_every)
    return traj, states


@pytest.fixture
def evolve_recording():
    """``_evolve_recording``: (trajectory, every recorded state)."""
    return _evolve_recording


def _phase_peaks(monkeypatch, call, names):
    """Run ``call()`` under tracemalloc with the named ``runner`` functions
    wrapped, and return, per name, the largest traced peak of one of its
    calls above the traced memory at that call's start, in bytes.

    Each wrapper resets the peak on entry (``tracemalloc.reset_peak``),
    so the phases must not nest; a nested call raises.  Memory a phase
    allocates and keeps counts in its peak, and in the base of the
    phases after it.
    """
    peaks = dict.fromkeys(names, 0)
    active = []

    def wrap(name, fn):
        def wrapped(*args, **kwargs):
            assert not active, f"{name} runs inside {active[0]}"
            active.append(name)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = max(peaks[name],
                                  tracemalloc.get_traced_memory()[1] - base)
                active.pop()
        return wrapped

    for name in names:
        monkeypatch.setattr(runner, name, wrap(name, getattr(runner, name)))
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()
    return peaks


@pytest.fixture
def phase_peaks(monkeypatch):
    """``_phase_peaks`` on this test's monkeypatch: (call, names) -> the
    traced peak of each named ``runner`` phase."""
    return lambda call, names: _phase_peaks(monkeypatch, call, names)


def _flip_a3(monkeypatch):
    """Patch ``lindblad._jump_coefficients`` to return -a3, so that every
    model's jump operator is K1 + a2 K2 - a3 K3 for the rest of the test."""
    coefficients = lindblad._jump_coefficients

    def flipped(kappa, r, v):
        alpha, a2, a3 = coefficients(kappa, r, v)
        return alpha, a2, -a3

    monkeypatch.setattr(lindblad, "_jump_coefficients", flipped)


@pytest.fixture
def flip_a3(monkeypatch):
    """``_flip_a3`` on this test's monkeypatch, applied when called."""
    return lambda: _flip_a3(monkeypatch)

"""Every name a package module exports in ``__all__`` exists, every
name the benchmark's tracer wraps by attribute, and the benchmark's
correctness gate passes its own self-test.

A stale entry (a name deleted but left in ``__all__``) breaks
``from module import *`` although a plain import still succeeds.  The
tracer (``perfbench/tracing.py``, run by ``perfbench/run.py --trace 1``)
reads some package functions and classes by attribute when it installs,
so deleting one of them breaks the traced benchmark.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import invariantlab
from invariantlab import lindblad

MODULES = ["invariantlab"] + [
    f"invariantlab.{info.name}"
    for info in pkgutil.iter_modules(invariantlab.__path__)]
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    """The tracer wraps the package's functions, its hooks included, and
    uninstalling restores every original."""
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    original = lindblad.evolve_adjoint_observable
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert lindblad.evolve_adjoint_observable is not original
    finally:
        tracer.uninstall()
    assert lindblad.evolve_adjoint_observable is original


def test_benchmark_gate_selftest_passes():
    """``perfbench/gate_selftest.py`` exits 0: the gate passes the recorded
    reference against itself and trips on every perturbation it tries."""
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "gate_selftest.py")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr

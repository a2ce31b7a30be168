"""Every name a package module exports in ``__all__`` exists, every
name the benchmark's tracer wraps by attribute, a density run and an
auxiliary solve go through the tracer's hooks, every scenario field the
benchmark's worker reads exists, the benchmark's correctness gate
passes its own self-test, the README's library example compiles and imports
only names the package has, no package module or test file imports
a name it never uses, and no package module forms a conjugate
transpose as ``x.conj().T`` outside one named function.

A stale entry (a name deleted but left in ``__all__``) breaks
``from module import *`` although a plain import still succeeds.  The
tracer (``perfbench/tracing.py``, run by ``perfbench/run.py --trace 1``)
reads some package functions and classes by attribute when it installs,
so deleting one of them breaks the traced benchmark.
"""

import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import invariantlab
from invariantlab import auxiliary, lindblad
from invariantlab.auxiliary import ErmakovInit
from invariantlab.invariants import construct
from invariantlab.operators import BasisConfig, StateSpec, build_state
from invariantlab.scenario import Scenario
from invariantlab.schedules import ConstantSchedule

MODULES = ["invariantlab"] + [
    f"invariantlab.{info.name}"
    for info in pkgutil.iter_modules(invariantlab.__path__)]
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SOURCES = os.path.dirname(invariantlab.__file__)
TESTS = os.path.dirname(__file__)
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


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


def test_benchmark_tracer_counts_a_density_run(monkeypatch):
    """With the tracer installed, a dim-8 density run goes through its
    ``evolve_density`` hooks, which read the run's arguments and its
    trajectory: 50 steps, and the state bytes of the one state the
    trajectory keeps."""
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    cfg = BasisConfig(dim=8, omega_ref=1.0)
    model = construct(ConstantSchedule(1.0), ConstantSchedule(0.1),
                      ErmakovInit(1.0, 0.0), 0.05, 1e-3, cfg)
    rho0 = build_state(StateSpec(kind="fock", fock_n=0), cfg)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.begin_run("density")
        traj = lindblad.evolve_density(model, rho0, 0.05, 1e-3,
                                       record_every=10)
    finally:
        tracer.uninstall()
    counts = tracer.counts[0]
    assert len(traj.ts) == 6 and len(traj.states) == 1
    assert counts["lindblad.evolve_density.steps"] == 50
    assert counts["lindblad.trajectory.state_bytes_computed"] == 8 * 8 * 16
    assert tracer.layers("density")["lindblad.evolve_density"]["calls"] == 1


def test_benchmark_scenario_fields_are_scenario_fields():
    """Each name in ``perfbench/worker.py``'s ``SCENARIO_FIELDS``, which
    the worker reads off a loaded scenario to fingerprint it, is a
    ``Scenario`` field.  The names are read from the source, since the
    worker imports the package at module level."""
    with open(os.path.join(PERFBENCH, "worker.py"), encoding="utf-8") as fh:
        [names] = [ast.literal_eval(node.value)
                   for node in ast.parse(fh.read()).body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets]
                   == ["SCENARIO_FIELDS"]]
    fields = {f.name for f in dataclasses.fields(Scenario)}
    assert names and not set(names) - fields, sorted(set(names) - fields)


def test_benchmark_tracer_counts_an_auxiliary_solve(monkeypatch):
    """With the tracer installed, a 40-step auxiliary solve goes through
    its ``solve_auxiliary`` hook, which binds the call's ``t_max`` and
    ``h`` by name."""
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.begin_run("auxiliary")
        auxiliary.solve_auxiliary(ConstantSchedule(1.0), ConstantSchedule(0.1),
                                  ErmakovInit(1.0, 0.0), 0.04, 1e-3)
    finally:
        tracer.uninstall()
    assert tracer.counts[0]["auxiliary.solve_auxiliary.steps"] == 40


def test_benchmark_gate_selftest_passes():
    """``perfbench/gate_selftest.py`` exits 0: the gate passes the recorded
    reference against itself and trips on every perturbation it tries."""
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "gate_selftest.py")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_readme_example_compiles_and_imports_existing_names():
    """The README's ``python`` block compiles, and every name it imports
    from the package exists.  The example is not run: it integrates a
    dim-60 run over [0, 20]."""
    with open(README, encoding="utf-8") as fh:
        [block] = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    tree = ast.parse(block)
    compile(tree, "README.md", "exec")
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module.split(".")[0] == "invariantlab"
             for alias in node.names]
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"README imports missing names: {missing}"


def _unused_imports(source: str) -> list[str]:
    """Names a module's import statements bind that no expression reads
    and ``__all__`` does not list.  Docstrings and comments do not count
    as uses."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_the_unused_import_scan_flags_a_leftover():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .auxiliary import _check_cover, _dense_at\n"
              "__all__ = ['_check_cover']\n"
              "x = np.zeros(1)\n")
    assert _unused_imports(source) == ["_dense_at"]


def _python_files(directory, prefix=""):
    """(id, path) of the .py files of ``directory``, each id the file name
    after ``prefix``."""
    return [pytest.param(os.path.join(directory, f), id=prefix + f)
            for f in sorted(os.listdir(directory)) if f.endswith(".py")]


@pytest.mark.parametrize("path", _python_files(SOURCES)
                         + _python_files(TESTS, "tests/"))
def test_no_module_imports_a_name_it_never_uses(path):
    with open(path, encoding="utf-8") as fh:
        unused = _unused_imports(fh.read())
    assert not unused, f"{path} imports names it never uses: {unused}"


# (module file, function) of the one ``.conj().T`` the package keeps:
# ``drift_rhs``'s L^dag L acts on the drift probe's dim-16 operators.
TRANSPOSED_CONJUGATE_EXCEPTIONS = {("invariants.py", "drift_rhs")}


def _transposed_conjugates(source: str) -> list[tuple[str, int]]:
    """(innermost enclosing function or ``<module>``, line) of each
    ``x.conj().T`` and ``x.conjugate().T``.  numpy 2.4 conjugates such a
    transposed operand through a temporary of its size, which
    ``operators._with_dagger`` avoids."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            call = getattr(child, "value", None)
            if (isinstance(child, ast.Attribute) and child.attr == "T"
                    and isinstance(call, ast.Call) and not call.args
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("conj", "conjugate")):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_conjugate_transpose_scan_flags_each_form():
    source = ("def f(a):\n"
              "    return a - a.conj().T\n"
              "b = x.conjugate().T @ y.conj()\n")
    assert _transposed_conjugates(source) == [("f", 2), ("<module>", 3)]


@pytest.mark.parametrize("path", _python_files(SOURCES))
def test_no_module_forms_a_transposed_conjugate(path):
    with open(path, encoding="utf-8") as fh:
        found = [(owner, line) for owner, line in
                 _transposed_conjugates(fh.read())
                 if (os.path.basename(path), owner)
                 not in TRANSPOSED_CONJUGATE_EXCEPTIONS]
    assert not found, (f"{path} forms x.conj().T at {found}; use "
                       "operators._with_dagger")

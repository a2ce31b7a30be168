"""Span tracing of the package from outside it, by wrapping public names.

Wrapping rules (each was checked against the package source):

* ``runner`` and ``invariants`` import functions by name
  (``from .lindblad import coefficients_at``), so wrapping only the
  defining module would miss their calls.  ``install`` replaces a
  function under every name bound to it in every ``invariantlab``
  module, the package namespace included.
* ``assemble_model`` returns closures that look up the module global
  ``coefficients_at`` on each call, so wrapping
  ``invariantlab.lindblad.coefficients_at`` catches the calls made
  inside the model.  The closures themselves are wrapped by rebuilding
  the returned model (``lindblad.model.hamiltonian_at`` and
  ``lindblad.model.dissipators_at``).
* ``Schedule.eval`` is wrapped on the base class: no subclass overrides
  it, and ``Schedule.__call__`` goes through it.
* ``FockOperator`` constructions are counted through ``__post_init__``,
  which the dataclass ``__init__`` looks up on the class at each call.
* The leaf helpers in ``UNWRAPPED`` are left alone; their time counts
  as self time of the span that calls them.
* Entry points must be looked up at call time (``invariantlab.runner
  .verify_scenario``), never captured before ``install``.

Spans (run id, span id, parent span id, name, start, end) live in flat
arrays while the pipeline runs and are written out afterwards.  A span's
self time is its duration minus that of its direct child spans; a name's
busy time counts only spans with no enclosing span of the same name.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "invariantlab"
MODULES = ("scenario", "schedules", "operators", "auxiliary", "lindblad",
           "invariants", "runner")
# Leaf helpers called once per element of the spans above them (about
# 200 000 calls per baseline verify): wrapping them would double the
# tracing overhead and they mark no layer boundary.
UNWRAPPED = ("operators.max_abs", "operators.commutator",
             "operators.interior_block", "operators.trace_pair",
             "auxiliary.hermite_value", "auxiliary.hermite_derivative")
# (module, class) of the four CSV writers the runner calls
CSV_WRITERS = (("lindblad", "Trajectory"), ("auxiliary", "ErmakovSolution"),
               ("invariants", "ExpectationSeries"),
               ("invariants", "SpectrumSeries"))
COMPLEX_BYTES = 16


def step_count(t_max: float, h: float) -> int:
    """Fixed-step count of the package's integrators for a window and step."""
    return int(math.ceil(t_max / h - 1e-9))


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.runs: list[str] = []
        self.run_index = -1
        self.counts: dict[int, Counter] = {}
        self.parent = array.array("q")
        self.name = array.array("q")
        self.run = array.array("q")
        self.nested = array.array("b")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.epoch = time.perf_counter_ns()

    # -------------------------------------------------------------- recording

    def begin_run(self, run_id: str):
        self.runs.append(run_id)
        self.run_index = len(self.runs) - 1
        self.counts[self.run_index] = Counter()

    def count(self, key: str, value=1):
        self.counts[self.run_index][key] += value

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` recording a span per call.

        ``before(args, kwargs)`` runs ahead of the span and its value is
        handed to ``after(args, kwargs, result, token)``, which runs after
        the span closes and returns the (possibly replaced) result.
        """
        idx = self._name_index(name)
        parent_a, name_a, run_a = self.parent, self.name, self.run
        nested_a, start_a, end_a = self.nested, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns
        depth = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            token = before(args, kwargs) if before is not None else None
            sid = len(start_a)
            parent_a.append(stack[-1])
            name_a.append(idx)
            run_a.append(self.run_index)
            nested_a.append(depth > 0)
            end_a.append(0)
            stack.append(sid)
            depth += 1
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[sid] = clock()
                depth -= 1
                stack.pop()
            if after is not None:
                result = after(args, kwargs, result, token)
            return result

        return wrapper

    # ------------------------------------------------------------- installing

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of the traced modules, and the extras."""
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        holders = [mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        hooks = self._hooks()
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name in UNWRAPPED:
                    continue
                wrapped = self.wrap(name, fn, *hooks.get(name, (None, None)))
                for holder in holders:
                    for bound_name, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, bound_name, wrapped)

        schedule = mods["schedules"].Schedule
        self._set(schedule, "eval", self.wrap("schedules.Schedule.eval",
                                              schedule.eval))
        fock = mods["operators"].FockOperator
        post_init = fock.__post_init__

        def counted_post_init(op):
            self.count("operators.FockOperator.constructions")
            return post_init(op)

        self._set(fock, "__post_init__", counted_post_init)
        for short, cls_name in CSV_WRITERS:
            cls = getattr(mods[short], cls_name)
            self._set(cls, "write_csv", self.wrap(
                f"runner.csv.{cls_name}", cls.write_csv, after=self._csv_bytes))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ hooks

    def _csv_bytes(self, args, kwargs, result, _token):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.count("runner.csv.bytes", os.path.getsize(path))
        return result

    def _hooks(self) -> dict:
        def steps_of(prefix, fn):
            def after(args, kwargs, result, _token):
                a = _bound(fn, args, kwargs)
                self.count(f"{prefix}.steps", step_count(a["t_max"], a["h"]))
                return result
            return after

        lindblad = importlib.import_module(f"{PACKAGE}.lindblad")
        auxiliary = importlib.import_module(f"{PACKAGE}.auxiliary")
        density_fn = lindblad.evolve_density

        def density_before(args, kwargs):
            return self.counts[self.run_index]["jump_stages"]

        def density_after(args, kwargs, traj, jump_stages_before):
            a = _bound(density_fn, args, kwargs)
            steps = step_count(a["t_max"], a["h"])
            dim = a["model"].basis.dim
            dissipative = self.counts[self.run_index]["jump_stages"] > jump_stages_before
            # per step: 4 right-hand sides of 4 (dissipative) or 2 complex
            # n x n products, 8 n^3 real flops each
            matmuls = 4 if dissipative else 2
            self.count("lindblad.evolve_density.steps", steps)
            self.count("lindblad.evolve_density.flop_computed",
                       steps * 4 * matmuls * 8 * dim ** 3)
            self.count("lindblad.trajectory.state_bytes_computed",
                       len(traj.states) * dim * dim * COMPLEX_BYTES)
            return traj

        def dissipators_after(args, kwargs, result, _token):
            if result:
                self.count("jump_stages")
            return result

        def model_after(args, kwargs, model, _token):
            return dataclasses.replace(
                model,
                hamiltonian_at=self.wrap("lindblad.model.hamiltonian_at",
                                         model.hamiltonian_at),
                dissipators_at=self.wrap("lindblad.model.dissipators_at",
                                         model.dissipators_at,
                                         after=dissipators_after))

        def samples_after(args, kwargs, result, _token):
            self.count("invariants.spectrum_series.samples", len(result.ts))
            return result

        return {
            "lindblad.evolve_density": (density_before, density_after),
            "lindblad.evolve_adjoint_observable": (None, steps_of(
                "lindblad.evolve_adjoint_observable",
                lindblad.evolve_adjoint_observable)),
            "auxiliary.solve_auxiliary": (None, steps_of(
                "auxiliary.solve_auxiliary", auxiliary.solve_auxiliary)),
            "lindblad.assemble_model": (None, model_after),
            "invariants.spectrum_series": (None, samples_after),
        }

    # ---------------------------------------------------------------- derived

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (end - start).astype(float) * 1e-9
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def layers(self, run_id: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s and self_s within one run."""
        r = self.runs.index(run_id)
        dur, self_t = self._arrays()
        run = np.frombuffer(self.run, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int64)
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool)
        in_run = run == r
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            sel = in_run & (names == idx)
            calls = int(np.count_nonzero(sel))
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["busy_s"] += float(dur[sel & ~nested].sum())
            entry["self_s"] += float(self_t[sel].sum())
        return out

    def write_spans(self, path: str):
        """CSV of every span: run_id,span_id,parent_id,name,start_ns,end_ns."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            epoch = self.epoch
            runs, names = self.runs, self.names
            for sid in range(len(self.start)):
                fh.write(f"{runs[self.run[sid]]},{sid},{self.parent[sid]},"
                         f"{names[self.name[sid]]},{self.start[sid] - epoch},"
                         f"{self.end[sid] - epoch}\n")


"""Workload definitions: which pipeline entry point runs on which scenario.

A workload's scenario is a base scenario plus overrides, written out as a
plain scenario file so that the timed set-up goes through the public
``load_scenario`` exactly as a user's run does.  The seed picks one of
``PHASES`` coherent-state phases: the initial state is rotated, the work
per run (step count, basis size, record count) stays fixed, and every
battery verdict stays PASS (the phase only moves the conserved
expectation's drift, which is largest at phase 0, the shipped scenario).

This module imports nothing from the package or from numpy so that the
orchestrating process stays light.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

PHASES = 8
OUT_DIR = os.path.join("perfbench", "out")


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "verify" or "run"
    base: str | None  # scenario file under the repo root, or None
    beta_abs: float
    overrides: tuple[tuple[str, str], ...]


# Baseline physics (omega = 1 + 0.2 sin(0.1 t), kappa = 0.1) on a basis
# wide enough for a displaced coherent state: |beta|^2 = 36 < dim / 4 = 40.
# At dim 200 the 1e-3 step loses positivity, so the basis stays at 160.
_WIDE_BASIS = (
    ("omega.kind", "sinusoid"),
    ("omega.base", "1.0"),
    ("omega.amplitude", "0.2"),
    ("omega.rate", "0.1"),
    ("kappa.value", "0.1"),
    ("basis.dim", "160"),
    ("state.kind", "coherent"),
    ("run.t_max", "1.0"),
    ("run.step_h", "1e-3"),
    ("run.record_every", "50"),
    ("run.backend", "fock"),
)

WORKLOADS = {
    w.name: w for w in (
        Workload("verify-baseline", "verify", "scenarios/baseline.cfg",
                 0.7071067811865476, ()),
        Workload("verify-adiabatic", "verify", "scenarios/adiabatic.cfg",
                 0.7071067811865476, ()),
        Workload("run-wide-basis", "run", None, 6.0, _WIDE_BASIS),
    )
}


def variant(seed: int) -> int:
    """Phase index used for a seed."""
    return seed % PHASES


def _beta(w: Workload, k: int) -> tuple[str, str]:
    phase = 2.0 * math.pi * k / PHASES
    return repr(w.beta_abs * math.cos(phase)), repr(w.beta_abs * math.sin(phase))


def scenario_text(w: Workload, k: int, root: str = ".") -> str:
    """Scenario file text of workload ``w`` at phase index ``k``."""
    re_, im_ = _beta(w, k)
    overrides = dict(w.overrides)
    overrides.update({"state.beta_re": re_, "state.beta_im": im_,
                      "outputs.directory": f"../artifacts/{w.name}"})
    lines = []
    if w.base is not None:
        with open(os.path.join(root, w.base), encoding="utf-8") as fh:
            for raw in fh.read().splitlines():
                key = raw.split("#", 1)[0].partition("=")[0].strip()
                if key not in overrides:
                    lines.append(raw)
    lines.append(f"# overrides for workload {w.name}, phase index {k}")
    lines.extend(f"{key} = {value}" for key, value in overrides.items())
    return "\n".join(lines) + "\n"


def write_scenario(w: Workload, k: int, root: str = ".") -> str:
    """Write the workload's scenario under ``perfbench/out`` and return its path."""
    directory = os.path.join(root, OUT_DIR, "scenarios")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{w.name}-phase{k}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_text(w, k, root))
    return path

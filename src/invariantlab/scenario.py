"""Declarative scenario files: parsing, validation, and defaults.

A scenario file is plain text with one ``section.key = value`` entry per
line.  ``#`` starts a comment, blank lines are ignored, keys may appear
at most once, and unknown keys are fatal (a typo that silently fell back
to a default would invalidate every downstream physics check).  Values
are numbers, ``true``/``false``, or bare strings; paths are resolved
relative to the scenario file.

The full key set, with defaults, is rendered by :func:`schema_text` and
by the ``schema`` CLI subcommand.
"""

from __future__ import annotations

import difflib
import math
import os
from dataclasses import dataclass

import numpy as np

from .auxiliary import ErmakovInit, adiabatic_rho, adiabatic_rhodot
from .errors import NegativeFrictionError, ParseError, ValidationError
from .operators import BasisConfig, StateSpec
from .schedules import (
    ConstantSchedule,
    FrequencyReport,
    LinearSchedule,
    Schedule,
    SinusoidSchedule,
    load_table_csv,
    validate_schedules,
)

__all__ = [
    "Scenario",
    "Tolerances",
    "build_scenario",
    "load_scenario",
    "parse_settings",
    "schema_text",
]

VALIDATION_GRID_POINTS = 1001

# ---------------------------------------------------------------------------
# schema: key -> (type tag, default-as-text or None if required/conditional)

# the parameter keys of a schedule: each kind takes its own and forbids the rest
_SCHEDULE_KEYS = ("value", "intercept", "slope", "base", "amplitude", "rate",
                  "phase", "table")
_SCHEDULE_KIND_KEYS = {"constant": ("value",),
                       "linear": ("intercept", "slope"),
                       "sinusoid": ("base", "amplitude", "rate", "phase"),
                       "table": ("table",)}
# the parameter keys of a state: each kind reads its own and forbids the rest
_STATE_KEYS = ("beta_re", "beta_im", "fock_n", "nbar")
_STATE_KIND_KEYS = {"coherent": ("beta_re", "beta_im"),
                    "fock": ("fock_n",),
                    "thermal": ("nbar",)}

_SCHEMA: dict[str, tuple[str, str | None, str]] = {
    "basis.dim": ("int", "60", "Fock-space truncation dimension (>= 8)"),
    "basis.omega_ref": ("float", None, "basis frequency; default omega(0)"),
    "basis.tail_fraction": ("float", "0.1", "top fraction of levels watched for leakage"),
    "basis.tail_threshold": ("float", "1e-8", "tail population that aborts a run"),
    "omega.kind": ("str", None, "frequency schedule: constant | linear | sinusoid | table"),
    "omega.value": ("float", None, "constant: the value"),
    "omega.intercept": ("float", None, "linear: intercept"),
    "omega.slope": ("float", None, "linear: slope"),
    "omega.base": ("float", None, "sinusoid: offset"),
    "omega.amplitude": ("float", None, "sinusoid: amplitude"),
    "omega.rate": ("float", None, "sinusoid: angular rate"),
    "omega.phase": ("float", "0.0", "sinusoid: phase"),
    "omega.table": ("str", None, "table: CSV path with header t,value"),
    "kappa.kind": ("str", "constant", "friction schedule: constant | linear | sinusoid | table"),
    "kappa.value": ("float", "0.0", "constant: the value"),
    "kappa.intercept": ("float", None, "linear: intercept"),
    "kappa.slope": ("float", None, "linear: slope"),
    "kappa.base": ("float", None, "sinusoid: offset"),
    "kappa.amplitude": ("float", None, "sinusoid: amplitude"),
    "kappa.rate": ("float", None, "sinusoid: angular rate"),
    "kappa.phase": ("float", "0.0", "sinusoid: phase"),
    "kappa.table": ("str", None, "table: CSV path with header t,value"),
    "auxiliary.use_adiabatic_init": ("bool", "true",
                                     "start rho on the slow-motion series"),
    "auxiliary.rho0": ("float", None, "explicit rho(0) (requires use_adiabatic_init = false)"),
    "auxiliary.rhodot0": ("float", None, "explicit rhodot(0) (requires use_adiabatic_init = false)"),
    "state.kind": ("str", "coherent", "coherent | fock | thermal | invariant_ground"),
    "state.beta_re": ("float", "0.7071067811865476", "coherent: Re beta"),
    "state.beta_im": ("float", "0.0", "coherent: Im beta"),
    "state.fock_n": ("int", "0", "fock: level number"),
    "state.nbar": ("float", "0.0", "thermal: mean occupation"),
    "run.t_max": ("float", "20.0", "integration window end"),
    "run.step_h": ("float", "1e-3", "integrator step"),
    "run.record_every": ("int", "100", "record every this many steps"),
    "run.backend": ("str", "fock", "fock | moments | both"),
    "run.adiabatic_epsilon": ("float", None,
                              "declared slow rate; enables the scaling check"),
    "tolerances.conservation": ("float", "1e-5", "max relative drift of the conserved series"),
    "tolerances.residual": ("float", "1e-6", "operator-equation residual bound"),
    "tolerances.positivity": ("float", "1e-8", "allowed negative-eigenvalue depth"),
    "tolerances.spectrum": ("float", "1e-6", "spectrum constancy bound"),
    "outputs.directory": ("str", "out", "artifact directory"),
    "outputs.csv_precision": ("int", "12", "significant digits in CSV floats (3..17)"),
}

_BOOL_WORDS = {"true": True, "false": False}


def schema_text() -> str:
    """Human-readable schema: one line per key with type, default, help."""
    lines = ["Scenario file format: one 'section.key = value' per line;",
             "'#' comments; unknown keys are fatal.  Keys:", ""]
    for key, (tag, default, help_) in _SCHEMA.items():
        shown = "(required/conditional)" if default is None else f"default {default}"
        lines.append(f"  {key:32s} {tag:6s} {shown:24s} {help_}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# raw text -> settings mapping


def parse_settings(text: str) -> dict[str, str]:
    """Parse scenario text into a key -> raw-value mapping.

    Syntax errors raise ParseError; unknown or duplicate keys raise
    ValidationError naming the key (with a closest-match hint).
    """
    settings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError(f"line {lineno}: empty key or value in {raw.strip()!r}")
        _check_known(key)
        if key in settings:
            raise ValidationError(f"duplicate key {key!r} (line {lineno})")
        settings[key] = value
    return settings


def _check_known(key: str):
    """Refuse a key the schema does not list, with a closest-match hint."""
    if key not in _SCHEMA:
        hint = difflib.get_close_matches(key, _SCHEMA, n=1)
        extra = f" (did you mean {hint[0]!r}?)" if hint else ""
        raise ValidationError(f"unknown key {key!r}{extra}")


def _convert(key: str, raw: str):
    tag = _SCHEMA[key][0]
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("not finite")
            return value
        if tag == "bool":
            return _BOOL_WORDS[raw.lower()]
    except (ValueError, KeyError):
        raise ValidationError(f"{key}: cannot read {raw!r} as {tag}") from None
    return raw


class _Settings:
    """Typed access over the raw mapping, tracking which keys were read."""

    def __init__(self, raw: dict[str, str]):
        self.raw = raw
        self.used: set[str] = set()

    def get(self, key: str):
        self.used.add(key)
        if key in self.raw:
            return _convert(key, self.raw[key])
        default = _SCHEMA[key][1]
        return None if default is None else _convert(key, default)

    def require(self, key: str, because: str):
        value = self.get(key)
        if value is None:
            raise ValidationError(f"{key} is required {because}")
        return value

    def forbid(self, key: str, because: str):
        self.used.add(key)
        if key in self.raw:
            raise ValidationError(f"{key} must not be set {because}")


# ---------------------------------------------------------------------------
# scenario object


@dataclass(frozen=True)
class Tolerances:
    conservation: float
    residual: float
    positivity: float
    spectrum: float

    def __post_init__(self):
        for name in ("conservation", "residual", "positivity", "spectrum"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"tolerances.{name} must be > 0")


@dataclass(frozen=True)
class Scenario:
    """A fully validated run description.

    ``settings`` preserves the explicit file content so that parameter
    sweeps can rebuild a modified scenario through the full validation
    path instead of mutating live objects.
    """

    basis: BasisConfig
    omega_schedule: Schedule
    kappa_schedule: Schedule
    use_adiabatic_init: bool
    rho0: float | None
    rhodot0: float | None
    state: StateSpec
    t_max: float
    step_h: float
    record_every: int
    backend: str
    adiabatic_epsilon: float | None
    tolerances: Tolerances
    out_dir: str
    csv_precision: int
    frequency_report: FrequencyReport
    settings: tuple[tuple[str, str], ...]
    base_dir: str

    def initial_auxiliary(self) -> ErmakovInit:
        if self.use_adiabatic_init:
            return ErmakovInit(
                adiabatic_rho(self.omega_schedule, self.kappa_schedule, 0.0),
                adiabatic_rhodot(self.omega_schedule, self.kappa_schedule, 0.0))
        return ErmakovInit(self.rho0, self.rhodot0)

    def with_setting(self, key: str, value: str) -> "Scenario":
        """Rebuild with one raw key overridden (full revalidation)."""
        _check_known(key)
        raw = dict(self.settings)
        raw[key] = value
        return build_scenario(raw, self.base_dir)


def _build_schedule(cfg: _Settings, prefix: str, base_dir: str) -> Schedule:
    kind = cfg.require(f"{prefix}.kind", "to describe the schedule")
    because = f"for {prefix}.kind = {kind}"
    if kind not in _SCHEDULE_KIND_KEYS:
        raise ValidationError(
            f"{prefix}.kind must be constant, linear, sinusoid, or table; got {kind!r}")
    for name in _SCHEDULE_KEYS:
        if name not in _SCHEDULE_KIND_KEYS[kind]:
            cfg.forbid(f"{prefix}.{name}", because)
    if kind == "constant":
        return ConstantSchedule(cfg.require(f"{prefix}.value", because))
    if kind == "linear":
        return LinearSchedule(cfg.require(f"{prefix}.intercept", because),
                              cfg.require(f"{prefix}.slope", because))
    if kind == "sinusoid":
        return SinusoidSchedule(cfg.require(f"{prefix}.base", because),
                                cfg.require(f"{prefix}.amplitude", because),
                                cfg.require(f"{prefix}.rate", because),
                                cfg.get(f"{prefix}.phase"))
    path = cfg.require(f"{prefix}.table", because)
    return load_table_csv(os.path.join(base_dir, path))


def _build_state(cfg: _Settings) -> StateSpec:
    kind = cfg.get("state.kind")
    # a coherent state reads beta before the keys its kind forbids are
    # checked; fock and thermal read their parameter after
    beta = (complex(cfg.get("state.beta_re"), cfg.get("state.beta_im"))
            if kind == "coherent" else 0j)
    for name in _STATE_KEYS:
        if name not in _STATE_KIND_KEYS.get(kind, ()):
            cfg.forbid(f"state.{name}", f"for state.kind = {kind}")
    if kind == "fock":
        return StateSpec(kind="fock", fock_n=cfg.get("state.fock_n"))
    if kind == "thermal":
        return StateSpec(kind="thermal", nbar=cfg.get("state.nbar"))
    return StateSpec(kind=kind, beta=beta)  # StateSpec validates the name itself


def build_scenario(raw: dict[str, str], base_dir: str = ".") -> Scenario:
    """Validate a settings mapping into a Scenario."""
    cfg = _Settings(dict(raw))

    omega_s = _build_schedule(cfg, "omega", base_dir)
    kappa_s = _build_schedule(cfg, "kappa", base_dir)

    t_max = cfg.get("run.t_max")
    step_h = cfg.get("run.step_h")
    record_every = cfg.get("run.record_every")
    backend = cfg.get("run.backend")
    epsilon = cfg.get("run.adiabatic_epsilon")
    if t_max <= 0:
        raise ValidationError(f"run.t_max must be > 0, got {t_max}")
    if step_h <= 0 or step_h > t_max:
        raise ValidationError(f"run.step_h must lie in (0, t_max], got {step_h}")
    if record_every < 1:
        raise ValidationError(f"run.record_every must be >= 1, got {record_every}")
    if backend not in ("fock", "moments", "both"):
        raise ValidationError(f"run.backend must be fock, moments, or both, got {backend!r}")
    if epsilon is not None and epsilon <= 0:
        raise ValidationError(f"run.adiabatic_epsilon must be > 0, got {epsilon}")

    for name, sched in (("omega", omega_s), ("kappa", kappa_s)):
        if not sched.covers(0.0, t_max):
            raise ValidationError(f"{name} schedule does not cover [0, {t_max:g}]")
    grid = np.linspace(0.0, t_max, VALIDATION_GRID_POINTS)
    try:
        report = validate_schedules(omega_s, kappa_s, grid)
    except NegativeFrictionError as exc:
        raise ValidationError(f"kappa: {exc}") from exc

    omega_ref = cfg.get("basis.omega_ref")
    if omega_ref is None:
        omega_ref = float(omega_s(0.0))
    basis = BasisConfig(dim=cfg.get("basis.dim"), omega_ref=omega_ref,
                        tail_fraction=cfg.get("basis.tail_fraction"),
                        tail_threshold=cfg.get("basis.tail_threshold"))

    state = _build_state(cfg)
    state.check_against(basis)

    use_adiabatic = cfg.get("auxiliary.use_adiabatic_init")
    if use_adiabatic:
        cfg.forbid("auxiliary.rho0", "when auxiliary.use_adiabatic_init is true")
        cfg.forbid("auxiliary.rhodot0", "when auxiliary.use_adiabatic_init is true")
        rho0 = rhodot0 = None
    else:
        rho0 = cfg.require("auxiliary.rho0", "when auxiliary.use_adiabatic_init is false")
        rhodot0 = cfg.require("auxiliary.rhodot0", "when auxiliary.use_adiabatic_init is false")
        if rho0 <= 0:
            raise ValidationError(f"auxiliary.rho0 must be > 0, got {rho0}")

    tolerances = Tolerances(
        conservation=cfg.get("tolerances.conservation"),
        residual=cfg.get("tolerances.residual"),
        positivity=cfg.get("tolerances.positivity"),
        spectrum=cfg.get("tolerances.spectrum"))

    precision = cfg.get("outputs.csv_precision")
    if not 3 <= precision <= 17:
        raise ValidationError(f"outputs.csv_precision must lie in [3, 17], got {precision}")
    # Relative output directories follow the same rule as table-schedule
    # paths: they resolve against the scenario file's directory, so a run
    # lands in the same place regardless of the caller's working directory.
    out_dir = os.path.normpath(os.path.join(base_dir, cfg.get("outputs.directory")))

    unused = set(cfg.raw) - cfg.used
    if unused:  # keys known to the schema but untouched by this configuration
        raise ValidationError(f"keys not applicable here: {sorted(unused)}")

    return Scenario(
        basis=basis, omega_schedule=omega_s, kappa_schedule=kappa_s,
        use_adiabatic_init=use_adiabatic, rho0=rho0, rhodot0=rhodot0,
        state=state, t_max=t_max, step_h=step_h, record_every=record_every,
        backend=backend, adiabatic_epsilon=epsilon, tolerances=tolerances,
        out_dir=out_dir, csv_precision=precision, frequency_report=report,
        settings=tuple(sorted(raw.items())), base_dir=base_dir)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    return build_scenario(parse_settings(text), os.path.dirname(os.path.abspath(path)))

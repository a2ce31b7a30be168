"""Time-dependent coefficient schedules with derivative access.

The frequency omega(t) and friction kappa(t) enter the dynamics together
with their first and second derivatives (the adiabatic series needs
omega-double-dot), so every schedule evaluates value, slope, and curvature.
Closed forms are differentiated analytically; tables go through a natural
cubic spline whose edge curvature is clamped to the nearest interior knot
to avoid the spurious zero the natural boundary condition would impose.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import NegativeFrictionError, ParseError, ValidationError

KAPPA_NEGATIVE_TOL = -1e-12


class Schedule:
    """Base: real coefficient of time with derivatives up to order 2."""

    # (t0, t1) evaluation window, or None when defined for all t
    window: tuple[float, float] | None = None

    def eval(self, t, order: int = 0):
        if order not in (0, 1, 2):
            raise ValidationError(f"derivative order must be 0, 1 or 2, got {order}")
        self._check_window(t)
        return self._eval(np.asarray(t, dtype=float), order)

    def __call__(self, t):
        return self.eval(t, 0)

    def covers(self, t0: float, t1: float) -> bool:
        if self.window is None:
            return True
        lo, hi = self.window
        return lo <= t0 and t1 <= hi

    def _check_window(self, t):
        if self.window is None:
            return
        lo, hi = self.window
        t = np.asarray(t, dtype=float)
        if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
            raise ValidationError(
                f"time {float(np.min(t)):g}..{float(np.max(t)):g} outside "
                f"schedule window [{lo:g}, {hi:g}]")

    def _eval(self, t: np.ndarray, order: int):
        raise NotImplementedError


def _match_shape(t, value):
    """Return a scalar for scalar t, an array for array t."""
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(value) if np.ndim(value) == 0 else float(np.asarray(value))
    return np.broadcast_to(np.asarray(value, dtype=float), np.shape(t)).copy()


@dataclass(frozen=True)
class ConstantSchedule(Schedule):
    value: float

    def _eval(self, t, order):
        return _match_shape(t, self.value if order == 0 else 0.0)


@dataclass(frozen=True)
class LinearSchedule(Schedule):
    intercept: float
    slope: float

    def _eval(self, t, order):
        if order == 0:
            out = self.intercept + self.slope * t
        elif order == 1:
            out = np.full_like(t, self.slope, dtype=float)
        else:
            out = np.zeros_like(t, dtype=float)
        return _match_shape(t, out)


@dataclass(frozen=True)
class SinusoidSchedule(Schedule):
    """base + amplitude * sin(frequency * t + phase)"""

    base: float
    amplitude: float
    frequency: float
    phase: float = 0.0

    def _eval(self, t, order):
        arg = self.frequency * t + self.phase
        if order == 0:
            out = self.base + self.amplitude * np.sin(arg)
        elif order == 1:
            out = self.amplitude * self.frequency * np.cos(arg)
        else:
            out = -self.amplitude * self.frequency ** 2 * np.sin(arg)
        return _match_shape(t, out)


class TableSchedule(Schedule):
    """Natural cubic interpolant through (t, value) knots.

    Second-derivative queries are clamped to the innermost knots: the
    natural spline forces zero curvature at the ends, which would poison
    any curvature-sensitive consumer evaluated near the edge.
    """

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValidationError("table times and values must be 1-D and equal length")
        if times.size < 4:
            raise ValidationError(f"table needs at least 4 points, got {times.size}")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("table times must be strictly increasing")
        self.times = times
        self.values = values
        self.window = (float(times[0]), float(times[-1]))
        self._spline = CubicSpline(times, values, bc_type="natural")
        self._d1 = self._spline.derivative(1)
        self._d2 = self._spline.derivative(2)

    def _eval(self, t, order):
        if order == 0:
            out = self._spline(t)
        elif order == 1:
            out = self._d1(t)
        else:
            clamped = np.clip(t, self.times[1], self.times[-2])
            out = self._d2(clamped)
        return _match_shape(t, out)


def load_table_csv(path) -> TableSchedule:
    """Read a two-column CSV with header ``t,value`` into a TableSchedule."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read table {path}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["t", "value"]:
        raise ParseError(f"table {path} must start with header 't,value'")
    times, values = [], []
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(f"table {path} line {i}: expected 2 columns, got {len(row)}")
        try:
            times.append(float(row[0]))
            values.append(float(row[1]))
        except ValueError as exc:
            raise ParseError(f"table {path} line {i}: {exc}") from exc
    return TableSchedule(times, values)


class ReflectedSchedule(Schedule):
    """View of another schedule run backward from ``t_end``.

    Evaluates ``sign * inner(t_end - t)`` with the chain-rule factor
    (-1)^order on derivatives.  Reflecting the friction with ``sign=-1``
    turns the anti-damped auxiliary equation into a damped one, which is how
    the relaxed reference on the slowly-varying branch is constructed.
    """

    def __init__(self, inner: Schedule, t_end: float, sign: float = 1.0):
        self.inner = inner
        self.t_end = float(t_end)
        self.sign = float(sign)
        if inner.window is not None:
            a, b = inner.window
            self.window = (self.t_end - b, self.t_end - a)

    def _eval(self, t, order):
        val = self.inner.eval(self.t_end - t, order)
        out = self.sign * (-1.0) ** order * np.asarray(val, dtype=float)
        return _match_shape(t, out)


# ---------------------------------------------------------------------------


def modulated_frequency_sq(omega_s: Schedule, kappa_s: Schedule, t):
    """Effective squared frequency of the damped mean motion.

    The first moments obey xddot + 2 kappa xdot + (omega^2 + kappa^2 +
    kappadot) x = 0; this returns that last bracket.
    """
    w = omega_s.eval(t, 0)
    k = kappa_s.eval(t, 0)
    kdot = kappa_s.eval(t, 1)
    return w * w + k * k + kdot


@dataclass(frozen=True)
class FrequencyReport:
    """Sampled validity data for a schedule pair."""

    times: np.ndarray
    omega_sq_mod: np.ndarray          # modulated squared frequency samples
    kappa_negative: bool = False      # any kappa(t) < 0 on the grid
    omega_sq_negative: bool = False   # any modulated frequency^2 < 0
    first_negative_omega_sq_t: float | None = field(default=None)

    @property
    def clean(self) -> bool:
        return not (self.kappa_negative or self.omega_sq_negative)


def validate_schedules(omega_s: Schedule, kappa_s: Schedule, grid) -> FrequencyReport:
    """Sample kappa and the modulated frequency on a grid and judge them.

    kappa below -1e-12 anywhere is a hard error (the dissipator weight must
    be non-negative).  A negative modulated frequency merely flags the
    report: overdamped stretches are legitimate, just worth surfacing.
    """
    grid = np.asarray(grid, dtype=float)
    kappa = np.asarray(kappa_s.eval(grid, 0), dtype=float)
    bad = kappa < KAPPA_NEGATIVE_TOL
    if np.any(bad):
        t_bad = float(grid[np.argmax(bad)])
        raise NegativeFrictionError(
            f"NegativeFriction: kappa({t_bad:g}) = {float(kappa[np.argmax(bad)]):g} < 0")
    omega_sq_mod = np.asarray(modulated_frequency_sq(omega_s, kappa_s, grid), dtype=float)
    neg = omega_sq_mod < 0
    return FrequencyReport(
        times=grid,
        omega_sq_mod=omega_sq_mod,
        kappa_negative=bool(np.any(kappa < 0)),
        omega_sq_negative=bool(np.any(neg)),
        first_negative_omega_sq_t=float(grid[np.argmax(neg)]) if np.any(neg) else None,
    )

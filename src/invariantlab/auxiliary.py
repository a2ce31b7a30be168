"""Auxiliary c-number equation feeding the invariant construction.

The anti-damped nonlinear auxiliary equation

    rhoddot - kappa(t) rhodot + omega^2(t) rho = 1/rho^3,

whose solution parametrizes the weak invariant, is solved here with a
fixed-step classical fourth-order Runge-Kutta scheme (deterministic,
order-verifiable).  Note the friction term carries the opposite sign to
the damped mean motion, so perturbations around the slow solution *grow*
at rate kappa/2.  The scheme's driver, ``_rk4``, steps ndarray states:
the density and adjoint integrators of the lindblad module.  This
equation's real pair (rho, rhodot) is stepped in one loop that writes out
the driver's arithmetic in its operation order (``solve_auxiliary``); the
two linear moment systems apply the same scheme as exact one-step maps
(``lindblad._linear_rk4``).

Solutions are sampled on the step grid and evaluated densely by cubic
Hermite interpolation; the second derivative stored alongside comes from
the ODE right-hand side at the nodes (never from finite differencing), so
the residual check below is an honest measure of how well the interpolated
trajectory satisfies the equation between nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityError, ValidationError
from .schedules import ReflectedSchedule, Schedule, _check_window

RHO_FLOOR = 1e-6


# ------------------------------------------------------------------ hermite

def _locate(ts: np.ndarray, t: np.ndarray):
    h = ts[1] - ts[0]
    idx = np.clip(((t - ts[0]) / h).astype(int), 0, len(ts) - 2)
    s = (t - ts[idx]) / h
    return idx, s, h


def hermite_value(ts, y, ydot, t):
    """Cubic Hermite interpolant value at t (uniform grid)."""
    t = np.asarray(t, dtype=float)
    idx, s, h = _locate(ts, t)
    s2, s3 = s * s, s * s * s
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    return h00 * y[idx] + h * h10 * ydot[idx] + h01 * y[idx + 1] + h * h11 * ydot[idx + 1]


def hermite_derivative(ts, y, ydot, t):
    """Analytic t-derivative of the cubic Hermite interpolant."""
    t = np.asarray(t, dtype=float)
    idx, s, h = _locate(ts, t)
    s2 = s * s
    d00 = (6 * s2 - 6 * s) / h
    d10 = 3 * s2 - 4 * s + 1
    d01 = (-6 * s2 + 6 * s) / h
    d11 = 3 * s2 - 2 * s
    return d00 * y[idx] + d10 * ydot[idx] + d01 * y[idx + 1] + d11 * ydot[idx + 1]


def _dense_at(ts, y, ydot, t, what: str, derivative: bool = False):
    """Window-checked Hermite value (or its t-derivative) of a sampled series.

    Returns a float for scalar t and an array otherwise.
    """
    t = _check_window(t, ts[0], ts[-1], what)
    out = (hermite_derivative if derivative else hermite_value)(ts, y, ydot, t)
    return out if t.ndim else float(out)


# ------------------------------------------------------------------- records


def _freeze_fields(record, *names: str):
    """Store the named fields of a frozen record as read-only float arrays.

    Each field is a private contiguous copy, so the caller's arrays stay
    writable and unaliased.
    """
    for name in names:
        arr = np.array(getattr(record, name), dtype=float)
        arr.flags.writeable = False
        object.__setattr__(record, name, arr)


def _write_rows(path, header: str, rows, precision: int):
    """Write a CSV artifact: the header line, then one line per row of floats.

    Every float is rendered with ``precision`` significant digits, so
    identical records give byte-identical files.
    """
    fmt = f"{{:.{precision}g}}"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt.format(v) for v in row) + "\n")


@dataclass(frozen=True)
class ErmakovInit:
    rho0: float
    rhodot0: float = 0.0

    def __post_init__(self):
        if not self.rho0 >= RHO_FLOOR:
            raise ValidationError(f"rho0 must be >= {RHO_FLOOR:g}, got {self.rho0}")


@dataclass(frozen=True, eq=False)
class ErmakovSolution:
    """Sampled (rho, rhodot) trajectory with dense Hermite evaluation.

    ``rhoddot`` holds the ODE right-hand side at the nodes; every rho
    sample must clear the positivity floor.
    """

    ts: np.ndarray
    rho: np.ndarray
    rhodot: np.ndarray
    rhoddot: np.ndarray

    def __post_init__(self):
        _freeze_fields(self, "ts", "rho", "rhodot", "rhoddot")
        samples = (self.rho, self.rhodot, self.rhoddot)
        if not all(np.isfinite(a).all() for a in samples):
            raise ValidationError("solution samples must be finite")
        if not np.all(self.rho >= RHO_FLOOR):
            raise ValidationError("rho samples dip below the positivity floor")

    @property
    def window(self) -> tuple[float, float]:
        return float(self.ts[0]), float(self.ts[-1])

    @property
    def step(self) -> float:
        return float(self.ts[1] - self.ts[0])

    def rho_at(self, t):
        return _dense_at(self.ts, self.rho, self.rhodot, t, "solution")

    def rhodot_at(self, t):
        return _dense_at(self.ts, self.rhodot, self.rhoddot, t, "solution")

    def rhoddot_at(self, t):
        """Second derivative of the interpolated trajectory.

        Taken as the analytic derivative of the rhodot interpolant, so it is
        independent of the equation's right-hand side away from the nodes.
        """
        return _dense_at(self.ts, self.rhodot, self.rhoddot, t, "solution",
                         derivative=True)

    def write_csv(self, path, precision: int = 12, idx=slice(None)):
        """Write the rows at node indices ``idx`` (default: every node)."""
        _write_rows(path, "t,rho,rhodot",
                    zip(self.ts[idx], self.rho[idx], self.rhodot[idx]),
                    precision)


# ----------------------------------------------------------------- integrate


def _step_count(t_max: float, h: float) -> int:
    if not h > 0:
        raise ValidationError(f"step h must be > 0, got {h}")
    if not t_max > 0:
        raise ValidationError(f"t_max must be > 0, got {t_max}")
    return int(np.ceil(t_max / h - 1e-9))


def _half_grid_coefficients(omega_s: Schedule, kappa_s: Schedule,
                            n_steps: int, h: float, first: int = 0):
    """Stage times and coefficients: nodes and midpoints, in one pass.

    Returns (times, omega^2, kappa) on the grid j*h/2, j = 2*first ..
    2*(first + n_steps): the n_steps steps that start at node ``first``.
    """
    t0, t_end = first * h, (first + n_steps) * h
    if not (omega_s.covers(t0, t_end) and kappa_s.covers(t0, t_end)):
        raise ValidationError("schedules do not cover the integration window")
    half = 0.5 * h * np.arange(2 * first, 2 * (first + n_steps) + 1)
    w = np.asarray(omega_s.eval(half, 0), dtype=float)
    omega_sq = w * w
    kappa = np.asarray(kappa_s.eval(half, 0), dtype=float)
    return half, omega_sq, kappa


def _rk4(rhs, stage, y0, n, h, record, every=1, skip=0):
    """Classical fourth-order Runge-Kutta over n fixed steps of size h.

    ``stage(j)`` returns the right-hand-side data at time j*h/2 and
    ``rhs(y, data)`` the derivative there; each step's end stage is reused
    as the next step's start stage.  A negative h steps backward in time.
    ``record(i, y)`` receives the state at the nodes skip, skip + every,
    ... below n and at the last node n.  The state is an ndarray; the
    stage states are y + c s and the step is y + h/6 (s1 + 2 (s2 + s3)
    + s4), in that operation order, so a real pair stepped as a float
    (2,) array rounds as ``solve_auxiliary``'s written-out loop
    (``test_auxiliary_loop_is_the_driver_on_a_float_pair``).

    Buffers: the state is stepped in a private copy of y0, which the
    driver owns, with one more array for the stage states and the
    combination; a step allocates no state-sized array.  ``record`` gets a
    copy, and the returned state is the driver's copy, which no later step
    writes.  ``rhs`` may write its slope into a buffer of its own and
    return that: the driver calls it four times per step, uses all four
    slopes of a step before the next step's first call and keeps none
    after, so four buffers used in rotation never overwrite a slope still
    in use.  A slope must not alias the ``y`` it was computed from.
    ``stage`` may likewise write into buffers of its own: the driver calls
    ``stage(j)`` once for each j = 0 .. 2n, in increasing order, and after
    forming stage j reads no stage before j - 2 (a step holds its start,
    mid and end stage), so three buffers used in rotation suffice.
    """
    half = 0.5 * h
    sixth = h / 6.0
    y = np.array(y0)
    arg = np.empty_like(y)
    end = None
    due = skip
    for i in range(n):
        if i == due:
            record(i, y.copy())
            due += every
        start = stage(2 * i) if end is None else end
        mid = stage(2 * i + 1)
        end = stage(2 * i + 2)
        s1 = rhs(y, start)
        s2 = rhs(np.add(np.multiply(s1, half, out=arg), y, out=arg), mid)
        s3 = rhs(np.add(np.multiply(s2, half, out=arg), y, out=arg), mid)
        s4 = rhs(np.add(np.multiply(s3, h, out=arg), y, out=arg), end)
        acc = np.add(s2, s3, out=arg)
        acc *= 2.0
        acc += s1
        acc += s4
        acc *= sixth
        y += acc
    record(n, y.copy())
    return y


def _singularity(r: float, t: float) -> SingularityError:
    return SingularityError(
        f"rho reached {r:.3e} (floor {RHO_FLOOR:g}) near t = {t:.6g}")


def solve_auxiliary(omega_s: Schedule, kappa_s: Schedule, init: ErmakovInit,
                    t_max: float, h: float) -> ErmakovSolution:
    """Integrate the anti-damped auxiliary equation with fixed-step RK4.

    Coefficients are evaluated at the stage times.  If rho drops below the
    positivity floor at any stage or node, the 1/rho^3 term invalidates the
    step-size assumptions and the run aborts with a SingularityError naming
    that time; no automatic refinement is attempted.

    The real pair (rho, rhodot) is stepped in one loop that writes out
    ``_rk4``'s stages and step combination in its operation order, so its
    nodes equal, bit for bit, ``_rk4`` stepping a float (2,) array; it
    costs no Python call per stage.
    """
    n = _step_count(t_max, h)
    _, omega_sq, kappa = _half_grid_coefficients(omega_s, kappa_s, n, h)
    # memoryviews index to Python floats without a per-stage object list
    ks, ws = memoryview(kappa), memoryview(omega_sq)
    rho, rhodot = np.empty(n + 1), np.empty(n + 1)
    half, sixth, inf = 0.5 * h, h / 6.0, np.inf
    r, v = float(init.rho0), float(init.rhodot0)
    k, w = ks[0], ws[0]
    # an overflowed rho turns inf, then nan: "not >=" fails on the nan at
    # the next stage, and the node check also on an inf that ends the run.
    # Stage 1 starts from the node, whose check is the stricter one.
    for i in range(n + 1):
        if not RHO_FLOOR <= r < inf:
            raise _singularity(r, i * h)
        rho[i] = r
        rhodot[i] = v
        if i == n:
            break
        j = 2 * i
        a1 = k * v - w * r + 1.0 / (r * r * r)
        k, w = ks[j + 1], ws[j + 1]
        r2, v2 = r + half * v, v + half * a1
        if not r2 >= RHO_FLOOR:
            raise _singularity(r2, half * (j + 1))
        a2 = k * v2 - w * r2 + 1.0 / (r2 * r2 * r2)
        r3, v3 = r + half * v2, v + half * a2
        if not r3 >= RHO_FLOOR:
            raise _singularity(r3, half * (j + 1))
        a3 = k * v3 - w * r3 + 1.0 / (r3 * r3 * r3)
        # the end stage's coefficients are the next step's start
        k, w = ks[j + 2], ws[j + 2]
        r4, v4 = r + h * v3, v + h * a3
        if not r4 >= RHO_FLOOR:
            raise _singularity(r4, half * (j + 2))
        a4 = k * v4 - w * r4 + 1.0 / (r4 * r4 * r4)
        r = r + sixth * (v + 2.0 * (v2 + v3) + v4)
        v = v + sixth * (a1 + 2.0 * (a2 + a3) + a4)
    ts = h * np.arange(n + 1)
    rhoddot = kappa[::2] * rhodot - omega_sq[::2] * rho + rho ** -3.0
    return ErmakovSolution(ts=ts, rho=rho, rhodot=rhodot, rhoddot=rhoddot)


def solve_tracking_reference(omega_s: Schedule, kappa_s: Schedule,
                             window: float, h: float) -> ErmakovSolution:
    """Relaxed numerical solution on the slowly-varying branch over [0, window].

    Forward in time the branch the slow-variation series describes is
    repelling (perturbations grow at rate kappa/2), so shooting at it is
    hopeless.  Reflecting time turns the anti-damping into damping: this
    integrates the reflected equation from a series seed placed a margin
    ahead of the window, letting the transient decay like exp(-kappa tau/2),
    then maps the samples back onto the forward grid.  Requires kappa > 0
    throughout (no relaxation otherwise).
    """
    k_probe = float(kappa_s.eval(0.0, 0))
    if not k_probe > 0:
        raise ValidationError(
            "tracking reference needs kappa > 0 (got kappa(0) = %g)" % k_probe)
    # decay factor exp(-kappa*margin/2) ~ 1e-7 of the seed mismatch
    margin = 2.0 * 16.2 / k_probe
    m = _step_count(window, h)
    n = m + int(np.ceil(margin / h))
    t_end = n * h

    omega_r = ReflectedSchedule(omega_s, t_end)
    kappa_r = ReflectedSchedule(kappa_s, t_end, sign=-1.0)
    seed = ErmakovInit(adiabatic_rho(omega_s, kappa_s, t_end),
                       -adiabatic_rhodot(omega_s, kappa_s, t_end))
    back = solve_auxiliary(omega_r, kappa_r, seed, t_end, h)

    # reflect the sampled trajectory onto forward time and keep [0, window]
    rho_f = back.rho[::-1]
    rhodot_f = -back.rhodot[::-1]
    rhoddot_f = back.rhoddot[::-1]
    ts_f = h * np.arange(n + 1)
    sl = slice(0, m + 1)
    return ErmakovSolution(ts=ts_f[sl], rho=rho_f[sl], rhodot=rhodot_f[sl],
                           rhoddot=rhoddot_f[sl])


# ------------------------------------------------------------------ series


def adiabatic_rho(omega_s: Schedule, kappa_s: Schedule, t):
    """Slow-variation solution of the auxiliary equation, displayed terms only.

    Exact for constant coefficients (then it reduces to omega^{-1/2}); the
    truncation error scales with the third power of the slowness rate.
    """
    w = np.asarray(omega_s.eval(t, 0), dtype=float)
    if np.any(w <= 0):
        raise ValidationError("adiabatic series requires omega(t) > 0")
    wd = omega_s.eval(t, 1)
    wdd = omega_s.eval(t, 2)
    k = kappa_s.eval(t, 0)
    kd = kappa_s.eval(t, 1)
    ratio_sq = (k / w) ** 2
    out = (
        w ** -0.5
        - k * wd / (8.0 * w ** 3.5)
        - wd ** 2 * (3.0 - 1.75 * ratio_sq) / (16.0 * w ** 4.5)
        - k * kd * wd / (32.0 * w ** 5.5)
        + wdd * (1.0 - 0.25 * ratio_sq) / (8.0 * w ** 3.5)
    )
    return out if np.ndim(t) else float(out)


def adiabatic_rhodot(omega_s: Schedule, kappa_s: Schedule, t: float) -> float:
    """Time derivative of the series by second-order finite differencing.

    Falls back to a one-sided stencil when a table window blocks one side.
    """
    delta = 1e-5

    def f(u):
        return adiabatic_rho(omega_s, kappa_s, u)

    both = lambda lo, hi: omega_s.covers(lo, hi) and kappa_s.covers(lo, hi)
    if both(t - delta, t + delta):
        return (f(t + delta) - f(t - delta)) / (2.0 * delta)
    if both(t, t + 2 * delta):
        return (-3.0 * f(t) + 4.0 * f(t + delta) - f(t + 2 * delta)) / (2.0 * delta)
    if both(t - 2 * delta, t):
        return (3.0 * f(t) - 4.0 * f(t - delta) + f(t - 2 * delta)) / (2.0 * delta)
    raise ValidationError(f"cannot difference the series at t = {t:g}: window too tight")


# ----------------------------------------------------------------- residual


def auxiliary_residual(sol: ErmakovSolution, omega_s: Schedule,
                       kappa_s: Schedule, t):
    """ODE defect of the interpolated trajectory at time(s) t.

    Computes rhoddot - kappa rhodot + omega^2 rho - 1/rho^3 with the second
    derivative reconstructed from the rhodot interpolant.  At the nodes this
    vanishes by construction; between nodes it measures genuine integration
    plus interpolation error (fourth order in the step).
    """
    rho = sol.rho_at(t)
    rhodot = sol.rhodot_at(t)
    rhoddot = sol.rhoddot_at(t)
    w = omega_s.eval(t, 0)
    k = kappa_s.eval(t, 0)
    out = rhoddot - k * rhodot + w * w * rho - rho ** -3.0
    return out if np.ndim(t) else float(out)


def max_residual_between_nodes(sol: ErmakovSolution, omega_s: Schedule,
                               kappa_s: Schedule) -> float:
    """Max |auxiliary_residual| over the interval midpoints."""
    pts = sol.ts[:-1] + 0.5 * sol.step
    return float(np.max(np.abs(auxiliary_residual(sol, omega_s, kappa_s, pts))))

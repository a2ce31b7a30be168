"""Auxiliary c-number equations feeding the invariant construction.

Two second-order ODEs are solved here with a fixed-step classical
fourth-order Runge-Kutta scheme (deterministic, order-verifiable).  Its
one driver, ``_rk4``, steps every integrator of the package, these two
and the four in the lindblad module:

* the anti-damped nonlinear auxiliary equation
      rhoddot - kappa(t) rhodot + omega^2(t) rho = 1/rho^3,
  whose solution parametrizes the weak invariant.  Note the friction term
  carries the opposite sign to the damped mean motion, so perturbations
  around the slow solution *grow* at rate kappa/2;
* the linear mode equation  epsdot' + omega^2(t) eps = 0  behind the
  first-order invariant.

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
from .schedules import ReflectedSchedule, Schedule

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


# ------------------------------------------------------------------- records


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

    ``rhoddot`` holds the ODE right-hand side at the nodes.  The same record
    shape carries linear-mode solutions (enforce_floor=False), whose values
    legitimately cross zero.
    """

    ts: np.ndarray
    rho: np.ndarray
    rhodot: np.ndarray
    rhoddot: np.ndarray
    enforce_floor: bool = True

    def __post_init__(self):
        for name in ("ts", "rho", "rhodot", "rhoddot"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.enforce_floor and np.any(self.rho < RHO_FLOOR):
            raise ValidationError("rho samples dip below the positivity floor")

    @property
    def window(self) -> tuple[float, float]:
        return float(self.ts[0]), float(self.ts[-1])

    @property
    def step(self) -> float:
        return float(self.ts[1] - self.ts[0])

    def _check_window(self, t):
        lo, hi = self.window
        t = np.asarray(t, dtype=float)
        if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
            raise ValidationError(
                f"time outside solution window [{lo:g}, {hi:g}]")

    def rho_at(self, t):
        self._check_window(t)
        out = hermite_value(self.ts, self.rho, self.rhodot, t)
        return out if np.ndim(t) else float(out)

    def rhodot_at(self, t):
        self._check_window(t)
        out = hermite_value(self.ts, self.rhodot, self.rhoddot, t)
        return out if np.ndim(t) else float(out)

    def rhoddot_at(self, t):
        """Second derivative of the interpolated trajectory.

        Taken as the analytic derivative of the rhodot interpolant, so it is
        independent of the equation's right-hand side away from the nodes.
        """
        self._check_window(t)
        out = hermite_derivative(self.ts, self.rhodot, self.rhoddot, t)
        return out if np.ndim(t) else float(out)

    def write_csv(self, path, precision: int = 12, every: int = 1):
        fmt = f"{{:.{precision}g}}"
        with open(path, "w") as fh:
            fh.write("t,rho,rhodot\n")
            for i in range(0, len(self.ts), every):
                fh.write(",".join(fmt.format(v) for v in
                                  (self.ts[i], self.rho[i], self.rhodot[i])) + "\n")


# ----------------------------------------------------------------- integrate


def _step_count(t_max: float, h: float) -> int:
    if not h > 0:
        raise ValidationError(f"step h must be > 0, got {h}")
    if not t_max > 0:
        raise ValidationError(f"t_max must be > 0, got {t_max}")
    return int(np.ceil(t_max / h - 1e-9))


def _half_grid_coefficients(omega_s: Schedule, kappa_s: Schedule | None,
                            n_steps: int, h: float):
    """Stage times and coefficients: nodes and midpoints, in one pass.

    Returns (times, omega^2, kappa) on the grid j*h/2, j = 0..2*n_steps;
    kappa is zero when no friction schedule is given.
    """
    t_end = n_steps * h
    scheds = (omega_s,) if kappa_s is None else (omega_s, kappa_s)
    if not all(sched.covers(0.0, t_end) for sched in scheds):
        raise ValidationError("schedules do not cover the integration window")
    half = 0.5 * h * np.arange(2 * n_steps + 1)
    w = np.asarray(omega_s.eval(half, 0), dtype=float)
    omega_sq = w * w
    if kappa_s is None:
        kappa = np.zeros_like(half)
    else:
        kappa = np.asarray(kappa_s.eval(half, 0), dtype=float)
    return half, omega_sq, kappa


def _rk4(rhs, stage, y0, n, h, record, every=1):
    """Classical fourth-order Runge-Kutta over n fixed steps of size h.

    ``stage(j)`` returns the right-hand-side data at time j*h/2 and
    ``rhs(y, data)`` the derivative there; each step's end stage is reused
    as the next step's start stage.  ``record(i, y)`` receives the state at
    every ``every``-th node and at the last node.  The state is either a
    complex ndarray or, for a real pair (r, v), one Python complex
    r + 1j*v: both kinds go through the same combination, so the matrix
    and scalar integrators round alike.  Returns the final state.
    """
    half = 0.5 * h
    sixth = h / 6.0
    y = y0
    end = None
    for i in range(n):
        if i % every == 0:
            record(i, y)
        start = stage(2 * i) if end is None else end
        mid = stage(2 * i + 1)
        end = stage(2 * i + 2)
        s1 = rhs(y, start)
        s2 = rhs(y + half * s1, mid)
        s3 = rhs(y + half * s2, mid)
        s4 = rhs(y + h * s3, end)
        y = y + sixth * (s1 + 2.0 * (s2 + s3) + s4)
    record(n, y)
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
    """
    n = _step_count(t_max, h)
    _, omega_sq, kappa = _half_grid_coefficients(omega_s, kappa_s, n, h)
    # memoryviews index to Python floats without a per-stage object list
    ks, ws = memoryview(kappa), memoryview(omega_sq)

    def rhs(y, j):
        r, v = y.real, y.imag
        if r < RHO_FLOOR:
            raise _singularity(r, 0.5 * h * j)
        return complex(v, ks[j] * v - ws[j] * r + 1.0 / (r * r * r))

    ys = np.empty(n + 1, dtype=complex)

    def record(i, y):
        if y.real < RHO_FLOOR:
            raise _singularity(y.real, i * h)
        ys[i] = y

    _rk4(rhs, lambda j: j, complex(init.rho0, init.rhodot0), n, h, record)
    ts = h * np.arange(n + 1)
    # contiguous copies: the dense-output lookups index them on every call
    rho, rhodot = ys.real.copy(), ys.imag.copy()
    rhoddot = kappa[::2] * rhodot - omega_sq[::2] * rho + rho ** -3.0
    return ErmakovSolution(ts=ts, rho=rho, rhodot=rhodot, rhoddot=rhoddot)


def solve_classical_mode(omega_s: Schedule, init: tuple[float, float],
                         t_max: float, h: float) -> ErmakovSolution:
    """Integrate the linear mode equation with the same integrator contract."""
    n = _step_count(t_max, h)
    _, omega_sq, _ = _half_grid_coefficients(omega_s, None, n, h)
    ys = np.empty(n + 1, dtype=complex)
    _rk4(lambda y, w2: complex(y.imag, -w2 * y.real),
         memoryview(omega_sq).__getitem__, complex(init[0], init[1]), n, h,
         ys.__setitem__)
    ts = h * np.arange(n + 1)
    eps, epsdot = ys.real, ys.imag
    return ErmakovSolution(ts=ts, rho=eps, rhodot=epsdot,
                           rhoddot=-omega_sq[::2] * eps, enforce_floor=False)


def solve_tracking_reference(omega_s: Schedule, kappa_s: Schedule,
                             window: float, h: float,
                             margin: float | None = None) -> ErmakovSolution:
    """Relaxed numerical solution on the slowly-varying branch over [0, window].

    Forward in time the branch the slow-variation series describes is
    repelling (perturbations grow at rate kappa/2), so shooting at it is
    hopeless.  Reflecting time turns the anti-damping into damping: this
    integrates the reflected equation from a series seed placed ``margin``
    ahead of the window, letting the transient decay like exp(-kappa tau/2),
    then maps the samples back onto the forward grid.  Requires kappa > 0
    throughout (no relaxation otherwise).
    """
    k_probe = float(kappa_s.eval(0.0, 0))
    if not k_probe > 0:
        raise ValidationError(
            "tracking reference needs kappa > 0 (got kappa(0) = %g)" % k_probe)
    if margin is None:
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
    return ErmakovSolution(ts=ts_f[sl], rho=rho_f[sl].copy(),
                           rhodot=rhodot_f[sl].copy(), rhoddot=rhoddot_f[sl].copy())


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


def adiabatic_rhodot(omega_s: Schedule, kappa_s: Schedule, t: float,
                     delta: float = 1e-5) -> float:
    """Time derivative of the series by second-order finite differencing.

    Falls back to a one-sided stencil when a table window blocks one side.
    """

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
                               kappa_s: Schedule, samples_per_gap: int = 1) -> float:
    """Max |auxiliary_residual| over interval midpoints (optionally more)."""
    h = sol.step
    offsets = (np.arange(1, samples_per_gap + 1) / (samples_per_gap + 1.0)) * h
    worst = 0.0
    for off in offsets:
        pts = sol.ts[:-1] + off
        r = auxiliary_residual(sol, omega_s, kappa_s, pts)
        worst = max(worst, float(np.max(np.abs(r))))
    return worst

"""Dissipative evolution engine for the damped parametric oscillator.

The auxiliary solution fixes, at every instant, a single Hermitian jump
operator L = K1 + a2 K2 + a3 K3 and a strength alpha such that the
resulting friction is exactly the declared kappa(t).  This module
assembles that model and evolves density matrices, conserved
observables, and the two closed moment systems, all through the one
fixed-step RK4 driver ``auxiliary._rk4``, so convergence claims are
uniform.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .auxiliary import (
    ErmakovSolution,
    _half_grid_coefficients,
    _rk4,
    _step_count,
    hermite_derivative,
    hermite_value,
)
from .errors import (
    NegativeFrictionError,
    NumericalError,
    PositivityLossError,
    TruncationLeakError,
    ValidationError,
)
from .operators import (
    DENSITY_EIG_FLOOR,
    DENSITY_HERM_TOL,
    DENSITY_TRACE_TOL,
    BasisConfig,
    DensityMatrix,
    FockOperator,
    build_canonical,
    build_su11_generators,
    commutator,
    expectation,
    interior_block,
    max_abs,
)
from .schedules import KAPPA_NEGATIVE_TOL, Schedule, modulated_frequency_sq

# |alpha*(a2 - a3^2) - kappa| above this means the coefficient algebra
# was evaluated on corrupted inputs, not that the step size is too large.
COEFF_IDENTITY_TOL = 1e-12
POSITIVITY_HARD_FLOOR = -1e-6
ADJOINT_HERM_TOL = 1e-10
MOMENT_BOUND_TOL = 1e-9
CLOSURE_GATE_TOL = 1e-10


def _freeze(a) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.flags.writeable = False
    return out


# -------------------------------------------------------------- coefficients


@dataclass(frozen=True)
class LindbladCoefficients:
    """Jump-operator mixing weights and strength at one time.

    The first weight is fixed to 1; the combination alpha*(a2 - a3^2)
    is the friction the dissipator realizes.
    """

    t: float
    alpha: float
    a2: float
    a3: float
    a1: float = 1.0

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValidationError(
                f"dissipator strength must be >= 0, got {self.alpha}")
        if self.a1 != 1.0:
            raise ValidationError("the leading mixing weight is fixed to 1")
        if self.a2 - self.a3 * self.a3 < 0.0:
            raise ValidationError(
                "mixing weights must satisfy a2 - a3^2 >= 0 "
                f"(got a2={self.a2}, a3={self.a3})")

    @property
    def friction(self) -> float:
        """Damping rate alpha*(a2 - a3^2) realized by the dissipator."""
        return self.alpha * (self.a2 - self.a3 * self.a3)


def _jump_coefficients(kappa, r, v):
    """(alpha, a2, a3) from the friction and the auxiliary solution.

    alpha = 4 kappa rho^4 / ((rho rhodot)^2 + 4), a2 = rhodot^2/(2 rho^2)
    + rho^-4, a3 = -rhodot/(2 rho), elementwise on scalars or arrays.
    These satisfy alpha*(a2 - a3^2) = kappa identically; the residual of
    that identity is checked here so corrupted inputs fail loudly instead
    of dephasing the dissipator.
    """
    r2 = r * r
    alpha = 4.0 * kappa * r2 * r2 / ((r * v) ** 2 + 4.0)
    a2 = v * v / (2.0 * r2) + 1.0 / (r2 * r2)
    a3 = -v / (2.0 * r)
    dev = np.abs(alpha * (a2 - a3 * a3) - kappa).max()
    if dev > COEFF_IDENTITY_TOL:
        raise NumericalError(
            f"coefficient identity alpha*(a2-a3^2) = kappa violated by {dev:.3e}")
    return alpha, a2, a3


def coefficients_at(sol: ErmakovSolution, kappa_s: Schedule,
                    t: float) -> LindbladCoefficients:
    """Dissipator coefficients induced by the auxiliary solution at t."""
    t = float(t)
    kappa = float(kappa_s.eval(t))
    if kappa < KAPPA_NEGATIVE_TOL:
        raise NegativeFrictionError(
            f"friction is negative at t={t:.6g}: kappa={kappa:.3e}")
    alpha, a2, a3 = _jump_coefficients(max(kappa, 0.0), sol.rho_at(t),
                                       sol.rhodot_at(t))
    return LindbladCoefficients(t=t, alpha=alpha, a2=a2, a3=a3)


# --------------------------------------------------------------------- model


@dataclass(frozen=True)
class LindbladModel:
    """Time-dependent generator data: Hamiltonian and jump operators.

    ``dissipators_at`` returns (strength, jump-operator) pairs; the list
    is empty whenever the friction vanishes, which reduces the evolution
    to unitary dynamics without special-casing the integrators.
    """

    hamiltonian_at: Callable[[float], FockOperator]
    dissipators_at: Callable[[float], list[tuple[float, FockOperator]]]
    basis: BasisConfig


def assemble_model(omega_s: Schedule, kappa_s: Schedule, sol: ErmakovSolution,
                   k1: FockOperator, k2: FockOperator, k3: FockOperator,
                   cfg: BasisConfig) -> LindbladModel:
    """Oscillator model H = K1 + omega(t)^2 K2 with one Hermitian jump term."""
    for gen in (k1, k2, k3):
        if gen.dim != cfg.dim:
            raise ValidationError(
                f"generator dimension {gen.dim} does not match basis {cfg.dim}")

    def hamiltonian_at(t: float) -> FockOperator:
        w = float(omega_s.eval(t))
        return FockOperator(k1.entries + (w * w) * k2.entries)

    def dissipators_at(t: float) -> list[tuple[float, FockOperator]]:
        kappa = float(kappa_s.eval(t))
        if kappa < KAPPA_NEGATIVE_TOL:
            raise NegativeFrictionError(
                f"friction is negative at t={float(t):.6g}: kappa={kappa:.3e}")
        if kappa <= 0.0:
            return []
        c = coefficients_at(sol, kappa_s, t)
        jump = FockOperator(k1.entries + c.a2 * k2.entries + c.a3 * k3.entries)
        return [(c.alpha, jump)]

    return LindbladModel(hamiltonian_at=hamiltonian_at,
                         dissipators_at=dissipators_at, basis=cfg)


# --------------------------------------------------------------- diagnostics


def _diagnostics(arr: np.ndarray, cfg: BasisConfig) -> tuple[float, float, float, float]:
    tr = float(np.trace(arr).real)
    herm = max_abs(arr - arr.conj().T)
    sym = 0.5 * (arr + arr.conj().T)
    lo = float(np.linalg.eigvalsh(sym)[0])
    tail = float(np.sum(np.diag(arr).real[cfg.dim - cfg.n_tail:]))
    return tr, herm, lo, tail


def state_diagnostics(rho: DensityMatrix,
                      cfg: BasisConfig) -> tuple[float, float, float, float]:
    """(trace, hermiticity deviation, min eigenvalue, tail population)."""
    if rho.dim != cfg.dim:
        raise ValidationError(
            f"state dimension {rho.dim} does not match basis {cfg.dim}")
    return _diagnostics(rho.entries, cfg)


# ------------------------------------------------------------ density matrix


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded density-matrix evolution with per-sample health metrics.

    A sample outside the state tolerances marks the run failed at the
    first offending time but does not abort it; hard breaches (tail
    leakage, eigenvalues below the hard floor) raise during evolution.
    """

    ts: np.ndarray
    states: tuple[DensityMatrix, ...]
    trace: np.ndarray
    herm_dev: np.ndarray
    min_eig: np.ndarray
    tail_pop: np.ndarray
    basis: BasisConfig
    failed_at: float | None
    warnings: tuple[str, ...]

    def __post_init__(self):
        for name in ("ts", "trace", "herm_dev", "min_eig", "tail_pop"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def ok(self) -> bool:
        return self.failed_at is None

    def moments(self) -> list["MomentVector"]:
        return [moments_from_state(s, self.basis) for s in self.states]

    def write_csv(self, path, precision: int = 12):
        fmt = f"{{:.{precision}g}}"
        with open(path, "w") as fh:
            fh.write("t,mean_x,mean_p,k1,k2,k3,trace,herm_dev,min_eig,tail_pop\n")
            for i, m in enumerate(self.moments()):
                row = (self.ts[i], m.mean_x, m.mean_p, m.k1, m.k2, m.k3,
                       self.trace[i], self.herm_dev[i], self.min_eig[i],
                       self.tail_pop[i])
                fh.write(",".join(fmt.format(v) for v in row) + "\n")


def _density_stage_ops(model: LindbladModel, t: float):
    h_op = model.hamiltonian_at(t).entries
    drift = -1j * h_op
    jumps = []
    for strength, jump in model.dissipators_at(t):
        l_ = jump.entries
        l_h = l_.conj().T
        drift = drift - strength * (l_h @ l_)
        jumps.append((2.0 * strength, l_, l_h))
    return drift, drift.conj().T, jumps


def _density_rhs(state: np.ndarray, ops) -> np.ndarray:
    drift, drift_h, jumps = ops
    out = drift @ state + state @ drift_h
    for c, l_, l_h in jumps:
        out += c * (l_ @ state @ l_h)
    return out


def evolve_density(model: LindbladModel, rho0: DensityMatrix, t_max: float,
                   h: float, record_every: int = 100) -> Trajectory:
    """Fixed-step fourth-order integration of the density-matrix equation.

    The right-hand side is -i[H, rho] - sum_n alpha_n (Ln^dag Ln rho +
    rho Ln^dag Ln - 2 Ln rho Ln^dag) with every operator evaluated at
    the stage times.  No renormalization or positivity projection is
    applied: trace drift and eigenvalue dips are reported, not hidden.
    """
    cfg = model.basis
    if rho0.dim != cfg.dim:
        raise ValidationError(
            f"state dimension {rho0.dim} does not match basis {cfg.dim}")
    if record_every < 1:
        raise ValidationError(f"record_every must be >= 1, got {record_every}")
    n = _step_count(t_max, h)
    rec_ts: list[float] = []
    rec_states: list[DensityMatrix] = []
    rec_diag: list[tuple[float, float, float, float]] = []
    warnings: list[str] = []
    failed_at: float | None = None

    def record(i: int, arr: np.ndarray):
        nonlocal failed_at
        t = h * i
        tr, herm, lo, tail = _diagnostics(arr, cfg)
        if tail > cfg.tail_threshold:
            raise TruncationLeakError(
                f"tail population {tail:.3e} exceeds {cfg.tail_threshold:.1e} "
                f"at t={t:.6g}; increase the basis dimension")
        if lo < POSITIVITY_HARD_FLOOR:
            raise PositivityLossError(
                f"minimum eigenvalue {lo:.3e} at t={t:.6g}")
        problems = []
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            problems.append(f"trace drift {tr - 1.0:.3e}")
        if herm > DENSITY_HERM_TOL:
            problems.append(f"hermiticity deviation {herm:.3e}")
        if lo < DENSITY_EIG_FLOOR:
            problems.append(f"negative eigenvalue {lo:.3e}")
        if problems:
            warnings.append(f"t={t:.6g}: " + "; ".join(problems))
            if failed_at is None:
                failed_at = t
        rec_ts.append(t)
        rec_states.append(DensityMatrix(arr.copy(), validate=False))
        rec_diag.append((tr, herm, lo, tail))

    _rk4(_density_rhs, lambda j: _density_stage_ops(model, 0.5 * h * j),
         np.array(rho0.entries, dtype=complex), n, h, record, record_every)
    diag = np.array(rec_diag)
    return Trajectory(ts=np.array(rec_ts), states=tuple(rec_states),
                      trace=diag[:, 0], herm_dev=diag[:, 1],
                      min_eig=diag[:, 2], tail_pop=diag[:, 3],
                      basis=cfg, failed_at=failed_at, warnings=tuple(warnings))


# --------------------------------------------------------- adjoint evolution


@dataclass(frozen=True, eq=False)
class OperatorTrajectory:
    """Recorded evolution of a conserved observable."""

    ts: np.ndarray
    operators: tuple[FockOperator, ...]
    herm_dev: np.ndarray
    failed_at: float | None
    warnings: tuple[str, ...]

    def __post_init__(self):
        for name in ("ts", "herm_dev"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def ok(self) -> bool:
        return self.failed_at is None


def _adjoint_stage_ops(model: LindbladModel, t: float):
    h_op = model.hamiltonian_at(t).entries
    jumps = []
    for strength, jump in model.dissipators_at(t):
        l_ = jump.entries
        l_h = l_.conj().T
        jumps.append((strength, l_, l_h, l_h @ l_))
    return h_op, jumps


def _adjoint_rhs(q: np.ndarray, ops) -> np.ndarray:
    # grouped so that the generator annihilates the identity exactly,
    # not just to rounding: H q - q H and m q + q m - 2 l^dag q l both
    # cancel termwise at q = 1
    h_op, jumps = ops
    out = -1j * (h_op @ q - q @ h_op)
    for strength, l_, l_h, m in jumps:
        out += strength * (m @ q + q @ m) - (2.0 * strength) * (l_h @ q @ l_)
    return out


def evolve_adjoint_observable(model: LindbladModel, q0: FockOperator,
                              t_max: float, h: float,
                              record_every: int = 100) -> OperatorTrajectory:
    """Evolve an observable so its expectation in the evolving state is fixed.

    Integrates dQ/dt = -i[H, Q] + sum_n alpha_n (Ln^dag Ln Q + Q Ln^dag Ln
    - 2 Ln^dag Q Ln), the trace-pairing adjoint of the density equation:
    tr[Q(t) rho(t)] is constant when both evolve under the same model.
    """
    cfg = model.basis
    if q0.dim != cfg.dim:
        raise ValidationError(
            f"observable dimension {q0.dim} does not match basis {cfg.dim}")
    if not q0.hermitian:
        raise ValidationError(
            f"initial observable is not Hermitian "
            f"(deviation {q0.herm_deviation():.3e})")
    if record_every < 1:
        raise ValidationError(f"record_every must be >= 1, got {record_every}")
    n = _step_count(t_max, h)
    rec_ts: list[float] = []
    rec_ops: list[FockOperator] = []
    rec_dev: list[float] = []
    warnings: list[str] = []
    failed_at: float | None = None

    def record(i: int, arr: np.ndarray):
        nonlocal failed_at
        t = h * i
        if not np.all(np.isfinite(arr.view(float))):
            # the adjoint flow amplifies components at rates set by the
            # squared level gaps of the jump operator, so generic
            # observables eventually outgrow float range; conserved
            # observables built for the model stay bounded
            raise NumericalError(
                f"observable grew beyond float range by t={t:.6g}; "
                "shorten the window or seed with a conserved observable")
        dev = max_abs(arr - arr.conj().T)
        if dev > ADJOINT_HERM_TOL:
            warnings.append(f"t={t:.6g}: hermiticity deviation {dev:.3e}")
            if failed_at is None:
                failed_at = t
        rec_ts.append(t)
        rec_ops.append(FockOperator(arr.copy()))
        rec_dev.append(dev)

    # overflow between record points is caught at the next record; the
    # intermediate arithmetic may legitimately hit inf, so keep numpy quiet
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4(_adjoint_rhs, lambda j: _adjoint_stage_ops(model, 0.5 * h * j),
             np.array(q0.entries, dtype=complex), n, h, record, record_every)

    return OperatorTrajectory(ts=np.array(rec_ts), operators=tuple(rec_ops),
                              herm_dev=np.array(rec_dev),
                              failed_at=failed_at, warnings=tuple(warnings))


# -------------------------------------------------------------- moment types


def _check_k_moments(k1: float, k2: float, k3: float):
    if k1 < -MOMENT_BOUND_TOL or k2 < -MOMENT_BOUND_TOL:
        raise ValidationError(
            f"quadratic-form moments must be >= 0, got k1={k1}, k2={k2}")
    if k1 * k2 - (0.25 * k3 * k3 + 0.0625) < -MOMENT_BOUND_TOL:
        raise ValidationError(
            "moments violate the uncertainty bound "
            f"k1*k2 >= k3^2/4 + 1/16: k1={k1}, k2={k2}, k3={k3}")


@dataclass(frozen=True)
class MomentVector:
    """Canonical means and quadratic-generator expectations of one state."""

    mean_x: float
    mean_p: float
    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        _check_k_moments(self.k1, self.k2, self.k3)


@functools.lru_cache(maxsize=8)
def _observable_set(cfg: BasisConfig):
    x_op, p_op = build_canonical(cfg)
    g1, g2, g3 = build_su11_generators(x_op, p_op)
    return x_op, p_op, g1, g2, g3


def moments_from_state(rho: DensityMatrix, cfg: BasisConfig) -> MomentVector:
    """Moment vector of a state: canonical means and K expectations."""
    return MomentVector(*(expectation(op, rho) for op in _observable_set(cfg)))


# ------------------------------------------------------------- first moments


def _check_stage_friction(kappa: np.ndarray, h: float):
    """Reject friction below the tolerance anywhere on the stage grid."""
    bad = kappa < KAPPA_NEGATIVE_TOL
    if bad.any():
        raise NegativeFrictionError(
            f"friction is negative at t={0.5 * h * int(np.argmax(bad)):.6g}: "
            f"kappa={kappa.min():.3e}")


@dataclass(frozen=True, eq=False)
class FirstMomentSeries:
    """Mean position/momentum on a uniform grid, with dense output."""

    ts: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    xdot: np.ndarray
    pdot: np.ndarray
    xddot: np.ndarray

    def __post_init__(self):
        for name in ("ts", "mean_x", "mean_p", "xdot", "pdot", "xddot"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def window(self) -> tuple[float, float]:
        return float(self.ts[0]), float(self.ts[-1])

    def _check_window(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.window
        if np.any(t < lo - 1e-12) or np.any(t > hi + 1e-12):
            raise ValidationError(
                f"time {t!r} outside recorded window [{lo:g}, {hi:g}]")
        return t

    def x_at(self, t):
        t = self._check_window(t)
        return hermite_value(self.ts, self.mean_x, self.xdot, t)

    def p_at(self, t):
        t = self._check_window(t)
        return hermite_value(self.ts, self.mean_p, self.pdot, t)

    def xdot_at(self, t):
        t = self._check_window(t)
        return hermite_value(self.ts, self.xdot, self.xddot, t)

    def xddot_at(self, t):
        t = self._check_window(t)
        return hermite_derivative(self.ts, self.xdot, self.xddot, t)


def evolve_first_moments(omega_s: Schedule, kappa_s: Schedule,
                         m0: tuple[float, float], t_max: float,
                         h: float) -> FirstMomentSeries:
    """Integrate d<x>/dt = <p> - kappa <x>, d<p>/dt = -omega^2 <x> - kappa <p>.

    This is the exact projection of the full evolution onto the means;
    it holds for the constructed jump operator because the realized
    friction equals kappa identically.
    """
    n = _step_count(t_max, h)
    _, omega_sq, kappa = _half_grid_coefficients(omega_s, kappa_s, n, h)
    _check_stage_friction(kappa, h)
    ks, ws = memoryview(kappa), memoryview(omega_sq)

    def rhs(y, j):
        k = ks[j]
        x, p = y.real, y.imag
        return complex(p - k * x, -ws[j] * x - k * p)

    ys = np.empty(n + 1, dtype=complex)
    _rk4(rhs, lambda j: j, complex(m0[0], m0[1]), n, h, ys.__setitem__)
    ts = h * np.arange(n + 1)
    xs, ps = ys.real, ys.imag
    node_k = kappa[::2]
    node_w2 = omega_sq[::2]
    kdot = np.asarray(kappa_s.eval(ts, 1), dtype=float)
    xdot = ps - node_k * xs
    pdot = -node_w2 * xs - node_k * ps
    xddot = pdot - kdot * xs - node_k * xdot
    return FirstMomentSeries(ts=ts, mean_x=xs, mean_p=ps,
                             xdot=xdot, pdot=pdot, xddot=xddot)


def first_moment_residual(series: FirstMomentSeries, omega_s: Schedule,
                          kappa_s: Schedule, t):
    """Defect of the mean motion in its second-order damped form.

    Evaluates xddot + 2 kappa xdot + (omega^2 + kappa^2 + kappadot) x
    from the recorded series; zero for exact solutions, O(h^4) between
    nodes for converged runs.
    """
    kap = np.asarray(kappa_s.eval(t, 0), dtype=float)
    w2_mod = modulated_frequency_sq(omega_s, kappa_s, t)
    return (series.xddot_at(t) + 2.0 * kap * series.xdot_at(t)
            + w2_mod * series.x_at(t))


# ------------------------------------------------------------ su(1,1) moments


def closure_matrix(omega_sq, alpha, a2, a3) -> np.ndarray:
    """Coefficient matrix of the closed K-moment system.

    The span of the three quadratic generators is preserved by both the
    Hamiltonian and double-commutator terms, so d<K_i>/dt = M_ij <K_j>
    exactly; this returns M for given omega^2 and jump coefficients.
    Scalars give one 3x3 matrix, equal-shape arrays a stack of shape
    (..., 3, 3).  The derivation is gated by a brute-force matrix check
    (see ``_closure_matrix_verified``) before any moment run uses it.
    """
    diag = alpha * (4.0 * a3 * a3 - 2.0 * a2)
    rows = (
        (diag, 2.0 * alpha * a2 * a2, -omega_sq + 2.0 * alpha * a2 * a3),
        (2.0 * alpha, diag, 1.0 + 2.0 * alpha * a3),
        (2.0 - 4.0 * alpha * a3, -2.0 * omega_sq - 4.0 * alpha * a2 * a3,
         -4.0 * alpha * a2),
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


@functools.lru_cache(maxsize=1)
def _closure_matrix_verified() -> bool:
    """Check closure_matrix against brute-force commutators once per process.

    For several coefficient draws, i[H, K_i] - alpha [L, [L, K_i]] is
    evaluated with dense matrices and compared entrywise to the closure
    prediction on the truncation-safe interior block.
    """
    cfg = BasisConfig(dim=12, omega_ref=1.0)
    gens = tuple(g.entries for g in build_su11_generators(*build_canonical(cfg)))
    cases = ((1.0, 0.1, 1.0, 0.0),
             (2.3, 0.07, 1.7, -0.4),
             (0.5, 0.12, 3.0, 1.2))
    for omega_sq, alpha, a2, a3 in cases:
        mat = closure_matrix(omega_sq, alpha, a2, a3)
        h_op = gens[0] + omega_sq * gens[1]
        l_op = gens[0] + a2 * gens[1] + a3 * gens[2]
        for i in range(3):
            inner = commutator(l_op, gens[i])
            rhs_op = 1j * commutator(h_op, gens[i]) - alpha * commutator(l_op, inner)
            predicted = sum(mat[i, j] * gens[j] for j in range(3))
            dev = max_abs(interior_block(rhs_op - predicted, cfg.interior_dim))
            if dev > CLOSURE_GATE_TOL:
                raise NumericalError(
                    f"moment closure failed its operator check: row {i}, "
                    f"deviation {dev:.3e}")
    return True


@dataclass(frozen=True, eq=False)
class Su11MomentSeries:
    """Expectations of the three quadratic generators on a uniform grid."""

    ts: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray

    def __post_init__(self):
        for name in ("ts", "k1", "k2", "k3"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def evolve_su11_moments(omega_s: Schedule, kappa_s: Schedule,
                        sol: ErmakovSolution, v0: tuple[float, float, float],
                        t_max: float, h: float) -> Su11MomentSeries:
    """Integrate the exact closed system for the K-generator expectations."""
    _closure_matrix_verified()
    _check_k_moments(*v0)
    n = _step_count(t_max, h)
    half_ts, omega_sq, kappa = _half_grid_coefficients(omega_s, kappa_s, n, h)
    _check_stage_friction(kappa, h)
    r = np.asarray(sol.rho_at(half_ts), dtype=float)
    v = np.asarray(sol.rhodot_at(half_ts), dtype=float)
    mats = closure_matrix(
        omega_sq, *_jump_coefficients(np.maximum(kappa, 0.0), r, v))

    ys = np.empty((n + 1, 3))
    _rk4(lambda y, m: m @ y, mats.__getitem__, np.array(v0, dtype=float),
         n, h, ys.__setitem__)
    ts = h * np.arange(n + 1)
    return Su11MomentSeries(ts=ts, k1=ys[:, 0], k2=ys[:, 1], k3=ys[:, 2])

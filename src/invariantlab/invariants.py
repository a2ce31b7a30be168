"""Closed-form conserved observables and their verification toolkit.

One observable is constructed from auxiliary-equation data: the
quadratic form ``rho^2 K1 + (rhodot^2 + 1/rho^2) K2 - rho rhodot K3``
built on a solution of the dissipative auxiliary equation, whose
expectation is conserved under the damped evolution up to the defect
quantified below.  ``construct`` is the one place that solves the
construction's auxiliary equation: it returns the model on that one
solution, ``model.sol``, and on one basis.  The invariant is a reading
of the model, ``invariant_at(model, t)``, on that solution and the
basis's K1, K2 and K3 (``BasisConfig.operators``), so the toolkit takes
the model and no invariant can pair with another model.  On a
frictionless solution the invariant is the Lewis-Riesenfeld invariant,
written in the canonical pair as ``[(rho p - rhodot x)^2 + x^2/rho^2] / 2``
(``lr_invariant_at``, the independent reference the tests compare the
quadratic form against).

The verification toolkit evaluates operator-equation residuals by
central differencing of the closed forms (so the check is independent
of the algebra used to derive them), expectation series along density
trajectories, instantaneous spectra with continuity-checked pairing,
the per-eigenvalue drift formula, and the three coupled constraint
equations relating the jump-operator coefficients to the auxiliary
solution.

A structural note verified by the tests.  Expanding the transport
equation in the closed algebra of the three quadratic generators shows
that the constructed quadratic form satisfies it only up to an exact
defect term ``i kappa rho rhodot K3``: the coefficient construction
cancels the K1 and K2 components identically, and the K3 component
reduces to ``rho (rhoddot + omega^2 rho - 1/rho^3) = kappa rho rhodot``
by the auxiliary equation.  Consequences, each pinned quantitatively by
a test: the operator-equation residual equals ``|kappa rho rhodot|``
times the interior norm of K3; expectation series creep at rate
``kappa rho rhodot <K3>``; and the drift formula applied to the closed
form returns exactly ``-kappa (rho rhodot)^2 (n + 1/2)`` even though
its instantaneous spectrum is pinned to ``n + 1/2`` at every time by
the unit discriminant ``rho^2 (rhodot^2 + 1/rho^2) - (rho rhodot)^2 =
1`` (the drift formula presumes an exact transport solution, which the
closed form is not).  The defect vanishes identically when the friction
vanishes or when the auxiliary solution sits at an equilibrium point
(``rhodot = 0``), which are therefore the regimes where conservation,
residual, and drift checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .auxiliary import (
    ErmakovInit,
    ErmakovSolution,
    _freeze_fields,
    _write_rows,
    solve_auxiliary,
)
from .errors import NumericalError, ValidationError
from .lindblad import LindbladModel, Trajectory, _generator_arrays
from .operators import (
    BasisConfig,
    FockOperator,
    commutator,
    interior_block,
    max_abs,
)
from .schedules import Schedule, _check_window

__all__ = [
    "DRIFT_GAP_TOL",
    "ExpectationSeries",
    "SpectrumSeries",
    "constraint_residuals",
    "construct",
    "drift_rhs",
    "expectation_series",
    "invariant_at",
    "invariant_residual",
    "lr_invariant_at",
    "spectrum_series",
]

# Half-step for central differencing of closed-form time derivatives.
FD_HALF_STEP = 1e-4
# Sorted-order eigenvalue pairing is flagged when one level moves more
# than this between consecutive sample times.
CONTINUITY_BOUND = 0.1
# Eigenpairs closer than this to a neighbor are excluded from drift
# predictions (the projector formula needs simple eigenvalues).
DRIFT_GAP_TOL = 1e-6
# ``spectrum_series`` stacks one parity's blocks of as many times as fit in
# this many bytes, at least one.  A stack stays below glibc's 128 KiB mmap
# threshold: freeing a larger, mapped stack raises the threshold, and the
# later allocations then stay on the heap; 512 KiB stacks left 0.3 MB more
# resident after the baseline's 201-time spectrum than 64 KiB stacks.
SPECTRUM_BLOCK_BYTES = 1 << 16


def _weak_coefficients(r, v):
    """(c1, c2, c3) = (rho^2, rhodot^2 + 1/rho^2, rho rhodot), elementwise.

    The weak invariant is c1 K1 + c2 K2 - c3 K3, and its expectation
    c1 <K1> + c2 <K2> - c3 <K3>.
    """
    return r * r, v * v + 1.0 / (r * r), r * v


def lr_invariant_at(sol0: ErmakovSolution, x_op: FockOperator,
                    p_op: FockOperator, t: float) -> FockOperator:
    """Frictionless quadratic invariant in its canonical-pair form.

    Returns ``[(rho p - rhodot x)^2 + x^2 / rho^2] / 2`` for a solution
    of the undamped auxiliary equation; expanding the square reproduces
    ``invariant_at`` of a model on the same (rho, rhodot) exactly.
    """
    if x_op.dim != p_op.dim:
        raise ValidationError("canonical-pair dimensions differ")
    r = float(sol0.rho_at(t))
    v = float(sol0.rhodot_at(t))
    a = r * p_op.entries - v * x_op.entries
    x2 = x_op.entries @ x_op.entries
    return FockOperator(0.5 * (a @ a) + (0.5 / (r * r)) * x2)


def invariant_at(model: LindbladModel, t: float) -> FockOperator:
    """The weak invariant I(t) = rho^2 K1 + (rhodot^2 + 1/rho^2) K2 - rho
    rhodot K3 of the model, on its auxiliary solution ``model.sol`` and
    its basis's K1, K2 and K3 (``BasisConfig.operators``).

    The coefficient matrix has unit discriminant for every (rho, rhodot),
    so the interior spectrum sits at n + 1/2.  On a frictionless solution
    this is the Lewis-Riesenfeld invariant.
    """
    k1, k2, k3 = model.basis.operators[2:]
    c1, c2, c3 = _weak_coefficients(float(model.sol.rho_at(t)),
                                    float(model.sol.rhodot_at(t)))
    return FockOperator(c1 * k1.entries + c2 * k2.entries - c3 * k3.entries)


def construct(omega_s: Schedule, kappa_s: Schedule, init: ErmakovInit,
              t_max: float, h: float, basis: BasisConfig) -> LindbladModel:
    """The model on its construction's auxiliary solution.

    Solves the construction's auxiliary equation for the schedules over
    [0, t_max] with step h from ``init``, and builds the model on that
    solution, ``model.sol``, and on ``basis``; the model's invariant is
    ``invariant_at(model, t)``.  The basis's operators are built here,
    so that no run builds them inside its evolution.
    """
    sol = solve_auxiliary(omega_s, kappa_s, init, t_max, h)
    basis.operators  # built here, before any run reads them
    return LindbladModel(omega_s, kappa_s, sol, basis)


def invariant_residual(model: LindbladModel, t: float) -> float:
    """Interior max-norm defect of the conservation operator equation.

    Evaluates ``i dI/dt - [H, I] - i sum_n alpha_n [L_n, [L_n, I]]``
    for the model's invariant I (``invariant_at``; where the friction
    vanishes the model has no jump operator and this is ``i dI/dt - [H,
    I]``), with dI/dt obtained by central differencing of the closed
    form at half-step ``FD_HALF_STEP`` — deliberately independent of the
    algebra that constructed the observable.

    The difference has a floor.  Where the construction is exact, as on
    frictionless runs, a value below about 1e-10 measures the rounding
    of the FD_HALF_STEP difference, not the construction: the adiabatic
    kappa = 0 sweep row moved from 5.97e-11 to 6.39e-11 when the
    auxiliary solution moved by only 9.5e-16.  Read such values as "at
    the floor", not as a ranking.
    """
    d_op = ((invariant_at(model, t + FD_HALF_STEP).entries
             - invariant_at(model, t - FD_HALF_STEP).entries)
            / (2.0 * FD_HALF_STEP))
    i_op = invariant_at(model, t).entries
    row = model.coefficients(t)
    h_op, l_arr = _generator_arrays(model.generators, row)
    res = 1j * d_op - commutator(h_op, i_op)
    if l_arr is not None:
        res -= 1j * row[1] * commutator(l_arr, commutator(l_arr, i_op))
    return max_abs(interior_block(res, model.basis.interior_dim))


@dataclass(frozen=True, eq=False)
class ExpectationSeries:
    """Expectation of a conserved observable along a recorded trajectory."""

    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze_fields(self, "ts", "values")
        if self.ts.shape != self.values.shape:
            raise ValidationError("time and value grids differ in length")

    @property
    def rel_drift(self) -> np.ndarray:
        base = self.values[0]
        scale = max(abs(base), np.finfo(float).tiny)
        return np.abs(self.values - base) / scale

    @property
    def max_rel_drift(self) -> float:
        return float(np.max(self.rel_drift))

    def write_csv(self, path, precision: int = 12):
        _write_rows(path, "t,expect_I,rel_drift",
                    zip(self.ts, self.values, self.rel_drift), precision)


def _weak_expectation_series(sol: ErmakovSolution, ts, k1, k2,
                             k3) -> ExpectationSeries:
    """<I> = c1 <K1> + c2 <K2> - c3 <K3> at the times ``ts``, from the K
    expectations there and the coefficients of ``sol`` (``_weak_coefficients``).

    The weak invariant is linear in K1, K2 and K3, so this is tr[I(t)
    rho(t)] up to rounding; both backends form their series here.
    """
    c1, c2, c3 = _weak_coefficients(sol.rho_at(ts), sol.rhodot_at(ts))
    return ExpectationSeries(ts=ts, values=c1 * k1 + c2 * k2 - c3 * k3)


def expectation_series(traj: Trajectory,
                       model: LindbladModel) -> ExpectationSeries:
    """tr[I(t) rho(t)] of the model's invariant at the trajectory's
    record times.

    Formed from the K1, K2 and K3 expectations the trajectory recorded,
    so a trajectory on another basis than the model's is refused.
    """
    if traj.basis != model.basis:
        raise ValidationError(
            f"the trajectory is on another basis ({traj.basis}) than the "
            f"model's ({model.basis})")
    _check_window(traj.ts, *model.sol.window, "invariant")
    return _weak_expectation_series(model.sol, traj.ts, traj.k1, traj.k2,
                                    traj.k3)


@dataclass(frozen=True, eq=False)
class SpectrumSeries:
    """Lowest eigenvalues over time, paired by sorted order.

    ``flagged`` lists (time index, level index) pairs where a level
    moved more than ``CONTINUITY_BOUND`` between consecutive samples —
    there the sorted-order pairing is unreliable.  Flagging is advisory,
    never fatal.
    """

    ts: np.ndarray
    levels: np.ndarray  # shape (len(ts), m), ascending along axis 1
    flagged: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        _freeze_fields(self, "ts", "levels")
        if self.levels.shape[0] != self.ts.shape[0]:
            raise ValidationError("level rows do not match the time grid")
        if np.any(np.diff(self.levels, axis=1) < 0):
            raise ValidationError("per-time eigenvalue lists must be sorted")

    @property
    def m(self) -> int:
        return self.levels.shape[1]

    @property
    def pairing_ok(self) -> bool:
        return not self.flagged

    def write_csv(self, path, precision: int = 12):
        header = "t," + ",".join(f"lambda_{n}" for n in range(self.m))
        _write_rows(path, header,
                    ((t, *row) for t, row in zip(self.ts, self.levels)),
                    precision)


def spectrum_series(model: LindbladModel, times, m: int) -> SpectrumSeries:
    """Lowest ``m`` eigenvalues of the model's invariant at ``times``.

    Requires m <= dim/3 so the reported levels stay clear of the
    truncation edge.  The series keeps its own copy of ``times``, so the
    caller's array stays writable.

    I(t) = c1 K1 + c2 K2 - c3 K3 is never formed.  K1, K2 and K3 couple
    level n only to n and n +- 2, so I(t) splits into two parity blocks,
    the even and the odd levels, each Hermitian tridiagonal in its own
    levels: diagonal I[n, n], real, and off-diagonal e = I[n, n + 2].  The
    diagonal unitary D with D[0] = 1 and D[k + 1] = D[k] conj(e_k) / |e_k|
    (1 where e_k = 0) turns a block T into D^dag T D, real symmetric
    tridiagonal with the same diagonal and off-diagonal |e_k|, and the
    same eigenvalues.  So the series forms the diagonals 0 and +2 of I(t)
    from those of K1, K2 and K3 and the coefficients at every time
    (``_weak_coefficients`` on one window-checked call each of
    ``sol.rho_at`` and ``sol.rhodot_at``), each entry as ``invariant_at``
    forms it, and takes the lowest m of the union of both blocks' real
    ``eigvalsh``.  The blocks are stacked a block of times at a time, so
    a stack holds at most SPECTRUM_BLOCK_BYTES, or one block where a
    block is larger, whatever the number of times.
    """
    times = np.array(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError("times must be a non-empty 1-d sequence")
    dim = model.basis.dim
    if not 1 <= m <= dim // 3:
        raise ValidationError(
            f"m must lie in [1, dim/3] = [1, {dim // 3}], got {m}")
    coeffs = _weak_coefficients(model.sol.rho_at(times),
                                model.sol.rhodot_at(times))
    gens = model.basis.operators[2:]
    # the diagonals 0 and +2 of K1, K2 and K3, one row per generator
    bands = [np.stack([k.entries.diagonal(off) for k in gens])
             for off in (0, 2)]
    levels = np.empty((times.size, m))
    # the even block, the larger, of one time
    per = max(1, SPECTRUM_BLOCK_BYTES // (8 * ((dim + 1) // 2) ** 2))
    for lo in range(0, times.size, per):
        c1, c2, c3 = (c[lo:lo + per, None] for c in coeffs)
        diag, upper = (c1 * k1 + c2 * k2 - c3 * k3 for k1, k2, k3 in bands)
        low = [_tridiagonal_eigvalsh(diag.real[:, p::2],
                                     np.abs(upper[:, p::2]))[:, :m]
               for p in (0, 1)]
        levels[lo:lo + per] = np.sort(np.concatenate(low, axis=1))[:, :m]
    flagged = [(i + 1, n)
               for i in range(times.size - 1)
               for n in range(m)
               if abs(levels[i + 1, n] - levels[i, n]) > CONTINUITY_BOUND]
    return SpectrumSeries(ts=times, levels=levels, flagged=tuple(flagged))


def _tridiagonal_eigvalsh(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of real symmetric tridiagonal
    matrices: ``diag`` (B, k) their diagonals and ``sub`` (B, k - 1) their
    sub-diagonals, written into the lower triangle that ``eigvalsh``
    reads."""
    b, k = diag.shape
    mats = np.zeros((b, k * k))
    mats[:, ::k + 1] = diag
    mats[:, k::k + 1] = sub
    return np.linalg.eigvalsh(mats.reshape(b, k, k))


def drift_rhs(j_op: FockOperator, lam: np.ndarray, vecs: np.ndarray,
              l_op: FockOperator | None, alpha: float,
              m: int) -> tuple[np.ndarray, np.ndarray]:
    """Predicted instantaneous eigenvalue drift of an evolving observable.

    For each retained eigenpair (lam[i], vecs[:, i]) of J, returns

        2 alpha (lam[i] <v_i|L^2|v_i> - <L v_i|J|L v_i>)

    which equals d lam[i]/dt along the transport flow when the
    eigenvalue is simple.  Pairs among the lowest ``m`` whose gap to a
    neighbor is below ``DRIFT_GAP_TOL`` are excluded (the formula needs a
    one-dimensional eigenprojector).  Returns (kept indices, drifts).
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(np.diff(lam) < 0):
        raise ValidationError("eigenvalues must be sorted ascending")
    if not 1 <= m <= lam.size:
        raise ValidationError(f"m must lie in [1, {lam.size}], got {m}")
    if alpha < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    if alpha > 0 and l_op is None:
        raise ValidationError("a jump operator is required when alpha > 0")

    kept = []
    for i in range(m):
        gap_lo = np.inf if i == 0 else lam[i] - lam[i - 1]
        gap_hi = np.inf if i == lam.size - 1 else lam[i + 1] - lam[i]
        if min(gap_lo, gap_hi) >= DRIFT_GAP_TOL:
            kept.append(i)
    if not kept:
        raise NumericalError(
            f"all {m} candidate eigenpairs are degenerate within "
            f"gap {DRIFT_GAP_TOL:g}; no drift prediction is possible")
    kept = np.asarray(kept, dtype=int)
    if alpha == 0.0:
        return kept, np.zeros(kept.size)

    j_arr = j_op.entries
    l_arr = l_op.entries
    l_sq = l_arr.conj().T @ l_arr
    drifts = np.empty(kept.size)
    for out, i in enumerate(kept):
        v = vecs[:, i]
        lv = l_arr @ v
        drifts[out] = 2.0 * alpha * (
            lam[i] * float(np.real(v.conj() @ (l_sq @ v)))
            - float(np.real(lv.conj() @ (j_arr @ lv))))
    return kept, drifts


def constraint_residuals(model: LindbladModel, coeffs, t):
    """Left-hand sides of the three coupled coefficient constraints.

    The constraints tie the jump-operator coefficients ``coeffs`` =
    (alpha, a2, a3) to the model's auxiliary solution ``model.sol`` and
    its schedules ``model.omega_s`` and ``model.kappa_s``; with the
    construction used by ``LindbladModel.coefficients`` all three vanish
    identically.  They are evaluated exactly as displayed — the second keeps its overall
    rhodot prefactor on the auxiliary bracket, no simplification is
    applied first — with rho'' reconstructed from the dissipative
    auxiliary equation.

    Floats for scalar t; for an array of times, with ``coeffs`` arrays of
    its shape, three arrays.  A scalar t is evaluated as a one-element
    array, so that every power rounds through numpy's loop as in an array
    call (Python's float power can round apart from it in the last bit):
    a scalar call equals the array call at that time bit for bit.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    r = model.sol.rho_at(ts)
    v = model.sol.rhodot_at(ts)
    w = model.omega_s.eval(ts)
    kap = model.kappa_s.eval(ts)
    alpha, a2, a3 = coeffs

    rddot = kap * v - (w * w) * r + 1.0 / r ** 3
    bracket = rddot + (w * w) * r - 1.0 / r ** 3
    q = v * v + 1.0 / (r * r)

    e1 = kap * r * r - alpha * (a3 * a3 * r * r + 2.0 * a3 * r * v + q)
    e2 = v * bracket + (alpha * (a2 * a2 * r * r + 2.0 * a2 * a3 * r * v
                                 + a3 * a3 * q) - kap * q)
    e3 = r * bracket - alpha * (a2 * a3 * r * r + 2.0 * a2 * r * v + a3 * q)
    if np.ndim(t) == 0:
        return float(e1[0]), float(e2[0]), float(e3[0])
    return e1, e2, e3

"""Dissipative evolution engine for the damped parametric oscillator.

The auxiliary solution fixes, at every instant, a single Hermitian jump
operator L = K1 + a2 K2 + a3 K3 and a strength alpha such that the
resulting friction is exactly the declared kappa(t).  The model is a
record of its inputs (schedules, auxiliary solution, basis) whose
one method gives the four scalars (omega^2, alpha, a2, a3) that carry
all of its time dependence; it refuses a solution whose recorded
equation is not the auxiliary equation on its own schedules, on which
alone those scalars are the construction's.  Each integrator evaluates
them once per run on the stage grid and forms every stage's matrices
from the raw arrays of the basis's generators.  This module evolves
density matrices, conserved observables, and the two closed moment
systems, all with the classical fixed-step RK4 scheme, so convergence
claims are uniform.  Density
matrices and observables step through the driver ``auxiliary._rk4`` on
one right-hand side: for the Hermitian jump operator the observable's
adjoint equation is the density equation with alpha negated, and it
steps backward in time, the direction in which its flow contracts.  The
two moment systems are linear, y' = A(t) y, so ``_linear_rk4`` forms each
step's exact RK4 map from the stage matrices, a block of steps at once,
composes the maps of each record interval into one and applies one map
per record: each moment integrator returns a plain (records, d) array of
the values at the record nodes only, one column per moment, as a density
run records its columns.  Blocks are sized by
``auxiliary.STAGE_BLOCK_BYTES``.

K1, K2 and K3 are quadratic in a and a^dag, so H and L connect Fock
level n only to n and n +- 2.  The density integrator holds the state as
the dense N x N matrix in natural Fock order with two zero pad rows above
and two below, an (N + 4, N) array.  A stage forms only the band entries
of H and L, as (N, 1, 3) stacks: row n holds its entries in columns
n - 2, n and n + 2, gathered once per run from the generators
(``_Kernel``).  A left product by such a stack is one matmul against a
strided view of a padded state that reads, for row n, the rows of levels
n - 2, n and n + 2, with no copy: the pad rows stand in for the levels
past either end.  For the one Hermitian jump operator the dissipator is
the double commutator -alpha [L, [L, rho]] (Lindblad, CMP 48, 119, 1976),
and the generator maps Hermitian matrices to Hermitian ones, so the
right-hand side forms X = L rho, C = X - X^dag (``operators._with_dagger``),
which is [L, rho] for Hermitian rho, and Y = K rho - alpha L C with
K = -i H, and returns Y + Y^dag = -i [H, rho] - alpha [L, [L, rho]]:
three banded left products per slope.  Every slope is then exactly Hermitian, bit for bit, and so is
every state stepped from an exactly Hermitian one, since the RK4 stage
states and step combination commute with conjugation; an anti-Hermitian
rounding residue of the initial state receives no slope and stays as it
is.  The identity is an exact fixed point of the observable transport:
its C is L - L^dag = 0 exactly.  The pad rows of the states and the
kernel's scratch stay exactly zero, and only ``_Kernel``, ``_rows``,
``_views``, ``_density_rhs`` and ``_step_density`` know of them: records
receive the N level rows.  The generators are the basis's own
(``BasisConfig.operators``), whose build refuses generators with an
entry off the diagonals 0 and +-2, which the band would drop, and
generators that are not exactly Hermitian, as the stages and the
observable transport need.

A density run holds each state-sized array once: six of them.  The
driver steps the padded state that ``_step_density`` makes and owns the
array its stage states are formed in and three slope buffers
(``auxiliary._rk4``); the run's ``_Kernel`` owns one scratch.  A
right-hand-side call works in its slope buffer and the scratch: X and
then -alpha L C in the slope, C and then K rho in the scratch
(``_density_rhs``), through views made once per run: the kernel builds
each driver buffer's ``_rows`` view and level-row views on its first
call and keeps them until ``_step_density`` returns (``_Kernel.views``),
so a call builds no view and no buffer outlives the run through the
kernel.  ``evolve_density``'s record runs between calls and forms
everything state-sized it needs in the scratch's level rows: the
daggered forms of ``operators._state_health``, the health formulas
``DensityMatrix`` reads, and each pairing's product
(``operators.trace_pair``); it allocates only ``eigvalsh``'s copy and
the real moduli of the deviation.  Between
records a step allocates only band-sized arrays: the stage operands and
their temporaries.  A record reduces the live state to one preallocated row
of moments and health values and keeps no copy of it, so a run's memory
does not grow with its records; the final state is built once, from the
array the driver returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .auxiliary import (
    ErmakovSolution,
    _block_length,
    _check_cover,
    _freeze_fields,
    _half_grid_coefficients,
    _rk4,
    _step_count,
    _write_rows,
    _zeros_aligned,
)
from .errors import (
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
    _real_pairing,
    _state_health,
    _with_dagger,
    commutator,
    interior_block,
    max_abs,
)
from .schedules import Schedule, _check_friction

# |alpha*(a2 - a3^2) - kappa| above this means the coefficient algebra
# was evaluated on corrupted inputs, not that the step size is too large.
COEFF_IDENTITY_TOL = 1e-12
POSITIVITY_HARD_FLOOR = -1e-6
ADJOINT_HERM_TOL = 1e-10
MOMENT_BOUND_TOL = 1e-9
CLOSURE_GATE_TOL = 1e-10
# Temporaries of one stage-table row: ``LindbladModel.coefficients`` at one
# time and the row's share of the block it is stacked into, 18 floats as
# traced on the shipped schedules.
STAGE_ROW_BYTES = 18 * 8


# --------------------------------------------------------------------- model


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
    if not dev <= COEFF_IDENTITY_TOL:  # also trips on nan
        raise NumericalError(
            f"coefficient identity alpha*(a2-a3^2) = kappa violated by {dev:.3e}")
    return alpha, a2, a3


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """The damped oscillator's generator: H = K1 + omega^2 K2 and one jump
    operator L = K1 + a2 K2 + a3 K3 acting with strength alpha.

    All of its time dependence is the four scalars returned by
    ``coefficients``; alpha vanishes with the friction, which reduces the
    evolution to unitary dynamics without special-casing the integrators.
    K1, K2 and K3 are the basis's (``BasisConfig.operators``).  The
    coefficients are right only on the construction's auxiliary
    solution, so the model refuses a ``sol`` whose recorded equation is
    not the construction's for its schedules: the auxiliary equation on
    ``omega_s`` and ``kappa_s``.  ``invariants.construct`` builds the
    model on one such solution, and its invariant is a reading of the
    model on that solution and basis (``invariants.invariant_at``).
    """

    omega_s: Schedule
    kappa_s: Schedule
    sol: ErmakovSolution
    basis: BasisConfig

    def __post_init__(self):
        if self.sol.equation != (self.omega_s, self.kappa_s):
            raise ValidationError(
                "the auxiliary solution solves another equation than the "
                "construction's for the model's schedules; build the model "
                "with invariants.construct")

    @property
    def generators(self) -> tuple[np.ndarray, ...]:
        """The raw (K1, K2, K3) arrays of the basis."""
        return tuple(op.entries for op in self.basis.operators[2:])

    def coefficients(self, t):
        """(omega^2, alpha, a2, a3) at time(s) t, from the auxiliary solution.

        Floats for scalar t, equal-shape arrays otherwise.  Friction below
        the tolerance at any of the times raises NegativeFrictionError.
        """
        w = self.omega_s.eval(t, 0)
        kappa = self.kappa_s.eval(t, 0)
        _check_friction(t, kappa)
        alpha, a2, a3 = _jump_coefficients(
            np.maximum(kappa, 0.0), self.sol.rho_at(t), self.sol.rhodot_at(t))
        return w * w, alpha, a2, a3


def _generator_arrays(gens, row):
    """H and L arrays of one coefficient row (omega^2, alpha, a2, a3).

    ``gens`` is (K1, K2, K3): the dense arrays of ``model.generators`` or
    their band stacks, on which H and L come out as exactly the band
    stacks of the dense ones.  L is None when alpha = 0, that is
    wherever kappa <= 0: there the evolution has no jump term.  A
    negative alpha is the observable transport's (``_transport_steps``).
    """
    omega_sq, alpha, a2, a3 = row
    k1, k2, k3 = gens
    h_op = k1 + omega_sq * k2
    if alpha == 0.0:
        return h_op, None
    return h_op, k1 + a2 * k2 + a3 * k3


def _stage_table(model: LindbladModel, n: int, h: float,
                 first: int = 0) -> np.ndarray:
    """Rows (omega^2, alpha, a2, a3) on the stage grid j*h/2 of the n steps
    that start at node ``first``: j = 2*first .. 2*(first + n).

    The (2n + 1, 4) table is allocated once and filled from
    ``model.coefficients`` a block of rows at a time, so the temporaries
    stay near STAGE_BLOCK_BYTES however long the run.  The work is
    elementwise, so the rows equal one call over every stage time bit for
    bit, and the blocks run in time order, so negative friction names the
    first negative stage time.
    """
    _check_cover(model.omega_s, model.kappa_s, first * h, (first + n) * h)
    table = np.empty((2 * n + 1, 4))
    per = _block_length(STAGE_ROW_BYTES)
    for lo in range(0, len(table), per):
        rows = table[lo:lo + per]
        j = np.arange(2 * first + lo, 2 * first + lo + len(rows))
        rows[...] = np.column_stack(model.coefficients(0.5 * h * j))
    return table


def _record_nodes(n: int, every: int) -> np.ndarray:
    """Node indices 0, every, 2 every, ... below n and n: the nodes
    ``auxiliary._rk4`` records at and ``_linear_rk4`` returns."""
    if every < 1:
        raise ValidationError(f"record_every must be >= 1, got {every}")
    return np.append(np.arange(0, n, every), n)


# --------------------------------------------------------------- diagnostics


def _require_finite(arr: np.ndarray, message: str):
    """Raise NumericalError(message) unless every entry of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise NumericalError(message)


# ------------------------------------------------------------ density matrix


# The per-record arrays of a Trajectory, in the order evolve_density fills
# them.
_RECORD_FIELDS = ("ts", "mean_x", "mean_p", "k1", "k2", "k3", "trace",
                  "herm_dev", "min_eig", "tail_pop")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded density-matrix evolution: per-sample moments and health.

    Each record keeps the canonical means and the expectations of the
    basis's K1, K2 and K3 (``mean_x`` .. ``k3``: ``expectation`` of each
    of ``BasisConfig.operators``), which is all the battery and the
    artifacts read, and the health metrics, as plain columns.  Of the
    states themselves only the last recorded one is kept, as the
    one-element ``states``.  ``write_csv`` refuses K moments past the
    uncertainty bound (``_check_k_moments``) before it writes anything.

    A sample outside the state tolerances marks the run failed at the
    first offending time but does not abort it; hard breaches (a
    non-finite state, tail leakage, eigenvalues below the hard floor)
    raise during evolution.
    """

    ts: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    trace: np.ndarray
    herm_dev: np.ndarray
    min_eig: np.ndarray
    tail_pop: np.ndarray
    states: tuple[DensityMatrix]
    basis: BasisConfig
    failed_at: float | None
    warnings: tuple[str, ...]

    def __post_init__(self):
        _freeze_fields(self, *_RECORD_FIELDS)

    def write_csv(self, path, precision: int = 12):
        _check_k_moments(self.k1, self.k2, self.k3)
        _write_rows(path,
                    "t,mean_x,mean_p,k1,k2,k3,trace,herm_dev,min_eig,tail_pop",
                    zip(*(getattr(self, name) for name in _RECORD_FIELDS)),
                    precision)


class _Kernel:
    """The generator bands, the scratch and the buffer views of one dim-N
    density run.

    ``bands`` holds K1, K2 and K3 as (N, 1, 3) band stacks: entry [n, 0,
    d] is the entry between levels n and n + 2(d - 1), zero where that
    level lies past either end.  The one scratch is a zero-initialised,
    64-byte aligned padded (N + 4, N) state, as are the driver's slope
    buffers (``auxiliary._rk4``).  Every write goes into its level rows,
    ``levels``, (N, N), through their (N, 1, N) view ``level_out`` that a
    product writes into, so its pad rows stay zero without being reset
    and ``rows``, its ``_rows`` view, reads them as the levels past
    either end; all are made once here.  A right-hand-side call forms C
    and K rho in it (``_density_rhs``), and ``evolve_density``'s record,
    which runs between calls, reduces the live state in its level rows
    (``operators._state_health`` and ``operators.trace_pair``).

    ``views`` gives the same three views of the padded arrays the driver
    hands the right-hand side, made on an array's first call and kept
    with the array, so the run builds them once per buffer, not once per
    call; ``_step_density`` drops them when its run ends, so the kernel
    keeps none of the driver's buffers alive.
    """

    def __init__(self, model: LindbladModel):
        n = model.basis.dim
        level = np.arange(n)[:, None]
        near = level + 2 * np.arange(-1, 2)
        on = (near >= 0) & (near < n)
        self.bands = tuple(
            np.where(on, k[level, np.clip(near, 0, n - 1)], 0.0)[:, None]
            for k in model.generators)

        self.scratch = _zeros_aligned((n + 4, n))
        self.rows, self.levels, self.level_out = _views(self.scratch)
        self.memo: dict[int, tuple] = {}

    def views(self, state: np.ndarray):
        """(rows, levels, level_out) of a padded state (``_views``)."""
        entry = self.memo.get(id(state))
        if entry is None:
            # the entry holds the array, so no other array takes its id
            # while the entry stands
            entry = self.memo[id(state)] = (state, _views(state))
        return entry[1]


def _views(state: np.ndarray):
    """The ``_rows`` view of a padded state, its (N, N) level rows and
    their (N, 1, N) view that a product by a band stack writes into."""
    levels = state[2:-2]
    return _rows(state), levels, levels[:, None]


def _rows(state: np.ndarray) -> np.ndarray:
    """The (N, 3, N) view of a C-contiguous padded (N + 4, N) state whose
    [n] is the rows of levels n - 2, n and n + 2, pad rows included: the
    operand of a left product by a band stack."""
    s0, s1 = state.strides
    rows, cols = state.shape
    return np.ndarray((rows - 4, 3, cols), state.dtype, state, 0,
                      (s0, 2 * s0, s1))


def _density_stage_ops(kernel: _Kernel, row):
    """Right-hand-side operands of one stage: (kernel, K, jump).

    H and L are formed on the run's generator bands
    (``_generator_arrays``), and K = -i H, L and -alpha L are (N, 1, 3)
    band stacks; jump is None without friction, else (L, -alpha L).
    Each is a fresh band-sized array, so a stage stays valid for as long
    as the driver holds it.
    """
    h_band, l_band = _generator_arrays(kernel.bands, row)
    jump = None if l_band is None else (l_band, -row[1] * l_band)
    return kernel, -1j * h_band, jump


def _density_rhs(state: np.ndarray, ops, out: np.ndarray) -> np.ndarray:
    # Y + Y^dag with Y = K rho - alpha L C, C = [L, rho]: for a Hermitian
    # state that is -i [H, rho] - alpha [L, [L, rho]], and the slope is
    # exactly Hermitian whatever the rounding of Y.  Each product is one
    # matmul of a band stack against the rows view of its operand, written
    # into level rows; the views of ``state`` and ``out`` are the
    # kernel's, made on their first call.  ``out``, a zero-padded state of
    # the driver's, holds X = L rho, then -alpha L C, then Y and the
    # slope, which is returned; the kernel's scratch holds C = X - X^dag
    # (``operators._with_dagger``), which is L rho - rho L for Hermitian
    # rho and L, then K rho, then Y^dag, copied in and conjugated there in
    # place, as ``_with_dagger`` cannot write over its operand.  -alpha
    # L C + K rho is K rho - alpha L C bit for bit, as IEEE addition
    # commutes.
    kernel, k_op, jump = ops
    rows = kernel.views(state)[0]
    _, levels, level_out = kernel.views(out)
    if jump is None:
        np.matmul(k_op, rows, level_out)
    else:
        l_op, damp = jump
        np.matmul(l_op, rows, level_out)
        _with_dagger(np.subtract, levels, kernel.levels)
        np.matmul(damp, kernel.rows, level_out)
        np.matmul(k_op, rows, kernel.level_out)
        levels += kernel.levels
    np.copyto(kernel.levels, levels.T)
    levels += np.conjugate(kernel.levels, kernel.levels)
    return out


def evolve_density(model: LindbladModel, rho0: DensityMatrix, t_max: float,
                   h: float, record_every: int = 100) -> Trajectory:
    """Fixed-step fourth-order integration of the density-matrix equation.

    The right-hand side is -i[H, rho] - alpha [L, [L, rho]], which for
    the Hermitian jump operator L is -i[H, rho] - alpha (L^dag L rho +
    rho L^dag L - 2 L rho L^dag), with every operator evaluated at the
    stage times.  No renormalization or positivity projection is
    applied: trace drift and eigenvalue dips are reported, not hidden.
    The state is stepped on the generators' band by ``_step_density``
    (module docstring).  Every slope is exactly Hermitian, so the recorded
    Hermiticity deviation stays at that of rho0: 0 for every state
    ``build_state`` forms.  Each record reduces the live state, after the
    finiteness check, to its health metrics (``operators._state_health``,
    which ``DensityMatrix``'s methods read), checks them against the hard
    limits, and forms the expectations of the basis's x, p, K1, K2 and
    K3 (``BasisConfig.operators``), each bit for bit
    ``operators.expectation`` of the recorded state, into one row of the
    trajectory's columns; only the final state is kept (``Trajectory``).
    The run holds six state-sized arrays: the driver's five and the one
    scratch of its ``_Kernel``, in whose level rows the record also works.
    """
    cfg = model.basis
    if rho0.dim != cfg.dim:
        raise ValidationError(
            f"state dimension {rho0.dim} does not match basis {cfg.dim}")
    n = _step_count(t_max, h)
    # one row per record
    records = np.empty((len(_record_nodes(n, record_every)),
                        len(_RECORD_FIELDS)))
    slots = iter(records)
    kernel = _Kernel(model)
    warnings: list[str] = []
    failed_at: float | None = None

    def record(i: int, arr: np.ndarray):
        nonlocal failed_at
        t = h * i
        _require_finite(arr, f"density matrix is not finite at t={t:.6g}")
        # a record runs between right-hand-side calls, so it reduces the
        # state in the level rows of the kernel's scratch
        tr, herm, lo = _state_health(arr, kernel.levels)
        tail = float(np.sum(np.diag(arr).real[cfg.dim - cfg.n_tail:]))
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
        next(slots)[:] = (t, *(_real_pairing(op, arr, kernel.levels)
                               for op in cfg.operators),
                          tr, herm, lo, tail)

    final = _step_density(kernel, _stage_table(model, n, h), rho0.entries, n,
                          h, record, record_every)
    return Trajectory(**dict(zip(_RECORD_FIELDS, records.T)),
                      states=(DensityMatrix(final, validate=False),),
                      basis=cfg, failed_at=failed_at, warnings=tuple(warnings))


def _step_density(kernel: _Kernel, table: np.ndarray, a0: np.ndarray,
                  n: int, h: float, record, every: int) -> np.ndarray:
    """n RK4 steps of ``_density_rhs`` at step h from the dense array a0,
    over the stage rows ``table``, on the driver ``auxiliary._rk4`` and
    the run's ``kernel``.

    The state is held padded, with two zero rows above and below its N
    level rows (``_Kernel``), in a fresh 64-byte aligned array that the
    driver steps;
    ``record(i, arr)`` receives the level rows of the live state at node
    i, valid until ``record`` returns, and the level rows of the final
    state are returned.  A diverging state overflows between records and
    the next record's finiteness check reports it; the intermediate
    arithmetic may legitimately hit inf, so numpy is kept quiet.  The
    kernel's views of the driver's buffers (``_Kernel.views``) are
    dropped when the run ends, however it ends.
    """
    state = _zeros_aligned((len(a0) + 4, len(a0)))
    state[2:-2] = a0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            _rk4(_density_rhs, lambda j: _density_stage_ops(kernel, table[j]),
                 state, n, h, lambda i, y: record(i, y[2:-2]), every)
    finally:
        kernel.memo.clear()
    return state[2:-2]


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
        _freeze_fields(self, "ts", "herm_dev")


def _transport_steps(model: LindbladModel, q0: np.ndarray, first: int,
                     last: int, h: float, record, every: int = 1,
                     stride: int = 1):
    """Step the adjoint equation with classical RK4 from node ``first`` to
    node ``last`` of the grid t = i*h, backward in time when last < first,
    in steps of ``stride`` nodes; ``stride`` must divide |last - first|.

    For the one jump operator L = L^dag (``BasisConfig.operators`` refuses
    non-Hermitian generators) the adjoint right-hand
    side -i[H, Q] + alpha (L^2 Q + Q L^2 - 2 L Q L) = -i[H, Q] + alpha
    [L, [L, Q]] is the density one with alpha replaced by -alpha
    (Lindblad, CMP 48, 119, 1976): Q is stepped as a density state by
    ``_step_density`` over the stage table with its alpha column negated.
    A step of ``stride`` nodes reads every ``stride``-th row of the
    grid's stage table, so with stride 1 it is the plain grid run and two
    runs that meet at a node step exactly as one run through it.

    Backward, each step is an RK4 step of size -stride*h over the stage
    table read in descending order.  That is the well-posed direction: the
    adjoint equation is the Heisenberg picture of the Lindblad map, which
    transports an observable from a later time back to an earlier one by
    a unital, completely positive contraction.  Forward, its double
    commutator is anti-diffusive and amplifies every component at rates
    set by alpha and the squared level gaps of the jump operator.
    ``_adjoint_norm_bound`` bounds the step that keeps RK4 stable.

    ``record(i, q)`` receives the live dense state at node first +-
    i*stride for the step counts i = 0, every, 2 every, ... below the
    last step, and at node ``last``, after a check that it is finite; it
    is valid until ``record`` returns, so a caller that keeps it copies
    it.
    """
    n, rest = divmod(abs(last - first), stride)
    assert rest == 0, f"stride {stride} does not divide {first} to {last}"
    sign = 1 if last >= first else -1
    table = _stage_table(model, n * stride, h, min(first, last))
    table = table[::stride][::sign]
    table[:, 1] *= -1.0  # the density generator at -alpha

    def checked(i: int, q: np.ndarray):
        node = first + sign * stride * i
        # forward, the flow amplifies generic observables past float
        # range; backward it contracts, and an overflow means that
        # h*alpha times the squared level gaps of L has left RK4's
        # stability region
        _require_finite(q, "observable grew beyond float range by "
                           f"t={h * node:.6g}: forward in time the flow "
                           "amplifies it, backward the step is too large "
                           "for RK4")
        record(node, q)

    _step_density(_Kernel(model), table, q0, n, sign * stride * h, checked,
                  every)


def _adjoint_norm_bound(model: LindbladModel, table: np.ndarray) -> float:
    """A bound on the adjoint generator's norm over the rows of ``table``.

    Lambda = 2 |H| + 4 max|alpha| |L|^2, with |H| <= |K1| + max|omega^2|
    |K2| and |L| <= max(|K1| + |a2| |K2| + |a3| |K3|) over the rows
    (spectral norms): |[H, Q]| <= 2 |H| |Q| and |L^2 Q + Q L^2 - 2 L Q L|
    <= 4 |L|^2 |Q|.  It bounds the spectral radius of the generator at
    every row, so backward, where the flow contracts, a step h with
    h*Lambda <= 1 puts every scaled eigenvalue in the left half of the
    unit disk, inside RK4's stability region.
    """
    n1, n2, n3 = (np.linalg.norm(g, 2) for g in model.generators)
    omega_sq, alpha, a2, a3 = np.abs(table).T
    h_norm = n1 + omega_sq.max() * n2
    l_norm = (n1 + a2 * n2 + a3 * n3).max()
    return float(2.0 * h_norm + 4.0 * alpha.max() * l_norm ** 2)


def evolve_adjoint_observable(model: LindbladModel, q0: FockOperator,
                              t_max: float, h: float,
                              record_every: int = 100) -> OperatorTrajectory:
    """Evolve an observable so its expectation in the evolving state is fixed.

    Integrates dQ/dt = -i[H, Q] + alpha (L^dag L Q + Q L^dag L
    - 2 L^dag Q L), the trace-pairing adjoint of the density equation:
    tr[Q(t) rho(t)] is constant when both evolve under the same model.
    It is ``_transport_steps`` forward from t = 0 plus a Hermiticity
    record per node; only tests and the benchmark's tracer call it.
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
    rec_ts: list[float] = []
    rec_ops: list[FockOperator] = []
    rec_dev: list[float] = []
    warnings: list[str] = []
    failed_at: float | None = None

    def record(i: int, arr: np.ndarray):
        nonlocal failed_at
        t = h * i
        op = FockOperator(arr)
        dev = op.herm_deviation()
        if dev > ADJOINT_HERM_TOL:
            warnings.append(f"t={t:.6g}: hermiticity deviation {dev:.3e}")
            if failed_at is None:
                failed_at = t
        rec_ts.append(t)
        rec_ops.append(op)
        rec_dev.append(dev)

    _transport_steps(model, q0.entries, 0, _step_count(t_max, h), h, record,
                     record_every)
    return OperatorTrajectory(ts=np.array(rec_ts), operators=tuple(rec_ops),
                              herm_dev=np.array(rec_dev),
                              failed_at=failed_at, warnings=tuple(warnings))


# -------------------------------------------------------------- moment types


def _record_blocks(n: int, per: int, every: int):
    """Step ranges [lo, hi) of at most ``per`` steps that never straddle a
    record node: each holds whole record intervals of ``every`` steps (and
    the last, the shorter final one), or, when an interval is longer than
    ``per`` steps, a part of one interval."""
    whole = per - per % every
    lo = 0
    while lo < n:
        hi = min(n, lo + whole if whole else lo - lo % every + every,
                 lo + per)
        yield lo, hi
        lo = hi


def _compose(maps: np.ndarray) -> np.ndarray:
    """maps[..., L-1, :, :] @ ... @ maps[..., 0, :, :]: the product along
    axis -3, batched over any leading axes, by pairwise products (about
    log2 L batched matmuls)."""
    while maps.shape[-3] > 1:
        even = maps.shape[-3] // 2 * 2
        pairs = maps[..., 1:even:2, :, :] @ maps[..., 0:even:2, :, :]
        maps = np.concatenate([pairs, maps[..., even:, :, :]], axis=-3)
    return maps[..., 0, :, :]


def _linear_rk4(stage_mats, y0, n: int, h: float,
                every: int = 1) -> np.ndarray:
    """Classical RK4 nodes of the linear system y' = A(t) y over n steps.

    ``stage_mats(lo, hi)`` returns A at the stage times j*h/2, j = lo..hi-1,
    as a (hi - lo, d, d) stack.  An RK4 step is linear in y: with A1, A2,
    A3 its start, middle and end matrices it is y <- P y, where
    P = I + h/6 (A1 + 2 (B2 + B3) + B4), B2 = A2 (I + h/2 A1),
    B3 = A2 (I + h/2 B2) and B4 = A3 (I + h B3).  The maps of a block of
    steps are formed at once; the maps of each record interval are then
    composed into one by pairwise products batched over the block's
    intervals (``_compose``), and the composed maps applied in turn, which
    equals stepping ``auxiliary._rk4`` up to rounding.  Blocks hold whole
    record intervals; an interval longer than a block carries its product
    into the next block, so the temporaries stay near STAGE_BLOCK_BYTES
    for any ``every``.  Each map multiplies the previous record, held by
    reference, and writes its row in place (``ndarray.dot`` with ``out``):
    with ``every = 1`` nothing is composed and these are the matrix-vector
    products of indexing both rows, bit for bit, at about half the cost.
    Returns the (records, d) values at the nodes 0, every, 2 every, ...
    below n and at n (``_record_nodes``, which refuses every < 1), the
    grid ``auxiliary._rk4`` records.
    """
    d = len(y0)
    ys = np.empty((len(_record_nodes(n, every)), d))
    ys[0] = y0
    y = ys[0]
    out = 1
    eye = np.eye(d)
    carry = None  # product of the open interval's maps from earlier blocks
    # the stage matrices, B2, B3, B4, P and their temporaries: about ten
    # d x d float arrays per step
    for lo, hi in _record_blocks(n, _block_length(10 * eye.nbytes), every):
        a = stage_mats(2 * lo, 2 * hi + 1)
        a1, a2, a3 = a[:-1:2], a[1::2], a[2::2]
        b2 = a2 @ (eye + (0.5 * h) * a1)
        b3 = a2 @ (eye + (0.5 * h) * b2)
        b4 = a3 @ (eye + h * b3)
        maps = eye + (h / 6.0) * (a1 + 2.0 * (b2 + b3) + b4)
        whole = len(maps) - len(maps) % every
        prods = list(_compose(maps[:whole].reshape(-1, every, d, d)))
        if whole < len(maps):
            prods.append(_compose(maps[whole:]))
        if carry is not None:
            prods[0] = prods[0] @ carry
        carry = prods.pop() if hi % every and hi < n else None
        for p in prods:
            y = p.dot(y, out=ys[out])
            out += 1
    return ys


def _check_k_moments(k1, k2, k3):
    """Refuse K moments that no state has, naming the first bad record.

    ``k1``, ``k2`` and ``k3`` are equal-length columns of <K1>, <K2> and
    <K3>, or three scalars, one record.  Every record needs k1, k2 >= 0
    and k1 k2 >= k3^2/4 + 1/16, each to MOMENT_BOUND_TOL; the vacuum
    (0.25, 0.25, 0) saturates the second.  NaN passes, as no comparison
    with it holds.
    """
    k1, k2, k3 = np.atleast_1d(k1, k2, k3)
    negative = (k1 < -MOMENT_BOUND_TOL) | (k2 < -MOMENT_BOUND_TOL)
    uncertain = k1 * k2 - (0.25 * k3 * k3 + 0.0625) < -MOMENT_BOUND_TOL
    bad = np.flatnonzero(negative | uncertain)
    if not bad.size:
        return
    i = bad[0]
    if negative[i]:
        raise ValidationError(
            f"quadratic-form moments must be >= 0, got k1={k1[i]}, "
            f"k2={k2[i]} at record {i}")
    raise ValidationError(
        "moments violate the uncertainty bound k1*k2 >= k3^2/4 + 1/16: "
        f"k1={k1[i]}, k2={k2[i]}, k3={k3[i]} at record {i}")


# ------------------------------------------------------------- first moments


def evolve_first_moments(omega_s: Schedule, kappa_s: Schedule,
                         m0: tuple[float, float], t_max: float,
                         h: float, record_every: int = 1) -> np.ndarray:
    """Integrate d<x>/dt = <p> - kappa <x>, d<p>/dt = -omega^2 <x> - kappa <p>.

    This is the exact projection of the full evolution onto the means;
    it holds for the constructed jump operator because the realized
    friction equals kappa identically.  Returns the (records, 2) array of
    (<x>, <p>) at the nodes 0, record_every, ... below the last step and
    at the last node (``_record_nodes``), the times of which are the
    caller's.
    """
    n = _step_count(t_max, h)
    half_ts, omega_sq, kappa = _half_grid_coefficients(omega_s, kappa_s, n, h)
    _check_friction(half_ts, kappa)

    def stage_mats(lo, hi):
        a = np.empty((hi - lo, 2, 2))
        a[:, 0, 0] = a[:, 1, 1] = -kappa[lo:hi]
        a[:, 0, 1] = 1.0
        a[:, 1, 0] = -omega_sq[lo:hi]
        return a

    return _linear_rk4(stage_mats, m0, n, h, record_every)


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
    gens = tuple(g.entries for g in cfg.operators[2:])
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


def evolve_su11_moments(model: LindbladModel, v0: tuple[float, float, float],
                        t_max: float, h: float,
                        record_every: int = 1) -> np.ndarray:
    """Integrate the exact closed system for the K-generator expectations.

    The seed ``v0`` = (<K1>, <K2>, <K3>) must satisfy the uncertainty
    bound (``_check_k_moments``).  Returns the (records, 3) array of the
    three expectations at the nodes 0, record_every, ... below the last
    step and at the last node (``_record_nodes``), the times of which are
    the caller's.
    """
    _closure_matrix_verified()
    _check_k_moments(*v0)
    n = _step_count(t_max, h)
    table = _stage_table(model, n, h)
    return _linear_rk4(lambda lo, hi: closure_matrix(*table[lo:hi].T), v0, n,
                       h, record_every)

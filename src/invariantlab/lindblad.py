"""Dissipative evolution engine for the damped parametric oscillator.

The auxiliary solution fixes, at every instant, a single Hermitian jump
operator L = K1 + a2 K2 + a3 K3 and a strength alpha such that the
resulting friction is exactly the declared kappa(t).  The model is a
record of its inputs (schedules, auxiliary solution, generators) whose
one method gives the four scalars (omega^2, alpha, a2, a3) that carry
all of its time dependence.  Each integrator evaluates them once per run
on the stage grid and forms every stage's matrices from the raw
generator arrays.  This module evolves density matrices, conserved
observables, and the two closed moment systems, all with the classical
fixed-step RK4 scheme, so convergence claims are uniform.  Density
matrices and observables step through the driver ``auxiliary._rk4`` on
one right-hand side: for the Hermitian jump operator the observable's
adjoint equation is the density equation with alpha negated, and it
steps backward in time, the direction in which its flow contracts.  The
two moment systems are linear, y' = A(t) y, so ``_linear_rk4`` forms each
step's exact RK4 map from the stage matrices, a block of steps at once,
and applies the maps in turn.  Blocks are sized by ``STAGE_BLOCK_BYTES``.

K1, K2 and K3 are quadratic in a and a^dag, so H and L connect only
Fock levels n and n +- 2 and the generator never mixes even and odd
levels.  The density integrator therefore holds the state as its four
parity blocks (even-even, even-odd, odd-even, odd-odd), each m x m with
m = ceil(N/2), and multiplies them by the even and odd diagonal blocks
of H, L and the drift: half the flops of the dense product.  Within a
block H and L are tridiagonal and the drift pentadiagonal, so each block
is cut into max(1, m // TILE_ROWS) row tiles (``_Tiling``) and a tile is
multiplied only by the rows and columns its band reaches: tile-wide
windows of the operators and of the state, which is held with a zero
margin of BAND_MARGIN levels around each block so that every window is
a strided view.  A stage forms only the band entries of its operands:
H and L on the generators' band entries, gathered once per run, and
the drift -i H - alpha L^dag L on its pentadiagonal band, L^dag L from
L's own band entries, three products per entry.  The generator maps
Hermitian matrices to Hermitian ones, so the right-hand side forms only
Y = drift rho + alpha (L rho) L^dag and returns Y + Y^dag: three products instead of four (rho drift^dag is
(drift rho)^dag), and each is one matmul over all tiles of all four
blocks.  Every slope is then exactly Hermitian, bit for bit, and so is
every state stepped from an exactly Hermitian one, since the RK4 stage
states and step combination commute with conjugation; an anti-Hermitian
rounding residue of the initial state receives no slope and stays as it
is.  With one tile, that is below 2 TILE_ROWS levels per block (every
shipped scenario), there is no margin and the products are the plain
block products.  An odd dimension pads the odd side with one zero level;
that level, the margins and the levels the last tile covers past m stay
exactly zero.  Recorded states are reassembled to the dense N x N
matrix, and ``LindbladModel`` refuses generators with an entry between
levels of opposite parity or more than two levels apart, which the
blocks or tiles would drop, and generators that are not exactly
Hermitian.

A density run allocates its state-sized buffers once.  The driver owns
the state and the array its stage states and step combination are
formed in (``auxiliary._rk4``); the run's ``_Tiling`` owns the
right-hand side's two scratch arrays and the four slopes it writes in
rotation, one per RK4 slope of a step, and the three sets of stage
operands (drift and L windows) the stages write in rotation, one per
stage a step holds.  L is exactly Hermitian, so L^dag's windows are
views of L's.  Between records a step allocates only band-sized
temporaries.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .auxiliary import (
    ErmakovSolution,
    _dense_at,
    _freeze_fields,
    _half_grid_coefficients,
    _rk4,
    _step_count,
    _write_rows,
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
    build_canonical,
    build_su11_generators,
    commutator,
    expectation,
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
# The moment systems' step maps are formed a block at a time, as many per
# block as fit in this many bytes: about 1500 steps of the 3x3 system.
STAGE_BLOCK_BYTES = 1 << 20
# The density right-hand side cuts each m-level parity block into
# max(1, m // TILE_ROWS) row tiles; a tile's band reaches BAND_MARGIN
# levels past its rows.  Measured on one BLAS thread, two tiles of 20
# rows (m = 40) already take 0.8 of the whole-block time, and more tiles
# gain more; 16 only breaks even at m = 32 and 24 gains less from m = 60.
TILE_ROWS = 20
BAND_MARGIN = 2


def _block_length(item_bytes: int) -> int:
    """Items per block: as many as fit in STAGE_BLOCK_BYTES, at least one."""
    return max(1, STAGE_BLOCK_BYTES // item_bytes)


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
    """

    omega_s: Schedule
    kappa_s: Schedule
    sol: ErmakovSolution
    k1: FockOperator
    k2: FockOperator
    k3: FockOperator
    basis: BasisConfig

    def __post_init__(self):
        for name in ("k1", "k2", "k3"):
            gen = getattr(self, name)
            if gen.dim != self.basis.dim:
                raise ValidationError(
                    f"generator dimension {gen.dim} does not match basis "
                    f"{self.basis.dim}")
            rows, cols = np.nonzero(gen.entries)
            odd = (rows - cols) % 2 == 1
            if odd.any():
                i, j = rows[odd][0], cols[odd][0]
                raise ValidationError(
                    f"generator {name} couples Fock levels {i} and {j} of "
                    f"opposite parity (entry {gen.entries[i, j]:.3e}); the "
                    "parity-block density evolution would drop it")
            far = np.abs(rows - cols) > 2
            if far.any():
                i, j = rows[far][0], cols[far][0]
                raise ValidationError(
                    f"generator {name} couples Fock levels {i} and {j}, "
                    f"more than 2 apart (entry {gen.entries[i, j]:.3e}); the "
                    "tiled density evolution would drop it")
            dev = gen.herm_deviation()
            if not dev == 0.0:  # also trips on nan
                raise ValidationError(
                    f"generator {name} is not Hermitian (deviation "
                    f"{dev:.3e}); the observable transport needs a Hermitian "
                    "jump operator, and the density stages use L as L^dag, "
                    "so the generators must be exactly Hermitian")

    @property
    def generators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw (K1, K2, K3) arrays."""
        return self.k1.entries, self.k2.entries, self.k3.entries

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
    their stacked parity blocks, on which H and L come out as exactly the
    parity blocks of the dense ones.  L is None when alpha = 0, that is
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
    that start at node ``first``: j = 2*first .. 2*(first + n)."""
    half_ts, _, _ = _half_grid_coefficients(model.omega_s, model.kappa_s, n, h,
                                            first)
    return np.column_stack(model.coefficients(half_ts))


# --------------------------------------------------------------- diagnostics


def _require_finite(arr: np.ndarray, message: str):
    """Raise NumericalError(message) unless every entry of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise NumericalError(message)


def _diagnostics(arr: np.ndarray, cfg: BasisConfig) -> tuple[float, float, float, float]:
    """(trace, hermiticity deviation, min eigenvalue, tail population)."""
    tr = float(np.trace(arr).real)
    herm = max_abs(arr - arr.conj().T)
    sym = 0.5 * (arr + arr.conj().T)
    lo = float(np.linalg.eigvalsh(sym)[0])
    tail = float(np.sum(np.diag(arr).real[cfg.dim - cfg.n_tail:]))
    return tr, herm, lo, tail


# ------------------------------------------------------------ density matrix


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded density-matrix evolution with per-sample health metrics.

    A sample outside the state tolerances marks the run failed at the
    first offending time but does not abort it; hard breaches (a
    non-finite state, tail leakage, eigenvalues below the hard floor)
    raise during evolution.
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
        _freeze_fields(self, "ts", "trace", "herm_dev", "min_eig", "tail_pop")

    @property
    def ok(self) -> bool:
        return self.failed_at is None

    def moments(self) -> list["MomentVector"]:
        return [moments_from_state(s, self.basis) for s in self.states]

    def write_csv(self, path, precision: int = 12):
        rows = ((t, m.mean_x, m.mean_p, m.k1, m.k2, m.k3, *health)
                for t, m, *health in zip(self.ts, self.moments(), self.trace,
                                         self.herm_dev, self.min_eig,
                                         self.tail_pop))
        _write_rows(path,
                    "t,mean_x,mean_p,k1,k2,k3,trace,herm_dev,min_eig,tail_pop",
                    rows, precision)


def _window_spec(shape, count: int, window, step, start=(0, 0)):
    """(shape, offset, strides) of ``count`` windows in a complex array.

    The array is C-contiguous of ``shape``; window t covers ``window``
    rows and columns of its last two axes from (row, column) ``start +
    t * step``.  The view has shape (*lead, count, *window), without the
    count axis for one window; offset and strides are in bytes.  None
    stands for the whole array: a view that equals it.
    """
    item = np.dtype(complex).itemsize
    strides = [item]
    for n in reversed(shape[1:]):
        strides.insert(0, strides[0] * n)
    *lead, sr, sc = strides
    axes = [(window[0], sr), (window[1], sc)]
    tile_axis = ([(count, step[0] * sr + step[1] * sc)] if count > 1 else [])
    axes = [*zip(shape[:-2], lead), *tile_axis, *axes]
    spec = (tuple(n for n, _ in axes), start[0] * sr + start[1] * sc,
            tuple(s for _, s in axes))
    return None if spec == (tuple(shape), 0, tuple(strides)) else spec


def _view(a: np.ndarray, spec) -> np.ndarray:
    """The view ``spec`` (from ``_window_spec``) of the C-contiguous ``a``."""
    if spec is None:
        return a
    shape, offset, strides = spec
    return np.ndarray(shape, a.dtype, a, offset, strides)


class _Tiling:
    """Row tiles of the m x m parity blocks of one dim-N density run.

    A block is cut into ``count`` tiles of ``rows`` levels.  Together
    they span s = count * rows >= m levels; the levels past m are zero.
    A padded block is ``side`` = s + 2 ``margin`` square, so level k sits
    at padded index margin + k.  Within a block H and L reach one level
    on either side of the diagonal and L^dag L and the drift BAND_MARGIN
    levels, so tile t's band lies in its window: the w = rows + 2 margin
    padded levels from t * rows.  Every window has the same width, and
    the margins hold what the edge tiles reach past the block; within
    its window a tile's rows are margin..margin+rows-1.  One tile spans
    the whole block and needs no margin: its window is the block.

    The view specs are computed once per run: every operand the
    right-hand side multiplies is a view of a stage's operand buffers,
    of the state or of one of the two scratch arrays it reuses within a
    call.  The run's buffers live here: the two scratch arrays, the four
    slopes the right-hand side writes in rotation (``slopes``) and the
    three sets of stage operands ``_density_stage_ops`` writes in
    rotation (``stages``), all zero-initialised.  The margins of a slope
    and of the right-side scratch only ever receive sums, products and
    conjugates of zeros, so they stay zero without being reset; a stage
    writes only the band entries of its operands, the same entries every
    stage (indexed once per run by ``_band_layout``), so the rest of
    each operand stays zero too.
    """

    def __init__(self, dim: int):
        m = (dim + 1) // 2
        count = max(1, m // TILE_ROWS)
        b = -(-m // count)
        g = BAND_MARGIN if count > 1 else 0
        s = count * b
        p = s + 2 * g
        w = b + 2 * g
        self.count, self.rows, self.margin, self.side = count, b, g, p
        # the diagonal windows of a (2, side, side) operator stack
        self.op_windows = _window_spec((2, p, p), count, (w, w), (b, b))
        # the state: the rows the tiles' bands read.  The left products
        # write whole padded rows, whose margin columns come out zero
        state = (2, 2, p, p)
        self.state_rows = _window_spec(state, count, (w, p), (b, 0))
        self.out_rows = _window_spec(state, count, (b, p), (b, 0), (g, 0))
        # scratch: the right-side product (L rho) L^dag, column tile by
        # column tile, then the conjugate transpose of the slope, laid out
        # as the state with zero margins, so that each adds to the output
        # as one contiguous array (numpy 2.4 adds row-strided complex
        # arrays about 3x slower); and L rho, the span's rows
        self.part = np.zeros(state, dtype=complex)
        self.part_tiles = _view(
            self.part, _window_spec(state, count, (s, b), (0, b), (g, g)))
        shape = (2, 2, s, p)
        l_rho = np.empty(shape, dtype=complex)
        self.l_rho_rows = _view(
            l_rho, _window_spec(shape, count, (b, p), (b, 0)))
        self.l_rho_cols = _view(
            l_rho, _window_spec(shape, count, (s, w), (0, b)))
        # the four RK4 slopes of a step: the driver calls the right-hand
        # side four times per step and uses every slope before the next
        # step's first call (``auxiliary._rk4``)
        self.slopes = itertools.cycle(np.zeros((4, *state), dtype=complex))
        self.l_band, self.drift_band, self.h_src, self.pairs = _band_layout(
            count, b, g)
        # scratch for the factors and products of L^dag L; ``take`` with a
        # mode other than "raise" writes into it without a buffer
        self.factors = np.empty(self.pairs.shape, dtype=complex)
        # the stage operands: the drift's row tiles, (2, 1, count, rows,
        # w), and L's windows, (2, count, w, w), without the count axis
        # for one tile.  The driver holds at most three stages at once
        # (the start, mid and end stage of a step) and forms each once, in
        # order, so three sets used in rotation never overwrite a stage
        # still in use (``auxiliary._rk4``)
        tiles = (count,) if count > 1 else ()
        tile = slice(g, g + b)
        sets = []
        for drift, l_win in zip(np.zeros((3, 2 * count * b * w), complex),
                                np.zeros((3, 2 * count * w * w), complex)):
            l_ = l_win.reshape(2, *tiles, w, w)
            # L^dag's column tiles are L's: L is exactly Hermitian
            sets.append((drift, drift.reshape(2, 1, *tiles, b, w), l_win,
                         l_[..., tile, :][:, None], l_[..., :, tile]))
        self.stages = itertools.cycle(sets)


def _band_layout(count: int, b: int, g: int):
    """The band indices of a run's stage operands, built in O(band).

    A window is w = b + 2 g levels square and the 2 * count windows
    (parity p, tile t) are stacked in that order.  L's band in a window
    is stored by diagonal d = -1, 0, 1 and row i, the rows with 0 <= i + d
    < w, so entry (i, j) of window k is element k (3w - 2) + (j - i + 1)
    w - 1 + i of the band vector; one more element, after the last
    window's, stands for every entry off the band and holds zero.
    Returns (l_band, drift_band, h_src, pairs):

    * l_band: each band entry's flat index in the (2 count, w, w) stack;
    * drift_band: the flat index in the (2 count, b, w) stack of each
      drift entry, the tile rows' entries up to two levels off the
      diagonal;
    * h_src: the band element at each drift entry (the zero one two
      levels off the diagonal);
    * pairs: (2, 3, drift entries) band elements, L[i, k] and L[k, j] for
      k = i - 1, i, i + 1, whose products L^dag L sums at entry (i, j):
      L^dag[i, k] = L[i, k] because L is exactly Hermitian.
    """
    w = b + 2 * g
    stack = np.arange(2 * count)[:, None]
    zero = 2 * count * (3 * w - 2)

    def band(i, j):
        ok = (np.abs(j - i) <= 1) & (i >= 0) & (i < w) & (j >= 0) & (j < w)
        return np.where(ok, stack * (3 * w - 2) + (j - i + 1) * w - 1 + i,
                        zero).ravel()

    d = np.repeat([-1, 0, 1], [w - 1, w, w - 1])
    i = np.concatenate([np.arange(1, w), np.arange(w), np.arange(w - 1)])
    j = i + d
    l_band = ((stack * w + i) * w + j).ravel()
    r = np.repeat(np.arange(b), 5)
    i = g + r
    j = i + np.tile(np.arange(-2, 3), b)
    keep = (j >= 0) & (j < w)
    r, i, j = r[keep], i[keep], j[keep]
    drift_band = ((stack * b + r) * w + j).ravel()
    pairs = np.array([[band(i, i + e) for e in (-1, 0, 1)],
                      [band(i + e, j) for e in (-1, 0, 1)]])
    return l_band, drift_band, band(i, j), pairs


def _parity_split(arr: np.ndarray, tiling: _Tiling) -> np.ndarray:
    """Padded parity blocks of an n x n array as a (2, 2, side, side) stack.

    Block [p, q] holds the rows of parity p and the columns of parity q
    (0 even, 1 odd): the ee, eo, oe and oo blocks in that order, at
    padded indices margin..margin+m-1, m = ceil(n/2).  An odd n pads the
    odd side with one zero level, the last odd one; every padding entry
    is zero.
    """
    n = arr.shape[0]
    m = (n + 1) // 2
    padded = np.zeros((2 * m, 2 * m), dtype=complex)
    padded[:n, :n] = arr
    g = tiling.margin
    blocks = np.zeros((2, 2, tiling.side, tiling.side), dtype=complex)
    blocks[:, :, g:g + m, g:g + m] = padded.reshape(m, 2, m, 2).transpose(
        1, 3, 0, 2)
    return blocks


def _parity_join(blocks: np.ndarray, n: int, tiling: _Tiling) -> np.ndarray:
    """The dense n x n array of a padded parity-block stack."""
    m = (n + 1) // 2
    g = tiling.margin
    core = blocks[:, :, g:g + m, g:g + m]
    return core.transpose(2, 0, 3, 1).reshape(2 * m, 2 * m)[:n, :n]


def _generator_bands(model: LindbladModel,
                     tiling: _Tiling) -> tuple[np.ndarray, ...]:
    """(K1, K2, K3) on the band of the tiles' windows of their padded even
    and odd blocks, in the band vector layout of ``_band_layout``, with
    the zero off-band element last."""
    bands = []
    for k in model.generators:
        windows = _view(_parity_split(k, tiling)[[0, 1], [0, 1]],
                        tiling.op_windows)
        bands.append(np.append(np.ravel(windows)[tiling.l_band], 0.0))
    return tuple(bands)


def _density_stage_ops(tiling: _Tiling, bands, row):
    """Right-hand-side operands of one stage: (tiling, drift, jump).

    H and L are formed on their band entries (``_generator_arrays`` on the
    band vectors of ``_generator_bands``), and the drift -i H - alpha
    L^dag L on its own band, L^dag L from L's band entries: at each entry
    three products, summed in ascending order of the inner level.  The
    entries are written into the next of the tiling's three operand sets.
    The drift is a (2, 1, count, rows, width) stack of row tiles acting
    on the rows of parity p, so that one broadcast matmul covers all
    tiles of all four blocks of the state.  jump is None without
    friction, else (alpha, L, L^dag): L in the drift's layout and L^dag
    a (2, count, width, rows) stack of column tiles acting on the columns
    of parity q, both views of L's windows.
    """
    h_band, l_band = _generator_arrays(bands, row)
    drift_flat, drift, l_flat, l_rows, l_cols = next(tiling.stages)
    entries = -1j * h_band[tiling.h_src]
    jump = None
    if l_band is not None:
        alpha = row[1]
        # L^dag L in the tiling's scratch: three products per entry
        left, right = np.take(l_band, tiling.pairs, out=tiling.factors,
                              mode="clip")
        terms = np.multiply(left, right, out=left)
        ltl = terms[0]
        ltl += terms[1]
        ltl += terms[2]
        ltl *= alpha
        entries -= ltl
        l_flat[tiling.l_band] = l_band[:-1]
        jump = (alpha, l_rows, l_cols)
    drift_flat[tiling.drift_band] = entries
    return tiling, drift, jump


def _density_rhs(state: np.ndarray, ops) -> np.ndarray:
    # Y + Y^dag with Y = drift rho + alpha (L rho) L^dag: for a Hermitian
    # state that is drift rho + rho drift^dag + 2 alpha L rho L^dag, and
    # the slope is exactly Hermitian whatever the rounding of Y.  Each
    # product is one matmul over all tiles of all four blocks: the left
    # ones by row tiles, the right one by column tiles.  Block [p, q] of
    # Y^dag is block [q, p] of Y, conjugate-transposed; it is copied into
    # the right-side scratch and conjugated there, because numpy 2.4
    # conjugates or adds a transposed operand through a state-sized
    # temporary.  The levels past m come out exactly zero, and the margins
    # only ever receive zeros.  The result is the tiling's next slope
    # buffer, overwritten four calls on.
    tiling, drift, jump = ops
    out = next(tiling.slopes)
    part = tiling.part
    rows = _view(state, tiling.state_rows)
    np.matmul(drift, rows, out=_view(out, tiling.out_rows))
    if jump is not None:
        alpha, l_, l_h = jump
        np.matmul(l_, rows, out=tiling.l_rho_rows)
        np.matmul(tiling.l_rho_cols, l_h, out=tiling.part_tiles)
        part *= alpha
        out += part
    np.copyto(part, out.transpose(1, 0, 3, 2))
    np.conjugate(part, out=part)
    out += part
    return out


def evolve_density(model: LindbladModel, rho0: DensityMatrix, t_max: float,
                   h: float, record_every: int = 100) -> Trajectory:
    """Fixed-step fourth-order integration of the density-matrix equation.

    The right-hand side is -i[H, rho] - sum_n alpha_n (Ln^dag Ln rho +
    rho Ln^dag Ln - 2 Ln rho Ln^dag) with every operator evaluated at
    the stage times.  No renormalization or positivity projection is
    applied: trace drift and eigenvalue dips are reported, not hidden.
    The state is stepped as its four parity blocks, each cut into row
    tiles and held with a zero margin of BAND_MARGIN levels when a block
    has 2 TILE_ROWS levels or more (module docstring); one tile has no
    margin and multiplies whole blocks.  Every slope is exactly
    Hermitian, so the recorded Hermiticity deviation stays at that of
    rho0: 0 for every state ``build_state`` forms.  States are recorded
    as the dense matrix.
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

    def record(i: int, blocks: np.ndarray):
        nonlocal failed_at
        t = h * i
        arr = _parity_join(blocks, cfg.dim, tiling)
        _require_finite(arr, f"density matrix is not finite at t={t:.6g}")
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
        rec_states.append(DensityMatrix(arr, validate=False))
        rec_diag.append((tr, herm, lo, tail))

    table = _stage_table(model, n, h)
    tiling = _Tiling(cfg.dim)
    bands = _generator_bands(model, tiling)
    # a diverging state overflows between records; the next record's
    # finiteness check reports it, so keep numpy quiet as the transport does
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4(_density_rhs,
             lambda j: _density_stage_ops(tiling, bands, table[j]),
             _parity_split(rho0.entries, tiling), n, h, record, record_every)
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
        _freeze_fields(self, "ts", "herm_dev")

    @property
    def ok(self) -> bool:
        return self.failed_at is None


def _transport_steps(model: LindbladModel, q0: np.ndarray, first: int,
                     last: int, h: float, record, every: int = 1,
                     skip: int = 0, stride: int = 1):
    """Step the adjoint equation with classical RK4 from node ``first`` to
    node ``last`` of the grid t = i*h, backward in time when last < first,
    in steps of ``stride`` nodes; ``stride`` must divide |last - first|.

    For the one jump operator L = L^dag (``LindbladModel`` refuses
    non-Hermitian generators) the adjoint right-hand side -i[H, Q] +
    alpha (L^2 Q + Q L^2 - 2 L Q L) is the density one with alpha replaced
    by -alpha (Lindblad, CMP 48, 119, 1976): Q is stepped as a density
    state on ``_density_rhs`` over the stage table with its alpha column
    negated.  A step of ``stride`` nodes reads every ``stride``-th row of
    the grid's stage table, so with stride 1 it is the plain grid run and
    two runs that meet at a node step exactly as one run through it.

    Backward, each step is an RK4 step of size -stride*h over the stage
    table read in descending order.  That is the well-posed direction: the
    adjoint equation is the Heisenberg picture of the Lindblad map, which
    transports an observable from a later time back to an earlier one by
    a unital, completely positive contraction.  Forward, its double
    commutator is anti-diffusive and amplifies every component at rates
    set by alpha and the squared level gaps of the jump operator.
    ``_adjoint_norm_bound`` bounds the step that keeps RK4 stable.

    ``record(i, q)`` receives the dense state at node first +- i*stride
    for the step counts i = skip, skip + every, ... below the last step,
    and at node ``last``, after a check that it is finite; each is a
    fresh array.
    """
    n, rest = divmod(abs(last - first), stride)
    assert rest == 0, f"stride {stride} does not divide {first} to {last}"
    sign = 1 if last >= first else -1
    table = _stage_table(model, n * stride, h, min(first, last))
    table = table[::stride][::sign]
    table[:, 1] *= -1.0  # the density generator at -alpha
    dim = model.basis.dim
    tiling = _Tiling(dim)
    bands = _generator_bands(model, tiling)

    def checked(i: int, blocks: np.ndarray):
        node = first + sign * stride * i
        q = _parity_join(blocks, dim, tiling)
        # forward, the flow amplifies generic observables past float
        # range; backward it contracts, and an overflow means that
        # h*alpha times the squared level gaps of L has left RK4's
        # stability region
        _require_finite(q, "observable grew beyond float range by "
                           f"t={h * node:.6g}: forward in time the flow "
                           "amplifies it, backward the step is too large "
                           "for RK4")
        record(node, q)

    # overflow between record points is caught at the next record, and a
    # non-finite entry stays non-finite to the last node; the intermediate
    # arithmetic may legitimately hit inf, so keep numpy quiet
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4(_density_rhs,
             lambda j: _density_stage_ops(tiling, bands, table[j]),
             _parity_split(q0, tiling), n, sign * stride * h, checked, every,
             skip)


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
        dev = max_abs(arr - arr.conj().T)
        if dev > ADJOINT_HERM_TOL:
            warnings.append(f"t={t:.6g}: hermiticity deviation {dev:.3e}")
            if failed_at is None:
                failed_at = t
        rec_ts.append(t)
        rec_ops.append(FockOperator(arr))
        rec_dev.append(dev)

    _transport_steps(model, q0.entries, 0, _step_count(t_max, h), h, record,
                     record_every)
    return OperatorTrajectory(ts=np.array(rec_ts), operators=tuple(rec_ops),
                              herm_dev=np.array(rec_dev),
                              failed_at=failed_at, warnings=tuple(warnings))


# -------------------------------------------------------------- moment types


def _linear_rk4(stage_mats, y0, n: int, h: float) -> np.ndarray:
    """Classical RK4 nodes of the linear system y' = A(t) y over n steps.

    ``stage_mats(lo, hi)`` returns A at the stage times j*h/2, j = lo..hi-1,
    as a (hi - lo, d, d) stack.  An RK4 step is linear in y: with A1, A2,
    A3 its start, middle and end matrices it is y <- P y, where
    P = I + h/6 (A1 + 2 (B2 + B3) + B4), B2 = A2 (I + h/2 A1),
    B3 = A2 (I + h/2 B2) and B4 = A3 (I + h B3).  The maps of a block of
    steps are formed at once and then applied in turn, which equals
    stepping ``auxiliary._rk4`` up to rounding.  Each map multiplies the
    previous node, held by reference, and writes its node row in place
    (``ndarray.dot`` with ``out``): the same matrix-vector products as
    indexing both rows, bit for bit, at about half the cost.  Returns the
    (n + 1, d) node values.
    """
    ys = np.empty((n + 1, len(y0)))
    ys[0] = y0
    y = ys[0]
    eye = np.eye(ys.shape[1])
    # the stage matrices, B2, B3, B4, P and their temporaries: about ten
    # d x d float arrays per step
    per = _block_length(10 * eye.nbytes)
    for lo in range(0, n, per):
        hi = min(n, lo + per)
        a = stage_mats(2 * lo, 2 * hi + 1)
        a1, a2, a3 = a[:-1:2], a[1::2], a[2::2]
        b2 = a2 @ (eye + (0.5 * h) * a1)
        b3 = a2 @ (eye + (0.5 * h) * b2)
        b4 = a3 @ (eye + h * b3)
        maps = eye + (h / 6.0) * (a1 + 2.0 * (b2 + b3) + b4)
        for i, p in enumerate(maps, lo + 1):
            y = p.dot(y, out=ys[i])
    return ys


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
        _freeze_fields(self, "ts", "mean_x", "mean_p", "xdot", "pdot", "xddot")

    def x_at(self, t):
        return _dense_at(self.ts, self.mean_x, self.xdot, t, "moment series")

    def p_at(self, t):
        return _dense_at(self.ts, self.mean_p, self.pdot, t, "moment series")

    def xdot_at(self, t):
        return _dense_at(self.ts, self.xdot, self.xddot, t, "moment series")

    def xddot_at(self, t):
        return _dense_at(self.ts, self.xdot, self.xddot, t, "moment series",
                         derivative=True)


def evolve_first_moments(omega_s: Schedule, kappa_s: Schedule,
                         m0: tuple[float, float], t_max: float,
                         h: float) -> FirstMomentSeries:
    """Integrate d<x>/dt = <p> - kappa <x>, d<p>/dt = -omega^2 <x> - kappa <p>.

    This is the exact projection of the full evolution onto the means;
    it holds for the constructed jump operator because the realized
    friction equals kappa identically.
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

    ys = _linear_rk4(stage_mats, m0, n, h)
    ts = h * np.arange(n + 1)
    xs, ps = ys[:, 0], ys[:, 1]
    node_k = kappa[::2]
    node_w2 = omega_sq[::2]
    kdot = np.asarray(kappa_s.eval(ts, 1), dtype=float)
    xdot = ps - node_k * xs
    pdot = -node_w2 * xs - node_k * ps
    xddot = pdot - kdot * xs - node_k * xdot
    return FirstMomentSeries(ts=ts, mean_x=xs, mean_p=ps,
                             xdot=xdot, pdot=pdot, xddot=xddot)


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
        _freeze_fields(self, "ts", "k1", "k2", "k3")


def evolve_su11_moments(model: LindbladModel, v0: tuple[float, float, float],
                        t_max: float, h: float) -> Su11MomentSeries:
    """Integrate the exact closed system for the K-generator expectations."""
    _closure_matrix_verified()
    _check_k_moments(*v0)
    n = _step_count(t_max, h)
    table = _stage_table(model, n, h)
    ys = _linear_rk4(lambda lo, hi: closure_matrix(*table[lo:hi].T), v0, n, h)
    ts = h * np.arange(n + 1)
    return Su11MomentSeries(ts=ts, k1=ys[:, 0], k2=ys[:, 1], k3=ys[:, 2])

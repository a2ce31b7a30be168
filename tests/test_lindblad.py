"""Tests for the open-system engine: coefficient map, density/adjoint
evolution, first-moment and quadratic-moment backends, diagnostics.

Oracles used here:
  * hand-derived closed forms (damped cosine means, rotating K-moments,
    exact equilibrium of the auxiliary equation),
  * independent integration with scipy.integrate.solve_ivp at tight
    tolerances,
  * algebraic identities (trace pairing between a Schrodinger-picture
    state and the matching backward-transported observable, identity
    fixed point of the transport generator, coefficient identity
    alpha*(a2 - a3^2) = kappa).
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from invariantlab import lindblad, operators, runner
from invariantlab.auxiliary import (
    STAGE_BLOCK_BYTES,
    ErmakovInit,
    _rk4,
    adiabatic_rho,
    adiabatic_rhodot,
    solve_auxiliary,
)
from invariantlab.errors import (
    NegativeFrictionError,
    NumericalError,
    PositivityLossError,
    SupportLeakError,
    TruncationLeakError,
    ValidationError,
)
from invariantlab.invariants import construct
from invariantlab.lindblad import (
    LindbladModel,
    _check_k_moments,
    _density_stage_ops,
    evolve_adjoint_observable,
    evolve_density,
    evolve_first_moments,
    evolve_su11_moments,
)
from invariantlab.operators import (
    BasisConfig,
    DensityMatrix,
    FockOperator,
    StateSpec,
    build_canonical,
    build_state,
    build_su11_generators,
    expectation,
    interior_block,
    max_abs,
    trace_pair,
)
from invariantlab.scenario import load_scenario
from invariantlab.schedules import (
    ConstantSchedule,
    LinearSchedule,
    SinusoidSchedule,
)

H = 1e-3
SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def equilibrium_setup(dim, kappa=0.1, omega=1.0, t_max=2.0, h=H):
    """Constant-frequency model on the exact auxiliary equilibrium.

    For omega = 1 the equilibrium is rho = 1, rhodot = 0 (then
    rho'' - kappa rho' + rho = 1/rho^3 holds identically).
    """
    assert omega == 1.0
    omega_s = ConstantSchedule(omega)
    kappa_s = ConstantSchedule(kappa)
    cfg = BasisConfig(dim=dim, omega_ref=omega)
    model = construct(omega_s, kappa_s, ErmakovInit(1.0, 0.0), t_max, h, cfg)
    return omega_s, kappa_s, cfg, cfg.operators[2:], model.sol, model


def modulated_setup(dim, kappa=0.1, t_max=1.0, h=H):
    """Slow sinusoidal frequency with adiabatic auxiliary initialization."""
    omega_s = SinusoidSchedule(1.0, 0.2, 0.1)
    kappa_s = ConstantSchedule(kappa)
    cfg = BasisConfig(dim=dim, omega_ref=1.0)
    init = ErmakovInit(adiabatic_rho(omega_s, kappa_s, 0.0),
                       adiabatic_rhodot(omega_s, kappa_s, 0.0))
    model = construct(omega_s, kappa_s, init, t_max, h, cfg)
    return omega_s, kappa_s, cfg, cfg.operators[2:], model.sol, model


def quadratic_invariant(gens, sol, t):
    """rho^2 K1 + (rhodot^2 + 1/rho^2) K2 - rho rhodot K3 as a raw array."""
    g1, g2, g3 = gens
    r, v = sol.rho_at(t), sol.rhodot_at(t)
    return ((r * r) * g1.entries
            + (v * v + 1.0 / (r * r)) * g2.entries
            - (r * v) * g3.entries)


# ---------------------------------------------------------------------------
# coefficient map


def test_coefficients_on_equilibrium():
    """rho = 1, rhodot = 0, kappa = 0.1: alpha = kappa, a2 = 1, a3 = 0."""
    *_, model = equilibrium_setup(dim=8)
    omega_sq, alpha, a2, a3 = model.coefficients(0.7)
    np.testing.assert_allclose(omega_sq, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(alpha, 0.1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a2, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a3, 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(alpha * (a2 - a3 * a3), 0.1, rtol=0, atol=1e-12)


def test_coefficients_narrow_solution():
    """rho = 2**-0.5 stationary (omega = 2): alpha = kappa/4, a2 = 4."""
    model = construct(ConstantSchedule(2.0), ConstantSchedule(0.1),
                      ErmakovInit(2.0 ** -0.5, 0.0), 1.0, H,
                      BasisConfig(dim=8, omega_ref=2.0))
    _, alpha, a2, a3 = model.coefficients(0.5)
    np.testing.assert_allclose(alpha, 0.025, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a2, 4.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(a3, 0.0, rtol=0, atol=1e-10)
    # realized friction equals the schedule value
    np.testing.assert_allclose(alpha * (a2 - a3 ** 2), 0.1,
                               rtol=0, atol=1e-12)


def test_coefficients_vanish_without_friction():
    *_, model = equilibrium_setup(dim=8, kappa=0.0, t_max=1.0)
    _, alpha, a2, a3 = model.coefficients(0.3)
    assert alpha == 0.0
    assert alpha * (a2 - a3 * a3) == 0.0


def test_negative_friction_rejected_in_coefficients():
    *_, negative = equilibrium_setup(dim=8, kappa=-0.01, t_max=1.0)
    with pytest.raises(NegativeFrictionError):
        negative.coefficients(0.5)


def test_coefficient_identity_check_trips_on_nan():
    """A nan rho must fail the identity check, not pass ``dev > tol``."""
    with pytest.raises(NumericalError, match="coefficient identity"):
        lindblad._jump_coefficients(0.1, np.array([1.0, np.nan]), np.zeros(2))


def test_array_coefficients_equal_the_scalar_ones():
    """One vectorized evaluation gives, bit for bit, the scalar rows."""
    *_, model = modulated_setup(dim=8)
    ts = np.array([0.0, 0.1234, 0.5, 0.999, 1.0])
    table = np.column_stack(model.coefficients(ts))
    for t, row in zip(ts, table):
        assert tuple(row) == model.coefficients(float(t))


# ---------------------------------------------------------------------------
# model


def _stage_arrays(model, t):
    omega_sq, alpha, a2, a3 = model.coefficients(t)
    g1, g2, g3 = model.generators
    return g1 + omega_sq * g2, alpha, g1 + a2 * g2 + a3 * g3


def _split(arr):
    """The padded (dim + 4, dim) state of arr: its rows between two zero
    pad rows above and two below."""
    out = np.zeros((len(arr) + 4, len(arr)), dtype=complex)
    out[2:-2] = arr
    return out


def _join(state):
    """The level rows of a padded state: the dense matrix."""
    return state[2:-2]


def _padding(state):
    """The four pad rows of a padded state."""
    return np.concatenate([state[:2], state[-2:]])


def _dagger(state):
    """The state of the conjugate transpose, on fresh arrays."""
    return _split(_join(state).conj().T)


def _band_stack(arr):
    """The (dim, 1, 3) band stack of arr, by loops: [n, 0, d] is the entry
    (n, n + 2(d - 1)), zero past either end."""
    out = np.zeros((len(arr), 1, 3), dtype=complex)
    for n in range(len(arr)):
        for d in range(3):
            if 0 <= n + 2 * (d - 1) < len(arr):
                out[n, 0, d] = arr[n, n + 2 * (d - 1)]
    return out


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _watched_slope(shape, writes):
    """A zero padded slope buffer that, after every ufunc that writes into
    it or into a view of it, appends the ufunc's name to ``writes`` and
    asserts that its pad rows are zero: numpy hands each ufunc with an
    operand of the subclass to its ``__array_ufunc__``."""
    buf = np.zeros(shape, dtype=complex)

    class Watched(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *args, **kwargs):
            def plain(a):
                return a.view(np.ndarray) if isinstance(a, Watched) else a

            outs = kwargs.get("out", ())
            if outs:
                kwargs["out"] = tuple(map(plain, outs))
            result = getattr(ufunc, method)(*map(plain, args), **kwargs)
            if not any(isinstance(o, Watched) for o in outs):
                return result
            writes.append(ufunc.__name__)
            assert not _padding(buf).any()
            return outs[0]

    return buf.view(Watched)


@pytest.mark.parametrize("dim", [20, 21])
def test_pad_rows_and_the_padding_level_stay_zero(dim):
    """The state is the dense matrix in natural Fock order between two
    zero pad rows above and two below, (dim + 4, dim): ``_rows`` reads,
    for level n, the rows of levels n - 2, n and n + 2, and
    ``_step_density`` hands ``record`` the level rows, after no step the
    initial array itself, and returns them.  The kernel's one scratch
    starts on a 64-byte boundary.  The slope buffer's pad rows stay
    exactly zero after every write into it, with and without friction,
    also when it is reused (six calls write the same one): while it
    holds X = L rho, then -alpha L C, then Y = -alpha L C + K rho and
    the slope Y + Y^dag.  Natural order needs no padding level, so the
    odd dim 21 is stored as it is."""
    *_, model = modulated_setup(dim=dim)
    rho = _random_state(dim, 5)
    rho = 0.5 * (rho + rho.conj().T)
    state = _split(rho)
    rows = lindblad._rows(state)
    assert rows.shape == (dim, 3, dim)
    for n in range(dim):
        for d in range(3):
            np.testing.assert_array_equal(rows[n, d], state[n + 2 * d])
    recorded = []
    kernel = lindblad._Kernel(model)
    final = lindblad._step_density(
        kernel, lindblad._stage_table(model, 0, H), rho, 0, H,
        lambda i, arr: recorded.append((i, arr.copy())), 1)
    [(i, arr)] = recorded
    assert i == 0
    np.testing.assert_array_equal(arr, rho)
    np.testing.assert_array_equal(final, rho)
    assert kernel.scratch.ctypes.data % 64 == 0
    assert kernel.scratch.shape == state.shape
    coeffs = [model.coefficients(t) for t in (0.1, 0.2)]
    coeffs.append((coeffs[1][0], 0.0, *coeffs[1][2:]))  # without friction
    ops = [_density_stage_ops(kernel, row) for row in coeffs]
    assert ops[2][2] is None
    writes = []
    out = _watched_slope(state.shape, writes)
    for j in range(6):
        writes.clear()
        assert lindblad._density_rhs(state, ops[j % 3], out) is out
        assert writes == (["matmul", "add"] if j % 3 == 2 else
                          ["matmul", "matmul", "add", "add"])
        assert out.any()
        assert not _padding(kernel.scratch).any()


def test_a_density_run_builds_each_buffer_view_once_and_keeps_none(
        monkeypatch):
    """``_step_density`` makes the views of each of the driver's five
    padded arrays (state, stage state, three slopes) once, on its first
    right-hand-side call, not once per call, and the kernel holds none of
    them once the run returns, also when a record raises."""
    *_, model = modulated_setup(dim=12)
    kernel = lindblad._Kernel(model)
    table = lindblad._stage_table(model, 4, H)
    views = lindblad._views
    built = []

    def counted(state):
        built.append(state)
        return views(state)

    monkeypatch.setattr(lindblad, "_views", counted)
    rho = np.diag(np.linspace(1.0, 0.0, 12)).astype(complex)
    lindblad._step_density(kernel, table, rho, 4, H, lambda i, arr: None, 1)
    assert len(built) == len({id(a) for a in built}) == 5
    assert kernel.memo == {}

    def failing(i, arr):
        if i == 2:
            raise NumericalError("stop")

    with pytest.raises(NumericalError):
        lindblad._step_density(kernel, table, rho, 4, H, failing, 1)
    assert kernel.memo == {}


def _check_density_stage_operators(dim, n):
    """The test below at one dimension."""
    *_, model = modulated_setup(dim=dim, t_max=n * H)
    table = lindblad._stage_table(model, n, H)
    kernel = lindblad._Kernel(model)
    for j in (0, n + 1, 2 * n):
        row = table[j]
        h_op, alpha, l_op = _stage_arrays(model, 0.5 * H * j)
        assert row[1] == alpha > 0.0
        kernel_, k_op, (l_band, damp) = _density_stage_ops(kernel, row)
        assert kernel_ is kernel
        # the same row without friction: K alone, the same -i H
        _, unitary, jump = _density_stage_ops(kernel, (row[0], 0.0, *row[2:]))
        assert jump is None
        np.testing.assert_array_equal(unitary, k_op)
        for band, dense in ((k_op, -1j * h_op), (l_band, l_op),
                            (damp, -alpha * l_op)):
            np.testing.assert_array_equal(band, _band_stack(dense))


def test_stage_operators_are_formed_from_the_coefficients():
    """At the first, a middle and the last stage of a modulated dissipative
    run, the density stage's operands K, L and -alpha L, formed from
    ``model.coefficients(0.5*h*j)``, are bit for bit the band stacks of
    the dense -i H, L and -alpha L, and the same row without friction has
    the same K and no jump, at the odd dim 81 and the even dim 12."""
    for dim in (81, 12):
        _check_density_stage_operators(dim, 1000)


@pytest.mark.parametrize("dim", [9, 12, 81, 160])
def test_block_rhs_equals_the_dense_generator(dim):
    """In its level rows, the banded right-hand side of an exactly
    Hermitian state is -i[H, rho] - alpha [L, [L, rho]] = drift rho +
    rho drift^dag + 2 alpha L rho L^dag, drift = -i H - alpha L^dag L,
    evaluated in long double on the dense matrices, to within the
    rounding of its operands; every slope equals its conjugate transpose
    bit for bit (the kernel returns Y + Y^dag, whose entries [i, j] and
    [j, i] add the same two roundings in either order); and every pad row
    stays exactly zero, also in a reused slope buffer.

    The bound, entry by entry: with unit roundoff u = eps/2, a complex dot
    product of k terms errs by at most sqrt(2) gamma_(k+2) times the dot
    product of the magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Lemma 3.5), below 1.5 (k + 2) u; every product here
    is a 3-term dot product, 7.5 u.  The Hamiltonian term: K = -i H is
    exact, K rho (7.5 u), Y and Y + Y^dag (2 u): 9.5 u of |H| |rho| + |rho|
    |H|.  The jump term: X = L rho (7.5 u of |L| |rho|), C = X - X^dag
    (one more rounding: 8.5 u of |L| |rho| + |rho| |L|, which also bounds
    |C|), -alpha L (u) and its product with C (7.5 u): 17 u of alpha |L|
    (|L| |rho| + |rho| |L|); Y and Y + Y^dag add 2 u and Y^dag the
    transposed terms: 19 u of alpha (|L| |L| |rho| + |rho| |L| |L| +
    2 |L| |rho| |L|).  Both lie within 22 u times |D| |rho| + |rho| |D|^T
    + 2 alpha |L| |rho| |L|, |D| = |H| + alpha |L| |L|, with |.| taken
    entrywise.  Measured: at most 0.143 of it (dim 160)."""
    *_, model = modulated_setup(dim=dim)
    rho = _random_state(dim, 7)
    rho = 0.5 * (rho + rho.conj().T)  # exactly Hermitian
    h_op, alpha, l_op = _stage_arrays(model, 0.3)
    h_x, l_x, rho_x = (a.astype(np.clongdouble) for a in (h_op, l_op, rho))
    l_hx = l_x.conj().T
    drift = -1j * h_x - alpha * (l_hx @ l_x)
    dense = (drift @ rho_x + rho_x @ drift.conj().T
             + 2.0 * alpha * (l_x @ rho_x @ l_hx))
    abs_l, abs_rho = np.abs(l_op), np.abs(rho)
    abs_drift = np.abs(h_op) + alpha * (abs_l @ abs_l)
    bound = (22 * 0.5 * np.finfo(float).eps
             * (abs_drift @ abs_rho + abs_rho @ abs_drift.T
                + 2.0 * alpha * (abs_l @ abs_rho @ abs_l)))
    ops = _density_stage_ops(lindblad._Kernel(model), model.coefficients(0.3))
    state = _split(rho)
    out = np.zeros_like(state)
    for _ in range(2):  # the second call reuses the slope buffer
        lindblad._density_rhs(state, ops, out)
        np.testing.assert_array_equal(out, _dagger(out))
    assert (np.abs(_join(out) - dense) <= bound).all()
    assert not _padding(out).any()


@pytest.mark.parametrize("kind", ["coherent", "thermal", "fock",
                                  "invariant_ground"])
def test_density_runs_record_exactly_hermitian_states(kind):
    """Every kind of initial state starts exactly Hermitian (a diagonal
    matrix or a projector that ``build_state`` forms exactly Hermitian);
    the slopes are exactly Hermitian and the RK4 stage states and step
    combination commute with conjugation, so every recorded state is
    too: herm_dev reads 0 on a dim-20 modulated dissipative run with a
    complex coherent amplitude and a complex invariant."""
    n = 200
    _, _, cfg, gens, sol, model = modulated_setup(dim=20, t_max=n * H)
    spec = StateSpec(kind=kind, beta=complex(0.8, 0.5), fock_n=3, nbar=0.2)
    rho0 = build_state(spec, cfg,
                       FockOperator(quadratic_invariant(gens, sol, 0.0)))
    traj = evolve_density(model, rho0, n * H, H, record_every=50)
    assert len(traj.herm_dev) == 5 and not traj.herm_dev.any()


def test_an_anti_hermitian_residue_stays_frozen():
    """On the baseline scenario a 1e-13 anti-Hermitian perturbation of the
    initial state keeps its size over 3000 steps: each slope is exactly
    Hermitian, so the anti-Hermitian part only ever receives rounding.  A
    kernel that forms rho drift^dag as (drift rho)^dag but adds the jump
    term unsymmetrized acts on that part as -alpha [L^2, A], which is
    anti-dissipative: from this state it overflows before t = 0.5."""
    s = load_scenario(os.path.join(SCENARIOS, "baseline.cfg"))
    s = dataclasses.replace(s, t_max=3000 * s.step_h)
    p = runner._prepare(s)
    rho0 = runner._initial_state(p).entries
    rng = np.random.default_rng(3)
    x = rng.normal(size=rho0.shape) + 1j * rng.normal(size=rho0.shape)
    perturbed = DensityMatrix(rho0 + 0.5e-13 * (x - x.conj().T),
                              validate=False)
    traj = evolve_density(p.model, perturbed, s.t_max, s.step_h,
                          record_every=500)
    assert len(traj.herm_dev) == 7 and traj.herm_dev[0] > 0.0
    assert traj.herm_dev.max() <= 1.001 * traj.herm_dev[0]


def test_rhs_is_three_banded_row_products():
    """The kernel is its three banded products in its grouping, bit for
    bit: with the stage's band stacks K, L and -alpha L, X = L rho,
    C = X - X^dag, Y = K rho + (-alpha L) C and the slope Y + Y^dag, where
    level row n of a product by a band stack B is B[n], 1 x 3, times a
    copy of the rows of levels n - 2, n and n + 2 of the padded
    operand."""
    dim = 12
    *_, model = modulated_setup(dim=dim)
    ops = _density_stage_ops(lindblad._Kernel(model), model.coefficients(0.3))
    _, k_op, (l_op, damp) = ops
    state = _split(_random_state(dim, 11))

    def product(band, a):
        out = np.zeros_like(a)
        for n in range(dim):
            out[2 + n] = band[n] @ np.array(a[n:n + 5:2])
        return out

    x = product(l_op, state)
    y = product(k_op, state) + product(damp, x - _dagger(x))
    np.testing.assert_array_equal(
        lindblad._density_rhs(state, ops, np.zeros_like(state)),
        y + _dagger(y))


def test_odd_dimension_evolution_matches_a_dense_rk4(evolve_recording):
    """At the odd dims 41 and 81 every recorded state agrees with a
    classical RK4 on dense matrices written out here."""
    for dim in (41, 81):
        _check_against_a_dense_rk4(dim, evolve_recording)


def _check_against_a_dense_rk4(dim, evolve_recording):
    """The test above at one dimension."""
    n, every = 200, 40
    _, _, cfg, _, _, model = modulated_setup(dim=dim, t_max=n * H)
    rho0 = build_state(StateSpec(kind="coherent", beta=complex(0.8, 0.5)), cfg)
    _, states = evolve_recording(model, rho0, n * H, H, every)

    def rhs(rho, t):
        h_op, alpha, l_op = _stage_arrays(model, t)
        l_h = l_op.conj().T
        m = l_h @ l_op
        return (-1j * (h_op @ rho - rho @ h_op)
                + alpha * (2.0 * l_op @ rho @ l_h - m @ rho - rho @ m))

    rho = np.array(rho0.entries)
    expected = [rho]
    for i in range(n):
        t = i * H
        s1 = rhs(rho, t)
        s2 = rhs(rho + 0.5 * H * s1, t + 0.5 * H)
        s3 = rhs(rho + 0.5 * H * s2, t + 0.5 * H)
        s4 = rhs(rho + H * s3, t + H)
        rho = rho + (H / 6.0) * (s1 + 2.0 * (s2 + s3) + s4)
        if (i + 1) % every == 0:
            expected.append(rho)
    assert len(states) == len(expected) == 1 + n // every
    for state, ref in zip(states, expected):
        assert max_abs(state.entries - ref) <= 1e-12


def _fresh_density_rhs(state, ops):
    """The density right-hand side with a fresh array for every product,
    sum and conjugate transpose: the per-call reference for the kernel's
    slope and scratch buffers."""
    _, k_op, jump = ops

    def product(band, a):
        out = np.zeros_like(a)
        out[2:-2, None] = band @ lindblad._rows(a)
        return out

    y = product(k_op, state)
    if jump is not None:
        l_op, damp = jump
        x = product(l_op, state)
        y = y + product(damp, x - _dagger(x))
    return y + _dagger(y)


def _plain_rk4(rhs, q, n, h):
    """Every node of n classical RK4 steps on fresh arrays; ``rhs(q, j)``
    is the derivative at stage j of the grid j*h/2."""
    nodes = [q]
    for i in range(n):
        s1 = rhs(q, 2 * i)
        s2 = rhs(q + 0.5 * h * s1, 2 * i + 1)
        s3 = rhs(q + 0.5 * h * s2, 2 * i + 1)
        s4 = rhs(q + h * s3, 2 * i + 2)
        q = q + (h / 6.0) * (s1 + 2.0 * (s2 + s3) + s4)
        nodes.append(q)
    return nodes


def _reference_nodes(model, table, q0, n, h, every=1):
    """Nodes 0, every, 2 every, ... and n, as dense arrays, of a plain RK4
    loop on the padded state that builds every array fresh: each
    stage's operands from ``_density_stage_ops`` over the stage rows
    ``table`` and the right-hand side above."""
    kernel = lindblad._Kernel(model)

    def rhs(q, j):
        return _fresh_density_rhs(q, _density_stage_ops(kernel, table[j]))

    nodes = _plain_rk4(rhs, _split(q0), n, h)
    kept = nodes[::every] + ([nodes[-1]] if n % every else [])
    return [_join(q) for q in kept]


def _reference_density(model, rho0, n, h, every):
    """The recorded states of the fresh-array loop from rho0."""
    return _reference_nodes(model, lindblad._stage_table(model, n, h),
                            rho0.entries, n, h, every)


@pytest.mark.parametrize("dim, kappa, n", [(12, 0.1, 30), (41, 0.1, 30),
                                           (41, 0.0, 30), (81, 0.1, 30),
                                           (160, 0.1, 4)])
def test_density_buffers_reproduce_the_fresh_array_rk4(dim, kappa, n,
                                                       evolve_recording):
    """``evolve_density`` steps in the driver's state, stage-state and
    slope buffers and the kernel's scratch; every state it records
    equals bit for bit the fresh-array loop above.  Dims 41 and 81 are
    odd; dim 41 also runs without friction."""
    _, _, cfg, _, _, model = modulated_setup(dim=dim, kappa=kappa,
                                             t_max=n * H)
    rho0 = build_state(StateSpec(kind="coherent", beta=complex(0.5, 0.3)), cfg)
    traj, states = evolve_recording(model, rho0, n * H, H, 7)
    expected = _reference_density(model, rho0, n, H, 7)
    assert len(states) == len(expected) == 2 + (n - 1) // 7
    for state, ref in zip(states, expected):
        np.testing.assert_array_equal(state.entries, ref)
    [final] = traj.states
    np.testing.assert_array_equal(final.entries, expected[-1])


def _density_step_allocations(dim, monkeypatch):
    """(largest rise of traced memory over a step, state bytes)."""
    n = 6
    _, _, cfg, _, _, model = modulated_setup(dim=dim, t_max=n * H)
    rho0 = build_state(StateSpec(kind="coherent", beta=complex(0.5, 0.3)), cfg)
    rises, opened, calls = [], [], []
    rhs = lindblad._density_rhs

    def traced_rhs(state, ops, out):
        # a step runs from its first right-hand-side call to the next
        # step's: four calls, the combination and the next step's two
        # stage formations
        if len(calls) % 4 == 0:
            if opened:
                rises.append(tracemalloc.get_traced_memory()[1]
                             - opened.pop())
            tracemalloc.reset_peak()
            opened.append(tracemalloc.get_traced_memory()[0])
        calls.append(None)
        return rhs(state, ops, out)

    monkeypatch.setattr(lindblad, "_density_rhs", traced_rhs)
    tracemalloc.start()
    try:
        evolve_density(model, rho0, n * H, H, record_every=n)
    finally:
        tracemalloc.stop()
    # the last step, which ends in the record, is left open
    assert len(calls) == 4 * n and len(rises) == n - 1
    return max(rises), (dim + 4) * dim * np.dtype(complex).itemsize


@pytest.mark.parametrize("dim", [41, 160])
def test_density_steps_allocate_no_state_sized_array(dim, monkeypatch):
    """Between records, an ``evolve_density`` step allocates no array the
    size of the padded (dim + 4, dim) state: traced with tracemalloc,
    memory never rises by one state over a whole step, its four
    right-hand-side calls, the RK4 combination and its stage-operand
    formations, whose arrays are band-sized.  Measured: at most 2.5 KB
    against a 29.5 KB state at dim 41 and 8.3 KB against 420 KB at dim
    160."""
    rise, state_bytes = _density_step_allocations(dim, monkeypatch)
    assert rise < state_bytes


def _traced_peak(call):
    """Peak traced memory of ``call()``, run once untraced first so that
    one-time allocations are made before tracing."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_density_runs_retain_moments_not_states():
    """A run keeps one row of ten floats per record (time, moments and
    health) and one state: traced with tracemalloc, a dim-20 run of 400
    steps recording every node peaks above the same run recording every
    100th node by less than its 401 rows plus three states.  Keeping every
    recorded state would add 396 states, 2.5 MB.  Measured: 31.9 KB above,
    against a bound of 51.3 KB; the rows alone are 32.1 KB."""
    n, dim = 400, 20
    _, _, cfg, _, _, model = modulated_setup(dim=dim, t_max=n * H)
    rho0 = build_state(StateSpec(kind="coherent", beta=complex(0.5, 0.3)), cfg)
    dense, sparse = (
        _traced_peak(lambda: evolve_density(model, rho0, n * H, H,
                                            record_every=every))
        for every in (1, 100))
    rows = (n + 1) * len(lindblad._RECORD_FIELDS) * 8
    state = dim * dim * np.dtype(complex).itemsize
    assert dense - sparse < rows + 3 * state


def test_a_wide_density_run_holds_each_state_sized_array_once():
    """A dim-160 run of four steps and two records holds six state-sized
    arrays: the driver's state, stage state and three slopes and the
    kernel's one scratch, in whose level rows the record works.  With
    the dense x and p of <x> and <p> and a record's temporaries, its
    traced peak stays below 7.5 padded (164, 160) states, below what one
    more state-sized array would add.  Measured: 6.73 states (2.83 MB).
    With the kernel's X and C scratch and a record scratch of its own it
    peaked at 9.51 states (3.99 MB); with a driver copy of the state, two
    copies per record and a cached second set of x, p, K1, K2 and K3, at
    14.46 states (6.07 MB) with the cache warm, 19.35 (8.12 MB) cold."""
    n, dim = 4, 160
    _, _, cfg, _, _, model = modulated_setup(dim=dim, t_max=n * H)
    rho0 = build_state(StateSpec(kind="coherent", beta=complex(3.0, 1.0)), cfg)
    peak = _traced_peak(lambda: evolve_density(model, rho0, n * H, H,
                                               record_every=n))
    assert peak < 7.5 * (dim + 4) * dim * np.dtype(complex).itemsize


def test_a_density_record_allocates_less_than_one_state(monkeypatch):
    """At dim 160 each record of a run reduces the live state in the
    level rows of the kernel's scratch: traced with tracemalloc, memory
    rises above the record's start by less than one (dim, dim) complex
    state.  What it sees is the real |rho - rho^dag| of the Hermiticity
    deviation, half a state; eigvalsh copies the symmetrised state in
    memory that tracemalloc does not trace.  A pairing that formed its
    product fresh, as ``trace_pair`` without ``out`` does, or a record
    scratch of its own reaches one state.  Measured: 0.50 states at each
    of the two records, where pairings formed fresh read 1.32."""
    n, dim = 4, 160
    _, _, cfg, _, _, model = modulated_setup(dim=dim, t_max=n * H)
    rho0 = build_state(StateSpec(kind="coherent", beta=complex(3.0, 1.0)), cfg)
    rises = []
    step = lindblad._step_density

    def traced(kernel, table, a0, n, h, record, every):
        def measured(i, arr):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            record(i, arr)
            rises.append(tracemalloc.get_traced_memory()[1] - start)
        return step(kernel, table, a0, n, h, measured, every)

    monkeypatch.setattr(lindblad, "_step_density", traced)
    tracemalloc.start()
    try:
        evolve_density(model, rho0, n * H, H, record_every=n)
    finally:
        tracemalloc.stop()
    assert len(rises) == 2
    assert max(rises) < dim * dim * np.dtype(complex).itemsize


def test_stage_table_temporaries_are_bounded():
    """The stage table of 20 000 steps is filled a block at a time: its
    traced peak stays below the table's own bytes plus twice
    STAGE_BLOCK_BYTES, where one call over all 40 001 stage times peaked
    4.5 MB above the table.  Measured: 1.05 MB above the table."""
    n = 20000
    *_, model = modulated_setup(dim=8, t_max=n * H)
    peak = _traced_peak(lambda: lindblad._stage_table(model, n, H))
    table_bytes = (2 * n + 1) * 4 * 8
    assert peak < table_bytes + 2 * STAGE_BLOCK_BYTES


def test_blocked_stage_table_is_the_one_shot_table():
    """Across block boundaries, and from a node past the start, the
    blocked table equals ``np.column_stack(model.coefficients(ts))`` over
    every stage time in one call, bit for bit; and friction that turns
    negative in a later block and stays negative through the blocks after
    it is named at the first negative stage time, as the one call names
    it.  kappa = 0.05 - 0.01 t crosses zero at t = 5, stage 10 000, in the
    second of four blocks of about 7300 rows."""
    per = lindblad._block_length(lindblad.STAGE_ROW_BYTES)
    n, first = 12000, 3
    assert per < 10000 < 2 * per < 2 * n + 1
    *_, model = modulated_setup(dim=8, t_max=(n + first) * H)
    ts = 0.5 * H * np.arange(2 * first, 2 * (first + n) + 1)
    np.testing.assert_array_equal(lindblad._stage_table(model, n, H, first),
                                  np.column_stack(model.coefficients(ts)))

    model = construct(ConstantSchedule(1.0), LinearSchedule(0.05, -0.01),
                      ErmakovInit(1.0, 0.0), n * H, H,
                      BasisConfig(dim=8, omega_ref=1.0))
    message = r"NegativeFriction: kappa\(5\.0005\) = -5\.000e-06"
    with pytest.raises(NegativeFrictionError, match=message):
        model.coefficients(0.5 * H * np.arange(2 * n + 1))
    with pytest.raises(NegativeFrictionError, match=message):
        lindblad._stage_table(model, n, H)


def test_trajectory_records_the_moments_of_each_state(evolve_recording):
    """Each record stores ``expectation`` of each of the basis's x, p, K1,
    K2 and K3 in the recorded state, bit for bit, in the columns mean_x ..
    k3, and its health values; the trajectory keeps the last state
    alone."""
    n = 60
    _, _, cfg, _, _, model = modulated_setup(dim=20, t_max=n * H)
    rho0 = build_state(StateSpec(kind="coherent", beta=complex(0.5, 0.3)), cfg)
    traj, states = evolve_recording(model, rho0, n * H, H, 25)
    assert len(states) == len(traj.ts) == 4
    columns = (traj.mean_x, traj.mean_p, traj.k1, traj.k2, traj.k3)
    for column, op in zip(columns, cfg.operators, strict=True):
        assert column.tolist() == [expectation(op, s) for s in states]
    np.testing.assert_array_equal(traj.trace, [s.trace() for s in states])
    np.testing.assert_array_equal(traj.min_eig,
                                  [s.min_eigenvalue() for s in states])
    [final] = traj.states
    np.testing.assert_array_equal(final.entries, states[-1].entries)


def test_hamiltonian_matches_generators():
    omega_s, _, cfg, (g1, g2, g3), sol, model = modulated_setup(dim=12)
    t = 0.4
    w = float(omega_s.eval(t))
    row = model.coefficients(t)
    h_op = lindblad._generator_arrays(model.generators, row)[0]
    assert FockOperator(h_op).hermitian
    np.testing.assert_array_equal(h_op, g1.entries + (w * w) * g2.entries)


def test_jump_operator_matches_coefficients():
    _, _, cfg, (g1, g2, g3), sol, model = modulated_setup(dim=12)
    t = 0.4
    row = model.coefficients(t)
    _, alpha, a2, a3 = row
    assert alpha > 0.0
    jump = lindblad._generator_arrays(model.generators, row)[1]
    assert FockOperator(jump).hermitian
    np.testing.assert_array_equal(
        jump, g1.entries + a2 * g2.entries + a3 * g3.entries)


def test_no_jump_terms_without_friction():
    *_, model = equilibrium_setup(dim=10, kappa=0.0, t_max=1.0)
    row = model.coefficients(0.5)
    assert _density_stage_ops(lindblad._Kernel(model), row)[2] is None


def _construct_on_generators(monkeypatch, gens_of):
    """``construct`` on a dim-10 basis whose build hands
    ``gens_of(K1, K2, K3)`` of the builder to its checks."""
    monkeypatch.setattr(operators, "build_su11_generators",
                        lambda x, p: gens_of(*build_su11_generators(x, p)))
    cfg = BasisConfig(dim=10, omega_ref=1.0)
    return construct(ConstantSchedule(1.0), ConstantSchedule(0.1),
                     ErmakovInit(1.0, 0.0), 0.01, H, cfg)


def test_non_hermitian_generator_rejected(monkeypatch):
    """The observable transport is the density equation with alpha
    negated, which is its adjoint only for a Hermitian jump operator, and
    the density stages read L^dag as L: a K3 deviation of 1e-3 is refused
    by the basis's build, before any model is made on it, and so is one
    of 1e-14, which ``FockOperator`` still calls Hermitian."""
    for dev in (1e-3, 1e-14):
        def skewed(g1, g2, g3, dev=dev):
            k3 = np.array(g3.entries)
            k3[0, 2] += dev
            assert FockOperator(k3).hermitian == (dev < 1e-12)
            return g1, g2, FockOperator(k3)

        with pytest.raises(ValidationError,
                           match=r"generator k3 is not Hermitian"):
            _construct_on_generators(monkeypatch, skewed)


@pytest.mark.parametrize("offset, name", [(1, "k3"), (3, "k1"), (4, "k2")])
def test_generator_coupling_off_the_band_rejected(monkeypatch, offset, name):
    """A Hermitian pair of 1e-3 entries between levels 1 and 1 + offset,
    off the diagonals 0 and +-2 that the band stacks hold, would be
    dropped by the density kernel: the basis's build refuses it and names
    the generator and both levels."""
    def coupled(*gens):
        gens = dict(zip(("k1", "k2", "k3"), gens))
        k = np.array(gens[name].entries)
        k[1, 1 + offset] = k[1 + offset, 1] = 1e-3
        gens[name] = FockOperator(k)
        return tuple(gens.values())

    with pytest.raises(ValidationError,
                       match=rf"generator {name} couples Fock levels 1 and "
                             rf"{1 + offset},"):
        _construct_on_generators(monkeypatch, coupled)


def test_generator_dimension_mismatch_rejected(monkeypatch):
    wrong = build_su11_generators(*build_canonical(BasisConfig(dim=12,
                                                               omega_ref=1.0)))
    with pytest.raises(ValidationError,
                       match="generator dimension 12 does not match basis 10"):
        _construct_on_generators(monkeypatch, lambda *gens: wrong)


def test_solution_of_another_equation_rejected():
    """The jump coefficients are right only on a solution of the model's
    own auxiliary equation: a kappa = 0 solution paired by hand with a
    kappa = 0.1 model is refused, as is a solution of the same friction
    on another frequency."""
    omega_s = SinusoidSchedule(1.0, 0.2, 0.1)
    cfg = BasisConfig(dim=8, omega_ref=1.0)
    init = ErmakovInit(1.0, 0.0)
    sol0 = solve_auxiliary(omega_s, ConstantSchedule(0.0), init, 1.0, H)
    sol1 = solve_auxiliary(ConstantSchedule(1.0), ConstantSchedule(0.1), init,
                           1.0, H)
    for sol in (sol0, sol1):
        with pytest.raises(ValidationError, match="another equation"):
            LindbladModel(omega_s, ConstantSchedule(0.1), sol, cfg)


# ---------------------------------------------------------------------------
# density evolution


def test_unitary_mean_position_closed_form():
    """kappa = 0, omega = 1: <x>(t) = cos t for a coherent state on axis."""
    t_max = float(np.pi)
    _, _, cfg, _, _, model = equilibrium_setup(dim=40, kappa=0.0, t_max=t_max)
    rho0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    traj = evolve_density(model, rho0, t_max, H, record_every=157)
    np.testing.assert_allclose(traj.mean_x, np.cos(traj.ts), rtol=0,
                               atol=1e-6)
    assert traj.failed_at is None


def test_damped_mean_position_closed_form():
    """omega = 1, kappa = 0.1: the mean motion obeys x'' + 2k x' + (1+k^2) x
    = 0, whose damped frequency is exactly 1, so <x>(t) = e^{-kt} cos t."""
    kappa = 0.1
    _, _, cfg, gens, sol, model = equilibrium_setup(dim=40, kappa=kappa,
                                                    t_max=float(np.pi))
    state0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    means = [expectation(op, state0) for op in cfg.operators[:2]]
    np.testing.assert_allclose(means, (1.0, 0.0), atol=1e-12)
    # mean_p(0) = 0 gives xdot(0) = -kappa, matching d/dt[e^{-kt} cos t](0)
    traj = evolve_density(model, state0, float(np.pi), H, record_every=100)
    np.testing.assert_allclose(traj.mean_x,
                               np.exp(-kappa * traj.ts) * np.cos(traj.ts),
                               rtol=0, atol=1e-4)


def test_density_health_metrics_stay_tight():
    _, _, cfg, gens, sol, model = modulated_setup(dim=40, t_max=2.0)
    rho0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    traj = evolve_density(model, rho0, 2.0, H, record_every=200)
    assert traj.failed_at is None and traj.warnings == ()
    np.testing.assert_allclose(traj.trace, 1.0, rtol=0, atol=1e-12)
    assert float(np.max(traj.herm_dev)) < 1e-13
    assert float(np.min(traj.min_eig)) > -1e-12
    assert float(np.max(traj.tail_pop)) < 1e-12


def test_record_grid_is_uniform_and_includes_endpoint(evolve_recording):
    _, _, cfg, gens, sol, model = equilibrium_setup(dim=10, t_max=0.05)
    rho0 = build_state(StateSpec(kind="fock", fock_n=0), cfg)
    traj, states = evolve_recording(model, rho0, 0.05, H, 10)
    np.testing.assert_allclose(traj.ts, np.arange(6) * 0.01, rtol=0, atol=1e-15)
    assert len(states) == 6


def test_constant_jump_energy_is_conserved(evolve_recording):
    """A jump operator equal to H leaves <H> exactly constant.

    On the omega = 1 equilibrium (rho = 1, rhodot = 0) the jump operator
    is L = K1 + K2 = H and its strength is alpha = kappa."""
    _, _, cfg, (g1, g2, _), _, model = equilibrium_setup(dim=30, kappa=0.2)
    h_op = FockOperator(g1.entries + g2.entries)
    _, alpha, l_op = _stage_arrays(model, 1.0)
    assert alpha == 0.2
    np.testing.assert_array_equal(l_op, h_op.entries)
    rho0 = build_state(StateSpec(kind="coherent", beta=1.0), cfg)
    _, states = evolve_recording(model, rho0, 2.0, H, 250)
    energies = [float(np.trace(h_op.entries @ s.entries).real)
                for s in states]
    np.testing.assert_allclose(energies, energies[0], rtol=0, atol=1e-8)


def test_friction_turning_negative_mid_window_names_the_stage_time():
    """kappa = 0.05 - 0.1 t crosses zero at t = 0.5; with h = 0.01 the
    first stage below the tolerance is t = 0.505."""
    cfg = BasisConfig(dim=10, omega_ref=1.0)
    model = construct(ConstantSchedule(1.0), LinearSchedule(0.05, -0.1),
                      ErmakovInit(1.0, 0.0), 1.0, 0.01, cfg)
    rho0 = build_state(StateSpec(kind="fock", fock_n=0), cfg)
    with pytest.raises(NegativeFrictionError,
                       match=r"NegativeFriction: kappa\(0\.505\) = -5\.000e-04"):
        evolve_density(model, rho0, 1.0, 0.01)


def test_truncation_leak_raises():
    """Population parked on the top level trips the tail monitor."""
    _, _, cfg, gens, sol, model = equilibrium_setup(dim=12, t_max=0.01)
    arr = np.zeros((12, 12), dtype=complex)
    arr[0, 0] = 1.0 - 1e-6
    arr[11, 11] = 1e-6
    with pytest.raises(TruncationLeakError):
        evolve_density(model, DensityMatrix(arr), 0.01, H)


def test_positivity_loss_raises():
    _, _, cfg, gens, sol, model = equilibrium_setup(dim=12, t_max=0.01)
    arr = np.zeros((12, 12), dtype=complex)
    arr[0, 0] = 1.001
    arr[1, 1] = -0.001
    with pytest.raises(PositivityLossError):
        evolve_density(model, DensityMatrix(arr, validate=False), 0.01, H)


def test_soft_negativity_marks_run_failed_without_raising():
    """Eigenvalue in (-1e-6, -1e-8) is recorded as a failure, not an abort."""
    _, _, cfg, gens, sol, model = equilibrium_setup(dim=12, t_max=0.01)
    arr = np.zeros((12, 12), dtype=complex)
    arr[0, 0] = 1.0 + 5e-8
    arr[1, 1] = -5e-8
    traj = evolve_density(model, DensityMatrix(arr, validate=False), 0.01, H)
    assert traj.failed_at == 0.0
    assert any("eigenvalue" in w for w in traj.warnings)


def test_oversized_coherent_state_rejected():
    cfg = BasisConfig(dim=12, omega_ref=1.0)
    with pytest.raises(SupportLeakError):
        build_state(StateSpec(kind="coherent", beta=1.2), cfg)


def test_trajectory_csv_layout(tmp_path):
    _, _, cfg, gens, sol, model = equilibrium_setup(dim=12, t_max=0.02)
    rho0 = build_state(StateSpec(kind="fock", fock_n=0), cfg)
    traj = evolve_density(model, rho0, 0.02, H, record_every=10)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,mean_x,mean_p,k1,k2,k3,trace,herm_dev,min_eig,tail_pop"
    assert len(lines) == 1 + 3
    assert all(len(line.split(",")) == 10 for line in lines[1:])


# ---------------------------------------------------------------------------
# backward-transported observables


@pytest.mark.parametrize("dim", [20, 21, 60])
def test_identity_is_a_fixed_point(dim):
    """The transport generator annihilates the identity (unital form), and
    exactly: its C = L - L^dag is 0 for the exactly Hermitian L, and K +
    K^dag = -i H + i H is 0, so every slope is 0 and forward, where the
    flow amplifies any rounding residue, the identity stays as it is."""
    *_, model = modulated_setup(dim=dim, t_max=1.0)
    eye = FockOperator(np.eye(dim, dtype=complex))
    ot = evolve_adjoint_observable(model, eye, 1.0, H, record_every=250)
    assert len(ot.operators) == 5
    for op in ot.operators:
        np.testing.assert_array_equal(op.entries, np.eye(dim))


def test_pairing_with_state_is_conserved(evolve_recording):
    """tr[Q(t) rho(t)] is time independent when both are transported."""
    _, _, cfg, gens, sol, model = modulated_setup(dim=40, t_max=1.0)
    rho0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    traj, states = evolve_recording(model, rho0, 1.0, H, 100)
    ot = evolve_adjoint_observable(model, gens[1], 1.0, H, record_every=100)
    pair0 = trace_pair(ot.operators[0].entries, states[0].entries).real
    devs = [abs(trace_pair(ot.operators[i].entries,
                           states[i].entries).real - pair0)
            for i in range(len(traj.ts))]
    assert max(devs) <= 1e-7


def test_transport_preserves_hermiticity():
    _, _, cfg, gens, sol, model = modulated_setup(dim=20, t_max=0.5)
    ot = evolve_adjoint_observable(model, gens[1], 0.5, H, record_every=100)
    assert float(np.max(ot.herm_dev)) < 1e-10
    assert ot.failed_at is None


def test_non_hermitian_seed_rejected():
    _, _, cfg, gens, sol, model = equilibrium_setup(dim=10, t_max=0.01)
    x_op, p_op, *_ = cfg.operators
    ladder = FockOperator(x_op.entries + 1j * p_op.entries)
    with pytest.raises(ValidationError):
        evolve_adjoint_observable(model, ladder, 0.01, H)


def test_transport_overflow_raises():
    """Strong friction amplifies off-diagonal modes past float range."""
    _, _, cfg, gens, sol, model = modulated_setup(dim=60, kappa=2.0,
                                                  t_max=0.5)
    with pytest.raises(NumericalError, match="float range"):
        evolve_adjoint_observable(model, gens[1], 0.5, H, record_every=50)


def test_transported_invariant_tracks_closed_form_without_friction():
    """kappa = 0: the closed-form quadratic invariant solves the transport
    equation; truncation keeps the match at the 1e-6 level on [0, 0.5]."""
    _, _, cfg, gens, sol, model = modulated_setup(dim=40, kappa=0.0,
                                                  t_max=0.5)
    seed = FockOperator(quadratic_invariant(gens, sol, 0.0))
    ot = evolve_adjoint_observable(model, seed, 0.5, H, record_every=100)
    devs = [max_abs(interior_block(
        ot.operators[i].entries - quadratic_invariant(gens, sol, t),
        cfg.interior_dim)) for i, t in enumerate(ot.ts)]
    assert max(devs) <= 1e-6


def test_transported_invariant_tracks_closed_form_with_friction():
    """With friction and a moving rho the closed form solves the transport
    equation only up to the defect i*kappa*rho*rhodot*K3, so the exactly
    transported operator separates from it at rate |kappa*rho*rhodot|
    times the K3 norm (~1.7e-2 per unit time here, step-size independent
    and proportional to the basis size through the K3 norm)."""
    _, _, cfg, gens, sol, model = modulated_setup(dim=40, kappa=0.1,
                                                  t_max=0.5)
    seed = FockOperator(quadratic_invariant(gens, sol, 0.0))
    ot = evolve_adjoint_observable(model, seed, 0.5, H, record_every=100)
    devs = [max_abs(interior_block(
        ot.operators[i].entries - quadratic_invariant(gens, sol, t),
        cfg.interior_dim)) for i, t in enumerate(ot.ts)]
    assert max(devs) <= 2e-2


def _reference_transport(model, q0, n, h, first=0, backward=False):
    """Every node of a plain RK4 loop on the dense adjoint equation, with
    each stage's H and L from ``_generator_arrays`` and the right-hand side
    -i(H q - q H) + alpha (M q + q M) - 2 alpha L^dag q L, M = L^dag L.  The
    n steps start at node ``first``, or end there when ``backward``, and
    then run at step -h over the stage rows in descending order."""
    table = lindblad._stage_table(model, n, h, first)
    if backward:
        table, h = table[::-1], -h

    def rhs(q, j):
        h_op, l_ = lindblad._generator_arrays(model.generators, table[j])
        out = -1j * (h_op @ q - q @ h_op)
        if l_ is not None:
            alpha = table[j][1]
            l_h = l_.conj().T
            m = l_h @ l_
            out += alpha * (m @ q + q @ m) - (2.0 * alpha) * (l_h @ q @ l_)
        return out

    return _plain_rk4(rhs, np.array(q0, dtype=complex), n, h)


def _negated_alpha_transport(model, q0, n, h, first=0, backward=False,
                             stride=1):
    """The nodes of ``_reference_transport``'s window, stepped instead by
    the fresh-array density loop over the same stage rows with alpha
    negated; with ``stride`` k, n steps of k*h over every k-th row."""
    table = lindblad._stage_table(model, n * stride, h, first)[::stride]
    h *= stride
    if backward:
        table, h = table[::-1], -h
    return _reference_nodes(model, table * np.array([1.0, -1.0, 1.0, 1.0]),
                            q0, n, h)


def _transported(model, q0, first, n, backward, stride=1):
    """(node indices, nodes) that ``_transport_steps`` records over the n
    steps of ``stride`` nodes from node ``first``, or back to it when
    ``backward``."""
    nodes = []
    span = n * stride
    ends = (first + span, first) if backward else (first, first + span)
    lindblad._transport_steps(model, q0, *ends, H,
                              lambda i, q: nodes.append((i, q.copy())),
                              stride=stride)
    return [i for i, _ in nodes], [q for _, q in nodes]


TRANSPORT_CASES = pytest.mark.parametrize("dim, kappa, backward", [
    pytest.param(dim, kappa, backward,
                 id=f"{dim}-{kappa}-{'backward' if backward else 'forward'}")
    for dim in (20, 81) for kappa in (0.1, 0.0) for backward in (False, True)])


@TRANSPORT_CASES
def test_transport_steps_the_density_kernel_with_alpha_negated(
        dim, kappa, backward):
    """Forward and backward, with and without friction, every node that
    ``_transport_steps`` records equals, bit for bit, a plain RK4 loop over
    the density stage operands and right-hand side with alpha negated,
    and carries its own index; backward, the loop reads the window's stage
    rows in descending order.  Dim 81 is odd."""
    first, n = 30, 60
    *_, gens, _, model = modulated_setup(dim=dim, kappa=kappa,
                                         t_max=(first + n) * H)
    idx, nodes = _transported(model, gens[1].entries, first, n, backward)
    order = (range(first + n, first - 1, -1) if backward
             else range(first, first + n + 1))
    assert idx == list(order)
    expected = _negated_alpha_transport(model, gens[1].entries, n, H, first,
                                        backward)
    for q, ref in zip(nodes, expected, strict=True):
        np.testing.assert_array_equal(q, ref)


@TRANSPORT_CASES
def test_transport_agrees_with_the_dense_adjoint_equation(dim, kappa,
                                                          backward):
    """Every node agrees with the dense adjoint loop to rounding.

    The bound: one RK4 step adds h times a combination of generator
    values to q, and the two loops group the generator differently.  The
    sum rounds at eps |q| and the generator values at eps h S |q|, where
    S = 2 |H| + 4 alpha |L|^2 (spectral norms, largest over the stages)
    bounds the generator's norm: |[H, q]| <= 2 |H| |q| and
    |L^2 q + q L^2 - 2 L q L| <= 4 |L|^2 |q|.  Over n steps on which the
    flow grows the difference no faster than q itself, that is
    n eps max|q| (1 + h S), max|q| the largest spectral norm of the
    dense nodes.  Measured: at most 0.024 of it (dim 20 backward,
    friction); without friction the two loops agree exactly."""
    first, n = 30, 60
    *_, gens, _, model = modulated_setup(dim=dim, kappa=kappa,
                                         t_max=(first + n) * H)
    _, nodes = _transported(model, gens[1].entries, first, n, backward)
    expected = _reference_transport(model, gens[1].entries, n, H, first,
                                    backward)
    scale = 0.0
    for row in lindblad._stage_table(model, n, H, first):
        h_op, l_ = lindblad._generator_arrays(model.generators, row)
        jump = 0.0 if l_ is None else 4.0 * row[1] * np.linalg.norm(l_, 2) ** 2
        scale = max(scale, 2.0 * np.linalg.norm(h_op, 2) + jump)
    q_norm = max(np.linalg.norm(q, 2) for q in expected)
    bound = n * np.finfo(float).eps * q_norm * (1.0 + H * scale)
    dev = max(max_abs(q - ref) for q, ref in zip(nodes, expected, strict=True))
    assert dev <= bound


@pytest.mark.parametrize("backward", [False, True],
                         ids=["forward", "backward"])
def test_a_strided_transport_steps_every_strided_stage_row(backward):
    """With stride 3 every recorded node is the fresh-array loop's at step
    3h over every third stage row of the window, bit for bit, and carries
    its index on the fine grid."""
    first, n, stride = 30, 20, 3
    *_, gens, _, model = modulated_setup(dim=20,
                                         t_max=(first + n * stride) * H)
    idx, nodes = _transported(model, gens[1].entries, first, n, backward,
                              stride)
    order = range(first, first + n * stride + 1, stride)
    assert idx == list(order[::-1] if backward else order)
    expected = _negated_alpha_transport(model, gens[1].entries, n, H, first,
                                        backward, stride)
    for q, ref in zip(nodes, expected, strict=True):
        np.testing.assert_array_equal(q, ref)


@pytest.mark.parametrize("first, last, stride", [(30, 90, 1), (90, 30, 1),
                                                 (90, 30, 3)],
                         ids=["forward", "backward", "strided"])
def test_the_driver_forms_each_stage_once_and_holds_at_most_three(
        monkeypatch, first, last, stride):
    """The promise a stage that writes into three rotating buffers of its
    own may rely on (``auxiliary._rk4``): on a forward, a backward and a
    strided ``_transport_steps`` run the driver calls ``stage(j)`` once
    for each j = 0 .. 2n, in increasing order, and no right-hand-side
    call after stage j is formed reads a stage before j - 2, so at most
    three stages are live at any time."""
    *_, gens, _, model = modulated_setup(dim=20, t_max=0.1)
    formed, reads = [], []
    drive = lindblad._rk4

    def recording(rhs, stage, y0, n, h, record, every=1):
        def recorded_stage(j):
            formed.append(j)
            return j, stage(j)

        def recorded_rhs(y, data, out):
            j, ops = data
            reads.append((formed[-1], j))
            return rhs(y, ops, out)

        return drive(recorded_rhs, recorded_stage, y0, n, h, record, every)

    monkeypatch.setattr(lindblad, "_rk4", recording)
    lindblad._transport_steps(model, gens[1].entries, first, last, H,
                              lambda i, q: None, stride=stride)
    n = abs(last - first) // stride
    assert formed == list(range(2 * n + 1))
    assert len(reads) == 4 * n
    assert all(newest - 2 <= j <= newest for newest, j in reads)


def _adjoint_superoperator(h_op, l_, alpha):
    """The adjoint generator Q -> -i[H, Q] + alpha (L^2 Q + Q L^2
    - 2 L Q L) as a matrix on the row-major flattening of Q, where
    A Q B flattens to kron(A, B^T) q."""
    eye = np.eye(len(h_op))
    l2 = l_ @ l_
    return (-1j * (np.kron(h_op, eye) - np.kron(eye, h_op.T))
            + alpha * (np.kron(l2, eye) + np.kron(eye, l2.T)
                       - 2.0 * np.kron(l_, l_.T)))


@pytest.mark.parametrize("kappa", [0.1, 5.0])
def test_adjoint_norm_bound_covers_the_superoperator_spectrum(kappa):
    """At each of a few stage rows, Lambda of that row is at least the
    largest |eigenvalue| of the dense 256 x 256 adjoint superoperator of
    the dim-16 generators, and the bound over the whole table is at
    least every row's.  Measured: the radius is about 0.1 of the bound."""
    *_, model = modulated_setup(dim=16, kappa=kappa)
    table = lindblad._stage_table(model, 4, 0.2)
    re, im = np.random.default_rng(16).normal(size=(2, 16, 16))
    q = re + 1j * im
    for row in table[::2]:
        h_op, l_ = lindblad._generator_arrays(model.generators, row)
        gen = _adjoint_superoperator(h_op, l_, row[1])
        want = (-1j * (h_op @ q - q @ h_op)
                + row[1] * (l_ @ l_ @ q + q @ l_ @ l_ - 2.0 * l_ @ q @ l_))
        np.testing.assert_allclose(gen @ q.ravel(), want.ravel(), atol=1e-9)
        radius = np.abs(np.linalg.eigvals(gen)).max()
        bound = lindblad._adjoint_norm_bound(model, row[None])
        assert radius <= bound <= lindblad._adjoint_norm_bound(model, table)


# ---------------------------------------------------------------------------
# linear step maps


def _random_linear_system(d, seed):
    """A(t) = A0 + sin(3t) A1 + t A2 with random entries of order one."""
    rng = np.random.default_rng(seed)
    a0, a1, a2 = rng.normal(size=(3, d, d))
    return lambda t: (a0 + np.sin(3.0 * t)[:, None, None] * a1
                      + t[:, None, None] * a2)


def _step_map_nodes(a_of_t, y0, n, h, calls=None, every=1):
    def stage_mats(lo, hi):
        if calls is not None:
            calls.append((lo, hi))
        return a_of_t(0.5 * h * np.arange(lo, hi))
    return lindblad._linear_rk4(stage_mats, y0, n, h, every)


def _stepped_nodes(a_of_t, y0, n, h):
    mats = a_of_t(0.5 * h * np.arange(2 * n + 1))
    ys = np.empty((n + 1, len(y0)))
    _rk4(lambda y, a, out: np.matmul(a, y, out=out), mats.__getitem__,
         np.array(y0, dtype=float), n, h, ys.__setitem__)
    return ys


@pytest.mark.parametrize("d", [2, 3])
def test_step_maps_equal_the_stepped_rk4(d):
    """Below, at and across a block boundary the step maps reproduce the
    stage-callback RK4 nodes to 1e-13 relative."""
    a_of_t = _random_linear_system(d, seed=d)
    y0 = np.linspace(1.0, -0.5, d)
    h = 1e-3
    calls = []
    _step_map_nodes(lambda t: np.zeros((t.size, d, d)), y0, 10 ** 5, h, calls)
    per = (calls[0][1] - 1) // 2  # steps in one block
    assert 1 < per < 10 ** 5
    for n in (per - 1, per, per + 1, 2 * per + 5):
        calls = []
        got = _step_map_nodes(a_of_t, y0, n, h, calls)
        assert len(calls) == -(-n // per)
        want = _stepped_nodes(a_of_t, y0, n, h)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _indexed_nodes(a_of_t, y0, n, h):
    """The step maps of ``_linear_rk4``, formed per block alike, applied
    as ys[i + 1] = P @ ys[i]."""
    d = len(y0)
    eye = np.eye(d)
    per = lindblad._block_length(10 * eye.nbytes)
    ys = np.empty((n + 1, d))
    ys[0] = y0
    for lo in range(0, n, per):
        hi = min(n, lo + per)
        a = a_of_t(0.5 * h * np.arange(2 * lo, 2 * hi + 1))
        a1, a2, a3 = a[:-1:2], a[1::2], a[2::2]
        b2 = a2 @ (eye + (0.5 * h) * a1)
        b3 = a2 @ (eye + (0.5 * h) * b2)
        b4 = a3 @ (eye + h * b3)
        maps = eye + (h / 6.0) * (a1 + 2.0 * (b2 + b3) + b4)
        for i, p in enumerate(maps, lo):
            ys[i + 1] = p @ ys[i]
    return ys


@pytest.mark.parametrize("d", [2, 3])
def test_step_maps_apply_to_the_held_node_bit_for_bit(d):
    """Multiplying the previous node held by reference into the next row
    gives the indexed products' nodes exactly, across a block boundary."""
    a_of_t = _random_linear_system(d, seed=20 + d)
    y0 = np.linspace(1.0, -0.5, d)
    n = lindblad._block_length(10 * np.eye(d).nbytes) + 7
    got = _step_map_nodes(a_of_t, y0, n, 1e-3)
    assert np.array_equal(got, _indexed_nodes(a_of_t, y0, n, 1e-3))


@pytest.mark.parametrize("d", [2, 3])
def test_step_maps_are_fourth_order(d):
    """The error at t = 1 against a tight independent integration falls by
    14-18 when the step halves."""
    a_of_t = _random_linear_system(d, seed=10 + d)
    y0 = np.linspace(1.0, -0.5, d)
    ref = solve_ivp(lambda t, y: a_of_t(np.array([t]))[0] @ y, (0.0, 1.0), y0,
                    method="DOP853", rtol=1e-13, atol=1e-14).y[:, -1]
    errs = [np.max(np.abs(_step_map_nodes(a_of_t, y0, n, 1.0 / n)[-1] - ref))
            for n in (40, 80)]
    assert 14.0 <= errs[0] / errs[1] <= 18.0


def _kept(n, every):
    """The node indices a run recording every ``every`` steps keeps."""
    return np.append(np.arange(0, n, every), n)


def _assert_kept_nodes(a_of_t, y0, n, h, every):
    got = _step_map_nodes(a_of_t, y0, n, h, every=every)
    want = _step_map_nodes(a_of_t, y0, n, h)[_kept(n, every)]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_record_intervals_compose_to_the_every_node_values():
    """Composing each record interval's maps reproduces the every-node run
    at the kept nodes to 1e-13 relative: below, at and across a block of
    whole intervals (1449 steps of 9), with a short final interval or
    none, and with the spacing beyond the run (only nodes 0 and n)."""
    d, every = 3, 9
    a_of_t = _random_linear_system(d, seed=30)
    y0 = np.linspace(1.0, -0.5, d)
    per = lindblad._block_length(10 * np.eye(d).nbytes)
    whole = per - per % every
    assert every < whole < per
    for n in (whole - 1, whole, whole + 1, 2 * whole, 2 * whole + 5):
        _assert_kept_nodes(a_of_t, y0, n, 1e-3, every)
    assert len(_step_map_nodes(a_of_t, y0, 50, 1e-3, every=100)) == 2
    _assert_kept_nodes(a_of_t, y0, 50, 1e-3, 100)


def test_long_record_intervals_carry_their_product_across_blocks():
    """A record interval of 20 000 steps, over ten blocks of maps, is
    composed a block at a time with the running product carried to the
    next block: the kept nodes, final short interval included, equal the
    every-node run to 1e-13 relative, and the traced peak stays below the
    records plus twice STAGE_BLOCK_BYTES, where composing a whole interval
    at once would hold its 20 000 maps and their temporaries (about
    14 MB).  Measured: about 1.3 MB."""
    d, every, n, h = 3, 20000, 40300, 1e-5
    per = lindblad._block_length(10 * np.eye(d).nbytes)
    assert 10 * per < every < n
    a_of_t = _random_linear_system(d, seed=31)
    y0 = np.linspace(1.0, -0.5, d)
    _assert_kept_nodes(a_of_t, y0, n, h, every)
    peak = _traced_peak(lambda: _step_map_nodes(a_of_t, y0, n, h,
                                                every=every))
    assert peak < 4 * d * 8 + 2 * STAGE_BLOCK_BYTES


def test_record_spacing_must_be_positive():
    *_, model = equilibrium_setup(dim=8, kappa=0.0, t_max=1.0)
    for every in (0, -3):
        with pytest.raises(ValidationError, match="record_every"):
            evolve_su11_moments(model, (0.25, 0.25, 0.0), 1.0, H, every)
        with pytest.raises(ValidationError, match="record_every"):
            evolve_first_moments(ConstantSchedule(1.0), ConstantSchedule(0.1),
                                 (1.0, 0.0), 1.0, H, every)


def test_moment_series_keep_the_record_nodes():
    """With 3334 steps recorded every 100, both integrators return one row
    per node 0, 100, ..., 3300 and 3334, the last interval 34 steps
    short, with every column within 1e-13 relative of the every-node
    series there."""
    omega_s = SinusoidSchedule(1.0, 0.2, 0.3)
    kappa_s = SinusoidSchedule(0.05, 0.02, 0.2)
    h, t_max, every = 3e-4, 1.0, 100
    kept = _kept(3334, every)
    full = evolve_first_moments(omega_s, kappa_s, (1.0, 0.3), t_max, h)
    rec = evolve_first_moments(omega_s, kappa_s, (1.0, 0.3), t_max, h, every)
    assert full.shape == (3335, 2)
    assert rec.shape == (len(kept), 2)
    for got, want in zip(rec.T, full[kept].T):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))

    *_, model = modulated_setup(dim=8, t_max=t_max, h=h)
    full = evolve_su11_moments(model, (0.25, 0.75, 0.1), t_max, h)
    rec = evolve_su11_moments(model, (0.25, 0.75, 0.1), t_max, h, every)
    assert rec.shape == (len(kept), 3)
    for got, want in zip(rec.T, full[kept].T):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# first moments


def test_first_moments_damped_closed_form():
    """omega = 1 puts the damped frequency at exactly 1 (see above)."""
    kappa = 0.1
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(kappa)
    mean_x = evolve_first_moments(omega_s, kappa_s, (1.0, 0.0), 4.0, H)[:, 0]
    ts = H * np.arange(len(mean_x))
    i = round(np.pi / H)  # the node nearest pi
    t = ts[i]
    np.testing.assert_allclose(mean_x[i], np.exp(-kappa * t) * np.cos(t),
                               rtol=0, atol=1e-8)
    np.testing.assert_allclose(mean_x, np.exp(-kappa * ts) * np.cos(ts),
                               rtol=0, atol=1e-8)


def test_first_moments_undamped_cosine():
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(0.0)
    series = evolve_first_moments(omega_s, kappa_s, (1.0, 0.0), 4.0, H)
    ts = H * np.arange(len(series))
    np.testing.assert_allclose(series[:, 0], np.cos(ts), rtol=0, atol=1e-10)
    np.testing.assert_allclose(series[:, 1], -np.sin(ts), rtol=0, atol=1e-10)


def test_first_moments_zero_seed_stays_zero():
    omega_s = SinusoidSchedule(1.0, 0.3, 0.2)
    kappa_s = ConstantSchedule(0.05)
    series = evolve_first_moments(omega_s, kappa_s, (0.0, 0.0), 1.0, H)
    assert float(np.max(np.abs(series[:, 0]))) == 0.0
    assert float(np.max(np.abs(series[:, 1]))) == 0.0


def test_first_moments_match_independent_integrator():
    omega_s = SinusoidSchedule(1.0, 0.2, 0.3)
    kappa_s = SinusoidSchedule(0.05, 0.02, 0.2)
    series = evolve_first_moments(omega_s, kappa_s, (1.0, 0.3), 3.0, H)

    def rhs(t, y):
        k = float(kappa_s.eval(t))
        w = float(omega_s.eval(t))
        return [y[1] - k * y[0], -w * w * y[0] - k * y[1]]

    ref = solve_ivp(rhs, (0.0, 3.0), [1.0, 0.3], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    # the nodes nearest 0, 0.5, ..., 3
    idx = np.rint(np.linspace(0.0, 3.0, 7) / H).astype(int)
    probe = H * idx
    np.testing.assert_allclose(series[idx, 0], ref.sol(probe)[0],
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(series[idx, 1], ref.sol(probe)[1],
                               rtol=0, atol=1e-9)


def test_first_moments_negative_friction_rejected():
    with pytest.raises(NegativeFrictionError):
        evolve_first_moments(ConstantSchedule(1.0), ConstantSchedule(-0.1),
                             (1.0, 0.0), 1.0, H)


# ---------------------------------------------------------------------------
# quadratic-generator moments


def test_su11_vacuum_moments_are_stationary_without_friction():
    *_, model = equilibrium_setup(dim=8, kappa=0.0, t_max=5.0)
    k1, k2, k3 = evolve_su11_moments(model, (0.25, 0.25, 0.0), 5.0, H).T
    np.testing.assert_allclose(k1, 0.25, rtol=0, atol=1e-12)
    np.testing.assert_allclose(k2, 0.25, rtol=0, atol=1e-12)
    np.testing.assert_allclose(k3, 0.0, rtol=0, atol=1e-12)


def test_su11_rotation_closed_form():
    """kappa = 0, omega = 1: k1 - k2 and k3 rotate at frequency 2."""
    *_, model = equilibrium_setup(dim=8, kappa=0.0, t_max=6.0)
    k1, k2, k3 = evolve_su11_moments(model, (0.25, 0.75, 0.0), 6.0, H).T
    ts = H * np.arange(len(k1))
    np.testing.assert_allclose(k1 + k2, 1.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(k1 - k2, -0.5 * np.cos(2 * ts),
                               rtol=0, atol=1e-8)
    np.testing.assert_allclose(k3, -0.5 * np.sin(2 * ts), rtol=0, atol=1e-8)


def test_su11_moments_match_density_backend(evolve_recording):
    omega_s, kappa_s, cfg, gens, sol, model = modulated_setup(dim=40,
                                                              t_max=2.0)
    rho0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    traj, states = evolve_recording(model, rho0, 2.0, H, 200)
    k_ops = cfg.operators[2:]
    series = evolve_su11_moments(
        model, [expectation(op, rho0) for op in k_ops], 2.0, H)
    dense = {round(t, 9): i for i, t in enumerate(H * np.arange(len(series)))}
    for i, t in enumerate(traj.ts):
        j = dense[round(float(t), 9)]
        for op, want in zip(k_ops, series[j], strict=True):
            assert abs(expectation(op, states[i]) - want) <= 1e-5


def test_su11_seed_must_satisfy_uncertainty_bound():
    *_, model = equilibrium_setup(dim=8, kappa=0.0, t_max=1.0)
    with pytest.raises(ValidationError):
        evolve_su11_moments(model, (0.25, 0.25, 0.5), 1.0, H)
    with pytest.raises(ValidationError):
        evolve_su11_moments(model, (-0.1, 0.25, 0.0), 1.0, H)


# ---------------------------------------------------------------------------
# diagnostics and moment extraction


def _recorded_diagnostics(rho, cfg):
    """(trace, hermiticity deviation, min eigenvalue, tail population) that
    ``evolve_density`` records for its initial state rho, on a dim-10
    equilibrium model with the basis ``cfg``."""
    *_, model = equilibrium_setup(dim=10, t_max=H)
    traj = evolve_density(dataclasses.replace(model, basis=cfg), rho, H, H,
                          record_every=1)
    return (traj.trace[0], traj.herm_dev[0], traj.min_eig[0],
            traj.tail_pop[0])


def test_diagnostics_of_pure_vacuum():
    cfg = BasisConfig(dim=10, omega_ref=1.0)
    rho = build_state(StateSpec(kind="fock", fock_n=0), cfg)
    tr, herm, lo, tail = _recorded_diagnostics(rho, cfg)
    assert tr == 1.0
    assert herm == 0.0
    assert abs(lo) < 1e-15
    assert tail == 0.0


def test_diagnostics_of_maximally_mixed_state():
    """The one tail level holds 0.1, which the default threshold would
    refuse as a truncation leak."""
    cfg = BasisConfig(dim=10, omega_ref=1.0, tail_threshold=1.0)
    rho = DensityMatrix(np.eye(10, dtype=complex) / 10.0)
    tr, herm, lo, tail = _recorded_diagnostics(rho, cfg)
    np.testing.assert_allclose(tr, 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(lo, 0.1, rtol=0, atol=1e-15)
    np.testing.assert_allclose(tail, 0.1, rtol=0, atol=1e-15)  # one tail level


def test_moments_of_coherent_state():
    cfg = BasisConfig(dim=40, omega_ref=1.0)
    rho = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    np.testing.assert_allclose(
        [expectation(op, rho) for op in cfg.operators],
        (1.0, 0.0, 0.25, 0.75, 0.0), rtol=0, atol=1e-10)


def test_k_moment_bound_validation():
    _check_k_moments(0.25, 0.25, 0.0)  # vacuum saturates the bound
    with pytest.raises(ValidationError):
        _check_k_moments(0.1, 0.1, 0.0)


def test_k_moment_bound_names_the_first_bad_record():
    """The vectorised bound accepts the vacuum row, and refuses a column
    with one bad row, by either condition, naming that row's index."""
    k1, k2, k3 = np.full(5, 0.25), np.full(5, 0.25), np.zeros(5)
    _check_k_moments(k1, k2, k3)
    k1[3] = 0.1
    with pytest.raises(ValidationError, match="uncertainty bound.* record 3$"):
        _check_k_moments(k1, k2, k3)
    k2[1] = -0.1
    with pytest.raises(ValidationError, match=">= 0.* record 1$"):
        _check_k_moments(k1, k2, k3)


def test_a_trajectory_past_the_k_bound_is_refused(tmp_path):
    """``write_csv`` and ``backend-agreement`` refuse a trajectory whose
    K columns break the bound, naming the record; the CSV is not
    written."""
    _, _, cfg, _, _, model = equilibrium_setup(dim=10, t_max=3 * H)
    rho0 = build_state(StateSpec(kind="fock", fock_n=0), cfg)
    traj = evolve_density(model, rho0, 3 * H, H, record_every=1)
    traj.write_csv(tmp_path / "ok.csv")
    first, quad = np.zeros((4, 2)), np.zeros((4, 3))
    assert runner._check_backend_agreement(traj, first, quad).measured > 0
    k1 = traj.k1.copy()
    k1[2] = 0.1
    bad = dataclasses.replace(traj, k1=k1)
    with pytest.raises(ValidationError, match="uncertainty bound.* record 2$"):
        bad.write_csv(tmp_path / "bad.csv")
    assert not (tmp_path / "bad.csv").exists()
    with pytest.raises(ValidationError, match="uncertainty bound.* record 2$"):
        runner._check_backend_agreement(bad, first, quad)

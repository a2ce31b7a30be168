import tracemalloc

import numpy as np
import pytest

from invariantlab.errors import SupportLeakError, ValidationError
from invariantlab.operators import (
    BasisConfig,
    DensityMatrix,
    FockOperator,
    StateSpec,
    _projector,
    _state_health,
    _with_dagger,
    build_canonical,
    build_state,
    build_su11_generators,
    check_su11_relations,
    expectation,
    max_abs,
    trace_pair,
)


def make_ops(dim=16, omega_ref=1.0):
    cfg = BasisConfig(dim=dim, omega_ref=omega_ref)
    x, p = build_canonical(cfg)
    k1, k2, k3 = build_su11_generators(x, p)
    return cfg, x, p, k1, k2, k3


# --------------------------------------------------------------------- basis


def test_basis_config_rejects_small_dim():
    with pytest.raises(ValidationError):
        BasisConfig(dim=4, omega_ref=1.0)


def test_basis_config_rejects_bad_omega_ref():
    with pytest.raises(ValidationError):
        BasisConfig(dim=16, omega_ref=0.0)


def test_tail_count_rounding():
    assert BasisConfig(dim=10, omega_ref=1.0, tail_fraction=0.1).n_tail == 1
    assert BasisConfig(dim=60, omega_ref=1.0, tail_fraction=0.1).n_tail == 6


def test_the_basis_builds_its_operators_once_on_the_band():
    """``BasisConfig.operators`` is (x, p, K1, K2, K3) of the builders,
    built once per instance.  The banded density kernel and the observable
    transport take two properties of them for granted, checked here over
    even and odd dimensions and three reference frequencies: K1, K2 and
    K3 have no entry off the diagonals 0 and +-2, and all five operators
    are exactly Hermitian."""
    for dim in (8, 9, 20, 21, 160):
        level = np.arange(dim)
        off_band = ~np.isin(level[:, None] - level, (-2, 0, 2))
        for omega_ref in (0.5, 1.0, 2.3):
            cfg = BasisConfig(dim=dim, omega_ref=omega_ref)
            ops = cfg.operators
            x, p = build_canonical(cfg)
            built = (x, p, *build_su11_generators(x, p))
            for op, ref in zip(ops, built, strict=True):
                np.testing.assert_array_equal(op.entries, ref.entries)
            for k in ops[2:]:
                assert not k.entries[off_band].any(), (dim, omega_ref)
            assert [op.herm_deviation() for op in ops] == [0.0] * 5
            again = cfg.operators
            assert again is ops
            assert all(a is b for a, b in zip(again, ops, strict=True))


# ----------------------------------------------------------------- canonical


def test_x_matrix_dim2_block():
    cfg = BasisConfig(dim=8, omega_ref=1.0)
    x, _ = build_canonical(cfg)
    expected = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(x.entries[:2, :2], expected, atol=1e-15)


def test_vacuum_position_variance():
    for omega_ref in (1.0, 2.0, 0.3):
        cfg = BasisConfig(dim=24, omega_ref=omega_ref)
        x, _ = build_canonical(cfg)
        x2 = x.entries @ x.entries
        assert abs(x2[0, 0].real - 1.0 / (2.0 * omega_ref)) < 1e-14


def test_canonical_commutator_interior():
    cfg = BasisConfig(dim=16, omega_ref=1.0)
    x, p = build_canonical(cfg)
    comm = x.entries @ p.entries - p.entries @ x.entries
    dev = comm - 1j * np.eye(16)
    assert max_abs(dev[:14, :14]) <= 1e-12


def test_canonical_exactly_hermitian():
    _, x, p, k1, k2, k3 = make_ops(dim=60)
    for op in (x, p, k1, k2, k3):
        assert op.hermitian
        assert op.herm_deviation() <= 1e-14


# -------------------------------------------------------------------- su(1,1)


def test_su11_vacuum_expectations():
    _, x, p, k1, k2, k3 = make_ops(dim=16, omega_ref=1.0)
    assert abs(k1.entries[0, 0].real - 0.25) < 1e-14
    assert abs(k3.entries[0, 0].real) < 1e-14
    _, _, _, _, k2b, _ = make_ops(dim=16, omega_ref=2.0)
    assert abs(k2b.entries[0, 0].real - 0.125) < 1e-14


def test_su11_relations_interior():
    _, _, _, k1, k2, k3 = make_ops(dim=32)
    r = check_su11_relations(k1, k2, k3, interior_dim=26)
    assert max(r) <= 1e-11


def test_su11_relations_edge_contamination():
    _, _, _, k1, k2, k3 = make_ops(dim=8)
    r = check_su11_relations(k1, k2, k3, interior_dim=8)
    assert r[0] > 1e-6


def test_su11_relations_detect_sign_flip():
    _, _, _, k1, k2, k3 = make_ops(dim=16)
    flipped = FockOperator(-k2.entries)
    r = check_su11_relations(k1, flipped, k3, interior_dim=10)
    # flipping K2 breaks at least one relation at O(|K|) scale
    assert max(r) > 1.0


def test_su11_relations_rejects_oversized_interior():
    _, _, _, k1, k2, k3 = make_ops(dim=16)
    with pytest.raises(ValidationError):
        check_su11_relations(k1, k2, k3, interior_dim=17)


# --------------------------------------------------------------------- states


def test_coherent_zero_is_vacuum():
    cfg = BasisConfig(dim=12, omega_ref=1.0)
    rho = build_state(StateSpec("coherent", beta=0.0), cfg)
    expected = np.zeros((12, 12))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho.entries, expected, atol=1e-15)


def test_thermal_zero_is_vacuum():
    cfg = BasisConfig(dim=12, omega_ref=1.0)
    rho = build_state(StateSpec("thermal", nbar=0.0), cfg)
    assert abs(rho.entries[0, 0] - 1.0) < 1e-15


def test_coherent_first_moments():
    cfg = BasisConfig(dim=40, omega_ref=1.0)
    x, p = build_canonical(cfg)
    rho = build_state(StateSpec("coherent", beta=1.0 / np.sqrt(2.0)), cfg)
    assert abs(expectation(x, rho) - 1.0) < 1e-12
    assert abs(expectation(p, rho)) < 1e-12


def test_thermal_occupation():
    cfg = BasisConfig(dim=60, omega_ref=1.0)
    rho = build_state(StateSpec("thermal", nbar=1.5), cfg)
    number = np.diag(np.arange(60).astype(complex))
    occ = float(np.trace(number @ rho.entries).real)
    assert abs(occ - 1.5) < 1e-9


def test_state_support_leak_detected():
    cfg = BasisConfig(dim=8, omega_ref=1.0)
    with pytest.raises(SupportLeakError):
        build_state(StateSpec("coherent", beta=1.4), cfg)


def test_state_spec_preconditions():
    cfg = BasisConfig(dim=16, omega_ref=1.0)
    with pytest.raises(ValidationError):
        build_state(StateSpec("coherent", beta=2.5), cfg)  # |beta|^2 > dim/4
    with pytest.raises(ValidationError):
        build_state(StateSpec("fock", fock_n=8), cfg)
    with pytest.raises(ValidationError):
        build_state(StateSpec("thermal", nbar=2.0), cfg)


def test_invariant_ground_state():
    cfg, x, p, k1, k2, k3 = make_ops(dim=24)
    h = FockOperator(k1.entries + k2.entries)
    rho = build_state(StateSpec("invariant_ground"), cfg, invariant_op=h)
    # ground state of K1+K2 at omega_ref=1 is the vacuum
    assert abs(rho.entries[0, 0].real - 1.0) < 1e-10
    assert abs(expectation(h, rho) - 0.5) < 1e-10


def test_all_states_satisfy_density_invariants():
    # thermal tails are geometric, so the dim must be generous for nbar=1
    cfg = BasisConfig(dim=40, omega_ref=1.0)
    specs = [
        StateSpec("coherent", beta=1.0 + 0.5j),
        StateSpec("fock", fock_n=3),
        StateSpec("thermal", nbar=1.0),
    ]
    for spec in specs:
        rho = build_state(spec, cfg)
        assert abs(rho.trace() - 1.0) <= 1e-9
        assert rho.herm_deviation() <= 1e-10
        assert rho.min_eigenvalue() >= -1e-8


def test_pure_states_are_exactly_hermitian():
    """A complex coherent state and the ground state of a complex
    observable are projectors that equal their conjugate transpose bit for
    bit, with an exactly real diagonal."""
    cfg, x, p, k1, k2, k3 = make_ops(dim=24)
    h = FockOperator(k1.entries + 1.3 * k2.entries - 0.4 * k3.entries)
    for rho in (build_state(StateSpec("coherent", beta=0.8 + 0.5j), cfg),
                build_state(StateSpec("invariant_ground"), cfg,
                            invariant_op=h)):
        np.testing.assert_array_equal(rho.entries, rho.entries.conj().T)
        assert not np.diag(rho.entries).imag.any()


# --------------------------------------------------------------- expectation


def test_expectation_of_identity():
    cfg = BasisConfig(dim=32, omega_ref=1.0)
    rho = build_state(StateSpec("thermal", nbar=0.8), cfg)
    ident = FockOperator(np.eye(32, dtype=complex))
    assert abs(expectation(ident, rho) - 1.0) < 1e-12


def test_expectation_vacuum_energy():
    cfg, x, p, k1, k2, k3 = make_ops(dim=20)
    rho = build_state(StateSpec("fock", fock_n=0), cfg)
    h = FockOperator(k1.entries + k2.entries)
    assert abs(expectation(h, rho) - 0.5) < 1e-13


def test_expectation_rejects_non_hermitian():
    cfg = BasisConfig(dim=12, omega_ref=1.0)
    rho = build_state(StateSpec("fock", fock_n=0), cfg)
    bad = FockOperator(np.diag(np.arange(12)).astype(complex) + 1j * np.eye(12, k=1))
    with pytest.raises(ValidationError):
        expectation(bad, rho)


def test_expectation_rejects_dim_mismatch():
    cfg = BasisConfig(dim=12, omega_ref=1.0)
    rho = build_state(StateSpec("fock", fock_n=0), cfg)
    ident = FockOperator(np.eye(10, dtype=complex))
    with pytest.raises(ValidationError):
        expectation(ident, rho)


def test_expectation_linearity_and_positivity():
    cfg, x, p, k1, k2, k3 = make_ops(dim=24)
    rho = build_state(StateSpec("coherent", beta=0.7 + 0.2j), cfg)
    a = expectation(k1, rho)
    b = expectation(k2, rho)
    combo = FockOperator(2.0 * k1.entries + 3.0 * k2.entries)
    assert abs(expectation(combo, rho) - (2 * a + 3 * b)) < 1e-10
    # K1 is positive semidefinite
    assert a >= -1e-9


@pytest.mark.parametrize("dim", [8, 60, 160, 161])
def test_trace_pair_into_a_buffer_is_the_fresh_pairing(dim):
    """``trace_pair(a, b, out=buf)`` writes a * b^T into ``buf`` and returns
    the complex value of ``trace_pair(a, b)`` bit for bit: the fresh
    product is C-contiguous like ``buf``, so both sums add the same
    values in the same order.  As in a density record, ``b`` and ``buf``
    are the level rows of padded arrays, whose pad rows stay zero."""
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b, buf = (np.zeros((dim + 4, dim), dtype=complex) for _ in range(2))
    b[2:-2] = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    fresh = trace_pair(a, b[2:-2])
    got = trace_pair(a, b[2:-2], out=buf[2:-2])
    assert (got.real, got.imag) == (fresh.real, fresh.imag)
    np.testing.assert_array_equal(buf[2:-2], a * b[2:-2].T)
    assert not buf[:2].any() and not buf[-2:].any()


# ------------------------------------------------------------- density guard


def test_density_matrix_validation_rejects_garbage():
    bad = np.eye(8, dtype=complex)  # trace 8
    with pytest.raises(ValidationError):
        DensityMatrix(bad)
    ok = bad / 8.0
    DensityMatrix(ok)  # passes
    skewed = ok.copy()
    skewed[0, 1] = 1e-3   # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(skewed)
    DensityMatrix(skewed, validate=False)  # unchecked container still holds it


def test_density_matrix_validation_rejects_a_non_finite_state():
    """A non-finite entry is refused as invalid input before the health
    formulas run, where ``eigvalsh`` would fail on it."""
    bad = np.eye(8, dtype=complex) / 8.0
    bad[0, 1] = np.inf
    with pytest.raises(ValidationError, match="finite"):
        DensityMatrix(bad)
    DensityMatrix(bad, validate=False)


# ------------------------------------------------------ A +- A^dag, health


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _random_complex(dim):
    rng = np.random.default_rng(dim)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@pytest.mark.parametrize("dim", [8, 9, 60, 161])
def test_with_dagger_is_the_conjugate_transpose_form(dim):
    """``_with_dagger(ufunc, a)`` and ``_with_dagger(ufunc, a, out)``,
    which returns ``out``, are a - a.conj().T and a + a.conj().T bit for
    bit."""
    a = _random_complex(dim)
    for ufunc, ref in ((np.subtract, a - a.conj().T),
                       (np.add, a + a.conj().T)):
        assert _bits(_with_dagger(ufunc, a)) == _bits(ref)
        out = np.empty_like(a)
        assert _with_dagger(ufunc, a, out) is out
        assert _bits(out) == _bits(ref)


@pytest.mark.parametrize("dim", [8, 9, 60, 161])
def test_state_health_is_the_density_matrix_formulas(dim):
    """``_state_health``, with and without ``out``, and the methods of an
    unvalidated ``DensityMatrix`` return the trace, Hermiticity deviation
    and minimum eigenvalue formulas written out here, bit for bit."""
    a = _random_complex(dim)
    ref = (float(np.trace(a).real), max_abs(a - a.conj().T),
           float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0]))
    rho = DensityMatrix(a, validate=False)
    for got in (_state_health(a), _state_health(a, np.empty_like(a)),
                (rho.trace(), rho.herm_deviation(), rho.min_eigenvalue())):
        assert _bits(got) == _bits(ref)


@pytest.mark.parametrize("dim", [8, 9, 60, 161])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_projector_is_the_averaged_outer_product(dim, kind):
    rng = np.random.default_rng(dim)
    psi = rng.normal(size=dim)
    if kind == "complex":
        psi = psi + 1j * rng.normal(size=dim)
    r = np.outer(psi, psi.conj())
    got = _projector(psi)
    assert got.dtype == r.dtype
    assert _bits(got) == _bits(0.5 * (r + r.conj().T))


MEMORY_DIM = 160


def _coherent_state():
    return build_state(StateSpec("coherent", beta=6.0),
                       BasisConfig(dim=MEMORY_DIM, omega_ref=1.0))


def _fock_operator():
    a = _random_complex(MEMORY_DIM)
    return lambda: FockOperator(a)


def _density_matrix():
    rho = _coherent_state().entries.copy()
    return lambda: DensityMatrix(rho)


@pytest.mark.parametrize("setup, bound", [
    (_fock_operator, 3.0),
    (_density_matrix, 3.0),
    (lambda: _coherent_state, 4.0),
], ids=["fock-operator", "density-matrix", "coherent-state"])
def test_construction_peaks_below_its_bound(setup, bound):
    """At dim 160 ``FockOperator(a)`` and ``DensityMatrix(rho)`` peak
    below 3 N x N complex states under tracemalloc, the input not counted,
    and ``build_state`` of a coherent beta = 6 below 4.  Every A +- A^dag
    is formed in one array (``_with_dagger``): measured 2.50, 2.50 and
    3.51, where forming a.conj().T through a temporary read 3.32, 3.32
    and 4.33."""
    make = setup()
    tracemalloc.start()
    try:
        make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * MEMORY_DIM ** 2 * np.dtype(complex).itemsize

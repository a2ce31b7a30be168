"""Tests for closed-form conserved observables and their verifiers.

Oracles: algebraic identities (unit discriminant, binomial expansion of
the squared form), numerical diagonalization, conservation along
independently integrated density trajectories, and centered finite
differences of eigenvalue series.
"""

from dataclasses import replace

import numpy as np
import pytest

from invariantlab import invariants
from invariantlab.auxiliary import (
    ErmakovInit,
    _step_count,
    adiabatic_rho,
    adiabatic_rhodot,
    solve_auxiliary,
)
from invariantlab.errors import NumericalError, ValidationError
from invariantlab.invariants import (
    CONTINUITY_BOUND,
    ExpectationSeries,
    constraint_residuals,
    construct,
    drift_rhs,
    expectation_series,
    invariant_at,
    invariant_residual,
    lr_invariant_at,
    spectrum_series,
)
from invariantlab.lindblad import (
    LindbladModel,
    _record_nodes,
    evolve_adjoint_observable,
    evolve_density,
)
from invariantlab.operators import (
    BasisConfig,
    StateSpec,
    build_state,
    expectation,
    interior_block,
    max_abs,
)
from invariantlab.schedules import ConstantSchedule, SinusoidSchedule

H = 1e-3


def jump_at(model, t):
    """(alpha, L) of the model's jump term at t, L as an array."""
    _, alpha, a2, a3 = model.coefficients(t)
    k1, k2, k3 = model.generators
    return alpha, k1 + a2 * k2 + a3 * k3


def record_times(t_max, h, every):
    """The times of a transport's records: h times its record nodes."""
    return h * _record_nodes(_step_count(t_max, h), every)


def basis(dim):
    return BasisConfig(dim=dim, omega_ref=1.0)


def baseline_schedules(kappa=0.1):
    return SinusoidSchedule(1.0, 0.2, 0.1), ConstantSchedule(kappa)


def construct_baseline(omega_s, kappa_s, t_max, dim, h=H):
    """The model on the series-started auxiliary solution."""
    init = ErmakovInit(adiabatic_rho(omega_s, kappa_s, 0.0),
                       adiabatic_rhodot(omega_s, kappa_s, 0.0))
    return construct(omega_s, kappa_s, init, t_max, h, basis(dim))


def constant_case(t_max, dim, init=ErmakovInit(1.0, 0.0)):
    """The model for omega = 1, kappa = 0.1."""
    return construct(ConstantSchedule(1.0), ConstantSchedule(0.1), init,
                     t_max, H, basis(dim))


# ---------------------------------------------------------------------------
# closed forms


def test_weak_invariant_on_equilibrium_is_plain_energy():
    model = constant_case(1.0, 12)
    g1, g2, _ = model.basis.operators[2:]
    inv = invariant_at(model, 0.5)
    assert inv.hermitian
    np.testing.assert_allclose(max_abs(inv.entries - g1.entries - g2.entries),
                               0.0, atol=1e-12)


def test_weak_invariant_unit_discriminant():
    """rho^2 (rhodot^2 + 1/rho^2) - (rho rhodot)^2 = 1 for any solution."""
    sol = construct_baseline(*baseline_schedules(), 5.0, 8).sol
    for t in (0.0, 1.3, 2.7, 4.9):
        r, v = sol.rho_at(t), sol.rhodot_at(t)
        disc = r * r * (v * v + 1.0 / (r * r)) - (r * v) ** 2
        np.testing.assert_allclose(disc, 1.0, rtol=0, atol=1e-12)


def test_weak_invariant_spectrum_is_half_integers():
    """Unit discriminant pins the low spectrum to n + 1/2 for any (rho,
    rhodot); checked by direct diagonalization at (1.3, 0.4), N=60."""
    model = constant_case(1.0, 60, init=ErmakovInit(1.3, 0.4))
    inv = invariant_at(model, 0.0)
    lam = np.linalg.eigvalsh(inv.entries)[:11]
    np.testing.assert_allclose(lam, np.arange(11) + 0.5, rtol=0, atol=1e-6)
    assert lam[0] > 0.0


def test_weak_invariant_outside_window_rejected():
    model = constant_case(1.0, 10)
    with pytest.raises(ValidationError):
        invariant_at(model, 2.0)


def test_lr_invariant_on_equilibrium_is_plain_energy():
    x_op, p_op, g1, g2, _ = basis(20).operators
    sol0 = solve_auxiliary(ConstantSchedule(1.0), ConstantSchedule(0.0),
                           ErmakovInit(1.0, 0.0), 1.0, H)
    inv = lr_invariant_at(sol0, x_op, p_op, 0.4)
    np.testing.assert_allclose(max_abs(inv.entries - g1.entries - g2.entries),
                               0.0, atol=1e-12)
    lam = np.linalg.eigvalsh(inv.entries)[:6]
    np.testing.assert_allclose(lam, np.arange(6) + 0.5, rtol=0, atol=1e-10)


def test_lr_invariant_equals_expanded_quadratic_form():
    """(rho p - rhodot x)^2/2 + x^2/(2 rho^2) expands to the K-basis form."""
    x_op, p_op, *_ = basis(24).operators
    model = construct_baseline(*baseline_schedules(kappa=0.0), 3.0, 24)
    for t in (0.0, 0.9, 2.4):
        direct = lr_invariant_at(model.sol, x_op, p_op, t)
        expanded = invariant_at(model, t)
        assert max_abs(direct.entries - expanded.entries) <= 1e-12


# ---------------------------------------------------------------------------
# operator-equation residuals


def test_residual_vanishes_in_constant_case():
    """Equilibrium with omega = 1: the observable, the Hamiltonian and the
    jump operator coincide, so every term is zero separately."""
    model = constant_case(1.0, 20)
    assert invariant_residual(model, 0.5) <= 1e-10


def test_residual_on_modulated_scenario_equals_friction_defect():
    """With friction and a moving rho the constructed observable does not
    solve the transport equation exactly: expanding all three terms in the
    quadratic-generator algebra, the first two components cancel identically
    while the third leaves exactly i*kappa*rho*rhodot*K3.  The reported
    max-norm must therefore equal |kappa*rho*rhodot| times the interior
    max-norm of K3 to rounding, and it vanishes only where rhodot does."""
    omega_s, kappa_s = baseline_schedules()
    model = construct_baseline(omega_s, kappa_s, 2.0, 60)
    sol = model.sol
    k3_norm = max_abs(interior_block(model.generators[2],
                                     model.basis.interior_dim))
    for t in (0.5, 1.0, 1.5):
        res = invariant_residual(model, t)
        predicted = abs(kappa_s(t) * sol.rho_at(t) * sol.rhodot_at(t)) * k3_norm
        assert abs(res - predicted) <= 1e-9
        assert res > 1e-3  # the defect is genuinely nonzero here


def test_residual_detects_sign_flipped_jump_coefficient(flip_a3):
    """Flipping a3 in the model's jump operator must light up the defect
    well above the intrinsic friction-defect floor of the good model."""
    model = construct_baseline(*baseline_schedules(), 2.0, 40)
    res_good = invariant_residual(model, 1.0)
    flip_a3()  # the jump operator K1 + a2 K2 - a3 K3
    res_bad = invariant_residual(model, 1.0)
    assert res_bad > 1e-2
    assert res_bad > 4.0 * res_good


def test_residual_strong_form_without_friction():
    model = construct_baseline(*baseline_schedules(kappa=0.0), 2.0, 40)
    assert invariant_residual(model, 1.0) <= 1e-6


def test_construct_is_the_hand_pairing():
    """``construct`` builds what ``LindbladModel`` on a hand
    ``solve_auxiliary`` builds, and ``invariant_at`` forms c1 K1 + c2 K2 -
    c3 K3 with (c1, c2, c3) = (rho^2, rhodot^2 + 1/rho^2, rho rhodot) of
    the hand solution: on a grid of times, the same coefficient rows and
    the same invariant, bit for bit."""
    omega_s = SinusoidSchedule(1.0, 0.2, 0.1)
    kappa_s = SinusoidSchedule(0.1, 0.05, 0.3)
    init = ErmakovInit(1.1, 0.05)
    cfg = basis(12)
    model = construct(omega_s, kappa_s, init, 2.0, H, cfg)
    sol = solve_auxiliary(omega_s, kappa_s, init, 2.0, H)
    hand = LindbladModel(omega_s, kappa_s, sol, cfg)
    ts = np.linspace(0.0, 2.0, 41)
    np.testing.assert_array_equal(np.column_stack(model.coefficients(ts)),
                                  np.column_stack(hand.coefficients(ts)))
    k1, k2, k3 = (op.entries for op in cfg.operators[2:])
    for t in ts:
        r, v = float(sol.rho_at(t)), float(sol.rhodot_at(t))
        c1, c2, c3 = r * r, v * v + 1.0 / (r * r), r * v
        np.testing.assert_array_equal(invariant_at(model, t).entries,
                                      c1 * k1 + c2 * k2 - c3 * k3)


# ---------------------------------------------------------------------------
# expectation series


def test_expectation_series_on_invariant_ground_state():
    """Seeding with the ground state of I(0) starts the series at 1/2 and
    lets it creep upward at exactly the friction-defect rate.

    The transport-equation defect i*kappa*rho*rhodot*K3 feeds the series
    at rate kappa*rho*rhodot*<K3>; on the instantaneous ground state
    <K3> = rho*rhodot/2, so the predicted cumulative excess is the time
    integral of kappa*(rho*rhodot)^2/2.  The measured series must follow
    that integral closely and the total excess stays parts-per-1e5."""
    omega_s, kappa_s = baseline_schedules()
    model = construct_baseline(omega_s, kappa_s, 2.0, 40)
    sol = model.sol
    rho0 = build_state(StateSpec(kind="invariant_ground"), model.basis,
                       invariant_op=invariant_at(model, 0.0))
    traj = evolve_density(model, rho0, 2.0, H, record_every=200)
    series = expectation_series(traj, model)

    ts_fine = np.asarray(sol.ts)
    integrand = kappa_s(ts_fine) * (np.asarray(sol.rho)
                                    * np.asarray(sol.rhodot)) ** 2 / 2.0
    cumulative = np.concatenate(
        [[0.0], np.cumsum((integrand[1:] + integrand[:-1]) / 2.0
                          * np.diff(ts_fine))])
    predicted = np.interp(series.ts, ts_fine, cumulative)
    measured = series.values - series.values[0]
    assert series.values[0] == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(measured, predicted, rtol=0, atol=1.5e-6)
    assert measured[-1] > 5e-6  # the creep is real, not integrator noise
    assert series.max_rel_drift <= 1e-4


def test_expectation_series_constant_case_coherent():
    model = constant_case(2.0, 40)
    rho0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), model.basis)
    traj = evolve_density(model, rho0, 2.0, H, record_every=200)
    series = expectation_series(traj, model)
    np.testing.assert_allclose(series.values, 1.0, rtol=0, atol=1e-8)


def test_expectation_series_strong_limit():
    """kappa = 0: the frictionless invariant is conserved to 1e-6."""
    model = construct_baseline(*baseline_schedules(kappa=0.0), 5.0, 40)
    rho0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), model.basis)
    traj = evolve_density(model, rho0, 5.0, H, record_every=500)
    series = expectation_series(traj, model)
    assert series.max_rel_drift <= 1e-6


def test_expectation_series_rejects_uncovered_window():
    model = constant_case(2.0, 12)
    short = constant_case(1.0, 12)
    rho0 = build_state(StateSpec(kind="fock", fock_n=0), model.basis)
    traj = evolve_density(model, rho0, 2.0, H, record_every=500)
    with pytest.raises(ValidationError):
        expectation_series(traj, short)


def test_expectation_series_equals_the_dense_trace(evolve_recording):
    """The series formed from the recorded moments, c1 <K1> + c2 <K2> - c3
    <K3>, equals tr[I(t) rho(t)] of the dense invariant on each recorded
    state to 1e-13 relative, on a modulated dissipative dim-40 run from a
    complex coherent state.  Measured: 3.2e-16."""
    model = construct_baseline(*baseline_schedules(), 1.0, 40)
    rho0 = build_state(StateSpec(kind="coherent", beta=complex(0.8, 0.5)),
                       model.basis)
    traj, states = evolve_recording(model, rho0, 1.0, H, 100)
    dense = np.array([expectation(invariant_at(model, float(t)), state)
                      for t, state in zip(traj.ts, states)])
    values = expectation_series(traj, model).values
    assert len(values) == 11
    np.testing.assert_allclose(values, dense, rtol=1e-13, atol=0)


def test_expectation_series_refuses_other_operators():
    """The series reads the recorded <K1>, <K2> and <K3>, so a trajectory
    recorded on other operators of the model's dimension is refused: here
    the model's run on a basis at another reference frequency."""
    model = constant_case(0.2, 12)
    other = replace(model, basis=BasisConfig(dim=12, omega_ref=0.5))
    rho0 = build_state(StateSpec(kind="fock", fock_n=0), other.basis)
    traj = evolve_density(other, rho0, 0.2, H, record_every=100)
    with pytest.raises(ValidationError, match="another basis"):
        expectation_series(traj, model)


def test_expectation_series_leaves_the_caller_arrays_writable():
    """The record freezes private copies of views, never the caller's
    buffers they look into (an array that owns its data is the record's
    from then on: ``test_records_take_fresh_arrays_and_copy_the_rest``)."""
    a = np.array([0.0, 0.5, 1.0, 9.0])[:3]
    v = np.array([1.0, 1.1, 1.2, 9.0])[:3]
    series = ExpectationSeries(ts=a, values=v)
    assert a.flags.writeable and v.flags.writeable
    assert not series.ts.flags.writeable and not series.values.flags.writeable
    a[0], v[0] = -1.0, -1.0
    assert series.ts[0] == 0.0 and series.values[0] == 1.0


def test_expectation_series_csv(tmp_path):
    model = constant_case(0.2, 12)
    rho0 = build_state(StateSpec(kind="fock", fock_n=0), model.basis)
    traj = evolve_density(model, rho0, 0.2, H, record_every=100)
    series = expectation_series(traj, model)
    path = tmp_path / "invariant.csv"
    series.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,expect_I,rel_drift"
    assert len(lines) == 1 + len(traj.ts)


# ---------------------------------------------------------------------------
# spectrum series


def test_spectrum_of_constructed_invariant_is_static_half_integers():
    model = construct_baseline(*baseline_schedules(), 2.0, 40)
    times = np.linspace(0.0, 2.0, 11)
    series = spectrum_series(model, times, m=13)
    assert times.flags.writeable and series.ts is not times
    want = np.broadcast_to(np.arange(13) + 0.5, series.levels.shape)
    np.testing.assert_allclose(series.levels, want, rtol=0, atol=1e-6)
    assert series.pairing_ok


def test_spectrum_constant_in_strong_limit():
    model = construct_baseline(*baseline_schedules(kappa=0.0), 5.0, 40)
    times = np.linspace(0.0, 5.0, 26)
    series = spectrum_series(model, times, m=10)
    spread = np.max(series.levels, axis=0) - np.min(series.levels, axis=0)
    assert float(np.max(spread)) <= 1e-6


def test_spectrum_of_transported_observable_drifts():
    """A generic observable transported through the dissipative flow has a
    visibly moving spectrum; fast motion also moves a level between two
    records by more than the pairing bound CONTINUITY_BOUND.
    Late-time rows carry amplified truncation noise (the transport flow
    is expansive), which only adds to the drift being detected."""
    model = construct_baseline(*baseline_schedules(), 5.0, 16)
    ops = evolve_adjoint_observable(model, model.basis.operators[3], 5.0, H,
                                    record_every=100)
    levels = np.array([np.linalg.eigvalsh(op)[:5] for op in ops])
    early = levels[record_times(5.0, H, 100) <= 2.0]
    drift_by_two = np.max(np.abs(early - early[0]))
    assert drift_by_two > 1e-3
    assert np.max(np.abs(np.diff(levels, axis=0))) > CONTINUITY_BOUND


FAST_DISSIPATIVE = (SinusoidSchedule(1.0, 0.5, 2.0), ConstantSchedule(1.0))


def test_the_invariant_is_exactly_hermitian():
    """I(t) = c1 K1 + c2 K2 - c3 K3, formed from exactly Hermitian
    generators with real coefficients, is exactly Hermitian: the premise
    of ``spectrum_series``, whose parity blocks of I(t) are then
    Hermitian tridiagonal, with a real diagonal and I[n + 2, n] the
    conjugate of I[n, n + 2], which a diagonal phase makes real
    symmetric.  On modulated dissipative scenarios, slow (the baseline's
    schedules) and fast (omega = 1 + 0.5 sin 2t, kappa = 1), its
    Hermiticity deviation reads 0 at 21 times over [0, 2], and its
    symmetrised copy equals it bit for bit."""
    for omega_s, kappa_s in (baseline_schedules(), FAST_DISSIPATIVE):
        model = construct(omega_s, kappa_s, ErmakovInit(1.3, 0.4), 2.0, H,
                            basis(40))
        for t in np.linspace(0.0, 2.0, 21):
            inv = invariant_at(model, float(t))
            assert inv.herm_deviation() == 0.0
            arr = inv.entries
            np.testing.assert_array_equal(0.5 * (arr + arr.conj().T), arr)


@pytest.mark.parametrize("dim", [8, 9, 40, 41, 160])
def test_the_parity_block_spectrum_is_the_dense_spectrum(dim):
    """``spectrum_series``, read from the two real tridiagonal parity
    blocks of I(t), gives the lowest dim/3 eigenvalues of the dense I(t)
    within 1e-12, at even and odd dims, on the slow and the fast
    dissipative schedules, at 21 times over [0, 2]."""
    m = dim // 3
    times = np.linspace(0.0, 2.0, 21)
    for omega_s, kappa_s in (baseline_schedules(), FAST_DISSIPATIVE):
        model = construct(omega_s, kappa_s, ErmakovInit(1.3, 0.4), 2.0, H,
                            basis(dim))
        dense = [np.linalg.eigvalsh(invariant_at(model, float(t)).entries)[:m]
                 for t in times]
        levels = spectrum_series(model, times, m=m).levels
        np.testing.assert_allclose(levels, dense, rtol=0, atol=1e-12)


def test_the_spectrum_series_never_forms_the_invariant(monkeypatch):
    """``spectrum_series`` calls ``invariant_at`` zero times."""
    model = construct_baseline(*baseline_schedules(), 2.0, 40)
    at = invariants.invariant_at
    invariants_at = []

    def counted_at(model, t):
        invariants_at.append(t)
        return at(model, t)

    monkeypatch.setattr(invariants, "invariant_at", counted_at)
    spectrum_series(model, np.linspace(0.0, 2.0, 11), m=13)
    assert invariants_at == []


def test_spectrum_argument_validation():
    model = constant_case(1.0, 12)
    with pytest.raises(ValidationError):
        spectrum_series(model, [0.0, 0.5], m=5)  # m > dim/3
    with pytest.raises(ValidationError):
        spectrum_series(model, [], m=2)
    for outside in ([0.0, 1.5], [-0.5, 0.5]):  # the window is [0, 1]
        with pytest.raises(ValidationError):
            spectrum_series(model, outside, m=2)


def test_spectrum_csv(tmp_path):
    model = constant_case(1.0, 12)
    series = spectrum_series(model, [0.0, 0.5, 1.0], m=4)
    path = tmp_path / "spectrum.csv"
    series.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,lambda_0,lambda_1,lambda_2,lambda_3"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# eigenvalue drift predictions


def test_drift_zero_without_dissipation():
    model = construct_baseline(*baseline_schedules(kappa=0.0), 1.0, 20)
    inv = invariant_at(model, 0.7).entries
    lam, vecs = np.linalg.eigh(inv)
    kept, drifts = drift_rhs(inv, lam, vecs, None, 0.0, m=6)
    np.testing.assert_array_equal(kept, np.arange(6))
    np.testing.assert_array_equal(drifts, np.zeros(6))


def test_drift_of_constructed_invariant_follows_friction_law():
    """The spectrum of the constructed observable is exactly static
    (unit discriminant), yet the drift formula applied to it returns
    -kappa*(rho*rhodot)^2*(n + 1/2).  Both statements are consistent:
    the formula presumes an exact solution of the transport equation,
    and the constructed form misses one by i*kappa*rho*rhodot*K3, whose
    eigenbasis diagonal is exactly the value the formula reports.  The
    drift prediction is therefore a direct meter of that defect, and
    vanishes only in the frictionless or unmodulated limits."""
    omega_s, kappa_s = baseline_schedules()
    model = construct_baseline(omega_s, kappa_s, 2.0, 40)
    sol = model.sol
    t = 1.0
    inv = invariant_at(model, t).entries
    alpha, jump = jump_at(model, t)
    lam, vecs = np.linalg.eigh(inv)
    kept, drifts = drift_rhs(inv, lam, vecs, jump, alpha, m=13)
    assert kept.size == 13
    rate = kappa_s(t) * (sol.rho_at(t) * sol.rhodot_at(t)) ** 2
    predicted = -rate * (np.asarray(kept) + 0.5)
    np.testing.assert_allclose(drifts, predicted, rtol=0, atol=1e-9)
    assert float(np.max(np.abs(drifts))) > 1e-5  # genuinely nonzero here


def test_drift_matches_finite_difference_of_spectrum():
    """Transported observable at t = 1: the drift formula agrees with a
    centered difference of its eigenvalue series.  Dimension 16 keeps the
    expansive transport flow representable at t = 1 in double precision."""
    h = 2e-4
    model = construct_baseline(*baseline_schedules(), 1.0 + 2 * h, 16, h=h)
    ops = evolve_adjoint_observable(model, model.basis.operators[3],
                                    1.0 + 2 * h, h, record_every=1)
    ts = record_times(1.0 + 2 * h, h, 1)
    i = int(np.argmin(np.abs(ts - 1.0)))
    m = 5

    def lowest(j):
        arr = ops[j]
        return np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))[:m]

    fd = (lowest(i + 1) - lowest(i - 1)) / (ts[i + 1] - ts[i - 1])
    arr = ops[i]
    sym = 0.5 * (arr + arr.conj().T)
    lam, vecs = np.linalg.eigh(sym)
    alpha, jump = jump_at(model, float(ts[i]))
    kept, drifts = drift_rhs(sym, lam, vecs, jump, alpha, m=m)
    assert kept.size == m
    np.testing.assert_allclose(drifts, fd[kept], rtol=0, atol=1e-4)


def test_drift_excludes_degenerate_pairs():
    diag = np.array([0.5, 0.5, 1.5, 2.5, 3.5, 4.5])
    j = np.diag(diag).astype(complex)
    lam, vecs = np.linalg.eigh(j)
    eye = np.eye(6, dtype=complex)
    kept, drifts = drift_rhs(j, lam, vecs, eye, 0.1, m=3)
    np.testing.assert_array_equal(kept, [2])
    with pytest.raises(NumericalError):
        lam2, vecs2 = np.linalg.eigh(eye)
        drift_rhs(eye, lam2, vecs2, eye, 0.1, m=3)


def test_drift_argument_validation():
    j = np.diag([0.5, 1.5, 2.5]).astype(complex)
    lam, vecs = np.linalg.eigh(j)
    with pytest.raises(ValidationError):
        drift_rhs(j, lam[::-1], vecs, None, 0.0, m=2)
    with pytest.raises(ValidationError):
        drift_rhs(j, lam, vecs, None, 0.1, m=2)  # alpha > 0 needs L


# ---------------------------------------------------------------------------
# constraint equations


def modulated_friction_model(t_max):
    """Modulated omega and kappa, the model on a dim-8 basis."""
    omega_s = SinusoidSchedule(1.0, 0.2, 0.1)
    kappa_s = SinusoidSchedule(0.1, 0.05, 0.3)
    return construct_baseline(omega_s, kappa_s, t_max, 8)


def test_constraints_vanish_on_construction():
    model = modulated_friction_model(4.0)
    for t in (0.3, 1.1, 2.9, 3.8):
        res = constraint_residuals(model, model.coefficients(t)[1:], t)
        assert max(abs(r) for r in res) <= 1e-9


def test_constraints_vanish_without_friction():
    model = construct_baseline(*baseline_schedules(kappa=0.0), 2.0, 8)
    coeffs = model.coefficients(1.0)[1:]
    assert coeffs[0] == 0.0
    res = constraint_residuals(model, coeffs, 1.0)
    assert max(abs(r) for r in res) <= 1e-12


def test_constraints_detect_perturbed_coefficient():
    model = constant_case(1.0, 8, init=ErmakovInit(1.3, 0.4))
    alpha, a2, a3 = model.coefficients(0.5)[1:]
    bumped = (alpha, a2, a3 + 0.1)
    res = constraint_residuals(model, bumped, 0.5)
    assert abs(res[0]) > 1e-4


def test_constraints_on_an_array_of_times_equal_the_scalar_calls():
    """One call on 100 sample times (the battery's ``constraint-identities``
    grid) returns, elementwise and bit for bit, the three residuals of the
    100 scalar calls, on a modulated schedule with modulated friction where
    none of them is exactly zero."""
    model = modulated_friction_model(4.0)
    times = np.linspace(0.0, 4.0, 100)
    coeffs = model.coefficients(times)[1:]
    got = constraint_residuals(model, coeffs, times)
    want = [constraint_residuals(model, c, float(t))
            for t, c in zip(times, zip(*coeffs))]
    assert all(isinstance(e, float) for e in want[0])
    np.testing.assert_array_equal(np.array(got), np.array(want).T)
    assert np.count_nonzero(got) > 0

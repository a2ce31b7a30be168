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

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from invariantlab.auxiliary import (
    ErmakovInit,
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
from invariantlab.lindblad import (
    LindbladCoefficients,
    MomentVector,
    assemble_model,
    coefficients_at,
    evolve_adjoint_observable,
    evolve_density,
    evolve_first_moments,
    evolve_su11_moments,
    first_moment_residual,
    moments_from_state,
    state_diagnostics,
)
from invariantlab.operators import (
    BasisConfig,
    DensityMatrix,
    FockOperator,
    StateSpec,
    build_canonical,
    build_state,
    build_su11_generators,
    interior_block,
    max_abs,
    trace_pair,
)
from invariantlab.schedules import ConstantSchedule, SinusoidSchedule

H = 1e-3


def equilibrium_setup(dim, kappa=0.1, omega=1.0, t_max=2.0, h=H):
    """Constant-frequency model on the exact auxiliary equilibrium.

    For omega = 1 the equilibrium is rho = 1, rhodot = 0 (then
    rho'' - kappa rho' + rho = 1/rho^3 holds identically).
    """
    assert omega == 1.0
    omega_s = ConstantSchedule(omega)
    kappa_s = ConstantSchedule(kappa)
    cfg = BasisConfig(dim=dim, omega_ref=omega)
    gens = build_su11_generators(*build_canonical(cfg))
    sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(1.0, 0.0), t_max, h)
    model = assemble_model(omega_s, kappa_s, sol, *gens, cfg)
    return omega_s, kappa_s, cfg, gens, sol, model


def modulated_setup(dim, kappa=0.1, t_max=1.0, h=H):
    """Slow sinusoidal frequency with adiabatic auxiliary initialization."""
    omega_s = SinusoidSchedule(1.0, 0.2, 0.1)
    kappa_s = ConstantSchedule(kappa)
    cfg = BasisConfig(dim=dim, omega_ref=1.0)
    gens = build_su11_generators(*build_canonical(cfg))
    init = ErmakovInit(adiabatic_rho(omega_s, kappa_s, 0.0),
                       adiabatic_rhodot(omega_s, kappa_s, 0.0))
    sol = solve_auxiliary(omega_s, kappa_s, init, t_max, h)
    model = assemble_model(omega_s, kappa_s, sol, *gens, cfg)
    return omega_s, kappa_s, cfg, gens, sol, model


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
    _, kappa_s, _, _, sol, _ = equilibrium_setup(dim=8)
    c = coefficients_at(sol, kappa_s, 0.7)
    assert c.a1 == 1.0
    np.testing.assert_allclose(c.alpha, 0.1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(c.a2, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(c.a3, 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(c.friction, 0.1, rtol=0, atol=1e-12)


def test_coefficients_narrow_solution():
    """rho = 2**-0.5 stationary (omega = 2): alpha = kappa/4, a2 = 4."""
    omega_s = ConstantSchedule(2.0)
    kappa_s = ConstantSchedule(0.1)
    sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(2.0 ** -0.5, 0.0), 1.0, H)
    c = coefficients_at(sol, kappa_s, 0.5)
    np.testing.assert_allclose(c.alpha, 0.025, rtol=0, atol=1e-12)
    np.testing.assert_allclose(c.a2, 4.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(c.a3, 0.0, rtol=0, atol=1e-10)
    # realized friction equals the schedule value
    np.testing.assert_allclose(c.alpha * (c.a2 - c.a3 ** 2), 0.1,
                               rtol=0, atol=1e-12)


def test_coefficients_vanish_without_friction():
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(0.0)
    sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(1.0, 0.0), 1.0, H)
    c = coefficients_at(sol, kappa_s, 0.3)
    assert c.alpha == 0.0
    assert c.friction == 0.0


def test_negative_friction_rejected_in_coefficients():
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(0.0)
    sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(1.0, 0.0), 1.0, H)
    with pytest.raises(NegativeFrictionError):
        coefficients_at(sol, ConstantSchedule(-0.01), 0.5)


def test_coefficient_dataclass_validation():
    with pytest.raises(ValidationError):
        LindbladCoefficients(t=0.0, alpha=-1e-3, a2=1.0, a3=0.0)
    with pytest.raises(ValidationError):
        LindbladCoefficients(t=0.0, alpha=0.1, a2=1.0, a3=0.0, a1=2.0)
    with pytest.raises(ValidationError):
        LindbladCoefficients(t=0.0, alpha=0.1, a2=0.1, a3=1.0)


# ---------------------------------------------------------------------------
# model assembly


def test_hamiltonian_matches_generators():
    omega_s, _, cfg, (g1, g2, g3), sol, model = modulated_setup(dim=12)
    t = 0.4
    w = float(omega_s.eval(t))
    h_op = model.hamiltonian_at(t)
    assert h_op.hermitian
    np.testing.assert_array_equal(h_op.entries,
                                  g1.entries + (w * w) * g2.entries)


def test_jump_operator_matches_coefficients():
    _, kappa_s, cfg, (g1, g2, g3), sol, model = modulated_setup(dim=12)
    t = 0.4
    terms = model.dissipators_at(t)
    assert len(terms) == 1
    weight, jump = terms[0]
    c = coefficients_at(sol, kappa_s, t)
    assert weight == c.alpha
    assert jump.hermitian
    np.testing.assert_array_equal(
        jump.entries, g1.entries + c.a2 * g2.entries + c.a3 * g3.entries)


def test_no_jump_terms_without_friction():
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(0.0)
    cfg = BasisConfig(dim=10, omega_ref=1.0)
    gens = build_su11_generators(*build_canonical(cfg))
    sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(1.0, 0.0), 1.0, H)
    model = assemble_model(omega_s, kappa_s, sol, *gens, cfg)
    assert model.dissipators_at(0.5) == []


def test_generator_dimension_mismatch_rejected():
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(0.1)
    cfg = BasisConfig(dim=10, omega_ref=1.0)
    wrong = build_su11_generators(*build_canonical(BasisConfig(dim=12, omega_ref=1.0)))
    sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(1.0, 0.0), 1.0, H)
    with pytest.raises(ValidationError):
        assemble_model(omega_s, kappa_s, sol, *wrong, cfg)


# ---------------------------------------------------------------------------
# density evolution


def test_unitary_mean_position_closed_form():
    """kappa = 0, omega = 1: <x>(t) = cos t for a coherent state on axis."""
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(0.0)
    cfg = BasisConfig(dim=40, omega_ref=1.0)
    gens = build_su11_generators(*build_canonical(cfg))
    t_max = float(np.pi)
    sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(1.0, 0.0), t_max, H)
    model = assemble_model(omega_s, kappa_s, sol, *gens, cfg)
    rho0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    traj = evolve_density(model, rho0, t_max, H, record_every=157)
    xs = np.array([m.mean_x for m in traj.moments()])
    np.testing.assert_allclose(xs, np.cos(traj.ts), rtol=0, atol=1e-6)
    assert traj.ok


def test_damped_mean_position_closed_form():
    """omega = 1, kappa = 0.1: the mean motion obeys x'' + 2k x' + (1+k^2) x
    = 0, whose damped frequency is exactly 1, so <x>(t) = e^{-kt} cos t."""
    kappa = 0.1
    _, _, cfg, gens, sol, model = equilibrium_setup(dim=40, kappa=kappa,
                                                    t_max=float(np.pi))
    state0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    m0 = moments_from_state(state0, cfg)
    np.testing.assert_allclose((m0.mean_x, m0.mean_p), (1.0, 0.0), atol=1e-12)
    # mean_p(0) = 0 gives xdot(0) = -kappa, matching d/dt[e^{-kt} cos t](0)
    traj = evolve_density(model, state0, float(np.pi), H, record_every=100)
    xs = np.array([m.mean_x for m in traj.moments()])
    np.testing.assert_allclose(xs, np.exp(-kappa * traj.ts) * np.cos(traj.ts),
                               rtol=0, atol=1e-4)


def test_density_health_metrics_stay_tight():
    _, _, cfg, gens, sol, model = modulated_setup(dim=40, t_max=2.0)
    rho0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    traj = evolve_density(model, rho0, 2.0, H, record_every=200)
    assert traj.ok and traj.failed_at is None and traj.warnings == ()
    np.testing.assert_allclose(traj.trace, 1.0, rtol=0, atol=1e-12)
    assert float(np.max(traj.herm_dev)) < 1e-13
    assert float(np.min(traj.min_eig)) > -1e-12
    assert float(np.max(traj.tail_pop)) < 1e-12


def test_record_grid_is_uniform_and_includes_endpoint():
    _, _, cfg, gens, sol, model = equilibrium_setup(dim=10, t_max=0.05)
    rho0 = build_state(StateSpec(kind="fock", fock_n=0), cfg)
    traj = evolve_density(model, rho0, 0.05, H, record_every=10)
    np.testing.assert_allclose(traj.ts, np.arange(6) * 0.01, rtol=0, atol=1e-15)
    assert len(traj.states) == 6


def test_constant_jump_energy_is_conserved():
    """A jump operator proportional to H leaves <H> exactly constant."""
    from invariantlab.lindblad import LindbladModel

    cfg = BasisConfig(dim=30, omega_ref=1.0)
    g1, g2, g3 = build_su11_generators(*build_canonical(cfg))
    h_op = FockOperator(g1.entries + g2.entries)
    model = LindbladModel(hamiltonian_at=lambda t: h_op,
                          dissipators_at=lambda t: [(0.2, h_op)],
                          basis=cfg)
    rho0 = build_state(StateSpec(kind="coherent", beta=1.0), cfg)
    traj = evolve_density(model, rho0, 2.0, H, record_every=250)
    energies = [float(np.trace(h_op.entries @ s.entries).real)
                for s in traj.states]
    np.testing.assert_allclose(energies, energies[0], rtol=0, atol=1e-8)


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
    assert not traj.ok
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


def test_identity_is_a_fixed_point():
    """The transport generator annihilates the identity (unital form)."""
    _, _, cfg, gens, sol, model = modulated_setup(dim=20, t_max=1.0)
    eye = FockOperator(np.eye(20, dtype=complex))
    ot = evolve_adjoint_observable(model, eye, 1.0, H, record_every=250)
    devs = [max_abs(op.entries - np.eye(20)) for op in ot.operators]
    assert max(devs) <= 1e-15


def test_pairing_with_state_is_conserved():
    """tr[Q(t) rho(t)] is time independent when both are transported."""
    _, _, cfg, gens, sol, model = modulated_setup(dim=40, t_max=1.0)
    rho0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    traj = evolve_density(model, rho0, 1.0, H, record_every=100)
    ot = evolve_adjoint_observable(model, gens[1], 1.0, H, record_every=100)
    pair0 = trace_pair(ot.operators[0].entries, traj.states[0].entries).real
    devs = [abs(trace_pair(ot.operators[i].entries,
                           traj.states[i].entries).real - pair0)
            for i in range(len(traj.ts))]
    assert max(devs) <= 1e-7


def test_transport_preserves_hermiticity():
    _, _, cfg, gens, sol, model = modulated_setup(dim=20, t_max=0.5)
    ot = evolve_adjoint_observable(model, gens[1], 0.5, H, record_every=100)
    assert float(np.max(ot.herm_dev)) < 1e-10
    assert ot.ok


def test_non_hermitian_seed_rejected():
    _, _, cfg, gens, sol, model = equilibrium_setup(dim=10, t_max=0.01)
    x_op, p_op = build_canonical(cfg)
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


# ---------------------------------------------------------------------------
# first moments


def test_first_moments_damped_closed_form():
    """omega = 1 puts the damped frequency at exactly 1 (see above)."""
    kappa = 0.1
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(kappa)
    series = evolve_first_moments(omega_s, kappa_s, (1.0, 0.0), 4.0, H)
    t = np.pi
    np.testing.assert_allclose(series.x_at(t), np.exp(-kappa * t) * np.cos(t),
                               rtol=0, atol=1e-8)
    np.testing.assert_allclose(series.mean_x,
                               np.exp(-kappa * series.ts) * np.cos(series.ts),
                               rtol=0, atol=1e-8)


def test_first_moments_undamped_cosine():
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(0.0)
    series = evolve_first_moments(omega_s, kappa_s, (1.0, 0.0), 4.0, H)
    np.testing.assert_allclose(series.mean_x, np.cos(series.ts),
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(series.mean_p, -np.sin(series.ts),
                               rtol=0, atol=1e-10)


def test_first_moments_zero_seed_stays_zero():
    omega_s = SinusoidSchedule(1.0, 0.3, 0.2)
    kappa_s = ConstantSchedule(0.05)
    series = evolve_first_moments(omega_s, kappa_s, (0.0, 0.0), 1.0, H)
    assert float(np.max(np.abs(series.mean_x))) == 0.0
    assert float(np.max(np.abs(series.mean_p))) == 0.0


def test_first_moment_residual_small_on_solution():
    omega_s = SinusoidSchedule(1.0, 0.2, 0.3)
    kappa_s = SinusoidSchedule(0.05, 0.02, 0.2)
    series = evolve_first_moments(omega_s, kappa_s, (1.0, 0.3), 2.0, H)
    nodes = series.ts[::100]
    mids = nodes[:-1] + 0.5 * H
    for pts in (nodes, mids):
        res = np.asarray(first_moment_residual(series, omega_s, kappa_s, pts))
        assert float(np.max(np.abs(res))) <= 1e-8


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
    probe = np.linspace(0.0, 3.0, 7)
    np.testing.assert_allclose(series.x_at(probe), ref.sol(probe)[0],
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(series.p_at(probe), ref.sol(probe)[1],
                               rtol=0, atol=1e-9)


def test_first_moments_negative_friction_rejected():
    with pytest.raises(NegativeFrictionError):
        evolve_first_moments(ConstantSchedule(1.0), ConstantSchedule(-0.1),
                             (1.0, 0.0), 1.0, H)


def test_first_moment_series_window_guard():
    series = evolve_first_moments(ConstantSchedule(1.0), ConstantSchedule(0.0),
                                  (1.0, 0.0), 1.0, H)
    with pytest.raises(ValidationError):
        series.x_at(1.5)


# ---------------------------------------------------------------------------
# quadratic-generator moments


def test_su11_vacuum_moments_are_stationary_without_friction():
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(0.0)
    sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(1.0, 0.0), 5.0, H)
    series = evolve_su11_moments(omega_s, kappa_s, sol, (0.25, 0.25, 0.0),
                                 5.0, H)
    np.testing.assert_allclose(series.k1, 0.25, rtol=0, atol=1e-12)
    np.testing.assert_allclose(series.k2, 0.25, rtol=0, atol=1e-12)
    np.testing.assert_allclose(series.k3, 0.0, rtol=0, atol=1e-12)


def test_su11_rotation_closed_form():
    """kappa = 0, omega = 1: k1 - k2 and k3 rotate at frequency 2."""
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(0.0)
    sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(1.0, 0.0), 6.0, H)
    series = evolve_su11_moments(omega_s, kappa_s, sol, (0.25, 0.75, 0.0),
                                 6.0, H)
    ts = series.ts
    np.testing.assert_allclose(series.k1 + series.k2, 1.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(series.k1 - series.k2, -0.5 * np.cos(2 * ts),
                               rtol=0, atol=1e-8)
    np.testing.assert_allclose(series.k3, -0.5 * np.sin(2 * ts),
                               rtol=0, atol=1e-8)


def test_su11_moments_match_density_backend():
    omega_s, kappa_s, cfg, gens, sol, model = modulated_setup(dim=40,
                                                              t_max=2.0)
    rho0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    traj = evolve_density(model, rho0, 2.0, H, record_every=200)
    m0 = moments_from_state(rho0, cfg)
    series = evolve_su11_moments(omega_s, kappa_s, sol,
                                 (m0.k1, m0.k2, m0.k3), 2.0, H)
    dense = {round(t, 9): i for i, t in enumerate(series.ts)}
    for i, t in enumerate(traj.ts):
        j = dense[round(float(t), 9)]
        m = moments_from_state(traj.states[i], cfg)
        for got, want in ((m.k1, series.k1[j]), (m.k2, series.k2[j]),
                          (m.k3, series.k3[j])):
            assert abs(got - want) <= 1e-5


def test_su11_seed_must_satisfy_uncertainty_bound():
    omega_s = ConstantSchedule(1.0)
    kappa_s = ConstantSchedule(0.0)
    sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(1.0, 0.0), 1.0, H)
    with pytest.raises(ValidationError):
        evolve_su11_moments(omega_s, kappa_s, sol, (0.25, 0.25, 0.5), 1.0, H)
    with pytest.raises(ValidationError):
        evolve_su11_moments(omega_s, kappa_s, sol, (-0.1, 0.25, 0.0), 1.0, H)


# ---------------------------------------------------------------------------
# diagnostics and moment extraction


def test_diagnostics_of_pure_vacuum():
    cfg = BasisConfig(dim=10, omega_ref=1.0)
    rho = build_state(StateSpec(kind="fock", fock_n=0), cfg)
    tr, herm, lo, tail = state_diagnostics(rho, cfg)
    assert tr == 1.0
    assert herm == 0.0
    assert abs(lo) < 1e-15
    assert tail == 0.0


def test_diagnostics_of_maximally_mixed_state():
    cfg = BasisConfig(dim=10, omega_ref=1.0)
    rho = DensityMatrix(np.eye(10, dtype=complex) / 10.0)
    tr, herm, lo, tail = state_diagnostics(rho, cfg)
    np.testing.assert_allclose(tr, 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(lo, 0.1, rtol=0, atol=1e-15)
    np.testing.assert_allclose(tail, 0.1, rtol=0, atol=1e-15)  # one tail level


def test_moments_of_coherent_state():
    cfg = BasisConfig(dim=40, omega_ref=1.0)
    rho = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    m = moments_from_state(rho, cfg)
    np.testing.assert_allclose(
        (m.mean_x, m.mean_p, m.k1, m.k2, m.k3),
        (1.0, 0.0, 0.25, 0.75, 0.0), rtol=0, atol=1e-10)


def test_moment_vector_validation():
    MomentVector(0.0, 0.0, 0.25, 0.25, 0.0)  # vacuum saturates the bound
    with pytest.raises(ValidationError):
        MomentVector(0.0, 0.0, 0.1, 0.1, 0.0)

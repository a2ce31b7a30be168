"""Acceptance gate: one test per advertised capability, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Each test prints ``PASS criterion N: ...`` or fails its assertion with a
``FAIL criterion N: ...`` message carrying the measured values.

Three criteria are expected to fail, all for the same structural
reason: on a modulated dissipative scenario the constructed quadratic
form satisfies its operator equation only up to the exact friction
defect ``i kappa rho rhodot K3`` (see the invariants module docstring
and the defect-law tests in test_invariants.py).  Criterion 1 (the
conserved expectation creeps at the defect rate), criterion 4 (the
operator-equation residual equals the defect norm), and the drift
clause of criterion 6 (the drift formula applied to the closed form
returns the defect rate, not zero) measure that defect directly; their
bounds are attainable only at friction equilibria or without friction.
The other eight criteria pass.
"""

import math

import numpy as np
import pytest

from invariantlab.auxiliary import (
    ErmakovInit,
    adiabatic_rho,
    adiabatic_rhodot,
    max_residual_between_nodes,
    solve_auxiliary,
)
from invariantlab.invariants import (
    constraint_residuals,
    construct,
    drift_rhs,
    expectation_series,
    invariant_at,
    invariant_residual,
    spectrum_series,
)
from invariantlab.lindblad import (
    evolve_adjoint_observable,
    evolve_density,
    evolve_first_moments,
    evolve_su11_moments,
)
from invariantlab.operators import (
    BasisConfig,
    FockOperator,
    StateSpec,
    build_state,
    max_abs,
    trace_pair,
)
from invariantlab.schedules import ConstantSchedule, SinusoidSchedule

BASELINE_DIM = 60
BASELINE_T = 20.0
BASELINE_H = 1e-3
RECORD = 100


def report(num: int, passed: bool, detail: str):
    line = f"{'PASS' if passed else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert passed, line


def _jump_at(model, t):
    """(alpha, L) of the model's jump term at t, L as a FockOperator."""
    _, alpha, a2, a3 = model.coefficients(t)
    k1, k2, k3 = model.generators
    return alpha, FockOperator(k1 + a2 * k2 + a3 * k3)


def _pipeline(omega_s, kappa_s, dim=BASELINE_DIM, t_max=BASELINE_T,
              h=BASELINE_H, record_every=RECORD):
    cfg = BasisConfig(dim=dim, omega_ref=float(omega_s(0.0)))
    init = ErmakovInit(adiabatic_rho(omega_s, kappa_s, 0.0),
                       adiabatic_rhodot(omega_s, kappa_s, 0.0))
    model = construct(omega_s, kappa_s, init, t_max, h, cfg)
    state0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    traj = evolve_density(model, state0, t_max, h, record_every=record_every)
    return dict(omega=omega_s, kappa=kappa_s, cfg=cfg, model=model,
                state0=state0, traj=traj)


@pytest.fixture(scope="module")
def baseline():
    """Modulated dissipative baseline: omega=1+0.2sin(0.1t), kappa=0.1."""
    return _pipeline(SinusoidSchedule(1.0, 0.2, 0.1), ConstantSchedule(0.1))


@pytest.fixture(scope="module")
def strong():
    """Frictionless limit of the same modulation: kappa identically 0."""
    return _pipeline(SinusoidSchedule(1.0, 0.2, 0.1), ConstantSchedule(0.0))


def test_criterion_01_conserved_expectation_on_baseline(baseline):
    bound = 1e-5
    series = expectation_series(baseline["traj"], baseline["model"])
    measured = series.max_rel_drift
    report(1, measured <= bound,
           f"max relative drift of the conserved expectation over "
           f"[0, {BASELINE_T:g}] is {measured:.6g} (bound {bound:g}); the "
           f"friction defect makes the expectation creep at rate "
           f"kappa*(rho*rhodot)^2 and the bound is attainable only at "
           f"friction equilibria")


def test_criterion_02_damped_oscillation_law():
    omega_s, kappa_s = ConstantSchedule(1.0), ConstantSchedule(0.1)
    t_end = math.pi
    h = math.pi / 3142  # lands the final node exactly on t = pi
    target = -math.exp(-0.1 * math.pi)

    cfg = BasisConfig(dim=BASELINE_DIM, omega_ref=1.0)
    init = ErmakovInit(adiabatic_rho(omega_s, kappa_s, 0.0),
                       adiabatic_rhodot(omega_s, kappa_s, 0.0))
    model = construct(omega_s, kappa_s, init, t_end, h, cfg)
    state0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)
    traj = evolve_density(model, state0, t_end, h, record_every=3142)
    fock_dev = abs(traj.moments()[-1].mean_x - target)

    first = evolve_first_moments(omega_s, kappa_s, (1.0, 0.0), t_end, h)
    moment_dev = abs(first.mean_x[-1] - target)

    report(2, fock_dev <= 1e-4 and moment_dev <= 1e-8,
           f"<x>(pi) vs -e^(-0.1 pi) = {target:.6f}: full backend off by "
           f"{fock_dev:.3g} (bound 1e-4), moment backend off by "
           f"{moment_dev:.3g} (bound 1e-8)")


def test_criterion_03_constraint_identities(baseline):
    bound = 1e-9
    model = baseline["model"]
    times = np.linspace(0.0, BASELINE_T, 100)
    worst = max(
        max(abs(r) for r in constraint_residuals(
            model, model.coefficients(float(t))[1:], float(t)))
        for t in times)
    report(3, worst <= bound,
           f"max coefficient-constraint residual over 100 sampled times is "
           f"{worst:.6g} (bound {bound:g})")


def test_criterion_04_operator_equation_residual_and_mutant(baseline,
                                                            flip_a3):
    bound, mutant_floor = 1e-6, 1e-2
    model = baseline["model"]
    sample_times = (2.0, 6.0, 10.0, 14.0, 18.0)
    residual = max(invariant_residual(model, t) for t in sample_times)

    # sign-flipped a3: the model's jump becomes K1 + a2 K2 - a3 K3
    flip_a3()
    mutant_residual = max(invariant_residual(model, t)
                          for t in sample_times)

    report(4, residual <= bound and mutant_residual > mutant_floor,
           f"interior operator-equation residual is {residual:.6g} "
           f"(bound {bound:g}) — this equals the friction defect "
           f"|kappa rho rhodot| times the K3 norm, irreducible for a "
           f"moving auxiliary solution; the sign-flipped jump-coefficient "
           f"mutant reads {mutant_residual:.6g} (must exceed "
           f"{mutant_floor:g}), {mutant_residual / residual:.2f}x the "
           f"faithful model")


def test_criterion_05_strong_limit(strong):
    spec_bound, residual_bound, conserve_bound = 1e-6, 1e-6, 1e-7
    model, traj = strong["model"], strong["traj"]

    spectrum = spectrum_series(model, traj.ts, m=13)
    spec_dev = float(np.max(np.abs(
        spectrum.levels - spectrum.levels[0])))
    residual = max(invariant_residual(model, t)
                   for t in (2.0, 6.0, 10.0, 14.0, 18.0))
    series = expectation_series(traj, model)
    conserve_dev = float(np.max(np.abs(series.values - series.values[0])))

    report(5, spec_dev <= spec_bound and residual <= residual_bound
           and conserve_dev <= conserve_bound,
           f"frictionless modulated run: spectrum wander {spec_dev:.3g} "
           f"(bound {spec_bound:g}), operator-equation residual "
           f"{residual:.3g} (bound {residual_bound:g}), expectation wander "
           f"{conserve_dev:.3g} (bound {conserve_bound:g})")


def test_criterion_06_spectrum_and_drift_of_the_closed_form(baseline):
    spec_bound, drift_bound, fd_bound = 1e-6, 1e-8, 1e-4
    model, traj = baseline["model"], baseline["traj"]

    spectrum = spectrum_series(model, traj.ts, m=13)
    want = np.broadcast_to(np.arange(13) + 0.5, spectrum.levels.shape)
    spec_dev = float(np.max(np.abs(spectrum.levels - want)))

    closed_drift = 0.0
    for t in (4.0, 8.0, 12.0, 16.0):
        op = invariant_at(model, t)
        lam, vecs = np.linalg.eigh(op.entries)
        alpha, jump = _jump_at(model, t)
        _, drifts = drift_rhs(op, lam, vecs, jump, alpha, m=13)
        closed_drift = max(closed_drift, float(np.max(np.abs(drifts))))

    # transported generic observable: formula against finite differences
    h = 2e-4
    probe_model = construct(baseline["omega"], baseline["kappa"],
                            ErmakovInit(float(model.sol.rho_at(0.0)),
                                        float(model.sol.rhodot_at(0.0))),
                            1.0 + 2 * h, h,
                            BasisConfig(dim=16, omega_ref=1.0))
    ot = evolve_adjoint_observable(probe_model,
                                   probe_model.basis.operators[3], 1.0 + 2 * h,
                                   h, record_every=1)
    i = int(np.argmin(np.abs(np.asarray(ot.ts) - 1.0)))

    def lowest(j):
        return np.linalg.eigvalsh(ot.operators[j].entries)[:5]

    fd = (lowest(i + 1) - lowest(i - 1)) / (ot.ts[i + 1] - ot.ts[i - 1])
    op = ot.operators[i]
    lam, vecs = np.linalg.eigh(op.entries)
    alpha, jump = _jump_at(probe_model, float(ot.ts[i]))
    kept, drifts = drift_rhs(op, lam, vecs, jump, alpha, m=5)
    fd_dev = float(np.max(np.abs(drifts - fd[np.asarray(kept)])))

    report(6, spec_dev <= spec_bound and closed_drift <= drift_bound
           and fd_dev <= fd_bound,
           f"closed-form eigenvalues sit at n+1/2 within {spec_dev:.3g} "
           f"(bound {spec_bound:g}) at all recorded times, yet the drift "
           f"formula applied to the closed form returns {closed_drift:.6g} "
           f"(bound {drift_bound:g}) — exactly the friction-defect rate "
           f"kappa*(rho*rhodot)^2*(n+1/2), nonzero because the closed form "
           f"is not an exact transport solution; on a transported "
           f"observable the formula matches finite differences within "
           f"{fd_dev:.3g} (bound {fd_bound:g})")


def test_criterion_07_slow_modulation_error_scaling():
    lo, hi = 6.0, 10.0
    kappa_s = ConstantSchedule(0.05)

    def series_error(rate):
        omega_s = SinusoidSchedule(1.0, 0.5, rate)
        init = ErmakovInit(adiabatic_rho(omega_s, kappa_s, 0.0),
                           adiabatic_rhodot(omega_s, kappa_s, 0.0))
        sol = solve_auxiliary(omega_s, kappa_s, init, BASELINE_T, BASELINE_H)
        ts = np.asarray(sol.ts)
        return float(np.max(np.abs(
            np.asarray(sol.rho) - adiabatic_rho(omega_s, kappa_s, ts))))

    e_fast, e_slow = series_error(0.05), series_error(0.025)
    ratio = e_fast / e_slow
    report(7, lo <= ratio <= hi,
           f"max series deviation over [0, {BASELINE_T:g}] is "
           f"{e_fast:.3g} at rate 0.05 and {e_slow:.3g} at rate 0.025, "
           f"ratio {ratio:.4f} (third-order truncation band [{lo:g}, {hi:g}])")


def test_criterion_08_channel_fidelity(baseline, strong):
    trace_b, herm_b, eig_b, tail_b = 1e-9, 1e-10, -1e-8, 1e-8
    worst = dict(trace=0.0, herm=0.0, eig=0.0, tail=0.0)
    for run in (baseline, strong):
        traj = run["traj"]
        worst["trace"] = max(worst["trace"], float(np.max(np.abs(traj.trace - 1.0))))
        worst["herm"] = max(worst["herm"], float(np.max(traj.herm_dev)))
        worst["eig"] = min(worst["eig"], float(np.min(traj.min_eig)))
        worst["tail"] = max(worst["tail"], float(np.max(traj.tail_pop)))
    ok = (worst["trace"] <= trace_b and worst["herm"] <= herm_b
          and worst["eig"] >= eig_b and worst["tail"] <= tail_b)
    report(8, ok,
           f"across both full runs: trace drift {worst['trace']:.3g} "
           f"(bound {trace_b:g}), hermiticity {worst['herm']:.3g} "
           f"(bound {herm_b:g}), lowest eigenvalue {worst['eig']:.3g} "
           f"(floor {eig_b:g}), tail population {worst['tail']:.3g} "
           f"(bound {tail_b:g})")


def test_criterion_09_trace_pairing_duality(baseline, evolve_recording):
    bound = 1e-7
    window = 0.8  # beyond ~0.9 the transported observable's interior
    # entries outgrow the 16 significant digits of float64 and the
    # pairing trace loses the cancellation it relies on (outright float
    # overflow follows near t = 2.6)
    model = baseline["model"]
    n_rec = int(round(window / (BASELINE_H * RECORD)))
    # the baseline run keeps no states: the states over the window come
    # from the same run cut at the window's end, which steps bit for bit
    # as the baseline's first records
    traj, states = evolve_recording(model, baseline["state0"], window,
                                    BASELINE_H, RECORD)
    full = baseline["traj"]
    for name in ("ts", "mean_x", "mean_p", "k1", "k2", "k3"):
        np.testing.assert_array_equal(getattr(traj, name),
                                      getattr(full, name)[:n_rec + 1])
    worst = 0.0
    details = []
    for name, q0 in (("K2", model.basis.operators[3]),
                     ("I(0)", invariant_at(model, 0.0))):
        ot = evolve_adjoint_observable(model, q0, window, BASELINE_H,
                                       record_every=RECORD)
        vals = np.array([
            trace_pair(op.entries, states[j].entries).real
            for j, op in enumerate(ot.operators)])
        np.testing.assert_allclose(np.asarray(ot.ts),
                                   np.asarray(traj.ts)[:n_rec + 1],
                                   rtol=0, atol=1e-12)
        dev = float(np.max(np.abs(vals - vals[0])))
        worst = max(worst, dev)
        details.append(f"{name}: {dev:.3g}")
    report(9, worst <= bound,
           f"pairing trace of the forward state with the adjoint-evolved "
           f"observable stays constant within {'; '.join(details)} over "
           f"[0, {window:g}] (bound {bound:g}; longer windows exceed "
           f"float64 cancellation range at this basis size)")


def test_criterion_10_backend_cross_validation(baseline):
    bound = 1e-5
    horizon = 10.0
    moments = baseline["traj"].moments()
    m0 = moments[0]
    quad = evolve_su11_moments(baseline["model"], (m0.k1, m0.k2, m0.k3),
                               horizon, BASELINE_H)
    n_rec = int(round(horizon / (BASELINE_H * RECORD)))
    idx = np.arange(0, n_rec * RECORD + 1, RECORD)
    fock = np.array([[m.k1, m.k2, m.k3] for m in moments[:n_rec + 1]])
    closed = np.column_stack([quad.k1[idx], quad.k2[idx], quad.k3[idx]])
    measured = float(np.max(np.abs(fock - closed)))
    report(10, measured <= bound,
           f"full vs closed quadratic-moment backend over [0, {horizon:g}]: "
           f"max deviation {measured:.3g} (bound {bound:g})")


def test_criterion_11_integrator_order():
    lo, hi = 12.0, 20.0
    omega_s, kappa_s = ConstantSchedule(1.0), ConstantSchedule(0.1)

    # auxiliary equation: defect between nodes on a ringing solution
    def aux_residual(h):
        sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(1.5, 0.0),
                              10.0, h)
        return max_residual_between_nodes(sol)

    aux_ratio = aux_residual(1e-2) / aux_residual(5e-3)

    # density equation: self-convergence of the final state on the
    # modulated dissipative schedules with a shared coefficient source
    omega_m, kappa_m = SinusoidSchedule(1.0, 0.2, 0.1), ConstantSchedule(0.1)
    cfg = BasisConfig(dim=16, omega_ref=1.0)
    init = ErmakovInit(adiabatic_rho(omega_m, kappa_m, 0.0),
                       adiabatic_rhodot(omega_m, kappa_m, 0.0))
    model = construct(omega_m, kappa_m, init, 2.0, 1e-4, cfg)
    state0 = build_state(StateSpec(kind="coherent", beta=2 ** -0.5), cfg)

    def final_state(h):
        traj = evolve_density(model, state0, 2.0, h,
                              record_every=int(round(2.0 / h)))
        return traj.states[-1].entries

    s1, s2, s3 = (final_state(h) for h in (2e-3, 1e-3, 5e-4))
    dens_ratio = max_abs(s1 - s2) / max_abs(s2 - s3)

    report(11, lo <= aux_ratio <= hi and lo <= dens_ratio <= hi,
           f"halving the step shrinks the auxiliary between-node residual "
           f"{aux_ratio:.2f}x and the density self-convergence gap "
           f"{dens_ratio:.2f}x (both must land in [{lo:g}, {hi:g}]; "
           f"nominal 16)")

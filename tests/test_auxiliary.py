import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from invariantlab.auxiliary import (
    ErmakovInit,
    ErmakovSolution,
    _rk4,
    adiabatic_rho,
    adiabatic_rhodot,
    auxiliary_residual,
    max_residual_between_nodes,
    solve_auxiliary,
    solve_classical_mode,
    solve_tracking_reference,
)
from invariantlab.errors import SingularityError, ValidationError
from invariantlab.schedules import ConstantSchedule, LinearSchedule, SinusoidSchedule

W1 = ConstantSchedule(1.0)
K0 = ConstantSchedule(0.0)


# ------------------------------------------------------------------- driver


def _rk4_max_error(kind: str, h: float) -> float:
    """Driver error on y' = -i t w y, y(0) = 1, over [0, 1] (exact: exp)."""
    if kind == "pair":
        # a real pair (x, p) carried as x + ip:  x' = t p,  p' = -t x
        w = 1.0
        rhs = lambda y, t: complex(t * y.imag, -t * y.real)
        y0 = complex(1.0, 0.0)
    else:
        w = np.array([1.0, 2.0, -0.5])
        rhs = lambda y, t: -1j * t * w * y
        y0 = np.ones(3, dtype=complex)
    errors = []

    def record(i, y):
        errors.append(np.max(np.abs(y - np.exp(-0.5j * w * (i * h) ** 2))))

    _rk4(rhs, lambda j: 0.5 * h * j, y0, round(1.0 / h), h, record)
    return max(errors)


@pytest.mark.parametrize("kind", ["pair", "array"])
def test_rk4_driver_is_fourth_order_on_both_state_kinds(kind):
    coarse, fine = _rk4_max_error(kind, 0.02), _rk4_max_error(kind, 0.01)
    assert fine < 1e-8
    assert 14.0 < coarse / fine < 18.0


def test_rk4_driver_reuses_end_stages_and_records_every_kth_node():
    stages, nodes = [], []

    def stage(j):
        stages.append(j)
        return 1.0

    y = _rk4(lambda y, c: c, stage, 0.0, 10, 0.1,
             lambda i, y: nodes.append(i), every=3)
    assert stages == list(range(21))  # 2n + 1 evaluations, none repeated
    assert nodes == [0, 3, 6, 9, 10]
    assert y == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------- solver


def test_equilibrium_is_exact():
    sol = solve_auxiliary(W1, ConstantSchedule(0.1), ErmakovInit(1.0, 0.0), 20.0, 1e-3)
    assert np.max(np.abs(sol.rho - 1.0)) <= 1e-10
    assert np.max(np.abs(sol.rhodot)) <= 1e-10


def test_fixed_point_for_any_friction():
    # rho = omega^{-1/2} kills rhodot, so the friction term never engages
    w = ConstantSchedule(2.0)
    k = SinusoidSchedule(0.1, 0.05, 0.7)
    sol = solve_auxiliary(w, k, ErmakovInit(2.0 ** -0.5, 0.0), 10.0, 1e-3)
    assert np.max(np.abs(sol.rho - 2.0 ** -0.5)) <= 1e-10


def test_undamped_closed_form():
    # for constant omega=1 the general solution is
    # rho(t) = sqrt(c1 cos^2 t + c2 sin^2 t + 2 c3 sin t cos t), c1 c2 - c3^2 = 1
    sol = solve_auxiliary(W1, K0, ErmakovInit(2.0, 0.0), 3.0, 1e-3)
    for t in (0.5, 1.0, 2.5):
        exact = np.sqrt(4.0 * np.cos(t) ** 2 + 0.25 * np.sin(t) ** 2)
        assert abs(sol.rho_at(t) - exact) < 1e-9


def test_against_high_accuracy_reference():
    w = SinusoidSchedule(1.0, 0.2, 0.1)
    k = ConstantSchedule(0.1)

    def rhs(t, y):
        r, v = y
        return [v, k.eval(t) * v - w.eval(t) ** 2 * r + r ** -3.0]

    ref = solve_ivp(rhs, (0.0, 5.0), [1.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    sol = solve_auxiliary(w, k, ErmakovInit(1.0, 0.0), 5.0, 1e-3)
    for t in (1.0, 3.0, 5.0):
        assert abs(sol.rho_at(t) - ref.sol(t)[0]) < 1e-9
        assert abs(sol.rhodot_at(t) - ref.sol(t)[1]) < 1e-9


def test_singularity_guard_fires():
    # the second stage of the first step lands on rho = 0: the error names
    # that stage's time
    with pytest.raises(SingularityError, match=r"near t = 0\.0005$"):
        solve_auxiliary(W1, K0, ErmakovInit(0.05, -100.0), 1.0, 1e-3)


def test_singularity_guard_fires_after_a_step():
    # omega*h = 5: every stage input stays positive, the combined step
    # overshoots below the floor
    with pytest.raises(SingularityError, match=r"near t = 0\.01$"):
        solve_auxiliary(ConstantSchedule(500.0), K0, ErmakovInit(0.01, 0.0),
                        1.0, 0.01)


def test_perturbations_grow_at_half_kappa():
    # the friction enters anti-damped: deviations from the fixed point grow
    # like exp(+kappa t / 2) while the mean motion (tested in the evolution
    # module) decays like exp(-kappa t)
    kappa = 0.2
    sol = solve_auxiliary(W1, ConstantSchedule(kappa), ErmakovInit(1.001, 0.0), 20.0, 1e-3)
    dev = np.abs(sol.rho - 1.0)
    early = dev[sol.ts <= 5.0].max()
    late = dev[sol.ts >= 15.0].max()
    expected = np.exp(0.5 * kappa * 15.0)  # ~4.48
    assert expected * 0.7 < late / early < expected * 1.3


def test_init_validation():
    with pytest.raises(ValidationError):
        ErmakovInit(0.0, 0.0)
    with pytest.raises(ValidationError):
        solve_auxiliary(W1, K0, ErmakovInit(1.0, 0.0), 1.0, -0.1)


# -------------------------------------------------------------- linear mode


def test_mode_cosine():
    mode = solve_classical_mode(W1, (1.0, 0.0), 4.0, 1e-3)
    assert abs(mode.rho_at(np.pi) + 1.0) <= 1e-8
    ts = np.linspace(0.0, 4.0, 50)
    np.testing.assert_allclose(mode.rho_at(ts), np.cos(ts), atol=1e-9)


def test_mode_sine():
    mode = solve_classical_mode(W1, (0.0, 1.0), 4.0, 1e-3)
    ts = np.linspace(0.0, 4.0, 50)
    np.testing.assert_allclose(mode.rho_at(ts), np.sin(ts), atol=1e-9)


def test_mode_omega_two():
    mode = solve_classical_mode(ConstantSchedule(2.0), (1.0, 0.0), 4.0, 1e-3)
    assert abs(mode.rho_at(np.pi) - 1.0) <= 1e-8  # cos(2 pi)


# ---------------------------------------------------------------- residuals


def _nonequilibrium():
    w = SinusoidSchedule(1.0, 0.2, 0.5)
    k = ConstantSchedule(0.1)
    sol = solve_auxiliary(w, k, ErmakovInit(1.3, 0.2), 5.0, 1e-3)
    return sol, w, k


def test_residual_zero_on_equilibrium():
    k = ConstantSchedule(0.1)
    sol = solve_auxiliary(W1, k, ErmakovInit(1.0, 0.0), 5.0, 1e-3)
    for t in (0.0, 1.23456, 4.999):
        assert abs(auxiliary_residual(sol, W1, k, t)) <= 1e-14


def test_residual_small_on_converged_solution():
    sol, w, k = _nonequilibrium()
    nodes = sol.ts[::137]
    assert np.max(np.abs(auxiliary_residual(sol, w, k, nodes))) <= 1e-8
    assert max_residual_between_nodes(sol, w, k) <= 1e-8


def test_residual_detects_perturbed_solution():
    sol, w, k = _nonequilibrium()
    bumped = dataclasses.replace(sol, rho=sol.rho + 1e-3)
    t = 2.5
    r = auxiliary_residual(bumped, w, k, t)
    rho = sol.rho_at(t)
    expected = (w.eval(t) ** 2 + 3.0 * rho ** -4.0) * 1e-3
    assert abs(r) == pytest.approx(expected, rel=0.05)


def test_residual_fourth_order_convergence():
    w = SinusoidSchedule(1.0, 0.2, 0.5)
    k = ConstantSchedule(0.1)
    res = {}
    for h in (2e-3, 1e-3):
        sol = solve_auxiliary(w, k, ErmakovInit(1.3, 0.2), 5.0, h)
        res[h] = max_residual_between_nodes(sol, w, k)
    ratio = res[2e-3] / res[1e-3]
    assert 12.0 <= ratio <= 20.0


def test_residual_rejects_time_outside_window():
    sol, w, k = _nonequilibrium()
    with pytest.raises(ValidationError):
        auxiliary_residual(sol, w, k, 5.5)


# ------------------------------------------------------------------- series


def test_series_constant_coefficients():
    for wval in (0.5, 1.0, 3.0):
        w = ConstantSchedule(wval)
        k = ConstantSchedule(0.3)
        assert adiabatic_rho(w, k, 1.7) == pytest.approx(wval ** -0.5, abs=1e-15)
        assert abs(adiabatic_rhodot(w, k, 1.7)) <= 1e-12


def test_series_frozen_value_undamped_ramp():
    # omega = 1 + 0.01 t, kappa = 0 at t = 0: 1 - 3(0.01)^2/16
    w = LinearSchedule(1.0, 0.01)
    assert adiabatic_rho(w, K0, 0.0) == pytest.approx(0.99998125, abs=1e-12)


def test_series_frozen_value_damped_ramp():
    # omega = 1 + 0.01 t, kappa = 0.2 at t = 0:
    # 1 - 0.2*0.01/8 - (0.01^2/16)(3 - 1.75*0.04)
    w = LinearSchedule(1.0, 0.01)
    k = ConstantSchedule(0.2)
    assert adiabatic_rho(w, k, 0.0) == pytest.approx(0.9997316875, abs=1e-12)


def test_series_rejects_nonpositive_omega():
    w = LinearSchedule(0.1, -0.05)
    with pytest.raises(ValidationError):
        adiabatic_rho(w, K0, 5.0)


def test_series_error_scales_third_order_deep_in_slow_regime():
    """Truncation error of the displayed series against the relaxed branch.

    The friction-odd part of the error scales with the cube of the slow
    rate; it dominates once the rate is well below kappa, and halving the
    rate then cuts the error by roughly 8.  (At rates comparable to kappa
    the parity-even fourth-order part still competes; see the decisions
    ledger for measurements across the crossover.)
    """
    kappa = ConstantSchedule(0.05)
    h = 5e-3

    def err(eps):
        w = SinusoidSchedule(1.0, 0.5, eps)
        window = 2.0 * np.pi / eps
        ref = solve_tracking_reference(w, kappa, window, h)
        ts = np.linspace(0.0, window, 2001)
        return float(np.max(np.abs(ref.rho_at(ts) - adiabatic_rho(w, kappa, ts))))

    ratio = err(0.0125) / err(0.00625)
    assert 6.0 <= ratio <= 10.0, f"measured ratio {ratio:.3f}"


def test_tracking_reference_satisfies_equation():
    kappa = ConstantSchedule(0.05)
    w = SinusoidSchedule(1.0, 0.5, 0.05)
    ref = solve_tracking_reference(w, kappa, 30.0, 1e-3)
    assert max_residual_between_nodes(ref, w, kappa) <= 1e-8


# ------------------------------------------------------------------- export


def test_csv_export(tmp_path):
    sol = solve_auxiliary(W1, K0, ErmakovInit(1.2, 0.0), 1.0, 1e-2)
    path = tmp_path / "aux.csv"
    sol.write_csv(path, every=10)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,rho,rhodot"
    assert len(lines) == 1 + 11
    t, rho, rhodot = (float(v) for v in lines[1].split(","))
    assert (t, rho, rhodot) == (0.0, 1.2, 0.0)


def test_solution_record_is_immutable():
    sol = solve_auxiliary(W1, K0, ErmakovInit(1.0, 0.0), 1.0, 1e-2)
    with pytest.raises(ValueError):
        sol.rho[0] = 2.0
    assert isinstance(sol, ErmakovSolution)

import dataclasses
import itertools
import os
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from invariantlab.auxiliary import (
    ErmakovInit,
    ErmakovSolution,
    _half_grid_coefficients,
    _rk4,
    adiabatic_rho,
    adiabatic_rhodot,
    auxiliary_residual,
    max_residual_between_nodes,
    solve_auxiliary,
    solve_tracking_reference,
)
from invariantlab.errors import SingularityError, ValidationError
from invariantlab.scenario import load_scenario
from invariantlab.schedules import ConstantSchedule, LinearSchedule, SinusoidSchedule

W1 = ConstantSchedule(1.0)
K0 = ConstantSchedule(0.0)
SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


# ------------------------------------------------------------------- driver


def _rk4_max_error(kind: str, h: float) -> float:
    """Driver error on y' = -i t w y, y(0) = 1, over [0, 1] (exact: exp)."""
    if kind == "pair":
        # a real pair [x, p] for x + ip:  x' = t p,  p' = -t x
        w = 1.0
        rhs = lambda y, t: np.array([t * y[1], -t * y[0]])
        y0 = np.array([1.0, 0.0])
        value = lambda y: complex(y[0], y[1])
    else:
        w = np.array([1.0, 2.0, -0.5])
        rhs = lambda y, t: -1j * t * w * y
        y0 = np.ones(3, dtype=complex)
        value = lambda y: y
    errors = []

    def record(i, y):
        errors.append(np.max(np.abs(value(y) - np.exp(-0.5j * w * (i * h) ** 2))))

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

    y = _rk4(lambda y, c: c, stage, np.zeros(1), 10, 0.1,
             lambda i, y: nodes.append(i), every=3)
    assert stages == list(range(21))  # 2n + 1 evaluations, none repeated
    assert nodes == [0, 3, 6, 9, 10]
    assert y == pytest.approx(1.0, abs=1e-12)


def test_rk4_driver_records_from_the_skipped_node_on():
    nodes = []
    _rk4(lambda y, c: c, lambda j: 1.0, np.zeros(1), 12, 0.1,
         lambda i, y: nodes.append(i), every=3, skip=5)
    assert nodes == [5, 8, 11, 12]


@pytest.mark.parametrize("kind", ["pair", "array"])
def test_rk4_driver_steps_backward_with_a_negative_step(kind):
    """y' = -i t w y from its exact value at t = 1 back to t = 0, with the
    stage data read at the descending times 1 - j*h/2; the pair steps
    [x, p] for y = x + ip."""
    h = 0.01
    if kind == "pair":
        rhs = lambda y, t: np.array([t * y[1], -t * y[0]])
        y1, exact = np.array([np.cos(0.5), -np.sin(0.5)]), np.array([1.0, 0.0])
    else:
        w = np.array([1.0, 2.0, -0.5])
        rhs = lambda y, t: -1j * t * w * y
        y1, exact = np.exp(-0.5j * w), 1.0
    y0 = _rk4(rhs, lambda j: 1.0 - 0.5 * h * j, y1, 100, -h, lambda i, y: None)
    assert np.max(np.abs(y0 - exact)) < 1e-8


def _array_run(rhs, y0, n, h):
    """(final state, arrays handed to record, their values when handed)."""
    handed, values = [], []

    def record(i, y):
        handed.append(y)
        values.append(y.copy())

    y = _rk4(rhs, lambda j: 0.5 * h * j, y0, n, h, record, every=3)
    return y, handed, values


def test_rk4_driver_hands_out_arrays_no_later_step_writes():
    """An array state is stepped in the driver's own buffers: the caller's
    y0 and every array handed to ``record`` keep their values through the
    later steps, and the returned state aliases none of them.  A
    right-hand side that returns its slopes in four buffers used in
    rotation steps bit for bit as one that returns fresh arrays; three
    buffers would overwrite a step's first slope before its combination."""
    w = np.array([1.0, 2.0, -0.5])
    h, n = 0.05, 20
    y0 = np.ones(3, dtype=complex)

    def fresh(y, t):
        return (-1j * t * w) * y

    def rotating(count):
        buffers = itertools.cycle(np.zeros((count, 3), dtype=complex))
        return lambda y, t: np.multiply(-1j * t * w, y, out=next(buffers))

    y, handed, values = _array_run(fresh, y0, n, h)
    np.testing.assert_array_equal(y0, np.ones(3))
    assert len(handed) == 8  # nodes 0, 3, ..., 18 and 20
    for arr, value in zip(handed, values):
        np.testing.assert_array_equal(arr, value)
    np.testing.assert_array_equal(y, values[-1])
    assert not any(np.shares_memory(y, a) for a in (y0, *handed))

    y4, _, values4 = _array_run(rotating(4), y0, n, h)
    np.testing.assert_array_equal(y4, y)
    for got, want in zip(values4, values):
        np.testing.assert_array_equal(got, want)
    y3, _, _ = _array_run(rotating(3), y0, n, h)
    assert not np.array_equal(y3, y)


def test_rk4_scalar_nodes_are_the_plain_complex_loop():
    """On finite values the real pair rounds as one Python complex stepped
    through y + c s and y + h/6 (s1 + 2 (s2 + s3) + s4): every node of
    ``solve_auxiliary`` equals bit for bit a plain loop that writes that
    arithmetic out."""
    omega_s, kappa_s = SinusoidSchedule(1.0, 0.2, 0.1), ConstantSchedule(0.1)
    h, n = 1e-2, 300
    sol = solve_auxiliary(omega_s, kappa_s, ErmakovInit(1.1, 0.05), n * h, h)
    _, omega_sq, kappa = _half_grid_coefficients(omega_s, kappa_s, n, h)
    ks, ws = kappa.tolist(), omega_sq.tolist()

    def rhs(y, j):
        r, v = y.real, y.imag
        return complex(v, ks[j] * v - ws[j] * r + 1.0 / (r * r * r))

    y = complex(1.1, 0.05)
    nodes = [y]
    for i in range(n):
        s1 = rhs(y, 2 * i)
        s2 = rhs(y + 0.5 * h * s1, 2 * i + 1)
        s3 = rhs(y + 0.5 * h * s2, 2 * i + 1)
        s4 = rhs(y + h * s3, 2 * i + 2)
        y = y + (h / 6.0) * (s1 + 2.0 * (s2 + s3) + s4)
        nodes.append(y)
    np.testing.assert_array_equal(sol.rho, [z.real for z in nodes])
    np.testing.assert_array_equal(sol.rhodot, [z.imag for z in nodes])


@pytest.mark.parametrize("name, init", [
    ("baseline", None), ("adiabatic", None), ("baseline", ErmakovInit(1.3, 0.2)),
], ids=["baseline", "adiabatic", "baseline-kicked"])
def test_auxiliary_loop_is_the_driver_on_a_float_pair(name, init):
    """``solve_auxiliary`` writes ``_rk4``'s stages and step combination
    out for the real pair (rho, rhodot): over a shipped scenario's whole
    window its nodes equal, bit for bit, the driver stepping a float (2,)
    array [rho, rhodot] with the same right-hand side.  The scenarios
    start on the slow branch, where a step's increment is too small for
    most rounding slips to reach a node; the kicked start off it is
    not."""
    s = load_scenario(os.path.join(SCENARIOS, f"{name}.cfg"))
    init = init or s.initial_auxiliary()
    sol = solve_auxiliary(s.omega_schedule, s.kappa_schedule, init,
                          s.t_max, s.step_h)
    n = len(sol.ts) - 1
    _, omega_sq, kappa = _half_grid_coefficients(
        s.omega_schedule, s.kappa_schedule, n, s.step_h)

    def rhs(y, j):
        r, v = y
        return np.array([v, kappa[j] * v - omega_sq[j] * r + 1.0 / (r * r * r)])

    nodes = np.empty((n + 1, 2))
    _rk4(rhs, lambda j: j, np.array([init.rho0, init.rhodot0]), n, s.step_h,
         nodes.__setitem__)
    np.testing.assert_array_equal(sol.rho, nodes[:, 0])
    np.testing.assert_array_equal(sol.rhodot, nodes[:, 1])


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


def test_singularity_guard_fires_at_the_third_stage():
    # omega^2 r far above r^-3 pulls rho down: in step 10 the second
    # stage input r + h/2 v stays positive, the third, r + h/2 v2, does
    # not; it is reported at its time 0.5 h (2i + 1) with its own value
    with pytest.raises(SingularityError,
                       match=r"^rho reached -6\.733e-02 .* near t = 0\.21$"):
        solve_auxiliary(ConstantSchedule(50.0), K0, ErmakovInit(0.2, 0.0),
                        1.0, 0.02)


def test_singularity_guard_fires_at_the_fourth_stage():
    # the full-step stage input r + h v3 of step 63 is the first below the
    # floor; it is reported at 0.5 h (2i + 2), the next node's time, with
    # its own value, not the node's
    with pytest.raises(SingularityError,
                       match=r"^rho reached -2\.126e-01 .* near t = 0\.64$"):
        solve_auxiliary(ConstantSchedule(10.0), K0, ErmakovInit(0.1, -10.0),
                        1.0, 0.01)


def test_overflowed_solution_raises_singularity():
    # kappa = 20 anti-damps rhodot until rho overflows near t = 35 and the
    # next stage computes inf - inf; the nan must fail the floor check
    # instead of filling the rest of the samples
    with pytest.raises(SingularityError, match=r"rho reached nan") as info:
        solve_auxiliary(ConstantSchedule(1.0), ConstantSchedule(20.0),
                        ErmakovInit(1.0, 0.1), 80.0, 1e-2)
    assert info.value.exit_code == 3


@pytest.mark.parametrize("field", ["rho", "rhodot", "rhoddot"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solution_record_rejects_non_finite_samples(field, bad):
    ts = np.linspace(0.0, 1.0, 5)
    fields = {"rho": np.ones(5), "rhodot": np.zeros(5), "rhoddot": np.zeros(5)}
    fields[field][2] = bad
    with pytest.raises(ValidationError, match="finite"):
        ErmakovSolution(ts=ts, **fields)


def test_solve_allocates_no_per_stage_list():
    """A 20 000-step solve peaks, under tracemalloc, below the bytes of its
    coefficient arrays (stage times, omega^2 and kappa on the 2n + 1 stage
    grid) and of its four node arrays, counted twice since the record
    keeps private copies, plus 20 %.  A Python float per stage held in a
    list would cost 32 bytes where its array cell costs 8.  Measured:
    2.26 MB against a 2.69 MB budget; ``tolist()`` of the two coefficient
    arrays read 4.82 MB."""
    args = (SinusoidSchedule(1.0, 0.2, 0.1), ConstantSchedule(0.1),
            ErmakovInit(1.0, 0.0))
    n, h = 20000, 1e-3
    solve_auxiliary(*args, 10 * h, h)
    tracemalloc.start()
    try:
        solve_auxiliary(*args, n * h, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    floats = 3 * (2 * n + 1) + 2 * 4 * (n + 1)
    assert peak < 1.2 * 8 * floats


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
    sol.write_csv(path, idx=np.array([0, 10, 100]))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,rho,rhodot"
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.1, 1.0]
    t, rho, rhodot = (float(v) for v in lines[1].split(","))
    assert (t, rho, rhodot) == (0.0, 1.2, 0.0)
    sol.write_csv(path)
    assert len(path.read_text().strip().split("\n")) == 1 + 101


def test_solution_record_is_immutable():
    sol = solve_auxiliary(W1, K0, ErmakovInit(1.0, 0.0), 1.0, 1e-2)
    with pytest.raises(ValueError):
        sol.rho[0] = 2.0
    assert isinstance(sol, ErmakovSolution)

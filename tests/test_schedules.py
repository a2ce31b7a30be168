import numpy as np
import pytest

from invariantlab.errors import NegativeFrictionError, ParseError, ValidationError
from invariantlab.runner import RunReport, _check_schedule_validity
from invariantlab.scenario import build_scenario
from invariantlab.schedules import (
    ConstantSchedule,
    LinearSchedule,
    SinusoidSchedule,
    TableSchedule,
    _check_friction,
    load_table_csv,
    modulated_frequency_sq,
)


def test_constant_derivatives():
    s = ConstantSchedule(1.0)
    assert s.eval(3.7, 0) == 1.0
    assert s.eval(3.7, 1) == 0.0
    assert s.eval(3.7, 2) == 0.0


def test_linear_eval():
    s = LinearSchedule(intercept=1.0, slope=0.1)
    assert abs(s.eval(2.0, 0) - 1.2) < 1e-15
    assert s.eval(5.0, 1) == 0.1
    assert s.eval(5.0, 2) == 0.0


def test_sinusoid_eval():
    s = SinusoidSchedule(base=1.0, amplitude=0.5, frequency=0.2)
    assert abs(s.eval(0.0, 1) - 0.1) < 1e-15   # A*nu at zero phase
    assert abs(s.eval(0.0, 0) - 1.0) < 1e-15
    t = np.pi / 0.4  # frequency*t = pi/2
    assert abs(s.eval(t, 0) - 1.5) < 1e-12
    assert abs(s.eval(t, 2) + 0.5 * 0.04) < 1e-14


@pytest.mark.parametrize(
    "s",
    [
        LinearSchedule(0.7, 0.3),
        SinusoidSchedule(1.0, 0.4, 0.9, 0.3),
    ],
)
def test_closed_form_derivatives_match_finite_differences(s):
    step = 1e-5
    for t in (0.4, 1.9, 7.3):
        fd1 = (s.eval(t + step) - s.eval(t - step)) / (2 * step)
        fd2 = (s.eval(t + step) - 2 * s.eval(t) + s.eval(t - step)) / step**2
        assert abs(s.eval(t, 1) - fd1) <= 1e-6 * max(1.0, abs(fd1))
        assert abs(s.eval(t, 2) - fd2) <= 1e-4 * max(1.0, abs(fd2))


def test_vectorized_eval_matches_scalar():
    s = SinusoidSchedule(1.0, 0.2, 0.5, 0.1)
    ts = np.linspace(0.0, 10.0, 7)
    vec = s.eval(ts, 1)
    for t, v in zip(ts, vec):
        assert abs(s.eval(float(t), 1) - v) < 1e-15


# --------------------------------------------------------------------- tables


def _quadratic_table(n=41, t1=10.0):
    ts = np.linspace(0.0, t1, n)
    return TableSchedule(ts, 1.0 + 0.02 * ts + 0.003 * ts**2)


def test_table_matches_smooth_function_inside():
    s = _quadratic_table()
    for t in (1.3, 4.9, 8.2):
        assert abs(s.eval(t) - (1.0 + 0.02 * t + 0.003 * t**2)) < 1e-6
        assert abs(s.eval(t, 1) - (0.02 + 0.006 * t)) < 1e-5


def test_table_second_derivative_clamped_at_edges():
    s = _quadratic_table()
    # the natural spline would report ~0 curvature at the very edge;
    # clamping returns the innermost-knot value instead
    inner = s.eval(float(s.times[1]), 2)
    assert abs(s.eval(0.0, 2) - inner) < 1e-12
    # near (not exactly at) the true curvature: the natural boundary
    # condition still bleeds into the first interior knot
    assert abs(inner - 0.006) < 3e-3
    # two knots further in, the curvature is essentially exact
    assert abs(s.eval(float(s.times[3]), 2) - 0.006) < 2e-4


def test_table_rejects_bad_input():
    with pytest.raises(ValidationError):
        TableSchedule([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])  # too few points
    with pytest.raises(ValidationError):
        TableSchedule([0.0, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0])  # not increasing


def test_table_window_enforced():
    s = _quadratic_table(t1=5.0)
    with pytest.raises(ValidationError):
        s.eval(5.2)
    assert not s.covers(0.0, 6.0)
    assert s.covers(0.0, 5.0)


def test_table_csv_roundtrip(tmp_path):
    path = tmp_path / "omega.csv"
    ts = np.linspace(0.0, 4.0, 9)
    vals = 1.0 + 0.1 * np.sin(ts)
    lines = ["t,value"] + [f"{t},{v}" for t, v in zip(ts, vals)]
    path.write_text("\n".join(lines) + "\n")
    s = load_table_csv(path)
    assert abs(s.eval(2.0) - (1.0 + 0.1 * np.sin(2.0))) < 1e-3


def test_table_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,omega\n0,1\n1,1\n2,1\n3,1\n")
    with pytest.raises(ParseError):
        load_table_csv(path)


# ------------------------------------------------------- modulated frequency


def test_modulated_frequency_constants():
    w = ConstantSchedule(1.0)
    k = ConstantSchedule(0.1)
    assert abs(modulated_frequency_sq(w, k, 2.0) - 1.01) < 1e-15


def test_modulated_frequency_no_damping():
    w = SinusoidSchedule(1.0, 0.3, 0.2)
    k = ConstantSchedule(0.0)
    for t in (0.0, 1.0, 5.0):
        assert modulated_frequency_sq(w, k, t) == w.eval(t) ** 2


def test_modulated_frequency_ramp():
    w = ConstantSchedule(1.0)
    k = LinearSchedule(0.0, 0.1)
    assert abs(modulated_frequency_sq(w, k, 0.0) - 1.1) < 1e-15


# ------------------------------------------------------------------ validate
# Loading refuses negative friction; the verify battery's advisory
# schedule-validity check reads the modulated frequency's sign.


def test_validate_clean_pair():
    s = build_scenario({"omega.kind": "constant", "omega.value": "1.0",
                        "kappa.value": "0.05", "run.t_max": "20.0"})
    check = _check_schedule_validity(s)
    assert check.passed and check.warning
    assert check.note == "advisory only"


def test_validate_negative_kappa_is_hard_error():
    grid = np.linspace(0.0, 10.0, 101)
    with pytest.raises(NegativeFrictionError):
        _check_friction(grid, ConstantSchedule(-0.01).eval(grid, 0))
    with pytest.raises(ValidationError,
                       match=r"^kappa: NegativeFriction: kappa\(0\) = "):
        build_scenario({"omega.kind": "constant", "omega.value": "1.0",
                        "kappa.value": "-0.01", "run.t_max": "10.0"})


def test_validate_negative_modulated_frequency_warns_only():
    # omega = 0.1, kappa = 0.5 - 0.05 t: omega^2 + kappa^2 + kappadot
    # = 0.01 + kappa^2 - 0.05 dips below zero for t > 6, before the end
    # of [0, 10]
    s = build_scenario({"omega.kind": "constant", "omega.value": "0.1",
                        "kappa.kind": "linear", "kappa.intercept": "0.5",
                        "kappa.slope": "-0.05", "run.t_max": "10.0"})
    check = _check_schedule_validity(s)
    assert check.warning and not check.passed
    assert check.measured < 0
    grid = np.linspace(0.0, 10.0, 1001)
    first = grid[np.argmax(0.01 + (0.5 - 0.05 * grid) ** 2 - 0.05 < 0)]
    assert 6.0 <= first <= 6.02
    assert check.note == f"modulated frequency^2 first negative at t={first:g}"
    assert RunReport((check,), 0.0).overall


def test_validate_deterministic():
    settings = {"omega.kind": "sinusoid", "omega.base": "1.0",
                "omega.amplitude": "0.2", "omega.rate": "0.1",
                "kappa.value": "0.1", "run.t_max": "20.0"}
    r1 = _check_schedule_validity(build_scenario(settings))
    r2 = _check_schedule_validity(build_scenario(settings))
    assert r1 == r2
    assert r1.measured == r2.measured

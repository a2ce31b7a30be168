import os

import numpy as np
import pytest

from invariantlab.cli import main
from invariantlab.errors import ParseError, ValidationError
from invariantlab.runner import run_scenario, sweep, verify_scenario
from invariantlab.scenario import (
    _SCHEMA,
    build_scenario,
    load_scenario,
    parse_settings,
    schema_text,
)
from invariantlab.schedules import ConstantSchedule, SinusoidSchedule

MINIMAL = "omega.kind = constant\nomega.value = 1.0\n"

SMALL = """\
omega.kind = constant
omega.value = 1.0
kappa.value = 0.1
basis.dim = 16
run.t_max = 1.0
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_text(text, tmp_path, name="case.cfg"):
    return load_scenario(write_cfg(tmp_path, text, name))


# ---------------------------------------------------------------- parsing


def test_minimal_file_gets_all_defaults(tmp_path):
    s = load_text(MINIMAL, tmp_path)
    assert s.basis.dim == 60
    assert s.basis.omega_ref == 1.0
    assert s.t_max == 20.0
    assert s.step_h == 1e-3
    assert s.record_every == 100
    assert s.backend == "fock"
    assert s.csv_precision == 12
    assert isinstance(s.kappa_schedule, ConstantSchedule)
    assert s.kappa_schedule(5.0) == 0.0
    assert not s.dissipative
    assert s.use_adiabatic_init
    assert s.state.kind == "coherent"
    assert abs(s.state.beta - 2 ** -0.5) < 1e-15
    assert s.tolerances.conservation == 1e-5
    assert s.adiabatic_epsilon is None


def test_comments_and_blank_lines_are_ignored():
    settings = parse_settings(
        "# heading\n\nomega.kind = constant  # trailing\nomega.value = 1.0\n")
    assert settings == {"omega.kind": "constant", "omega.value": "1.0"}


def test_unknown_key_is_fatal_and_named():
    with pytest.raises(ValidationError, match="omega.schedle"):
        parse_settings("omega.schedle = constant\n")


def test_duplicate_key_is_fatal():
    with pytest.raises(ValidationError, match="duplicate key 'omega.value'"):
        parse_settings("omega.value = 1.0\nomega.value = 2.0\n")


def test_line_without_equals_is_a_parse_error():
    with pytest.raises(ParseError, match="line 2"):
        parse_settings("omega.kind = constant\nomega.value 1.0\n")


def test_empty_value_is_a_parse_error():
    with pytest.raises(ParseError, match="empty key or value"):
        parse_settings("omega.kind =\n")


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_scenario(str(tmp_path / "absent.cfg"))


def test_negative_friction_is_rejected(tmp_path):
    with pytest.raises(ValidationError, match="NegativeFriction"):
        load_text(MINIMAL + "kappa.value = -0.1\n", tmp_path)


def test_unreadable_number_is_rejected(tmp_path):
    with pytest.raises(ValidationError, match="run.t_max"):
        load_text(MINIMAL + "run.t_max = soon\n", tmp_path)


def test_unreadable_bool_is_rejected(tmp_path):
    with pytest.raises(ValidationError, match="use_adiabatic_init"):
        load_text(MINIMAL + "auxiliary.use_adiabatic_init = maybe\n", tmp_path)


@pytest.mark.parametrize("extra, fragment", [
    ("run.t_max = -1.0\n", "t_max"),
    ("run.t_max = 1.0\nrun.step_h = 2.0\n", "step_h"),
    ("run.record_every = 0\n", "record_every"),
    ("run.backend = magic\n", "backend"),
    ("run.adiabatic_epsilon = 0.0\n", "adiabatic_epsilon"),
    ("outputs.csv_precision = 2\n", "csv_precision"),
    ("tolerances.residual = 0.0\n", "residual"),
])
def test_out_of_range_values_are_rejected(tmp_path, extra, fragment):
    with pytest.raises(ValidationError, match=fragment):
        load_text(MINIMAL + extra, tmp_path)


@pytest.mark.parametrize("extra, fragment", [
    # schedule keys from the wrong kind
    ("omega.slope = 0.1\n", "omega.slope"),
    ("kappa.kind = linear\nkappa.intercept = 0.1\n", "kappa.slope"),
    # state keys from the wrong kind
    ("state.kind = fock\nstate.beta_re = 1.0\n", "state.beta_re"),
    ("state.kind = coherent\nstate.fock_n = 2\n", "state.fock_n"),
    # auxiliary conflicts
    ("auxiliary.rho0 = 1.0\n", "auxiliary.rho0"),
    ("auxiliary.use_adiabatic_init = false\n", "auxiliary.rho0"),
])
def test_conditional_key_conflicts_are_rejected(tmp_path, extra, fragment):
    with pytest.raises(ValidationError, match=fragment):
        load_text(MINIMAL + extra, tmp_path)


def test_explicit_auxiliary_start_is_accepted(tmp_path):
    s = load_text(MINIMAL + "auxiliary.use_adiabatic_init = false\n"
                  "auxiliary.rho0 = 1.2\nauxiliary.rhodot0 = -0.1\n", tmp_path)
    init = s.initial_auxiliary()
    assert init.rho0 == 1.2 and init.rhodot0 == -0.1


def test_omega_ref_defaults_to_initial_frequency(tmp_path):
    s = load_text("omega.kind = linear\nomega.intercept = 1.3\n"
                  "omega.slope = 0.01\n", tmp_path)
    assert s.basis.omega_ref == 1.3


def test_table_schedule_path_is_relative_to_the_config(tmp_path):
    rows = "t,value\n" + "".join(
        f"{t},{1.0 + 0.05 * t}\n" for t in np.linspace(0.0, 2.5, 11))
    (tmp_path / "freq.csv").write_text(rows)
    s = load_text("omega.kind = table\nomega.table = freq.csv\n"
                  "run.t_max = 2.0\n", tmp_path)
    assert abs(s.omega_schedule(2.0) - 1.1) < 1e-12


def test_table_not_covering_the_window_is_rejected(tmp_path):
    rows = "t,value\n0.0,1.0\n0.5,1.0\n1.0,1.0\n1.5,1.0\n"
    (tmp_path / "freq.csv").write_text(rows)
    with pytest.raises(ValidationError, match="cover"):
        load_text("omega.kind = table\nomega.table = freq.csv\n"
                  "run.t_max = 2.0\n", tmp_path)


def test_oversized_state_for_the_basis_is_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_text(MINIMAL + "basis.dim = 16\nstate.kind = thermal\n"
                  "state.nbar = 10.0\n", tmp_path)


def test_with_setting_rebuilds_through_validation(tmp_path):
    s = load_text(SMALL, tmp_path)
    s2 = s.with_setting("kappa.value", "0.2")
    assert s2.kappa_schedule(0.0) == 0.2
    assert s.kappa_schedule(0.0) == 0.1  # original untouched
    with pytest.raises(ValidationError, match="NegativeFriction"):
        s.with_setting("kappa.value", "-1.0")
    with pytest.raises(ValidationError, match="unknown key"):
        s.with_setting("kappa.valeu", "0.2")


def test_schema_text_lists_every_key():
    text = schema_text()
    for key in _SCHEMA:
        assert key in text


def test_build_scenario_accepts_a_plain_mapping():
    s = build_scenario({"omega.kind": "constant", "omega.value": "1.0"})
    assert s.t_max == 20.0


# ---------------------------------------------------------------- running


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def first_line(path):
    with open(path) as fh:
        return fh.readline().strip()


def test_run_writes_the_four_artifacts_with_stable_headers(tmp_path):
    s = load_text(SMALL, tmp_path)
    out = tmp_path / "out"
    result = run_scenario(s, out_dir=str(out))
    assert sorted(os.listdir(out)) == [
        "ermakov.csv", "invariant.csv", "spectrum.csv", "trajectory.csv"]
    assert first_line(out / "trajectory.csv") == (
        "t,mean_x,mean_p,k1,k2,k3,trace,herm_dev,min_eig,tail_pop")
    assert first_line(out / "ermakov.csv") == "t,rho,rhodot"
    assert first_line(out / "invariant.csv") == "t,expect_I,rel_drift"
    assert first_line(out / "spectrum.csv").startswith("t,lambda_0,lambda_1")
    assert result.max_rel_drift <= 1e-8


def test_identical_scenarios_produce_byte_identical_artifacts(tmp_path):
    s = load_text(SMALL, tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(s, out_dir=str(a))
    run_scenario(s, out_dir=str(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_constant_case_conserves_the_unit_expectation(tmp_path):
    s = load_text(SMALL, tmp_path)
    out = tmp_path / "out"
    run_scenario(s, out_dir=str(out))
    table = read_csv(out / "invariant.csv")
    np.testing.assert_allclose(table["expect_I"], 1.0, rtol=0, atol=1e-8)


def test_frictionless_modulated_spectrum_is_time_constant(tmp_path):
    s = load_text("omega.kind = sinusoid\nomega.base = 1.0\n"
                  "omega.amplitude = 0.2\nomega.rate = 0.1\n"
                  "basis.dim = 16\nrun.t_max = 2.0\n", tmp_path)
    out = tmp_path / "out"
    run_scenario(s, out_dir=str(out))
    table = read_csv(out / "spectrum.csv")
    for n in range(5):
        np.testing.assert_allclose(table[f"lambda_{n}"], n + 0.5,
                                   rtol=0, atol=1e-6)


def test_moment_backend_writes_reduced_trajectory_columns(tmp_path):
    s = load_text(SMALL + "run.backend = moments\n", tmp_path)
    out = tmp_path / "out"
    run_scenario(s, out_dir=str(out))
    assert first_line(out / "trajectory.csv") == "t,mean_x,mean_p,k1,k2,k3"
    table = read_csv(out / "trajectory.csv")
    assert table["t"][-1] == s.t_max
    full = run_scenario(load_text(SMALL, tmp_path, "fock.cfg"),
                        out_dir=str(tmp_path / "fock_out"))
    fock = read_csv(tmp_path / "fock_out" / "trajectory.csv")
    for col in ("mean_x", "mean_p", "k1", "k2", "k3"):
        np.testing.assert_allclose(table[col], fock[col], rtol=0, atol=1e-6)


# ---------------------------------------------------------------- verifying


def test_verify_passes_on_an_equilibrium_scenario(tmp_path):
    report = verify_scenario(load_text(SMALL, tmp_path))
    assert report.overall
    names = [c.name for c in report.checks]
    for want in ("su11-algebra", "auxiliary-residual", "constraint-identities",
                 "invariant-residual", "conservation", "spectrum-constancy",
                 "state-trace", "state-hermiticity", "state-positivity",
                 "state-tail", "drift-crosscheck", "schedule-validity"):
        assert want in names
    lines = report.format_lines()
    assert len(lines) == len(report.checks) + 1
    assert lines[-1].startswith("overall: PASS")


def test_verify_with_moment_backend_skips_state_level_checks(tmp_path):
    report = verify_scenario(load_text(SMALL + "run.backend = moments\n",
                                       tmp_path))
    names = [c.name for c in report.checks]
    assert report.overall
    assert "conservation" in names
    for absent in ("spectrum-constancy", "state-trace", "state-positivity"):
        assert absent not in names


def test_verify_reports_backend_agreement_for_both(tmp_path):
    report = verify_scenario(load_text(SMALL + "run.backend = both\n",
                                       tmp_path))
    agreement = {c.name: c for c in report.checks}["backend-agreement"]
    assert agreement.passed and agreement.measured <= 1e-5


def test_backend_agreement_holds_when_the_step_does_not_divide_the_window(
        tmp_path):
    # 1.0 / 3e-4 = 3333.3: the integrators take 3334 steps, and the record
    # grid must end on the same node
    report = verify_scenario(load_text(
        SMALL + "run.backend = both\nrun.step_h = 3e-4\n", tmp_path))
    agreement = {c.name: c for c in report.checks}["backend-agreement"]
    assert agreement.passed and agreement.measured <= 1e-12


def test_verify_flags_a_dissipative_modulated_residual(tmp_path):
    # friction with a moving auxiliary solution leaves a genuine
    # operator-equation defect, far above the default residual budget
    text = ("omega.kind = sinusoid\nomega.base = 1.0\n"
            "omega.amplitude = 0.2\nomega.rate = 0.1\n"
            "kappa.value = 0.1\nbasis.dim = 16\nrun.t_max = 1.0\n")
    report = verify_scenario(load_text(text, tmp_path))
    by_name = {c.name: c for c in report.checks}
    assert not by_name["invariant-residual"].passed
    assert by_name["invariant-residual"].measured > 1e-3
    assert not report.overall
    # budgeting the tolerance for the defect turns the same scenario green
    relaxed = verify_scenario(load_text(
        text + "tolerances.residual = 0.05\ntolerances.conservation = 1e-3\n",
        tmp_path, "relaxed.cfg"))
    assert relaxed.overall


def test_verify_survives_an_overcoarse_step_and_reports_failures(tmp_path):
    # an off-equilibrium start makes the auxiliary solution ring on the
    # fast timescale, so a 0.1 step is genuinely too coarse for it
    report = verify_scenario(load_text(
        "omega.kind = sinusoid\nomega.base = 1.0\nomega.amplitude = 0.2\n"
        "omega.rate = 0.1\nkappa.value = 0.1\nbasis.dim = 24\n"
        "run.t_max = 2.0\nrun.step_h = 0.1\nrun.record_every = 1\n"
        "auxiliary.use_adiabatic_init = false\nauxiliary.rho0 = 1.5\n"
        "auxiliary.rhodot0 = 0.0\n", tmp_path))
    by_name = {c.name: c for c in report.checks}
    assert not report.overall
    assert not by_name["auxiliary-residual"].passed
    assert np.isfinite(by_name["auxiliary-residual"].measured)
    assert not by_name["invariant-residual"].passed
    assert not by_name["conservation"].passed


def test_verify_runs_the_adiabatic_check_only_when_declared(tmp_path):
    base = ("omega.kind = sinusoid\nomega.base = 1.0\n"
            "omega.amplitude = 0.5\nomega.rate = 0.05\nkappa.value = 0.05\n"
            "basis.dim = 16\nrun.t_max = 20.0\nrun.backend = moments\n"
            "tolerances.residual = 0.05\ntolerances.conservation = 1e-3\n")
    names = [c.name for c in verify_scenario(load_text(base, tmp_path)).checks]
    assert "adiabatic-scaling" not in names
    report = verify_scenario(load_text(
        base + "run.adiabatic_epsilon = 0.05\n", tmp_path, "declared.cfg"))
    scaling = {c.name: c for c in report.checks}["adiabatic-scaling"]
    assert scaling.passed
    assert 6.0 <= scaling.measured <= 10.0


def test_declared_epsilon_must_match_the_schedule_rate(tmp_path):
    with pytest.raises(ValidationError, match="adiabatic_epsilon"):
        verify_scenario(load_text(
            "omega.kind = sinusoid\nomega.base = 1.0\nomega.amplitude = 0.5\n"
            "omega.rate = 0.05\nbasis.dim = 16\nrun.t_max = 1.0\n"
            "run.adiabatic_epsilon = 0.1\n", tmp_path))


# ---------------------------------------------------------------- sweeping


def test_sweep_rows_follow_input_order(tmp_path):
    s = load_text(SMALL, tmp_path)
    out = tmp_path / "sweep.csv"
    rows = sweep(s, "kappa.value", ["0", "0.05", "0.1"], str(out))
    assert [r["value"] for r in rows] == [0.0, 0.05, 0.1]
    # equilibrium scenarios: the residual metrics stay at rounding level
    assert all(r["max_invariant_residual"] <= 1e-10 for r in rows)
    table = read_csv(out)
    np.testing.assert_allclose(table["value"], [0.0, 0.05, 0.1])
    assert first_line(out) == ("value,max_rel_drift,max_aux_residual,"
                               "max_constraint_residual,"
                               "max_invariant_residual,final_mean_x")


@pytest.mark.parametrize("backend", ["fock", "moments"])
def test_sweep_row_equals_the_verify_battery(tmp_path, backend):
    s = load_text(SMALL + f"run.backend = {backend}\n", tmp_path)
    (row,) = sweep(s, "kappa.value", ["0.05"], str(tmp_path / "sweep.csv"))
    report = verify_scenario(s.with_setting("kappa.value", "0.05"))
    measured = {c.name: c.measured for c in report.checks}
    assert row["max_rel_drift"] == measured["conservation"]
    assert row["max_aux_residual"] == measured["auxiliary-residual"]
    assert row["max_constraint_residual"] == measured["constraint-identities"]
    assert row["max_invariant_residual"] == measured["invariant-residual"]


def test_sweep_rejects_an_empty_value_list(tmp_path):
    s = load_text(SMALL, tmp_path)
    with pytest.raises(ValidationError, match="at least one"):
        sweep(s, "kappa.value", [], str(tmp_path / "sweep.csv"))


def test_sweep_rejects_a_bad_value_through_validation(tmp_path):
    s = load_text(SMALL, tmp_path)
    with pytest.raises(ValidationError, match="NegativeFriction"):
        sweep(s, "kappa.value", ["0.1", "-0.2"], str(tmp_path / "sweep.csv"))


# ---------------------------------------------------------------- CLI


def test_cli_run_succeeds_and_prints_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "trajectory.csv" in stdout and "max relative drift" in stdout


def test_cli_verify_exit_codes_follow_the_report(tmp_path, capsys):
    good = write_cfg(tmp_path, SMALL, "good.cfg")
    assert main(["verify", "--config", good]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    # a modulated dissipative scenario genuinely drifts, so the default
    # conservation budget fails
    bad = write_cfg(
        tmp_path, "omega.kind = sinusoid\nomega.base = 1.0\n"
        "omega.amplitude = 0.2\nomega.rate = 0.1\nkappa.value = 0.1\n"
        "basis.dim = 16\nrun.t_max = 2.0\n", "bad.cfg")
    assert main(["verify", "--config", bad]) == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out and "FAIL conservation" in out


def test_cli_reports_config_errors_with_exit_code_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL + "omega.schedle = 1\n")
    assert main(["run", "--config", cfg]) == 2
    assert "omega.schedle" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_sweep_writes_the_aggregate_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL + f"outputs.directory = {tmp_path}/sw\n")
    code = main(["sweep", "--config", cfg, "--param", "kappa.value",
                 "--values", "0,0.1"])
    assert code == 0
    assert os.path.exists(tmp_path / "sw" / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--param", "kappa.value",
                 "--values", ","]) == 2
    capsys.readouterr()


def test_cli_schema_prints_every_key(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    for key in _SCHEMA:
        assert key in out

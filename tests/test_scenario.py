import dataclasses
import glob
import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import invariantlab
from invariantlab import invariants, lindblad, runner
from invariantlab.auxiliary import (
    ErmakovInit,
    adiabatic_rho,
    adiabatic_rhodot,
    solve_auxiliary,
)
from invariantlab.cli import main
from invariantlab.errors import NumericalError, ParseError, ValidationError
from invariantlab.operators import BasisConfig
from invariantlab.runner import (
    ARTIFACT_FILES,
    run_scenario,
    sweep,
    verify_scenario,
)
from invariantlab.scenario import (
    _SCHEMA,
    VALIDATION_GRID_POINTS,
    _Settings,
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


SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


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
    assert not np.any(s.kappa_schedule(
        np.linspace(0.0, s.t_max, VALIDATION_GRID_POINTS)))
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


def test_only_a_table_schedule_imports_scipy(tmp_path):
    """In a fresh interpreter, loading every shipped scenario leaves scipy
    out of ``sys.modules``; a table scenario loaded after them imports it
    and its schedule interpolates."""
    rows = "t,value\n" + "".join(
        f"{t},{1.0 + 0.05 * t}\n" for t in np.linspace(0.0, 2.5, 11))
    (tmp_path / "freq.csv").write_text(rows)
    table = write_cfg(tmp_path, "omega.kind = table\nomega.table = freq.csv\n"
                      "run.t_max = 2.0\n")
    shipped = sorted(glob.glob(os.path.join(SCENARIOS, "*.cfg")))
    code = textwrap.dedent("""
        import sys
        from invariantlab.scenario import load_scenario
        *shipped, table = sys.argv[1:]
        for path in shipped:
            load_scenario(path)
        print("scipy" in sys.modules)
        s = load_scenario(table)
        print("scipy" in sys.modules, repr(s.omega_schedule(2.0)))
    """)
    src = os.path.dirname(os.path.dirname(invariantlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code, *shipped, table],
                         env=env, capture_output=True, text=True, check=True)
    first, second = out.stdout.splitlines()
    assert len(shipped) == 4 and first == "False"
    imported, value = second.split()
    assert imported == "True" and abs(float(value) - 1.1) < 1e-12


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


def test_a_mapping_refuses_an_unknown_key_as_a_file_does():
    with pytest.raises(ValidationError, match=r"^unknown key 'kappa\.valeu' "
                       r"\(did you mean 'kappa\.value'\?\)$"):
        build_scenario({"omega.kind": "constant", "omega.value": "1.0",
                        "kappa.valeu": "1"})


@pytest.mark.parametrize("name", ["adiabatic", "baseline", "equilibrium",
                                  "frictionless"])
def test_a_shipped_scenario_loaded_twice_compares_and_hashes_equal(name):
    path = os.path.join(SCENARIOS, f"{name}.cfg")
    first, second = load_scenario(path), load_scenario(path)
    assert first == second and hash(first) == hash(second)


SCHEDULE_KIND_SETTINGS = {
    "constant": {"value": "1.0"},
    "linear": {"intercept": "1.0", "slope": "0.01"},
    "sinusoid": {"base": "1.0", "amplitude": "0.05", "rate": "0.5"},
    "table": {"table": "sched.csv"},
}
STATE_KIND_SETTINGS = {
    "coherent": {},
    "fock": {"state.fock_n": "1"},
    "thermal": {"state.nbar": "0.5"},
    "invariant_ground": {},
}
AUXILIARY_START_SETTINGS = (
    {},
    {"auxiliary.use_adiabatic_init": "false", "auxiliary.rho0": "1.0",
     "auxiliary.rhodot0": "0.0"},
)


def test_every_schema_key_is_read_or_refused(tmp_path, monkeypatch):
    """Each schedule kind for omega and for kappa, each state kind and
    each auxiliary start reads or refuses every schema key, so no known
    key in a scenario goes unread without an error."""
    (tmp_path / "sched.csv").write_text("t,value\n" + "".join(
        f"{t},{1.0 + 0.05 * t}\n" for t in np.linspace(0.0, 2.5, 11)))
    touched: set[str] = set()

    def record(name):
        method = getattr(_Settings, name)

        def recorded(self, key, *args):
            touched.add(key)
            return method(self, key, *args)

        monkeypatch.setattr(_Settings, name, recorded)

    for name in ("get", "require", "forbid"):
        record(name)
    for omega_kind, kappa_kind, state_kind, start in itertools.product(
            SCHEDULE_KIND_SETTINGS, SCHEDULE_KIND_SETTINGS,
            STATE_KIND_SETTINGS, AUXILIARY_START_SETTINGS):
        raw = {"omega.kind": omega_kind, "kappa.kind": kappa_kind,
               "state.kind": state_kind, "run.t_max": "2.0",
               **STATE_KIND_SETTINGS[state_kind], **start}
        for prefix, kind in (("omega", omega_kind), ("kappa", kappa_kind)):
            raw.update({f"{prefix}.{key}": value for key, value
                        in SCHEDULE_KIND_SETTINGS[kind].items()})
        touched.clear()
        build_scenario(raw, str(tmp_path))
        assert touched == set(_SCHEMA), sorted(set(_SCHEMA) - touched)


# ---------------------------------------------------------------- running


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def first_line(path):
    with open(path) as fh:
        return fh.readline().strip()


def test_records_from_a_small_run_compare_and_hash(tmp_path):
    """Each record that declares equality supports it: a field-for-field
    copy compares equal and hashes alike.  ``runner._Prepared`` holds
    arrays, so it compares by identity, as every array-holding record
    does."""
    s = load_text(SMALL, tmp_path)
    result = run_scenario(s, out_dir=str(tmp_path / "out"))
    report = verify_scenario(s)
    for record in (s, s.basis, s.state, s.tolerances, s.initial_auxiliary(),
                   report.checks[0], report, result):
        twin = dataclasses.replace(record)
        assert twin == record and hash(twin) == hash(record), type(record)
    prepared = runner._prepare(s)
    hash(prepared)
    assert prepared == prepared and prepared != dataclasses.replace(prepared)


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


def csv_cells(path):
    with open(path) as fh:
        next(fh)
        return [cell for line in fh for cell in line.rstrip("\n").split(",")]


def test_csv_precision_reaches_every_writer(tmp_path):
    # a modulated, damped run on a step that is no round number, so every
    # artifact has columns needing more than five significant digits
    text = ("omega.kind = sinusoid\nomega.base = 1.0\n"
            "omega.amplitude = 0.2\nomega.rate = 0.7\nkappa.value = 0.1\n"
            "basis.dim = 16\nrun.t_max = 1.0\nrun.step_h = 0.000333333333333\n"
            "outputs.csv_precision = 5\n")
    paths = [tmp_path / "sweep.csv"]
    for backend in ("fock", "moments"):
        s = load_text(text + f"run.backend = {backend}\n", tmp_path,
                      f"{backend}.cfg")
        run_scenario(s, out_dir=str(tmp_path / backend))
        paths += [tmp_path / backend / name for name in ARTIFACT_FILES]
    sweep(s, "kappa.value", ["0.05", "0.1"], str(paths[0]))
    for path in paths:
        cells = csv_cells(path)
        assert cells, path
        wide = [c for c in cells if format(float(c), ".5g") != c]
        assert not wide, f"{path}: {wide[:3]}"


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


def test_every_artifact_ends_at_the_last_record_time(tmp_path):
    """A window the record stride does not divide still ends every
    artifact, ermakov.csv included, on the final node."""
    s = load_text(SMALL.replace("run.t_max = 1.0", "run.t_max = 0.25"),
                  tmp_path)
    out = tmp_path / "out"
    run_scenario(s, out_dir=str(out))
    times = [read_csv(out / name)["t"] for name in ARTIFACT_FILES]
    np.testing.assert_array_equal(times[0], [0.0, 0.1, 0.2, 0.25])
    for t in times[1:]:
        np.testing.assert_array_equal(t, times[0])


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


def test_moment_runs_record_on_the_prepared_grid(tmp_path):
    """3334 steps recorded every 100: both moment series hold exactly the
    record times ``_prepare`` builds, last node included, and
    backend-agreement reads within 1e-12 of the every-node series read at
    the record nodes."""
    p = runner._prepare(load_text(
        SMALL + "run.backend = both\nrun.step_h = 3e-4\n", tmp_path))
    s = p.scenario
    assert (s.record_every, len(p.record_ts)) == (100, 35)
    rho0 = runner._initial_state(p)
    m0, quad = runner._moment_run(p, rho0)
    first = runner._first_moments(p, m0)
    assert quad.shape == (len(p.record_ts), 3)
    assert first.shape == (len(p.record_ts), 2)

    traj = runner._fock_run(p, rho0)
    np.testing.assert_array_equal(traj.ts, p.record_ts)
    check = runner._check_backend_agreement(traj, first, quad)
    full_quad = lindblad.evolve_su11_moments(p.model, m0[2:], s.t_max,
                                             s.step_h)
    full_first = lindblad.evolve_first_moments(
        s.omega_schedule, s.kappa_schedule, m0[:2], s.t_max, s.step_h)
    idx = p.record_idx
    fock = np.column_stack([traj.mean_x, traj.mean_p, traj.k1, traj.k2,
                            traj.k3])
    closed = np.hstack([full_first[idx], full_quad[idx]])
    assert abs(check.measured - float(np.max(np.abs(fock - closed)))) <= 1e-12


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


def test_declared_epsilon_must_match_the_schedule_rate(tmp_path, monkeypatch):
    """A sinusoid at another rate and a constant omega are both refused
    before the battery integrates anything."""
    solves = []
    for module in (runner, invariants):
        monkeypatch.setattr(module, "solve_auxiliary",
                            lambda *args: solves.append(args))
    for omega in ("omega.kind = sinusoid\nomega.base = 1.0\n"
                  "omega.amplitude = 0.5\nomega.rate = 0.05\n",
                  "omega.kind = constant\nomega.value = 1.0\n"):
        with pytest.raises(ValidationError, match="adiabatic_epsilon"):
            verify_scenario(load_text(
                omega + "basis.dim = 16\nrun.t_max = 1.0\n"
                "run.adiabatic_epsilon = 0.1\n", tmp_path))
    assert solves == []


# ------------------------------------------------------- integration counts


def _counted(monkeypatch, name, modules=(runner,)):
    """Record the positional arguments of the calls ``modules`` make to
    their function ``name``."""
    calls = []
    for module in modules:
        def counted(*args, fn=getattr(module, name), **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _fresh_scaling_ratio(s):
    """adiabatic-scaling's ratio with both rates solved afresh."""
    sched, kappa_s = s.omega_schedule, s.kappa_schedule
    eps = s.adiabatic_epsilon

    def error_at(rate):
        omega_s = SinusoidSchedule(sched.base, sched.amplitude, rate,
                                   sched.phase)
        init = ErmakovInit(adiabatic_rho(omega_s, kappa_s, 0.0),
                           adiabatic_rhodot(omega_s, kappa_s, 0.0))
        sol = solve_auxiliary(omega_s, kappa_s, init, s.t_max, s.step_h)
        return float(np.max(np.abs(
            sol.rho - adiabatic_rho(omega_s, kappa_s, sol.ts))))

    return error_at(eps) / error_at(eps / 2.0)


@pytest.mark.parametrize("explicit_start, solves", [(False, 2), (True, 3)],
                         ids=["series-start", "explicit-rho0"])
def test_adiabatic_verify_solves_each_auxiliary_problem_once(
        tmp_path, monkeypatch, explicit_start, solves):
    """On the series start, adiabatic-scaling's declared-rate problem is
    the run's own and reuses its solution; with an explicit rho0 it is
    not, and is solved afresh.  Either way the ratio equals the one from
    two fresh solves bit for bit, and no first moments are integrated."""
    text = open(os.path.join(SCENARIOS, "adiabatic.cfg")).read()
    if explicit_start:
        text += ("auxiliary.use_adiabatic_init = false\n"
                 "auxiliary.rho0 = 1.0\nauxiliary.rhodot0 = 0.0\n")
    s = load_text(text, tmp_path)
    # the run's own solve is construct's
    aux = _counted(monkeypatch, "solve_auxiliary", (runner, invariants))
    first = _counted(monkeypatch, "evolve_first_moments")
    report = verify_scenario(s)
    assert (len(aux), len(first)) == (solves, 0)
    scaling = {c.name: c for c in report.checks}["adiabatic-scaling"]
    assert scaling.measured == _fresh_scaling_ratio(s)


@pytest.mark.parametrize("backend, entry", [
    ("moments", "run"), ("moments", "sweep"), ("both", "verify")])
def test_first_moments_are_integrated_once_where_read(
        tmp_path, monkeypatch, backend, entry):
    s = load_text(SMALL + f"run.backend = {backend}\n", tmp_path)
    first = _counted(monkeypatch, "evolve_first_moments")
    if entry == "run":
        run_scenario(s, str(tmp_path / "out"))
    elif entry == "sweep":
        sweep(s, "kappa.value", ["0.1"], str(tmp_path / "sweep.csv"))
    else:
        assert verify_scenario(s).overall
    assert len(first) == 1


# ---------------------------------------------------------------- drift probe

MODULATED = """\
omega.kind = sinusoid
omega.base = 1.0
omega.amplitude = 0.2
omega.rate = 0.1
kappa.value = 0.1
basis.dim = 16
run.t_max = 2.0
"""


def test_drift_probe_equals_the_probe_on_the_full_trajectory(tmp_path):
    """Keeping only the three differenced nodes gives the check exactly
    the result of the same two backward runs recorded at every node: the
    relaxation from the seed node to the node after the probe node in
    steps of k nodes, then the differenced nodes one node at a time.  The
    driver hands ``record`` its live state, so the probe copies what it
    keeps: ``_probe_nodes`` returns three arrays that share no memory,
    equal bit for bit to the nodes those runs recorded by copy (kept
    uncopied, they were the last node three times over)."""
    p = runner._prepare(load_text(MODULATED, tmp_path))
    model, t_probe, i, seed, k = runner._drift_probe(p)
    h = runner.DRIFT_PROBE_STEP
    assert k > 1
    coarse: dict[int, np.ndarray] = {}
    lindblad._transport_steps(model, model.generators[1], seed, i + 1, h,
                              lambda j, q: coarse.update({j: q.copy()}),
                              stride=k)
    assert sorted(coarse) == list(range(i + 1, seed + 1, k))
    fine: dict[int, np.ndarray] = {}
    lindblad._transport_steps(model, coarse[i + 1], i + 1, i - 1, h,
                              lambda j, q: fine.update({j: q.copy()}))
    assert sorted(fine) == [i - 1, i, i + 1]
    nodes = runner._probe_nodes(model, i, seed, k)
    for q, j in zip(nodes, (i - 1, i, i + 1), strict=True):
        np.testing.assert_array_equal(q, fine[j])
    assert not any(np.shares_memory(a, b)
                   for a, b in itertools.combinations(nodes, 2))
    full = runner._drift_from_nodes(
        model, t_probe, h * np.arange(i - 1, i + 2),
        [fine[j] for j in range(i - 1, i + 2)])
    probe = runner._check_drift_crosscheck(p)
    assert probe == full
    assert probe.passed and probe.note.endswith("5 modes")


@pytest.mark.parametrize("shipped", [True, False], ids=["baseline", "t_max-2"])
def test_drift_probe_steps_one_window_and_copies_three_nodes(
        tmp_path, monkeypatch, shipped):
    """The probe costs 4 (c + 2) right-hand-side calls, c the coarse steps
    of k nodes across a window short of W/h nodes by less than k, whatever
    the run window (20 on the baseline, 2 here), and the driver records
    only the first and last node of each run: the seed node, the last
    coarse node, which the fine run starts from, and the two fine steps
    after it; the check copies each and keeps the last three copies."""
    calls = []
    rhs = lindblad._density_rhs

    def counted_rhs(q, ops, out):
        calls.append(None)
        return rhs(q, ops, out)

    copied = []
    rk4 = lindblad._rk4

    def counted_rk4(*args):
        *head, record, every = args

        def record_counted(i, y):
            copied.append(i)
            record(i, y)
        return rk4(*head, record_counted, every)

    monkeypatch.setattr(lindblad, "_density_rhs", counted_rhs)
    monkeypatch.setattr(lindblad, "_rk4", counted_rk4)
    s = (load_scenario(os.path.join(SCENARIOS, "baseline.cfg")) if shipped
         else load_text(MODULATED, tmp_path))
    p = runner._prepare(s)
    assert runner._check_drift_crosscheck(p).passed
    _, _, i, seed, k = runner._drift_probe(p)
    window = round(runner.DRIFT_PROBE_WINDOW / runner.DRIFT_PROBE_STEP)
    coarse = (seed - i - 1) // k
    assert k > 1 and seed == i + 1 + coarse * k and 0 <= i + window - seed < k
    assert len(calls) == 4 * (coarse + 2)
    assert copied == [0, coarse, 0, 1, 2]


def test_drift_probe_overflow_raises(tmp_path):
    s = load_text(MODULATED.replace("kappa.value = 0.1", "kappa.value = 10.0"),
                  tmp_path)
    with pytest.raises(NumericalError, match="float range"):
        runner._check_drift_crosscheck(runner._prepare(s))


@pytest.mark.parametrize("text", [
    SMALL.replace("kappa.value = 0.1", "kappa.value = 5")
    .replace("run.t_max = 1.0", "run.t_max = 2.0"),
    MODULATED.replace("kappa.value = 0.1", "kappa.value = 1"),
], ids=["constant-kappa-5", "modulated-kappa-1"])
def test_drift_probe_passes_on_strongly_damped_scenarios(tmp_path, text):
    """Backward transport keeps K2 bounded where the forward flow blew it
    up: the forward probe overflowed on the first scenario and read
    2.57e-4 on the second."""
    check = runner._check_drift_crosscheck(runner._prepare(
        load_text(text, tmp_path)))
    assert check.threshold == runner.DRIFT_CROSSCHECK_TOL == 1e-4
    assert check.passed and check.measured <= 1e-6


@pytest.mark.parametrize("text, stride", [
    (SMALL.replace("kappa.value = 0.1", "kappa.value = 5")
     .replace("run.t_max = 1.0", "run.t_max = 2.0"), 1),
    (MODULATED.replace("kappa.value = 0.1", "kappa.value = 1"), 2),
], ids=["constant-kappa-5", "modulated-kappa-1"])
def test_a_stride_one_drift_probe_is_the_single_rate_transport(
        tmp_path, text, stride):
    """With k = 1 the probe's two runs give, bit for bit, the three nodes
    of one fine run from the seed node W/h nodes past the probe node.
    The norm bound leaves constant kappa = 5 no room for a coarse step
    (h Lambda = 1.94), so its probe is that single-rate transport; at
    modulated kappa = 1, h Lambda = 0.41 admits k = 2."""
    p = runner._prepare(load_text(text, tmp_path))
    model, _, i, seed, k = runner._drift_probe(p)
    h = runner.DRIFT_PROBE_STEP
    last = i + round(runner.DRIFT_PROBE_WINDOW / h)
    assert k == stride and seed == last - (last - i - 1) % k
    single: list[np.ndarray] = []
    lindblad._transport_steps(model, model.generators[1], last, i - 1, h,
                              lambda j, q: single.append(q.copy()))
    probe = runner._probe_nodes(model, i, last, 1)
    for q, ref in zip(probe, single[:-4:-1], strict=True):
        np.testing.assert_array_equal(q, ref)


@pytest.mark.parametrize("name", [
    "adiabatic", "baseline", "equilibrium", "frictionless"])
def test_the_coarse_relaxation_moves_the_shipped_checks_by_1e_10(name):
    """On every shipped scenario the probe relaxes at a coarse step, and
    its reading agrees with that of the same seed transported at the fine
    step throughout to 1e-10 absolute.  Measured: at most 2.4e-11
    (adiabatic)."""
    p = runner._prepare(load_scenario(os.path.join(SCENARIOS, f"{name}.cfg")))
    model, t_probe, i, seed, k = runner._drift_probe(p)
    assert k > 1
    ts = runner.DRIFT_PROBE_STEP * np.arange(i - 1, i + 2)
    fine = runner._drift_from_nodes(model, t_probe, ts,
                                    runner._probe_nodes(model, i, seed, 1))
    probe = runner._check_drift_crosscheck(p)
    assert probe.passed and fine.passed
    assert abs(probe.measured - fine.measured) <= 1e-10


def test_verify_reports_a_drift_probe_overflow_as_a_failed_check(
        tmp_path, capsys):
    """The probe's overflow fails drift-crosscheck; every other check of
    the battery is still reported with a finite measurement and the exit
    code is that of a failed check, not of an aborted run.  The moment
    backend keeps the rest of this battery finite: the density run of
    the same scenario leaks out of its basis at t = 0.8."""
    cfg = write_cfg(tmp_path, MODULATED.replace("kappa.value = 0.1",
                                                "kappa.value = 10.0")
                    + "run.backend = moments\n")
    assert main(["verify", "--config", cfg]) == 1
    *lines, overall = capsys.readouterr().out.splitlines()
    drift = [line for line in lines if "drift-crosscheck" in line]
    assert len(drift) == 1
    assert drift[0].startswith("FAIL drift-crosscheck: measured inf")
    assert "grew beyond float range" in drift[0]
    assert overall.startswith("overall: FAIL (7 checks")
    for line in lines:
        if line not in drift:
            assert np.isfinite(float(line.split("measured ")[1].split()[0]))


STIFF = """\
omega.kind = constant
omega.value = 1.0
kappa.value = 5000
state.beta_re = 0
basis.dim = 16
run.t_max = 2
"""


def test_a_non_finite_density_state_fails_the_run_at_its_record_time(
        tmp_path, capsys, recwarn):
    """At kappa = 5000 the density state leaves float range before its
    first record after t = 0.  ``verify`` reports that as a failed
    conservation check naming the time (exit 1) and ``run`` exits with the
    numerical-failure code 3; eigvalsh never sees the non-finite state,
    which used to end both in an uncaught LinAlgError.  Neither raises a
    numpy RuntimeWarning on the way, which outside pytest would print to
    stderr ahead of the report."""
    cfg = write_cfg(tmp_path, STIFF)
    assert main(["verify", "--config", cfg]) == 1
    lines = capsys.readouterr().out.splitlines()
    (conservation,) = [line for line in lines if "conservation" in line]
    assert conservation.startswith("FAIL conservation: measured inf")
    assert "density matrix is not finite at t=0.1" in conservation
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "error: density matrix is not finite at t=0.1" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


WIDE_BASIS = """\
omega.kind = sinusoid
omega.base = 1.0
omega.amplitude = 0.2
omega.rate = 0.1
kappa.value = 0.1
basis.dim = 160
state.kind = coherent
state.beta_re = 6.0
run.t_max = 0.01
run.step_h = 1e-3
run.record_every = 5
"""
RUN_PHASES = ("_prepare", "_initial_state", "_fock_run",
              "expectation_series", "spectrum_series")


# The traced peak of each phase, in padded (164, 160) states, is below
# these bounds; measured 9.29, 3.43, 6.74, 0.01 and 0.19.  The density
# run holds six state-sized arrays (``lindblad`` module docstring), and
# ``spectrum_series`` never forms I(t): it hands eigvalsh stacks of the
# real tridiagonal parity blocks of I(t).
RUN_PHASE_BOUNDS = dict(zip(RUN_PHASES, (9.4, 3.5, 7.0, 0.1, 0.25)))


def test_each_run_phase_peaks_below_its_bound(tmp_path, phase_peaks):
    """On ten steps of the wide-basis run (dim 160, |beta| = 6), traced
    per ``runner`` phase, each phase peaks below its bound in padded
    (164, 160) states above its base (``RUN_PHASE_BOUNDS``).

    ``_prepare`` builds the basis's x, p, K1, K2 and K3 in ``construct``
    and keeps them on the basis, so no later phase builds them; it and
    ``_initial_state`` form every A +- A^dag in one array
    (``operators._with_dagger``), where forming A.conj().T through a
    temporary read 10.09 and 4.23.  The density run holds six
    state-sized arrays and a record's temporaries:
    6.74 states (2.83 MB), where with the kernel's X and C scratch and a
    record scratch it peaked at 9.51 (3.99 MB) and a run that copied its
    state at every record and built a second set of the five operators
    at 20.33 (8.54 MB); a run whose kernel kept its buffer views, and
    with them the driver's buffers, after the run read 7.07.
    ``spectrum_series`` peaks at 0.19 states: one (80, 80) real parity
    block at a time, as one such block fills its stack
    (``invariants.SPECTRUM_BLOCK_BYTES``), 0.46 with the blocks of all
    three record times stacked; it peaked at 4.22 when it handed each
    dense complex I(t) to eigvalsh, and at 6.17 when it also formed a
    symmetrised copy.
    ``expectation_series`` reads the recorded moments only: 0.01 states,
    where rebuilding the five operators to compare the invariant's with
    them took 10.08.  The test takes about 0.1 s."""
    s = load_text(WIDE_BASIS, tmp_path)
    peaks = phase_peaks(lambda: run_scenario(s, str(tmp_path / "out")),
                        RUN_PHASES)
    state = 164 * 160 * np.dtype(complex).itemsize
    over = {name: peaks[name] / state for name, bound in
            RUN_PHASE_BOUNDS.items() if not peaks[name] < bound * state}
    assert not over, over


def test_one_verify_builds_each_basis_once(tmp_path, monkeypatch):
    """A ``backend = both`` verify builds the scenario basis's operators
    once, in ``construct``, and the drift probe's dim-16 basis once;
    every module that binds a builder is counted.  The dim-12 basis of
    the closure-matrix gate is built once per process, before the
    count."""
    s = load_text(SMALL.replace("basis.dim = 16", "basis.dim = 20")
                  + "run.backend = both\n", tmp_path)
    lindblad._closure_matrix_verified()
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("invariantlab")]
    canonical = _counted(monkeypatch, "build_canonical",
                         [m for m in modules if hasattr(m, "build_canonical")])
    su11 = _counted(monkeypatch, "build_su11_generators",
                    [m for m in modules
                     if hasattr(m, "build_su11_generators")])
    verify_scenario(s)
    assert [cfg for cfg, in canonical] == [
        s.basis, BasisConfig(dim=runner.DRIFT_PROBE_DIM, omega_ref=1.0)]
    assert canonical[0][0] is s.basis
    assert len(su11) == 2


@pytest.mark.parametrize("kind", ["coherent", "invariant_ground"])
def test_the_initial_state_is_built_once(tmp_path, monkeypatch, kind):
    """With ``backend = both`` both backends start from one built state,
    and I(0) is built only for ``invariant_ground``, the one kind that
    reads it."""
    s = load_text(SMALL + f"state.kind = {kind}\nrun.backend = both\n",
                  tmp_path)
    built = _counted(monkeypatch, "build_state")
    invariants_at = _counted(monkeypatch, "invariant_at")
    runner._evolve(runner._prepare(s))
    assert len(built) == 1
    assert [t for _, t in invariants_at] == (
        [0.0] if kind == "invariant_ground" else [])


def test_drift_probe_traced_peak_stays_small():
    """The probe keeps three transported operators, not all 5003."""
    p = runner._prepare(load_scenario(os.path.join(SCENARIOS, "baseline.cfg")))
    tracemalloc.start()
    try:
        runner._check_drift_crosscheck(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6


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


def test_sweep_refuses_a_short_window_before_the_first_run(tmp_path,
                                                           monkeypatch):
    s = load_text(SMALL + "run.step_h = 1e-4\n", tmp_path)
    prepared = []
    monkeypatch.setattr(runner, "_prepare", prepared.append)
    with pytest.raises(ValidationError,
                       match=r"run\.t_max = 0\.0005 .* 0\.001"):
        sweep(s, "run.t_max", ["1.0", "5e-4"], str(tmp_path / "sweep.csv"))
    assert prepared == []


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


@pytest.mark.parametrize("t_max", ["5e-4", "2e-4"])
def test_cli_verify_refuses_a_window_below_the_battery_minimum(
        tmp_path, capsys, t_max):
    """invariant-residual differences at 0.1*t_max +- 1e-4, so below
    t_max = 1e-3 it would leave the solution window (and at 2e-4 the
    drift probe would have no node before its probe time)."""
    text = SMALL.replace("run.t_max = 1.0", f"run.t_max = {t_max}")
    cfg = write_cfg(tmp_path, text + "run.step_h = 1e-4\n")
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"run.t_max = {float(t_max):g}" in err
    assert "minimum window 0.001" in err
    at_minimum = write_cfg(tmp_path, SMALL.replace("run.t_max = 1.0",
                                                   "run.t_max = 1e-3")
                           + "run.step_h = 1e-4\n", "minimum.cfg")
    assert main(["verify", "--config", at_minimum]) == 0


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
    # a non-numeric value is a configuration error raised before any run
    os.remove(tmp_path / "sw" / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--param", "run.backend",
                 "--values", "fock,moments"]) == 2
    assert "run.backend" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sw" / "sweep.csv")


def test_cli_schema_prints_every_key(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    for key in _SCHEMA:
        assert key in out

"""Pipeline orchestration: artifact runs, verification battery, sweeps.

``run_scenario`` executes schedules -> ``invariants.construct`` (the
auxiliary solution and, on it, the ``LindbladModel``, whose invariant
``invariants.invariant_at`` reads) -> evolution and writes four CSV
artifacts.
``verify_scenario`` runs the named check battery against the scenario's
tolerances and returns a report whose overall flag feeds the CLI exit
code.  ``sweep`` rebuilds the scenario once per parameter value (full
validation each time) and aggregates summary metrics.

Check names and their content:

==================== =======================================================
su11-algebra         commutation relations of the three quadratic generators
auxiliary-residual   ODE defect of the auxiliary solution between nodes
constraint-identities the three coupled coefficient equations at samples
invariant-residual   transport-equation residual of the closed form
conservation         max relative drift of the conserved expectation
spectrum-constancy   closed-form eigenvalues pinned at n + 1/2
drift-crosscheck     drift formula vs spectrum of K2 transported backward
state-trace          worst trace deviation along the run
state-hermiticity    worst Hermiticity deviation along the run
state-positivity     most negative eigenvalue along the run
state-tail           worst tail population along the run
backend-agreement    full evolution vs closed moment system (backend=both)
schedule-validity    sign report of the modulated frequency^2 (advisory)
adiabatic-scaling    slow-rate error scaling of the series initialization
==================== =======================================================

``spectrum-constancy`` and the four state checks need the full density
backend and are skipped for ``backend = moments``; ``backend-agreement``
runs only for ``backend = both``; ``adiabatic-scaling`` runs only when
the scenario declares ``run.adiabatic_epsilon``.  ``verify_scenario``
and ``sweep`` refuse a ``run.t_max`` below the shortest window the
differencing checks fit in (1e-3 with the constants here; see
``_check_battery_window``), and ``verify_scenario`` a declared epsilon
other than the omega sinusoid's rate or on a sinusoid of zero
amplitude, both before integrating anything.

Each system is integrated once.  The run's auxiliary solution is the
one ``construct`` solves, ``model.sol``; the checks read its equation
from it, and the invariant from the model (``invariant_at``).
``adiabatic-scaling`` solves the slow-motion series' problems with
``solve_auxiliary`` itself, reusing the run's solution where its
declared-rate problem is the run's own, and the mean equations are
integrated only for their three readers (``_first_moments``):
``backend-agreement``, the moments ``trajectory.csv`` and ``sweep``'s
``final_mean_x`` without a density run.

The transport-equation residual of the dissipative closed form has an
exact friction defect ``|kappa rho rhodot|`` times the interior norm of
K3 (see the invariants module), so on modulated dissipative scenarios
``tolerances.residual`` must budget for it; sample scenarios document
the bound they use.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .auxiliary import (
    ErmakovInit,
    _step_count,
    _write_rows,
    adiabatic_rho,
    adiabatic_rhodot,
    max_residual_between_nodes,
    solve_auxiliary,
)
from .errors import NumericalError, ValidationError
from .invariants import (
    FD_HALF_STEP,
    ExpectationSeries,
    _weak_expectation_series,
    constraint_residuals,
    construct,
    drift_rhs,
    expectation_series,
    invariant_at,
    invariant_residual,
    spectrum_series,
)
from .lindblad import (
    LindbladModel,
    Trajectory,
    _adjoint_norm_bound,
    _check_k_moments,
    _generator_arrays,
    _record_nodes,
    _stage_table,
    _transport_steps,
    evolve_density,
    evolve_first_moments,
    evolve_su11_moments,
)
from .operators import (
    DENSITY_HERM_TOL,
    DENSITY_TRACE_TOL,
    BasisConfig,
    DensityMatrix,
    build_state,
    check_su11_relations,
    expectation,
)
from .scenario import VALIDATION_GRID_POINTS, Scenario
from .schedules import SinusoidSchedule, modulated_frequency_sq

__all__ = [
    "CheckResult",
    "RunReport",
    "SimulationResult",
    "run_scenario",
    "sweep",
    "verify_scenario",
]

ARTIFACT_FILES = ("trajectory.csv", "ermakov.csv", "invariant.csv", "spectrum.csv")

SU11_ALGEBRA_TOL = 1e-10
AUXILIARY_RESIDUAL_TOL = 1e-7
CONSTRAINT_TOL = 1e-9
STATE_TAIL_TOL = 1e-8
DRIFT_CROSSCHECK_TOL = 1e-4
BACKEND_AGREEMENT_TOL = 1e-5
# Probe settings for the drift cross-check.  K2 is transported backward
# in time, the direction in which the adjoint flow contracts, from
# DRIFT_PROBE_WINDOW past the probe time.  It relaxes at a coarse step,
# the largest multiple k of DRIFT_PROBE_STEP with k*h times the bound on
# the adjoint generator's norm at most 1, to the node after the probe
# node, and the three differenced nodes are stepped at DRIFT_PROBE_STEP
# itself; the small dimension and fine step keep the finite differences
# of its spectrum below the comparison threshold (see the drift tests for
# the calibration).  A shorter window leaves more of the seed's
# non-stationary part: at 0.25, the adiabatic scenario reads 1.45e-7
# instead of 1.8e-8.
DRIFT_PROBE_DIM = 16
DRIFT_PROBE_STEP = 2e-4
DRIFT_PROBE_MODES = 5
DRIFT_PROBE_WINDOW = 0.5
ADIABATIC_RATIO_BOUNDS = (6.0, 10.0)
CONSTRAINT_SAMPLES = 100
RESIDUAL_SAMPLE_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)
SPECTRUM_MODES_CAP = 13


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class CheckResult:
    """One named verification outcome.

    ``warning`` marks advisory checks that never fail the run; their
    ``passed`` flag reports whether the advisory condition is clean.
    """

    name: str
    measured: float
    threshold: float
    passed: bool
    warning: bool = False
    note: str = ""

    def format(self) -> str:
        if self.warning:
            tag = "WARN" if not self.passed else "PASS"
        else:
            tag = "PASS" if self.passed else "FAIL"
        line = (f"{tag} {self.name}: measured {self.measured:.6g} "
                f"vs threshold {self.threshold:.6g}")
        return line + (f" ({self.note})" if self.note else "")


@dataclass(frozen=True)
class RunReport:
    checks: tuple[CheckResult, ...]
    wall_time: float

    @property
    def overall(self) -> bool:
        return all(c.passed or c.warning for c in self.checks)

    def format_lines(self) -> list[str]:
        lines = [c.format() for c in self.checks]
        status = "PASS" if self.overall else "FAIL"
        lines.append(f"overall: {status} ({len(self.checks)} checks, "
                     f"wall time {self.wall_time:.2f} s)")
        return lines


@dataclass(frozen=True)
class SimulationResult:
    out_dir: str
    files: tuple[str, ...]
    max_rel_drift: float
    warnings: tuple[str, ...]
    wall_time: float


# ---------------------------------------------------------------------------
# shared pipeline pieces


@dataclass(frozen=True, eq=False)
class _Prepared:
    scenario: Scenario
    model: LindbladModel
    record_idx: np.ndarray
    record_ts: np.ndarray


def _prepare(s: Scenario) -> _Prepared:
    model = construct(s.omega_schedule, s.kappa_schedule,
                      s.initial_auxiliary(), s.t_max, s.step_h, s.basis)
    idx = _record_nodes(_step_count(s.t_max, s.step_h), s.record_every)
    return _Prepared(scenario=s, model=model, record_idx=idx,
                     record_ts=idx * s.step_h)


def _initial_state(p: _Prepared) -> DensityMatrix:
    """The scenario's initial state; I(0) is built only for
    ``invariant_ground``, the one kind that reads it."""
    s = p.scenario
    inv = (invariant_at(p.model, 0.0) if s.state.kind == "invariant_ground"
           else None)
    return build_state(s.state, s.basis, invariant_op=inv)


def _fock_run(p: _Prepared, rho0: DensityMatrix) -> Trajectory:
    return evolve_density(p.model, rho0, p.scenario.t_max,
                          p.scenario.step_h, record_every=p.scenario.record_every)


def _moment_run(p: _Prepared,
                rho0: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The initial moments and the closed K-moment series.

    ``m0`` holds the expectations of the basis's x, p, K1, K2 and K3 in
    ``rho0`` (``BasisConfig.operators``); the series is the (records, 3)
    array of ``evolve_su11_moments`` on the record times ``p.record_ts``,
    which checks the seed ``m0[2:]`` against the uncertainty bound.
    """
    s = p.scenario
    m0 = np.array([expectation(op, rho0) for op in s.basis.operators])
    quad = evolve_su11_moments(p.model, m0[2:], s.t_max, s.step_h,
                               record_every=s.record_every)
    return m0, quad


def _first_moments(p: _Prepared, m0: np.ndarray) -> np.ndarray:
    """The (records, 2) mean series from the initial moments ``m0``, for
    its three readers only (see the module docstring)."""
    s = p.scenario
    return evolve_first_moments(s.omega_schedule, s.kappa_schedule, m0[:2],
                                s.t_max, s.step_h,
                                record_every=s.record_every)


def _evolve(p: _Prepared):
    """Run the scenario's backends: (trajectory, m0, quad, series).

    The initial state is built once for both backends.  The density
    trajectory is None for ``backend = moments``, and the initial moments
    and K-moment series (``_moment_run``) are None for ``backend = fock``;
    the conserved expectation comes from the density run whenever there
    is one.  The means are left to ``_first_moments``.
    """
    backend = p.scenario.backend
    rho0 = _initial_state(p)
    traj = m0 = quad = None
    if backend in ("fock", "both"):
        traj = _fock_run(p, rho0)
    if backend in ("moments", "both"):
        m0, quad = _moment_run(p, rho0)
    if traj is not None:
        series = expectation_series(traj, p.model)
    else:
        series = _weak_expectation_series(p.model.sol, p.record_ts, *quad.T)
    return traj, m0, quad, series


def _check_battery_window(s: Scenario):
    """Refuse a run.t_max shorter than the battery's minimum window.

    ``invariant-residual`` differences the closed form at f*t_max +-
    FD_HALF_STEP for every sample fraction f, and ``drift-crosscheck``
    needs a probe node either side of its probe time min(1, t_max/2).
    The residual's sample times may overhang the solution window by the
    same 1e-12 that every window check admits.
    """
    fracs = RESIDUAL_SAMPLE_FRACTIONS
    edge = min(min(fracs), 1.0 - max(fracs))
    least = max(FD_HALF_STEP / edge, 2.0 * DRIFT_PROBE_STEP)
    if s.t_max < least - 1e-12:
        raise ValidationError(
            f"run.t_max = {s.t_max:g} is below the verify battery's minimum "
            f"window {least:.6g}: invariant-residual differences the "
            f"invariant at {min(RESIDUAL_SAMPLE_FRACTIONS):g}*t_max "
            f"+- {FD_HALF_STEP:g}")


def _spectrum_modes(dim: int) -> int:
    return min(SPECTRUM_MODES_CAP, dim // 3)


# ---------------------------------------------------------------------------
# run


def _write_moment_trajectory(path, p: _Prepared, first, quad, precision: int):
    _write_rows(path, "t,mean_x,mean_p,k1,k2,k3",
                zip(p.record_ts, *first.T, *quad.T), precision)


def run_scenario(s: Scenario, out_dir: str | None = None) -> SimulationResult:
    """Execute the pipeline and write the four CSV artifacts.

    Identical scenarios produce byte-identical files: the pipeline is
    deterministic and floats are rendered with the configured number of
    significant digits.
    """
    start = time.perf_counter()
    target = out_dir if out_dir is not None else s.out_dir
    os.makedirs(target, exist_ok=True)
    p = _prepare(s)
    prec = s.csv_precision
    warnings: tuple[str, ...] = ()

    traj, m0, quad, series = _evolve(p)
    if traj is not None:
        traj.write_csv(os.path.join(target, "trajectory.csv"), precision=prec)
        warnings = traj.warnings
    else:
        _write_moment_trajectory(os.path.join(target, "trajectory.csv"),
                                 p, _first_moments(p, m0), quad, prec)

    p.model.sol.write_csv(os.path.join(target, "ermakov.csv"),
                          precision=prec, idx=p.record_idx)
    series.write_csv(os.path.join(target, "invariant.csv"), precision=prec)
    level_series = spectrum_series(p.model, p.record_ts,
                                   m=_spectrum_modes(s.basis.dim))
    level_series.write_csv(os.path.join(target, "spectrum.csv"), precision=prec)

    return SimulationResult(
        out_dir=target, files=ARTIFACT_FILES,
        max_rel_drift=float(series.max_rel_drift),
        warnings=warnings, wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# verify


def _check_su11_algebra(p: _Prepared) -> CheckResult:
    basis = p.model.basis
    dev = max(check_su11_relations(*basis.operators[2:], basis.interior_dim))
    return CheckResult("su11-algebra", dev, SU11_ALGEBRA_TOL,
                       dev <= SU11_ALGEBRA_TOL)


def _check_auxiliary_residual(p: _Prepared) -> CheckResult:
    worst = max_residual_between_nodes(p.model.sol)
    return CheckResult("auxiliary-residual", worst, AUXILIARY_RESIDUAL_TOL,
                       worst <= AUXILIARY_RESIDUAL_TOL)


def _check_constraints(p: _Prepared) -> CheckResult:
    times = np.linspace(0.0, p.scenario.t_max, CONSTRAINT_SAMPLES)
    coeffs = p.model.coefficients(times)[1:]  # (alpha, a2, a3)
    resids = constraint_residuals(p.model, coeffs, times)
    worst = float(np.abs(resids).max())
    return CheckResult("constraint-identities", worst, CONSTRAINT_TOL,
                       worst <= CONSTRAINT_TOL)


def _check_invariant_residual(p: _Prepared) -> CheckResult:
    s = p.scenario
    worst = max(invariant_residual(p.model, f * s.t_max)
                for f in RESIDUAL_SAMPLE_FRACTIONS)
    tol = s.tolerances.residual
    return CheckResult("invariant-residual", worst, tol, worst <= tol)


def _check_conservation(series: ExpectationSeries, p: _Prepared) -> CheckResult:
    drift = float(series.max_rel_drift)
    tol = p.scenario.tolerances.conservation
    return CheckResult("conservation", drift, tol, drift <= tol)


def _check_spectrum(p: _Prepared) -> CheckResult:
    m = _spectrum_modes(p.scenario.basis.dim)
    series = spectrum_series(p.model, p.record_ts, m=m)
    dev = float(np.max(np.abs(series.levels - (np.arange(m) + 0.5))))
    tol = p.scenario.tolerances.spectrum
    note = "" if series.pairing_ok else "pairing flagged"
    return CheckResult("spectrum-constancy", dev, tol,
                       dev <= tol and series.pairing_ok, note=note)


def _drift_probe(p: _Prepared) -> tuple[LindbladModel, float, int, int, int]:
    """The drift probe's model, probe time, probe node, seed node and
    coarse stride.

    The model is the run's on a basis of the probe's fixed dimension
    (``replace``), whatever its schedules and auxiliary solution.
    Backward in time the adjoint flow contracts (see
    ``_transport_steps``), so the transported K2 stays bounded; forward
    it overflows within a unit window at kappa = 5.  The stride k
    is the largest with k*h*Lambda <= 1, Lambda the adjoint generator's
    norm bound over the window's stage table (``_adjoint_norm_bound``),
    so the coarse step stays inside RK4's stability region; a stiff
    window gets k = 1, the fine step alone.  K2 is seeded at the node
    DRIFT_PROBE_WINDOW past the probe time, clipped to the run window and
    brought down to a whole number of coarse steps from the node after
    the probe node: the window is short of DRIFT_PROBE_WINDOW by less
    than one coarse step.
    """
    s = p.scenario
    h = DRIFT_PROBE_STEP
    t_probe = min(1.0, 0.5 * s.t_max)
    model = replace(p.model, basis=BasisConfig(dim=DRIFT_PROBE_DIM,
                                               omega_ref=s.basis.omega_ref))
    i = round(t_probe / h)
    last = min(i + round(DRIFT_PROBE_WINDOW / h), int(s.t_max / h + 1e-9))
    # _check_battery_window refuses the windows that would leave no node
    # either side of the probe node
    assert 1 <= i < last, f"probe node {i} lacks a neighbour"
    bound = _adjoint_norm_bound(model, _stage_table(model, last - i + 1, h,
                                                    i - 1))
    k = max(1, math.floor(1.0 / (h * bound)))
    return model, t_probe, i, i + 1 + (last - i - 1) // k * k, k


def _drift_from_nodes(model: LindbladModel, t_probe: float, ts,
                      nodes) -> CheckResult:
    """Drift formula vs the differenced spectrum of three transported nodes.

    ``nodes`` are the transported K2 arrays at the times ``ts``: the node
    nearest the probe time ``t_probe`` and its two neighbours.  The
    middle node and the jump operator's array go to ``drift_rhs`` as
    they are.
    """
    def lowest(arr: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(arr)[:DRIFT_PROBE_MODES]

    fd = (lowest(nodes[2]) - lowest(nodes[0])) / (ts[2] - ts[0])
    lam, vecs = np.linalg.eigh(nodes[1])
    row = model.coefficients(float(ts[1]))
    _, jump = _generator_arrays(model.generators, row)
    if jump is None:
        # frictionless transport is a unitary conjugation: the spectrum
        # is exactly constant, so the prediction is zero for every mode
        # (including parity-degenerate pairs the formula would skip)
        dev = float(np.max(np.abs(fd)))
        note = (f"probe dim {DRIFT_PROBE_DIM} at t={t_probe:g}, "
                "frictionless: drift is identically zero")
        return CheckResult("drift-crosscheck", dev, DRIFT_CROSSCHECK_TOL,
                           dev <= DRIFT_CROSSCHECK_TOL, note=note)
    kept, drifts = drift_rhs(nodes[1], lam, vecs, jump, float(row[1]),
                             m=DRIFT_PROBE_MODES)
    kept = np.asarray(kept)
    # normalized by the drift scale: transported observables can grow by
    # many decades, and an absolute comparison at that scale would sit
    # below the float resolution of the eigenvalues themselves
    scale = max(1.0, float(np.max(np.abs(fd[kept]))) if kept.size else 0.0)
    dev = (float(np.max(np.abs(drifts - fd[kept]))) / scale
           if kept.size else 0.0)
    note = f"probe dim {DRIFT_PROBE_DIM} at t={t_probe:g}, {kept.size} modes"
    return CheckResult("drift-crosscheck", dev, DRIFT_CROSSCHECK_TOL,
                       dev <= DRIFT_CROSSCHECK_TOL, note=note)


def _probe_nodes(model: LindbladModel, i: int, seed: int,
                 k: int) -> list[np.ndarray]:
    """Transported K2 at the nodes i - 1, i and i + 1.

    K2 relaxes backward from the seed node to node i + 1 in steps of k
    nodes, recording only its first and last node, and is then stepped
    node by node to i - 1; the last three records are the probe's nodes,
    each a copy of the live state it was handed.  With k = 1 the two runs
    step exactly as one run from the seed node.
    """
    nodes: list[np.ndarray] = []
    keep = lambda j, q: nodes.append(q.copy())
    _transport_steps(model, model.generators[1], seed, i + 1,
                     DRIFT_PROBE_STEP, keep,
                     every=max(1, (seed - i - 1) // k), stride=k)
    _transport_steps(model, nodes[-1], i + 1, i - 1, DRIFT_PROBE_STEP, keep)
    return nodes[-3:][::-1]


def _check_drift_crosscheck(p: _Prepared) -> CheckResult:
    """Drift formula vs differenced eigenvalues of a transported observable.

    The drift law holds for whatever observable the flow carries through
    the probe node, so the coarse relaxation changes which descendant of
    K2 is probed, not what is checked: the three differenced nodes are
    stepped at the fine step.
    """
    model, t_probe, i, seed, k = _drift_probe(p)
    ts = DRIFT_PROBE_STEP * np.arange(i - 1, i + 2)
    return _drift_from_nodes(model, t_probe, ts,
                             _probe_nodes(model, i, seed, k))


def _state_checks(traj: Trajectory, p: _Prepared) -> list[CheckResult]:
    pos_tol = p.scenario.tolerances.positivity
    trace_dev = float(np.max(np.abs(traj.trace - 1.0)))
    herm = float(np.max(traj.herm_dev))
    low = float(np.min(traj.min_eig))
    tail = float(np.max(traj.tail_pop))
    return [
        CheckResult("state-trace", trace_dev, DENSITY_TRACE_TOL,
                    trace_dev <= DENSITY_TRACE_TOL),
        CheckResult("state-hermiticity", herm, DENSITY_HERM_TOL,
                    herm <= DENSITY_HERM_TOL),
        CheckResult("state-positivity", low, -pos_tol, low >= -pos_tol,
                    note="threshold is a floor"),
        CheckResult("state-tail", tail, STATE_TAIL_TOL, tail <= STATE_TAIL_TOL),
    ]


def _check_backend_agreement(traj: Trajectory, first: np.ndarray,
                             quad: np.ndarray) -> CheckResult:
    """Largest deviation of the density run's five moment columns from
    the closed systems' ``hstack([first, quad])``; K moments of the run
    past the uncertainty bound are refused (``_check_k_moments``)."""
    _check_k_moments(traj.k1, traj.k2, traj.k3)
    fock = np.column_stack([traj.mean_x, traj.mean_p, traj.k1, traj.k2,
                            traj.k3])
    dev = float(np.max(np.abs(fock - np.hstack([first, quad]))))
    return CheckResult("backend-agreement", dev, BACKEND_AGREEMENT_TOL,
                       dev <= BACKEND_AGREEMENT_TOL)


def _check_schedule_validity(s: Scenario) -> CheckResult:
    """Sign of the modulated frequency^2 on the scenario's grid (advisory).

    ``modulated_frequency_sq`` is sampled on the grid that loading
    checks the friction on, ``VALIDATION_GRID_POINTS`` points of
    [0, t_max].  The check reads its minimum and warns, naming the first
    negative sample's time, when it dips below zero: an overdamped
    stretch is legitimate, just worth surfacing.
    """
    grid = np.linspace(0.0, s.t_max, VALIDATION_GRID_POINTS)
    omega_sq = modulated_frequency_sq(s.omega_schedule, s.kappa_schedule,
                                      grid)
    negative = omega_sq < 0
    note = "advisory only"
    if negative.any():
        note = (f"modulated frequency^2 first negative at "
                f"t={grid[np.argmax(negative)]:g}")
    return CheckResult("schedule-validity", float(np.min(omega_sq)), 0.0,
                       not negative.any(), warning=True, note=note)


def _check_declared_epsilon(s: Scenario):
    """Refuse a run.adiabatic_epsilon other than the sinusoid's rate, or
    on a sinusoid of zero amplitude.

    ``adiabatic-scaling`` halves the rate of the omega sinusoid, so the
    declared epsilon must be that rate (to 1e-12).  A sinusoid of zero
    amplitude is constant: the slow-motion series is then exact, both
    deviations are zero and their ratio is undefined.  Checked before
    the battery integrates anything.
    """
    eps = s.adiabatic_epsilon
    sched = s.omega_schedule
    if eps is not None and (not isinstance(sched, SinusoidSchedule)
                            or abs(sched.frequency - eps) > 1e-12):
        raise ValidationError(
            "run.adiabatic_epsilon requires omega.kind = sinusoid with "
            "omega.rate equal to the declared epsilon")
    if eps is not None and sched.amplitude == 0.0:
        raise ValidationError(
            "run.adiabatic_epsilon requires a nonzero omega.amplitude")


def _check_adiabatic_scaling(p: _Prepared) -> CheckResult:
    """Error-scaling of the slow-motion series under rate halving.

    Integrates the auxiliary equation over the scenario window with the
    declared rate and with half of it, both started on the series, and
    takes the ratio of the max deviations from the series.  The window
    is held fixed (not one slow period): the auxiliary equation is
    anti-damped, so deviations seeded at t = 0 grow by a factor that
    depends on the window length only — over a fixed window that factor
    cancels in the ratio and the displayed truncation order (third in
    the rate when friction is present) shows through as a ratio near 8.
    Where a rate's problem is the run's own (the rebuilt sinusoid equals
    the scenario's and the series start equals its initial value), the
    run's solution ``p.model.sol`` is that solve, bit for bit, and is
    reused.
    The declared epsilon is validated up front
    (``_check_declared_epsilon``).
    """
    s = p.scenario
    eps = s.adiabatic_epsilon
    sched = s.omega_schedule

    def error_at(rate: float) -> float:
        omega_s = SinusoidSchedule(sched.base, sched.amplitude, rate,
                                   sched.phase)
        init = ErmakovInit(
            adiabatic_rho(omega_s, s.kappa_schedule, 0.0),
            adiabatic_rhodot(omega_s, s.kappa_schedule, 0.0))
        if omega_s == sched and init == s.initial_auxiliary():
            sol = p.model.sol
        else:
            sol = solve_auxiliary(omega_s, s.kappa_schedule, init,
                                  s.t_max, s.step_h)
        ts = np.asarray(sol.ts)
        series = adiabatic_rho(omega_s, s.kappa_schedule, ts)
        return float(np.max(np.abs(np.asarray(sol.rho) - series)))

    ratio = error_at(eps) / error_at(eps / 2.0)
    lo, hi = ADIABATIC_RATIO_BOUNDS
    note = (f"epsilon {eps:g} vs {eps / 2:g} over [0, {s.t_max:g}], "
            f"bounds [{lo:g}, {hi:g}]")
    return CheckResult("adiabatic-scaling", ratio, hi,
                       lo <= ratio <= hi, note=note)


def verify_scenario(s: Scenario) -> RunReport:
    """Run the verification battery and collect a report.

    Operator- and auxiliary-level checks come first so their measured
    values survive even when the state evolution itself diverges (for
    example an over-coarse step): a divergence is reported as a failed
    ``conservation`` check carrying the error message, not raised, and
    an overflow of the drift probe likewise as a failed
    ``drift-crosscheck``.  A ``run.t_max`` below the battery's minimum
    window (``_check_battery_window``) and a ``run.adiabatic_epsilon``
    other than the omega sinusoid's rate or on a sinusoid of zero
    amplitude (``_check_declared_epsilon``) are refused with a
    ValidationError first.
    """
    start = time.perf_counter()
    _check_battery_window(s)
    _check_declared_epsilon(s)
    # the schedules alone decide this check; sampled before the run, its
    # arrays stay below the run's peak memory
    validity = _check_schedule_validity(s)
    p = _prepare(s)
    checks: list[CheckResult] = [
        _check_su11_algebra(p),
        _check_auxiliary_residual(p),
        _check_constraints(p),
        _check_invariant_residual(p),
    ]

    try:
        traj, m0, quad, series = _evolve(p)
        checks.append(_check_conservation(series, p))

        if traj is not None:
            checks.append(_check_spectrum(p))
            checks.extend(_state_checks(traj, p))
        if s.backend == "both":
            checks.append(_check_backend_agreement(
                traj, _first_moments(p, m0), quad))
    except NumericalError as exc:
        checks.append(CheckResult(
            "conservation", math.inf, s.tolerances.conservation, False,
            note=f"evolution diverged: {exc}"))

    try:
        checks.append(_check_drift_crosscheck(p))
    except NumericalError as exc:
        checks.append(CheckResult(
            "drift-crosscheck", math.inf, DRIFT_CROSSCHECK_TOL, False,
            note=f"probe diverged: {exc}"))
    checks.append(validity)
    if s.adiabatic_epsilon is not None:
        checks.append(_check_adiabatic_scaling(p))

    return RunReport(checks=tuple(checks),
                     wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# sweep


SWEEP_HEADER = ("value,max_rel_drift,max_aux_residual,"
                "max_constraint_residual,max_invariant_residual,final_mean_x")


def sweep(s: Scenario, param: str, values: list[str],
          out_path) -> list[dict[str, float]]:
    """Run the scenario once per parameter value and aggregate metrics.

    Rows land in input order.  Each run rebuilds the scenario through
    full validation, so an out-of-range value fails with the same error
    a hand-edited file would produce.  Values must be numbers (they fill
    the ``value`` column); any other value, and any ``run.t_max`` below
    the battery's minimum window, is rejected before the first run.
    """
    if not values:
        raise ValidationError("sweep needs at least one value")
    try:
        numbers = [float(value) for value in values]
    except ValueError:
        raise ValidationError(
            f"sweep values for {param} must be numbers, got "
            f"{', '.join(values)}") from None
    scenarios = [s.with_setting(param, value) for value in values]
    for sc in scenarios:
        _check_battery_window(sc)
    rows: list[dict[str, float]] = []
    for sc, number in zip(scenarios, numbers):
        p = _prepare(sc)
        traj, m0, _, series = _evolve(p)
        if traj is not None:
            final_x = traj.mean_x[-1]
        else:
            final_x = _first_moments(p, m0)[-1, 0]
        rows.append({
            "value": number,
            "max_rel_drift": float(series.max_rel_drift),
            "max_aux_residual": _check_auxiliary_residual(p).measured,
            "max_constraint_residual": _check_constraints(p).measured,
            "max_invariant_residual": _check_invariant_residual(p).measured,
            "final_mean_x": float(final_x),
        })
    keys = SWEEP_HEADER.split(",")
    _write_rows(out_path, SWEEP_HEADER,
                ([row[k] for k in keys] for row in rows), s.csv_precision)
    return rows

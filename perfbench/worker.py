"""One benchmark process: set up, call the pipeline, gate the outputs.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one
thread.  Modes:

* ``--setup-only``: time ``import invariantlab`` plus ``load_scenario``,
  scale it by the host-speed probes that follow it, and exit.
* default: call the workload's entry point repeatedly until the next call
  would overrun ``--seconds`` (at least once), gate every call against the
  reference, and record wall and CPU time per call, measured and scaled
  to the reference host speed (``hostspeed.py``).
* ``--trace 1``: pairs of an untraced call and a call with every public
  function of the package wrapped (see ``tracing.py``), while time
  allows; derive the per-layer metrics from the first traced call's
  spans and write the span file.
* ``--record``: one call whose capture is written for the reference.

The result is a JSON file at ``--out``; nothing is printed on success.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

SETUP_START = time.perf_counter()
import invariantlab  # noqa: E402  (timed as part of set-up)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gate  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Scenario fields that define the computation; paths are left out so the
# hash is the same in every checkout.
SCENARIO_FIELDS = ("basis", "omega_schedule", "kappa_schedule",
                   "use_adiabatic_init", "rho0", "rhodot0", "state", "t_max",
                   "step_h", "record_every", "backend", "adiabatic_epsilon",
                   "tolerances", "csv_precision")
# probes that follow a --setup-only set-up (about 0.2 s)
SETUP_PROBES = 25


def _canonical(obj):
    """JSON-ready, address-free form of a scenario field."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if hasattr(obj, "__dict__"):  # e.g. a table schedule
        return {k: _canonical(v) for k, v in vars(obj).items()
                if not k.startswith("_")}
    if isinstance(obj, (tuple, list)):
        return [_canonical(v) for v in obj]
    return repr(obj)


def scenario_hash(s) -> str:
    text = json.dumps({f: _canonical(getattr(s, f)) for f in SCENARIO_FIELDS},
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _blas_threads() -> tuple[str | None, int | None]:
    """(library path, threads) of the OpenBLAS loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return None, None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return path, int(fn())
    return (libs[0] if libs else None), None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib, threads = _blas_threads()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "invariantlab": invariantlab.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_library": lib,
        "blas_threads": threads,
        "blas_multithreaded": threads is None or threads > 1,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def call_pipeline(entry: str, scenario,
                  speed: hostspeed.HostSpeed | None) -> tuple[dict, dict | None, str]:
    """(times, capture or None, error) of one entry-point call.

    With ``speed`` the call runs under the host-speed probe and the times
    hold both the measured and the scaled values (see ``hostspeed.py``);
    without it (traced calls) only the measured ones.
    """
    runner = invariantlab.runner  # looked up now, so traced wrappers apply

    def call():
        try:
            if entry == "verify":
                return runner.verify_scenario(scenario), ""
            return runner.run_scenario(scenario), ""
        except Exception as exc:  # a failing call is a failed op, not a crash
            return None, "".join(traceback.format_exception_only(exc)).strip()

    if speed is not None:
        (result, error), times = speed.timed(call)
    else:
        w0, c0 = time.perf_counter(), time.process_time()
        result, error = call()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        times = {"wall_s": wall, "cpu_s": cpu, "raw_wall_s": wall, "raw_cpu_s": cpu}
    if result is None:
        return times, None, error
    if entry == "verify":
        return times, gate.capture_verify(result), ""
    return times, gate.capture_run(result.out_dir), ""


class Calls:
    """Per-call timings and gate outcomes."""

    def __init__(self, entry: str, reference: dict | None,
                 speed: hostspeed.HostSpeed | None):
        self.entry = entry
        self.reference = reference
        self.speed = speed
        self.times: list[dict] = []
        self.attempted = 0
        self.failures: list[list[str]] = []
        self.identical: list[int] = []
        self.capture: dict | None = None
        self.peak_rss_mb = 0.0

    def run(self, scenario) -> float:
        """Make one gated call; return its measured wall time."""
        times, capture, error = call_pipeline(self.entry, scenario, self.speed)
        self.times.append(times)
        if len(self.times) == 1:
            # the high-water mark through the first call: the number of
            # calls depends on the host's speed, and each later one adds
            # about 2 MB of allocator growth on the wide basis
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = times["raw_wall_s"]
        self.capture = capture
        ref = self.reference
        if ref is None:  # recording: no gate yet
            if capture is None:
                raise SystemExit(f"reference call failed: {error}")
            return wall
        self.attempted += gate.op_count(ref)
        if capture is None:
            failures, identical = gate.failed_all(ref, error), 0
        else:
            failures, identical = gate.compare(capture, ref)
        self.failures.extend([name, reason] for name, reason in failures)
        self.identical.append(identical)
        return wall


def per_layer(tr: tracing.Tracer, run_id: str, traced_wall: float,
              untraced_wall: float) -> dict[str, tuple[float, str]]:
    layers = tr.layers(run_id)
    setup = tr.layers("setup")
    counts = tr.counts[tr.runs.index(run_id)]

    def get(name, key):
        return layers.get(name, {}).get(key, 0.0)

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    dens = "lindblad.evolve_density"
    dens_busy = get(dens, "busy_s")
    dens_steps = counts[f"{dens}.steps"]
    flop = counts[f"{dens}.flop_computed"]
    put(f"{dens}.busy_s", dens_busy, "s")
    put(f"{dens}.self_s", get(dens, "self_s"), "s")
    put(f"{dens}.steps", dens_steps, "count")
    put(f"{dens}.step_us", 1e6 * dens_busy / dens_steps if dens_steps else 0.0, "us")
    put(f"{dens}.flop_computed", flop, "flop")
    put(f"{dens}.gflops_computed", flop / dens_busy * 1e-9 if dens_busy else 0.0,
        "GFLOP/s")
    for name in ("lindblad.coefficients_at", "lindblad.model.hamiltonian_at",
                 "lindblad.model.dissipators_at", "schedules.Schedule.eval",
                 "lindblad.moments_from_state", "operators.expectation"):
        put(f"{name}.calls", get(name, "calls"), "count")
        put(f"{name}.busy_s", get(name, "busy_s"), "s")
    put("operators.FockOperator.constructions",
        counts["operators.FockOperator.constructions"], "count")
    adj = "lindblad.evolve_adjoint_observable"
    adj_steps = counts[f"{adj}.steps"]
    put(f"{adj}.busy_s", get(adj, "busy_s"), "s")
    put(f"{adj}.steps", adj_steps, "count")
    put(f"{adj}.step_us", 1e6 * get(adj, "busy_s") / adj_steps if adj_steps else 0.0,
        "us")
    aux = "auxiliary.solve_auxiliary"
    put(f"{aux}.calls", get(aux, "calls"), "count")
    put(f"{aux}.steps", counts[f"{aux}.steps"], "count")
    put(f"{aux}.busy_s", get(aux, "busy_s"), "s")
    for name in ("auxiliary.max_residual_between_nodes",
                 "lindblad.evolve_su11_moments", "lindblad.evolve_first_moments",
                 "invariants.spectrum_series", "invariants.expectation_series",
                 "invariants.invariant_residual", "invariants.drift_rhs"):
        put(f"{name}.busy_s", get(name, "busy_s"), "s")
    put("invariants.spectrum_series.samples",
        counts["invariants.spectrum_series.samples"], "count")
    put("invariants.constraint_residuals.calls",
        get("invariants.constraint_residuals", "calls"), "count")
    put("runner.csv.bytes", counts["runner.csv.bytes"], "B")
    put("runner.csv.busy_s", sum(get(f"runner.csv.{cls}", "busy_s")
                                 for _, cls in tracing.CSV_WRITERS), "s")
    put("lindblad.trajectory.state_bytes_computed",
        counts["lindblad.trajectory.state_bytes_computed"], "B")
    put("scenario.load_scenario.busy_s",
        setup.get("scenario.load_scenario", {}).get("busy_s", 0.0), "s")
    for name in ("runner.verify_scenario", "runner.run_scenario"):
        put(f"{name}.self_s", get(name, "self_s"), "s")
    put("trace.overhead_frac", traced_wall / untraced_wall - 1.0, "fraction")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--variant", type=int, required=True)
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--reference", help="reference file to gate against")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="span file written with --trace 1")
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.begin_run("setup")
        tr.install()
    scenario = invariantlab.scenario.load_scenario(args.scenario)
    setup_s = time.perf_counter() - SETUP_START
    if tr is not None:
        tr.uninstall()
    result: dict = {"setup_s": setup_s, "scenario_sha256": scenario_hash(scenario)}
    if args.setup_only:
        # probes right after the set-up give the host speed it ran at
        slowdown = hostspeed.HostSpeed().sample(SETUP_PROBES)
        result.update(raw_setup_s=setup_s, setup_s=setup_s / slowdown,
                      slowdown=slowdown)
        _write(args.out, result)
        return 0

    reference = None
    if not args.record:
        with open(args.reference, encoding="utf-8") as fh:
            recorded = json.load(fh)["workloads"][args.workload]
        reference = recorded["variants"][str(args.variant)]
    # traced calls are timed without the probe: its handler would add to
    # the spans it interrupts
    speed = None if tr is not None else hostspeed.HostSpeed()
    calls = Calls(WORKLOADS[args.workload].entry, reference, speed)
    start = time.perf_counter()
    if tr is not None:
        # (untraced, traced) pairs while time allows; the layers come from
        # the first traced call, the overhead from the medians of both
        untraced, traced = [], []
        while not traced or time.perf_counter() - start + untraced[-1] + traced[-1] <= args.seconds:
            untraced.append(calls.run(scenario))
            tr.begin_run(f"{args.run_id}-traced{len(traced)}")
            tr.install()
            try:
                traced.append(calls.run(scenario))
            finally:
                tr.uninstall()
        result["per_layer"] = per_layer(tr, f"{args.run_id}-traced0",
                                        statistics.median(traced),
                                        statistics.median(untraced))
        tr.write_spans(args.spans)
        result["spans"] = len(tr.start)
    else:
        last = calls.run(scenario)
        while not args.record and time.perf_counter() - start + last <= args.seconds:
            last = calls.run(scenario)

    result.update({
        "calls": len(calls.times),
        "wall_s": statistics.median(t["wall_s"] for t in calls.times),
        "cpu_s": statistics.median(t["cpu_s"] for t in calls.times),
        "raw_wall_s": statistics.median(t["raw_wall_s"] for t in calls.times),
        "slowdown": (statistics.median(t["slowdown"] for t in calls.times)
                     if speed is not None else None),
        "times_all": calls.times,
        "peak_rss_mb": calls.peak_rss_mb,
        "attempted": calls.attempted,
        "failures": calls.failures,
        "artifacts_identical": min(calls.identical) if calls.identical else 0,
        "env": environment(),
    })
    if args.record:
        result["capture"] = calls.capture
    _write(args.out, result)
    return 0


def _write(path: str, obj: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())

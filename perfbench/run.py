"""invariantlab benchmark: time the pipeline entry points, gate their outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-baseline --seed 1 --seconds 30 --trace 0

Each run starts fresh worker processes (``worker.py``) with BLAS pinned to
one thread.  With ``--trace 0`` it prints the end-to-end metrics
(``wall_s``, ``cpu_s``, ``setup_s``, ``peak_rss_mb``; the times scaled to
the reference host speed, see ``hostspeed.py``), with ``--trace 1``
the per-layer metrics from a traced call.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the run (environment, per-call times, failures) is written under
``perfbench/out/results``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import OUT_DIR, WORKLOADS, variant, write_scenario  # noqa: E402

HERE = "perfbench"
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
PACKAGE_DIR = os.path.join("src", "invariantlab")
# fresh processes timed for setup_s; the median is reported
SETUP_REPS = 5
# the whole run must end within 180 s
RUN_DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = "1"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], out: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed before a worker could start")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args, "--out", out],
                              env=child_env(), stdout=subprocess.DEVNULL,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {RUN_DEADLINE_S:g} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def git_revision() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree root."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or (
            os.path.realpath(lines[0]) != os.path.realpath(".")):
        return "unknown"
    return lines[1]


def source_hash() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_checkout(workload, *extra: str):
    """Fail unless the package, the workload's base scenario and ``extra`` exist."""
    needed = [os.path.join(PACKAGE_DIR, "__init__.py"), *extra]
    if workload.base is not None:
        needed.append(workload.base)
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        raise BenchError("not a repository checkout; missing " + ", ".join(missing))


def bench(workload_name: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    w = WORKLOADS[workload_name]
    check_checkout(w, REFERENCE)
    k = variant(seed)
    scenario = write_scenario(w, k)
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{w.name}-seed{seed}-trace{trace}")
    # one span file per workload, replaced by each traced run
    spans = os.path.join(results_dir, f"{w.name}-spans.csv")
    common = ["--workload", w.name, "--variant", str(k), "--scenario", scenario]
    main = run_worker([*common, "--reference", REFERENCE, "--seconds", str(seconds),
                       "--trace", str(trace), "--spans", spans,
                       "--run-id", f"{w.name}-seed{seed}"],
                      stem + "-worker.json", deadline)
    record = {"workload": w.name, "seed": seed, "phase_index": k,
              "git_revision": git_revision(), "source_sha256": source_hash(),
              **main}
    lines = [f"workload {w.name}  seed {seed}  phase index {k}  "
             f"entry {w.entry}  calls {main['calls']}",
             f"scenario sha256 {main['scenario_sha256']}",
             f"git {record['git_revision']}  source sha256 {record['source_sha256']}"]
    env = main["env"]
    lines.append("env " + "  ".join(f"{key}={env[key]}" for key in
                                    ("python", "numpy", "scipy", "blas",
                                     "blas_threads", "nproc", "cpu_model")))
    if env["blas_multithreaded"]:
        lines.append("WARNING: BLAS ran with more than one thread "
                     f"({env['blas_threads']}); timings are not comparable")

    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in main["per_layer"].items()}
        metrics["artifacts_identical"] = {"value": main["artifacts_identical"],
                                          "unit": "count"}
        lines.append(f"span file {spans} ({main['spans']} spans)")
    else:
        setups = [run_worker([*common, "--setup-only"], stem + "-setup.json",
                             deadline) for _ in range(SETUP_REPS)]
        record["setup_all"] = setups
        metrics = {
            "wall_s": {"value": main["wall_s"], "unit": "s"},
            "cpu_s": {"value": main["cpu_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
        lines.append(
            "times at reference host speed; measured: wall_s "
            f"{main['raw_wall_s']:.6g} s, setup_s "
            f"{statistics.median(s['raw_setup_s'] for s in setups):.6g} s; "
            f"host slowdown {main['slowdown']:.4g} (calls), "
            f"{statistics.median(s['slowdown'] for s in setups):.4g} (set-up)")
    failed = min(len(main["failures"]), main["attempted"])
    summary = {"correct": failed == 0 and main["attempted"] > 0,
               "attempted": main["attempted"], "failed": failed,
               "metrics": metrics}
    record["summary"] = summary
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        lines.append(f"{name:52s} {m['value']:>16.6g} {m['unit']}")
    lines.append(f"{'ops':52s} {main['attempted']:>16d} count")
    lines.append(f"{'ops_failed':52s} {failed:>16d} count")
    if not trace:
        lines.append(f"{'artifacts_identical':52s} {main['artifacts_identical']:>16d} "
                     "count (per call, byte-identical to the reference)")
    lines.extend(f"FAILED {name}: {reason}" for name, reason in main["failures"])
    lines.append(f"record {stem}.json")
    return summary, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        summary, lines = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the correctness reference from the current source tree.

Usage, from the repository root:

    python3 perfbench/record_reference.py

Runs every workload once per phase index in a fresh worker and writes
``perfbench/reference.json``: for each workload and phase, the capture the
gate compares later runs against (see ``gate.py`` for its content and
tolerance).  Record it only from a commit whose outputs are trusted; the
committed file was recorded from the commit that added the benchmark,
before any optimisation.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gate  # noqa: E402
from run import REFERENCE, check_checkout, git_revision, run_worker, source_hash  # noqa: E402
from workloads import OUT_DIR, PHASES, WORKLOADS, write_scenario  # noqa: E402

CALL_LIMIT_S = 600.0


def main() -> int:
    out = {"git_revision": git_revision(), "source_sha256": source_hash(),
           "tolerance": {"rtol": gate.RTOL, "check_atol_frac": gate.CHECK_ATOL_FRAC,
                         "csv_atol": gate.CSV_ATOL},
           "workloads": {}}
    os.makedirs(OUT_DIR, exist_ok=True)
    for w in WORKLOADS.values():
        check_checkout(w)
        variants = {}
        for k in range(PHASES):
            scenario = write_scenario(w, k)
            res = run_worker(["--workload", w.name, "--variant", str(k),
                              "--scenario", scenario, "--record"],
                             os.path.join(OUT_DIR, "record.json"),
                             time.monotonic() + CALL_LIMIT_S)
            variants[str(k)] = res["capture"]
            print(f"{w.name} phase {k}: wall {res['wall_s']:.2f} s", flush=True)
        out["workloads"][w.name] = {"variants": variants}
    out["env"] = res["env"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

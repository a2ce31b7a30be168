"""Self-test of the correctness gate: perturbed outputs must trip it.

Usage, from the repository root (no package import, runs in a second):

    python3 perfbench/gate_selftest.py

For every workload and phase in ``reference.json`` it checks that the
reference passes against itself with every output byte-identical, and
that each perturbation below is caught:

* verify: a measured value moved by 1e-5 relative, a check that reads
  FAIL, a verdict that differs, a check that is missing;
* run: a CSV cell moved by 1e-6 relative, a dropped row, a missing file;
* a call that raised fails every operation.

A change at rounding level (1e-12 relative) must pass the tolerance but
lower ``artifacts_identical``, the byte-identity count.  Exits 1 on the
first expectation that does not hold.
"""

from __future__ import annotations

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gate  # noqa: E402

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def expect(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"gate self-test FAILED: {what}")


def check_verify(label: str, ref: dict):
    n = len(ref["checks"])
    failures, identical = gate.compare(ref, ref)
    expect(not failures and identical == n, f"{label}: reference against itself")

    def mutated(i, **fields):
        got = copy.deepcopy(ref)
        got["checks"][i].update(fields)
        return gate.compare(got, ref)

    for i, c in enumerate(ref["checks"]):
        name = c["name"]
        moved = c["measured"] * (1 + 1e-5) + 1e-2 * abs(c["threshold"])
        failures, _ = mutated(i, measured=moved, line=c["line"] + " ")
        expect([f[0] for f in failures] == [name], f"{label}: moved {name}")
        failures, _ = mutated(i, passed=False, warning=False)
        expect([f[0] for f in failures] == [name], f"{label}: FAIL {name}")
        failures, identical = mutated(i, measured=c["measured"] * (1 + 1e-12),
                                      line=c["line"] + " ")
        expect(not failures and identical == n - 1,
               f"{label}: rounding-level change of {name}")
    got = copy.deepcopy(ref)
    got["checks"][-1]["warning"] = not got["checks"][-1]["warning"]
    failures, _ = gate.compare(got, ref)
    expect(len(failures) == 1, f"{label}: verdict differs")
    got = copy.deepcopy(ref)
    del got["checks"][0]
    failures, _ = gate.compare(got, ref)
    expect([f[1] for f in failures] == ["check missing"], f"{label}: missing check")


def check_run(label: str, ref: dict):
    n = len(ref["files"])
    failures, identical = gate.compare(ref, ref)
    expect(not failures and identical == n, f"{label}: reference against itself")
    for name, f in ref["files"].items():
        row = len(f["rows"]) // 2
        col = len(f["rows"][row]) - 1
        got = copy.deepcopy(ref)
        cell = got["files"][name]["rows"][row]
        cell[col] = cell[col] * (1 + 1e-6) + 1e-9
        got["files"][name]["sha256"] = "0" * 64
        failures, _ = gate.compare(got, ref)
        expect([x[0] for x in failures] == [name], f"{label}: moved cell of {name}")
        cell[col] = f["rows"][row][col] * (1 + 1e-12)
        failures, identical = gate.compare(got, ref)
        expect(not failures and identical == n - 1,
               f"{label}: rounding-level change of {name}")
        del got["files"][name]["rows"][-1]
        failures, _ = gate.compare(got, ref)
        expect([x[0] for x in failures] == [name], f"{label}: dropped row of {name}")
        del got["files"][name]
        failures, _ = gate.compare(got, ref)
        expect([x[1] for x in failures] == ["artifact missing"],
               f"{label}: missing {name}")


def main() -> int:
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    cases = 0
    for workload, rec in reference["workloads"].items():
        for k, ref in rec["variants"].items():
            label = f"{workload} phase {k}"
            if "checks" in ref:
                check_verify(label, ref)
            else:
                check_run(label, ref)
            expect(len(gate.failed_all(ref, "raised")) == gate.op_count(ref),
                   f"{label}: a raising call fails every operation")
            cases += 1
    print(f"gate self-test passed: {cases} references, every perturbation caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())

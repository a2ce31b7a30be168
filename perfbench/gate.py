"""Correctness gate: compare a pipeline call's outputs with a recorded reference.

A *capture* is the comparable form of one call's outputs:

* ``verify``: every check's name, verdict, measured value, threshold and
  the report line it prints;
* ``run``: every CSV artifact's SHA-256, header and numeric rows.

One operation is one check (``verify``) or one artifact (``run``).  An
operation fails when the check reads FAIL, when its verdict differs from
the reference, or when a number lies outside the tolerance below.

Tolerance.  A value ``x`` matches its reference ``r`` when
``|x - r| <= RTOL * |r| + atol``, where ``atol`` is ``CHECK_ATOL_FRAC``
times the check's threshold for check values and ``CSV_ATOL`` for CSV
cells.  Reordering the floating-point work (a vectorised stage grid, a
banded right-hand side) moves results by rounding only: about 1e-17 per
step, 1e-12 relative after 20 000 steps, and the RK4 truncation error at
h = 1e-3 is of the same order.  ``RTOL`` = 1e-7 leaves four decades above
that, while a dropped term or a flipped sign moves the physics by 1e-4 or
more.  The absolute term covers values that sit at rounding level, such
as a Hermiticity deviation of 3e-16: there only the distance from the
check's threshold (a thousandth of it) means anything.  Report lines and
CSV files are also compared byte for byte; that count,
``artifacts_identical``, is the behaviour gate of the roadmap and does
not fail an operation by itself.

Pure Python, so the self-test and the orchestrator need no numpy.
"""

from __future__ import annotations

import hashlib
import math
import os

RTOL = 1e-7
CHECK_ATOL_FRAC = 1e-3
CSV_ATOL = 1e-12
ARTIFACTS = ("trajectory.csv", "ermakov.csv", "invariant.csv", "spectrum.csv")


def capture_verify(report) -> dict:
    return {"checks": [
        {"name": c.name, "measured": c.measured, "threshold": c.threshold,
         "passed": c.passed, "warning": c.warning, "line": c.format()}
        for c in report.checks]}


def capture_run(out_dir: str) -> dict:
    files = {}
    for name in ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        header, *rows = data.decode("ascii").splitlines()
        files[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                       "header": header,
                       "rows": [[float(v) for v in row.split(",")] for row in rows]}
    return {"files": files}


def _close(x: float, ref: float, atol: float) -> bool:
    if math.isinf(x) or math.isinf(ref) or math.isnan(x) or math.isnan(ref):
        return x == ref
    return abs(x - ref) <= RTOL * abs(ref) + atol


def _compare_checks(got: list, ref: list) -> list[tuple[str, str]]:
    failures = []
    got_by_name = {c["name"]: c for c in got}
    for r in ref:
        c = got_by_name.get(r["name"])
        if c is None:
            failures.append((r["name"], "check missing"))
        elif not (c["passed"] or c["warning"]):
            failures.append((r["name"], f"battery FAIL: {c['line']}"))
        elif (c["passed"], c["warning"]) != (r["passed"], r["warning"]):
            failures.append((r["name"], "verdict differs from reference"))
        elif not _close(c["measured"], r["measured"],
                        CHECK_ATOL_FRAC * abs(r["threshold"])):
            failures.append((r["name"], f"measured {c['measured']!r} vs "
                                        f"reference {r['measured']!r}"))
    extra = [c["name"] for c in got if c["name"] not in
             {r["name"] for r in ref}]
    failures.extend((name, "check not in reference") for name in extra)
    return failures


def _compare_file(got: dict, ref: dict) -> str | None:
    if got["header"] != ref["header"]:
        return "header differs"
    if len(got["rows"]) != len(ref["rows"]):
        return f"{len(got['rows'])} rows vs {len(ref['rows'])}"
    for i, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"])):
        if len(row) != len(ref_row):
            return f"row {i} has {len(row)} fields vs {len(ref_row)}"
        for j, (x, r) in enumerate(zip(row, ref_row)):
            if not _close(x, r, CSV_ATOL):
                return f"row {i} field {j}: {x!r} vs reference {r!r}"
    return None


def op_count(ref: dict) -> int:
    """Operations one call performs: checks or artifacts of the reference."""
    return len(ref["checks"]) if "checks" in ref else len(ref["files"])


def compare(got: dict, ref: dict) -> tuple[list[tuple[str, str]], int]:
    """(failed operations with reasons, outputs byte-identical to reference)."""
    if "checks" in ref:
        failures = _compare_checks(got["checks"], ref["checks"])
        ref_lines = {r["name"]: r["line"] for r in ref["checks"]}
        identical = sum(ref_lines.get(c["name"]) == c["line"]
                        for c in got["checks"])
        return failures, identical
    failures = []
    identical = 0
    for name, ref_file in ref["files"].items():
        got_file = got["files"].get(name)
        if got_file is None:
            failures.append((name, "artifact missing"))
            continue
        reason = _compare_file(got_file, ref_file)
        if reason is not None:
            failures.append((name, reason))
        identical += got_file["sha256"] == ref_file["sha256"]
    return failures, identical


def failed_all(ref: dict, reason: str) -> list[tuple[str, str]]:
    """Every operation of a call that raised before producing outputs."""
    names = ([r["name"] for r in ref["checks"]] if "checks" in ref
             else list(ref["files"]))
    return [(name, reason) for name in names]

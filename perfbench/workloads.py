"""Benchmark workloads and the checks on their outputs.

Each workload is one ``su3paths`` CLI call.  Its output is compared with
a reference captured at the commit that defined the benchmark
(``perfbench/reference/``, written by ``capture_reference.py``):

- a report must give, check by check, the same name, pass flag and
  detail text once residual numerals (the ``x.xxxe±yy`` figures) are
  masked, so dimension totals and grading counts match byte for byte;
- a solve must return the reference cells within ``CELL_TOL`` and
  carry relation residuals below ``RESIDUAL_TOL``.

The operations counted are report checks, or the one solve.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RESIDUAL = re.compile(r"[-+]?\d\.\d+e[-+]\d+")
CELL_TOL = 1e-9
RESIDUAL_TOL = 1e-8  # the CLI's CHECK_TOL
SOLVE_RESIDUALS = ("cupcap", "f_square", "h1", "h2", "h3", "h4", "lemma", "sum_rule")

# Reports take no random input, so their seed is unused.  A solve passes
# the seed on; the solver's first start is seed-free and converges on e5.
WORKLOADS = {
    "report-e5": {"graph": "e5", "argv": ["report", "e5", "--max-len", "4", "--json"]},
    "report-a5": {"graph": "a5", "argv": ["report", "a5", "--max-len", "3", "--json"]},
    "solve-e5": {"graph": "e5", "argv": ["cells", "solve", "e5", "--seed", "{seed}", "--json"]},
    # seconds-long run of the harness, tracer and oracle; not a benchmark workload
    "smoke": {"graph": "a2", "argv": ["report", "a2", "--max-len", "2", "--json"]},
}


def argv_for(workload: str, seed: int) -> list:
    return [a.format(seed=seed) for a in WORKLOADS[workload]["argv"]]


def is_solve(workload: str) -> bool:
    return WORKLOADS[workload]["argv"][0] == "cells"


def mask_report(payload: dict) -> dict:
    checks = [
        {**c, "detail": RESIDUAL.sub("<residual>", c["detail"])} for c in payload["checks"]
    ]
    return {**payload, "checks": checks}


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, status: int, payload, reference: dict):
    """(operations attempted, operations failed, problems) for one output."""
    if is_solve(workload):
        problems = _solve_problems(status, payload, reference)
        return 1, int(bool(problems)), problems
    ref_checks = reference["checks"]
    if not isinstance(payload, dict) or "checks" not in payload:
        return len(ref_checks), len(ref_checks), [f"no report payload (status {status})"]
    got = mask_report(payload)["checks"]
    problems = [
        f"check {ref['name']}: expected {ref}, got {got[k] if k < len(got) else None}"
        for k, ref in enumerate(ref_checks)
        if k >= len(got) or got[k] != ref
    ]
    failed = len(problems)
    whole = [f"unexpected check {c}" for c in got[len(ref_checks) :]] + [
        f"{key}: expected {reference[key]!r}, got {payload.get(key)!r}"
        for key in ("graph", "max_len", "passed")
        if payload.get(key) != reference[key]
    ]
    if whole:
        failed = len(ref_checks)
    return len(ref_checks), failed, problems + whole


def _solve_problems(status: int, payload, reference: dict) -> list:
    if status != 0 or not isinstance(payload, dict) or "cells" not in payload:
        return [f"solve failed (status {status}): {payload}"]
    problems = []
    got = {tuple(r["tri"]): complex(r["re"], r["im"]) for r in payload["cells"]}
    want = {tuple(r["tri"]): complex(r["re"], r["im"]) for r in reference["cells"]}
    if got.keys() != want.keys():
        problems.append(f"triangles differ: {sorted(got.keys() ^ want.keys())}")
    for tri in got.keys() & want.keys():
        d = got[tri] - want[tri]
        if max(abs(d.real), abs(d.imag)) > CELL_TOL:
            problems.append(f"cell {tri}: {got[tri]} vs reference {want[tri]}")
    residuals = payload.get("residuals", {})
    for key in SOLVE_RESIDUALS:
        if not residuals.get(key, float("inf")) < RESIDUAL_TOL:
            problems.append(f"residual {key} = {residuals.get(key)}")
    if payload.get("warnings"):
        problems.append(f"warnings: {payload['warnings']}")
    return problems

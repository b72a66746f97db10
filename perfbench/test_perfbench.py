"""Self-test of the benchmark: every declared metric is emitted.

    python3 -m pytest perfbench/test_perfbench.py

The smoke configuration (report a2 at word length 2) runs in seconds.
Set PERFBENCH_ALL=1 to run the benchmark workloads too (minutes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
    BENCH = json.load(fh)
FULL = os.environ.get("PERFBENCH_ALL") == "1"


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["smoke"] + [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    if workload != "smoke" and not FULL:
        pytest.skip("set PERFBENCH_ALL=1 to run the benchmark workloads")
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_oracle_rejects_a_changed_report():
    sys.path.insert(0, str(HERE))
    import workloads

    ref = workloads.load_reference("smoke")
    good = json.loads(json.dumps(ref))
    assert workloads.check("smoke", 0, good, ref)[:2] == (len(ref["checks"]), 0)
    detail = json.loads(json.dumps(ref))
    detail["checks"][-1]["detail"] = detail["checks"][-1]["detail"].replace("0 failures", "1 failures")
    assert workloads.check("smoke", 0, detail, ref)[1] == 1
    bad = json.loads(json.dumps(ref))
    bad["checks"][0]["passed"] = False
    bad["passed"] = False
    attempted, failed, problems = workloads.check("smoke", 1, bad, ref)
    assert failed == attempted and problems
    assert workloads.check("smoke", 1, None, ref)[1] == len(ref["checks"])

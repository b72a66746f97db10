"""Behavioural contract: ``report --json``, ``essential --json``,
``verify tl --json`` and ``verify decomposition --json`` output stays
byte-stable for every shipped graph.

Goldens live in ``tests/golden/``.  Residual numerals in the report and
the two sweeps (the ``x.xxxe±yy`` figures) are masked, because
round-off may move them; everything else, the sweep's check count and
worst locations and the essential payloads included, is compared exactly.
After a deliberate change of output, rewrite the goldens with

    PYTHONPATH=src python tests/test_contract.py
"""

import json
import re
from pathlib import Path

import pytest

from su3paths import graph_names
from su3paths.cli import dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
# the same pattern perfbench/workloads.py masks in report details
RESIDUAL = re.compile(r"[-+]?\d\.\d+e[-+]\d+")
REPORT_MAX_LEN = 3
ESSENTIAL_TYPES = ("0,0", "1,0", "0,1", "2,0", "1,1", "0,2")  # every type of degree <= 2
VERIFY_MAX_LEN = 3


def _json(argv) -> str:
    res = dispatch(argv)
    assert res.status == 0, res.text
    return json.dumps(res.payload, sort_keys=True, separators=(",", ":")) + "\n"


def report_output(name: str) -> str:
    return RESIDUAL.sub(
        "<residual>", _json(["report", name, "--max-len", str(REPORT_MAX_LEN), "--json"])
    )


def essential_output(name: str) -> str:
    return "".join(_json(["essential", name, "--type", t, "--json"]) for t in ESSENTIAL_TYPES)


def verify_tl_output(name: str) -> str:
    return RESIDUAL.sub(
        "<residual>", _json(["verify", "tl", name, "--max-len", str(VERIFY_MAX_LEN), "--json"])
    )


def verify_decomposition_output(name: str) -> str:
    return RESIDUAL.sub(
        "<residual>",
        _json(["verify", "decomposition", name, "--max-len", str(VERIFY_MAX_LEN), "--json"]),
    )


OUTPUTS = {
    "report-{}.json": report_output,
    "essential-{}.jsonl": essential_output,
    "verify-tl-{}.json": verify_tl_output,
    "decomposition-{}.json": verify_decomposition_output,
}


@pytest.mark.parametrize("name", graph_names())
@pytest.mark.parametrize("pattern", sorted(OUTPUTS), ids=lambda p: p.split("-")[0])
def test_output_matches_golden(pattern, name):
    golden = (GOLDEN / pattern.format(name)).read_text(encoding="utf-8")
    assert OUTPUTS[pattern](name) == golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in graph_names():
        for pattern, output in OUTPUTS.items():
            (GOLDEN / pattern.format(name)).write_text(output(name), encoding="utf-8")

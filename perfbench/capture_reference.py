"""Write the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Run once, at the commit that defines the benchmark, from the root of the
checkout.  Reports are stored with residual numerals masked; the solve
reference is the shipped e5 cell file of that commit.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads
from su3paths.cli import dispatch

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        if workloads.is_solve(name):
            graph = workloads.WORKLOADS[name]["graph"]
            cell_file = ROOT / "src" / "su3paths" / "data" / "cells" / f"{graph}.json"
            with open(cell_file, encoding="utf-8") as fh:
                ref = {"graph": graph, "cells": json.load(fh)["cells"]}
        else:
            res = dispatch(workloads.argv_for(name, 0))
            if res.status != 0:
                raise SystemExit(f"{name} failed at this commit:\n{res.text}")
            ref = workloads.mask_report(res.payload)
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}")


if __name__ == "__main__":
    main()

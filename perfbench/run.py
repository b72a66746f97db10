"""su3paths benchmark: CLI workloads end to end, and per layer when traced.

    python3 perfbench/run.py --workload report-e5 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; su3paths is imported from its
``src/``.  Every operation runs in a fresh interpreter (child.py), one
after another: a closed loop of one client, with BLAS held to one thread.

--trace 0 runs operations until --seconds have passed (at least one) and
reports the end-to-end metrics of BENCHMARK.json: medians over the
operations, and for set-up the median over every process started.
--trace 1 runs one untraced and one traced operation and reports the
per-layer metrics; the tracing overhead is the difference of their
run times.  Both check every output against perfbench/reference/.

The last line of standard output is the result object.  Each result is
also appended, with a record of the machine and the code, to
perfbench/results/runs.jsonl; traced spans go to perfbench/traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACES = HERE / "traces"
RESULTS = HERE / "results"
RUN_LIMIT_S = 170.0  # one run must end within 180 s
SETUP_SAMPLES = 10  # set-up-only processes per run, besides the operations
BLAS_THREADS = "1"
# counts that must repeat exactly between traced runs of the same code
EXACT = (
    "paths.gradings_swept",
    "paths.basis_paths",
    "operators.verify_tl.checks",
    "essential.kernel_dim_sum",
    "essential.min_svd_gap",
    "cells.solver.nfev",
    "cells.solver.njev",
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SU3PATHS_CELLS_DIR")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    return env


def spawn(graph: str, deadline: float, argv=None, trace=None, run_id="") -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), graph]
    if argv is not None:
        cmd += ["--argv", json.dumps(argv)]
    if trace is not None:
        cmd += ["--trace", str(trace), "--run-id", run_id]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd)} did not finish within the run limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out["su3paths_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"su3paths was imported from {out['su3paths_file']}, not {SRC}")
    out["setup_s"] = (out["ready"] - start) * out["setup_speed"]
    out["elapsed_s"] = time.monotonic() - start
    return out


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def environment(threads_seen) -> dict:
    import numpy

    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "process_threads": threads_seen,
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def check_exact(workload: str, layers: dict, digest: str) -> list:
    """Compare the exact counts with those of earlier traced runs of the
    same source tree; return the differences."""
    path = TRACES / f"{workload}.exact.json"
    counts = {k: layers[k] for k in EXACT}
    seen = {}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    earlier = seen.get(digest)
    if earlier is None:
        seen[digest] = counts
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(seen, fh, indent=1, sort_keys=True)
        return []
    return [f"{k}: {earlier[k]} earlier, {counts[k]} now" for k in EXACT if earlier[k] != counts[k]]


def declared(mode: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[mode]}


def run(args) -> tuple:
    wl = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(args.workload)
    argv = workloads.argv_for(args.workload, args.seed)
    deadline = time.monotonic() + RUN_LIMIT_S

    ops = []
    if args.trace:
        TRACES.mkdir(exist_ok=True)
        ops.append(spawn(wl["graph"], deadline, argv))
        spans = TRACES / f"{args.workload}.spans.npz"
        run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
        ops.append(spawn(wl["graph"], deadline, argv, trace=spans, run_id=run_id))
    else:
        spawn(wl["graph"], deadline)  # warm the file cache and bytecode; not timed
        setups = [spawn(wl["graph"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
        start = time.monotonic()
        while not ops or time.monotonic() - start < args.seconds:
            if ops and time.monotonic() + ops[-1]["elapsed_s"] > deadline:
                break
            ops.append(spawn(wl["graph"], deadline, argv))

    attempted = failed = 0
    for op in ops:
        a, f, problems = workloads.check(args.workload, op["status"], op["payload"], reference)
        attempted, failed = attempted + a, failed + f
        for p in problems:
            print(f"output check failed: {p}", file=sys.stderr)
    correct = failed == 0

    if args.trace:
        plain, traced = ops
        metrics = dict(traced["layers"])
        metrics["process.cpu_s"] = plain["cpu_s"]
        metrics["process.wall_s"] = plain["wall_s"]
        metrics["process.speed"] = plain["speed"]
        metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        env = environment(plain["threads"])
        diffs = check_exact(args.workload, metrics, env["src_sha256"])
        for d in diffs:
            print(f"EXACT COUNT CHANGED between runs of the same code: {d}", file=sys.stderr)
        correct = correct and not diffs
        units = declared("per_layer")
    else:
        setups += [op["setup_s"] for op in ops]
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(op["run_s"] for op in ops),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
            "retained_mb": statistics.median(op["retained_mb"] for op in ops),
            "ok_frac": 1.0 - failed / attempted,
        }
        env = environment(ops[0]["threads"])
        units = declared("end_to_end")
    if metrics.keys() != units.keys():
        raise BenchError(
            f"metrics {sorted(metrics.keys() ^ units.keys())} differ from BENCHMARK.json"
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": [
            {k: op[k] for k in ("setup_s", "setup_speed", "run_s", "wall_s", "speed", "cpu_s")}
            for op in ops
        ],
        "env": env,
        "result": result,
    }
    return result, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "su3paths" / "__init__.py").is_file():
        print(f"no su3paths source under {SRC}", file=sys.stderr)
        return 2
    try:
        result, record = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One su3paths operation in a fresh interpreter, so caches start cold.

Usage: child.py GRAPH [--argv JSON] [--trace SPANS_FILE --run-id ID]

Set-up is what every CLI call pays before its command runs: importing
su3paths, building the graph, loading its shipped cells and computing
its spectral data.  With --argv the process then runs
``su3paths.cli.dispatch`` on that argument list once.  It prints one
JSON object: the monotonic clock reading when set-up finished (the
parent took one just before starting this process), and for an
operation its status, payload, timings and memory.  With --trace the
tracer is installed before set-up and its per-layer metrics are added.

The host's speed drifts by tens of percent within minutes when the
machine is shared, so the times are scaled to a reference speed (the
raw wall time of the call is reported too).  The speed is the mean of CAL_REF_S / t over timings t of a fixed
pure-Python kernel: taken every CAL_PERIOD_S during the call (by
SIGALRM, with the kernel's own time taken out of the call's time), and
CAL_SETUP_RUNS times right after set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import time


CAL_LOOKUPS = 6000
# the kernel's time at the usual speed of a shared 2-core Xeon KVM guest, during a call
# (caches shared with su3paths) and right after set-up (caches warm)
CAL_REF_S = 0.0035
CAL_SETUP_REF_S = 0.0025
CAL_PERIOD_S = 0.2
CAL_SETUP_RUNS = 5


class SpeedProbe:
    """Measures the host's speed with a fixed kernel of tuple-keyed dict
    lookups, the kind of work su3paths' caches do.  While active as a
    context manager, it times the kernel every CAL_PERIOD_S."""

    def __init__(self):
        self._names = [f"v{k}" for k in range(13)]
        self._table = {(i, i % 7, self._names[i % 13]): i for i in range(4096)}
        self.samples = []

    def kernel(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        table, names = self._table, self._names
        s = 0
        for i in range(CAL_LOOKUPS):
            j = (i * 2654435761) % 4096
            s += table[(j, j % 7, names[j % 13])]
        return time.perf_counter() - t0

    def speed(self, samples, ref_s=CAL_REF_S) -> float:
        """Host speed relative to the reference (below 1: slower)."""
        return statistics.fmean(ref_s / t for t in samples or [self.kernel()])

    def _tick(self, signum, frame):
        self.samples.append(self.kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def rss_mib() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("graph")
    ap.add_argument("--argv")
    ap.add_argument("--trace")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()

    import su3paths

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    g = su3paths.get_graph(args.graph)
    su3paths.shipped_cells(g)
    su3paths.spectral_data(g)
    ready = time.monotonic()
    probe = SpeedProbe()
    setup_speed = probe.speed([probe.kernel() for _ in range(CAL_SETUP_RUNS)], CAL_SETUP_REF_S)
    out = {"ready": ready, "setup_speed": setup_speed, "su3paths_file": su3paths.__file__}

    if args.argv:
        from su3paths.cli import dispatch

        gc.collect()
        rss0 = rss_mib()
        with probe:
            c0, t0 = time.process_time(), time.perf_counter()
            res = dispatch(json.loads(args.argv))
            t1, c1 = time.perf_counter(), time.process_time()
            samples = list(probe.samples)
        wall = t1 - t0 - sum(samples)
        run_speed = probe.speed(samples)
        gc.collect()
        out.update(
            status=res.status,
            payload=res.payload,
            wall_s=wall,
            speed=run_speed,
            run_s=wall * run_speed,
            cpu_s=c1 - c0 - sum(samples),  # the kernel runs on the CPU for its whole time
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            retained_mb=rss_mib() - rss0,
            threads=thread_count(),
        )
        if tracer is not None:
            out["layers"] = tracer.metrics()
            tracer.write_spans(args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""In-memory span tracer for su3paths, installed from outside the package.

``Tracer.install`` replaces every public su3paths function with a wrapper
that records a span (name, start, end, parent, run id).  The wrapper is
bound in every su3paths namespace that holds the function, because
``from .paths import enumerate_paths`` copies the binding into other
modules.  ``Decomposer.basis`` and ``scipy.optimize.least_squares`` get
spans too.  The four ``GraphSpec`` lookups run hundreds of thousands of
times, so they are timed in aggregate instead of spanned; their time
still counts as child time of the enclosing span.

Self time is a span's duration minus the time its child spans cover.
Work the tracer does to inspect a result (block shapes, kernel sizes)
is also counted as child time, so it is charged to no layer.

Spans stay in compact arrays until ``write_spans`` saves them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("graphs", "paths", "cells", "operators", "essential", "fusion", "cli")
LOOKUPS = ("has_edge", "out_neighbors", "in_neighbors", "index")
BLOCK_KINDS = ("annihilation", "creation", "cup", "cap_oriented", "tl_u", "tl_f")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # [span index, child seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self._depth = defaultdict(int)
        self.lookup_calls = 0
        self.lookup_s = 0.0
        self.counts = defaultdict(int)
        self._cells_serial: dict = {}
        self._serials = itertools.count(1)
        self._blocks: dict = {}  # key -> (rows, cols, all zero)
        self._enumerated: dict = {}  # (graph, grading) -> dim
        self._svd_rows = 0
        self.min_svd_gap = math.inf
        self._caches: list = []  # (module, lru-cached function)

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        import scipy.optimize

        import su3paths

        mods = {m: importlib.import_module(f"su3paths.{m}") for m in MODULES}
        owners = {f"su3paths.{m}": m for m in MODULES}
        wrapped: dict = {}
        seen_caches = set()
        for ns in [su3paths, *mods.values()]:
            for attr, obj in list(vars(ns).items()):
                home = owners.get(getattr(obj, "__module__", None))
                if home is None or not callable(obj) or inspect.isclass(obj):
                    continue
                if hasattr(obj, "cache_info") and id(obj) not in seen_caches:
                    seen_caches.add(id(obj))
                    self._caches.append((home, obj))
                if attr.startswith("_"):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, f"{home}.{obj.__name__}")
                setattr(ns, attr, wrapped[id(obj)])

        dec = mods["essential"].Decomposer
        dec.basis = self._wrap(dec.basis, "essential.Decomposer.basis")
        spec = mods["graphs"].GraphSpec
        for attr in LOOKUPS:
            setattr(spec, attr, self._wrap_lookup(getattr(spec, attr)))
        scipy.optimize.least_squares = self._wrap(
            scipy.optimize.least_squares, "cells.least_squares"
        )

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        nid = self._name_id(name)
        observe = self._observer(name)
        stack = self._stack
        calls, self_s, total_s, depth = self.calls, self.self_s, self.total_s, self._depth
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span_end[idx] = end
                stack.pop()
                depth[name] -= 1
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if depth[name] == 0:
                    total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(args, kwargs, result)
                if stack:
                    stack[-1][1] += perf_counter() - end
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        counts = self.counts
        key = f"{name}.yielded"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return counted

    def _wrap_lookup(self, fn):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                tracer.lookup_calls += 1
                tracer.lookup_s += dur
                if stack:
                    stack[-1][1] += dur

        return timed

    # ------------------------------------------------------------------
    # result observers (their time is charged to no layer)

    def _observer(self, name: str):
        layer, _, fn = name.partition(".")
        if layer == "operators" and fn in BLOCK_KINDS:
            return functools.partial(self._observe_block, fn)
        return {
            "paths.path_space_dim": self._observe_dim,
            "paths.enumerate_paths": self._observe_enumeration,
            "operators.verify_tl": self._observe_tl,
            "essential.kernel_operators": self._observe_kernel_ops,
            "essential.raw_kernel": self._observe_raw_kernel,
            "cells.least_squares": self._observe_fit,
        }.get(name)

    def _serial(self, cells) -> int:
        """Per-object number for a CellSystem, released with the object so a
        reused id() never merges two systems."""
        key = id(cells)
        entry = self._cells_serial.get(key)
        if entry is None:
            ref = weakref.ref(cells, lambda _r, k=key: self._cells_serial.pop(k, None))
            entry = self._cells_serial[key] = (next(self._serials), ref)
        return entry[0]

    def _observe_block(self, kind, args, kwargs, result):
        g, cells, grading, i, *rest = args + tuple(kwargs.values())
        key = (kind, g.name, self._serial(cells), grading, i, *rest)
        if key not in self._blocks:
            m = result.matrix
            self._blocks[key] = (m.shape[0], m.shape[1], not m.any())

    def _observe_dim(self, args, kwargs, result):
        self.counts["paths.path_space_dim.nonzero"] += result > 0

    def _observe_enumeration(self, args, kwargs, result):
        g, grading = args
        self._enumerated.setdefault((g.name, grading), len(result))

    def _observe_tl(self, args, kwargs, result):
        self.counts["operators.verify_tl.checks"] += result.checks

    def _observe_kernel_ops(self, args, kwargs, result):
        self._svd_rows = max(self._svd_rows, sum(op.matrix.shape[0] for op in result))

    def _observe_raw_kernel(self, args, kwargs, result):
        null, svals = result
        self.counts["essential.kernel_dim_sum"] += null.shape[1]
        # rank = columns minus kernel dimension; a decision near the cutoff
        # shows as a small ratio of the last kept to the first dropped value
        rank = null.shape[0] - null.shape[1]
        if 0 < rank < len(svals) and svals[rank] > 0:
            self.min_svd_gap = min(self.min_svd_gap, svals[rank - 1] / svals[rank])

    def _observe_fit(self, args, kwargs, result):
        self.counts["cells.solver.nfev"] += int(result.nfev or 0)
        self.counts["cells.solver.njev"] += int(getattr(result, "njev", 0) or 0)

    # ------------------------------------------------------------------
    # results

    def cache_entries(self) -> dict:
        out = {m: 0 for m in ("graphs", "paths", "operators", "cells")}
        for module, fn in self._caches:
            if module in out:
                out[module] += fn.cache_info().currsize
        return out

    def _layer_self(self, layer: str) -> float:
        return sum((v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer), 0.0)

    def metrics(self) -> dict:
        """Per-layer metrics named in perfbench/README.md (without the
        process and tracing figures, which the untraced run supplies)."""
        c, s, t = self.calls, self.self_s, self.total_s
        blocks = list(self._blocks.values())
        block_calls = sum(c[f"operators.{k}"] for k in BLOCK_KINDS)
        dims = list(self._enumerated.values())
        caches = self.cache_entries()
        out = {
            "graphs.lookup.calls": self.lookup_calls,
            "graphs.lookup.self_s": self.lookup_s,
            "graphs.adjacency_matrix.calls": c["graphs.adjacency_matrix"],
            "graphs.spectral_data.calls": c["graphs.spectral_data"],
            "paths.gradings_swept": self.counts["paths.iter_gradings.yielded"],
            "paths.nonzero_frac": (
                self.counts["paths.path_space_dim.nonzero"] / c["paths.path_space_dim"]
                if c["paths.path_space_dim"]
                else 0.0
            ),
            "paths.path_space_dim.calls": c["paths.path_space_dim"],
            "paths.path_space_dim.self_s": s["paths.path_space_dim"],
            "paths.enumerate_paths.calls": c["paths.enumerate_paths"],
            "paths.enumerate_paths.distinct": len(dims),
            "paths.enumerate_paths.self_s": s["paths.enumerate_paths"],
            "paths.basis_paths": sum(dims),
            "paths.max_dim": max(dims, default=0),
        }
        for kind in BLOCK_KINDS:
            out[f"operators.{kind}.calls"] = c[f"operators.{kind}"]
            out[f"operators.{kind}.self_s"] = s[f"operators.{kind}"]
        out.update(
            {
                "operators.blocks.distinct": len(blocks),
                "operators.blocks.reuse": 1.0 - len(blocks) / block_calls if block_calls else 0.0,
                "operators.blocks.zero_frac": (
                    sum(1 for b in blocks if b[2]) / len(blocks) if blocks else 0.0
                ),
                "operators.max_block_dim": max((max(b[0], b[1]) for b in blocks), default=0),
                "operators.block_mb": sum(b[0] * b[1] for b in blocks)
                * np.dtype(np.complex128).itemsize
                / 2**20,
                "operators.verify_tl.self_s": s["operators.verify_tl"],
                "operators.verify_tl.total_s": t["operators.verify_tl"],
                "operators.verify_tl.checks": self.counts["operators.verify_tl.checks"],
                "operators.verify_adjointness.self_s": s["operators.verify_adjointness"],
                "operators.verify_adjointness.total_s": t["operators.verify_adjointness"],
                "essential.raw_kernel.calls": c["essential.raw_kernel"],
                "essential.raw_kernel.self_s": s["essential.raw_kernel"],
                "essential.svd_max_rows": self._svd_rows,
                "essential.kernel_dim_sum": self.counts["essential.kernel_dim_sum"],
                "essential.min_svd_gap": (
                    self.min_svd_gap if math.isfinite(self.min_svd_gap) else 0.0
                ),
                "essential.decompose_space.calls": c["essential.decompose_space"],
                "essential.decompose.self_s": (
                    s["essential.Decomposer.basis"] + s["essential.decompose_space"]
                ),
                "essential.verify_decomposition.total_s": t["essential.verify_decomposition"],
                "essential.essential_dims.total_s": t["essential.essential_dims"],
                "cells.load_cells.self_s": s["cells.load_cells"],
                "cells.solve_cells.self_s": s["cells.solve_cells"],
                "cells.least_squares.self_s": s["cells.least_squares"],
                "cells.solver.starts": c["cells.least_squares"],
                "cells.solver.nfev": self.counts["cells.solver.nfev"],
                "cells.solver.njev": self.counts["cells.solver.njev"],
                "cells.cell_system.calls": c["cells.cell_system"],
                "cells.canonical_gauge.self_s": s["cells.canonical_gauge"],
                "fusion.self_s": self._layer_self("fusion"),
                "cli.self_s": self._layer_self("cli"),
                "graphs.cache_entries": caches["graphs"],
                "paths.cache_entries": caches["paths"],
                "operators.cache_entries": caches["operators"],
                "cells.cache_entries": caches["cells"],
                "trace.spans": len(self.span_start),
            }
        )
        return out

    def write_spans(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            run_id=np.array(self.run_id),
        )

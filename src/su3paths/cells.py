"""Triangular cell systems: enumeration, solving, gauge handling, persistence.

A cell system attaches a complex number T to every oriented 3-cycle of
sigma arrows.  The numbers are constrained by the operator algebra built
from them: collapsing a triangle and re-expanding it must scale by the
loop parameter [2] = 2*cos(pi/kappa), which pins the quadratic sum rule

    sum over triangles containing the arrow u->v of |T|^2 = [2] mu(u) mu(v),

and the braid-like identity relating neighbouring collapse operators
(see operators.verify_tl) fixes the remaining freedom up to gauge: cells
may be multiplied by unit phases attached to arrows without changing any
observable quantity.  Degenerate back-and-forth "collapsed" cells are not
stored; they are forced to sqrt(mu(a) mu(m)).

Solved systems for the built-in graphs ship as JSON files; the directory
can be overridden with the SU3PATHS_CELLS_DIR environment variable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

import numpy as np

from .graphs import GraphError, GraphSpec, HashedOnce, cached_on, spectral_data

SUM_RULE_TOL = 1e-9
_SOLVER_STARTS = 8  # Levenberg-Marquardt starts before solve_cells gives up
_VERIFY_LEN = 4  # word length of the relation sweep a solved system carries


class CellSolveError(RuntimeError):
    """Solver failed; carries the best residual report found."""

    def __init__(self, message: str, residuals: Optional[dict] = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class CellFileError(ValueError):
    """Cell file violates the schema or does not match the graph."""


@dataclass(frozen=True, order=True)
class OrientedTriangle:
    """Oriented 3-cycle x -> y -> z -> x, stored with the lexicographically
    smallest vertex first; cyclic rotations are identified."""

    vertices: Tuple[str, str, str]

    def __post_init__(self):
        object.__setattr__(self, "vertices", canonical_rotation(*self.vertices))

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        x, y, z = self.vertices
        return ((x, y), (y, z), (z, x))

    def __str__(self) -> str:
        return "(" + ",".join(self.vertices) + ")"


def canonical_rotation(x: str, y: str, z: str) -> Tuple[str, str, str]:
    rots = [(x, y, z), (y, z, x), (z, x, y)]
    return min(rots)


@cached_on(0)
def enumerate_triangles(g: GraphSpec) -> Tuple[OrientedTriangle, ...]:
    """Every oriented 3-cycle of sigma arrows, canonical and sorted."""
    tris = set()
    for u, v in g.sigma_edges:
        for w in g.out_neighbors(v):
            if g.has_edge(w, u):
                tris.add(OrientedTriangle((u, v, w)))
    return tuple(sorted(tris))


def collapsed_cell(g: GraphSpec, a: str, m: str) -> float:
    """Forced cell sqrt(mu(a) mu(m)) of the back-and-forth sequence a m a.

    m must be a sigma- or sigma-bar-neighbor of a.
    """
    if not (g.has_edge(a, m) or g.has_edge(m, a)):
        raise GraphError(f"{m!r} is not a neighbor of {a!r} in {g.name!r}")
    mu = spectral_data(g).mu
    return math.sqrt(mu[a] * mu[m])


@dataclass(frozen=True)
class CellSystem(HashedOnce):
    """Immutable assignment of a complex cell to every triangle of a graph.

    ``items`` is kept in canonical triangle order so equality is
    bit-for-bit; ``residual_items`` stores the verification report of the
    producing step (solver or file load).  The hash, the value map and the
    annihilation and cup blocks built from the system are computed once
    per instance, freed with it and never pickled; creation and cap are
    rebuilt as their conjugate transposes on each call.
    """

    graph: str
    items: Tuple[Tuple[OrientedTriangle, complex], ...]
    residual_items: Tuple[Tuple[str, float], ...] = ()
    seed: Optional[int] = None
    warnings: Tuple[str, ...] = ()

    __hash__ = HashedOnce.__hash__

    @cached_property
    def values(self) -> Mapping[OrientedTriangle, complex]:
        return MappingProxyType(dict(self.items))

    @property
    def residuals(self) -> Mapping[str, float]:
        return MappingProxyType(dict(self.residual_items))

    def cell(self, x: str, y: str, z: str) -> complex:
        """Cell of the oriented cycle through x, y, z (any rotation)."""
        tri = OrientedTriangle((x, y, z))
        try:
            return self.values[tri]
        except KeyError:
            raise GraphError(f"{tri} is not a triangle of {self.graph!r}") from None

    def with_residuals(self, residuals: Mapping[str, float], warnings=None) -> "CellSystem":
        return replace(
            self,
            residual_items=tuple(sorted((str(k), float(v)) for k, v in residuals.items())),
            warnings=self.warnings if warnings is None else tuple(warnings),
        )


def cell_system(g: GraphSpec, values: Mapping[OrientedTriangle, complex], **kw) -> CellSystem:
    """Build a CellSystem over g's triangles; missing triangles are an error."""
    tris = enumerate_triangles(g)
    missing = [t for t in tris if t not in values]
    if missing:
        raise GraphError(f"missing cell values for triangles {missing}")
    known = set(tris)
    unknown = [t for t in values if t not in known]
    if unknown:
        raise GraphError(f"not triangles of {g.name!r}: {unknown}")
    return CellSystem(graph=g.name, items=tuple((t, complex(values[t])) for t in tris), **kw)


# ----------------------------------------------------------------------
# sum rule and solving


def sum_rule_residuals(g: GraphSpec, cells: CellSystem) -> Mapping[Tuple[str, str], float]:
    """Per-arrow deviation |sum_{tri containing arrow} |T|^2 - [2] mu mu|."""
    sd = spectral_data(g)
    delta = sd.delta
    acc = {e: 0.0 for e in g.sigma_edges}
    for tri, t in cells.items:
        for e in tri.edges():
            acc[e] += abs(t) ** 2
    return MappingProxyType(
        {e: abs(acc[e] - delta * sd.mu[e[0]] * sd.mu[e[1]]) for e in g.sigma_edges}
    )


def max_sum_rule_residual(g: GraphSpec, cells: CellSystem) -> float:
    res = sum_rule_residuals(g, cells)
    return max(res.values()) if res else 0.0


def _pure_run_gradings(g: GraphSpec, length: int):
    """Gradings with constant word (sigma^n or sigma-bar^n) and dim > 0."""
    from .paths import EdgeTag, PathGrading, path_space_dim

    out = []
    for tag in (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR):
        word = (tag,) * length
        for a in g.vertex_ids():
            for b in g.vertex_ids():
                grading = PathGrading(a, b, word)
                if path_space_dim(g, grading) > 0:
                    out.append(grading)
    return out


def _solver_residual_vector(g: GraphSpec, cells: CellSystem, gradings) -> np.ndarray:
    """Sum-rule residuals plus the neighbouring-collapse identity
    U1 U2 U1 - U1 = U2 U1 U2 - U2 on constant three-letter words."""
    from .operators import tl_u

    sd = spectral_data(g)
    delta = sd.delta
    parts = [
        np.array(
            [v for v in sum_rule_residuals(g, cells).values()]
            if g.sigma_edges
            else [],
            dtype=float,
        )
    ]
    for grading in gradings:
        u1 = tl_u(g, cells, grading, 1).matrix
        u2 = tl_u(g, cells, grading, 2).matrix
        d = (u1 @ u2 @ u1 - u1) - (u2 @ u1 @ u2 - u2)
        parts.append(d.real.ravel())
        parts.append(d.imag.ravel())
        h1 = u1 @ u1 - delta * u1
        parts.append(h1.real.ravel())
        parts.append(h1.imag.ravel())
    return np.concatenate(parts) if parts else np.zeros(0)


def solve_cells(
    g: GraphSpec,
    seed: int = 0,
    tol: float = SUM_RULE_TOL,
) -> CellSystem:
    """Solve for a cell system satisfying the operator relations.

    Magnitudes come from the linear arrow sum rules; phases start at +1
    and fall back to seeded Levenberg-Marquardt descent on the stacked
    relation residuals when the positive-real candidate fails.  The
    result is put in the canonical gauge (greedy positivization along the
    triangle list) and carries the verification report up to word length
    4.  Deterministic for a fixed seed.
    """
    from scipy.optimize import least_squares

    from .operators import verify_tl

    tris = enumerate_triangles(g)
    if not tris:
        raise CellSolveError(f"graph {g.name!r} has no triangles")
    sd = spectral_data(g)
    delta = sd.delta
    arrows = list(g.sigma_edges)
    orphan = [e for e in arrows if not any(e in t.edges() for t in tris)]
    if orphan:
        raise CellSolveError(f"arrows on no triangle cannot satisfy the sum rule: {orphan}")

    m = np.zeros((len(arrows), len(tris)))
    for j, t in enumerate(tris):
        for e in t.edges():
            m[arrows.index(e), j] = 1.0
    rhs = np.array([delta * sd.mu[u] * sd.mu[v] for u, v in arrows])
    s, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    if np.abs(m @ s - rhs).max() > 1e-10 or s.min() < -1e-10:
        raise CellSolveError(
            f"arrow sum rules are infeasible on {g.name!r}",
            {"sum_rule_linear": float(np.abs(m @ s - rhs).max())},
        )
    s = np.maximum(s, 0.0)

    gradings = _pure_run_gradings(g, 3)

    def build(values: np.ndarray) -> CellSystem:
        return cell_system(g, dict(zip(tris, values)), seed=seed)

    def fvec(x: np.ndarray) -> np.ndarray:
        vals = x[: len(tris)] + 1j * x[len(tris) :]
        return _solver_residual_vector(g, build(vals), gradings)

    candidate = build(np.sqrt(s).astype(complex))
    best = candidate
    best_res = float(np.abs(_solver_residual_vector(g, candidate, gradings)).max())

    if best_res > tol:
        rng = np.random.default_rng(seed)
        for start in range(_SOLVER_STARTS):
            if start == 0:
                theta = np.zeros(len(tris))
            else:
                theta = rng.uniform(-np.pi, np.pi, size=len(tris))
            t0 = np.sqrt(s) * np.exp(1j * theta)
            x0 = np.concatenate([t0.real, t0.imag])
            fit = least_squares(fvec, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15)
            vals = fit.x[: len(tris)] + 1j * fit.x[len(tris) :]
            cand = build(vals)
            res = float(np.abs(_solver_residual_vector(g, cand, gradings)).max())
            if res < best_res:
                best, best_res = cand, res
            if best_res < tol * 1e-2:
                break
        if best_res > tol:
            raise CellSolveError(
                f"no cell system found for {g.name!r} below tol {tol:g} "
                f"(best residual {best_res:.3e})",
                {"best": best_res},
            )

    best = canonical_gauge(g, best)
    report = verify_tl(g, best, max_len=_VERIFY_LEN)
    return best.with_residuals(report.summary())


# ----------------------------------------------------------------------
# gauge


def gauge_transform(cells: CellSystem, phases: Mapping[Tuple[str, str], complex]) -> CellSystem:
    """T'(x,y,z) = phase(x->y) phase(y->z) phase(z->x) T(x,y,z).

    Phases default to 1 on arrows not listed; every listed phase must be
    unimodular.  The residual report is carried over unchanged (all
    verified quantities are gauge invariant).
    """
    for e, p in phases.items():
        if abs(abs(p) - 1.0) > 1e-12:
            raise ValueError(f"gauge phase for arrow {e} is not unimodular: {p!r}")
    items = tuple(
        (tri, t * np.prod([complex(phases.get(e, 1.0)) for e in tri.edges()]))
        for tri, t in cells.items
    )
    return replace(cells, items=items)


def random_gauge(g: GraphSpec, seed: int) -> Mapping[Tuple[str, str], complex]:
    rng = np.random.default_rng(seed)
    return {e: complex(np.exp(1j * rng.uniform(-np.pi, np.pi))) for e in g.sigma_edges}


def canonical_gauge(g: GraphSpec, cells: CellSystem) -> CellSystem:
    """Maximal greedy positivization, deterministic in the canonical
    triangle order.

    Walking the triangle list, the constraint arg(T') = 0 is adopted for
    every cell where it is consistent with the constraints already
    adopted (rowspace test on the triangle/arrow incidence, then a
    wrapped-angle check); arrow phases solve the adopted system in least
    squares.  Cells skipped by the consistency check carry genuine
    gauge-invariant phases (e.g. one forced negative cell when the
    invariant is pi).  Fully positivizes whenever the incidence matrix
    has full row rank on the nonzero cells.
    """
    arrows = list(g.sigma_edges)
    aidx = {e: k for k, e in enumerate(arrows)}
    rows, targets = [], []
    for tri, t in cells.items:
        if abs(t) < 1e-14:
            continue
        row = np.zeros(len(arrows))
        for e in tri.edges():
            row[aidx[e]] += 1.0
        target = -np.angle(t)
        if rows:
            a = np.array(rows)
            if np.linalg.matrix_rank(np.vstack([a, row]), tol=1e-9) == np.linalg.matrix_rank(
                a, tol=1e-9
            ):
                phi, *_ = np.linalg.lstsq(a, np.array(targets), rcond=None)
                gap = (target - row @ phi + np.pi) % (2 * np.pi) - np.pi
                if abs(gap) > 1e-9:
                    continue  # inconsistent: this cell keeps an invariant phase
        rows.append(row)
        targets.append(target)
    if not rows:
        return cells
    phi, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
    out = gauge_transform(
        cells, {e: complex(np.exp(1j * phi[aidx[e]])) for e in arrows}
    )
    # snap rotation dust so positivized cells are exactly real
    items = tuple(
        (tri, complex(t.real, 0.0) if abs(t.imag) < 1e-9 * max(1.0, abs(t)) else t)
        for tri, t in out.items
    )
    return replace(out, items=items)


# ----------------------------------------------------------------------
# persistence
#
# {"graph": str, "seed": int | null,
#  "cells": [{"tri": ["x","y","z"], "re": float, "im": float}, ...],
#  "residuals": {...}, "warnings": [...], "checksum": sha256-hex}


def _checksum_payload(graph: str, seed, cell_rows) -> str:
    canon = json.dumps(
        {"graph": graph, "seed": seed, "cells": cell_rows},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def cells_to_dict(cells: CellSystem) -> dict:
    rows = [
        {"tri": list(tri.vertices), "re": float(t.real), "im": float(t.imag)}
        for tri, t in cells.items
    ]
    return {
        "graph": cells.graph,
        "seed": cells.seed,
        "cells": rows,
        "residuals": {k: v for k, v in cells.residual_items},
        "warnings": list(cells.warnings),
        "checksum": _checksum_payload(cells.graph, cells.seed, rows),
    }


def save_cells(cells: CellSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cells_to_dict(cells), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_cells(g: GraphSpec, path: str) -> CellSystem:
    """Load and cross-check a cell file against the graph.

    Errors on schema violations, graph-name mismatch, rows that are not
    triangles of g, or a checksum mismatch.  If the loaded values fail
    the arrow sum rule at 1e-9 a warning is recorded in the system (the
    file is still returned so it can be inspected)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise CellFileError(f"{path!r} is not JSON: {exc}") from exc
    try:
        graph_name = data["graph"]
        rows = data["cells"]
        seed = data.get("seed")
        residuals = {str(k): float(v) for k, v in data.get("residuals", {}).items()}
        warnings = list(data.get("warnings", []))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CellFileError(f"bad cell file structure: {exc}") from exc
    if graph_name != g.name:
        raise CellFileError(f"cell file is for graph {graph_name!r}, not {g.name!r}")
    try:
        values = {
            OrientedTriangle(tuple(row["tri"])): complex(float(row["re"]), float(row["im"]))
            for row in rows
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CellFileError(f"bad cell row: {exc}") from exc
    known = set(enumerate_triangles(g))
    for tri in values:
        if tri not in known:
            raise CellFileError(f"{tri} is not a triangle of {g.name!r}")
    stored = data.get("checksum")
    if stored is not None:
        rows_canon = [
            {"tri": list(t.vertices), "re": float(values[t].real), "im": float(values[t].imag)}
            for t in sorted(values)
        ]
        if stored != _checksum_payload(graph_name, seed, rows_canon):
            raise CellFileError(f"checksum mismatch in {path!r}")
    cells = cell_system(g, values, seed=seed).with_residuals(residuals, warnings)
    bad = max_sum_rule_residual(g, cells)
    if bad > SUM_RULE_TOL:
        cells = replace(
            cells,
            warnings=cells.warnings
            + (f"loaded cells fail the arrow sum rule: max residual {bad:.3e}",),
        )
    return cells


def shipped_cells(g: GraphSpec) -> CellSystem:
    """Cell system shipped with the package for a built-in graph.

    The SU3PATHS_CELLS_DIR environment variable overrides the data
    directory (files named <graph>.json)."""
    override = os.environ.get("SU3PATHS_CELLS_DIR")
    if override:
        path = os.path.join(override, f"{g.name}.json")
        if not os.path.exists(path):
            raise CellFileError(f"no cell file {path!r} (SU3PATHS_CELLS_DIR is set)")
        return load_cells(g, path)
    from importlib import resources

    ref = resources.files("su3paths").joinpath("data", "cells", f"{g.name}.json")
    if not ref.is_file():
        raise CellFileError(f"no shipped cells for graph {g.name!r}")
    with resources.as_file(ref) as p:
        return load_cells(g, str(p))

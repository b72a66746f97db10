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
stored; they are forced to sqrt(mu(a) mu(m)).  solve_cells fits the sum
rule and that identity (h3) on the three-letter windows sss and bbb
only: the quadratic relation U^2 = [2] U holds wherever the sum rule
does (see _Relations), and is reported, not fitted.

Solved systems for the built-in graphs ship as JSON files; the directory
can be overridden with the SU3PATHS_CELLS_DIR environment variable.
"""

from __future__ import annotations

import cmath
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
from .paths import EdgeTag, _dimension_groups

SUM_RULE_TOL = 1e-9
_SOLVER_STARTS = 8  # seeded random-phase Levenberg-Marquardt starts before solve_cells gives up
_LM_ITERATIONS = 200  # damped steps, accepted or not, per start
_LM_RESIDUAL = 1e-14  # a start stops once every residual is below this
_LM_STEP = 1e-16  # ... or once a step is this small relative to x
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


@cached_on
def enumerate_triangles(g: GraphSpec) -> Tuple[OrientedTriangle, ...]:
    """Every oriented 3-cycle of sigma arrows, canonical and sorted."""
    tris = set()
    for u, v in g.sigma_edges:
        for w in g.out_neighbors(v):
            if g.has_edge(w, u):
                tris.add(OrientedTriangle((u, v, w)))
    return tuple(sorted(tris))


@cached_on
def _triangle_table(g: GraphSpec) -> np.ndarray:
    """Position in ``enumerate_triangles(g)`` of every triangle, under each
    of its three rotations, as a read-only V x V x V table by vertex
    index; -1 where no triangle closes."""
    n = len(g.vertices)
    table = np.full((n, n, n), -1, dtype=np.int32)
    for k, tri in enumerate(enumerate_triangles(g)):
        x, y, z = (g.index(v) for v in tri.vertices)
        table[(x, y, z), (y, z, x), (z, x, y)] = k
    table.setflags(write=False)
    return table


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

    ``items`` is kept in canonical triangle order (that of
    ``enumerate_triangles``) so equality is bit-for-bit;
    ``residual_items`` stores the verification report of the producing
    step (solver or file load).  ``vector`` holds the cells as one
    complex array in that order: an annihilation block gathers from it
    (conjugated on sigma-bar pairs) through its graph's pattern.  The
    hash, the value map and the vector are computed once per instance,
    freed with it and never pickled.  ``dtype`` is the arithmetic of
    every kernel SVD, raising batch, projector check and relation
    window on the system: float64 when every cell is real, as the
    shipped cells are, else complex128.  The joint kernels of each word
    that essential paths read are kept on the system in that dtype, per
    graph and word, and freed with it too.  No operator block is kept:
    an annihilation block is one gather and one scatter on each call,
    cup blocks read no cell and are scattered from the graph's pattern,
    and creation and cap are rebuilt as conjugate transposes.
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

    @cached_property
    def vector(self) -> np.ndarray:
        """The cells in triangle order, as a read-only complex array."""
        v = np.array([t for _, t in self.items], dtype=complex)
        v.setflags(write=False)
        return v

    @cached_property
    def dtype(self) -> np.dtype:
        """float64 when every cell's imaginary part is 0.0, else
        complex128: the arithmetic of every sweep on these cells (see
        _in_dtype)."""
        return np.dtype(complex if self.vector.imag.any() else float)

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


def _in_dtype(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Operator entries or blocks in a cell system's dtype: on real cells
    their real parts, which equal the complex entries bit for bit (an
    entry's real and imaginary parts are rounded apart, see
    AnnihilationPattern.values).  They are taken with .real and never by
    a float cast, which would warn and could drop an imaginary part."""
    return values.real if dtype.kind == "f" else values


def cell_system(g: GraphSpec, values: Mapping[OrientedTriangle, complex], **kw) -> CellSystem:
    """Build a CellSystem over g's triangles; missing triangles and
    non-finite cells are an error."""
    tris = enumerate_triangles(g)
    missing = [t for t in tris if t not in values]
    if missing:
        raise GraphError(f"missing cell values for triangles {missing}")
    known = set(tris)
    unknown = [t for t in values if t not in known]
    if unknown:
        raise GraphError(f"not triangles of {g.name!r}: {unknown}")
    items = tuple((t, complex(values[t])) for t in tris)
    bad = _non_finite(items)
    if bad:
        raise GraphError(f"non-finite cells on {g.name!r}: {bad}")
    return CellSystem(graph=g.name, items=items, **kw)


def _non_finite(items) -> list:
    """The (triangle, cell) pairs whose cell is NaN or infinite."""
    return [(str(t), v) for t, v in items if not cmath.isfinite(v)]


# ----------------------------------------------------------------------
# sum rule and solving


def sum_rule_residuals(g: GraphSpec, cells: CellSystem) -> Mapping[Tuple[str, str], float]:
    """Per-arrow deviation |sum_{tri containing arrow} |T|^2 - [2] mu mu|."""
    sd = spectral_data(g)
    delta = sd.delta
    acc = {e: 0.0 for e in g.sigma_edges}
    for tri, t in cells.items:
        try:
            square = abs(t) ** 2
        except OverflowError:  # |t| above about 1.3e154
            square = math.inf
        for e in tri.edges():
            acc[e] += square
    return MappingProxyType(
        {e: abs(acc[e] - delta * sd.mu[e[0]] * sd.mu[e[1]]) for e in g.sigma_edges}
    )


def max_sum_rule_residual(g: GraphSpec, cells: CellSystem) -> float:
    """Largest per-arrow residual; NaN if any arrow's residual is NaN."""
    res = np.array(list(sum_rule_residuals(g, cells).values()))
    return float(res.max(initial=0.0))


class _Relations:
    """The residual that solve_cells minimizes, with its Jacobian.

    Both take the real parameters x = (Re T, Im T), cells in triangle
    order, and read nothing but x and the graph's annihilation patterns,
    so no CellSystem is built per evaluation.  The rows are:

    * per arrow, the sum of |T|^2 over its triangles minus [2] mu mu;
    * per grading of nonzero dimension of the window words sss and bbb,
      the real and imaginary parts of the h3 relation
      U1 U2 U1 - U1 - (U2 U1 U2 - U2), U = C^H C on the slot's
      annihilation block C, as verify_tl checks it on those windows.

    U1^2 = [2] U1 needs no rows: C C^H is diagonal, its entry on a path
    the sum of |T|^2 / (mu mu) over the triangles on one arrow, so it is
    [2] 1 where the sum-rule rows vanish, and then U1^2 = C^H (C C^H) C
    = [2] U1.

    A window's gradings of equal dimension are one batch, each slot's
    blocks one stack from the pattern's gather and scatter indices
    (_Pattern.stack) and entries (AnnihilationPattern.values).  An entry
    holds one cell (conjugated on a sigma-bar pair): at grading q, row r,
    column c, on triangle t over den, it moves U by A + A^H per unit of
    Re T_t and by phase (A - A^H) per unit of Im T_t, phase i on sigma and
    -i on sigma-bar, with A = v e_c^T and v = conj(C[q, r, :]) / den.
    The relation is linear in each dU, by L1(X) = X U21 + U12 X - U2 X U2
    - X and L2(X) = U1 X U1 - X U12 - U21 X + X (Uij = Ui Uj), and
    L(X^H) = L(X)^H; so the Jacobian columns are L(A) + L(A)^H and
    phase (L(A) - L(A)^H), and L(A) is four outer products of n-vectors,
    e.g. L1(A) = v (x) U21[c] + (U12 v) (x) e_c - (U2 v) (x) U2[c] - v (x) e_c.
    """

    def __init__(self, g: GraphSpec):
        from .operators import annihilation_pattern

        tris = enumerate_triangles(g)
        sd = spectral_data(g)
        arrows = list(g.sigma_edges)
        self.incidence = np.zeros((len(arrows), len(tris)))
        for j, t in enumerate(tris):
            for e in t.edges():
                self.incidence[arrows.index(e), j] = 1.0
        self.target = np.array([sd.delta * sd.mu[u] * sd.mu[v] for u, v in arrows])
        self.size = len(arrows)  # residual rows
        # per window word and dimension group, each slot's pattern, the
        # gather and scatter indices of its stack (take, at, shape), and
        # each stacked entry's triangle and denominator
        self.groups = []
        for tag in (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR):
            word = (tag,) * 3
            slots = [annihilation_pattern(g, word, i) for i in (1, 2)]
            for _, numbers in _dimension_groups(g, word):
                group = []
                for p in slots:
                    take, at, shape = p.stack(numbers)
                    group.append((p, take, at, shape, p.tri[take], p.den[take][:, None]))
                self.groups.append(group)
                self.size += 2 * shape[0] * shape[2] ** 2

    def _stacks(self, x: np.ndarray):
        """Per group: its slots, and each slot's stacked C and U = C^H C."""
        from .operators import _gram

        t = x[: len(x) // 2] + 1j * x[len(x) // 2 :]
        for slots in self.groups:
            cs = []
            for p, take, at, shape, *_ in slots:
                c = np.zeros(shape, dtype=complex)
                c[at] = p.values(t, take)
                cs.append(c)
            yield slots, cs, [_gram(c) for c in cs]

    def residual(self, x: np.ndarray) -> np.ndarray:
        k = len(x) // 2
        parts = [self.incidence @ (x[:k] ** 2 + x[k:] ** 2) - self.target]
        for _, _, (u1, u2) in self._stacks(x):
            d = (u1 @ u2 @ u1 - u1) - (u2 @ u1 @ u2 - u2)
            parts += [d.real.ravel(), d.imag.ravel()]
        return np.concatenate(parts)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        k = len(x) // 2
        # written in place a group at a time, so one group's complex stack is alive at once
        out = np.empty((self.size, 2 * k))
        o = len(self.incidence)
        out[:o, :k], out[:o, k:] = 2.0 * self.incidence * x[:k], 2.0 * self.incidence * x[k:]
        for slots, (c1, c2), (u1, u2) in self._stacks(x):
            u12, u21 = u1 @ u2, u2 @ u1
            n, m = u1.shape[-1], c1.shape[1]
            # M v = conj((C M^H)[q, r]) / den, and U12^H = U21.  One product
            # gives every C M^H needed; its 2m >= 2 rows keep numpy on BLAS
            # gemm (one row would run gemv, which nothing else here runs).
            # Then L(v e_c^T) = a (x) b[c] - d (x) e[c] + f (x) e_c, for the
            # conjugated rows r of a, d and f
            cm = np.concatenate([c1, c2], axis=1) @ np.concatenate([u2, u21, u1, u12], axis=-1)
            c1u2, c1u21 = cm[:, :m, :n], cm[:, :m, n : 2 * n]
            c2u1, c2u12 = cm[:, m:, 2 * n : 3 * n], cm[:, m:, 3 * n :]
            lowered = (
                (c1, u21, c1u2, u2, c1u21 - c1),
                (c2u1, u1, c2, u12, c2 - c2u12),
            )
            j = np.zeros((*u1.shape, 2 * k), dtype=complex)
            for (p, _, (q, r, c), _, tri, den), (a, b, d, e, f) in zip(slots, lowered):
                la = a[q, r, :, None].conj() * (b[q, c] / den)[:, None, :]
                la -= d[q, r, :, None].conj() * (e[q, c] / den)[:, None, :]
                la[np.arange(len(c)), :, c] += f[q, r].conj() / den
                lh = la.conj().swapaxes(-1, -2)
                # a grading fixes the window's end vertices and with them a
                # triangle fixes the path, so no (grading, triangle) pair
                # repeats in one slot: each += adds every entry once
                j[q, :, :, tri] += la + lh
                j[q, :, :, k + tri] += (-1j if p.conj else 1j) * (la - lh)
            flat = j.reshape(-1, 2 * k)
            s = len(flat)
            out[o : o + s], out[o + s : o + 2 * s] = flat.real, flat.imag
            o += 2 * s
        return out


def _levenberg_marquardt(fun, jac, x0: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize |fun(x)|^2 from x0 by Levenberg-Marquardt with Nielsen's
    damping update; returns x and its residual fun(x).

    Each step solves (J^T J + lam 1) dx = -J^T r and is taken only if
    the new cost is finite and lower; a taken step shrinks lam by the
    gain ratio, a refused one raises it by a doubling factor.  Stops when
    every residual is below _LM_RESIDUAL, when a step is below _LM_STEP
    relative to x, or after _LM_ITERATIONS steps."""
    x, r = x0, fun(x0)
    cost, lam, nu, a = r @ r, None, 2.0, None
    for _ in range(_LM_ITERATIONS):
        if np.abs(r).max() < _LM_RESIDUAL:
            break
        if a is None:
            j = jac(x)
            a, grad = j.T @ j, j.T @ r
            if lam is None:
                lam = 1e-3 * a.diagonal().max()
        dx = np.linalg.solve(a + lam * np.eye(len(x)), -grad)
        if np.linalg.norm(dx) <= _LM_STEP * np.linalg.norm(x):
            break
        trial = fun(x + dx)
        new = trial @ trial
        if np.isfinite(new) and new < cost:
            gain = (cost - new) / (dx @ (lam * dx - grad))
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            x, r, cost, nu, a = x + dx, trial, new, 2.0, None
        else:
            lam, nu = lam * nu, nu * 2.0
    return x, r


def solve_cells(
    g: GraphSpec,
    seed: int = 0,
    tol: float = SUM_RULE_TOL,
) -> CellSystem:
    """Solve for a cell system satisfying the operator relations.

    Magnitudes come from the linear arrow sum rules.  The positive-real
    candidate is tried first; when it fails, up to _SOLVER_STARTS starts
    with phases drawn from ``default_rng(seed)`` each run Levenberg-
    Marquardt (``_levenberg_marquardt``) on the stacked relation
    residuals with the analytic Jacobian of ``_Relations``.  No start has
    all phases zero: the squared residual is even in Im T, so a
    Gauss-Newton step from Im T = 0 never leaves that plane.  The result
    is put in the canonical gauge (greedy positivization along the
    triangle list) and carries the verification report up to word
    length 4.  Deterministic for a fixed seed.  tol must be finite and
    positive (ValueError otherwise): no residual compares above NaN or
    infinity, so such a tol would pass any candidate.
    """
    from .operators import verify_tl

    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"solver tolerance must be finite and positive, not {tol!r}")
    tris = enumerate_triangles(g)
    if not tris:
        raise CellSolveError(f"graph {g.name!r} has no triangles")
    arrows = list(g.sigma_edges)
    orphan = [e for e in arrows if not any(e in t.edges() for t in tris)]
    if orphan:
        raise CellSolveError(f"arrows on no triangle cannot satisfy the sum rule: {orphan}")

    relations = _Relations(g)
    m, rhs = relations.incidence, relations.target
    s, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    if np.abs(m @ s - rhs).max() > 1e-10 or s.min() < -1e-10:
        raise CellSolveError(
            f"arrow sum rules are infeasible on {g.name!r}",
            {"sum_rule_linear": float(np.abs(m @ s - rhs).max())},
        )
    s = np.maximum(s, 0.0)

    best = np.concatenate([np.sqrt(s), np.zeros(len(tris))])
    best_res = float(np.abs(relations.residual(best)).max())

    if best_res > tol:
        rng = np.random.default_rng(seed)
        for _ in range(_SOLVER_STARTS):
            t0 = np.sqrt(s) * np.exp(1j * rng.uniform(-np.pi, np.pi, size=len(tris)))
            x, r = _levenberg_marquardt(
                relations.residual, relations.jacobian, np.concatenate([t0.real, t0.imag])
            )
            res = float(np.abs(r).max())
            if res < best_res:
                best, best_res = x, res
            if best_res < tol * 1e-2:
                break
        if best_res > tol:
            raise CellSolveError(
                f"no cell system found for {g.name!r} below tol {tol:g} "
                f"(best residual {best_res:.3e})",
                {"best": best_res},
            )

    values = best[: len(tris)] + 1j * best[len(tris) :]
    cells = canonical_gauge(g, cell_system(g, dict(zip(tris, values)), seed=seed))
    report = verify_tl(g, cells, max_len=_VERIFY_LEN)
    return cells.with_residuals(report.summary())


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
    rows, targets, rank = [], [], 0  # rank: of the adopted rows
    for tri, t in cells.items:
        if abs(t) < 1e-14:
            continue
        row = np.zeros(len(arrows))
        for e in tri.edges():
            row[aidx[e]] += 1.0
        target = -np.angle(t)
        # a first row is adopted as it is: its three arrows give rank 1
        grown = np.linalg.matrix_rank(np.vstack(rows + [row]), tol=1e-9) if rows else 1
        if grown == rank:
            phi, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
            gap = (target - row @ phi + np.pi) % (2 * np.pi) - np.pi
            if abs(gap) > 1e-9:
                continue  # inconsistent: this cell keeps an invariant phase
        rows.append(row)
        targets.append(target)
        rank = grown
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

    Errors on schema violations (among them warnings that are not a
    list of strings and a seed that is not an integer or null),
    graph-name mismatch, rows that are not triangles of g, non-finite
    cells, or a checksum mismatch.  If the loaded values fail the arrow
    sum rule at 1e-9 a warning is recorded in the system (the file is
    still returned so it can be inspected)."""
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
        warnings = data.get("warnings", [])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CellFileError(f"bad cell file structure: {exc}") from exc
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise CellFileError(f"cell file warnings must be a list of strings, not {warnings!r}")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise CellFileError(f"cell file seed must be an integer or null, not {seed!r}")
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
    bad = _non_finite(values.items())
    if bad:
        raise CellFileError(f"non-finite cells in {path!r}: {bad}")
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

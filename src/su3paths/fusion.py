"""Truncated SU(3) fusion / module-action matrices from the graph adjacency.

The recursion mirrors the tensor rule sigma (x) (p,q) =
(p+1,q) + (p-1,q+1) + (p,q-1): starting from F_(0,0) = 1 and
F_(1,0) = adjacency, F_(p,q) for p >= 1 is

    F_(p,q) = F_(1,0) F_(p-1,q) - F_(p-2,q+1) - F_(p-1,q-1)

with negative-index terms omitted, and F_(0,q) is the transpose of
F_(q,0).  On A-type graphs the vertices are the level-k weights
themselves and F gives the truncated self-fusion N_xy^z; on other
graphs the same recursion is the module-action prediction to be
compared against essential-path counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from .graphs import GraphError, GraphSpec, adjacency_matrix, cached_on


@dataclass(frozen=True, eq=False)
class FusionMatrix:
    """Non-negative integer matrix of one type over (vertex, vertex)."""

    type: Tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.int64)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def entry(self, g: GraphSpec, a: str, b: str) -> int:
        return int(self.matrix[g.index(a), g.index(b)])


def _type_bound(max_type) -> int:
    """Total degree of a type (a, b) or of a plain degree; a negative
    type component is an error."""
    if isinstance(max_type, int):
        return max_type
    p, q = int(max_type[0]), int(max_type[1])
    if p < 0 or q < 0:
        raise GraphError(f"type components must be non-negative, got {(p, q)}")
    return p + q


@cached_on
def _fusion_raw(g: GraphSpec, bound: int) -> Mapping[Tuple[int, int], FusionMatrix]:
    a = adjacency_matrix(g)
    n = a.shape[0]
    mats: dict = {(0, 0): np.eye(n, dtype=np.int64)}
    if bound >= 1:
        mats[(1, 0)] = a
        mats[(0, 1)] = a.T.copy()
    for d in range(2, bound + 1):
        for p in range(d, 0, -1):
            q = d - p
            m = a @ mats[(p - 1, q)]
            if p >= 2:
                m = m - mats[(p - 2, q + 1)]
            if q >= 1:
                m = m - mats[(p - 1, q - 1)]
            mats[(p, q)] = m
        mats[(0, d)] = mats[(d, 0)].T.copy()
    return {t: FusionMatrix(t, m) for t, m in mats.items()}


def fusion_matrices(g: GraphSpec, max_type) -> Mapping[Tuple[int, int], FusionMatrix]:
    """All F_(p,q) with p+q <= the degree of max_type (an (a,b) pair or a
    plain total degree).  Types beyond the level are an error."""
    bound = _type_bound(max_type)
    if bound > g.level:
        raise GraphError(
            f"type degree {bound} exceeds the level {g.level} of {g.name!r}"
        )
    if bound < 0:
        raise GraphError("type degree must be non-negative")
    return dict(_fusion_raw(g, bound))


def fusion_matrix(g: GraphSpec, tp: Tuple[int, int]) -> FusionMatrix:
    tp = (int(tp[0]), int(tp[1]))
    return fusion_matrices(g, tp)[tp]


def admissible_triangles(g: GraphSpec, tp: Tuple[int, int]):
    """(a, type, b, multiplicity) for every nonzero F_type entry."""
    f = fusion_matrix(g, tp)
    ids = g.vertex_ids()
    out = []
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            m = int(f.matrix[i, j])
            if m > 0:
                out.append((a, tp, b, m))
    return out


def _a_type_of_vertex(g: GraphSpec, x: str) -> Tuple[int, int]:
    v = g.vertex(x)
    if v.tri is None:
        raise GraphError(
            f"vertex {x!r} of {g.name!r} carries no weight; self-fusion "
            "needs an A-type graph (use the module-action matrices instead)"
        )
    return v.tri


def fusion_table(g: GraphSpec) -> Mapping[Tuple[str, str], Mapping[str, int]]:
    """Self-fusion table N_xy^z = F_type(x)(y, z) for A-type graphs.

    Rows and columns are vertices; each entry maps product vertices to
    multiplicities.  Graphs without weight labels have no self-fusion;
    they get the module action via fusion_matrices/admissible_triangles.
    """
    types = {x: _a_type_of_vertex(g, x) for x in g.vertex_ids()}
    table = {}
    for x in g.vertex_ids():
        f = fusion_matrix(g, types[x])
        for y in g.vertex_ids():
            row = {}
            for z in g.vertex_ids():
                m = f.entry(g, y, z)
                if m:
                    row[z] = m
            table[(x, y)] = row
    return table

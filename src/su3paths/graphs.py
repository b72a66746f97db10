"""Simply laced SU(3) ADE graphs and their spectral data.

A graph is a finite oriented graph whose arrows ("sigma edges") encode the
action of the first fundamental generator; reversed arrows realize the
conjugate generator.  Every graph carries a generalized Coxeter number
kappa: the Perron-Frobenius eigenvalue of the adjacency matrix is

    beta = 1 + 2*cos(2*pi/kappa)   (the q-number [3] at q = exp(i*pi/kappa))

and the PF eigenvector, scaled so its smallest entry is exactly 1, gives
the quantum dimension mu(v) of each vertex.  The loop parameter of the
operator algebra built on top of these graphs is [2] = 2*cos(pi/kappa).

Built-in graphs: the A-type series (Weyl-alcove triangles) and the
exceptional twelve-vertex graph at kappa = 8 ("e5").  Arbitrary graphs can
be loaded from JSON files, see :func:`load_graph`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache, wraps
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

import numpy as np

SPECTRAL_TOL = 1e-10


class GraphError(ValueError):
    """Malformed or inconsistent graph specification."""


class SpectralError(RuntimeError):
    """Eigenvalue data could not be computed or failed its invariants."""


@dataclass(frozen=True, order=True)
class Vertex:
    """Graph vertex: opaque id plus optional triangular coordinates.

    ``tri`` is the pair (lambda1, lambda2) for A-type graphs (lattice
    points of the level-k alcove) and None otherwise.
    """

    id: str
    tri: Optional[Tuple[int, int]] = None


class HashedOnce:
    """Mixin for frozen dataclasses used as cache keys and cache owners.

    The hash is computed once per instance, over the same fields that
    ``__eq__`` compares.  ``_memo`` holds the results of ``cached_on``
    functions owned by the instance, so they are freed with it.  Only the
    fields are pickled, so the hash, the memo and any other derived
    attribute are rebuilt in the receiving process.  ``@dataclass``
    replaces an inherited ``__hash__``, so each subclass binds
    ``__hash__ = HashedOnce.__hash__`` in its body.
    """

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, f.name) for f in fields(self) if f.compare))

    @cached_property
    def _memo(self) -> dict:
        return {}


def cached_on(fn):
    """Memoize a function in the ``_memo`` of its first argument.

    Arguments are passed positionally.  The key is one flat tuple: the
    function, then every argument after the first.  A key never refers
    to its owner, so no reference cycle keeps a result alive: the results
    die with the last reference to the owner.
    """

    @wraps(fn)
    def memoized(owner, *args):
        key = (fn, *args)
        memo = owner._memo
        try:
            return memo[key]
        except KeyError:
            pass
        value = memo[key] = fn(owner, *args)
        return value

    return memoized


@dataclass(frozen=True)
class GraphSpec(HashedOnce):
    """Immutable oriented graph with its generalized Coxeter number.

    ``sigma_edges`` is an ordered tuple of (from, to) vertex-id pairs; the
    order is part of the value (it fixes matrix layouts downstream).

    Derived data (the hash, lookup maps, adjacency, walk table, spectral
    data, path arrays and bases, triangles, annihilation and cup patterns
    and fusion matrices) is computed on first use and kept on the
    instance, so it is freed with the graph.  It is never pickled.
    """

    name: str
    vertices: Tuple[Vertex, ...]
    sigma_edges: Tuple[Tuple[str, str], ...]
    kappa: int

    __hash__ = HashedOnce.__hash__

    @property
    def level(self) -> int:
        return self.kappa - 3

    def vertex_ids(self) -> Tuple[str, ...]:
        return self._vertex_ids

    def index(self, vid: str) -> int:
        try:
            return self._index_map[vid]
        except KeyError:
            raise GraphError(f"unknown vertex {vid!r} in graph {self.name!r}") from None

    def vertex(self, vid: str) -> Vertex:
        return self.vertices[self.index(vid)]

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self._edge_set

    def out_neighbors(self, vid: str) -> Tuple[str, ...]:
        """Targets of sigma arrows leaving vid, sorted by id."""
        return self._out_map.get(vid, ())

    def in_neighbors(self, vid: str) -> Tuple[str, ...]:
        """Sources of sigma arrows entering vid, sorted by id."""
        return self._in_map.get(vid, ())

    @cached_property
    def _vertex_ids(self) -> Tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def _index_map(self) -> Mapping[str, int]:
        return MappingProxyType({v.id: k for k, v in enumerate(self.vertices)})

    @cached_property
    def _edge_set(self) -> frozenset:
        return frozenset(self.sigma_edges)

    @cached_property
    def _out_map(self) -> Mapping[str, Tuple[str, ...]]:
        out: dict = {v.id: [] for v in self.vertices}
        for u, v in self.sigma_edges:
            out[u].append(v)
        return MappingProxyType({k: tuple(sorted(vs)) for k, vs in out.items()})

    @cached_property
    def _in_map(self) -> Mapping[str, Tuple[str, ...]]:
        inc: dict = {v.id: [] for v in self.vertices}
        for u, v in self.sigma_edges:
            inc[v].append(u)
        return MappingProxyType({k: tuple(sorted(us)) for k, us in inc.items()})

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only adjacency matrix in exact Python ints (object dtype)."""
        a = adjacency_matrix(self).astype(object)
        a.flags.writeable = False
        return a

    @cached_property
    def walk_table(self) -> dict:
        """Word -> exact walk-count matrix, filled by ``path_space_dim``."""
        one = np.eye(len(self.vertices), dtype=object)
        one.flags.writeable = False
        return {(): one}


def adjacency_matrix(g: GraphSpec) -> np.ndarray:
    """Integer sigma-adjacency matrix in vertex order (A[i,j] = #arrows i->j)."""
    n = len(g.vertices)
    a = np.zeros((n, n), dtype=np.int64)
    idx = g._index_map
    for u, v in g.sigma_edges:
        a[idx[u], idx[v]] += 1
    return a


def validate_graph(g: GraphSpec) -> None:
    """Raise GraphError unless g is a well-formed simply laced graph.

    Checks: kappa >= 3, unique vertex ids, edges between known vertices,
    no self-loops, at most one arrow per ordered pair, irreducible
    adjacency (the graph is strongly connected), and for A-type vertices
    0 <= lambda1, lambda2 with lambda1 + lambda2 <= level.
    """
    if g.kappa < 3:
        raise GraphError(f"kappa must be >= 3, got {g.kappa}")
    if not g.vertices:
        raise GraphError("graph has no vertices")
    ids = [v.id for v in g.vertices]
    if len(set(ids)) != len(ids):
        raise GraphError("vertex ids are not unique")
    known = set(ids)
    seen = set()
    for u, v in g.sigma_edges:
        if u not in known or v not in known:
            raise GraphError(f"edge ({u!r}, {v!r}) references an unknown vertex")
        if u == v:
            raise GraphError(f"self-loop at {u!r}")
        if (u, v) in seen:
            raise GraphError(f"duplicate arrow ({u!r}, {v!r}); graph must be simply laced")
        seen.add((u, v))
    n = len(ids)
    if n > 1:
        a = adjacency_matrix(g) + np.eye(n, dtype=np.int64)
        reach = np.linalg.matrix_power(a.astype(object), n - 1)
        if not (np.array(reach, dtype=object) != 0).all():
            raise GraphError("adjacency matrix is not irreducible (graph disconnected)")
    tris = [v.tri for v in g.vertices if v.tri is not None]
    if tris:
        for tri in tris:
            if len(tri) != 2 or not all(isinstance(x, int) for x in tri):
                raise GraphError(f"triangular coordinates {tri!r} are not a pair of integers")
        if len(set(tris)) != len(tris):
            raise GraphError("duplicate triangular coordinates")
        for l1, l2 in tris:
            if l1 < 0 or l2 < 0 or l1 + l2 > g.level:
                raise GraphError(
                    f"triangular coordinates ({l1},{l2}) outside the level-{g.level} alcove"
                )


def q_number(n: int, kappa: int) -> float:
    """The q-number [n] = sin(n*pi/kappa) / sin(pi/kappa) at q = exp(i*pi/kappa)."""
    if kappa < 3:
        raise ValueError(f"kappa must be >= 3, got {kappa}")
    return math.sin(n * math.pi / kappa) / math.sin(math.pi / kappa)


def loop_parameter(kappa: int) -> float:
    """[2] = 2*cos(pi/kappa): the loop/normalization constant of the operator algebra."""
    return q_number(2, kappa)


def q_dim_triangular(lam: Tuple[int, int], kappa: int) -> float:
    """Quantum dimension of the alcove weight lam = (l1, l2).

    qdim(lam) = [l1+1][l2+1][l1+l2+2] / [2].  Requires l1 + l2 <= kappa - 3.
    """
    l1, l2 = lam
    if l1 < 0 or l2 < 0 or l1 + l2 > kappa - 3:
        raise ValueError(f"weight {lam} outside the level-{kappa - 3} alcove")
    return (
        q_number(l1 + 1, kappa)
        * q_number(l2 + 1, kappa)
        * q_number(l1 + l2 + 2, kappa)
        / q_number(2, kappa)
    )


@dataclass(frozen=True)
class SpectralData:
    """Perron-Frobenius data of a graph.

    beta  -- largest adjacency eigenvalue, equals 1 + 2*cos(2*pi/kappa)
    mu    -- vertex id -> quantum dimension (smallest entry exactly 1)
    """

    beta: float
    mu: Mapping[str, float]
    kappa: int

    @property
    def delta(self) -> float:
        """Loop parameter [2] = 2*cos(pi/kappa); note [2]**2 = 1 + beta."""
        return loop_parameter(self.kappa)


@cached_on
def spectral_data(g: GraphSpec) -> SpectralData:
    """Compute (beta, mu) for a validated graph.

    Dense eigensolve of the adjacency matrix; the PF eigenvector is
    rescaled so that its minimum entry is exactly 1.  Raises SpectralError
    if the data fails the invariants (|A.mu - beta.mu| or the kappa
    formula off by more than 1e-10), which catches disconnected or
    mislabeled graphs.
    """
    validate_graph(g)
    n = len(g.vertices)
    a = adjacency_matrix(g).astype(float)
    if not g.sigma_edges:
        # single alcove point: adjacency is the 1x1 zero matrix
        beta = 0.0
        vec = np.ones(n)
    else:
        w, vecs = np.linalg.eig(a)
        k = int(np.argmax(w.real))
        beta = float(w[k].real)
        vec = vecs[:, k].real
        if vec.sum() < 0:
            vec = -vec
    if (vec <= 0).any() and n > 1:
        raise SpectralError(f"PF eigenvector of {g.name!r} is not strictly positive")
    vec = vec / vec.min()  # min entry becomes exactly 1.0
    resid = float(np.abs(a @ vec - beta * vec).max())
    if resid > SPECTRAL_TOL * max(1.0, abs(beta)) * max(1.0, vec.max()):
        raise SpectralError(f"eigenpair residual {resid:.3e} too large for {g.name!r}")
    formula = 1.0 + 2.0 * math.cos(2.0 * math.pi / g.kappa)
    if abs(beta - formula) > SPECTRAL_TOL:
        raise SpectralError(
            f"PF eigenvalue {beta!r} does not match 1+2cos(2pi/{g.kappa}) = {formula!r}"
        )
    mu = MappingProxyType({v.id: float(vec[i]) for i, v in enumerate(g.vertices)})
    return SpectralData(beta=beta, mu=mu, kappa=g.kappa)


# ----------------------------------------------------------------------
# built-in graphs

_A2_CLASSIC_IDS = {
    (0, 0): "1",
    (1, 0): "3",
    (2, 0): "6",
    (0, 1): "3b",
    (0, 2): "6b",
    (1, 1): "8",
}

# sigma action on a weight: +e1, then the reflection step, then -e2
_A_STEPS = ((1, 0), (-1, 1), (0, -1))


def _a_vertex_id(level: int, lam: Tuple[int, int]) -> str:
    if level == 2:
        return _A2_CLASSIC_IDS[lam]
    return f"{lam[0]},{lam[1]}"


def build_a_graph(level: int) -> GraphSpec:
    """A-type graph at the given level: vertices are the alcove weights
    (l1, l2) with l1 + l2 <= level, arrows lam -> lam + s for s in
    {(1,0), (-1,1), (0,-1)} whenever the target stays in the alcove.

    Vertex order is lexicographic in (l1, l2); kappa = level + 3.  At
    level 2 the six vertices get their traditional names 1, 3, 6, 3b,
    6b, 8 instead of coordinate ids.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    weights = sorted((l1, l2) for l1 in range(level + 1) for l2 in range(level + 1 - l1))
    vertices = tuple(Vertex(id=_a_vertex_id(level, lam), tri=lam) for lam in weights)
    alcove = set(weights)
    edges = []
    for lam in weights:
        for s1, s2 in _A_STEPS:
            tgt = (lam[0] + s1, lam[1] + s2)
            if tgt in alcove:
                edges.append((_a_vertex_id(level, lam), _a_vertex_id(level, tgt)))
    g = GraphSpec(name=f"a{level}", vertices=vertices, sigma_edges=tuple(edges), kappa=level + 3)
    validate_graph(g)
    return g


def build_e5_graph() -> GraphSpec:
    """The exceptional twelve-vertex graph at kappa = 8 (level 5).

    Vertices 1_0..1_5 (outer, mu = 1) and 2_0..2_5 (inner, mu = 1+sqrt(2));
    arrows 1_i -> 2_{i+1}, 2_i -> 2_{i+1}, 2_i -> 2_{i+4}, 2_i -> 1_{i+4},
    indices mod 6.
    """
    ones = [f"1_{i}" for i in range(6)]
    twos = [f"2_{i}" for i in range(6)]
    vertices = tuple(Vertex(id=v) for v in ones + twos)
    edges = []
    for i in range(6):
        edges.append((ones[i], twos[(i + 1) % 6]))
    for i in range(6):
        edges.append((twos[i], twos[(i + 1) % 6]))
    for i in range(6):
        edges.append((twos[i], twos[(i + 4) % 6]))
    for i in range(6):
        edges.append((twos[i], ones[(i + 4) % 6]))
    g = GraphSpec(name="e5", vertices=vertices, sigma_edges=tuple(edges), kappa=8)
    validate_graph(g)
    return g


def conjugate_graph(g: GraphSpec) -> GraphSpec:
    """Reverse every sigma arrow.  Involution; spectral data is unchanged
    (the PF vector of these graphs is invariant under transposition)."""
    name = g.name[:-1] if g.name.endswith("~") else g.name + "~"
    return GraphSpec(
        name=name,
        vertices=g.vertices,
        sigma_edges=tuple((v, u) for u, v in g.sigma_edges),
        kappa=g.kappa,
    )


_BUILDERS = {
    "a2": lambda: build_a_graph(2),
    "a3": lambda: build_a_graph(3),
    "a4": lambda: build_a_graph(4),
    "a5": lambda: build_a_graph(5),
    "e5": build_e5_graph,
}


def graph_names() -> Tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def get_graph(name: str) -> GraphSpec:
    """Look up a built-in graph by (case-insensitive) registry name.

    Every spelling of a name gives the same object, so the data derived
    on it is computed once."""
    key = name.lower()
    if key not in _BUILDERS:
        raise GraphError(f"unknown graph {name!r}; known: {', '.join(graph_names())}")
    return _builtin_graph(key)


@lru_cache(maxsize=None)
def _builtin_graph(key: str) -> GraphSpec:
    return _BUILDERS[key]()


# ----------------------------------------------------------------------
# JSON round trip
#
# {"name": str, "kappa": int,
#  "vertices": [{"id": str, "tri": [l1, l2] | null}, ...],
#  "sigma_edges": [["from", "to"], ...]}


def graph_to_dict(g: GraphSpec) -> dict:
    return {
        "name": g.name,
        "kappa": g.kappa,
        "vertices": [
            {"id": v.id, "tri": list(v.tri) if v.tri is not None else None} for v in g.vertices
        ],
        "sigma_edges": [[u, v] for u, v in g.sigma_edges],
    }


def graph_from_dict(data: dict) -> GraphSpec:
    try:
        vertices = tuple(
            Vertex(id=str(v["id"]), tri=tuple(v["tri"]) if v.get("tri") is not None else None)
            for v in data["vertices"]
        )
        edges = tuple((str(u), str(v)) for u, v in data["sigma_edges"])
        g = GraphSpec(
            name=str(data["name"]), vertices=vertices, sigma_edges=edges, kappa=int(data["kappa"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"bad graph file structure: {exc}") from exc
    validate_graph(g)
    return g


def save_graph(g: GraphSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(path: str) -> GraphSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise GraphError(f"{path!r} is not JSON: {exc}") from exc
    return graph_from_dict(data)

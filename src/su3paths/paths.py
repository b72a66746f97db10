"""Elementary paths and word-graded path spaces.

A path on a graph is a vertex walk where each step is tagged either
SIGMA ("s": the step follows a sigma arrow) or SIGMA_BAR ("b": the step
runs against one).  The exact tag sequence is the *word* of the path;
the coarser type (alpha, beta) counts s- and b-steps.  Spaces are graded
by (start vertex, end vertex, word): the grading is the unit on which
operators act, and elementary paths in lexicographic vertex order are
its orthonormal basis.

Counts and bases both grow one step at a time along the word, and both
are kept on the graph, per word: a word's walk-count matrix is its
prefix's times one step matrix, and its paths (word_paths) are an
integer array of vertex indices, one row per path, grown from its
prefix's rows through neighbour arrays.  The rows are sorted so that
every grading is a contiguous slice in basis order; enumerate_paths
turns one slice into ElementaryPath objects, and _basis_index is the
one map from such a path to its position.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .graphs import GraphError, GraphSpec, HashedOnce, cached_on

#: refuse to materialize words with more paths than this
MAX_PATH_SPACE = 10**6


class PathSpaceTooLarge(RuntimeError):
    """A word has more paths than the materialization cap."""


class GradingMismatch(ValueError):
    """Two vectors from different gradings were combined."""


class PathCountMismatch(RuntimeError):
    """Enumeration found a different number of paths than the walk count."""


class EdgeTag(str, enum.Enum):
    SIGMA = "s"
    SIGMA_BAR = "b"

    @property
    def opposite(self) -> "EdgeTag":
        return EdgeTag.SIGMA_BAR if self is EdgeTag.SIGMA else EdgeTag.SIGMA


Word = Tuple[EdgeTag, ...]


def parse_word(text: str) -> Word:
    """Parse a word spelled with characters 's' (sigma) and 'b' (sigma-bar)."""
    try:
        return tuple(EdgeTag(c) for c in text)
    except ValueError:
        raise ValueError(f"word {text!r} must consist of characters 's' and 'b'") from None


def _is_typed_word(word) -> bool:
    """True when word is already a tuple of EdgeTag members."""
    if type(word) is not tuple:
        return False
    for t in word:
        if type(t) is not EdgeTag:
            return False
    return True


def word_str(word: Sequence[EdgeTag]) -> str:
    return "".join(t.value for t in word)


def word_type(word: Sequence[EdgeTag]) -> Tuple[int, int]:
    """(alpha, beta) = (#sigma, #sigma-bar)."""
    a = sum(1 for t in word if t is EdgeTag.SIGMA)
    return a, len(word) - a


@dataclass(frozen=True)
class ElementaryPath:
    """A tagged vertex walk.  vertices has one more entry than word."""

    vertices: Tuple[str, ...]
    word: Word

    def __post_init__(self):
        if type(self.vertices) is not tuple:
            object.__setattr__(self, "vertices", tuple(self.vertices))
        if not _is_typed_word(self.word):
            object.__setattr__(self, "word", tuple(EdgeTag(t) for t in self.word))
        if len(self.vertices) != len(self.word) + 1:
            raise ValueError("vertex count must be word length + 1")

    @property
    def start(self) -> str:
        return self.vertices[0]

    @property
    def end(self) -> str:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def grading(self) -> "PathGrading":
        return PathGrading(self.start, self.end, self.word)

    def type(self) -> Tuple[int, int]:
        return word_type(self.word)

    def __str__(self) -> str:
        return "(" + " ".join(self.vertices) + ")"


def _infer_word(g: GraphSpec, vertices: Sequence[str]) -> Word:
    """Tag sequence of a vertex run when every step is unambiguous."""
    tags = []
    for u, v in zip(vertices, vertices[1:]):
        fwd, bwd = g.has_edge(u, v), g.has_edge(v, u)
        if fwd and not bwd:
            tags.append(EdgeTag.SIGMA)
        elif bwd and not fwd:
            tags.append(EdgeTag.SIGMA_BAR)
        else:
            raise GraphError(f"step {u}->{v} is {'ambiguous' if fwd else 'not an arrow'} in {g.name}")
    return tuple(tags)


def step_is_valid(g: GraphSpec, u: str, v: str, tag: EdgeTag) -> bool:
    """SIGMA step u->v needs arrow u->v; SIGMA_BAR step u->v needs arrow v->u."""
    return g.has_edge(u, v) if tag is EdgeTag.SIGMA else g.has_edge(v, u)


def is_valid_path(g: GraphSpec, p: ElementaryPath) -> bool:
    return all(
        step_is_valid(g, p.vertices[i], p.vertices[i + 1], p.word[i]) for i in range(p.length)
    )


def make_path(g: GraphSpec, vertices: Sequence[str], word) -> ElementaryPath:
    """Build and validate an elementary path; word may be a string."""
    if isinstance(word, str):
        word = parse_word(word)
    p = ElementaryPath(tuple(vertices), tuple(word))
    for v in p.vertices:
        g.index(v)  # raises for unknown ids
    if not is_valid_path(g, p):
        raise ValueError(f"{p} does not realize word {word_str(p.word)!r} on {g.name!r}")
    return p


def concatenate(p: ElementaryPath, q: ElementaryPath) -> Optional[ElementaryPath]:
    """Concatenation product: joined path if end(p) == start(q), else None (zero)."""
    if p.end != q.start:
        return None
    return ElementaryPath(p.vertices + q.vertices[1:], p.word + q.word)


@dataclass(frozen=True)
class PathGrading(HashedOnce):
    """One graded component: start and end vertices plus the exact word.

    Gradings key most memo entries, so the hash is computed once per
    instance (HashedOnce) and never pickled.  It is computed on
    construction, as HashedOnce would compute it on first use (which is
    what an unpickled grading does)."""

    start: str
    end: str
    word: Word

    __hash__ = HashedOnce.__hash__

    def __post_init__(self):
        if not _is_typed_word(self.word):
            object.__setattr__(self, "word", tuple(EdgeTag(t) for t in self.word))
        self.__dict__["_hash"] = hash((self.start, self.end, self.word))

    @property
    def length(self) -> int:
        return len(self.word)

    def type(self) -> Tuple[int, int]:
        return word_type(self.word)

    def __str__(self) -> str:
        return f"{self.start}->{self.end}:{word_str(self.word) or '()'}"


def path_space_dim(g: GraphSpec, grading: PathGrading) -> int:
    """Dimension of the grading without enumeration.

    Entry (start, end) of the word's walk-count matrix, as a Python int.
    """
    m = _walk_counts(g, grading.word)
    return int(m[g.index(grading.start), g.index(grading.end)])


@cached_on
def _walk_counts(g: GraphSpec, word: Word) -> np.ndarray:
    """Dimensions of every (start, end) grading of a typed word: the
    ordered product of step matrices (adjacency for SIGMA, its transpose
    for SIGMA_BAR), read-only.  Each word's product is its prefix's
    product times one step matrix, kept on the graph, so words sharing a
    prefix share its product.

    Exact: int64 while d ** len(word) < 2**63, with d the largest out-
    or in-degree (no entry, row sum or partial sum of the product
    exceeds d ** len(word)); past that the prefix is cast to Python
    integers (object dtype), as _row_keys does."""
    if not word:
        m = np.eye(len(g.vertices), dtype=np.int64)
    else:
        a = g.adjacency
        prefix, step = _walk_counts(g, word[:-1]), a if word[-1] is EdgeTag.SIGMA else a.T
        d = int(max(a.sum(axis=0).max(), a.sum(axis=1).max()))
        if d ** len(word) >= 2**63:
            prefix, step = prefix.astype(object), step.astype(object)
        m = prefix @ step
    m.flags.writeable = False
    return m


def _dimension_groups(g: GraphSpec, word: Word) -> Iterator[Tuple[int, np.ndarray]]:
    """The word's gradings of nonzero dimension, a dimension at a time:
    yields (d, numbers) per dimension d, ascending, with ``numbers`` the
    ascending grading numbers of dimension d.  The sweeps batch each
    group's blocks into one (len(numbers), ., d) stack."""
    dims = _walk_counts(g, word).ravel()
    nonzero = np.flatnonzero(dims)
    for d in sorted(set(dims[nonzero].tolist())):
        yield d, nonzero[dims[nonzero] == d]


@cached_on
def _id_ranks(g: GraphSpec) -> np.ndarray:
    """Rank of each vertex's id among the sorted ids, by vertex index.
    Bases are in id order, which is not index order: on a2 the index
    order is 1, 3b, 6b, 3, 8, 6."""
    ranks = np.empty(len(g.vertices), dtype=np.int64)
    ranks[np.argsort(g.vertex_ids(), kind="stable")] = np.arange(len(g.vertices))
    ranks.setflags(write=False)
    return ranks


@cached_on
def _step_targets(g: GraphSpec, tag: EdgeTag) -> Tuple[np.ndarray, np.ndarray]:
    """Neighbour arrays of one step: a tag step from vertex k reaches
    targets[offsets[k]:offsets[k + 1]] (vertex indices)."""
    a = g.adjacency if tag is EdgeTag.SIGMA else g.adjacency.T
    src, dst = np.nonzero(a)
    return np.searchsorted(src, np.arange(len(g.vertices) + 1)), dst.astype(np.int32)


def _grading_number(g: GraphSpec, grading: PathGrading) -> int:
    """V * index(start) + index(end): where the grading sits among a
    word's gradings."""
    return g.index(grading.start) * len(g.vertices) + g.index(grading.end)


def _grading_at(g: GraphSpec, word: Word, number: int) -> PathGrading:
    """The grading of word with the given grading number."""
    ids, n = g.vertex_ids(), len(g.vertices)
    return PathGrading(ids[number // n], ids[number % n], word)


def _grading_numbers(g: GraphSpec, rows: np.ndarray) -> np.ndarray:
    """Grading number V * index(start) + index(end) of each path row."""
    return rows[:, 0].astype(np.int64) * len(g.vertices) + rows[:, -1]


def _row_keys(g: GraphSpec, rows: np.ndarray) -> np.ndarray:
    """Sort key of each path row of word_paths: the grading number, then
    the id ranks of the interior vertices, as digits base V.  Exact
    Python integers where int64 would overflow."""
    n = len(g.vertices)
    width = rows.shape[1]
    dtype = np.int64 if n ** max(width, 2) < 2**63 else object
    ranks = _id_ranks(g).astype(dtype)
    keys = _grading_numbers(g, rows).astype(dtype)
    for k in range(1, width - 1):
        keys = keys * n + ranks[rows[:, k]]
    return keys


@cached_on
def word_paths(g: GraphSpec, word: Word) -> np.ndarray:
    """Every path realizing the word, as a read-only (N, len(word) + 1)
    int32 array of vertex indices; kept on the graph.

    Rows are sorted by their key (_row_keys): grading by grading, in
    grading-number order, so the basis of each grading is a contiguous
    slice (_grading_offsets), and within a grading by the ids of the
    interior vertices, which is the basis order of enumerate_paths.
    Grown from the prefix word's rows: each row is extended by every
    vertex one last-tag step from its end.

    Raises PathSpaceTooLarge, before any row is built, when the walk
    counts give the word more than MAX_PATH_SPACE paths.
    """
    word = tuple(EdgeTag(t) for t in word)
    # row sums are bounded like the entries; their sum may pass int64
    total = sum(_walk_counts(g, word).sum(axis=1).tolist())
    if total > MAX_PATH_SPACE:
        raise PathSpaceTooLarge(
            f"word {word_str(word) or '()'} has {total} paths on {g.name} (cap {MAX_PATH_SPACE})"
        )
    if not word:
        rows = np.arange(len(g.vertices), dtype=np.int32)[:, None]
    else:
        prev = word_paths(g, word[:-1])
        offsets, targets = _step_targets(g, word[-1])
        ends = prev[:, -1]
        degree = offsets[ends + 1] - offsets[ends]
        parent = np.repeat(np.arange(len(prev)), degree)
        first = np.repeat(offsets[ends] - (np.cumsum(degree) - degree), degree)
        rows = np.column_stack([prev[parent], targets[first + np.arange(len(parent))]])
        rows = rows[np.argsort(_row_keys(g, rows), kind="stable")]
    rows.setflags(write=False)
    return rows


@cached_on
def _grading_offsets(g: GraphSpec, word: Word) -> np.ndarray:
    """Where each grading sits in word_paths(g, word): the grading with
    number s = V * index(start) + index(end) is rows offsets[s]:offsets[s + 1]."""
    numbers = _grading_numbers(g, word_paths(g, word))
    offsets = np.searchsorted(numbers, np.arange(len(g.vertices) ** 2 + 1))
    offsets.setflags(write=False)
    return offsets


@cached_on
def enumerate_paths(g: GraphSpec, grading: PathGrading) -> Tuple[ElementaryPath, ...]:
    """All elementary paths realizing the grading, in lexicographic order
    of their vertex sequences.  Deterministic; cached per grading on g.

    The grading's slice of word_paths(g, grading.word), as ElementaryPath
    objects.  Raises PathSpaceTooLarge when the grading's word has more
    than MAX_PATH_SPACE paths over all of its gradings (the cap bounds
    the word, not the grading), and PathCountMismatch if the slice
    disagrees with the count.
    """
    s = _grading_number(g, grading)
    word = grading.word
    offsets = _grading_offsets(g, word)
    rows = word_paths(g, word)[offsets[s] : offsets[s + 1]]
    dim = path_space_dim(g, grading)
    if len(rows) != dim:
        raise PathCountMismatch(f"enumerated {len(rows)} paths on {grading}, counted {dim}")
    ids = np.array(g.vertex_ids(), dtype=object)
    return tuple(ElementaryPath(tuple(vs), word) for vs in ids[rows].tolist())


@cached_on
def _basis_index(g: GraphSpec, grading: PathGrading):
    return {p: i for i, p in enumerate(enumerate_paths(g, grading))}


class PathVector:
    """Complex linear combination over the elementary-path basis of one grading."""

    __slots__ = ("grading", "coefficients")

    def __init__(self, grading: PathGrading, coefficients: np.ndarray):
        self.grading = grading
        self.coefficients = np.asarray(coefficients, dtype=complex)

    @classmethod
    def zero(cls, g: GraphSpec, grading: PathGrading) -> "PathVector":
        return cls(grading, np.zeros(len(enumerate_paths(g, grading)), dtype=complex))

    @classmethod
    def from_path(cls, g: GraphSpec, p: ElementaryPath, coeff: complex = 1.0) -> "PathVector":
        vec = cls.zero(g, p.grading)
        vec.coefficients[_basis_index(g, p.grading)[p]] = coeff
        return vec

    @classmethod
    def from_terms(cls, g: GraphSpec, terms) -> "PathVector":
        """terms: iterable of (coefficient, ElementaryPath), one shared grading."""
        terms = list(terms)
        if not terms:
            raise ValueError("from_terms needs at least one term")
        vec = cls.zero(g, terms[0][1].grading)
        for c, p in terms:
            if p.grading != vec.grading:
                raise GradingMismatch(f"{p.grading} != {vec.grading}")
            vec.coefficients[_basis_index(g, vec.grading)[p]] += c
        return vec

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def support(self, tol: float = 1e-12):
        """(coefficient, index) pairs of entries with magnitude above tol."""
        return [(c, i) for i, c in enumerate(self.coefficients) if abs(c) > tol]

    def __add__(self, other: "PathVector") -> "PathVector":
        if self.grading != other.grading:
            raise GradingMismatch(f"{self.grading} != {other.grading}")
        return PathVector(self.grading, self.coefficients + other.coefficients)

    def __rmul__(self, scalar: complex) -> "PathVector":
        return PathVector(self.grading, scalar * self.coefficients)

    def __repr__(self) -> str:
        return f"PathVector({self.grading}, dim={len(self.coefficients)})"


def inner_product(u: PathVector, v: PathVector) -> complex:
    """Hermitian inner product <u, v> = sum conj(u_e) v_e; elementary paths
    are orthonormal.  The two vectors must share a grading."""
    if u.grading != v.grading:
        raise GradingMismatch(f"{u.grading} != {v.grading}")
    return complex(np.vdot(u.coefficients, v.coefficients))


def _words(max_len: int) -> Iterator[Word]:
    """All words with 0 <= |word| <= max_len, by length, then with letter
    k as bit k of a counter (SIGMA for 0)."""
    for n in range(max_len + 1):
        for bits in range(2**n):
            yield tuple(
                EdgeTag.SIGMA if (bits >> k) & 1 == 0 else EdgeTag.SIGMA_BAR for k in range(n)
            )


def iter_gradings(g: GraphSpec, max_len: int) -> Iterator[PathGrading]:
    """All gradings with 0 <= |word| <= max_len, deterministic order: word
    by word (_words), and within a word by grading number."""
    ids = g.vertex_ids()
    for word in _words(max_len):
        for a in ids:
            for b in ids:
                yield PathGrading(a, b, word)

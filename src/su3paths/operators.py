"""Creation, annihilation, cup and cap operators on graded path spaces,
and verification of the relations they satisfy.

Every operator keeps a path's start and end, so on one word it is block
diagonal over the word's (start, end) gradings.  The builders return
one dense block per (grading, position); the relation sweeps work on the
gradings of a word of equal dimension at once, from the patterns (see
verify_tl).  There is no global matrix.  Conventions (1-based
positions, path v_0 .. v_n, word w_1 .. w_n):

* annihilation C_i (1 <= i <= n-1) contracts a like-tagged pair at
  positions (i, i+1) through the triangle it closes, weight
  T/sqrt(mu(v_{i-1}) mu(v_{i+1})) for sigma-sigma and the conjugate cell
  for the mirrored pair; every other tag pattern gives the zero block.
  So a block is linear in the cells.  The graph keeps, per word and
  position, the cell-free pattern of every grading's block (entry
  positions, triangle and denominator per entry), and a cell system's
  block is one gather from its cell vector and one scatter.
* creation C+_i (1 <= i <= n) expands the single step at position i into
  the like-tagged pair through every completing triangle.  It is defined
  as the conjugate transpose of the annihilation that contracts that
  pair, so the cell weights are written once.
* cup (1 <= i <= n-1) contracts a mixed-tag return v_{i-1} b v_{i-1},
  weight sqrt(mu(b)/mu(v_{i-1})) (the collapsed cell over mu); cap
  inserts returns through every neighbor, one operator per insertion
  order since the two orders land in different codomain words.  Cap is
  defined as the conjugate transpose of the matching cup.  Cup reads no
  cell, so the graph keeps its whole pattern (entry positions and
  weights) per word and position, and a block is one scatter from it;
  cup blocks are not kept.

Both patterns are found by index arithmetic on the graph's path arrays
(paths.word_paths): select the rows whose three vertices at the slot
close a triangle (annihilation) or a return (cup), delete the contracted
column(s), and look the shorter rows up in the codomain word's array by
their sort key.

U_i = C+_i C_i is an endomorphism of each graded block.  verify_tl
sweeps all words up to a length and reports max residuals for: the
quadratic relation U^2 = [2] U, commutation at distance, the two-sided
triangle identity, the quartic relation, the F-lemma
F_i F_{i+1} F_i = K F_i with F_i = U_i U_{i+1} U_i - U_i, and the cup-cap
identities.  C_i changes only v_i, given v_{i-1} and v_{i+1}, so on any
grading each check is a direct sum of copies of one window check, on the
zero to four letters its slots touch.  Each relation is tabled once per
call per window grading and read only on the word that is its window:
a longer word's paths pass through window gradings that were read
there first, so the longer word changes no maximum and no location and
only adds to the count of checks.  Cup cap and the collapse block
C_i C+_i are the zero- and one-letter windows: diagonal, with an entry
per path that depends only on the vertex v_{i-1} (beta) or the arrow
v_{i-1} -> v_i ([2]).  So the sweep builds no block and reads no path
array of a swept word; it needs paths only of its window words.  The
worst location of each relation is named as if the gradings had been
visited one at a time.  The triangle identities are evaluated at
positions where every operator involved acts on a constant-tag run; on
other patterns the operators involved are not all triangle moves and
the identities do not apply (see tests for an explicit mixed-word
counterexample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .cells import CellSystem, _in_dtype, _triangle_table
from .graphs import GraphSpec, cached_on, spectral_data
from .paths import (
    EdgeTag,
    ElementaryPath,
    GradingMismatch,
    PathGrading,
    PathVector,
    Word,
    _grading_at,
    _grading_number,
    _grading_numbers,
    _grading_offsets,
    _dimension_groups,
    _row_keys,
    _walk_counts,
    _words,
    path_space_dim,
    word_paths,
)

ANNIHILATION = "ANNIHILATION"
CREATION = "CREATION"
CUP = "CUP"
CAP = "CAP"
U = "U"

_ADJOINT_KIND = {ANNIHILATION: CREATION, CREATION: ANNIHILATION, CUP: CAP, CAP: CUP, U: U}


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Matrix between two graded path spaces.

    Rows are indexed by the codomain basis, columns by the domain basis,
    both in enumeration order.  Matrices are immutable once built.
    """

    domain: PathGrading
    codomain: PathGrading
    matrix: np.ndarray
    kind: str
    position: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    def apply(self, vec: PathVector) -> PathVector:
        if vec.grading != self.domain:
            raise GradingMismatch(f"operator domain {self.domain}, vector {vec.grading}")
        return PathVector(self.codomain, self.matrix @ vec.coefficients)

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(
            domain=self.codomain,
            codomain=self.domain,
            matrix=self.matrix.conj().T,
            kind=_ADJOINT_KIND[self.kind],
            position=self.position,
        )


# ----------------------------------------------------------------------
# word surgery


def _collapsed_word(word: Word, i: int) -> Word:
    return word[: i - 1] + (word[i - 1].opposite,) + word[i + 1 :]


def _expanded_word(word: Word, i: int) -> Word:
    t = word[i - 1].opposite
    return word[: i - 1] + (t, t) + word[i:]


def _cup_word(word: Word, i: int) -> Word:
    return word[: i - 1] + word[i + 1 :]


def _cap_word(word: Word, i: int, first_tag: EdgeTag) -> Word:
    return word[: i - 1] + (first_tag, first_tag.opposite) + word[i - 1 :]


def collapsed_grading(grading: PathGrading, i: int) -> PathGrading:
    """Word with the pair at positions (i, i+1) replaced by the opposite of
    its first tag (for a like pair this is the triangle-collapse word)."""
    return PathGrading(grading.start, grading.end, _collapsed_word(grading.word, i))


def expanded_grading(grading: PathGrading, i: int) -> PathGrading:
    return PathGrading(grading.start, grading.end, _expanded_word(grading.word, i))


def cup_grading(grading: PathGrading, i: int) -> PathGrading:
    return PathGrading(grading.start, grading.end, _cup_word(grading.word, i))


def cap_grading(grading: PathGrading, i: int, first_tag: EdgeTag) -> PathGrading:
    return PathGrading(grading.start, grading.end, _cap_word(grading.word, i, EdgeTag(first_tag)))


def _check_slot(i: int, lo: int, hi: int, what: str):
    if not (lo <= i <= hi):
        raise ValueError(f"{what} position {i} out of range [{lo}, {hi}]")


# ----------------------------------------------------------------------
# operator builders
#
# annihilation and cup patterns are kept on the graph (keyed by word and
# position) and built from the graph's word_paths arrays by index
# arithmetic.  Nothing is kept on the cell system: an annihilation block
# is one gather from the cell vector and one scatter, and a cup block one
# scatter, on each call.  The sweeps (verify_tl, the Decomposer) stack
# blocks straight from the patterns and do not call the per-grading
# builders, so a block is cheaper to rebuild than to hold.  creation and
# cap return a fresh conjugate transpose of an annihilation or cup block
# on each call, and tl_u multiplies one; none of these keeps anything.
# The sweeps find a slot's entries on many gradings with one gather
# (_gather): the Decomposer's over a raising batch's groups, whose words
# have different patterns, each group padded to its own height;
# _word_kernels', verify_tl's and the cell solver's over one word's
# groups.  The stacks they scatter (the Decomposer's on every word,
# verify_tl's on its window words only) and verify_tl's window tables
# are not kept either.
# Patterns and matrices are immutable.


@dataclass(frozen=True, eq=False)
class _Pattern:
    """Where the entries of one operator sit on every grading of one word.

    The grading start -> end has grading number s = V * index(start) +
    index(end), for V vertices.  Its block has shape ``shapes[s]`` and
    its entries are those at positions ``offsets[s]:offsets[s + 1]`` of
    the entry arrays: entry k sits at (rows[k], cols[k]).  Every column
    holds at most one entry.  The arrays are read-only.
    """

    offsets: np.ndarray
    shapes: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    def entries(self, s: int) -> slice:
        return slice(self.offsets[s], self.offsets[s + 1])

    def _scatter(self, s: int, values: np.ndarray) -> np.ndarray:
        m = np.zeros(self.shapes[s].tolist(), dtype=complex)
        k = self.entries(s)
        m[self.rows[k], self.cols[k]] = values
        return m

    def stacked(self, numbers: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """The blocks of the gradings ``numbers`` for the cell vector, on a
        leading axis, each zero-padded to the largest block's shape: one
        gather (_gather) and one scatter into a complex stack, as the
        per-grading blocks are."""
        got = _gather([(self, numbers)], vector, np.dtype(complex))
        width = int(self.shapes[numbers, 1].max())
        m = np.zeros((len(numbers), int(got.heights[0]), width), complex)
        m[got.r, got.y, got.x] = got.values
        return m


@dataclass(frozen=True, eq=False)
class AnnihilationPattern(_Pattern):
    """Cell-free part of C_i on every grading of one word.

    Entry k is the cell of triangle tri[k] (its position in
    ``enumerate_triangles(g)``) over den[k] = sqrt(mu(a) mu(c)), or on a
    sigma-bar pair (``conj``) the conjugate cell.
    """

    tri: np.ndarray
    den: np.ndarray
    conj: bool

    def values(self, vector: np.ndarray, k=slice(None)) -> np.ndarray:
        """Entries k (all of them by default) for the cell vector.

        They are rounded as the loop builder in tests/oracle.py rounds
        them, so blocks on cells read from a file match it bit for bit: a
        cell is divided by its real denominator part by part (as Python
        divides a complex number by a float), and a conjugate cell is
        multiplied by the reciprocal (as NumPy divides).  Adding 0.0
        turns a negative zero into 0.0, as filling a zero block by
        addition does there.
        """
        t, den = vector[self.tri[k]], self.den[k]
        if self.conj:
            values = t.conj() * (1.0 / den)
        else:
            values = t.real / den + 1j * (t.imag / den)
        return values + 0.0

    def block(self, vector: np.ndarray, s: int) -> np.ndarray:
        """Block of grading s for the cell vector, one gather and one scatter."""
        return self._scatter(s, self.values(vector, self.entries(s)))


@dataclass(frozen=True, eq=False)
class CupPattern(_Pattern):
    """Cup_i on every grading of one word: entry k has weight weight[k] =
    sqrt(mu(b) / mu(a)) for the return a b a it closes."""

    weight: np.ndarray

    def values(self, vector: np.ndarray, k=slice(None)) -> np.ndarray:
        """Entries k (all of them by default): the weights, which read no
        cell, so any cell vector gives them."""
        return self.weight[k]

    def block(self, s: int) -> np.ndarray:
        return self._scatter(s, self.weight[self.entries(s)])


class _Gathered(NamedTuple):
    """The entries that one gather (_gather) finds on the gradings of its
    parts, which count one after another as rows 0, 1, ... .

    Entry j is entry take[j] of its part's pattern, at row y[j] and
    column x[j] of the block of row r[j], with r ascending and each
    row's entries in pattern order, and values[j] is its value (None
    without a cell vector).  Part k's gradings are rows firsts[k]:
    firsts[k + 1], its entries bounds[k]:bounds[k + 1], and heights[k]
    is the largest height of its blocks.
    """

    values: Optional[np.ndarray]
    take: np.ndarray
    r: np.ndarray
    y: np.ndarray
    x: np.ndarray
    heights: np.ndarray
    firsts: Sequence[int]
    bounds: Sequence[int]

    def part(self, k: int) -> "_Gathered":
        """Part k alone, its rows counted from its first."""
        e = slice(self.bounds[k], self.bounds[k + 1])
        values = None if self.values is None else self.values[e]
        r, heights = self.r[e] - self.firsts[k], self.heights[k : k + 1]
        firsts, bounds = (0, self.firsts[k + 1] - self.firsts[k]), (0, e.stop - e.start)
        return _Gathered(values, self.take[e], r, self.y[e], self.x[e], heights, firsts, bounds)


def _gather(parts, vector: Optional[np.ndarray], dtype: Optional[np.dtype]) -> _Gathered:
    """The entries of the blocks of several patterns, in one gather.

    parts holds (pattern, numbers) pairs, each numbers nonempty and
    ascending.  The values are in dtype (_in_dtype), or None without a
    cell vector.  When the parts share one pattern, it is read where it
    lies and its values at once, so a cup's weights stay real.  Else
    each pattern's span between the first and the last grading its
    parts read is joined with the others', and the values are read a
    part at a time into one array of dtype.
    """
    patterns = list(dict.fromkeys(p for p, _ in parts))
    lens = [len(numbers) for _, numbers in parts]
    numbers = np.concatenate([numbers for _, numbers in parts])
    if len(patterns) == 1:
        p = patterns[0]
        offsets, tall, rows, cols = p.offsets, p.shapes[:, 0], p.rows, p.cols
        g = h = numbers
        shift = None
    else:
        # per pattern: its gradings s0:s1 and their entries a:b, and
        # where its span starts among the joined offsets (o), shapes (h)
        # and entries (e)
        span = {}
        for p, ns in parts:
            s0, s1 = span.get(p, (ns[0], ns[-1] + 1))
            span[p] = (min(s0, ns[0]), max(s1, ns[-1] + 1))
        o = h = e = 0
        pieces = []
        for p in patterns:
            s0, s1 = (int(s) for s in span[p])
            a, b = int(p.offsets[s0]), int(p.offsets[s1])
            span[p] = (s0, a, o, h, e)
            o, h, e = o + s1 - s0 + 1, h + s1 - s0, e + b - a
            pieces.append((p.offsets[s0 : s1 + 1], p.shapes[s0:s1, 0], p.rows[a:b], p.cols[a:b]))
        offsets, tall, rows, cols = (np.concatenate(c) for c in zip(*pieces))
        # per part: where its gradings' offsets, shapes and entries sit
        # among the joined ones
        s0, a, o, h, e = np.array([span[p] for p, _ in parts]).T
        g = numbers + np.repeat(o - s0, lens)
        h = numbers + np.repeat(h - s0, lens)
        shift = np.repeat(e - a, lens)
    lo = offsets[g]
    counts = offsets[g + 1] - lo
    ends = np.cumsum(counts)
    take = np.arange(ends[-1]) + np.repeat(lo - (ends - counts), counts)
    at = take if shift is None else take + np.repeat(shift, counts)
    r = np.repeat(np.arange(len(numbers)), counts)
    firsts = np.cumsum([0] + lens).tolist()
    bounds = [0] + ends[np.array(firsts[1:]) - 1].tolist()
    heights = np.maximum.reduceat(tall[h], firsts[:-1])
    values = None
    if vector is not None and shift is None:
        values = _in_dtype(patterns[0].values(vector, take), dtype)
    elif vector is not None:
        values = np.empty(len(at), dtype=dtype)
        for (p, _), e0, e1 in zip(parts, bounds, bounds[1:]):
            values[e0:e1] = _in_dtype(p.values(vector, take[e0:e1]), dtype)
    return _Gathered(values, take, r, rows[at], cols[at], heights, firsts, bounds)


def _frozen(values, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def _entries(g: GraphSpec, word, codomain, selected: np.ndarray, drop) -> dict:
    """Shapes and entry positions of a pattern from word to codomain that
    maps each selected row of word_paths(g, word) to the codomain path
    left when the columns ``drop`` are deleted: the codomain row is found
    by searchsorted on the sort key of word_paths, and both row and
    column are counted from the start of their grading's slice."""
    dom = word_paths(g, word)[selected]
    numbers = _grading_numbers(g, dom)
    keys = _row_keys(g, word_paths(g, codomain))
    rows = np.searchsorted(keys, _row_keys(g, np.delete(dom, drop, axis=1)))
    dims, codims = _walk_counts(g, word), _walk_counts(g, codomain)
    return dict(
        offsets=_frozen(np.searchsorted(numbers, np.arange(dims.size + 1)), np.int32),
        shapes=_frozen(np.stack([codims.ravel(), dims.ravel()], axis=1), np.int64),
        rows=_frozen(rows - _grading_offsets(g, codomain)[numbers], np.int32),
        cols=_frozen(selected - _grading_offsets(g, word)[numbers], np.int32),
    )


def _mu_array(g: GraphSpec) -> np.ndarray:
    mu = spectral_data(g).mu
    return np.array([mu[v] for v in g.vertex_ids()])


@cached_on
def annihilation_pattern(g: GraphSpec, word: Tuple[EdgeTag, ...], i: int) -> AnnihilationPattern:
    """Where the cells enter C_i on each grading of the word, kept on the graph.

    sigma-sigma pairs contract through the triangle v_{i-1} v_i v_{i+1}
    when its closing arrow exists; the mirrored pair through the
    triangle v_{i-1} v_{i+1} v_i, conjugated; mixed pairs have no entry.
    The entries are found on the word's path array: a triangle lookup
    per row, then the row without v_i is placed in the collapsed word.
    """
    word = tuple(EdgeTag(t) for t in word)
    _check_slot(i, 1, len(word) - 1, "annihilation")
    paths = word_paths(g, word)
    a, mid, c = paths[:, i - 1], paths[:, i], paths[:, i + 1]
    like, sigma = word[i - 1] is word[i], word[i] is EdgeTag.SIGMA
    tri = _triangle_table(g)[(a, mid, c) if sigma else (a, c, mid)]
    selected = np.flatnonzero(like & (tri >= 0))
    mu = _mu_array(g)
    return AnnihilationPattern(
        **_entries(g, word, _collapsed_word(word, i), selected, i),
        tri=_frozen(tri[selected], np.int32),
        den=_frozen(np.sqrt(mu[a[selected]] * mu[c[selected]]), float),
        conj=like and not sigma,
    )


@cached_on
def cup_pattern(g: GraphSpec, word: Tuple[EdgeTag, ...], i: int) -> CupPattern:
    """Cup_i on each grading of the word, kept on the graph.

    A mixed pair closes every return v_{i-1} = v_{i+1} with weight
    sqrt(mu(v_i) / mu(v_{i-1})) and reads no cell; like pairs have no
    entry.  The returns are found on the word's path array, and each is
    placed in the shorter word with v_i and v_{i+1} deleted.
    """
    word = tuple(EdgeTag(t) for t in word)
    _check_slot(i, 1, len(word) - 1, "cup")
    paths = word_paths(g, word)
    a, b = paths[:, i - 1], paths[:, i]
    selected = np.flatnonzero((word[i - 1] is not word[i]) & (a == paths[:, i + 1]))
    mu = _mu_array(g)
    return CupPattern(
        **_entries(g, word, _cup_word(word, i), selected, [i, i + 1]),
        weight=_frozen(np.sqrt(mu[b[selected]] / mu[a[selected]]), float),
    )


def annihilation(g: GraphSpec, cells: CellSystem, grading: PathGrading, i: int) -> LinearOperator:
    """C_i: contract the pair at positions (i, i+1).

    sigma-sigma pairs contract through the triangle v_{i-1} v_i v_{i+1}
    (when its closing arrow exists) with weight T/sqrt(mu mu); the
    mirrored pair uses the conjugate cell; mixed pairs give the zero
    block.  The graph's pattern for the word places the entries, the
    cell vector fills them.
    """
    pattern = annihilation_pattern(g, grading.word, i)
    m = pattern.block(cells.vector, _grading_number(g, grading))
    return LinearOperator(grading, collapsed_grading(grading, i), m, ANNIHILATION, i)


def creation(g: GraphSpec, cells: CellSystem, grading: PathGrading, i: int) -> LinearOperator:
    """C+_i: expand the step at position i into a like pair through every
    completing triangle; the conjugate transpose of the annihilation that
    contracts that pair."""
    _check_slot(i, 1, grading.length, "creation")
    return annihilation(g, cells, expanded_grading(grading, i), i).adjoint()


def cup(g: GraphSpec, cells: CellSystem, grading: PathGrading, i: int) -> LinearOperator:
    """Contract a mixed-tag return v_{i-1} b v_{i-1} at positions (i, i+1),
    weight sqrt(mu(b)/mu(v_{i-1})).  Like-tag pairs give the zero block.

    One scatter from the graph's cup pattern for the word; cells is not
    read (every block builder takes the same arguments)."""
    _check_slot(i, 1, grading.length - 1, "cup")
    m = cup_pattern(g, grading.word, i).block(_grading_number(g, grading))
    return LinearOperator(grading, cup_grading(grading, i), m, CUP, i)


def cap_oriented(
    g: GraphSpec, cells: CellSystem, grading: PathGrading, i: int, first_tag: EdgeTag
) -> LinearOperator:
    """Insert a return v_{i-1} b v_{i-1} before position i, one term per
    neighbor b, weight sqrt(mu(b)/mu(v_{i-1})); first_tag fixes the
    insertion order and hence the codomain word.  The conjugate transpose
    of the cup that closes that return."""
    _check_slot(i, 1, grading.length + 1, "cap")
    return cup(g, cells, cap_grading(grading, i, first_tag), i).adjoint()


def tl_u(g: GraphSpec, cells: CellSystem, grading: PathGrading, i: int) -> LinearOperator:
    """U_i = C+_i C_i: contract the pair at (i, i+1) and re-expand.
    Zero block on mixed-tag patterns."""
    n = grading.length
    _check_slot(i, 1, n - 1, "tl_u")
    if grading.word[i - 1] != grading.word[i]:
        dim = path_space_dim(g, grading)
        return LinearOperator(grading, grading, np.zeros((dim, dim), complex), U, i)
    c = annihilation(g, cells, grading, i).matrix
    return LinearOperator(grading, grading, c.conj().T @ c, U, i)


def apply_annihilation(g, cells, p: ElementaryPath, i: int) -> PathVector:
    """C_i applied to one elementary path."""
    return annihilation(g, cells, p.grading, i).apply(PathVector.from_path(g, p))


# ----------------------------------------------------------------------
# relation verification
#
# Every operator keeps a path's start and end, so on one word it is block
# diagonal over the word's gradings.  The relations are local: each is
# checked once per call on its window words (two to four letters), where
# the gradings of equal dimension d form one group, each slot's blocks
# on a group are one zero-padded stack in the cells' dtype, scattered
# from one gather over all of the word's groups (_window_us), and the
# relation is a batched product with one residual per window grading
# (_window_tables).  Cup cap and C_i C+_i are the zero- and one-letter
# windows: per-vertex and per-arrow tables (_diagonal_tables).  The
# sweep then visits words, reads each relation's table on the word that
# is its window, one row per check, and on every other word only counts
# the checks.


def _mnorm(x: np.ndarray) -> float:
    return float(np.abs(x).max()) if x.size else 0.0


def _mnorms(x: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of each block of a (..., d, d) stack (0.0
    for empty blocks)."""
    return np.abs(x).max(axis=(-2, -1), initial=0.0)


def _above(a: float, b: float) -> bool:
    """a ranks above b as a residual: greater, or NaN over a number, so a
    NaN residual is a failure and is reported where it first occurs."""
    return a > b or (a != a and b == b)


class _Maxima:
    """Largest residual per relation and where it is first reached.

    "First" is in the order of a sweep one grading at a time: gradings in
    iter_gradings order, and on each grading the checks of one relation
    in the order verify_tl makes them.  A NaN residual ranks above every
    number (see _above), so the maximum is NaN and the location is that
    of the first NaN.
    """

    def __init__(self, g: GraphSpec, keys):
        self._g = g
        self.res = dict.fromkeys(keys, 0.0)
        self.worst = dict.fromkeys(keys, "")

    def bump_one(self, key: str, value: float, where: str):
        if _above(value, self.res[key]):
            self.res[key], self.worst[key] = value, where

    def bump(self, key: str, word: Word, numbers, values: np.ndarray, where: Sequence[str]):
        """values[c, q] is the residual of check c on the word's grading
        numbers[q] (ascending), and where[c] is check c's location after
        the grading.  Each relation is bumped at most once per word, in
        word order; on one grading a tie goes to the earlier row."""
        # grading-major, so the first maximum is the first in sweep order
        flat = values.T.ravel()
        nan = np.isnan(flat)
        q, c = divmod(int(nan.argmax() if nan.any() else flat.argmax()), values.shape[0])
        value = float(values[c, q])
        if _above(value, self.res[key]):
            self.bump_one(key, value, f"{_grading_at(self._g, word, int(numbers[q]))}{where[c]}")


def _square_sums(p: _Pattern, values: np.ndarray) -> np.ndarray:
    """Per grading of the pattern's word, the sum of |values|^2 over the
    grading's entries, added one at a time in column order."""
    gradings = len(p.offsets) - 1
    numbers = np.repeat(np.arange(gradings), np.diff(p.offsets))
    return np.bincount(numbers, values.real * values.real + values.imag * values.imag, gradings)


def _diagonal_tables(g: GraphSpec, vector: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The diagonals of cup cap and of the collapse block C_i C+_i.

    Every column of a pattern holds at most one entry, so C C^H is
    diagonal, and its entry at a path is the sum of |C|^2 along the
    path's row.  For cup_i cap_i with insertion order t that row holds
    the returns v_{i-1} b v_{i-1} through every neighbor b; for C_i C+_i
    it holds the triangles over the arrow v_{i-1} -> v_i.  So the entry
    depends on one vertex or one arrow and not on the rest of the word,
    and is read from the shortest word that has it: cupcap[t, a] from
    the cup of the cap word (t, t-bar) at a, beta by Perron-Frobenius,
    and collapse[t, a, c] from C_1 of (t-bar, t-bar) on a -> c, [2] by
    the sum rule (0 where no t arrow goes from a to c), with t = 0 for
    sigma and 1 for sigma-bar.
    """
    V = len(g.vertices)
    cupcap, collapse = [], []
    for t in (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR):
        p = cup_pattern(g, (t, t.opposite), 1)
        cupcap.append(_square_sums(p, p.weight)[:: V + 1])
        p = annihilation_pattern(g, (t.opposite, t.opposite), 1)
        collapse.append(_square_sums(p, p.values(vector)))
    return np.array(cupcap), np.array(collapse).reshape(2, V, V)


@dataclass(frozen=True)
class TLReport:
    """Max residual per relation over all gradings up to max_len."""

    graph: str
    max_len: int
    lemma_constant: float
    residual_items: Tuple[Tuple[str, float], ...]
    worst_items: Tuple[Tuple[str, str], ...]
    lemma_fit: Optional[float]
    checks: int

    @property
    def residuals(self) -> Mapping[str, float]:
        return MappingProxyType(dict(self.residual_items))

    @property
    def worst(self) -> Mapping[str, str]:
        return MappingProxyType(dict(self.worst_items))

    def passed(self, tol: float = 1e-8) -> bool:
        return all(v < tol for _, v in self.residual_items)

    def summary(self) -> Mapping[str, float]:
        out = dict(self.residual_items)
        out["max_len"] = float(self.max_len)
        out["checks"] = float(self.checks)
        out["lemma_constant"] = float(self.lemma_constant)
        if self.lemma_fit is not None:
            out["lemma_fit"] = float(self.lemma_fit)
        return out


def _gram(c: np.ndarray) -> np.ndarray:
    """C^H C for each block of a (..., rows, cols) stack."""
    return c.conj().swapaxes(-1, -2) @ c


def _window_us(g: GraphSpec, vector: np.ndarray, dtype: np.dtype, word: Word):
    """U_i = C_i^H C_i on the gradings of a window word, a dimension group
    at a time, in the cells' dtype: yields (numbers, us) with us[i - 1]
    the (k, d, d) stack of slot i's blocks on the k gradings ``numbers``
    of dimension d, zero on a mixed slot.  Each slot's entries are one
    gather (_gather) over all of the word's groups, scattered a group at
    a time into a stack of that dtype."""
    n = len(word)
    groups = list(_dimension_groups(g, word))
    slots = []
    for i in range(1, n):
        if word[i - 1] is word[i]:
            p = annihilation_pattern(g, word, i)
            slots.append((i, _gather([(p, numbers) for _, numbers in groups], vector, dtype)))
    for k, (d, numbers) in enumerate(groups):
        us = np.zeros((n - 1, len(numbers), d, d), dtype=dtype)
        for i, got in slots:
            e = got.part(k)
            c = np.zeros((len(numbers), e.heights[0], d), dtype=dtype)
            c[e.r, e.y, e.x] = e.values
            us[i - 1] = _gram(c)
        yield numbers, us


def _window_tables(g: GraphSpec, vector: np.ndarray, dtype: np.dtype, max_len: int) -> dict:
    """Per relation checked on U blocks, its residual on every grading of
    every window word of at most max_len letters, as a stack of V x V
    tables, one per window tag pattern, indexed by the window's first
    and last vertex (-inf where the window has no path; the lemma-fit
    inner products 0.0 there).

    With tag index 0 for sigma and 1 for sigma-bar, ``h1[2 t + u]`` is
    U_1^2 - [2] U_1 on the two-letter window (t, u), 0.0 on a mixed pair,
    where U_1 = 0; ``h2[2 t + u]`` is [U_1, U_3] on (t, t, u, u).
    ``h3[t]`` and ``f_square[t]`` are on (t, t, t), and ``h4[t]``,
    ``lemma[t]`` and the inner products ``num[t]`` = <F_1, F_1 F_2 F_1>
    and ``den[t]`` = <F_1, F_1> on (t, t, t, t).  Each window word's
    groups of equal dimension are one batch, in ``dtype``, the cells'
    CellSystem.dtype: real products on real cells.
    """
    sd = spectral_data(g)
    delta, beta = sd.delta, sd.beta
    V = len(g.vertices)
    t = {key: np.full((4, V * V), -np.inf) for key in ("h1", "h2")}
    t.update({key: np.full((2, V * V), -np.inf) for key in ("h3", "f_square", "h4", "lemma")})
    t.update(num=np.zeros((2, V * V)), den=np.zeros((2, V * V)))
    t["h1"][[1, 2]] = 0.0
    for k, tag in enumerate((EdgeTag.SIGMA, EdgeTag.SIGMA_BAR)):
        windows = [(tag,) * 2, (tag,) * 3, (tag,) * 4, (tag, tag, tag.opposite, tag.opposite)]
        for w in windows:
            if len(w) > max_len:
                continue
            for s, us in _window_us(g, vector, dtype, w):
                if len(w) == 2:
                    u = us[0]
                    t["h1"][3 * k, s] = _mnorms(u @ u - delta * u)
                elif len(w) == 3:
                    ui, uj = us
                    fi = ui @ uj @ ui - ui
                    t["h3"][k, s] = _mnorms(fi - (uj @ ui @ uj - uj))
                    t["f_square"][k, s] = _mnorms(fi @ fi - delta * beta * fi)
                elif w[2] is tag:
                    ui, uj, uk = us
                    t["h2"][3 * k, s] = _mnorms(ui @ uk - uk @ ui)
                    left = ui - uk @ uj @ ui + uj
                    right = uj @ uk @ uj - uj
                    t["h4"][k, s] = _mnorms(left @ right)
                    fi = ui @ uj @ ui - ui
                    fj = uj @ uk @ uj - uj
                    fjf = fi @ fj @ fi
                    t["lemma"][k, s] = _mnorms(fjf - float(delta**2) * fi)
                    t["num"][k, s] = [np.vdot(f, h).real for f, h in zip(fi, fjf)]
                    t["den"][k, s] = [np.vdot(f, f).real for f in fi]
                else:
                    ui, uk = us[0], us[2]
                    t["h2"][2 * k + (1 - k), s] = _mnorms(ui @ uk - uk @ ui)
    return {key: table.reshape(-1, V, V) for key, table in t.items()}


def _bump_far_pairs(g: GraphSpec, top: _Maxima, word: Word, nonzero, letters, unstable):
    """h2 on the word's far pairs: slots at distance 3 or more, or at
    distance 2 beside a mixed slot, where no window t t u u holds both.

    On the far pairs U_i and U_j touch disjoint vertices, or one of them
    is zero, and commute exactly: the check reads 0.0 times the two
    slots' h1 residuals, so 0.0, or NaN on each grading with a path that
    crosses, at slot i or at slot j, a two-letter window t t whose h1
    residual is NaN or +inf (``unstable[t]``, V x V).  Whether some path
    does is a walk-count product: the prefix's reachability, the
    window's, the suffix's.
    """
    n = len(word)
    like = letters[:-1] == letters[1:]
    i, j = np.array([(i, j) for i in range(1, n) for j in range(i + 2, n)]).T
    far = ~((j == i + 2) & like[i - 1] & like[j - 1])
    i, j = i[far], j[far]
    if not i.size:
        return
    reaches = np.zeros((n, nonzero.size), dtype=bool)
    for slot in (np.flatnonzero(like) + 1).tolist():
        pre = (_walk_counts(g, word[: slot - 1]) > 0).astype(float)
        post = (_walk_counts(g, word[slot + 1 :]) > 0).astype(float)
        reaches[slot] = (pre @ unstable[letters[slot - 1]] @ post).ravel()[nonzero] > 0
    values = np.where(reaches[i] | reaches[j], np.nan, 0.0)
    top.bump("h2", word, nonzero, values, [f" i={a} j={b}" for a, b in zip(i.tolist(), j.tolist())])


def verify_tl(
    g: GraphSpec,
    cells: CellSystem,
    max_len: int = 4,
) -> TLReport:
    """Sweep every grading with |word| <= max_len and report max residuals.

    h1:     U_i^2 = [2] U_i, plus the collapse-block identity
            C_i C+_i = [2] 1 (so an all-zero cell system is flagged with
            residual [2] instead of passing vacuously).
    h2:     U_i U_j = U_j U_i for |i - j| > 1 (all tag patterns).
    h3:     U_i U_{i+1} U_i - U_i = U_{i+1} U_i U_{i+1} - U_{i+1} on
            constant-tag runs of length 3.
    h4:     the quartic relation on constant-tag runs of length 4.
    lemma:  F_i F_{i+1} F_i = K F_i on the same runs, with K = [2]^2,
            the square of the loop parameter (equal to beta^2 on the
            smallest graph, where the two candidates coincide); the
            best-fit K is reported alongside.
    f_square: F_i^2 = [2] beta F_i on runs of length 3.
    cupcap: cup_i cap_i = beta 1 per insertion order, C_i C+_i = [2] 1,
            and (C_i C+_i)^2 = 1 + cup cap on every grading.
    sum_rule: the per-arrow cell normalization.

    C_i contracts v_{i-1} v_i v_{i+1} and keeps every other vertex, so
    U_i = C+_i C_i changes only v_i, given v_{i-1} and v_{i+1}.  On any
    grading, each check is then a direct sum of copies of one window
    check: the letters from the check's first slot to one past its
    last, at the grading from the window's first vertex to its last.
    So the relations are checked once per call, on the window words
    only (_window_tables: at most eight words of two to four letters,
    one batched product per group of equal dimension, real on real
    cells: CellSystem.dtype), and each relation's table is read on the
    word that is its window, where each grading is one window grading:
    the empty word for the caps, s and b for the collapse block and the
    square against the caps (_diagonal_tables: the entry at a path
    depends only on v_{i-1} or on the arrow v_{i-1} -> v_i), the
    two-letter words for h1, sss and bbb for h3 and f_square, t t u u
    for h2 at distance 2 and ssss and bbbb for h4 and lemma.  Every other
    word's check on a grading is the maximum of the same table over the
    window gradings its paths pass through; each of those was read on
    the window word at that grading, earlier in word order, and a
    maximum moves only on a residual strictly above it (NaN above a
    number, never NaN above NaN), so the longer word can change no
    maximum and no location: it only adds its checks to the count.

    h2 on the far pairs, at distance 3 or more or at distance 2 beside
    a mixed slot, pairs operators that touch disjoint vertices or a zero
    one, which commute exactly: the check reads 0.0, or NaN on the
    gradings whose paths cross a two-letter window t t with an h1
    residual of NaN or +inf (_bump_far_pairs, a walk-count product that
    runs only when such a window exists).  Such a NaN can come first:
    with one cell of a3 at 2.45e77, U^2 overflows on a window s s, and
    h2 is first NaN on a far pair of bsss, before any t t u u window
    (the first is bbss).

    The fitted K's inner products on a grading are the window's, once
    per way to reach the window from the start and to leave it to the
    end: walk-count arithmetic too.  So the sweep builds no block and
    reads no path array or pattern of a swept word, only of the window
    words (at most four letters); PathSpaceTooLarge stops it only at a
    window word.  The checks on whole blocks are held to their windows'
    maxima in the tests, and the cap words' cups and the expanded words'
    annihilations, which the sweep does not read, are checked against
    the tables and loop-built blocks there and by verify_adjointness.

    A check is counted per grading, and ``worst`` names the first
    grading and slot, in iter_gradings order, where a relation reaches
    its maximum.  The fitted K sums per grading in that order.  Raises
    ValueError for a negative max_len.
    """
    from .cells import max_sum_rule_residual

    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    sd = spectral_data(g)
    delta, beta = sd.delta, sd.beta
    kconst = float(delta**2)

    top = _Maxima(g, ("h1", "h2", "h3", "h4", "lemma", "f_square", "cupcap", "sum_rule"))
    top.bump_one("sum_rule", max_sum_rule_residual(g, cells), "arrows")
    checks = 1
    fit_num = 0.0
    fit_den = 0.0

    tags = (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR)
    tables = _window_tables(g, cells.vector, cells.dtype, max_len)
    cupcap, collapse = _diagonal_tables(g, cells.vector)
    # per tag t, the two-letter windows t t whose h1 residual is NaN or
    # +inf: the far h2 pairs read NaN on every grading that reaches one
    h1 = tables["h1"][[0, 3]]
    unstable = np.isnan(h1) | (h1 == np.inf)
    for w in _words(max_len):
        dims = _walk_counts(g, w).ravel()
        nonzero = np.flatnonzero(dims)
        if not nonzero.size:
            continue
        n = len(w)
        letters = np.array([tags.index(t) for t in w], dtype=np.intp)
        like = letters[:-1] == letters[1:]
        runs3 = np.flatnonzero(like[:-1] & like[1:]) + 1
        runs4 = np.flatnonzero(like[:-2] & like[1:-1] & like[2:]) + 1
        # per grading: h1 on every slot and collapse block, h2 on every
        # pair at distance >= 2, h3 and f_square per 3-run, h4 and lemma
        # per 4-run, and per slot 1 .. n + 1 two caps and, but for the
        # last, the square of the collapse block against each
        rows = max(n - 1, 0) + n + math.comb(max(n - 2, 0), 2)
        checks += (rows + 2 * len(runs3) + 2 * len(runs4) + 4 * n + 2) * nonzero.size

        def bump(key: str, table: np.ndarray, ids, where):
            top.bump(key, w, nonzero, table[ids].reshape(len(ids), -1)[:, nonzero], where)

        if n == 0:
            # the caps, per vertex; every vertex is a grading of ()
            top.bump("cupcap", w, nonzero, np.abs(cupcap - beta), [" i=1 cap s", " i=1 cap b"])
        elif n == 1:
            bump("h1", np.abs(collapse - delta), letters, [" i=1 collapse block"])
            c = collapse[letters[0]]
            square = np.abs(c * c - (1.0 + cupcap[:, :, None]))
            bump("cupcap", square, [0, 1], [f" i=1 square vs cap {t.value}" for t in tags])
        elif n == 2:
            bump("h1", tables["h1"], [2 * letters[0] + letters[1]], [" i=1"])
        elif n == 3 and len(runs3):
            for key in ("h3", "f_square"):
                bump(key, tables[key], [letters[0]], [" i=1"])
        elif n == 4 and like[0] and like[2]:
            bump("h2", tables["h2"], [2 * letters[0] + letters[2]], [" i=1 j=3"])
            if len(runs4):
                for key in ("h4", "lemma"):
                    bump(key, tables[key], [letters[0]], [" i=1"])
        if n >= 4 and unstable.any():
            _bump_far_pairs(g, top, w, nonzero, letters, unstable)

        # the word block's inner product: each window's, once per way to
        # reach the window from the start and to leave it to the end
        fits = []
        for i in runs4.tolist():
            pre = _walk_counts(g, w[: i - 1]).astype(float)
            post = _walk_counts(g, w[i + 3 :]).astype(float)
            num, den = (
                (pre @ tables[key][letters[i - 1]] @ post).ravel()[nonzero].tolist()
                for key in ("num", "den")
            )
            fits += zip(nonzero.tolist(), [i] * len(num), num, den)
        for _, _, num, den in sorted(fits):
            fit_num += num
            fit_den += den

    fit = fit_num / fit_den if fit_den > 1e-12 else None
    return TLReport(
        graph=g.name,
        max_len=max_len,
        lemma_constant=kconst,
        residual_items=tuple(sorted(top.res.items())),
        worst_items=tuple(sorted(top.worst.items())),
        lemma_fit=fit,
        checks=checks,
    )


def verify_adjointness(g: GraphSpec, cells: CellSystem, max_len: int = 4) -> float:
    """Max deviation of creation from annihilation^H and of cap from
    cup^H over all gradings with |word| <= max_len.

    creation and cap are built as those conjugate transposes, so the
    deviation is zero for any cells, and what is checked is that each
    pair meets on matching gradings: for every word w with a grading of
    nonzero dimension and every slot, the annihilation pattern of the
    expanded word (|w| < max_len) and the cup pattern of each cap word
    (|w| <= max_len - 2) map back onto w, i.e. their blocks on w's
    gradings have w's dimensions as rows.  Returns 0.0 when they do and
    inf otherwise; the cells are not read.  The weights themselves are
    checked against loop-built blocks in the tests.  Raises ValueError
    for a negative max_len.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    for w in _words(max_len - 1):
        dims = _walk_counts(g, w).ravel()
        nonzero = np.flatnonzero(dims)
        if not nonzero.size:
            continue
        n = len(w)
        patterns = [annihilation_pattern(g, _expanded_word(w, i), i) for i in range(1, n + 1)]
        if n <= max_len - 2:
            patterns += [
                cup_pattern(g, _cap_word(w, i, tag), i)
                for i in range(1, n + 2)
                for tag in (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR)
            ]
        for p in patterns:
            if not np.array_equal(p.shapes[nonzero, 0], dims[nonzero]):
                return math.inf
    return 0.0

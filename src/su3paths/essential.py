"""Essential paths, the graded decomposition of path spaces, and the
constructive factorization of elementary paths.

A path vector is essential when every annihilation and every cup
applicable to its grading kills it; per grading that is the joint
numerical kernel of the stacked operator blocks.  Kernels are found
for many gradings at once (_kernels): the gradings of one dimension
whose stacks have the same shape take one SVD, and each slot's blocks
on all of them come from one gather (_lowering_entries).
essential_basis and essential_dims read a word's kernels from the cell
system, where _word_kernels keeps them; the decomposition finds them
one raising batch at a time, one SVD per stack shape and one gather
per slot per batch, and keeps none there.  All of this arithmetic,
from the kernel SVDs through the raising batches and the projector
checks, runs in the cell system's dtype (CellSystem.dtype): float64 on
real cells, such as the shipped ones, else complex128.  The vectors
handed out (essential_basis, Decomposer.basis, decompose_space) are
complex either way.
Types with alpha + beta beyond the graph level are excluded from the
essential space by the length clause even where the joint kernel is
nonzero; the raw kernel dimension is still reported (and is what the
graded decomposition is anchored on, since raising preserves
orthogonality to kernels, not to their level-clamped subsets).

The decomposition writes each graded space as

    P(W) = ker(W)  +  sum over slots of op_i(P(source_i(W)))

where op_i is the creation expanding a like-tag pair (source = the
collapsed word) or the cap re-inserting a mixed-tag return (source =
the word with the pair removed), recursively.  Generation g vectors
are images of length-g raising chains out of some raw kernel;
independence is decided by rank growth during incremental
orthonormalization.  A word's sources are shorter, so the Decomposer
raises the words of one length together, sources first.  Per
dimension, their groups run in batches of bounded size, and a batch is
the unit of work from start to end: its groups' kernels, one order of
their raising candidates, the gathered candidates and one Gram-Schmidt
loop, each grading with its own rank decisions.  verify_decomposition
sweeps a length at a time and checks each batch's projectors as soon
as it is raised, in chunks of bounded size.  It keeps the bases of the
two lengths the next length raises from, and none of the last.

factorize_path implements the constructive proof: strip the essential
suffix right of the rightmost live pattern, peel the leftmost live
pattern as a creation/cap insertion, recurse; replaying the recorded
events from the core reproduces a vector supported on the original
path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from .cells import CellSystem, OrientedTriangle
from .fusion import _type_bound, fusion_matrix
from .graphs import GraphError, GraphSpec, cached_on
from .operators import (
    CupPattern,
    _collapsed_word,
    _cup_word,
    _gather,
    _mnorms,
    annihilation_pattern,
    cap_oriented,
    collapsed_grading,
    creation,
    cup,
    cup_grading,
    cup_pattern,
)
from .paths import (
    EdgeTag,
    ElementaryPath,
    PathGrading,
    PathVector,
    Word,
    _basis_index,
    _dimension_groups,
    _grading_at,
    _grading_number,
    _walk_counts,
    _words,
    concatenate,
    enumerate_paths,
    path_space_dim,
    word_str,
)

NULL_TOL = 1e-9  # relative singular-value cutoff for kernel membership
RANK_TOL = 1e-8  # relative growth needed to accept a raised vector
LIVE_TOL = 1e-12  # cell magnitude below which a triangle move is dead


class DecompositionError(RuntimeError):
    """Dimension accounting failed; carries the offending report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


# ----------------------------------------------------------------------
# joint kernels
#
# Every raising and lowering operator keeps a path's start and end, so
# the kernels and bases of a word's gradings are built together.  The
# gradings of nonzero dimension d form one group.  Per slot, the
# lowering entries of any set of groups, of one word or of many, are one
# gather (operators._gather, in _lowering_entries); each group's blocks
# are zero-padded to the largest of its own, and a grading's slots are
# stacked on top of each other.  _kernels takes groups of one dimension
# and runs one SVD per stack shape: numpy's stacked SVD runs LAPACK on
# each matrix alone, so a kernel does not depend on the gradings it
# shares an SVD with.  Zero rows and columns from the padding change no
# singular value.  _word_kernels gathers a word's entries once for all
# of its groups, runs _kernels a group at a time, and keeps the kernels
# on the cell system for essential_basis and essential_dims.


def _ranks(svals: np.ndarray) -> np.ndarray:
    """Numerical rank behind each row of descending singular values: the
    number above NULL_TOL times the row's largest, so 0 when that one is
    0 or the row is empty.  Every kernel decision goes through here."""
    if svals.shape[-1] == 0:
        return np.zeros(svals.shape[:-1], dtype=np.int64)
    return np.count_nonzero(svals > NULL_TOL * svals[..., :1], axis=-1)


@dataclass(frozen=True, eq=False)
class _BasisGroup:
    """Bases of the gradings ``numbers`` of dimension d: of one word,
    ascending, in _word_kernels; of a whole raising batch, which runs
    over several words, in _raise_batch.

    Row r's basis is columns :count[r] of the (d, n) block basis[r]:
    kernel[r] raw-kernel vectors, then the raised ones in acceptance
    order.  gens[r] gives each column's generation, -1 past count[r],
    where the columns are zero.  failed[r] marks a grading whose
    accounting broke: fewer than d vectors, or more than d independent.
    The Decomposer's bases have n = d columns; the kernels of
    _word_kernels stop at the group's largest kernel.
    """

    numbers: np.ndarray
    basis: np.ndarray
    gens: np.ndarray
    kernel: np.ndarray
    count: np.ndarray
    failed: np.ndarray


@dataclass(frozen=True, eq=False)
class _WordBases:
    """Every grading's basis on one word: grading number s is row
    row_of[s] of pools[pool_of[s]], and pool_of[s] is -1 (row_of[s] 0)
    when its dimension is 0.  The Decomposer's words of one length share
    that length's raising batches as their pools; in _word_kernels each
    dimension group of the word is a pool of its own."""

    pools: Tuple[_BasisGroup, ...]
    pool_of: np.ndarray
    row_of: np.ndarray

    def find(self, s: int):
        """(pool, row) of grading number s, or None for dimension 0."""
        k = self.pool_of[s]
        return None if k < 0 else (self.pools[k], int(self.row_of[s]))

    def sizes(self) -> np.ndarray:
        """The number of basis vectors of every grading, by grading number."""
        # the pools' counts one after another, and a 0 last that the
        # gradings of dimension 0 (pool -1, row 0) read
        count = np.concatenate([p.count for p in self.pools] + [[0]])
        first = np.cumsum([0] + [len(p.count) for p in self.pools])
        return count[first[self.pool_of] + self.row_of]


def _h(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def _lowering(g: GraphSpec, word: Word):
    """Per slot of the word: its lowering pattern (an annihilation on a
    like-tag pair, a cup on a mixed one), whose entries on a cell vector
    are p.values(vector, k), and the source word that the adjoint raises
    from."""
    return [
        (annihilation_pattern(g, word, i), _collapsed_word(word, i))
        if word[i - 1] is word[i]
        else (cup_pattern(g, word, i), _cup_word(word, i))
        for i in range(1, len(word))
    ]


def _check_finite(g: GraphSpec, word: Word, slots, vector: np.ndarray) -> None:
    """Raise DecompositionError when a lowering entry of the word (slots
    holds its patterns) is not finite, naming the first grading that
    has one in the order of the word's groups: by dimension, then by
    grading number."""
    bad = set()
    for p in slots:
        finite = np.isfinite(p.values(vector))
        if not finite.all():
            entries = np.flatnonzero(~finite)
            bad.update((np.searchsorted(p.offsets, entries, side="right") - 1).tolist())
    if bad:
        dims = _walk_counts(g, word).ravel()
        s = min(bad, key=lambda s: (dims[s], s))
        raise DecompositionError(f"{_grading_at(g, word, s)}: non-finite operator entries")


def _lowering_entries(groups, cells: CellSystem):
    """The entries of the lowering blocks of groups (numbers, slots) of
    gradings (slots holds a word's lowering patterns, as many for every
    group), the groups' gradings one after another in rows: per slot one
    gather over all of the groups (_gather), with its values in the cell
    system's dtype; and tops, whose row i gives each grading's first row
    of slot i in its stack, and whose last row the stack's height.  Each
    slot's blocks are padded to the largest of their group."""
    lens = [len(numbers) for numbers, _ in groups]
    entries, tops = [], [np.zeros(len(groups), dtype=np.int64)]
    for i in range(len(groups[0][1])):
        parts = [(slots[i], numbers) for numbers, slots in groups]
        entries.append(_gather(parts, cells.vector, cells.dtype))
        tops.append(tops[-1] + entries[-1].heights)
    return entries, np.repeat(np.array(tops), lens, axis=1)


def _kernels(entries, tops: np.ndarray, lens, d: int, dtype: np.dtype):
    """The raw joint kernels of groups of dimension-d gradings, of lens[k]
    gradings each, from their lowering entries and tops
    (_lowering_entries), in dtype.

    A grading's stack is its slots' blocks one on top of the other.  The
    gradings whose stacks have the same height take one SVD, in row
    chunks whose stacks, singular vectors and kernels fit in
    _BATCH_BYTES together.  Returns the (n, d, d) bases, row r with
    kernel[r] kernel vectors and zero columns after them, their (n, d)
    generations and kernel."""
    starts = np.cumsum([0] + list(lens)).tolist()
    n = starts[-1]
    basis = np.zeros((n, d, d), dtype=dtype)
    gens = np.full((n, d), -1, dtype=np.int64)
    kernel = np.full(n, d, dtype=np.int64)
    if not entries:
        basis[:] = np.eye(d)
        gens[:] = 0
        return basis, gens, kernel
    height = tops[-1]
    for h in sorted(set(height.tolist())):
        rows = np.flatnonzero(height == h)
        # every slot's entries on these rows, at their row p among them and
        # their row t of the stack
        place = np.empty(n, dtype=np.int64)
        place[rows] = np.arange(len(rows))
        pieces = []
        for e, top in zip(entries, tops):
            v, r, y, x = e.values, e.r, e.y, e.x
            if len(rows) < n:
                v, r, y, x = (a[height[e.r] == h] for a in (v, r, y, x))
            pieces.append((v, place[r], y + top[r], x))
        v, p, t, x = (np.concatenate(c) for c in zip(*pieces))
        del pieces
        step = max(1, _BATCH_BYTES // (2 * dtype.itemsize * d * (h + d)))
        for r0 in range(0, len(rows), step):
            chunk = rows[r0 : r0 + step]
            sel = (p >= r0) & (p < r0 + step)
            stack = np.zeros((len(chunk), h, d), dtype=dtype)
            stack[p[sel] - r0, t[sel], x[sel]] = v[sel]
            _, svals, vh = np.linalg.svd(stack, full_matrices=h < d)
            rank = _ranks(svals)
            # column j is right singular vector rank + j, zeroed past the kernel
            j = np.arange(d)
            null = vh[np.arange(len(chunk))[:, None], (j + rank[:, None]) % d]
            np.conjugate(null, out=null)
            null *= (j < d - rank[:, None])[:, :, None]
            basis[chunk] = null.swapaxes(1, 2)
            kernel[chunk] = d - rank
    # Past its group's largest kernel a row is +0, as in a group's kernels
    # computed alone; the signs of the raised vectors' zeros follow it.
    largest = np.repeat(np.maximum.reduceat(kernel, starts[:-1]), lens)
    basis.transpose(0, 2, 1)[np.arange(d) >= largest[:, None]] = 0
    gens[np.arange(d) < kernel[:, None]] = 0
    return basis, gens, kernel


@cached_on
def _word_kernels(cells: CellSystem, g: GraphSpec, word: Word) -> _WordBases:
    """The generation-0 bases of every grading of a word on g, kept on
    the cell system: the raw joint kernels (_kernels), one call and one
    pool per dimension group, their blocks cut at the group's largest
    kernel.  Each slot's entries are one gather over all of the word's
    groups (_lowering_entries), split by group.  A non-finite lowering
    entry raises DecompositionError (_check_finite)."""
    slots = [p for p, _ in _lowering(g, word)]
    _check_finite(g, word, slots, cells.vector)
    groups = list(_dimension_groups(g, word))
    entries, tops = _lowering_entries([(numbers, slots) for _, numbers in groups], cells)
    pool_of = np.full(len(g.vertices) ** 2, -1, dtype=np.int64)
    row_of = np.zeros_like(pool_of)
    kernels, r0 = [], 0
    for k, (d, numbers) in enumerate(groups):
        mine, r1 = [e.part(k) for e in entries], r0 + len(numbers)
        basis, gens, kernel = _kernels(mine, tops[:, r0:r1], [len(numbers)], d, cells.dtype)
        r0 = r1
        pool_of[numbers], row_of[numbers] = k, np.arange(len(numbers))
        top = kernel.max()
        basis, gens = basis[:, :, :top].copy(), gens[:, :top].copy()
        failed = np.zeros(len(numbers), dtype=bool)
        for a in (numbers, basis, gens, kernel, failed):
            a.setflags(write=False)
        kernels.append(_BasisGroup(numbers, basis, gens, kernel, kernel, failed))
    for a in (pool_of, row_of):
        a.setflags(write=False)
    return _WordBases(tuple(kernels), pool_of, row_of)


@dataclass(frozen=True)
class EssentialBasis:
    """Orthonormal essential vectors of one grading.

    dim is the essential dimension after the level clause; raw_dim is
    the joint-kernel dimension regardless of it.
    """

    grading: PathGrading
    vectors: Tuple[PathVector, ...]
    dim: int
    raw_dim: int
    excluded_by_length: bool


def essential_basis(g: GraphSpec, cells: CellSystem, grading: PathGrading) -> EssentialBasis:
    """One grading's slice of its word's kernels (_word_kernels), which
    raise DecompositionError on a non-finite operator entry."""
    found = _word_kernels(cells, g, grading.word).find(_grading_number(g, grading))
    raw_dim = 0 if found is None else int(found[0].kernel[found[1]])
    alpha, beta = grading.type()
    excluded = alpha + beta > g.level
    vectors: Tuple[PathVector, ...] = ()
    if raw_dim and not excluded:
        # a complex copy: the kept kernels are read-only, and real on real cells
        null = found[0].basis[found[1], :, :raw_dim].astype(complex)
        vectors = tuple(PathVector(grading, null[:, j]) for j in range(raw_dim))
    return EssentialBasis(
        grading=grading,
        vectors=vectors,
        dim=len(vectors),
        raw_dim=raw_dim,
        excluded_by_length=excluded,
    )


def words_of_type(alpha: int, beta: int) -> Tuple[Tuple[EdgeTag, ...], ...]:
    """All distinct tag orderings with the given sigma/sigma-bar counts,
    in lexicographic word order: one per choice of the beta sigma-bar
    positions among the alpha + beta letters."""
    n = alpha + beta
    words = (
        tuple(EdgeTag.SIGMA_BAR if k in bars else EdgeTag.SIGMA for k in range(n))
        for bars in itertools.combinations(range(n), beta)
    )
    return tuple(sorted(words, key=word_str))


@dataclass(frozen=True, eq=False)
class EssentialDimReport:
    """Essential dimensions of one type, split by word, against fusion.

    The comparison is per word: each word's dimension matrix against
    F_(alpha,beta).  A word with at most one change of tag (such as ssb
    or bss) carries its own copy of the essential space of the type.
    total sums the words (the count a flat listing of essential paths of
    the type produces).
    """

    graph: str
    type: Tuple[int, int]
    total: np.ndarray  # (vertex, vertex) essential dims summed over words
    per_word: Mapping[str, np.ndarray]
    fusion: np.ndarray
    mismatches: Tuple[Tuple[str, str, str, int, int], ...]  # (word, a, b, essential, fusion)

    @property
    def matches_fusion(self) -> bool:
        return not self.mismatches


def _check_level(g: GraphSpec, tp: Tuple[int, int]) -> None:
    """Raise GraphError for a negative type component, or for a type
    beyond the level, whose essential spaces the length clause excludes;
    essential_dims and the CLI's one-grading listing call it before
    building any kernel."""
    if _type_bound((int(tp[0]), int(tp[1]))) > g.level:
        raise GraphError(
            f"type {tp} exceeds the level {g.level} of {g.name!r}; essential "
            "spaces there are excluded by the length clause"
        )


def essential_dims(g: GraphSpec, cells: CellSystem, tp: Tuple[int, int]) -> EssentialDimReport:
    """Per word of the type, the kernel counts of its gradings
    (_word_kernels) against F_(alpha,beta); a non-finite operator entry
    raises DecompositionError naming its grading.  A negative type
    component or a type beyond the level raises GraphError first
    (_check_level)."""
    _check_level(g, tp)
    alpha, beta = int(tp[0]), int(tp[1])
    ids = g.vertex_ids()
    n = len(ids)
    per_word = {}
    total = np.zeros((n, n), dtype=np.int64)
    for word in words_of_type(alpha, beta):
        m = np.zeros(n * n, dtype=np.int64)  # by grading number
        for pool in _word_kernels(cells, g, word).pools:
            m[pool.numbers] = pool.kernel
        m = m.reshape(n, n)
        per_word[word_str(word)] = m
        total += m
    fus = fusion_matrix(g, (alpha, beta)).matrix
    mismatches = tuple(
        (w, ids[i], ids[j], int(m[i, j]), int(fus[i, j]))
        for w, m in per_word.items()
        for i in range(n)
        for j in range(n)
        if m[i, j] != fus[i, j]
    )
    return EssentialDimReport(
        graph=g.name,
        type=(alpha, beta),
        total=total,
        per_word=MappingProxyType(per_word),
        fusion=fus,
        mismatches=mismatches,
    )


# ----------------------------------------------------------------------
# graded decomposition
#
# A word's sources are shorter, so once the shorter words are built the
# words of one length are raised together: their groups of one
# dimension d are batched within _BATCH_BYTES, and each batch is raised
# from start to end before the next one starts (_raise_batch).  Its
# kernels are found there, one SVD per stack shape per batch
# (_kernels), straight into the rows of the batch's bases, from one
# gather per slot over all of the batch's groups.  Every lowering column
# holds at most one entry, so each raising candidate C^H s is a
# gathered and scaled row of the source basis, read at the same entries
# that stacked the kernels' blocks.  A word's bases are an index into
# the raising batches that made them, its pools (_WordBases): the words
# of one length share that length's batches.  One stable sort orders
# the candidates of every grading of the batch, and they are gathered a
# slot and a source pool at a time straight into that order
# (_candidates).  One Gram-Schmidt loop runs with one accept
# mask per grading.  The padding changes no candidate or projection and
# the rows are independent, so a grading's basis does not depend on its
# batch.
# verify_decomposition checks each batch's projectors straight after it
# is raised, keeps the bases of lengths n - 1 and n - 2 while it raises
# length n, and keeps none of the last length.

_DEAD = np.iinfo(np.int64).max  # generation of a padded candidate column

# Bytes that one raising batch's candidates, and its bases, may take;
# and one kernel SVD's stacks, singular vectors and kernels together.
# Sizes count entries of the cells' dtype, so a batch on real cells
# holds twice the rows of one on complex cells.  A whole length's
# candidates take 0.55 MiB on e5's real cells at length 4 and 6.1 MiB at
# length 5 (0.96 and 11.9 MiB complex), so a length needs several
# batches.  Freeing an array past malloc's mmap threshold (128 KiB at
# start) raises the threshold for the rest of the process, and later
# arrays then fragment the heap: with
# 1 MiB batches `report e5 --max-len 4` kept about 0.5 MiB more memory
# than with 256 KiB, which raises as fast.  A larger group is a batch
# of its own, whose kernels still take SVDs of bounded size.
# verify_decomposition raises and checks one batch at a time and keeps
# the bases of two lengths only, so of the last length it holds one
# batch at a time.
_BATCH_BYTES = 256 << 10

# Bytes of bases whose projector residuals verify_decomposition forms at
# once.  _projector_residuals makes about a dozen arrays of that size, so
# a chunk stays well under 1 MiB; residuals of whole 256 KiB batches
# raised the peak of `report e5 --max-len 4` by 0.9 MiB.
_CHECK_BYTES = 64 << 10


class Decomposer:
    """Memoized construction of generation-labelled orthonormal bases.

    basis(grading) returns ((generation, column-vector), ...) spanning
    the graded space: generation 0 is the raw joint kernel, generation
    g >= 1 the independent raising images of generation g-1 vectors of
    the source gradings.  The raising images of one grading are tried in
    slot order, the source basis in its order within a slot, then sorted
    stably by generation.

    The bases are built from the words' kernels and kept per word, as an
    index into the batches that raised them (_WordBases); the kernels
    are not kept on the cell system.  A word's sources (its
    collapsed and cup words) are shorter and are built first;
    _raise_words then raises the words of one length together, per
    dimension, one bounded batch at a time, with one SVD per stack
    shape per batch (_raise_batch).  Share one instance
    across gradings to reuse them.  verify_decomposition uses one as a
    window of two lengths and keeps no bases of the last.
    """

    def __init__(self, g: GraphSpec, cells: CellSystem):
        self.g = g
        self.cells = cells
        self._memo: dict = {}

    def basis(self, grading: PathGrading):
        found = self._word(grading.word).find(_grading_number(self.g, grading))
        if found is None:
            return ()
        grp, r = found
        return tuple(
            (int(gen), grp.basis[r, :, j].astype(complex, copy=False))
            for j, gen in enumerate(grp.gens[r, : grp.count[r]].tolist())
        )

    def _word(self, word: Word) -> _WordBases:
        if word not in self._memo:
            self._raise_words([word])
        return self._memo[word]

    def _raise_words(self, words, check=None, keep: bool = True) -> None:
        """Build the bases of words of one length, none of them built yet,
        a batch at a time (_raise_batch), and keep them: the batches are
        the words' pools, and each batch's rows are written into its
        words' indexes as it is raised.  check(batch, raised), when given,
        sees each batch as soon as it is raised; with keep false nothing
        is kept."""
        size = len(self.g.vertices) ** 2
        kept, todo, found = [], {}, {}
        for w, word in enumerate(words):
            lowering = _lowering(self.g, word)
            slots = [p for p, _ in lowering]
            _check_finite(self.g, word, slots, self.cells.vector)
            # per slot, the source word's bases and its place among the
            # source words found
            bases = [self._word(src) for _, src in lowering]
            at = [found.setdefault(src, (len(found), b))[0] for (_, src), b in zip(lowering, bases)]
            # per grading, its candidates: the source bases' sizes
            width = sum((b.sizes() for b in bases), np.zeros(size, dtype=np.int64))
            kept.append((word, np.full(size, -1, dtype=np.int64), np.zeros(size, dtype=np.int64)))
            for k, (d, numbers) in enumerate(_dimension_groups(self.g, word)):
                item = ((w, k), numbers, (slots, at), int(width[numbers].max()))
                todo.setdefault(d, []).append(item)
        # the source words' pools in one list, pools that words share once,
        # and per source word and grading number the grading's pool's place
        # in the list (-1 for dimension 0) and its row in that pool
        pools, first = [], {}
        place = np.empty((len(found), size), dtype=np.int64)
        row = np.empty_like(place)
        for j, (_, b) in enumerate(found.values()):
            if id(b.pools) not in first:
                first[id(b.pools)] = len(pools)
                pools += b.pools
            place[j] = np.where(b.pool_of < 0, -1, b.pool_of + first[id(b.pools)])
            row[j] = b.row_of
        sources = (pools, place, row)
        made = []
        for d, items in todo.items():
            items.sort(key=lambda item: -item[-1])  # widest first, see _raise_batch
            for batch in _batches(items, d, self.cells.dtype.itemsize):
                raised = _raise_batch(batch, d, self.cells, sources)
                if check is not None:
                    check(batch, raised)
                if keep:
                    r0 = 0
                    for (w, _), numbers, *_ in batch:
                        kept[w][1][numbers] = len(made)
                        kept[w][2][numbers] = np.arange(r0, r0 + len(numbers))
                        r0 += len(numbers)
                    made.append(raised)
        if keep:
            made = tuple(made)
            for word, pool_of, row_of in kept:
                self._memo[word] = _WordBases(made, pool_of, row_of)


def _batches(items, d: int, itemsize: int):
    """Runs of consecutive items (key, numbers, (slots, places), width)
    whose candidates and bases, (rows, d, widest) and (rows, d, d)
    arrays of itemsize-byte entries, fit in _BATCH_BYTES each."""
    batch, rows, width = [], 0, d
    for item in items:
        k, w = len(item[1]), item[-1]
        if batch and (rows + k) * d * max(width, w) * itemsize > _BATCH_BYTES:
            yield batch
            batch, rows, width = [], 0, d
        batch.append(item)
        rows, width = rows + k, max(width, w)
    if batch:
        yield batch


def _candidates(batch, d: int, cells: CellSystem, sources):
    """The kernels of a batch of dimension-d groups (_kernels, one SVD per
    stack shape of the batch), and the raising candidates of its
    gradings in the order they are tried.  An item's places name its
    source words, per slot, by their place in sources (pools, place,
    row), which _raise_words reads off the source words' indexes
    (_WordBases): the pools of all of the source words, and per source
    word and grading number the grading's pool there (-1 for dimension
    0) and its row in it.

    Candidate (slot i, source column c) has the source vector's
    generation plus one, a padded one _DEAD.  One stable sort of the
    batch's generations, each slot in columns of its own, orders them:
    slot order, source order within a slot, sorted stably by generation.
    The candidates are gathered a slot and a source pool at a time,
    straight into that order, with the slot's lowering entries as
    _lowering_entries joined them.  Returns the kernels' basis, gens
    and kernel, the (n, width, d) candidates, width the most live
    candidates of any grading, and their (n, width) generations."""
    lens = [len(numbers) for _, numbers, *_ in batch]
    n, width = sum(lens), batch[0][-1]
    numbers = np.concatenate([numbers for _, numbers, *_ in batch])
    groups = [(numbers, slots) for _, numbers, (slots, _), _ in batch]
    entries, tops = _lowering_entries(groups, cells)
    basis, gens, kernel = _kernels(entries, tops, lens, d, cells.dtype)
    pools, place, row = sources
    # per slot: its entries, C^H putting scale[j] s[y[j]] at x[j] of row
    # r[j] for a source vector s, and each grading's row in its source
    # pool; the gradings and the entries sorted by source pool, and where
    # the runs of the pools present start and end.  The slot's
    # candidates take columns spans[i] to spans[i + 1] of the unsorted
    # generations, as many as its widest source pool has.
    found, spans = [], [0]
    for i, got in enumerate(entries):
        scale, r, y, x = got.values, got.r, got.y, got.x
        which = np.repeat([at[i] for _, _, (_, at), _ in batch], lens)
        key, srow = place[which, numbers], row[which, numbers]
        present = sorted(set(key.tolist()) - {-1})
        rows, by = np.argsort(key, kind="stable"), np.argsort(key[r], kind="stable")
        r, y, x, scale = r[by], y[by], x[by], scale[by]
        if scale.dtype.kind == "c":
            # C^H: a cup weight is real, and keeps the +0 imaginary part it
            # took when it was joined with complex entries, so that its
            # products with a source vector keep their signed zeros
            cup = np.repeat([isinstance(slots[i], CupPattern) for _, slots in groups], lens)
            np.conjugate(scale, out=scale, where=~cup[r])
        runs = [
            list(zip(np.searchsorted(on, present), np.searchsorted(on, present, side="right")))
            for on in (key[rows], key[r])
        ]
        found.append(((scale, r, y, x), srow, present, rows, runs))
        spans.append(spans[-1] + max((pools[k].gens.shape[1] for k in present), default=0))
    del entries  # found holds them, sorted by source pool
    cgen = np.full((n, spans[-1]), _DEAD, dtype=np.int64)
    for (_, srow, present, rows, (runs, _)), c0 in zip(found, spans):
        for k, (a, b) in zip(present, runs):
            sg = pools[k].gens[srow[rows[a:b]]]
            cgen[rows[a:b], c0 : c0 + sg.shape[1]] = np.where(sg >= 0, sg + 1, _DEAD)
    # each candidate's place in the order; a padded one goes to the last
    # column, past the width, which is dropped
    order = np.argsort(cgen, axis=1, kind="stable")
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.arange(spans[-1]), axis=1)
    pos[cgen == _DEAD] = width
    cand = np.zeros((n, width + 1, d), dtype=basis.dtype)
    for ((scale, r, y, x), srow, present, _, (_, runs)), c0 in zip(found, spans):
        for k, (a, b) in zip(present, runs):
            # these entries' gradings read source pool k: each scales row
            # y of its source basis into column x of the candidates
            e = slice(a, b)
            at = pos[r[e], c0 : c0 + pools[k].gens.shape[1]]
            cand[r[e, None], at, x[e, None]] = scale[e, None] * pools[k].basis[srow[r[e]], y[e]]
    cgen = np.take_along_axis(cgen, order[:, :width], axis=1)
    return basis, gens, kernel, cand[:, :width], cgen


def _raise_batch(batch, d: int, cells: CellSystem, sources) -> _BasisGroup:
    """The bases of a batch of dimension-d groups (see Decomposer) on the
    cells, in their dtype, from their kernels and raising candidates
    (_candidates) up: one _BasisGroup, a pool of the batch's words, that
    holds the groups' gradings one after another, in batch order.  The
    groups come widest first, so those with a candidate j are a
    prefix."""
    starts = np.cumsum([0] + [len(numbers) for _, numbers, *_ in batch]).tolist()
    widths = [w for *_, w in batch]
    n, width = starts[-1], widths[0]
    basis, gens, kernel, cand, cgen = _candidates(batch, d, cells, sources)
    failed = np.zeros(n, dtype=bool)
    count = kernel.copy()
    # CGS2 against the zero-padded basis, one candidate column at a time,
    # on the rows of the groups that have one
    for j in range(width):
        m = starts[sum(n_cand > j for n_cand in widths)]
        w = cand[:m, j]
        nrm = np.linalg.norm(w, axis=1)
        live = nrm >= LIVE_TOL
        if not live.any():
            continue
        for _ in range(2):
            coef = (w.conj()[:, None, :] @ basis[:m]).conj()
            w = w - (basis[:m] @ coef.swapaxes(1, 2))[:, :, 0]
        res = np.linalg.norm(w, axis=1)
        take = live & (res > RANK_TOL * nrm)
        failed[:m] |= take & (count[:m] == d)
        at = np.flatnonzero(take & (count[:m] < d))
        basis[at, :, count[at]] = w[at] / res[at, None]
        gens[at, count[at]] = cgen[at, j]
        count[at] += 1
    failed |= count != d
    numbers = np.concatenate([numbers for _, numbers, *_ in batch])
    return _BasisGroup(numbers, basis, gens, kernel, count, failed)


def _projector_residuals(basis: np.ndarray, kernel: np.ndarray, count: np.ndarray):
    """Projectors onto the kernel columns (:kernel) and the raised columns
    (kernel:count) of a (k, d, d) stack of bases, and their five residuals
    as (k,) arrays."""
    cols = np.arange(basis.shape[2])
    ker = basis * (cols < kernel[:, None])[:, None, :]
    raised = basis * ((cols >= kernel[:, None]) & (cols < count[:, None]))[:, None, :]
    pe, pr = ker @ _h(ker), raised @ _h(raised)
    residuals = {
        "hermitian": np.maximum(_mnorms(pe - _h(pe)), _mnorms(pr - _h(pr))),
        "idempotent": np.maximum(_mnorms(pe @ pe - pe), _mnorms(pr @ pr - pr)),
        "orthogonal": _mnorms(pe @ pr),
        "completeness": _mnorms(pe + pr - np.eye(basis.shape[1])),
        "essential_raised_overlap": _mnorms(_h(ker) @ raised),
    }
    return pe, pr, residuals


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    """Graded space split into joint kernel plus raising images.

    dim_kernel counts the raw joint kernel (what the essential
    projector projects onto); dim_essential is the level-clamped count.
    raised_dims[k] is the number of independent generation-(k+1)
    vectors.  Completeness means dim_total = dim_kernel + sum(raised).
    """

    grading: PathGrading
    dim_total: int
    dim_kernel: int
    dim_essential: int
    excluded_by_length: bool
    raised_dims: Tuple[int, ...]
    projector_essential: np.ndarray
    projector_raised: np.ndarray
    residual_items: Tuple[Tuple[str, float], ...]

    @property
    def residuals(self) -> Mapping[str, float]:
        return MappingProxyType(dict(self.residual_items))

    @property
    def dim_raised(self) -> int:
        return int(sum(self.raised_dims))


def decompose_space(
    g: GraphSpec,
    cells: CellSystem,
    grading: PathGrading,
    decomposer: Optional[Decomposer] = None,
) -> DecompositionReport:
    """Split one graded space; raises DecompositionError when the kernel
    plus the raising images fail to fill it."""
    dec = decomposer if decomposer is not None else Decomposer(g, cells)
    if dec.g is not g or dec.cells is not cells:
        raise ValueError("decomposer was built for different data")
    basis = dec.basis(grading)
    dim = path_space_dim(g, grading)
    gens = [gen for gen, _ in basis]
    kernel = gens.count(0)
    stack = np.zeros((1, dim, dim), dtype=complex)
    if basis:
        stack[0, :, : len(basis)] = np.column_stack([v for _, v in basis])
    pe, pr, residuals = _projector_residuals(stack, np.array([kernel]), np.array([len(basis)]))
    alpha, beta = grading.type()
    excluded = alpha + beta > g.level
    report = DecompositionReport(
        grading=grading,
        dim_total=dim,
        dim_kernel=kernel,
        dim_essential=0 if excluded else kernel,
        excluded_by_length=excluded,
        raised_dims=tuple(gens.count(k) for k in range(1, max(gens, default=0) + 1)),
        projector_essential=pe[0],
        projector_raised=pr[0],
        residual_items=tuple(sorted((k, float(v[0])) for k, v in residuals.items())),
    )
    found = dec._word(grading.word).find(_grading_number(g, grading))
    if found is not None and found[0].failed[found[1]]:
        raise DecompositionError(
            f"{grading}: kernel {kernel} + raised {len(basis) - kernel} != dim {dim}",
            report,
        )
    return report


def verify_decomposition(g: GraphSpec, cells: CellSystem, max_len: int = 4) -> Mapping[str, float]:
    """Sweep all gradings with |word| <= max_len; max residuals plus
    failure count (a failure is a grading whose accounting broke, and
    its residuals are left out of the maxima).

    The sweep raises the words of one length together, per dimension,
    in batches of bounded size (see Decomposer), a length at a time, and
    evaluates each batch's residuals as soon as it is raised, in chunks
    of _CHECK_BYTES of bases.  It keeps the bases of the two lengths
    that the next length raises from, and none of the last length.  A
    NaN residual, like a non-finite operator entry, raises
    DecompositionError naming the first such grading in _words order;
    a negative max_len raises ValueError."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    dec = Decomposer(g, cells)
    worst = {
        "hermitian": 0.0,
        "idempotent": 0.0,
        "orthogonal": 0.0,
        "completeness": 0.0,
        "essential_raised_overlap": 0.0,
    }
    count = 0
    failures = 0
    nans = []  # (word, group, residual, row, key, grading number) per NaN

    def check(batch, raised: _BasisGroup) -> None:
        nonlocal count, failures
        count += len(raised.numbers)
        failures += int(raised.failed.sum())
        ends = np.cumsum([len(numbers) for _, numbers, *_ in batch])
        d = raised.basis.shape[1]
        step = max(1, _CHECK_BYTES // (raised.basis.itemsize * d * d))
        for r0 in range(0, len(raised.numbers), step):
            rows = slice(r0, r0 + step)
            ok = ~raised.failed[rows]
            if not ok.any():
                continue
            _, _, residuals = _projector_residuals(
                raised.basis[rows], raised.kernel[rows], raised.count[rows]
            )
            for i, (key, values) in enumerate(residuals.items()):
                for r in (r0 + np.flatnonzero(ok & np.isnan(values))).tolist():
                    b = int(np.searchsorted(ends, r, side="right"))
                    row = r - (int(ends[b - 1]) if b else 0)
                    (w, k), numbers = batch[b][:2]
                    nans.append((w, k, i, row, key, int(numbers[row])))
                worst[key] = max(worst[key], float(values[ok].max()))

    for n, level in itertools.groupby(_words(max_len), len):
        words = list(level)
        dec._raise_words(words, check, keep=n < max_len)
        for word in [w for w in dec._memo if len(w) < n - 1]:
            del dec._memo[word]
        if nans:
            w, _, _, _, key, number = min(nans)
            raise DecompositionError(f"{_grading_at(g, words[w], number)}: {key} residual is NaN")
    worst["gradings"] = float(count)
    worst["failures"] = float(failures)
    worst["max_len"] = float(max_len)
    return worst


# ----------------------------------------------------------------------
# constructive factorization


@dataclass(frozen=True)
class PeelStep:
    """One insertion undone: kind CREATION removes the inserted vertex of
    a like-tag pair, kind CAP removes a mixed-tag return.  weight is the
    coefficient the re-applied operator puts on the peeled branch."""

    kind: str
    position: int
    vertex: str
    first_tag: Optional[EdgeTag]
    weight: complex


@dataclass(frozen=True)
class SuffixSegment:
    """Essential suffix split off by concatenation."""

    path: ElementaryPath


@dataclass(frozen=True)
class FactorizationRecord:
    """original = (peels applied to core), concatenated with the stripped
    suffix segments; events are in discovery order (outermost first)."""

    original: ElementaryPath
    core: ElementaryPath
    events: Tuple[Union[PeelStep, SuffixSegment], ...]

    @property
    def peels(self) -> Tuple[PeelStep, ...]:
        return tuple(e for e in self.events if isinstance(e, PeelStep))

    @property
    def segments(self) -> Tuple[SuffixSegment, ...]:
        return tuple(e for e in self.events if isinstance(e, SuffixSegment))


def _live_slots(g: GraphSpec, cells: CellSystem, p: ElementaryPath):
    """Slots where an annihilation or cup acts nontrivially on p, i.e.
    exactly the witnesses against essentiality of an elementary path."""
    out = []
    values = cells.values
    for i in range(1, p.length):
        t1, t2 = p.word[i - 1], p.word[i]
        a, mid, c = p.vertices[i - 1], p.vertices[i], p.vertices[i + 1]
        if t1 == t2:
            tri = OrientedTriangle((a, mid, c)) if t1 is EdgeTag.SIGMA else OrientedTriangle((a, c, mid))
            val = values.get(tri)
            if val is not None and abs(val) > LIVE_TOL:
                out.append((i, "CREATION"))
        elif a == c:
            out.append((i, "CAP"))
    return out


def is_structurally_essential(g: GraphSpec, cells: CellSystem, p: ElementaryPath) -> bool:
    """True when no operator moves p at all (single elementary paths are
    essential exactly in this structural case)."""
    return not _live_slots(g, cells, p)


def factorize_path(g: GraphSpec, cells: CellSystem, p: ElementaryPath) -> FactorizationRecord:
    """Constructive split of p into raising operations on an essential
    core and essential suffix concatenations."""
    events = []
    current = p
    while True:
        live = _live_slots(g, cells, current)
        if not live:
            break
        k = live[-1][0]
        n = current.length
        if k + 1 < n:
            suffix = ElementaryPath(current.vertices[k + 1 :], current.word[k + 1 :])
            events.append(SuffixSegment(suffix))
            current = ElementaryPath(current.vertices[: k + 2], current.word[: k + 1])
            live = _live_slots(g, cells, current)
        i, kind = live[0]
        if kind == "CREATION":
            core = ElementaryPath(
                current.vertices[:i] + current.vertices[i + 1 :],
                collapsed_grading(current.grading, i).word,
            )
            first_tag = None
            raising = creation(g, cells, core.grading, i).matrix
        else:
            core = ElementaryPath(
                current.vertices[:i] + current.vertices[i + 2 :],
                cup_grading(current.grading, i).word,
            )
            first_tag = current.word[i - 1]
            # the cap block is the cup's conjugate transpose and cup entries
            # are real; the plain transpose keeps their imaginary zeros +0.0
            raising = cup(g, cells, current.grading, i).matrix.T
        row = _basis_index(g, current.grading)[current]
        col = _basis_index(g, core.grading)[core]
        events.append(
            PeelStep(
                kind=kind,
                position=i,
                vertex=current.vertices[i],
                first_tag=first_tag,
                weight=complex(raising[row, col]),
            )
        )
        current = core
    return FactorizationRecord(original=p, core=current, events=tuple(events))


def _concat_vector(g: GraphSpec, vec: PathVector, seg: ElementaryPath) -> PathVector:
    grading = PathGrading(vec.grading.start, seg.end, vec.grading.word + seg.word)
    out = PathVector.zero(g, grading)
    basis = enumerate_paths(g, vec.grading)
    idx = _basis_index(g, grading)
    for coeff, k in vec.support(tol=0.0):
        q = concatenate(basis[k], seg)
        if q is not None:
            out.coefficients[idx[q]] += coeff
    return out


def replay_record(g: GraphSpec, cells: CellSystem, record: FactorizationRecord) -> PathVector:
    """Apply the recorded raisings to the core (innermost first) and
    concatenate the stripped suffixes back on; the result's support
    contains the original path."""
    vec = PathVector.from_path(g, record.core)
    for ev in reversed(record.events):
        if isinstance(ev, PeelStep):
            if ev.kind == "CREATION":
                op = creation(g, cells, vec.grading, ev.position)
            else:
                op = cap_oriented(g, cells, vec.grading, ev.position, ev.first_tag)
            vec = op.apply(vec)
        else:
            vec = _concat_vector(g, vec, ev.path)
    return vec

"""Essential paths, the graded decomposition of path spaces, and the
constructive factorization of elementary paths.

A path vector is essential when every annihilation and every cup
applicable to its grading kills it; per grading that is the joint
numerical kernel of the stacked operator blocks.  The kernels of all
gradings of one word are found together and kept on the cell system
(_word_kernels): essential_basis is one grading's slice of them,
essential_dims reads their counts, and the decomposition grows its
bases from them.  Types with
alpha + beta beyond the graph level are excluded from the essential
space by the length clause even where the joint kernel is nonzero;
the raw kernel dimension is still reported (and is what the graded
decomposition is anchored on, since raising preserves orthogonality
to kernels, not to their level-clamped subsets).

The decomposition writes each graded space as

    P(W) = ker(W)  +  sum over slots of op_i(P(source_i(W)))

where op_i is the creation expanding a like-tag pair (source = the
collapsed word) or the cap re-inserting a mixed-tag return (source =
the word with the pair removed), recursively.  Generation g vectors
are images of length-g raising chains out of some raw kernel;
independence is decided by rank growth during incremental
orthonormalization.  The Decomposer builds the bases one word at a
time, sources first: a word's gradings of equal dimension form one
group, and the group's kernel SVD, raising products and Gram-Schmidt
passes are batched over it, each grading with its own rank decisions.
verify_decomposition sweeps words the same way.

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
    _collapsed_word,
    _cup_word,
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
# gradings of nonzero dimension d form one group.  Per slot, the group's
# lowering blocks are one zero-padded stack scattered from the graph's
# pattern (_Pattern.stacked); the kernels come from one batched SVD of
# the stacks and are kept on the cell system (_word_kernels).  Zero rows
# and columns from the padding change no singular value.


def _ranks(svals: np.ndarray) -> np.ndarray:
    """Numerical rank behind each row of descending singular values: the
    number above NULL_TOL times the row's largest, so 0 when that one is
    0 or the row is empty.  Every kernel decision goes through here."""
    if svals.shape[-1] == 0:
        return np.zeros(svals.shape[:-1], dtype=np.int64)
    return np.count_nonzero(svals > NULL_TOL * svals[..., :1], axis=-1)


@dataclass(frozen=True, eq=False)
class _BasisGroup:
    """Bases of the gradings ``numbers`` (ascending) of one word, all of
    dimension d.

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
    row_of[s] of groups[group_of[s]], and group_of[s] is -1 when its
    dimension is 0."""

    groups: Tuple[_BasisGroup, ...]
    group_of: np.ndarray
    row_of: np.ndarray

    def find(self, s: int):
        """(group, row) of grading number s, or None for dimension 0."""
        k = self.group_of[s]
        return None if k < 0 else (self.groups[k], int(self.row_of[s]))

    def stacked(self, numbers: np.ndarray, r: int):
        """The (d, d) bases of the gradings ``numbers``, zero-padded to
        one (len, r, r) stack, with their generations (-1 on padding)."""
        basis = np.zeros((len(numbers), r, r), dtype=complex)
        gens = np.full((len(numbers), r), -1, dtype=np.int64)
        which = self.group_of[numbers]
        for k in sorted(set(which[which >= 0].tolist())):
            at = np.flatnonzero(which == k)
            grp, rows = self.groups[k], self.row_of[numbers[at]]
            d = grp.basis.shape[1]
            basis[at, :d, :d] = grp.basis[rows]
            gens[at, :d] = grp.gens[rows]
        return basis, gens


def _h(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def _lowering(g: GraphSpec, cells: CellSystem, word: Word):
    """Per slot of the word: its lowering pattern (an annihilation on a
    like-tag pair, a cup on a mixed one), the pattern's entries on the
    cells, and the source word that the adjoint raises from."""
    slots = []
    for i in range(1, len(word)):
        if word[i - 1] is word[i]:
            p = annihilation_pattern(g, word, i)
            slots.append((p, p.values(cells.vector), _collapsed_word(word, i)))
        else:
            p = cup_pattern(g, word, i)
            slots.append((p, p.weight, _cup_word(word, i)))
    return slots


@cached_on
def _word_kernels(cells: CellSystem, g: GraphSpec, word: Word) -> _WordBases:
    """The generation-0 bases of every grading of a word on g: the raw
    joint kernels, kept on the cell system in read-only arrays.  A
    non-finite lowering entry raises DecompositionError naming the first
    grading of its group that has one."""
    slots = _lowering(g, cells, word)
    group_of = np.full(len(g.vertices) ** 2, -1, dtype=np.int64)
    row_of = np.zeros(len(g.vertices) ** 2, dtype=np.int64)
    groups = []
    for d, numbers in _dimension_groups(g, word):
        group_of[numbers] = len(groups)
        row_of[numbers] = np.arange(len(numbers))
        rank = np.zeros(len(numbers), dtype=np.int64)
        vh = np.broadcast_to(np.eye(d, dtype=complex), (len(numbers), d, d))
        if slots:
            stack = np.concatenate([p.stacked(numbers, values) for p, values, _ in slots], axis=1)
            finite = np.isfinite(stack).all(axis=(1, 2))
            if not finite.all():
                grading = _grading_at(g, word, int(numbers[finite.argmin()]))
                raise DecompositionError(f"{grading}: non-finite operator entries")
            _, svals, vh = np.linalg.svd(stack, full_matrices=stack.shape[1] < d)
            rank = _ranks(svals)
        kernel = d - rank
        # column j is right singular vector rank + j, zeroed past the kernel
        cols = np.arange(kernel.max())
        basis = np.take_along_axis(_h(vh), ((cols + rank[:, None]) % d)[:, None, :], axis=2)
        basis *= (cols < kernel[:, None])[:, None, :]
        gens = np.where(cols < kernel[:, None], 0, -1)
        failed = np.zeros(len(numbers), dtype=bool)
        groups.append(_BasisGroup(numbers, basis, gens, kernel, kernel, failed))
        for a in (numbers, basis, gens, kernel, failed):
            a.setflags(write=False)
    group_of.setflags(write=False)
    row_of.setflags(write=False)
    return _WordBases(tuple(groups), group_of, row_of)


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
        null = found[0].basis[found[1], :, :raw_dim].copy()  # the kept kernels are read-only
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


def essential_dims(g: GraphSpec, cells: CellSystem, tp: Tuple[int, int]) -> EssentialDimReport:
    """Per word of the type, the kernel counts of its gradings
    (_word_kernels) against F_(alpha,beta); a non-finite operator entry
    raises DecompositionError naming its grading.  A negative type
    component or a type beyond the level raises GraphError first."""
    alpha, beta = int(tp[0]), int(tp[1])
    if _type_bound((alpha, beta)) > g.level:
        raise GraphError(
            f"type {tp} exceeds the level {g.level} of {g.name!r}; essential "
            "spaces there are excluded by the length clause"
        )
    ids = g.vertex_ids()
    n = len(ids)
    per_word = {}
    total = np.zeros((n, n), dtype=np.int64)
    for word in words_of_type(alpha, beta):
        m = np.zeros(n * n, dtype=np.int64)  # by grading number
        for grp in _word_kernels(cells, g, word).groups:
            m[grp.numbers] = grp.kernel
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
# A group's bases start from a copy of its kernels.  The candidates come
# from one batched product of each slot's raising stack (the lowering
# stack's conjugate transpose) with the source word's padded bases, and
# the Gram-Schmidt passes run over the group with one accept mask per
# grading.  The padding changes no candidate or projection.

_DEAD = np.iinfo(np.int64).max  # generation of a padded candidate column


class Decomposer:
    """Memoized construction of generation-labelled orthonormal bases.

    basis(grading) returns ((generation, column-vector), ...) spanning
    the graded space: generation 0 is the raw joint kernel, generation
    g >= 1 the independent raising images of generation g-1 vectors of
    the source gradings.  The raising images of one grading are tried in
    slot order, the source basis in its order within a slot, then sorted
    stably by generation.

    The bases are built one word at a time, for all of its gradings, from
    the word's kernels (_word_kernels), and kept per word; a word's
    sources (its collapsed and cup words) are shorter and are built
    first.  Share one instance across gradings to reuse them.
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
            (int(gen), grp.basis[r, :, j])
            for j, gen in enumerate(grp.gens[r, : grp.count[r]].tolist())
        )

    def _word(self, word: Word) -> _WordBases:
        out = self._memo.get(word)
        if out is not None:
            return out
        kernels = _word_kernels(self.cells, self.g, word)
        # per slot: the lowering pattern, its entries and the source word's bases
        slots = [(p, v, self._word(src)) for p, v, src in _lowering(self.g, self.cells, word)]
        groups = tuple(_raise_group(grp, slots) for grp in kernels.groups)
        out = self._memo[word] = _WordBases(groups, kernels.group_of, kernels.row_of)
        return out


def _raise_group(kernels: _BasisGroup, slots) -> _BasisGroup:
    """The bases of one group of gradings (see Decomposer), grown from a
    copy of their generation-0 bases."""
    numbers, (k, d, m) = kernels.numbers, kernels.basis.shape
    basis = np.zeros((k, d, d), dtype=complex)
    basis[:, :, :m] = kernels.basis
    gens = np.full((k, d), -1, dtype=np.int64)
    gens[:, :m] = kernels.gens
    count = kernels.count.copy()
    failed = np.zeros(k, dtype=bool)

    # candidates: each slot's raising stack times its source bases, in
    # slot order, sorted stably by generation; padded columns are zero,
    # get generation _DEAD and sort last
    cands, cgens = [], []
    for p, values, src in slots:
        low = p.stacked(numbers, values)
        sbasis, sgens = src.stacked(numbers, low.shape[1])
        cands.append(_h(low) @ sbasis)
        cgens.append(np.where(sgens >= 0, sgens + 1, _DEAD))
    if cands:
        cgen = np.concatenate(cgens, axis=1)
        order = np.argsort(cgen, axis=1, kind="stable")
        cgen = np.take_along_axis(cgen, order, axis=1)
        cand = np.take_along_axis(np.concatenate(cands, axis=2), order[:, None, :], axis=2)
        width = int((cgen != _DEAD).sum(axis=1).max(initial=0))
        # CGS2 against the zero-padded basis, one candidate column at a time
        for j in range(width):
            w = cand[:, :, j]
            nrm = np.linalg.norm(w, axis=1)
            live = nrm >= LIVE_TOL
            if not live.any():
                continue
            for _ in range(2):
                coef = (w.conj()[:, None, :] @ basis).conj()
                w = w - (basis @ coef.swapaxes(1, 2))[:, :, 0]
            res = np.linalg.norm(w, axis=1)
            take = live & (res > RANK_TOL * nrm)
            failed |= take & (count == d)
            at = np.flatnonzero(take & (count < d))
            basis[at, :, count[at]] = w[at] / res[at, None]
            gens[at, count[at]] = cgen[at, j]
            count[at] += 1
    return _BasisGroup(numbers, basis, gens, kernels.kernel, count, failed | (count != d))


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

    The sweep goes word by word, in _words order, and evaluates the
    residuals of a word's group of gradings of one dimension as one
    batch (see Decomposer).  A NaN residual, like a non-finite operator
    entry, raises DecompositionError naming the first such grading; a
    negative max_len raises ValueError."""
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
    for word in _words(max_len):
        for grp in dec._word(word).groups:
            count += len(grp.numbers)
            failures += int(grp.failed.sum())
            ok = ~grp.failed
            if not ok.any():
                continue
            _, _, residuals = _projector_residuals(grp.basis, grp.kernel, grp.count)
            for key, values in residuals.items():
                nan = ok & np.isnan(values)
                if nan.any():
                    grading = _grading_at(g, word, int(grp.numbers[nan.argmax()]))
                    raise DecompositionError(f"{grading}: {key} residual is NaN")
                worst[key] = max(worst[key], float(values[ok].max()))
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

"""Essential paths, the graded decomposition of path spaces, and the
constructive factorization of elementary paths.

A path vector is essential when every annihilation and every cup
applicable to its grading kills it; per grading that is the joint
numerical kernel of the stacked operator blocks.  Types with
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
orthonormalization.

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
from .fusion import fusion_matrix
from .graphs import GraphError, GraphSpec
from .operators import (
    LinearOperator,
    _mnorm,
    annihilation,
    cap_oriented,
    collapsed_grading,
    creation,
    cup,
    cup_grading,
)
from .paths import (
    EdgeTag,
    ElementaryPath,
    PathGrading,
    PathVector,
    _basis_index,
    concatenate,
    enumerate_paths,
    iter_gradings,
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


def kernel_operators(
    g: GraphSpec, cells: CellSystem, grading: PathGrading
) -> Tuple[LinearOperator, ...]:
    """The operators whose joint kernel defines essentiality on this
    grading: an annihilation per like-tag slot, a cup per mixed slot."""
    ops = []
    w = grading.word
    for i in range(1, grading.length):
        if w[i - 1] == w[i]:
            ops.append(annihilation(g, cells, grading, i))
        else:
            ops.append(cup(g, cells, grading, i))
    return tuple(ops)


def _null_space(matrix: np.ndarray):
    """Orthonormal basis (columns) of the numerical null space of matrix,
    plus its singular values.  The rank counts singular values above
    NULL_TOL times the largest one."""
    _, svals, vh = np.linalg.svd(matrix)
    smax = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > NULL_TOL * smax)) if smax > 0 else 0
    return vh[rank:].conj().T, svals


def raw_kernel(g: GraphSpec, cells: CellSystem, grading: PathGrading):
    """Orthonormal basis (columns) of the joint kernel, ignoring the level
    clause, plus the singular values backing the rank decision."""
    dim = path_space_dim(g, grading)
    if dim == 0:
        return np.zeros((0, 0), dtype=complex), ()
    ops = kernel_operators(g, cells, grading)
    if not ops:
        return np.eye(dim, dtype=complex), ()
    null, svals = _null_space(np.vstack([op.matrix for op in ops]))
    return null, tuple(float(s) for s in svals)


@dataclass(frozen=True)
class EssentialBasis:
    """Orthonormal essential vectors of one grading.

    dim is the essential dimension after the level clause; raw_dim is
    the joint-kernel dimension regardless of it.  singular_values back
    the rank decision (empty when no operator applies).
    """

    grading: PathGrading
    vectors: Tuple[PathVector, ...]
    dim: int
    raw_dim: int
    excluded_by_length: bool
    singular_values: Tuple[float, ...]


def essential_basis(g: GraphSpec, cells: CellSystem, grading: PathGrading) -> EssentialBasis:
    null, svals = raw_kernel(g, cells, grading)
    raw_dim = null.shape[1]
    alpha, beta = grading.type()
    excluded = alpha + beta > g.level
    if excluded:
        vectors: Tuple[PathVector, ...] = ()
    else:
        vectors = tuple(PathVector(grading, null[:, j]) for j in range(raw_dim))
    return EssentialBasis(
        grading=grading,
        vectors=vectors,
        dim=len(vectors),
        raw_dim=raw_dim,
        excluded_by_length=excluded,
        singular_values=svals,
    )


def words_of_type(alpha: int, beta: int) -> Tuple[Tuple[EdgeTag, ...], ...]:
    """All distinct tag orderings with the given sigma/sigma-bar counts,
    in lexicographic word order."""
    letters = (EdgeTag.SIGMA,) * alpha + (EdgeTag.SIGMA_BAR,) * beta
    return tuple(sorted(set(itertools.permutations(letters)), key=lambda w: word_str(w)))


@dataclass(frozen=True, eq=False)
class EssentialDimReport:
    """Essential dimensions of one type, split by word, against fusion.

    Every word class of the type carries its own copy of the essential
    space, so the comparison is per word: each word's dimension matrix
    against F_(alpha,beta).  total sums the words (the count a flat
    listing of essential paths of the type produces).
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
    alpha, beta = int(tp[0]), int(tp[1])
    if alpha + beta > g.level:
        raise GraphError(
            f"type {tp} exceeds the level {g.level} of {g.name!r}; essential "
            "spaces there are excluded by the length clause"
        )
    ids = g.vertex_ids()
    n = len(ids)
    per_word = {}
    total = np.zeros((n, n), dtype=np.int64)
    for word in words_of_type(alpha, beta):
        m = np.zeros((n, n), dtype=np.int64)
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                m[i, j] = essential_basis(g, cells, PathGrading(a, b, word)).dim
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


class Decomposer:
    """Memoized construction of generation-labelled orthonormal bases.

    basis(grading) returns ((generation, column-vector), ...) spanning
    the graded space: generation 0 is the raw joint kernel, generation
    g >= 1 the independent raising images of generation g-1 vectors of
    the source gradings.  Share one instance across gradings to reuse
    the recursion.
    """

    def __init__(self, g: GraphSpec, cells: CellSystem):
        self.g = g
        self.cells = cells
        self._memo: dict = {}

    def sources(self, grading: PathGrading):
        """(slot, source grading, raising operator) per slot of the word.
        Each raising operator is the adjoint of the lowering one there: a
        creation out of the collapsed word, or a cap out of the word with
        the mixed pair removed."""
        ops = kernel_operators(self.g, self.cells, grading)
        return [(op.position, op.codomain, op.adjoint()) for op in ops]

    def basis(self, grading: PathGrading):
        if grading in self._memo:
            return self._memo[grading]
        dim = path_space_dim(self.g, grading)
        if dim == 0:
            self._memo[grading] = ()
            return ()
        null, _ = raw_kernel(self.g, self.cells, grading)
        accepted = [(0, null[:, j]) for j in range(null.shape[1])]
        candidates = []
        for _, src, op in self.sources(grading):
            for gen, v in self.basis(src):
                candidates.append((gen + 1, op.matrix @ v))
        candidates.sort(key=lambda gv: gv[0])
        for gen, w in candidates:
            nrm = np.linalg.norm(w)
            if nrm < LIVE_TOL:
                continue
            if accepted:
                q = np.column_stack([v for _, v in accepted])
                w = w - q @ (q.conj().T @ w)
                w = w - q @ (q.conj().T @ w)
            res = np.linalg.norm(w)
            if res > RANK_TOL * nrm:
                accepted.append((gen, w / res))
        out = tuple(accepted)
        self._memo[grading] = out
        return out


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
    kernel = [v for gen, v in basis if gen == 0]
    raised = [(gen, v) for gen, v in basis if gen > 0]
    gens = tuple(
        sum(1 for gen, _ in raised if gen == k)
        for k in range(1, max((gen for gen, _ in raised), default=0) + 1)
    )
    pe = (
        np.column_stack(kernel) @ np.column_stack(kernel).conj().T
        if kernel
        else np.zeros((dim, dim), dtype=complex)
    )
    qr = np.column_stack([v for _, v in raised]) if raised else np.zeros((dim, 0), dtype=complex)
    pr = qr @ qr.conj().T
    eye = np.eye(dim)
    overlap = 0.0
    if kernel and raised:
        overlap = _mnorm(np.column_stack(kernel).conj().T @ qr)
    residuals = {
        "hermitian": max(_mnorm(pe - pe.conj().T), _mnorm(pr - pr.conj().T)),
        "idempotent": max(_mnorm(pe @ pe - pe), _mnorm(pr @ pr - pr)),
        "orthogonal": _mnorm(pe @ pr),
        "completeness": _mnorm(pe + pr - eye),
        "essential_raised_overlap": overlap,
    }
    alpha, beta = grading.type()
    excluded = alpha + beta > g.level
    report = DecompositionReport(
        grading=grading,
        dim_total=dim,
        dim_kernel=len(kernel),
        dim_essential=0 if excluded else len(kernel),
        excluded_by_length=excluded,
        raised_dims=gens,
        projector_essential=pe,
        projector_raised=pr,
        residual_items=tuple(sorted((k, float(v)) for k, v in residuals.items())),
    )
    if len(kernel) + len(raised) != dim:
        raise DecompositionError(
            f"{grading}: kernel {len(kernel)} + raised {len(raised)} != dim {dim}",
            report,
        )
    return report


def verify_decomposition(g: GraphSpec, cells: CellSystem, max_len: int = 4) -> Mapping[str, float]:
    """Sweep all gradings with |word| <= max_len; max residuals plus
    failure count (a failure is a grading whose accounting broke)."""
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
    for grading in iter_gradings(g, max_len):
        if path_space_dim(g, grading) == 0:
            continue
        count += 1
        try:
            rep = decompose_space(g, cells, grading, dec)
        except DecompositionError:
            failures += 1
            continue
        for k, v in rep.residual_items:
            worst[k] = max(worst[k], v)
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

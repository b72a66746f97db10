"""Reference builders the library is checked against.

Loop-built annihilation blocks: the library fills each block from the
cell vector through a pattern kept on the graph; the loop builder looks
up every entry's cell by its triangle, one basis path at a time.

Loop-built cup blocks: the library scatters each cup block from a
pattern kept on the graph, found on the word's path array by index
arithmetic; the loop builder contracts every basis path with a return
at the slot, one path at a time.

Loop-built creation and cap blocks: the library builds creation as
annihilation^H and cap as cup^H, so comparing those pairs with each
other only checks a conjugate transpose.  These builders fill every
entry of creation and cap directly from the cell weights and the
Perron-Frobenius data, one basis path at a time, so comparing the
library with them checks the weights themselves.

A depth-first walker for bases: the library grows each basis from the
bases of its prefix gradings; the walker completes every walk from the
start vertex along the whole word and keeps those that end right.

Relation and adjointness sweeps per grading: the library sweeps words,
with the blocks of all gradings of one dimension stacked and the
relations evaluated in batches; these sweeps visit one grading at a
time, build each block with the library's per-grading builders, and
take the maxima in that visiting order.

Joint kernels per grading: the library finds the kernels of all
gradings of one word and dimension together, with one batched SVD of
zero-padded stacks; raw_kernel stacks one grading's annihilation and
cup blocks, built by the per-grading builders, and takes one SVD.

A decomposition per grading: the library builds the generation-labelled
bases of all words of one length together, with a batched kernel SVD
per word and dimension, and gathered raising candidates and
Gram-Schmidt passes batched per dimension; GradingDecomposer builds
one grading at a time, recursing into its source gradings, and
orthonormalizes one candidate at a time.
grading_decompose_space and grading_verify_decomposition compute the
projector residuals from its bases one grading at a time.
"""

import math

import numpy as np

from su3paths import (
    EdgeTag,
    ElementaryPath,
    LinearOperator,
    PathGrading,
    cap_oriented,
    creation,
    enumerate_paths,
    iter_gradings,
    path_space_dim,
    spectral_data,
    tl_u,
)
from su3paths.cells import OrientedTriangle, max_sum_rule_residual
from su3paths.essential import (
    LIVE_TOL,
    RANK_TOL,
    DecompositionError,
    DecompositionReport,
    _ranks,
)
from su3paths.operators import (
    ANNIHILATION,
    CAP,
    CREATION,
    CUP,
    TLReport,
    _above,
    _check_slot,
    _mnorm,
    annihilation,
    cap_grading,
    collapsed_grading,
    cup,
    cup_grading,
    expanded_grading,
)
from su3paths.paths import _basis_index


def loop_annihilation(g, cells, grading, i) -> LinearOperator:
    """C_i: contract the pair at positions (i, i+1).

    sigma-sigma pairs contract through the triangle v_{i-1} v_i v_{i+1}
    (when its closing arrow exists) with weight T/sqrt(mu mu); the
    mirrored pair uses the conjugate cell; mixed pairs give the zero
    block.
    """
    n = grading.length
    _check_slot(i, 1, n - 1, "annihilation")
    codomain = collapsed_grading(grading, i)
    dom = enumerate_paths(g, grading)
    idx = _basis_index(g, codomain)
    mu = spectral_data(g).mu
    values = cells.values
    m = np.zeros((len(idx), len(dom)), dtype=complex)
    t1, t2 = grading.word[i - 1], grading.word[i]
    if t1 == t2:
        for col, p in enumerate(dom):
            a, mid, c = p.vertices[i - 1], p.vertices[i], p.vertices[i + 1]
            if t1 is EdgeTag.SIGMA:
                val = values.get(OrientedTriangle((a, mid, c)))
            else:
                val = values.get(OrientedTriangle((a, c, mid)))
                val = None if val is None else np.conj(val)
            if val is None or val == 0:
                continue
            q = ElementaryPath(p.vertices[:i] + p.vertices[i + 1 :], codomain.word)
            m[idx[q], col] += val / np.sqrt(mu[a] * mu[c])
    return LinearOperator(grading, codomain, m, ANNIHILATION, i)


def annihilation_deviation(g, cells, max_len: int) -> float:
    """Compare every annihilation block on the gradings of nonzero
    dimension with |word| <= max_len with its loop-built counterpart.

    Asserts that domain, codomain, kind and position agree and returns
    the largest entry difference.
    """
    worst = 0.0
    for grading in iter_gradings(g, max_len):
        if path_space_dim(g, grading) == 0:
            continue
        for i in range(1, grading.length):
            lib = annihilation(g, cells, grading, i)
            worst = max(worst, _deviation(lib, loop_annihilation(g, cells, grading, i)))
    return worst


def loop_cup(g, cells, grading, i) -> LinearOperator:
    """Contract a mixed-tag return v_{i-1} b v_{i-1} at positions (i, i+1),
    weight sqrt(mu(b)/mu(v_{i-1})).  Like-tag pairs give the zero block."""
    n = grading.length
    _check_slot(i, 1, n - 1, "cup")
    codomain = cup_grading(grading, i)
    dom = enumerate_paths(g, grading)
    idx = _basis_index(g, codomain)
    mu = spectral_data(g).mu
    m = np.zeros((len(idx), len(dom)), dtype=complex)
    t1, t2 = grading.word[i - 1], grading.word[i]
    if t1 != t2:
        for col, p in enumerate(dom):
            if p.vertices[i - 1] != p.vertices[i + 1]:
                continue
            q = ElementaryPath(p.vertices[: i] + p.vertices[i + 2 :], codomain.word)
            m[idx[q], col] += np.sqrt(mu[p.vertices[i]] / mu[p.vertices[i - 1]])
    return LinearOperator(grading, codomain, m, CUP, i)


def cup_mismatches(g, cells, max_len: int) -> list:
    """Every cup block verify_tl stacks up to max_len (the cup closing
    each cap insertion on the gradings of nonzero dimension), built one
    grading at a time by cup, that is not bit for bit the loop-built
    block, as (domain, position) pairs.

    Asserts that domain, codomain, kind and position agree."""
    bad = []
    for grading in iter_gradings(g, max_len):
        if path_space_dim(g, grading) == 0:
            continue
        for i in range(1, grading.length + 2):
            for tag in (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR):
                domain = cap_grading(grading, i, tag)
                lib, ref = cup(g, cells, domain, i), loop_cup(g, cells, domain, i)
                _deviation(lib, ref)
                if lib.matrix.tobytes() != ref.matrix.tobytes():
                    bad.append((str(domain), i))
    return bad


def loop_creation(g, cells, grading, i) -> LinearOperator:
    """C+_i: expand the step at position i into a like pair through every
    completing triangle."""
    n = grading.length
    _check_slot(i, 1, n, "creation")
    codomain = expanded_grading(grading, i)
    dom = enumerate_paths(g, grading)
    idx = _basis_index(g, codomain)
    mu = spectral_data(g).mu
    values = cells.values
    m = np.zeros((len(idx), len(dom)), dtype=complex)
    t = grading.word[i - 1]
    pair = codomain.word[i - 1]
    for col, p in enumerate(dom):
        a, c = p.vertices[i - 1], p.vertices[i]
        scale = np.sqrt(mu[a] * mu[c])
        if t is EdgeTag.SIGMA_BAR:
            # new pair is sigma-sigma through m: arrows a->m, m->c
            for mid in g.out_neighbors(a):
                if not g.has_edge(mid, c):
                    continue
                val = values.get(OrientedTriangle((a, mid, c)))
                if val is None or val == 0:
                    continue
                q = ElementaryPath(
                    p.vertices[:i] + (mid,) + p.vertices[i:],
                    p.word[: i - 1] + (pair, pair) + p.word[i:],
                )
                m[idx[q], col] += np.conj(val) / scale
        else:
            # new pair is barred: arrows m->a, c->m
            for mid in g.in_neighbors(a):
                if not g.has_edge(c, mid):
                    continue
                val = values.get(OrientedTriangle((a, c, mid)))
                if val is None or val == 0:
                    continue
                q = ElementaryPath(
                    p.vertices[:i] + (mid,) + p.vertices[i:],
                    p.word[: i - 1] + (pair, pair) + p.word[i:],
                )
                m[idx[q], col] += val / scale
    return LinearOperator(grading, codomain, m, CREATION, i)


def loop_cap_oriented(g, cells, grading, i, first_tag) -> LinearOperator:
    """Insert a return v_{i-1} b v_{i-1} before position i, one term per
    neighbor b, weight sqrt(mu(b)/mu(v_{i-1})); first_tag fixes the
    insertion order and hence the codomain word."""
    n = grading.length
    _check_slot(i, 1, n + 1, "cap")
    first_tag = EdgeTag(first_tag)
    codomain = cap_grading(grading, i, first_tag)
    dom = enumerate_paths(g, grading)
    idx = _basis_index(g, codomain)
    mu = spectral_data(g).mu
    m = np.zeros((len(idx), len(dom)), dtype=complex)
    for col, p in enumerate(dom):
        a = p.vertices[i - 1]
        nbrs = g.out_neighbors(a) if first_tag is EdgeTag.SIGMA else g.in_neighbors(a)
        for b in nbrs:
            q = ElementaryPath(p.vertices[:i] + (b, a) + p.vertices[i:], codomain.word)
            m[idx[q], col] += np.sqrt(mu[b] / mu[a])
    return LinearOperator(grading, codomain, m, CAP, i)


def oracle_deviation(g, cells, max_len: int) -> float:
    """Compare every creation and cap block on the gradings of nonzero
    dimension with |word| < max_len (so creation reaches words of length
    max_len, as in verify_adjointness) with its loop-built counterpart.

    Asserts that domain, codomain, kind and position agree and returns
    the largest entry difference.
    """
    worst = 0.0
    for grading in iter_gradings(g, max_len - 1):
        if path_space_dim(g, grading) == 0:
            continue
        n = grading.length
        for i in range(1, n + 1):
            lib = creation(g, cells, grading, i)
            worst = max(worst, _deviation(lib, loop_creation(g, cells, grading, i)))
        for i in range(1, n + 2):
            for tag in (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR):
                lib = cap_oriented(g, cells, grading, i, tag)
                worst = max(worst, _deviation(lib, loop_cap_oriented(g, cells, grading, i, tag)))
    return worst


def _deviation(lib: LinearOperator, ref: LinearOperator) -> float:
    assert (lib.domain, lib.codomain, lib.kind, lib.position) == (
        ref.domain,
        ref.codomain,
        ref.kind,
        ref.position,
    )
    return _mnorm(lib.matrix - ref.matrix)


def walk_paths(g, grading: PathGrading):
    """Basis of the grading by depth-first walk, in lexicographic order."""
    out = []
    _extend_walks(g, grading, [grading.start], out)
    return tuple(out)


def _extend_walks(g, grading: PathGrading, prefix: list, out: list) -> None:
    i = len(prefix) - 1
    if i == len(grading.word):
        if prefix[-1] == grading.end:
            out.append(ElementaryPath(tuple(prefix), grading.word))
        return
    tag = grading.word[i]
    nxt = g.out_neighbors(prefix[-1]) if tag is EdgeTag.SIGMA else g.in_neighbors(prefix[-1])
    for v in nxt:  # neighbor maps are pre-sorted -> lexicographic output
        prefix.append(v)
        _extend_walks(g, grading, prefix, out)
        prefix.pop()


def _diagonal_gram(c: np.ndarray) -> np.ndarray:
    """C C^H for a block with at most one entry per column: diagonal, each
    entry its row's sum of re^2 + im^2 over the row's nonzero entries,
    added one at a time in column order, as verify_tl's tables add them."""
    assert (np.count_nonzero(c, axis=0) <= 1).all()
    diag = np.zeros(c.shape[0])
    for r, k in zip(*np.nonzero(c)):
        z = c[r, k]
        diag[r] += z.real * z.real + z.imag * z.imag
    return np.diag(diag)


def _u_relations(word, sd):
    """verify_tl's checks on U blocks for one grading of the word, in its
    per-grading order: (key, where, slots, residual), the residual a
    function of the U blocks of the slots."""
    delta, beta, kconst = sd.delta, sd.beta, float(sd.delta**2)
    n = len(word)

    def f(a, b):
        return a @ b @ a - a

    def h1(u):
        return _mnorm(u @ u - delta * u)

    def h2(a, b):
        return _mnorm(a @ b - b @ a)

    def h3(a, b):
        return _mnorm(f(a, b) - f(b, a))

    def f_square(a, b):
        fa = f(a, b)
        return _mnorm(fa @ fa - delta * beta * fa)

    def h4(a, b, c):
        return _mnorm((a - c @ b @ a + b) @ f(b, c))

    def lemma(a, b, c):
        fa = f(a, b)
        return _mnorm(fa @ f(b, c) @ fa - kconst * fa)

    out = []
    for i in range(1, n):
        out.append(("h1", f" i={i}", (i,), h1))
        out += [("h2", f" i={i} j={j}", (i, j), h2) for j in range(i + 2, n)]
    for i in range(1, n - 1):
        if word[i - 1] == word[i] == word[i + 1]:
            slots = (i, i + 1)
            out += [("h3", f" i={i}", slots, h3), ("f_square", f" i={i}", slots, f_square)]
    for i in range(1, n - 2):
        if word[i - 1] == word[i] == word[i + 1] == word[i + 2]:
            slots = (i, i + 1, i + 2)
            out += [("h4", f" i={i}", slots, h4), ("lemma", f" i={i}", slots, lemma)]
    return out


def _lemma_fit(a, b, c):
    """<F_i, F_i F_{i+1} F_i> and <F_i, F_i> on one block, real parts."""
    fi, fj = a @ b @ a - a, b @ c @ b - b
    return float(np.vdot(fi, fi @ fj @ fi).real), float(np.vdot(fi, fi).real)


def dense_u_checks(g, cells, grading):
    """The U-block checks of verify_tl on one grading, on the grading's
    whole blocks: a list of (key, where, residual), and the lemma fit's
    summed (numerator, denominator)."""
    us = {i: tl_u(g, cells, grading, i).matrix for i in range(1, grading.length)}
    checks, num, den = [], 0.0, 0.0
    for key, where, slots, residual in _u_relations(grading.word, spectral_data(g)):
        blocks = [us[s] for s in slots]
        checks.append((key, where, residual(*blocks)))
        if key == "lemma":
            a, b = _lemma_fit(*blocks)
            num, den = num + a, den + b
    return checks, num, den


def window_u_checks(g, cells, grading, memo=None):
    """The U-block checks of verify_tl on one grading, each the maximum of
    its relation over the window gradings the grading's paths pass
    through, and the lemma fit summed over those windows, each once per
    way to complete it to a path of the grading.

    C_i changes only v_i, given v_{i-1} and v_{i+1}, so on the grading
    a check on the slots i..k is a direct sum of copies of the check on
    the window w_i..w_{k+1}, at the grading from v_{i-1} to v_{k+1}; the
    window blocks are built by tl_u.  U_i and U_j with j >= i + 3 touch
    disjoint vertices and are a Kronecker pair of their two-letter
    windows' blocks.  ``memo`` keeps window residuals across gradings.
    """
    memo = {} if memo is None else memo
    paths = walk_paths(g, grading)
    word = grading.word

    def windows(key, slots, p):
        if key == "h2" and slots[1] - slots[0] >= 3:
            spans = [(s - 1, s + 1) for s in slots]
        else:
            spans = [(slots[0] - 1, slots[-1] + 1)]
        return tuple(PathGrading(p.vertices[lo], p.vertices[hi], word[lo:hi]) for lo, hi in spans)

    def blocks(slots, ws):
        if len(ws) == 2:
            a, b = (tl_u(g, cells, w, 1).matrix for w in ws)
            return np.kron(a, np.eye(len(b))), np.kron(np.eye(len(a)), b)
        return [tl_u(g, cells, ws[0], s - slots[0] + 1).matrix for s in slots]

    checks, num, den = [], 0.0, 0.0
    for key, where, slots, residual in _u_relations(word, spectral_data(g)):
        worst = None
        for ws in dict.fromkeys(windows(key, slots, p) for p in paths):
            if (key, ws) not in memo:
                memo[key, ws] = residual(*blocks(slots, ws))
            if worst is None or _above(memo[key, ws], worst):
                worst = memo[key, ws]
        checks.append((key, where, worst))
        if key == "lemma":
            lo, hi = slots[0] - 1, slots[-1] + 1
            ways = {}
            for p in paths:
                outer = p.vertices[: lo + 1] + p.vertices[hi:]
                ways.setdefault(windows(key, slots, p), set()).add(outer)
            for ws, outer in ways.items():
                a, b = _lemma_fit(*blocks(slots, ws))
                num, den = num + len(outer) * a, den + len(outer) * b
    return checks, num, den


def grading_verify_tl(g, cells, max_len: int = 4) -> TLReport:
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

    The checks on U blocks are read from their windows
    (window_u_checks); dense_u_checks gives them on whole blocks.
    """
    sd = spectral_data(g)
    delta, beta = sd.delta, sd.beta
    kconst = float(delta**2)

    keys = ("h1", "h2", "h3", "h4", "lemma", "f_square", "cupcap", "sum_rule")
    res = {k: 0.0 for k in keys}
    worst = {k: "" for k in keys}
    checks = 0
    fit_num = 0.0
    fit_den = 0.0

    def bump(key: str, value: float, where: str):
        nonlocal checks
        checks += 1
        # a NaN ranks above every number; the first NaN keeps its place
        if _above(value, res[key]):
            res[key] = value
            worst[key] = where

    bump("sum_rule", max_sum_rule_residual(g, cells), "arrows")

    memo = {}
    for grading in iter_gradings(g, max_len):
        dim = path_space_dim(g, grading)
        if dim == 0:
            continue
        n = grading.length
        here = str(grading)
        eye = np.eye(dim)

        found, num, den = window_u_checks(g, cells, grading, memo)
        for key, where, value in found:
            bump(key, value, here + where)
        fit_num += num
        fit_den += den

        for i in range(1, n + 2):
            comps = {}
            for tag in (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR):
                # one cup block per insertion order; the cap is its adjoint
                cu = cup(g, cells, cap_grading(grading, i, tag), i).matrix
                comps[tag] = _diagonal_gram(cu)
                bump("cupcap", _mnorm(comps[tag] - beta * eye), f"{here} i={i} cap {tag.value}")
            if i <= n:
                cre = creation(g, cells, grading, i)
                ann = annihilation(g, cells, cre.codomain, i)
                gram = _diagonal_gram(ann.matrix)
                bump("h1", _mnorm(gram - delta * eye), f"{here} i={i} collapse block")
                gram2 = gram @ gram
                for tag in (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR):
                    bump(
                        "cupcap",
                        _mnorm(gram2 - (eye + comps[tag])),
                        f"{here} i={i} square vs cap {tag.value}",
                    )

    fit = fit_num / fit_den if fit_den > 1e-12 else None
    return TLReport(
        graph=g.name,
        max_len=max_len,
        lemma_constant=kconst,
        residual_items=tuple(sorted(res.items())),
        worst_items=tuple(sorted(worst.items())),
        lemma_fit=fit,
        checks=checks,
    )


def grading_verify_adjointness(g, cells, max_len: int = 4) -> float:
    """Max deviation of creation from annihilation^H and of cap from
    cup^H over all gradings with |word| <= max_len.

    creation and cap are built as those conjugate transposes, so this
    checks that each pair meets on matching gradings and positions; the
    weights themselves are checked against loop-built blocks in the tests.
    Each cup block is built once per (grading, position, insertion
    order) and the cap is its adjoint, so for that pair the check is
    that the cup closes the cap's return back onto the grading.
    """
    worst = 0.0
    for grading in iter_gradings(g, max_len - 1):
        if path_space_dim(g, grading) == 0:
            continue
        n = grading.length
        for i in range(1, n + 1):
            cre = creation(g, cells, grading, i)
            ann = annihilation(g, cells, cre.codomain, i)
            worst = max(worst, _mnorm(cre.matrix - ann.matrix.conj().T))
    for grading in iter_gradings(g, max_len - 2):
        if path_space_dim(g, grading) == 0:
            continue
        n = grading.length
        for i in range(1, n + 2):
            for tag in (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR):
                if cup(g, cells, cap_grading(grading, i, tag), i).codomain != grading:
                    return math.inf
    return worst


def kernel_operators(g, cells, grading: PathGrading):
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
    plus its singular values (rank by _ranks)."""
    _, svals, vh = np.linalg.svd(matrix)
    return vh[int(_ranks(svals)) :].conj().T, svals


def raw_kernel(g, cells, grading: PathGrading):
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


class GradingDecomposer:
    """Memoized construction of generation-labelled orthonormal bases.

    basis(grading) returns ((generation, column-vector), ...) spanning
    the graded space: generation 0 is the raw joint kernel, generation
    g >= 1 the independent raising images of generation g-1 vectors of
    the source gradings.  Share one instance across gradings to reuse
    the recursion.  ``decisions`` records every candidate as (norm,
    residual after orthogonalization), the residual None when the norm
    is below LIVE_TOL and the candidate is dropped unexamined.
    """

    def __init__(self, g, cells):
        self.g = g
        self.cells = cells
        self._memo: dict = {}
        self.decisions: list = []

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
                self.decisions.append((nrm, None))
                continue
            if accepted:
                q = np.column_stack([v for _, v in accepted])
                w = w - q @ (q.conj().T @ w)
                w = w - q @ (q.conj().T @ w)
            res = np.linalg.norm(w)
            self.decisions.append((nrm, res))
            if res > RANK_TOL * nrm:
                accepted.append((gen, w / res))
        out = tuple(accepted)
        self._memo[grading] = out
        return out


def grading_decompose_space(g, cells, grading: PathGrading, decomposer=None) -> DecompositionReport:
    """Split one graded space; raises DecompositionError when the kernel
    plus the raising images fail to fill it."""
    dec = decomposer if decomposer is not None else GradingDecomposer(g, cells)
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


def grading_verify_decomposition(g, cells, max_len: int = 4):
    """Sweep all gradings with |word| <= max_len; max residuals plus
    failure count (a failure is a grading whose accounting broke)."""
    dec = GradingDecomposer(g, cells)
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
            rep = grading_decompose_space(g, cells, grading, dec)
        except DecompositionError:
            failures += 1
            continue
        for k, v in rep.residual_items:
            worst[k] = max(worst[k], v)
    worst["gradings"] = float(count)
    worst["failures"] = float(failures)
    worst["max_len"] = float(max_len)
    return worst

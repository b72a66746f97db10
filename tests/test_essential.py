"""Essential paths: kernels, dimension counts, decomposition, factorization."""

import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from su3paths import (
    Decomposer,
    DecompositionError,
    EdgeTag,
    ElementaryPath,
    GraphError,
    PathGrading,
    PathVector,
    PeelStep,
    SuffixSegment,
    build_a_graph,
    cell_system,
    decompose_space,
    enumerate_paths,
    enumerate_triangles,
    essential_basis,
    essential_dims,
    factorize_path,
    gauge_transform,
    get_graph,
    graph_names,
    is_structurally_essential,
    iter_gradings,
    make_path,
    parse_word,
    path_space_dim,
    random_gauge,
    replay_record,
    shipped_cells,
    solve_cells,
    spectral_data,
    verify_decomposition,
    word_str,
    words_of_type,
)
from su3paths.essential import LIVE_TOL, NULL_TOL, RANK_TOL, _word_kernels
from su3paths.paths import _grading_at, _grading_number, word_paths

from oracle import GradingDecomposer, grading_verify_decomposition, kernel_operators, raw_kernel

PHI = (1.0 + math.sqrt(5.0)) / 2.0
E5_SBB_COEF = 0.7356603157342366


def _coef_on(vec: PathVector, g, vertices):
    basis = enumerate_paths(g, vec.grading)
    for coef, idx in vec.support():
        if basis[idx].vertices == tuple(vertices):
            return coef
    return 0.0


def test_words_of_type():
    assert [
        "".join(t.value for t in w) for w in words_of_type(1, 1)
    ] == ["bs", "sb"]
    assert len(words_of_type(2, 1)) == 3
    assert len(words_of_type(2, 2)) == 6
    assert words_of_type(0, 0) == ((),)


def test_words_of_type_choose_the_sigma_bar_positions():
    # the distinct orderings of every permutation, as the words were found
    # before, for every type of degree <= 5
    for degree in range(6):
        for alpha in range(degree + 1):
            letters = (EdgeTag.SIGMA,) * alpha + (EdgeTag.SIGMA_BAR,) * (degree - alpha)
            orderings = sorted(set(itertools.permutations(letters)), key=word_str)
            assert words_of_type(alpha, degree - alpha) == tuple(orderings)
    assert len(words_of_type(7, 7)) == 3432


def test_kernel_operator_kinds(a2, a2_cells):
    ops = kernel_operators(a2, a2_cells, PathGrading("3", "8", parse_word("ssb")))
    assert [op.kind for op in ops] == ["ANNIHILATION", "CUP"]
    assert kernel_operators(a2, a2_cells, PathGrading("1", "3", parse_word("s"))) == ()


def test_raw_kernel_orthonormal(a2, a2_cells):
    grading = PathGrading("3", "3", parse_word("bs"))
    null, svals = raw_kernel(a2, a2_cells, grading)
    assert null.shape == (2, 1)
    assert len(svals) > 0
    assert np.allclose(null.conj().T @ null, np.eye(1), atol=1e-12)


def test_frozen_kernel_ratio_mixed(a2, a2_cells):
    # 3 -> 3 word bs: essential vector (3 1 3) - sqrt(1/phi) (3 8 3)
    eb = essential_basis(a2, a2_cells, PathGrading("3", "3", parse_word("bs")))
    assert eb.dim == 1 and eb.raw_dim == 1 and not eb.excluded_by_length
    v = eb.vectors[0]
    c1 = _coef_on(v, a2, ("3", "1", "3"))
    c8 = _coef_on(v, a2, ("3", "8", "3"))
    assert abs(c8 / c1 + math.sqrt(1.0 / PHI)) < 1e-9


def test_frozen_kernel_ratio_like(a2, a2_cells):
    # 3 -> 8 word ss: essential vector (3 6 8) - sqrt(phi) (3 3b 8)
    eb = essential_basis(a2, a2_cells, PathGrading("3", "8", parse_word("ss")))
    assert eb.dim == 1
    v = eb.vectors[0]
    ratio = _coef_on(v, a2, ("3", "3b", "8")) / _coef_on(v, a2, ("3", "6", "8"))
    assert abs(ratio + math.sqrt(PHI)) < 1e-9


def test_essential_dims_a2_totals(a2, a2_cells):
    for tp, total in [
        ((0, 0), 6),
        ((1, 0), 9),
        ((0, 1), 9),
        ((2, 0), 6),
        ((0, 2), 6),
        ((1, 1), 18),
    ]:
        rep = essential_dims(a2, a2_cells, tp)
        assert rep.matches_fusion, (tp, rep.mismatches[:3])
        assert int(rep.total.sum()) == total
    rep = essential_dims(a2, a2_cells, (1, 1))
    assert set(rep.per_word) == {"bs", "sb"}
    for m in rep.per_word.values():
        assert np.array_equal(m, rep.fusion)


def test_essential_dims_e5_totals(e5, e5_cells):
    for tp, total in [((1, 0), 24), ((0, 1), 24), ((2, 0), 36), ((1, 1), 96)]:
        rep = essential_dims(e5, e5_cells, tp)
        assert rep.matches_fusion, (tp, rep.mismatches[:3])
        assert int(rep.total.sum()) == total


def test_essential_dims_beyond_level(a2, a2_cells):
    with pytest.raises(GraphError):
        essential_dims(a2, a2_cells, (2, 1))


def test_essential_dims_rejects_a_negative_type(a2):
    # before any other work: no cells are read
    with pytest.raises(GraphError, match="non-negative"):
        essential_dims(a2, None, (-1, 2))


@pytest.mark.parametrize("name", graph_names())
def test_essential_dims_at_the_level_match_fusion(name):
    # the one word of type (level, 0) or (0, level) has no change of tag
    g = get_graph(name)
    cells = shipped_cells(g)
    for tp in [(g.level, 0), (0, g.level)]:
        rep = essential_dims(g, cells, tp)
        assert len(rep.per_word) == 1
        assert rep.matches_fusion, (tp, rep.mismatches[:3])
        assert rep.total.any()


def _nan_cells(g, cells, k: int):
    from su3paths.cells import CellSystem

    # built directly: cell_system would reject the NaN
    items = list(cells.items)
    items[k] = (items[k][0], complex(math.nan, 0.0))
    return CellSystem(graph=g.name, items=tuple(items))


def test_nan_cells_fail_the_kernels_naming_the_grading(a2, a2_cells):
    bad = _nan_cells(a2, a2_cells, 0)
    tri = bad.items[0][0].vertices  # a sigma triangle x -> y -> z -> x
    grading = PathGrading(tri[0], tri[2], parse_word("ss"))
    with pytest.raises(DecompositionError, match=rf"^{grading}: non-finite operator entries$"):
        essential_basis(a2, bad, grading)
    with pytest.raises(DecompositionError, match=r"^\S+:ss: non-finite operator entries$"):
        essential_dims(a2, bad, (2, 0))
    # words that read no cell are untouched
    assert essential_dims(a2, bad, (1, 1)).matches_fusion


def test_zero_cells_break_the_count(a2):
    zeros = cell_system(a2, {t: 0.0 for t in enumerate_triangles(a2)})
    rep = essential_dims(a2, zeros, (2, 0))
    assert not rep.matches_fusion
    assert any(ess > fus for _, _, _, ess, fus in rep.mismatches)
    # one-step spaces carry no operator, so they still match
    assert essential_dims(a2, zeros, (1, 0)).matches_fusion


def test_dimensions_invariant_under_random_gauges_on_every_graph():
    for name in graph_names():
        g = get_graph(name)
        base = shipped_cells(g)
        gradings = [gr for gr in iter_gradings(g, 2) if path_space_dim(g, gr) > 0]

        def dims(cells):
            bases = (essential_basis(g, cells, gr) for gr in gradings)
            return [(eb.raw_dim, eb.dim) for eb in bases]

        ref = dims(base)
        for seed in (1, 2):
            assert dims(gauge_transform(base, random_gauge(g, seed))) == ref, (name, seed)


def test_level_clause_exclusions(a2, a2_cells):
    # closed-triangle loops: nonzero joint kernel at type (2,1)/(1,2),
    # discarded by the length clause
    for vertices, word in [
        (("1", "3", "8", "6b"), "sbs"),
        (("6", "8", "3b", "1"), "sbs"),
        (("6b", "3b", "3", "6"), "sbs"),
        (("1", "3b", "8", "6"), "bsb"),
        (("6b", "8", "3", "1"), "bsb"),
        (("6", "3", "3b", "6b"), "bsb"),
    ]:
        p = make_path(a2, vertices, word)
        eb = essential_basis(a2, a2_cells, p.grading)
        assert eb.raw_dim > 0
        assert eb.excluded_by_length
        assert eb.dim == 0 and eb.vectors == ()


def test_structurally_essential_paths_sit_in_kernel(a2, a2_cells):
    for vertices in [("1", "3", "6"), ("6", "8", "6b"), ("6b", "3b", "1")]:
        p = make_path(a2, vertices, "ss")
        assert is_structurally_essential(a2, a2_cells, p)
        v = PathVector.from_path(a2, p)
        for op in kernel_operators(a2, a2_cells, p.grading):
            out = op.apply(v).coefficients
            assert out.size == 0 or np.abs(out).max() < 1e-12
    # a path moved by a triangle is not singly essential
    q = make_path(a2, ("3", "6", "8"), "ss")
    assert not is_structurally_essential(a2, a2_cells, q)


def test_decompose_small_space(a2, a2_cells):
    rep = decompose_space(a2, a2_cells, PathGrading("3", "3", parse_word("bs")))
    assert (rep.dim_total, rep.dim_kernel, rep.dim_raised) == (2, 1, 1)
    assert rep.raised_dims == (1,)
    assert rep.dim_essential == 1 and not rep.excluded_by_length
    assert max(v for _, v in rep.residual_items) < 1e-10
    assert np.allclose(
        rep.projector_essential + rep.projector_raised, np.eye(2), atol=1e-10
    )


def test_decompose_excluded_grading(a2, a2_cells):
    rep = decompose_space(a2, a2_cells, PathGrading("1", "6b", parse_word("sbs")))
    assert rep.excluded_by_length
    assert rep.dim_kernel > 0 and rep.dim_essential == 0


def test_decomposer_data_guard(a2, a2_cells, e5, e5_cells):
    dec = Decomposer(e5, e5_cells)
    with pytest.raises(ValueError):
        decompose_space(a2, a2_cells, PathGrading("3", "3", parse_word("bs")), dec)


def test_verify_decomposition_sweeps(a2, a2_cells, e5, e5_cells):
    for g, cells in [(a2, a2_cells), (e5, e5_cells)]:
        rep = verify_decomposition(g, cells, max_len=3)
        assert rep["failures"] == 0
        assert rep["gradings"] > 0
        for key in (
            "hermitian",
            "idempotent",
            "orthogonal",
            "completeness",
            "essential_raised_overlap",
        ):
            assert rep[key] < 1e-8, (g.name, key, rep[key])


def test_nan_fails_the_decomposition_sweep_naming_the_grading(e5, e5_cells, monkeypatch):
    from su3paths import essential

    bad = _nan_cells(e5, e5_cells, 3)
    with pytest.raises(DecompositionError, match=r"^1_3->2_5:ss: non-finite operator entries$"):
        verify_decomposition(e5, bad, max_len=3)

    # a NaN residual on finite cells, here on the last grading of every group
    residuals = essential._projector_residuals

    def nan_last(basis, kernel, count):
        pe, pr, res = residuals(basis, kernel, count)
        res["idempotent"][-1] = math.nan
        return pe, pr, res

    monkeypatch.setattr(essential, "_projector_residuals", nan_last)
    with pytest.raises(DecompositionError, match=r"^2_5->2_5:\(\): idempotent residual is NaN$"):
        verify_decomposition(e5, e5_cells, max_len=3)


def test_dead_raising_images_fail_both_sweeps_on_the_same_gradings(a2, a2_cells, monkeypatch):
    """Scaled by 1e-13, a2's cells put every raising image below LIVE_TOL,
    so only the kernels fill the graded spaces.  verify_decomposition
    counts the gradings whose accounting breaks, and decompose_space
    raises DecompositionError on exactly those, with the report of the
    failed split attached."""
    from su3paths import essential

    tiny = cell_system(a2, {t: v * 1e-13 for t, v in a2_cells.items})
    raise_words, swept = essential.Decomposer._raise_words, set()

    def recorded(self, words, check=None, keep=True):
        def seen(batch, raised):
            r0 = 0
            for (w, _), numbers, *_ in batch:
                rows = numbers[raised.failed[r0 : r0 + len(numbers)]]
                swept.update(str(_grading_at(a2, words[w], s)) for s in rows.tolist())
                r0 += len(numbers)
            check(batch, raised)

        return raise_words(self, words, seen, keep)

    monkeypatch.setattr(essential.Decomposer, "_raise_words", recorded)
    rep = verify_decomposition(a2, tiny, max_len=3)
    monkeypatch.undo()
    assert rep["failures"] == len(swept) == 54
    dec, raised = Decomposer(a2, tiny), {}
    for grading in iter_gradings(a2, 3):
        try:
            decompose_space(a2, tiny, grading, dec)
        except DecompositionError as exc:
            report = exc.report
            assert report.grading == grading
            assert str(exc) == (
                f"{grading}: kernel {report.dim_kernel} + raised {report.dim_raised} "
                f"!= dim {report.dim_total}"
            )
            raised[str(grading)] = exc
    assert raised.keys() == swept
    first = raised["1->3b:ss"]
    assert str(first) == "1->3b:ss: kernel 0 + raised 0 != dim 1"
    assert first.report.dim_total == 1 and first.report.raised_dims == ()


def test_nan_residuals_in_one_batch_name_the_first_grading_in_word_order(e5, e5_cells, monkeypatch):
    """A raising batch holds its groups widest first, which need not be
    _words order.  Of two gradings of different words in one batch with
    NaN residuals, the error names the one whose word comes first in
    _words order, though its group comes later in the batch."""
    from su3paths import essential

    raise_words, raise_batch = essential.Decomposer._raise_words, essential._raise_batch
    levels, batches = [], []

    def recorded_words(self, words, *args, **kwargs):
        levels.append(words)
        return raise_words(self, words, *args, **kwargs)

    def recorded_batch(batch, *args):
        batches.append((len(levels) - 1, [(key, numbers) for key, numbers, *_ in batch]))
        return raise_batch(batch, *args)

    monkeypatch.setattr(essential.Decomposer, "_raise_words", recorded_words)
    monkeypatch.setattr(essential, "_raise_batch", recorded_batch)
    verify_decomposition(e5, e5_cells, max_len=4)
    # the first batch with a group of a later word ahead of an earlier one
    level, items, ahead, behind = next(
        (level, items, i, j)
        for level, items in batches
        for i, j in itertools.combinations(range(len(items)), 2)
        if items[i][0][0] > items[j][0][0]
    )
    words = levels[level]
    poisoned = {(level, items[ahead][0]), (level, items[behind][0])}

    def poisoning(batch, *args):
        raised = raise_batch(batch, *args)
        r0 = 0
        for key, numbers, *_ in batch:
            if (len(levels) - 1, key) in poisoned:
                raised.basis[r0, 0, 0] = math.nan  # NaN residuals on the group's first grading
            r0 += len(numbers)
        return raised

    levels.clear()
    monkeypatch.setattr(essential, "_raise_batch", poisoning)
    first = _grading_at(e5, words[items[behind][0][0]], int(items[behind][1][0]))
    message = rf"^{re.escape(str(first))}: hermitian residual is NaN$"
    with pytest.raises(DecompositionError, match=message):
        verify_decomposition(e5, e5_cells, max_len=4)


@pytest.mark.parametrize("name,max_len", [("e5", 4), ("a2", 5)])
@pytest.mark.parametrize("cells_kind", ["shipped", "random-gauge"])
def test_decomposition_sweep_keeps_two_lengths(name, max_len, cells_kind, monkeypatch):
    """Before each length is raised the sweep's Decomposer holds the
    bases of the two lengths below it, and after the sweep only those
    of the length before the last: it keeps none of the last length.
    The sweep leaves the cell system's memo as it found it; the kernels
    that essential_dims kept there stay."""
    from su3paths import essential

    g = get_graph(name)
    cells = shipped_cells(g)
    if cells_kind == "random-gauge":
        cells = gauge_transform(cells, random_gauge(g, 5))
    assert essential_dims(g, cells, (1, 0)).matches_fusion
    memo = dict(cells._memo)
    assert memo
    raise_words, held, decomposers = essential.Decomposer._raise_words, [], set()

    def recorded(self, words, *args, **kwargs):
        decomposers.add(self)
        held.append(sorted({len(w) for w in self._memo}))
        return raise_words(self, words, *args, **kwargs)

    monkeypatch.setattr(essential.Decomposer, "_raise_words", recorded)
    assert verify_decomposition(g, cells, max_len)["failures"] == 0
    (dec,) = decomposers
    assert held == [[n for n in (m - 2, m - 1) if n >= 0] for m in range(max_len + 1)]
    assert sorted({len(w) for w in dec._memo}) == [max_len - 1]
    assert cells._memo == memo


def _labels(dec, g, max_len: int):
    return [[gen for gen, _ in dec.basis(grading)] for grading in iter_gradings(g, max_len)]


ORACLE_CASES = (
    [
        (name, max_len, kind)
        for name, max_len in [("a2", 4), ("a3", 3), ("a4", 3), ("a5", 3), ("e5", 4)]
        for kind in ("shipped", "random-gauge")
    ]
    + [("a2", 4, "zero")]
    + [(f"A_{k}", 4 if k < 3 else 3, "solved") for k in range(1, 5)]
)


@pytest.mark.parametrize("name,max_len,cells_kind", ORACLE_CASES)
def test_decomposition_matches_grading_oracle(name, max_len, cells_kind):
    """The per-word batched sweep against the per-grading one: equal
    generation labels on every grading, equal counts, residuals within
    1e-13; and the word kernels against the per-grading ones: equal
    dimensions, projectors within 1e-12, and the same columns, bit for
    bit, as the Decomposer's generation 0, which finds them in batches
    of other words' groups.  All-zero cells make every like-slot stack
    zero (rank 0); the A graphs built here carry cells from the solver,
    not the shipped files."""
    if cells_kind == "solved":
        g = build_a_graph(int(name[2:]))
        cells = solve_cells(g, seed=0)
    elif cells_kind == "zero":
        g = get_graph(name)
        cells = cell_system(g, {t: 0.0 for t in enumerate_triangles(g)})
    else:
        g = get_graph(name)
        cells = shipped_cells(g)
        if cells_kind == "random-gauge":
            cells = gauge_transform(cells, random_gauge(g, 5))
    lib = verify_decomposition(g, cells, max_len)
    ref = grading_verify_decomposition(g, cells, max_len)
    assert lib.keys() == ref.keys()
    for key in ("gradings", "failures", "max_len"):
        assert lib[key] == ref[key]
    for key in lib.keys() - {"gradings", "failures", "max_len"}:
        assert abs(lib[key] - ref[key]) <= 1e-13, key
    dec = Decomposer(g, cells)
    assert _labels(dec, g, max_len) == _labels(GradingDecomposer(g, cells), g, max_len)
    # the word kernels against the per-grading SVD and the Decomposer's
    # generation 0, to length 3
    for grading in iter_gradings(g, min(max_len, 3)):
        ref, _ = raw_kernel(g, cells, grading)
        number = _grading_number(g, grading)
        found = _word_kernels(cells, g, grading.word).find(number)
        ker = ref[:, :0]
        if found is not None:
            grp, r = found
            ker = grp.basis[r, :, : grp.kernel[r]]
            raised, r = dec._word(grading.word).find(number)
            assert np.array_equal(ker, raised.basis[r, :, : raised.kernel[r]]), str(grading)
        assert ker.shape == ref.shape, str(grading)
        gap = np.abs(ker @ ker.conj().T - ref @ ref.conj().T)
        assert gap.max(initial=0.0) <= 1e-12, str(grading)


def _by_grading(bases, size: int, fields):
    """Per grading number s of nonzero dimension on a word, (s, then the
    fields of its row in its pool), read through the word's index; the
    row must belong to grading s."""
    rows = []
    for s in range(size):
        found = bases.find(s)
        if found is not None:
            pool, r = found
            assert pool.numbers[r] == s
            rows.append((s, *(getattr(pool, field)[r] for field in fields)))
    return rows


BATCH_CASES = [
    (name, max_len, kind)
    for name, max_len in [("a2", 4), ("a3", 3), ("a4", 3), ("a5", 3), ("e5", 4)]
    for kind in ("shipped", "random-gauge", "zero")
] + [(f"A_{k}", 4 if k < 3 else 3, "solved") for k in range(1, 5)]


@pytest.mark.parametrize("name,max_len,cells_kind", BATCH_CASES)
def test_length_batches_build_the_word_by_word_bases(name, max_len, cells_kind, monkeypatch):
    """The Decomposer raises a length's words together, per dimension,
    in batches of bounded size; every grading's basis, generations,
    count and failure flag are bit-equal to those built one word per
    batch, with the default budget and with one group per batch.  With
    the default budget the groups of a batch share their kernel SVDs:
    there are fewer SVD calls than groups with a lowering slot; and each
    slot's lowering entries are one gather over the batch's groups."""
    from su3paths import essential
    from su3paths.paths import _dimension_groups, _words

    if cells_kind == "solved":
        g = build_a_graph(int(name[2:]))
        cells = solve_cells(g, seed=0)
    else:
        g = get_graph(name)
        cells = shipped_cells(g)
        if cells_kind == "zero":
            cells = cell_system(g, {t: 0.0 for t in enumerate_triangles(g)})
        elif cells_kind == "random-gauge":
            cells = gauge_transform(cells, random_gauge(g, 5))
    words = list(_words(max_len))
    alone = Decomposer(g, cells)
    for word in reversed(words):  # sources after the words raised from them
        alone._word(word)

    raise_batch, sizes, slots = essential._raise_batch, [], []
    svd, svds = np.linalg.svd, []
    gather, gathers = essential._gather, []

    def recorded(batch, *args):
        sizes.append(len(batch))
        slots.append(len(batch[0][2][0]))
        return raise_batch(batch, *args)

    def counted(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    def gathered(parts, *args):
        gathers.append(len(parts))
        return gather(parts, *args)

    monkeypatch.setattr(essential, "_raise_batch", recorded)
    monkeypatch.setattr(essential.np.linalg, "svd", counted)
    monkeypatch.setattr(essential, "_gather", gathered)
    # groups whose words have a slot, whose kernels take an SVD
    groups = sum(len(list(_dimension_groups(g, word))) for word in words if len(word) > 1)
    # -1 is below every batch's size, so each group is a batch of its own
    for budget in (essential._BATCH_BYTES, -1):
        monkeypatch.setattr(essential, "_BATCH_BYTES", budget)
        for counts in (sizes, slots, svds, gathers):
            counts.clear()
        dec = Decomposer(g, cells)
        for _, level in itertools.groupby(words, len):
            dec._raise_words(list(level))
        assert max(sizes) > 1 if budget > 0 else max(sizes) == 1
        assert len(svds) < groups if budget > 0 else len(svds) >= groups
        assert len(gathers) <= sum(slots)
        assert sum(gathers) == sum(s * k for s, k in zip(sizes, slots))
        fields, size = ("basis", "gens", "count", "failed"), len(g.vertices) ** 2
        for word in words:
            ours, ref = (_by_grading(built._memo[word], size, fields) for built in (dec, alone))
            assert len(ours) == len(ref)
            for a, b in zip(ours, ref):
                for field, x, y in zip(("number",) + fields, a, b):
                    assert np.array_equal(x, y), (word, field)


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "a5", "e5"])
def test_real_cells_take_real_arithmetic_with_the_complex_answers(name, monkeypatch):
    """The shipped cells are real and their sweeps run in float64; the
    same cells under a random gauge are complex and run in complex128.
    To length 4 both give every grading the same counts, generation
    labels and failure flags, and every word the same essential_dims;
    the vectors handed out are complex either way, and the float
    batches keep their candidates and bases within _BATCH_BYTES."""
    from su3paths import essential
    from su3paths.paths import _words

    g = get_graph(name)
    shipped = shipped_cells(g)
    gauged = gauge_transform(shipped, random_gauge(g, 5))
    assert (shipped.dtype, gauged.dtype) == (np.dtype(np.float64), np.dtype(np.complex128))
    candidates, batches = essential._candidates, []

    def recorded(batch, d, cells, sources):
        basis, gens, kernel, cand, cgen = candidates(batch, d, cells, sources)
        batches.append((len(batch), basis.dtype, cand.dtype, basis.nbytes, cand.nbytes))
        return basis, gens, kernel, cand, cgen

    monkeypatch.setattr(essential, "_candidates", recorded)
    words = list(_words(4))
    answers = []
    for cells in (shipped, gauged):
        batches.clear()
        dec = Decomposer(g, cells)
        for _, level in itertools.groupby(words, len):
            dec._raise_words(list(level))
        assert {(b, c) for _, b, c, _, _ in batches} == {(cells.dtype, cells.dtype)}
        for size, _, _, *nbytes in batches:
            assert size == 1 or max(nbytes) <= essential._BATCH_BYTES
        bases = {
            word: _by_grading(dec._memo[word], len(g.vertices) ** 2, ("gens", "count", "failed"))
            for word in words
        }
        dims = {
            (a, b): dict(essential_dims(g, cells, (a, b)).per_word)
            for a in range(min(g.level, 4) + 1)
            for b in range(min(g.level, 4) + 1 - a)
        }
        answers.append((bases, dims))
        for grading in iter_gradings(g, 3):
            assert all(v.dtype == complex for _, v in dec.basis(grading))
            vectors = essential_basis(g, cells, grading).vectors
            assert all(v.coefficients.dtype == complex for v in vectors)
    (real_bases, real_dims), (complex_bases, complex_dims) = answers
    for word in words:
        for ours, theirs in zip(real_bases[word], complex_bases[word], strict=True):
            assert all(map(np.array_equal, ours, theirs)), word
    assert real_dims.keys() == complex_dims.keys()
    for tp, per_word in real_dims.items():
        assert per_word.keys() == complex_dims[tp].keys()
        for word, m in per_word.items():
            assert np.array_equal(m, complex_dims[tp][word]), (tp, word)


@pytest.mark.parametrize("name,max_len", [("a2", 4), ("a3", 3), ("a4", 3), ("a5", 3), ("e5", 4)])
def test_rank_decisions_keep_their_margins(name, max_len, monkeypatch):
    """Every rank decision lies a factor 1e3 or more from its cutoff, on
    shipped and gauged cells: each kernel's kept sigma / sigma_max above
    1e3 NULL_TOL and its dropped ones below NULL_TOL / 1e3 (the library's
    word kernels, the oracle's per-grading kernels and the e5 report's
    slot-2 kernels all rank through _ranks), and each raised candidate
    of the oracle decomposer live by 1e3 LIVE_TOL and accepted or
    rejected by res / nrm a factor 1e3 from RANK_TOL."""
    import oracle
    from su3paths import essential, reference

    ranks = essential._ranks
    kept, dropped = [], []

    def recorded(svals):
        rank = ranks(svals)
        top = svals[..., :1]
        ratio = np.divide(svals, top, out=np.zeros(svals.shape), where=top > 0)
        keep = np.arange(svals.shape[-1]) < np.asarray(rank)[..., None]
        kept.append(ratio[keep].min(initial=1.0))
        dropped.append(ratio[~keep].max(initial=0.0))
        return rank

    for module in (essential, reference, oracle):
        monkeypatch.setattr(module, "_ranks", recorded)
    g = get_graph(name)
    shipped = shipped_cells(g)
    for cells in (cell_system(g, shipped.values), gauge_transform(shipped, random_gauge(g, 19))):
        verify_decomposition(g, cells, max_len)
        if name == "e5":
            assert reference.check_e5_ratios(g, cells)[0]
        dec = GradingDecomposer(g, cells)
        for grading in iter_gradings(g, max_len):
            dec.basis(grading)
        live = [(nrm, res / nrm) for nrm, res in dec.decisions if res is not None]
        assert live and min(nrm for nrm, _ in live) >= 1e3 * LIVE_TOL
        accepted = [r for _, r in live if r > RANK_TOL]
        rejected = [r for _, r in live if r <= RANK_TOL]
        assert min(accepted) >= 1e3 * RANK_TOL
        assert max(rejected, default=0.0) <= RANK_TOL / 1e3
    assert kept and min(kept) >= 1e3 * NULL_TOL
    assert max(dropped) <= NULL_TOL / 1e3


def test_factorize_cap_peel(a2, a2_cells):
    p = make_path(a2, ("3", "3b", "3"), "sb")
    rec = factorize_path(a2, a2_cells, p)
    assert rec.core.vertices == ("3",)
    assert len(rec.events) == 1
    (step,) = rec.peels
    assert step.kind == "CAP" and step.vertex == "3b"
    assert step.first_tag is EdgeTag.SIGMA
    assert abs(step.weight - 1.0) < 1e-12
    out = replay_record(a2, a2_cells, rec)
    assert abs(_coef_on(out, a2, p.vertices) - 1.0) < 1e-12


def test_factorize_creation_peel_e5(e5, e5_cells):
    p = make_path(e5, ("1_3", "2_4", "2_3", "2_2"), "sbb")
    rec = factorize_path(e5, e5_cells, p)
    assert rec.core.vertices == ("1_3", "2_4", "2_2")
    (step,) = rec.peels
    assert step.kind == "CREATION" and step.vertex == "2_3"
    assert abs(step.weight - E5_SBB_COEF) < 1e-9
    assert is_structurally_essential(e5, e5_cells, rec.core)
    out = replay_record(e5, e5_cells, rec)
    assert abs(_coef_on(out, e5, p.vertices) - E5_SBB_COEF) < 1e-9


def test_factorize_splits_suffix(a2, a2_cells):
    p = make_path(a2, ("3", "3b", "3", "6"), "sbs")
    rec = factorize_path(a2, a2_cells, p)
    kinds = [type(e).__name__ for e in rec.events]
    assert kinds == ["SuffixSegment", "PeelStep"]
    assert rec.segments[0].path.vertices == ("3", "6")
    assert rec.core.vertices == ("3",)
    out = replay_record(a2, a2_cells, rec)
    assert abs(_coef_on(out, a2, p.vertices) - 1.0) < 1e-12


def test_factorize_essential_path_is_trivial(a2, a2_cells):
    p = make_path(a2, ("1", "3", "6"), "ss")
    rec = factorize_path(a2, a2_cells, p)
    assert rec.events == () and rec.core == p
    out = replay_record(a2, a2_cells, rec)
    assert abs(_coef_on(out, a2, p.vertices) - 1.0) < 1e-12


def test_factorize_replay_sweep(a2, a2_cells):
    from su3paths import iter_gradings

    for grading in iter_gradings(a2, 3):
        for p in enumerate_paths(a2, grading):
            rec = factorize_path(a2, a2_cells, p)
            out = replay_record(a2, a2_cells, rec)
            assert abs(_coef_on(out, a2, p.vertices)) > 1e-9, str(p)
            if is_structurally_essential(a2, a2_cells, p):
                assert rec.events == ()


@functools.lru_cache(maxsize=None)
def _shipped(name):
    return shipped_cells(get_graph(name))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_factorize_replay_on_random_paths(data):
    # any word up to length level + 2 on any graph, and any of its paths
    g = get_graph(data.draw(st.sampled_from(graph_names()), label="graph"))
    cells = _shipped(g.name)
    word = parse_word(data.draw(st.text(alphabet="sb", max_size=g.level + 2), label="word"))
    rows = word_paths(g, word)
    assume(len(rows) > 0)
    row = rows[data.draw(st.integers(0, len(rows) - 1), label="row")]
    p = ElementaryPath(tuple(g.vertex_ids()[v] for v in row), word)
    out = replay_record(g, cells, factorize_path(g, cells, p))
    assert abs(_coef_on(out, g, p.vertices)) > 1e-9, str(p)

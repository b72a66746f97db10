"""Creation/annihilation/cup/cap operators and the relation verifier."""

import math

import numpy as np
import pytest

from su3paths import (
    EdgeTag,
    GradingMismatch,
    PathGrading,
    PathVector,
    annihilation,
    annihilation_pattern,
    apply_annihilation,
    build_a_graph,
    cap_oriented,
    cell_system,
    collapsed_grading,
    creation,
    cup,
    cup_grading,
    cup_pattern,
    enumerate_paths,
    enumerate_triangles,
    expanded_grading,
    gauge_transform,
    get_graph,
    make_path,
    parse_word,
    random_gauge,
    shipped_cells,
    spectral_data,
    tl_u,
    verify_adjointness,
    verify_tl,
    word_paths,
)

from oracle import (
    annihilation_deviation,
    cup_mismatches,
    dense_u_checks,
    grading_verify_adjointness,
    grading_verify_tl,
    oracle_deviation,
    window_u_checks,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
E5_SBB_COEF = 0.7356603157342366  # |cell| / (1 + sqrt(2)) on the worked 4-step path


def test_grading_surgery():
    from su3paths import cap_grading

    g = PathGrading("3", "8", parse_word("ssb"))
    assert collapsed_grading(g, 1).word == parse_word("bb")
    assert expanded_grading(g, 3).word == parse_word("ssss")
    assert cup_grading(g, 2).word == parse_word("s")
    assert cap_grading(g, 2, EdgeTag.SIGMA).word == parse_word("ssbsb")
    assert cap_grading(g, 2, EdgeTag.SIGMA_BAR).word == parse_word("sbssb")


def test_annihilation_matrix_frozen(a2, a2_cells):
    grading = PathGrading("3", "8", parse_word("ss"))
    op = annihilation(a2, a2_cells, grading, 1)
    assert op.codomain == PathGrading("3", "8", parse_word("b"))
    assert [str(p) for p in enumerate_paths(a2, grading)] == [
        "(3 3b 8)",
        "(3 6 8)",
    ]
    # entries cell/sqrt(mu*mu): sqrt(phi)/phi and phi/phi
    expect = np.array([[math.sqrt(1.0 / PHI), 1.0]])
    assert np.allclose(op.matrix, expect, atol=1e-12)


def test_annihilation_mixed_is_zero_block(a2, a2_cells):
    op = annihilation(a2, a2_cells, PathGrading("3", "3", parse_word("sb")), 1)
    assert not op.matrix.any()


def test_creation_is_adjoint_of_annihilation(a2, a2_cells):
    grading = PathGrading("3", "8", parse_word("ss"))
    ann = annihilation(a2, a2_cells, grading, 1)
    cre = creation(a2, a2_cells, ann.codomain, 1)
    assert cre.codomain == grading
    assert np.allclose(cre.matrix, ann.matrix.conj().T, atol=1e-14)


def test_adjointness_sweep(a2, a2_cells, e5, e5_cells):
    assert verify_adjointness(a2, a2_cells, max_len=4) < 1e-12
    assert verify_adjointness(e5, e5_cells, max_len=3) < 1e-12


@pytest.mark.parametrize("gauged", [False, True], ids=["shipped", "random-gauge"])
@pytest.mark.parametrize("name", ["a2", "e5"])
def test_creation_and_cap_match_loop_oracle(name, gauged):
    g = get_graph(name)
    cells = shipped_cells(g)
    if gauged:
        cells = gauge_transform(cells, random_gauge(g, 5))
        # complex cells: a dropped conjugation would show
        assert max(abs(v.imag) for v in cells.values.values()) > 0.1
    assert oracle_deviation(g, cells, max_len=4) <= 1e-12


@pytest.mark.parametrize("gauged", [False, True], ids=["shipped", "random-gauge"])
@pytest.mark.parametrize("name,max_len", [("a2", 4), ("a3", 3), ("a4", 3), ("a5", 3), ("e5", 4)])
def test_annihilation_matches_loop_oracle(name, max_len, gauged):
    g = get_graph(name)
    cells = shipped_cells(g)
    if gauged:
        cells = gauge_transform(cells, random_gauge(g, 5))
        assert max(abs(v.imag) for v in cells.values.values()) > 0.1
    assert annihilation_deviation(g, cells, max_len) <= 1e-14


@pytest.mark.parametrize("name,max_len", [("a2", 4), ("a3", 3), ("a4", 3), ("a5", 3), ("e5", 4)])
def test_cup_matches_loop_oracle(name, max_len):
    # every cup block verify_tl stacks, so domains reach word length max_len + 2
    g = get_graph(name)
    assert cup_mismatches(g, shipped_cells(g), max_len) == []


def test_annihilation_pattern_of_a_spelled_word(e5):
    spelled = annihilation_pattern(e5, "bbb", 2)
    typed = annihilation_pattern(e5, parse_word("bbb"), 2)
    assert spelled is not typed and spelled.conj and typed.conj
    for field in ("offsets", "shapes", "rows", "cols", "tri", "den"):
        assert np.array_equal(getattr(spelled, field), getattr(typed, field))


def test_e5_contraction_examples(e5, e5_cells):
    # ss pair with no completing triangle: exactly zero
    p = make_path(e5, ("1_3", "2_4", "1_2"), "ss")
    assert not apply_annihilation(e5, e5_cells, p, 1).coefficients.any()

    # mixed-tag slots: zero blocks on both interior positions
    q = make_path(e5, ("1_3", "2_4", "2_3", "1_1"), "sbs")
    assert not apply_annihilation(e5, e5_cells, q, 1).coefficients.any()
    assert not apply_annihilation(e5, e5_cells, q, 2).coefficients.any()

    # bb pair contracting through a skew triangle
    r = make_path(e5, ("1_3", "2_4", "2_3", "2_2"), "sbb")
    out = apply_annihilation(e5, e5_cells, r, 2)
    terms = out.support()
    assert len(terms) == 1
    coef, idx = terms[0]
    assert abs(coef - E5_SBB_COEF) < 1e-9
    target = enumerate_paths(e5, out.grading)[idx]
    assert target.vertices == ("1_3", "2_4", "2_2")


def _cup_path(g, cells, p, i):
    return cup(g, cells, p.grading, i).apply(PathVector.from_path(g, p))


def test_cup_contracts_mixed_return(a2, a2_cells):
    p = make_path(a2, ("3", "3b", "3"), "sb")
    out = _cup_path(a2, a2_cells, p, 1)
    assert out.grading == PathGrading("3", "3", ())
    assert np.allclose(out.coefficients, [1.0])  # sqrt(mu(3b)/mu(3)) = 1

    q = make_path(a2, ("3", "6", "3"), "sb")
    out = _cup_path(a2, a2_cells, q, 1)
    assert abs(out.coefficients[0] - math.sqrt(1.0 / PHI)) < 1e-12

    # like-tag slot: zero block
    r = make_path(a2, ("1", "3", "6"), "ss")
    assert not _cup_path(a2, a2_cells, r, 1).coefficients.any()


def test_cap_cup_loop(a2, a2_cells):
    sd = spectral_data(a2)
    g0 = PathGrading("3", "3", ())
    for tag, word in ((EdgeTag.SIGMA, "sb"), (EdgeTag.SIGMA_BAR, "bs")):
        cp = cap_oriented(a2, a2_cells, g0, 1, tag)
        assert cp.codomain.word == parse_word(word)
        loop = cup(a2, a2_cells, cp.codomain, 1).matrix @ cp.matrix
        assert np.allclose(loop, sd.beta * np.eye(1), atol=1e-12)


def test_cap_apply(a2, a2_cells):
    p = make_path(a2, ("3", "6"), "s")
    cap = cap_oriented(a2, a2_cells, p.grading, 1, EdgeTag.SIGMA)
    out = cap.apply(PathVector.from_path(a2, p))
    # one term per out-neighbor of 3, inserted before the step
    terms = {
        enumerate_paths(a2, out.grading)[i].vertices: c for c, i in out.support()
    }
    assert terms == pytest.approx(
        {
            ("3", "3b", "3", "6"): 1.0,
            ("3", "6", "3", "6"): math.sqrt(1.0 / PHI),
        }
    )


def test_tl_u_quadratic(a2, a2_cells):
    sd = spectral_data(a2)
    grading = PathGrading("3", "8", parse_word("ss"))
    u = tl_u(a2, a2_cells, grading, 1)
    assert np.allclose(
        u.matrix @ u.matrix, sd.delta * u.matrix, atol=1e-12
    )
    cre = creation(a2, a2_cells, PathGrading("3", "8", parse_word("b")), 1)
    ann = annihilation(a2, a2_cells, grading, 1)
    assert np.allclose(u.matrix, cre.matrix @ ann.matrix, atol=1e-14)
    # mixed pattern: exactly zero
    assert not tl_u(a2, a2_cells, PathGrading("3", "3", parse_word("sb")), 1).matrix.any()


def test_tl_f_on_runs(a2, a2_cells):
    # F_i = U_i U_{i+1} U_i - U_i, as verify_tl forms it from the U blocks
    sd = spectral_data(a2)
    grading = PathGrading("1", "6b", parse_word("ssss"))
    u1, u2, u3 = (tl_u(a2, a2_cells, grading, i).matrix for i in (1, 2, 3))
    f1 = u1 @ u2 @ u1 - u1
    f2 = u2 @ u3 @ u2 - u2
    assert np.allclose(f1 @ f1, sd.delta * sd.beta * f1, atol=1e-10)
    assert np.allclose(f1 @ f2 @ f1, sd.delta**2 * f1, atol=1e-10)


def test_verify_tl_clean(a2, a2_cells):
    rep = verify_tl(a2, a2_cells, max_len=4)
    assert rep.passed(1e-8)
    assert rep.checks > 1000
    assert rep.lemma_constant == pytest.approx(spectral_data(a2).delta ** 2)
    assert rep.lemma_fit == pytest.approx(rep.lemma_constant, abs=1e-8)
    assert set(rep.residuals) == {
        "h1", "h2", "h3", "h4", "lemma", "f_square", "cupcap", "sum_rule",
    }
    s = rep.summary()
    assert s["checks"] == rep.checks and s["max_len"] == 4


def test_verify_tl_e5(e5, e5_cells):
    rep = verify_tl(e5, e5_cells, max_len=3)
    assert rep.passed(1e-8)
    # no 4-runs at this length, so no lemma fit
    assert rep.lemma_fit is None


def test_zero_cells_fail_h1(a2):
    zeros = cell_system(a2, {t: 0.0 for t in enumerate_triangles(a2)})
    rep = verify_tl(a2, zeros, max_len=2)
    assert not rep.passed(1e-8)
    # collapse blocks are all-zero, so the gram defect is the loop value
    assert rep.residuals["h1"] == pytest.approx(spectral_data(a2).delta)
    assert "collapse block" in rep.worst["h1"]
    assert rep.residuals["sum_rule"] > 1.0


def _assert_sweeps_match(g, cells, max_len: int):
    """verify_tl against the per-grading sweep; returns the library's report."""
    lib, ref = verify_tl(g, cells, max_len), grading_verify_tl(g, cells, max_len)
    assert lib.checks == ref.checks
    assert lib.worst_items == ref.worst_items
    assert lib.lemma_constant == ref.lemma_constant
    assert dict(lib.residual_items).keys() == dict(ref.residual_items).keys()
    for (_, a), (_, b) in zip(lib.residual_items, ref.residual_items):
        assert abs(a - b) <= 1e-15
    if ref.lemma_fit is None:
        assert lib.lemma_fit is None
    else:
        assert lib.lemma_fit == pytest.approx(ref.lemma_fit, rel=1e-12, abs=0.0)
    return lib


@pytest.mark.parametrize("name,max_len", [("a2", 4), ("a3", 3), ("a4", 3), ("a5", 3), ("e5", 4)])
def test_sweeps_match_grading_oracle(name, max_len):
    g = get_graph(name)
    # shipped cells, and complex ones from a random gauge: the batched
    # products must round as the per-grading ones do on both
    shipped = shipped_cells(g)
    for cells in (shipped, gauge_transform(shipped, random_gauge(g, seed=19))):
        rep = _assert_sweeps_match(g, cells, max_len)
        assert rep.passed(1e-8)
        assert verify_adjointness(g, cells, max_len) == grading_verify_adjointness(g, cells, max_len)


@pytest.mark.parametrize(
    "name,max_len", [("a2", 4), ("a3", 3), ("a4", 3), ("a5", 3), ("e5", 4), ("a2", 5)]
)
def test_whole_blocks_check_as_their_windows(name, max_len):
    """verify_tl and the oracle read every check on U blocks as the
    maximum over the windows a grading's paths pass through; here each
    check on the grading's whole blocks is held to that maximum, on
    shipped and gauged cells (a2 at 5 has h2 at distance 3).

    On shipped cells they are equal bit for bit.  On gauged ones the
    whole blocks' products add the same terms in another order: an
    f_square entry near 17 is one ulp (3.6e-15) off, so the bound there
    is 1e-14 (measured at most 4.4e-15)."""
    from su3paths import iter_gradings, path_space_dim

    g = get_graph(name)
    shipped = shipped_cells(g)
    for cells, tol in ((shipped, 0.0), (gauge_transform(shipped, random_gauge(g, seed=19)), 1e-14)):
        memo = {}
        for grading in iter_gradings(g, max_len):
            if not path_space_dim(g, grading):
                continue
            dense, num, den = dense_u_checks(g, cells, grading)
            windows, wnum, wden = window_u_checks(g, cells, grading, memo)
            assert [c[:2] for c in dense] == [c[:2] for c in windows]
            assert all(abs(a - b) <= tol for (_, _, a), (_, _, b) in zip(dense, windows))
            assert (num, den) == pytest.approx((wnum, wden), rel=1e-12, abs=0.0)


def test_sweeps_match_grading_oracle_at_length_5(a2):
    """From length 5 on, h2 pairs slots at distance 3, which touch
    disjoint vertices, and a lemma run can have letters on both sides of
    its window; the sweep equals the oracle there too, also where a NaN
    cell makes those checks NaN."""
    from su3paths.cells import CellSystem

    shipped = shipped_cells(a2)
    for cells in (shipped, gauge_transform(shipped, random_gauge(a2, seed=19))):
        assert _assert_sweeps_match(a2, cells, 5).passed(1e-8)
    items = list(shipped.items)
    items[3] = (items[3][0], complex(math.nan, 0.0))
    cells = CellSystem(graph=a2.name, items=tuple(items))
    rep, ref = verify_tl(a2, cells, 5), grading_verify_tl(a2, cells, 5)
    assert rep.worst_items == ref.worst_items and rep.checks == ref.checks
    failing = [k for k, v in rep.residual_items if math.isnan(v)]
    assert failing == [k for k, v in ref.residual_items if math.isnan(v)]
    assert {"h2", "lemma"} <= set(failing)
    # cells near 1e80: U^2 overflows, so the two-letter h1 windows read
    # +inf, and the far pairs (0.0 times those) NaN
    big = cell_system(a2, {t: 1e80 * v for t, v in shipped.items})
    rep, ref = verify_tl(a2, big, 5), grading_verify_tl(a2, big, 5)
    assert rep.worst_items == ref.worst_items and rep.checks == ref.checks
    assert repr(rep.residual_items) == repr(ref.residual_items)
    assert rep.residuals["h1"] == math.inf and math.isnan(rep.residuals["h2"])


def test_negative_max_len_raises(e5, e5_cells):
    from su3paths import verify_decomposition

    for sweep in (verify_tl, verify_adjointness, verify_decomposition):
        with pytest.raises(ValueError, match="max_len"):
            sweep(e5, e5_cells, -1)
    assert verify_tl(e5, e5_cells, 0).checks == 25
    assert verify_adjointness(e5, e5_cells, 0) == 0.0
    assert verify_decomposition(e5, e5_cells, 0)["gradings"] == len(e5.vertices)


def test_sweep_worst_on_failing_systems(a2, e5, e5_cells):
    # all-zero cells: every collapse block misses [2] 1 by exactly [2], a
    # tie that the first collapse block in grading order wins
    zeros = cell_system(a2, {t: 0.0 for t in enumerate_triangles(a2)})
    rep = _assert_sweeps_match(a2, zeros, 2)
    assert rep.residuals["h1"] == spectral_data(a2).delta
    assert rep.worst["h1"] == "1->3:s i=1 collapse block"
    # one cell off by 1%: a real failure, on several relations
    tri, value = e5_cells.items[0]
    scaled = cell_system(e5, {**e5_cells.values, tri: 1.01 * value})
    rep = _assert_sweeps_match(e5, scaled, 3)
    assert [k for k, v in rep.residual_items if v > 1e-8] == [
        "cupcap", "f_square", "h1", "h3", "sum_rule",
    ]
    assert verify_adjointness(e5, scaled, 3) == grading_verify_adjointness(e5, scaled, 3)
    # one a3 cell at 2.45e77: U^2 overflows on a window ss, so h1 reads
    # +inf there, and a far h2 pair reads 0.0 times it, NaN; no t t u u
    # window is NaN before bbss, so h2 is first NaN on the far pair of
    # bsss (the oracle multiplies the blocks, in which the mixed slot's
    # U is zero, and names bbss)
    a3 = get_graph("a3")
    values = dict(shipped_cells(a3).items)
    values[list(values)[1]] = 2.45e77
    rep = verify_tl(a3, cell_system(a3, values), 4)
    assert rep.residuals["h1"] == math.inf and rep.worst["h1"] == "0,1->0,2:ss i=1"
    assert math.isnan(rep.residuals["h2"]) and rep.worst["h2"] == "0,1->0,2:bsss i=1 j=3"


def test_worst_is_the_first_grading_to_reach_the_maximum(a2):
    from su3paths.operators import _Maxima
    from su3paths.paths import _grading_at

    def at(word, s, where):
        return f"{_grading_at(a2, parse_word(word), s)}{where}"

    # several checks at once: values[c, q] is check c on grading
    # numbers[q], and where[c] is check c's location
    def worst(values, where):
        top = _Maxima(a2, ("h2",))
        top.bump("h2", parse_word("sss"), np.array([7, 20]), np.array(values), where)
        return top.res["h2"], top.worst["h2"]

    # a tie within one grading goes to the earlier check row
    rows = [[1.0, 3.0], [2.0, 3.0], [0.0, 3.0]]
    assert worst(rows, [" a", " b", " c"]) == (3.0, at("sss", 20, " a"))
    # a tie across gradings goes to the lower grading number before the
    # earlier row
    assert worst([[1.0, 2.0], [2.0, 1.0]], [" a", " b"]) == (2.0, at("sss", 7, " b"))
    # the first NaN in (grading, check) order keeps its location
    value, where = worst([[4.0, np.nan], [np.nan, 1.0], [np.nan, np.nan]], [" a", " b", " c"])
    assert math.isnan(value) and where == at("sss", 7, " b")

    # word by word: a later word moves the maximum only from above, so
    # a tie goes to the earlier word
    top = _Maxima(a2, ("h1",))
    top.bump("h1", parse_word("ss"), np.array([3, 9]), np.array([[0.5, 2.0]]), [" i=1"])
    top.bump("h1", parse_word("bb"), np.array([1, 2]), np.array([[2.0, 1.0]]), [" i=1"])
    assert (top.res, top.worst) == ({"h1": 2.0}, {"h1": at("ss", 9, " i=1")})
    top.bump("h1", parse_word("sb"), np.array([1, 2]), np.array([[2.5, 2.5]]), [" i=1"])
    assert (top.res, top.worst) == ({"h1": 2.5}, {"h1": at("sb", 1, " i=1")})
    # a NaN ranks above every number, and the first NaN keeps its
    # location, on later words too
    for word, values in (("ss", [5.0, np.nan]), ("bb", [np.nan, np.nan])):
        top.bump("h1", parse_word(word), np.array([3, 9]), np.array([values]), [" i=1"])
        assert math.isnan(top.res["h1"]) and top.worst["h1"] == at("ss", 9, " i=1")
    top.bump_one("h1", 1e3, "arrows")
    assert math.isnan(top.res["h1"]) and top.worst["h1"] == at("ss", 9, " i=1")


def test_far_pairs_are_nan_where_a_path_crosses_an_unstable_window(a2):
    """The far h2 pairs read NaN on each grading with a path that crosses
    an unstable two-letter window (h1 NaN or +inf) at either slot: the
    walk-count product against the paths themselves, on random sets of
    unstable windows."""
    from su3paths.operators import _Maxima, _bump_far_pairs
    from su3paths.paths import _grading_at, _grading_numbers, _walk_counts, _words

    V = len(a2.vertices)
    tags = (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR)
    for seed in range(4):
        unstable = np.random.default_rng(seed).random((2, V, V)) < 0.1
        for w in (w for w in _words(5) if len(w) >= 4):
            nonzero = np.flatnonzero(_walk_counts(a2, w).ravel())
            letters = np.array([tags.index(t) for t in w])
            top = _Maxima(a2, ("h2",))
            _bump_far_pairs(a2, top, w, nonzero, letters, unstable)
            paths, n = word_paths(a2, w), len(w)
            numbers = _grading_numbers(a2, paths)

            def crosses(i):
                if w[i - 1] is not w[i]:
                    return np.zeros(len(paths), dtype=bool)
                return unstable[letters[i - 1], paths[:, i - 1], paths[:, i + 1]]

            pairs = [(i, j) for i in range(1, n) for j in range(i + 2, n)]
            first = min(
                (
                    (s, k, f" i={i} j={j}")
                    for k, (i, j) in enumerate(pairs)
                    if not (j == i + 2 and w[i - 1] is w[i] and w[j - 1] is w[j])
                    for s in numbers[crosses(i) | crosses(j)].tolist()
                ),
                default=None,
            )
            if first is None:
                assert (top.res["h2"], top.worst["h2"]) == (0.0, "")
            else:
                assert math.isnan(top.res["h2"])
                assert top.worst["h2"] == f"{_grading_at(a2, w, first[0])}{first[2]}"


@pytest.mark.parametrize("name", ["a2", "e5"])
def test_nan_cell_fails_the_sweep_where_it_first_shows(name):
    from su3paths import max_sum_rule_residual
    from su3paths.cells import CellSystem

    # built directly: cell_system would reject the NaN
    g = get_graph(name)
    items = list(shipped_cells(g).items)
    items[3] = (items[3][0], complex(math.nan, 0.0))
    cells = CellSystem(graph=g.name, items=tuple(items))
    assert math.isnan(max_sum_rule_residual(g, cells))
    rep, ref = verify_tl(g, cells, 3), grading_verify_tl(g, cells, 3)
    assert not rep.passed(1e-8)
    assert rep.worst_items == ref.worst_items and rep.checks == ref.checks
    failing = [k for k, v in rep.residual_items if math.isnan(v)]
    assert failing == [k for k, v in ref.residual_items if math.isnan(v)]
    assert {"h1", "sum_rule"} <= set(failing)
    assert all(rep.worst[k] for k in failing)


@pytest.mark.parametrize(
    "words,i", [("sss", 1), ("bbb", 2), ("sbs", 1), ("sss bsb sbb bbs ssb", 2)]
)
def test_stacked_blocks_are_padded_blocks(e5, words, i):
    """A pattern's stack on the gradings of one word, and one gather
    (_gather) over the dimension groups of several words, each slot an
    annihilation or a cup, are the per-grading blocks, zero-padded to
    each group's largest block; bit for bit, on shipped (real) and
    gauged (complex) cells, with the gathered values in the cells'
    dtype."""
    from su3paths.operators import _gather
    from su3paths.paths import _dimension_groups, _grading_at

    g = e5
    shipped = shipped_cells(g)
    words = [parse_word(w) for w in words.split()]
    for cells in (shipped, gauge_transform(shipped, random_gauge(g, 5))):
        if len(words) == 1:
            ann, cu = annihilation_pattern(g, words[0], i), cup_pattern(g, words[0], i)
            numbers = np.flatnonzero(ann.shapes[:, 1])
            for p, block in ((ann, lambda s: ann.block(cells.vector, s)), (cu, cu.block)):
                stack = p.stacked(numbers, cells.vector)
                for q, s in enumerate(numbers.tolist()):
                    m = block(s)
                    assert stack[q][: m.shape[0], : m.shape[1]].tobytes() == m.tobytes()
                    assert not stack[q][m.shape[0] :].any() and not stack[q][:, m.shape[1] :].any()
            continue
        # every group of every word, one part each, in one gather
        parts, blocks = [], []
        for w in words:
            if w[i - 1] is w[i]:
                p, op = annihilation_pattern(g, w, i), annihilation
            else:
                p, op = cup_pattern(g, w, i), cup
            for d, numbers in _dimension_groups(g, w):
                parts.append((p, numbers))
                gradings = [_grading_at(g, w, s) for s in numbers.tolist()]
                blocks.append([op(g, cells, grading, i).matrix for grading in gradings])
        assert len({type(p) for p, _ in parts}) == 2
        got = _gather(parts, cells.vector, cells.dtype)
        assert got.values.dtype == cells.dtype
        row = 0
        for k, ((p, numbers), mine) in enumerate(zip(parts, blocks)):
            h = int(got.heights[k])
            assert h == max(m.shape[0] for m in mine)
            e = (got.r >= row) & (got.r < row + len(numbers))
            part = got.part(k)
            whole = (got.take, got.r - row, got.y, got.x, got.values)
            for a, b in zip(whole, (part.take, part.r, part.y, part.x, part.values)):
                assert a[e].tobytes() == b.tobytes()
            assert np.array_equal(p.rows[part.take], part.y)
            assert np.array_equal(p.cols[part.take], part.x)
            stack = np.zeros((len(numbers), h, mine[0].shape[1]), dtype=cells.dtype)
            stack[part.r, part.y, part.x] = part.values
            for c, m in zip(stack, mine):
                if cells.dtype.kind == "f":
                    assert not m.imag.any()
                    m = m.real
                assert c[: m.shape[0]].tobytes() == m.tobytes() and not c[m.shape[0] :].any()
            row += len(numbers)
        assert (got.r < row).all()


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "a5", "e5"])
def test_patterns_hold_at_most_one_entry_per_column(name):
    """The decomposition gathers each raising candidate C^H s as one
    scaled row of the source basis, which holds only while every column
    of every grading's block has at most one entry: checked on the
    annihilation and cup patterns of every slot of every word to
    length 4."""
    from su3paths.paths import _words

    g = get_graph(name)
    for w in _words(4):
        for i in range(1, len(w)):
            for p in (annihilation_pattern(g, w, i), cup_pattern(g, w, i)):
                counts = np.diff(p.offsets.astype(np.int64))
                grading = np.repeat(np.arange(counts.size), counts)
                cols = p.cols.astype(np.int64)
                assert ((cols >= 0) & (cols < p.shapes[grading, 1])).all()
                keys = grading * max(int(p.shapes[:, 1].max()), 1) + cols
                assert np.unique(keys).size == keys.size, (name, w, i)


def _assert_gram_is_diagonal(c: np.ndarray, dims: np.ndarray, table: np.ndarray):
    """c stacks one zero-padded block per grading, dims[q] rows on grading
    q: C C^H is diagonal, exactly, and its diagonal on the gradings' rows,
    in order, is the table within 4 ulps."""
    cch = c @ c.conj().swapaxes(-1, -2)
    diag = np.diagonal(cch, axis1=1, axis2=2).copy()
    cch[:, np.arange(cch.shape[1]), np.arange(cch.shape[1])] = 0.0
    assert not cch.any()
    rows = np.arange(diag.shape[1]) < dims.astype(int)[:, None]
    assert not diag[~rows].any()
    assert (np.abs(diag[rows] - table) <= 4 * np.spacing(table)).all()


@pytest.mark.parametrize("name,max_len", [("a2", 4), ("a3", 3), ("a4", 3), ("a5", 3), ("e5", 4)])
def test_cup_cap_and_collapse_blocks_are_the_tables(name, max_len):
    """verify_tl reads cup cap and C_i C+_i from per-vertex and per-arrow
    tables; here every cap word's cup and every expanded word's C_i is
    held to them, on shipped and gauged cells."""
    from su3paths.operators import _cap_word, _diagonal_tables, _expanded_word
    from su3paths.paths import _walk_counts, _words

    g = get_graph(name)
    sd = spectral_data(g)
    tags = (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR)
    shipped = shipped_cells(g)
    cupcap, collapse = _diagonal_tables(g, shipped.vector)
    assert np.abs(cupcap - sd.beta).max() <= 1e-12
    for t, row in zip(tags, collapse):
        arrows = _walk_counts(g, (t,)) > 0
        assert np.abs(row[arrows] - sd.delta).max() <= 1e-12 and not row[~arrows].any()

    for cells in (shipped, gauge_transform(shipped, random_gauge(g, seed=23))):
        cupcap, collapse = _diagonal_tables(g, cells.vector)
        for w in _words(max_len):
            dims = _walk_counts(g, w).ravel()
            numbers = np.flatnonzero(dims)
            if not numbers.size:
                continue
            paths, n = word_paths(g, w), len(w)
            for i in range(1, n + 2):
                for k, t in enumerate(tags):
                    p = cup_pattern(g, _cap_word(w, i, t), i)
                    table = cupcap[k, paths[:, i - 1]]
                    _assert_gram_is_diagonal(p.stacked(numbers, cells.vector), dims[numbers], table)
            for i in range(1, n + 1):
                p = annihilation_pattern(g, _expanded_word(w, i), i)
                table = collapse[tags.index(w[i - 1]), paths[:, i - 1], paths[:, i]]
                c = p.stacked(numbers, cells.vector)
                _assert_gram_is_diagonal(c, dims[numbers], table)


def test_sweep_reads_no_word_longer_than_max_len(monkeypatch):
    from su3paths import paths as paths_mod

    g = build_a_graph(2)  # a fresh graph: no word is materialized yet
    assert verify_tl(g, shipped_cells(g), 3).passed(1e-8)
    for fn in (word_paths, cup_pattern, annihilation_pattern):
        words = [key[1] for key in g._memo if key[0] is fn.__wrapped__]
        assert words and max(len(w) for w in words) <= 3
    # past four letters the sweep reads only walk counts: no path array
    # or pattern of a swept word
    g = build_a_graph(2)
    assert verify_tl(g, shipped_cells(g), 6).passed(1e-8)
    for fn in (word_paths, cup_pattern, annihilation_pattern):
        words = [key[1] for key in g._memo if key[0] is fn.__wrapped__]
        assert words and max(len(w) for w in words) <= 4
    # words of length 3 have 24 paths each on a2: capped below that, the
    # sweep to length 2 still runs, with every check
    unbounded = verify_tl(g, shipped_cells(g), 2)
    g = build_a_graph(2)
    monkeypatch.setattr(paths_mod, "MAX_PATH_SPACE", 20)
    capped = verify_tl(g, shipped_cells(g), 2)
    assert capped.passed(1e-8) and capped.checks == unbounded.checks == 763


def test_apply_guards(a2, a2_cells):
    g1 = PathGrading("3", "8", parse_word("ss"))
    op1 = annihilation(a2, a2_cells, g1, 1)
    vec = _cup_path(a2, a2_cells, make_path(a2, ("3", "3b", "3"), "sb"), 1)
    with pytest.raises(GradingMismatch):
        op1.apply(vec)
    with pytest.raises(ValueError):
        annihilation(a2, a2_cells, g1, 2)  # slot out of range


def test_operator_matrix_immutable(a2, a2_cells):
    op = annihilation(a2, a2_cells, PathGrading("3", "8", parse_word("ss")), 1)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0

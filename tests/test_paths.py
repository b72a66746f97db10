"""Elementary paths, gradings, enumeration and path vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3paths import (
    EdgeTag,
    ElementaryPath,
    GradingMismatch,
    PathGrading,
    PathVector,
    concatenate,
    conjugate_graph,
    enumerate_paths,
    get_graph,
    graph_names,
    inner_product,
    is_valid_path,
    iter_gradings,
    make_path,
    parse_word,
    path_space_dim,
    step_is_valid,
    word_str,
    word_type,
)
from su3paths.paths import _row_keys
from oracle import walk_paths


def test_word_parsing_roundtrip():
    w = parse_word("sbbs")
    assert w == (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR, EdgeTag.SIGMA_BAR, EdgeTag.SIGMA)
    assert word_str(w) == "sbbs"
    assert word_type(w) == (2, 2)
    assert parse_word("") == ()
    assert word_type(()) == (0, 0)
    with pytest.raises(ValueError):
        parse_word("sx")


def test_tag_opposite():
    assert EdgeTag.SIGMA.opposite is EdgeTag.SIGMA_BAR
    assert EdgeTag.SIGMA_BAR.opposite is EdgeTag.SIGMA


def test_step_validity(a2):
    assert step_is_valid(a2, "1", "3", EdgeTag.SIGMA)
    assert not step_is_valid(a2, "3", "1", EdgeTag.SIGMA)
    assert step_is_valid(a2, "3", "1", EdgeTag.SIGMA_BAR)  # against the arrow
    assert not step_is_valid(a2, "1", "3", EdgeTag.SIGMA_BAR)


def test_make_path_validation(a2):
    p = make_path(a2, ("3", "3b", "3"), "sb")
    assert is_valid_path(a2, p)
    assert p.grading == PathGrading("3", "3", parse_word("sb"))
    assert (p.start, p.end, p.length) == ("3", "3", 2)
    assert p.type() == (1, 1)
    assert str(p) == "(3 3b 3)"
    with pytest.raises(ValueError):
        make_path(a2, ("3", "6", "3b"), "ss")  # 6->3b is not an arrow
    with pytest.raises(Exception):
        make_path(a2, ("3", "zz"), "s")  # unknown vertex


def test_zero_length_paths(a2):
    g0 = PathGrading("8", "8", ())
    assert path_space_dim(a2, g0) == 1
    (p,) = enumerate_paths(a2, g0)
    assert p.vertices == ("8",) and p.word == ()


def test_enumeration_lexicographic(a2):
    paths = enumerate_paths(a2, PathGrading("3", "3", parse_word("bs")))
    assert [p.vertices for p in paths] == [("3", "1", "3"), ("3", "8", "3")]


def test_dim_matches_enumeration_sweep(a2):
    for grading in iter_gradings(a2, 4):
        dim = path_space_dim(a2, grading)
        assert dim == len(enumerate_paths(a2, grading))


def _oracle_graphs():
    return [get_graph(name) for name in graph_names()] + [conjugate_graph(get_graph("e5"))]


@pytest.mark.parametrize("g", _oracle_graphs(), ids=lambda g: g.name)
def test_enumeration_matches_walk_oracle(g):
    for grading in iter_gradings(g, 4):
        assert enumerate_paths(g, grading) == walk_paths(g, grading), str(grading)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(graph_names()),
    text=st.text(alphabet="sb", max_size=6),
    ends=st.tuples(st.integers(0, 20), st.integers(0, 20)),
)
def test_enumeration_matches_walk_oracle_on_random_words(name, text, ends):
    g = get_graph(name)
    ids = g.vertex_ids()
    a, b = (ids[k % len(ids)] for k in ends)
    grading = PathGrading(a, b, parse_word(text))
    # uncached call, so the basis is rebuilt from the prefix bases
    assert enumerate_paths.__wrapped__(g, grading) == walk_paths(g, grading)


@pytest.mark.parametrize("width", [3, 30], ids=["int64", "python-int"])
def test_row_keys_follow_basis_order(a2, width):
    # a2 vertex indices are not in id order (1, 3b, 6b, 3, 8, 6); rows 30
    # vertices wide need keys past int64
    rows = np.random.default_rng(width).integers(0, 6, size=(300, width)).astype(np.int32)
    keys = _row_keys(a2, rows)
    assert keys.dtype == (np.int64 if width == 3 else object)
    ids = a2.vertex_ids()
    expected = sorted(
        range(len(rows)), key=lambda r: (*rows[r, [0, -1]], [ids[k] for k in rows[r, 1:-1]])
    )
    assert np.argsort(keys, kind="stable").tolist() == expected


def test_dim_example_e5(e5):
    assert path_space_dim(e5, PathGrading("2_0", "2_0", parse_word("bs"))) == 3
    assert path_space_dim(e5, PathGrading("1_0", "2_0", parse_word("bbb"))) == 2
    assert path_space_dim(e5, PathGrading("1_0", "1_0", parse_word("s"))) == 0


def test_iter_gradings_deterministic(a2):
    first = list(iter_gradings(a2, 2))
    second = list(iter_gradings(a2, 2))
    assert first == second
    assert len(first) == len(set(first))
    # 7 words of length <= 2 over 36 vertex pairs
    assert len(first) == 7 * 36


def test_concatenate(a2):
    p = make_path(a2, ("3", "6"), "s")
    q = make_path(a2, ("6", "8"), "s")
    pq = concatenate(p, q)
    assert pq is not None and pq.vertices == ("3", "6", "8") and word_str(pq.word) == "ss"
    assert concatenate(q, p) is None  # endpoints do not match


def test_path_vector_arithmetic(a2):
    grading = PathGrading("3", "3", parse_word("bs"))
    p1, p2 = enumerate_paths(a2, grading)
    v = PathVector.from_path(a2, p1) + 2.0 * PathVector.from_path(a2, p2)
    assert abs(v.norm() - np.sqrt(5.0)) < 1e-12
    assert abs(inner_product(v, PathVector.from_path(a2, p2)) - 2.0) < 1e-12
    assert [(c, i) for c, i in v.support()] == [(1.0, 0), (2.0, 1)]
    w = PathVector.from_terms(a2, [(1.0, p1), (2.0, p2)])
    assert np.allclose(v.coefficients, w.coefficients)


def test_path_vector_grading_mismatch(a2):
    v = PathVector.zero(a2, PathGrading("3", "3", parse_word("bs")))
    w = PathVector.zero(a2, PathGrading("3", "3", parse_word("sb")))
    with pytest.raises(GradingMismatch):
        _ = v + w
    with pytest.raises(GradingMismatch):
        inner_product(v, w)


def test_grading_str():
    assert str(PathGrading("3", "8", parse_word("ss"))) == "3->8:ss"

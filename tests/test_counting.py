"""Walk-count tables: exactness against the plain object-dtype product."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su3paths.paths as paths_mod
from su3paths import (
    EdgeTag,
    PathCountMismatch,
    PathGrading,
    PathSpaceTooLarge,
    adjacency_matrix,
    annihilation_pattern,
    build_a_graph,
    conjugate_graph,
    cup,
    enumerate_paths,
    get_graph,
    graph_names,
    parse_word,
    path_space_dim,
    shipped_cells,
    word_paths,
)


def oracle_counts(g, word):
    """Ordered product of step matrices in exact Python ints."""
    a = adjacency_matrix(g).astype(object)
    m = np.eye(len(g.vertices), dtype=object)
    for tag in word:
        m = m @ (a if tag is EdgeTag.SIGMA else a.T)
    return m


def words_up_to(max_len):
    for n in range(max_len + 1):
        for tags in itertools.product((EdgeTag.SIGMA, EdgeTag.SIGMA_BAR), repeat=n):
            yield tags


@pytest.mark.parametrize("name", graph_names())
def test_counts_match_oracle_and_enumeration(name):
    g = get_graph(name)
    ids = g.vertex_ids()
    for word in words_up_to(4):
        oracle = oracle_counts(g, word)
        for (i, a), (j, b) in itertools.product(enumerate(ids), repeat=2):
            grading = PathGrading(a, b, word)
            dim = path_space_dim(g, grading)
            assert type(dim) is int
            assert dim == oracle[i, j]
            # uncached call: the enumeration re-checks itself against the count
            assert len(enumerate_paths.__wrapped__(g, grading)) == dim


@pytest.mark.parametrize("length", [45, 64])
def test_long_constant_words_stay_exact(length):
    g = get_graph("a5")  # row sums up to 3, so counts outgrow int64
    ids = g.vertex_ids()
    for tag in "sb":
        word = parse_word(tag * length)
        oracle = oracle_counts(g, word)
        for (i, a), (j, b) in itertools.product(enumerate(ids), repeat=2):
            dim = path_space_dim(g, PathGrading(a, b, word))
            assert type(dim) is int
            assert dim == oracle[i, j]
    if length == 64:
        assert max(oracle.ravel()) > 2**63  # beyond int64


def test_enumeration_count_mismatch_is_a_typed_error(a2, monkeypatch):
    grading = PathGrading("1", "3", parse_word("s"))
    counted = paths_mod.path_space_dim
    # a wrong count for this grading only: its prefix gradings count right
    monkeypatch.setattr(
        paths_mod, "path_space_dim", lambda g, gr: 2 if gr == grading else counted(g, gr)
    )
    with pytest.raises(PathCountMismatch, match=re.escape(f"enumerated 1 paths on {grading},")):
        enumerate_paths.__wrapped__(a2, grading)
    assert issubclass(PathCountMismatch, RuntimeError)


def test_path_space_cap_bounds_the_word(monkeypatch):
    g = build_a_graph(2)  # a fresh graph: no word is materialized yet
    cells = shipped_cells(g)
    # every a2 word of length 2 has 15 paths, every word of length 3 has 24
    monkeypatch.setattr(paths_mod, "MAX_PATH_SPACE", 20)
    assert len(word_paths(g, parse_word("sb"))) == 15
    grading = PathGrading("1", "3", parse_word("sbs"))
    assert path_space_dim(g, grading) == 2  # the grading is small, its word is not
    for call in (
        lambda: enumerate_paths(g, grading),
        lambda: annihilation_pattern(g, parse_word("ssb"), 1),
        lambda: cup(g, cells, grading, 1),
    ):
        with pytest.raises(PathSpaceTooLarge, match=r"has 24 paths on a2 \(cap 20\)"):
            call()
    # the cap is checked against the walk counts, before any row is grown
    assert not any(len(key[1]) == 3 for key in g._memo if key[0] is word_paths.__wrapped__)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(graph_names()),
    text=st.text(alphabet="sb", max_size=8),
    ends=st.tuples(st.integers(0, 20), st.integers(0, 20)),
)
def test_dim_invariant_under_conjugation(name, text, ends):
    g = get_graph(name)
    ids = g.vertex_ids()
    a, b = (ids[k % len(ids)] for k in ends)
    word = parse_word(text)
    flipped = tuple(t.opposite for t in word)
    assert path_space_dim(g, PathGrading(a, b, word)) == path_space_dim(
        conjugate_graph(g), PathGrading(a, b, flipped)
    )

"""Hashing, pickling and word coercion of the frozen value types, and the
lifetime of the data cached on graphs and cell systems."""

import copy
import gc
import os
import pickle
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

import su3paths
from su3paths import (
    EdgeTag,
    ElementaryPath,
    PathGrading,
    annihilation,
    annihilation_pattern,
    build_a_graph,
    cap_grading,
    cap_oriented,
    conjugate_graph,
    creation,
    cup,
    cup_pattern,
    enumerate_paths,
    essential_dims,
    expanded_grading,
    gauge_transform,
    get_graph,
    graph_from_dict,
    graph_names,
    graph_to_dict,
    parse_word,
    path_space_dim,
    random_gauge,
    shipped_cells,
    spectral_data,
    word_paths,
)


def assert_same_key(x, y):
    assert x is not y
    assert x == y
    assert hash(x) == hash(y)
    assert {x: "found"}[y] == "found"


@pytest.mark.parametrize("name", graph_names())
def test_equal_graphs_hash_equal(name):
    g = get_graph(name)
    first = g.vertex_ids()[0]
    path_space_dim(g, PathGrading(first, first, ()))  # fills the per-instance caches
    for twin in (
        graph_from_dict(graph_to_dict(g)),
        conjugate_graph(conjugate_graph(g)),
        replace(g),
        copy.deepcopy(g),
        pickle.loads(pickle.dumps(g)),
    ):
        assert_same_key(g, twin)


def test_equal_cell_systems_hash_equal(a2):
    cells = shipped_cells(a2)
    assert weakref.ref(cells)() is cells
    cells.values  # fills the per-instance cache
    for twin in (
        shipped_cells(build_a_graph(2)),  # built separately, from the file
        replace(cells),
        replace(cells, seed=cells.seed),
        cells.with_residuals(cells.residuals, cells.warnings),
        pickle.loads(pickle.dumps(cells)),
    ):
        assert_same_key(cells, twin)
        assert twin.values == cells.values
    assert replace(cells, seed=12345) != cells


_CHILD = """
import pickle, sys
from su3paths import PathGrading, get_graph, parse_word, path_space_dim, shipped_cells

with open(sys.argv[1], "rb") as fh:
    g, cells, grading = pickle.load(fh)
fresh_g = get_graph("e5")
fresh_cells = shipped_cells(fresh_g)
fresh_grading = PathGrading("1_0", "1_0", parse_word("sb"))
assert g == fresh_g and hash(g) == hash(fresh_g)
assert cells == fresh_cells and hash(cells) == hash(fresh_cells)
assert grading == fresh_grading and hash(grading) == hash(fresh_grading)
table = {fresh_g: "graph", fresh_cells: "cells", fresh_grading: "grading"}
assert table[g] == "graph" and table[cells] == "cells" and table[grading] == "grading"
assert g.has_edge("1_0", "2_1") and g.out_neighbors("1_0") == ("2_1",)
assert path_space_dim(g, PathGrading("1_0", "2_1", parse_word("s"))) == 1
assert cells.values == fresh_cells.values
print("ok")
"""


def test_unpickled_objects_rehash_under_another_hash_seed(tmp_path):
    g = get_graph("e5")
    cells = shipped_cells(g)
    # fill every per-instance cache before pickling
    hash(g)
    hash(cells)
    cells.values
    path_space_dim(g, PathGrading("1_0", "2_1", parse_word("sb")))
    grading = PathGrading("1_0", "1_0", parse_word("sb"))
    assert enumerate_paths(g, grading)
    like = PathGrading("1_0", "2_2", parse_word("ss"))
    assert annihilation(g, cells, like, 1).shape[1] == path_space_dim(g, like)
    assert g.has_edge("1_0", "2_1") and g.out_neighbors("2_1")
    # the graph keeps its patterns and paths; nothing is memoized on the cells
    assert g._memo
    for obj in (g, cells, grading):
        assert "_hash" in vars(obj)
        assert "_memo" not in obj.__getstate__() and "_hash" not in obj.__getstate__()
    blob = tmp_path / "objects.pkl"
    blob.write_bytes(pickle.dumps((g, cells, grading)))
    seed = os.environ.get("PYTHONHASHSEED")
    src = os.path.dirname(os.path.dirname(su3paths.__file__))
    env = dict(
        os.environ,
        PYTHONHASHSEED="2" if seed == "1" else "1",
        PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(blob)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_cached_data_dies_with_its_owner():
    """Blocks and graph data need no cycle collection: they are freed
    as soon as the last reference to their owner goes."""
    g = build_a_graph(2)
    cells = gauge_transform(shipped_cells(g), random_gauge(g, 7))
    grading = PathGrading("1", "3b", parse_word("ss"))
    closing = cap_grading(grading, 1, EdgeTag.SIGMA_BAR)
    # creation and cap keep nothing: each call returns the conjugate
    # transpose of the annihilation or cup block it is built from
    blocks = [
        annihilation(g, cells, grading, 1),
        annihilation(g, cells, expanded_grading(grading, 1), 1),
        cup(g, cells, PathGrading("3", "3", parse_word("sb")), 1),
        cup(g, cells, closing, 1),
    ]
    assert all(b.matrix.any() for b in blocks)
    built = [
        creation(g, cells, grading, 1),
        cap_oriented(g, cells, grading, 1, EdgeTag.SIGMA_BAR),
    ]
    assert [(b.domain, b.codomain, b.kind) for b in built] == [
        (grading, blocks[1].domain, "CREATION"),
        (grading, closing, "CAP"),
    ]
    assert all(np.array_equal(b.matrix, a.matrix.conj().T) for b, a in zip(built, blocks[1::2]))
    # no block is kept: each call scatters a fresh, equal block
    for again, block in [
        (annihilation(g, cells, grading, 1), blocks[0]),
        (cup(g, cells, closing, 1), blocks[3]),
    ]:
        assert again is not block and again.matrix.tobytes() == block.matrix.tobytes()
    # the cell-free patterns and the path arrays are the graph's
    number = g.index(grading.start) * len(g.vertices) + g.index(grading.end)
    pattern = annihilation_pattern(g, grading.word, 1)
    assert pattern is annihilation_pattern(g, grading.word, 1)
    assert np.array_equal(pattern.block(cells.vector, number), blocks[0].matrix)
    returns = cup_pattern(g, closing.word, 1)
    assert returns is cup_pattern(g, closing.word, 1)
    assert np.array_equal(returns.block(number), blocks[3].matrix)
    rows = word_paths(g, closing.word)
    assert rows is word_paths(g, closing.word) and not rows.flags.writeable
    dropped = [weakref.ref(b) for b in blocks]
    graph_held = [weakref.ref(x) for x in (spectral_data(g), pattern, returns, rows)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del blocks, built, again, block, pattern, returns, rows
        assert [r() for r in dropped] == [None] * len(dropped)
        del cells
        assert all(r() is not None for r in graph_held)  # the graph holds them
        del g
        assert [r() for r in graph_held] == [None] * len(graph_held)
    finally:
        if enabled:
            gc.enable()


def test_word_kernels_die_with_their_cells():
    """essential_dims keeps each word's kernels on the cell system, so a
    sweep over many cell systems of one graph grows nothing on the graph,
    and a dropped system takes its kernels with it."""
    g = build_a_graph(2)
    base = shipped_cells(g)
    sizes = []
    for seed in range(20):
        cells = gauge_transform(base, random_gauge(g, seed))
        for tp in [(1, 0), (2, 0), (1, 1), (0, 2)]:
            assert essential_dims(g, cells, tp).matches_fusion
        assert cells._memo
        sizes.append(len(g._memo))
    assert sizes == [sizes[0]] * len(sizes)
    kernels = [weakref.ref(pool.basis) for entry in cells._memo.values() for pool in entry.pools]
    dropped = weakref.ref(cells)
    del cells
    gc.collect()
    assert dropped() is None
    assert [r() for r in kernels] == [None] * len(kernels)


def test_typed_words_are_kept():
    word = parse_word("sb")
    vertices = ("3", "3b", "3")
    p = ElementaryPath(vertices, word)
    assert p.word is word and p.vertices is vertices
    assert PathGrading("3", "3", word).word is word


@pytest.mark.parametrize(
    "word", ["sb", ["s", "b"], ("s", "b"), [EdgeTag.SIGMA, "b"], (EdgeTag.SIGMA, "b")]
)
def test_untyped_words_are_coerced(word):
    expected = (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR)
    for made in (ElementaryPath(["3", "3b", "3"], word), PathGrading("3", "3", word)):
        assert made.word == expected
        assert type(made.word) is tuple
        assert all(type(t) is EdgeTag for t in made.word)
    assert ElementaryPath(["3", "3b", "3"], word).vertices == ("3", "3b", "3")


def test_bad_words_and_lengths_raise():
    for word in ("sx", ("s", "x"), ["b", 1]):
        with pytest.raises(ValueError):
            ElementaryPath(("3", "3b", "3"), word)
        with pytest.raises(ValueError):
            PathGrading("3", "3", word)
    with pytest.raises(ValueError):
        ElementaryPath(("3", "3b"), parse_word("sb"))
    with pytest.raises(ValueError):
        ElementaryPath(("3", "3b", "3"), parse_word("s"))
    with pytest.raises(ValueError):
        ElementaryPath(("3", "3b", "3"), "s")

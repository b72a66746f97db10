"""Fusion / module-action matrices from the adjacency recursion."""

import numpy as np
import pytest

from su3paths import (
    GraphError,
    adjacency_matrix,
    admissible_triangles,
    fusion_matrices,
    fusion_matrix,
    fusion_table,
    get_graph,
)


def test_base_cases(a2):
    a = adjacency_matrix(a2)
    assert np.array_equal(fusion_matrix(a2, (0, 0)).matrix, np.eye(6, dtype=int))
    assert np.array_equal(fusion_matrix(a2, (1, 0)).matrix, a)
    assert np.array_equal(fusion_matrix(a2, (0, 1)).matrix, a.T)


def test_conjugate_transpose_rule():
    for name in ("a3", "a4", "e5"):
        g = get_graph(name)
        for d in range(2, min(g.level, 3) + 1):
            assert np.array_equal(
                fusion_matrix(g, (0, d)).matrix, fusion_matrix(g, (d, 0)).matrix.T
            )


def test_recursion_spot_check(a3):
    # sigma (x) F_(1,0) = F_(2,0) + F_(0,1)
    a = adjacency_matrix(a3)
    lhs = a @ a
    rhs = fusion_matrix(a3, (2, 0)).matrix + fusion_matrix(a3, (0, 1)).matrix
    assert np.array_equal(lhs, rhs)
    # sigma (x) F_(1,1) = F_(2,1) + F_(0,2) + F_(1,0)
    lhs = a @ fusion_matrix(a3, (1, 1)).matrix
    rhs = (
        fusion_matrix(a3, (2, 1)).matrix
        + fusion_matrix(a3, (0, 2)).matrix
        + fusion_matrix(a3, (1, 0)).matrix
    )
    assert np.array_equal(lhs, rhs)


def test_non_negative_within_level():
    for name in ("a2", "a3", "a4", "a5", "e5"):
        g = get_graph(name)
        for tp, f in fusion_matrices(g, min(g.level, 3)).items():
            assert f.matrix.min() >= 0, (name, tp)
            assert f.matrix.dtype == np.int64


def test_beyond_level_raises(a2):
    with pytest.raises(GraphError):
        fusion_matrix(a2, (2, 1))
    with pytest.raises(GraphError):
        fusion_matrices(a2, 3)


def test_negative_type_component_raises(a2):
    for tp in [(-1, 2), (2, -1)]:
        with pytest.raises(GraphError, match="non-negative"):
            fusion_matrix(a2, tp)
        with pytest.raises(GraphError, match="non-negative"):
            admissible_triangles(a2, tp)


def test_a2_self_fusion_diagonal(a2):
    table = fusion_table(a2)
    assert table[("1", "3")] == {"3": 1}
    assert table[("3", "3")] == {"3b": 1, "6": 1}
    assert table[("3", "3b")] == {"1": 1, "8": 1}
    assert table[("8", "8")] == {"1": 1, "8": 1}
    # commutativity
    for (x, y), row in table.items():
        assert table[(y, x)] == row


def test_module_graph_has_no_self_fusion(e5):
    with pytest.raises(GraphError) as err:
        fusion_table(e5)
    assert "module" in str(err.value)


def test_e5_module_action_frozen(e5):
    f11 = fusion_matrix(e5, (1, 1))
    f03 = fusion_matrix(e5, (0, 3))
    for i in range(6):
        assert f11.entry(e5, f"2_{i}", f"2_{i}") == 2
        assert f11.entry(e5, f"1_{i}", f"1_{i}") == 0
        assert f03.entry(e5, f"1_{i}", f"1_{(i + 3) % 6}") == 1
        assert f03.entry(e5, f"1_{i}", f"2_{i}") == 0
    assert int(f11.matrix.sum()) == 48


def test_admissible_triangles(a2):
    tris = admissible_triangles(a2, (1, 1))
    assert all(m >= 1 for _, _, _, m in tris)
    f = fusion_matrix(a2, (1, 1))
    assert sum(m for _, _, _, m in tris) == int(f.matrix.sum())
    assert (("3", (1, 1), "3", 1)) in tris

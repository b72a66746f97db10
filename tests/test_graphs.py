"""Graph registry, spectral data, q-numbers and serialization."""

import json
import math

import numpy as np
import pytest

from su3paths import (
    GraphError,
    adjacency_matrix,
    build_a_graph,
    conjugate_graph,
    get_graph,
    graph_from_dict,
    graph_names,
    graph_to_dict,
    load_graph,
    loop_parameter,
    q_dim_triangular,
    q_number,
    save_graph,
    spectral_data,
    validate_graph,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# (name, kappa, level, vertices, arrows)
REGISTRY = [
    ("a2", 5, 2, 6, 9),
    ("a3", 6, 3, 10, 18),
    ("a4", 7, 4, 15, 30),
    ("a5", 8, 5, 21, 45),
    ("e5", 8, 5, 12, 24),
]


def test_registry_shapes():
    assert list(graph_names()) == [r[0] for r in REGISTRY]
    for name, kappa, level, nv, ne in REGISTRY:
        g = get_graph(name)
        assert (g.kappa, g.level) == (kappa, level)
        assert len(g.vertices) == nv
        assert len(g.sigma_edges) == ne
        validate_graph(g)


def test_get_graph_spellings_share_one_graph():
    for name in graph_names():
        assert get_graph(name.upper()) is get_graph(name)


def test_get_graph_unknown():
    with pytest.raises(GraphError):
        get_graph("f4")


def test_beta_closed_forms():
    expected = {
        "a2": PHI,
        "a3": 2.0,
        "a4": 1.0 + 2.0 * math.cos(2.0 * math.pi / 7.0),
        "a5": 1.0 + math.sqrt(2.0),
        "e5": 1.0 + math.sqrt(2.0),
    }
    for name, val in expected.items():
        g = get_graph(name)
        sd = spectral_data(g)
        assert abs(sd.beta - val) < 1e-10
        assert abs(sd.beta - (1.0 + 2.0 * math.cos(2.0 * math.pi / g.kappa))) < 1e-10
        # beta is the top eigenvalue of the adjacency matrix
        eigs = np.linalg.eigvals(adjacency_matrix(g).astype(float))
        assert abs(sd.beta - max(abs(eigs))) < 1e-9


def test_delta_is_q2():
    for name in graph_names():
        g = get_graph(name)
        sd = spectral_data(g)
        assert abs(sd.delta - 2.0 * math.cos(math.pi / g.kappa)) < 1e-12
        assert abs(sd.delta - loop_parameter(g.kappa)) < 1e-12
        assert abs(loop_parameter(g.kappa) - q_number(2, g.kappa)) < 1e-12


def test_mu_normalization_and_positivity():
    for name in graph_names():
        g = get_graph(name)
        mu = spectral_data(g).mu
        vals = [mu[v] for v in g.vertex_ids()]
        assert min(vals) == 1.0  # smallest entry pinned exactly
        assert all(v > 0 for v in vals)


def test_mu_is_pf_eigenvector():
    for name in graph_names():
        g = get_graph(name)
        sd = spectral_data(g)
        A = adjacency_matrix(g).astype(float)
        v = np.array([sd.mu[x] for x in g.vertex_ids()])
        assert np.max(np.abs(A @ v - sd.beta * v)) < 1e-9


def test_mu_matches_q_dimension_on_a_graphs():
    for name in ("a2", "a3", "a4", "a5"):
        g = get_graph(name)
        sd = spectral_data(g)
        for vtx in g.vertices:
            assert vtx.tri is not None
            assert abs(sd.mu[vtx.id] - q_dim_triangular(vtx.tri, g.kappa)) < 1e-10


def test_q_numbers():
    assert abs(q_number(1, 5) - 1.0) < 1e-15
    assert abs(q_number(2, 5) - PHI) < 1e-12
    assert abs(q_number(3, 5) - PHI) < 1e-12  # [n] = [kappa-n]
    assert abs(q_number(2, 6) - math.sqrt(3.0)) < 1e-12
    assert abs(q_number(3, 6) - 2.0) < 1e-12
    for kappa in (5, 6, 7, 8):
        for n in range(1, kappa):
            assert abs(q_number(n, kappa) - q_number(kappa - n, kappa)) < 1e-12
        assert abs(q_number(kappa, kappa)) < 1e-12


def test_e5_arrow_structure(e5):
    # four arrow families, indices mod 6
    for i in range(6):
        assert e5.has_edge(f"1_{i}", f"2_{(i + 1) % 6}")
        assert e5.has_edge(f"2_{i}", f"2_{(i + 1) % 6}")
        assert e5.has_edge(f"2_{i}", f"2_{(i + 4) % 6}")
        assert e5.has_edge(f"2_{i}", f"1_{(i + 4) % 6}")
        assert len(e5.out_neighbors(f"1_{i}")) == 1
        assert len(e5.out_neighbors(f"2_{i}")) == 3
    mu = spectral_data(e5).mu
    beta = spectral_data(e5).beta
    for i in range(6):
        assert abs(mu[f"1_{i}"] - 1.0) < 1e-10
        assert abs(mu[f"2_{i}"] - beta) < 1e-10


def test_a2_alcove_ids(a2):
    assert set(a2.vertex_ids()) == {"1", "3", "6", "3b", "6b", "8"}
    # sigma arrows follow the three alcove moves
    assert a2.has_edge("1", "3") and a2.has_edge("3", "6") and a2.has_edge("6", "8")
    assert a2.has_edge("3", "3b") and a2.has_edge("3b", "1") and a2.has_edge("8", "3")
    mu = spectral_data(a2).mu
    assert abs(mu["3"] - PHI) < 1e-10 and abs(mu["8"] - PHI) < 1e-10
    assert abs(mu["1"] - 1.0) < 1e-10 and abs(mu["6"] - 1.0) < 1e-10


def test_build_a_graph_counts():
    for level in range(1, 6):
        g = build_a_graph(level)
        n = (level + 1) * (level + 2) // 2
        assert len(g.vertices) == n
        validate_graph(g)


def test_conjugate_graph():
    for name in graph_names():
        g = get_graph(name)
        gc = conjugate_graph(g)
        assert conjugate_graph(gc) == g  # involution
        assert np.array_equal(adjacency_matrix(gc), adjacency_matrix(g).T)
        assert abs(spectral_data(g).beta - spectral_data(gc).beta) < 1e-12


def test_serialization_roundtrip(tmp_path):
    for name in graph_names():
        g = get_graph(name)
        d = graph_to_dict(g)
        assert set(d) >= {"name", "kappa", "vertices", "sigma_edges"}
        assert graph_from_dict(d) == g
        p = tmp_path / f"{name}.json"
        save_graph(g, str(p))
        assert load_graph(str(p)) == g
    # file is plain JSON with the documented keys
    raw = json.loads((tmp_path / "e5.json").read_text())
    assert raw["kappa"] == 8
    assert ["1_0", None] not in raw["vertices"]  # vertices are objects


def test_load_graph_validates(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "x", "kappa": 5, "vertices": [], "sigma_edges": []}))
    with pytest.raises(GraphError):
        load_graph(str(p))


def _a2_with_short_tri() -> str:
    d = graph_to_dict(get_graph("a2"))
    d["vertices"][0]["tri"] = [1]
    return json.dumps(d)


@pytest.mark.parametrize(
    "text", [_a2_with_short_tri(), "{not json"], ids=["tri-not-a-pair", "not-json"]
)
def test_corrupt_graph_file_is_a_typed_error(tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    with pytest.raises(GraphError):
        load_graph(str(p))

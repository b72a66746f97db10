"""Triangular cells: enumeration, sum rule, solver, gauges, persistence."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from su3paths import (
    CellFileError,
    EdgeTag,
    GraphError,
    OrientedTriangle,
    build_a_graph,
    canonical_gauge,
    cell_system,
    cells,
    collapsed_cell,
    conjugate_graph,
    enumerate_triangles,
    gauge_transform,
    get_graph,
    graph_names,
    load_cells,
    max_sum_rule_residual,
    random_gauge,
    save_cells,
    shipped_cells,
    solve_cells,
    spectral_data,
    sum_rule_residuals,
    verify_tl,
)
from su3paths.cells import (
    _SOLVER_STARTS,
    CellSolveError,
    _checksum_payload,
    _Relations,
    cells_to_dict,
)
from su3paths.cli import dispatch
from su3paths.operators import _window_tables
from su3paths.paths import _dimension_groups

PHI = (1.0 + math.sqrt(5.0)) / 2.0
SQRT_PHI = math.sqrt(PHI)

# E5 cell magnitudes in the shipped gauge (delta = 2cos(pi/8), beta = 1+sqrt(2))
E5_T1 = 2.1120807263867414  # sqrt(delta*beta), corner triangles
E5_T2 = 1.7760411115452706  # sqrt(delta*beta/sqrt(2)), skew triangles
E5_TC = 2.7595664559263464  # sqrt(delta*beta*(1+sqrt(2)/2)), center triangles


def test_triangle_counts():
    for name, n in [("a2", 4), ("a3", 9), ("a4", 16), ("a5", 25), ("e5", 14)]:
        assert len(enumerate_triangles(get_graph(name))) == n


def test_oriented_triangle_rotation():
    t = OrientedTriangle(("3", "3b", "8"))
    assert OrientedTriangle(("3b", "8", "3")) == t
    assert OrientedTriangle(("8", "3", "3b")) == t
    assert t.vertices[0] == min(t.vertices)
    assert OrientedTriangle(("3", "8", "3b")) != t  # reflection is a different cycle
    assert set(t.edges()) == {("3", "3b"), ("3b", "8"), ("8", "3")}


def test_collapsed_cell(a2):
    mu = spectral_data(a2).mu
    assert abs(collapsed_cell(a2, "3", "6") - math.sqrt(mu["3"] * mu["6"])) < 1e-12


def test_shipped_a2_values(a2, a2_cells):
    assert abs(a2_cells.cell("1", "3", "3b") - PHI) < 1e-9
    assert abs(a2_cells.cell("3", "6", "8") - PHI) < 1e-9
    assert abs(a2_cells.cell("3b", "8", "6b") - PHI) < 1e-9
    assert abs(a2_cells.cell("3", "3b", "8") - SQRT_PHI) < 1e-9
    # rotation-invariant lookup
    assert a2_cells.cell("8", "3", "3b") == a2_cells.cell("3", "3b", "8")
    assert max_sum_rule_residual(a2, a2_cells) < 1e-9


def test_shipped_e5_values(e5, e5_cells):
    vals = dict(e5_cells.items)
    negatives = [(t, v) for t, v in vals.items() if v.real < 0]
    assert len(negatives) == 1
    tri, val = negatives[0]
    assert tri == OrientedTriangle(("2_3", "2_4", "2_5"))
    assert abs(val - (-E5_T2)) < 1e-9
    assert all(abs(v.imag) < 1e-9 for v in vals.values())
    mags = sorted(abs(v) for v in vals.values())
    # 6 skew, 6 corner, 2 center
    assert np.allclose(mags[:6], E5_T2, atol=1e-9)
    assert np.allclose(mags[6:12], E5_T1, atol=1e-9)
    assert np.allclose(mags[12:], E5_TC, atol=1e-9)
    assert max_sum_rule_residual(e5, e5_cells) < 1e-9


def test_sum_rule_per_arrow(a2, a2_cells):
    sd = spectral_data(a2)
    res = sum_rule_residuals(a2, a2_cells)
    assert set(res) == set(a2.sigma_edges)
    assert max(res.values()) < 1e-9
    # the rule itself: sum over triangles through an arrow of |T|^2 = delta*mu*mu
    tot = sum(
        abs(v) ** 2
        for t, v in a2_cells.items
        if ("3", "3b") in t.edges()
    )
    assert abs(tot - sd.delta * sd.mu["3"] * sd.mu["3b"]) < 1e-9


def test_all_shipped_graphs_pass_sum_rule():
    for name in ("a2", "a3", "a4", "a5", "e5"):
        g = get_graph(name)
        cs = shipped_cells(g)
        assert max_sum_rule_residual(g, cs) < 1e-9
        assert not cs.warnings


def test_a_type_cells_positive():
    for name in ("a3", "a4"):
        g = get_graph(name)
        cs = shipped_cells(g)
        assert all(v.real > 0 and abs(v.imag) < 1e-9 for _, v in cs.items)


def test_solver_deterministic_and_matches_shipped(a2, a2_cells):
    c1 = solve_cells(a2, seed=0)
    c2 = solve_cells(a2, seed=0)
    assert c1.items == c2.items
    for tri, v in c1.items:
        assert abs(v - dict(a2_cells.items)[tri]) < 1e-6


def test_solver_other_seed_same_canonical_values(a2, a2_cells):
    c = solve_cells(a2, seed=7)
    for tri, v in c.items:
        assert abs(v - dict(a2_cells.items)[tri]) < 1e-6


SOLVE_RESIDUALS = ("cupcap", "f_square", "h1", "h2", "h3", "h4", "lemma", "sum_rule")


def _assert_shipped_e5(c, e5_cells):
    assert [tri for tri, _ in c.items] == [tri for tri, _ in e5_cells.items]
    assert np.abs(c.vector - e5_cells.vector).max() < 1e-9
    for key in SOLVE_RESIDUALS:
        assert c.residuals[key] < 1e-8, key
    assert not c.warnings


def _counted_fits(monkeypatch):
    """Wrap cells._levenberg_marquardt; returns the list of Jacobian
    evaluation counts, one entry per fit."""
    lm = cells._levenberg_marquardt
    fits = []

    def counted(fun, jac, x0):
        def counted_jac(x):
            fits[-1] += 1
            return jac(x)

        fits.append(0)
        return lm(fun, counted_jac, x0)

    monkeypatch.setattr(cells, "_levenberg_marquardt", counted)
    return fits


def test_solver_reaches_the_optimizer_on_e5(e5, e5_cells, monkeypatch):
    # the positive-real start fails on e5, so Levenberg-Marquardt has to run
    fits = _counted_fits(monkeypatch)
    c = solve_cells(e5, seed=1)
    assert fits and fits[0] > 0
    _assert_shipped_e5(c, e5_cells)


@pytest.mark.parametrize("seed", range(8))
def test_every_seed_reaches_the_shipped_e5_cells(e5, e5_cells, seed):
    _assert_shipped_e5(solve_cells(e5, seed=seed), e5_cells)


def test_solver_gives_up_after_its_starts(e5, monkeypatch):
    fits = _counted_fits(monkeypatch)
    with pytest.raises(CellSolveError) as info:
        solve_cells(e5, seed=3, tol=1e-30)
    assert len(fits) == _SOLVER_STARTS
    best = info.value.residuals["best"]
    assert 0.0 < best < 1e-8
    assert f"{best:.3e}" in str(info.value)


def test_cli_solves_e5_without_scipy(e5_cells):
    # None in sys.modules makes every import of scipy raise ImportError
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from su3paths.cli import main\n"
        "sys.exit(main(['cells', 'solve', 'e5', '--seed', '1', '--json']))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    rows = json.loads(out.stdout)["cells"]
    solved = np.array([complex(row["re"], row["im"]) for row in rows])
    assert np.abs(solved - e5_cells.vector).max() < 1e-9


def test_every_conjugate_e5_seed_solves(e5, monkeypatch):
    # reversing every arrow trades the sss and bbb windows' patterns, so
    # the plain and the conjugated Jacobian entries trade windows too
    fits = _counted_fits(monkeypatch)
    g = conjugate_graph(e5)
    for seed in range(8):
        fits.clear()
        c = solve_cells(g, seed=seed)
        assert fits and fits[0] > 0, seed
        for key in SOLVE_RESIDUALS:
            assert c.residuals[key] < 1e-8, (seed, key)
        assert not c.warnings


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_solver_rejects_a_tolerance_that_is_not_finite_and_positive(e5, monkeypatch, tol):
    # no residual compares above NaN or infinity: such a tol would pass
    # the positive-real candidate, which does not solve e5
    fits = _counted_fits(monkeypatch)
    with pytest.raises(ValueError, match="finite and positive"):
        solve_cells(e5, tol=tol)
    assert fits == []
    res = dispatch(["cells", "solve", "e5", "--tol", str(tol), "--json"])
    assert res.status == 1 and "finite and positive" in res.payload["error"]


def _graph(name):
    """A shipped graph by name, its conjugate for a trailing '~'."""
    return conjugate_graph(get_graph(name[:-1])) if name.endswith("~") else get_graph(name)


@pytest.mark.parametrize("name", [*graph_names(), "e5~"])
def test_solver_jacobian_matches_central_differences(name):
    g = _graph(name)
    relations = _Relations(g)
    k = len(enumerate_triangles(g))
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(2):
        t = rng.normal(size=k) + 1j * rng.normal(size=k)
        x = np.concatenate([t.real, t.imag])
        step = h * np.eye(2 * k)
        numeric = np.column_stack(
            [(relations.residual(x + e) - relations.residual(x - e)) / (2 * h) for e in step]
        )
        analytic = relations.jacobian(x)
        assert analytic.shape == numeric.shape == (len(relations.residual(x)), 2 * k)
        assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(numeric).max()


@pytest.mark.parametrize("name", ["a2", "e5"])
def test_solver_fits_the_sweeps_h3_relation(name):
    # after the sum-rule rows come the h3 rows of sss, then of bbb, a
    # dimension group at a time: real parts, then imaginary parts
    g = get_graph(name)
    relations = _Relations(g)
    k = len(enumerate_triangles(g))
    rng = np.random.default_rng(23)
    for _ in range(2):
        t = rng.normal(size=k) + 1j * rng.normal(size=k)
        rows = relations.residual(np.concatenate([t.real, t.imag]))[len(g.sigma_edges) :]
        tables = _window_tables(g, t, t.dtype, 3)["h3"].reshape(2, -1)
        for tag in (EdgeTag.SIGMA, EdgeTag.SIGMA_BAR):
            for d, numbers in _dimension_groups(g, (tag,) * 3):
                size = len(numbers) * d * d
                re, im, rows = rows[:size], rows[size : 2 * size], rows[2 * size :]
                h3 = np.abs(re + 1j * im).reshape(len(numbers), d * d).max(axis=1)
                expected = tables[0 if tag is EdgeTag.SIGMA else 1, numbers]
                assert np.abs(h3 - expected).max() <= 1e-15
        assert rows.size == 0


@pytest.mark.parametrize(
    "name", [*graph_names(), *(n + "~" for n in graph_names()), *(f"A_{n}" for n in range(1, 9))]
)
def test_no_triangle_repeats_in_a_solver_slot_grading(name):
    # the Jacobian scatters each stacked entry into its grading's column
    # of its triangle with one +=, which adds a repeated pair only once
    g = build_a_graph(int(name[2:])) if name.startswith("A_") else _graph(name)
    for slots in _Relations(g).groups:
        for _, _, (which, _, _), _, tri, _ in slots:
            pairs = which.astype(np.int64) * len(enumerate_triangles(g)) + tri
            assert np.unique(pairs).size == pairs.size


def test_h1_follows_from_the_sum_rule(e5, e5_cells):
    # why the solver fits no h1 rows: random phases on the shipped cells,
    # which no gauge reaches, keep the magnitudes and so the sum rule and
    # h1, and break h3
    rng = np.random.default_rng(5)
    t = e5_cells.vector * np.exp(1j * rng.uniform(-np.pi, np.pi, e5_cells.vector.size))
    residuals = verify_tl(e5, cell_system(e5, dict(zip(enumerate_triangles(e5), t))), 3).residuals
    assert residuals["h1"] <= 1e-12
    assert residuals["sum_rule"] <= 1e-12
    assert residuals["h3"] >= 1e-3


def test_gauge_transform_invariants(a2, a2_cells):
    phases = random_gauge(a2, seed=11)
    assert all(abs(abs(p) - 1.0) < 1e-12 for p in phases.values())
    gauged = gauge_transform(a2_cells, phases)
    for tri, v in gauged.items:
        assert abs(abs(v) - abs(dict(a2_cells.items)[tri])) < 1e-12
    assert max_sum_rule_residual(a2, gauged) < 1e-8
    with pytest.raises(ValueError):
        gauge_transform(a2_cells, {a2.sigma_edges[0]: 2.0})


def test_canonical_gauge_recovers_positive(a2, a2_cells):
    gauged = gauge_transform(a2_cells, random_gauge(a2, seed=5))
    back = canonical_gauge(a2, gauged)
    for tri, v in back.items:
        assert abs(v - dict(a2_cells.items)[tri]) < 1e-9


def test_canonical_gauge_idempotent(e5, e5_cells):
    again = canonical_gauge(e5, e5_cells)
    for tri, v in again.items:
        assert abs(v - dict(e5_cells.items)[tri]) < 1e-12


def test_e5_negative_cell_is_gauge_forced(e5, e5_cells):
    # no gauge makes all 14 cells positive: the canonical form of any
    # regauging keeps exactly one negative cell
    gauged = gauge_transform(e5_cells, random_gauge(e5, seed=3))
    back = canonical_gauge(e5, gauged)
    negs = [t for t, v in back.items if v.real < 0]
    assert len(negs) == 1


def test_cell_system_requires_all_triangles(a2, a2_cells):
    vals = dict(a2_cells.items)
    vals.pop(OrientedTriangle(("3", "3b", "8")))
    with pytest.raises(GraphError):
        cell_system(a2, vals)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)], ids=str)
def test_non_finite_cells_are_rejected(tmp_path, e5, e5_cells, bad):
    tri = e5_cells.items[3][0]
    with pytest.raises(GraphError, match="non-finite"):
        cell_system(e5, {**e5_cells.values, tri: bad})
    # a file that save_cells wrote, with a valid checksum over the bad cell
    d = cells_to_dict(e5_cells)
    d["cells"][3]["re"], d["cells"][3]["im"] = bad.real, bad.imag
    d["checksum"] = _checksum_payload(d["graph"], d["seed"], d["cells"])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    with pytest.raises(CellFileError, match="non-finite"):
        load_cells(e5, str(p))


def test_persistence_roundtrip(tmp_path):
    for name in graph_names():
        g = get_graph(name)
        cs = shipped_cells(g)
        p = tmp_path / f"{name}.json"
        save_cells(cs, str(p))
        assert load_cells(g, str(p)) == cs
        d = json.loads(p.read_text())
        assert set(d) >= {"graph", "cells", "seed", "checksum"}
        assert d["graph"] == name
        assert all(set(row) == {"tri", "re", "im"} for row in d["cells"])


def _with_seed(d, seed) -> str:
    """The file with another seed, under a checksum that matches it."""
    checksum = _checksum_payload(d["graph"], seed, d["cells"])
    return json.dumps({**d, "seed": seed, "checksum": checksum})


# each edit keeps the checksum valid, so only the edited field is at fault
CORRUPT_CELL_FILES = {
    "residuals-list": lambda d: json.dumps({**d, "residuals": [1e-12]}),
    "residual-not-number": lambda d: json.dumps({**d, "residuals": {"h1": "small"}}),
    "not-json": lambda d: json.dumps(d)[:-1],
    "warnings-string": lambda d: json.dumps({**d, "warnings": "abc"}),
    "seed-dict": lambda d: _with_seed(d, {"n": 1}),
    "seed-list": lambda d: _with_seed(d, [1]),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CELL_FILES))
def test_corrupt_cell_file_is_a_typed_error(tmp_path, a2, a2_cells, case):
    p = tmp_path / "bad.json"
    p.write_text(CORRUPT_CELL_FILES[case](cells_to_dict(a2_cells)))
    with pytest.raises(CellFileError):
        load_cells(a2, str(p))


def test_persistence_checksum_and_name_validation(tmp_path, a2, e5, a2_cells):
    p = tmp_path / "a2.json"
    save_cells(a2_cells, str(p))
    with pytest.raises(CellFileError):
        load_cells(e5, str(p))  # wrong graph
    d = json.loads(p.read_text())
    d["cells"][0]["re"] += 0.5
    q = tmp_path / "tampered.json"
    q.write_text(json.dumps(d))
    with pytest.raises(CellFileError):
        load_cells(a2, str(q))  # checksum mismatch


def test_load_without_checksum_warns_on_bad_values(tmp_path, a2):
    rows = [
        {"tri": list(t.vertices), "re": 0.0, "im": 0.0} for t in enumerate_triangles(a2)
    ]
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({"graph": "a2", "seed": 0, "cells": rows}))
    cs = load_cells(a2, str(p))  # loads, but flags the sum rule
    assert cs.warnings and "sum rule" in cs.warnings[0]


def test_checksum_stable(a2_cells):
    assert cells_to_dict(a2_cells)["checksum"] == cells_to_dict(a2_cells)["checksum"]


def test_shipped_cells_dir_override(tmp_path, a2, a2_cells, monkeypatch):
    save_cells(a2_cells, str(tmp_path / "a2.json"))
    monkeypatch.setenv("SU3PATHS_CELLS_DIR", str(tmp_path))
    cs = shipped_cells(a2)
    assert cs.items == a2_cells.items
    monkeypatch.setenv("SU3PATHS_CELLS_DIR", str(tmp_path / "missing"))
    with pytest.raises(CellFileError):
        shipped_cells(a2)

"""Acceptance suite: the eleven headline checks, one test per criterion.

Every expected value here is written out literally (integer tables,
closed-form constants, coefficient ratios) rather than recomputed through
the library, so these tests stay meaningful if internals change.  Each
test prints a single pass/fail line (visible under -s / -rP).
"""

import math
import time

import numpy as np

from su3paths import (
    PathGrading,
    enumerate_paths,
    essential_basis,
    essential_dims,
    fusion_matrix,
    fusion_table,
    gauge_transform,
    get_graph,
    is_structurally_essential,
    iter_gradings,
    factorize_path,
    make_path,
    parse_word,
    path_space_dim,
    random_gauge,
    replay_record,
    shipped_cells,
    spectral_data,
    verify_adjointness,
    verify_decomposition,
    verify_tl,
)

from oracle import oracle_deviation

PHI = (1.0 + math.sqrt(5.0)) / 2.0
SQ_PHI = math.sqrt(PHI)
SQ_INV_PHI = math.sqrt(1.0 / PHI)


def _report(n: int, desc: str, ok: bool, detail: str = ""):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _membership_residual(g, cells, start, end, word, terms):
    """Distance from span(essential basis) for a hard-coded combination."""
    grading = PathGrading(start, end, parse_word(word))
    basis = enumerate_paths(g, grading)
    index = {p.vertices: k for k, p in enumerate(basis)}
    v = np.zeros(len(basis), dtype=complex)
    for coef, verts in terms:
        v[index[tuple(verts)]] = coef
    v = v / np.linalg.norm(v)
    eb = essential_basis(g, cells, grading)
    if not eb.vectors:
        return 1.0
    q = np.column_stack([w.coefficients for w in eb.vectors])
    return float(np.linalg.norm(v - q @ (q.conj().T @ v)))


# 36-entry multiplication table of the six self-fusion classes
A2_TABLE = {
    "1": {"1": "1", "3": "3", "6": "6", "3b": "3b", "6b": "6b", "8": "8"},
    "3": {"1": "3", "3": "3b+6", "6": "8", "3b": "1+8", "6b": "3b", "8": "6b+3"},
    "6": {"1": "6", "3": "8", "6": "6b", "3b": "3", "6b": "1", "8": "3b"},
    "3b": {"1": "3b", "3": "1+8", "6": "3", "3b": "6b+3", "6b": "8", "8": "6+3b"},
    "6b": {"1": "6b", "3": "3b", "6": "1", "3b": "8", "6b": "6", "8": "3"},
    "8": {"1": "8", "3": "6b+3", "6": "3b", "3b": "6+3b", "6b": "3", "8": "1+8"},
}

# two-term kernel combinations, shipped gauge: (start, end, word, terms)
A2_COMBOS = [
    ("3", "8", "ss", [(1.0, ("3", "6", "8")), (-SQ_PHI, ("3", "3b", "8"))]),
    ("3b", "3", "ss", [(1.0, ("3b", "1", "3")), (-SQ_PHI, ("3b", "8", "3"))]),
    ("8", "3b", "ss", [(1.0, ("8", "6b", "3b")), (-SQ_PHI, ("8", "3", "3b"))]),
    ("3b", "8", "bb", [(1.0, ("3b", "6b", "8")), (-SQ_PHI, ("3b", "3", "8"))]),
    ("3", "3b", "bb", [(1.0, ("3", "1", "3b")), (-SQ_PHI, ("3", "8", "3b"))]),
    ("8", "3", "bb", [(1.0, ("8", "6", "3")), (-SQ_PHI, ("8", "3b", "3"))]),
]

# word components of the three diagonal sums of the mixed type
A2_DIAGONAL_COMBOS = [
    ("3", "3", "bs", [(1.0, ("3", "1", "3")), (-SQ_INV_PHI, ("3", "8", "3"))]),
    ("3", "3", "sb", [(1.0, ("3", "3b", "3")), (-SQ_PHI, ("3", "6", "3"))]),
    ("3b", "3b", "sb", [(1.0, ("3b", "1", "3b")), (-SQ_INV_PHI, ("3b", "8", "3b"))]),
    ("3b", "3b", "bs", [(1.0, ("3b", "3", "3b")), (-SQ_PHI, ("3b", "6b", "3b"))]),
    ("8", "8", "sb", [(1.0, ("8", "6b", "8")), (-SQ_INV_PHI, ("8", "3", "8"))]),
    ("8", "8", "bs", [(1.0, ("8", "6", "8")), (-SQ_INV_PHI, ("8", "3b", "8"))]),
]


def test_criterion_01_fusion_table():
    g = get_graph("a2")
    t0 = time.perf_counter()
    table = fusion_table(g)
    elapsed = time.perf_counter() - t0
    bad = []
    for x, row in A2_TABLE.items():
        for y, prod in row.items():
            want = {}
            for z in prod.split("+"):
                want[z] = want.get(z, 0) + 1
            if dict(table[(x, y)]) != want:
                bad.append((x, y, dict(table[(x, y)]), want))
    _report(
        1,
        "36-entry fusion table reproduced",
        not bad and elapsed < 1.0,
        f"{36 - len(bad)}/36 entries, {elapsed:.3f}s",
    )


def test_criterion_02_spectral_data():
    a2, e5 = get_graph("a2"), get_graph("e5")
    sa, se = spectral_data(a2), spectral_data(e5)
    ok = abs(sa.beta - (1.0 + 2.0 * math.cos(2.0 * math.pi / 5.0))) < 1e-10
    ok &= abs(se.beta - (1.0 + math.sqrt(2.0))) < 1e-10

    def qn(n):
        return math.sin(n * math.pi / 5.0) / math.sin(math.pi / 5.0)

    worst = 0.0
    for vid in a2.vertex_ids():
        p, q = a2.vertex(vid).tri
        qdim = qn(p + 1) * qn(q + 1) * qn(p + q + 2) / qn(2)
        worst = max(worst, abs(sa.mu[vid] - qdim))
    ok &= worst < 1e-10
    _report(2, "spectral constants and eigenvector", ok, f"max mu defect {worst:.1e}")


def test_criterion_03_essential_counts_a2():
    g = get_graph("a2")
    cells = shipped_cells(g)
    totals = {(0, 0): 6, (1, 0): 9, (0, 1): 9, (2, 0): 6, (0, 2): 6}
    ok = True
    details = []
    for tp, want in totals.items():
        rep = essential_dims(g, cells, tp)
        got = int(rep.total.sum())
        if got != want or not rep.matches_fusion:
            ok = False
            details.append(f"{tp}: {got} != {want}")
    rep = essential_dims(g, cells, (1, 1))
    f11 = fusion_matrix(g, (1, 1)).matrix
    ok &= int(rep.total.sum()) == 18
    ok &= all(np.array_equal(m, f11) for m in rep.per_word.values())
    worst = max(
        _membership_residual(g, cells, s, e, w, terms)
        for s, e, w, terms in A2_DIAGONAL_COMBOS
    )
    ok &= worst < 1e-8
    _report(
        3,
        "essential-path counts per type",
        ok,
        "; ".join(details) if details else f"totals ok, max membership {worst:.1e}",
    )


def test_criterion_04_essential_vectors_a2():
    g = get_graph("a2")
    cells = shipped_cells(g)
    worst = max(
        _membership_residual(g, cells, s, e, w, terms)
        for s, e, w, terms in A2_COMBOS + A2_DIAGONAL_COMBOS
    )
    _report(4, "listed kernel combinations in shipped gauge", worst < 1e-8,
            f"12 combinations, max residual {worst:.1e}")


def test_criterion_05_e5_spot_checks():
    from su3paths import apply_annihilation

    g = get_graph("e5")
    cells = shipped_cells(g)
    p1 = make_path(g, ("1_3", "2_4", "1_2"), "ss")
    z1 = not apply_annihilation(g, cells, p1, 1).coefficients.any()
    p2 = make_path(g, ("1_3", "2_4", "2_3", "1_1"), "sbs")
    z2 = not apply_annihilation(g, cells, p2, 1).coefficients.any()
    z2 &= not apply_annihilation(g, cells, p2, 2).coefficients.any()
    p3 = make_path(g, ("1_3", "2_4", "2_3", "2_2"), "sbb")
    out = apply_annihilation(g, cells, p3, 2)
    terms = out.support()
    mu = spectral_data(g).mu
    expect = abs(cells.cell("2_2", "2_3", "2_4")) / math.sqrt(mu["2_4"] * mu["2_2"])
    ok = (
        z1
        and z2
        and len(terms) == 1
        and enumerate_paths(g, out.grading)[terms[0][1]].vertices
        == ("1_3", "2_4", "2_2")
        and abs(abs(terms[0][0]) - expect) < 1e-9
        and abs(expect - 0.7356603157342366) < 1e-9
    )
    _report(5, "worked contraction examples", ok, f"coefficient {abs(terms[0][0]):.10f}")


def test_criterion_06_relations():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for name in ("a2", "e5"):
        g = get_graph(name)
        rep = verify_tl(g, shipped_cells(g), max_len=4)
        worst = max(worst, max(v for _, v in rep.residual_items))
        ok &= rep.passed(1e-8)
        sd = spectral_data(g)
        ok &= abs(rep.lemma_constant - sd.delta**2) < 1e-12
        if name == "a2":  # the two lemma-constant candidates coincide here
            ok &= abs(sd.delta**2 - sd.beta**2) < 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(6, "relation residuals, words to length 4", ok,
            f"max {worst:.1e}, lemma constant [2]^2, {elapsed:.1f}s")


def test_criterion_07_adjointness():
    # creation and cap are built as annihilation^H and cup^H, so the
    # loop-built oracle is what checks their weights
    worst = oracle = 0.0
    for name in ("a2", "e5"):
        g = get_graph(name)
        cells = shipped_cells(g)
        worst = max(worst, verify_adjointness(g, cells, max_len=4))
        oracle = max(oracle, oracle_deviation(g, cells, max_len=4))
    _report(
        7,
        "raising/lowering adjoint pairs",
        worst <= 1e-12 and oracle <= 1e-12,
        f"max {worst:.1e}, loop oracle {oracle:.1e}",
    )


def test_criterion_08_decomposition():
    ok = True
    worst = 0.0
    for name in ("a2", "e5"):
        g = get_graph(name)
        rep = verify_decomposition(g, shipped_cells(g), max_len=4)
        ok &= rep["failures"] == 0
        worst = max(
            worst,
            max(
                rep[k]
                for k in (
                    "hermitian",
                    "idempotent",
                    "orthogonal",
                    "completeness",
                    "essential_raised_overlap",
                )
            ),
        )
    _report(8, "kernel + raised-span fills every graded space", ok and worst < 1e-8,
            f"max projector residual {worst:.1e}")


def test_criterion_09_gauge_robustness():
    g = get_graph("a2")
    base = shipped_cells(g)
    gradings = [gr for gr in iter_gradings(g, 3) if path_space_dim(g, gr) > 0]
    ref = {
        gr: (essential_basis(g, base, gr).raw_dim, essential_basis(g, base, gr).dim)
        for gr in gradings
    }
    bad = 0
    for seed in range(100):
        cs = gauge_transform(base, random_gauge(g, seed=seed))
        for gr in gradings:
            eb = essential_basis(g, cs, gr)
            if (eb.raw_dim, eb.dim) != ref[gr]:
                bad += 1
    _report(9, "dimensions invariant under 100 random gauges", bad == 0,
            f"{len(gradings)} gradings per gauge, {bad} deviations")


def test_criterion_10_length_clause():
    g = get_graph("a2")
    cells = shipped_cells(g)
    runs = [
        (("1", "3", "8", "6b"), "sbs"),
        (("6", "8", "3b", "1"), "sbs"),
        (("6b", "3b", "3", "6"), "sbs"),
        (("1", "3b", "8", "6"), "bsb"),
        (("6b", "8", "3", "1"), "bsb"),
        (("6", "3", "3b", "6b"), "bsb"),
    ]
    ok = True
    for vertices, word in runs:
        p = make_path(g, vertices, word)
        eb = essential_basis(g, cells, p.grading)
        ok &= eb.raw_dim > 0 and eb.excluded_by_length and eb.dim == 0 and eb.vectors == ()
    _report(10, "over-length kernels flagged and excluded", ok,
            f"{len(runs)} closed-loop runs")


def test_criterion_11_factorizer():
    g = get_graph("a2")
    cells = shipped_cells(g)
    paths = essentials = bad = 0
    for grading in iter_gradings(g, 4):
        basis = enumerate_paths(g, grading)
        for k, p in enumerate(basis):
            paths += 1
            rec = factorize_path(g, cells, p)
            out = replay_record(g, cells, rec)
            coef = next((c for c, i in out.support() if i == basis.index(p)), 0.0)
            if abs(coef) <= 1e-9:
                bad += 1
            if is_structurally_essential(g, cells, p):
                essentials += 1
                if rec.events != ():
                    bad += 1
    _report(11, "factorize/replay round trip on every path", bad == 0,
            f"{paths} paths, {essentials} essential, {bad} failures")

"""The paper's reference results and the report's checks against them.

* the a2 fusion table;
* essential vectors: on a2 every single-path row per type and twelve
  two-term kernel combinations; on e5 single paths, cup-kernel
  combinations, and one path that is not essential;
* the e5 cell ratios sqrt(beta) and 2^(1/4), read off in-kernel
  combinations and off the slot-2 annihilation kernel.

Each check returns (passed, detail).  CHECK_TOL and the numeral formats
of the details are shared with the command line, which runs the checks
and prints them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Tuple

import numpy as np

from .cells import CellSystem
from .essential import _ranks, essential_basis, is_structurally_essential
from .fusion import fusion_matrix, fusion_table
from .graphs import GraphSpec, q_number, spectral_data
from .operators import annihilation
from .paths import (
    EdgeTag,
    ElementaryPath,
    PathGrading,
    PathVector,
    _infer_word,
    enumerate_paths,
    make_path,
)

CHECK_TOL = 1e-8

# a reference vector: (vertex run spelled with spaces, coefficient) per term
Terms = List[Tuple[str, complex]]


def _f(x: float) -> str:
    return f"{float(x):.12g}"


def _e(x: float) -> str:
    return f"{float(x):.3e}"


class _Tally:
    """Count, worst residual and failing labels over a run of checks."""

    def __init__(self):
        self.count = 0
        self.worst = 0.0
        self.bad: List[str] = []

    def add(self, label: str, *residuals: float) -> None:
        """One check; it fails when any of its residuals exceeds CHECK_TOL."""
        self.count += 1
        self.worst = max(self.worst, *residuals)
        if any(r > CHECK_TOL for r in residuals):
            self.bad.append(label)


def _membership_residual(g: GraphSpec, cells: CellSystem, terms: Terms) -> float:
    """Distance of a combination from the essential subspace of its grading."""
    runs = [(tuple(run.split()), c) for run, c in terms]
    word = _infer_word(g, runs[0][0])
    combo = PathVector.from_terms(g, [(c, ElementaryPath(v, word)) for v, c in runs])
    vec = combo.coefficients / combo.norm()
    basis = essential_basis(g, cells, combo.grading)
    if basis.dim == 0:
        return 1.0
    B = np.column_stack([v.coefficients for v in basis.vectors])
    return float(np.linalg.norm(vec - B @ (B.conj().T @ vec)))


def _singles(runs) -> List[Tuple[str, Terms]]:
    return [(f"({run})", [(run, 1.0)]) for run in runs]


# ----------------------------------------------------------------------
# a2

# Reference multiplication table for the a2 graph (row x column).
_A2_TABLE_ROWS = {
    "1": ("1", "3", "6", "3b", "6b", "8"),
    "3": ("3", "3b+6", "8", "1+8", "3b", "6b+3"),
    "6": ("6", "8", "6b", "3", "1", "3b"),
    "3b": ("3b", "1+8", "3", "6b+3", "8", "6+3b"),
    "6b": ("6b", "3b", "1", "8", "6", "3"),
    "8": ("8", "6b+3", "3b", "6+3b", "3", "1+8"),
}
_A2_ORDER = ("1", "3", "6", "3b", "6b", "8")


def _a2_reference_table() -> Mapping[Tuple[str, str], Mapping[str, int]]:
    out = {}
    for x, row in _A2_TABLE_ROWS.items():
        for y, cell in zip(_A2_ORDER, row):
            prods: dict = {}
            for tok in cell.split("+"):
                prods[tok] = prods.get(tok, 0) + 1
            out[(x, y)] = prods
    return out


def check_a2_table(g: GraphSpec) -> Tuple[bool, str]:
    table = fusion_table(g)
    ref = _a2_reference_table()
    bad = [
        f"{x}*{y}"
        for (x, y), prods in ref.items()
        if {z: m for z, m in table[(x, y)].items() if m} != prods
    ]
    if bad:
        return False, "products off: " + ", ".join(sorted(bad))
    return True, f"all {len(ref)} products match the reference table"


# Reference essential paths of the a2 graph: all single-path rows, per type.
_A2_SINGLES = {
    (0, 0): ["1", "3", "3b", "6", "6b", "8"],
    (1, 0): ["1 3", "3 3b", "3 6", "3b 1", "3b 8", "6 8", "6b 3b", "8 6b", "8 3"],
    (0, 1): ["1 3b", "3b 3", "3b 6b", "3 1", "3 8", "6b 8", "6 3", "8 6", "8 3b"],
    (2, 0): ["6 8 6b", "6b 3b 1", "1 3 6"],
    (0, 2): ["6b 8 6", "6 3 1", "1 3b 6b"],
    (1, 1): [
        "1 3 8", "1 3b 8", "8 3 1", "8 3b 1", "3 3b 6b", "3 8 6b",
        "6b 3b 3", "6b 8 3", "3b 3 6", "3b 8 6", "6 3 3b", "6 8 3b",
    ],
}


def _a2_reference_combos(g: GraphSpec) -> List[Tuple[str, Terms]]:
    """Two-term kernel combinations on a2.

    The diagonal rows pair one combination per word; each is essential on
    its own, so they are checked per word.
    """
    mu = spectral_data(g).mu
    r2 = math.sqrt(q_number(2, g.kappa))

    def mr(a: str, b: str) -> float:
        return math.sqrt(mu[a] / mu[b])

    return [
        ("(3 6 8)-sqrt[2](3 3b 8)", [("3 6 8", 1.0), ("3 3b 8", -r2)]),
        ("(3b 1 3)-sqrt[2](3b 8 3)", [("3b 1 3", 1.0), ("3b 8 3", -r2)]),
        ("(8 6b 3b)-sqrt[2](8 3 3b)", [("8 6b 3b", 1.0), ("8 3 3b", -r2)]),
        ("(3b 6b 8)-sqrt[2](3b 3 8)", [("3b 6b 8", 1.0), ("3b 3 8", -r2)]),
        ("(3 1 3b)-sqrt[2](3 8 3b)", [("3 1 3b", 1.0), ("3 8 3b", -r2)]),
        ("(8 6 3)-sqrt[2](8 3b 3)", [("8 6 3", 1.0), ("8 3b 3", -r2)]),
        ("(3 1 3)-sqrt([1]/[8])(3 8 3)", [("3 1 3", 1.0), ("3 8 3", -mr("1", "8"))]),
        ("(3 3b 3)-sqrt([3b]/[6])(3 6 3)", [("3 3b 3", 1.0), ("3 6 3", -mr("3b", "6"))]),
        ("(3b 1 3b)-sqrt([1]/[8])(3b 8 3b)", [("3b 1 3b", 1.0), ("3b 8 3b", -mr("1", "8"))]),
        ("(3b 3 3b)-sqrt([3]/[6b])(3b 6b 3b)", [("3b 3 3b", 1.0), ("3b 6b 3b", -mr("3", "6b"))]),
        ("(8 6b 8)-sqrt([6b]/[3])(8 3 8)", [("8 6b 8", 1.0), ("8 3 8", -mr("6b", "3"))]),
        ("(8 6 8)-sqrt([6]/[3b])(8 3b 8)", [("8 6 8", 1.0), ("8 3b 8", -mr("6", "3b"))]),
    ]


def _a2_memberships(g: GraphSpec) -> List[Tuple[str, Terms]]:
    singles = _singles(run for runs in _A2_SINGLES.values() for run in runs)
    return singles + _a2_reference_combos(g)


# ----------------------------------------------------------------------
# e5


def _e5_memberships(g: GraphSpec) -> List[Tuple[str, Terms]]:
    mu = spectral_data(g).mu
    rows = _singles(
        ["1_3 2_4 1_2", "1_3 2_4 2_3 1_1"]
        + [f"1_{i} 2_{(i + 2) % 6} 2_{(i + 4) % 6} 1_{(i + 3) % 6}" for i in range(6)]
    )
    for i in range(6):
        a, b, c = f"2_{(i + 5) % 6}", f"2_{(i + 2) % 6}", f"1_{(i + 5) % 6}"
        coef = -2.0 * math.sqrt((mu[b] + mu[a]) / (2.0 * mu[c]))
        terms = [(f"2_{i} {a} 2_{i}", 1.0), (f"2_{i} {b} 2_{i}", 1.0), (f"2_{i} {c} 2_{i}", coef)]
        rows.append((f"cup kernel at 2_{i}", terms))
    return rows


def check_e5_ratios(g: GraphSpec, cells: CellSystem) -> Tuple[bool, str]:
    """Cell-ratio structure of the longer reference combinations.

    The level-2 rows pin two ratios: the center/skew cell ratio sqrt(beta)
    and the corner/skew ratio 2^(1/4).  The (0,3) rows are recovered from
    the kernel of the slot-2 annihilation alone: the joint kernel (and the
    module action) give dimension 0 there, so they are one-sided kernel
    vectors, not essential paths.
    """
    sqrt_beta = math.sqrt(spectral_data(g).beta)
    quarter = 2.0 ** 0.25
    tally = _Tally()

    def ratio_combo(a: str, m1: str, m2: str, b: str) -> Tuple[complex, float]:
        # in-kernel two-term combination (a m1 b) - r (a m2 b) for word ss
        r = cells.cell(a, m1, b) / cells.cell(a, m2, b)
        return r, _membership_residual(g, cells, [(f"{a} {m1} {b}", 1.0), (f"{a} {m2} {b}", -r)])

    for i in range(6):
        r, res = ratio_combo(f"2_{i}", f"2_{(i + 4) % 6}", f"2_{(i + 1) % 6}", f"2_{(i + 2) % 6}")
        tally.add(f"center ratio at 2_{i}", res, abs(abs(r) - sqrt_beta))
    for i in range(6):
        a, b = f"2_{i}", f"2_{(i + 5) % 6}"
        for other in (f"2_{(i + 1) % 6}", f"2_{(i + 4) % 6}"):
            r, res = ratio_combo(a, f"1_{(i + 4) % 6}", other, b)
            tally.add(f"corner ratio at 2_{i} via {other}", res, abs(abs(r) - quarter))
    # (0,3) rows: slot-2 kernel only
    for i in range(6):
        grading = PathGrading(f"1_{i}", f"2_{i}", (EdgeTag.SIGMA_BAR,) * 3)
        paths = enumerate_paths(g, grading)
        pos = {p.vertices[2]: k for k, p in enumerate(paths)}
        _, svals, vh = np.linalg.svd(annihilation(g, cells, grading, 2).matrix)
        null = vh[int(_ranks(svals)) :].conj().T
        if null.shape[1] != 1:
            tally.bad.append(f"slot-2 kernel dim at 1_{i}")
            continue
        v = null[:, 0]
        r = v[pos[f"2_{(i + 1) % 6}"]] / v[pos[f"2_{(i + 4) % 6}"]]
        tally.add(f"slot-2 kernel ratio at 1_{i}", abs(abs(r) - sqrt_beta))
        joint = essential_basis(g, cells, grading)
        predicted = int(fusion_matrix(g, (0, 3)).matrix[g.index(f"1_{i}"), g.index(f"2_{i}")])
        if joint.raw_dim != 0 or predicted != 0:
            tally.bad.append(f"(0,3) joint kernel at 1_{i}: dim {joint.raw_dim}, predicted {predicted}")
    if tally.bad:
        return False, "failing: " + ", ".join(tally.bad)
    return True, (
        f"center/skew ratio sqrt(beta)={_f(sqrt_beta)}, corner/skew ratio 2^(1/4)={_f(quarter)}, "
        f"slot-2 kernel ratios match, joint (0,3) kernel trivial as predicted; "
        f"worst {_e(tally.worst)}"
    )


# ----------------------------------------------------------------------
# kernel membership

# graph -> reference vectors (label, terms) that must be essential
_MEMBERSHIPS = {"a2": _a2_memberships, "e5": _e5_memberships}
# graph -> (vertex run, word) of reference paths that are not essential
_NOT_ESSENTIAL: Dict[str, Tuple[Tuple[str, str], ...]] = {"e5": (("1_3 2_4 2_3 2_2", "sbb"),)}
MEMBERSHIP_GRAPHS = tuple(_MEMBERSHIPS)


def check_memberships(g: GraphSpec, cells: CellSystem) -> Tuple[bool, str]:
    """The reference vectors of g lie in the essential space of their
    grading, and its reference non-essential paths are not essential."""
    tally = _Tally()
    for label, terms in _MEMBERSHIPS[g.name](g):
        tally.add(label, _membership_residual(g, cells, terms))
    for run, word in _NOT_ESSENTIAL.get(g.name, ()):
        tally.count += 1
        if is_structurally_essential(g, cells, make_path(g, run.split(), word)):
            tally.bad.append(f"({run}) wrongly essential")
    detail = f"{tally.count} reference vectors, worst residual {_e(tally.worst)}"
    if tally.bad:
        detail += "; failing: " + ", ".join(tally.bad)
    return not tally.bad, detail

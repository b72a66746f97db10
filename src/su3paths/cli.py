"""Command-line frontend: parses arguments, runs the library, formats output.

Commands:

    graphs list | graphs show <name>
    paths enumerate <graph> --from A --to B --word sbb...
    cells solve <graph> [--seed N] [--tol T] [--out F]
    cells verify <graph> --in F
    verify tl <graph> [--max-len N] [--cells F]
    verify decomposition <graph> [--max-len N] [--cells F]
    essential <graph> --type a,b [--from V --to W] [--cells F]
    fusion table <graph> | fusion module <graph> --type a,b
    factorize <graph> --path "1,3,8" --word sb
    report <graph> [--cells F] [--max-len N]

Graph names are case-insensitive registry keys (a2..a5, e5); --graph-file
loads the JSON graph schema instead.  --format json (or --json) prints
exactly one JSON document with sorted keys and no extra whitespace, so
identical invocations are byte-identical.  Exit status is 0 iff every
check the command ran passed.  The paper's reference results that the
report checks against live in reference.py.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .graphs import (
    GraphError,
    GraphSpec,
    get_graph,
    graph_names,
    graph_to_dict,
    load_graph,
    spectral_data,
)
from .paths import (
    ElementaryPath,
    PathGrading,
    PathSpaceTooLarge,
    _basis_index,
    _infer_word,
    enumerate_paths,
    make_path,
    parse_word,
    word_str,
)
from .cells import (
    CellFileError,
    CellSolveError,
    CellSystem,
    cells_to_dict,
    load_cells,
    max_sum_rule_residual,
    save_cells,
    shipped_cells,
    solve_cells,
)
from .operators import verify_adjointness, verify_tl
from .essential import (
    DecompositionError,
    _check_level,
    essential_basis,
    essential_dims,
    factorize_path,
    is_structurally_essential,
    replay_record,
    verify_decomposition,
    words_of_type,
)
from .fusion import admissible_triangles, fusion_matrices, fusion_matrix, fusion_table
from .reference import (
    CHECK_TOL,
    MEMBERSHIP_GRAPHS,
    _e,
    _f,
    check_a2_table,
    check_e5_ratios,
    check_memberships,
)


@dataclass(frozen=True)
class CommandResult:
    """Outcome of one CLI invocation: exit status, rendered text and the
    machine-readable payload behind it (mode picks which one is printed)."""

    status: int
    text: str
    payload: Optional[dict] = None
    mode: str = "text"


# ----------------------------------------------------------------------
# rendering helpers


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _cpair(z: complex) -> List[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _coef_str(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-12:
        return f"{z.real:+.12f}"
    return f"({z.real:+.12f}{z.imag:+.12f}j)"


def _mode(args: argparse.Namespace) -> str:
    if getattr(args, "json", False):
        return "json"
    return getattr(args, "format", None) or "text"


def _result(args, status: int, text: str, payload: dict) -> CommandResult:
    return CommandResult(status=status, text=text, payload=payload, mode=_mode(args))


def _graph_of(args) -> GraphSpec:
    gf = getattr(args, "graph_file", None)
    if gf:
        return load_graph(gf)
    name = getattr(args, "graph", None)
    if not name:
        raise GraphError("no graph given (name or --graph-file)")
    return get_graph(name)


def _cells_of(g: GraphSpec, args) -> CellSystem:
    path = getattr(args, "cells", None)
    return load_cells(g, path) if path else shipped_cells(g)


def _parse_type(text: str) -> Tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--type wants 'a,b', got {text!r}")
    a, b = (int(p) for p in parts)
    if a < 0 or b < 0:
        raise ValueError(f"--type components must be non-negative, got {text!r}")
    return (a, b)


def _parse_path_arg(text: str) -> Tuple[str, ...]:
    # ";" wins as separator because vertex ids of larger A graphs contain ","
    sep = ";" if ";" in text else ","
    verts = tuple(v.strip() for v in text.split(sep))
    if not all(verts):
        raise ValueError(f"bad --path {text!r}")
    return verts


# ----------------------------------------------------------------------
# graphs


def cmd_graphs_list(args) -> CommandResult:
    rows = []
    for name in graph_names():
        g = get_graph(name)
        rows.append(
            {
                "name": g.name,
                "kappa": g.kappa,
                "level": g.level,
                "vertices": len(g.vertices),
                "sigma_edges": len(g.sigma_edges),
            }
        )
    lines = ["name   kappa  level  vertices  arrows"]
    for r in rows:
        lines.append(
            f"{r['name']:<6} {r['kappa']:>5}  {r['level']:>5}  {r['vertices']:>8}  {r['sigma_edges']:>6}"
        )
    return _result(args, 0, "\n".join(lines), {"graphs": rows})


def cmd_graphs_show(args) -> CommandResult:
    g = _graph_of(args)
    sd = spectral_data(g)
    payload = graph_to_dict(g)
    payload["level"] = g.level
    payload["beta"] = sd.beta
    payload["delta"] = sd.delta
    payload["mu"] = {vid: sd.mu[vid] for vid in g.vertex_ids()}
    lines = [
        f"graph {g.name}: kappa {g.kappa}, level {g.level}, "
        f"beta {_f(sd.beta)}, delta {_f(sd.delta)}",
        "vertices (id, type, mu):",
    ]
    for v in g.vertices:
        tri = f"({v.tri[0]},{v.tri[1]})" if v.tri is not None else "-"
        lines.append(f"  {v.id:<6} {tri:<7} {_f(sd.mu[v.id])}")
    lines.append("arrows (sigma):")
    for u, v in g.sigma_edges:
        lines.append(f"  {u} -> {v}")
    return _result(args, 0, "\n".join(lines), payload)


# ----------------------------------------------------------------------
# paths


def cmd_paths_enumerate(args) -> CommandResult:
    g = _graph_of(args)
    word = parse_word(args.word)
    grading = PathGrading(args.src, args.dst, word)
    paths = enumerate_paths(g, grading)
    payload = {
        "graph": g.name,
        "from": args.src,
        "to": args.dst,
        "word": word_str(word),
        "dim": len(paths),
        "paths": [list(p.vertices) for p in paths],
    }
    lines = [str(p) for p in paths]
    lines.append(f"dim {len(paths)} ({args.src} -> {args.dst}, word {word_str(word) or '(empty)'})")
    return _result(args, 0, "\n".join(lines), payload)


# ----------------------------------------------------------------------
# cells


def _cells_text(g: GraphSpec, cells: CellSystem) -> List[str]:
    lines = [f"cells for {g.name} ({len(cells.items)} triangles, seed {cells.seed}):"]
    for tri, t in cells.items:
        lines.append(f"  T{tri} = {_coef_str(t)}")
    if cells.residual_items:
        lines.append("residuals:")
        for k, v in cells.residual_items:
            lines.append(f"  {k:<12} {_e(v)}")
    for w in cells.warnings:
        lines.append(f"warning: {w}")
    return lines


def cmd_cells_solve(args) -> CommandResult:
    g = _graph_of(args)
    try:
        cells = solve_cells(g, seed=args.seed, tol=args.tol)
    except CellSolveError as exc:
        lines = [f"cell solve failed for {g.name}: {exc}"]
        res = dict(getattr(exc, "residuals", {}) or {})
        for k in sorted(res):
            lines.append(f"  {k:<12} {_e(res[k])}")
        return _result(args, 1, "\n".join(lines), {"error": str(exc), "residuals": res})
    if args.out:
        save_cells(cells, args.out)
    lines = _cells_text(g, cells)
    if args.out:
        lines.append(f"written to {args.out}")
    return _result(args, 0, "\n".join(lines), cells_to_dict(cells))


def cmd_cells_verify(args) -> CommandResult:
    g = _graph_of(args)
    cells = load_cells(g, args.infile)
    sum_res = max_sum_rule_residual(g, cells)
    rep = verify_tl(g, cells, max_len=args.max_len)
    passed = sum_res < CHECK_TOL and rep.passed(CHECK_TOL) and not cells.warnings
    payload = {
        "graph": g.name,
        "file": args.infile,
        "cells": len(cells.items),
        "max_sum_rule_residual": sum_res,
        "residuals": dict(rep.residual_items),
        "warnings": list(cells.warnings),
        "passed": passed,
    }
    lines = _cells_text(g, cells)
    lines.append(f"recomputed sum-rule residual: {_e(sum_res)}")
    lines.append(f"relation residuals up to length {args.max_len}:")
    for k, v in rep.residual_items:
        lines.append(f"  {k:<12} {_e(v)}")
    lines.append("PASS" if passed else "FAIL")
    return _result(args, 0 if passed else 1, "\n".join(lines), payload)


# ----------------------------------------------------------------------
# verify


def cmd_verify_tl(args) -> CommandResult:
    g = _graph_of(args)
    cells = _cells_of(g, args)
    rep = verify_tl(g, cells, max_len=args.max_len)
    passed = rep.passed(CHECK_TOL)
    payload = {
        "graph": g.name,
        "max_len": rep.max_len,
        "checks": rep.checks,
        "lemma_constant": rep.lemma_constant,
        "lemma_fit": rep.lemma_fit,
        "residuals": dict(rep.residual_items),
        "worst": dict(rep.worst_items),
        "passed": passed,
    }
    lines = [
        f"relation residuals on {g.name} "
        f"(words up to length {rep.max_len}, {rep.checks} checks):"
    ]
    for k, v in rep.residual_items:
        where = rep.worst.get(k, "")
        lines.append(f"  {k:<12} {_e(v)}  {where}")
    fitted = "none" if rep.lemma_fit is None else _f(rep.lemma_fit)
    lines.append(f"lemma constant {_f(rep.lemma_constant)}, fitted {fitted}")
    lines.append(f"{'PASS' if passed else 'FAIL'} (tol {CHECK_TOL:g})")
    return _result(args, 0 if passed else 1, "\n".join(lines), payload)


def _decomposition_verdict(rep: Mapping[str, float]) -> Tuple[Dict[str, float], bool]:
    """The residual entries of a verify_decomposition report, and whether
    the sweep passed: no failed grading and every residual under CHECK_TOL."""
    residuals = {k: v for k, v in rep.items() if k not in ("gradings", "failures", "max_len")}
    return residuals, rep["failures"] == 0 and all(v < CHECK_TOL for v in residuals.values())


def cmd_verify_decomposition(args) -> CommandResult:
    g = _graph_of(args)
    cells = _cells_of(g, args)
    rep = dict(verify_decomposition(g, cells, max_len=args.max_len))
    residuals, passed = _decomposition_verdict(rep)
    payload = {
        "graph": g.name,
        "max_len": int(rep["max_len"]),
        "gradings": int(rep["gradings"]),
        "failures": int(rep["failures"]),
        "residuals": residuals,
        "passed": passed,
    }
    lines = [
        f"decomposition sweep on {g.name}: {int(rep['gradings'])} gradings "
        f"up to length {args.max_len}, {int(rep['failures'])} failures"
    ]
    for k in sorted(residuals):
        lines.append(f"  {k:<26} {_e(residuals[k])}")
    lines.append(f"{'PASS' if passed else 'FAIL'} (tol {CHECK_TOL:g})")
    return _result(args, 0 if passed else 1, "\n".join(lines), payload)


# ----------------------------------------------------------------------
# essential


def _vector_terms(basis_paths: Sequence[ElementaryPath], coeffs: np.ndarray) -> List[str]:
    terms = []
    for k, p in enumerate(basis_paths):
        c = coeffs[k]
        if abs(c) > 1e-12:
            terms.append(f"{_coef_str(c)} {p}")
    return terms or ["0"]


def _essential_grading_result(args, g: GraphSpec, cells: CellSystem, tp) -> CommandResult:
    _check_level(g, tp)
    words = words_of_type(*tp)
    total = 0
    word_rows = []
    lines = [f"essential paths on {g.name}, type ({tp[0]},{tp[1]}), {args.src} -> {args.dst}"]
    csv_rows = ["word,vector,re,im,path"]
    for word in words:
        grading = PathGrading(args.src, args.dst, word)
        basis = essential_basis(g, cells, grading)
        paths = enumerate_paths(g, grading)
        total += basis.dim
        row = {
            "word": word_str(word),
            "dim": basis.dim,
            "raw_dim": basis.raw_dim,
            "excluded_by_length": basis.excluded_by_length,
            "paths": [list(p.vertices) for p in paths],
            "vectors": [[_cpair(z) for z in v.coefficients] for v in basis.vectors],
        }
        word_rows.append(row)
        note = " (excluded by length)" if basis.excluded_by_length else ""
        lines.append(f"word {word_str(word)}: dim {basis.dim} (raw {basis.raw_dim}){note}")
        for j, v in enumerate(basis.vectors):
            lines.append(f"  e{j + 1} = " + " ".join(_vector_terms(paths, v.coefficients)))
            for k, p in enumerate(paths):
                c = complex(v.coefficients[k])
                if abs(c) > 1e-12:
                    csv_rows.append(
                        f"{word_str(word)},{j + 1},{c.real!r},{c.imag!r},{' '.join(p.vertices)}"
                    )
    lines.append(f"total dim {total}")
    payload = {
        "graph": g.name,
        "type": list(tp),
        "from": args.src,
        "to": args.dst,
        "dim": total,
        "words": word_rows,
    }
    text = "\n".join(csv_rows if _mode(args) == "csv" else lines)
    return _result(args, 0, text, payload)


def _essential_dims_result(args, g: GraphSpec, cells: CellSystem, tp) -> CommandResult:
    rep = essential_dims(g, cells, tp)
    ids = g.vertex_ids()

    def fmt_matrix(m: np.ndarray) -> List[str]:
        w = max(3, max(len(v) for v in ids) + 1)
        out = [" " * w + "".join(f"{v:>{w}}" for v in ids)]
        for i, v in enumerate(ids):
            out.append(f"{v:>{w}}" + "".join(f"{int(m[i, j]):>{w}}" for j in range(len(ids))))
        return out

    lines = [f"essential dimensions on {g.name}, type ({tp[0]},{tp[1]})"]
    for w, m in rep.per_word.items():
        lines.append(f"word {w}:")
        lines.extend("  " + s for s in fmt_matrix(m))
    lines.append("total over words:")
    lines.extend("  " + s for s in fmt_matrix(rep.total))
    lines.append("predicted by the module action (per word):")
    lines.extend("  " + s for s in fmt_matrix(rep.fusion))
    if rep.matches_fusion:
        lines.append("MATCH: every word agrees with the module action")
    else:
        lines.append(f"MISMATCH in {len(rep.mismatches)} entries (word, from, to, essential, predicted):")
        for w, a, b, e, f in rep.mismatches:
            lines.append(f"  {w} {a} -> {b}: {e} vs {f}")
    payload = {
        "graph": g.name,
        "type": list(tp),
        "vertices": list(ids),
        "per_word": {w: m.astype(int).tolist() for w, m in rep.per_word.items()},
        "total": rep.total.astype(int).tolist(),
        "fusion": rep.fusion.astype(int).tolist(),
        "matches_fusion": rep.matches_fusion,
        "mismatches": [list(row) for row in rep.mismatches],
    }
    csv_rows = ["word,from,to,essential,predicted"]
    for w, m in rep.per_word.items():
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                if m[i, j] or rep.fusion[i, j]:
                    csv_rows.append(f"{w},{a},{b},{int(m[i, j])},{int(rep.fusion[i, j])}")
    text = "\n".join(csv_rows if _mode(args) == "csv" else lines)
    return _result(args, 0 if rep.matches_fusion else 1, text, payload)


def cmd_essential(args) -> CommandResult:
    g = _graph_of(args)
    cells = _cells_of(g, args)
    tp = _parse_type(args.tp)
    if (args.src is None) != (args.dst is None):
        raise ValueError("--from and --to must be given together")
    if args.src is not None:
        g.index(args.src), g.index(args.dst)  # validate ids early
        return _essential_grading_result(args, g, cells, tp)
    return _essential_dims_result(args, g, cells, tp)


# ----------------------------------------------------------------------
# factorize


def cmd_factorize(args) -> CommandResult:
    g = _graph_of(args)
    cells = _cells_of(g, args)
    verts = _parse_path_arg(args.path)
    word = parse_word(args.word) if args.word is not None else _infer_word(g, verts)
    p = make_path(g, verts, word)
    rec = factorize_path(g, cells, p)
    ess = is_structurally_essential(g, cells, p)
    replay = replay_record(g, cells, rec)
    coef = complex(replay.coefficients[_basis_index(g, p.grading)[p]])
    passed = abs(coef) > 1e-10
    events = []
    lines = [f"factorize {p} word {word_str(word) or '(empty)'} on {g.name}"]
    for ev in rec.events:
        if hasattr(ev, "kind"):
            tag = ev.first_tag.value if ev.first_tag is not None else None
            events.append(
                {
                    "event": "peel",
                    "kind": ev.kind,
                    "position": ev.position,
                    "vertex": ev.vertex,
                    "first_tag": tag,
                    "weight": _cpair(ev.weight),
                }
            )
            extra = f", first tag {tag}" if tag else ""
            lines.append(
                f"  peel {ev.kind} at slot {ev.position}: vertex {ev.vertex}, "
                f"weight {_coef_str(ev.weight)}{extra}"
            )
        else:
            events.append(
                {
                    "event": "suffix",
                    "path": list(ev.path.vertices),
                    "word": word_str(ev.path.word),
                }
            )
            lines.append(f"  split suffix {ev.path} word {word_str(ev.path.word)}")
    lines.append(f"  core {rec.core} word {word_str(rec.core.word) or '(empty)'}")
    lines.append(f"structurally essential: {'yes' if ess else 'no'}")
    lines.append(
        f"replay coefficient on the original path: {_coef_str(coef)} "
        f"({'PASS' if passed else 'FAIL'})"
    )
    payload = {
        "graph": g.name,
        "path": list(verts),
        "word": word_str(word),
        "essential": ess,
        "core": {"path": list(rec.core.vertices), "word": word_str(rec.core.word)},
        "events": events,
        "replay_coefficient": _cpair(coef),
        "passed": passed,
    }
    return _result(args, 0 if passed else 1, "\n".join(lines), payload)


# ----------------------------------------------------------------------
# fusion


def cmd_fusion_table(args) -> CommandResult:
    g = _graph_of(args)
    table = fusion_table(g)
    ids = g.vertex_ids()

    def entry(x: str, y: str) -> str:
        prods = table[(x, y)]
        toks = []
        for z in ids:
            m = prods.get(z, 0)
            if m == 1:
                toks.append(z)
            elif m > 1:
                toks.append(f"{m}*{z}")
        return "+".join(toks) if toks else "0"

    cellw = max(
        [len(entry(x, y)) for x in ids for y in ids] + [len(v) for v in ids]
    ) + 2
    head = f"{'x*y':>{cellw}}|" + "".join(f"{y:>{cellw}}" for y in ids)
    lines = [f"fusion products on {g.name}", head, "-" * len(head)]
    for x in ids:
        lines.append(f"{x:>{cellw}}|" + "".join(f"{entry(x, y):>{cellw}}" for y in ids))
    payload = {
        "graph": g.name,
        "vertices": list(ids),
        "table": {x: {y: dict(table[(x, y)]) for y in ids} for x in ids},
    }
    return _result(args, 0, "\n".join(lines), payload)


def cmd_fusion_module(args) -> CommandResult:
    g = _graph_of(args)
    tp = _parse_type(args.tp)
    F = fusion_matrix(g, tp)
    ids = g.vertex_ids()
    rows = admissible_triangles(g, tp)
    w = max(3, max(len(v) for v in ids) + 1)
    lines = [f"module action of ({tp[0]},{tp[1]}) on {g.name}"]
    lines.append(" " * w + "".join(f"{v:>{w}}" for v in ids))
    for i, v in enumerate(ids):
        lines.append(f"{v:>{w}}" + "".join(f"{int(F.matrix[i, j]):>{w}}" for j in range(len(ids))))
    lines.append(f"admissible triangles (a, ({tp[0]},{tp[1]}), b):")
    for a, _, b, m in rows:
        mult = f" x{m}" if m > 1 else ""
        lines.append(f"  ({a}, {b}){mult}")
    payload = {
        "graph": g.name,
        "type": list(tp),
        "vertices": list(ids),
        "matrix": F.matrix.astype(int).tolist(),
        "admissible": [[a, b, int(m)] for a, _, b, m in rows],
    }
    return _result(args, 0, "\n".join(lines), payload)


# ----------------------------------------------------------------------
# report: one-shot reproduction of the known results for a graph


def run_report(g: GraphSpec, cells: CellSystem, max_len: int) -> CommandResult:
    """One-shot reproduction report for a graph with the given cells."""
    checks: List[dict] = []

    def run(name: str, fn: Callable[[], Tuple[bool, str]]) -> None:
        try:
            passed, detail = fn()
        except Exception as exc:  # a broken input must fail the check, not the report
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def spectral_check() -> Tuple[bool, str]:
        sd = spectral_data(g)
        closed = 1.0 + 2.0 * math.cos(2.0 * math.pi / g.kappa)
        dev = abs(sd.beta - closed)
        mu_min = min(sd.mu[v] for v in g.vertex_ids())
        ok = dev < 1e-10 and abs(mu_min - 1.0) < 1e-10
        return ok, f"beta {_f(sd.beta)} vs 1+2cos(2pi/{g.kappa}) (dev {_e(dev)}), min mu {_f(mu_min)}"

    def integrality_check() -> Tuple[bool, str]:
        top = min(g.level, 3)
        mats = fusion_matrices(g, (top, 0))
        mats.update(fusion_matrices(g, (0, top)))
        neg = [tp for tp, F in mats.items() if (F.matrix < 0).any()]
        A = fusion_matrix(g, (1, 0)).matrix
        row = [
            a
            for k, a in enumerate(g.vertex_ids())
            if A[k].sum() != len(g.out_neighbors(a))
        ]
        ok = not neg and not row
        return ok, f"{len(mats)} matrices non-negative, sigma row sums match out-degrees"

    def dims_check() -> Tuple[bool, str]:
        totals = []
        bad = []
        for s in range(min(g.level, 2) + 1):
            for a in range(s + 1):
                tp = (a, s - a)
                rep = essential_dims(g, cells, tp)
                totals.append(f"({tp[0]},{tp[1]}):{int(rep.total.sum())}")
                if not rep.matches_fusion:
                    bad.append(f"({tp[0]},{tp[1]}): {len(rep.mismatches)} entries off")
        detail = "totals " + " ".join(totals)
        if bad:
            detail += "; mismatches: " + ", ".join(bad)
        return not bad, detail

    def tl_check() -> Tuple[bool, str]:
        rep = verify_tl(g, cells, max_len=max_len)
        detail = ", ".join(f"{k} {_e(v)}" for k, v in rep.residual_items)
        if not rep.passed(CHECK_TOL):
            worst = {k: rep.worst.get(k, "") for k, v in rep.residual_items if not v < CHECK_TOL}
            detail += "; failing at: " + "; ".join(f"{k} ({w})" for k, w in worst.items())
        return rep.passed(CHECK_TOL), detail

    def adjoint_check() -> Tuple[bool, str]:
        dev = verify_adjointness(g, cells, max_len=max_len)
        return dev < 1e-12, f"max deviation {_e(dev)}"

    def decomposition_check() -> Tuple[bool, str]:
        rep = dict(verify_decomposition(g, cells, max_len=max_len))
        residuals, ok = _decomposition_verdict(rep)
        return ok, (
            f"{int(rep['gradings'])} gradings, {int(rep['failures'])} failures, "
            f"worst residual {_e(max(residuals.values()))}"
        )

    run("spectral", spectral_check)
    if g.name == "a2":
        run("fusion-table", lambda: check_a2_table(g))
    run("fusion-integrality", integrality_check)
    run("essential-dims", dims_check)
    if g.name in MEMBERSHIP_GRAPHS:
        run("kernel-membership", lambda: check_memberships(g, cells))
    if g.name == "e5":
        run("kernel-ratios", lambda: check_e5_ratios(g, cells))
    run("relations", tl_check)
    run("adjointness", adjoint_check)
    run("decomposition", decomposition_check)

    n_fail = sum(1 for c in checks if not c["passed"])
    lines = [f"report for {g.name} (word length up to {max_len}):"]
    for c in checks:
        lines.append(f"  {'PASS' if c['passed'] else 'FAIL'}  {c['name']:<18} {c['detail']}")
    lines.append(
        f"all {len(checks)} checks passed"
        if n_fail == 0
        else f"{n_fail} of {len(checks)} checks FAILED"
    )
    payload = {
        "graph": g.name,
        "max_len": max_len,
        "checks": checks,
        "passed": n_fail == 0,
    }
    return CommandResult(status=0 if n_fail == 0 else 1, text="\n".join(lines), payload=payload)


def cmd_report(args) -> CommandResult:
    g = _graph_of(args)
    cells = _cells_of(g, args)
    res = run_report(g, cells, max_len=args.max_len)
    return CommandResult(res.status, res.text, res.payload, mode=_mode(args))


# ----------------------------------------------------------------------
# parser and dispatch: one function per command adds its parser, and a
# call builds only the parser of the command it runs


def _add_graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", nargs="?", help="graph name (a2..a5, e5)")
    p.add_argument("--graph-file", help="load the graph from a JSON file instead")


def _add_max_len(p: argparse.ArgumentParser, default: int) -> None:
    def length(text: str) -> int:
        n = int(text)
        if n < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
        return n

    p.add_argument("--max-len", type=length, default=default, help="longest word swept")


def _add_format(p: argparse.ArgumentParser, choices=("text", "json")) -> None:
    p.add_argument("--format", choices=list(choices), default="text")
    p.add_argument("--json", action="store_true", help="shorthand for --format json")


def _add_graphs(sub) -> None:
    p_graphs = sub.add_parser("graphs", help="list or inspect the built-in graphs")
    gsub = p_graphs.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("list", help="list registry graphs")
    _add_format(p)
    p.set_defaults(func=cmd_graphs_list)
    p = gsub.add_parser("show", help="show one graph")
    _add_graph_arg(p)
    _add_format(p)
    p.set_defaults(func=cmd_graphs_show)


def _add_paths(sub) -> None:
    p_paths = sub.add_parser("paths", help="enumerate elementary paths")
    psub = p_paths.add_subparsers(dest="subcommand", required=True)
    p = psub.add_parser("enumerate", help="list the paths of one grading")
    _add_graph_arg(p)
    p.add_argument("--from", dest="src", required=True, help="start vertex")
    p.add_argument("--to", dest="dst", required=True, help="end vertex")
    p.add_argument("--word", required=True, help="tag word spelled with s and b")
    _add_format(p)
    p.set_defaults(func=cmd_paths_enumerate)


def _add_cells(sub) -> None:
    p_cells = sub.add_parser("cells", help="solve or verify triangular cells")
    csub = p_cells.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("solve", help="solve the cell equations")
    _add_graph_arg(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="write the solved cells to this file")
    _add_format(p)
    p.set_defaults(func=cmd_cells_solve)
    p = csub.add_parser("verify", help="re-verify a cell file")
    _add_graph_arg(p)
    p.add_argument("--in", dest="infile", required=True, help="cell file to check")
    _add_max_len(p, 3)
    _add_format(p)
    p.set_defaults(func=cmd_cells_verify)


def _add_verify(sub) -> None:
    p_verify = sub.add_parser("verify", help="verify operator relations")
    vsub = p_verify.add_subparsers(dest="subcommand", required=True)
    p = vsub.add_parser("tl", help="loop-algebra relation residuals")
    _add_graph_arg(p)
    _add_max_len(p, 4)
    p.add_argument("--cells", help="cell file (default: shipped)")
    _add_format(p)
    p.set_defaults(func=cmd_verify_tl)
    p = vsub.add_parser("decomposition", help="path-space decomposition sweep")
    _add_graph_arg(p)
    _add_max_len(p, 4)
    p.add_argument("--cells", help="cell file (default: shipped)")
    _add_format(p)
    p.set_defaults(func=cmd_verify_decomposition)


def _add_essential(sub) -> None:
    p = sub.add_parser("essential", help="essential paths or their dimensions")
    _add_graph_arg(p)
    p.add_argument("--type", dest="tp", required=True, help="path type a,b")
    p.add_argument("--from", dest="src", help="start vertex (with --to: list the basis)")
    p.add_argument("--to", dest="dst", help="end vertex")
    p.add_argument("--cells", help="cell file (default: shipped)")
    _add_format(p, choices=("text", "json", "csv"))
    p.set_defaults(func=cmd_essential)


def _add_factorize(sub) -> None:
    p = sub.add_parser("factorize", help="peel a path down to an essential core")
    _add_graph_arg(p)
    p.add_argument("--path", required=True, help="vertex run, ','-separated (';' if ids contain ',')")
    p.add_argument("--word", help="tag word (default: inferred when unambiguous)")
    p.add_argument("--cells", help="cell file (default: shipped)")
    _add_format(p)
    p.set_defaults(func=cmd_factorize)


def _add_fusion(sub) -> None:
    p_fusion = sub.add_parser("fusion", help="fusion table / module action")
    fsub = p_fusion.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("table", help="pairwise products (self-fusion graphs)")
    _add_graph_arg(p)
    _add_format(p)
    p.set_defaults(func=cmd_fusion_table)
    p = fsub.add_parser("module", help="module-action matrix of one type")
    _add_graph_arg(p)
    p.add_argument("--type", dest="tp", required=True, help="type a,b")
    _add_format(p)
    p.set_defaults(func=cmd_fusion_module)


def _add_report(sub) -> None:
    p = sub.add_parser("report", help="one-shot reproduction report")
    _add_graph_arg(p)
    p.add_argument("--cells", help="cell file (default: shipped)")
    _add_max_len(p, 4)
    _add_format(p)
    p.set_defaults(func=cmd_report)


#: every command, in help order, with the function that adds its parser
COMMANDS: Mapping[str, Callable[..., None]] = {
    "graphs": _add_graphs,
    "paths": _add_paths,
    "cells": _add_cells,
    "verify": _add_verify,
    "essential": _add_essential,
    "factorize": _add_factorize,
    "fusion": _add_fusion,
    "report": _add_report,
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The su3paths parser: every command in COMMANDS, or only the named
    one.

    A run needs only its own command's parser: on a 2-core x86 machine,
    building all eighteen parsers took about 2 ms, the report parser
    alone 0.25 ms.  The
    one-command parser's usage line still lists every command (its
    metavar), so what it prints for help and usage errors is what the
    full parser prints.  Top-level help and an unknown command need the
    full parser (dispatch picks it when argv does not start with a
    command).
    """
    parser = argparse.ArgumentParser(
        prog="su3paths",
        description="paths, cells and essential-path machinery on trivalent module graphs",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        metavar = "{" + ",".join(COMMANDS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, add in COMMANDS.items():
        if command is None or name == command:
            add(sub)
    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> CommandResult:
    """Parse argv and run the matching command.

    Returns instead of raising so callers (and tests) see the status and
    both renderings; argparse usage errors surface as status 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(status=code, text="", payload=None)
    try:
        return args.func(args)
    except CellSolveError as exc:
        res = dict(getattr(exc, "residuals", {}) or {})
        lines = [f"error: {exc}"] + [f"  {k:<12} {_e(res[k])}" for k in sorted(res)]
        return CommandResult(1, "\n".join(lines), {"error": str(exc), "residuals": res}, _mode(args))
    except (GraphError, CellFileError, PathSpaceTooLarge, DecompositionError, ValueError) as exc:
        return CommandResult(1, f"error: {exc}", {"error": str(exc)}, _mode(args))
    except OSError as exc:
        return CommandResult(1, f"error: {exc}", {"error": str(exc)}, _mode(args))


def main(argv: Optional[Sequence[str]] = None) -> int:
    res = dispatch(argv)
    if res.mode == "json" and res.payload is not None:
        sys.stdout.write(_dump(res.payload) + "\n")
    elif res.text:
        stream = sys.stderr if res.status and res.text.startswith("error:") else sys.stdout
        stream.write(res.text + "\n")
    return res.status


if __name__ == "__main__":
    sys.exit(main())

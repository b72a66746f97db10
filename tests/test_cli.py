"""Command-line surface: dispatch, formats, exit codes, file plumbing."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import su3paths
from su3paths import (
    cell_system,
    enumerate_triangles,
    get_graph,
    graph_to_dict,
    load_cells,
    save_cells,
    shipped_cells,
)
from su3paths.cells import cells_to_dict
from su3paths.cli import build_parser, dispatch, main
from su3paths.reference import _f


def run(*argv):
    return dispatch(list(argv))


def test_graphs_list():
    r = run("graphs", "list")
    assert r.status == 0
    assert all(name in r.text for name in ("a2", "a3", "a4", "a5", "e5"))


def test_graphs_show_json():
    r = run("graphs", "show", "a2", "--json")
    assert r.status == 0
    assert r.payload["level"] == 2
    assert abs(r.payload["beta"] - 1.618033988749895) < 1e-12
    assert r.payload["mu"]["3"] == pytest.approx(1.618033988749895)


def test_graph_name_case_insensitive():
    assert run("graphs", "show", "A2", "--json").payload["name"] == "a2"


def test_unknown_graph_errors():
    r = run("graphs", "show", "zz")
    assert r.status == 1
    assert "error" in r.text


def test_usage_error_status():
    assert run("graphs").status == 2
    assert run("nonsense").status == 2
    assert run("essential", "a2").status == 2  # --type is required


def test_negative_max_len_is_a_usage_error():
    for argv in (
        ("report", "a2"),
        ("verify", "tl", "e5"),
        ("verify", "decomposition", "e5"),
        ("cells", "verify", "e5", "--in", "cells.json"),
    ):
        assert run(*argv, "--max-len", "-1").status == 2
    # length 0 sweeps the empty word: its cup caps and the sum rule
    r = run("verify", "tl", "e5", "--max-len", "0", "--json")
    assert r.status == 0 and r.payload["checks"] == 25


def test_paths_enumerate():
    r = run("paths", "enumerate", "a2", "--from", "3", "--to", "3", "--word", "bs")
    assert r.status == 0
    assert "(3 1 3)" in r.text and "(3 8 3)" in r.text
    j = run(
        "paths", "enumerate", "a2", "--from", "3", "--to", "3", "--word", "bs", "--json"
    )
    assert j.payload["dim"] == 2
    assert j.payload["paths"] == [["3", "1", "3"], ["3", "8", "3"]]


def test_essential_grading_mode():
    r = run(
        "essential", "a2", "--type", "1,1", "--from", "3", "--to", "3", "--json"
    )
    assert r.status == 0
    assert r.payload["dim"] == 2
    words = {row["word"]: row for row in r.payload["words"]}
    assert set(words) == {"bs", "sb"}
    assert all(row["dim"] == 1 for row in words.values())


def test_essential_dims_mode():
    r = run("essential", "a2", "--type", "2,0", "--json")
    assert r.status == 0
    assert sum(map(sum, r.payload["total"])) == 6
    assert r.payload["matches_fusion"] is True
    assert r.payload["mismatches"] == []
    # one endpoint without the other is rejected
    half = run("essential", "a2", "--type", "2,0", "--from", "3")
    assert half.status == 1 and "together" in half.text


def test_essential_grading_mode_checks_the_level_first(monkeypatch):
    """A type beyond the level is the error essential_dims gives, raised
    before any kernel is built: the cells' memo stays empty, where type
    (7,7) on a2 once grew past 600 MiB of kept kernels."""
    from su3paths import cli
    from su3paths.cells import cell_system

    g = get_graph("a2")
    cells = cell_system(g, shipped_cells(g).values)  # a fresh, empty memo
    monkeypatch.setattr(cli, "shipped_cells", lambda graph: cells)
    for tp in ("3,0", "5,5", "7,7"):
        listing = run("essential", "a2", "--type", tp, "--from", "1", "--to", "1")
        dims = run("essential", "a2", "--type", tp)
        assert listing.status == dims.status == 1
        assert listing.text == dims.text
        assert listing.text.startswith(f"error: type ({tp.replace(',', ', ')}) exceeds the level 2")
        assert cells._memo == {}
    within = run("essential", "a2", "--type", "2,0", "--from", "1", "--to", "1")
    assert within.status == 0 and cells._memo


def test_fusion_table_text():
    r = run("fusion", "table", "a2")
    assert r.status == 0
    assert "x*y" in r.text and "1+8" in r.text
    assert r.payload["table"]["3"]["3b"] == {"1": 1, "8": 1}


def test_fusion_module_json():
    r = run("fusion", "module", "e5", "--type", "1,1", "--json")
    assert r.status == 0
    idx = r.payload["vertices"].index("2_0")
    assert r.payload["matrix"][idx][idx] == 2


def test_fusion_table_module_graph_errors():
    r = run("fusion", "table", "e5")
    assert r.status == 1
    assert "module" in r.text


def test_verify_tl_and_decomposition():
    r = run("verify", "tl", "a2", "--max-len", "2", "--json")
    assert r.status == 0 and r.payload["passed"] is True
    d = run("verify", "decomposition", "a2", "--max-len", "2", "--json")
    assert d.status == 0 and d.payload["failures"] == 0


def test_factorize_inference_and_separators():
    r = run("factorize", "a2", "--path", "3,3b,3", "--json")
    assert r.status == 0
    assert r.payload["word"] == "sb"
    assert r.payload["core"] == {"path": ["3"], "word": ""}
    assert len(r.payload["events"]) == 1
    assert r.payload["passed"] is True
    semi = run("factorize", "a2", "--path", "3;3b;3", "--word", "sb", "--json")
    assert semi.payload == r.payload
    # inference refuses a non-step
    bad = run("factorize", "a2", "--path", "1,6")
    assert bad.status == 1 and "not an arrow" in bad.text


def test_json_output_is_deterministic():
    a = run("verify", "tl", "a2", "--max-len", "2", "--json")
    b = run("verify", "tl", "a2", "--max-len", "2", "--json")
    assert json.dumps(a.payload, sort_keys=True) == json.dumps(b.payload, sort_keys=True)


def test_csv_format():
    r = run("essential", "a2", "--type", "1,0", "--format", "csv")
    assert r.status == 0
    lines = r.text.splitlines()
    assert lines[0].startswith("word,")
    assert len(lines) > 1 and all("," in ln for ln in lines[1:])


def test_cells_solve_verify_roundtrip(tmp_path):
    out = tmp_path / "a2.json"
    r = run("cells", "solve", "a2", "--seed", "0", "--out", str(out))
    assert r.status == 0 and out.exists()
    v = run("cells", "verify", "a2", "--in", str(out), "--max-len", "2", "--json")
    assert v.status == 0 and v.payload["passed"] is True


def test_cells_solve_failure_lists_the_error_and_exits_1(tmp_path):
    """A directed 2-cycle with kappa 4 is a valid graph with no triangles:
    cells solve reports the solver's error itself."""
    gf = tmp_path / "two.json"
    gf.write_text(
        json.dumps(
            {
                "name": "two",
                "kappa": 4,
                "vertices": [{"id": "1", "tri": None}, {"id": "2", "tri": None}],
                "sigma_edges": [["1", "2"], ["2", "1"]],
            }
        )
    )
    r = run("cells", "solve", "--graph-file", str(gf))
    assert r.status == 1
    assert r.text == "cell solve failed for two: graph 'two' has no triangles"
    j = run("cells", "solve", "--graph-file", str(gf), "--json")
    assert j.status == 1
    assert j.payload == {"error": "graph 'two' has no triangles", "residuals": {}}


def test_essential_dims_lists_each_mismatch(tmp_path):
    """On all-zero a2 cells every kernel is the whole graded space, so
    type (2,0) disagrees with the module action: the listing exits 1 and
    names each mismatching entry, and the csv rows carry the same
    counts."""
    g = get_graph("a2")
    p = tmp_path / "zero.json"
    save_cells(cell_system(g, {t: 0.0 for t in enumerate_triangles(g)}), str(p))
    r = run("essential", "a2", "--type", "2,0", "--cells", str(p))
    assert r.status == 1
    lines = r.text.splitlines()
    at = lines.index("MISMATCH in 9 entries (word, from, to, essential, predicted):")
    assert lines[at + 1 :] == [
        "  ss 1 -> 3b: 1 vs 0",
        "  ss 3b -> 6b: 1 vs 0",
        "  ss 3b -> 3: 2 vs 1",
        "  ss 6b -> 8: 1 vs 0",
        "  ss 3 -> 1: 1 vs 0",
        "  ss 3 -> 8: 2 vs 1",
        "  ss 8 -> 3b: 2 vs 1",
        "  ss 8 -> 6: 1 vs 0",
        "  ss 6 -> 3: 1 vs 0",
    ]
    csv = run("essential", "a2", "--type", "2,0", "--cells", str(p), "--format", "csv")
    assert csv.status == 1
    assert csv.text.splitlines() == [
        "word,from,to,essential,predicted",
        "ss,1,3b,1,0",
        "ss,1,6,1,1",
        "ss,3b,6b,1,0",
        "ss,3b,3,2,1",
        "ss,6b,1,1,1",
        "ss,6b,8,1,0",
        "ss,3,1,1,0",
        "ss,3,8,2,1",
        "ss,8,3b,2,1",
        "ss,8,6,1,0",
        "ss,6,6b,1,1",
        "ss,6,3,1,0",
    ]


def test_cells_verify_flags_zeros(tmp_path):
    g = get_graph("a2")
    rows = [
        {"tri": list(t.vertices), "re": 0.0, "im": 0.0} for t in enumerate_triangles(g)
    ]
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({"graph": "a2", "seed": 0, "cells": rows}))
    r = run("cells", "verify", "a2", "--in", str(p), "--max-len", "2")
    assert r.status == 1


def test_corrupt_cell_file_exits_with_an_error_line(tmp_path, capsys):
    d = cells_to_dict(shipped_cells(get_graph("a2")))
    d["residuals"] = []
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    code = main(["cells", "verify", "a2", "--in", str(p)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def _huge_cell_file(tmp_path):
    """a2's shipped cells with the first one at 1e300, as a cell file."""
    g = get_graph("a2")
    values = dict(shipped_cells(g).items)
    values[next(iter(values))] = 1e300
    p = tmp_path / "huge.json"
    save_cells(cell_system(g, values), str(p))
    return p


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_cell_is_an_inf_residual_not_a_traceback(tmp_path, capsys):
    # |T|^2 overflows a float above about 1.3e154: the sum rule reads inf
    g = get_graph("a2")
    p = _huge_cell_file(tmp_path)
    warning = "loaded cells fail the arrow sum rule: max residual inf"
    assert load_cells(g, str(p)).warnings == (warning,)
    for argv in (["verify", "tl", "a2"], ["report", "a2"]):
        code = main([*argv, "--cells", str(p)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert "FAIL" in out and "sum_rule" in out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_tl_without_a_lemma_fit_prints_none(tmp_path):
    def fitted(*argv):
        text, payload = run("verify", "tl", "a2", *argv), run("verify", "tl", "a2", *argv, "--json")
        assert text.text.splitlines()[-2].startswith("lemma constant 2.61803398875, fitted ")
        return text.text.splitlines()[-2].split()[-1], payload.payload["lemma_fit"]

    # a fit needs a 4-run: none up to length 3
    assert fitted("--max-len", "3") == ("none", None)
    # with a 1e300 cell the fit's denominator is NaN
    assert fitted("--cells", str(_huge_cell_file(tmp_path))) == ("none", None)
    shown, fit = fitted()
    assert fit == pytest.approx(2.618033988749895) and shown == _f(fit)


#: one argument list per command path, with every option it has
_SAMPLES = {
    ("graphs", "list"): ["--json"],
    ("graphs", "show"): ["a2", "--format", "json"],
    ("paths", "enumerate"): ["a2", "--from", "1", "--to", "3", "--word", "s"],
    ("cells", "solve"): ["e5", "--seed", "3", "--tol", "1e-8", "--out", "c.json"],
    ("cells", "verify"): ["e5", "--in", "c.json", "--max-len", "2"],
    ("verify", "tl"): ["a2", "--max-len", "3", "--cells", "c.json", "--json"],
    ("verify", "decomposition"): ["--graph-file", "g.json", "--max-len", "0"],
    ("essential",): ["a2", "--type", "1,1", "--from", "1", "--to", "3", "--format", "csv"],
    ("factorize",): ["a2", "--path", "1,3", "--word", "s", "--cells", "c.json"],
    ("fusion", "table"): ["a2"],
    ("fusion", "module"): ["a2", "--type", "1,0", "--json"],
    ("report",): ["a2", "--cells", "c.json", "--max-len", "2"],
}


def _command_paths(parser, path=()):
    """Every command path of a parser, down through its sub-commands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [path]
    return [p for name, sub in subs[0].choices.items() for p in _command_paths(sub, (*path, name))]


def _parse(parser, argv, capsys):
    """(namespace or None, exit code or None, stdout, stderr) of one parse."""
    try:
        args, code = parser.parse_args(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    return (args, code, *capsys.readouterr())


def test_samples_cover_every_command_path():
    assert sorted(_command_paths(build_parser())) == sorted(_SAMPLES)


@pytest.mark.parametrize("path", sorted(_SAMPLES), ids=" ".join)
def test_one_command_parser_parses_and_prints_as_the_full_parser(path, capsys):
    full, one = build_parser(), build_parser(path[0])
    argvs = [
        [*path, *_SAMPLES[path]],
        [path[0], "--help"],
        [*path, "--help"],
        list(path),  # a missing argument, where one is required
        [*path, "--max-len", "-1"],  # out of range, or no such option
        [*path, "a2", "--bogus"],  # always an error
        [path[0], "nosuch"],  # an unknown sub-command, or a graph name
    ]
    for argv in argvs:
        expected = _parse(full, argv, capsys)
        assert _parse(one, argv, capsys) == expected, argv
        if expected[1] is not None:
            # dispatch prints what the full parser prints and exits with its code
            assert dispatch(argv).status == expected[1]
            assert (None, expected[1], *capsys.readouterr()) == expected


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["nosuch"], ["--json", "report"]])
def test_top_level_help_and_errors_come_from_the_full_parser(argv, capsys):
    expected = _parse(build_parser(), argv, capsys)
    assert expected[1] in (0, 2)
    assert dispatch(argv).status == expected[1]
    assert (None, expected[1], *capsys.readouterr()) == expected


def test_a_command_builds_only_its_own_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert dispatch(["report", "a2"]).status == 0
    assert built == ["su3paths", "su3paths report"]


_CAPPED = """
import sys
import su3paths.paths
su3paths.paths.MAX_PATH_SPACE = 20  # a2 words of length 3 have 24 paths each
from su3paths.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_capped(*argv):
    src = os.path.dirname(os.path.dirname(su3paths.__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
    )
    return subprocess.run(
        [sys.executable, "-c", _CAPPED, *argv], env=env, capture_output=True, text=True
    )


def test_path_space_cap_is_an_error_line_not_a_traceback():
    report = _run_capped("report", "a2", "--max-len", "3")
    assert report.returncode == 1 and "Traceback" not in report.stderr
    capped = [line for line in report.stdout.splitlines() if "PathSpaceTooLarge" in line]
    assert capped and all(line.split()[0] == "FAIL" for line in capped)
    listing = _run_capped("paths", "enumerate", "a2", "--from", "1", "--to", "3", "--word", "sbs")
    assert listing.returncode == 1 and listing.stdout == ""
    assert listing.stderr == "error: word sbs has 24 paths on a2 (cap 20)\n"


def test_runs_do_not_import_numpy_ma():
    # np.unique imports numpy.ma (through np.ma.is_masked) on numpy 2.4:
    # about a megabyte of modules and 15 ms that no command needs
    code = (
        "import contextlib, io, sys\n"
        "from su3paths.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['report', 'a2', '--max-len', '2']), main(['cells', 'solve', 'a2'])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(su3paths.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[0, 0] False\n"


def test_report_happy_and_broken(tmp_path):
    ok = run("report", "a2", "--max-len", "2")
    assert ok.status == 0
    assert "PASS" in ok.text and "FAIL" not in ok.text

    g = get_graph("a2")
    rows = [
        {"tri": list(t.vertices), "re": 0.0, "im": 0.0} for t in enumerate_triangles(g)
    ]
    p = tmp_path / "zero.json"
    p.write_text(json.dumps({"graph": "a2", "seed": 0, "cells": rows}))
    broken = run("report", "a2", "--cells", str(p), "--max-len", "2")
    assert broken.status == 1
    assert "FAIL" in broken.text and "h1" in broken.text


def test_graph_file_argument(tmp_path):
    gf = tmp_path / "mine.json"
    gf.write_text(json.dumps(graph_to_dict(get_graph("a2"))))
    r = run("graphs", "show", "--graph-file", str(gf), "--json")
    assert r.status == 0 and r.payload["name"] == "a2"


def test_cells_dir_env(tmp_path, monkeypatch):
    g = get_graph("a2")
    save_cells(shipped_cells(g), str(tmp_path / "a2.json"))
    monkeypatch.setenv("SU3PATHS_CELLS_DIR", str(tmp_path))
    assert run("verify", "tl", "a2", "--max-len", "2").status == 0
    monkeypatch.setenv("SU3PATHS_CELLS_DIR", str(tmp_path / "nope"))
    r = run("verify", "tl", "a2", "--max-len", "2")
    assert r.status == 1 and "error" in r.text


def test_main_prints_json(capsys):
    code = main(["graphs", "show", "a2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)  # exactly one JSON document on stdout
    assert doc["name"] == "a2"


def test_main_errors_go_to_stderr(capsys):
    code = main(["graphs", "show", "zz"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error" in captured.err

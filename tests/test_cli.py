"""Command-line surface: dispatch, formats, exit codes, file plumbing."""

import json
import os
import subprocess
import sys

import pytest

import su3paths
from su3paths import enumerate_triangles, get_graph, graph_to_dict, save_cells, shipped_cells
from su3paths.cells import cells_to_dict
from su3paths.cli import dispatch, main


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

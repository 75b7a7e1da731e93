import json
import warnings

import numpy as np
import pytest

from mmsubspace.cli import main
from mmsubspace.model import save_problem
from mmsubspace.solver import Trace
from conftest import instance_grid


@pytest.fixture
def problem_file(tmp_path):
    p = instance_grid(seed=3, dims=(3,), kinds=["hyperbolic"])[0]
    path = tmp_path / "p.json"
    save_problem(p, path)
    return path


def test_solve_converged_exit_zero(problem_file, tmp_path, capsys):
    code = main(["solve", "--problem", str(problem_file),
                 "--trace-out", str(tmp_path / "t")])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged: True" in out
    assert (tmp_path / "t.csv").exists()
    assert (tmp_path / "t.json").exists()


def test_solve_max_iters_exit_two(problem_file, capsys):
    code = main(["solve", "--problem", str(problem_file), "--max-iters", "2",
                 "--grad-tol", "1e-14"])
    assert code == 2


def test_solve_writes_summary(problem_file, tmp_path):
    summary_path = tmp_path / "s.json"
    code = main(["solve", "--problem", str(problem_file), "--certify",
                 "--trace-out", str(tmp_path / "t"),
                 "--summary-out", str(summary_path)])
    assert code == 0
    s = json.loads(summary_path.read_text())
    for key in ("vartheta", "mu", "eta_lo", "eta_hi", "kappa_max", "n_eps",
                "all_inequalities_pass"):
        assert key in s
    assert s["all_inequalities_pass"] is True
    assert 0.0 < s["vartheta"] < 1.0
    assert s["n_eps"] >= 1


def test_summary_requires_certify(problem_file, tmp_path, capsys):
    code = main(["solve", "--problem", str(problem_file),
                 "--summary-out", str(tmp_path / "s.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_summary_without_certify_is_refused_before_the_solve(problem_file, tmp_path, capsys):
    code = main(["solve", "--problem", str(problem_file), "--trace-out", str(tmp_path / "t"),
                 "--summary-out", str(tmp_path / "s.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: --summary-out requires --certify\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["p.json"]


def test_malformed_problem_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 2, "R": [[1.0, 2.0], [0.0, 1.0]], "r": [0.0, 0.0],
        "penalty": {"kind": "zero"},
    }))
    code = main(["solve", "--problem", str(bad)])
    assert code == 1
    assert "not symmetric" in capsys.readouterr().err


def test_missing_problem_file(tmp_path, capsys):
    code = main(["solve", "--problem", str(tmp_path / "nope.json")])
    assert code == 1


def test_verify_fresh_trace_passes(problem_file, tmp_path, capsys):
    main(["solve", "--problem", str(problem_file), "--certify",
          "--trace-out", str(tmp_path / "t")])
    code = main(["verify", "--problem", str(problem_file),
                 "--trace", str(tmp_path / "t.json")])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_verify_detects_corrupted_objective(problem_file, tmp_path, capsys):
    main(["solve", "--problem", str(problem_file), "--certify",
          "--trace-out", str(tmp_path / "t")])
    d = json.loads((tmp_path / "t.json").read_text())
    # inflate one recorded objective: surrogate decrease must now fail
    mid = len(d["records"]) // 2
    d["records"][mid]["obj"] += 1.0
    (tmp_path / "t.json").write_text(json.dumps(d))
    code = main(["verify", "--problem", str(problem_file),
                 "--trace", str(tmp_path / "t.json")])
    assert code == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_verify_online_trace(problem_file, tmp_path, capsys):
    code = main(["solve", "--problem", str(problem_file), "--certify",
                 "--stream", "geometric:0.8", "--seed", "7",
                 "--trace-out", str(tmp_path / "t")])
    assert code == 0
    code = main(["verify", "--problem", str(problem_file),
                 "--trace", str(tmp_path / "t.json"),
                 "--stream", "geometric:0.8", "--seed", "7"])
    assert code == 0


def test_zero_iteration_trace_vacuous_pass(tmp_path, capsys):
    p = instance_grid(seed=3, dims=(3,), kinds=["hyperbolic"])[0]
    ppath = tmp_path / "p.json"
    save_problem(p, ppath)
    from mmsubspace.solver import SolveOptions, reference_minimizer, run_batch

    trace = run_batch(p, h1=reference_minimizer(p).h,
                      opts=SolveOptions(max_iters=5, grad_tol=1e-8, certify=True))
    assert trace.n_steps == 0
    trace.to_json(tmp_path / "t.json")
    code = main(["verify", "--problem", str(ppath), "--trace", str(tmp_path / "t.json")])
    assert code == 0


def test_demo_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["demo", "--seed", "5", "--out-dir", str(out1)]) == 0
    assert main(["demo", "--seed", "5", "--out-dir", str(out2)]) == 0
    t1 = (out1 / "comparison.txt").read_text()
    t2 = (out2 / "comparison.txt").read_text()
    assert t1 == t2
    names1 = sorted(f.name for f in out1.iterdir())
    assert names1 == sorted(f.name for f in out2.iterdir())
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_bad_subspace_spec(problem_file, capsys):
    code = main(["solve", "--problem", str(problem_file), "--subspace", "newton"])
    assert code == 1


def test_trace_roundtrip_preserves_verification(problem_file, tmp_path):
    main(["solve", "--problem", str(problem_file), "--certify",
          "--trace-out", str(tmp_path / "t")])
    trace = Trace.from_json(tmp_path / "t.json")
    assert trace.converged
    assert trace.meta["mode"] == "batch"
    csv_lines = (tmp_path / "t.csv").read_text().splitlines()
    assert len(csv_lines) == len(trace.records) + 1


def test_a_trace_in_the_indented_layout_still_verifies(problem_file, tmp_path, capsys):
    main(["solve", "--problem", str(problem_file), "--certify", "--trace-out", str(tmp_path / "t")])
    text = (tmp_path / "t.json").read_text()
    d = json.loads(text)
    assert len(text.splitlines()) == len(d["records"]) + 2  # the run-level keys, one line per record, "]}"
    old = tmp_path / "old.json"
    with open(old, "w") as f:
        json.dump(d, f, indent=1)
    assert Trace.from_json(old).as_dict() == d
    assert main(["verify", "--problem", str(problem_file), "--trace", str(old)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_verify_refuses_an_online_trace_without_its_stream(problem_file, tmp_path, capsys):
    main(["solve", "--problem", str(problem_file), "--certify",
          "--stream", "geometric:0.8", "--seed", "7", "--trace-out", str(tmp_path / "t")])
    capsys.readouterr()
    code = main(["verify", "--problem", str(problem_file), "--trace", str(tmp_path / "t.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "--stream" in err and "--seed" in err


def test_verify_refuses_a_stream_for_a_batch_trace(problem_file, tmp_path, capsys):
    main(["solve", "--problem", str(problem_file), "--certify", "--trace-out", str(tmp_path / "t")])
    capsys.readouterr()
    code = main(["verify", "--problem", str(problem_file), "--trace", str(tmp_path / "t.json"),
                 "--stream", "geometric:0.5"])
    assert code == 1
    assert "--stream" in capsys.readouterr().err


def test_a_constant_stream_in_any_case_solves_and_verifies_as_batch(problem_file, tmp_path, capsys):
    assert main(["solve", "--problem", str(problem_file), "--certify", "--stream", "CONSTANT",
                 "--trace-out", str(tmp_path / "t")]) == 0
    assert Trace.from_json(tmp_path / "t.json").meta["mode"] == "batch"
    capsys.readouterr()
    for stream in ([], ["--stream", " Constant"]):
        assert main(["verify", "--problem", str(problem_file), "--trace", str(tmp_path / "t.json"), *stream]) == 0
        assert "overall: PASS" in capsys.readouterr().out


def test_solve_reports_an_L_of_the_wrong_width(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": 3, "R": {"diag": [1.0, 2.0, 3.0]}, "r": [1.0, 0.0, -1.0],
                                "penalty": {"kind": "hyperbolic", "L": [[1.0, -1.0], [0.0, 1.0]]}}))
    assert main(["solve", "--problem", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: L has 2 columns, expected 3")


@pytest.mark.parametrize("spec, field", [
    ({"dim": 2, "R": {"diag": [1.0, 2.0]}, "penalty": {"kind": "hyperbolic", "L": [[1.0, -1.0], [0.0]]}},
     "'penalty.L'"),
    ({"dim": 2, "R": [[1.0, 0.0], [0.0]]}, "'R'"),
    ({"dim": 2, "R": {"diag": [1.0, 2.0]}, "penalty": {"kind": "hyperbolic", "lambda": "x"}},
     "'penalty.lambda'"),
    ({"dim": 2, "R": {"diag": [1.0, 2.0]}, "r": [1.0, "a"]}, "'r'"),
    ({"dim": 2, "R": {"diag": [1.0, 2.0]}, "penalty": "hyperbolic"}, "'penalty'"),
    # a number written as a string, which NumPy and float() would parse
    ({"dim": 1, "R": [["2.0"]], "r": ["1"], "penalty": {"kind": "hyperbolic", "lambda": "0.5", "delta": "1"}},
     "'R' in the problem file: expected numbers, got a string"),
    ({"dim": 2, "R": [[10**30, "0"], [0, 1]]}, "'R' in the problem file: expected numbers"),
    ({"dim": 2, "R": {"diag": ["1", 2]}}, "'R.diag' in the problem file: expected numbers"),
    ({"dim": 2, "R": {"diag": [1, 2]}, "r": ["1", 0]}, "'r' in the problem file: expected numbers"),
    ({"dim": 2, "R": {"diag": [1, 2]}, "penalty": {"kind": "fair", "L": [[10**20, -1], [0, "1"]]}},
     "'penalty.L' in the problem file: expected numbers"),
    ({"dim": 2, "R": {"diag": [1, 2]}, "penalty": {"kind": "hyperbolic", "lambda": "0.5"}},
     "'penalty.lambda' in the problem file: expected a number, got \"0.5\""),
    ({"dim": 2, "R": {"diag": [1, 2]}, "penalty": {"kind": "fair", "delta": "1"}},
     "'penalty.delta' in the problem file: expected a number"),
], ids=["ragged-L", "ragged-R", "string-lambda", "string-in-r", "penalty-not-an-object", "strings",
        "string-beside-a-huge-integer", "string-in-diag", "string-number-in-r", "string-in-L",
        "string-number-lambda", "string-number-delta"])
def test_solve_reports_a_malformed_number_in_the_problem_file(tmp_path, capsys, spec, field):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert field in err.splitlines()[0]


# an input file that cannot be read, or holds JSON of the wrong shape, ends in "error:"

@pytest.mark.parametrize("case", ["problem-dir", "problem-utf16", "trace-dir", "trace-utf16", "replay-dir",
                                  "replay-utf16"])
def test_an_unreadable_input_file_is_an_error(problem_file, tmp_path, capsys, case):
    directory = tmp_path / "d"
    directory.mkdir()
    utf16 = tmp_path / "u.json"
    utf16.write_bytes(b"\xff\xfe{}")
    argv = {
        "problem-dir": ["solve", "--problem", str(directory)],
        "problem-utf16": ["solve", "--problem", str(utf16)],
        "trace-dir": ["verify", "--problem", str(problem_file), "--trace", str(directory)],
        "trace-utf16": ["verify", "--problem", str(problem_file), "--trace", str(utf16)],
        "replay-dir": ["solve", "--problem", str(problem_file), "--stream", f"replay:{directory}"],
        "replay-utf16": ["solve", "--problem", str(problem_file), "--stream", f"replay:{utf16}"],
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()[0]
    # verify reads two files, so the message names the one that failed
    assert err.startswith("error: ") and str(utf16 if case.endswith("utf16") else directory) in err
    if case.endswith("utf16"):
        assert f"{case.split('-')[0]} file {utf16} is not UTF-8 text" in err


@pytest.mark.parametrize("flag, value", [
    ("--stream", "geometric:x"),
    ("--stream", "geometric:"),
    ("--subspace", "memory:x"),
], ids=["geometric-x", "geometric-empty", "memory-x"])
def test_a_malformed_number_in_a_flag_is_named(problem_file, capsys, flag, value):
    assert main(["solve", "--problem", str(problem_file), flag, value]) == 1
    err = capsys.readouterr().err.splitlines()[0]
    assert err.startswith(f"error: malformed {flag} {value!r}: ")


@pytest.mark.parametrize("content, message", [
    ("{}", "lacks 'records'"),
    ("[1]", "is not a JSON object"),
    ('{"records": 5}', "malformed 'records' in trace file"),
    ('{"records": [{"n": 0, "obj": 1.0, "grad_norm": 1.0}]}', "lacks 'h'"),
    ('{"records": [{"n": 0, "h": [0, 0, 0], "obj": 1.0, "grad_norm": 1.0, "theta": 0.5}]}',
     "lacks 'theta_tilde'"),
    ('{"records": [{"n": 0, "h": "x", "obj": 1.0, "grad_norm": 1.0}]}', "malformed 'h'"),
    ('{"records": [{"n": 0, "h": [0, 0, 0], "obj": "x", "grad_norm": 1.0}]}', "malformed 'obj'"),
    ('{"records": [{"n": 0.5, "h": [0, 0, 0], "obj": 1.0, "grad_norm": 1.0}]}', "malformed 'n'"),
    ('{"meta": [], "records": []}', "malformed 'meta' in trace file"),
], ids=["empty-object", "list", "records-not-a-list", "record-without-h", "partial-certificate",
        "string-h", "string-obj", "fractional-n", "meta-not-an-object"])
def test_verify_names_a_malformed_trace_file(problem_file, tmp_path, capsys, content, message):
    path = tmp_path / "t.json"
    path.write_text(content)
    assert main(["verify", "--problem", str(problem_file), "--trace", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()[0]
    assert err.startswith("error: ") and message in err and str(path) in err


@pytest.mark.parametrize("line, message", [
    ('{"r": [1, 2]}', "lacks 'R'"),
    ("[1]", "is not a JSON object"),
    ('{"R": [[1, 0], [0]], "r": [1, 2]}', "inhomogeneous"),
    ('{"R": [["2.0", 0], [0, 1]], "r": ["1", 0]}', "expected numbers, got a string"),
    # of the problem's dim 3, so that the string is what is wrong
    ('{"R": [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "r": [1, "0", 0]}', "expected numbers, got a string"),
], ids=["no-R", "list", "ragged-R", "string-in-R", "string-in-r"])
def test_a_malformed_replay_line_is_named(problem_file, tmp_path, capsys, line, message):
    path = tmp_path / "Replay.jsonl"  # the path keeps its case
    path.write_text(line + "\n")
    assert main(["solve", "--problem", str(problem_file), "--stream", f"replay:{path}"]) == 1
    err = capsys.readouterr().err.splitlines()[0]
    assert err.startswith(f"error: line 1 of replay file {path}") and message in err


@pytest.mark.parametrize("case", ["problem", "trace", "replay"])
def test_an_input_file_that_is_not_json_is_named(problem_file, tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    argv = {
        "problem": ["solve", "--problem", str(bad)],
        "trace": ["verify", "--problem", str(problem_file), "--trace", str(bad)],
        "replay": ["solve", "--problem", str(problem_file), "--stream", f"replay:{bad}"],
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()[0]
    where = f"line 1 of replay file {bad}" if case == "replay" else f"{case} file {bad}"
    assert err.startswith(f"error: {where} is not JSON: Expecting value")


def test_a_majorant_beyond_the_float_range_is_a_numeric_error(tmp_path, capsys):
    """lambda = 1e308 makes the step's D'AD overflow when symmetrized: the
    solve ends in a named numeric error, with no RuntimeWarning on the way."""
    path = tmp_path / "huge-lambda.json"
    path.write_text(json.dumps({"dim": 3, "R": {"diag": [1, 2, 3]}, "r": [1, 1, 1],
                                "penalty": {"kind": "hyperbolic", "lambda": 1e308, "delta": 1.0}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and "overflow" in err


@pytest.mark.parametrize("case", ["problem-stem", "problem-json", "problem-dotted", "problem-hard-link",
                                  "summary-csv", "summary-json"])
def test_a_trace_out_that_would_overwrite_an_input_or_the_summary_is_refused(problem_file, tmp_path,
                                                                            monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    args = ["solve", "--problem", "p.json", "--certify"]
    other = "--problem"
    if case == "problem-stem":
        args += ["--trace-out", "p"]
    elif case == "problem-json":
        args += ["--trace-out", "p.json"]
    elif case == "problem-dotted":
        (tmp_path / "sub").mkdir()
        args += ["--trace-out", "sub/../p.csv"]
    elif case == "problem-hard-link":
        (tmp_path / "link.json").hardlink_to(problem_file)
        args += ["--trace-out", "link"]
    else:
        other = "--summary-out"
        args += ["--trace-out", "s", "--summary-out", "s." + case.split("-")[1]]
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --trace-out ") and f"would overwrite the {other} file" in err
    # nothing was written: every file is as it was and no new one appeared
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


def test_a_trace_out_beside_its_inputs_is_written(problem_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--problem", "p.json", "--certify", "--trace-out", "p-trace",
                 "--summary-out", "p-summary.json"]) == 0
    assert {"p-trace.csv", "p-trace.json", "p-summary.json"} <= {path.name for path in tmp_path.iterdir()}

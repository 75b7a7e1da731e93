"""A run-level trace key of the wrong type, a trace dim that is not the problem's, a
non-integer dim and a limit R that is not positive definite are input errors that
name what is wrong, never a traceback."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmsubspace.cli import main
from mmsubspace.model import ProblemInstance, QuadraticData, ZeroPenalty, save_problem
from mmsubspace.solver import SolveOptions, Trace, run_batch

DATA = Path(__file__).parent / "data"


def _run(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err.splitlines()[0]


@pytest.fixture
def certified(tmp_path):
    """A problem file and the JSON of a certified batch trace on it."""
    p = ProblemInstance(QuadraticData(np.diag([1.0, 2.0, 4.0]), np.ones(3)), ZeroPenalty())
    problem = tmp_path / "p.json"
    save_problem(p, problem)
    path = tmp_path / "t.json"
    run_batch(p, opts=SolveOptions(certify=True)).to_json(path)
    return problem, json.loads(path.read_text())


@pytest.mark.parametrize("key, value", [
    ("certificates_skipped", 5),
    ("certificates_skipped", [1]),
    ("certificates_skipped", {"NumericError": "2"}),
    ("meta.strategy", 5),
    ("meta.epsilon", "x"),
    ("meta.epsilon", True),
    ("meta.mode", "sideways"),
])
def test_a_mistyped_run_level_key_is_named(key, value, certified, tmp_path, capsys):
    problem, d = certified
    outer, _, inner = key.rpartition(".")
    (d[outer] if outer else d)[inner] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, err = _run(["verify", "--problem", str(problem), "--trace", str(path)], capsys)
    assert code == 1
    assert err.startswith("error:") and repr(key) in err and str(path) in err


def test_a_trace_without_the_run_level_keys_still_reads(certified, tmp_path, capsys):
    problem, d = certified
    del d["certificates_skipped"]
    for key in ("mode", "strategy", "epsilon"):
        del d["meta"][key]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(d))
    assert len(Trace.from_json(path).records) == len(d["records"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--problem", str(problem), "--trace", str(path)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("dim", [2.5, "3"])
def test_a_non_integer_dim_is_an_input_error(dim, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": dim, "R": {"diag": [1, 2]}, "r": [1, 1]}))
    code, err = _run(["solve", "--problem", str(path)], capsys)
    assert (code, err) == (1, "error: problem file needs an integer 'dim'")


SINGULAR = {"dim": 2, "R": [[1, 1], [1, 1]], "r": [1, 0], "penalty": {"kind": "zero"}}
INDEFINITE = {"dim": 2, "R": {"diag": [1, -1]}, "r": [1, 0], "penalty": {"kind": "zero"}}


@pytest.mark.parametrize("problem, flags, eig", [
    (SINGULAR, [], "0"),
    (SINGULAR, ["--epsilon", "0.1"], "0"),
    (INDEFINITE, [], "-1"),
], ids=["singular", "singular-epsilon", "indefinite"])
def test_certify_names_a_limit_r_that_is_not_positive_definite(problem, flags, eig, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, err = _run(["solve", "--problem", str(path), "--certify", *flags], capsys)
    assert code == 1
    assert err.startswith("error: the limit R is not positive definite")
    # the smallest eigenvalue, at rounding level for the singular R
    assert abs(float(err.rsplit(" ", 1)[1]) - float(eig)) <= 1e-12


def test_verify_names_a_limit_r_that_is_not_positive_definite(certified, tmp_path, capsys):
    _, d = certified
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({**SINGULAR, "dim": 3, "R": [[1, 1, 0], [1, 1, 0], [0, 0, 1]], "r": [1, 0, 0]}))
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(d))
    code, err = _run(["verify", "--problem", str(path), "--trace", str(trace)], capsys)
    assert code == 1
    assert err.startswith("error: the limit R is not positive definite")


def test_an_epsilon_outside_the_margin_keeps_its_message(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": 2, "R": {"diag": [1, 2]}, "r": [1, 1]}))
    code, err = _run(["solve", "--problem", str(path), "--certify", "--epsilon", "3"], capsys)
    assert (code, err) == (1, "error: epsilon must lie in (0, 1), got 3.0")


@pytest.mark.parametrize("dim", [7, 3, None], ids=["seven", "three", "absent"])
def test_a_trace_whose_dim_is_not_the_problem_s_is_refused(dim, tmp_path, capsys):
    """The committed batch trace is 4-dimensional, as its problem; a trace without 'dim' still verifies."""
    d = json.loads((DATA / "golden-batch.json").read_text())
    assert d["meta"]["dim"] == 4
    if dim is None:
        del d["meta"]["dim"]
    else:
        d["meta"]["dim"] = dim
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(d))
    argv = ["verify", "--problem", str(DATA / "golden-problem.json"), "--trace", str(path)]
    if dim is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert "overall: PASS" in capsys.readouterr().out
    else:
        code, err = _run(argv, capsys)
        assert code == 1
        assert err == f"error: the trace's 'dim' is {dim}, the problem's is 4"

"""Numbers beyond what the float arithmetic can carry are input errors that name their field."""

import json
import warnings

import numpy as np
import pytest

from mmsubspace.cli import main
from mmsubspace.errors import InputError
from mmsubspace.model import FairPenalty, HyperbolicPenalty, load_problem, penalty_from_dict
from mmsubspace.solver import Trace
from mmsubspace.stream import FileReplayStream

# an integer literal that JSON reads exactly and float() cannot convert
HUGE = "1" + "0" * 400


def _run(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("field, text", [
    ("r", '"r": [1, HUGE]'),
    ("R.diag", '"R": {"diag": [1, HUGE]}'),
    ("R", '"R": [[1, 0], [0, HUGE]]'),
    ("penalty.lambda", '"penalty": {"kind": "hyperbolic", "lambda": HUGE}'),
    ("penalty.delta", '"penalty": {"kind": "fair", "delta": HUGE}'),
    ("penalty.L", '"penalty": {"kind": "hyperbolic", "L": [[1, HUGE]]}'),
])
def test_a_huge_integer_in_a_problem_file_is_an_input_error(field, text, tmp_path, capsys):
    fields = {"dim": '"dim": 2', "R": '"R": {"diag": [1, 2]}', "r": '"r": [1, 1]'}
    fields[field.split(".")[0]] = text.replace("HUGE", HUGE)
    path = tmp_path / "p.json"
    path.write_text("{" + ", ".join(fields.values()) + "}")
    with pytest.raises(InputError, match=f"malformed '{field}' in the problem file: int too large"):
        load_problem(path)
    code, err = _run(["solve", "--problem", str(path)], capsys)
    assert code == 1
    assert err.startswith(f"error: malformed '{field}'")


@pytest.mark.parametrize("key", ["R", "r"])
def test_a_huge_integer_in_a_replay_file_is_an_input_error(key, tmp_path, capsys):
    line = {"R": "[[1, 0], [0, 1]]", "r": "[1, 1]"}
    line[key] = line[key].replace("1]", HUGE + "]", 1)
    path = tmp_path / "s.jsonl"
    path.write_text('{"R": %s, "r": %s}\n' % (line["R"], line["r"]))
    with pytest.raises(InputError, match=f"line 1 of replay file {path}: int too large"):
        FileReplayStream(path)
    problem = tmp_path / "p.json"
    problem.write_text('{"dim": 2, "R": {"diag": [1, 2]}, "r": [1, 1]}')
    code, err = _run(["solve", "--problem", str(problem), "--stream", f"replay:{path}"], capsys)
    assert code == 1
    assert err.startswith("error: line 1 of replay file")


@pytest.mark.parametrize("key", ["h", "obj", "grad_norm"])
def test_a_huge_integer_in_a_trace_record_is_an_input_error(key, tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text('{"dim": 2, "R": {"diag": [1, 2]}, "r": [1, 1]}')
    assert main(["solve", "--problem", str(problem), "--certify", "--trace-out", str(tmp_path / "t")]) == 0
    d = json.loads((tmp_path / "t.json").read_text())
    d["records"][1][key] = [0.0, "HUGE"] if key == "h" else "HUGE"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(d).replace('"HUGE"', HUGE))
    with pytest.raises(InputError, match=f"malformed '{key}' in record 1 of trace file {path}: int too large"):
        Trace.from_json(path)
    capsys.readouterr()
    code, err = _run(["verify", "--problem", str(problem), "--trace", str(path)], capsys)
    assert code == 1
    assert err.startswith(f"error: malformed '{key}' in record 1")


@pytest.mark.parametrize("kind", ["hyperbolic", "fair"])
@pytest.mark.parametrize("delta", [2e154, 1e300, 1e-300, 1e-160])
def test_a_delta_whose_square_is_not_a_normal_float_is_an_input_error(kind, delta, tmp_path, capsys):
    with pytest.raises(InputError, match="penalty.delta"):
        penalty_from_dict({"kind": kind, "lambda": 1.0, "delta": delta}, 2)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": 2, "R": {"diag": [1, 2]}, "r": [1, 1],
                                "penalty": {"kind": kind, "delta": delta}}))
    code, err = _run(["solve", "--problem", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: penalty.delta")


@pytest.mark.parametrize("cls", [HyperbolicPenalty, FairPenalty])
def test_a_delta_at_the_ends_of_the_normal_range_is_accepted(cls):
    # 1.5e-154 squared is normal (2.25e-308 > 2.2251e-308); 1.3e154 squared is below the float maximum
    for delta in (1.5e-154, 1.3e154):
        assert cls(1.0, delta).delta == delta
    for delta in (1.4e-154, 1.4e154):
        with pytest.raises(InputError, match="penalty.delta"):
            cls(1.0, delta)
    assert np.isfinite(cls(1.0, 1.3e154).value(np.ones(3)))


def test_a_geometric_stream_on_an_indefinite_limit_r_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text('{"dim": 2, "R": [[1, 0], [0, -0.5]], "r": [1, 1]}')
    code, err = _run(["solve", "--problem", str(path), "--stream", "geometric:0.9", "--seed", "1",
                      "--max-iters", "50"], capsys)
    assert code == 1
    assert err.startswith("error: the limit R of a geometric stream has the negative eigenvalue -0.5")

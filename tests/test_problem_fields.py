"""JSON's true and false, which Python takes for 1 and 0, are not numbers in a
problem file, and a dim below 1 is refused by name."""

import json
import warnings

import pytest

from mmsubspace.cli import main


def _solve(d, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--problem", str(path)])
    return code, capsys.readouterr().err.splitlines()[0]


@pytest.mark.parametrize("dim", [True, False])
def test_a_boolean_dim_is_an_input_error(dim, tmp_path, capsys):
    code, err = _solve({"dim": dim, "R": [[2.0]], "r": [1.0]}, tmp_path, capsys)
    assert (code, err) == (1, "error: problem file needs an integer 'dim'")


@pytest.mark.parametrize("dim", [0, -1])
def test_a_dim_below_one_is_an_input_error(dim, tmp_path, capsys):
    code, err = _solve({"dim": dim, "R": [], "r": []}, tmp_path, capsys)
    assert (code, err) == (1, f"error: problem file needs a 'dim' of at least 1, got {dim}")


@pytest.mark.parametrize("kind, field", [("hyperbolic", "lambda"), ("hyperbolic", "delta"),
                                         ("fair", "lambda"), ("fair", "delta"), ("tikhonov", "lambda")])
@pytest.mark.parametrize("value", [True, False])
def test_a_boolean_penalty_number_is_an_input_error(kind, field, value, tmp_path, capsys):
    penalty = {"kind": kind, "lambda": 1.0, "delta": 1.0, field: value}
    code, err = _solve({"dim": 1, "R": [[2.0]], "r": [1.0], "penalty": penalty}, tmp_path, capsys)
    assert code == 1
    assert err == (f"error: malformed 'penalty.{field}' in the problem file: "
                   f"expected a number, got {json.dumps(value)}")

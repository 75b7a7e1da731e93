"""A step that leaves the iterate in place above the gradient tolerance is an error."""

import json

import numpy as np
import pytest

import mmsubspace.solver
from mmsubspace.cli import main
from mmsubspace.errors import NumericError
from mmsubspace.model import ProblemInstance, QuadraticData, ZeroPenalty
from mmsubspace.solver import SolveOptions, run_batch


@pytest.mark.parametrize("strategy", ["gradient", "3mg", "memory:4", "full"])
def test_indefinite_R_raises_instead_of_spinning(strategy):
    p = ProblemInstance(QuadraticData(np.diag([1.0, -1.0]), np.ones(2)), ZeroPenalty())
    with pytest.raises(NumericError, match=r"iteration \d+ .*not positive definite on the subspace"):
        run_batch(p, strategy=strategy, opts=SolveOptions(max_iters=500))


def test_indefinite_R_names_the_first_iteration():
    p = ProblemInstance(QuadraticData(np.diag([1.0, -1.0]), np.ones(2)), ZeroPenalty())
    with pytest.raises(NumericError, match=r"zero step at iteration 1 "):
        run_batch(p, strategy="3mg")


def test_cli_exits_one_on_indefinite_R(tmp_path, capsys):
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps({"dim": 2, "R": {"diag": [1.0, -1.0]}, "r": [1.0, 1.0]}))
    assert main(["solve", "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert "numeric error: zero step at iteration 1" in err


def test_step_lost_to_rounding_is_named(monkeypatch):
    def rounded_away(m, D):
        # a nonzero step too small to change the iterate
        return np.full(D.n_cols, 1e-300), m.anchor.copy()

    monkeypatch.setattr(mmsubspace.solver, "subspace_step", rounded_away)
    p = ProblemInstance(QuadraticData(np.diag([1.0, 4.0]), np.ones(2)), ZeroPenalty())
    with pytest.raises(NumericError, match=r"iteration 1 .*below the floating-point resolution"):
        run_batch(p, strategy="3mg")

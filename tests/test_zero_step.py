"""A step that leaves the iterate in place, or sends it back to the previous
iterate, above the gradient tolerance is an error."""

import json
import warnings

import numpy as np
import pytest

import mmsubspace.solver
from mmsubspace.cli import main
from mmsubspace.errors import NumericError
from mmsubspace.model import ProblemInstance, QuadraticData, ZeroPenalty, save_problem
from mmsubspace.problems import random_spd
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
        return np.full(D.cols.shape[1], 1e-300), m.anchor.copy(), m.apply(m.anchor)

    monkeypatch.setattr(mmsubspace.solver, "subspace_step", rounded_away)
    p = ProblemInstance(QuadraticData(np.diag([1.0, 4.0]), np.ones(2)), ZeroPenalty())
    with pytest.raises(NumericError, match=r"iteration 1 .*below the floating-point resolution"):
        run_batch(p, strategy="3mg")


def _far_minimizer():
    # the minimizer sits at |h*| ~ 1e12, where the 3mg step alternates
    # between neighbouring floats with |g| ~ 1e-3, far above grad_tol
    rng = np.random.default_rng(0)
    R = random_spd(5, 10, rng)
    u = rng.random(5)
    return ProblemInstance(QuadraticData(R, R @ (1e12 * (1 + u))), ZeroPenalty())


def test_two_cycle_raises_instead_of_spinning():
    with pytest.raises(NumericError, match=r"2-cycle at iteration 8 .*returns to the previous iterate"):
        run_batch(_far_minimizer(), strategy="3mg")


def test_cli_exits_one_on_two_cycle(tmp_path, capsys):
    path = tmp_path / "far.json"
    save_problem(_far_minimizer(), path)
    assert main(["solve", "--problem", str(path)]) == 1
    assert "numeric error: 2-cycle at iteration 8" in capsys.readouterr().err


BIG_GRADIENT = {"dim": 2, "R": {"diag": [1, 2]}, "r": [1e200, 1e200]}


def test_a_gradient_whose_norm_overflows_is_named_without_a_warning():
    """g = -r is finite, but g'g overflows: not a zero step, and no RuntimeWarning."""
    p = ProblemInstance(QuadraticData(np.diag([1.0, 2.0]), np.array([1e200, 1e200])), ZeroPenalty())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^the gradient norm overflows the float range at iteration 1$"):
            run_batch(p, strategy="3mg")


def test_cli_exits_one_on_a_gradient_whose_norm_overflows(tmp_path, capsys):
    path = tmp_path / "big-gradient.json"
    path.write_text(json.dumps(BIG_GRADIENT))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric error: the gradient norm overflows")

"""The Cholesky kernels call LAPACK directly; scipy.linalg's front ends stay the reference."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace import linalg
from mmsubspace.cli import main
from mmsubspace.errors import InputError, NumericError, OracleError
from mmsubspace.majorant import build_majorant
from mmsubspace.model import (
    HyperbolicPenalty, ProblemInstance, QuadraticData, eval_gradient, eval_hessian, eval_objective, save_problem,
)
from mmsubspace.problems import demo_instances, random_spd
from mmsubspace.rates import certify_iteration, factor_hessian
from mmsubspace.solver import ReferenceSolution, SolveOptions, reference_minimizer, run_batch
from mmsubspace.subspace import build_subspace, parse_strategy
from mmsubspace.verify import verify_trace
from conftest import PENALTY_KINDS, instance_grid
from test_matrix_free import make_penalty


def ordered(M, order):
    return np.asfortranarray(M) if order == "F" else np.ascontiguousarray(M)


@st.composite
def spd_systems(draw):
    """An SPD matrix of n <= 60 and a right-hand side, each in C or Fortran order."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    M = ordered(random_spd(n, 10.0 ** draw(st.floats(0.0, 10.0)), rng), draw(st.sampled_from("CF")))
    k = draw(st.sampled_from([None, 1, 3, n]))
    b = rng.standard_normal(n) if k is None else ordered(rng.standard_normal((n, k)), draw(st.sampled_from("CF")))
    return M, b


def assert_bitwise(x, ref):
    assert x.shape == ref.shape and x.dtype == ref.dtype
    assert np.array_equal(x, ref)


@settings(max_examples=300, deadline=None)
@given(spd_systems())
def test_kernels_are_bitwise_scipy(system):
    M, b = system
    L = linalg.cholesky_lower(M)
    assert_bitwise(L, scipy.linalg.cholesky(M, lower=True))
    assert L.flags.f_contiguous
    assert_bitwise(linalg._solve_factor(L, b), scipy.linalg.solve_triangular(L, b, lower=True))
    assert_bitwise(linalg.pd_solve(M, b), scipy.linalg.cho_solve((scipy.linalg.cholesky(M, lower=True), True), b))


@settings(max_examples=100, deadline=None)
@given(spd_systems())
def test_kernels_leave_their_inputs_alone(system):
    M, b = system
    M0, b0 = M.copy(), b.copy()
    L = linalg.cholesky_lower(M)
    L0 = L.copy()
    linalg._solve_factor(L, b)
    linalg._solve_factor(L, L.T)
    linalg.pd_solve(M, b)
    assert_bitwise(M, M0)
    assert_bitwise(b, b0)
    assert_bitwise(L, L0)


@st.composite
def bad_matrices(draw):
    """A non-PD, non-finite or non-square matrix."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    M = random_spd(n, 10.0 ** draw(st.floats(0.0, 6.0)), rng)
    kind = draw(st.sampled_from(["indefinite", "nan", "inf", "wide", "vector", "3-d"]))
    if kind == "indefinite":
        # an eigenvalue about 1e-8 |M| or more below zero: far beyond Cholesky's backward error
        lo, hi = linalg.extreme_eigs(M)
        M = M - (lo + draw(st.floats(1e-8, 1.0)) * hi) * np.eye(n)
    elif kind in ("nan", "inf"):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        M[i, j] = np.nan if kind == "nan" else -np.inf
    elif kind == "wide":
        M = np.hstack([M, np.ones((n, 1))])
    elif kind == "vector":
        M = M[0]
    else:
        M = M[None]
    return ordered(M, draw(st.sampled_from("CF"))), kind


@settings(max_examples=300, deadline=None)
@given(bad_matrices())
def test_bad_matrices_raise_numeric_error(case):
    M, kind = case
    b = np.ones(M.shape[0])
    with pytest.raises(NumericError):
        linalg.cholesky_lower(M)
    with pytest.raises(NumericError):
        linalg.pd_solve(M, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(4,), (4, 2)])
def test_non_finite_right_hand_side_raises_numeric_error(bad, shape):
    M = random_spd(4, 10.0, np.random.default_rng(3))
    b = np.ones(shape)
    b[2] = bad
    L = linalg.cholesky_lower(M)
    with pytest.raises(NumericError):
        linalg._solve_factor(L, b)
    with pytest.raises(NumericError):
        linalg.pd_solve(M, b)


def test_right_hand_side_of_the_wrong_length_raises_numeric_error():
    M = random_spd(4, 10.0, np.random.default_rng(3))
    with pytest.raises(NumericError):
        linalg._solve_factor(linalg.cholesky_lower(M), np.ones(5))
    with pytest.raises(NumericError):
        linalg.pd_solve(M, np.ones((3, 2)))


def test_singular_triangular_matrix_raises_numeric_error():
    with pytest.raises(NumericError):
        linalg._solve_factor(np.asfortranarray([[1.0, 0.0], [2.0, 0.0]]), np.ones(2))


def previous_reference_minimizer(p, tol=1e-12, h0=None):
    """The Newton oracle as it was: an eigensolve proves R PD, and the accepted step is re-evaluated."""
    if linalg.min_eig(p.quad.R) <= 0:
        raise OracleError("reference minimizer needs a positive definite R")
    h = np.zeros(p.dim) if h0 is None else linalg.as_vector(h0, p.dim)
    f = eval_objective(p, h)
    for k in range(500):
        g = eval_gradient(p, h)
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            return ReferenceSolution(h, f, gn, k)
        d = linalg.pd_solve(eval_hessian(p, h), -g)
        slope = float(g @ d)
        f_noise = 1e-15 * (1.0 + abs(f))
        t = 1.0
        while t > 1e-14:
            h_try = h + t * d
            f_try = eval_objective(p, h_try)
            if f_try <= f + 1e-4 * t * slope + f_noise:
                break
            t *= 0.5
        h, f = h + t * d, eval_objective(p, h + t * d)
    raise OracleError("Newton oracle did not reach tolerance in 500 steps")


def assert_same_solution(new, old):
    assert np.array_equal(new.h, old.h)
    assert (new.value, new.grad_norm, new.iterations) == (old.value, old.grad_norm, old.iterations)


def outcome(oracle, *args, **kwargs):
    """The oracle's solution, or the message of the OracleError it raised."""
    try:
        return oracle(*args, **kwargs)
    except OracleError as exc:
        return str(exc)


@st.composite
def oracle_cases(draw):
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    R = random_spd(n, 10.0 ** draw(st.floats(0.0, 6.0)), rng)
    penalty = make_penalty(draw(st.sampled_from(PENALTY_KINDS)), draw(st.sampled_from(["identity", "diff"])),
                           n, draw(st.floats(0.0, 5.0)), draw(st.floats(1e-3, 10.0)))
    p = ProblemInstance(QuadraticData(R, 10.0 ** draw(st.floats(-2.0, 3.0)) * rng.standard_normal(n)), penalty)
    h0 = draw(st.sampled_from([None, "near"]))
    return p, None if h0 is None else rng.standard_normal(n)


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_reference_minimizer_is_bitwise_the_previous_one(case):
    p, h0 = case
    new, old = outcome(reference_minimizer, p, h0=h0), outcome(previous_reference_minimizer, p, h0=h0)
    if isinstance(old, str):  # an ill-conditioned R can keep |grad| above the tolerance
        assert new == old
    else:
        assert_same_solution(new, old)


class JumpAwayFromZero(HyperbolicPenalty):
    """A value 1e6 higher away from the origin, so that no trial step from 0 is accepted."""

    def value(self, h):
        return super().value(h) + (1e6 if np.any(h) else 0.0)

    def value_and_gradient(self, h):
        return self.value(h), super().value_and_gradient(h)[1]


def test_a_line_search_that_accepts_no_trial_takes_the_previous_step():
    rng = np.random.default_rng(5)
    p = ProblemInstance(QuadraticData(random_spd(6, 20.0, rng), rng.standard_normal(6)),
                        JumpAwayFromZero(1.0, 0.5))
    ref = previous_reference_minimizer(p)
    assert_same_solution(reference_minimizer(p), ref)
    assert ref.value > 1e5  # the first step was taken with no trial accepted


@st.composite
def non_pd_data(draw):
    """R with min_eig <= 0: exactly singular and diagonal, or indefinite by at least 1e-8 |R|."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        d = rng.uniform(1.0, 10.0, n)
        d[draw(st.integers(0, n - 1))] = 0.0
        return np.diag(d)
    eigs = np.geomspace(1.0, 10.0 ** draw(st.floats(0.0, 6.0)), n)
    eigs[0] = -draw(st.floats(1e-8, 1.0)) * eigs[-1]
    Q = linalg.random_orthogonal(n, rng)
    R = (Q * eigs) @ Q.T
    return 0.5 * (R + R.T)


@settings(max_examples=150, deadline=None)
@given(non_pd_data())
def test_reference_minimizer_refuses_an_R_that_is_not_positive_definite(R):
    assert linalg.min_eig(R) <= 0
    n = R.shape[0]
    p = ProblemInstance(QuadraticData(R, np.ones(n)), make_penalty("hyperbolic", "identity", n, 1.0, 1.0))
    with pytest.raises(OracleError):
        reference_minimizer(p)


def test_one_certificate_makes_two_cholesky_factorizations(monkeypatch):
    """The Hessian and the floor matrix; the kappa and theta solves reuse the Hessian's factor."""
    rng = np.random.default_rng(11)
    n = 12
    p = ProblemInstance(QuadraticData(random_spd(n, 50.0, rng), rng.standard_normal(n)),
                        make_penalty("hyperbolic", "identity", n, 1.0, 1.0))
    h = rng.standard_normal(n)
    g = eval_gradient(p, h)
    A = build_majorant(p, h).curvature
    D = build_subspace(parse_strategy("3mg"), g, h, [h + rng.standard_normal(n)])
    calls = {"potrf": 0, "trtrs": 0}

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "_potrf", counting(linalg._potrf, "potrf"))
    monkeypatch.setattr(linalg, "_trtrs", counting(linalg._trtrs, "trtrs"))
    cert = certify_iteration(3, g, D, A, 0.1, p.quad.R, factor_hessian(p, h))
    assert cert.hessian_floor_ok
    assert calls == {"potrf": 2, "trtrs": 3}


@pytest.mark.parametrize("n, tridiagonal", [(12, {"stebz": 0, "sterf": 2}), (60, {"stebz": 4, "sterf": 0})])
def test_one_certificate_makes_two_reductions_and_no_full_eigensolve(monkeypatch, n, tridiagonal):
    """kappa and sigma each reduce once, then bisect for two eigenvalues or, below
    ``BISECT_MIN_DIM``, take the tridiagonal spectrum."""
    rng = np.random.default_rng(11)
    p = ProblemInstance(QuadraticData(random_spd(n, 50.0, rng), rng.standard_normal(n)),
                        make_penalty("hyperbolic", "identity", n, 1.0, 1.0))
    h = rng.standard_normal(n)
    g = eval_gradient(p, h)
    A = build_majorant(p, h).curvature
    D = build_subspace(parse_strategy("3mg"), g, h, [h + rng.standard_normal(n)])
    calls = {"sytrd": 0, "stebz": 0, "sterf": 0, "eigvalsh": 0}

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ["sytrd", "stebz", "sterf"]:
        monkeypatch.setattr(linalg, f"_{name}", counting(getattr(linalg, f"_{name}"), name))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh, "eigvalsh"))
    cert = certify_iteration(3, g, D, A, 0.1, p.quad.R, factor_hessian(p, h))
    assert cert.hessian_floor_ok
    assert calls == {"sytrd": 2, **tridiagonal, "eigvalsh": 0}


# malformed inputs end in an InputError that names the problem

def solve_file(tmp_path, spec):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec))
    return main(["solve", "--problem", str(path)])


@pytest.mark.parametrize("field, value", [
    ("lambda", float("nan")), ("lambda", float("inf")), ("delta", float("nan")), ("delta", float("inf")),
])
def test_non_finite_penalty_parameter_is_an_input_error(tmp_path, capsys, field, value):
    spec = {"dim": 2, "R": {"diag": [1.0, 2.0]}, "r": [1.0, 1.0], "penalty": {"kind": "hyperbolic", field: value}}
    assert solve_file(tmp_path, spec) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err.splitlines()[0]


def test_tikhonov_weight_must_be_finite():
    with pytest.raises(InputError, match="lambda"):
        make_penalty("tikhonov", "identity", 2, float("nan"), 1.0)


def test_an_L_that_is_not_a_matrix_is_an_input_error(tmp_path, capsys):
    spec = {"dim": 2, "R": {"diag": [1.0, 2.0]}, "r": [1.0, 1.0],
            "penalty": {"kind": "hyperbolic", "L": [[[1.0, 0.0]], [[0.0, 1.0]]]}}
    assert solve_file(tmp_path, spec) == 1
    assert capsys.readouterr().err.startswith("error: L must be a matrix, got an array of shape (2, 1, 2)")


def test_an_R_whose_norm_overflows_is_an_input_error_without_a_warning(tmp_path, capsys):
    spec = {"dim": 2, "R": {"diag": [1e200, 1e200]}, "r": [1.0, 1.0]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_file(tmp_path, spec) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: R has a non-finite entry or a sum of squares beyond the float range")


@pytest.mark.parametrize("field, value", [("h", np.nan), ("h", 1e308), ("obj", np.inf), ("grad_norm", np.nan)])
def test_verify_refuses_a_non_finite_record(field, value):
    p = instance_grid(seed=3, dims=(3,), kinds=["hyperbolic"])[0]
    trace = run_batch(p, opts=SolveOptions(certify=True))
    k = len(trace.records) // 2
    rec = trace.records[k]
    if field == "h":
        h = rec.h.copy()
        h[1] = value
        trace.records[k] = replace(rec, h=h)
    else:
        trace.records[k] = replace(rec, **{field: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a 1e308 iterate is refused before anything overflows
        with pytest.raises(InputError, match=f"n={rec.n}"):
            verify_trace(p, trace)


def test_verify_of_a_trace_with_a_nan_iterate_exits_one(tmp_path, capsys):
    p = instance_grid(seed=3, dims=(3,), kinds=["hyperbolic"])[0]
    save_problem(p, tmp_path / "p.json")
    main(["solve", "--problem", str(tmp_path / "p.json"), "--certify", "--trace-out", str(tmp_path / "t")])
    d = json.loads((tmp_path / "t.json").read_text())
    d["records"][1]["h"][0] = float("nan")
    (tmp_path / "t.json").write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["verify", "--problem", str(tmp_path / "p.json"), "--trace", str(tmp_path / "t.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: trace record n={d['records'][1]['n']} ")


@pytest.mark.parametrize("index", [4, -1])
def test_verify_of_a_trace_with_a_huge_iterate_exits_one_without_a_warning(tmp_path, capsys, index):
    save_problem(demo_instances()["hyperbolic-4d"], tmp_path / "p.json")
    main(["solve", "--problem", str(tmp_path / "p.json"), "--certify", "--trace-out", str(tmp_path / "t")])
    d = json.loads((tmp_path / "t.json").read_text())
    assert len(d["records"]) > 6
    d["records"][index]["h"][0] = 1e308
    (tmp_path / "t.json").write_text(json.dumps(d))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--problem", str(tmp_path / "p.json"), "--trace", str(tmp_path / "t.json")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: the objective or its gradient at the iterate of trace record n={d['records'][index]['n']} ")

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace.errors import InputError
from mmsubspace.linalg import min_eig
from mmsubspace.model import (
    FairPenalty,
    HyperbolicPenalty,
    ProblemInstance,
    QuadraticData,
    TikhonovPenalty,
    ZeroPenalty,
    curvature_bound,
    eval_gradient,
    eval_hessian,
    eval_objective,
    load_problem,
    majorant_curvature,
    problem_from_dict,
)
from conftest import instance_grid


def test_objective_pure_quadratic():
    p = ProblemInstance(QuadraticData(np.eye(2), np.zeros(2)), ZeroPenalty())
    assert eval_objective(p, [3.0, 4.0]) == 12.5


def test_objective_with_linear_term():
    p = ProblemInstance(QuadraticData(np.diag([2.0, 1.0]), np.array([1.0, 0.0])), ZeroPenalty())
    assert eval_objective(p, [1.0, 0.0]) == 0.0


def test_objective_hyperbolic_at_zero():
    p = ProblemInstance(QuadraticData(np.eye(1), np.zeros(1)), HyperbolicPenalty(1.0, 1.0))
    assert eval_objective(p, [0.0]) == 0.0


def test_gradient_identity_quadratic():
    p = ProblemInstance(QuadraticData(np.eye(2), np.zeros(2)), ZeroPenalty())
    np.testing.assert_allclose(eval_gradient(p, [3.0, 4.0]), [3.0, 4.0])


def test_gradient_diag():
    p = ProblemInstance(QuadraticData(np.diag([1.0, 4.0]), np.zeros(2)), ZeroPenalty())
    np.testing.assert_allclose(eval_gradient(p, [1.0, 1.0]), [1.0, 4.0])


def test_gradient_vanishes_at_minimizer():
    from mmsubspace.solver import reference_minimizer

    for p in instance_grid(seed=5, dims=(2, 5)):
        ref = reference_minimizer(p, tol=1e-12)
        assert np.linalg.norm(eval_gradient(p, ref.h)) <= 1e-9


def test_hessian_zero_penalty_is_R():
    p = ProblemInstance(QuadraticData(np.diag([2.0, 3.0]), np.zeros(2)), ZeroPenalty())
    np.testing.assert_allclose(eval_hessian(p, [5.0, -1.0]), np.diag([2.0, 3.0]))


def test_hessian_tikhonov():
    p = ProblemInstance(QuadraticData(np.eye(3), np.zeros(3)), TikhonovPenalty(0.5))
    np.testing.assert_allclose(eval_hessian(p, np.ones(3)), 1.5 * np.eye(3))


def test_hessian_hyperbolic_origin():
    # phi''(t) = delta^2 / (delta^2 + t^2)^{3/2}, so phi''(0) = 1/delta = 1
    p = ProblemInstance(QuadraticData(np.array([[2.0]]), np.zeros(1)), HyperbolicPenalty(1.0, 1.0))
    np.testing.assert_allclose(eval_hessian(p, [0.0]), [[3.0]], atol=1e-14)


def test_curvature_hyperbolic_values():
    p = ProblemInstance(QuadraticData(np.eye(1), np.zeros(1)), HyperbolicPenalty(1.0, 1.0))
    np.testing.assert_allclose(majorant_curvature(p, [0.0]), [[1.0]])
    # omega(sqrt(3)) = 1/sqrt(1 + 3) = 0.5
    np.testing.assert_allclose(majorant_curvature(p, [np.sqrt(3.0)]), [[0.5]], rtol=1e-14)


def test_curvature_zero_penalty():
    p = ProblemInstance(QuadraticData(np.eye(3), np.zeros(3)), ZeroPenalty())
    np.testing.assert_allclose(majorant_curvature(p, np.ones(3)), np.zeros((3, 3)))


def test_curvature_bound_values():
    p = ProblemInstance(QuadraticData(np.eye(2), np.zeros(2)), HyperbolicPenalty(2.0, 0.5))
    V = curvature_bound(p)
    tau = max(1e-12, 1e-12 * 2.0 / 0.5)
    np.testing.assert_allclose(V, (4.0 + tau) * np.eye(2), rtol=1e-12)

    pz = ProblemInstance(QuadraticData(np.eye(2), np.zeros(2)), ZeroPenalty())
    np.testing.assert_allclose(curvature_bound(pz), 1e-12 * np.eye(2))

    pt = ProblemInstance(QuadraticData(np.eye(2), np.zeros(2)), TikhonovPenalty(3.0))
    np.testing.assert_allclose(curvature_bound(pt), (3.0 + 3e-12) * np.eye(2))


def test_finite_difference_gradient_and_hessian():
    rng = np.random.default_rng(11)
    s = 1e-5
    for p in instance_grid(seed=2):
        n = p.dim
        h = rng.standard_normal(n)
        g = eval_gradient(p, h)
        f = eval_objective(p, h)
        for _ in range(3):
            e = rng.standard_normal(n)
            e /= np.linalg.norm(e)
            fd = (eval_objective(p, h + s * e) - eval_objective(p, h - s * e)) / (2 * s)
            assert abs(fd - e @ g) <= 1e-5 * (1 + abs(f))
            gd = (eval_gradient(p, h + s * e) - eval_gradient(p, h - s * e)) / (2 * s)
            H = eval_hessian(p, h)
            assert np.linalg.norm(gd - H @ e) <= 1e-4 * (1 + np.linalg.norm(H))


def test_majorant_sandwich():
    rng = np.random.default_rng(3)
    for p in instance_grid(seed=7, dims=(2, 5)):
        V = curvature_bound(p)
        for _ in range(12):
            h = 3.0 * rng.standard_normal(p.dim)
            B = majorant_curvature(p, h)
            hessPsi = eval_hessian(p, h) - p.quad.R
            b_scale = max(np.linalg.norm(B), 1.0)
            assert min_eig(B - hessPsi) >= -1e-10 * b_scale
            assert min_eig(V - B) >= -1e-10 * max(np.linalg.norm(V), 1.0)


def test_exactness_identity():
    rng = np.random.default_rng(4)
    for p in instance_grid(seed=9):
        for _ in range(5):
            h = 4.0 * rng.standard_normal(p.dim)
            B = majorant_curvature(p, h)
            grad_psi = eval_gradient(p, h) - (p.quad.R @ h - p.quad.r)
            assert np.linalg.norm(B @ h - grad_psi) <= 1e-10 * (1 + np.linalg.norm(h))


def test_strong_convexity_floor():
    rng = np.random.default_rng(5)
    for p in instance_grid(seed=13, dims=(2, 5)):
        eta = min_eig(p.quad.R)
        for _ in range(5):
            h = rng.standard_normal(p.dim)
            assert min_eig(eval_hessian(p, h)) >= eta - 1e-10


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(-50.0, 50.0, allow_nan=False),
    lam=st.floats(0.01, 5.0),
    delta=st.floats(0.05, 4.0),
)
def test_scalar_potentials_are_majorized_property(t, lam, delta):
    # omega(t) >= phi''(t) pointwise for both smooth potentials
    for cls in (HyperbolicPenalty, FairPenalty):
        pen = cls(lam, delta)
        tt = np.array([t])
        assert pen._omega(tt)[0] >= pen._ddphi(tt)[0] - 1e-12
        assert pen._omega_max() >= pen._omega(tt)[0] - 1e-12


def test_rejects_asymmetric_R():
    with pytest.raises(InputError, match="not symmetric"):
        QuadraticData(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))


def test_rejects_dimension_mismatch():
    p = ProblemInstance(QuadraticData(np.eye(2), np.zeros(2)), ZeroPenalty())
    with pytest.raises(InputError):
        eval_objective(p, [1.0, 2.0, 3.0])


def test_problem_file_roundtrip(tmp_path):
    d = {
        "dim": 2,
        "R": {"diag": [1.0, 4.0]},
        "r": [1.0, -1.0],
        "penalty": {"kind": "hyperbolic", "lambda": 0.5, "delta": 0.2, "L": "identity"},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    p = load_problem(path)
    assert p.dim == 2
    np.testing.assert_allclose(p.quad.R, np.diag([1.0, 4.0]))
    assert p.penalty.kind == "hyperbolic"


def test_problem_from_dict_bad_shape():
    with pytest.raises(InputError):
        problem_from_dict({"dim": 2, "R": [[1.0]], "r": [0.0, 0.0]})


def test_an_L_of_the_wrong_width_is_an_input_error():
    spec = {"dim": 3, "R": {"diag": [1.0, 1.0, 1.0]},
            "penalty": {"kind": "hyperbolic", "L": [[1.0, -1.0], [0.0, 1.0]]}}
    with pytest.raises(InputError, match="L has 2 columns, expected 3"):
        problem_from_dict(spec)

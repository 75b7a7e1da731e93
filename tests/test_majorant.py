import numpy as np

from mmsubspace.majorant import build_majorant, check_majorization, eval_surrogate
from mmsubspace.model import (
    HyperbolicPenalty,
    ProblemInstance,
    QuadraticData,
    ZeroPenalty,
    eval_objective,
    eval_gradient,
)
from conftest import instance_grid


def test_curvature_zero_penalty_equals_R():
    p = ProblemInstance(QuadraticData(np.diag([2.0, 5.0]), np.ones(2)), ZeroPenalty())
    m = build_majorant(p, [3.0, -1.0])
    np.testing.assert_allclose(m.curvature, np.diag([2.0, 5.0]))


def test_curvature_hyperbolic_at_origin():
    p = ProblemInstance(QuadraticData(np.array([[2.0]]), np.zeros(1)), HyperbolicPenalty(1.0, 1.0))
    m = build_majorant(p, [0.0])
    np.testing.assert_allclose(m.curvature, [[3.0]])


def test_tangency_value_and_gradient():
    rng = np.random.default_rng(0)
    for p in instance_grid(seed=21, dims=(2, 5)):
        h = rng.standard_normal(p.dim)
        m = build_majorant(p, h)
        assert m.value_at_anchor == eval_objective(p, h)
        # finite-difference gradient of the surrogate at the anchor
        s = 1e-6
        for _ in range(3):
            e = rng.standard_normal(p.dim)
            e /= np.linalg.norm(e)
            fd = (eval_surrogate(m, h + s * e) - eval_surrogate(m, h - s * e)) / (2 * s)
            assert abs(fd - e @ eval_gradient(p, h)) <= 1e-6 * (1 + abs(m.value_at_anchor))


def test_surrogate_hand_value():
    # F(h) = 1.5 h^2 - h: F(0) = 0, F'(0) = -1, curvature 3
    p = ProblemInstance(QuadraticData(np.array([[3.0]]), np.array([1.0])), ZeroPenalty())
    m = build_majorant(p, [0.0])
    assert eval_surrogate(m, [1.0]) == 0.5


def test_surrogate_equals_objective_for_pure_quadratic():
    p = ProblemInstance(QuadraticData(np.diag([1.0, 4.0]), np.array([0.5, 0.5])), ZeroPenalty())
    m = build_majorant(p, [2.0, -1.0])
    rng = np.random.default_rng(1)
    for _ in range(10):
        h = 5.0 * rng.standard_normal(2)
        assert abs(eval_surrogate(m, h) - eval_objective(p, h)) <= 1e-12 * (1 + abs(eval_objective(p, h)))


def test_majorization_zero_penalty_equality():
    p = ProblemInstance(QuadraticData(np.diag([1.0, 4.0]), np.zeros(2)), ZeroPenalty())
    m = build_majorant(p, [1.0, 1.0])
    rep = check_majorization(p, m, samples=50, seed=3)
    assert abs(rep.min_margin) <= 1e-12
    assert rep.passed


def test_majorization_sampled_all_kinds():
    for p in instance_grid(seed=33, dims=(2, 5)):
        m = build_majorant(p, np.ones(p.dim))
        rep = check_majorization(p, m, samples=100, radius=10.0, seed=5)
        assert rep.passed, (p.penalty.kind, rep)


def test_majorization_single_sample_at_anchor():
    p = ProblemInstance(QuadraticData(np.eye(2), np.zeros(2)), ZeroPenalty())
    m = build_majorant(p, [0.5, 0.5])
    rep = check_majorization(p, m, samples=1, radius=1e-12, seed=0)
    assert abs(rep.min_margin) <= 1e-12

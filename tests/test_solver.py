import numpy as np
import pytest

from mmsubspace.errors import InputError
from mmsubspace.majorant import build_majorant
from mmsubspace.model import (
    HyperbolicPenalty,
    ProblemInstance,
    QuadraticData,
    ZeroPenalty,
    eval_gradient,
    eval_objective,
    majorant_curvature,
)
from mmsubspace.solver import (
    SolveOptions,
    Trace,
    optimal_gradient_step,
    reference_minimizer,
    run_batch,
    subspace_step,
)
from mmsubspace.subspace import build_subspace, parse_strategy
from conftest import instance_grid


def test_subspace_step_worked_2x2(diag14):
    # from h = (1, 1) the columns [-g, h] already span the plane, so the
    # step lands on the global minimizer in one shot
    h = np.array([1.0, 1.0])
    m = build_majorant(diag14, h)
    D = build_subspace(parse_strategy("gradient"), m.gradient_at_anchor, h)
    u, h_next, _ = subspace_step(m, D)
    np.testing.assert_allclose(h_next, [0.0, 0.0], atol=1e-13)


def test_subspace_step_full_space_solves_exactly(diag14):
    h = np.array([1.0, 1.0])
    m = build_majorant(diag14, h)
    D = build_subspace(parse_strategy("full"), m.gradient_at_anchor, h)
    _, h_next, _ = subspace_step(m, D)
    np.testing.assert_allclose(h_next, [0.0, 0.0], atol=1e-14)


def test_subspace_step_single_gradient_column(diag14):
    from mmsubspace.rates import gradient_reference

    h = np.array([1.0, 1.0])
    m = build_majorant(diag14, h)
    u, h_next, _ = subspace_step(m, gradient_reference(m.gradient_at_anchor))
    # exact line search coefficient along -g is 17/65
    np.testing.assert_allclose(u, [17.0 / 65.0], rtol=1e-12)
    np.testing.assert_allclose(h_next, [1.0 - 17.0 / 65.0, 1.0 - 4.0 * 17.0 / 65.0], rtol=1e-12)


def test_optimal_gradient_step_values():
    p_id = ProblemInstance(QuadraticData(np.eye(2), np.zeros(2)), ZeroPenalty())
    m = build_majorant(p_id, [2.0, -1.0])
    assert optimal_gradient_step(m) == 1.0

    p_diag = ProblemInstance(QuadraticData(np.diag([1.0, 4.0]), np.zeros(2)), ZeroPenalty())
    m = build_majorant(p_diag, [1.0, 1.0])
    np.testing.assert_allclose(optimal_gradient_step(m), 17.0 / 65.0, rtol=1e-14)

    p1 = ProblemInstance(QuadraticData(np.array([[3.0]]), np.zeros(1)), ZeroPenalty())
    m = build_majorant(p1, [2.0])
    np.testing.assert_allclose(optimal_gradient_step(m), 1.0 / 3.0, rtol=1e-14)

    m0 = build_majorant(p1, [0.0])
    with pytest.raises(InputError):
        optimal_gradient_step(m0)


def test_run_batch_converges_and_is_monotone():
    for p in instance_grid(seed=41, dims=(2, 5)):
        trace = run_batch(p, h1=np.ones(p.dim), strategy="3mg",
                          opts=SolveOptions(max_iters=400, grad_tol=1e-9))
        assert trace.converged, p.penalty.kind
        objs = [rec.obj for rec in trace.records]
        assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(objs, objs[1:]))


def test_run_batch_matches_naive_reimplementation():
    """Trajectory oracle: a from-scratch MM loop reproduces the solver."""
    p = instance_grid(seed=55, dims=(4,), kinds=["hyperbolic"])[0]
    h = np.ones(4)
    h_prev = None
    naive = [h.copy()]
    for _ in range(12):
        g = eval_gradient(p, h)
        A = p.quad.R + majorant_curvature(p, h)
        cols = [-g, h] if h_prev is None else [-g, h, h - h_prev]
        D = np.column_stack(cols)
        s = np.linalg.norm(D, axis=0)
        s[s == 0] = 1.0
        Ds = D / s
        u = -np.linalg.pinv(Ds.T @ A @ Ds, rcond=1e-12) @ (Ds.T @ g)
        h_prev, h = h, h + Ds @ u
        naive.append(h.copy())
    trace = run_batch(p, h1=np.ones(4), strategy="3mg",
                      opts=SolveOptions(max_iters=12, grad_tol=1e-300))
    for rec, hn in zip(trace.records, naive):
        np.testing.assert_allclose(rec.h, hn, rtol=1e-9, atol=1e-12)


def test_fixed_point_stays_put():
    p = instance_grid(seed=8, dims=(3,), kinds=["fair"])[0]
    ref = reference_minimizer(p, tol=1e-13)
    trace = run_batch(p, h1=ref.h, strategy="3mg", opts=SolveOptions(max_iters=5, grad_tol=1e-9))
    assert trace.converged
    assert trace.n_steps == 0


def test_zero_start_on_centered_quadratic_converges_immediately():
    p = ProblemInstance(QuadraticData(np.diag([1.0, 4.0]), np.zeros(2)), ZeroPenalty())
    trace = run_batch(p, h1=np.zeros(2))
    assert trace.converged and trace.n_steps == 0


def test_max_iters_respected():
    p = instance_grid(seed=19, dims=(5,), kinds=["hyperbolic"])[0]
    trace = run_batch(p, h1=np.ones(5), strategy="gradient",
                      opts=SolveOptions(max_iters=3, grad_tol=1e-300))
    assert not trace.converged
    assert len(trace.records) == 4  # 3 steps plus the final state


def test_reference_minimizer_examples():
    p = ProblemInstance(QuadraticData(np.diag([2.0, 1.0]), np.array([1.0, 0.0])), ZeroPenalty())
    ref = reference_minimizer(p)
    np.testing.assert_allclose(ref.h, [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(ref.value, -0.25, atol=1e-14)

    # 1-d with penalty: minimizer of 0.5*2h^2 - h + sqrt(0.04 + h^2) - 0.2
    p2 = ProblemInstance(
        QuadraticData(np.array([[2.0]]), np.array([1.0])),
        HyperbolicPenalty(1.0, 0.2),
    )
    ref2 = reference_minimizer(p2)
    g = eval_gradient(p2, ref2.h)
    assert abs(g[0]) <= 1e-11
    assert ref2.value <= eval_objective(p2, [0.0])


def test_surrogate_value_dominates_next_objective():
    from mmsubspace.majorant import eval_surrogate

    for p in instance_grid(seed=71, dims=(3,), kinds=["hyperbolic", "fair"]):
        h = 2.0 * np.ones(p.dim)
        for _ in range(6):
            m = build_majorant(p, h)
            D = build_subspace(parse_strategy("gradient"), m.gradient_at_anchor, h)
            _, h_next, _ = subspace_step(m, D)
            f_next = eval_objective(p, h_next)
            s_next = eval_surrogate(m, h_next)
            scale = 1 + abs(m.value_at_anchor)
            assert f_next <= s_next + 1e-10 * scale
            assert s_next <= m.value_at_anchor + 1e-10 * scale
            h = h_next


def test_subspace_step_dominates_optimal_gradient_step():
    for p in instance_grid(seed=77, dims=(4,), kinds=["hyperbolic"]):
        h = np.ones(p.dim)
        for _ in range(5):
            m = build_majorant(p, h)
            D = build_subspace(parse_strategy("gradient"), m.gradient_at_anchor, h)
            _, h_sub, _ = subspace_step(m, D)
            alpha = optimal_gradient_step(m)
            h_grad = h - alpha * m.gradient_at_anchor
            assert eval_objective(p, h_sub) <= eval_objective(p, h_grad) + 1e-11 * (1 + abs(m.value_at_anchor))
            h = h_sub


def test_trace_csv_and_json_roundtrip(tmp_path):
    p = instance_grid(seed=23, dims=(3,), kinds=["hyperbolic"])[0]
    trace = run_batch(p, h1=np.ones(3), strategy="3mg",
                      opts=SolveOptions(max_iters=50, grad_tol=1e-9, certify=True))
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    trace.to_csv(csv_path)
    trace.to_json(json_path)

    header = csv_path.read_text().splitlines()[0]
    assert header == "n,obj,grad_norm,step_norm,theta_tilde,theta,theta_lo,theta_hi,kappa_lo,kappa_hi,sigma_lo,sigma_hi,chi_n"
    assert len(csv_path.read_text().splitlines()) == len(trace.records) + 1

    back = Trace.from_json(json_path)
    assert back.converged == trace.converged
    assert back.meta == trace.meta
    for a, b in zip(trace.records, back.records):
        np.testing.assert_array_equal(a.h, b.h)
        assert a.obj == b.obj
        if a.cert is not None:
            assert b.cert is not None
            assert a.cert.theta == b.cert.theta
            assert a.cert.lemma_bound == b.cert.lemma_bound


def test_invalid_options_rejected():
    with pytest.raises(InputError):
        SolveOptions(max_iters=0)
    with pytest.raises(InputError):
        SolveOptions(grad_tol=0.0)
    p = ProblemInstance(QuadraticData(np.eye(2), np.zeros(2)), ZeroPenalty())
    with pytest.raises(InputError):
        run_batch(p, opts=SolveOptions(epsilon=5.0, certify=True))

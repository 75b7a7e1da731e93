import numpy as np
import pytest

from mmsubspace.cli import build_stream, main
from mmsubspace.errors import InputError, NumericError
from mmsubspace.majorant import build_majorant
from mmsubspace.model import (
    ProblemInstance, QuadraticData, ZeroPenalty, eval_gradient, eval_hessian, eval_objective_and_gradient,
    save_problem,
)
from mmsubspace.problems import demo_instances
from mmsubspace.rates import (
    _gradient_form,
    batch_rate_summary,
    certify_iteration,
    check_decay_inequality,
    check_linear_iterate_convergence,
    compute_kappa_bounds,
    compute_sigma_bounds,
    certified_regime_start,
    compute_theta_tilde,
    factor_hessian,
    gradient_reference,
    sigma_spread,
    subspace_ordering,
)
from mmsubspace.solver import SolveOptions, Trace, reference_minimizer, run_batch
from mmsubspace.subspace import DirectionMatrix, build_subspace, history_window, parse_strategy
from conftest import instance_grid


def test_theta_tilde_full_space_is_one():
    A = np.diag([1.0, 4.0])
    t = compute_theta_tilde([1.0, 4.0], A, A, DirectionMatrix(np.eye(2)))
    np.testing.assert_allclose(t, 1.0, rtol=1e-14)


def test_theta_tilde_gradient_reference_identity():
    # A = hess = I: any direction containing g gives theta_tilde = 1
    t = compute_theta_tilde([3.0, 4.0], np.eye(2), np.eye(2), gradient_reference([3.0, 4.0]))
    np.testing.assert_allclose(t, 1.0, rtol=1e-14)


def test_theta_tilde_worked_2x2():
    # (g'g)^2 / ((g'Ag)(g'A^{-1}g)) = 17^2 / (65 * 5) = 289/325
    A = np.diag([1.0, 4.0])
    g = np.array([1.0, 4.0])
    t = compute_theta_tilde(g, A, A, gradient_reference(g))
    np.testing.assert_allclose(t, 289.0 / 325.0, rtol=1e-12)


def test_theta_tilde_half_example():
    # one-column direction orthogonal-ish split: D = e1, g = (1, 1), A = I
    t = compute_theta_tilde([1.0, 1.0], np.eye(2), np.eye(2), DirectionMatrix(np.array([[1.0], [0.0]])))
    np.testing.assert_allclose(t, 0.5, rtol=1e-14)


def test_theta_tilde_rejects_zero_gradient():
    with pytest.raises(InputError):
        compute_theta_tilde(np.zeros(2), np.eye(2), np.eye(2), DirectionMatrix(np.eye(2)))


def test_kappa_bounds_examples():
    np.testing.assert_allclose(compute_kappa_bounds(np.eye(3), np.eye(3)), (1.0, 1.0), rtol=1e-12)
    np.testing.assert_allclose(compute_kappa_bounds(2.0 * np.eye(2), np.eye(2)), (2.0, 2.0), rtol=1e-12)
    lo, hi = compute_kappa_bounds(np.diag([1.0, 4.0]), np.diag([1.0, 2.0]))
    np.testing.assert_allclose((lo, hi), (1.0, 2.0), rtol=1e-12)


def test_kappa_lower_bound_is_at_least_one():
    # A majorizes the Hessian on the MM path, so kappa_lo >= 1
    for p in instance_grid(seed=31, dims=(3, 6), kinds=["hyperbolic", "fair"]):
        h = np.ones(p.dim)
        from mmsubspace.model import eval_hessian

        A = build_majorant(p, h).curvature
        lo, hi = compute_kappa_bounds(A, eval_hessian(p, h))
        assert lo >= 1.0 - 1e-10
        assert hi >= lo


def test_sigma_bounds_example():
    np.testing.assert_allclose(compute_sigma_bounds(np.diag([3.0, 1.0])), (1.0, 3.0), rtol=1e-14)


def test_certify_iteration_full_space(diag14):
    # full space: theta_tilde = 1, so theta = eps/(1+eps)
    h = np.array([1.0, 1.0])
    g = eval_gradient(diag14, h)
    m = build_majorant(diag14, h)
    D = build_subspace(parse_strategy("full"), g, h)
    eps = 0.1
    cert = certify_iteration(1, g, D, m.curvature, eps, diag14.quad.R, factor_hessian(diag14, h))
    np.testing.assert_allclose(cert.theta_tilde, 1.0, rtol=1e-12)
    np.testing.assert_allclose(cert.theta, eps / (1.0 + eps), rtol=1e-12)
    assert cert.hessian_floor_ok
    np.testing.assert_allclose(cert.kappa_lo, 1.0, rtol=1e-12)
    np.testing.assert_allclose(cert.kappa_hi, 1.0, rtol=1e-12)
    np.testing.assert_allclose((cert.sigma_lo, cert.sigma_hi), (1.0, 4.0), rtol=1e-12)


def test_kantorovich_floor_worked_2x2(diag14):
    # spread = 3/5; floor (1 - spread^2)/kappa_hi = 0.64 <= theta_tilde = 289/325
    g = eval_gradient(diag14, np.array([1.0, 1.0]))
    t = compute_theta_tilde(g, np.diag([1.0, 4.0]), np.diag([1.0, 4.0]), gradient_reference(g))
    floor = (1.0 - (3.0 / 5.0) ** 2) / 1.0
    assert abs(floor - 0.64) <= 1e-15
    assert t >= floor - 1e-12


def test_theta_sandwich_on_runs():
    for p in instance_grid(seed=47, dims=(4,), kinds=["hyperbolic", "fair"]):
        trace = run_batch(p, h1=np.ones(p.dim), strategy="3mg",
                          opts=SolveOptions(max_iters=200, grad_tol=1e-9, certify=True))
        for rec in trace.records:
            c = rec.cert
            if c is None:
                continue
            assert c.theta_lo <= c.theta + 1e-10
            assert c.theta <= c.theta_hi + 1e-10
            assert 0.0 <= c.theta < 1.0
            assert c.kappa_lo >= 1.0 - 1e-10
            # Kantorovich floor and cap on theta_tilde
            spread = (c.sigma_hi - c.sigma_lo) / (c.sigma_hi + c.sigma_lo)
            assert c.theta_tilde >= (1.0 - spread**2) / c.kappa_hi - 1e-10
            assert c.theta_tilde <= 1.0 / c.kappa_lo + 1e-10


def test_decay_example_numbers():
    # theta = 0.5, gap_now = 5 -> rhs = 2.5; lemma bound 2.75 covers gap 2.5
    from mmsubspace.rates import RateCertificate

    cert = RateCertificate(
        n=1, epsilon=0.1, theta_tilde=0.55, theta=0.5, theta_lo=0.1, theta_hi=0.9,
        kappa_lo=1.0, kappa_hi=2.0, sigma_lo=1.0, sigma_hi=2.0,
        hessian_floor_ok=True, lemma_bound=5.5,
    )
    rep = check_decay_inequality(cert, F_now=5.0, F_next=2.5, inf_Fn=0.0)
    assert rep.decay_ok and rep.gap_bound_ok and rep.passed

    rep_bad = check_decay_inequality(cert, F_now=5.0, F_next=2.6, inf_Fn=0.0)
    assert not rep_bad.decay_ok


def test_decay_holds_along_certified_runs():
    for p in instance_grid(seed=61, dims=(4,), kinds=["hyperbolic"]):
        trace = run_batch(p, h1=np.ones(p.dim), strategy="gradient",
                          opts=SolveOptions(max_iters=300, grad_tol=1e-9, certify=True))
        inf_F = reference_minimizer(p).value
        n_eps = certified_regime_start(
            (rec.n, rec.cert, rec.obj, inf_F)
            for rec in trace.records if rec.cert is not None
        )
        assert n_eps is not None
        recs = trace.records
        for a, b in zip(recs, recs[1:]):
            if a.cert is None or a.n < n_eps:
                continue
            rep = check_decay_inequality(a.cert, a.obj, b.obj, inf_F)
            assert rep.passed, a.n


def test_subspace_ordering_and_memory_monotonicity():
    p = instance_grid(seed=92, dims=(6,), kinds=["hyperbolic"])[0]
    rng = np.random.default_rng(3)
    h = rng.standard_normal(6)
    hist = [h + rng.standard_normal(6), h + rng.standard_normal(6), h + rng.standard_normal(6)]
    g = eval_gradient(p, h)
    A = build_majorant(p, h).curvature
    hess = eval_hessian(p, h)
    t = {s: compute_theta_tilde(g, A, hess, build_subspace(parse_strategy(s), g, h, hist))
         for s in ["gradient", "3mg", "memory:4", "memory:5", "full"]}
    rep = subspace_ordering(g, A, _gradient_form(factor_hessian(p, h)[1], g))
    for theta in t.values():
        tol = 1e-10 * max(1.0, abs(theta))
        assert rep.theta_gradient_ref <= theta + tol and theta <= rep.theta_full + tol
    # nested memories: adding difference columns can only increase theta_tilde
    assert t["gradient"] <= t["3mg"] + 1e-10
    assert t["3mg"] <= t["memory:4"] + 1e-10
    assert t["memory:4"] <= t["memory:5"] + 1e-10
    assert t["memory:5"] <= rep.theta_full + 1e-10
    assert rep.theta_gradient_ref <= t["gradient"] + 1e-10


def test_batch_summary_identity_R():
    # R = I, Zero penalty: eta_lo = eta_hi = 1, kappa = 1, so
    # cap = 2 eps / 2 = eps and vartheta = 1 - (1 - eps^2)/(1 + eps) = eps
    p = ProblemInstance(QuadraticData(np.eye(3), np.array([1.0, 2.0, 3.0])), ZeroPenalty())
    eps = 0.1
    trace = run_batch(p, h1=np.ones(3) * 5.0, strategy="gradient",
                      opts=SolveOptions(max_iters=50, grad_tol=1e-10, certify=True, epsilon=eps))
    s = batch_rate_summary(p, trace, eps, reference_minimizer(p, tol=1e-12))
    assert s.certified
    np.testing.assert_allclose(s.eta_lo, 1.0, rtol=1e-12)
    np.testing.assert_allclose(s.eta_hi, 1.0 + 1e-12, rtol=1e-6)
    np.testing.assert_allclose(s.kappa_max, 1.0, rtol=1e-10)
    np.testing.assert_allclose(s.vartheta, eps, rtol=1e-6)
    assert s.n_eps >= 1
    assert all(sigma_spread(rec.cert.sigma_lo, rec.cert.sigma_hi) <= s.spread_cap + 1e-10
               for rec in trace.records if rec.cert is not None)


def test_batch_summary_and_linear_convergence():
    for p in instance_grid(seed=13, dims=(5,), kinds=["hyperbolic", "fair"]):
        trace = run_batch(p, h1=np.ones(5), strategy="3mg",
                          opts=SolveOptions(max_iters=300, grad_tol=1e-10, certify=True))
        eps = trace.meta["epsilon"]
        ref = reference_minimizer(p, tol=1e-12)
        s = batch_rate_summary(p, trace, eps, ref)
        assert s.certified and 0 < s.vartheta < 1 and s.mu > 0
        rep = check_linear_iterate_convergence(trace, s, ref)
        assert rep.passed, (p.penalty.kind, rep)


def test_certificate_at_zero_gradient_raises(diag14):
    # g' H^{-1} g vanishes, so neither a certificate nor the ordering exists;
    # the solver stops before a zero gradient
    h = np.zeros(2)
    g = eval_gradient(diag14, h)
    m = build_majorant(diag14, h)
    with pytest.raises(NumericError):
        certify_iteration(1, g, DirectionMatrix(np.eye(2)), m.curvature, 0.05, diag14.quad.R, factor_hessian(diag14, h))
    with pytest.raises(NumericError):
        subspace_ordering(g, m.curvature, _gradient_form(factor_hessian(diag14, h)[1], g))


@pytest.mark.parametrize("stream", [[], ["--stream", "geometric:0.9", "--seed", "1"]],
                         ids=["batch", "online"])
def test_recorded_certificates_are_the_single_path_recomputed(tmp_path, stream):
    """Each recorded certificate is bitwise certify_iteration on factor_hessian at the record's iterate."""
    p = demo_instances()["hyperbolic-4d"]
    save_problem(p, tmp_path / "p.json")
    assert main(["solve", "--problem", str(tmp_path / "p.json"), "--certify", *stream,
                 "--trace-out", str(tmp_path / "t")]) == 0
    trace = Trace.from_json(tmp_path / "t.json")
    src = build_stream(stream[1] if stream else "constant", p, int(stream[3]) if stream else 0)
    strategy = parse_strategy(trace.meta["strategy"])
    eps = trace.meta["epsilon"]
    history = []
    certified = 0
    for rec in trace.records[:-1]:
        p_n = src.instance(rec.n)
        f, g = eval_objective_and_gradient(p_n, rec.h)
        A = build_majorant(p_n, rec.h, f, g).curvature
        D = build_subspace(strategy, g, rec.h, history)
        if rec.cert is not None:
            assert certify_iteration(rec.n, g, D, A, eps, src.limit.R, factor_hessian(p_n, rec.h)) == rec.cert
            certified += 1
        history.insert(0, rec.h)
        del history[history_window(strategy):]
    assert certified == len(trace.records) - 1 - sum(trace.certificates_skipped.values()) > 0

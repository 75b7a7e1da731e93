"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line so the suite output doubles as an
acceptance report.
"""

import numpy as np
import scipy.linalg

from mmsubspace.majorant import build_majorant, check_majorization, eval_surrogate
from mmsubspace.model import (
    HyperbolicPenalty,
    ProblemInstance,
    QuadraticData,
    ZeroPenalty,
    eval_gradient,
    eval_hessian,
    eval_objective,
)
from mmsubspace.problems import random_instance
from mmsubspace.rates import (
    _gradient_form,
    batch_rate_summary,
    certified_regime_start,
    check_decay_inequality,
    compute_theta_tilde,
    factor_hessian,
    gradient_reference,
    subspace_ordering,
)
from mmsubspace.solver import (
    SolveOptions,
    reference_minimizer,
    run_batch,
    run_online,
    subspace_step,
)
from mmsubspace.stream import GeometricPerturbationStream
from mmsubspace.subspace import DirectionMatrix, build_subspace, parse_strategy
from mmsubspace.verify import verify_trace
from conftest import PENALTY_KINDS, instance_grid


def _report(num, desc, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}]: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_derivative_correctness():
    rng = np.random.default_rng(101)
    ok = True
    count = 0
    for p in instance_grid(seed=101, dims=(1, 2, 5, 20), kinds=PENALTY_KINDS):
        count += 1
        h = rng.standard_normal(p.dim)
        g = eval_gradient(p, h)
        H = eval_hessian(p, h)
        f_scale = 1.0 + abs(eval_objective(p, h))
        s = 1e-5
        for j in range(p.dim):
            e = np.zeros(p.dim)
            e[j] = 1.0
            fd_g = (eval_objective(p, h + s * e) - eval_objective(p, h - s * e)) / (2 * s)
            ok = ok and abs(fd_g - g[j]) <= 1e-5 * f_scale
            fd_col = (eval_gradient(p, h + s * e) - eval_gradient(p, h - s * e)) / (2 * s)
            ok = ok and np.linalg.norm(fd_col - H[:, j]) <= 1e-4 * (1 + np.linalg.norm(H))
    _report(1, f"gradients/Hessians match finite differences on {count} instances", ok)


def test_criterion_02_majorization():
    rng = np.random.default_rng(202)
    ok = True
    for p in instance_grid(seed=202, dims=(1, 2, 5, 20), kinds=PENALTY_KINDS):
        anchor = rng.standard_normal(p.dim)
        m = build_majorant(p, anchor)
        rep = check_majorization(p, m, samples=100, seed=7)
        scale = 1.0 + abs(m.value_at_anchor)
        ok = ok and rep.passed and rep.min_margin >= -1e-9 * scale
        # curvature domination at the anchor and 20 sampled points
        rep20 = check_majorization(p, m, samples=20, seed=8)
        ok = ok and rep20.min_curvature_gap >= -rep20.tolerance
    _report(2, "sampled majorization and curvature domination hold", ok)


def test_criterion_03_exact_one_step_solve():
    rng = np.random.default_rng(303)
    ok = True
    for n in (2, 5, 20):
        p = random_instance(n, "zero", rng, cond=20.0)
        trace = run_batch(p, h1=rng.standard_normal(n), strategy="full",
                          opts=SolveOptions(max_iters=10, grad_tol=1e-12))
        h_star = np.linalg.solve(p.quad.R, p.quad.r)
        ok = ok and trace.converged and trace.n_steps == 1
        ok = ok and np.linalg.norm(trace.final.h - h_star) <= 1e-10 * (1 + np.linalg.norm(h_star))
    _report(3, "full-space step solves pure quadratics in exactly one iteration", ok)


def test_criterion_04_worked_2x2(diag14):
    h = np.array([1.0, 1.0])
    m = build_majorant(diag14, h)
    _, h2, _ = subspace_step(m, gradient_reference(m.gradient_at_anchor))
    ok = np.allclose(h2, [48.0 / 65.0, -3.0 / 65.0], rtol=1e-12, atol=0)

    A = np.diag([1.0, 4.0])
    t = compute_theta_tilde(m.gradient_at_anchor, A, A, gradient_reference(m.gradient_at_anchor))
    ok = ok and abs(t - 289.0 / 325.0) <= 1e-12
    floor = (1.0 - (3.0 / 5.0) ** 2) / 1.0  # Kantorovich floor for eigs (1, 4)
    ok = ok and abs(floor - 0.64) <= 1e-12 and t >= floor - 1e-12
    _report(4, "worked 2x2 instance matches hand-derived values", ok)


def _certified_batch_runs():
    rng = np.random.default_rng(505)
    runs = []
    for n in (2, 5, 20):
        for kind in ("hyperbolic", "fair"):
            p = random_instance(n, kind, rng, cond=15.0, lam=0.8, delta=0.5)
            for strat in ("3mg", "gradient"):
                trace = run_batch(p, h1=np.ones(n), strategy=strat,
                                  opts=SolveOptions(max_iters=400, grad_tol=1e-10, certify=True))
                runs.append((p, strat, trace))
    return runs


def test_criterion_05_per_iteration_certification():
    ok = True
    total_certified = 0
    violations = 0
    for p, strat, trace in _certified_batch_runs():
        eps = trace.meta["epsilon"]
        inf_F = reference_minimizer(p, tol=1e-12).value
        n_eps = certified_regime_start(
            (rec.n, rec.cert, rec.obj, inf_F)
            for rec in trace.records if rec.cert is not None
        )
        if n_eps is None:
            violations += 1
            continue
        summary = batch_rate_summary(p, trace, eps, reference_minimizer(p, tol=1e-12))
        cap = (summary.eta_hi - summary.eta_lo + 2 * eps) / (summary.eta_hi + summary.eta_lo)
        recs = trace.records
        for a, b in zip(recs, recs[1:]):
            c = a.cert
            if c is None or a.n < n_eps:
                continue
            total_certified += 1
            rep = check_decay_inequality(c, a.obj, b.obj, inf_F)
            checks = [
                rep.gap_bound_ok,                                # optimality gap bound
                rep.decay_ok,                                    # certified contraction
                c.theta_lo <= c.theta + 1e-10,                   # sandwich, lower
                c.theta <= c.theta_hi + 1e-10,                   # sandwich, upper
                c.kappa_lo >= 1.0 - 1e-10,
                c.theta_tilde <= 1.0 / c.kappa_lo + 1e-10,       # cap
            ]
            spread = (c.sigma_hi - c.sigma_lo) / (c.sigma_hi + c.sigma_lo)
            checks.append(c.theta_tilde >= (1.0 - spread**2) / c.kappa_hi - 1e-10)
            checks.append(spread <= cap + 1e-10)
            if not all(checks):
                violations += 1
    ok = violations == 0 and total_certified >= 200
    _report(5, f"{total_certified} certified iterations, {violations} violations", ok)


def test_criterion_06_subspace_ordering():
    ok = True
    for p, strat, trace in _certified_batch_runs():
        strategy = parse_strategy(strat)
        history = []
        for rec in trace.records[:-1]:
            g = eval_gradient(p, rec.h)
            if not np.any(g):
                continue
            A = build_majorant(p, rec.h).curvature
            rep = subspace_ordering(g, A, _gradient_form(factor_hessian(p, rec.h)[1], g))
            D = build_subspace(strategy, g, rec.h, history)
            t = compute_theta_tilde(g, A, eval_hessian(p, rec.h), D)
            tol = 1e-10 * max(1.0, abs(t))
            ok = ok and rep.theta_gradient_ref <= t + tol and t <= rep.theta_full + tol
            history.insert(0, rec.h.copy())
            del history[4:]
    _report(6, "theta_tilde ordering gradient-ref <= strategy <= full space", ok)


def test_criterion_07_batch_linear_convergence():
    rng = np.random.default_rng(707)
    p = random_instance(20, "hyperbolic", rng, cond=25.0, lam=0.6, delta=0.4)
    from mmsubspace.linalg import min_eig

    eps = 0.1 * min_eig(p.quad.R)
    trace = run_batch(p, h1=np.ones(20), strategy="3mg",
                      opts=SolveOptions(max_iters=400, grad_tol=1e-10, certify=True, epsilon=eps))
    ref = reference_minimizer(p, tol=1e-12)
    s = batch_rate_summary(p, trace, eps, ref)
    ok = s.certified
    scale = 1.0 + abs(ref.value)
    for rec in trace.records:
        if rec.n < s.n_eps:
            continue
        gap = rec.obj - ref.value
        ok = ok and gap <= s.mu * s.vartheta**rec.n + 1e-9 * scale
        ok = ok and 0.5 * s.eta_lo * float(np.sum((rec.h - ref.h) ** 2)) <= gap + 1e-9 * scale
    _report(7, f"geometric gap bound with vartheta={s.vartheta:.4f} from n_eps={s.n_eps}", ok)


def test_criterion_08_online_convergence():
    rng = np.random.default_rng(808)
    n = 10
    M = rng.standard_normal((n, n))
    R = M @ M.T + n * np.eye(n)
    quad = QuadraticData(R, R @ (3.0 * rng.standard_normal(n)))
    pen = HyperbolicPenalty(0.5, 0.3)
    p_limit = ProblemInstance(quad, pen)
    ref = reference_minimizer(p_limit, tol=1e-12)
    # drift aligned with the limit minimizer keeps the per-iteration drift
    # terms well away from sign cancellation
    e = 0.02 * (1 + np.linalg.norm(quad.r)) * (ref.h / np.linalg.norm(ref.h))
    E = 0.001 * np.eye(n)
    s = GeometricPerturbationStream(quad, rho=0.9, E_R=E, e_r=e, penalty=pen)

    # warm start at the minimizer of the first snapshot
    R1, r1 = GeometricPerturbationStream(quad, 0.9, E, e, penalty=pen).next_estimate(1)
    h1 = reference_minimizer(ProblemInstance(QuadraticData(R1, r1), pen)).h

    trace = run_online(s, h1=h1, strategy="3mg",
                       opts=SolveOptions(max_iters=500, grad_tol=1e-15))
    ok = np.linalg.norm(trace.final.h - ref.h) <= 1e-5 * (1 + np.linalg.norm(ref.h))

    # gradient-norm-squared partial sums settle
    g2 = [rec.grad_norm**2 for rec in trace.records]
    ok = ok and len(g2) >= 100 and sum(g2[-50:]) < 1e-12

    # summed drift terms match the closed-form geometric bound
    chi_sum = sum(abs(rec.chi) for rec in trace.records if rec.chi)
    c_hat = -float(s.e_r @ ref.h) + 0.5 * float(ref.h @ (s.E_R @ ref.h))
    closed = 0.9 * abs(c_hat)
    ok = ok and closed > 0 and abs(chi_sum - closed) <= 0.05 * closed
    _report(8, f"online run: sum|chi|={chi_sum:.4e} vs closed form {closed:.4e}", ok)


def _grid_refine(fun, z0, width, rounds=12, sweeps=120):
    """Derivative-free minimization: coarse grid search, then coordinate-wise
    three-point parabolic steps (exact per line for a quadratic objective)."""
    z = np.asarray(z0, dtype=float)
    m = len(z)
    pts = np.linspace(-1.0, 1.0, 9)
    w = float(width)
    for _ in range(rounds):
        best, best_val = z, fun(z)
        for off in np.stack(np.meshgrid(*([pts] * m)), axis=-1).reshape(-1, m):
            cand = z + w * off
            val = fun(cand)
            if val < best_val:
                best, best_val = cand, val
        z = best
        w /= 3.0
    s = max(1.0, float(width) / 10.0)
    for _ in range(sweeps):
        for j in range(m):
            e = np.zeros(m)
            e[j] = s
            fm, f0, fp = fun(z - e), fun(z), fun(z + e)
            denom = fm - 2.0 * f0 + fp
            if denom > 0:
                z = z + (0.5 * s * (fm - fp) / denom) * (e / s)
    return z


def test_criterion_09_equivalence_oracle():
    rng = np.random.default_rng(909)
    ok = True
    for trial in range(8):
        dim = int(rng.integers(2, 7))
        kind = PENALTY_KINDS[trial % len(PENALTY_KINDS)]
        p = random_instance(dim, kind, rng, cond=8.0)
        h = rng.standard_normal(dim)
        m = build_majorant(p, h)
        strat = ["gradient", "3mg"][trial % 2]
        D = build_subspace(parse_strategy(strat), m.gradient_at_anchor, h,
                           history=[h + rng.standard_normal(dim)])
        _, h_next, _ = subspace_step(m, D)

        # independent direct solve on an orthonormal basis of ran D
        Q = scipy.linalg.orth(D.cols)
        z_star = np.linalg.solve(Q.T @ m.curvature @ Q, -(Q.T @ m.gradient_at_anchor))
        h_direct = h + Q @ z_star
        ok = ok and np.linalg.norm(h_next - h_direct) <= 1e-8 * (1 + np.linalg.norm(h_direct))

        # brute-force grid refinement over the same subspace (M <= 3)
        if Q.shape[1] <= 3:
            lam_min = float(np.linalg.eigvalsh(m.curvature).min())
            width = 2.0 * (1.0 + np.linalg.norm(m.gradient_at_anchor) / lam_min)
            z_grid = _grid_refine(lambda z: eval_surrogate(m, h + Q @ z),
                                  np.zeros(Q.shape[1]), width)
            ok = ok and np.linalg.norm(Q @ (z_grid - z_star)) <= 1e-8 * (1 + np.linalg.norm(h_direct))
    _report(9, "subspace step matches direct-solve and grid-search oracles", ok)


def test_criterion_10_degenerate_inputs():
    rng = np.random.default_rng(1010)
    ok = True

    # zero start: the iterate column of D is identically zero
    p = random_instance(5, "hyperbolic", rng, cond=10.0)
    trace0 = run_batch(p, h1=np.zeros(5), strategy="3mg",
                       opts=SolveOptions(max_iters=400, grad_tol=1e-10, certify=True))
    ok = ok and trace0.converged
    ok = ok and verify_trace(p, trace0).passed

    # zero-gradient start: fixed point detected immediately
    ref = reference_minimizer(p, tol=1e-13)
    trace_fp = run_batch(p, h1=ref.h, strategy="3mg",
                         opts=SolveOptions(max_iters=5, grad_tol=1e-9, certify=True))
    ok = ok and trace_fp.converged and trace_fp.n_steps == 0
    ok = ok and verify_trace(p, trace_fp).passed

    # scalar instances, all penalty kinds
    for kind in PENALTY_KINDS:
        p1 = random_instance(1, kind, rng)
        t1 = run_batch(p1, h1=np.array([2.0]), strategy="3mg",
                       opts=SolveOptions(max_iters=200, grad_tol=1e-10, certify=True))
        ok = ok and t1.converged and verify_trace(p1, t1).passed
    _report(10, "degenerate starts and scalar instances complete and verify", ok)

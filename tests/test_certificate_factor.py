"""A certified iteration shares one Cholesky factor of the Hessian; the dense formulas stay the reference."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace import linalg
from mmsubspace.errors import NumericError
from mmsubspace.majorant import build_majorant
from mmsubspace.model import ProblemInstance, QuadraticData, ZeroPenalty, eval_gradient, eval_hessian
from mmsubspace.problems import random_spd
from mmsubspace.rates import certify_iteration, compute_kappa_bounds, factor_hessian
from mmsubspace.subspace import DirectionMatrix, build_subspace, column_scaled, parse_strategy
from conftest import PENALTY_KINDS
from test_matrix_free import make_penalty

EPS = np.finfo(float).eps
VALUE_FIELDS = ["theta_tilde", "theta", "theta_lo", "theta_hi", "kappa_lo", "kappa_hi",
                "sigma_lo", "sigma_hi", "lemma_bound"]


def reference_certificate(p_n, h, g, D, A, epsilon, R_limit):
    """The certificate from the dense formulas: nine decompositions of A and H per call.

    The floor is an eigenvalue test, the lemma bound and theta_tilde's
    denominator solve with H separately, and kappa comes from the symmetric
    square root of A.
    """
    hess = eval_hessian(p_n, h)
    floor_ok = linalg.min_eig(hess - R_limit + epsilon * np.eye(p_n.dim)) >= -1e-10
    cols, _ = column_scaled(D.cols)
    Dg = cols.T @ g
    num = float(Dg @ (linalg.psd_pinv(cols.T @ A @ cols) @ Dg))
    theta_tilde = num / float(g @ linalg.pd_solve(hess, g))
    if linalg.min_eig(A) <= 0 or linalg.min_eig(hess) <= 0:
        raise NumericError("kappa bounds need positive definite matrices")
    S = linalg.sym_sqrt(A)
    kappa_lo, kappa_hi = linalg.extreme_eigs(S @ linalg.pd_solve(hess, S))
    sigma_lo, sigma_hi = linalg.extreme_eigs(hess)
    spread = (sigma_hi - sigma_lo) / (sigma_hi + sigma_lo)
    return {
        "theta_tilde": theta_tilde,
        "theta": 1.0 - theta_tilde / (1.0 + epsilon),
        "theta_lo": 1.0 - 1.0 / ((1.0 + epsilon) * kappa_lo),
        "theta_hi": 1.0 - (1.0 - spread**2) / ((1.0 + epsilon) * kappa_hi),
        "kappa_lo": kappa_lo,
        "kappa_hi": kappa_hi,
        "sigma_lo": sigma_lo,
        "sigma_hi": sigma_hi,
        "lemma_bound": 0.5 * (1.0 + epsilon) * float(g @ linalg.pd_solve(hess, g)),
        "hessian_floor_ok": floor_ok,
    }


@st.composite
def certificate_cases(draw):
    n = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cond = 10.0 ** draw(st.floats(0.0, 8.0))
    R = random_spd(n, cond, rng)
    penalty = make_penalty(draw(st.sampled_from(PENALTY_KINDS)), draw(st.sampled_from(["identity", "diff"])),
                           n, draw(st.floats(0.0, 5.0)), draw(st.floats(1e-3, 10.0)))
    p = ProblemInstance(QuadraticData(R, rng.standard_normal(n)), penalty)
    h = 10.0 ** draw(st.floats(-3.0, 2.0)) * rng.standard_normal(n)
    history = [h + rng.standard_normal(n) for _ in range(draw(st.integers(0, 3)))]
    strategy = parse_strategy(draw(st.sampled_from(["gradient", "3mg", "memory:4", "full"])))
    epsilon = draw(st.floats(0.01, 0.9)) * linalg.min_eig(R)
    R_limit = R
    if draw(st.booleans()):
        # an online snapshot: the limit sits up to 3 eps away from R in the
        # spectral norm, so the floor matrix may be indefinite
        E = rng.standard_normal((n, n))
        E = E + E.T
        R_limit = R + draw(st.floats(0.0, 3.0)) * epsilon * E / np.linalg.norm(E, 2)
    return p, h, strategy, history, epsilon, R_limit


# Both paths are backward stable, and each perturbs kappa through a solve with
# H, so a value may move by a few units of n * eps * cond(H) times its scale:
#     |fast - reference| <= 64 * n * eps * cond(H) * scale,
# with scale = kappa_hi for the kappa bounds, |value| for theta_tilde and the
# lemma bound, and max(|value|, 1) for the theta bounds, which lie in (-inf, 1).
# sigma is computed by the same call on both paths and must agree exactly.
def assert_matches_reference(cert, ref, n):
    sigma_lo, sigma_hi = ref["sigma_lo"], ref["sigma_hi"]
    assert (cert.sigma_lo, cert.sigma_hi) == (sigma_lo, sigma_hi)
    rtol = 64.0 * n * EPS * sigma_hi / sigma_lo
    for k in VALUE_FIELDS:
        scale = {"kappa_lo": ref["kappa_hi"], "kappa_hi": ref["kappa_hi"],
                 "theta_tilde": abs(ref[k]), "lemma_bound": abs(ref[k])}.get(k, max(abs(ref[k]), 1.0))
        assert abs(getattr(cert, k) - ref[k]) <= rtol * scale, (k, getattr(cert, k), ref[k])


def floor_matrix(p, h, epsilon, R_limit):
    return eval_hessian(p, h) - R_limit + epsilon * np.eye(p.dim)


@settings(max_examples=300, deadline=None)
@given(certificate_cases())
def test_certificate_matches_dense_reference(case):
    p, h, strategy, history, epsilon, R_limit = case
    g = eval_gradient(p, h)
    A = build_majorant(p, h).curvature
    D = build_subspace(strategy, g, h, history)
    cert = certify_iteration(1, g, D, A, epsilon, R_limit, factor_hessian(p, h))
    ref = reference_certificate(p, h, g, D, A, epsilon, R_limit)
    assert_matches_reference(cert, ref, p.dim)
    # a Cholesky factor proves the floor; the eigenvalue test decides only
    # where the factorization fails, so the two can differ only where the
    # smallest eigenvalue is below -1e-10 by no more than rounding
    if cert.hessian_floor_ok != ref["hessian_floor_ok"]:
        M = floor_matrix(p, h, epsilon, R_limit)
        assert cert.hessian_floor_ok
        assert linalg.min_eig(M) >= -64.0 * p.dim * EPS * np.linalg.norm(M, 2)


def online_case(shift):
    """An instance with eps = 0.1 whose limit data matrix is ``R + shift * I``."""
    rng = np.random.default_rng(7)
    n = 6
    R = random_spd(n, 100.0, rng)
    p = ProblemInstance(QuadraticData(R, rng.standard_normal(n)), make_penalty("hyperbolic", "diff", n, 0.3, 0.5))
    h = rng.standard_normal(n)
    epsilon = 0.1
    return p, h, epsilon, R + shift * np.eye(n)


@pytest.mark.parametrize("shift, floor_ok", [
    (0.0, True),          # batch: the factorization proves the floor
    (0.1 + 1e-12, True),  # the singular penalty Hessian less 1e-12 I: the eigenvalue test passes
    (0.5, False),         # the factorization fails and so does the eigenvalue test
])
def test_floor_takes_both_branches(shift, floor_ok):
    p, h, epsilon, R_limit = online_case(shift)
    g = eval_gradient(p, h)
    A = build_majorant(p, h).curvature
    D = build_subspace(parse_strategy("3mg"), g, h, [])
    M = floor_matrix(p, h, epsilon, R_limit)
    factors = True
    try:
        linalg.cholesky_lower(M)
    except NumericError:
        factors = False
    assert factors == (shift == 0.0)
    cert = certify_iteration(1, g, D, A, epsilon, R_limit, factor_hessian(p, h))
    ref = reference_certificate(p, h, g, D, A, epsilon, R_limit)
    assert cert.hessian_floor_ok == ref["hessian_floor_ok"] == floor_ok
    assert_matches_reference(cert, ref, p.dim)


def test_non_pd_hessian_raises():
    # R = diag(1, -1) and no penalty: H = R is indefinite
    p = ProblemInstance(QuadraticData(np.diag([1.0, -1.0]), np.array([1.0, 1.0])), ZeroPenalty())
    h = np.array([0.5, 0.5])
    g = eval_gradient(p, h)
    with pytest.raises(NumericError):
        certify_iteration(1, g, DirectionMatrix(np.eye(2)), np.eye(2), 0.1, np.eye(2), factor_hessian(p, h))
    with pytest.raises(NumericError):
        reference_certificate(p, h, g, DirectionMatrix(np.eye(2)), np.eye(2), 0.1, np.eye(2))


def test_pd_solve_rejects_non_finite_matrix():
    M = np.array([[2.0, np.nan], [np.nan, 2.0]])
    with pytest.raises(NumericError):
        linalg.pd_solve(M, np.ones(2))


@pytest.mark.parametrize("A", [np.diag([1.0, -2.0]), np.array([[1.0, 2.0], [2.0, 1.0]]), -np.eye(2)])
def test_non_pd_majorant_raises(A, diag14):
    h = np.array([1.0, 1.0])
    g = eval_gradient(diag14, h)
    D = DirectionMatrix(np.eye(2))
    with pytest.raises(NumericError):
        certify_iteration(1, g, D, A, 0.1, diag14.quad.R, factor_hessian(diag14, h))
    with pytest.raises(NumericError):
        reference_certificate(diag14, h, g, D, A, 0.1, diag14.quad.R)
    with pytest.raises(NumericError):
        compute_kappa_bounds(A, eval_hessian(diag14, h))


def test_one_batch_certificate_makes_four_decompositions(monkeypatch):
    """One Cholesky of H, one of the floor matrix, a tridiagonal reduction for kappa and one for sigma."""
    rng = np.random.default_rng(11)
    n = 12
    p = ProblemInstance(QuadraticData(random_spd(n, 50.0, rng), rng.standard_normal(n)),
                        make_penalty("hyperbolic", "identity", n, 1.0, 1.0))
    h = rng.standard_normal(n)
    g = eval_gradient(p, h)
    A = build_majorant(p, h).curvature
    D = build_subspace(parse_strategy("3mg"), g, h, [h + rng.standard_normal(n)])

    counts = {"factorizations": 0, "eigendecompositions": 0}

    def counting(fn, kind):
        def wrapper(M, *args, **kwargs):
            if np.shape(M) == (n, n):  # the m x m subspace matrix is not counted
                counts[kind] += 1
            return fn(M, *args, **kwargs)
        return wrapper

    # the package factors through linalg's potrf, not scipy.linalg.cholesky
    for module, name, kind in [
        (np.linalg, "cholesky", "factorizations"),
        (linalg, "_potrf", "factorizations"),
        (np.linalg, "eigvalsh", "eigendecompositions"),
        (np.linalg, "eigh", "eigendecompositions"),
        (scipy.linalg, "eigvalsh", "eigendecompositions"),
        (scipy.linalg, "eigh", "eigendecompositions"),
        # extreme_eigs reduces to tridiagonal form, then bisects or takes the tridiagonal spectrum
        (linalg, "_sytrd", "eigendecompositions"),
    ]:
        monkeypatch.setattr(module, name, counting(getattr(module, name), kind))

    cert = certify_iteration(3, g, D, A, 0.1, p.quad.R, factor_hessian(p, h))
    assert cert.hessian_floor_ok
    assert counts["eigendecompositions"] == 2, counts
    assert counts["factorizations"] == 2, counts
    assert counts["factorizations"] + counts["eigendecompositions"] <= 4, counts

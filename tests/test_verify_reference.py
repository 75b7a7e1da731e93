"""The verified iteration against its previous form, bitwise.

The references below keep the helpers of a verified iteration as they were
before their re-checks, temporaries and dispatch were removed: ``psd_pinv``
through ``eigh`` at every size, ``certify_iteration`` and the subspace
ordering on the factor's ``g' H^{-1} g`` solving through
``scipy.linalg.solve_triangular``, with the floor matrix built from ``np.eye``, and
``check_majorization`` scaling each sample in its row, with
``np.linalg.norm`` for the radius and the curvature scale.  The package's
versions must give the same bits: every certificate field, the floor
verdict, every report field and every pseudo-inverse entry, signed zeros
included.
"""

import math
import struct
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmsubspace import linalg, rates
from mmsubspace.errors import NumericError
from mmsubspace.linalg import PINV_RCOND, cholesky_lower, extreme_eigs, min_eig
from mmsubspace.majorant import (
    MajorizationReport, _curvature_gaps, build_majorant, check_majorization, eval_surrogate,
)
from mmsubspace.model import (
    HyperbolicPenalty, ProblemInstance, QuadraticData, eval_gradient, eval_hessian, eval_objective,
    majorant_curvature,
)
from mmsubspace.problems import random_spd
from mmsubspace.rates import (
    OrderingReport, RateCertificate, certify_iteration, compute_sigma_bounds, factor_hessian, gradient_reference,
    sigma_spread, subspace_ordering,
)
from mmsubspace.subspace import DirectionMatrix, build_subspace, column_scaled
from test_block_majorization import checks
from test_certificate_factor import certificate_cases


def reference_psd_pinv(M):
    with np.errstate(over="ignore", invalid="ignore"):
        S = M + M.T
        S *= 0.5
    if not np.isfinite(S).all():
        if not np.isfinite(M).all():
            raise NumericError("non-finite entries in matrix passed to psd_pinv")
        raise NumericError("the symmetric part M + M' of the matrix passed to psd_pinv overflows the float range")
    w, U = np.linalg.eigh(S)
    cutoff = PINV_RCOND * max(float(w[-1]), 0.0)
    inv = np.zeros_like(w)
    np.divide(1.0, w, out=inv, where=w > cutoff)
    return (U * inv) @ U.T


def _subspace_form(grad, A, D):
    cols, _ = column_scaled(D.cols)
    M = cols.T @ A @ cols
    Dg = cols.T @ grad
    return float(Dg @ (reference_psd_pinv(M) @ Dg))


def _gradient_form(L, grad):
    y = scipy.linalg.solve_triangular(L, grad, lower=True)
    den = float(y @ y)
    if den <= 0:
        raise NumericError("quadratic form not positive")
    return den


def _kappa_from_factor(A, L):
    X = scipy.linalg.solve_triangular(L, A, lower=True)
    lo, hi = extreme_eigs(scipy.linalg.solve_triangular(L, X.T, lower=True))
    if lo <= 0:
        raise NumericError("kappa bounds need positive definite matrices")
    return lo, hi


def _floor_holds(M):
    try:
        cholesky_lower(M)
    except NumericError:
        return min_eig(M) >= -1e-10
    return True


def reference_certify_iteration(n, grad, D, A, epsilon, R_limit, hessian):
    hess, L = hessian
    floor_ok = _floor_holds(hess - R_limit + epsilon * np.eye(len(grad)))
    g_form = _gradient_form(L, grad)
    theta_tilde = _subspace_form(grad, A, D) / g_form
    theta = 1.0 - theta_tilde / (1.0 + epsilon)
    kappa_lo, kappa_hi = _kappa_from_factor(A, L)
    sigma_lo, sigma_hi = compute_sigma_bounds(hess)
    theta_lo = 1.0 - 1.0 / ((1.0 + epsilon) * kappa_lo)
    theta_hi = 1.0 - (1.0 - sigma_spread(sigma_lo, sigma_hi)**2) / ((1.0 + epsilon) * kappa_hi)
    lemma_bound = 0.5 * (1.0 + epsilon) * g_form
    return RateCertificate(
        n=n, epsilon=epsilon, theta_tilde=theta_tilde, theta=theta,
        theta_lo=theta_lo, theta_hi=theta_hi, kappa_lo=kappa_lo, kappa_hi=kappa_hi,
        sigma_lo=sigma_lo, sigma_hi=sigma_hi, hessian_floor_ok=floor_ok,
        lemma_bound=lemma_bound,
    )


def reference_subspace_ordering(grad, A, hessian):
    _, L = hessian
    g_form = _gradient_form(L, grad)
    t_ref = _subspace_form(grad, A, gradient_reference(grad)) / g_form
    return OrderingReport(t_ref, _gradient_form(cholesky_lower(A), grad) / g_form)


def reference_curvature_gaps(p_n, X, gap_tol):
    gaps = np.array(p_n.penalty.curvature_gap_bound(X), dtype=float)
    for j in np.flatnonzero(~(gaps >= -gap_tol)):
        h = X[:, j]
        A_h = p_n.quad.R + majorant_curvature(p_n, h)
        gaps[j] = min_eig(A_h - eval_hessian(p_n, h))
    return gaps


def reference_check_majorization(p_n, m, samples=100, radius=None, seed=0):
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if radius is None:
        radius = 10.0 * (1.0 + float(np.linalg.norm(m.anchor)))
    rng = np.random.default_rng(seed)
    n = p_n.dim
    scale = 1.0 + abs(m.value_at_anchor)
    a_scale = max(float(np.linalg.norm(m.curvature)), 1.0)
    gap_tol = 1e-10 * a_scale
    P = np.empty((samples + 1, n))
    P[0] = m.anchor
    k = 1
    for _ in range(samples):
        row = P[k]
        rng.standard_normal(out=row)
        nu = math.sqrt(row @ row)
        if nu == 0.0:
            continue
        row *= radius * rng.random() ** (1.0 / n) / nu
        row += m.anchor
        k += 1
    X = P[:k].T
    H = X[:, 1:]
    margins = eval_surrogate(m, H) - eval_objective(p_n, H)
    min_margin = float(np.min(margins, initial=np.inf))
    min_gap = float(np.min(reference_curvature_gaps(p_n, X, gap_tol)))
    tol = 1e-9 * scale
    return MajorizationReport(samples, radius, min_margin, min_gap, tol,
                              margin_ok=min_margin >= -tol, curvature_ok=min_gap >= -gap_tol)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_fields(x, y) -> bool:
    """Equal dataclass fields, each float compared by its bits (signed zeros and NaNs included)."""
    def bits(v):
        return struct.pack("<d", v) if isinstance(v, float) else v
    names = x.__dataclass_fields__
    return all(bits(getattr(x, k)) == bits(getattr(y, k)) for k in names)


def outcome(fn, *args):
    """``fn(*args)``, or the class and message of the NumericError it raises."""
    try:
        return fn(*args)
    except NumericError as exc:
        return ("NumericError", str(exc))


# ---- the 1x1 pseudo-inverse in closed form

ONE_BY_ONE = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.finfo(float).tiny, 1e-300, 1e300,
              1e308, -1e308, 8.98e307, 8.99e307, 1.0, -1.0, 2.0, 3.0, math.pi, np.nan, np.inf, -np.inf]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.sampled_from(ONE_BY_ONE), st.floats(allow_nan=True, allow_infinity=True),
                 st.floats(-1e300, 1e300).map(lambda x: x * 1e-300)))
def test_a_one_by_one_pseudo_inverse_is_eighs(w):
    M = np.array([[w]])
    with warnings.catch_warnings():
        # 1 / w overflows for a subnormal w on both paths
        warnings.simplefilter("ignore", RuntimeWarning)
        fast, ref = outcome(linalg.psd_pinv, M), outcome(reference_psd_pinv, M)
    if isinstance(ref, tuple):
        assert fast == ref
    else:
        assert same_bits(fast, ref), (w, fast, ref)


def test_a_one_by_one_pseudo_inverse_warns_where_eigh_did():
    """A subnormal entry overflows 1/w to inf on both paths, with a RuntimeWarning."""
    M = np.array([[5e-324]])
    for pinv in (linalg.psd_pinv, reference_psd_pinv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                pinv(M)


# ---- triangular solves with a trusted factor

@st.composite
def factor_systems(draw):
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    M = random_spd(n, 10.0 ** draw(st.floats(0.0, 10.0)), rng) * 10.0 ** draw(st.floats(-100.0, 100.0))
    cols = draw(st.sampled_from([None, 1, 3, n]))
    shape = (n,) if cols is None else (n, cols)
    b = rng.standard_normal(shape) * 10.0 ** draw(st.floats(-100.0, 100.0))
    if draw(st.booleans()):  # a C-ordered block, as X.T in the kappa solve
        b = np.ascontiguousarray(b.T).T
    return cholesky_lower(M), b


@settings(max_examples=300, deadline=None)
@given(factor_systems())
def test_the_factor_solve_is_solve_triangular(case):
    L, b = case
    assert same_bits(linalg._solve_factor(L, b), scipy.linalg.solve_triangular(L, b, lower=True))


@pytest.mark.parametrize("b", [np.array([1.0, np.nan, 0.0]), np.array([[1.0], [np.inf], [0.0]]), np.ones(4),
                               np.ones((3, 3, 1))])
def test_the_factor_solve_refuses_a_bad_right_hand_side(b):
    L = cholesky_lower(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(NumericError):
        linalg._solve_factor(L, b)


# ---- one certificate and the ordering check

@settings(max_examples=300, deadline=None)
@given(certificate_cases())
def test_certificate_and_ordering_are_the_previous_ones(case):
    p, h, strategy, history, epsilon, R_limit = case
    g = eval_gradient(p, h)
    A = build_majorant(p, h).curvature
    D = build_subspace(strategy, g, h, history)
    hessian = factor_hessian(p, h)
    args = (3, g, D, A, epsilon, R_limit, hessian)
    cert, ref = outcome(certify_iteration, *args), outcome(reference_certify_iteration, *args)
    assert type(cert) is type(ref)
    if isinstance(ref, tuple):
        assert cert == ref
    else:
        assert same_fields(cert, ref), (cert, ref)
    order = outcome(lambda: subspace_ordering(g, A, rates._gradient_form(hessian[1], g)))
    ref_order = outcome(reference_subspace_ordering, g, A, hessian)
    assert type(order) is type(ref_order)
    if isinstance(ref_order, tuple):
        assert order == ref_order
    else:
        assert same_fields(order, ref_order), (order, ref_order)


def test_the_floor_matrix_keeps_the_signs_of_its_zeros(monkeypatch):
    """H - R_limit with a -0.0 off the diagonal: the floor matrix is bitwise that of np.eye."""
    hess = np.array([[2.0, -0.0], [-0.0, 3.0]])
    R_limit = np.eye(2)
    seen = []
    real = rates._floor_holds
    monkeypatch.setattr(rates, "_floor_holds", lambda M: seen.append(np.array(M)) or real(M))
    certify_iteration(1, np.ones(2), DirectionMatrix(np.eye(2)), 4.0 * np.eye(2), 0.25, R_limit,
                      (hess, cholesky_lower(hess)))
    assert len(seen) == 1
    assert same_bits(seen[0], hess - R_limit + 0.25 * np.eye(2))
    assert math.copysign(1.0, seen[0][0, 1]) == 1.0


# ---- the majorization check

@settings(max_examples=300, deadline=None)
@given(checks(), st.booleans())
def test_the_majorization_report_is_the_previous_one(case, default_radius):
    p, anchor, samples, radius, seed, _ = case
    m = build_majorant(p, anchor)
    r = None if default_radius else radius
    rep = check_majorization(p, m, samples=samples, radius=r, seed=seed)
    ref = reference_check_majorization(p, m, samples=samples, radius=r, seed=seed)
    assert same_fields(rep, ref), (rep, ref)


@settings(max_examples=200, deadline=None)
@given(checks())
def test_the_curvature_gaps_are_the_previous_ones(case):
    p, anchor, samples, radius, seed, _ = case
    rng = np.random.default_rng(seed)
    X = (anchor + radius * rng.standard_normal((samples, p.dim))).T
    a = build_majorant(p, anchor).curvature
    gap_tol = 1e-10 * max(float(np.linalg.norm(a)), 1.0)
    assert same_bits(_curvature_gaps(p, X, gap_tol), reference_curvature_gaps(p, X, gap_tol))


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.integers(1, 60), elements=st.floats(-1e300, 1e300)))
def test_the_raveled_norm_is_numpys(v):
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        M = np.outer(v, v[: max(1, len(v) // 3)]) if len(v) > 1 else v.reshape(1, 1)
        for x in (v, M, np.asfortranarray(M)):
            y = x.ravel(order="K")
            assert math.sqrt(y.dot(y)) == float(np.linalg.norm(x))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([30, 64, 150]), st.integers(0, 2**16), st.floats(-100.0, 100.0))
def test_the_default_radius_and_curvature_scale_are_numpys_norms(n, seed, e):
    """Long anchors and curvatures, where a pairwise sum and the dot product round apart."""
    rng = np.random.default_rng(seed)
    p = ProblemInstance(QuadraticData(random_spd(n, 100.0, rng) * 10.0 ** (e / 3), rng.standard_normal(n)),
                        HyperbolicPenalty(0.5, 0.3))
    m = build_majorant(p, rng.standard_normal(n) * 10.0 ** e)
    assert same_fields(check_majorization(p, m, samples=3, seed=seed),
                       reference_check_majorization(p, m, samples=3, seed=seed))

"""Per-iteration contraction certificates and batch worst-case rates.

Certifies, for each recorded iteration, the contraction factor
``theta = 1 - theta_tilde / (1 + eps)`` of the optimality gap together with
its eigenvalue-based lower/upper bounds, and aggregates a whole-run
worst-case geometric rate with its multiplicative constant.

One certified iteration factors the Hessian ``H = L L'`` once and shares the
factor.  ``g' H^{-1} g = |L^{-1} g|^2`` is both the denominator of
``theta_tilde`` and, times ``(1 + eps)/2``, the gap bound.  The kappa bounds
are the extreme eigenvalues of ``L^{-1} A L^{-T}``, two triangular solves
away.  Every solve with ``L`` goes through ``linalg._solve_factor``, which
checks only the right-hand side, since ``cholesky_lower`` made the factor
from a matrix it had checked.  The matrix is congruent to ``A`` and similar
to ``H^{-1} A``, so it has the spectrum of ``A^{1/2} H^{-1} A^{1/2}``
(Golub and Van Loan, *Matrix Computations*, section 8.7), and by
Sylvester's law of inertia its smallest eigenvalue is positive exactly when
``A`` is positive definite.  The sigma
bounds are the extreme eigenvalues of ``H``.  The Hessian floor
``min_eig(H - R_limit + eps I) >= -1e-10`` is proved by a Cholesky
factorization of that matrix when one exists; only when it fails is the
smallest eigenvalue computed.  In batch mode the matrix is the penalty
Hessian plus ``eps I``, so the factorization succeeds.  Per iteration that
is two Cholesky factorizations and two ``linalg.extreme_eigs``, each a
tridiagonal reduction followed by a bisection for each extreme eigenvalue,
or by the tridiagonal spectrum for small n; no dense eigensolve.  There is
one path to a certificate: the caller factors the Hessian once with
``factor_hessian`` and passes the pair ``(H, L)`` to ``certify_iteration``.
``verify`` proves every certificate it checks, the recorded one or the one
certify's replay computes here, with shifted Cholesky factorizations and
its own LU solve and SVD, so a fault in this module fails the proof
instead of being repeated by the check.  Its ordering check,
``subspace_ordering`` on the LU solve's ``g' H^{-1} g``, brackets the
certified theta_tilde between that of the gradient reference and that of
the full space; a strategy's own theta_tilde comes from
``compute_theta_tilde``.

The batch summaries are stated against ``F* = inf F``; the caller solves
for the reference solution once and passes it in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .linalg import (
    _solve_factor, as_vector, check_symmetric, cholesky_lower, extreme_eigs, min_eig, psd_pinv,
)
from .model import ProblemInstance, curvature_bound, eval_hessian
from .subspace import DirectionMatrix, column_scaled


@dataclass(frozen=True)
class RateCertificate:
    """One iteration's certificate.  The fields after ``n``, in this order,
    are the trace schema's certificate keys (the ``trace.CERTIFICATE`` table)."""
    n: int
    theta_tilde: float
    theta: float
    theta_lo: float
    theta_hi: float
    kappa_lo: float
    kappa_hi: float
    sigma_lo: float
    sigma_hi: float
    hessian_floor_ok: bool
    lemma_bound: float  # 0.5*(1+eps)*g' H^{-1} g
    epsilon: float


@dataclass(frozen=True)
class BatchRateSummary:
    vartheta: float
    mu: float
    eta_lo: float
    eta_hi: float
    kappa_max: float
    n_eps: int
    spread_cap: float  # (eta_hi - eta_lo + 2 eps) / (eta_hi + eta_lo), the eq11 bound
    certified: bool
    message: str = ""


def gradient_reference(grad) -> DirectionMatrix:
    """One-column direction [-grad]: the analytic worst case, not a runnable strategy."""
    grad = as_vector(grad)
    return DirectionMatrix(np.reshape(-grad, (-1, 1)))


def _subspace_form(grad, A, D: DirectionMatrix) -> float:
    """``(D'g)' (D'AD)^+ (D'g)``, the numerator of theta_tilde."""
    cols, _ = column_scaled(D.cols)
    M = cols.T @ A @ cols
    Dg = cols.T @ grad
    return float(Dg @ (psd_pinv(M) @ Dg))


def _gradient_form(L: np.ndarray, grad: np.ndarray) -> float:
    """``g' M^{-1} g`` from the factor ``L = cholesky_lower(M)``."""
    y = _solve_factor(L, grad)
    den = float(y @ y)
    if den <= 0:
        raise NumericError("quadratic form not positive")
    return den


def _kappa_from_factor(A, L: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of ``L^{-1} A L^{-T}``, the spectrum of ``H^{-1} A``
    for ``L = cholesky_lower(H)``."""
    X = _solve_factor(L, A)
    lo, hi = extreme_eigs(_solve_factor(L, X.T))
    if lo <= 0:
        raise NumericError("kappa bounds need positive definite matrices")
    return lo, hi


def _floor_holds(M: np.ndarray) -> bool:
    """``min_eig(M) >= -1e-10``; a Cholesky factor of ``M`` proves it without an eigensolve."""
    try:
        cholesky_lower(M)
    except NumericError:
        return min_eig(M) >= -1e-10
    return True


def factor_hessian(p_n: ProblemInstance, h) -> tuple[np.ndarray, np.ndarray]:
    """The Hessian ``H`` at ``h`` and its lower Cholesky factor; NumericError unless H is PD."""
    hess = eval_hessian(p_n, h)
    return hess, cholesky_lower(hess)


def compute_theta_tilde(grad, A, hess, D: DirectionMatrix) -> float:
    grad = as_vector(grad)
    if not np.any(grad):
        raise InputError("theta_tilde undefined at a zero gradient")
    return _subspace_form(grad, A, D) / _gradient_form(cholesky_lower(hess), grad)


def compute_kappa_bounds(A, hess) -> tuple[float, float]:
    """Extreme eigenvalues of A^{1/2} hess^{-1} A^{1/2} (both inputs PD)."""
    return _kappa_from_factor(A, cholesky_lower(hess))


def sigma_spread(sigma_lo: float, sigma_hi: float) -> float:
    """``(sigma_hi - sigma_lo) / (sigma_hi + sigma_lo)``, the Hessian's spread in eq11 and eq72."""
    return (sigma_hi - sigma_lo) / (sigma_hi + sigma_lo)


def compute_sigma_bounds(hess) -> tuple[float, float]:
    hess = check_symmetric(hess, rtol=1e-10, name="hessian")
    return extreme_eigs(hess)


def certify_iteration(
    n: int,
    grad: np.ndarray,
    D: DirectionMatrix,
    A: np.ndarray,
    epsilon: float,
    R_limit: np.ndarray,
    hessian: tuple[np.ndarray, np.ndarray],
) -> RateCertificate:
    """The full rate certificate of iteration ``n`` from its gradient ``grad``.

    ``hessian`` must be ``factor_hessian(p_n, h)`` at the iterate, the one
    path to a certificate: the solves with its factor check only their
    right-hand sides.  ``R_limit`` is the data matrix of the limiting
    instance (``p_n.quad.R`` in the batch case); the Hessian floor is
    measured against it.  A zero gradient raises NumericError.
    """
    hess, L = hessian
    # bitwise H - R_limit + eps I, built in place: adding 0.0 turns a -0.0 into
    # the +0.0 that adding an off-diagonal eps * 0.0 gave
    F = hess - R_limit
    F += 0.0
    F.ravel()[::len(grad) + 1] += epsilon
    floor_ok = _floor_holds(F)
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


def _gap_bound_ok(cert: RateCertificate, F_n: float, inf_Fn: float) -> bool:
    """Eq6: the gap ``F_n - inf_Fn`` is within ``cert.lemma_bound`` up to ``1e-10 * (1 + |inf_Fn|)``."""
    return F_n - inf_Fn <= cert.lemma_bound + 1e-10 * (1.0 + abs(inf_Fn))


@dataclass(frozen=True)
class DecayReport:
    decay_ok: bool
    gap_bound_ok: bool

    @property
    def passed(self) -> bool:
        return self.decay_ok and self.gap_bound_ok


def check_decay_inequality(cert: RateCertificate, F_now: float, F_next: float, inf_Fn: float) -> DecayReport:
    """Check the certified gap contraction and the gradient gap bound.

    The gap bound (optimality gap at most
    ``0.5*(1+eps) * g' hess^{-1} g``) is the condition whose first holding
    index defines the start of the certified regime.
    """
    decay_ok = F_next - inf_Fn <= cert.theta * (F_now - inf_Fn) + 1e-10 * (1.0 + abs(inf_Fn))
    return DecayReport(decay_ok, _gap_bound_ok(cert, F_now, inf_Fn))


@dataclass(frozen=True)
class OrderingReport:
    theta_gradient_ref: float
    theta_full: float


def subspace_ordering(grad, A, g_form: float) -> OrderingReport:
    """theta_tilde of the gradient reference and of the full space at an
    iterate, given ``g_form = g' H^{-1} g`` there.

    The gradient-only direction is the slowest and the full space the
    fastest, so every strategy's theta_tilde lies between the two.  The full
    space gives ``g' A^{-1} g / g' H^{-1} g``; ``A`` dominates ``H``, so its
    Cholesky factor exists whenever the Hessian is positive definite.
    """
    t_ref = _subspace_form(grad, A, gradient_reference(grad)) / g_form
    return OrderingReport(t_ref, _gradient_form(cholesky_lower(A), grad) / g_form)


def certified_regime_start(rows) -> int | None:
    """First index from which the Hessian floor and the gap bound hold to the end.

    ``rows`` yields ``(n, cert, F_n, inf_Fn)`` for each certified iteration
    in order; the gap bound is ``_gap_bound_ok``, the eq6 test of
    ``check_decay_inequality``.
    """
    start = None
    for n, cert, F_n, inf_Fn in rows:
        ok = cert.hessian_floor_ok and _gap_bound_ok(cert, F_n, inf_Fn)
        if ok and start is None:
            start = n
        elif not ok:
            start = None
    return start


def batch_rate_summary(p: ProblemInstance, trace, epsilon: float, ref) -> BatchRateSummary:
    """Worst-case geometric rate and constant for a certified batch run; ``ref.value`` is ``F*``."""
    recs = [rec for rec in trace.records if rec.cert is not None]
    if not recs:
        raise InputError("trace carries no certified iterations")
    inf_F = ref.value
    n_eps = certified_regime_start((rec.n, rec.cert, rec.obj, inf_F) for rec in recs)
    certs = [rec.cert for rec in recs]

    eta_lo = min_eig(p.quad.R)
    eta_hi = extreme_eigs(p.quad.R + curvature_bound(p))[1]
    kappa_max = max(c.kappa_hi for c in certs)
    spread_cap = (eta_hi - eta_lo + 2.0 * epsilon) / (eta_hi + eta_lo)
    vartheta = 1.0 - (1.0 - spread_cap**2) / ((1.0 + epsilon) * kappa_max)

    if n_eps is None:
        mu, message = float("nan"), "not certified within horizon"
    else:
        F_at = {rec.n: rec.obj for rec in trace.records}
        mu, message = (F_at[n_eps] - inf_F) / vartheta**n_eps, ""
    return BatchRateSummary(
        vartheta=vartheta, mu=mu, eta_lo=eta_lo, eta_hi=eta_hi, kappa_max=kappa_max,
        n_eps=-1 if n_eps is None else n_eps, spread_cap=spread_cap,
        certified=n_eps is not None, message=message,
    )


@dataclass(frozen=True)
class LinearConvergenceReport:
    passed: bool
    strong_convexity_ok: bool
    geometric_ok: bool


def check_linear_iterate_convergence(trace, summary: BatchRateSummary, ref) -> LinearConvergenceReport:
    """Strong-convexity lower bound and geometric upper bound on the gap to ``ref.value``."""
    if not summary.certified:
        return LinearConvergenceReport(False, False, False)
    h_hat, inf_F = ref.h, ref.value
    sc_ok = True
    geo_ok = True
    for rec in trace.records:
        if rec.n < summary.n_eps:
            continue
        gap = rec.obj - inf_F
        scale = 1.0 + abs(inf_F)
        lower = 0.5 * summary.eta_lo * float(np.sum((rec.h - h_hat) ** 2))
        upper = summary.mu * summary.vartheta**rec.n
        sc_ok = sc_ok and (lower <= gap + 1e-10 * scale)
        geo_ok = geo_ok and (gap <= upper + 1e-9 * scale)
    return LinearConvergenceReport(sc_ok and geo_ok, sc_ok, geo_ok)

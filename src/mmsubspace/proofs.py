"""Proofs of a rate certificate, with kernels that ``rates`` does not run.

``verify`` proves here every certificate it checks, recorded or replayed by
certify's own code, so a fault in that code is not repeated by the check.
By Sylvester's law of inertia, ``A - s H`` with ``H`` positive definite is
positive definite exactly when ``s`` lies below the spectrum of
``H^{-1} A``, so one shifted Cholesky factorization, made rigorous by Rump's
slack (``linalg.proven_pd``), proves a bound on it without an eigensolver.
Each of kappa_lo, kappa_hi (the pencil ``(A, H)``), sigma_lo and sigma_hi
(the spectrum of ``H``) is proven sharp: moved by the proofs' resolution
toward safety it is proven, moved against it it is not.  A bound whose
shifted matrix leaves the float range is not proven: a sharp bound lies
within the matrix's own range.  ``hessian_floor_ok`` is proven the same
way, and ``kappa_lo_ge_1`` is ``A - (1 - eta) H`` proven positive definite.
``g' H^{-1} g`` comes from one LU solve, which verify's subspace ordering
check (eq65, eq68) shares, and theta_tilde's numerator from an SVD of
``D'AD``; theta, theta_lo, theta_hi and lemma_bound are recomputed by their
formulas from the proven values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericError
from .linalg import UNIT_ROUNDOFF, lu_solve, pd_sizes, pd_slack, proven_pd, svd_pinv
from .rates import RateCertificate
from .subspace import DirectionMatrix, column_scaled


def prove_certificate(cert: RateCertificate, g: np.ndarray, A: np.ndarray, H: np.ndarray, D: DirectionMatrix,
                      epsilon: float, R_limit: np.ndarray) -> tuple:
    """Prove ``cert``, the certificate of the step with gradient ``g``,
    majorant curvature ``A``, Hessian ``H`` and direction matrix ``D``.

    Returns ``g' H^{-1} g``, the first field of the certificate that fails,
    or "" when every field holds, and whether ``A - (1 - eta) H`` is proven
    positive definite, or None where a field before ``kappa_lo`` failed.  A
    singular Hessian raises NumericError.
    """
    # bitwise A and H where they are symmetric; a quadratic form sees only the symmetric part
    A, H = 0.5 * (A + A.T), 0.5 * (H + H.T)
    g_form = _lu_form(H, g)
    theta_tilde = _pinv_form(g, A, D) / g_form
    kappa_lo_ge_1 = None

    def fields():
        nonlocal kappa_lo_ge_1
        yield "epsilon", cert.epsilon == epsilon
        a, h = pd_sizes(A), pd_sizes(H)
        hessian = _Pencil(H, None, h, None, 1.0)
        sigma_lo = hessian.lower_bound(cert.sigma_lo)
        yield "sigma_lo", sigma_lo is not None and sigma_lo > 0.0  # H is proven positive definite
        yield "sigma_hi", hessian.upper_bound_holds(cert.sigma_hi)
        kappa = _Pencil(A, H, a, h, cert.sigma_lo)
        kappa_lo = kappa.lower_bound(cert.kappa_lo)
        if kappa_lo is not None:
            eta = kappa.resolution(1.0)
            kappa_lo_ge_1 = kappa_lo >= 1.0 - eta or kappa.proven(1.0 - eta)
        yield "kappa_lo", kappa_lo is not None
        yield "kappa_hi", kappa.upper_bound_holds(cert.kappa_hi)
        # min_eig(H - R_limit + eps I) >= -1e-10, to within the proofs' resolution t
        F = H - R_limit
        floor, s = _Pencil(F, None, pd_sizes(F), None, 1.0), -(epsilon + 1e-10)
        t = floor.resolution(s)
        yield "hessian_floor_ok", floor.proven(s - t) if cert.hessian_floor_ok else not floor.proven(s + t)
        theta = 1.0 - theta_tilde / (1.0 + epsilon)
        theta_lo = 1.0 - 1.0 / ((1.0 + epsilon) * cert.kappa_lo)
        spread = (cert.sigma_hi - cert.sigma_lo) / (cert.sigma_hi + cert.sigma_lo)
        theta_hi = 1.0 - (1.0 - spread**2) / ((1.0 + epsilon) * cert.kappa_hi)
        lemma_bound = 0.5 * (1.0 + epsilon) * g_form
        # g' H^-1 g by LU here and by Cholesky in certify differ by up to
        # about n u cond(H), and cond(H) <= sigma_hi / sigma_lo is proven;
        # relative to theta_tilde and lemma_bound, absolute for the factors
        tol = 1e-10 + 8.0 * (len(H) + 1) * UNIT_ROUNDOFF * cert.sigma_hi / cert.sigma_lo
        for name, value, scale in (("theta_tilde", theta_tilde, theta_tilde), ("theta", theta, 1.0),
                                   ("theta_lo", theta_lo, 1.0), ("theta_hi", theta_hi, 1.0),
                                   ("lemma_bound", lemma_bound, lemma_bound)):
            yield name, abs(getattr(cert, name) - value) <= tol * scale

    failed = next((name for name, ok in fields() if not ok), "")
    return g_form, failed, kappa_lo_ge_1


class _Pencil(NamedTuple):
    """``P - s Q``, with ``Q`` the identity when None, at the shifts that prove
    bounds on its spectrum; the sizes are taken once for every shift."""

    P: np.ndarray
    Q: np.ndarray | None
    p: tuple  # pd_sizes(P)
    q: tuple | None  # pd_sizes(Q), None for the identity
    scale: float  # a lower bound on the spectrum of Q

    def proven(self, s: float) -> bool:
        """Whether ``P - s Q`` is proven positive definite."""
        return proven_pd(self.P, s, self.Q, slack=pd_slack(len(self.P), self.p, s, self.q))

    def resolution(self, b: float) -> float:
        """``t = 4 c / scale`` for the proofs' slack ``c`` at ``b``.

        A shift of ``t`` moves the spectrum of ``P - b Q`` by at least ``4 c``,
        beyond what the proofs resolve, so a bound computed to within
        ``c / scale`` passes both sides of ``lower_bound``.
        """
        return 4.0 * pd_slack(len(self.P), self.p, b, self.q) / self.scale

    def lower_bound(self, b: float) -> float | None:
        """``b - t``, where ``b`` is proven a sharp lower bound on the spectrum,
        and None where not.

        Sharp means that ``P - (b - t) Q`` is proven positive definite and
        ``P - (b + t) Q`` is not, so ``b`` lies within ``t`` of the smallest
        eigenvalue; ``delta = t / |b|`` is its relative width.
        """
        if not math.isfinite(b):
            return None
        t = self.resolution(b)
        try:
            return b - t if self.proven(b - t) and not self.proven(b + t) else None
        except NumericError:  # P - s Q is beyond the float range of a proof
            return None

    def upper_bound_holds(self, b: float) -> bool:
        """Whether ``b`` is proven a sharp upper bound on the spectrum: ``-b``
        is a sharp lower bound on that of the pencil ``(-P, Q)``."""
        return self._replace(P=-self.P).lower_bound(-b) is not None


def _lu_form(H: np.ndarray, g: np.ndarray) -> float:
    """``g' H^{-1} g`` by one LU solve; a singular ``H`` raises NumericError."""
    form = float(g @ lu_solve(H, g))
    if not (form > 0.0 and math.isfinite(form)):
        raise NumericError("the quadratic form g' H^-1 g is not positive and finite")
    return form


def _pinv_form(g: np.ndarray, A: np.ndarray, D: DirectionMatrix) -> float:
    """``(D'g)' (D'AD)^+ (D'g)``, the numerator of theta_tilde, through an SVD pseudo-inverse."""
    cols, _ = column_scaled(D.cols)
    Dg = cols.T @ g
    return float(Dg @ (svd_pinv(cols.T @ A @ cols) @ Dg))

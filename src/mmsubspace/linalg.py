"""Small symmetric linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InputError, NumericError

# Relative eigenvalue cutoff shared by every pseudo-inverse in the package.
PINV_RCOND = 1e-12


def as_vector(v, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InputError(f"expected a vector, got array of shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise InputError(f"expected a vector of length {dim}, got {v.shape[0]}")
    return v


def check_symmetric(M: np.ndarray, rtol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"{name} must be square, got shape {M.shape}")
    scale = np.linalg.norm(M)
    if np.linalg.norm(M - M.T) > rtol * max(scale, 1e-300):
        raise InputError(f"{name} not symmetric")
    return M


def psd_pinv(M: np.ndarray, rcond: float = PINV_RCOND) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric PSD matrix.

    Eigenvalues at or below ``rcond * max_eig`` are treated as exact zeros,
    which yields the minimum-norm solution when the matrix is singular.
    """
    if not np.all(np.isfinite(M)):
        raise NumericError("non-finite entries in matrix passed to psd_pinv")
    w, U = np.linalg.eigh(0.5 * (M + M.T))
    wmax = max(float(w[-1]), 0.0)
    cutoff = rcond * wmax
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (U * inv) @ U.T


def cholesky_lower(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor ``L`` with ``M = L L'``, read from the lower triangle of ``M``.

    Succeeds exactly when ``M`` is numerically positive definite, so a
    returned factor is also a proof of that.
    """
    try:
        return scipy.linalg.cholesky(M, lower=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:  # ValueError: non-finite entries
        raise NumericError("matrix not positive definite") from exc


def pd_solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``M x = b`` for symmetric positive definite ``M``."""
    return scipy.linalg.cho_solve((cholesky_lower(M), True), b)


def sym_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix."""
    w, U = np.linalg.eigh(0.5 * (M + M.T))
    if w[0] < -PINV_RCOND * max(float(w[-1]), 1.0):
        raise NumericError("matrix not positive semidefinite")
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T


def extreme_eigs(M: np.ndarray) -> tuple[float, float]:
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    return float(w[0]), float(w[-1])


def min_eig(M: np.ndarray) -> float:
    return extreme_eigs(M)[0]

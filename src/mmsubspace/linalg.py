"""Small symmetric linear-algebra helpers used throughout the package.

Every LAPACK call of the package goes through this module.  The Cholesky
kernels call ``potrf``, ``potrs`` and ``trtrs`` directly: the
``scipy.linalg`` front ends validate and dispatch on every call, which at the
sizes of a certificate costs as much as the factorization.  The checks they
made are kept here explicitly, so a non-square, non-finite or
non-positive-definite input still raises ``NumericError``.  The routines and
their arguments are the ones ``scipy.linalg.cholesky``, ``cho_solve`` and
``solve_triangular`` pass, so the results are bitwise theirs.

Two paths skip work whose result is known.  A 1x1 ``psd_pinv`` is
``[[1/w]]`` for ``w > 0`` and ``[[0]]`` otherwise, bitwise what ``eigh``
gives: for n = 1, ``dsyevd`` returns the entry with the eigenvector ``[[1]]``,
and ``w > PINV_RCOND * max(w, 0)`` holds exactly when ``w > 0``.  The
gradient reference of the ordering check makes this call once per verified
iteration.  ``_solve_factor`` solves with a factor that ``cholesky_lower``
made, so it checks only the right-hand side: the factor was built from a
matrix already checked finite, and potrf leaves it Fortran-ordered with a
positive diagonal.

``extreme_eigs`` needs two eigenvalues, not the spectrum.  It reduces the
matrix to tridiagonal form once with ``sytrd`` and finds the smallest and
the largest eigenvalue by Sturm-count bisection with ``stebz`` (Parlett,
*The Symmetric Eigenvalue Problem*), 1.2 to 2 times as fast as a full
``eigvalsh`` at n = 90 on one BLAS thread.  Below ``BISECT_MIN_DIM``, and when ``stebz`` gives
up, as it can on a tight cluster, ``sterf`` takes the whole spectrum of the
same tridiagonal matrix instead.

``proven_pd`` proves a shifted matrix ``M - s N`` positive definite in
exact arithmetic with one ``potrf``, after subtracting Rump's slack for the
rounding of forming and factoring it.  With ``lu_solve`` and ``svd_pinv``,
kernels that no certificate runs, it is what ``proofs`` checks a recorded
certificate with, with no eigensolver.

The kernels are looked up once, on the first Cholesky factorization,
triangular solve or extreme-eigenvalue call, not at import.  Importing
``scipy.linalg`` takes longer than a plain solve of a medium problem, and a
plain solve never factors, so it never imports scipy.  ``min_eig`` stays on
``np.linalg.eigvalsh`` for that reason: the geometric stream calls it on
the plain-solve path.  Every kernel still reads as a module attribute
before any call; reading one binds them all.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericError

# Relative eigenvalue cutoff shared by every pseudo-inverse in the package.
PINV_RCOND = 1e-12

# The smallest positive normal double; nonzero magnitudes below it are subnormal.
TINY = float(np.finfo(float).tiny)

# The unit roundoff u of double precision, half the machine epsilon, the largest
# double and the smallest positive one.
UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
MAX_FLOAT = float(np.finfo(float).max)
SUBNORMAL_MIN = 5e-324

# check_symmetric trusts a sum of squares from here up.  Underflow in the
# squares of an n x n matrix loses at most n^2 * SUBNORMAL_MIN of each sum, far
# below rtol^2 times this for any rtol above 2^-53 and n below 2^40.
_TRUSTED_SUM_SQUARES = 2.0 ** -800

# The order from which two bisections for the extreme eigenvalues beat the whole
# spectrum of the tridiagonal matrix: bisection costs O(n) per eigenvalue and
# sterf O(n^2), and on one BLAS thread they cross between n = 32 and 36.
BISECT_MIN_DIM = 36

_KERNELS = ("_potrf", "_potrs", "_trtrs", "_sytrd", "_stebz", "_sterf")
_kernels_bound = False


def _bind_kernels() -> None:
    """Look the LAPACK kernels up on first use; a kernel already set on the module is kept."""
    global _kernels_bound
    if _kernels_bound:
        return
    from scipy.linalg import lapack

    funcs = lapack.get_lapack_funcs([name[1:] for name in _KERNELS], (np.empty((1, 1)),))
    for name, fn in zip(_KERNELS, funcs):
        globals().setdefault(name, fn)
    _kernels_bound = True


def __getattr__(name: str):
    if name in _KERNELS:
        _bind_kernels()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def as_vector(v, dim: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InputError(f"expected a vector, got array of shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise InputError(f"expected a vector of length {dim}, got {v.shape[0]}")
    return v


def check_symmetric(M: np.ndarray, rtol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """``M`` as a float array, if it is square and ``||M - M'||_F <= rtol * ||M||_F``.

    The test is scale-free down to the smallest floats: where squares of
    ``M``'s entries may have underflowed, it runs on ``M`` scaled exactly by
    a power of two to a largest magnitude in [1/2, 1).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"{name} must be square, got shape {M.shape}")
    # Frobenius norms as np.linalg.norm takes them, but vdot lets the sum of
    # squares overflow to inf without a RuntimeWarning; a finite sum also keeps
    # M - M.T from overflowing.  The scalar roots and test go through math,
    # which skips numpy's dispatch and rounds the same.
    ss = float(np.vdot(M, M))
    if not math.isfinite(ss):
        raise InputError(f"{name} has a non-finite entry or a sum of squares beyond the float range")
    S = M
    if ss < _TRUSTED_SUM_SQUARES:
        m = float(np.max(np.abs(M), initial=0.0))
        if m == 0.0:
            return M
        S = np.ldexp(M, -math.frexp(m)[1])
        ss = float(np.vdot(S, S))
    D = S - S.T
    if math.sqrt(np.vdot(D, D)) > rtol * math.sqrt(ss):
        raise InputError(f"{name} not symmetric")
    return M


def flush_subnormals(M: np.ndarray) -> np.ndarray:
    """``M`` with every subnormal entry, ``0 < |x| < TINY``, stored as 0.0.

    A dense product that reads a subnormal operand runs on the CPU's slow
    microcode path, several times slower for the whole product.  The result
    differs from ``M`` by less than ``TINY`` in each entry; normal entries,
    zeros and their signs are kept.  ``M`` itself is returned when it holds
    no subnormal entry, and it is never written to.  The window is tested
    with three compares into one boolean array, so nothing as large as ``M``
    is allocated when there is nothing to flush.
    """
    sub = M < TINY
    sub &= M > -TINY
    sub &= M != 0.0
    if not sub.any():
        return M
    return np.where(sub, 0.0, M)


def psd_pinv(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric PSD matrix.

    Eigenvalues at or below ``PINV_RCOND * max_eig`` are treated as exact
    zeros, which yields the minimum-norm solution when the matrix is singular.
    The pseudo-inverse is that of the symmetric part ``(M + M')/2``.  A
    non-finite entry raises ``NumericError``, and so does a finite ``M``
    whose ``M + M'`` overflows the float range, with a message that names
    the overflow.  Both are tested on one sum of squares, which vdot lets
    overflow to inf without a RuntimeWarning: a finite sum keeps every entry
    below about 1.3e154, so ``M + M'`` is finite, and only an infinite or
    NaN sum scans the entries.
    """
    # S is bitwise 0.5 * (M + M.T), in one temporary
    if math.isfinite(np.vdot(M, M)):
        S = M + M.T
    else:
        # a non-finite S also covers a non-finite M
        with np.errstate(over="ignore", invalid="ignore"):
            S = M + M.T
        if not np.isfinite(S).all():
            if not np.isfinite(M).all():
                raise NumericError("non-finite entries in matrix passed to psd_pinv")
            raise NumericError("the symmetric part M + M' of the matrix passed to psd_pinv overflows the float range")
    S *= 0.5
    if S.shape[0] == 1:
        # eigh's result in closed form; a numpy scalar divide warns on overflow as np.divide does
        w = S[0, 0]
        return np.array([[1.0 / w if w > 0.0 else 0.0]])
    w, U = np.linalg.eigh(S)
    cutoff = PINV_RCOND * max(float(w[-1]), 0.0)
    inv = np.zeros_like(w)
    np.divide(1.0, w, out=inv, where=w > cutoff)
    return (U * inv) @ U.T


def _finite_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NumericError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NumericError("non-finite entries in matrix")
    return M


def _finite_rhs(b, dim: int) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != dim:
        raise NumericError(f"right-hand side of shape {b.shape} does not fit a {dim}x{dim} matrix")
    if not np.isfinite(b).all():
        raise NumericError("non-finite entries in right-hand side")
    return b


def cholesky_lower(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor ``L`` with ``M = L L'``, read from the lower triangle of ``M``.

    Succeeds exactly when ``M`` is numerically positive definite, so a
    returned factor is also a proof of that.  The factor is Fortran-ordered,
    with zeros above the diagonal.
    """
    _bind_kernels()
    c, info = _potrf(_finite_square(M), lower=True)
    if info != 0:
        raise NumericError("matrix not positive definite")
    return c


def _solve_factor(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` for a factor ``L`` that ``cholesky_lower`` returned.

    Only ``b`` is checked, finite and of the factor's length: the factor is
    finite, Fortran-ordered and has a positive diagonal, and the call that
    made it bound the kernels.
    """
    x, info = _trtrs(L, _finite_rhs(b, L.shape[0]), lower=True)
    if info != 0:
        raise NumericError("triangular matrix is singular")
    return x


def pd_solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``M x = b`` for symmetric positive definite ``M``."""
    c = cholesky_lower(M)
    x, info = _potrs(c, _finite_rhs(b, c.shape[0]), lower=True)
    if info != 0:
        raise NumericError("Cholesky solve failed")
    return x


def sym_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix."""
    w, U = np.linalg.eigh(0.5 * (M + M.T))
    if w[0] < -PINV_RCOND * max(float(w[-1]), 1.0):
        raise NumericError("matrix not positive semidefinite")
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T


def extreme_eigs(M: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the symmetric part ``(M + M')/2``.

    Each is found to within about ``n ulp`` of the largest magnitude in the
    spectrum, as ``eigvalsh`` finds them.  A non-finite entry, or a
    symmetric part beyond the float range, raises ``NumericError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        S = M + M.T
        S *= 0.5
    if not np.isfinite(S).all():
        raise NumericError("non-finite entries in the symmetric part of a matrix passed to extreme_eigs")
    n = S.shape[0]
    if n == 1:
        return float(S[0, 0]), float(S[0, 0])
    _bind_kernels()
    # S is bitwise symmetric, so its Fortran-ordered view is the same matrix and
    # sytrd reduces it in place, with no copy
    _, d, e, _, _ = _sytrd(S if S.flags.f_contiguous else S.T, lower=1, overwrite_a=1)
    if n >= BISECT_MIN_DIM:
        # RANGE='I' (2) for index 1 and index n; abstol 0 means ulp * |T|
        _, lo, _, _, info_lo = _stebz(d, e, 2, 0.0, 0.0, 1, 1, 0.0, b"E")
        _, hi, _, _, info_hi = _stebz(d, e, 2, 0.0, 0.0, n, n, 0.0, b"E")
        if info_lo == 0 and info_hi == 0:
            return float(lo[0]), float(hi[0])
        # stebz gives up when its Gershgorin interval is too narrow for a tight cluster
    w, info = _sterf(d, e, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise NumericError("tridiagonal eigenvalues did not converge")
    return float(w[0]), float(w[-1])


def pd_sizes(M: np.ndarray) -> tuple[float, float]:
    """``(||M||_F, sum |m_ii|)`` as ``pd_slack`` reads them.

    The norm is ``sqrt(vdot(M, M))`` with the smallest subnormal added per
    entry, since a square below it underflows to zero, so it bounds
    ``||M||_F`` from above.  vdot lets a sum of squares overflow to inf, or a
    NaN through, without a RuntimeWarning.
    """
    return math.sqrt(np.vdot(M, M) + M.size * SUBNORMAL_MIN), float(np.add.reduce(np.abs(M.diagonal())))


def pd_slack(n: int, m_sizes: tuple[float, float], s: float, n_sizes: tuple[float, float] | None = None) -> float:
    """The slack ``c`` that ``proven_pd`` subtracts from ``M - s N``, from the
    ``pd_sizes`` of ``M`` and ``N``; ``N`` is the identity when None."""
    m_norm, m_diag = m_sizes
    n_norm, n_diag = (math.sqrt(n), float(n)) if n_sizes is None else n_sizes
    gamma = (n + 1) * UNIT_ROUNDOFF / (1.0 - (n + 1) * UNIT_ROUNDOFF)
    tiny = n * (n + 2) * TINY
    d = m_diag + abs(s) * n_diag
    return 3.0 * UNIT_ROUNDOFF * (m_norm + abs(s) * n_norm) + (2.0 * gamma + tiny) * d + tiny


def proven_pd(M: np.ndarray, s: float, N: np.ndarray | None = None, slack: float | None = None) -> bool:
    """Whether ``X = M - s N``, with ``N`` the identity when None, is proven
    positive definite in exact arithmetic.

    ``M`` and ``N`` must be symmetric: ``potrf`` reads one triangle.  The
    proof factors ``fl(X) - c I`` once and succeeds when ``potrf`` does.
    Rump ("Verification of positive definiteness", *BIT* 46, 2006), after
    Demmel: a Cholesky factorization of a symmetric ``Y`` that runs to the
    end in floating point gives ``G'G = Y + E`` with
    ``|E| <= gamma' sqrt(y_ii y_jj)``, ``gamma' = gamma_{n+1} / (1 - gamma_{n+1})``
    and ``gamma_k = k u / (1 - k u)``, so ``lambda_min(Y) > -gamma' tr(Y)``.
    With the unit roundoff ``u`` and ``d = sum |m_ii| + |s| sum |n_ii|``,
    which bounds the positive part of ``tr(fl(X))``, the slack (``pd_slack``) is

        c = 3 u (||M||_F + |s| ||N||_F) + 2 gamma_{n+1} d + n (n + 2) (1 + d) TINY.

    The first term covers the rounding in forming ``fl(X)``, two roundings
    per entry; the second the factorization, with a factor 2 for the
    rounding of ``fl(X)``'s diagonal, of ``d - c`` and of the slack itself;
    the third underflow, which Rump bounds by a term smaller still.  So
    success proves ``lambda_min(X) > 0``, and a failure proves nothing: the
    proof cannot resolve ``lambda_min(X)`` below about ``c``.  A caller that
    shifts one pair many times passes ``slack``, at least ``c``.  A
    non-finite entry, a sum of squares beyond the float range (entries above
    about 1e154), or a slack beyond ``0.75 u`` times it, which bounds
    ``||M||_F + |s| ||N||_F`` by a quarter of it, so that no entry of
    ``fl(X)`` overflows, raises ``NumericError``.
    """
    n = M.shape[0]
    if slack is None:
        slack = pd_slack(n, pd_sizes(M), s, None if N is None else pd_sizes(N))
    if not slack <= 0.75 * UNIT_ROUNDOFF * MAX_FLOAT:
        raise NumericError("the shifted matrix of a positive definiteness proof is not finite")
    if N is None:
        X = M.copy()
        X.ravel()[::n + 1] -= s
    else:
        X = N * -s  # fl(m - s n), as M - s * N rounds it, with one temporary
        X += M
    X.ravel()[::n + 1] -= slack
    _bind_kernels()
    # X is symmetric, so its Fortran-ordered view is the same matrix and potrf
    # factors it in place, with no copy; lower=1, clean=0 (the factor is not read), overwrite_a=1
    return _potrf(X.T, 1, 0, 1)[1] == 0


def lu_solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``M x = b`` by LU with partial pivoting (``np.linalg.solve``); a
    singular ``M`` raises ``NumericError``."""
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LU solve failed: {exc}") from exc


def svd_pinv(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse through the SVD ``M = U S V'``.

    Singular values at or below ``PINV_RCOND`` times the largest count as
    zeros, as ``np.linalg.pinv`` drops them.  An SVD that fails, as it does
    on a non-finite entry, raises ``NumericError``.
    """
    try:
        U, s, Vt = np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc
    inv = np.zeros_like(s)
    np.divide(1.0, s, out=inv, where=s > PINV_RCOND * s[0])
    return (Vt.T * inv) @ U.T


def min_eig(M: np.ndarray) -> float:
    # numpy, not extreme_eigs: a plain solve calls this and must not import scipy
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """The orthogonal factor of the QR decomposition of an n x n standard normal draw."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q

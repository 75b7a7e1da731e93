"""Penalized quadratic objectives ``F(h) = 0.5 h'Rh - r'h + Psi(h)``.

The quadratic data ``(R, r)`` and a smooth convex penalty ``Psi`` together
define a strongly convex objective when ``R`` is positive definite.  Online
snapshots use the same type with ``R`` only required to be symmetric
nonnegative definite.

Every penalty is separable, ``Psi(h) = lam * sum_i phi((Lh)_i)``: the
half-quadratic form of Allain, Idier and Goussard (IEEE TIP 2006).  A
``Penalty`` subclass gives only its scalar potential ``phi``: the
hyperbolic and Fair smoothed-l1 potentials, and the quadratic
``phi(t) = t^2/2`` with ``L = I`` of the Tikhonov ridge, whose weight-0 case
is the zero penalty.  ``Penalty`` writes each evaluation once from the
potential and ``L``: the value, alone and paired with the gradient, the
Hessian, the half-quadratic curvature matrix ``B(h)`` (which satisfies
``hess Psi(h) <= B(h) <= V`` in the Loewner order and the exactness
identity ``B(h) h = grad Psi(h)``), and the global curvature cap ``V``.

The solve loop never forms ``B(h)``.  It calls ``apply_curvature(h, X)``,
which returns ``B(h) @ X = lam * L'(omega(Lh) * LX)`` for a vector or a
block of columns ``X``, and an identity ``L`` is never multiplied at all.  A
plain 3MG iteration then costs O(n^2 m) for the products with ``R`` plus
O(nnz(L) m) for the penalty, with m the number of subspace columns, instead
of the O(n^3) of forming ``L' Diag(omega) L``.  A first-difference ``L``,
given as a dense matrix or as ``{"diff": 1}`` in a problem file, is applied
by slicing, so its penalty costs O(n m).  The dense ``curvature(h)``
remains the reference: ``MajorantAtPoint.curvature`` builds ``R + B(h)``
from it on first read, which only certification, verification and the tests
do.

``curvature_gap_bound(h)`` proves the domination ``B(h) >= hess Psi(h)``
without an eigensolve.  Since
``B(h) - hess Psi(h) = lam * L' Diag(omega - phi'')(Lh) L``, the scalars
``omega - phi''`` at ``Lh`` decide it: the half-quadratic domination
condition.  Where the bound is too weak to prove it, for a potential that
does not dominate or a negative scalar times ``||L||_F^2``, the
majorization check takes the smallest eigenvalue of the dense difference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, parse_json, read_text
from .linalg import as_vector, check_symmetric, flush_subnormals


# the smallest positive normal float
_NORMAL_MIN = float(np.finfo(float).tiny)


def _penalty_weight(lam) -> float:
    if not (np.isfinite(lam) and lam >= 0):
        raise InputError(f"penalty weight lambda must be finite and nonnegative, got {lam}")
    return float(lam)


def _first_difference(n: int) -> np.ndarray:
    """The (n-1) x n first-difference operator, ``(L x)_i = x_{i+1} - x_i``."""
    L = np.zeros((n - 1, n))
    np.fill_diagonal(L, -1.0)
    np.fill_diagonal(L[:, 1:], 1.0)
    return L


def _is_first_difference(L: np.ndarray) -> bool:
    """Whether ``L`` equals ``_first_difference(n)`` exactly, n >= 2, read in place.

    Its two diagonals hold -1 and +1 and nothing else is nonzero; a NaN
    anywhere fails one test or the other.  Nothing of L's size is allocated.
    """
    n = L.shape[-1]
    return (
        n >= 2
        and L.shape == (n - 1, n)
        and bool(np.all(np.diagonal(L) == -1.0))
        and bool(np.all(np.diagonal(L, 1) == 1.0))
        and np.count_nonzero(L) == 2 * (n - 1)
    )


class Penalty:
    """``Psi(h) = lam * sum_i phi((L h)_i)`` for an even scalar potential phi.

    The half-quadratic curvature is ``B(h) = lam * L' Diag(omega(Lh)) L`` with
    ``omega(t) = phi'(t)/t`` extended by continuity at zero, and
    ``V = lam * omega(0) * L'L + tau * I``.  For the shipped potentials
    omega is maximal at zero and ``phi'' <= omega`` pointwise, so the
    Loewner sandwich and the exactness identity both hold.  A subclass
    defines only its potential (``_phi``, ``_dphi``, ``_ddphi``, ``_omega``),
    its constructor and, where its file form differs, ``to_dict``.

    Three block hooks work on a block of columns: ``column_values`` gives
    the value at each column, ``apply_curvature(h, X)`` multiplies a vector
    or block ``X`` by ``B(h)`` without forming it, and
    ``curvature_gap_bound`` bounds ``min_eig(B(h) - hessian(h))`` at a
    vector or at each column.

    ``L`` is stored as None when it is the identity, given or omitted, and
    every product with it is then skipped.  An ``L`` exactly equal to the
    first-difference operator (``L x = x[1:] - x[:-1]``) is kept as given and
    applied by slicing: each entry of ``L x`` or ``L' y`` is one difference of
    two entries, rounded once, so it equals the dense product bit for bit on
    finite input.  A scaled or perturbed ``L``, or one with a NaN entry,
    keeps the dense product.  Any other ``L`` is stored with its subnormal
    entries flushed to 0.0, as ``QuadraticData`` stores ``R``.  The dense
    ``L`` serves the dense matrices ``hessian``, ``curvature`` and
    ``curvature_bound`` in every case.
    """

    def __init__(self, lam: float, delta: float, L=None):
        self.lam = _penalty_weight(lam)
        if not (np.isfinite(delta) and delta > 0):
            raise InputError(f"smoothing scale delta must be finite and positive, got {delta}")
        self.delta = float(delta)
        # the potentials are written in delta**2, which must neither overflow nor underflow
        if not _NORMAL_MIN <= self.delta * self.delta < np.inf:
            raise InputError(f"penalty.delta must have a square that is a normal float, got {self.delta!r}")
        self._first_diff = False
        if L is not None:
            L = np.atleast_2d(np.asarray(L, dtype=float))
            self._first_diff = _is_first_difference(L)
            if not self._first_diff:  # a difference operator has no subnormal entry to flush
                L = flush_subnormals(L)
                if L.shape[0] == L.shape[1] and np.array_equal(L, np.eye(L.shape[0])):
                    L = None
        self.L = L
        if L is not None:
            # ||L||_F^2 of the gap bound; a difference operator's 2(n-1) ones sum to it exactly
            self._L_fro2 = 2.0 * L.shape[0] if self._first_diff else float(np.sum(L * L))

    # scalar potential, defined by subclasses
    def _phi(self, t):
        raise NotImplementedError

    def _dphi(self, t):
        raise NotImplementedError

    def _ddphi(self, t):
        raise NotImplementedError

    def _omega(self, t):
        raise NotImplementedError

    def _omega_max(self) -> float:
        # omega peaks at zero where it equals phi''(0)
        return float(self._ddphi(np.array([0.0]))[0])

    def _L_times(self, x):
        x = np.asarray(x, dtype=float)
        if self.L is None:
            return x
        if self._first_diff:
            # summed onto +0.0 like the dense product, so an exact zero is +0.0 there too
            Lx = np.zeros((x.shape[0] - 1, *x.shape[1:]))
            Lx += x[1:]
            Lx -= x[:-1]
            return Lx
        return self.L @ x

    def _Lt_times(self, y):
        if self.L is None:
            return y
        if self._first_diff:
            Lty = np.zeros((y.shape[0] + 1, *y.shape[1:]))
            Lty[1:] += y
            Lty[:-1] -= y
            return Lty
        return self.L.T @ y

    def _weighted_gram(self, w):
        """The dense matrix ``lam * L' Diag(w) L``."""
        if self.L is None:
            return self.lam * np.diag(w)
        return self.lam * (self.L.T * w) @ self.L

    def value(self, h):
        return self.lam * float(np.sum(self._phi(self._L_times(h))))

    def column_values(self, X):
        # a sum along contiguous rows is the pairwise sum of ``value``, bit for bit
        return self.lam * np.add.reduce(np.ascontiguousarray(self._phi(self._L_times(X)).T), axis=1)

    def value_and_gradient(self, h):
        Lh = self._L_times(h)
        return self.lam * float(np.sum(self._phi(Lh))), self.lam * self._Lt_times(self._dphi(Lh))

    def hessian(self, h):
        return self._weighted_gram(self._ddphi(self._L_times(h)))

    def curvature(self, h):
        return self._weighted_gram(self._omega(self._L_times(h)))

    def apply_curvature(self, h, X):
        lw = self.lam * self._omega(self._L_times(h))
        LX = self._L_times(X)
        return self._Lt_times(lw[:, None] * LX if LX.ndim == 2 else lw * LX)

    def curvature_gap_bound(self, h):
        """A lower bound on ``min_eig(B(h) - hessian(h))`` in exact arithmetic.

        It is ``min(d)`` for ``d = lam * (omega - phi'')(Lh)``, the exact gap
        when L is the identity.  Otherwise ``L' Diag(d) L >= min(d) * L'L``,
        and for a negative ``min(d)`` the bound ``||L||_2^2 <= ||L||_F^2``
        keeps it rigorous.  A block ``h`` gets the same bound for each column.
        """
        Lh = self._L_times(h)
        d = self.lam * (self._omega(Lh) - self._ddphi(Lh))
        if self.L is None:
            bound = np.minimum.reduce(d, axis=0)
        else:
            d_min = np.minimum.reduce(d, axis=0, initial=0.0)
            bound = np.where(d_min == 0.0, 0.0, d_min * self._L_fro2)
        return float(bound) if d.ndim == 1 else bound

    def curvature_bound(self, dim):
        wmax = self._omega_max()
        tau = max(1e-12, 1e-12 * self.lam * wmax)
        gram = np.eye(dim) if self.L is None else self.L.T @ self.L
        return self.lam * wmax * gram + tau * np.eye(dim)

    def to_dict(self):
        return {
            "kind": self.kind,
            "lambda": self.lam,
            "delta": self.delta,
            "L": "identity" if self.L is None else {"diff": 1} if self._first_diff else self.L.tolist(),
        }


class TikhonovPenalty(Penalty):
    """Ridge ``0.5 * lam * ||h||^2``: the quadratic potential ``phi(t) = t^2/2`` with ``L = I``.

    Here ``omega = phi'' = 1``, so ``B(h)`` is the Hessian ``lam * I``.  The
    potential has no smoothing scale, so the constructor sets ``lam`` and
    ``L`` itself.
    """

    kind = "tikhonov"

    def __init__(self, lam: float):
        self.lam = _penalty_weight(lam)
        self.L = None

    def _phi(self, t):
        return 0.5 * t * t

    def _dphi(self, t):
        return t

    def _ddphi(self, t):
        return np.ones_like(t)

    _omega = _ddphi

    def to_dict(self):
        return {"kind": "tikhonov", "lambda": self.lam}


class ZeroPenalty(TikhonovPenalty):
    """No penalty: the ridge at weight 0."""

    kind = "zero"

    def __init__(self):
        super().__init__(0.0)

    def to_dict(self):
        return {"kind": "zero"}


class HyperbolicPenalty(Penalty):
    """Smooth-L1 potential ``phi(t) = sqrt(delta^2 + t^2) - delta``."""

    kind = "hyperbolic"

    def _phi(self, t):
        return np.sqrt(self.delta**2 + t**2) - self.delta

    def _dphi(self, t):
        return t / np.sqrt(self.delta**2 + t**2)

    def _ddphi(self, t):
        return self.delta**2 / (self.delta**2 + t**2) ** 1.5

    def _omega(self, t):
        return 1.0 / np.sqrt(self.delta**2 + t**2)


class FairPenalty(Penalty):
    """Fair potential ``phi(t) = delta^2 (|t|/delta - log(1 + |t|/delta))``."""

    kind = "fair"

    def _phi(self, t):
        u = np.abs(t) / self.delta
        return self.delta**2 * (u - np.log1p(u))

    def _dphi(self, t):
        return t / (1.0 + np.abs(t) / self.delta)

    def _ddphi(self, t):
        return 1.0 / (1.0 + np.abs(t) / self.delta) ** 2

    def _omega(self, t):
        return 1.0 / (1.0 + np.abs(t) / self.delta)


@dataclass(frozen=True)
class QuadraticData:
    """The pair ``(R, r)`` of a (penalized) quadratic objective.

    ``R`` is stored with its subnormal entries flushed to 0.0
    (``linalg.flush_subnormals``), so that every dense product with it runs
    at full speed; a blur's underflowing tails leave hundreds of them in
    ``R = H'H + mu I``.  The stored ``R~`` differs from the given ``R`` by at
    most ``TINY = np.finfo(float).tiny`` in each entry, so
    ``||(R~ - R) x||_inf <= TINY * ||x||_1`` and the objective moves by at
    most ``0.5 * TINY * ||h||_1^2``.  Normal entries are never truncated,
    ``r`` is stored exactly, and no floating-point mode of the process
    changes.  A ``Penalty`` stores its ``L`` the same way.
    """

    R: np.ndarray
    r: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        R = flush_subnormals(check_symmetric(np.asarray(self.R, dtype=float), rtol=1e-12, name="R"))
        r = as_vector(self.r, R.shape[0])
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "dim", R.shape[0])

    @classmethod
    def _of_symmetric(cls, R: np.ndarray, r: np.ndarray) -> "QuadraticData":
        """``QuadraticData(R, r)`` for a float ``R`` that the caller knows passes
        ``check_symmetric`` and a float vector ``r`` of its length: only the
        subnormal flush runs."""
        quad = object.__new__(cls)
        object.__setattr__(quad, "R", flush_subnormals(R))
        object.__setattr__(quad, "r", r)
        object.__setattr__(quad, "dim", R.shape[0])
        return quad


@dataclass(frozen=True)
class ProblemInstance:
    """A quadratic data term plus a penalty; immutable and thread-safe."""

    quad: QuadraticData
    penalty: Penalty

    @property
    def dim(self) -> int:
        return self.quad.dim


def eval_objective(p: ProblemInstance, h) -> float | np.ndarray:
    """``F(h)``, or for a block of columns ``h`` the array of ``F`` at each column."""
    q = p.quad
    h = np.asarray(h, dtype=float)
    if h.ndim == 2 and h.shape[0] == p.dim:
        return 0.5 * np.add.reduce(h * (q.R @ h), axis=0) - q.r @ h + p.penalty.column_values(h)
    h = as_vector(h, p.dim)
    return 0.5 * float(h @ (q.R @ h)) - float(q.r @ h) + p.penalty.value(h)


def eval_gradient(p: ProblemInstance, h) -> np.ndarray:
    return eval_objective_and_gradient(p, h)[1]


def eval_objective_and_gradient(p: ProblemInstance, h) -> tuple[float, np.ndarray]:
    """``F(h)`` and ``grad F(h)`` from one product with ``R`` (and one with ``L``).

    The value is bit for bit that of ``eval_objective``.
    """
    h = as_vector(h, p.dim)
    q = p.quad
    Rh = q.R @ h
    psi, dpsi = p.penalty.value_and_gradient(h)
    return 0.5 * float(h @ Rh) - float(q.r @ h) + psi, Rh - q.r + dpsi


def eval_hessian(p: ProblemInstance, h) -> np.ndarray:
    h = as_vector(h, p.dim)
    return p.quad.R + p.penalty.hessian(h)


def majorant_curvature(p: ProblemInstance, h) -> np.ndarray:
    """The half-quadratic curvature matrix ``B(h)`` of the penalty alone."""
    h = as_vector(h, p.dim)
    return p.penalty.curvature(h)


def curvature_bound(p: ProblemInstance) -> np.ndarray:
    """Global cap ``V`` with ``B(h) <= V`` for all h, strictly PD."""
    return p.penalty.curvature_bound(p.dim)


def _field(name: str, convert, value):
    """``convert(value)``, with a malformed value reported as an ``InputError`` naming the field.

    An integer literal beyond the float range is malformed too.
    """
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {name!r} in the problem file: {exc}") from exc


def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def penalty_from_dict(spec: dict, dim: int) -> Penalty:
    if not isinstance(spec, dict):
        raise InputError(f"'penalty' must be an object, got {type(spec).__name__}")
    kind = str(spec.get("kind", "zero")).lower()
    if kind == "zero":
        return ZeroPenalty()
    lam = _field("penalty.lambda", float, spec.get("lambda", 1.0))
    if kind == "tikhonov":
        return TikhonovPenalty(lam)
    delta = _field("penalty.delta", float, spec.get("delta", 1.0))
    L = spec.get("L", "identity")
    if isinstance(L, str) and L == "identity":
        L = None
    elif isinstance(L, dict):
        if L != {"diff": 1} or dim < 2:
            raise InputError(f"malformed 'penalty.L' in the problem file: only the first difference "
                             f"{{\"diff\": 1}} at dim >= 2 is supported, got {L} at dim {dim}")
        L = _first_difference(dim)
    else:
        L = np.atleast_2d(_field("penalty.L", _array, L))
        if L.ndim != 2:
            raise InputError(f"L must be a matrix, got an array of shape {L.shape}")
        if L.shape[1] != dim:
            raise InputError(f"L has {L.shape[1]} columns, expected {dim}")
    if kind == "hyperbolic":
        return HyperbolicPenalty(lam, delta, L=L)
    if kind == "fair":
        return FairPenalty(lam, delta, L=L)
    raise InputError(f"unknown penalty kind {kind!r}")


def problem_from_dict(d: dict) -> ProblemInstance:
    try:
        dim = int(d["dim"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError("problem file needs an integer 'dim'") from exc
    R = d.get("R")
    if isinstance(R, dict) and "diag" in R:
        R = np.diag(as_vector(_field("R.diag", _array, R["diag"]), dim))
    else:
        R = _field("R", _array, R)
        if R.shape != (dim, dim):
            raise InputError(f"R has shape {R.shape}, expected ({dim}, {dim})")
    r = as_vector(_field("r", _array, d.get("r", np.zeros(dim))), dim)
    penalty = penalty_from_dict(d.get("penalty", {"kind": "zero"}), dim)
    return ProblemInstance(QuadraticData(R, r), penalty)


def problem_to_dict(p: ProblemInstance) -> dict:
    return {
        "dim": p.dim,
        "R": p.quad.R.tolist(),
        "r": p.quad.r.tolist(),
        "penalty": p.penalty.to_dict(),
    }


def load_problem(path) -> ProblemInstance:
    return problem_from_dict(parse_json(read_text(path, "problem file"), f"problem file {path}"))


def save_problem(p: ProblemInstance, path) -> None:
    with open(path, "w") as f:
        json.dump(problem_to_dict(p), f, indent=1)
        f.write("\n")

"""Quadratic tangent majorants of the objective at the current iterate.

The surrogate touches the objective at its anchor, shares the gradient
there, and uses the curvature ``A(h) = R + B(h)`` which dominates the
objective's Hessian everywhere.  The solve loop only multiplies by ``A``;
the dense matrix is built the first time something reads it.

``check_majorization`` draws its sample points one at a time, in a fixed
order from its seed, each into its row of one array, and keeps only each
row's scale ``radius * U^(1/n) / nu``.  After the draws it scales the rows
and adds the anchor as one block, which rounds every entry as scaling each
row alone did.  It then evaluates the points as one block of columns: the
surrogate from one product with the dense ``A``, the objective from one
product with ``R``, and the penalty's value and ``curvature_gap_bound`` at
every column in O(nnz(L)) each.  The bound proves the domination
``A(h) - hess F(h) = B(h) - hess Psi(h) >= 0`` pointwise.  Only where the
bound falls below the tolerance, for a potential that does not dominate or a
non-identity ``L`` whose scalar bound is too weak, does it build both dense
matrices at that point and take the smallest eigenvalue of their difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_vector, min_eig
from .model import ProblemInstance, eval_gradient, eval_hessian, eval_objective, majorant_curvature


class MajorantAtPoint:
    """The quadratic tangent majorant of ``problem`` at ``anchor``, with curvature ``A``.

    ``apply(X)`` computes ``R X + B(anchor) X`` without forming ``A``, and
    ``curvature``, the dense ``A``, is assembled on first read.
    """

    def __init__(
        self,
        anchor: np.ndarray,
        value_at_anchor: float,
        gradient_at_anchor: np.ndarray,
        problem: ProblemInstance,
    ):
        self.anchor = anchor
        self.value_at_anchor = value_at_anchor
        self.gradient_at_anchor = gradient_at_anchor
        self.problem = problem

    @cached_property
    def curvature(self) -> np.ndarray:
        return self.problem.quad.R + majorant_curvature(self.problem, self.anchor)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """``A @ X`` for a vector or a block of columns ``X``."""
        return self.problem.quad.R @ X + self.problem.penalty.apply_curvature(self.anchor, X)


def build_majorant(p_n: ProblemInstance, h_n, value: float | None = None,
                   gradient: np.ndarray | None = None) -> MajorantAtPoint:
    """The majorant of ``p_n`` at ``h_n``; pass F and its gradient there if already known."""
    h_n = as_vector(h_n, p_n.dim)
    return MajorantAtPoint(
        anchor=h_n,
        value_at_anchor=eval_objective(p_n, h_n) if value is None else value,
        gradient_at_anchor=eval_gradient(p_n, h_n) if gradient is None else gradient,
        problem=p_n,
    )


def eval_surrogate(m: MajorantAtPoint, h) -> float | np.ndarray:
    """The surrogate at ``h``, or for a block of columns ``h`` the array of its value at each column."""
    h = np.asarray(h, dtype=float)
    if h.ndim == 2 and h.shape[0] == len(m.anchor):
        D = h - m.anchor[:, None]
        return m.value_at_anchor + m.gradient_at_anchor @ D + 0.5 * np.add.reduce(D * (m.curvature @ D), axis=0)
    h = as_vector(h, len(m.anchor))
    d = h - m.anchor
    return m.value_at_anchor + float(m.gradient_at_anchor @ d) + 0.5 * float(d @ (m.curvature @ d))


@dataclass(frozen=True)
class MajorizationReport:
    """Worst surrogate margin and curvature gap over the anchor and the samples.

    ``min_curvature_gap`` is the smallest, over those points, of a lower
    bound on ``min_eig(A(h) - hess F(h))``.  Where the penalty's
    ``curvature_gap_bound`` passed, that is the scalar bound, which can lie
    below the exact gap; elsewhere it is the computed dense eigenvalue.
    The verdicts are ``margin_ok``, margin >= -tolerance (eq3), and
    ``curvature_ok``, gap >= -1e-10 * max(|A|_F, 1) (eq75).
    """

    samples: int
    radius: float
    min_margin: float
    min_curvature_gap: float
    tolerance: float
    margin_ok: bool
    curvature_ok: bool

    @property
    def passed(self) -> bool:
        return self.margin_ok and self.curvature_ok


def _curvature_gaps(p_n: ProblemInstance, X: np.ndarray, gap_tol: float) -> np.ndarray:
    """At each column h of ``X``: the penalty's bound on ``min_eig(A(h) - hess F(h))`` if it
    is at least ``-gap_tol``, else the dense eigenvalue."""
    gaps = np.asarray(p_n.penalty.curvature_gap_bound(X), dtype=float)
    weak = ~(gaps >= -gap_tol)
    if not weak.any():
        return gaps
    gaps = gaps.copy()
    for j in np.flatnonzero(weak):
        h = X[:, j]
        A_h = p_n.quad.R + majorant_curvature(p_n, h)
        gaps[j] = min_eig(A_h - eval_hessian(p_n, h))
    return gaps


def check_majorization(
    p_n: ProblemInstance,
    m: MajorantAtPoint,
    samples: int = 100,
    radius: float | None = None,
    seed: int = 0,
) -> MajorizationReport:
    """Sampled check that the surrogate sits above the objective.

    Draws points uniformly in a ball around the anchor, one at a time in a
    fixed order from ``seed``, and evaluates them as one block.  Reports the
    worst surrogate-minus-objective margin, along with the worst Loewner gap
    between the surrogate curvature and the objective Hessian at the anchor
    and the samples (see ``MajorizationReport``).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    # each norm as np.linalg.norm takes it, math.sqrt(v.dot(v)) over the raveled
    # array, without its dispatch
    if radius is None:
        radius = 10.0 * (1.0 + math.sqrt(m.anchor.dot(m.anchor)))
    rng = np.random.default_rng(seed)
    n = p_n.dim
    scale = 1.0 + abs(m.value_at_anchor)
    a = m.curvature.ravel(order="K")
    a_scale = max(math.sqrt(a.dot(a)), 1.0)
    gap_tol = 1e-10 * a_scale

    # row 0 is the anchor; each sample is drawn into the next free row, and its
    # scale c[k] is kept for the block step below
    P = np.empty((samples + 1, n))
    P[0] = m.anchor
    c = np.empty(samples + 1)
    inv_n = 1.0 / n
    k = 1
    for _ in range(samples):
        row = P[k]
        rng.standard_normal(out=row)
        nu = math.sqrt(row.dot(row))
        if nu == 0.0:
            continue
        c[k] = radius * rng.random() ** inv_n / nu
        k += 1
    # one rounding per entry, bitwise anchor + c * u for a point drawn alone
    Y = P[1:k]
    Y *= c[1:k, None]
    Y += m.anchor
    X = P[:k].T  # columns, each contiguous in memory
    H = X[:, 1:]
    margins = eval_surrogate(m, H) - eval_objective(p_n, H)
    # curvature domination is pointwise: A(h) >= hess F(h) at the same h
    min_margin = float(np.minimum.reduce(margins, initial=np.inf))
    min_gap = float(np.minimum.reduce(_curvature_gaps(p_n, X, gap_tol)))
    tol = 1e-9 * scale
    return MajorizationReport(samples, radius, min_margin, min_gap, tol,
                              margin_ok=min_margin >= -tol, curvature_ok=min_gap >= -gap_tol)

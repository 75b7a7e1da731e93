"""Quadratic tangent majorants of the objective at the current iterate.

The surrogate touches the objective at its anchor, shares the gradient
there, and uses the curvature ``A(h) = R + B(h)`` which dominates the
objective's Hessian everywhere.  The solve loop only multiplies by ``A``;
the dense matrix is built the first time something reads it.
"""

from __future__ import annotations

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

    @cached_property
    def anchor_product(self) -> np.ndarray:
        """``A @ anchor``, which ``subspace_step`` fills from its block product."""
        return self.apply(self.anchor)

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


def eval_surrogate(m: MajorantAtPoint, h) -> float:
    h = as_vector(h, len(m.anchor))
    d = h - m.anchor
    return m.value_at_anchor + float(m.gradient_at_anchor @ d) + 0.5 * float(d @ (m.curvature @ d))


@dataclass(frozen=True)
class MajorizationReport:
    samples: int
    radius: float
    min_margin: float
    min_curvature_gap: float
    tolerance: float
    passed: bool


def check_majorization(
    p_n: ProblemInstance,
    m: MajorantAtPoint,
    samples: int = 100,
    radius: float | None = None,
    seed: int = 0,
) -> MajorizationReport:
    """Sampled check that the surrogate sits above the objective.

    Draws points uniformly in a ball around the anchor and reports the worst
    surrogate-minus-objective margin, along with the worst Loewner gap
    between the surrogate curvature and the objective Hessian at the samples.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if radius is None:
        radius = 10.0 * (1.0 + float(np.linalg.norm(m.anchor)))
    rng = np.random.default_rng(seed)
    n = p_n.dim
    scale = 1.0 + abs(m.value_at_anchor)
    a_scale = max(float(np.linalg.norm(m.curvature)), 1.0)

    # curvature domination is pointwise: A(h) >= hess F(h) at the same h
    min_margin = np.inf
    min_gap = min_eig(m.curvature - eval_hessian(p_n, m.anchor))
    for _ in range(samples):
        u = rng.standard_normal(n)
        nu = np.linalg.norm(u)
        if nu == 0.0:
            continue
        h = m.anchor + (radius * rng.random() ** (1.0 / n) / nu) * u
        min_margin = min(min_margin, eval_surrogate(m, h) - eval_objective(p_n, h))
        A_h = p_n.quad.R + majorant_curvature(p_n, h)
        min_gap = min(min_gap, min_eig(A_h - eval_hessian(p_n, h)))
    tol = 1e-9 * scale
    passed = min_margin >= -tol and min_gap >= -1e-10 * a_scale
    return MajorizationReport(samples, radius, float(min_margin), float(min_gap), tol, passed)

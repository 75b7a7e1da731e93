"""Instance generators used by the demo command, scripts, and tests."""

from __future__ import annotations

import numpy as np

from .linalg import random_orthogonal
from .model import FairPenalty, ProblemInstance, QuadraticData, ZeroPenalty, penalty_from_dict


def random_spd(n: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Random SPD matrix with the given condition number."""
    if n == 1:
        return np.array([[1.0]])
    Q = random_orthogonal(n, rng)
    eigs = np.geomspace(1.0, cond, n)
    return (Q * eigs) @ Q.T


def make_penalty(kind: str, lam: float, delta: float, dim: int):
    return penalty_from_dict({"kind": kind, "lambda": lam, "delta": delta}, dim)


def random_instance(
    n: int,
    kind: str,
    rng: np.random.Generator,
    cond: float = 10.0,
    lam: float = 1.0,
    delta: float = 1.0,
) -> ProblemInstance:
    R = random_spd(n, cond, rng)
    r = rng.standard_normal(n)
    return ProblemInstance(QuadraticData(R, r), make_penalty(kind, lam, delta, n))


def demo_instances(seed: int = 0) -> dict[str, ProblemInstance]:
    """The fixed trio exercised by the demo command."""
    rng = np.random.default_rng(seed)
    quad2 = ProblemInstance(
        QuadraticData(np.diag([1.0, 4.0]), np.array([1.0, -2.0])), ZeroPenalty()
    )
    hyper4 = random_instance(4, "hyperbolic", rng, cond=30.0, lam=0.5, delta=0.2)
    one_d = ProblemInstance(
        QuadraticData(np.array([[2.0]]), np.array([1.0])),
        FairPenalty(0.3, 0.5),
    )
    return {"quadratic-2d": quad2, "hyperbolic-4d": hyper4, "fair-1d": one_d}

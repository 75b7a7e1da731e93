"""A record's ``c_norm`` is the norm of the snapshot's linear term, to rounding.

The loop records ``c = A_n h_n - grad F_n(h_n)``.  With
``A_n = R_n + B(h_n)``, ``grad F_n(h) = R_n h - r_n + grad Psi(h)`` and the
exactness identity ``B(h) h = grad Psi(h)``, ``c`` is ``r_n`` exactly, so
``c_norm`` can differ from ``|r_n|`` only by the rounding of the two sides.

The bound, in Higham's model (*Accuracy and Stability of Numerical
Algorithms*, ch. 3): each operation rounds by a factor ``1 + d``,
``|d| <= u``; ``j`` such factors give ``1 + t``, ``|t| <= g_j = j u / (1 - j u)``;
and an inner product of length n, by any BLAS kernel, is off by at most
``g_n |x|'|y|``.  Write ``p = |R_n| |h|`` and ``q = |grad Psi(h)|`` entrywise,
for the hyperbolic potential with identity L:

- ``B(h) h`` is ``(lam * (1 / sqrt(delta**2 + t**2))) * t``, seven roundings,
  and ``grad Psi(h)`` is ``lam * (t / sqrt(delta**2 + t**2))``, six; each is
  within ``g_7 q`` of ``grad Psi(h)``.
- ``A h = fl(fl(R_n h) + B h)`` is then within ``g_(n+1) p + g_8 q`` of its
  value, and ``g = fl(fl(fl(R_n h) - r_n) + grad Psi)`` within
  ``g_(n+2) (p + |r_n|) + g_7 q``.
- ``c = fl(A h - g)`` adds ``u |c|``, so ``|c - r_n| <= b = 2 g_(n+8) (p + q + |r_n|)``
  entrywise.  The index n + 8, where n + 3 would do, also covers the
  rounding of the test's own sums.
- ``c_norm = fl(sqrt(fl(c'c)))`` is within ``g_(n+1) |c|`` of ``|c|``, and
  ``|c| <= |r_n| + |b|``.

So ``|c_norm - |r_n|| <= |b| + g_(n+8) (3 |r_n| + |b|)``, counting once more
the rounding of the computed ``|r_n|``.
"""

import math

import numpy as np
import pytest

from mmsubspace.linalg import UNIT_ROUNDOFF
from mmsubspace.model import HyperbolicPenalty, ProblemInstance, QuadraticData
from mmsubspace.problems import random_spd
from mmsubspace.solver import SolveOptions, run_batch, run_online
from mmsubspace.stream import ConstantStream, GeometricPerturbationStream


def gamma(j: int) -> float:
    return j * UNIT_ROUNDOFF / (1.0 - j * UNIT_ROUNDOFF)


def problem(n: int, seed: int) -> ProblemInstance:
    rng = np.random.default_rng(seed)
    R = random_spd(n, 50.0, rng)
    return ProblemInstance(QuadraticData(0.5 * (R + R.T), rng.standard_normal(n)), HyperbolicPenalty(1.0, 1.0))


def geometric(p: ProblemInstance, seed: int) -> GeometricPerturbationStream:
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((p.dim, p.dim))
    return GeometricPerturbationStream(p.quad, 0.9, 0.05 * (E + E.T), 0.05 * rng.standard_normal(p.dim),
                                       penalty=p.penalty)


@pytest.mark.parametrize("strategy", ["3mg", "memory:5"])
@pytest.mark.parametrize("mode", ["batch", "geometric"])
def test_c_norm_is_the_norm_of_the_snapshot_s_linear_term(mode, strategy):
    p = problem(30, 11)
    assert p.penalty.L is None  # the bound above is for identity L
    opts = SolveOptions(max_iters=300, grad_tol=1e-12)
    if mode == "batch":
        stream = ConstantStream(p.quad, p.penalty)
        trace = run_batch(p, None, strategy, opts)
    else:
        stream = geometric(p, 12)
        trace = run_online(geometric(p, 12), None, strategy, opts)
    g = gamma(p.dim + 8)
    checked = 0
    for rec in trace.records:
        if rec.c_norm is None:
            continue
        snap = stream.instance(rec.n)
        R, r = snap.quad.R, snap.quad.r
        q = np.abs(p.penalty.value_and_gradient(rec.h)[1])
        b = 2.0 * g * (np.abs(R) @ np.abs(rec.h) + q + np.abs(r))
        r_norm, b_norm = math.sqrt(r @ r), math.sqrt(b @ b)
        assert abs(rec.c_norm - r_norm) <= b_norm + g * (3.0 * r_norm + b_norm), rec.n
        checked += 1
    assert checked == trace.n_steps > 20

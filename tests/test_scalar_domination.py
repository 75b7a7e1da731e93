"""Curvature domination from the scalars omega - phi''; the dense eigenvalue stays the reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mmsubspace.majorant
from mmsubspace.linalg import min_eig
from mmsubspace.majorant import build_majorant, check_majorization
from mmsubspace.model import (
    FairPenalty,
    HyperbolicPenalty,
    ProblemInstance,
    QuadraticData,
    TikhonovPenalty,
    ZeroPenalty,
    eval_hessian,
)
from mmsubspace.problems import random_spd
from mmsubspace.solver import SolveOptions, run_batch
from mmsubspace.verify import verify_trace
from conftest import DensePenalty


def first_difference(n):
    return np.eye(n - 1, n, 1) - np.eye(n - 1, n)


class HalfOmegaPenalty(HyperbolicPenalty):
    """omega scaled by 0.5: B(h) no longer dominates the Hessian near Lh = 0."""

    kind = "half-omega"

    def _omega(self, t):
        return 0.5 * super()._omega(t)


def make_penalty(kind, l_kind, n, lam, delta):
    if kind == "zero":
        return ZeroPenalty()
    if kind == "tikhonov":
        return TikhonovPenalty(lam)
    L = None if l_kind == "identity" else first_difference(n)
    cls = {"hyperbolic": HyperbolicPenalty, "fair": FairPenalty, "half-omega": HalfOmegaPenalty}[kind]
    return cls(lam, delta, L=L)


@st.composite
def points(draw, l_kinds=("identity", "diff")):
    """An instance, a point h (zero, moderate, or with large |Lh|) and the dense gap there.

    The non-dominating half-omega penalty makes the bound negative, where
    it must still lie below the dense gap.
    """
    n = draw(st.integers(1, 25))
    kind = draw(st.sampled_from(["zero", "tikhonov", "hyperbolic", "fair", "half-omega"]))
    penalty = make_penalty(kind, draw(st.sampled_from(l_kinds)), n,
                           draw(st.floats(0.0, 5.0)), draw(st.floats(1e-3, 10.0)))
    scale = draw(st.sampled_from([1.0, 1e3, 1e8]))
    h = draw(st.one_of(st.just(np.zeros(n)),
                       arrays(float, n, elements=st.floats(-scale, scale, allow_nan=False))))
    R = random_spd(n, 10.0, np.random.default_rng(draw(st.integers(0, 2**16))))
    p = ProblemInstance(QuadraticData(R, np.zeros(n)), penalty)
    A = build_majorant(p, h).curvature
    a_scale = max(float(np.linalg.norm(A)), 1.0)
    return p, h, min_eig(A - eval_hessian(p, h)), a_scale


@settings(max_examples=300, deadline=None)
@given(points())
def test_scalar_pass_implies_dense_pass(case):
    p, h, dense_gap, a_scale = case
    bound = p.penalty.curvature_gap_bound(h)
    if bound >= -1e-10 * a_scale:
        assert dense_gap >= -1e-10 * a_scale
    # a lower bound, up to the rounding of the dense difference
    assert bound <= dense_gap + 1e-12 * a_scale


@settings(max_examples=200, deadline=None)
@given(points(l_kinds=("identity",)))
def test_identity_bound_is_the_dense_gap(case):
    p, h, dense_gap, a_scale = case
    assert abs(p.penalty.curvature_gap_bound(h) - dense_gap) <= 1e-12 * a_scale


class DenseOnlyPenalty(DensePenalty):
    """A penalty whose gap bound proves nothing, delegating to a hyperbolic one."""

    kind = "dense-only"

    def __init__(self, inner):
        self.inner = inner

    def value(self, h):
        return self.inner.value(h)

    def value_and_gradient(self, h):
        return self.inner.value_and_gradient(h)

    def hessian(self, h):
        return self.inner.hessian(h)

    def curvature(self, h):
        return self.inner.curvature(h)

    def curvature_bound(self, dim):
        return self.inner.curvature_bound(dim)


def _instance(penalty, n, seed=3):
    rng = np.random.default_rng(seed)
    return ProblemInstance(QuadraticData(random_spd(n, 10.0, rng), rng.standard_normal(n)), penalty)


def _count_dense_gaps(monkeypatch):
    calls = []

    def counting(M):
        calls.append(M.shape)
        return min_eig(M)

    monkeypatch.setattr(mmsubspace.majorant, "min_eig", counting)
    return calls


def test_non_dominating_penalty_fails_through_the_dense_fallback(monkeypatch):
    n = 6
    p = _instance(HalfOmegaPenalty(1.0, 0.5), n)
    m = build_majorant(p, np.zeros(n))
    calls = _count_dense_gaps(monkeypatch)
    rep = check_majorization(p, m, samples=10, seed=1)
    assert not rep.curvature_ok
    assert rep.passed == (rep.margin_ok and rep.curvature_ok)
    assert not rep.passed
    assert calls, "the failing scalar bound must hand over to the dense eigenvalue"
    a_scale = max(float(np.linalg.norm(m.curvature)), 1.0)
    assert rep.min_curvature_gap < -1e-10 * a_scale

    trace = run_batch(p, strategy="3mg", opts=SolveOptions(max_iters=15, grad_tol=1e-10))
    report = verify_trace(p, trace)
    assert report.results["eq75_curvature_domination"].failures
    assert not report.passed


def test_penalty_without_the_hook_takes_the_dense_path(monkeypatch):
    n, samples = 5, 7
    inner = HyperbolicPenalty(0.8, 0.6, L=first_difference(n))
    dense = _instance(DenseOnlyPenalty(inner), n)
    scalar = _instance(inner, n)
    h = np.linspace(-1.0, 2.0, n)

    calls = _count_dense_gaps(monkeypatch)
    rep = check_majorization(dense, build_majorant(dense, h), samples=samples, seed=2)
    assert len(calls) == samples + 1  # the anchor and every sample
    assert rep.passed

    calls.clear()
    fast = check_majorization(scalar, build_majorant(scalar, h), samples=samples, seed=2)
    assert calls == []
    assert fast.passed
    assert fast.min_margin == rep.min_margin

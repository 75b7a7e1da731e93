"""Zero and Tikhonov penalties as the quadratic potential match their closed forms.

The reference classes below are the hand-written closed forms the two
penalties had before they became potentials of ``Penalty``.  Every
matrix and vector they return is matched bit for bit, and so are the
solver's iterates.  Only ``value`` sums in another order: the reference
takes ``0.5 * lam * (h @ h)``, the potential ``lam * sum(0.5 * h * h)``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmsubspace.model import ProblemInstance, QuadraticData, TikhonovPenalty, ZeroPenalty
from mmsubspace.problems import random_spd
from mmsubspace.solver import SolveOptions, run_batch
from conftest import DensePenalty

# Each side sums n <= 25 nonnegative terms with relative error at most
# (n - 1) * 2**-53, so the two sums differ by less than 50 * 2**-53 ~ 5.6e-15
# of the value, plus a few roundings of the scalings; 1e-14 covers both.  The
# absolute term covers squares that underflow into the subnormal range.
VALUE_RTOL = 1e-14
VALUE_ATOL = 1e-300


class RefZeroPenalty(DensePenalty):
    kind = "zero"

    def value(self, h):
        return 0.0

    def gradient(self, h):
        return np.zeros_like(np.asarray(h, dtype=float))

    def hessian(self, h):
        n = len(h)
        return np.zeros((n, n))

    def curvature(self, h):
        return self.hessian(h)

    def apply_curvature(self, h, X):
        return np.zeros_like(np.asarray(X, dtype=float))

    def curvature_gap_bound(self, h):
        return 0.0

    def curvature_bound(self, dim):
        return 1e-12 * np.eye(dim)


class RefTikhonovPenalty(DensePenalty):
    kind = "tikhonov"

    def __init__(self, lam):
        self.lam = float(lam)

    def value(self, h):
        h = np.asarray(h, dtype=float)
        return 0.5 * self.lam * float(h @ h)

    def gradient(self, h):
        return self.lam * np.asarray(h, dtype=float)

    def hessian(self, h):
        return self.lam * np.eye(len(h))

    def curvature(self, h):
        return self.hessian(h)

    def apply_curvature(self, h, X):
        return self.lam * np.asarray(X, dtype=float)

    def curvature_gap_bound(self, h):
        return 0.0

    def curvature_bound(self, dim):
        tau = max(1e-12, 1e-12 * self.lam)
        return (self.lam + tau) * np.eye(dim)


def pair(kind, lam):
    if kind == "zero":
        return ZeroPenalty(), RefZeroPenalty()
    return TikhonovPenalty(lam), RefTikhonovPenalty(lam)


KINDS = st.sampled_from(["zero", "tikhonov"])
WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
ENTRIES = st.one_of(st.just(0.0), st.floats(-1e8, 1e8, allow_subnormal=False))


@st.composite
def evaluations(draw):
    n = draw(st.integers(1, 25))
    new, ref = pair(draw(KINDS), draw(WEIGHTS))
    h = draw(arrays(float, n, elements=ENTRIES))
    shape = draw(st.one_of(st.just(n), st.integers(1, 4).map(lambda k: (n, k))))
    X = draw(arrays(float, shape, elements=ENTRIES))
    return new, ref, h, X


@settings(max_examples=300, deadline=None)
@given(evaluations())
def test_quadratic_potential_matches_the_closed_form(case):
    new, ref, h, X = case
    n = len(h)
    value, gradient = new.value_and_gradient(h)
    assert np.array_equal(gradient, ref.gradient(h))
    for name in ("hessian", "curvature"):
        assert np.array_equal(getattr(new, name)(h), getattr(ref, name)(h)), name
    assert np.array_equal(new.apply_curvature(h, X), ref.apply_curvature(h, X))
    assert np.array_equal(new.curvature_bound(n), ref.curvature_bound(n))
    assert new.curvature_gap_bound(h) == ref.curvature_gap_bound(h)
    want = ref.value(h)
    assert abs(new.value(h) - want) <= VALUE_RTOL * want + VALUE_ATOL
    assert value == new.value(h)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 25), KINDS, WEIGHTS, st.integers(0, 2**16),
       st.sampled_from(["gradient", "3mg", "memory:4", "full"]))
def test_solver_iterates_match_the_closed_form(n, kind, lam, seed, strategy):
    rng = np.random.default_rng(seed)
    quad = QuadraticData(random_spd(n, 1e3, rng), rng.standard_normal(n))
    h1 = rng.standard_normal(n)
    opts = SolveOptions(max_iters=60, grad_tol=1e-10)
    new, ref = pair(kind, lam)
    got = run_batch(ProblemInstance(quad, new), h1=h1, strategy=strategy, opts=opts)
    want = run_batch(ProblemInstance(quad, ref), h1=h1, strategy=strategy, opts=opts)
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert np.array_equal(a.h, b.h)
        assert a.grad_norm == b.grad_norm
        assert abs(a.obj - b.obj) <= VALUE_RTOL * (abs(b.obj) + ref.value(b.h)) + VALUE_ATOL

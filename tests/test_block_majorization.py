"""The block majorization check against the per-sample loop it replaced.

``reference_check_majorization`` keeps that loop: each sample point is
evaluated alone, with one surrogate, one objective and one curvature-gap
call.  The block check draws the same points and evaluates them together,
so every sample point and every curvature gap is the same, and only the
sums in the surrogate and the objective run in another order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mmsubspace.majorant
from mmsubspace.linalg import min_eig
from mmsubspace.majorant import MajorizationReport, build_majorant, check_majorization, eval_surrogate
from mmsubspace.model import ProblemInstance, QuadraticData, eval_hessian, eval_objective, majorant_curvature
from mmsubspace.problems import random_spd
from conftest import instance_grid
from test_scalar_domination import DenseOnlyPenalty, make_penalty

# The stated rounding tolerance of a margin.  Both sides add up a few dot
# products of length n whose terms are bounded by ``magnitude`` (below),
# each with error at most n * eps of that bound (eps = 2**-52), so their
# margins differ by less than 16 * n * eps of it.
MARGIN_ROUNDING = 16 * np.finfo(float).eps


def reference_check_majorization(p_n, m, samples=100, radius=None, seed=0):
    """The per-sample check: one point at a time, in the order drawn."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if radius is None:
        radius = 10.0 * (1.0 + float(np.linalg.norm(m.anchor)))
    rng = np.random.default_rng(seed)
    n = p_n.dim
    scale = 1.0 + abs(m.value_at_anchor)
    a_scale = max(float(np.linalg.norm(m.curvature)), 1.0)
    gap_tol = 1e-10 * a_scale

    def curvature_gap(h):
        bound = p_n.penalty.curvature_gap_bound(h)
        if bound >= -gap_tol:
            return bound
        A_h = p_n.quad.R + majorant_curvature(p_n, h)
        return min_eig(A_h - eval_hessian(p_n, h))

    min_margin = np.inf
    min_gap = curvature_gap(m.anchor)
    points = []
    for _ in range(samples):
        u = rng.standard_normal(n)
        nu = np.linalg.norm(u)
        if nu == 0.0:
            continue
        h = m.anchor + (radius * rng.random() ** (1.0 / n) / nu) * u
        points.append(h)
        min_margin = min(min_margin, eval_surrogate(m, h) - eval_objective(p_n, h))
        min_gap = min(min_gap, curvature_gap(h))
    min_margin, min_gap, tol = float(min_margin), float(min_gap), 1e-9 * scale
    report = MajorizationReport(samples, radius, min_margin, min_gap, tol,
                                margin_ok=min_margin >= -tol, curvature_ok=min_gap >= -gap_tol)
    return report, points


def magnitude(p, m, points):
    """A bound on every term summed in a margin, over the points."""
    q, g, a = p.quad, m.gradient_at_anchor, np.linalg.norm(m.curvature)
    worst = 0.0
    for h in points:
        d = np.linalg.norm(h - m.anchor)
        hn = np.linalg.norm(h)
        worst = max(worst, np.linalg.norm(g) * d + a * d * d + np.linalg.norm(q.R) * hn * hn
                    + np.linalg.norm(q.r) * hn + abs(p.penalty.value(h)))
    return 1.0 + abs(m.value_at_anchor) + worst


@st.composite
def checks(draw):
    n = draw(st.integers(1, 25))
    kind = draw(st.sampled_from(["zero", "tikhonov", "hyperbolic", "fair", "half-omega", "dense-only"]))
    l_kind = draw(st.sampled_from(["identity", "diff"]))
    lam, delta = draw(st.floats(0.0, 5.0)), draw(st.floats(1e-3, 10.0))
    if kind == "dense-only":
        penalty = DenseOnlyPenalty(make_penalty("hyperbolic", l_kind, n, lam, delta))
    else:
        penalty = make_penalty(kind, l_kind, n, lam, delta)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    p = ProblemInstance(QuadraticData(random_spd(n, 10.0, rng), rng.standard_normal(n)), penalty)
    scale = draw(st.sampled_from([1.0, 1e3, 1e8]))
    anchor = draw(st.one_of(st.just(np.zeros(n)),
                            arrays(float, n, elements=st.floats(-scale, scale, allow_nan=False))))
    radius = 10.0 ** draw(st.floats(-12.0, 3.0))
    return p, anchor, draw(st.integers(1, 30)), radius, draw(st.integers(0, 2**16)), l_kind


@settings(max_examples=300, deadline=None)
@given(checks())
def test_block_check_matches_the_per_sample_loop(case):
    p, anchor, samples, radius, seed, l_kind = case
    m = build_majorant(p, anchor)
    ref, points = reference_check_majorization(p, m, samples=samples, radius=radius, seed=seed)
    rep = check_majorization(p, m, samples=samples, radius=radius, seed=seed)
    rounding = MARGIN_ROUNDING * p.dim * magnitude(p, m, points)

    assert (rep.samples, rep.radius, rep.tolerance) == (ref.samples, ref.radius, ref.tolerance)
    assert abs(rep.min_margin - ref.min_margin) <= rounding
    if abs(ref.min_margin + ref.tolerance) > rounding:
        assert rep.margin_ok == ref.margin_ok
    assert rep.curvature_ok == ref.curvature_ok
    if l_kind == "identity" or p.dim == 1:
        assert np.array_equal(rep.min_curvature_gap, ref.min_curvature_gap)
    else:
        a_scale = max(float(np.linalg.norm(m.curvature)), 1.0)
        assert abs(rep.min_curvature_gap - ref.min_curvature_gap) <= 1e-12 * a_scale


@settings(max_examples=300, deadline=None)
@given(checks())
def test_block_hooks_equal_the_per_column_calls(case):
    p, anchor, samples, radius, seed, _ = case
    rng = np.random.default_rng(seed)
    # rows are the points, so each column of X is contiguous, as in the check
    X = (anchor + radius * rng.standard_normal((samples, p.dim))).T
    columns = [np.ascontiguousarray(x) for x in X.T]

    assert np.array_equal(p.penalty.column_values(X), [p.penalty.value(x) for x in columns])
    bound = p.penalty.curvature_gap_bound(X)
    per_column = [p.penalty.curvature_gap_bound(x) for x in columns]
    assert bound.shape == (samples,)
    assert np.array_equal(bound, per_column)
    if isinstance(p.penalty, DenseOnlyPenalty):  # no bound: every column takes the dense eigenvalue
        assert np.all(bound == -np.inf)


def test_the_block_holds_the_points_drawn_one_at_a_time(monkeypatch):
    blocks = []

    def recording(p, h):
        blocks.append(np.array(h))
        return eval_objective(p, h)

    monkeypatch.setattr(mmsubspace.majorant, "eval_objective", recording)
    for p in instance_grid(seed=7, dims=(1, 5, 20)):
        m = build_majorant(p, np.linspace(-2.0, 3.0, p.dim))
        blocks.clear()
        check_majorization(p, m, samples=20, seed=11)
        _, points = reference_check_majorization(p, m, samples=20, seed=11)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], np.array(points).T)

"""The solve loop multiplies by the majorant curvature; the dense matrix stays the reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mmsubspace.majorant
from mmsubspace.majorant import build_majorant
from mmsubspace.model import (
    FairPenalty,
    HyperbolicPenalty,
    ProblemInstance,
    QuadraticData,
    TikhonovPenalty,
    ZeroPenalty,
)
from mmsubspace.problems import random_spd
from mmsubspace.solver import SolveOptions, run_batch
from mmsubspace.verify import verify_trace


def first_difference(n):
    return np.eye(n - 1, n, 1) - np.eye(n - 1, n)


def make_penalty(kind, l_kind, n, lam, delta):
    if kind == "zero":
        return ZeroPenalty()
    if kind == "tikhonov":
        return TikhonovPenalty(lam)
    L = {"identity": None, "eye": np.eye(n), "diff": first_difference(n)}[l_kind]
    cls = HyperbolicPenalty if kind == "hyperbolic" else FairPenalty
    return cls(lam, delta, L=L)


def assert_product_matches(fast, dense, X):
    ref = dense @ X
    assert fast.shape == ref.shape
    assert np.linalg.norm(fast - ref) <= 1e-12 * np.linalg.norm(dense) * np.linalg.norm(X)


ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def products(draw):
    n = draw(st.integers(1, 25))
    kind = draw(st.sampled_from(["zero", "tikhonov", "hyperbolic", "fair"]))
    l_kind = draw(st.sampled_from(["identity", "eye", "diff"]))
    penalty = make_penalty(kind, l_kind, n, draw(st.floats(0.0, 5.0)), draw(st.floats(1e-3, 10.0)))
    h = draw(st.one_of(st.just(np.zeros(n)), arrays(float, n, elements=ENTRIES)))
    k = draw(st.integers(1, 4))
    X = draw(arrays(float, (n, k), elements=ENTRIES))
    X[:, draw(st.integers(0, k - 1))] = 0.0
    R = random_spd(n, 10.0, np.random.default_rng(draw(st.integers(0, 2**16))))
    return ProblemInstance(QuadraticData(R, np.zeros(n)), penalty), h, X


@settings(max_examples=150, deadline=None)
@given(products())
def test_apply_curvature_matches_dense(case):
    p, h, X = case
    B = p.penalty.curvature(h)
    assert_product_matches(p.penalty.apply_curvature(h, X), B, X)
    assert_product_matches(p.penalty.apply_curvature(h, X[:, 0]), B, X[:, 0])


@settings(max_examples=150, deadline=None)
@given(products())
def test_majorant_apply_matches_dense(case):
    p, h, X = case
    m = build_majorant(p, h)
    fast_block, fast_vec = m.apply(X), m.apply(X[:, 0])
    assert_product_matches(fast_block, m.curvature, X)
    assert_product_matches(fast_vec, m.curvature, X[:, 0])


@pytest.mark.parametrize("cls", [HyperbolicPenalty, FairPenalty])
def test_explicit_identity_L_is_the_identity(cls):
    n, lam = 6, 0.7
    h = np.linspace(-2.0, 3.0, n)
    given_eye = cls(lam, 0.4, L=np.eye(n))
    assert given_eye.L is None
    assert given_eye.to_dict()["L"] == "identity"
    # the dense forms are bitwise those of the general formula with L = I
    I = np.eye(n)
    assert np.array_equal(given_eye.hessian(h), lam * (I * given_eye._ddphi(h)) @ I)
    assert np.array_equal(given_eye.curvature(h), lam * (I * given_eye._omega(h)) @ I)
    wmax = given_eye._omega_max()
    tau = max(1e-12, 1e-12 * lam * wmax)
    assert np.array_equal(given_eye.curvature_bound(n), lam * wmax * (I @ I) + tau * I)


def difference_problem(n=30, seed=5):
    rng = np.random.default_rng(seed)
    R = random_spd(n, 10.0, rng)
    r = 3.0 * rng.standard_normal(n)
    return ProblemInstance(QuadraticData(R, r), HyperbolicPenalty(0.5, 0.1, L=first_difference(n)))


def test_difference_L_solve_matches_naive_dense_loop():
    """A from-scratch dense MM loop on the formulas reproduces the matrix-free solver."""
    p = difference_problem()
    R, r, L, lam, delta = p.quad.R, p.quad.r, p.penalty.L, p.penalty.lam, p.penalty.delta
    h = np.zeros(p.dim)
    h_prev = None
    naive = [h.copy()]
    for _ in range(15):
        t = L @ h
        g = R @ h - r + lam * L.T @ (t / np.sqrt(delta**2 + t**2))
        A = R + lam * L.T @ np.diag(1.0 / np.sqrt(delta**2 + t**2)) @ L
        cols = [-g, h] if h_prev is None else [-g, h, h - h_prev]
        D = np.column_stack(cols)
        s = np.linalg.norm(D, axis=0)
        s[s == 0] = 1.0
        Ds = D / s
        u = -np.linalg.pinv(Ds.T @ A @ Ds, rcond=1e-12) @ (Ds.T @ g)
        h_prev, h = h, h + Ds @ u
        naive.append(h.copy())
    trace = run_batch(p, strategy="3mg", opts=SolveOptions(max_iters=15, grad_tol=1e-300))
    assert len(trace.records) == len(naive)
    for rec, hn in zip(trace.records, naive):
        np.testing.assert_allclose(rec.h, hn, rtol=1e-9, atol=1e-12)


def test_difference_L_certified_run_takes_the_plain_steps_and_verifies():
    p = difference_problem()
    plain = run_batch(p, strategy="3mg", opts=SolveOptions(max_iters=400, grad_tol=1e-9))
    certified = run_batch(p, strategy="3mg", opts=SolveOptions(max_iters=400, grad_tol=1e-9, certify=True))
    assert plain.converged and certified.converged
    assert len(plain.records) == len(certified.records)
    for a, b in zip(plain.records, certified.records):
        assert a.h.tobytes() == b.h.tobytes()
        assert (a.obj, a.grad_norm, a.step_norm, a.c_norm) == (b.obj, b.grad_norm, b.step_norm, b.c_norm)
    report = verify_trace(p, certified)
    assert report.passed, report.table()


def test_plain_solve_never_forms_the_dense_curvature(monkeypatch):
    def refuse(p, h):
        raise AssertionError("dense majorant curvature built in a plain solve")

    monkeypatch.setattr(mmsubspace.majorant, "majorant_curvature", refuse)
    trace = run_batch(difference_problem(), strategy="3mg", opts=SolveOptions(max_iters=400, grad_tol=1e-9))
    assert trace.converged

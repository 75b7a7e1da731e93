"""A first-difference ``L`` is applied by slicing, bit for bit the dense product.

``Penalty`` detects an ``L`` exactly equal to the first-difference operator
and computes ``L x`` and ``L' y`` from slices.  The dense ``L @ x`` and
``L.T @ y`` are the reference: each entry is one difference of two entries
on both paths, so the results must agree in every bit, signed zeros
included.  Anything short of an exact match keeps the dense product.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmsubspace.cli import build_stream
from mmsubspace.errors import InputError
from mmsubspace.model import (
    FairPenalty, HyperbolicPenalty, ProblemInstance, QuadraticData, load_problem, penalty_from_dict,
    problem_from_dict, problem_to_dict, save_problem,
)
from mmsubspace.solver import SolveOptions, run_batch, run_online


def first_difference(n):
    return np.eye(n - 1, n, 1) - np.eye(n - 1, n)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(bits(a), bits(b))


def deconvolution(n, seed=0):
    """A small 1-D deconvolution: R = H'H + 1e-2 I with H a Gaussian blur, first differences penalized."""
    i = np.arange(n)
    H = np.exp(-0.5 * ((i[:, None] - i[None, :]) / 2.0) ** 2)
    H /= H.sum(axis=1, keepdims=True)
    x = np.where(i < n // 3, 0.0, np.where(i < 2 * n // 3, 1.0, -0.5))
    y = H @ x + 0.01 * np.random.default_rng(seed).standard_normal(n)
    R = H.T @ H + 1e-2 * np.eye(n)
    return ProblemInstance(QuadraticData(0.5 * (R + R.T), H.T @ y),
                           HyperbolicPenalty(0.05, 0.01, L=first_difference(n)))


def dense_twin(p):
    """``p`` with the same dense ``L`` but the slicing switched off."""
    penalty = HyperbolicPenalty(p.penalty.lam, p.penalty.delta, L=p.penalty.L)
    penalty._first_diff = False
    return ProblemInstance(p.quad, penalty)


# zeros of both signs, subnormals, and magnitudes up to 1e300
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300]),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
)


@st.composite
def operands(draw):
    n = draw(st.integers(2, 60))
    cols = draw(st.sampled_from([None, 1, 3, 4]))
    shape = (n,) if cols is None else (n, cols)
    x = draw(arrays(float, shape, elements=ENTRIES))
    y = draw(arrays(float, (n - 1, *shape[1:]), elements=ENTRIES))
    if cols is not None and draw(st.booleans()):
        x, y = np.asfortranarray(x), np.asfortranarray(y)
    return n, x, y


@settings(max_examples=400, deadline=None)
@given(operands())
def test_sliced_products_equal_the_dense_products_bitwise(case):
    n, x, y = case
    L = first_difference(n)
    penalty = FairPenalty(0.7, 0.3, L=L)
    assert penalty._first_diff and penalty.L is L
    assert_bitwise(penalty._L_times(x), L @ x)
    assert_bitwise(penalty._Lt_times(y), L.T @ y)


def _near_misses(n):
    L = first_difference(n)
    ulp = L.copy()
    ulp[n // 2, n // 2 + 1] = np.nextafter(1.0, 2.0)
    extra = L.copy()
    extra[0, n - 1] = 1e-3
    nan = L.copy()
    nan[n - 2, 0] = np.nan
    square = np.eye(n, n, 1) - np.eye(n)
    scaled = L * np.linspace(1.0, 2.0, n - 1)[:, None]
    return {"one-ulp": ulp, "extra-nonzero": extra, "nan": nan, "square": square, "row-scaled": scaled}


@pytest.mark.parametrize("case", ["one-ulp", "extra-nonzero", "nan", "square", "row-scaled"])
def test_an_operator_that_is_not_exactly_the_difference_stays_dense(case):
    n = 7
    L = _near_misses(n)[case]
    penalty = HyperbolicPenalty(0.5, 0.2, L=L)
    assert not penalty._first_diff
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((n, 3)), rng.standard_normal((L.shape[0], 3))
    np.testing.assert_array_equal(penalty._L_times(x), L @ x)
    np.testing.assert_array_equal(penalty._Lt_times(y), L.T @ y)
    assert penalty.to_dict()["L"] != {"diff": 1}


@pytest.mark.parametrize("n", [2, 3, 60])
def test_the_difference_operators_squared_norm_is_2n_minus_2(n):
    L = first_difference(n)
    penalty = HyperbolicPenalty(0.5, 0.2, L=L)
    assert penalty._L_fro2 == 2 * (n - 1) == float(np.sum(L * L))


def test_detecting_the_difference_operator_allocates_nothing_of_its_size():
    n = 500
    L = first_difference(n)
    tracemalloc.start()
    try:
        penalty = HyperbolicPenalty(0.05, 0.01, L=L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert penalty._first_diff and penalty.L is L
    assert peak < 100_000, f"constructing the penalty peaked at {peak} bytes; L alone is {L.nbytes}"


def _trace_text(trace):
    return json.dumps(trace.as_dict())


def test_a_batch_solve_slices_to_the_dense_trace_bitwise():
    p = deconvolution(40)
    opts = SolveOptions(max_iters=300, grad_tol=1e-9)
    sliced = run_batch(p, None, "3mg", opts)
    assert len(sliced.records) > 20
    assert _trace_text(sliced) == _trace_text(run_batch(dense_twin(p), None, "3mg", opts))
    certified = SolveOptions(max_iters=25, grad_tol=1e-9, certify=True)
    assert _trace_text(run_batch(p, None, "3mg", certified)) == \
        _trace_text(run_batch(dense_twin(p), None, "3mg", certified))


def test_an_online_solve_slices_to_the_dense_trace_bitwise():
    p = deconvolution(30, seed=2)
    opts = SolveOptions(max_iters=60, grad_tol=1e-9, certify=True)
    sliced = run_online(build_stream("geometric:0.9", p, 4), None, "3mg", opts)
    dense = run_online(build_stream("geometric:0.9", dense_twin(p), 4), None, "3mg", opts)
    assert _trace_text(sliced) == _trace_text(dense)


def test_the_file_form_builds_the_dense_difference_operator():
    penalty = penalty_from_dict({"kind": "hyperbolic", "lambda": 0.5, "delta": 0.2, "L": {"diff": 1}}, 9)
    assert penalty._first_diff
    assert_bitwise(penalty.L, first_difference(9))
    assert penalty.to_dict()["L"] == {"diff": 1}


@pytest.mark.parametrize("L, dim", [({"diff": 2}, 5), ({"diff": 0}, 5), ({"diff": 1, "scale": 2}, 5), ({}, 5),
                                    ({"diff": 1}, 1)],
                         ids=["second-order", "order-0", "extra-key", "empty", "dim-1"])
def test_a_difference_form_other_than_first_order_is_an_input_error(L, dim):
    with pytest.raises(InputError, match="'penalty.L'"):
        penalty_from_dict({"kind": "fair", "L": L}, dim)


def test_a_problem_round_trips_through_the_file_form(tmp_path):
    p = deconvolution(25)
    d = problem_to_dict(p)
    assert d["penalty"]["L"] == {"diff": 1}
    path = tmp_path / "p.json"
    save_problem(p, path)
    q = load_problem(path)
    assert problem_to_dict(q) == d
    assert_bitwise(q.penalty.L, p.penalty.L)
    X = np.random.default_rng(3).standard_normal((25, 4))
    for a, b in [(q.penalty._L_times(X), p.penalty._L_times(X)),
                 (q.penalty.apply_curvature(X[:, 0], X), p.penalty.apply_curvature(X[:, 0], X)),
                 (q.penalty.value_and_gradient(X[:, 1])[1], p.penalty.value_and_gradient(X[:, 1])[1])]:
        assert_bitwise(a, b)
    # the dense list form of the same operator loads to the same penalty
    d["penalty"]["L"] = first_difference(25).tolist()
    dense_file = problem_from_dict(d)
    assert dense_file.penalty._first_diff and problem_to_dict(dense_file)["penalty"]["L"] == {"diff": 1}

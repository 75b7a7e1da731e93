"""Subnormal entries of R and L are stored as 0.0, and nothing else moves.

A dense product that reads a subnormal operand runs several times slower.
The flush changes each stored entry by less than ``TINY``, so it bounds the
change of every product, and on a realistic operator, whose rows carry
normal entries, the products stay bitwise the same.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace.linalg import TINY, flush_subnormals
from mmsubspace.model import FairPenalty, HyperbolicPenalty, QuadraticData

SMALLEST = 5e-324  # 2**-1074, the smallest positive subnormal


def _n_subnormal(M) -> int:
    return int(np.count_nonzero((np.abs(M) < TINY) & (M != 0.0)))


def test_entries_below_tiny_are_flushed_and_tiny_is_kept():
    R = np.eye(4)
    for (i, j), v in {(0, 1): TINY / 2, (0, 2): TINY, (0, 3): -SMALLEST, (1, 2): -TINY, (1, 3): -0.0,
                      (2, 3): np.nextafter(TINY, 0.0)}.items():
        R[i, j] = R[j, i] = v
    stored = QuadraticData(R, np.zeros(4)).R
    expected = R.copy()
    for i, j in [(0, 1), (0, 3), (2, 3)]:
        expected[i, j] = expected[j, i] = 0.0
    assert np.array_equal(stored, expected)
    assert stored[0, 2] == TINY and stored[1, 2] == -TINY
    assert np.signbit(stored[1, 3])  # a zero keeps its sign
    assert _n_subnormal(stored) == 0


def test_the_caller_array_is_left_alone():
    R = np.diag([1.0, 2.0])
    R[0, 1] = R[1, 0] = TINY / 4
    before = R.copy()
    q = QuadraticData(R, np.ones(2))
    assert q.R is not R and q.R[0, 1] == 0.0
    assert np.array_equal(R, before)


def test_an_array_with_nothing_to_flush_is_stored_as_given():
    R = np.array([[2.0, TINY], [TINY, 3.0]])
    r = np.array([1.0, SMALLEST])
    q = QuadraticData(R, r)
    assert q.R is R
    assert q.r[1] == SMALLEST  # r is stored exactly
    M = np.zeros((3, 3))
    assert flush_subnormals(M) is M


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_the_flush_moves_a_product_by_at_most_tiny_times_the_l1_norm(data, n):
    # integer-valued data keeps the normal part of each product exact, so
    # every difference comes from the injected subnormal entries
    ints = st.integers(-4, 4)
    A = np.array(data.draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)),
                 dtype=float)
    R = np.triu(A) + np.triu(A, 1).T + 10.0 * np.eye(n)
    cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                         st.integers(-(2**52 - 1), 2**52 - 1).filter(bool)), max_size=12))
    for i, j, k in cells:
        R[i, j] = R[j, i] = k * SMALLEST
    x = np.array(data.draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)), dtype=float)
    stored = QuadraticData(R, np.zeros(n)).R
    assert _n_subnormal(stored) == 0
    assert np.array_equal(stored[stored != 0.0], R[stored != 0.0])
    assert np.all(np.abs(stored @ x - R @ x) <= TINY * np.abs(x).sum())


def _blur_gram(n: int) -> np.ndarray:
    """``R = H'H + 1e-2 I`` for a row-normalized Gaussian blur ``H`` of width 2, symmetrized."""
    i = np.arange(n)
    H = np.exp(-0.5 * ((i[:, None] - i[None, :]) / 2.0) ** 2)
    H /= H.sum(axis=1, keepdims=True)
    R = H.T @ H + 1e-2 * np.eye(n)
    return 0.5 * (R + R.T)


def test_a_blur_gram_loses_its_subnormals_and_keeps_its_products():
    R = _blur_gram(150)
    assert _n_subnormal(R) == 170  # the blur's tails underflow
    stored = QuadraticData(R, np.zeros(150)).R
    assert _n_subnormal(stored) == 0
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 4, 8):
        X = rng.standard_normal((150, k))
        assert np.array_equal(stored @ X, R @ X)
    h = rng.standard_normal(150)
    assert np.array_equal(stored @ h, R @ h)


def test_a_penalty_operator_is_flushed_the_same_way():
    L = np.eye(3, 4, 1) - np.eye(3, 4)
    L[0, 3] = TINY / 8
    L[2, 0] = TINY
    before = L.copy()
    for penalty in (HyperbolicPenalty(1.0, 0.5, L=L), FairPenalty(1.0, 0.5, L=L)):
        assert penalty.L[0, 3] == 0.0 and penalty.L[2, 0] == TINY
        assert np.array_equal(penalty.L[:, :3], L[:, :3]) and _n_subnormal(penalty.L) == 0
    assert np.array_equal(L, before)
    clean = np.eye(3, 4, 1) - np.eye(3, 4)
    assert HyperbolicPenalty(1.0, 0.5, L=clean).L is clean


def test_the_flush_matches_the_magnitude_test_bitwise():
    # the window compares give what |x| < TINY and x != 0 gave, NaN and signed zeros included
    M = np.array([[np.nan, 0.0, -0.0, TINY / 2, -TINY / 2],
                  [TINY, -TINY, SMALLEST, -SMALLEST, np.inf],
                  [-np.inf, 1.0, -1e-300, np.nextafter(TINY, 0.0), -np.nextafter(TINY, 0.0)]])
    reference = np.where((np.abs(M) < TINY) & (M != 0.0), 0.0, M)
    flushed = flush_subnormals(M)
    assert np.array_equal(np.signbit(flushed), np.signbit(reference))
    assert np.array_equal(flushed, reference, equal_nan=True)


def test_the_flush_allocates_no_float_temporary():
    # at most two boolean arrays of n^2 bytes, 0.5 MB at n = 500; |M| alone would be 2 MB
    R = 2.0 * np.eye(500)
    flush_subnormals(R)
    tracemalloc.start()
    try:
        assert flush_subnormals(R) is R
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6e6, peak

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmsubspace.errors import InputError
from mmsubspace.linalg import as_vector
from mmsubspace.subspace import (
    DirectionMatrix,
    SubspaceStrategy,
    build_subspace,
    history_window,
    parse_strategy,
)
from conftest import verify_span


def test_full_space_is_identity():
    D = build_subspace(parse_strategy("full"), np.ones(3), np.zeros(3))
    np.testing.assert_array_equal(D.cols, np.eye(3))


def test_gradient_plus_iterate_columns():
    D = build_subspace(parse_strategy("gradient"), np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    np.testing.assert_array_equal(D.cols, np.array([[-1.0, 0.0], [0.0, 2.0]]))


def test_3mg_columns():
    D = build_subspace(
        parse_strategy("3mg"),
        np.array([1.0, 4.0]),
        np.array([1.0, 1.0]),
        history=[np.array([2.0, 0.0])],
    )
    np.testing.assert_array_equal(D.cols, np.array([[-1.0, 1.0, -1.0], [-4.0, 1.0, 1.0]]))


def test_3mg_first_iteration_falls_back():
    D = build_subspace(parse_strategy("3mg"), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert D.fallback
    assert D.n_cols == 2


def test_memory_strategy_collects_diffs():
    hs = [np.array([3.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 0.0])]
    D = build_subspace(parse_strategy("memory:4"), np.array([0.0, 1.0]), np.array([4.0, 0.0]), hs)
    assert D.n_cols == 4  # -g, h, and two difference vectors
    np.testing.assert_array_equal(D.cols[:, 2], [1.0, 0.0])


def test_parse_strategy_errors():
    with pytest.raises(InputError):
        parse_strategy("newton")
    with pytest.raises(InputError):
        SubspaceStrategy("memory", memory=1)


def test_verify_span_cases():
    assert verify_span(DirectionMatrix(np.eye(3)), np.array([1.0, 2.0, 3.0]))
    assert not verify_span(DirectionMatrix(np.array([[1.0], [0.0]])), np.array([0.0, 1.0]))
    D = DirectionMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert verify_span(D, np.array([3.0, 2.0]))


@settings(max_examples=40, deadline=None)
@given(
    g=arrays(float, 4, elements=st.floats(-10, 10, allow_nan=False)),
    h=arrays(float, 4, elements=st.floats(-10, 10, allow_nan=False)),
    hp=arrays(float, 4, elements=st.floats(-10, 10, allow_nan=False)),
    kind=st.sampled_from(["gradient", "3mg", "full", "memory:5"]),
)
def test_span_always_contains_gradient_and_iterate(g, h, hp, kind):
    D = build_subspace(parse_strategy(kind), g, h, history=[hp])
    assert verify_span(D, g)
    assert verify_span(D, h)


def test_zero_iterate_does_not_crash():
    D = build_subspace(parse_strategy("3mg"), np.array([1.0, 1.0]), np.zeros(2), [np.zeros(2)])
    assert D.n_cols == 3
    assert verify_span(D, np.array([1.0, 1.0]))


def reference_build_subspace(strategy, grad, h_n, history=()):
    """The three-branch form of ``build_subspace``: one branch each for
    gradient, 3mg and memory:m, kept as the reference the single memory rule
    must match bitwise."""
    grad = as_vector(grad)
    h_n = as_vector(h_n, len(grad))
    n = len(h_n)

    if strategy.kind == "full":
        return DirectionMatrix(np.eye(n))

    cols = [-grad, h_n]
    fallback = False
    if strategy.kind == "gradient":
        pass
    elif strategy.kind == "3mg":
        if history:
            cols.append(h_n - as_vector(history[0], n))
        else:
            fallback = True
    else:  # memory
        n_diffs = strategy.memory - 2
        chain = [h_n] + [as_vector(h, n) for h in history]
        added = 0
        for prev, older in zip(chain, chain[1:]):
            if added >= n_diffs:
                break
            cols.append(prev - older)
            added += 1
        if added == 0 and n_diffs > 0:
            fallback = True
    return DirectionMatrix(np.column_stack(cols), fallback=fallback)


def reference_history_window(kind: str) -> int:
    """Past iterates kept: ``memory - 2`` for memory:m, else the last one."""
    return max(1, int(kind.split(":")[1]) - 2) if kind.startswith("memory:") else 1


ALL_KINDS = ["gradient", "3mg", *(f"memory:{m}" for m in range(2, 7)), "full"]
# finite entries from subnormal to huge, signed zeros included
ENTRY = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


def loop_history(history, window):
    """``history`` as the solve and verify loops hold it: a bounded deque,
    filled most recent first."""
    kept = deque(maxlen=window)
    for h in reversed(history):
        kept.appendleft(h)
    return kept


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(ALL_KINDS), dim=st.integers(1, 6), depth=st.integers(0, 6))
def test_one_memory_rule_matches_the_three_branch_builder(data, kind, dim, depth):
    vec = arrays(float, dim, elements=ENTRY)
    g, h = data.draw(vec), data.draw(vec)
    history = [data.draw(vec) for _ in range(depth)]
    strategy = parse_strategy(kind)
    window = history_window(strategy)
    assert window == reference_history_window(kind)
    with np.errstate(over="ignore"):  # differences of huge entries may overflow alike
        want = reference_build_subspace(strategy, g, h, history)
        for held in (list(history), deque(history), loop_history(history, window)):
            got = build_subspace(strategy, g, h, held)
            assert got.fallback == want.fallback
            assert got.cols.shape == want.cols.shape
            assert got.cols.tobytes() == want.cols.tobytes()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmsubspace.errors import InputError
from mmsubspace.subspace import (
    DirectionMatrix,
    SubspaceStrategy,
    build_subspace,
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

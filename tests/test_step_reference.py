"""The subspace step and its helpers against their plain numpy forms, bitwise.

``reference_psd_pinv``, ``reference_column_scaled`` and
``reference_subspace_step`` keep the step as it was first written, one numpy
call per operation: ``np.linalg.norm``, two ``np.where`` calls and
``np.column_stack``.  The package's versions skip numpy's dispatch and
temporaries but must round every entry the same way, so the coefficients,
the next iterate, ``A @ anchor``, the column scales and the pseudo-inverse
are compared byte for byte, signed zeros included.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmsubspace.errors import NumericError
from mmsubspace.linalg import PINV_RCOND, psd_pinv
from mmsubspace.majorant import MajorantAtPoint
from mmsubspace.model import HyperbolicPenalty, ProblemInstance, QuadraticData, ZeroPenalty
from mmsubspace.solver import subspace_step
from mmsubspace.subspace import DirectionMatrix, column_scaled


def reference_psd_pinv(M):
    if not np.all(np.isfinite(M)):
        raise NumericError("non-finite entries in matrix passed to psd_pinv")
    w, U = np.linalg.eigh(0.5 * (M + M.T))
    wmax = max(float(w[-1]), 0.0)
    cutoff = PINV_RCOND * wmax
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (U * inv) @ U.T


def reference_column_scaled(cols):
    s = np.linalg.norm(cols, axis=0)
    s = np.where(s > 0.0, s, 1.0)
    return cols / s, s


def reference_subspace_step(m, D):
    if not (np.all(np.isfinite(m.gradient_at_anchor)) and np.all(np.isfinite(D.cols))):
        raise NumericError("non-finite inputs to subspace_step")
    cols, scales = reference_column_scaled(D.cols)
    AX = m.apply(np.column_stack([cols, m.anchor]))
    M = cols.T @ AX[:, :-1]
    u = -(reference_psd_pinv(M) @ (cols.T @ m.gradient_at_anchor))
    h_next = m.anchor + cols @ u
    return u / scales, h_next, AX[:, -1]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def signed_zeros(shape, rng):
    return np.copysign(np.zeros(shape), rng.standard_normal(shape))


def draw_columns(data, rng, n, k):
    """``k`` columns of length ``n``, each scaled by 10**e for e in [-150, 150],
    with zero columns, duplicate columns and scattered signed zeros drawn too."""
    cols = rng.standard_normal((n, k))
    cols *= 10.0 ** np.array([data.draw(st.floats(-150, 150)) for _ in range(k)])
    for j in range(k):
        kind = data.draw(st.sampled_from(["plain", "zero", "duplicate", "holes"]))
        if kind == "zero":
            cols[:, j] = signed_zeros(n, rng)
        elif kind == "duplicate" and j > 0:
            cols[:, j] = cols[:, data.draw(st.integers(0, j - 1))]
        elif kind == "holes":
            holes = rng.random(n) < 0.5
            cols[holes, j] = signed_zeros(int(holes.sum()), rng)
    return cols


def draw_majorant(data, rng, n):
    """A majorant whose curvature may be indefinite, anchored at zero or not."""
    B = rng.standard_normal((n, n))
    R = B @ B.T if data.draw(st.booleans()) else B + B.T
    L = data.draw(st.sampled_from(["none", "identity", "diff", "dense"] if n > 1 else ["none", "identity"]))
    if L == "none":
        penalty = ZeroPenalty()
    else:
        L_mat = {"identity": None, "diff": np.eye(n - 1, n, 1) - np.eye(n - 1, n),
                 "dense": rng.standard_normal((max(n - 1, 1), n))}[L]
        penalty = HyperbolicPenalty(data.draw(st.floats(1e-3, 10.0)), data.draw(st.floats(1e-2, 2.0)), L=L_mat)
    p = ProblemInstance(QuadraticData(R, rng.standard_normal(n)), penalty)
    anchor = signed_zeros(n, rng) if data.draw(st.booleans()) else rng.standard_normal(n)
    g = rng.standard_normal(n) * 10.0 ** data.draw(st.floats(-8, 8))
    return MajorantAtPoint(anchor, 0.0, g, p)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_the_step_matches_its_plain_numpy_form_bitwise(data, n, k, seed):
    rng = np.random.default_rng(seed)
    m = draw_majorant(data, rng, n)
    D = DirectionMatrix(draw_columns(data, rng, n, k))

    want_cols, want_s = reference_column_scaled(D.cols)
    cols, s = column_scaled(D.cols)
    assert same_bits(cols, want_cols) and same_bits(s, want_s)

    M = want_cols.T @ m.apply(want_cols)
    assert same_bits(psd_pinv(M), reference_psd_pinv(M))

    for got, want in zip(subspace_step(m, D), reference_subspace_step(m, D)):
        assert same_bits(got, want)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_psd_pinv_matches_its_plain_numpy_form_on_any_spectrum(data, n, seed):
    """Rank-deficient, indefinite and slightly asymmetric matrices, whose
    eigenvalues span 1e-150 to 1e150 in magnitude, zeros and repeats included."""
    rng = np.random.default_rng(seed)
    w = np.array([data.draw(st.sampled_from([0.0, -0.0, 1.0, -1.0])) * 10.0 ** data.draw(st.floats(-150, 150))
                  for _ in range(n)])
    if n > 1 and data.draw(st.booleans()):
        w[1] = w[0]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = (Q * w) @ Q.T
    if data.draw(st.booleans()):
        M += 1e-14 * np.max(np.abs(w)) * rng.standard_normal((n, n))
    assert same_bits(psd_pinv(M), reference_psd_pinv(M))


@settings(max_examples=300, deadline=None)
@given(v=arrays(float, st.integers(1, 60), elements=st.floats(-1e300, 1e300, allow_nan=False)))
def test_a_vector_norm_is_the_root_of_its_dot_product(v):
    """``math.sqrt(v @ v)``, which the solve loop takes for each norm, is ``np.linalg.norm(v)``."""
    with np.errstate(over="ignore"):  # a sum of squares beyond the float range is inf in both
        assert math.sqrt(v @ v) == float(np.linalg.norm(v))


def test_psd_pinv_names_an_overflowing_symmetric_part():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflows the float range"):
            psd_pinv(np.array([[1e308, 0.0], [0.0, 1.0]]))
        with pytest.raises(NumericError, match="non-finite"):
            psd_pinv(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(NumericError, match="non-finite"):
            psd_pinv(np.array([[1.0, np.nan], [0.0, 1.0]]))


def outcome(f, *args):
    """``f(*args)`` under ``warnings.simplefilter("error")``: the bytes of each
    result, or the class and message of the NumericError or RuntimeWarning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = f(*args)
        except (NumericError, RuntimeWarning) as exc:
            return type(exc).__name__, str(exc)
    return tuple(np.asarray(o).tobytes() for o in (out if isinstance(out, tuple) else (out,)))


# the reference's overflow in M + M', which psd_pinv names
OVERFLOWS = {("RuntimeWarning", "overflow encountered in add"):
             ("NumericError", "the symmetric part M + M' of the matrix passed to psd_pinv overflows the float range")}


def same_outcome(got, want) -> bool:
    return got == OVERFLOWS.get(want, want)


def spoil(data, rng, a):
    """``a`` with a few entries set to inf, -inf, NaN or a finite value above
    1e154, whose square overflows."""
    a = np.array(a, dtype=float)
    for _ in range(data.draw(st.integers(0, 3))):
        value = data.draw(st.sampled_from([np.inf, -np.inf, np.nan, 2e154, -1e200, 1.7e308]))
        a.flat[rng.integers(a.size)] = value
    return a


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_the_step_raises_as_its_plain_numpy_form_on_entries_beyond_the_float_range(data, n, k, seed):
    """A gradient or column entry that is not finite, or whose square overflows:
    the step ends as the reference does, with the same named NumericError,
    the same warning, or the same bits."""
    rng = np.random.default_rng(seed)
    m = draw_majorant(data, rng, n)
    m = MajorantAtPoint(m.anchor, 0.0, spoil(data, rng, m.gradient_at_anchor), m.problem)
    D = DirectionMatrix(spoil(data, rng, draw_columns(data, rng, n, k)))
    want = outcome(reference_subspace_step, m, D)
    assert same_outcome(outcome(subspace_step, m, D), want), want


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_psd_pinv_raises_as_its_plain_numpy_form_on_entries_beyond_the_float_range(data, n, seed):
    """A matrix with non-finite entries, or finite ones above 1e154, or a whole
    matrix at that scale: the same named NumericError, or the same bits."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    if data.draw(st.booleans()):
        M = M + M.T
    M *= 10.0 ** data.draw(st.sampled_from([0.0, 150.0, 154.5, 200.0, 307.0]))
    M = spoil(data, rng, M)
    want = outcome(reference_psd_pinv, M)
    assert same_outcome(outcome(psd_pinv, M), want), want

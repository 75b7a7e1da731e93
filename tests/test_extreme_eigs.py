"""``extreme_eigs`` reduces to tridiagonal form once; ``np.linalg.eigvalsh`` stays the reference.

From ``BISECT_MIN_DIM`` on it bisects for the two extremes, below it takes the
tridiagonal spectrum, and the drawn sizes cover both sides.

Both find each eigenvalue of the symmetric part to within a small multiple
of ``n ulp`` of the largest magnitude in the spectrum, so they agree to
``4 n eps max|lambda|``.  Over 400 drawn cases the largest gap seen was
0.44 of ``n eps max|lambda|``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace import linalg
from mmsubspace.errors import NumericError
from mmsubspace.problems import random_spd

EPS = np.finfo(float).eps


def assert_matches_eigvalsh(M):
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    lo, hi = linalg.extreme_eigs(M)
    bound = 4.0 * M.shape[0] * EPS * np.abs(w).max()
    assert abs(lo - w[0]) <= bound, (lo, w[0], bound)
    assert abs(hi - w[-1]) <= bound, (hi, w[-1], bound)


@st.composite
def symmetric_matrices(draw):
    """SPD, indefinite, negative definite or diagonal; cond up to 1e8, scale 1e-100 to 1e100."""
    n = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["spd", "indefinite", "negative", "diagonal"]))
    eigs = np.geomspace(1.0, 10.0 ** draw(st.floats(0.0, 8.0)), n) * 10.0 ** draw(st.floats(-100.0, 100.0))
    if kind == "indefinite":
        eigs *= rng.choice([-1.0, 1.0], n)
    elif kind == "negative":
        eigs = -eigs
    if kind == "diagonal":
        M = np.diag(rng.permutation(eigs))
    else:
        Q = linalg.random_orthogonal(n, rng)
        M = (Q * eigs) @ Q.T  # symmetric only to rounding; extreme_eigs takes the symmetric part
    return np.asfortranarray(M) if draw(st.booleans()) else M


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_extreme_eigs_match_eigvalsh(M):
    M0 = M.copy()
    assert_matches_eigvalsh(M)
    assert np.array_equal(M, M0)  # sytrd overwrites the symmetric part, never the input


def test_a_single_entry_is_its_own_spectrum():
    assert linalg.extreme_eigs(np.array([[-3.5]])) == (-3.5, -3.5)


def test_a_tight_cluster_falls_back_to_sterf(monkeypatch):
    # bisection for the largest eigenvalue gives up on this cond-1 matrix (info 2):
    # its Gershgorin interval is too narrow for the cluster
    M = random_spd(53, 1.0, np.random.default_rng(60))
    calls = []
    sterf = linalg._sterf
    monkeypatch.setattr(linalg, "_sterf", lambda *a, **k: calls.append(1) or sterf(*a, **k))
    assert_matches_eigvalsh(M)
    assert len(calls) == 1


def _non_finite(bad):
    M = random_spd(5, 10.0, np.random.default_rng(2))
    M[1, 3] = bad
    return M


@pytest.mark.parametrize("M", [
    _non_finite(np.nan),
    _non_finite(np.inf),
    _non_finite(-np.inf),
    np.array([[1.0, 1.5e308], [1.5e308, 1.0]]),  # finite, but M + M' overflows
], ids=["nan", "inf", "-inf", "overflow"])
def test_a_non_finite_symmetric_part_raises_numeric_error_without_a_warning(M):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            linalg.extreme_eigs(M)

"""``check_symmetric`` is scale-free: a matrix whose squares underflow is still
tested for symmetry, and a symmetric one is accepted at every scale at which
its sum of squares is finite."""

import numpy as np
import pytest

from mmsubspace.errors import InputError
from mmsubspace.linalg import check_symmetric
from mmsubspace.model import QuadraticData

UPPER = np.array([[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("M", [np.array([[1e-170, 1e-170], [0.0, 1e-170]]), 2.0 ** -960 * UPPER],
                         ids=["1e-170", "2^-960"])
def test_a_tiny_asymmetric_matrix_is_refused(M):
    with pytest.raises(InputError, match="R not symmetric"):
        QuadraticData(M, np.ones(2))
    with pytest.raises(InputError, match="R not symmetric"):
        QuadraticData(UPPER, np.ones(2))  # as at scale 1


@pytest.mark.parametrize("e", range(-1000, 501, 50))
def test_a_symmetric_matrix_is_accepted_at_every_scale(e):
    rng = np.random.default_rng(e + 1000)
    B = rng.standard_normal((5, 5))
    M = (B + B.T) * 2.0 ** e
    assert check_symmetric(M, name="R") is M
    assert check_symmetric(np.diag(np.diag(M))) is not None


def test_one_ulp_of_asymmetry_is_accepted_at_any_scale():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 4))
    for e in (-1000, -700, 0, 400):
        M = (B + B.T) * 2.0 ** e
        M[0, 1] = np.nextafter(M[0, 1], np.inf)
        check_symmetric(M)

"""Geometric snapshots skip the subnormal flush only where it would find nothing.

``GeometricPerturbationStream.instance`` builds ``R + w E`` with
``w = rho^n`` and flushes its subnormal entries, unless the rule of the
``stream`` module proves there are none: the smallest nonzero magnitude of
``fl(w E)`` reaches ``2^-968``, R being stored flushed.  Each snapshot must be
bitwise the flushed one, ``QuadraticData._of_symmetric(R + w E, r + w e)``,
and must hold no subnormal entry, whichever way the rule decides.  The
draws reach every exponent down to -1074, signed zeros and both sides of
``2^-968``, and they cancel entries of R against those of ``fl(w E)`` into
the subnormal range, exactly at a drawn n.  R is bitwise symmetric, which
the stream trusts, or one ulp off, which it checks on every draw.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace import model
from mmsubspace.linalg import TINY
from mmsubspace.model import QuadraticData
from mmsubspace.problems import random_spd
from mmsubspace.stream import GeometricPerturbationStream

RULE_FLOOR = 2.0**-968
# neighbours one ulp apart cancel to 2^(e - 52), subnormal for e < -970
MANTISSAS = [1.0, 1.0000000000000002, 1.25, 1.5, 1.5000000000000002, 1.9999999999999998]


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def subnormal_count(M) -> int:
    return int(np.count_nonzero((M != 0.0) & (np.abs(M) < TINY)))


def draw_entry(data, lo: int) -> float:
    """0.0, -0.0 or a signed ``m 2^e`` with ``lo <= e <= 4``; subnormal where e < -1022."""
    kind = data.draw(st.sampled_from(["zero", "negative-zero", "value", "value"]))
    if kind == "zero":
        return 0.0
    if kind == "negative-zero":
        return -0.0
    sign = data.draw(st.sampled_from([1.0, -1.0]))
    return sign * math.ldexp(data.draw(st.sampled_from(MANTISSAS)), data.draw(st.integers(lo, 4)))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_every_snapshot_is_the_flushed_one_and_holds_no_subnormal(data, dim, seed):
    rng = np.random.default_rng(seed)
    # the lowest exponent of R's and of E's entries: subnormal, on either side of 2^-968, or far above
    floors = [-1074, -1040, -1022, -1000, -969, -968, -967, -900, -10]
    lo_R, lo_E = data.draw(st.sampled_from(floors)), data.draw(st.sampled_from(floors))
    if data.draw(st.booleans()):
        # rho = 2^-k makes fl(w E) = w E exactly, so an entry pair can cancel at n0
        k = data.draw(st.integers(1, 3))
        rho, n0 = 2.0**-k, data.draw(st.integers(1, 40))
    else:
        rho, n0 = data.draw(st.floats(1e-3, 0.999)), None

    R = np.zeros((dim, dim))
    E = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            if n0 is not None and data.draw(st.booleans()):
                # R_ij + w^n0 E_ij = (m1 - m2) 2^e, which may be subnormal
                e = data.draw(st.integers(-1022, -960))
                m1, m2 = data.draw(st.sampled_from(MANTISSAS)), data.draw(st.sampled_from(MANTISSAS))
                R[i, j] = math.ldexp(m1, e)
                E[i, j] = -math.ldexp(m2, e + k * n0)
            else:
                R[i, j] = draw_entry(data, lo_R)
                E[i, j] = draw_entry(data, lo_E)
            R[j, i], E[j, i] = R[i, j], E[i, j]
    # a diagonal that dominates its row by at least 1 keeps R positive definite
    # beyond the rounding of the stream's eigenvalue test
    for i in range(dim):
        R[i, i] = np.sum(np.abs(R[i])) + 1.0 + abs(draw_entry(data, lo_R))
        # with a cancelling pair, a zero diagonal keeps R + rho E definite, so E is not rescaled
        E[i, i] = draw_entry(data, lo_E) if n0 is None else 0.0
    if dim > 1 and data.draw(st.booleans()):
        # one ulp of asymmetry: the stream no longer trusts R and checks every snapshot
        R[1, 0] = np.nextafter(R[1, 0], np.inf)
    quad = QuadraticData(R, rng.standard_normal(dim))
    e_r = rng.standard_normal(dim)
    s = GeometricPerturbationStream(quad, rho, E, e_r)

    ns = set(data.draw(st.lists(st.integers(1, 2000), min_size=1, max_size=4)))
    if n0 is not None:
        ns.add(n0)
    nonzero = np.abs(s.E_R[s.E_R != 0.0])
    if nonzero.size:
        # the n around which fl(w e_min) crosses 2^-968
        cross = math.log(RULE_FLOOR / nonzero.min()) / math.log(rho)
        if 1.0 <= cross <= 2000.0:
            ns.update(n for n in (math.floor(cross), math.ceil(cross), math.ceil(cross) + 1) if n >= 1)
    for n in sorted(ns):
        w = s.rho**n
        want = QuadraticData._of_symmetric(s.limit.R + w * s.E_R, s.limit.r + w * s.e_r)
        got = s.instance(n).quad
        assert same_bits(got.R, want.R) and same_bits(got.r, want.r), n
        assert subnormal_count(got.R) == 0, n


def _flushes_per_draw(monkeypatch, s, ns) -> list:
    """How many times ``flush_subnormals`` ran for each draw ``s.instance(n)``."""
    calls = []
    flush = model.flush_subnormals
    monkeypatch.setattr(model, "flush_subnormals", lambda M: calls.append(1) or flush(M))
    out = []
    for n in ns:
        before = len(calls)
        s.instance(n)
        out.append(len(calls) - before)
    return out


def _spd(n, cond, seed):
    """A bitwise symmetric positive definite R, which the stream trusts."""
    R = random_spd(n, cond, np.random.default_rng(seed))
    return 0.5 * (R + R.T)


def _stream(R, rho=0.9):
    rng = np.random.default_rng(5)
    E = rng.standard_normal(R.shape)
    return GeometricPerturbationStream(QuadraticData(R, rng.standard_normal(len(R))), rho,
                                       0.05 * E, 0.05 * rng.standard_normal(len(R)))


@pytest.mark.parametrize("symmetric", [True, False])
def test_a_clean_stream_and_a_tiny_entry_of_r_never_flush(monkeypatch, symmetric):
    R = _spd(12, 50.0, 4) if symmetric else random_spd(12, 50.0, np.random.default_rng(4))
    assert np.array_equal(R, R.T) == symmetric
    assert _flushes_per_draw(monkeypatch, _stream(R), range(1, 201)) == [0] * 200
    # 1e-300 is a normal float below 2^-968; the rule reads E's floor only, so it clears every draw
    R[0, 1] = R[1, 0] = 1e-300
    s = _stream(R)
    assert _flushes_per_draw(monkeypatch, s, range(1, 201)) == [0] * 200
    for n in (1, 100, 200):
        w = s.rho**n
        want = QuadraticData(s.limit.R + w * s.E_R, s.limit.r + w * s.e_r)
        got = s.instance(n).quad
        assert same_bits(got.R, want.R) and same_bits(got.r, want.r)
        assert subnormal_count(got.R) == 0


@pytest.mark.parametrize("a", [2.0**-1022, np.nextafter(2.0**-969, 0.0), 2.0**-969, np.nextafter(2.0**-969, 1.0)])
@pytest.mark.parametrize("signs", [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)])
def test_an_entry_of_r_at_the_boundary_of_the_rule_needs_no_flush(monkeypatch, a, signs):
    """R's entry ``a`` against an entry of ``fl(w E)`` exactly at ``2^-968``: the
    two cases of the rule's proof at their edges, in sums and in cancellations."""
    n0 = 3
    R = np.array([[1.0, signs[0] * a], [signs[0] * a, 1.0]])
    b = signs[1] * 2.0**(-968 + n0)  # w b = 2^-968 exactly at rho = 1/2, n = n0
    s = GeometricPerturbationStream(QuadraticData(R, np.ones(2)), 0.5, np.array([[0.0, b], [b, 0.0]]), np.ones(2))
    assert s.rho**n0 * s.E_R[0, 1] == signs[1] * RULE_FLOOR
    assert _flushes_per_draw(monkeypatch, s, [n0]) == [0]
    want = QuadraticData(s.limit.R + s.rho**n0 * s.E_R, s.limit.r + s.rho**n0 * s.e_r)
    got = s.instance(n0).quad
    assert same_bits(got.R, want.R) and same_bits(got.r, want.r)
    assert subnormal_count(got.R) == 0


@pytest.mark.parametrize("rho", [0.5, 1e-3])
def test_a_draw_whose_weight_reaches_the_floor_is_flushed(monkeypatch, rho):
    """Once ``fl(w e_min)`` falls below 2^-968, up to ``w`` underflowing to 0,
    every draw is flushed, and each is still the flushed snapshot."""
    s = _stream(_spd(6, 10.0, 2), rho)
    e_min = np.abs(s.E_R).min()
    ns = range(1, 1200)
    flushed = _flushes_per_draw(monkeypatch, s, ns)
    assert flushed == [0 if s.rho**n * e_min >= RULE_FLOOR else 1 for n in ns]
    assert 0 in flushed and 1 in flushed
    for n in (1, 600, 1199):
        w = s.rho**n
        want = QuadraticData._of_symmetric(s.limit.R + w * s.E_R, s.limit.r + w * s.e_r)
        assert same_bits(s.instance(n).quad.R, want.R)

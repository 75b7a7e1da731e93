import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace.cli import build_stream
from mmsubspace.errors import InputError, StreamExhausted
from mmsubspace.linalg import check_symmetric, min_eig
from mmsubspace.model import HyperbolicPenalty, ProblemInstance, QuadraticData
from mmsubspace.problems import random_spd
from mmsubspace.solver import SolveOptions, reference_minimizer, run_online
from mmsubspace.stream import (
    ConstantStream,
    FileReplayStream,
    GeometricPerturbationStream,
    RunningAverageStream,
    summability_report,
)
from conftest import instance_grid, write_replay_file


def test_constant_stream_repeats_limit():
    q = QuadraticData(np.diag([1.0, 4.0]), np.array([1.0, -2.0]))
    s = ConstantStream(q)
    for n in (1, 2, 7):
        R, r = s.next_estimate(n)
        np.testing.assert_array_equal(R, q.R)
        np.testing.assert_array_equal(r, q.r)
    with pytest.raises(InputError):
        s.next_estimate(0)


def test_geometric_stream_values():
    q = QuadraticData(np.eye(2), np.zeros(2))
    s = GeometricPerturbationStream(q, rho=0.5, E_R=np.eye(2), e_r=np.array([1.0, 0.0]))
    R3, r3 = s.next_estimate(3)
    np.testing.assert_allclose(R3, np.eye(2) + 0.125 * np.eye(2))
    np.testing.assert_allclose(r3, [0.125, 0.0])


def test_geometric_stream_symmetrizes_and_keeps_psd():
    q = QuadraticData(np.eye(2), np.zeros(2))
    s = GeometricPerturbationStream(q, rho=0.9, E_R=np.array([[0.0, 2.0], [0.0, 0.0]]), e_r=np.zeros(2))
    np.testing.assert_array_equal(s.E_R, s.E_R.T)
    # the raw perturbation would make R_1 indefinite; it must be rescaled
    assert min_eig(s.next_estimate(1)[0]) >= 0.0
    with pytest.raises(InputError):
        GeometricPerturbationStream(q, rho=1.5, E_R=np.eye(2), e_r=np.zeros(2))


def test_geometric_stream_refuses_an_indefinite_limit_and_never_flips_or_enlarges_e():
    E = np.array([[-1.0, 0.3], [0.3, 2.0]])
    with pytest.raises(InputError, match=r"limit R of a geometric stream has the negative eigenvalue -0\.5$"):
        GeometricPerturbationStream(QuadraticData(np.diag([1.0, -0.5]), np.ones(2)), 0.9, E, np.ones(2))
    # a negative eigenvalue at rounding level is taken as 0: E shrinks to 0, for a tiny E too
    for scale in (1.0, 1e-290):
        q = QuadraticData(np.diag([1.0, -1e-16]), np.ones(2))
        s = GeometricPerturbationStream(q, 0.9, scale * E, np.ones(2))
        assert (s.E_R * E >= 0.0).all() and (np.abs(s.E_R) <= scale * np.abs(E)).all()


def test_running_average_stream():
    q = QuadraticData(np.eye(1), np.zeros(1))
    samples = {1: ([1.0], 1.0), 2: ([0.0], 0.0)}
    s = RunningAverageStream(q, lambda k: samples[k])
    R1, r1 = s.next_estimate(1)
    np.testing.assert_allclose(R1, [[1.0]])
    np.testing.assert_allclose(r1, [1.0])
    R2, r2 = s.next_estimate(2)
    np.testing.assert_allclose(R2, [[0.5]])
    np.testing.assert_allclose(r2, [0.5])
    with pytest.raises(InputError):
        s.next_estimate(5)  # out-of-order consumption


def test_replay_stream_and_exhaustion(tmp_path):
    path = tmp_path / "snaps.jsonl"
    snaps = [(np.eye(2) * (1 + 0.5**k), np.array([0.5**k, 0.0])) for k in range(1, 4)]
    write_replay_file(path, snaps)
    s = FileReplayStream(path)
    R2, r2 = s.next_estimate(2)
    np.testing.assert_allclose(R2, np.eye(2) * 1.25)
    np.testing.assert_allclose(r2, [0.25, 0.0])
    # limit defaults to the last snapshot
    np.testing.assert_allclose(s.limit.R, np.eye(2) * 1.125)
    with pytest.raises(StreamExhausted):
        s.next_estimate(4)


def test_replay_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    with pytest.raises(InputError):
        FileReplayStream(path)


def test_summability_closed_form():
    q = QuadraticData(np.eye(2), np.zeros(2))
    s = GeometricPerturbationStream(q, rho=0.5, E_R=0.3 * np.eye(2), e_r=np.array([0.2, 0.0]))
    rep = summability_report(s, horizon=200)
    # partial sums converge to rho * ||E|| and rho * ||e||
    np.testing.assert_allclose(rep.sum_dR, rep.closed_form_dR, rtol=1e-10)
    np.testing.assert_allclose(rep.sum_dr, rep.closed_form_dr, rtol=1e-10)
    assert rep.tail_ratio_dR < 1e-10
    assert rep.converged_dR <= 1e-10
    assert rep.converged_dr <= 1e-10


def test_online_run_reaches_limit_minimizer():
    rng = np.random.default_rng(17)
    n = 4
    M = rng.standard_normal((n, n))
    R = M @ M.T + n * np.eye(n)
    q = QuadraticData(R, rng.standard_normal(n))
    pen = HyperbolicPenalty(0.5, 0.3)
    E = 0.05 * np.eye(n)
    e = 0.05 * rng.standard_normal(n)
    s = GeometricPerturbationStream(q, rho=0.7, E_R=E, e_r=e, penalty=pen)
    trace = run_online(s, strategy="3mg", opts=SolveOptions(max_iters=300, grad_tol=1e-10))
    assert trace.converged
    from mmsubspace.model import ProblemInstance

    ref = reference_minimizer(ProblemInstance(q, pen))
    np.testing.assert_allclose(trace.final.h, ref.h, atol=1e-7)


def test_online_chi_matches_direct_formula():
    q = QuadraticData(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
    s = GeometricPerturbationStream(q, rho=0.5, E_R=0.1 * np.eye(2), e_r=np.array([0.1, 0.0]))
    trace = run_online(s, h1=np.ones(2), strategy="gradient",
                       opts=SolveOptions(max_iters=10, grad_tol=1e-300))
    recs = [r for r in trace.records if r.chi is not None]
    assert len(recs) >= 5
    for rec, nxt in zip(trace.records, trace.records[1:]):
        if rec.chi is None:
            continue
        Rn, rn = s.next_estimate(rec.n)
        Rn1, rn1 = s.next_estimate(rec.n + 1)
        h1 = nxt.h
        chi = -float((rn - rn1) @ h1) + 0.5 * float(h1 @ ((Rn - Rn1) @ h1))
        np.testing.assert_allclose(rec.chi, chi, rtol=1e-12, atol=1e-15)


def test_online_replay_exhaustion_stops_cleanly(tmp_path):
    path = tmp_path / "s.jsonl"
    snaps = [(np.diag([1.0, 2.0 + 0.1 * k]), np.array([1.0, 0.1 * k])) for k in range(3)]
    write_replay_file(path, snaps)
    s = FileReplayStream(path)
    trace = run_online(s, h1=np.ones(2), opts=SolveOptions(max_iters=100, grad_tol=1e-300))
    assert trace.stream_exhausted
    assert not trace.converged


@st.composite
def geometric_streams(draw):
    """A geometric stream on R that is bitwise symmetric, within 1e-13 of it, or of a huge norm."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    R = random_spd(n, 10.0 ** draw(st.floats(0.0, 6.0)), rng)
    R = 0.5 * (R + R.T)
    if draw(st.booleans()):  # subnormal entries, which every snapshot flushes
        R[np.triu_indices(n, 1)] = 1e-310
        R[np.tril_indices(n, -1)] = 1e-310
    kind = draw(st.sampled_from(["symmetric", "asymmetric", "huge"]))
    if kind == "asymmetric" and n > 1:  # one ulp off in one corner, still symmetric to check_symmetric
        R[0, -1] = R[-1, 0] = R[0, -1] + 1e-9 * R[0, 0]
        R[0, -1] = np.nextafter(R[0, -1], np.inf)
    elif kind == "huge":  # a norm above the trusted bound, far inside the float range
        R *= 1e152 / np.linalg.norm(R)
    E = rng.standard_normal((n, n)) * 10.0 ** draw(st.floats(-320.0, 2.0))
    quad = QuadraticData(R, rng.standard_normal(n))
    return GeometricPerturbationStream(quad, draw(st.floats(0.05, 0.99)), E, rng.standard_normal(n)), kind


@settings(max_examples=60, deadline=None)
@given(geometric_streams())
def test_trusted_geometric_snapshots_are_the_validated_ones(case):
    stream, kind = case
    R = stream.limit.R
    assert stream._trusted == (kind != "huge" and np.array_equal(R, R.T))
    if kind == "asymmetric" and len(R) > 1:
        assert not stream._trusted
    for n in range(1, 301):
        quad = stream.instance(n).quad
        ref = QuadraticData(*stream.next_estimate(n))
        assert quad.dim == ref.dim
        assert quad.R.tobytes() == ref.R.tobytes() and quad.r.tobytes() == ref.r.tobytes()
        if stream._trusted:
            check_symmetric(stream.next_estimate(n)[0], rtol=1e-12, name="R")


def test_the_cli_geometric_stream_is_trusted_on_symmetric_data():
    p = instance_grid(seed=3, dims=(6,), kinds=["hyperbolic"])[0]
    R = p.quad.R
    p = ProblemInstance(QuadraticData(0.5 * (R + R.T), p.quad.r), p.penalty)
    assert build_stream("geometric:0.9", p, seed=1)._trusted

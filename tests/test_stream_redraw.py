"""Every stream draws any snapshot again, in any order, with the bits of the in-order draw."""

import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace import processes
from mmsubspace.model import ProblemInstance, QuadraticData
from mmsubspace.problems import random_instance, random_spd
from mmsubspace.solver import SolveOptions, run_online
from mmsubspace.stream import ConstantStream, FileReplayStream, GeometricPerturbationStream, RunningAverageStream
from mmsubspace.verify import verify_trace
from conftest import write_replay_file

DIM = 3
HORIZON = 12


@pytest.fixture(scope="module")
def replay_path(tmp_path_factory):
    rng = np.random.default_rng(7)
    path = tmp_path_factory.mktemp("replay") / "snapshots.jsonl"
    write_replay_file(path, [(random_spd(DIM, 5.0, rng), rng.standard_normal(DIM)) for _ in range(HORIZON)])
    return path


def _limit():
    rng = np.random.default_rng(11)
    return QuadraticData(random_spd(DIM, 5.0, rng), rng.standard_normal(DIM))


def _samples(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((HORIZON, DIM)), rng.standard_normal(HORIZON)


def _make(kind, seed, replay_path):
    """A fresh stream of ``kind``; the same arguments give the same snapshots."""
    limit = _limit()
    if kind == "constant":
        return ConstantStream(limit)
    if kind == "geometric":
        rng = np.random.default_rng(seed)
        return GeometricPerturbationStream(limit, 0.8, 0.1 * rng.standard_normal((DIM, DIM)),
                                           rng.standard_normal(DIM))
    if kind == "replay":
        return FileReplayStream(replay_path, quad=limit)
    xs, ys = _samples(seed)
    return RunningAverageStream(limit, lambda k: (xs[k - 1], ys[k - 1]))


@pytest.mark.parametrize("kind", ["constant", "geometric", "replay", "running-average"])
@settings(max_examples=40, deadline=None)
@given(order=st.lists(st.integers(1, HORIZON), min_size=1, max_size=30), seed=st.integers(0, 2**16))
def test_any_snapshot_is_drawn_again_with_the_bits_of_the_in_order_draw(kind, order, seed, replay_path):
    in_order = _make(kind, seed, replay_path)
    want = {n: in_order.instance(n) for n in range(1, HORIZON + 1)}
    s = _make(kind, seed, replay_path)
    for n in order:
        got = s.instance(n)
        assert got.quad.R.tobytes() == want[n].quad.R.tobytes()
        assert got.quad.r.tobytes() == want[n].quad.r.tobytes()
        assert got.penalty is s.penalty
        if kind == "constant":
            assert got is s.instance(1)


def _running_average_problem(dim, samples, seed):
    """A hyperbolic problem whose limit R and r are the Gram averages of a cycle of ``samples``."""
    base = random_instance(dim, "hyperbolic", np.random.default_rng(seed), cond=20.0, lam=0.7, delta=0.5)
    rng = np.random.default_rng(seed + 1)
    xs = rng.standard_normal((samples, dim))
    ys = xs @ np.linalg.solve(base.quad.R, base.quad.r) + 0.01 * rng.standard_normal(samples)
    R = xs.T @ xs / samples
    return ProblemInstance(QuadraticData(0.5 * (R + R.T), xs.T @ ys / samples), base.penalty), xs, ys


def _one_process(monkeypatch):
    monkeypatch.setattr(processes, "TWO_PROCESS_WORK", float("inf"))


def test_a_certified_solve_and_its_verify_call_sample_fn_once_per_k(monkeypatch):
    _one_process(monkeypatch)
    p, xs, ys = _running_average_problem(4, 400, 3)
    calls = Counter()

    def sample(k):
        calls[k] += 1
        return xs[(k - 1) % 400], ys[(k - 1) % 400]

    stream = RunningAverageStream(p.quad, sample, penalty=p.penalty)
    trace = run_online(stream, strategy="3mg", opts=SolveOptions(max_iters=60, certify=True))
    assert sum(rec.cert is not None for rec in trace.records) > 10
    report = verify_trace(p, trace, stream=stream)
    assert report.results["eq3_majorization"].checked == len(trace.records) - 1
    assert report.results["eq9_eq10_sandwich"].checked > 10
    assert calls == Counter(range(1, len(trace.records) + 1))


def test_a_certified_running_average_solve_and_its_verify_hold_no_snapshots(monkeypatch):
    """Samples take O(N * d); N = 300 snapshots at d = 60 would take 8.6 MB."""
    _one_process(monkeypatch)
    dim, iters = 60, 300
    p, xs, ys = _running_average_problem(dim, 400, 5)

    def stream():
        return RunningAverageStream(p.quad, lambda k: (xs[(k - 1) % 400], ys[(k - 1) % 400]), penalty=p.penalty)

    def run(max_iters):
        trace = run_online(stream(), strategy="3mg", opts=SolveOptions(max_iters=max_iters, grad_tol=1e-14, certify=True))
        verify_trace(p, trace, stream=stream())
        return trace

    run(3)  # the warm-up imports scipy outside the traced run
    gc.collect()
    tracemalloc.start()
    try:
        trace = run(iters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.records) == iters + 1
    assert peak < 3e6, f"peak {peak / 1e6:.2f} MB"

"""Batch runs are runs on a constant stream, whichever function starts them, and traces reload whole."""

import pytest

from mmsubspace.solver import SolveOptions, Trace, run_batch, run_online
from mmsubspace.stream import ConstantStream
from mmsubspace.verify import verify_trace
from conftest import instance_grid


@pytest.mark.parametrize("strategy", ["gradient", "3mg", "memory:4", "full"])
def test_batch_equals_online_on_constant_stream(strategy):
    p = instance_grid(seed=31, dims=(6,), kinds=["hyperbolic"])[0]
    opts = SolveOptions(max_iters=60, grad_tol=1e-9, certify=True)
    batch = run_batch(p, strategy=strategy, opts=opts)
    online = run_online(ConstantStream(p.quad, p.penalty), strategy=strategy, opts=opts)

    assert (batch.meta["mode"], online.meta["mode"]) == ("batch", "batch")
    assert len(batch.records) == len(online.records) > 2
    assert (batch.converged, batch.fallback_used) == (online.converged, online.fallback_used)
    assert sum(rec.cert is not None for rec in batch.records) == len(batch.records) - 1
    for a, b in zip(batch.records, online.records):
        assert a.h.tobytes() == b.h.tobytes()
        assert (a.obj, a.grad_norm, a.step_norm, a.c_norm) == (b.obj, b.grad_norm, b.step_norm, b.c_norm)
        assert a.cert == b.cert
        assert a.chi == b.chi
    assert all(rec.chi == 0.0 for rec in batch.records[:-1])


def test_a_certified_run_online_on_a_constant_stream_is_a_batch_run_that_verifies(tmp_path):
    p = instance_grid(seed=31, dims=(6,), kinds=["hyperbolic"])[0]
    trace = run_online(ConstantStream(p.quad, p.penalty), opts=SolveOptions(max_iters=60, grad_tol=1e-9, certify=True))
    assert trace.meta["mode"] == "batch"
    trace.to_json(tmp_path / "t.json")
    back = Trace.from_json(tmp_path / "t.json")
    for stream in (None, ConstantStream(p.quad, p.penalty)):
        assert verify_trace(p, back, stream=stream).passed


@pytest.mark.parametrize("strategy", ["3mg", "memory:4"])
def test_trace_json_roundtrip_keeps_fallback_used(tmp_path, strategy):
    p = instance_grid(seed=23, dims=(4,), kinds=["hyperbolic"])[0]
    trace = run_batch(p, strategy=strategy, opts=SolveOptions(max_iters=50, grad_tol=1e-9, certify=True))
    assert trace.fallback_used  # the first step has no displacement history
    trace.to_json(tmp_path / "t.json")

    back = Trace.from_json(tmp_path / "t.json")
    assert back.fallback_used is True
    assert back.as_dict() == trace.as_dict()

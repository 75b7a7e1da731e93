"""verify_trace flags a tampered step and hands back the batch rate summary."""

import dataclasses

import numpy as np
import pytest

from mmsubspace import rates, solver, verify
from mmsubspace.errors import InputError
from mmsubspace.model import eval_objective
from mmsubspace.problems import random_instance
from mmsubspace.rates import batch_rate_summary
from mmsubspace.solver import SolveOptions, reference_minimizer, run_batch, run_online
from mmsubspace.stream import ConstantStream, GeometricPerturbationStream
from mmsubspace.verify import verify_trace

CERTIFIED = SolveOptions(max_iters=300, grad_tol=1e-10, certify=True)


def _instance():
    return random_instance(8, "hyperbolic", np.random.default_rng(41), cond=20.0, lam=0.7, delta=0.5)


def _certified_run():
    p = _instance()
    trace = run_batch(p, h1=np.ones(p.dim), strategy="3mg", opts=CERTIFIED)
    assert trace.converged
    return p, trace


def test_shortened_step_fails_gradient_step_domination():
    p, trace = _certified_run()
    assert verify_trace(p, trace).passed
    k = 4
    rec, rec_next = trace.records[k], trace.records[k + 1]
    h_short = rec.h + 0.1 * (rec_next.h - rec.h)
    trace.records[k + 1] = dataclasses.replace(rec_next, h=h_short, obj=eval_objective(p, h_short))
    report = verify_trace(p, trace)
    assert report.results["eq41_gradient_step_domination"].failures == [rec.n]
    assert not report.passed


def test_summary_is_the_batch_rate_summary():
    p, trace = _certified_run()
    eps = trace.meta["epsilon"]
    got = verify_trace(p, trace).summary
    want = batch_rate_summary(p, trace, eps, reference_minimizer(p, tol=1e-12))
    assert want.certified
    for f in dataclasses.fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def test_summary_is_none_online_and_without_certificates():
    p = _instance()
    rng = np.random.default_rng(5)
    E = rng.standard_normal((p.dim, p.dim))
    e = 0.05 * rng.standard_normal(p.dim)

    def stream():
        return GeometricPerturbationStream(p.quad, 0.9, 0.02 * (E + E.T), e, penalty=p.penalty)

    online = run_online(stream(), strategy="3mg", opts=CERTIFIED)
    report = verify_trace(p, online, stream=stream())
    assert report.passed, report.table()
    assert report.summary is None

    # started at the minimizer, the run takes no step and nothing is certified
    at_min = run_batch(p, h1=reference_minimizer(p).h, strategy="3mg", opts=CERTIFIED)
    assert at_min.n_steps == 0
    assert verify_trace(p, at_min).summary is None


def test_batch_verify_solves_for_the_reference_once(monkeypatch):
    p, trace = _certified_run()
    calls = []

    def counting(q, tol=1e-12):
        calls.append(q)
        return reference_minimizer(q, tol)

    monkeypatch.setattr(solver, "reference_minimizer", counting)
    monkeypatch.setattr(verify, "reference_minimizer", counting)
    report = verify_trace(p, trace)
    assert report.passed and report.summary.certified
    assert len(calls) == 1


def test_online_oracle_warm_start_keeps_the_verdicts(monkeypatch):
    p = _instance()
    rng = np.random.default_rng(9)
    E = rng.standard_normal((p.dim, p.dim))
    e = 0.05 * rng.standard_normal(p.dim)

    def stream():
        return GeometricPerturbationStream(p.quad, 0.9, 0.02 * (E + E.T), e, penalty=p.penalty)

    trace = run_online(stream(), strategy="3mg", opts=CERTIFIED)

    def run(cold):
        calls = []

        def oracle(q, tol=1e-12, h0=None):
            out = reference_minimizer(q, tol, h0=None if cold else h0)
            calls.append((h0 is not None, out))
            return out

        monkeypatch.setattr(verify, "reference_minimizer", oracle)
        return verify_trace(p, trace, stream=stream()), calls

    warm, warm_calls = run(cold=False)
    cold, cold_calls = run(cold=True)
    assert warm.passed, warm.table()
    assert warm.rows == cold.rows
    assert warm.n_eps == cold.n_eps
    assert warm.certificates_skipped == cold.certificates_skipped
    assert len(warm_calls) == len(cold_calls) > 1
    assert all(started for started, _ in warm_calls[1:]) and not warm_calls[0][0]
    for (_, w), (_, c) in zip(warm_calls, cold_calls):
        assert abs(w.value - c.value) <= 1e-12 * (1.0 + abs(c.value))
    assert sum(w.iterations for _, w in warm_calls) < sum(c.iterations for _, c in cold_calls)


def test_verify_builds_each_hessian_once(monkeypatch):
    p, trace = _certified_run()
    calls = []
    eval_hessian = rates.eval_hessian

    def counting(q, h):
        calls.append(h)
        return eval_hessian(q, h)

    monkeypatch.setattr(rates, "eval_hessian", counting)
    report = verify_trace(p, trace)
    assert report.passed
    # the ordering check and the certificate share one Hessian per iterate with a nonzero gradient
    assert len(calls) == sum("eq41_gradient_step_domination" in row for _, row in report.rows) > 0


def test_verify_builds_each_direction_matrix_once(monkeypatch):
    p, trace = _certified_run()
    calls = []
    build_subspace = solver.build_subspace

    def counting(*args, **kwargs):
        calls.append(args)
        return build_subspace(*args, **kwargs)

    monkeypatch.setattr(solver, "build_subspace", counting)
    report = verify_trace(p, trace)
    assert report.passed
    # the ordering check and the certificate share one direction matrix per iterate
    assert len(calls) == sum("eq41_gradient_step_domination" in row for _, row in report.rows) > 0


def _drifting_stream(p, rho=0.9, seed=5):
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((p.dim, p.dim))
    e = 0.05 * rng.standard_normal(p.dim)
    return GeometricPerturbationStream(p.quad, rho, 0.02 * (E + E.T), e, penalty=p.penalty)


def test_a_stream_that_contradicts_the_trace_mode_is_refused():
    p, batch = _certified_run()
    with pytest.raises(InputError, match="--stream and --seed"):
        verify_trace(p, batch, stream=_drifting_stream(p, rho=0.5))
    online = run_online(_drifting_stream(p), strategy="3mg", opts=CERTIFIED)
    for stream in (None, ConstantStream(p.quad, p.penalty)):
        with pytest.raises(InputError, match="--stream and --seed"):
            verify_trace(p, online, stream=stream)


@pytest.mark.parametrize("mode", ["batch", "online"])
def test_a_lowered_objective_fails_the_surrogate_decrease(mode):
    p = _instance()
    if mode == "batch":
        trace, stream = run_batch(p, h1=np.ones(p.dim), strategy="3mg", opts=CERTIFIED), None
    else:
        trace = run_online(_drifting_stream(p), strategy="3mg", opts=CERTIFIED)
        stream = _drifting_stream(p)
    assert verify_trace(p, trace, stream=stream).passed
    k = next(i for i, rec in enumerate(trace.records) if rec.n == 4)
    trace.records[k] = dataclasses.replace(trace.records[k], obj=trace.records[k].obj - 10.0)
    report = verify_trace(p, trace, stream=_drifting_stream(p) if mode == "online" else None)
    assert report.results["eq30_surrogate_decrease"].failures == [4]

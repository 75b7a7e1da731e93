"""Verify finds the certified regime once, from the F values it computes, and
every summary carries its start ``n_eps`` alone: None until the regime is entered."""

import dataclasses
import json

import numpy as np
import pytest

from mmsubspace import rates, verify
from mmsubspace.model import problem_from_dict
from mmsubspace.problems import random_instance
from mmsubspace.rates import batch_rate_summary
from mmsubspace.solver import SolveOptions, reference_minimizer, run_batch, run_online
from mmsubspace.stream import GeometricPerturbationStream
from mmsubspace.trace import Trace
from mmsubspace.verify import verify_trace

CERTIFIED = SolveOptions(certify=True)


def _spd_problem(n, cond, rng):
    """Random SPD data with a fixed spectrum, a hyperbolic penalty and identity L."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    R = (Q * np.geomspace(1.0, cond, n)) @ Q.T
    return problem_from_dict({
        "dim": n, "R": (0.5 * (R + R.T)).tolist(), "r": rng.standard_normal(n).tolist(),
        "penalty": {"kind": "hyperbolic", "lambda": 1.0, "delta": 1.0, "L": "identity"},
    })


def _first_eq6_row(report):
    return next(n for n, row in report.rows if "eq6_gap_bound" in row)


def test_n_eps_is_the_first_eq6_row_when_the_objective_column_is_raised(tmp_path):
    """Record 1's ``obj`` raised by twice its gap-bound slack breaks eq6 on the
    column, but not on the F that verify computes, so the regime still starts at 1."""
    p = _spd_problem(20, 50.0, np.random.default_rng(7))
    trace = run_batch(p, h1=10.0 * np.ones(p.dim), strategy="gradient", opts=CERTIFIED)
    ref = reference_minimizer(p, tol=1e-12)
    rec = trace.records[0]
    slack = rec.cert.lemma_bound + 1e-10 * (1.0 + abs(ref.value)) - (rec.obj - ref.value)
    assert slack > 0
    path = tmp_path / "t.json"
    trace.to_json(path)
    d = json.loads(path.read_text())
    d["records"][0]["obj"] += 2.0 * slack
    path.write_text(json.dumps(d))
    edited = Trace.from_json(path)
    # the recorded column leaves the regime at record 1
    assert batch_rate_summary(p, edited, edited.setting("epsilon"), ref).n_eps == 2

    report = verify_trace(p, edited)
    assert report.passed, report.table()
    assert report.n_eps == _first_eq6_row(report) == 1
    assert report.summary.n_eps == 1
    # the summary reads the computed F values, so the edit leaves it bitwise as it was
    assert report.summary == verify_trace(p, trace).summary


def _online_case():
    p = random_instance(8, "hyperbolic", np.random.default_rng(41), cond=20.0, lam=0.7, delta=0.5)
    rng = np.random.default_rng(5)
    E = rng.standard_normal((p.dim, p.dim))
    e = 0.05 * rng.standard_normal(p.dim)

    def stream():
        return GeometricPerturbationStream(p.quad, 0.9, 0.02 * (E + E.T), e, penalty=p.penalty)

    return p, run_online(stream(), strategy="3mg", opts=CERTIFIED), stream()


def _batch_case():
    p = random_instance(8, "hyperbolic", np.random.default_rng(41), cond=20.0, lam=0.7, delta=0.5)
    return p, run_batch(p, h1=np.ones(p.dim), strategy="3mg", opts=CERTIFIED), None


@pytest.mark.parametrize("case", [_batch_case, _online_case], ids=["batch", "online"])
def test_the_regime_is_found_once_per_verify(case, monkeypatch):
    p, trace, stream = case()
    calls = []
    scan = rates.certified_regime_start

    def counting(rows):
        calls.append(1)
        return scan(rows)

    monkeypatch.setattr(rates, "certified_regime_start", counting)
    monkeypatch.setattr(verify, "certified_regime_start", counting)
    report = verify_trace(p, trace, stream=stream)
    assert report.passed, report.table()
    assert len(calls) == 1
    assert report.n_eps is not None and report.n_eps == _first_eq6_row(report)


def test_an_uncertified_summary_has_no_n_eps_and_no_mu():
    p, trace, _ = _batch_case()
    # the Hessian floor fails at the last certified record, so the regime is never entered
    k = max(i for i, rec in enumerate(trace.records) if rec.cert is not None)
    trace.records[k] = dataclasses.replace(
        trace.records[k], cert=dataclasses.replace(trace.records[k].cert, hessian_floor_ok=False))
    s = batch_rate_summary(p, trace, trace.setting("epsilon"), reference_minimizer(p, tol=1e-12))
    assert s.n_eps is None and s.mu is None
    assert not s.certified
    assert 0.0 < s.vartheta < 1.0

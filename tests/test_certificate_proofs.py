"""Verify proves each certificate it checks with shifted Cholesky factorizations.

``linalg.proven_pd`` is checked against ``np.linalg.eigvalsh``; ``verify``
must refuse a recorded certificate with any field moved, and a fault in the
certificate code that certify runs, whatever it does to verify's own
kernels, naming the field and the record, on a certified trace and on a
plain one, whose certificates verify replays with that code.
"""

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace import linalg, rates, solver, verify
from mmsubspace.cli import main
from mmsubspace.errors import NumericError
from mmsubspace.linalg import UNIT_ROUNDOFF, pd_slack, proven_pd
from mmsubspace.model import load_problem, save_problem
from mmsubspace.problems import random_instance
from mmsubspace.solver import SolveOptions, run_batch
from mmsubspace.trace import Trace
from mmsubspace.verify import verify_trace

DATA = Path(__file__).parent / "data"
PROBLEM = DATA / "golden-problem.json"
GOLDEN = DATA / "golden-batch.json"


def _run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


# --- the proof function against eigvalsh -----------------------------------

@st.composite
def shifted_matrices(draw):
    """A symmetric M at scale 10**e with its spectrum, and a shift near its smallest eigenvalue."""
    n = draw(st.integers(1, 60), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = 10.0 ** draw(st.integers(-150, 150), label="exponent")
    w = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-6, 0, n)
    Q = linalg.random_orthogonal(n, rng)
    M = (Q * w) @ Q.T * scale
    M = 0.5 * (M + M.T)
    lam = float(np.linalg.eigvalsh(M)[0])
    c = pd_slack(n, linalg.pd_sizes(M), lam)
    s = lam - draw(st.floats(-8.0, 8.0), label="offset") * c
    return M, s, lam


@settings(max_examples=300, deadline=None)
@given(case=shifted_matrices())
def test_the_proof_agrees_with_the_smallest_eigenvalue(case):
    M, s, lam = case
    n = len(M)
    X = M.copy()
    X.ravel()[::n + 1] -= s
    c = pd_slack(n, linalg.pd_sizes(M), s)
    proven = proven_pd(M, s)
    if lam < s - c:
        # eigvalsh is within c of the smallest eigenvalue, so X has a negative one
        assert not proven
    # Demmel: potrf runs to the end on a symmetric Y with
    # lambda_min(Y) > n gamma_{n+1} max(y_ii), after the slack is subtracted
    margin = 2.0 * c + 2.0 * n * (n + 1) * UNIT_ROUNDOFF * max(float(X.diagonal().max()), 0.0)
    if lam - s > margin:
        assert proven


def test_the_proof_of_a_pencil_reads_the_shift_of_its_second_matrix():
    rng = np.random.default_rng(3)
    A = linalg.random_orthogonal(12, rng)
    A = (A * np.geomspace(1.0, 50.0, 12)) @ A.T
    A = 0.5 * (A + A.T)
    H = np.diag(np.linspace(1.0, 3.0, 12))
    # the smallest eigenvalue of H^-1 A, from the symmetric H^-1/2 A H^-1/2
    d = 1.0 / np.sqrt(np.diag(H))
    kappa = float(np.linalg.eigvalsh(A * d[:, None] * d[None, :])[0])
    assert proven_pd(A, kappa * (1 - 1e-9), H)
    assert not proven_pd(A, kappa * (1 + 1e-9), H)
    assert proven_pd(-A, -1.001 * float(np.linalg.eigvalsh(A * d[:, None] * d[None, :])[-1]), H)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
def test_a_shifted_matrix_beyond_the_float_range_is_a_numeric_error(bad):
    M = np.eye(3)
    M[1, 1] = bad
    with pytest.raises(NumericError, match="positive definiteness proof"):
        proven_pd(M, 0.5)
    with pytest.raises(NumericError, match="positive definiteness proof"):
        proven_pd(np.eye(3), 1e308, np.eye(3) * 10.0)


# --- verify proves the recorded certificate ---------------------------------

def _golden():
    return json.loads(GOLDEN.read_text())


def _verify(d, tmp_path, *flags):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(d))
    return _run("verify", "--problem", PROBLEM, "--trace", path, *flags)


def test_the_committed_trace_is_proven_record_by_record():
    code, out = _run("verify", "--problem", PROBLEM, "--trace", GOLDEN)
    assert code == 0
    certified = sum("theta" in rd for rd in _golden()["records"])
    row = next(line for line in out.splitlines() if line.startswith("certificate_proofs"))
    assert row.split()[1:4] == [str(certified), "0", "pass"]
    assert "recomputed" not in row


FIELDS = ["theta_tilde", "theta", "theta_lo", "theta_hi", "kappa_lo", "kappa_hi", "sigma_lo", "sigma_hi",
          "lemma_bound", "epsilon"]


MOVES = [(name, factor) for name in FIELDS for factor in (1 - 1e-6, 1 + 1e-6)] + [("hessian_floor_ok", None)]


@pytest.mark.parametrize("name, factor", MOVES, ids=[f"{name}-{factor}" for name, factor in MOVES])
def test_a_moved_field_fails_the_proof_by_name(name, factor, tmp_path):
    d = _golden()
    rd = d["records"][2]
    rd[name] = (not rd[name]) if factor is None else rd[name] * factor
    code, out = _verify(d, tmp_path)
    assert code == 1
    assert f"first failing field: {name} at n = {rd['n']}" in out
    assert out.splitlines()[-1].startswith("overall: FAIL")


def test_a_trace_without_certificates_counts_them_recomputed(tmp_path):
    p = load_problem(PROBLEM)
    trace = run_batch(p, strategy="3mg", opts=SolveOptions())
    trace.to_json(tmp_path / "plain.json")
    code, out = _run("verify", "--problem", PROBLEM, "--trace", tmp_path / "plain.json")
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("certificate_proofs"))
    # each recomputed certificate is proven too
    assert row.split()[1:4] == [str(trace.n_steps), "0", "pass"]
    assert f"({trace.n_steps} recomputed)" in row


def test_a_singular_hessian_is_a_named_skip(monkeypatch):
    p = load_problem(PROBLEM)
    trace = Trace.from_json(GOLDEN)
    hessian = verify.eval_hessian
    monkeypatch.setattr(verify, "eval_hessian", lambda q, h: 0.0 * hessian(q, h))
    report = verify_trace(p, trace)
    certified = sum(rec.cert is not None for rec in trace.records)
    assert report.certificates_skipped == {"NumericError": certified}
    assert report.results["certificate_proofs"].checked == 0


@pytest.mark.parametrize("name, value", [("sigma_hi", 1e308), ("kappa_hi", 1e308), ("sigma_lo", -1e308),
                                         ("kappa_lo", -1e308)])
def test_a_bound_whose_shifted_matrix_overflows_fails_by_name(name, value, tmp_path):
    d = _golden()
    rd = d["records"][2]
    rd[name] = value
    code, out = _verify(d, tmp_path)
    assert code == 1
    assert f"first failing field: {name} at n = {rd['n']}" in out
    assert "certificates skipped" not in out
    assert out.splitlines()[-1].startswith("overall: FAIL")


# --- faults in the certificate code that certify runs -------------------------

def _spread_unsquared(cert):
    spread = rates.sigma_spread(cert.sigma_lo, cert.sigma_hi)
    return 1.0 - (1.0 - spread) / ((1.0 + cert.epsilon) * cert.kappa_hi)


def _replacing(**change):
    certify = rates.certify_iteration

    def faulty(*args):
        cert = certify(*args)
        return dataclasses.replace(cert, **{name: fn(cert) for name, fn in change.items()})
    return faulty


def _scaled(fn, lo=1.0, hi=1.0):
    def faulty(*args):
        a, b = fn(*args)
        return a * lo, b * hi
    return faulty


# fault -> (module, attribute, the faulty value from the original, the field verify must name)
FAULTS = {
    "kappa_hi 20% low": (rates, "_kappa_from_factor", lambda f: _scaled(f, hi=0.8), "kappa_hi"),
    "lemma_bound halved": (solver, "certify_iteration",
                           lambda f: _replacing(lemma_bound=lambda c: 0.5 * c.lemma_bound), "lemma_bound"),
    "extreme_eigs 5% tight": (rates, "extreme_eigs", lambda f: _scaled(f, lo=1.05, hi=0.95), "sigma_lo"),
    "kappa_lo 20% high": (rates, "_kappa_from_factor", lambda f: _scaled(f, lo=1.2), "kappa_lo"),
    "theta_tilde 10% high": (rates, "_subspace_form", lambda f: lambda *a: 1.1 * f(*a), "theta_tilde"),
    "theta_hi formula": (solver, "certify_iteration", lambda f: _replacing(theta_hi=_spread_unsquared),
                         "theta_hi"),
}


@pytest.fixture(scope="module")
def spd40(tmp_path_factory):
    path = tmp_path_factory.mktemp("spd40") / "p.json"
    save_problem(random_instance(40, "hyperbolic", np.random.default_rng(40), cond=50.0, lam=1.0, delta=1.0), path)
    return path


@pytest.mark.parametrize("certify", [["--certify"], []], ids=["certified", "plain"])
@pytest.mark.parametrize("stream", [[], ["--stream", "geometric:0.9", "--seed", "1"]], ids=["batch", "online"])
@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_in_the_certificate_code_fails_verify_by_name(fault, stream, certify, spd40, tmp_path,
                                                              monkeypatch):
    module, attr, make, name = FAULTS[fault]
    # the fault stays in place for verify too, as a fault of shared code would
    monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    code, out = _run("solve", "--problem", spd40, *certify, "--max-iters", "60", "--trace-out",
                     tmp_path / "t", *stream)
    assert code in (0, 2), out
    records = Trace.from_json(tmp_path / "t.json").records
    # verify replays every certificate of a plain trace, the first at n = 1
    first = next(rec.n for rec in records if rec.cert is not None) if certify else 1
    code, out = _run("verify", "--problem", spd40, "--trace", tmp_path / "t.json", *stream)
    assert code == 1, out
    assert f"first failing field: {name} at n = {first}" in out
    assert out.splitlines()[-1].startswith("overall: FAIL")


# --- the trace's own stopping rule -------------------------------------------

@pytest.mark.parametrize("key, value", [("max_iters", 1), ("grad_tol", 5.0), ("grad_tol", 1e-300)])
def test_a_trace_that_breaks_its_stopping_rule_is_refused_by_key(key, value, tmp_path):
    d = _golden()
    d["meta"][key] = value
    code, out = _verify(d, tmp_path)
    assert code == 1
    assert out.startswith("error:") and repr(key) in out.splitlines()[0]


def test_a_trace_without_its_stopping_rule_still_verifies(tmp_path):
    d = _golden()
    del d["meta"]["max_iters"], d["meta"]["grad_tol"]
    code, out = _verify(d, tmp_path)
    assert code == 0, out

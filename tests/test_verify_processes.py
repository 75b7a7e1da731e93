"""verify_trace checked in two processes gives the one-process report, errors and warnings."""

import dataclasses
import hashlib
import itertools
import os
import threading
import warnings

import numpy as np
import pytest

from mmsubspace import cli, processes, solver, verify
from mmsubspace.errors import InputError
from mmsubspace.linalg import min_eig
from mmsubspace.model import ProblemInstance, QuadraticData, save_problem
from mmsubspace.problems import random_instance
from mmsubspace.solver import SolveOptions, reference_minimizer, run_batch, run_online
from mmsubspace.stream import FileReplayStream, GeometricPerturbationStream, RunningAverageStream
from mmsubspace.verify import verify_trace
from conftest import write_replay_file

CERTIFIED = SolveOptions(max_iters=300, grad_tol=1e-10, certify=True)


def _instance(n=8):
    return random_instance(n, "hyperbolic", np.random.default_rng(41), cond=20.0, lam=0.7, delta=0.5)


def _drifting(p):
    rng = np.random.default_rng(5)
    E = rng.standard_normal((p.dim, p.dim))
    e = 0.05 * rng.standard_normal(p.dim)
    return GeometricPerturbationStream(p.quad, 0.9, 0.02 * (E + E.T), e, penalty=p.penalty)


@pytest.fixture
def forks(monkeypatch):
    """Force the two-process path for any trace; returns the list of forks made."""
    made = []
    fork = os.fork

    def counting():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    monkeypatch.setattr(processes, "TWO_PROCESS_WORK", 0)
    if not processes.two_processes(1):
        pytest.skip("this host cannot take the two-process path")
    return made


def _one_process(call):
    """``call()`` with the two-process path switched off; the traces are
    certified this way, so that only their verify forks."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(processes, "TWO_PROCESS_WORK", float("inf"))
        return call()


def _assert_same_report(got, want):
    assert got.results == want.results
    assert got.rows == want.rows
    assert got.n_eps == want.n_eps
    assert got.certified == want.certified
    assert got.summary == want.summary
    assert got.certificates_skipped == want.certificates_skipped
    assert list(got.certificates_skipped.items()) == list(want.certificates_skipped.items())


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _batch():
    p = _instance()
    return p, _one_process(lambda: run_batch(p, h1=np.ones(p.dim), strategy="3mg", opts=CERTIFIED)), lambda: None


def _online():
    p = _instance()
    return p, _one_process(lambda: run_online(_drifting(p), strategy="3mg", opts=CERTIFIED)), lambda: _drifting(p)


def _lowered_objective(make):
    def build():
        p, trace, stream = make()
        for k in (3, len(trace.records) - 3):  # one record in each part
            trace.records[k] = dataclasses.replace(trace.records[k], obj=trace.records[k].obj - 10.0)
        return p, trace, stream
    return build


def _skipped(tmp_path):
    # snapshots 1 and 30 have an indefinite Hessian, so their certificates are skipped
    p = _instance()
    limit = p.quad
    bad = limit.R - (min_eig(limit.R) + 2.0) * np.eye(p.dim)
    path = tmp_path / "snapshots.jsonl"
    write_replay_file(path, [(bad, limit.r)] + [(limit.R, limit.r)] * 28 + [(bad, limit.r)]
                      + [(limit.R, limit.r)] * 300)

    def stream():
        return FileReplayStream(path, quad=limit, penalty=p.penalty)

    return p, _one_process(lambda: run_online(stream(), strategy="3mg", opts=CERTIFIED)), stream


@pytest.mark.parametrize("make", [_batch, _online, _lowered_objective(_batch), _lowered_objective(_online)],
                         ids=["batch", "online", "batch-lowered-objective", "online-lowered-objective"])
def test_the_report_is_the_one_process_report(make, forks):
    p, trace, stream = make()
    want = _one_process(lambda: verify_trace(p, trace, stream=stream()))
    assert forks == []
    got = verify_trace(p, trace, stream=stream())
    assert forks == [1]
    _assert_same_report(got, want)
    _assert_no_child_left()
    if make in (_batch, _online):
        assert got.passed
    else:
        assert len(got.results["eq30_surrogate_decrease"].failures) == 2


def test_skipped_certificates_are_counted_as_in_one_process(tmp_path, forks, monkeypatch):
    p, trace, stream = _skipped(tmp_path)
    want = _one_process(lambda: verify_trace(p, trace, stream=stream()))
    parts = []
    check = verify._RecordChecker.check
    monkeypatch.setattr(verify._RecordChecker, "check",
                        lambda self, lo, hi: parts.append((lo, hi)) or check(self, lo, hi))
    got = verify_trace(p, trace, stream=stream())
    assert forks == [1]
    assert want.certificates_skipped["NumericError"] == 2
    # one skip lies in each part; the parent checks the second half
    split = (len(trace.records) - 1) // 2
    assert parts == [(split, len(trace.records) - 1)]
    skips = [i for i, (_, row) in enumerate(want.rows)
             if "eq41_gradient_step_domination" in row and "eq65_gradient_lower_bound" not in row]
    assert skips[0] < split <= skips[1]
    _assert_same_report(got, want)
    _assert_no_child_left()


def test_every_online_oracle_starts_at_the_problem_s_minimizer(tmp_path, forks, monkeypatch):
    """In both processes, each certified snapshot's oracle runs once, warm-started at the problem's minimizer."""
    p, trace, stream = _online()
    oracle = verify.reference_minimizer
    numbers = itertools.count()

    def saving(q, tol=1e-12, h0=None):
        """Save each call's start, NaN for none, under its process id, from whichever process calls."""
        np.save(tmp_path / f"{os.getpid()}-{next(numbers)}.npy", np.full(q.dim, np.nan) if h0 is None else h0)
        return oracle(q, tol, h0=h0)

    monkeypatch.setattr(verify, "reference_minimizer", saving)
    report = verify_trace(p, trace, stream=stream())
    assert forks == [1]
    starts = {}
    for path in tmp_path.glob("*.npy"):
        starts.setdefault(path.name.split("-")[0], []).append(np.load(path))
    assert len(starts) == 2  # the child's calls happen in the child
    mine = starts[str(os.getpid())]
    # the problem's own oracle, in this process, starts at zero
    assert sum(np.isnan(h).all() for h in mine) == 1
    calls = [h for h in sum(starts.values(), []) if not np.isnan(h).all()]
    assert len(calls) == report.results["eq9_eq10_sandwich"].checked > 0
    minimizer = reference_minimizer(p, tol=1e-12).h
    for h in calls:
        assert h.tobytes() == minimizer.tobytes()
    _assert_no_child_left()


@pytest.mark.parametrize("make", [_online, _skipped], ids=["geometric", "replay"])
def test_every_split_gives_the_verdicts_of_one_part(make, tmp_path):
    """check(0, k) + check(k, N) is check(0, N), verdict for verdict and F* bitwise, for every split k."""
    p, trace, stream = make(tmp_path) if make is _skipped else make()
    recs = trace.records[:31]
    strategy = verify.parse_strategy(trace.setting("strategy"))
    epsilon = solver._resolve_epsilon(trace.setting("epsilon"), p.quad.R)
    checker = verify._RecordChecker(p, recs, stream(), "online", strategy, epsilon, 0,
                                    reference_minimizer(p, tol=1e-12))
    steps = len(recs) - 1
    whole = checker.check(0, steps)
    assert sum(v.inf_F is not None for v in whole) > steps // 2
    # repr shows every float to its last bit
    want = [repr(v) for v in whole]
    for k in range(steps + 1):
        assert [repr(v) for v in checker.check(0, k) + checker.check(k, steps)] == want


@pytest.mark.parametrize("part", ["child", "parent"])
def test_a_non_finite_objective_raises_the_one_process_error(part, forks):
    p, trace, stream = _batch()
    k = 2 if part == "child" else len(trace.records) - 2
    trace.records[k] = dataclasses.replace(trace.records[k], h=np.full(p.dim, 1e200))
    with pytest.raises(InputError) as serial:
        _one_process(lambda: verify_trace(p, trace))
    with pytest.raises(InputError) as split:
        verify_trace(p, trace)
    assert forks == [1]
    assert str(split.value) == str(serial.value)
    assert f"n={trace.records[k].n} " in str(split.value)
    _assert_no_child_left()


def test_the_first_error_is_the_one_process_error(forks):
    p, trace, stream = _batch()
    for k in (2, len(trace.records) - 2):  # a refused record in each part: the child's comes first
        trace.records[k] = dataclasses.replace(trace.records[k], h=np.full(p.dim, 1e200))
    with pytest.raises(InputError, match=f"n={trace.records[2].n} "):
        verify_trace(p, trace)
    assert forks == [1]
    _assert_no_child_left()


def test_a_child_that_ends_early_leaves_its_part_to_the_parent(forks, monkeypatch):
    p, trace, stream = _online()
    want = _one_process(lambda: verify_trace(p, trace, stream=stream()))
    parent = os.getpid()
    check = verify._RecordChecker.check

    def dying(self, *args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return check(self, *args, **kwargs)

    monkeypatch.setattr(verify._RecordChecker, "check", dying)
    got = verify_trace(p, trace, stream=stream())
    assert forks == [1]
    _assert_same_report(got, want)
    _assert_no_child_left()


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("stream", ["constant", "geometric"])
def test_each_direction_matrix_is_the_one_the_loop_stepped_with(stream, processes, tmp_path, forks, monkeypatch):
    """At memory:5, verify rebuilds bitwise the direction matrix of each of the loop's steps."""
    p = _instance()
    new_stream = (lambda: None) if stream == "constant" else (lambda: _drifting(p))
    steps = []
    step = solver.subspace_step
    monkeypatch.setattr(solver, "subspace_step", lambda m, D: steps.append((m.anchor, D.cols)) or step(m, D))
    opts = SolveOptions(max_iters=300, grad_tol=1e-10)
    trace = (run_batch(p, h1=np.ones(p.dim), strategy="memory:5", opts=opts) if stream == "constant"
             else run_online(new_stream(), strategy="memory:5", opts=opts))
    build = solver.build_subspace

    def saving(strategy, g, h, history):
        """Save the direction matrix under its iterate's bytes, from whichever process builds it."""
        D = build(strategy, g, h, history)
        np.save(tmp_path / f"{hashlib.sha1(h.tobytes()).hexdigest()}.npy", D.cols)
        return D

    monkeypatch.setattr(solver, "build_subspace", saving)
    if processes == 1:
        _one_process(lambda: verify_trace(p, trace, stream=new_stream()))
    else:
        verify_trace(p, trace, stream=new_stream())
    assert forks == [1] * (processes - 1)
    assert len(steps) == len(trace.records) - 1 == len(list(tmp_path.glob("*.npy")))
    assert max(D.shape[1] for _, D in steps) == 5
    for h, D in steps:
        assert np.load(tmp_path / f"{hashlib.sha1(h.tobytes()).hexdigest()}.npy").tobytes() == D.tobytes()
    _assert_no_child_left()


def test_oracle_warnings_are_those_of_one_process(forks, monkeypatch):
    p, trace, stream = _online()
    split = (len(trace.records) - 1) // 2
    # a certified record in each part, known to the oracle by its snapshot's r
    warned = {rec.n: stream().instance(rec.n).quad.r.tobytes() for rec in (trace.records[2], trace.records[-3])}
    assert 3 < split < len(trace.records) - 3
    oracle = verify.reference_minimizer

    def warning(q, tol=1e-12, h0=None):
        for n, r in warned.items():
            if q.quad.r.tobytes() == r:
                warnings.warn(f"oracle at n={n}", RuntimeWarning)
        return oracle(q, tol, h0=h0)

    monkeypatch.setattr(verify, "reference_minimizer", warning)

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = verify_trace(p, trace, stream=stream())
        return report, [str(w.message) for w in caught]

    want, want_warnings = _one_process(run)
    got, got_warnings = run()
    assert forks == [1]
    assert got_warnings == want_warnings == [f"oracle at n={n}" for n in sorted(warned)]
    _assert_same_report(got, want)
    _assert_no_child_left()


def test_warnings_are_those_of_one_process(forks, monkeypatch):
    p, trace, stream = _batch()
    check_majorization = verify.check_majorization
    warned = {trace.records[2].n, trace.records[-3].n}  # a record in each part

    def warning(p_n, m, samples, seed):
        if seed in warned:
            warnings.warn(f"at seed {seed}", RuntimeWarning)
        return check_majorization(p_n, m, samples=samples, seed=seed)

    monkeypatch.setattr(verify, "check_majorization", warning)

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = verify_trace(p, trace)
        return report, [str(w.message) for w in caught]

    want, want_warnings = _one_process(run)
    got, got_warnings = run()
    assert forks == [1]
    assert got_warnings == want_warnings == [f"at seed {n}" for n in sorted(warned)]
    _assert_same_report(got, want)
    _assert_no_child_left()


def test_an_oracle_warning_and_a_check_warning_keep_the_one_process_order(forks, monkeypatch):
    """The oracle at record 3 warns in the child's half, a majorization check at record N - 2 in the parent's."""
    p, trace, stream = _online()
    late = len(trace.records) - 2
    assert 3 < (len(trace.records) - 1) // 2 < late - 1
    third = stream().instance(3).quad.r.tobytes()
    oracle, check_majorization = verify.reference_minimizer, verify.check_majorization

    def oracle_warning(q, tol=1e-12, h0=None):
        if q.quad.r.tobytes() == third:
            warnings.warn("oracle at n=3", RuntimeWarning)
        return oracle(q, tol, h0=h0)

    def check_warning(p_n, m, samples, seed):
        if seed == late:
            warnings.warn(f"majorization at n={late}", RuntimeWarning)
        return check_majorization(p_n, m, samples=samples, seed=seed)

    monkeypatch.setattr(verify, "reference_minimizer", oracle_warning)
    monkeypatch.setattr(verify, "check_majorization", check_warning)

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = verify_trace(p, trace, stream=stream())
        return report, [str(w.message) for w in caught]

    want, want_warnings = _one_process(run)
    got, got_warnings = run()
    assert forks == [1]
    assert got_warnings == want_warnings == ["oracle at n=3", f"majorization at n={late}"]
    _assert_same_report(got, want)
    _assert_no_child_left()


def test_cli_verify_prints_the_one_process_output(tmp_path, forks, capsys):
    p = _instance()
    problem = str(tmp_path / "p.json")
    save_problem(p, problem)
    stream = ["--stream", "geometric:0.9", "--seed", "1"]
    solve = ["solve", "--problem", problem, "--certify", "--trace-out", str(tmp_path / "t"), *stream]
    _one_process(lambda: cli.main(solve))
    capsys.readouterr()
    argv = ["verify", "--problem", problem, "--trace", str(tmp_path / "t.json"), *stream]
    want_code = _one_process(lambda: cli.main(argv))
    want = capsys.readouterr()
    got_code = cli.main(argv)
    got = capsys.readouterr()
    assert forks == [1]
    assert (got_code, got.out, got.err) == (want_code, want.out, want.err)
    assert "overall: PASS" in got.out
    _assert_no_child_left()


def test_one_cpu_keeps_one_process(forks, monkeypatch):
    p, trace, stream = _batch()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert verify_trace(p, trace).passed
    assert forks == []


def test_another_thread_keeps_one_process(forks):
    p, trace, stream = _batch()
    done = threading.Event()
    waiting = threading.Thread(target=done.wait)
    waiting.start()
    try:
        assert verify_trace(p, trace).passed
    finally:
        done.set()
        waiting.join()
    assert forks == []


def test_a_running_average_stream_is_checked_in_two_processes(forks):
    p = _instance(4)
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((400, p.dim))
    ys = xs @ np.linalg.solve(p.quad.R, p.quad.r) + 0.01 * rng.standard_normal(400)
    R = xs.T @ xs / 400
    limit = QuadraticData(0.5 * (R + R.T), xs.T @ ys / 400)

    def stream():
        return RunningAverageStream(limit, lambda k: (xs[(k - 1) % 400], ys[(k - 1) % 400]), penalty=p.penalty)

    p = ProblemInstance(limit, p.penalty)
    trace = _one_process(lambda: run_online(stream(), strategy="3mg", opts=SolveOptions(max_iters=60, certify=True)))
    assert len(trace.records) > 10
    want = _one_process(lambda: verify_trace(p, trace, stream=stream()))
    assert forks == []
    report = verify_trace(p, trace, stream=stream())
    assert forks == [1]
    _assert_same_report(report, want)
    assert report.results["eq3_majorization"].checked == len(trace.records) - 1
    _assert_no_child_left()


@pytest.mark.parametrize("make", [_batch, _online], ids=["batch", "online"])
def test_a_split_that_leaves_the_child_no_step_keeps_one_process(make, forks, monkeypatch):
    """One step splits at 0; each oracle still runs once."""
    p, trace, stream = make()
    # the cut trace stops short of grad_tol, so it no longer converged
    trace.records, trace.converged = trace.records[:2], False
    calls = []
    oracle = verify.reference_minimizer

    def counting(q, tol=1e-12, h0=None):
        calls.append(1)
        return oracle(q, tol, h0=h0)

    monkeypatch.setattr(verify, "reference_minimizer", counting)
    want = _one_process(lambda: verify_trace(p, trace, stream=stream()))
    serial = len(calls)
    got = verify_trace(p, trace, stream=stream())
    assert forks == []
    assert len(calls) == 2 * serial > 0
    _assert_same_report(got, want)

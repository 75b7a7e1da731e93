"""A certified solve whose iterations are certified in two processes writes the one-process trace."""

import json
import os
import threading
import warnings

import numpy as np
import pytest

from mmsubspace import cli, processes, solver, verify
from mmsubspace.errors import InputError, NumericError
from mmsubspace.linalg import min_eig
from mmsubspace.model import QuadraticData, save_problem
from mmsubspace.problems import random_instance
from mmsubspace.rates import certify_iteration, factor_hessian
from mmsubspace.solver import SolveOptions, run_batch, run_online
from mmsubspace.stream import FileReplayStream, GeometricPerturbationStream, RunningAverageStream
from conftest import write_replay_file

CERTIFIED = SolveOptions(max_iters=300, grad_tol=1e-10, certify=True)


class Breakdown(NumericError):
    """A second kind of skipped certificate, so that the order of the counts shows."""


def _instance(n=8):
    return random_instance(n, "hyperbolic", np.random.default_rng(41), cond=20.0, lam=0.7, delta=0.5)


def _drifting(p):
    rng = np.random.default_rng(5)
    E = rng.standard_normal((p.dim, p.dim))
    e = 0.05 * rng.standard_normal(p.dim)
    return GeometricPerturbationStream(p.quad, 0.9, 0.02 * (E + E.T), e, penalty=p.penalty)


@pytest.fixture
def forks(monkeypatch):
    """Force the two-process certify for any run; returns the list of forks made."""
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


def _one_process(monkeypatch, call):
    """``call()`` with the two-process certify switched off."""
    with monkeypatch.context() as m:
        m.setattr(processes, "TWO_PROCESS_WORK", float("inf"))
        return call()


def _assert_same_trace(got, want):
    """Every trace byte, record by record, and the skip counts in their order."""
    got_d, want_d = got.as_dict(), want.as_dict()
    got_records, want_records = got_d.pop("records"), want_d.pop("records")
    assert json.dumps(got_d) == json.dumps(want_d)
    assert len(got_records) == len(want_records)
    for got_rec, want_rec in zip(got_records, want_records):
        assert json.dumps(got_rec) == json.dumps(want_rec)
    assert list(got.certificates_skipped.items()) == list(want.certificates_skipped.items())


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _batch(strategy="3mg"):
    p = _instance()
    return lambda: run_batch(p, h1=np.ones(p.dim), strategy=strategy, opts=CERTIFIED)


def _online(strategy="3mg"):
    p = _instance()
    return lambda: run_online(_drifting(p), strategy=strategy, opts=CERTIFIED)


def _replay(tmp_path):
    """A replay run whose snapshots 5 and 32 have an indefinite Hessian: one skip in each part."""
    p = _instance()
    limit = p.quad
    bad = limit.R - (min_eig(limit.R) + 2.0) * np.eye(p.dim)
    snapshots = [(limit.R, limit.r)] * 330
    for n in (5, 32):
        snapshots[n - 1] = (bad, limit.r)
    path = tmp_path / "snapshots.jsonl"
    write_replay_file(path, snapshots)
    return lambda: run_online(FileReplayStream(path, quad=limit, penalty=p.penalty), strategy="3mg",
                              opts=CERTIFIED)


def _split(trace):
    """The first iteration the parent certifies: the child takes the first half."""
    return (len(trace.records) - 1) // 2 + 1


def _certify_with(monkeypatch, effect):
    """Patch ``solver.certify_iteration`` to call ``effect(n)`` first."""
    certify = solver.certify_iteration

    def patched(n, *args):
        effect(n)
        return certify(n, *args)

    monkeypatch.setattr(solver, "certify_iteration", patched)


@pytest.mark.parametrize("make", [_batch, _online], ids=["batch", "geometric"])
def test_the_trace_is_the_one_process_trace(make, forks, monkeypatch):
    run = make()
    want = _one_process(monkeypatch, run)
    assert forks == []
    got = run()
    assert forks == [1]
    _assert_same_trace(got, want)
    assert all(rec.cert is not None for rec in got.records[:-1])
    _assert_no_child_left()


@pytest.mark.parametrize("make, strategy", [
    pytest.param(_batch, "3mg", id="batch"), pytest.param(_online, "3mg", id="geometric"),
    pytest.param(_replay, "3mg", id="replay"),
    # memory:5 reads the 3 past iterates of its window, full none
    *(pytest.param(make, strategy, id=f"{name}-{strategy}") for strategy in ("memory:5", "full")
      for make, name in ((_batch, "batch"), (_online, "geometric"))),
])
def test_each_certificate_is_the_one_of_the_loop_s_own_step(make, strategy, tmp_path, forks, monkeypatch):
    """The certificate pass gives what the loop's own majorant and direction matrix give."""
    run = make(tmp_path) if make is _replay else make(strategy)
    steps = []
    step = solver.subspace_step

    def capturing(m, D):
        steps.append((m, D))
        return step(m, D)

    monkeypatch.setattr(solver, "subspace_step", capturing)
    trace = run()
    assert forks == [1]
    assert len(steps) == len(trace.records) - 1
    epsilon = trace.meta["epsilon"]
    limit = _instance().quad.R
    for rec, (m, D) in zip(trace.records, steps):
        try:
            want = certify_iteration(rec.n, m.gradient_at_anchor, D, m.curvature, epsilon, limit,
                                     factor_hessian(m.problem, m.anchor))
        except NumericError:
            want = None
        assert rec.cert == want
    assert sum(rec.cert is None for rec in trace.records) == 1 + (2 if make is _replay else 0)
    _assert_no_child_left()


def test_skipped_certificates_merge_in_iteration_order(tmp_path, forks, monkeypatch):
    run = _replay(tmp_path)

    def breakdown(n):
        if n == 3:
            raise Breakdown("a breakdown in the child's part")

    _certify_with(monkeypatch, breakdown)
    want = _one_process(monkeypatch, run)
    got = run()
    assert forks == [1]
    assert 32 < len(want.records) and 5 < _split(want) <= 32
    # the child's part skips first by Breakdown, the parent's only by NumericError
    assert list(want.certificates_skipped.items()) == [("Breakdown", 1), ("NumericError", 2)]
    _assert_same_trace(got, want)
    _assert_no_child_left()


def test_a_running_average_stream_still_certifies(forks, monkeypatch):
    p = _instance(4)
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((400, p.dim))
    ys = xs @ np.linalg.solve(p.quad.R, p.quad.r) + 0.01 * rng.standard_normal(400)
    R = xs.T @ xs / 400
    limit = QuadraticData(0.5 * (R + R.T), xs.T @ ys / 400)

    def run():
        stream = RunningAverageStream(limit, lambda k: (xs[(k - 1) % 400], ys[(k - 1) % 400]), penalty=p.penalty)
        return run_online(stream, strategy="3mg", opts=SolveOptions(max_iters=60, certify=True))

    want = _one_process(monkeypatch, run)
    got = run()
    assert forks == [1]
    assert sum(rec.cert is not None for rec in got.records) > 10
    _assert_same_trace(got, want)
    _assert_no_child_left()


@pytest.mark.parametrize("parts", [("child",), ("parent",), ("child", "parent")])
def test_an_error_is_the_one_process_error(parts, forks, monkeypatch):
    run = _batch()
    split = _split(_one_process(monkeypatch, run))
    failing = {"child": 3, "parent": split + 3}
    bad = {failing[part] for part in parts}

    def refuse(n):
        if n in bad:
            raise InputError(f"refused at n={n}")

    _certify_with(monkeypatch, refuse)
    with pytest.raises(InputError) as serial:
        _one_process(monkeypatch, run)
    with pytest.raises(InputError) as split_run:
        run()
    assert forks == [1]
    assert str(split_run.value) == str(serial.value) == f"refused at n={min(bad)}"
    _assert_no_child_left()


def test_warnings_are_those_of_one_process(forks, monkeypatch):
    run = _batch()
    split = _split(_one_process(monkeypatch, run))
    warned = {3, split + 3}  # an iteration in each part

    def warn(n):
        if n in warned:
            warnings.warn(f"at n={n}", RuntimeWarning)

    _certify_with(monkeypatch, warn)

    def caught():
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            trace = run()
        return trace, [str(w.message) for w in got]

    want, want_warnings = _one_process(monkeypatch, caught)
    got, got_warnings = caught()
    assert forks == [1]
    assert got_warnings == want_warnings == [f"at n={n}" for n in sorted(warned)]
    _assert_same_trace(got, want)
    _assert_no_child_left()


def test_a_child_that_ends_early_leaves_its_part_to_the_parent(forks, monkeypatch):
    run = _online()
    want = _one_process(monkeypatch, run)
    parent = os.getpid()

    def dying(n):
        if os.getpid() != parent:
            os._exit(3)

    _certify_with(monkeypatch, dying)
    got = run()
    assert forks == [1]
    _assert_same_trace(got, want)
    _assert_no_child_left()


def _breaking_at(monkeypatch, run, k):
    """``run`` with the loop's k-th step raising a NumericError."""
    step = solver.subspace_step

    def broken():
        calls = []

        def breaking(m, D):
            calls.append(1)
            if len(calls) == k:
                raise NumericError(f"loop breaks at iteration {k}")
            return step(m, D)

        with monkeypatch.context() as m:
            m.setattr(solver, "subspace_step", breaking)
            return run()

    return broken


def test_a_loop_error_comes_after_the_certificates_before_it(forks, monkeypatch):
    run = _breaking_at(monkeypatch, _batch(), 25)
    certified = []
    _certify_with(monkeypatch, certified.append)
    with pytest.raises(NumericError, match="loop breaks at iteration 25"):
        _one_process(monkeypatch, run)
    assert forks == []
    assert certified == list(range(1, 25))
    with pytest.raises(NumericError, match="loop breaks at iteration 25"):
        run()
    assert forks == [1]
    _assert_no_child_left()


@pytest.mark.parametrize("as_error", [False, True], ids=["error", "warning-as-error"])
def test_a_certificate_error_before_a_loop_error_comes_first(as_error, forks, monkeypatch):
    run = _breaking_at(monkeypatch, _batch(), 25)
    late = 20  # in the parent's part of the 24 certified iterations

    def fail(n):
        if n in (late, 24):
            if as_error:
                warnings.warn(f"certificate warns at n={n}", RuntimeWarning)
            else:
                raise InputError(f"certificate fails at n={n}")

    _certify_with(monkeypatch, fail)
    expected = RuntimeWarning if as_error else InputError
    for call in (lambda: _one_process(monkeypatch, run), run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(expected, match=f"at n={late}$"):
                call()
    assert forks == [1]
    _assert_no_child_left()


def test_cli_solve_writes_the_one_process_files(tmp_path, forks, monkeypatch, capsys):
    p = _instance()
    problem = str(tmp_path / "p.json")
    save_problem(p, problem)
    for stream in (["--stream", "constant"], ["--stream", "geometric:0.9", "--seed", "1"]):
        outputs = []
        for call in (lambda argv: _one_process(monkeypatch, lambda: cli.main(argv)), cli.main):
            stem = str(tmp_path / f"t{len(outputs)}")
            code = call(["solve", "--problem", problem, "--certify", "--trace-out", stem, *stream])
            out = capsys.readouterr()
            files = [open(stem + ext).read().splitlines() for ext in (".json", ".csv")]
            outputs.append((code, out.out, out.err, *files))
        one, two = outputs
        assert one[:3] == two[:3]
        assert one[3] == two[3]
        assert one[4] == two[4]
        assert one[0] == 0
    assert forks == [1, 1]
    _assert_no_child_left()


def test_one_cpu_keeps_one_process(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _batch()().records[0].cert is not None
    assert forks == []


def test_another_thread_keeps_one_process(forks):
    done = threading.Event()
    waiting = threading.Thread(target=done.wait)
    waiting.start()
    try:
        assert _batch()().records[0].cert is not None
    finally:
        done.set()
        waiting.join()
    assert forks == []


def test_a_small_solve_keeps_one_process_at_the_shared_threshold(monkeypatch):
    # 32 certified iterations at n = 8 are 2,048 units of work, far below TWO_PROCESS_WORK
    made = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    assert "TWO_PROCESS_WORK" not in vars(solver) and "TWO_PROCESS_WORK" not in vars(verify)
    assert _batch()().records[0].cert is not None
    assert made == []

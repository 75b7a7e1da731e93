"""A certificate that cannot be computed is counted in the trace, by reason, not dropped silently."""

import json

import numpy as np

from mmsubspace import cli
from mmsubspace.model import HyperbolicPenalty, ProblemInstance, QuadraticData, ZeroPenalty, save_problem
from mmsubspace.solver import SolveOptions, Trace, run_batch, run_online
from mmsubspace.stream import FileReplayStream
from mmsubspace.verify import verify_trace
from conftest import write_replay_file


def replay(tmp_path, first_R, limit, count=30):
    """A replay stream whose first snapshot is ``first_R`` and the rest the limit data."""
    path = tmp_path / "snapshots.jsonl"
    write_replay_file(path, [(first_R, limit.r)] + [(limit.R, limit.r)] * (count - 1))
    return path


def test_non_pd_snapshot_hessian_is_counted_and_round_trips(tmp_path):
    # no penalty, so the first snapshot's Hessian is its indefinite R
    limit = QuadraticData(np.eye(2), np.array([1.0, 0.1]))
    path = replay(tmp_path, np.diag([1.0, -0.5]), limit)
    stream = FileReplayStream(path, quad=limit, penalty=ZeroPenalty())
    trace = run_online(stream, strategy="3mg", opts=SolveOptions(certify=True))
    assert trace.records[0].cert is None
    assert trace.records[1].cert is not None
    assert trace.certificates_skipped == {"NumericError": 1}

    trace.to_json(tmp_path / "t.json")
    assert json.loads((tmp_path / "t.json").read_text())["certificates_skipped"] == {"NumericError": 1}
    assert Trace.from_json(tmp_path / "t.json").certificates_skipped == {"NumericError": 1}


def test_uncertified_trace_keeps_its_file_format(tmp_path):
    p = ProblemInstance(QuadraticData(np.diag([1.0, 4.0]), np.array([1.0, -2.0])), ZeroPenalty())
    run_batch(p, opts=SolveOptions()).to_json(tmp_path / "plain.json")
    assert "certificates_skipped" not in json.loads((tmp_path / "plain.json").read_text())
    certified = run_batch(p, opts=SolveOptions(certify=True))
    certified.to_json(tmp_path / "certified.json")
    assert json.loads((tmp_path / "certified.json").read_text())["certificates_skipped"] == {}
    assert Trace.from_json(tmp_path / "plain.json").certificates_skipped == {}


def test_verify_prints_skipped_certificates_only_when_there_are_some(tmp_path, capsys):
    # the first snapshot's R is singular: the Hessian is still positive definite,
    # so the solve certifies it, but verify's Newton oracle refuses that snapshot
    limit = QuadraticData(np.diag([1.0, 2.0]), np.array([1.0, -1.0]))
    path = replay(tmp_path, np.diag([1.0, 0.0]), limit)
    p = ProblemInstance(limit, HyperbolicPenalty(0.5, 0.3))
    problem = str(tmp_path / "p.json")
    save_problem(p, problem)
    stream = ["--stream", f"replay:{path}"]
    cli.main(["solve", "--problem", problem, "--certify", "--trace-out", str(tmp_path / "online"), *stream])
    cli.main(["solve", "--problem", problem, "--certify", "--trace-out", str(tmp_path / "batch")])
    assert Trace.from_json(tmp_path / "online.json").certificates_skipped == {}
    capsys.readouterr()

    cli.main(["verify", "--problem", problem, "--trace", str(tmp_path / "online.json"), *stream])
    assert "certificates skipped: 1 (OracleError 1)" in capsys.readouterr().out
    cli.main(["verify", "--problem", problem, "--trace", str(tmp_path / "batch.json")])
    assert "certificates skipped" not in capsys.readouterr().out


def test_verify_counts_a_non_pd_snapshot_hessian_as_skipped(tmp_path, capsys):
    # no penalty, so the first snapshot's Hessian is its indefinite R
    limit = QuadraticData(np.eye(2), np.array([1.0, 0.1]))
    path = replay(tmp_path, np.diag([1.0, -0.5]), limit)
    problem = str(tmp_path / "p.json")
    save_problem(ProblemInstance(limit, ZeroPenalty()), problem)
    stream = ["--stream", f"replay:{path}"]
    cli.main(["solve", "--problem", problem, "--certify", "--trace-out", str(tmp_path / "online"), *stream])
    capsys.readouterr()

    code = cli.main(["verify", "--problem", problem, "--trace", str(tmp_path / "online.json"), *stream])
    out = capsys.readouterr().out
    assert "certificates skipped: 1 (NumericError 1)" in out
    assert "overall: PASS" in out
    assert code == 0


def test_a_refused_oracle_skips_only_the_checks_that_need_f_star(tmp_path):
    # as above: the first snapshot's Hessian is positive definite but its R is singular
    limit = QuadraticData(np.diag([1.0, 2.0]), np.array([1.0, -1.0]))
    path = replay(tmp_path, np.diag([1.0, 0.0]), limit)
    p = ProblemInstance(limit, HyperbolicPenalty(0.5, 0.3))

    def stream():
        return FileReplayStream(path, quad=limit, penalty=p.penalty)

    trace = run_online(stream(), strategy="3mg", opts=SolveOptions(certify=True))
    report = verify_trace(p, trace, stream=stream())
    assert report.certificates_skipped == {"OracleError": 1}
    n, row = report.rows[0]
    assert n == 1
    for name in ["eq9_eq10_sandwich", "eq72_kantorovich_floor", "eq74_cap", "kappa_lo_ge_1"]:
        assert row[name], name
        assert report.results[name].checked == len(trace.records) - 1
    assert "eq6_gap_bound" not in row and "eq7_decay" not in row

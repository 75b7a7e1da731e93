"""A genuine online trace of a memory subspace that ``verify`` rejects.

Solved with ``--subspace memory:5 --stream geometric:0.9 --seed 1
--grad-tol 1e-13 --certify``, the rand-spd problem of order 20 and
condition 50 from ``default_rng(1)`` (the benchmark's ``spd_problem``)
gives a trace that ``verify`` fails with ``first failing field: theta_tilde
at n = 105``, although nothing in it was changed.  The test asserts that
verify passes, so it fails until the θ̃ proof accepts such traces; strict,
so the change that mends it must also drop the mark.
"""

import json

import numpy as np
import pytest

from mmsubspace.cli import main
from mmsubspace.problems import random_spd

STREAM = ["--stream", "geometric:0.9", "--seed", "1"]


def spd_problem(n: int, cond: float, rng: np.random.Generator) -> dict:
    """The benchmark's rand-spd problem: a fixed spectrum, a hyperbolic penalty and identity L."""
    R = random_spd(n, cond, rng)
    return {
        "dim": n,
        "R": (0.5 * (R + R.T)).tolist(),
        "r": rng.standard_normal(n).tolist(),
        "penalty": {"kind": "hyperbolic", "lambda": 1.0, "delta": 1.0, "L": "identity"},
    }


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="verify's theta_tilde proof rejects this genuine memory:5 online trace at n = 105")
def test_verify_accepts_a_genuine_memory_subspace_online_trace(tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(spd_problem(20, 50.0, np.random.default_rng(1))))
    trace = tmp_path / "t"
    solved = main(["solve", "--problem", str(problem), "--subspace", "memory:5", *STREAM,
                   "--grad-tol", "1e-13", "--certify", "--trace-out", str(trace)])
    if solved != 0:  # not the reproduction: fail outright, not as the expected failure
        pytest.fail(f"the solve exited {solved}")
    capsys.readouterr()
    code = main(["verify", "--problem", str(problem), "--trace", f"{trace}.json", *STREAM])
    out = capsys.readouterr().out
    assert code == 0, out

"""Seeded problem files and command plans for the benchmark workloads.

Every workload runs the same user session, ``solve`` then
``solve --certify --trace-out`` then ``verify --trace``, on inputs chosen so
that a different layer of ``mmsubspace`` dominates.  A workload is a list of
command groups.  One pass runs each group ``reps`` times, and each run of a
group, the sum of its commands' times, is one timing sample of its metric.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

COND = 50.0
SMALL_COUNT = 5
ONLINE_COUNT = 3
ONLINE_STREAM = "geometric:0.9"


def spd_problem(n: int, cond: float, rng: np.random.Generator) -> dict:
    """Random SPD data with a fixed spectrum, hyperbolic penalty, identity L."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    R = (Q * np.geomspace(1.0, cond, n)) @ Q.T
    return {
        "dim": n,
        "R": (0.5 * (R + R.T)).tolist(),
        "r": rng.standard_normal(n).tolist(),
        "penalty": {"kind": "hyperbolic", "lambda": 1.0, "delta": 1.0, "L": "identity"},
    }


def deconv_problem(n: int, rng: np.random.Generator) -> dict:
    """1-D deconvolution: R = H'H + 1e-2 I, r = H'y, hyperbolic penalty on first differences.

    H is a Gaussian blur and the signal is a fixed piecewise-constant test
    pattern; only the measurement noise comes from the seed, which keeps the
    iteration count within a few percent across seeds.
    """
    i = np.arange(n)
    H = np.exp(-0.5 * ((i[:, None] - i[None, :]) / 2.0) ** 2)
    H /= H.sum(axis=1, keepdims=True)
    t = i / n
    x = np.select([t < 0.2, t < 0.45, t < 0.6, t < 0.8], [0.0, 1.0, -0.5, 0.3], -1.0)
    y = H @ x + 0.01 * rng.standard_normal(n)
    R = H.T @ H + 1e-2 * np.eye(n)
    L = np.eye(n - 1, n, 1) - np.eye(n - 1, n)
    return {
        "dim": n,
        "R": (0.5 * (R + R.T)).tolist(),
        "r": (H.T @ y).tolist(),
        "penalty": {"kind": "hyperbolic", "lambda": 0.05, "delta": 0.01, "L": L.tolist()},
    }


def _solve(problem: str, *extra: str) -> dict:
    return {"kind": "solve", "problem": problem, "argv": ["solve", "--problem", problem, "--subspace", "3mg", *extra]}


def _session(problem: str, trace: str, solve_reps: int, *stream: str) -> list[dict]:
    """Groups for solve, certify, then verify of the certified trace."""
    return [
        {"metric": "solve_s", "reps": solve_reps, "cmds": [_solve(problem, *stream)]},
        {"metric": "certify_s", "reps": 1,
         "cmds": [_solve(problem, *stream, "--certify", "--trace-out", trace)]},
        {"metric": "verify_s", "reps": 1,
         "cmds": [{"kind": "verify", "problem": problem,
                   "argv": ["verify", "--problem", problem, "--trace", trace + ".json", *stream]}]},
    ]


def _merge(sessions: list[list[dict]]) -> list[dict]:
    """One group per metric whose commands span all the sessions."""
    return [dict(groups[0], cmds=[cmd for g in groups for cmd in g["cmds"]]) for groups in zip(*sessions)]


def batch_solve(seed: int, workdir: Path) -> tuple[dict, list]:
    problems = {
        "rand-spd": spd_problem(500, COND, np.random.default_rng([seed, 0])),
        "deconv1d": deconv_problem(250, np.random.default_rng([seed, 1])),
    }
    for k in range(SMALL_COUNT):
        problems[f"small{k}"] = spd_problem(20, COND, np.random.default_rng([seed, 2 + k]))
    paths = _write(problems, workdir)
    # one certify or verify sample spans all small instances, so that their
    # iteration counts average out across seeds
    small = _merge([_session(paths[f"small{k}"], str(workdir / f"small{k}-trace"), 1)
                    for k in range(SMALL_COUNT)])
    solve = dict(small[0], cmds=[_solve(paths["rand-spd"]), _solve(paths["deconv1d"], "--grad-tol", "1e-8")])
    return paths, [solve] + small[1:]


def batch_certify(seed: int, workdir: Path) -> tuple[dict, list]:
    paths = _write({"cert": spd_problem(90, COND, np.random.default_rng([seed, 0]))}, workdir)
    return paths, _session(paths["cert"], str(workdir / "cert-trace"), 5)


def online_track(seed: int, workdir: Path) -> tuple[dict, list]:
    paths = _write({f"online{k}": spd_problem(40, COND, np.random.default_rng([seed, k]))
                    for k in range(ONLINE_COUNT)}, workdir)
    stream = ("--stream", ONLINE_STREAM, "--seed", str(seed))
    # the drift, and so the iteration count, depends on the instance; one
    # sample spans several instances so that it averages out across seeds
    sessions = [_session(path, str(workdir / f"{name}-trace"), 2, *stream)
                for name, path in paths.items()]
    return paths, _merge(sessions)


WORKLOADS = {
    "batch-solve": batch_solve,
    "batch-certify": batch_certify,
    "online-track": online_track,
}


def _write(problems: dict, workdir: Path) -> dict:
    paths = {}
    for name, d in problems.items():
        path = workdir / f"{name}.json"
        with open(path, "w") as f:
            json.dump(d, f)
        paths[name] = str(path)
    return paths

"""Benchmark worker: one closed-loop client that drives ``mmsubspace.cli.main``.

Usage: ``worker.py SRC --ready-only`` imports the package and exits; it is
how set-up time is sampled.  ``worker.py SRC PLAN RESULT`` runs the command
groups of PLAN in passes until the plan's seconds are spent and writes the
timings, command outcomes and peak memory to RESULT.  With tracing on,
passes alternate between untraced and traced, so both are measured on the
same warm process.

BLAS threads are pinned to one before numpy loads, so timings measure the
program and not the thread scheduler.  A fixed probe runs between commands,
and each command's time is rescaled by the probes around it to a reference
host speed, because the speed of a shared host drifts for minutes at a time.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_REPS = 150
# the probe's time on the reference host (2-core KVM Xeon at 2.0 GHz) when
# nothing else contends for its cores
REF_PROBE_S = 0.030


def pin_blas_threads() -> None:
    """Must run before numpy is first imported in the process."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_cli(src: str):
    """Import ``mmsubspace.cli`` from ``src`` and refuse any other copy."""
    sys.path.insert(0, src)
    import mmsubspace.cli as cli

    if Path(cli.__file__).resolve().parent.parent != Path(src).resolve():
        raise ImportError(f"mmsubspace imported from {cli.__file__}, not from {src}")
    return cli


def make_probe():
    """A fixed mix of small LAPACK calls and interpreter work; returns its timer.

    Its time tracks how fast the host runs this process at the moment, and
    no change to ``mmsubspace`` can move it.
    """
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    A = rng.standard_normal((60, 60))
    A = A + A.T
    S = A @ A.T + 60.0 * np.eye(60)
    v = rng.standard_normal(60)

    def probe() -> float:
        t0 = perf_counter()
        for _ in range(PROBE_REPS):
            np.linalg.eigvalsh(A)
            scipy.linalg.cho_factor(S)
            A @ v
            sum(i * i for i in range(300))
        return perf_counter() - t0

    return probe


def normalized(seconds: float, probe_before: float, probe_after: float) -> float:
    """Seconds rescaled to the reference host speed, from the probes around them."""
    return seconds * REF_PROBE_S / (0.5 * (probe_before + probe_after))


def run_command(cli, argv: list[str]) -> tuple[int | None, str | None, str, float]:
    """Run one CLI command in-process; returns (exit code, error, stdout, seconds)."""
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc, error = cli.main(argv), None
    except SystemExit as exc:
        rc, error = exc.code, None
    except Exception as exc:  # a crash is a failed operation, not a dead benchmark
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return rc, error, out.getvalue(), perf_counter() - t0


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def run_pass(cli, groups: list[dict], probe, tracer=None) -> dict:
    """One pass over every group.

    Each repetition of a group is one sample: its seconds, raw and
    normalized.  A probe runs between commands, and each command is
    normalized by the probes on either side of it.
    """
    samples = {g["metric"]: [] for g in groups}
    ops = []
    for gi, group in enumerate(groups):
        if tracer is not None:
            tracer.scope = group["metric"]
        for _ in range(group["reps"]):
            before = probe()
            total = total_norm = 0.0
            for ci, cmd in enumerate(group["cmds"]):
                rc, error, out, dt = run_command(cli, cmd["argv"])
                after = probe()
                total += dt
                total_norm += normalized(dt, before, after)
                before = after
                ops.append([gi, ci, rc, error, last_line(out)])
            samples[group["metric"]].append([total, total_norm])
    return {"samples": samples, "ops": ops}


def run_plan(cli, plan: dict) -> dict:
    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    probe = make_probe()
    passes = []
    t0 = perf_counter()
    # a traced run needs at least one traced and one untraced pass
    min_passes = 2 if tracer else 1
    while len(passes) < min_passes or perf_counter() - t0 < plan["seconds"]:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            p = run_pass(cli, plan["groups"], probe, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        p["traced"] = traced
        p["spans"] = tracer.snapshot() if traced else None
        passes.append(p)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {"passes": passes, "peak_rss_mb": peak_kb / 1024.0}


def main(argv: list[str]) -> int:
    pin_blas_threads()
    cli = import_cli(argv[0])
    print("ready", flush=True)
    if argv[1:] == ["--ready-only"]:
        return 0
    with open(argv[1]) as f:
        plan = json.load(f)
    result = run_plan(cli, plan)
    with open(argv[2], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of mmsubspace: solve, certify, verify and online tracking.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-solve --seed 1 --seconds 25 --trace 0

The benchmark writes the workload's problem files from the seed under
``.perfbench-work/``, computes each problem's reference minimum outside the
timed region, samples set-up time with fresh workers, then runs one worker
process (one closed-loop client) for ``--seconds`` and checks the output of
every command it ran.  Earlier lines of stdout hold a provenance block and a
table; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The metrics are the ``end_to_end`` list of
BENCHMARK.json, or with ``--trace 1`` its ``per_layer`` list, which comes
from passes that alternate with untraced ones in the same worker.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import worker

worker.pin_blas_threads()

import numpy as np  # noqa: E402  (after the BLAS threads are pinned)
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
OBJ_RTOL = 1e-9
SOLVE_RE = re.compile(r"^iterations: (\d+)\s+converged: (\w+)\s+final \|grad\|: \S+\s+obj: (\S+)$")


def reference_minima(paths: dict) -> dict:
    """F* of each problem file, from the package's Newton oracle."""
    worker.import_cli(str(SRC))
    from mmsubspace.model import load_problem
    from mmsubspace.solver import reference_minimizer

    return {path: reference_minimizer(load_problem(path)).value for path in paths.values()}


def sample_setup(n: int) -> list[list[float]]:
    """Seconds, raw and normalized, from spawning a fresh worker until it can
    issue its first command."""
    probe = worker.make_probe()
    samples = []
    for _ in range(n):
        before = probe()
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), str(SRC), "--ready-only"],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline().strip()
        elapsed = perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line != "ready":
            raise RuntimeError(f"set-up worker failed (exit {proc.returncode})")
        samples.append([elapsed, worker.normalized(elapsed, before, probe())])
    return samples


def run_worker(plan: dict, workdir: Path, timeout: float) -> dict:
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run([sys.executable, str(WORKER), str(SRC), str(plan_path), str(result_path)],
                          capture_output=True, text=True, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def op_failure(cmd: dict, rc, error, line: str, fstar: dict) -> str | None:
    """Why one command failed, or None when its output is correct."""
    if error is not None:
        return "raised"
    if rc != 0:
        return f"exit {rc}"
    if cmd["kind"] == "verify":
        return None if line.startswith("overall: PASS") else "verify not PASS"
    m = SOLVE_RE.match(line)
    if m is None:
        return "no solve summary"
    if m.group(2) != "True":
        return "not converged"
    f_star = fstar[cmd["problem"]]
    if abs(float(m.group(3)) - f_star) > OBJ_RTOL * (1.0 + abs(f_star)):
        return "objective off reference"
    return None


def gate(groups: list, passes: list, fstar: dict) -> tuple[int, Counter]:
    """Operations attempted and the failure reasons, over every pass.

    ``iters`` must repeat exactly, so a solve also fails when its iteration
    count differs from the one the same command gave the first time it ran,
    in any pass, traced or not.
    """
    attempted, reasons, first_iters = 0, Counter(), {}
    for p in passes:
        for gi, ci, rc, error, line in p["ops"]:
            attempted += 1
            why = op_failure(groups[gi]["cmds"][ci], rc, error, line, fstar)
            m = SOLVE_RE.match(line)
            if why is None and m and first_iters.setdefault((gi, ci), m.group(1)) != m.group(1):
                why = "iters not repeated"
            if why is not None:
                reasons[why] += 1
    return attempted, reasons


def pass_iters(p: dict) -> int:
    """Iterations over all the solves of one pass, from their summary lines."""
    return sum(int(m.group(1)) for *_, line in p["ops"] if (m := SOLVE_RE.match(line)))


def end_to_end(passes: list, setup: list, peak_rss_mb: float) -> dict:
    """Times are medians of probe-normalized samples (see README.md)."""
    plain = [p for p in passes if not p["traced"]]
    by_metric = {"setup_s": setup}
    for metric in plain[0]["samples"]:
        by_metric[metric] = [s for p in plain for s in p["samples"][metric]]
    out = {"iters": pass_iters(plain[0]), "peak_rss_mb": peak_rss_mb}
    for metric, samples in by_metric.items():
        out[metric] = statistics.median(norm for _, norm in samples)
        out[f"{metric}.raw_median"] = statistics.median(raw for raw, _ in samples)
        out[f"{metric}.samples"] = len(samples)
    return out


def per_layer(passes: list) -> dict:
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        counts = p["spans"]["counts"]
        calls, self_s = Counter(), Counter()
        for stats in p["spans"]["spans"].values():
            for name, (n, own, _) in stats.items():
                calls[name] += n
                self_s[name] += own
        m = {}
        for name in tracing.span_names():
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = float(self_s[name])
        for key in ("solver.reference_minimizer.newton_steps", "solver.trace_json_bytes",
                    "model.problem_bytes", "subspace.fallback", "verify.checks", "verify.failed"):
            m[key] = counts.get(key, 0)
        m["rates.certified_frac"] = (counts.get("rates.records_certified", 0)
                                     / max(counts.get("rates.records_attempted", 0), 1))
        m["linalg.decomps_per_iter"] = sum(calls[n] for n in tracing.DECOMPOSITIONS) / max(pass_iters(p), 1)
        per_pass.append(m)
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out["trace.overhead_s"] = (statistics.median(_pass_seconds(p) for p in traced)
                               - statistics.median(_pass_seconds(p) for p in passes if not p["traced"]))
    return out


def _pass_seconds(p: dict) -> float:
    """Normalized seconds of all the commands in one pass."""
    return sum(norm for samples in p["samples"].values() for _, norm in samples)


def span_table(passes: list) -> list[str]:
    """Calls, self and total seconds per command group, from the last traced pass."""
    spans = [p for p in passes if p["traced"]][-1]["spans"]["spans"]
    lines = [f"  {'group':10s} {'span':42s} {'calls':>8s} {'self_s':>10s} {'total_s':>10s}"]
    for scope, stats in spans.items():
        for name, (n, own, total) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"  {scope:10s} {name:42s} {n:8d} {own:10.4f} {total:10.4f}")
    return lines


def provenance(workload: str, seed: int, paths: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "mmsubspace").glob("*.py")):
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in worker.BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "workload": workload,
        "seed": seed,
        "problem_bytes": {name: os.path.getsize(path) for name, path in paths.items()},
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = perf_counter()
    if not (SRC / "mmsubspace" / "__init__.py").is_file():
        print(f"error: no mmsubspace sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        paths, groups = workloads.WORKLOADS[args.workload](args.seed, workdir)
        prov = provenance(args.workload, args.seed, paths)
        fstar = reference_minima(paths)
        setup = sample_setup(SETUP_SAMPLES)
        plan = {"seconds": args.seconds, "trace": bool(args.trace), "groups": groups}
        result = run_worker(plan, workdir, timeout=DEADLINE_S - (perf_counter() - t_start))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    attempted, reasons = gate(groups, passes, fstar)
    failed = sum(reasons.values())
    values = per_layer(passes) if args.trace else end_to_end(passes, setup, result["peak_rss_mb"])

    print("provenance: " + json.dumps(prov))
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} commands, "
          f"{failed} failed {dict(reasons)}, fail_frac {failed / attempted:.6g}")
    if args.trace:
        print("\n".join(span_table(passes)))
    for name, value in sorted(values.items()):
        print(f"  {name:52s} {value:.6g}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

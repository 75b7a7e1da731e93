"""Command-line front end: solve, verify, demo."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import InputError, NumericError, OracleError
from .model import ProblemInstance, load_problem, save_problem
from .problems import demo_instances
from .rates import batch_rate_summary
from .solver import SolveOptions, reference_minimizer, run_batch, run_online
from .stream import ConstantStream, FileReplayStream, GeometricPerturbationStream
from .subspace import parse_strategy
from .trace import Trace
from .verify import verify_trace


def _flag_value(flag: str, text: str, convert):
    """``convert(text)``, with a malformed value reported as an ``InputError`` naming the flag."""
    try:
        return convert(text)
    except ValueError as exc:
        raise InputError(f"malformed {flag} {text!r}: {exc}") from exc


def build_stream(spec: str, p: ProblemInstance, seed: int):
    """Instantiate a snapshot stream from its CLI spec string.

    The geometric stream derives its perturbation direction from the seed,
    scaled to a few percent of the problem data, so runs are reproducible.
    """
    spec = spec.strip()
    kind = spec.lower()  # a replay path keeps its case
    if kind == "constant":
        return ConstantStream(p.quad, p.penalty)
    if kind.startswith("geometric:"):
        rho = _flag_value("--stream", spec, lambda s: float(s.split(":", 1)[1]))
        rng = np.random.default_rng(seed)
        E = rng.standard_normal((p.dim, p.dim))
        E = 0.5 * (E + E.T)
        E *= 0.05 * np.linalg.norm(p.quad.R) / max(np.linalg.norm(E), 1e-300)
        e = rng.standard_normal(p.dim)
        e *= 0.05 * (1.0 + np.linalg.norm(p.quad.r)) / max(np.linalg.norm(e), 1e-300)
        return GeometricPerturbationStream(p.quad, rho, E, e, penalty=p.penalty)
    if kind.startswith("replay:"):
        return FileReplayStream(spec.split(":", 1)[1], quad=p.quad, penalty=p.penalty)
    raise InputError(f"unknown stream spec {spec!r}")


def _trace_paths(path: str) -> tuple[str, str]:
    """The CSV and the JSON file that a trace written to ``path`` goes to."""
    stem = Path(path)
    if stem.suffix in (".csv", ".json"):
        stem = stem.with_suffix("")
    return str(stem) + ".csv", str(stem) + ".json"


def _write_trace(trace: Trace, path: str) -> None:
    csv_path, json_path = _trace_paths(path)
    trace.to_csv(csv_path)
    trace.to_json(json_path)


def _same_file(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` resolve to one path or, where both exist, name one file."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist
        return False


def _refuse_overwrite(args) -> None:
    """Refuse a ``--trace-out`` whose CSV or JSON file is the ``--problem`` or
    ``--summary-out`` file, before anything is written."""
    for path in _trace_paths(args.trace_out):
        for flag, other in (("--problem", args.problem), ("--summary-out", args.summary_out)):
            if other is not None and _same_file(path, other):
                raise InputError(f"--trace-out {args.trace_out} would overwrite the {flag} file {other}")


def _summary_dict(p: ProblemInstance, trace: Trace, stream, seed: int) -> dict:
    report = verify_trace(p, trace, stream=stream, seed=seed)
    out = {
        "vartheta": None, "mu": None, "eta_lo": None, "eta_hi": None,
        "kappa_max": None, "n_eps": report.n_eps,
        "all_inequalities_pass": report.passed,
    }
    s = report.summary
    if trace.setting("mode") != "batch":
        out["message"] = "online run: rate constants certified per iteration only"
    elif s is None:
        out["message"] = "no certified iterations"
    else:
        out.update(vartheta=s.vartheta, mu=s.mu, eta_lo=s.eta_lo, eta_hi=s.eta_hi, kappa_max=s.kappa_max)
        if report.n_eps is None:
            out["message"] = "not certified within horizon"
    return out


def cmd_solve(args) -> int:
    if args.summary_out and not args.certify:
        raise InputError("--summary-out requires --certify")
    if args.trace_out:
        _refuse_overwrite(args)
    p = load_problem(args.problem)
    opts = SolveOptions(
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        epsilon=args.epsilon,
        certify=args.certify,
    )
    strategy = _flag_value("--subspace", args.subspace, parse_strategy)
    # None is the batch case, for run_batch and verify_trace alike
    stream = None if args.stream == "constant" else build_stream(args.stream, p, args.seed)
    trace = run_batch(p, None, strategy, opts) if stream is None else run_online(stream, None, strategy, opts)
    if args.trace_out:
        _write_trace(trace, args.trace_out)
    if args.summary_out:
        # every stream draws any snapshot again, bitwise, so verify reuses the solve's
        summary = _summary_dict(p, trace, stream, args.seed)
        with open(args.summary_out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    final = trace.final
    print(f"iterations: {trace.n_steps}  converged: {trace.converged}  "
          f"final |grad|: {final.grad_norm:.3e}  obj: {final.obj:.12g}")
    return 0 if trace.converged else 2


def cmd_verify(args) -> int:
    p = load_problem(args.problem)
    trace = Trace.from_json(args.trace)
    stream = build_stream(args.stream, p, args.seed)
    report = verify_trace(p, trace, stream=stream, seed=args.seed)
    if len(report.rows) <= 25:
        for n, row in report.rows:
            checks = "  ".join(f"{k.split('_')[0]}:{'ok' if v else 'FAIL'}" for k, v in row.items())
            print(f"n={n:4d}  {checks}")
    print(report.table())
    skipped = report.certificates_skipped
    if skipped:
        reasons = ", ".join(f"{name} {count}" for name, count in sorted(skipped.items()))
        print(f"certificates skipped: {sum(skipped.values())} ({reasons})")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}"
          + (f"  (certified from n = {report.n_eps})" if report.n_eps else ""))
    return 0 if report.passed else 1


def cmd_demo(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    strategies = ["gradient", "3mg", "full"]
    lines = [f"{'instance':16s} {'strategy':10s} {'iters':>6s} {'conv':>5s} "
             f"{'vartheta':>10s} {'n_eps':>6s}"]
    for name, p in demo_instances(args.seed).items():
        save_problem(p, out / f"{name}.json")
        ref = reference_minimizer(p, tol=1e-12)
        for sname in strategies:
            opts = SolveOptions(max_iters=400, grad_tol=1e-9, certify=True)
            trace = run_batch(p, None, parse_strategy(sname), opts)
            _write_trace(trace, str(out / f"{name}-{sname}"))
            try:
                s = batch_rate_summary(p, trace, trace.setting("epsilon"), ref)
                vt, ne = f"{s.vartheta:.6f}", ("-" if s.n_eps is None else str(s.n_eps))
            except InputError:
                vt, ne = "-", "-"
            lines.append(f"{name:16s} {sname:10s} {trace.n_steps:6d} "
                         f"{str(trace.converged):>5s} {vt:>10s} {ne:>6s}")
    table = "\n".join(lines)
    (out / "comparison.txt").write_text(table + "\n")
    print(table)
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mmsubspace",
                                 description="MM subspace solver with rate certification")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the solver on a problem file")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--subspace", default="3mg",
                    help="memory:<m> | gradient (memory:2) | 3mg (memory:3) | full")
    sp.add_argument("--stream", default="constant",
                    help="constant | geometric:<rho> | replay:<path>")
    sp.add_argument("--max-iters", type=int, default=500)
    sp.add_argument("--grad-tol", type=float, default=1e-10)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--certify", action="store_true")
    sp.add_argument("--trace-out", default=None)
    sp.add_argument("--summary-out", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_solve)

    vp = sub.add_parser("verify", help="re-check all inequalities on a recorded trace")
    vp.add_argument("--problem", required=True)
    vp.add_argument("--trace", required=True, help="trace JSON written by solve")
    vp.add_argument("--stream", default="constant")
    vp.add_argument("--seed", type=int, default=0)
    vp.set_defaults(func=cmd_verify)

    dp = sub.add_parser("demo", help="run all strategies on the built-in instances")
    dp.add_argument("--seed", type=int, default=0)
    dp.add_argument("--out-dir", default="demo-out")
    dp.set_defaults(func=cmd_demo)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OracleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

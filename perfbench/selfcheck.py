"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; exits 0 when both checks hold.  The
problems come from the fixed seed ``SEED``.

1. The tracing wrappers change no result: every command of every workload
   runs once untraced and once traced in one process, and the printed
   output (iterations, objective, verify table) and every trace JSON written
   must be identical.
2. The correctness gate catches a corrupted trace: on batch-certify, one
   recorded objective value is perturbed, and the gate of run.py must count
   the ``verify`` of that trace as a failed operation while the untouched
   trace passes.  The gate must also fail a certify that reports another
   iteration count in a later pass than in the first.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import worker

worker.pin_blas_threads()

import run  # noqa: E402  (after the BLAS threads are pinned)
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def _trace_json(cmd: dict) -> bytes | None:
    argv = cmd["argv"]
    if "--trace-out" not in argv:
        return None
    return Path(argv[argv.index("--trace-out") + 1] + ".json").read_bytes()


def check_tracing_is_transparent(cli, workdir: Path, seed: int) -> bool:
    tracer = tracing.Tracer()
    ok = True
    for name, make in workloads.WORKLOADS.items():
        wdir = workdir / name
        wdir.mkdir()
        _, groups = make(seed, wdir)
        for group in groups:
            for cmd in group["cmds"]:
                plain = worker.run_command(cli, cmd["argv"])
                plain_json = _trace_json(cmd)
                tracer.install()
                try:
                    traced = worker.run_command(cli, cmd["argv"])
                finally:
                    tracer.uninstall()
                same = plain[:3] == traced[:3] and plain_json == _trace_json(cmd)
                ok = ok and same and plain[0] == 0
                print(f"{'ok  ' if same else 'FAIL'} {name:14s} {group['metric']:10s} "
                      f"{worker.last_line(plain[2])}")
    return ok


def check_gate_catches_corruption(cli, workdir: Path, seed: int) -> bool:
    wdir = workdir / "corrupt"
    wdir.mkdir()
    paths, groups = workloads.batch_certify(seed, wdir)
    certify, verify = groups[1]["cmds"][0], groups[2]["cmds"][0]
    trace_path = certify["argv"][certify["argv"].index("--trace-out") + 1] + ".json"
    corrupt_path = str(wdir / "corrupt-trace.json")
    corrupt_verify = dict(verify, argv=[corrupt_path if a == trace_path else a for a in verify["argv"]])

    ops = [[0, 0, *_outcome(cli, certify)]]
    trace = json.loads(Path(trace_path).read_text())
    rec = trace["records"][len(trace["records"]) // 2]
    rec["obj"] += 1e-3 * (1.0 + abs(rec["obj"]))
    Path(corrupt_path).write_text(json.dumps(trace))
    ops.append([0, 1, *_outcome(cli, verify)])
    ops.append([0, 2, *_outcome(cli, corrupt_verify)])

    gate_groups = [{"cmds": [certify, verify, corrupt_verify]}]
    fstar = run.reference_minima(paths)
    _, clean = run.gate(gate_groups, [{"ops": ops[:2]}], fstar)
    attempted, reasons = run.gate(gate_groups, [{"ops": ops}], fstar)
    failed = sum(reasons.values())
    print(f"corrupted trace: {attempted} attempted, {failed} failed {dict(reasons)}, "
          f"fail_frac {failed / attempted:.4g}")

    # a later pass in which the same certify takes one more iteration
    rc, error, line = ops[0][2:]
    iters = run.SOLVE_RE.match(line).group(1)
    changed = line.replace(f"iterations: {iters}", f"iterations: {int(iters) + 1}", 1)
    _, repeat = run.gate(gate_groups, [{"ops": ops[:1]}, {"ops": [[0, 0, rc, error, changed]]}], fstar)
    print(f"changed iteration count: failed {dict(repeat)}")
    return not clean and attempted == 3 and failed == 1 and repeat == {"iters not repeated": 1}


def _outcome(cli, cmd: dict) -> list:
    rc, error, out, _ = worker.run_command(cli, cmd["argv"])
    return [rc, error, worker.last_line(out)]


def main() -> int:
    cli = worker.import_cli(str(run.SRC))
    work_root = run.ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=work_root))
    try:
        transparent = check_tracing_is_transparent(cli, workdir, SEED)
        gated = check_gate_catches_corruption(cli, workdir, SEED)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"tracing changes no result: {transparent}; gate counts corrupted trace: {gated}")
    return 0 if transparent and gated else 1


if __name__ == "__main__":
    sys.exit(main())

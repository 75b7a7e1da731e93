"""Per-function spans around the public functions of ``mmsubspace``.

The wrappers are installed from outside the package: a name bound with
``from .x import f`` is replaced in every ``mmsubspace`` module that holds
it, including the defining module so that in-function imports resolve to
the wrapper at call time.  Stream and ``Trace`` methods are replaced on
their classes.  Each span records calls, self time (its duration minus
the time of the wrapped spans it encloses) and total time, keyed by the
command group that was running.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

FUNCTIONS = {
    "model": ["eval_objective", "eval_gradient", "eval_hessian", "majorant_curvature", "load_problem"],
    "majorant": ["build_majorant", "check_majorization"],
    "subspace": ["build_subspace"],
    "solver": ["run_batch", "run_online", "subspace_step", "reference_minimizer"],
    "rates": ["certify_iteration", "compute_theta_tilde", "compute_kappa_bounds",
              "compute_sigma_bounds", "batch_rate_summary", "check_linear_iterate_convergence"],
    "verify": ["verify_trace"],
    "linalg": ["extreme_eigs", "psd_pinv", "pd_solve", "sym_sqrt", "check_symmetric"],
    "cli": ["main", "build_stream"],
}
TRACE_METHODS = ["to_json", "to_csv", "from_json"]
DECOMPOSITIONS = ["linalg.extreme_eigs", "linalg.psd_pinv", "linalg.pd_solve", "linalg.sym_sqrt"]


def span_names() -> list[str]:
    """Every span name, in a fixed order."""
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += [f"solver.Trace.{m}" for m in TRACE_METHODS]
    names.append("stream.next_estimate")
    return names


def _count_run(counts, trace, args, kwargs):
    if trace.meta.get("certify"):
        attempted = trace.records[:-1]  # the final record is never certified
        counts["rates.records_attempted"] += len(attempted)
        counts["rates.records_certified"] += sum(rec.cert is not None for rec in attempted)


def _count_verify(counts, report, args, kwargs):
    counts["verify.checks"] += sum(r.checked for r in report.results.values())
    counts["verify.failed"] += sum(len(r.failures) for r in report.results.values())


# counters recorded at the boundary where the work happens
AFTER = {
    "model.load_problem":
        lambda counts, out, args, kw: counts.update({"model.problem_bytes": os.path.getsize(args[0])}),
    "solver.Trace.to_json":
        lambda counts, out, args, kw: counts.update({"solver.trace_json_bytes": os.path.getsize(args[1])}),
    "solver.reference_minimizer":
        lambda counts, out, args, kw: counts.update({"solver.reference_minimizer.newton_steps": out.iterations}),
    "subspace.build_subspace":
        lambda counts, out, args, kw: counts.update({"subspace.fallback": int(out.fallback)}),
    "solver.run_batch": _count_run,
    "solver.run_online": _count_run,
    "verify.verify_trace": _count_verify,
}


class Tracer:
    """Span and counter recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self._open: list[list[float]] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.scope = ""  # the command group running now
        # scope -> span name -> [calls, self seconds, total seconds]
        self.spans: defaultdict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        self.counts: Counter = Counter()

    def _wrap(self, name: str, fn):
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            child = [0.0]
            self._open.append(child)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._open.pop()
                stat = self.spans[self.scope][name]
                stat[0] += 1
                stat[1] += dt - child[0]
                stat[2] += dt
                if self._open:
                    self._open[-1][0] += dt
            if after is not None:
                after(self.counts, out, args, kwargs)
            return out

        return functools.wraps(fn)(wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "mmsubspace" or name.startswith("mmsubspace.")}
        for mod, fns in FUNCTIONS.items():
            for fn in fns:
                orig = getattr(pkg[f"mmsubspace.{mod}"], fn)
                wrapped = self._wrap(f"{mod}.{fn}", orig)
                for module in pkg.values():
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            self._set(module, attr, wrapped)
        trace_cls = pkg["mmsubspace.solver"].Trace
        for meth in TRACE_METHODS:
            raw = trace_cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._set(trace_cls, meth, classmethod(self._wrap(f"solver.Trace.{meth}", raw.__func__)))
            else:
                self._set(trace_cls, meth, self._wrap(f"solver.Trace.{meth}", raw))
        stream = pkg["mmsubspace.stream"]
        for cls in vars(stream).values():
            if (isinstance(cls, type) and issubclass(cls, stream.EstimateStream)
                    and cls.__module__ == stream.__name__ and "next_estimate" in cls.__dict__):
                self._set(cls, "next_estimate", self._wrap("stream.next_estimate", cls.__dict__["next_estimate"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> dict:
        return {"spans": {scope: dict(stats) for scope, stats in self.spans.items()},
                "counts": dict(self.counts)}

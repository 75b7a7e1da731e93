"""Offline re-checking of a recorded trace against every certified inequality.

Everything is recomputed from the stored iterates, on the snapshots of the
solver's own stream type; only the surrogate decrease check reuses the
recorded objective column, so a corrupted objective value in the file is
caught there.  A batch trace reads both sides of the decrease from the
column; an online trace reads the current one, since the next record's
value belongs to the next snapshot.  Each verified iteration builds its
direction matrix and factors its Hessian once, for the subspace ordering and
one certificate, with the past iterates of ``solver._history``, the one
history rule.  The Newton oracle for ``F* = inf F`` gates only the gap bound
and decay (eq6/eq7) and the batch summary.  It runs once for a batch trace
and once per certified online snapshot, from the previous snapshot's
minimizer, never from an MM iterate, in a chain after the checks of the
records it serves, drawing each snapshot again unless the stream cannot.
An iteration whose certificate or oracle raises counts as skipped once, by
the class of its first error.  F and its gradient are evaluated at every
record, the last included, so an iterate that overflows them is refused as
input.  The eq6 gap bound holds by construction at every ``n >= n_eps``:
``n_eps`` is found by the same predicate over the same rows, so the eq6 row
counts the certified regime; eq7 is the test made there.

No record's checks read another record's results, so a large trace is
checked in two processes, through ``processes``, the helper that also splits
a solve's certification: where ``os.fork`` exists, the affinity mask holds
at least 2 CPUs, no other Python thread is alive, the stream's snapshots can
be drawn in any order and (records - 1) * dim**2 reaches
``TWO_PROCESS_WORK``, a forked child checks the first part of the records
and runs their chain, piping its verdicts back while the parent checks the
rest; the parent's chain continues from the child's last minimizer, and the
verdicts merge in record order.  The report, the output, the first
exception and the warnings are those of one process, except that the child's
oracle errors and warnings precede the parent's checks'.  Wall time falls;
CPU time rises by the fork, the page faults of both processes and the parts
that run twice.  Records must be numbered 1, 2, ... in order; any other
numbering is refused as input.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, NumericError, OracleError
from .majorant import build_majorant, check_majorization
from .model import ProblemInstance, eval_objective, eval_objective_and_gradient
from .processes import TWO_PROCESS_WORK, in_two_processes, two_processes
from .rates import (
    BatchRateSummary,
    RateCertificate,
    batch_rate_summary,
    certified_regime_start,
    certify_iteration,
    check_decay_inequality,
    check_linear_iterate_convergence,
    check_subspace_ordering,
    factor_hessian,
    sigma_spread,
)
from .solver import Trace, _history, _resolve_epsilon, optimal_gradient_step, reference_minimizer
from .stream import ConstantStream, EstimateStream
from .subspace import build_subspace, history_window, parse_strategy

# sampled points per iteration in the majorization check
MAJORIZATION_SAMPLES = 20


@dataclass
class EqResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    def record(self, n: int, ok: bool):
        self.checked += 1
        if not ok:
            self.failures.append(n)

    @property
    def passed(self) -> bool:
        return not self.failures


EQ_NAMES = [
    "eq3_majorization",
    "eq30_surrogate_decrease",
    "eq41_gradient_step_domination",
    "eq65_gradient_lower_bound",
    "eq68_full_space_upper_bound",
    "eq75_curvature_domination",
    "eq6_gap_bound",
    "eq7_decay",
    "eq9_eq10_sandwich",
    "eq72_kantorovich_floor",
    "eq74_cap",
    "kappa_lo_ge_1",
    "eq11_spread",
    "eq12_geometric_decay",
    "eq17_iterate_bound",
]


@dataclass
class VerificationReport:
    results: dict
    n_eps: int | None
    certified: bool
    rows: list  # (n, {eq: bool or None}) for per-iteration reporting
    summary: BatchRateSummary | None = None  # batch runs with certified iterations
    # certificates not re-checked because the oracle or the certificate raised,
    # by the error's class name
    certificates_skipped: Counter = field(default_factory=Counter)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def table(self) -> str:
        lines = [f"{'equation':34s} {'checked':>8s} {'failed':>7s}  status"]
        for name in EQ_NAMES:
            r = self.results[name]
            status = "pass" if r.passed else ("skip" if r.checked == 0 else "FAIL")
            extra = ""
            if r.failures:
                shown = ", ".join(str(n) for n in r.failures[:8])
                extra = f"  (at n = {shown}{', ...' if len(r.failures) > 8 else ''})"
            lines.append(f"{name:34s} {r.checked:8d} {len(r.failures):7d}  {status}{extra}")
        return "\n".join(lines)


def verify_trace(
    p: ProblemInstance,
    trace: Trace,
    stream: EstimateStream | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Re-run every inequality check against a recorded trajectory.

    ``stream`` gives the instance active at each iteration, as in
    ``run_online``; ``None`` means the batch case, a ``ConstantStream`` on
    ``p``.  Raises InputError when the records are not numbered 1, 2, ...
    in order, when the trace does not match the problem, when a record's
    iterate, objective or gradient is not finite, or when a batch trace gets
    a drifting stream or an online trace a constant one.
    The certificates use the margin ε stored in ``trace.meta``, or the
    solver's default rule when none is stored.

    The ``eq6_gap_bound`` row is the predicate that defines ``n_eps``
    (``rates.certified_regime_start``), checked only from ``n_eps`` on, so
    it cannot fail and its count is the certified regime; ``eq7_decay`` is
    the inequality tested there.

    A large enough trace is checked by two processes (``_two_processes``),
    with the report, errors and warnings of one but for one order (see above).
    """
    recs = trace.records
    if not recs:
        raise InputError("empty trace")
    for i, rec in enumerate(recs, 1):
        if rec.n != i:
            raise InputError(f"trace record {i} is numbered n={rec.n}: records must be numbered 1, 2, ... "
                             "in order")
    if any(len(rec.h) != p.dim for rec in recs):
        raise InputError("trace/problem dimension mismatch")
    for rec in recs:
        if not (math.isfinite(rec.obj) and math.isfinite(rec.grad_norm) and np.isfinite(rec.h).all()):
            raise InputError(f"trace record n={rec.n} has a non-finite iterate, objective or gradient norm")
    mode = trace.meta.get("mode", "batch")
    if stream is None:
        stream = ConstantStream(p.quad, p.penalty)
    if isinstance(stream, ConstantStream) != (mode == "batch"):
        raise InputError(f"a {type(stream).__name__} does not match this {mode} trace: "
                         "pass the --stream and --seed it was solved with")
    strategy = parse_strategy(trace.meta.get("strategy", "3mg"))

    # a stored 0 or null means the default
    epsilon = _resolve_epsilon(trace.meta.get("epsilon") or None, p.quad.R)
    checker = _RecordChecker(p, recs, stream, mode, strategy, epsilon, seed)

    # F* of the batch problem, or the last online snapshot's, which warm-starts the next
    ref = reference_minimizer(p, tol=1e-12) if mode == "batch" else None

    if _two_processes(p, recs, stream):
        verdicts = _check_in_two_processes(checker, ref)
    else:
        verdicts = checker.check(0, len(recs) - 1)
        checker.chain(verdicts, ref)

    results = {name: EqResult(name) for name in EQ_NAMES}
    certified_recs = []
    skipped = Counter()
    for rec, v in zip(recs, verdicts):
        for name, ok in v.row.items():
            results[name].record(v.n, ok)
        if v.skipped is not None:
            skipped[v.skipped] += 1
        if v.cert is not None and mode == "batch":  # only the batch summary reads the certified records
            certified_recs.append(replace(rec, cert=v.cert))

    # the gap bound and the decay inequality are asserted only from the
    # first index where the Hessian floor and the gap bound hold for good
    n_eps_detect = certified_regime_start((v.n, v.cert, v.f, v.inf_F) for v in verdicts if v.inf_F is not None)
    for v in verdicts:
        if v.inf_F is not None and n_eps_detect is not None and v.n >= n_eps_detect:
            dec = check_decay_inequality(v.cert, v.f, v.f_next, v.inf_F)
            for name, ok in (("eq6_gap_bound", dec.gap_bound_ok), ("eq7_decay", dec.decay_ok)):
                v.row[name] = ok
                results[name].record(v.n, ok)
    rows = [(v.n, v.row) for v in verdicts]

    # whole-run rate bounds: batch case only
    n_eps = n_eps_detect
    certified = n_eps_detect is not None
    summary = None
    if mode == "batch" and certified_recs:
        vtrace = Trace(records=certified_recs + [recs[-1]])
        summary = batch_rate_summary(p, vtrace, epsilon, ref)
        certified = summary.certified
        n_eps = summary.n_eps if summary.certified else None
        for rec in certified_recs:
            spread = sigma_spread(rec.cert.sigma_lo, rec.cert.sigma_hi)
            results["eq11_spread"].record(rec.n, spread <= summary.spread_cap + 1e-10)
        if summary.certified:
            lin = check_linear_iterate_convergence(vtrace, summary, ref)
            results["eq12_geometric_decay"].record(summary.n_eps, lin.geometric_ok)
            results["eq17_iterate_bound"].record(summary.n_eps, lin.strong_convexity_ok)
    return VerificationReport(results=results, n_eps=n_eps, certified=certified, rows=rows,
                              summary=summary, certificates_skipped=skipped)


@dataclass
class _Verdict:
    """The per-iteration checks of the step out of one record, as the merge records them."""

    n: int
    row: dict  # {eq: bool} in check order
    f: float  # F of the record's snapshot at its iterate
    f_next: float  # the same snapshot's F at the next iterate
    cert: RateCertificate | None = None
    skipped: str | None = None  # class name of the error that skipped the certificate or oracle
    inf_F: float | None = None  # the oracle's F*, once it ran for a certificate
    p_n: ProblemInstance | None = None  # a snapshot the stream cannot draw again, until the oracle ran


class _RecordChecker:
    """Every per-iteration check of one trace, over any contiguous range of its records.

    No record's checks read another record's results: the subspace history
    of a range comes from the stored iterates before it.  Only the online
    oracle's warm starts chain from one certified record to the next (``chain``).
    """

    def __init__(self, p, recs, stream, mode, strategy, epsilon, seed):
        self.p, self.recs, self.stream, self.mode = p, recs, stream, mode
        self.strategy, self.epsilon, self.seed = strategy, epsilon, seed

    def snapshot_at(self, rec):
        """The snapshot of ``rec`` with F and its gradient at the record's iterate.

        A huge finite iterate can overflow them; that is refused as input,
        naming the record, and not warned about.
        """
        p_n = self.stream.instance(rec.n)
        with np.errstate(over="ignore", invalid="ignore"):
            f, g = eval_objective_and_gradient(p_n, rec.h)
        if not (np.isfinite(f) and np.isfinite(g).all()):
            raise InputError(f"the objective or its gradient at the iterate of trace record n={rec.n} "
                             "is not finite")
        return p_n, f, g

    def check(self, lo: int, hi: int) -> list:
        """Verdicts for the steps out of records ``lo`` to ``hi - 1``, in record
        order, without F*: ``chain`` adds it."""
        recs, mode, strategy = self.recs, self.mode, self.strategy
        window = history_window(strategy)
        verdicts = []
        snapshot_next = self.snapshot_at(recs[lo])
        for k in range(lo, hi):
            rec, rec_next = recs[k], recs[k + 1]
            n = rec.n
            p_n, f, g = snapshot_next
            # the next record, the last one too, is checked before the step into it is measured
            snapshot_next = self.snapshot_at(rec_next)
            h, h_next = rec.h, rec_next.h
            tol = 1e-10 * (1.0 + abs(f))
            row = {}

            m = build_majorant(p_n, h, f, g)
            A = m.curvature
            d = h_next - h
            dAd = float(d @ (A @ d))

            rep = check_majorization(p_n, m, samples=MAJORIZATION_SAMPLES, seed=self.seed + n)
            row["eq3_majorization"] = rep.margin_ok
            f_next_same = rec_next.obj if mode == "batch" else eval_objective(p_n, h_next)
            row["eq30_surrogate_decrease"] = f_next_same + 0.5 * dAd <= rec.obj + tol
            row["eq75_curvature_domination"] = rep.curvature_ok
            v = _Verdict(n, row, f, f_next_same)

            if np.any(g):
                row["eq41_gradient_step_domination"] = optimal_gradient_step(m) * float(g @ g) <= dAd + tol
                D = build_subspace(strategy, g, h, _history(recs, k, window))
                try:
                    hessian = factor_hessian(p_n, h)
                    order = check_subspace_ordering(g, A, hessian)
                    v.cert = cert = certify_iteration(n, g, D, A, self.epsilon, self.p.quad.R, hessian)
                except NumericError as exc:  # the snapshot's Hessian is not positive definite
                    v.skipped = type(exc).__name__
            if v.cert is not None:
                rtol = 1e-10 * max(1.0, order.theta_full)
                row["eq65_gradient_lower_bound"] = order.theta_gradient_ref <= cert.theta_tilde + rtol
                row["eq68_full_space_upper_bound"] = cert.theta_tilde <= order.theta_full + rtol
                rt = 1e-10
                row["eq9_eq10_sandwich"] = cert.theta_lo <= cert.theta + rt and cert.theta <= cert.theta_hi + rt
                floor = (1.0 - sigma_spread(cert.sigma_lo, cert.sigma_hi)**2) / cert.kappa_hi
                row["eq72_kantorovich_floor"] = cert.theta_tilde >= floor - rt
                row["eq74_cap"] = cert.theta_tilde <= 1.0 / cert.kappa_lo + rt
                row["kappa_lo_ge_1"] = cert.kappa_lo >= 1.0 - rt
                if not self.stream.random_access:
                    v.p_n = p_n

            verdicts.append(v)
        return verdicts

    def chain(self, verdicts, ref):
        """Give each certified verdict its F*, in order: ``ref.value`` for a
        batch trace; online, the minimizer of the record's snapshot,
        warm-started at the previous one's, from ``ref`` on.  Returns the last
        reference solution."""
        for v in verdicts:
            if v.cert is None:
                continue
            if self.mode != "batch":
                p_n, v.p_n = self.stream.instance(v.n) if v.p_n is None else v.p_n, None
                try:
                    ref = reference_minimizer(p_n, tol=1e-12, h0=None if ref is None else ref.h)
                except OracleError as exc:
                    v.skipped = type(exc).__name__
                    continue
            v.inf_F = ref.value
        return ref


# the share of the steps that the child checks; online, the parent also runs
# its part's oracle chain after the child's has ended
CHILD_SHARE = {"batch": 0.5, "online": 0.45}


def _two_processes(p: ProblemInstance, recs, stream: EstimateStream) -> bool:
    """Whether verify checks its records in two processes: ``processes.two_processes``
    for (records - 1) * dim**2, and a stream whose snapshots can be drawn in
    any order."""
    return stream.random_access and two_processes((len(recs) - 1) * p.dim**2, TWO_PROCESS_WORK)


def _check_in_two_processes(checker: _RecordChecker, ref) -> list:
    """``checker.check(0, steps)`` and its ``chain``, with a forked child taking the first part.

    The child sends its verdicts and its last reference solution; the
    parent checks the rest meanwhile, then continues the oracle chain from
    the child's last minimizer, so every oracle call gets the warm start of
    a one-process run.
    """
    steps = len(checker.recs) - 1
    split = int(steps * CHILD_SHARE[checker.mode])

    def first():
        theirs = checker.check(0, split)
        return theirs, checker.chain(theirs, ref)

    (theirs, ref), mine = in_two_processes(first, lambda: checker.check(split, steps))
    checker.chain(mine, ref)
    return theirs + mine

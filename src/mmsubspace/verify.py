"""Offline re-checking of a recorded trace against every certified inequality.

Everything is recomputed from the stored iterates, on the snapshots of the
solver's own stream type; only the surrogate decrease check reuses the
recorded objective column, so a corrupted objective value in the file is
caught there.  A batch trace reads both sides of the decrease from the
column; an online trace reads the current one, since the next record's
value belongs to the next snapshot.  Each verified iteration builds its
direction matrix and factors its Hessian once, for the subspace ordering and
one certificate.  The Newton oracle for ``F* = inf F`` gates only the gap bound
and decay (eq6/eq7) and the batch summary.  It runs once for a batch trace
and once per online snapshot, from the previous snapshot's minimizer, never
from an MM iterate.  An iteration whose certificate or oracle raises counts
as skipped once, by the class of its first error.  F and its gradient are
evaluated at every record, the last included, so an iterate that overflows
them is refused as input.  The eq6 gap bound holds by construction at every
``n >= n_eps``: ``n_eps`` is found by the same predicate over the same rows,
so the eq6 row counts the certified regime; eq7 is the test made there.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, NumericError, OracleError
from .majorant import build_majorant, check_majorization
from .model import ProblemInstance, eval_objective, eval_objective_and_gradient
from .rates import (
    BatchRateSummary,
    batch_rate_summary,
    certified_regime_start,
    certify_iteration,
    check_decay_inequality,
    check_linear_iterate_convergence,
    check_subspace_ordering,
    factor_hessian,
    sigma_spread,
)
from .solver import Trace, _resolve_epsilon, optimal_gradient_step, reference_minimizer
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
    ``p``.  Raises InputError when the trace does not match the problem,
    when a record's iterate, objective or gradient is not finite, or when a
    batch trace gets a drifting stream or an online trace a constant one.
    The certificates use the margin ε stored in ``trace.meta``, or the
    solver's default rule when none is stored.

    The ``eq6_gap_bound`` row is the predicate that defines ``n_eps``
    (``rates.certified_regime_start``), checked only from ``n_eps`` on, so
    it cannot fail and its count is the certified regime; ``eq7_decay`` is
    the inequality tested there.
    """
    recs = trace.records
    if not recs:
        raise InputError("empty trace")
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

    results = {name: EqResult(name) for name in EQ_NAMES}
    rows = []

    def check(name: str, ok: bool) -> None:
        """Record one verdict for iteration ``n`` in its ``row`` and in the totals."""
        row[name] = ok
        results[name].record(n, ok)

    def snapshot_at(rec):
        """The snapshot of ``rec`` with F and its gradient at the record's iterate.

        A huge finite iterate can overflow them; that is refused as input,
        naming the record, and not warned about.
        """
        p_n = stream.instance(rec.n)
        with np.errstate(over="ignore", invalid="ignore"):
            f, g = eval_objective_and_gradient(p_n, rec.h)
        if not (np.isfinite(f) and np.isfinite(g).all()):
            raise InputError(f"the objective or its gradient at the iterate of trace record n={rec.n} "
                             "is not finite")
        return p_n, f, g

    # F* of the batch problem, or the last online snapshot's, which warm-starts the next
    ref = reference_minimizer(p, tol=1e-12) if mode == "batch" else None

    certified_recs = []
    gap_checks = []
    skipped = Counter()
    history = deque(maxlen=history_window(strategy))
    snapshot_next = snapshot_at(recs[0])
    for rec, rec_next in zip(recs, recs[1:]):
        n = rec.n
        p_n, f, g = snapshot_next
        # the next record, the last one too, is checked before the step into it is measured
        snapshot_next = snapshot_at(rec_next)
        h, h_next = rec.h, rec_next.h
        tol = 1e-10 * (1.0 + abs(f))
        row = {}

        m = build_majorant(p_n, h, f, g)
        A = m.curvature
        d = h_next - h
        dAd = float(d @ (A @ d))

        rep = check_majorization(p_n, m, samples=MAJORIZATION_SAMPLES, seed=seed + n)
        check("eq3_majorization", rep.margin_ok)
        f_next_same = rec_next.obj if mode == "batch" else eval_objective(p_n, h_next)
        check("eq30_surrogate_decrease", f_next_same + 0.5 * dAd <= rec.obj + tol)
        check("eq75_curvature_domination", rep.curvature_ok)

        cert = None
        if np.any(g):
            check("eq41_gradient_step_domination", optimal_gradient_step(m) * float(g @ g) <= dAd + tol)
            D = build_subspace(strategy, g, h, history)
            try:
                hessian = factor_hessian(p_n, h)
                order = check_subspace_ordering(g, A, hessian)
                cert = certify_iteration(n, g, D, A, epsilon, p.quad.R, hessian)
            except NumericError as exc:  # the snapshot's Hessian is not positive definite
                skipped[type(exc).__name__] += 1
        if cert is not None:
            rtol = 1e-10 * max(1.0, order.theta_full)
            check("eq65_gradient_lower_bound", order.theta_gradient_ref <= cert.theta_tilde + rtol)
            check("eq68_full_space_upper_bound", cert.theta_tilde <= order.theta_full + rtol)
            rt = 1e-10
            check("eq9_eq10_sandwich", cert.theta_lo <= cert.theta + rt and cert.theta <= cert.theta_hi + rt)
            floor = (1.0 - sigma_spread(cert.sigma_lo, cert.sigma_hi)**2) / cert.kappa_hi
            check("eq72_kantorovich_floor", cert.theta_tilde >= floor - rt)
            check("eq74_cap", cert.theta_tilde <= 1.0 / cert.kappa_lo + rt)
            check("kappa_lo_ge_1", cert.kappa_lo >= 1.0 - rt)
            if mode == "batch":  # only the batch summary reads the certified records
                certified_recs.append(replace(rec, cert=cert))

            try:
                if mode != "batch":
                    ref = reference_minimizer(p_n, tol=1e-12, h0=None if ref is None else ref.h)
            except OracleError as exc:
                skipped[type(exc).__name__] += 1
            else:
                gap_checks.append((n, cert, f, f_next_same, ref.value, row))

        rows.append((n, row))
        history.appendleft(h)

    # the gap bound and the decay inequality are asserted only from the
    # first index where the Hessian floor and the gap bound hold for good
    n_eps_detect = certified_regime_start(
        (n, cert, f, inf_Fn) for n, cert, f, _, inf_Fn, _ in gap_checks
    )
    for n, cert, f, f_next, inf_Fn, row in gap_checks:
        if n_eps_detect is not None and n >= n_eps_detect:
            dec = check_decay_inequality(cert, f, f_next, inf_Fn)
            check("eq6_gap_bound", dec.gap_bound_ok)
            check("eq7_decay", dec.decay_ok)

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

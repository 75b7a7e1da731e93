"""Offline re-checking of a recorded trace against every certified inequality.

Everything is recomputed from the stored iterates; only the surrogate
decrease check reuses the recorded objective column in batch mode, so a
corrupted objective value in the file is caught there.  A batch trace is
checked against one reference solution, computed once and passed to the
whole-run rate checks; an online trace gets one per snapshot, whose Newton
oracle starts from the previous snapshot's minimizer and never from an MM
iterate.  Each verified iteration factors its Hessian once, for both the
subspace ordering and the certificate.  An iteration whose oracle or
certificate raises is counted as skipped, by error class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

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
)
from .solver import (
    IterateState, Trace, TraceRecord, _resolve_epsilon, optimal_gradient_step, reference_minimizer,
)
from .subspace import build_subspace, parse_strategy

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
    snapshot_fn=None,
    epsilon: float | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Re-run every inequality check against a recorded trajectory.

    ``snapshot_fn`` maps the iteration index to the instance that was active
    there; ``None`` means the batch case.  Raises InputError when the trace
    does not match the problem.
    """
    recs = trace.records
    if not recs:
        raise InputError("empty trace")
    if any(len(rec.h) != p.dim for rec in recs):
        raise InputError("trace/problem dimension mismatch")
    mode = trace.meta.get("mode", "batch")
    if snapshot_fn is None and mode != "batch":
        raise InputError("online trace needs a snapshot source to verify")
    strategy = parse_strategy(trace.meta.get("strategy", "3mg"))

    if epsilon is None:
        epsilon = trace.meta.get("epsilon") or None  # a stored 0 also means the default
    epsilon = _resolve_epsilon(epsilon, p.quad.R)

    results = {name: EqResult(name) for name in EQ_NAMES}
    rows = []

    ref = None
    if mode == "batch":
        ref = reference_minimizer(p, tol=1e-12)
    snapshot_ref = None  # the last online snapshot's oracle solution, to warm-start the next

    certified_recs = []
    gap_checks = []
    skipped = Counter()
    history: list[np.ndarray] = []
    for k in range(len(recs) - 1):
        rec, rec_next = recs[k], recs[k + 1]
        n = rec.n
        p_n = p if snapshot_fn is None else snapshot_fn(n)
        h, h_next = rec.h, rec_next.h
        f, g = eval_objective_and_gradient(p_n, h)
        scale = 1.0 + abs(f)
        tol = 1e-10 * scale
        row = {}

        m = build_majorant(p_n, h, f, g)
        A = m.curvature
        d = h_next - h
        dAd = float(d @ (A @ d))

        rep = check_majorization(p_n, m, samples=MAJORIZATION_SAMPLES, seed=seed + n)
        row["eq3_majorization"] = rep.min_margin >= -1e-9 * scale
        results["eq3_majorization"].record(n, row["eq3_majorization"])

        f_now = rec.obj if mode == "batch" else f
        f_next_same = rec_next.obj if mode == "batch" else eval_objective(p_n, h_next)
        ok30 = f_next_same + 0.5 * dAd <= f_now + tol
        row["eq30_surrogate_decrease"] = ok30
        results["eq30_surrogate_decrease"].record(n, ok30)

        # the sampled gap starts from the gap at the anchor
        a_scale = max(float(np.linalg.norm(A)), 1.0)
        ok75 = rep.min_curvature_gap >= -1e-10 * a_scale
        row["eq75_curvature_domination"] = ok75
        results["eq75_curvature_domination"].record(n, ok75)

        order = None
        if np.any(g):
            ok41 = optimal_gradient_step(m) * float(g @ g) <= dAd + tol
            row["eq41_gradient_step_domination"] = ok41
            results["eq41_gradient_step_domination"].record(n, ok41)

            state = IterateState(n, h, g)
            try:
                hessian = factor_hessian(p_n, h)
                order = check_subspace_ordering(p_n, state, A, [strategy], history, hessian)
            except NumericError as exc:  # the snapshot's Hessian is not positive definite
                skipped[type(exc).__name__] += 1
        if order is not None:
            t_D = order.theta_by_strategy[strategy.label()]
            rtol = 1e-10 * max(1.0, order.theta_full)
            ok65 = order.theta_gradient_ref <= t_D + rtol
            ok68 = t_D <= order.theta_full + rtol
            row["eq65_gradient_lower_bound"] = ok65
            row["eq68_full_space_upper_bound"] = ok68
            results["eq65_gradient_lower_bound"].record(n, ok65)
            results["eq68_full_space_upper_bound"].record(n, ok68)

            inf_Fn = None if ref is None else ref.value
            if inf_Fn is None:
                try:
                    snapshot_ref = reference_minimizer(
                        p_n, tol=1e-12, h0=None if snapshot_ref is None else snapshot_ref.h)
                    inf_Fn = snapshot_ref.value
                except OracleError as exc:
                    skipped[type(exc).__name__] += 1
            cert = None
            if inf_Fn is not None:
                D = build_subspace(strategy, g, h, history)
                try:
                    cert = certify_iteration(p_n, state, D, A, epsilon, R_limit=p.quad.R,
                                             hessian=hessian)
                except NumericError as exc:
                    skipped[type(exc).__name__] += 1
            if cert is not None and not cert.converged:
                rt = 1e-10
                ok_sand = cert.theta_lo <= cert.theta + rt and cert.theta <= cert.theta_hi + rt
                spread = (cert.sigma_hi - cert.sigma_lo) / (cert.sigma_hi + cert.sigma_lo)
                floor = (1.0 - spread**2) / cert.kappa_hi
                ok72 = cert.theta_tilde >= floor - rt
                ok74 = cert.theta_tilde <= 1.0 / cert.kappa_lo + rt
                ok_klo = cert.kappa_lo >= 1.0 - rt
                for name, ok in [
                    ("eq9_eq10_sandwich", ok_sand),
                    ("eq72_kantorovich_floor", ok72),
                    ("eq74_cap", ok74),
                    ("kappa_lo_ge_1", ok_klo),
                ]:
                    row[name] = ok
                    results[name].record(n, ok)
                certified_recs.append(TraceRecord(
                    n, h, rec.obj, rec.grad_norm, rec.step_norm, rec.chi, rec.c_norm, cert,
                ))
                gap_checks.append((n, cert, f, f_next_same, inf_Fn, row))

        rows.append((n, row))
        history.insert(0, h)
        del history[8 + max(strategy.memory, 0):]

    # the gap bound and the decay inequality are asserted only from the
    # first index where the Hessian floor and the gap bound hold for good
    n_eps_detect = certified_regime_start(
        (n, cert, f, inf_Fn) for n, cert, f, _, inf_Fn, _ in gap_checks
    )
    if n_eps_detect is not None:
        for n, cert, f, f_next, inf_Fn, row in gap_checks:
            if n < n_eps_detect:
                continue
            dec = check_decay_inequality(cert, f, f_next, inf_Fn)
            row["eq6_gap_bound"] = dec.gap_bound_ok
            row["eq7_decay"] = dec.decay_ok
            results["eq6_gap_bound"].record(n, dec.gap_bound_ok)
            results["eq7_decay"].record(n, dec.decay_ok)

    # whole-run rate bounds: batch case only
    n_eps = n_eps_detect
    certified = n_eps_detect is not None
    summary = None
    if mode == "batch" and certified_recs:
        vtrace = Trace(records=certified_recs + [recs[-1]], converged=trace.converged,
                       meta=dict(trace.meta))
        summary = batch_rate_summary(p, vtrace, epsilon, ref)
        certified = summary.certified
        n_eps = summary.n_eps if summary.certified else None
        for rec in certified_recs:
            c = rec.cert
            spread = (c.sigma_hi - c.sigma_lo) / (c.sigma_hi + c.sigma_lo)
            results["eq11_spread"].record(rec.n, spread <= summary.spread_cap + 1e-10)
        if summary.certified:
            lin = check_linear_iterate_convergence(vtrace, summary, ref)
            results["eq12_geometric_decay"].record(summary.n_eps, lin.geometric_ok)
            results["eq17_iterate_bound"].record(summary.n_eps, lin.strong_convexity_ok)
    return VerificationReport(results=results, n_eps=n_eps, certified=certified, rows=rows,
                              summary=summary, certificates_skipped=skipped)

"""Offline re-checking of a recorded trace against every certified inequality.

The loop's quantities are recomputed from the stored iterates, on the
snapshots of the solver's own stream type; only the surrogate decrease check
reuses the recorded objective column, so a corrupted objective value in the
file is caught there.  A batch trace reads both sides of the decrease from
the column; an online trace reads the current one, since the next record's
value belongs to the next snapshot.

Every certificate is a witness that verify proves with
``proofs.prove_certificate``, by kernels that certify does not run: shifted
Cholesky factorizations for its spectral bounds and Hessian floor, an LU
solve for ``g' H^{-1} g``, which the subspace ordering (eq65, eq68) shares,
and an SVD for theta_tilde's numerator.  The witness is the recorded
certificate or, for a record without one (counted as recomputed), that of
``solver._replay_step``, the one replay that certify runs, with the Hessian
and the direction matrix it built, so a fault in the certificate code fails
the proof on either path.  The ``certificate_proofs`` row counts the proven
records and names the first failing field and its record; every later
check reads the proven certificate.

The Newton oracle for ``F* = inf F`` gates only the gap bound and decay
(eq6/eq7) and the batch summary.  It runs once on the problem, before any
check, and online once more per certified snapshot, in that record's
checks, warm-started at the problem's minimizer, never at an MM iterate:
the snapshots converge to the problem, so its minimizer is near each of
theirs.  A verdict reads only its own record, the iterates of the records
before it and the problem's minimizer.  Every stream draws any snapshot
n >= 1 again, so no verdict holds one: a running average keeps its
samples, O(N * d), not its snapshots, O(N * d**2), and calls ``sample_fn``
once per k.  An iteration whose certificate or oracle raises counts as skipped once,
by the class of its first error.  F and its gradient are evaluated at every
record, the last included, so an iterate that overflows them is refused as
input.  ``n_eps``, the first n of the certified regime, is found once, by
``rates.certified_regime_start`` on the proven certificates and the F values
computed here: in batch by ``rates.batch_rate_summary`` on a trace holding
those values, which eq11/eq12/eq17 read too; online by one scan of the
verdicts.  The eq6 row is the predicate that found ``n_eps``, checked from
it on, so it counts the certified regime; eq7 is the test made there.  A
trace that breaks its own stopping rule, with more than ``max_iters + 1``
records, a record before the last within ``grad_tol``, or ``converged``
with a last gradient norm above it, is refused as input.

A large trace is checked in two halves by ``processes.in_parts``, under
the rule stated there.  Records must be numbered 1, 2, ... in order; any
other numbering is refused as input.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, NumericError, OracleError
from .majorant import build_majorant, check_majorization
from .model import ProblemInstance, eval_hessian, eval_objective, eval_objective_and_gradient
from .processes import in_parts
from .proofs import prove_certificate
from .rates import (
    BatchRateSummary,
    RateCertificate,
    batch_rate_summary,
    certified_regime_start,
    check_decay_inequality,
    check_linear_iterate_convergence,
    sigma_spread,
    subspace_ordering,
)
from .solver import _replay_step, _replay_subspace, _resolve_epsilon, optimal_gradient_step, reference_minimizer
from .stream import ConstantStream, EstimateStream
from .subspace import parse_strategy
from .trace import Trace

# sampled points per iteration in the majorization check
MAJORIZATION_SAMPLES = 20


@dataclass
class EqResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    note: str = ""  # printed after the row

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
    "certificate_proofs",
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
    n_eps: int | None  # the first n of the certified regime, None if it is never entered
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
            status = "skip" if r.checked == 0 else ("pass" if r.passed else "FAIL")
            extra = ""
            if r.failures:
                shown = ", ".join(str(n) for n in r.failures[:8])
                extra = f"  (at n = {shown}{', ...' if len(r.failures) > 8 else ''})"
            if r.note:
                extra += f"  ({r.note})"
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
    iterate, objective or gradient is not finite, when the records break the
    trace's own ``max_iters`` or ``grad_tol``, or when a batch trace gets a
    drifting stream or an online trace a constant one.  Every certificate
    it checks is proven, and ``n_eps`` found once (see above).
    The certificates use the margin ε stored in ``trace.meta``, or the
    solver's default rule when none is stored.

    A large enough trace is checked in two processes, with the report,
    errors and warnings of one (see above).
    """
    recs = trace.records
    if not recs:
        raise InputError("empty trace")
    for i, rec in enumerate(recs, 1):
        if rec.n != i:
            raise InputError(f"trace record {i} is numbered n={rec.n}: records must be numbered 1, 2, ... "
                             "in order")
    dim = trace.setting("dim")
    if dim is not None and dim != p.dim:
        raise InputError(f"the trace's 'dim' is {dim}, the problem's is {p.dim}")
    if any(len(rec.h) != p.dim for rec in recs):
        raise InputError("trace/problem dimension mismatch")
    for rec in recs:
        if not (math.isfinite(rec.obj) and math.isfinite(rec.grad_norm) and np.isfinite(rec.h).all()):
            raise InputError(f"trace record n={rec.n} has a non-finite iterate, objective or gradient norm")
    # the loop stops at the first record within grad_tol, or at record max_iters + 1
    max_iters, grad_tol = trace.setting("max_iters"), trace.setting("grad_tol")
    if max_iters is not None and len(recs) > max_iters + 1:
        raise InputError(f"the trace has {len(recs)} records, more than its 'max_iters' of {max_iters} allows")
    if grad_tol is not None:
        for rec in recs[:-1]:
            if rec.grad_norm <= grad_tol:
                raise InputError(f"trace record n={rec.n} has a gradient norm of {rec.grad_norm:.6g}, within its "
                                 f"'grad_tol' of {grad_tol:.6g}, but is not the last record")
        if trace.converged and recs[-1].grad_norm > grad_tol:
            raise InputError(f"the trace is converged, but its last gradient norm {recs[-1].grad_norm:.6g} is "
                             f"above its 'grad_tol' of {grad_tol:.6g}")
    if stream is None:
        stream = ConstantStream(p.quad, p.penalty)
    # a run on a constant stream is a batch run, as in solver._run
    batch = isinstance(stream, ConstantStream)
    mode = trace.setting("mode")
    if batch != (mode == "batch"):
        raise InputError(f"a {type(stream).__name__} does not match this {mode} trace: "
                         "pass the --stream and --seed it was solved with")
    strategy = parse_strategy(trace.setting("strategy"))
    epsilon = _resolve_epsilon(trace.setting("epsilon"), p.quad.R)
    # F* of the batch problem; online, its minimizer warm-starts every snapshot's oracle
    ref = reference_minimizer(p, tol=1e-12)
    checker = _RecordChecker(p, recs, stream, strategy, epsilon, seed, ref)
    verdicts = [v for part in in_parts(checker.check, len(recs) - 1, p.dim) for v in part]

    # n_eps, found once on the F values computed here: in batch by the summary
    # of a trace that holds them, online by one scan of the verdicts
    summary = None
    if batch:
        certified = [replace(rec, obj=v.f, cert=v.cert) for rec, v in zip(recs, verdicts) if v.cert is not None]
        last = replace(recs[-1], obj=eval_objective(stream.instance(recs[-1].n), recs[-1].h), cert=None)
        vtrace = Trace(records=certified + [last])
        summary = batch_rate_summary(p, vtrace, epsilon, ref) if certified else None
        n_eps = None if summary is None else summary.n_eps
    else:
        n_eps = certified_regime_start((v.n, v.cert, v.f, v.inf_F) for v in verdicts if v.inf_F is not None)
    # the gap bound and the decay inequality are asserted only in the certified regime
    for v in verdicts:
        if v.inf_F is not None and n_eps is not None and v.n >= n_eps:
            dec = check_decay_inequality(v.cert, v.f, v.f_next, v.inf_F)
            v.row["eq6_gap_bound"], v.row["eq7_decay"] = dec.gap_bound_ok, dec.decay_ok

    results = {name: EqResult(name) for name in EQ_NAMES}
    skipped = Counter()
    for v in verdicts:
        for name, ok in v.row.items():
            results[name].record(v.n, ok)
        if v.skipped is not None:
            skipped[v.skipped] += 1
        if v.proof is not None:
            results["certificate_proofs"].record(v.n, not v.proof)
    rows = [(v.n, v.row) for v in verdicts]
    first = next((v for v in verdicts if v.proof), None)
    recomputed = sum(v.proof is not None and rec.cert is None for rec, v in zip(recs, verdicts))
    results["certificate_proofs"].note = "; ".join(
        ([f"first failing field: {first.proof} at n = {first.n}"] if first else [])
        + ([f"{recomputed} recomputed"] if recomputed else []))

    # whole-run rate bounds: batch case only
    if summary is not None:
        for rec in certified:
            spread = sigma_spread(rec.cert.sigma_lo, rec.cert.sigma_hi)
            results["eq11_spread"].record(rec.n, spread <= summary.spread_cap + 1e-10)
        if n_eps is not None:
            lin = check_linear_iterate_convergence(vtrace, summary, ref)
            results["eq12_geometric_decay"].record(n_eps, lin.geometric_ok)
            results["eq17_iterate_bound"].record(n_eps, lin.strong_convexity_ok)
    return VerificationReport(results=results, n_eps=n_eps, rows=rows, summary=summary,
                              certificates_skipped=skipped)


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
    proof: str | None = None  # the certificate's first failing field, "" once proven, None if not proven


class _RecordChecker:
    """Every per-iteration check of one trace, over any contiguous range of its records.

    No record's checks read another record's results: the subspace history
    of a range comes from the stored iterates before it, and every online
    oracle starts at the minimizer ``ref`` of the problem.
    """

    def __init__(self, p, recs, stream, strategy, epsilon, seed, ref):
        self.p, self.recs, self.stream = p, recs, stream
        self.strategy, self.epsilon, self.seed, self.ref = strategy, epsilon, seed, ref

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
        order: F* is ``ref.value`` in batch and, online, the minimizer's value
        of the record's snapshot."""
        recs, batch = self.recs, isinstance(self.stream, ConstantStream)
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
            f_next_same = rec_next.obj if batch else eval_objective(p_n, h_next)
            row["eq30_surrogate_decrease"] = f_next_same + 0.5 * dAd <= rec.obj + tol
            row["eq75_curvature_domination"] = rep.curvature_ok
            v = _Verdict(n, row, f, f_next_same)

            if np.any(g):
                row["eq41_gradient_step_domination"] = optimal_gradient_step(m) * float(g @ g) <= dAd + tol
                try:
                    # the witness is the recorded certificate or, for a record without one, certify's replay
                    H, D, cert = (_replay_step(m, recs, k, self.strategy, self.epsilon, self.p.quad.R)
                                  if rec.cert is None else
                                  (eval_hessian(p_n, h), _replay_subspace(m, recs, k, self.strategy), rec.cert))
                    g_form, v.proof, kappa_lo_ge_1 = prove_certificate(cert, g, A, H, D, self.epsilon, self.p.quad.R)
                    order = subspace_ordering(g, A, g_form)
                except NumericError as exc:  # the snapshot's Hessian is singular, or a replay finds it
                    v.skipped = type(exc).__name__  # not positive definite
                else:
                    v.cert = cert
                    try:
                        v.inf_F = self.ref.value if batch else reference_minimizer(
                            p_n, tol=1e-12, h0=self.ref.h).value
                    except OracleError as exc:
                        v.skipped = type(exc).__name__
                    rtol = 1e-10 * max(1.0, order.theta_full)
                    row["eq65_gradient_lower_bound"] = order.theta_gradient_ref <= cert.theta_tilde + rtol
                    row["eq68_full_space_upper_bound"] = cert.theta_tilde <= order.theta_full + rtol
                    rt = 1e-10
                    row["eq9_eq10_sandwich"] = cert.theta_lo <= cert.theta + rt and cert.theta <= cert.theta_hi + rt
                    floor = (1.0 - sigma_spread(cert.sigma_lo, cert.sigma_hi)**2) / cert.kappa_hi
                    row["eq72_kantorovich_floor"] = cert.theta_tilde >= floor - rt
                    row["eq74_cap"] = cert.theta_tilde <= 1.0 / cert.kappa_lo + rt
                    if kappa_lo_ge_1 is not None:
                        row["kappa_lo_ge_1"] = kappa_lo_ge_1

            verdicts.append(v)
        return verdicts

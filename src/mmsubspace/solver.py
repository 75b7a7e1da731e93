"""Batch and online MM subspace iterations, each recorded as a ``trace.Trace``.

Each step minimizes the quadratic tangent majorant over the span of the
direction matrix, in closed form via a pseudo-inverse, so the surrogate
value never increases.  A step needs ``D'AD`` only, which one product of the
majorant curvature with the columns of ``D`` gives; the dense curvature is
built only for the certificates.  A run on a constant stream is a batch
run, whichever function starts it.  An independent damped-Newton oracle
provides the reference minimizer against which the rate certificates are
checked.

A certified run certifies its iterations after the loop.  No certificate
reads another's, so each iteration waits with only its gradient: every
stream draws any snapshot n >= 1 again (a running average from its kept
samples, O(N * d), not O(N * d**2) in snapshots, calling ``sample_fn`` once
per k), its iterate and F are read from its record, and ``_replay_step``,
the one replay of a recorded step that ``verify`` also runs, rebuilds its
direction matrix by ``_history``, the one history rule, and factors its
Hessian.  The iterations are certified in halves by ``processes.in_parts``,
under the rule stated there.  When the loop raises, the iterations recorded
before its error are certified first, so an error of theirs still comes
first; a certificate's warnings follow every warning of the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InputError, NumericError, OracleError, StreamExhausted
from .linalg import as_vector, cholesky_lower, min_eig, pd_solve, psd_pinv
from .majorant import MajorantAtPoint, build_majorant
from .model import ProblemInstance, eval_hessian, eval_objective_and_gradient
from .processes import in_parts
from .rates import certify_iteration, factor_hessian
from .stream import ConstantStream, EstimateStream
from .subspace import (
    DirectionMatrix, SubspaceStrategy, build_subspace, column_scaled, history_window, parse_strategy,
)
from .trace import Trace, TraceRecord


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 500
    grad_tol: float = 1e-10
    epsilon: Optional[float] = None  # None -> 0.1 * min-eig(R) of the limit instance
    certify: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise InputError("max_iters must be positive")
        if self.grad_tol <= 0:
            raise InputError("grad_tol must be positive")


def subspace_step(m: MajorantAtPoint, D: DirectionMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form surrogate minimization over the span of ``D``.

    Returns the minimum-norm coefficient vector, the next iterate and
    ``A @ anchor``: the one product of the curvature with the columns also
    covers the anchor.  A non-finite gradient or column raises
    ``NumericError``.  It is tested on one sum of squares, which vdot lets
    overflow to inf without a RuntimeWarning: a finite sum proves every
    entry finite, and only an infinite or NaN one, which entries above about
    1.3e154 also give, scans the entries.
    """
    g = m.gradient_at_anchor
    if not math.isfinite(np.vdot(g, g) + np.vdot(D.cols, D.cols)):
        if not (np.isfinite(g).all() and np.isfinite(D.cols).all()):
            raise NumericError("non-finite inputs to subspace_step")
    cols, scales = column_scaled(D.cols)
    # [cols, anchor] in one C-ordered block, as np.column_stack builds it
    k = cols.shape[1]
    X = np.empty((cols.shape[0], k + 1))
    X[:, :k] = cols
    X[:, k] = m.anchor
    AX = m.apply(X)
    M = cols.T @ AX[:, :k]
    u = psd_pinv(M) @ (cols.T @ g)
    np.negative(u, out=u)
    h_next = m.anchor + cols @ u
    return u / scales, h_next, AX[:, k]


def optimal_gradient_step(m: MajorantAtPoint) -> float:
    """Exact minimizing stepsize along the negative gradient."""
    g = m.gradient_at_anchor
    gg = float(g @ g)
    if gg == 0.0:
        raise InputError("optimal gradient step undefined at a zero gradient")
    return gg / float(g @ m.apply(g))


@dataclass(frozen=True)
class ReferenceSolution:
    h: np.ndarray
    value: float
    grad_norm: float
    iterations: int


def reference_minimizer(p: ProblemInstance, tol: float = 1e-12, h0=None) -> ReferenceSolution:
    """High-precision minimizer via damped Newton, independent of the MM path.

    Newton starts from ``h0``, zero by default; pass the minimizer of a
    nearby instance, never an MM iterate.  A Cholesky factor of ``R``
    proves it positive definite; without one the oracle raises OracleError.
    """
    try:
        cholesky_lower(p.quad.R)
    except NumericError as exc:
        raise OracleError("reference minimizer needs a positive definite R") from exc
    h = np.zeros(p.dim) if h0 is None else as_vector(h0, p.dim)
    f, g = eval_objective_and_gradient(p, h)
    for k in range(500):
        gn = float(np.linalg.norm(g))
        if gn <= tol:
            return ReferenceSolution(h, f, gn, k)
        d = pd_solve(eval_hessian(p, h), -g)
        slope = float(g @ d)
        # rounding allowance keeps the line search from stalling once the
        # true decrease drops below floating-point resolution of F
        f_noise = 1e-15 * (1.0 + abs(f))
        t = 1.0
        while t > 1e-14:
            h_try = h + t * d
            f_try, g_try = eval_objective_and_gradient(p, h_try)
            if f_try <= f + 1e-4 * t * slope + f_noise:
                break
            t *= 0.5
        else:  # no trial passed: take the step below the last one tried
            h_try = h + t * d
            f_try, g_try = eval_objective_and_gradient(p, h_try)
        h, f, g = h_try, f_try, g_try
    raise OracleError("Newton oracle did not reach tolerance in 500 steps")


def _resolve_epsilon(epsilon: Optional[float], R_limit: np.ndarray) -> float:
    """The certificate margin ``epsilon``, or 0.1 * min-eig(R_limit) for None, of a positive definite R_limit."""
    lo = min_eig(R_limit)
    if lo <= 0.0:
        raise InputError(f"the limit R is not positive definite: its smallest eigenvalue is {lo:.6g}")
    eps = 0.1 * lo if epsilon is None else epsilon
    if not (0.0 < eps < lo):
        raise InputError(f"epsilon must lie in (0, {lo:.6g}), got {eps}")
    return eps


def run_batch(
    p: ProblemInstance,
    h1=None,
    strategy: SubspaceStrategy | str = "3mg",
    opts: SolveOptions = SolveOptions(),
) -> Trace:
    """Iterate on a fixed instance until the gradient tolerance or max_iters."""
    return _run(ConstantStream(p.quad, p.penalty), h1, strategy, opts)


def run_online(
    stream: EstimateStream,
    h1=None,
    strategy: SubspaceStrategy | str = "3mg",
    opts: SolveOptions = SolveOptions(),
) -> Trace:
    """Iterate against drifting snapshots drawn from an estimate stream; the
    run on a ``ConstantStream`` is a batch run, bitwise what ``run_batch`` records."""
    return _run(stream, h1, strategy, opts)


def _run(stream: EstimateStream, h1, strategy, opts: SolveOptions) -> Trace:
    """The one driver of batch and online runs.  The stream is the run's one
    source of snapshots and of its mode: ``meta.mode`` is ``"batch"`` exactly
    when it is a ``ConstantStream``."""
    if isinstance(strategy, str):
        strategy = parse_strategy(strategy)
    limit = stream.limit
    epsilon = _resolve_epsilon(opts.epsilon, limit.R) if opts.certify else opts.epsilon

    # a copy of the caller's h1, so that no record shares its iterate with the caller
    h = np.zeros(limit.dim) if h1 is None else as_vector(h1, limit.dim).copy()
    trace = Trace(meta={
        "mode": "batch" if isinstance(stream, ConstantStream) else "online",
        "strategy": strategy.label(),
        "dim": limit.dim,
        "max_iters": opts.max_iters,
        "grad_tol": opts.grad_tol,
        "certify": opts.certify,
        "epsilon": epsilon,
    })

    # the iteration of each record before the last waits to be certified, with its gradient
    pending = [] if opts.certify else None
    try:
        _iterate(stream, h, strategy, opts, trace, pending)
    except Exception as exc:
        error = exc
    else:
        error = None
    # the iterations recorded before a loop error are certified first, so an
    # error of theirs surfaces before it, as in a loop that certified as it went
    results = _certify(trace.records, pending, stream, strategy, epsilon) if pending else []
    if error is not None:
        raise error
    for k, out in enumerate(results):
        if isinstance(out, str):
            trace.certificates_skipped[out] += 1
        else:
            trace.records[k] = replace(trace.records[k], cert=out)
    return trace


def _history(recs: list, k: int, window: int) -> list:
    """The iterates of the ``window`` records before ``recs[k]``, most recent
    first: the history ``build_subspace`` reads for the step out of record ``k``."""
    return [rec.h for rec in reversed(recs[max(k - window, 0):k])]


def _replay_step(m: MajorantAtPoint, recs: list, k: int, strategy: SubspaceStrategy, epsilon: float,
            R_limit: np.ndarray) -> tuple:
    """The Hessian, the direction matrix and the certificate of the step out
    of ``recs[k]``, whose majorant ``m`` holds the step's snapshot and
    gradient; the direction matrix is rebuilt by ``_history`` from the
    recorded iterates.  Raises NumericError where the Hessian is not positive
    definite or the certificate breaks down."""
    rec = recs[k]
    D = _replay_subspace(m, recs, k, strategy)
    hessian = factor_hessian(m.problem, rec.h)
    return hessian[0], D, certify_iteration(rec.n, m.gradient_at_anchor, D, m.curvature, epsilon, R_limit, hessian)


def _replay_subspace(m: MajorantAtPoint, recs: list, k: int, strategy: SubspaceStrategy) -> DirectionMatrix:
    """The direction matrix of the step out of ``recs[k]``, rebuilt by ``_history``
    from the recorded iterates and the gradient that ``m`` holds."""
    return build_subspace(strategy, m.gradient_at_anchor, recs[k].h, _history(recs, k, history_window(strategy)))


def _iterate(stream: EstimateStream, h, strategy, opts: SolveOptions, trace: Trace, pending) -> None:
    """The MM loop: appends a record per iteration to ``trace`` and, when
    ``pending`` is a list, the iteration's gradient, which its certificate takes.

    ``h`` and every later iterate are arrays that no one else holds or
    writes, so each record keeps its iterate without a copy.  A record's
    ``c_norm`` is ``|A_n h_n - grad F_n(h_n)|``, which the exactness identity
    ``B(h) h = grad Psi(h)`` makes ``|r_n|``, to rounding: the step's product
    with ``A_n`` takes ``h_n`` as one more column for it alone."""
    window = history_window(strategy)
    p_n = stream.instance(1)
    n = 1
    while True:
        f, g = eval_objective_and_gradient(p_n, h)
        # g @ g, which vdot lets overflow to inf without a RuntimeWarning; a
        # finite sum implies a finite g, and math.sqrt of it is what
        # np.linalg.norm computes for a 1-D float vector
        gg = np.vdot(g, g)
        if not (math.isfinite(f) and math.isfinite(gg)):
            if math.isfinite(f) and np.isfinite(g).all():
                raise NumericError(f"the gradient norm overflows the float range at iteration {n}")
            raise NumericError(f"non-finite objective or gradient at iteration {n}")
        gn = math.sqrt(gg)
        if gn <= opts.grad_tol or n > opts.max_iters:
            trace.records.append(TraceRecord(n, h, f, gn, None, None, None, None))
            trace.converged = gn <= opts.grad_tol
            break

        m = build_majorant(p_n, h, f, g)
        D = build_subspace(strategy, g, h, _history(trace.records, n - 1, window))
        trace.fallback_used = trace.fallback_used or D.fallback
        u, h_next, Ah = subspace_step(m, D)
        if (h_next == h).all():
            why = ("the step is below the floating-point resolution of the iterate" if np.any(u)
                   else "the majorant curvature is not positive definite on the subspace")
            raise NumericError(f"zero step at iteration {n} with gradient norm {gn:.3e} "
                               f"above grad_tol: {why}")
        dh = h_next - h
        step_norm = math.sqrt(dh @ dh)
        # a step back to the previous iterate repeats the previous step length exactly
        if trace.records and step_norm == trace.records[-1].step_norm and (h_next == trace.records[-1].h).all():
            raise NumericError(f"2-cycle at iteration {n} with gradient norm {gn:.3e} above "
                               "grad_tol: the step returns to the previous iterate")

        chi = None
        try:
            p_next = stream.instance(n + 1)
        except StreamExhausted:
            trace.stream_exhausted = True
        else:
            if p_next is p_n:
                chi = 0.0
            else:
                dr = p_n.quad.r - p_next.quad.r
                dR = p_n.quad.R - p_next.quad.R
                chi = -float(dr @ h_next) + 0.5 * float(h_next @ (dR @ h_next))

        c = Ah - g
        c_norm = math.sqrt(c @ c)
        trace.records.append(TraceRecord(
            n, h, f, gn, step_norm, chi, c_norm, None,
        ))
        if pending is not None:
            pending.append(g)

        if trace.stream_exhausted:
            break
        h = h_next
        p_n = p_next
        n += 1


def _certify(recs: list, pending: list, stream: EstimateStream, strategy: SubspaceStrategy,
             epsilon: float) -> list:
    """The certificate of the iteration of each pending record, or the class
    name of the NumericError that skipped it, in iteration order.

    Each certificate is ``_replay_step`` of the record with its snapshot drawn
    again from the stream and the loop's gradient; the dense curvature is
    built and dropped per certificate.  A forked child may certify the first
    half (``processes.in_parts``).
    """
    R_limit = stream.limit.R

    def part(lo: int, hi: int) -> list:
        out = []
        for k, g in enumerate(pending[lo:hi], lo):
            rec = recs[k]
            p_n = stream.instance(rec.n)
            try:
                out.append(_replay_step(build_majorant(p_n, rec.h, rec.obj, g), recs, k, strategy, epsilon, R_limit)[2])
            except NumericError as exc:
                out.append(type(exc).__name__)
        return out

    return [out for outs in in_parts(part, len(pending), stream.limit.dim) for out in outs]

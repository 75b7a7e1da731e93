"""Sequences of quadratic-data snapshots for online runs.

Every stream exposes the limiting instance data and produces per-iteration
snapshots ``(R_n, r_n)`` whose successive differences are summable, so an
online run converges to the minimizer of the limit instance.  ``instance(n)``
is the one way a run, certify, verify and ``summability_report`` read a
snapshot: it validates the snapshot as ``QuadraticData`` does.  Every stream
draws any snapshot n >= 1 again, bitwise, in any order and any state, so
certify and verify hold none; a running average keeps its samples for that.
The stream also says what a run is: a run on a ``ConstantStream`` is a batch
run, any other an online one.

A geometric snapshot costs little beyond its arithmetic, one scaled sum per
draw.  A bitwise symmetric R is checked once per stream, not per draw, and
the scan for subnormal entries runs only where a rule taken once per stream
cannot prove it idle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, StreamExhausted, parse_json, read_text, require_fields
from .linalg import as_vector, check_symmetric, min_eig
from .model import Penalty, ProblemInstance, QuadraticData, ZeroPenalty

# A snapshot R + w E with 0 < w < 1 has Frobenius norm at most |R|_F + |E|_F;
# at most this much keeps its sum of squares, rounding included, far below the
# float range, which a norm of 1.3e154 reaches.
_TRUSTED_NORM = 1e150
# A limit R whose smallest eigenvalue lies below -_PSD_RTOL * |R|_F is refused;
# above, a negative one is taken for the rounding of eigvalsh, a small
# multiple of n * 2.2e-16 * |R|_2.
_PSD_RTOL = 1e-12
# A snapshot R + w E whose fl(w E) has no nonzero entry below this holds no
# subnormal entry, R being stored flushed (GeometricPerturbationStream proves it).
_NO_SUBNORMAL_SUM = 2.0**-968


class EstimateStream:
    """Single-consumer source of snapshots; ``limit`` is the target data.

    ``instance(n)`` validates the raw pair ``next_estimate(n)``; outside the
    stream classes it is the one way to read a snapshot."""

    def __init__(self, quad: QuadraticData, penalty: Penalty | None = None):
        self.limit = quad
        self.penalty = penalty if penalty is not None else ZeroPenalty()

    def next_estimate(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def instance(self, n: int) -> ProblemInstance:
        """The validated snapshot of iteration ``n``, any n >= 1 in any order, plus the penalty."""
        return ProblemInstance(QuadraticData(*self.next_estimate(n)), self.penalty)


class ConstantStream(EstimateStream):
    """R_n = R and r_n = r for every n: a run on it is a batch run."""

    def __init__(self, quad: QuadraticData, penalty: Penalty | None = None):
        super().__init__(quad, penalty)
        self._instance = ProblemInstance(quad, self.penalty)

    def next_estimate(self, n):
        if n < 1:
            raise InputError("iteration index must be >= 1")
        return self.limit.R, self.limit.r

    def instance(self, n):
        if n < 1:
            raise InputError("iteration index must be >= 1")
        # one object for every n, so a driver can tell that the data did not move
        return self._instance


class GeometricPerturbationStream(EstimateStream):
    """Snapshots ``(R + rho^n E, r + rho^n e)`` with geometrically decaying drift.

    E is symmetrized and, if necessary, scaled down so every snapshot stays
    nonnegative definite (the worst case is n = 1), never flipped or
    enlarged.  A limit R with a negative eigenvalue beyond rounding, relative
    to ``|R|_F`` at any scale of R, is refused as input.

    ``instance`` validates each draw as ``QuadraticData`` does, with two
    guards taken once, here.  E is bitwise symmetric by its symmetrization,
    so when R is too, E is finite and ``|R|_F + |E|_F`` is at most
    ``_TRUSTED_NORM``, every ``R + w E`` is bitwise symmetric with a finite
    sum of squares and passes ``check_symmetric`` by construction; only a
    stream without that proof checks each draw.

    The subnormal flush runs only where the rule cannot prove it finds
    nothing, for any finite E.  The smallest nonzero magnitude of E is taken
    once, here.  R is stored flushed, so every nonzero entry ``a`` of R has
    ``|a| >= 2^-1022``.  When ``fl(w e_min)`` reaches ``2^-968``, so does
    every nonzero entry ``b`` of ``fl(w E)``, since rounding is monotone.
    An entry of ``R + w E`` is then ``a``, ``b`` or the rounded ``a + b``.
    If ``|a| < |b|/2``, then ``|a + b| > 2^-969``.  Otherwise
    ``|a| >= 2^-969``, so ``a`` is a multiple of ``2^-1021`` and ``b`` one of
    ``2^-1020``, and ``a + b`` is 0 or at least ``2^-1021`` in magnitude.
    Rounding keeps either bound, so no entry is subnormal.
    """

    def __init__(self, quad: QuadraticData, rho: float, E_R, e_r, penalty: Penalty | None = None):
        if not 0.0 < rho < 1.0:
            raise InputError("rho must lie in (0, 1)")
        super().__init__(quad, penalty)
        self.rho = float(rho)
        R = quad.R
        base = min_eig(R)
        # |R|_F as m |R/m|_F with m the largest magnitude, so that no square underflows
        m = float(np.max(np.abs(R), initial=0.0))
        S = R / m if m > 0.0 else R
        if base < -_PSD_RTOL * m * math.sqrt(np.vdot(S, S)):
            raise InputError(f"the limit R of a geometric stream has the negative eigenvalue {base:.6g}")
        E = np.asarray(E_R, dtype=float)
        E = 0.5 * (E + E.T)
        if min_eig(R + rho * E) < 0.0:
            # shrink until R + rho*E is PSD; preserves the perturbation direction.
            # An E without a negative eigenvalue cannot lower R's, and is kept.
            denom = min_eig(rho * E)
            if denom < 0.0:
                E = min(0.999 * max(base, 0.0) / -denom, 1.0) * E
        self.E_R = E
        self.e_r = as_vector(e_r, quad.dim)
        finite = bool(np.isfinite(E).all())
        self._trusted = (np.array_equal(R, R.T) and finite
                         and math.sqrt(np.vdot(R, R)) + math.sqrt(np.vdot(E, E)) <= _TRUSTED_NORM)
        # the smallest nonzero magnitude of a finite E, else 0.0, which no w clears;
        # inf for an E without a nonzero entry, which every w > 0 clears (a w that
        # underflowed to 0 gives NaN, which does not)
        self._E_floor = _nonzero_floor(E) if finite else 0.0

    def next_estimate(self, n):
        if n < 1:
            raise InputError("iteration index must be >= 1")
        w = self.rho**n
        return self.limit.R + w * self.E_R, self.limit.r + w * self.e_r

    def instance(self, n):
        R, r = self.next_estimate(n)
        if not self._trusted:
            R = check_symmetric(R, rtol=1e-12, name="R")
        if self.rho**n * self._E_floor >= _NO_SUBNORMAL_SUM:
            quad = QuadraticData._of_flushed(R, r)  # the flush would find nothing
        else:
            quad = QuadraticData._of_symmetric(R, r)
        return ProblemInstance(quad, self.penalty)


def _nonzero_floor(M: np.ndarray) -> float:
    """The smallest nonzero magnitude in ``M``, inf when it has none."""
    return float(np.min(np.abs(M), initial=math.inf, where=M != 0.0))


class RunningAverageStream(EstimateStream):
    """Gram averages of an (x, y) sample stream: R_n = mean x x', r_n = mean y x.

    Snapshots are symmetric nonnegative definite by construction.  The
    summability assumption holds only almost surely here, so this stream is
    kept out of strict certification acceptance.  ``sample_fn`` is called
    once per k and its samples are kept, O(N * d) where kept snapshots would
    take O(N * d**2); ``instance(n)`` of an earlier n sums them again from
    the first, bitwise as in order.
    """

    def __init__(self, quad: QuadraticData, sample_fn, penalty: Penalty | None = None):
        super().__init__(quad, penalty)
        self.sample_fn = sample_fn  # k -> (x_k, y_k)
        self._samples = []  # (x_k, y_k) for k = 1, 2, ...
        self._sum_R = np.zeros((quad.dim, quad.dim))
        self._sum_r = np.zeros(quad.dim)
        self._count = 0  # the last n drawn, whose sums these are

    def next_estimate(self, n):
        if n != self._count + 1:
            raise InputError("running-average stream must be consumed in order")
        if n > len(self._samples):
            x, y = self.sample_fn(n)
            self._samples.append((as_vector(x, self.limit.dim), float(y)))
        x, y = self._samples[n - 1]
        self._sum_R += np.outer(x, x)
        self._sum_r += y * x
        self._count = n
        return self._sum_R / n, self._sum_r / n

    def instance(self, n):
        if n <= self._count:  # sum again from the first sample
            self._sum_R.fill(0.0)
            self._sum_r.fill(0.0)
            self._count = 0
        while self._count < n - 1:
            self.next_estimate(self._count + 1)
        return super().instance(n)


class FileReplayStream(EstimateStream):
    """Replays stored snapshots from a JSON-lines file, one object per line."""

    def __init__(self, path, quad: QuadraticData | None = None, penalty: Penalty | None = None):
        self.snapshots = []
        for lineno, line in enumerate(read_text(path, "replay file").split("\n"), 1):
            line = line.strip()
            if not line:
                continue
            where = f"line {lineno} of replay file {path}"
            d = require_fields(parse_json(line, where), ["R", "r"], where)
            try:
                R = check_symmetric(np.asarray(d["R"], dtype=float), rtol=1e-12, name="replayed R")
                r = as_vector(d["r"], R.shape[0])
            except (TypeError, ValueError, OverflowError) as exc:  # an integer beyond the float range overflows
                raise InputError(f"{where}: {exc}") from exc
            self.snapshots.append((R, r))
        if not self.snapshots:
            raise InputError(f"no snapshots in {path}")
        super().__init__(QuadraticData(*self.snapshots[-1]) if quad is None else quad, penalty)

    def next_estimate(self, n):
        if n < 1:
            raise InputError("iteration index must be >= 1")
        if n > len(self.snapshots):
            raise StreamExhausted(f"replay file holds {len(self.snapshots)} snapshots")
        return self.snapshots[n - 1]


@dataclass(frozen=True)
class SummabilityReport:
    horizon: int
    sum_dR: float
    sum_dr: float
    tail_ratio_dR: float
    tail_ratio_dr: float
    closed_form_dR: float | None
    closed_form_dr: float | None
    converged_dR: float
    converged_dr: float


def summability_report(s: EstimateStream, horizon: int) -> SummabilityReport:
    """Partial sums of successive snapshot differences plus tail diagnostics.

    The snapshots are drawn through ``instance``, so any stream in any state
    gives the same report.  The tail ratio is the share contributed by the
    last tenth of the horizon; geometric streams also get the closed-form
    series limit for comparison.  The final-gap diagnostics report how far
    the last snapshot is from the limit data, covering the convergence half
    of the assumption separately.
    """
    if horizon < 2:
        raise InputError("horizon must be >= 2")
    d_R, d_r = [], []
    prev = s.instance(1).quad
    for n in range(2, horizon + 1):
        cur = s.instance(n).quad
        d_R.append(float(np.linalg.norm(cur.R - prev.R)))
        d_r.append(float(np.linalg.norm(cur.r - prev.r)))
        prev = cur
    sum_dR, sum_dr = float(np.sum(d_R)), float(np.sum(d_r))
    tail = max(1, len(d_R) // 10)

    def tail_ratio(xs, total):
        return float(np.sum(xs[-tail:]) / total) if total > 0 else 0.0

    cf_R = cf_r = None
    if isinstance(s, GeometricPerturbationStream):
        # sum over n>=1 of rho^n (1-rho) ||.|| = rho ||.||
        cf_R = s.rho * float(np.linalg.norm(s.E_R))
        cf_r = s.rho * float(np.linalg.norm(s.e_r))
    return SummabilityReport(
        horizon=horizon,
        sum_dR=sum_dR,
        sum_dr=sum_dr,
        tail_ratio_dR=tail_ratio(d_R, sum_dR),
        tail_ratio_dr=tail_ratio(d_r, sum_dr),
        closed_form_dR=cf_R,
        closed_form_dr=cf_r,
        converged_dR=float(np.linalg.norm(prev.R - s.limit.R)),
        converged_dr=float(np.linalg.norm(prev.r - s.limit.r)),
    )

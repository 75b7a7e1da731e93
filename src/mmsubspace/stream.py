"""Sequences of quadratic-data snapshots for online runs.

Every stream exposes the limiting instance data and produces per-iteration
snapshots ``(R_n, r_n)`` whose successive differences are summable, so an
online run converges to the minimizer of the limit instance.
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


class EstimateStream:
    """Single-consumer source of snapshots; ``limit`` is the target data."""

    limit: QuadraticData
    penalty: Penalty
    # whether ``instance(n)`` may be drawn for any n in any order, as a
    # verify that checks its records in two processes does
    random_access = False

    def next_estimate(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def instance(self, n: int) -> ProblemInstance:
        """The problem active at iteration ``n``: the validated snapshot plus the penalty."""
        return ProblemInstance(QuadraticData(*self.next_estimate(n)), self.penalty)


class ConstantStream(EstimateStream):
    """R_n = R and r_n = r for every n: the batch case in online clothing."""

    random_access = True

    def __init__(self, quad: QuadraticData, penalty: Penalty | None = None):
        self.limit = quad
        self.penalty = penalty if penalty is not None else ZeroPenalty()
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
    enlarged.  A limit R with a negative eigenvalue beyond rounding is
    refused as input.

    The snapshots are validated once, here.  E is bitwise symmetric by its
    symmetrization, so when R is too, E is finite and ``|R|_F + |E|_F`` is
    at most ``_TRUSTED_NORM``, every ``R + w E`` is bitwise symmetric with a
    finite sum of squares and passes ``check_symmetric`` by construction;
    ``instance`` then skips that check and only flushes the subnormals.  Any
    other stream validates each snapshot.
    """

    random_access = True

    def __init__(self, quad: QuadraticData, rho: float, E_R, e_r, penalty: Penalty | None = None):
        if not 0.0 < rho < 1.0:
            raise InputError("rho must lie in (0, 1)")
        self.limit = quad
        self.penalty = penalty if penalty is not None else ZeroPenalty()
        self.rho = float(rho)
        R = quad.R
        base = min_eig(R)
        if base < -_PSD_RTOL * math.sqrt(np.vdot(R, R)):
            raise InputError(f"the limit R of a geometric stream has the negative eigenvalue {base:.6g}")
        E = np.asarray(E_R, dtype=float)
        E = 0.5 * (E + E.T)
        lo = min_eig(R + rho * E)
        if lo < 0.0:
            # shrink until R + rho*E is PSD; preserves the perturbation direction
            denom = min_eig(rho * E)
            scale = min(0.999 * max(base, 0.0) / max(-denom, 1e-300), 1.0)
            E = scale * E
        self.E_R = E
        self.e_r = as_vector(e_r, quad.dim)
        self._trusted = (np.array_equal(R, R.T) and bool(np.isfinite(E).all())
                         and math.sqrt(np.vdot(R, R)) + math.sqrt(np.vdot(E, E)) <= _TRUSTED_NORM)

    def next_estimate(self, n):
        if n < 1:
            raise InputError("iteration index must be >= 1")
        w = self.rho**n
        return self.limit.R + w * self.E_R, self.limit.r + w * self.e_r

    def instance(self, n):
        if not self._trusted:
            return super().instance(n)
        return ProblemInstance(QuadraticData._of_symmetric(*self.next_estimate(n)), self.penalty)


class RunningAverageStream(EstimateStream):
    """Gram averages of an (x, y) sample stream: R_n = mean x x', r_n = mean y x.

    Snapshots are symmetric nonnegative definite by construction.  The
    summability assumption holds only almost surely here, so this stream is
    kept out of strict certification acceptance.
    """

    def __init__(self, quad: QuadraticData, sample_fn, penalty: Penalty | None = None):
        self.limit = quad
        self.penalty = penalty if penalty is not None else ZeroPenalty()
        self.sample_fn = sample_fn  # k -> (x_k, y_k)
        self._sum_R = np.zeros((quad.dim, quad.dim))
        self._sum_r = np.zeros(quad.dim)
        self._count = 0

    def next_estimate(self, n):
        if n != self._count + 1:
            raise InputError("running-average stream must be consumed in order")
        x, y = self.sample_fn(n)
        x = as_vector(x, self.limit.dim)
        self._sum_R += np.outer(x, x)
        self._sum_r += float(y) * x
        self._count = n
        return self._sum_R / n, self._sum_r / n


class FileReplayStream(EstimateStream):
    """Replays stored snapshots from a JSON-lines file, one object per line."""

    random_access = True

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
        if quad is None:
            quad = QuadraticData(*self.snapshots[-1])
        self.limit = quad
        self.penalty = penalty if penalty is not None else ZeroPenalty()

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

    The tail ratio is the share contributed by the last tenth of the horizon;
    geometric streams also get the closed-form series limit for comparison.
    The final-gap diagnostics report how far the last snapshot is from the
    limit data, covering the convergence half of the assumption separately.
    """
    if horizon < 2:
        raise InputError("horizon must be >= 2")
    d_R, d_r = [], []
    prev = s.next_estimate(1)
    last = prev
    for n in range(2, horizon + 1):
        cur = s.next_estimate(n)
        d_R.append(float(np.linalg.norm(cur[0] - prev[0])))
        d_r.append(float(np.linalg.norm(cur[1] - prev[1])))
        prev = cur
        last = cur
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
        converged_dR=float(np.linalg.norm(last[0] - s.limit.R)),
        converged_dr=float(np.linalg.norm(last[1] - s.limit.r)),
    )

import json
import os

import numpy as np
import pytest

from mmsubspace.linalg import as_vector
from mmsubspace.model import ProblemInstance, QuadraticData, ZeroPenalty
from mmsubspace.problems import random_instance


PENALTY_KINDS = ["zero", "tikhonov", "hyperbolic", "fair"]


@pytest.fixture(autouse=True, scope="session")
def private_problem_cache(tmp_path_factory):
    """Point the problem-file cache at a temporary directory for the whole session,
    so that no test reads or writes the user's cache; subprocesses inherit it."""
    old = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg-cache"))
    yield
    if old is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = old


@pytest.fixture
def diag14():
    """The worked 2x2 instance: R = diag(1, 4), r = 0, no penalty."""
    return ProblemInstance(QuadraticData(np.diag([1.0, 4.0]), np.zeros(2)), ZeroPenalty())


class DensePenalty:
    """The dense defaults of an open penalty interface, kept as the reference for ``Penalty``'s hooks.

    A subclass gives ``value``, ``gradient``, ``hessian``, ``curvature`` (the
    matrix ``B(h)``) and ``curvature_bound``; the block hooks and the value
    and gradient pair then come from those, one column or one call at a time.
    """

    def column_values(self, X):
        return np.array([self.value(x) for x in X.T], dtype=float)

    def value_and_gradient(self, h):
        return self.value(h), self.gradient(h)

    def apply_curvature(self, h, X):
        return self.curvature(h) @ X

    def curvature_gap_bound(self, h):
        """No bound: -inf at each column, so the majorization check takes the dense eigenvalue."""
        h = np.asarray(h)
        return -np.inf if h.ndim == 1 else np.full(h.shape[1], -np.inf)


def instance_grid(seed=0, dims=(1, 2, 5, 20), kinds=PENALTY_KINDS, per_combo=None):
    """Deterministic list of random instances covering all penalty kinds."""
    rng = np.random.default_rng(seed)
    out = []
    for n in dims:
        for kind in kinds:
            out.append(random_instance(n, kind, rng, cond=10.0, lam=0.7, delta=0.6))
    return out


def verify_span(D, v) -> bool:
    """True iff ``v`` lies in the column span of the direction matrix ``D`` up to a small residual."""
    v = as_vector(v, D.cols.shape[0])
    u, *_ = np.linalg.lstsq(D.cols, v, rcond=None)
    return float(np.linalg.norm(D.cols @ u - v)) <= 1e-8 * (1.0 + float(np.linalg.norm(v)))


def write_replay_file(path, snapshots) -> None:
    """Write ``(R, r)`` snapshots in the replay format: one JSON object ``{"n", "R", "r"}`` per line."""
    with open(path, "w") as f:
        for k, (R, r) in enumerate(snapshots, start=1):
            f.write(json.dumps({"n": k, "R": np.asarray(R).tolist(), "r": np.asarray(r).tolist()}))
            f.write("\n")

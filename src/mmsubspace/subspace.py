"""Search-direction matrices for the subspace step.

Every runnable strategy keeps both the negative gradient and the current
iterate inside the span of its columns, which is what the step analysis
requires.  The memory strategies form one family: ``memory:m`` is
``[-grad, h]`` plus the ``m - 2`` latest displacements ``h_k - h_{k-1}``.
``gradient`` is ``memory:2`` and ``3mg`` is ``memory:3``; they keep their
names as labels only.  Columns are deliberately not orthonormalized: the
pseudo-inverse in the step absorbs rank deficiency and keeps the closed
form exactly as written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .linalg import as_vector

FULL = "full"             # identity, half-quadratic step
MEMORY = "memory"         # [-grad, h, diffs...] up to m columns total
# the members of the memory family known by name, with their m
NAMED_MEMORY = {"gradient": 2, "3mg": 3}


@dataclass(frozen=True)
class SubspaceStrategy:
    kind: str
    memory: int = 0

    def __post_init__(self):
        if self.kind in NAMED_MEMORY:
            object.__setattr__(self, "memory", NAMED_MEMORY[self.kind])
        elif self.kind not in (FULL, MEMORY):
            raise InputError(f"unknown subspace strategy {self.kind!r}")
        elif self.kind == MEMORY and self.memory < 2:
            raise InputError("memory strategy needs m >= 2")

    def label(self) -> str:
        return f"memory:{self.memory}" if self.kind == MEMORY else self.kind


def parse_strategy(text: str) -> SubspaceStrategy:
    text = text.strip().lower()
    if text.startswith("memory:"):
        m = text.split(":", 1)[1]
        try:
            memory = int(m)
        except ValueError:
            raise InputError(f"memory size {m!r} is not an integer") from None
        return SubspaceStrategy(MEMORY, memory=memory)
    return SubspaceStrategy(text)


@dataclass(frozen=True)
class DirectionMatrix:
    cols: np.ndarray
    fallback: bool = False  # set when a memory m > 2 lacked history and degraded


def history_window(strategy: SubspaceStrategy) -> int:
    """Past iterates a step's direction matrix reads from the records before
    it: the last one, or the ``memory - 2`` that ``build_subspace`` reads for
    a memory strategy."""
    return max(1, strategy.memory - 2)


def build_subspace(
    strategy: SubspaceStrategy,
    grad,
    h_n,
    history: Sequence[np.ndarray] = (),
) -> DirectionMatrix:
    """Assemble the direction matrix for one iteration.

    ``history`` holds previous iterates, most recent first; a memory
    strategy takes a displacement from each consecutive pair of ``h_n`` and
    its first ``memory - 2`` entries.  When history is required but absent
    (the first iteration) the strategy degrades to [-grad, h] and the
    result is flagged, not rejected.
    """
    grad = as_vector(grad)
    h_n = as_vector(h_n, len(grad))
    n = len(h_n)

    if strategy.kind == FULL:
        return DirectionMatrix(np.eye(n))

    # the columns go straight into one C-ordered block, laid out as
    # np.column_stack lays them out
    k = min(strategy.memory, 2 + len(history))
    cols = np.empty((n, k))
    np.negative(grad, out=cols[:, 0])
    cols[:, 1] = h_n
    prev = h_n
    for j, older in zip(range(2, k), history):
        older = as_vector(older, n)
        np.subtract(prev, older, out=cols[:, j])
        prev = older
    return DirectionMatrix(cols, fallback=strategy.memory > 2 and k == 2)


def column_scaled(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale columns to unit norm (zero columns untouched).

    Scaling leaves the span, and hence the step and the projector
    D (D'AD)^+ D', unchanged, but keeps the pseudo-inverse cutoff meaningful
    when gradient-sized and iterate-sized columns differ by many orders of
    magnitude.
    """
    # the expression np.linalg.norm(cols, axis=0) evaluates, without its dispatch
    s = np.sqrt(np.add.reduce(cols * cols, axis=0))
    positive = s > 0.0
    if not positive.all():  # a zero column, or a NaN one
        s[~positive] = 1.0
    return cols / s, s

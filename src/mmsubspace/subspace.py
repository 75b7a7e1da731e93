"""Search-direction matrices for the subspace step.

Every runnable strategy keeps both the negative gradient and the current
iterate inside the span of its columns, which is what the step analysis
requires.  Columns are deliberately not orthonormalized: the pseudo-inverse
in the step absorbs rank deficiency and keeps the closed form exactly as
written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .linalg import as_vector

GRADIENT = "gradient"     # columns [-grad, h]
MEMORY_3MG = "3mg"        # columns [-grad, h, h - h_prev]
FULL = "full"             # identity, half-quadratic step
MEMORY = "memory"         # [-grad, h, diffs...] up to m columns total


@dataclass(frozen=True)
class SubspaceStrategy:
    kind: str
    memory: int = 0

    def __post_init__(self):
        if self.kind not in (GRADIENT, MEMORY_3MG, FULL, MEMORY):
            raise InputError(f"unknown subspace strategy {self.kind!r}")
        if self.kind == MEMORY and self.memory < 2:
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
    fallback: bool = False  # set when 3MG/memory lacked history and degraded

    @property
    def n_cols(self) -> int:
        return self.cols.shape[1]


def history_window(strategy: SubspaceStrategy) -> int:
    """Past iterates the solve and verify loops keep: the last one, or the
    ``memory - 2`` that ``build_subspace`` reads for the memory strategy."""
    return max(1, strategy.memory - 2)


def build_subspace(
    strategy: SubspaceStrategy,
    grad,
    h_n,
    history: Sequence[np.ndarray] = (),
) -> DirectionMatrix:
    """Assemble the direction matrix for one iteration.

    ``history`` holds previous iterates, most recent first; it is consulted
    only by the memory strategies.  When history is required but absent
    (the first iteration) the strategy degrades to [-grad, h] and the
    result is flagged, not rejected.
    """
    grad = as_vector(grad)
    h_n = as_vector(h_n, len(grad))
    n = len(h_n)

    if strategy.kind == FULL:
        return DirectionMatrix(np.eye(n))

    cols = [-grad, h_n]
    fallback = False
    if strategy.kind == GRADIENT:
        pass
    elif strategy.kind == MEMORY_3MG:
        if history:
            cols.append(h_n - as_vector(history[0], n))
        else:
            fallback = True
    else:  # MEMORY
        n_diffs = strategy.memory - 2
        chain = [h_n] + [as_vector(h, n) for h in history]
        added = 0
        for prev, older in zip(chain, chain[1:]):
            if added >= n_diffs:
                break
            cols.append(prev - older)
            added += 1
        if added == 0 and n_diffs > 0:
            fallback = True
    return DirectionMatrix(np.column_stack(cols), fallback=fallback)


def column_scaled(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale columns to unit norm (zero columns untouched).

    Scaling leaves the span, and hence the step and the projector
    D (D'AD)^+ D', unchanged, but keeps the pseudo-inverse cutoff meaningful
    when gradient-sized and iterate-sized columns differ by many orders of
    magnitude.
    """
    s = np.linalg.norm(cols, axis=0)
    s = np.where(s > 0.0, s, 1.0)
    return cols / s, s

"""in_two_processes returns or raises exactly what (first(), second()) does in one process."""

import os
import warnings

import numpy as np
import pytest

from mmsubspace import processes
from mmsubspace.problems import random_instance
from mmsubspace.processes import in_two_processes
from mmsubspace.solver import SolveOptions, run_batch
from mmsubspace.verify import verify_trace

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _ends_in_a_child():
    parent = os.getpid()

    def first():
        if os.getpid() != parent:
            os._exit(3)
        return "first"

    return first, lambda: "second"


def _first_warns():
    def first():
        warnings.warn("the first part warns", RuntimeWarning)
        return "first"

    return first, lambda: "second"


def _second_raises():
    def second():
        raise ValueError("the second part raises")

    return lambda: "first", second


def _both_warn_then_raise():
    def first():
        warnings.warn("the first part warns", RuntimeWarning)
        raise KeyError("the first part raises")

    def second():
        warnings.warn("the second part warns", RuntimeWarning)
        raise ValueError("the second part raises")

    return first, second


def _outcome(call):
    """What ``call()`` returns or raises, with every warning it gives in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("returned", call())
        except Exception as exc:
            result = ("raised", type(exc), str(exc))
    return result, [str(w.message) for w in caught]


@pytest.mark.parametrize("parts", [_ends_in_a_child, _first_warns, _second_raises, _both_warn_then_raise],
                         ids=["child-exits", "first-warns", "second-raises", "both-warn-then-raise"])
def test_the_outcome_is_the_one_process_outcome(parts):
    first, second = parts()
    want = _outcome(lambda: (first(), second()))
    got = _outcome(lambda: in_two_processes(first, second))
    assert got == want
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_one_threshold_sends_certify_and_verify_to_two_processes(monkeypatch):
    """``processes.TWO_PROCESS_WORK`` alone decides for both; neither holds a copy of it."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("this host cannot take the two-process path")
    made = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    monkeypatch.setattr(processes, "TWO_PROCESS_WORK", 0)
    p = random_instance(8, "hyperbolic", np.random.default_rng(41), cond=20.0, lam=0.7, delta=0.5)
    trace = run_batch(p, h1=np.ones(p.dim), opts=SolveOptions(certify=True))
    assert made == [1]
    assert verify_trace(p, trace).passed
    assert made == [1, 1]

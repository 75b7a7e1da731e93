"""in_two_processes returns or raises exactly what (first(), second()) does in one process."""

import os
import warnings

import pytest

from mmsubspace.processes import in_two_processes

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

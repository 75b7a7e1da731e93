"""Two parts of one computation run side by side in a forked child and this process.

``solver`` certifies a run's iterations and ``verify`` checks a trace's
steps this way, each through ``in_parts``: no part reads another part's
results, and a forked child sidesteps the GIL that scipy's LAPACK wrappers
hold.  The rule, for both: where ``os.fork`` exists, the CPU affinity mask
holds at least 2 CPUs, no other Python thread is alive (a fork copies only
the calling thread), steps * dim**2 reaches ``TWO_PROCESS_WORK`` and the
caller's share of the steps holds at least one, a forked child runs that
first part of the steps and pipes its results back while this process runs
the rest, and the results merge in step order.  The decision comes from
the work and the host, never from a timing.  A part that raises or warns,
or a child that ends before it sends its results, runs again here, the
first part before the second, so the results, the first exception and the
warnings are those of one process.  Wall time falls; CPU time rises by the
fork, the page faults of both processes, the reap and the parts that run
twice.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings

# A second process costs a fork, page faults in both processes and a reap,
# about 8 ms on a 2-core 2.0 GHz Xeon, and saves about a third of the
# work's time.  At n = 90 verify broke even at about 15 checked steps, the
# 120,000 below in steps * dim**2; certify broke even at 12 iterations at
# n = 90, 45 at n = 40 and 100 at n = 20 (97,000, 72,000 and 40,000), so the
# threshold asks for more than break-even, least at n = 90.
TWO_PROCESS_WORK = 120_000


def two_processes(work: int) -> bool:
    """Whether a computation of ``work`` (steps * dim**2) runs in two processes, by the rule above."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1
            and work >= TWO_PROCESS_WORK)


def in_parts(part, steps: int, dim: int, share: float) -> tuple:
    """``(part(0, steps),)``, or, where ``two_processes`` says so for
    steps * dim**2, ``(part(0, split), part(split, steps))`` with a forked
    child running the first; ``split`` is ``int(steps * share)``, and a
    split of 0 keeps one process, so that only the first part starts at 0."""
    split = int(steps * share)
    if not (split and two_processes(steps * dim**2)):
        return (part(0, steps),)
    return in_two_processes(lambda: part(0, split), lambda: part(split, steps))


def in_two_processes(first, second) -> tuple:
    """``(first(), second())``, with a forked child running ``first`` meanwhile.

    The child pickles its result back over a pipe.  A part's result is kept
    only if it ran without an exception or a warning, and the child's only
    if it arrived.  A part not kept runs again here, the first before the
    second, so both results are always returned, and the first exception
    and every warning are those of one process.  The child is reaped on
    every path.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns
        status = 1
        try:
            os.close(r)
            with warnings.catch_warnings(record=True) as caught:
                out = first()
            if not caught:
                with os.fdopen(w, "wb") as pipe:
                    pickle.dump(out, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:  # a part's result is kept as a 1-element list
        with os.fdopen(r, "rb") as pipe:
            with warnings.catch_warnings(record=True) as caught:
                try:
                    mine = [second()]
                except Exception:
                    mine = []
            if caught:
                mine = []
            try:
                theirs = [pickle.load(pipe)]
            except Exception:  # the child ended before it sent its result
                theirs = []
    finally:
        # once its pipe is read or abandoned, the child has nothing left to do
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return theirs[0] if theirs else first(), mine[0] if mine else second()

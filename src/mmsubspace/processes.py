"""Two parts of one computation run side by side in a forked child and this process.

``solver`` certifies a run's iterations and ``verify`` checks a trace's
records this way: no part reads another part's results, and a forked
child sidesteps the GIL that scipy's LAPACK wrappers hold.  Each caller
states its work; ``two_processes`` decides from it and the host, never from
a timing, and ``in_two_processes`` runs the parts, re-running here a part
whose result it did not keep, so that a caller always gets both results.
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


def two_processes(work: int, threshold: float) -> bool:
    """Whether a computation of ``work`` (steps * dim**2) runs in two processes.

    It takes ``os.fork``, at least 2 CPUs in the affinity mask, no other
    Python thread alive (a fork copies only the calling thread), and
    ``work >= threshold``.
    """
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1
            and work >= threshold)


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

"""A content-addressed cache of decoded problem files.

``model.load_problem`` decodes the JSON of a large problem file once.  The
arrays it decoded are kept in an entry named by the SHA-256 of the file's
bytes, and a later load of the same bytes reads them back instead of
parsing the text again.

An entry is a run of ``.npy`` records, one after another in one file.  The
first holds a JSON string: the file's fields, with null in the place of
each float array, and the names of those arrays.  One float64 record per
name follows, in that order: ``R`` (or ``R.diag``), ``r`` and ``penalty.L``.
An entry holds decoded input only, never a value that a check derived, so
the instance rebuilt from it passes every check that a fresh parse passes.
Its name carries ``LAYOUT``, the version of this layout.

The entries live in ``$XDG_CACHE_HOME/mmsubspace``, else
``~/.cache/mmsubspace``.  The directory is created with mode 0o700, and one
that is writable by group or others, or owned by another user, is not used.
Each entry is written to a temporary file in the directory and then renamed
over its name, so a reader sees a whole entry or none.  After a write, the
least recently used entries go until at most ``MAX_ENTRIES`` remain, of at
most ``MAX_BYTES`` together; a read marks its entry used, and arrays larger
than ``MAX_BYTES`` are not kept.  A fault of the cache is never an error:
the functions here return None or write nothing, and the caller parses.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

LAYOUT = 2
MAX_ENTRIES = 16
MAX_BYTES = 256 * 2**20
SUFFIX = ".npy"


def directory() -> str | None:
    """The cache directory, created if absent; None where it cannot be created or is unsafe to use."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG rule: a relative path is ignored
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "mmsubspace")
    if not os.path.isabs(path):
        return None
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except (OSError, ValueError):  # ValueError: a NUL byte in the path
        return None
    if st.st_mode & 0o022 or st.st_uid != os.getuid():
        return None
    return path


def _entry(directory: str, digest: str) -> str:
    return os.path.join(directory, f"{digest}.v{LAYOUT}{SUFFIX}")


def _places(d) -> dict:
    """The object and key of each place in the problem dict ``d`` that may hold a float array, by name."""
    if not isinstance(d, dict):
        return {}
    places = {"R": (d, "R"), "r": (d, "r")}
    if isinstance(d.get("R"), dict):
        places["R.diag"] = (d["R"], "diag")
    if isinstance(d.get("penalty"), dict):
        places["penalty.L"] = (d["penalty"], "L")
    return places


def decode_arrays(d, convert) -> None:
    """Replace in place each list of ``d`` in a place of ``_places`` by ``convert`` of it.

    Each parsed list goes as soon as it is converted.  A list that
    ``convert`` refuses stays, for the caller's checks to refuse in their
    own order.
    """
    for holder, key in _places(d).values():
        if isinstance(holder.get(key), list):
            try:
                holder[key] = convert(holder[key])
            except (TypeError, ValueError, OverflowError):
                pass


def _mark_used(path: str) -> None:
    # set from the fine-grained clock, so that entries written or read in quick
    # succession still order by use
    now = time.time_ns()
    os.utime(path, ns=(now, now))


def load(directory: str, digest: str) -> dict | None:
    """The decoded problem dict held under ``digest``, with float arrays in
    their places; None when there is no such entry or it is bad."""
    path = _entry(directory, digest)
    try:
        with open(path, "rb") as f:
            doc = np.lib.format.read_array(f, allow_pickle=False)
            if doc.dtype.kind != "U" or doc.shape != ():
                raise ValueError("not a problem entry")
            doc = json.loads(doc.item())
            if not isinstance(doc, dict):
                raise ValueError("not a problem entry")
            d, names = doc["fields"], doc["arrays"]
            if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
                raise ValueError("not a problem entry")
            places = _places(d)
            for name in names:
                holder, key = places[name]
                a = np.lib.format.read_array(f, allow_pickle=False)
                if a.dtype != np.float64:
                    raise ValueError(f"array {name!r} is not float64")
                holder[key] = a
        _mark_used(path)
    except (OSError, ValueError, KeyError):
        return None
    return d


def store(directory: str, digest: str, d: dict) -> None:
    """Keep the float arrays of ``d`` in their places, and its other fields, under ``digest``."""
    arrays = {name: holder[key] for name, (holder, key) in _places(d).items()
              if isinstance(holder.get(key), np.ndarray)}
    if sum(a.nbytes for a in arrays.values()) > MAX_BYTES:
        return
    tmp = None
    try:
        doc = json.dumps({"arrays": list(arrays), "fields": d}, default=lambda a: None)
        # named by the process, and O_EXCL keeps out a second writer of the same
        # name; a file left by a writer that died is evicted like an entry
        path = os.path.join(directory, f".{digest}.{os.getpid()}{SUFFIX}")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        tmp = path
        with os.fdopen(fd, "wb") as f:
            for a in (np.array(doc), *arrays.values()):
                np.lib.format.write_array(f, a, allow_pickle=False)
        _mark_used(tmp)
        os.replace(tmp, _entry(directory, digest))
        tmp = None
        _evict(directory)
    except (OSError, ValueError):
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _evict(directory: str) -> None:
    """Remove the least recently used entries beyond ``MAX_ENTRIES`` or ``MAX_BYTES``."""
    with os.scandir(directory) as it:
        stats = [(e.stat(follow_symlinks=False), e.path) for e in it
                 if e.name.endswith(SUFFIX) and e.is_file(follow_symlinks=False)]
    stats.sort(key=lambda s: s[0].st_mtime_ns, reverse=True)
    total = 0
    for k, (st, path) in enumerate(stats):
        total += st.st_size
        if k >= MAX_ENTRIES or total > MAX_BYTES:
            os.unlink(path)

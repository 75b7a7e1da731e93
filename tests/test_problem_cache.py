"""The problem-file cache: a hit rebuilds, bit for bit, the instance that a
fresh parse builds; a refused file is never cached; a fault of the cache
falls back to the parse without a word; the least recently used entry goes
first."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace import cache
from mmsubspace.errors import InputError, parse_json, read_text
from mmsubspace.model import CACHE_MIN_BYTES, load_problem, problem_from_dict


def text_mode_read(path) -> str:
    """The text of the problem file at ``path`` as the loader read it before the cache."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"problem file {path} is not UTF-8 text: {exc}") from exc


def parent_load(path):
    """The loader before the cache: a text-mode read, ``json.loads`` and ``problem_from_dict``."""
    return problem_from_dict(parse_json(text_mode_read(path), f"problem file {path}"))


def outcome(load, path):
    """The instance ``load`` builds from ``path``, or the text of its ``InputError``."""
    try:
        return load(path)
    except InputError as exc:
        return str(exc)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same(p, q):
    """``p`` and ``q`` hold bitwise the same data, signed zeros included."""
    if isinstance(p, str) or isinstance(q, str):
        assert p == q
        return
    for a, b in ((p.quad.R, q.quad.R), (p.quad.r, q.quad.r)):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape and bits(a) == bits(b)
    f, g = p.penalty, q.penalty
    assert type(f) is type(g) and bits(f.lam) == bits(g.lam)
    assert bits(getattr(f, "delta", 0.0)) == bits(getattr(g, "delta", 0.0))
    assert getattr(f, "_first_diff", False) == getattr(g, "_first_diff", False)
    assert (f.L is None) == (g.L is None)
    if f.L is not None:
        assert f.L.shape == g.L.shape and bits(f.L) == bits(g.L)
    assert json.dumps(f.to_dict()) == json.dumps(g.to_dict())


def entries(directory: Path) -> list[Path]:
    return sorted(directory.glob(f"*{cache.SUFFIX}")) if directory.is_dir() else []


def entry_of(directory: Path, path) -> Path:
    return directory / f"{hashlib.sha256(Path(path).read_bytes()).hexdigest()}.v{cache.LAYOUT}{cache.SUFFIX}"


@contextmanager
def fresh_cache():
    """A new empty cache for the body; yields the directory that will hold its entries."""
    with tempfile.TemporaryDirectory() as d, mock.patch.dict(os.environ, {"XDG_CACHE_HOME": d}):
        yield Path(d) / "mmsubspace"


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "mmsubspace"


def padded(text: str, newline: str = "\n") -> bytes:
    """``text`` with ``newline`` line ends and trailing whitespace past ``CACHE_MIN_BYTES``."""
    text = text + "\n" + " \n" * (CACHE_MIN_BYTES // 2)
    return text.replace("\n", newline).encode("utf-8")


def write_padded(path: Path, d: dict, newline: str = "\n") -> Path:
    path.write_bytes(padded(json.dumps(d, indent=1), newline))
    return path


def spd_dict(n: int, seed: int, **penalty) -> dict:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return {"dim": n, "R": (A @ A.T + n * np.eye(n)).tolist(), "r": rng.standard_normal(n).tolist(),
            "penalty": penalty or {"kind": "hyperbolic", "lambda": 0.5, "delta": 0.3}}


# --- equivalence -----------------------------------------------------------

ZEROS = st.sampled_from([0.0, -0.0, 0])
ENTRY = st.one_of(st.integers(-1000, 1000), st.floats(-1e100, 1e100, allow_nan=False), ZEROS)


@st.composite
def problem_dicts(draw):
    n = draw(st.integers(1, 4))
    d = {"dim": n}
    if draw(st.booleans()):
        d["R"] = {"diag": draw(st.lists(ENTRY, min_size=n, max_size=n))}
    else:
        R = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                R[i][j] = R[j][i] = draw(ENTRY)
                if i != j and R[i][j] == 0 and draw(st.booleans()):
                    R[j][i] = -R[i][j]  # a signed zero across the diagonal is still symmetric
        d["R"] = R
    if draw(st.booleans()):
        d["r"] = draw(st.lists(ENTRY, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["omitted", "zero", "tikhonov", "hyperbolic", "fair"]))
    if kind == "omitted":
        return d
    penalty = d["penalty"] = {"kind": kind}
    if kind == "zero":
        return d
    penalty["lambda"] = draw(st.one_of(st.integers(0, 5), st.floats(0.0, 1e3), ZEROS))
    if kind == "tikhonov":
        return d
    penalty["delta"] = draw(st.one_of(st.integers(1, 3), st.floats(1e-3, 1e3)))
    forms = ["identity", "omitted", "dense identity", "other"] + (["diff", "dense diff"] if n >= 2 else [])
    form = draw(st.sampled_from(forms))
    if form == "identity":
        penalty["L"] = "identity"
    elif form == "dense identity":
        penalty["L"] = np.eye(n).tolist()
    elif form == "diff":
        penalty["L"] = {"diff": 1}
    elif form == "dense diff":
        penalty["L"] = (np.eye(n - 1, n, 1) - np.eye(n - 1, n)).tolist()
    elif form == "other":
        k = draw(st.integers(1, 4))
        penalty["L"] = [draw(st.lists(ENTRY, min_size=n, max_size=n)) for _ in range(k)]
    return d


@settings(max_examples=60, deadline=None)
@given(d=problem_dicts(), newline=st.sampled_from(["\n", "\r\n"]))
def test_a_hit_rebuilds_the_instance_of_a_fresh_parse_bit_for_bit(d, newline):
    with tempfile.TemporaryDirectory() as work, fresh_cache() as directory:
        path = Path(work) / "p.json"
        data = padded(json.dumps(d, indent=1), newline)
        path.write_bytes(data)
        assert len(data) >= CACHE_MIN_BYTES
        reference = outcome(lambda _: problem_from_dict(json.loads(data.decode())), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            miss = outcome(load_problem, path)
            assert_same(miss, reference)
            if isinstance(reference, str):
                assert entries(directory) == []
                return
            # the second load must not decode the file's JSON
            with mock.patch("mmsubspace.model.parse_json", side_effect=AssertionError("parsed on a hit")):
                hit = load_problem(path)
        assert_same(hit, reference)
        assert entries(directory) == [entry_of(directory, path)]


@settings(max_examples=300, deadline=None)
@given(chunks=st.lists(st.sampled_from([b"\r", b"\n", b"\r\n", b"a", b"\xef\xbb\xbf", b"\xff", b"\xc3\xa9",
                                         b"\xe2\x82", b"{", b" "]), max_size=30))
def test_the_text_is_decoded_as_a_text_mode_read_decodes_it(chunks, tmp_path_factory):
    path = tmp_path_factory.mktemp("bytes") / "f"
    path.write_bytes(b"".join(chunks))
    assert outcome(text_mode_read, path) == outcome(lambda p: read_text(p, "problem file"), path)


# --- refusals --------------------------------------------------------------

PENALTY_L = {"kind": "hyperbolic", "lambda": 1.0, "delta": 1.0}
REFUSED = {
    "not UTF-8": b"\xff" + padded('{"dim": 1, "R": [[1.0]], "r": [1.0]}'),
    "not JSON": padded('{"dim": 1, "R": [[1.0]],'),
    "NaN in R": padded('{"dim": 2, "R": [[NaN, 0.0], [0.0, 1.0]], "r": [1, 1]}'),
    "ragged L": padded(json.dumps({"dim": 2, "R": [[2, 0], [0, 2]], "r": [1, 1],
                                   "penalty": dict(PENALTY_L, L=[[1, 0], [1]])})),
    "integer beyond the float range": padded('{"dim": 1, "R": [[1' + "0" * 400 + ']], "r": [1]}'),
    "a number written as a string": padded('{"dim": 2, "R": [[2, 0], [0, 2]], "r": [1, "1"]}'),
    "byte order mark": b"\xef\xbb\xbf" + padded('{"dim": 1, "R": [[1.0]], "r": [1.0]}'),
    "CRLF and not JSON": padded('{"dim": 1,\n "R": [[1.0]],\n "r": [1.0]', "\r\n"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_a_refused_file_keeps_its_refusal_and_writes_no_entry(name, tmp_path, cache_dir):
    path = tmp_path / "p.json"
    path.write_bytes(REFUSED[name])
    expected = outcome(parent_load, path)
    assert isinstance(expected, str)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(load_problem, path) == expected
        assert outcome(load_problem, path) == expected
    assert entries(cache_dir) == []


# --- faults ----------------------------------------------------------------

def _records(entry: Path) -> list[np.ndarray]:
    """The ``.npy`` records of ``entry``, in order."""
    records = []
    with open(entry, "rb") as f:
        while f.tell() < entry.stat().st_size:
            records.append(np.lib.format.read_array(f))
    return records


def _rewrite(entry: Path, edit) -> None:
    """Write ``entry`` again as the records that ``edit`` makes of its JSON document and its arrays."""
    doc, *arrays = _records(entry)
    with open(entry, "wb") as f:
        for a in edit(json.loads(doc.item()), arrays):
            np.save(f, a)


def _npz_of_eye() -> bytes:
    f = io.BytesIO()
    np.savez(f, R=np.eye(3))
    return f.getvalue()


def _without_r(doc, arrays):
    assert doc["arrays"][0] == "R"
    doc["arrays"].pop(0)
    return [np.array(json.dumps(doc)), *arrays[1:]]


FAULTS = {
    "truncated": lambda e: e.write_bytes(e.read_bytes()[: e.stat().st_size // 2]),
    "empty": lambda e: e.write_bytes(b""),
    "without its JSON record": lambda e: _rewrite(e, lambda doc, arrays: arrays),
    "without its last record": lambda e: _rewrite(e, lambda doc, arrays: [np.array(json.dumps(doc)), *arrays[:-1]]),
    "without R": lambda e: _rewrite(e, _without_r),
    "with an R that fails the checks": lambda e: _rewrite(
        e, lambda doc, arrays: [np.array(json.dumps(doc)), np.triu(np.ones((6, 6))), *arrays[1:]]),
    "with an integer R": lambda e: _rewrite(
        e, lambda doc, arrays: [np.array(json.dumps(doc)), np.eye(6, dtype=int), *arrays[1:]]),
    "with an unknown array": lambda e: _rewrite(
        e, lambda doc, arrays: [np.array(json.dumps(dict(doc, arrays=["X", *doc["arrays"][1:]]))), *arrays]),
    "with a JSON list": lambda e: _rewrite(e, lambda doc, arrays: [np.array("[]"), *arrays]),
    "with a pickled record": lambda e: _rewrite(
        e, lambda doc, arrays: [np.array([json.dumps(doc)], dtype=object), *arrays]),
    "foreign": lambda e: e.write_bytes(_npz_of_eye()),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_bad_entry_is_parsed_around_and_written_again(fault, tmp_path, cache_dir):
    path = write_padded(tmp_path / "p.json", spd_dict(6, 1, kind="fair", **{"lambda": 0.2, "delta": 0.5},
                                                       L=np.eye(5, 6, 1).tolist()))
    reference = parent_load(path)
    assert_same(load_problem(path), reference)
    entry = entry_of(cache_dir, path)
    good = entry.read_bytes()
    FAULTS[fault](entry)
    assert entry.read_bytes() != good
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same(load_problem(path), reference)
    assert entries(cache_dir) == [entry]
    with mock.patch("mmsubspace.model.parse_json", side_effect=AssertionError("parsed on a hit")):
        assert_same(load_problem(path), reference)


def test_another_writer_s_temporary_file_is_left_alone(tmp_path, cache_dir):
    path = write_padded(tmp_path / "p.json", spd_dict(5, 8))
    cache_dir.mkdir(mode=0o700, parents=True)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    other = cache_dir / f".{digest}.{os.getpid()}{cache.SUFFIX}"
    other.write_bytes(b"half written")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same(load_problem(path), parent_load(path))
    assert other.read_bytes() == b"half written"
    assert entries(cache_dir) == [other]


def test_a_cache_directory_that_cannot_be_made_is_not_an_error(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "below"))
    path = write_padded(tmp_path / "p.json", spd_dict(5, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same(load_problem(path), parent_load(path))
        assert_same(load_problem(path), parent_load(path))
    assert blocker.read_text() == "not a directory\n"


def test_a_directory_writable_by_others_is_not_used(tmp_path, cache_dir):
    path = write_padded(tmp_path / "p.json", spd_dict(5, 3))
    other = write_padded(tmp_path / "other.json", spd_dict(5, 4))
    load_problem(other)
    # the other file's entry, planted under this file's name
    planted = entry_of(cache_dir, path)
    entry_of(cache_dir, other).rename(planted)
    for mode in (0o770, 0o702):
        cache_dir.chmod(mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same(load_problem(path), parent_load(path))
        assert entries(cache_dir) == [planted]
    cache_dir.chmod(0o700)
    assert_same(load_problem(path), parent_load(other))  # the plant is read once the directory is private


def test_the_cache_directory_is_private(tmp_path, cache_dir):
    load_problem(write_padded(tmp_path / "p.json", spd_dict(5, 5)))
    assert cache_dir.stat().st_mode & 0o777 == 0o700
    assert [e.stat().st_mode & 0o777 for e in entries(cache_dir)] == [0o600]


def test_a_small_file_takes_the_parse(tmp_path, cache_dir):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spd_dict(3, 6)))
    assert path.stat().st_size < CACHE_MIN_BYTES
    assert_same(load_problem(path), parent_load(path))
    assert not cache_dir.exists()


# --- eviction --------------------------------------------------------------

def test_the_least_recently_used_entry_is_evicted(tmp_path, cache_dir):
    paths = [write_padded(tmp_path / f"p{k}.json", spd_dict(3, 100 + k)) for k in range(cache.MAX_ENTRIES + 1)]
    for path in paths[:-1]:
        load_problem(path)
    assert len(entries(cache_dir)) == cache.MAX_ENTRIES
    with mock.patch("mmsubspace.model.parse_json", side_effect=AssertionError("parsed on a hit")):
        load_problem(paths[0])  # a hit makes the first entry the most recently used
    load_problem(paths[-1])
    left = entries(cache_dir)
    assert len(left) == cache.MAX_ENTRIES
    assert entry_of(cache_dir, paths[1]) not in left
    assert entry_of(cache_dir, paths[0]) in left and entry_of(cache_dir, paths[-1]) in left


def test_the_least_recently_used_entries_past_the_byte_cap_are_evicted(tmp_path, cache_dir, monkeypatch):
    paths = [write_padded(tmp_path / f"p{k}.json", spd_dict(20, 200 + k)) for k in range(3)]
    load_problem(paths[0])
    size = entry_of(cache_dir, paths[0]).stat().st_size
    monkeypatch.setattr(cache, "MAX_BYTES", 2 * size + size // 2)  # room for two entries
    load_problem(paths[1])
    assert len(entries(cache_dir)) == 2
    load_problem(paths[2])
    assert entries(cache_dir) == sorted(entry_of(cache_dir, p) for p in paths[1:])


def test_a_problem_past_the_byte_cap_is_not_kept(tmp_path, cache_dir, monkeypatch):
    kept = write_padded(tmp_path / "kept.json", spd_dict(3, 10))
    load_problem(kept)
    monkeypatch.setattr(cache, "MAX_BYTES", 20 * 20 * 8 - 1)  # less than R alone
    path = write_padded(tmp_path / "p.json", spd_dict(20, 11))
    for _ in range(2):
        assert_same(load_problem(path), parent_load(path))
    assert entries(cache_dir) == [entry_of(cache_dir, kept)]


# --- imports ---------------------------------------------------------------

def test_the_cache_is_imported_by_the_first_load_of_a_large_file(tmp_path):
    small, large = tmp_path / "small.json", write_padded(tmp_path / "large.json", spd_dict(3, 7))
    small.write_text(json.dumps(spd_dict(3, 7)))
    code = ("import sys; import mmsubspace.cli; from mmsubspace.model import load_problem; "
            "lazy = {'hashlib', 'mmsubspace.cache'}; "
            "assert not lazy & sys.modules.keys(); load_problem(sys.argv[1]); "
            "assert not lazy & sys.modules.keys(); load_problem(sys.argv[2]); "
            "assert lazy <= sys.modules.keys()")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    subprocess.run([sys.executable, "-c", code, str(small), str(large)], check=True, env=env, timeout=60)

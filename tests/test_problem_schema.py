"""Every declared problem-file key given a value of the wrong JSON type, a float
array that holds a null or a non-finite number, or one of the wrong length, is
an ``InputError`` that names the key, from ``problem_from_dict`` and from
``load_problem``; a replay line's ``R`` and ``r`` are refused naming the line."""

import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace import model
from mmsubspace.errors import InputError
from mmsubspace.model import load_problem, problem_from_dict
from mmsubspace.stream import FileReplayStream

NAN, INF = math.nan, math.inf
# a problem that holds each key: the top level, R in both forms, every penalty kind, every L form
DENSE = {"dim": 2, "R": [[2, 0], [0, 3]], "r": [1, 1]}
DIAG = {"dim": 2, "R": {"diag": [2, 3]}, "r": [1, 1]}
PENALTIES = {
    "zero": {"kind": "zero"},
    "tikhonov": {"kind": "tikhonov", "lambda": 0.5},
    **{f"{kind}-{form}": {"kind": kind, "lambda": 0.5, "delta": 0.2, "L": L}
       for kind in ("hyperbolic", "fair")
       for form, L in (("identity", "identity"), ("diff", {"diff": 1}), ("dense", [[1, -1], [0, 1]]))},
}
BASES = {"dense": DENSE, "diag": DIAG, **{name: dict(DIAG, penalty=p) for name, p in PENALTIES.items()}}

# The JSON values of the wrong type or value for each kind of key, written out
# here apart from the tables.
WRONG = {
    "integer": ["x", True, None, NAN, INF, [2], {}, 2.5],
    "number": ["x", "0.5", True, None, NAN, INF, -INF, [1], {}],
    "string": [True, None, NAN, 1, [1], {}, "sideways"],
    "object": ["x", True, None, NAN, 1, [1]],
    "vector": ["x", True, None, NAN, 1, {}, [None, 1], [NAN, 1], [INF, 1], [-INF, 1], ["1", 1], [1, 2, 3], [1],
               [[1, 2]]],
    "matrix": ["x", True, None, NAN, 1, {}, [[None, 0], [0, 1]], [[NAN, 0], [0, 1]], [[INF, 0], [0, 1]],
               [["1", 0], [0, 1]], [[1, 0, 0], [0, 1, 0]], [1, 2], [[1, 0], [0]]],
    "operator": ["x", True, None, NAN, 1, {}, {"diff": 2}, [[None, 1]], [[NAN, 1]], [[INF, 1]], [["1", 1]],
                 [[1, 0, 0]], [[[1, 0]], [[0, 1]]]],
}
# (key, its kind, the bases that hold it)
KEYS = [
    ("dim", "integer", ["dense", "diag"]),
    ("R", "matrix", ["dense"]),
    ("R.diag", "vector", ["diag"]),
    ("r", "vector", ["dense", "diag"]),
    ("penalty", "object", ["zero"]),
    ("penalty.kind", "string", list(PENALTIES)),
    ("penalty.lambda", "number", [name for name in PENALTIES if name != "zero"]),
    ("penalty.delta", "number", [name for name in PENALTIES if "-" in name]),
    ("penalty.L", "operator", [name for name in PENALTIES if "-" in name]),
]
# the refusals of a matrix L of the wrong shape, which name L alone
L_SHAPE = ("L has ", "L must be a matrix")


def test_the_keys_above_cover_every_declared_key():
    declared = {*model._PROBLEM, *(f"R.{key}" for key in model._R_DIAG),
                *(f"penalty.{key}" for table in model._PENALTIES.values() for key in table)}
    assert sorted(key for key, _, _ in KEYS) == sorted(declared)


def mistyped(key: str, base: str, value) -> dict:
    d = json.loads(json.dumps(BASES[base]))
    outer, _, inner = key.rpartition(".")
    (d[outer] if outer else d)[inner] = value
    return d


def names(message: str, key: str) -> bool:
    """Whether ``message`` names ``key``, or a key of the object that ``key`` holds."""
    return f"'{key}'" in message or f"'{key}." in message or (key == "penalty.L" and message.startswith(L_SHAPE))


@pytest.fixture(scope="module")
def mistyped_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mistyped") / "p.json"


@pytest.mark.parametrize("key, kind, bases", KEYS, ids=[key for key, _, _ in KEYS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_mistyped_key_is_named(key, kind, bases, data, mistyped_path):
    base = data.draw(st.sampled_from(bases), label="base")
    value = data.draw(st.sampled_from(WRONG[kind]), label="value")
    d = mistyped(key, base, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as direct:
            problem_from_dict(d)
        mistyped_path.write_text(json.dumps(d))
        with pytest.raises(InputError) as loaded:
            load_problem(mistyped_path)
    assert names(str(direct.value), key), str(direct.value)
    assert str(loaded.value) == str(direct.value)


@pytest.mark.parametrize("base", BASES)
def test_every_base_loads(base):
    assert problem_from_dict(BASES[base]).dim == 2


@pytest.mark.parametrize("key, value", [("r", None), ("r", NAN), ("r", INF), ("R", None), ("R", NAN)])
def test_a_replay_line_with_a_null_or_non_finite_number_names_the_line(key, value, tmp_path):
    line = {"R": [[2, 0], [0, 3]], "r": [1, 1]}
    if key == "R":
        line["R"][0][0] = value
    else:
        line["r"][0] = value
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(line) + "\n")
    with pytest.raises(InputError, match=f"^line 1 of replay file {path}: expected "):
        FileReplayStream(path, quad=problem_from_dict(DENSE).quad)


@pytest.mark.parametrize("line", [{"R": [[2, 0, 0], [0, 3, 0], [0, 0, 1]], "r": [1, 1, 1]},
                                  {"R": [[2, 0], [0, 3]], "r": [1, 1, 1]}], ids=["R", "r"])
def test_a_replay_line_of_another_dim_names_the_line(line, tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"R": [[2, 0], [0, 3]], "r": [1, 1]}) + "\n" + json.dumps(line) + "\n")
    with pytest.raises(InputError, match=f"^line 2 of replay file {path}: expected an array of shape"):
        FileReplayStream(path, quad=problem_from_dict(DENSE).quad)
    with pytest.raises(InputError, match=f"^line 2 of replay file {path}: expected an array of shape"):
        FileReplayStream(path)  # the first line's dim holds for every line

"""Exception types shared across the package, and the file read, parse and table reader of the JSON readers.

The trace, the problem file and a replay line each declare tables of ``Key``
objects, and ``_read`` reads a JSON object by one, naming the key it refuses.
"""

import json
from typing import Callable, NamedTuple, Optional

import numpy as np


class InputError(ValueError):
    """Malformed or dimensionally inconsistent user input."""


class NumericError(RuntimeError):
    """A numerical precondition failed (non-finite values, non-PD matrix, ...)."""


class OracleError(RuntimeError):
    """The independent reference solver failed to reach its tolerance."""


class StreamExhausted(Exception):
    """A finite estimate stream has no further snapshots."""


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at ``path``, as ``decode_text`` decodes it."""
    with open(path, "rb") as f:
        return decode_text(f.read(), path, what)


def decode_text(data: bytes, path, what: str) -> str:
    """``data``, the bytes of the file at ``path``, as ``open(path, encoding="utf-8").read()``
    decodes them: UTF-8 with universal newlines, so that CRLF and a lone CR
    read as LF, and a byte order mark kept as a character.

    Bytes that are not UTF-8 are an ``InputError`` naming ``what`` and the
    path, since a command may read several files.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path} is not UTF-8 text: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def parse_json(text: str, where: str):
    """``json.loads(text)``; text that is not JSON, or holds an integer literal
    beyond Python's int-string conversion limit, is an ``InputError`` naming ``where``."""
    try:
        return json.loads(text)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise InputError(f"{where} is not JSON: {exc}") from exc


REQUIRED = object()


class Kind(NamedTuple):
    """The JSON values a key accepts, by type; ``read`` converts one, ``write`` stores its Python value."""

    what: str
    types: tuple
    read: Callable = lambda v: v  # may raise TypeError, ValueError or OverflowError
    write: Callable = lambda v: v


def _floats(v) -> np.ndarray:
    """``v`` as a float array of its shape, every entry a finite number; true and false read as 1 and 0."""
    a = np.asarray(v)  # the dtype inferred: a string makes a str or object array, a null an object one
    if a.dtype.kind in "OU":
        for x in a.flat:
            if x is None or isinstance(x, str):
                raise TypeError(f"expected numbers, got {'null' if x is None else 'a string'}")
    a = a.astype(float, copy=False)  # an integer beyond the float range overflows
    if not np.isfinite(a).all():
        raise ValueError(f"expected finite numbers, got {json.dumps(float(a[~np.isfinite(a)][0]))}")
    return a


BOOL, INTEGER, STRING = Kind("true or false", (bool,)), Kind("an integer", (int,)), Kind("a string", (str,))
NUMBER = Kind("a number", (int, float), lambda v: None if v is None else float(v))  # None: not recorded
FLOATS = Kind("an array of numbers", (list, np.ndarray), _floats, np.ndarray.tolist)


class Key(NamedTuple):
    kind: Kind
    default: object = REQUIRED  # the value of an absent key, as JSON; None reads as None
    column: Optional[int] = None  # its CSV column
    attr: Optional[str] = None  # the attribute that holds it, where not the key
    ndim: int = 0  # a float array of this many axes, each of length dim


class _Layout(NamedTuple):
    """A table as ``_read`` walks it, built once per table."""

    keys: list  # (key, attribute, kind, accepted types, default, ndim) in table order
    required: frozenset

    @classmethod
    def of(cls, table: dict) -> "_Layout":
        return cls([(name, key.attr or name, key.kind, key.kind.types, key.default, key.ndim)
                    for name, key in table.items()], frozenset(n for n, key in table.items() if key.default is REQUIRED))


def _read(d, layout: _Layout, where: Callable[[], str], prefix: Optional[str] = "", dim: Optional[int] = None) -> dict:
    """The keys of ``layout``'s table in the JSON object ``d``, read by their kinds, by attribute.

    A refusal names ``d`` by ``where()``, and the key after ``prefix`` unless it is None.  The float
    array of a key of ``ndim`` axes has length ``dim`` along each, or, for a None ``dim``, the first's.
    """
    if not isinstance(d, dict):
        raise InputError(f"{where()} is not a JSON object")
    if not d.keys() >= layout.required:
        missing = next(k[0] for k in layout.keys if k[0] in layout.required and k[0] not in d)
        raise InputError(f"{where()} lacks {(prefix or '') + missing!r}")
    out = {}
    try:
        for name, attr, kind, types, default, ndim in layout.keys:
            if name in d:
                v = d[name]
                if type(v) not in types:
                    raise TypeError(f"expected {kind.what}, got {json.dumps(v)[:40]}")
                v = kind.read(v)
                if ndim and type(v) is np.ndarray:
                    if dim is None:
                        dim = len(v)
                    if v.shape != (dim,) * ndim:
                        raise ValueError(f"expected an array of shape {(dim,) * ndim}, got {v.shape}")
                out[attr] = v
            else:
                out[attr] = None if default is None else kind.read(default)
    except (TypeError, ValueError, OverflowError) as exc:
        named = "" if prefix is None else f"malformed {prefix + name!r} in "
        raise InputError(f"{named}{where()}: {exc}") from exc
    return out

"""Exception types shared across the package, and the file read, parse and field check of the JSON readers."""

import json


class InputError(ValueError):
    """Malformed or dimensionally inconsistent user input."""


class NumericError(RuntimeError):
    """A numerical precondition failed (non-finite values, non-PD matrix, ...)."""


class OracleError(RuntimeError):
    """The independent reference solver failed to reach its tolerance."""


class StreamExhausted(Exception):
    """A finite estimate stream has no further snapshots."""


def require_fields(d, fields, where: str) -> dict:
    """``d`` itself if it is a JSON object holding every key of ``fields``.

    Anything else is an ``InputError`` that names ``where`` and the first
    missing key.
    """
    if not isinstance(d, dict):
        raise InputError(f"{where} is not a JSON object")
    for key in fields:
        if key not in d:
            raise InputError(f"{where} lacks {key!r}")
    return d


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

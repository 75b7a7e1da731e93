"""Exception types shared across the package, and the field check of the JSON readers."""


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

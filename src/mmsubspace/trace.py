"""The trace of a run, and its schema, declared once.

A trace is a JSON object: the ``RUN`` keys, ``meta``, an object of the
``META`` keys, and ``records``, a list of ``RECORD`` objects, of which a
certified one also holds the ``CERTIFICATE`` keys.  Each table gives a key
the JSON values it accepts, its default or ``REQUIRED``, and its CSV column;
``as_dict``, ``to_csv``, ``from_json``, every refusal of a key and
``Trace.setting``, the one reader of ``meta``, derive from them.  Keys that
no table declares are ignored.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BOOL, INTEGER, NUMBER, STRING, Key, Kind, _Layout, _read, parse_json, read_text
from .rates import RateCertificate


def _mode(v):
    if v not in ("batch", "online"):
        raise ValueError(f"expected 'batch' or 'online', got {v!r}")
    return v


def _vector(v):
    if not {*map(type, v)} <= {float, int}:
        raise TypeError("expected a list of numbers")
    return np.asarray(v, dtype=float)  # an integer beyond the float range overflows


def _counts(v):
    if not all(type(c) is int for c in v.values()):
        raise TypeError("expected an object of integer counts")
    return Counter(v)


OPTIONAL = NUMBER._replace(what="a number or null", types=(int, float, type(None)))

# in file order; only a certified run writes "certificates_skipped": the
# certificates not recorded because computing them raised, by error class name
RUN = {
    "converged": Key(BOOL, False),
    "stream_exhausted": Key(BOOL, False),
    "fallback_used": Key(BOOL, False),
    "certificates_skipped": Key(Kind("an object", (dict,), _counts, dict), {}),
}
META = {
    "mode": Key(Kind("a string", (str,), _mode), "batch"),
    "strategy": Key(STRING, "3mg"),
    "dim": Key(INTEGER, None),
    "max_iters": Key(INTEGER, None),
    "grad_tol": Key(NUMBER, None),
    "certify": Key(BOOL, False),
    # a stored 0 or null means the default margin
    "epsilon": Key(OPTIONAL._replace(read=lambda v: v or None), None),
}
RECORD = {
    "n": Key(INTEGER, column=0),
    "h": Key(Kind("a list", (list,), _vector, np.ndarray.tolist)),
    "obj": Key(NUMBER, column=1),
    "grad_norm": Key(NUMBER, column=2),
    "step_norm": Key(OPTIONAL, None, 3),
    "chi_n": Key(OPTIONAL, None, 12, "chi"),
    "c_norm": Key(OPTIONAL, None),
}
# the fields of RateCertificate after n; a record holding "theta" holds them all
CERTIFICATE = {
    "theta_tilde": Key(NUMBER, column=4),
    "theta": Key(NUMBER, column=5),
    "theta_lo": Key(NUMBER, column=6),
    "theta_hi": Key(NUMBER, column=7),
    "kappa_lo": Key(NUMBER, column=8),
    "kappa_hi": Key(NUMBER, column=9),
    "sigma_lo": Key(NUMBER, column=10),
    "sigma_hi": Key(NUMBER, column=11),
    "hessian_floor_ok": Key(BOOL),
    "lemma_bound": Key(NUMBER),
    "epsilon": Key(NUMBER),
}
# (column, key, attribute, whether the certificate holds it) of each CSV column, in order
_CSV = sorted((key.column, name, key.attr or name, table is CERTIFICATE)
              for table in (RECORD, CERTIFICATE) for name, key in table.items() if key.column is not None)
_LAYOUT = {name: _Layout.of(table) for name, table in
           (("file", {"records": Key(Kind("a list", (list,))), "meta": Key(Kind("an object", (dict,), dict), {})}),
            ("run", RUN), ("meta", META), ("record", RECORD), ("certificate", CERTIFICATE))}


@dataclass(frozen=True)
class TraceRecord:
    n: int
    h: np.ndarray
    obj: float
    grad_norm: float
    step_norm: Optional[float]
    chi: Optional[float]
    c_norm: Optional[float]
    cert: Optional[RateCertificate]


@dataclass
class Trace:
    records: list = field(default_factory=list)
    converged: bool = False
    stream_exhausted: bool = False
    fallback_used: bool = False
    certificates_skipped: Counter = field(default_factory=Counter)
    meta: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return max(len(self.records) - 1, 0)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def setting(self, name: str):
        """``meta[name]``, or its default where the trace stores none, read as ``META`` declares."""
        key = META[name]
        return key.kind.read(self.meta.get(name, key.default))

    def to_csv(self, path) -> None:
        def cell(holder, attr):
            x = None if holder is None else getattr(holder, attr)
            return "" if x is None else f"{x:.17g}"

        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow([name for _, name, _, _ in _CSV])
            for rec in self.records:
                w.writerow([cell(rec.cert if in_cert else rec, attr) for _, _, attr, in_cert in _CSV])

    def to_json(self, path) -> None:
        """Write ``as_dict()`` as one JSON object: the run-level keys on the
        first line, then one record per line.

        ``json.dumps`` without ``indent`` runs CPython's C encoder, where
        ``json.dump`` to a file always runs the pure-Python one.  The layout
        is not part of the schema: ``from_json`` reads any JSON layout.
        """
        d = self.as_dict()
        records = d.pop("records")
        with open(path, "w") as f:
            f.write(json.dumps(d)[:-1] + ', "records": [\n')
            f.write(",\n".join(map(json.dumps, records)))
            f.write("\n]}\n")

    def as_dict(self) -> dict:
        out = {"meta": self.meta, **{name: key.kind.write(getattr(self, name)) for name, key in RUN.items()}}
        if not self.setting("certify"):
            del out["certificates_skipped"]
        out["records"] = []
        for rec in self.records:
            d = {name: key.kind.write(getattr(rec, key.attr or name)) for name, key in RECORD.items()}
            if rec.cert is not None:
                d.update((name, getattr(rec.cert, name)) for name in CERTIFICATE)
            out["records"].append(d)
        return out

    @classmethod
    def from_json(cls, path) -> "Trace":
        where = f"trace file {path}"
        d = parse_json(read_text(path, "trace file"), where)
        top = _read(d, _LAYOUT["file"], lambda: where)
        trace = cls(meta=top["meta"], **_read(d, _LAYOUT["run"], lambda: where))
        _read(top["meta"], _LAYOUT["meta"], lambda: where, "meta.")
        record, certificate = _LAYOUT["record"], _LAYOUT["certificate"]
        for i, rd in enumerate(top["records"]):
            def where_record():
                return f"record {i} of trace file {path}"
            fields = _read(rd, record, where_record)
            cert = RateCertificate(n=fields["n"], **_read(rd, certificate, where_record)) if "theta" in rd else None
            trace.records.append(TraceRecord(**fields, cert=cert))
        return trace

"""Committed traces read and write back byte for byte, and every declared trace key
of the wrong JSON type is refused by name.

The files under ``tests/data`` were written by ``mmsubspace solve --certify``
on ``golden-problem.json``, a 4-dimensional hyperbolic instance
(``random_instance(4, "hyperbolic", default_rng(26), cond=20, lam=0.7,
delta=0.5)``): ``golden-batch`` on the constant stream, ``golden-online`` on
``--stream replay:golden-replay.jsonl``, whose snapshots drift as
``R + 0.9**n E`` but whose first has an indefinite R, so that its certificate
is skipped, as ``test_verify_processes._skipped`` builds its stream.
``golden-batch-indented.json`` is the batch trace re-written by
``json.dump(..., indent=1)``, the layout of earlier versions.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsubspace import trace as schema
from mmsubspace.cli import main
from mmsubspace.solver import Trace

DATA = Path(__file__).parent / "data"
PROBLEM = DATA / "golden-problem.json"
REPLAY = ["--stream", f"replay:{DATA / 'golden-replay.jsonl'}"]
# file -> (the trace it must write back, the verify flags)
GOLDEN = {
    "golden-batch.json": ("golden-batch", []),
    "golden-batch-indented.json": ("golden-batch", []),
    "golden-online.json": ("golden-online", REPLAY),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_a_committed_trace_reads_writes_and_verifies_as_before(name, tmp_path, capsys):
    stem, flags = GOLDEN[name]
    trace = Trace.from_json(DATA / name)
    assert trace.as_dict() == json.loads((DATA / f"{stem}.json").read_text())
    trace.to_json(tmp_path / "t.json")
    trace.to_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.json").read_bytes() == (DATA / f"{stem}.json").read_bytes()
    assert (tmp_path / "t.csv").read_bytes() == (DATA / f"{stem}.csv").read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--problem", str(PROBLEM), "--trace", str(DATA / name), *flags]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_the_online_trace_keeps_its_skipped_certificate_and_flags():
    trace = Trace.from_json(DATA / "golden-online.json")
    assert trace.certificates_skipped == {"NumericError": 1}
    assert trace.records[0].cert is None and trace.records[1].cert is not None
    assert (trace.converged, trace.stream_exhausted, trace.setting("mode")) == (False, True, "online")


# The JSON values each key accepts, written out here apart from the schema's
# tables: the wrong values drawn for a key are those of the other kinds.
KINDS = {
    "bool": ["converged", "stream_exhausted", "fallback_used", "meta.certify", "hessian_floor_ok"],
    "object": ["certificates_skipped"],
    "string": ["meta.mode", "meta.strategy"],
    "integer": ["meta.dim", "meta.max_iters", "n"],
    "number": ["meta.grad_tol", "obj", "grad_norm", "theta_tilde", "theta", "theta_lo", "theta_hi",
               "kappa_lo", "kappa_hi", "sigma_lo", "sigma_hi", "lemma_bound", "epsilon"],
    "number or null": ["meta.epsilon", "step_norm", "chi_n", "c_norm"],
    "list": ["h"],
}
WRONG = {
    "bool": ["x", None, [1], 1],
    "object": ["x", None, [1], True, 1],
    "string": [None, [1], True, 1],
    "integer": ["x", None, [1], True, 1.5],
    "number": ["x", None, [1], True],
    "number or null": ["x", [1], True],
    "list": ["x", None, True, 1],
}
KEYS = [(key, kind) for kind, keys in KINDS.items() for key in keys]
RUN_LEVEL = set(schema.RUN) | {f"meta.{key}" for key in schema.META}


def test_the_kinds_above_cover_every_declared_key():
    declared = RUN_LEVEL | set(schema.RECORD) | set(schema.CERTIFICATE)
    assert sorted(key for key, _ in KEYS) == sorted(declared)


@pytest.fixture(scope="module")
def certified_trace():
    return json.loads((DATA / "golden-batch.json").read_text())


@pytest.fixture(scope="module")
def mistyped_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mistyped") / "t.json"


@pytest.mark.parametrize("key, kind", KEYS, ids=[key for key, _ in KEYS])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_a_mistyped_key_is_named(key, kind, data, certified_trace, mistyped_path):
    d = json.loads(json.dumps(certified_trace))
    value = data.draw(st.sampled_from(WRONG[kind]), label="value")
    if key in RUN_LEVEL:
        outer, _, inner = key.rpartition(".")
        (d[outer] if outer else d)[inner] = value
        where = "in trace file"
    else:
        # the certificate keys are held by every record but the last
        certified = len(d["records"]) - (0 if key in schema.RECORD else 1)
        i = data.draw(st.integers(0, certified - 1), label="record")
        d["records"][i][key] = value
        where = f"in record {i} of trace file"
    mistyped_path.write_text(json.dumps(d))
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        warnings.simplefilter("error")
        code = main(["verify", "--problem", str(PROBLEM), "--trace", str(mistyped_path)])
    err = out.getvalue().splitlines()
    assert code == 1
    assert err and err[0].startswith(f"error: malformed {key!r} {where} {mistyped_path}")

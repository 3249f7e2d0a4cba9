"""The shared JSONL ledger primitive behind the perf, ops and learn logs.

Three contracts are pinned here for all three kinds at once:

* a crash mid-append leaves a torn final line, and the reader skips and
  counts it instead of refusing the whole file — while a garbled line
  anywhere else still raises;
* the committed ledgers read back and write out through their writers
  unchanged, byte for byte where the file was written by the writer;
* an append writes exactly ``json.dumps(mapping, sort_keys=True)`` and
  a newline, all of it even when the OS takes it in pieces, and needs
  the parent directory to exist; the flat-record encoder behind it
  equals ``json.dumps`` on generated mappings, byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ReproError
from repro.obs import LEARN_LOG, OPS_LOG, LearnRecorder, OpsLogger, ops_record
from repro.obs.ledger import LedgerKind
from repro.perf import PERF_LEDGER

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"

#: kind -> (committed file, reader)
KINDS = {
    "perf": (REPO_ROOT / "perf-baseline.jsonl", PERF_LEDGER.read),
    "ops": (DATA / "ops-log-fixture.jsonl", OPS_LOG.read),
    "learn": (DATA / "learn-log-fixture.jsonl", LEARN_LOG.read),
}


def _write_perf(path: Path, records: list) -> None:
    for record in records:
        PERF_LEDGER.append(path, record)


def _write_ops(path: Path, records: list) -> None:
    logger = OpsLogger(path)
    for record in records:
        logger.log(record)


def _write_learn(path: Path, records: list) -> None:
    recorder = LearnRecorder(path)
    for record in records:
        recorder.log(record)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_torn_final_line_is_skipped_and_counted(kind, tmp_path):
    fixture, read = KINDS[kind]
    text = fixture.read_text()
    intact = read(fixture)
    last = text.splitlines()[-1]
    torn = last[: len(last) // 2]
    path = tmp_path / "torn.jsonl"

    # A crash mid-append: the final line has no newline and no end.
    path.write_text(text + torn)
    records = read(path)
    assert records == intact
    assert (records.torn, intact.torn) == (1, 0)

    # The same garbage newline-terminated was not cut short: it raises.
    path.write_text(text + torn + "\n")
    with pytest.raises(ReproError, match=r":\d+ is not JSON"):
        read(path)

    # So does a garbled line in the middle of the file.
    path.write_text(torn + "\n" + text)
    with pytest.raises(ReproError, match=":1 is not JSON"):
        read(path)


@pytest.mark.parametrize("command", [
    ["perf", "list", "--ledger"],
    ["ops", "summary"],
    ["ops", "tail"],
    ["slo", "gate", "--ops-log"],
    ["learn", "report", "--learn-log"],
    ["learn", "gate", "--learn-log"],
], ids=" ".join)
def test_cli_reports_the_torn_line_on_stderr(command, tmp_path, capsys):
    kind = {"slo": "ops"}.get(command[0], command[0])
    fixture, _ = KINDS[kind]
    path = tmp_path / "torn.jsonl"
    path.write_text(fixture.read_text() + '{"trunc')
    assert main(command + [str(fixture)]) == 0
    clean = capsys.readouterr()
    assert main(command + [str(path)]) == 0
    out, err = capsys.readouterr()
    assert out == clean.out
    assert err == clean.err + f"{path}: skipped 1 torn final line(s)\n"


#: committed file -> (path, reader, writer, written by the writer?)
COMMITTED = {
    "perf-baseline.jsonl": (
        REPO_ROOT / "perf-baseline.jsonl", PERF_LEDGER.read, _write_perf, True,
    ),
    "learn-log-fixture.jsonl": (
        DATA / "learn-log-fixture.jsonl", LEARN_LOG.read, _write_learn, True,
    ),
    "learn-log-divergent.jsonl": (
        DATA / "learn-log-divergent.jsonl", LEARN_LOG.read, _write_learn,
        True,
    ),
    # Hand-written (``0.0010``): the writer normalises the numbers.
    "ops-log-fixture.jsonl": (
        DATA / "ops-log-fixture.jsonl", OPS_LOG.read, _write_ops, False,
    ),
}


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_committed_ledgers_round_trip_through_their_writers(name, tmp_path):
    fixture, read, write, byte_identical = COMMITTED[name]
    records = read(fixture)
    assert records
    copy = tmp_path / "copy.jsonl"
    write(copy, records)
    assert read(copy) == records
    if byte_identical:
        assert copy.read_bytes() == fixture.read_bytes()


#: kind -> (ledger kind, committed file its records come from)
APPENDERS = {
    "perf": (PERF_LEDGER, REPO_ROOT / "perf-baseline.jsonl"),
    "ops": (OPS_LOG, DATA / "ops-log-fixture.jsonl"),
    "learn": (LEARN_LOG, DATA / "learn-log-fixture.jsonl"),
}


def _append_cases(kind: str) -> tuple:
    ledger, fixture = APPENDERS[kind]
    records = list(ledger.read(fixture))
    if kind == "ops":
        # Non-ASCII text is escaped, so the bytes do not hang on a locale.
        records.append(ops_record(kind="decision", outcome="ok",
                                  latency_s=1e-4, request_id="r-\u00e9\u2603",
                                  detail="caf\u00e9"))
    return ledger, records


@pytest.mark.parametrize("kind", sorted(APPENDERS))
def test_append_writes_one_sorted_key_json_line(kind, tmp_path):
    ledger, records = _append_cases(kind)
    path = tmp_path / "ledger.jsonl"
    expected = b""
    for record in records:
        stored = ledger.append(path, record)
        assert stored == ledger.encode(record)
        expected += (json.dumps(stored, sort_keys=True) + "\n").encode()
        assert path.read_bytes() == expected


@pytest.mark.parametrize("kind", sorted(APPENDERS))
def test_append_finishes_a_short_write(kind, tmp_path, monkeypatch):
    ledger, records = _append_cases(kind)
    real_write = os.write
    calls = []

    def short_write(fd: int, data: bytes) -> int:
        calls.append(len(data))
        return real_write(fd, bytes(data[:7]))

    path = tmp_path / "ledger.jsonl"
    monkeypatch.setattr(os, "write", short_write)
    ledger.append(path, records[0])
    monkeypatch.undo()
    # The same record appended with whole writes is the expected line.
    whole = tmp_path / "whole.jsonl"
    ledger.append(whole, records[0])
    line = whole.read_bytes()
    assert path.read_bytes() == line
    assert len(calls) == -(-len(line) // 7)


@pytest.mark.parametrize("kind", sorted(APPENDERS))
def test_append_needs_the_parent_directory(kind, tmp_path):
    ledger, records = _append_cases(kind)
    path = tmp_path / "missing" / "ledger.jsonl"
    with pytest.raises(FileNotFoundError):
        ledger.append(path, records[0])
    assert not path.parent.exists()


# -- the flat-record encoder ------------------------------------------------


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


#: Values the flat layout encodes itself.
_flat = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
)

#: Scalars that send a record to the shared encoder.
_odd_scalars = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.none(),
    st.builds(_Str, st.text()),
    st.builds(_Int, st.integers()),
    st.builds(_Float, st.floats()),
)

_nested = st.recursive(
    st.one_of(_flat, _odd_scalars),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(), inner, max_size=3),
    ),
    max_leaves=6,
)

#: Values that send a record to the shared encoder.
_odd = st.one_of(
    _odd_scalars,
    st.lists(_nested, max_size=3),
    st.dictionaries(st.text(), _nested, max_size=3),
)


#: Keys, often built from the characters a ``%``-template or a JSON
#: key prefix could trip on.
_keys = st.one_of(st.text(), st.text('%s{}":, \\', max_size=6))


@st.composite
def _records(draw: Any) -> dict:
    """A flat record, half the time with one odd value added."""
    record = draw(st.dictionaries(_keys, _flat, max_size=8))
    if draw(st.booleans()):
        return {**record, draw(_keys): draw(_odd)}
    return record


#: Flat records, and mappings with non-``str`` keys of one or of mixed
#: types (``json.dumps`` sorts the former and refuses the latter).
_mappings = st.one_of(
    _records(),
    st.dictionaries(
        st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                  st.builds(_Str, st.text()), _keys),
        _flat, min_size=1, max_size=4,
    ),
)


def _encoded(encode: Any, mapping: dict) -> tuple[str, Any]:
    """What an encoder returned, or the type of what it raised."""
    try:
        return "returned", encode(mapping)
    except (TypeError, ValueError) as exc:
        return "raised", type(exc)


_KIND = LedgerKind(noun="record", unreadable="cannot read", error=ReproError)


@settings(max_examples=400)
@given(_mappings)
def test_sorted_json_equals_json_dumps(mapping):
    expected = _encoded(lambda m: json.dumps(m, sort_keys=True), mapping)
    # The second call reads the key layout the first one cached.
    assert _encoded(_KIND.sorted_json, mapping) == expected
    assert _encoded(_KIND.sorted_json, mapping) == expected
    # The positional entry: the same values, in key order, through the
    # same layout; values_line adds the newline and wraps a refusal.
    layout = _KIND.layout(tuple(mapping))
    values = tuple(mapping.values())
    assert _encoded(lambda _: layout.encode(values), mapping) == expected
    if expected[0] == "returned":
        assert _KIND.values_line(layout, values) == expected[1] + "\n"
    else:
        with pytest.raises(ReproError, match="not JSON-serialisable"):
            _KIND.values_line(layout, values)


def test_values_line_checks_the_layout_and_the_value_count():
    kind = LedgerKind(noun="row", unreadable="cannot read", error=ReproError,
                      fields=("a", "b"))
    layout = kind.layout(("b", "a"))
    assert layout.missing == ()
    assert kind.values_line(layout, (2, "x")) == '{"a": "x", "b": 2}\n'
    with pytest.raises(ReproError, match="has 1 value"):
        kind.values_line(layout, ("x",))
    with pytest.raises(ReproError, match=r"missing fields \['b'\]"):
        kind.values_line(kind.layout(("a", "c")), (1, 2))
    with pytest.raises(ValueError, match="repeats a key"):
        kind.layout(("a", "a"))

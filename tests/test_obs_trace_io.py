"""JSONL trace export/import (repro.obs.trace_io)."""

import io
import json
import pickle

import pytest

from repro.obs.trace_io import (
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    TraceSchemaError,
    dump_jsonl,
    event_from_obj,
    load_jsonl,
)
from repro.sim.trace import TraceEvent, TraceRecorder


def make_recorder():
    trace = TraceRecorder(["sweep", "mac"])
    trace.record("sweep", "task_run", key=("fig1", 3), elapsed_s=0.25, pid=42)
    trace.record("mac", "tx", node=1)
    return trace


class TestRoundTrip:
    def test_file_round_trip_preserves_everything(self, tmp_path):
        trace = make_recorder()
        path = tmp_path / "trace.jsonl"
        written = dump_jsonl(trace, path, meta={"seed": 7})
        assert written == 2
        events, header = load_jsonl(path)
        assert events == trace.events()
        assert header["schema"] == TRACE_SCHEMA
        assert header["version"] == TRACE_SCHEMA_VERSION
        assert header["events"] == 2
        assert header["seed"] == 7

    def test_detail_tuple_ordering_survives(self, tmp_path):
        # Detail is stored as an ordered pair-list, not a JSON object.
        trace = TraceRecorder(["a"])
        trace.record("a", "evt", zebra=1, alpha=2, mid=3)
        path = tmp_path / "t.jsonl"
        dump_jsonl(trace, path)
        (event,), _ = load_jsonl(path)
        assert event.detail == trace.events()[0].detail

    def test_tuple_values_normalized_back(self, tmp_path):
        # JSON has one sequence type; sweep task keys are tuples and
        # must come back as tuples (nested too).
        trace = make_recorder()
        path = tmp_path / "t.jsonl"
        dump_jsonl(trace, path)
        events, _ = load_jsonl(path)
        assert events[0].get("key") == ("fig1", 3)

    def test_empty_recorder(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert dump_jsonl(TraceRecorder(), path) == 0
        events, header = load_jsonl(path)
        assert events == []
        assert header["events"] == 0

    def test_text_handle_round_trip(self):
        trace = make_recorder()
        buffer = io.StringIO()
        dump_jsonl(trace, buffer)
        buffer.seek(0)
        events, _ = load_jsonl(buffer)
        assert events == trace.events()

    def test_payload_round_trip(self):
        # Pool workers ship their events home pickled, as TraceEvents.
        trace = make_recorder()
        restored = pickle.loads(pickle.dumps(trace.events()))
        assert restored == trace.events()
        assert restored[0].get("key") == ("fig1", 3)

    def test_meta_cannot_shadow_reserved_keys(self, tmp_path):
        with pytest.raises(ValueError):
            dump_jsonl(TraceRecorder(), tmp_path / "x.jsonl", meta={"version": 9})


class TestSchemaValidation:
    def load_text(self, text):
        return load_jsonl(io.StringIO(text))

    def test_empty_file_rejected(self):
        with pytest.raises(TraceSchemaError):
            self.load_text("")

    def test_foreign_header_rejected(self):
        with pytest.raises(TraceSchemaError, match="not a repro.trace"):
            self.load_text('{"schema": "something.else", "version": 1}\n')

    def test_version_mismatch_rejected(self):
        header = json.dumps({"schema": TRACE_SCHEMA, "version": 99, "events": 0})
        with pytest.raises(TraceSchemaError, match="version"):
            self.load_text(header + "\n")

    def test_garbled_event_line_rejected(self):
        header = json.dumps(
            {"schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION, "events": 1}
        )
        with pytest.raises(TraceSchemaError, match="line 2"):
            self.load_text(header + "\nnot json\n")

    def test_malformed_event_object_rejected(self):
        header = json.dumps(
            {"schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION, "events": 1}
        )
        with pytest.raises(TraceSchemaError, match="malformed"):
            self.load_text(header + '\n{"t": 0}\n')

    def test_event_count_mismatch_rejected(self):
        header = json.dumps(
            {"schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION, "events": 2}
        )
        line = json.dumps({"t": 0, "c": "a", "n": "x", "d": []})
        with pytest.raises(TraceSchemaError, match="declares 2"):
            self.load_text(header + "\n" + line + "\n")

    def test_event_from_obj_rejects_garbage(self):
        with pytest.raises(TraceSchemaError):
            event_from_obj({"nope": 1})

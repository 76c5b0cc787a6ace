"""Versioned JSONL export/import for :class:`repro.sim.trace.TraceEvent`.

File format
-----------

Line 1 is a header object::

    {"schema": "repro.trace", "version": 1, "events": N, ...extra meta}

Every subsequent line is one event::

    {"t": <int time>, "c": "<category>", "n": "<name>", "d": [["key", value], ...]}

Detail fields are stored as an ordered pair-list (not an object) so the
recorded detail-tuple ordering survives the round trip byte-for-byte.
JSON has a single sequence type, so tuple-valued details (e.g. sweep
task keys) come back as tuples again: the loader normalizes every list
inside a detail value to a tuple, matching how the recorder stores them.

Traces exported this way can be archived next to run results and diffed
across runs with ordinary text tooling (one event per line, stable key
order).
"""

from __future__ import annotations

import io
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.sim.trace import TraceEvent

#: Schema identifier written into (and required from) the header line.
TRACE_SCHEMA = "repro.trace"
#: Bump on any incompatible change to the line format.
TRACE_SCHEMA_VERSION = 1


class TraceSchemaError(ValueError):
    """A trace file or event does not match the expected schema."""


# ----------------------------------------------------------------------
# Event <-> plain-object conversion
# ----------------------------------------------------------------------
def event_to_obj(event: TraceEvent) -> Dict[str, Any]:
    """One event as a JSON-ready dict (stable key set and order)."""
    return {
        "t": event.time,
        "c": event.category,
        "n": event.name,
        "d": [[key, value] for key, value in event.detail],
    }


def event_from_obj(obj: Dict[str, Any]) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from :func:`event_to_obj` output."""
    try:
        detail = tuple(
            (str(key), _tuplify(value)) for key, value in obj["d"]
        )
        return TraceEvent(
            time=int(obj["t"]), category=str(obj["c"]), name=str(obj["n"]),
            detail=detail,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceSchemaError(f"malformed trace event {obj!r}: {exc}") from exc


def _tuplify(value: Any) -> Any:
    """Normalize JSON arrays back to the tuples the recorder stored."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


# ----------------------------------------------------------------------
# JSONL files
# ----------------------------------------------------------------------
def dump_jsonl(
    events: Iterable[TraceEvent],
    destination: Union[str, "os.PathLike", io.TextIOBase],
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write ``events`` as JSONL to a path or text handle.

    Returns the number of events written.  ``meta`` entries are merged
    into the header line (they must not shadow the reserved keys).
    """
    events = list(events)
    header: Dict[str, Any] = {
        "schema": TRACE_SCHEMA,
        "version": TRACE_SCHEMA_VERSION,
        "events": len(events),
    }
    for key, value in (meta or {}).items():
        if key in header:
            raise ValueError(f"meta key {key!r} shadows a reserved header field")
        header[key] = value
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", encoding="utf-8") as handle:
            _write_lines(handle, header, events)
    else:
        _write_lines(destination, header, events)
    return len(events)


def _write_lines(handle, header: Dict[str, Any], events: List[TraceEvent]) -> None:
    handle.write(json.dumps(header) + "\n")
    for event in events:
        handle.write(json.dumps(event_to_obj(event)) + "\n")


def load_jsonl(
    source: Union[str, "os.PathLike", io.TextIOBase],
) -> Tuple[List[TraceEvent], Dict[str, Any]]:
    """Read a JSONL trace back; returns ``(events, header)``.

    Raises :class:`TraceSchemaError` on a missing/foreign header, a
    version mismatch, or any malformed event line — archived traces must
    fail loudly, never load half-garbled.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            return _read_lines(handle)
    return _read_lines(source)


def _read_lines(handle) -> Tuple[List[TraceEvent], Dict[str, Any]]:
    first = handle.readline()
    if not first.strip():
        raise TraceSchemaError("empty trace file (missing header line)")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise TraceSchemaError(f"unreadable trace header: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        raise TraceSchemaError(
            f"not a {TRACE_SCHEMA} file (header {str(header)[:80]!r})"
        )
    if header.get("version") != TRACE_SCHEMA_VERSION:
        raise TraceSchemaError(
            f"trace schema version {header.get('version')!r} unsupported "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )
    events: List[TraceEvent] = []
    for lineno, line in enumerate(handle, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceSchemaError(f"line {lineno}: unreadable event: {exc}") from exc
        events.append(event_from_obj(obj))
    declared = header.get("events")
    if isinstance(declared, int) and declared != len(events):
        raise TraceSchemaError(
            f"header declares {declared} events but file holds {len(events)}"
        )
    return events, header

"""Trace file parsing and run-length compression.

Trace files are line-delimited JSON, one trace per line:

    {"id": "1058", "steps": [[7], [11, 3], [7], [11, 3]], "label": null}

A step is the list of behavior ids observed at one point in execution;
most steps hold a single id, and the flat shorthand ``"steps": [7, 5]``
may be mixed with the grouped form. Parsed, each step is a plain tuple of
ids, ``(7,)`` or ``(11, 3)``, checked once, in _parse_record(); within a
record, every one-id step of the same id is one shared tuple, checked where
it first occurs. Labels are advisory metadata: they travel to reports but
never influence classification.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .catalog import BehaviorCatalog
from .errors import EngineError, TraceFormatError, UnknownBehaviorError, brief

LABELS = ("malicious", "benign")


class _TraceFields(NamedTuple):
    trace_id: str
    steps: tuple[tuple[int, ...], ...]
    label: str | None = None


class BehaviorTrace(_TraceFields):
    """One script's execution record: steps in order, each a tuple of behavior ids."""

    __slots__ = ()

    def __new__(cls, trace_id: str, steps: Iterable, label: str | None = None):
        return tuple.__new__(cls, (trace_id, tuple(steps), label))


class RecordError(NamedTuple):
    """A trace record that could not be used, with its input line number."""

    line: int
    reason: str


def compress_runs(flat: Sequence[int]) -> list[tuple[int, int]]:
    """Collapse consecutive repeats into (behavior, count) runs.

    Maximal encoding: no two adjacent runs share a behavior, and repeating
    each behavior `count` times restores the input exactly.
    """
    runs: list[tuple[int, int]] = []
    for behavior in flat:
        if runs and runs[-1][0] == behavior:
            runs[-1] = (behavior, runs[-1][1] + 1)
        else:
            runs.append((behavior, 1))
    return runs


def parse_traces(
    source: Iterable[Union[str, bytes]],
    catalog: BehaviorCatalog | None = None,
) -> Iterator[BehaviorTrace]:
    """Parse a trace file strictly, raising on the first bad record.

    ``source`` is any iterable of lines (an open file works). Traces are
    yielded as soon as their line is read, in input order. When a catalog
    is given, every behavior id must resolve in it.
    """
    return _iter_records(source, catalog, strict=True)


def scan_traces(
    source: Iterable[Union[str, bytes]],
    catalog: BehaviorCatalog | None = None,
) -> Iterator[Union[BehaviorTrace, RecordError]]:
    """Error-tolerant variant of parse_traces().

    Bad records come out as RecordError items in place, so one malformed
    line never aborts a batch.
    """
    return _iter_records(source, catalog, strict=False)


def _iter_records(source, catalog, strict):
    known = None if catalog is None else catalog.ids
    seen_ids: set[str] = set()
    for line_no, raw in enumerate(source, start=1):
        try:
            text = _as_text(raw, line_no)
        except EngineError as exc:
            if strict:
                raise
            yield RecordError(line_no, str(exc))
            continue
        if not text.strip():
            continue
        try:
            yield _parse_record(text, line_no, known, seen_ids)
        except EngineError as exc:
            if strict:
                raise
            yield RecordError(line_no, str(exc))


def _as_text(raw, line_no):
    if isinstance(raw, (bytes, bytearray)):
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"not valid UTF-8: {exc}", line=line_no) from exc
    return raw


def _parse_record(text, line_no, known, seen_ids):
    """One checked trace; `known` is the catalog's id set, or None to accept any id."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise TraceFormatError(f"not valid JSON: {exc}", line=line_no) from exc
    if not isinstance(obj, dict):
        raise TraceFormatError("record is not a JSON object", line=line_no)

    trace_id = obj.get("id")
    if not isinstance(trace_id, str) or not trace_id:
        raise TraceFormatError("missing or non-string 'id'", line=line_no)
    if trace_id in seen_ids:
        raise TraceFormatError(f"duplicate trace id {brief(trace_id)}", line=line_no)

    label = obj.get("label")
    if label is not None and label not in LABELS:
        raise TraceFormatError(
            f"trace {brief(trace_id)}: label must be one of {LABELS} or null", line=line_no
        )

    raw_steps = obj.get("steps")
    if not isinstance(raw_steps, list):
        raise TraceFormatError(f"trace {brief(trace_id)}: 'steps' must be an array", line=line_no)

    steps: list[tuple[int, ...]] = []
    checked: dict[int, tuple[int]] = {}  # id -> its one-id step, checked once per record
    for index, entry in enumerate(raw_steps):
        single = entry[0] if type(entry) is list and len(entry) == 1 else entry
        if type(single) is int:
            step = checked.get(single)
            if step is not None:
                steps.append(step)
                continue
        step = tuple(entry) if type(entry) is list else (entry,)
        if not step:
            raise TraceFormatError(f"trace {brief(trace_id)}: step {index} is empty", line=line_no)
        earlier = set() if len(step) > 1 else None  # keeps the repeat check linear in the step
        # Per behavior: type (JSON types are exact; no bools), then repeat, then catalog.
        for b in step:
            if type(b) is not int or b < 0:
                raise TraceFormatError(
                    f"trace {brief(trace_id)}: step {index} holds {brief(b)}, "
                    "expected a non-negative integer behavior id",
                    line=line_no,
                )
            if earlier is not None:
                if b in earlier:
                    raise TraceFormatError(
                        f"trace {brief(trace_id)}: step {index} repeats behavior {b}", line=line_no
                    )
                earlier.add(b)
            if known is not None and b not in known:
                raise UnknownBehaviorError(b, context=f"trace {brief(trace_id)}, step {index}")
        if earlier is None:
            checked[step[0]] = step
        steps.append(step)

    seen_ids.add(trace_id)
    return BehaviorTrace(trace_id, steps, label)

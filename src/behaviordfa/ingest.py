"""Trace file parsing and run-length compression.

Trace files are line-delimited JSON, one trace per line:

    {"id": "1058", "steps": [[7], [11, 3], [7], [11, 3]], "label": null}

A step is the list of behavior ids observed at one point in execution;
most steps hold a single id, and the flat shorthand ``"steps": [7, 5]``
may be mixed with the grouped form. Parsed, each step is a plain tuple of
ids, ``(7,)`` or ``(11, 3)``, checked once, in _parse_record(). Labels are
advisory metadata: they travel to reports but never influence classification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .catalog import BehaviorCatalog
from .errors import EngineError, TraceFormatError, UnknownBehaviorError

LABELS = ("malicious", "benign")


@dataclass(frozen=True)
class BehaviorTrace:
    """One script's execution record: steps in order, each a tuple of behavior ids."""

    trace_id: str
    steps: tuple[tuple[int, ...], ...]
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class RecordError:
    """A trace record that could not be used, with its input line number."""

    line: int
    reason: str


def compress_runs(flat: Sequence[int]) -> list[tuple[int, int]]:
    """Collapse consecutive repeats into (behavior, count) runs.

    Maximal encoding: no two adjacent runs share a behavior, and
    expand_runs() restores the input exactly.
    """
    runs: list[tuple[int, int]] = []
    for behavior in flat:
        if runs and runs[-1][0] == behavior:
            runs[-1] = (behavior, runs[-1][1] + 1)
        else:
            runs.append((behavior, 1))
    return runs


def expand_runs(runs: Iterable[tuple[int, int]]) -> list[int]:
    """Inverse of compress_runs()."""
    flat: list[int] = []
    for behavior, count in runs:
        flat.extend([behavior] * count)
    return flat


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
    except ValueError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}", line=line_no) from exc
    if not isinstance(obj, dict):
        raise TraceFormatError("record is not a JSON object", line=line_no)

    trace_id = obj.get("id")
    if not isinstance(trace_id, str) or not trace_id:
        raise TraceFormatError("missing or non-string 'id'", line=line_no)
    if trace_id in seen_ids:
        raise TraceFormatError(f"duplicate trace id {trace_id!r}", line=line_no)

    label = obj.get("label")
    if label is not None and label not in LABELS:
        raise TraceFormatError(
            f"trace {trace_id!r}: label must be one of {LABELS} or null", line=line_no
        )

    raw_steps = obj.get("steps")
    if not isinstance(raw_steps, list):
        raise TraceFormatError(f"trace {trace_id!r}: 'steps' must be an array", line=line_no)

    steps: list[tuple[int, ...]] = []
    for index, entry in enumerate(raw_steps):
        step = tuple(entry) if type(entry) is list else (entry,)
        if not step:
            raise TraceFormatError(f"trace {trace_id!r}: step {index} is empty", line=line_no)
        earlier = set() if len(step) > 1 else None  # keeps the repeat check linear in the step
        # Per behavior: type (JSON types are exact; no bools), then repeat, then catalog.
        for b in step:
            if type(b) is not int or b < 0:
                raise TraceFormatError(
                    f"trace {trace_id!r}: step {index} holds {b!r}, "
                    "expected a non-negative integer behavior id",
                    line=line_no,
                )
            if earlier is not None:
                if b in earlier:
                    raise TraceFormatError(
                        f"trace {trace_id!r}: step {index} repeats behavior {b}", line=line_no
                    )
                earlier.add(b)
            if known is not None and b not in known:
                raise UnknownBehaviorError(b, context=f"trace {trace_id!r}, step {index}")
        steps.append(step)

    seen_ids.add(trace_id)
    return BehaviorTrace(trace_id, tuple(steps), label)

"""Trace file parsing.

Trace files are line-delimited JSON, one trace per line:

    {"id": "1058", "steps": [[7], [11, 3], [7], [11, 3]], "label": null}

A step is the list of behavior ids observed at one point in execution;
most steps hold a single id, and the flat shorthand ``"steps": [7, 5]``
may be mixed with the grouped form. Parsed, each step is a plain tuple of
ids, ``(7,)`` or ``(11, 3)``. A stream's JSON decoder turns each id into its
checked ``(id,)``, and a list's tuple of those finds its step in one memo, so a
good line needs no Python loop per step, and equal steps of up to 16 ids are
one tuple across the stream (``7`` and ``[7]`` share one). A float, a constant
or a negative or unknown integer decodes to a sentinel that no step may hold.
A line the decoder cannot answer (bad JSON, a bad record or step, a step
spelt ``[true]`` or ``[false]``), and every line once the memo holds 4,096
entries, takes the exact path: json.loads and per-step checks, which word
every error. There a step equal to the one before it is that same tuple.
Labels are advisory metadata: they travel to reports but never influence
classification.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Union

from .catalog import BehaviorCatalog
from .errors import EngineError, TraceFormatError, UnknownBehaviorError, brief, is_text

LABELS = ("malicious", "benign")

# A stream keeps checked steps of up to _SHARED_WIDTH ids in a memo of _SHARED_STEPS entries, past
# which one miss stores at most _SHARED_WIDTH + 1 (about 1.5 MB in all, ids over a million).
_SHARED_STEPS = 4096
_SHARED_WIDTH = 16
_INT = frozenset((int,))
_NOT_A_STEP = object()  # what the decoder makes of a number no step may hold
_BOOL_STEP = re.compile(r"\[[ \t\n\r]*(?:true|false)[ \t\n\r]*\]")


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


def parse_traces(
    source: Iterable[Union[str, bytes]],
    catalog: BehaviorCatalog | None = None,
) -> Iterator[BehaviorTrace]:
    """Parse a trace file strictly, raising on the first bad record.

    ``source`` is any iterable of lines, str or UTF-8 bytes (an open file
    works). Traces are yielded as soon as their line is read, in input order;
    a blank line is skipped, but counted. With a catalog, every behavior id
    must resolve in it. The error's message begins ``line N: ``; its ``line`` is N. An
    EngineError thrown in after a trace (``traces.throw(exc)``) is named by its line too.
    """
    return _iter_records(source, catalog, strict=True)


def scan_traces(
    source: Iterable[Union[str, bytes]],
    catalog: BehaviorCatalog | None = None,
) -> Iterator[Union[BehaviorTrace, RecordError]]:
    """Error-tolerant variant of parse_traces().

    A bad line, whatever its fault, comes out in its place as a RecordError of its
    number and parse_traces()'s message, so one bad line never aborts a batch; for an
    EngineError thrown in after a trace, ``throw()`` returns its RecordError and goes on.
    """
    return _iter_records(source, catalog, strict=False)


def _iter_records(source, catalog, strict):
    known = None if catalog is None else catalog.ids
    seen_ids: set[str] = set()
    memo = _Memo(known)
    for line_no, line in enumerate(source, start=1):
        try:
            item = _parse_record(line, known, seen_ids, memo)
            if item is not None:
                yield item  # a caller that refuses it throws its EngineError in here
        except EngineError as exc:  # named here, the one place that knows the line
            exc.args = (f"line {line_no}: {exc}",)
            exc.line = line_no
            if strict:
                raise
            yield RecordError(line_no, str(exc))


def _not_a_step(text):
    return _NOT_A_STEP


class _Memo(dict):
    """One stream's decoder and its checked steps, by an id's JSON text or an entry's tuple.

    A text that misses gives its id's (id,), or _NOT_A_STEP; with a catalog, which bounds
    them, an id's text is stored on its first miss, and without one it is stored only with
    a step. An entry that misses is checked and stored with the texts of its ids, or raises:
    _parse_record() then takes the exact path."""

    def __init__(self, known):
        self.known = known
        self.decode = json.JSONDecoder(
            parse_int=self.__getitem__, parse_float=_not_a_step, parse_constant=_not_a_step
        ).decode

    def __missing__(self, key):
        if type(key) is str:
            b = int(key)
            if self.known is None:  # unbounded: numbers in ignored keys must not fill the memo
                return (b,) if b >= 0 else _NOT_A_STEP
            if b not in self.known:  # a catalog holds no negative id
                return _NOT_A_STEP
            step = self[key] = self.setdefault(str(b), (b,))  # "-0" and "0" share one (0,)
            return step
        if len(self) >= _SHARED_STEPS:  # full: the stream stops taking the decoder path
            self.decode = None
            raise KeyError(key)
        if len(key) == 1 and type(key[0]) is int:  # a flat entry: its (id,) is [id]'s element
            key = (key,)
        # A good list's elements are decoded (id,)s: the sentinel, None or a bool raises
        # TypeError, and a str, a list or an object fails the check.
        step = tuple(chain.from_iterable(key))
        if not step or len(set(step)) != len(key) or not _INT.issuperset(map(type, step)):
            raise KeyError(key)
        if len(key) > _SHARED_WIDTH:  # checked, but not stored
            return step
        # From now on the decoder gives each id's text this (id,), so later keys match by identity.
        key = tuple([self.setdefault(str(b), (b,)) for b in step])
        if len(key) == 1:  # the one-id step is found from the flat entry and from [id]
            step = key[0]
            self[step] = step
        self[key] = step
        return step


def _parse_record(line, known, seen_ids, memo):
    """The checked trace of one input line, str or UTF-8 bytes, or None if it is blank.

    `known` is the catalog's id set, or None. `memo` decodes the good lines it can answer;
    json.loads and the step checks read every other line. Every fault raises an EngineError."""
    if isinstance(line, (bytes, bytearray)):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"not valid UTF-8: {exc}") from exc
    # Decoded, 1 is (1,), and (True,) == (1,): a step spelt [true] or [false] takes the exact path.
    if memo.decode is not None and not (
        ("true" in line or "false" in line) and _BOOL_STEP.search(line)
    ):
        try:
            obj = memo.decode(line)
            trace_id, label, raw_steps = obj["id"], obj.get("label"), obj["steps"]
            # tuple() keeps a decoded (id,) and turns a list into its key.
            steps = tuple(map(memo.__getitem__, map(tuple, raw_steps)))
            if (type(trace_id) is str and trace_id and trace_id not in seen_ids
                    and is_text(trace_id) and (label is None or label in LABELS)
                    and type(raw_steps) is list):
                seen_ids.add(trace_id)
                return tuple.__new__(BehaviorTrace, (trace_id, steps, label))
        except (LookupError, TypeError, ValueError, RecursionError):
            pass
    if not line.strip():  # after decoding: a UTF-8 no-break space is blank too
        return None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise TraceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise TraceFormatError("record is not a JSON object")

    trace_id = obj.get("id")
    if not isinstance(trace_id, str) or not trace_id:
        raise TraceFormatError("missing or non-string 'id'")
    if not is_text(trace_id):
        raise TraceFormatError(f"trace id {brief(trace_id)} is not valid Unicode text")
    if trace_id in seen_ids:
        raise TraceFormatError(f"duplicate trace id {brief(trace_id)}")

    label = obj.get("label")
    if label is not None and label not in LABELS:
        raise TraceFormatError(f"trace {brief(trace_id)}: label must be one of {LABELS} or null")

    raw_steps = obj.get("steps")
    if not isinstance(raw_steps, list):
        raise TraceFormatError(f"trace {brief(trace_id)}: 'steps' must be an array")

    steps: list[tuple[int, ...]] = []
    step = last = None  # the step before and its entry: an int equal to that shares the step
    for index, entry in enumerate(raw_steps):
        if type(entry) is not int or entry != last:
            prev, step = step, tuple(entry) if type(entry) is list else (entry,)
            if not step:
                raise TraceFormatError(f"trace {brief(trace_id)}: step {index} is empty")
            earlier = set() if len(step) > 1 else None  # keeps the repeat check linear in the step
            # Per behavior: type (JSON types are exact; no bools), then repeat, then catalog.
            for b in step:
                if type(b) is not int or b < 0:
                    raise TraceFormatError(
                        f"trace {brief(trace_id)}: step {index} holds {brief(b)}, "
                        "expected a non-negative integer behavior id"
                    )
                if earlier is not None:
                    if b in earlier:
                        raise TraceFormatError(
                            f"trace {brief(trace_id)}: step {index} repeats behavior {b}"
                        )
                    earlier.add(b)
                if known is not None and b not in known:
                    raise UnknownBehaviorError(b, context=f"trace {brief(trace_id)}, step {index}")
            if step == prev:  # a run is one tuple
                step = prev
        steps.append(step)
        last = entry
    seen_ids.add(trace_id)
    # tuple.__new__ skips the named tuple's Python-level constructor.
    return tuple.__new__(BehaviorTrace, (trace_id, tuple(steps), label))

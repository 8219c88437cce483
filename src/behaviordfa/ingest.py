"""Trace file parsing.

Trace files are line-delimited JSON, one trace per line:

    {"id": "1058", "steps": [[7], [11, 3], [7], [11, 3]], "label": null}

A step is the list of behavior ids observed at one point in execution;
most steps hold a single id, and the flat shorthand ``"steps": [7, 5]``
may be mixed with the grouped form. Parsed, each step is a plain tuple of
ids, ``(7,)`` or ``(11, 3)``. A stream's JSON decoder turns each id into its
checked, shared ``(id,)``, and a list's tuple of those finds its step in the
same memo, so a good line needs no Python loop per step, and equal steps of
such lines are one tuple (``7`` and ``[7]`` share one). Any other line (a
bool, a float, a bad id or step, a step of over 16 ids, bad JSON) takes the
exact path: json.loads and per-step checks, which word every error and share
steps through a memo of their own that forgets all when full, so every step
of a run is still one tuple, checked once. Once the decoder's memo holds
4,096 entries, or it has declined 16 good lines, every line takes the exact path.
Labels are advisory metadata: they travel to reports but never influence
classification.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Union

from .catalog import BehaviorCatalog
from .errors import (
    EngineError,
    InternalInvariantError,
    TraceFormatError,
    UnknownBehaviorError,
    brief,
    is_text,
)

LABELS = ("malicious", "benign")

# A stream keeps checked steps of up to _SHARED_WIDTH ids in memos of _SHARED_STEPS entries (3.5 MB
# at most, ids over a million); it stops decoding after _DECLINED good lines its decoder declined.
_SHARED_STEPS = 4096
_SHARED_WIDTH = 16
_DECLINED = 16
_INT = frozenset((int,))


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
    shared: dict = {}  # int or tuple entry -> its checked step, for the exact path
    memo = _Memo(known)
    for line_no, line in enumerate(source, start=1):
        try:
            item = _parse_record(line, known, seen_ids, shared, memo)
            if item is not None:
                yield item  # a caller that refuses it throws its EngineError in here
        except EngineError as exc:  # named here, the one place that knows the line
            exc.args = (f"line {line_no}: {exc}",)
            exc.line = line_no
            if strict:
                raise
            yield RecordError(line_no, str(exc))


class _Memo(dict):
    """One stream's decoder and its checked steps, by a number's JSON text or an entry's tuple.
    A miss checks and remembers its step, or raises: _parse_record() takes the exact path."""

    def __init__(self, known):
        self.known, self.declined, hook = known, 0, self.__getitem__
        self.decode = json.JSONDecoder(parse_int=hook, parse_float=hook, parse_constant=hook).decode

    def __missing__(self, key):
        if len(self) >= _SHARED_STEPS:  # full: the stream stops taking the decoder path
            self.decode = None
            raise KeyError(key)
        if type(key) is str:
            b = int(key)
            if b < 0 or (self.known is not None and b not in self.known):
                raise KeyError(key)
            step = self.setdefault((b,), (b,))  # "-0" finds the step of "0"
            self[(step,)] = step  # decoded, the entry b is that step and [b] is (step,)
        elif 1 < len(key) <= _SHARED_WIDTH:
            # A good group's elements are checked (id,)s; None raises TypeError, and a str fails.
            step = tuple(chain.from_iterable(key))
            if len(set(step)) != len(key) or not _INT.issuperset(map(type, step)):
                raise KeyError(key)
        else:
            raise KeyError(key)
        self[key] = step
        return step


def _parse_record(line, known, seen_ids, shared, memo):
    """The checked trace of one input line, str or UTF-8 bytes, or None if it is blank.

    `known` is the catalog's id set, or None. `memo` decodes the good lines it can answer;
    `shared` maps the entries the exact path checked. Every fault raises an EngineError."""
    if isinstance(line, (bytes, bytearray)):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"not valid UTF-8: {exc}") from exc
    # Decoded, 1 is the shared (1,), and (True,) == (1,): true and false take the exact path.
    if tried := memo.decode is not None and "true" not in line and "false" not in line:
        try:
            obj = memo.decode(line)
            trace_id, label, raw_steps = obj["id"], obj.get("label"), obj["steps"]
            # tuple() keeps a shared (id,) and turns a list into its key.
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

    # An int entry is looked up as itself, a list as its tuple; a miss is checked and remembered.
    lookup = shared.get
    steps: list[tuple[int, ...]] = []
    grouped = []  # every list entry, for the census below
    try:
        for entry in raw_steps:
            if type(entry) is int:
                step = lookup(entry)
            elif type(entry) is list:
                grouped.append(entry)
                key = tuple(entry)
                step = lookup(key)  # TypeError: an element is a list or an object
            else:
                step = None
            if step is None:
                step = key if type(entry) is list else (entry,)
                _check_step(step, len(steps), trace_id, known)
                if len(step) <= _SHARED_WIDTH:
                    if len(shared) >= _SHARED_STEPS:  # full: start over, so a run still shares
                        shared.clear()
                    shared[step] = step
                    if len(step) == 1:
                        shared[step[0]] = step
            steps.append(step)
        # A list's tuple also finds the step it equals, and (True, 2) == (1.0, 2) == (1, 2):
        # the lookups were exact only if every element of every list is an int.
        if _INT.issuperset(map(type, chain.from_iterable(grouped))):
            seen_ids.add(trace_id)
            memo.declined += tried  # tried: the decoder declined this good line
            if memo.declined >= _DECLINED:
                memo.decode = None
            # tuple.__new__ skips the named tuple's Python-level constructor.
            return tuple.__new__(BehaviorTrace, (trace_id, tuple(steps), label))
    except (EngineError, TypeError):  # a miss failed, or a list's tuple is unhashable
        pass
    # Not exact, or a miss failed: the checks run again from step 0 to raise the first error.
    for index, entry in enumerate(raw_steps):
        _check_step(tuple(entry) if type(entry) is list else (entry,), index, trace_id, known)
    raise InternalInvariantError(f"trace {brief(trace_id)}: census failed, checks passed")


def _check_step(step, index, trace_id, known):
    """Raise the error of the first bad behavior in one step, a tuple of its entry's values.

    Per behavior: type (JSON types are exact; no bools), then repeat, then catalog.
    """
    if not step:
        raise TraceFormatError(f"trace {brief(trace_id)}: step {index} is empty")
    earlier = set() if len(step) > 1 else None  # keeps the repeat check linear in the step
    for b in step:
        if type(b) is not int or b < 0:
            raise TraceFormatError(
                f"trace {brief(trace_id)}: step {index} holds {brief(b)}, "
                "expected a non-negative integer behavior id"
            )
        if earlier is not None and b in earlier:
            raise TraceFormatError(f"trace {brief(trace_id)}: step {index} repeats behavior {b}")
        if earlier is not None:
            earlier.add(b)
        if known is not None and b not in known:
            raise UnknownBehaviorError(b, context=f"trace {brief(trace_id)}, step {index}")

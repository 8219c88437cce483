"""Trace classification against a behavior automaton.

A trace is matched as a prefix walk from the initial state. Divergence is
the first step with no usable transition; entering a final state flags the
trace immediately, trailing input notwithstanding. For a non-final end
state the match percentage compares the weight collected along the walk
with the weight of the cheapest initial-to-final path extending it:

    percentage = 100 * matched_weight / weight_to_nearest_final

The model is a trie, so the walk's edges are the unique path to its end
state and the denominator is a lookup: the model derives once, per
state, the weight from the initial state and the nearest final below
it, whose own weight from the initial state is the denominator. The
walk therefore tracks only its state, one out-table lookup per step
but one per run on a self-loop, where the same step object repeats;
an out table gives the edge's target as an offset from the state, 0
on a self-loop, and its weight. classify() builds two named tuples per
trace and no path: a MatchResult, where the walk ended, and the
Classification, which holds it and the id of the final the trace is
scored against. The rest of the explanation (matched_transitions,
matched_weight, denominator_weight, denominator_path, forward_path) is
read off the match's model when a caller reads it. The denominator path
is the model's path from the initial state to that final, one walk up
its parent links, and the matched and forward paths are its head and
tail, split where it leaves the walk's end state. Results are
immutable, and compared by their public fields.
Self-loop traversals consume input but add no weight on either side of
the ratio, so a behavior repeated eight times scores the same as one
repeated twice. Percentages are exact rationals end to end: a result
stores no percentage, the writers and the summary carry it as the
reduced integer pair (numerator, denominator), and a Fraction is built
only when a caller reads match_percentage or BatchSummary.histogram.
Decimal strings appear only at the output boundary.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left
from functools import cmp_to_key
from json.encoder import encode_basestring_ascii as _quoted
from math import gcd
from operator import attrgetter
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple, Union

from .dfa import BehaviorDfa, Transition
from .errors import InternalInvariantError
from .ingest import BehaviorTrace, RecordError

if TYPE_CHECKING:  # a Fraction is built only where one is read, and imported there
    from fractions import Fraction


class Verdict(enum.Enum):
    BENIGN = "benign"
    PARTIALLY_MALIGN = "partially_malign"
    MALIGN = "malign"
    __hash__ = object.__hash__  # members equal only themselves; hashed in C, not Enum's Python


# Bound once. Under CPython 3.11 an enum member read off its class, a
# member's `.value` and `tuple.__new__` each cost several module-global
# reads, so the per-trace and per-record functions below read these names.
# A verdict's text is read as `_value_`, the plain attribute behind `.value`.
_BENIGN, _PARTIAL, _MALIGN = Verdict.BENIGN, Verdict.PARTIALLY_MALIGN, Verdict.MALIGN
# tuple.__new__ skips a named tuple's Python-level constructor.
_new = tuple.__new__


class MatchResult(NamedTuple):
    """Where a prefix walk ended; its path and weight are read off the model on demand.

    Equal, and hashed alike, by its public fields, whichever model object it holds.
    """

    end_state: int
    consumed_steps: int
    diverged: bool
    reached_final: bool
    model: BehaviorDfa

    @property
    def matched_transitions(self) -> tuple[Transition, ...]:
        """The forward edges the walk took, in order: the trie path to end_state."""
        return self.model.path_from_initial(self.end_state)

    @property
    def matched_weight(self) -> int:
        """The weight of matched_transitions; self-loops add none."""
        return self.model._tables[2][self.end_state]

    def __eq__(self, other):
        return _public(self) == _public(other) if type(other) is MatchResult else NotImplemented

    def __ne__(self, other):
        return _public(self) != _public(other) if type(other) is MatchResult else NotImplemented

    def __hash__(self):
        return hash(_public(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(_PUBLIC, _public(self)))
        return f"MatchResult({shown})"


_PUBLIC = (
    "end_state", "matched_transitions", "matched_weight", "consumed_steps", "diverged",
    "reached_final",
)
_public = attrgetter(*_PUBLIC)


def _split(path: tuple[Transition, ...], state: int, final: int) -> int:
    """How many edges of `path`, the path to `final`, lie above `state` on it."""
    if state == final:
        return len(path)
    i = bisect_left(path, (state,))  # sources ascend along the path
    if i == len(path) or path[i][0] != state:
        raise InternalInvariantError(f"state {final} is not reachable from state {state}")
    return i


class Classification(NamedTuple):
    """Verdict plus the full explanation payload for one trace.

    final_state is the final scored against: the end state when malign, the
    nearest final below it when partial, None when benign. The percentage
    (100, 0, or 100 * matched weight / denominator_weight for a partial) and
    the denominator fields are read off it and the match's model on demand.
    """

    trace_id: str
    label: str | None
    verdict: Verdict
    match: MatchResult
    final_state: int | None

    @property
    def match_percentage(self) -> Fraction:
        """The exact percentage, a Fraction built when read."""
        from fractions import Fraction

        return Fraction(*_percent_pair(self))

    @property
    def percent_display(self) -> str:
        return _format_pair(*_percent_pair(self))

    @property
    def denominator_weight(self) -> int | None:
        """final_state's weight from the initial state; None when benign."""
        final = self.final_state
        return None if final is None else self.match.model._tables[2][final]

    @property
    def denominator_path(self) -> tuple[Transition, ...] | None:
        """The forward edges from the initial state to final_state; None when benign."""
        final = self.final_state
        return None if final is None else self.match.model.path_from_initial(final)

    @property
    def forward_path(self) -> tuple[Transition, ...] | None:
        """denominator_path from the walk's end state on, never a self-loop; None when benign."""
        path = self.denominator_path
        return None if path is None else path[_split(path, self.match.end_state, self.final_state):]


def match_prefix(dfa: BehaviorDfa, trace: BehaviorTrace) -> MatchResult:
    """Walk the trace from the initial state until divergence or a final.

    Single-behavior steps follow the one defined transition if any. For a
    multi-behavior step, the matching behavior with the largest transition
    weight wins, ties broken by smallest behavior id. The walk keeps only
    its state: in a trie the edges it took are the path to that state, so
    the result reads them, and their weight, off the model when asked.
    Each step adds the offset its out-table entry holds to the state;
    an offset of 0 is a self-loop, which consumes a step and adds no edge. A self-loop leaves the
    state as it was, so the steps after it that are the same object (the
    readers share one tuple per distinct step of a stream, and always
    within a run) are consumed with no lookup: a run costs one lookup
    however long it is. Equal but distinct step tuples take the lookup,
    with the same result.
    """
    out = dfa._tables[0]
    finals = dfa.finals
    steps = trace.steps
    count = len(steps)
    state = 0
    consumed = 0
    diverged = False
    reached = state in finals
    if not reached:
        while consumed < count:
            step = steps[consumed]
            if len(step) == 1:
                edge = out[state].get(step[0])
            else:
                edges = out[state]
                edge = chosen = None
                for behavior in step:
                    candidate = edges.get(behavior)
                    if candidate is None:
                        continue
                    # Largest weight wins; the lower behavior id settles ties.
                    if edge is None or candidate[1] > edge[1] or (
                        candidate[1] == edge[1] and behavior < chosen
                    ):
                        edge, chosen = candidate, behavior
            if edge is None:
                diverged = True
                break
            consumed += 1
            offset = edge[0]
            if not offset:
                # Offset 0 is a self-loop: it leaves the state and its out
                # table as they were, so each following step that is this
                # same object takes the same loop again.
                while consumed < count and steps[consumed] is step:
                    consumed += 1
                continue
            state += offset
            if state in finals:
                reached = True
                break
    return _new(MatchResult, (state, consumed, diverged, reached, dfa))


def nearest_final(dfa: BehaviorDfa, from_state: int) -> int:
    """The id of the final state ahead of `from_state` with minimum path weight.

    A lookup in the model's per-state tables, which hold for every state
    its nearest final, the final below it with the least weight from the
    initial state; self-loops only add cost and are never taken. Ties
    between equally cheap finals go to the smallest state id, and a final
    is its own nearest. The denominator covers the whole initial-to-final
    path, so it is that final's weight from the initial state, and its
    path is model.path_from_initial(final). The model's index refuses a
    model that validate() flags, so every state has a final ahead.
    """
    if not 0 <= from_state < dfa.state_count:
        raise ValueError(f"state {from_state} outside 0..{dfa.state_count - 1}")
    return dfa._tables[3][from_state]


def match_percentage(matched_weight: int, denominator_weight: int) -> Fraction:
    """Exact percentage 100 * matched / denominator."""
    from fractions import Fraction

    if denominator_weight < 1 or not 0 <= matched_weight <= denominator_weight:
        raise InternalInvariantError(
            f"match percentage needs 0 <= matched <= denominator and denominator >= 1, "
            f"got matched={matched_weight} denominator={denominator_weight}"
        )
    return Fraction(100 * matched_weight, denominator_weight)


def _percent_pair(item: Classification) -> tuple[int, int]:
    """The item's exact percentage as the pair (numerator, denominator) in lowest terms."""
    verdict = item.verdict
    if verdict is _PARTIAL:
        num, den = 100 * item.match.matched_weight, item.denominator_weight
        common = gcd(num, den)
        return num // common, den // common
    return (100, 1) if verdict is _MALIGN else (0, 1)


def _format_pair(num: int, den: int) -> str:
    """num / den in decimal with up to two fractional digits, zeros trimmed.

    Rounds to the nearest hundredth, a halfway value to the even one, in
    integer arithmetic.
    """
    hundredths, rest = divmod(100 * num, den)
    if 2 * rest > den or (2 * rest == den and hundredths % 2):
        hundredths += 1
    whole, frac = divmod(hundredths, 100)
    if frac == 0:
        return str(whole)
    if frac % 10 == 0:
        return f"{whole}.{frac // 10}"
    return f"{whole}.{frac:02d}"


def classify(dfa: BehaviorDfa, trace: BehaviorTrace) -> Classification:
    """Three-way verdict for one trace.

    Reaching a final state is malign at 100%. A walk that matched nothing
    is benign at 0%. Anything in between is partially malign, scored
    against the nearest final state ahead of where the walk ended. No path
    and no percentage is built here: the result derives both on demand.
    """
    match = match_prefix(dfa, trace)
    end = match.end_state
    if match.reached_final:
        verdict = _MALIGN
    elif end:  # weights are positive, so only a walk that stayed at state 0 matched nothing
        verdict = _PARTIAL
    else:
        return _new(Classification, (trace.trace_id, trace.label, _BENIGN, match, None))
    return _new(
        Classification, (trace.trace_id, trace.label, verdict, match, nearest_final(dfa, end))
    )


def classify_stream(
    dfa: BehaviorDfa,
    items: Iterable[Union[BehaviorTrace, RecordError]],
) -> Iterator[Union[Classification, RecordError]]:
    """Classify a stream of parsed traces, passing record errors through.

    Lazy: each item is classified as it arrives and none is kept, so
    classification holds one trace at a time. The parse_traces and
    scan_traces readers do keep the set of every trace id seen, to reject
    duplicates, so a whole batch costs O(distinct ids) memory, plus one
    capped memo of shared steps. Output order equals input order.
    """
    for item in items:
        if isinstance(item, RecordError):
            yield item
        else:
            yield classify(dfa, item)


class BatchSummary:
    """Running partial-match histogram and label cross-table, whose rows sum to the counts.

    The histogram is kept by each partial's exact percentage as its reduced
    (numerator, denominator) pair; the histogram property reads it out as
    a new dict keyed by Fraction.
    """

    def __init__(self):
        self.record_errors = 0
        self._histogram: dict[tuple[int, int], int] = {}
        self._cross: dict[str, dict[Verdict, int]] = {}
        self._any_label = False

    def add(self, item: Union[Classification, RecordError]) -> None:
        if isinstance(item, RecordError):
            self.record_errors += 1
            return
        verdict = item.verdict
        if verdict is _PARTIAL:
            key = _percent_pair(item)
            self._histogram[key] = self._histogram.get(key, 0) + 1
        if item.label is not None:
            self._any_label = True
        label = item.label or "unlabeled"
        row = self._cross.get(label)
        if row is None:
            row = self._cross[label] = {v: 0 for v in Verdict}
        row[verdict] += 1

    @property
    def histogram(self) -> dict[Fraction, int]:
        """Partial matches per exact percentage, a new dict keyed by Fraction."""
        from fractions import Fraction

        return {Fraction(*key): count for key, count in self._histogram.items()}

    @property
    def counts(self) -> dict[Verdict, int]:
        """Items per verdict, a new dict summed from the cross-table rows."""
        return {v: sum(row[v] for row in self._cross.values()) for v in Verdict}

    @property
    def cross_table(self) -> dict[str, dict[Verdict, int]] | None:
        """Label-versus-verdict counts, new rows each read; None when no input carried a label."""
        return {key: dict(row) for key, row in self._cross.items()} if self._any_label else None

    def summary_line(self) -> str:
        counts = self.counts
        line = (
            f"malign:{counts[Verdict.MALIGN]} "
            f"partial:{counts[Verdict.PARTIALLY_MALIGN]} "
            f"benign:{counts[Verdict.BENIGN]}"
        )
        if self.record_errors:
            line += f" errors:{self.record_errors}"
        return line

    def as_dict(self) -> dict:
        # Keys are distinct, so sorting them alone gives the items' order.
        histogram = self._histogram
        order = sorted(histogram, key=_BY_VALUE)
        counts = self.counts
        doc = {
            "counts": {
                "malign": counts[Verdict.MALIGN],
                "partially_malign": counts[Verdict.PARTIALLY_MALIGN],
                "benign": counts[Verdict.BENIGN],
            },
            "record_errors": self.record_errors,
            "histogram": {_pair_key(*pair): histogram[pair] for pair in order},
        }
        if self._any_label:
            doc["label_cross_table"] = {
                label: {v.value: row[v] for v in Verdict}
                for label, row in sorted(self._cross.items())
            }
        return doc


# Orders (numerator, denominator) pairs, denominators positive, by their exact value.
_BY_VALUE = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _pair_key(num: int, den: int) -> str:
    # Exact rationals stay distinct even when two of them would round to
    # the same two-digit decimal.
    if 100 * num % den == 0:
        return _format_pair(num, den)
    return f"{num}/{den}"


def _path(item: Classification) -> tuple[tuple[Transition, ...], int]:
    """The path to the final scored against (else the end), and how many of its edges matched."""
    match, final = item.match, item.final_state
    end = match.end_state
    top = end if final is None else final  # state 0 may be final: only None means benign
    path = match.model.path_from_initial(top)
    return path, _split(path, end, top)


def classification_record(item: Classification) -> dict:
    """JSON-ready record for one classified trace; JsonReportWriter writes it from a template."""
    num, den = _percent_pair(item)
    path, matched = _path(item)
    ids = [t[1] for t in path]
    final = item.final_state
    return {
        "id": item.trace_id,
        "label": item.label,
        "verdict": item.verdict._value_,
        "match_percentage": _format_pair(num, den),
        "match_fraction": {"num": num, "den": den},
        "end_state": item.match.end_state,
        "matched_behaviors": ids[:matched],
        "nearest_final_state": final,
        "denominator_path_behaviors": None if final is None else ids,
    }


# JsonReportWriter's lines. Strings go in through the encoder that json.dumps uses, and a
# list of int ids as their str()s joined by ", ", which is the text json.dumps writes for it.
_RECORD = (
    '{"id": %s, "label": %s, "verdict": "%s", "match_percentage": "%s", '
    '"match_fraction": {"num": %d, "den": %d}, "end_state": %d, "matched_behaviors": [%s], '
    '"nearest_final_state": %s, "denominator_path_behaviors": %s}\n'
)
_ERROR_RECORD = '{"error": %s, "line": %d}\n'


class _IdText(dict):
    """Behavior id -> its str(), each made on the id's first read."""

    def __missing__(self, behavior: int) -> str:
        text = self[behavior] = str(behavior)
        return text


class JsonReportWriter:
    """Line-delimited JSON report: one record per trace, then a summary object.

    Each record is written from one template, byte for byte the line that
    json.dumps(classification_record(item), ensure_ascii=True) gives.
    """

    def __init__(self, out: IO[str]):
        self._out = out
        self._id_text = _IdText()  # an id is turned into text once per writer

    def record(self, item: Union[Classification, RecordError]) -> None:
        if isinstance(item, RecordError):
            self._out.write(_ERROR_RECORD % (_quoted(item.reason), item.line))
            return
        path, matched = _path(item)
        id_text = self._id_text
        texts = [id_text[t[1]] for t in path]
        path_text = ", ".join(texts)
        final, label = item.final_state, item.label
        num, den = _percent_pair(item)
        self._out.write(
            _RECORD
            % (
                _quoted(item.trace_id),
                "null" if label is None else _quoted(label),
                item.verdict._value_,
                _format_pair(num, den),
                num,
                den,
                item.match.end_state,
                path_text if matched == len(texts) else ", ".join(texts[:matched]),
                "null" if final is None else final,
                "null" if final is None else f"[{path_text}]",
            )
        )

    def finish(self, summary: BatchSummary) -> None:
        self._out.write(json.dumps({"summary": summary.as_dict()}, ensure_ascii=True) + "\n")


class CsvReportWriter:
    """CSV summary: id, verdict, percentage, label. Record errors are not rows."""

    def __init__(self, out: IO[str]):
        import csv  # only CSV reports need it

        self._writer = csv.writer(out, lineterminator="\n")
        self._writer.writerow(["id", "verdict", "percentage", "label"])

    def record(self, item: Union[Classification, RecordError]) -> None:
        if isinstance(item, RecordError):
            return
        self._writer.writerow(
            [item.trace_id, item.verdict._value_, item.percent_display, item.label or ""]
        )

    def finish(self, summary: BatchSummary) -> None:
        pass

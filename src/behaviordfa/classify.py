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
on a self-loop, and its weight. classify() builds no path: the
explanation fields of a result (matched_transitions, matched_weight,
forward_path, denominator_path) are read off the model's tables when a
caller reads them, each path by one walk up the model's parent links. Results are named tuples that
carry the model, immutable and compared by their public fields.
Self-loop traversals consume input but add no weight on either side of
the ratio, so a behavior repeated eight times scores the same as one
repeated twice. Percentages are exact rationals end to end; decimal
strings appear only at the output boundary.
"""

from __future__ import annotations

import enum
import json
from fractions import Fraction
from operator import attrgetter
from typing import IO, Iterable, Iterator, NamedTuple, Union

from .dfa import BehaviorDfa, Transition
from .errors import InternalInvariantError, NoFinalReachableError
from .ingest import BehaviorTrace, RecordError


class Verdict(enum.Enum):
    BENIGN = "benign"
    PARTIALLY_MALIGN = "partially_malign"
    MALIGN = "malign"


def _compared_by(*fields: str):
    """Give a result tuple the equality, hash and repr of its public fields.

    The tuple also holds the model its explanation fields are read from,
    so two results are equal when every public field is, whichever model
    object they came from, as two frozen dataclasses of those fields are.
    """

    def decorate(cls):
        values = attrgetter(*fields)

        def __eq__(self, other):
            return values(self) == values(other) if type(other) is type(self) else NotImplemented

        def __ne__(self, other):
            return values(self) != values(other) if type(other) is type(self) else NotImplemented

        def __repr__(self):
            shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
            return f"{cls.__name__}({shown})"

        cls.__eq__, cls.__ne__, cls.__repr__ = __eq__, __ne__, __repr__
        cls.__hash__ = lambda self: hash(values(self))
        return cls

    return decorate


@_compared_by(
    "end_state", "matched_transitions", "matched_weight", "consumed_steps", "diverged", "reached_final"
)
class MatchResult(NamedTuple):
    """Where a prefix walk ended; its path and weight are read off the model on demand."""

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


@_compared_by("final_state", "forward_path", "denominator_path", "denominator_weight")
class NearestFinal(NamedTuple):
    """The cheapest final state ahead of from_state; paths are read off the model on demand.

    forward_path runs from from_state down to final_state, and
    denominator_path from the initial state all the way to the final: the
    path to from_state plus forward_path, both read up parent links.
    """

    final_state: int
    denominator_weight: int
    from_state: int
    model: BehaviorDfa

    @property
    def forward_path(self) -> tuple[Transition, ...]:
        """The forward edges from from_state to final_state, never a self-loop."""
        return self.model._path(self.from_state, self.final_state)

    @property
    def denominator_path(self) -> tuple[Transition, ...]:
        return self.model.path_from_initial(self.from_state) + self.forward_path


class Classification(NamedTuple):
    """Verdict plus the full explanation payload for one trace."""

    trace_id: str
    label: str | None
    verdict: Verdict
    match_percentage: Fraction
    match: MatchResult
    nearest: NearestFinal | None

    @property
    def percent_display(self) -> str:
        return format_percent(self.match_percentage)


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
    # tuple.__new__ skips the named tuple's Python-level constructor.
    return tuple.__new__(MatchResult, (state, consumed, diverged, reached, dfa))


def nearest_final(dfa: BehaviorDfa, from_state: int) -> NearestFinal:
    """Find the final state ahead of `from_state` with minimum path weight.

    A lookup in the model's per-state tables, which hold for every state
    its nearest final, the final below it with the least weight from the
    initial state; self-loops only add cost and are never taken. Ties
    between equally cheap finals go to the smallest state id. The returned
    denominator covers the whole initial-to-final path, so it is that
    final's weight from the initial state. The paths are only built when
    the result's path fields are read.
    Raises NoFinalReachableError when no final is ahead.
    """
    if not 0 <= from_state < dfa.state_count:
        raise ValueError(f"state {from_state} outside 0..{dfa.state_count - 1}")
    _, _, prefix, nearest = dfa._tables
    final = nearest[from_state]
    if final is None:
        raise NoFinalReachableError(f"no final state is reachable from state {from_state}")
    return tuple.__new__(NearestFinal, (final, prefix[final], from_state, dfa))


def match_percentage(matched_weight: int, denominator_weight: int) -> Fraction:
    """Exact percentage 100 * matched / denominator."""
    if denominator_weight < 1 or not 0 <= matched_weight <= denominator_weight:
        raise InternalInvariantError(
            f"match percentage needs 0 <= matched <= denominator and denominator >= 1, "
            f"got matched={matched_weight} denominator={denominator_weight}"
        )
    return Fraction(100 * matched_weight, denominator_weight)


def format_percent(value: Fraction) -> str:
    """Decimal rendering with up to two fractional digits, zeros trimmed.

    Rounds to the nearest hundredth, a halfway value to the even one, in
    integer arithmetic.
    """
    den = value.denominator
    hundredths, rest = divmod(100 * value.numerator, den)
    if 2 * rest > den or (2 * rest == den and hundredths % 2):
        hundredths += 1
    whole, frac = divmod(hundredths, 100)
    if frac == 0:
        return str(whole)
    if frac % 10 == 0:
        return f"{whole}.{frac // 10}"
    return f"{whole}.{frac:02d}"


_HUNDRED = Fraction(100)
_ZERO = Fraction(0)


def classify(dfa: BehaviorDfa, trace: BehaviorTrace) -> Classification:
    """Three-way verdict for one trace.

    Reaching a final state is malign at 100%. A walk that matched nothing
    is benign at 0%. Anything in between is partially malign, scored
    against the nearest final state ahead of where the walk ended. No path
    is built here: the explanation fields read them off the model on demand.
    """
    match = match_prefix(dfa, trace)
    if match.reached_final:
        nearest = nearest_final(dfa, match.end_state)
        return tuple.__new__(
            Classification, (trace.trace_id, trace.label, Verdict.MALIGN, _HUNDRED, match, nearest)
        )
    matched_weight = match.matched_weight
    if matched_weight == 0:
        return tuple.__new__(
            Classification, (trace.trace_id, trace.label, Verdict.BENIGN, _ZERO, match, None)
        )
    nearest = nearest_final(dfa, match.end_state)
    percentage = match_percentage(matched_weight, nearest.denominator_weight)
    return tuple.__new__(
        Classification,
        (trace.trace_id, trace.label, Verdict.PARTIALLY_MALIGN, percentage, match, nearest),
    )


def classify_stream(
    dfa: BehaviorDfa,
    items: Iterable[Union[BehaviorTrace, RecordError]],
) -> Iterator[Union[Classification, RecordError]]:
    """Classify a stream of parsed traces, passing record errors through.

    Lazy: each item is classified as it arrives and none is kept, so
    classification holds one trace at a time. The parse_traces and
    scan_traces readers do keep the set of every trace id seen, to reject
    duplicates, so a whole batch costs O(distinct ids) memory, plus the
    steps they share, which are capped. Output order equals input order.
    """
    for item in items:
        if isinstance(item, RecordError):
            yield item
        else:
            yield classify(dfa, item)


class BatchSummary:
    """Running verdict counts, partial-match histogram and label cross-table."""

    def __init__(self):
        self.counts: dict[Verdict, int] = {v: 0 for v in Verdict}
        self.record_errors = 0
        self.histogram: dict[Fraction, int] = {}
        self._cross: dict[str, dict[Verdict, int]] = {}
        self._any_label = False

    def add(self, item: Union[Classification, RecordError]) -> None:
        if isinstance(item, RecordError):
            self.record_errors += 1
            return
        self.counts[item.verdict] += 1
        if item.verdict is Verdict.PARTIALLY_MALIGN:
            key = item.match_percentage
            self.histogram[key] = self.histogram.get(key, 0) + 1
        if item.label is not None:
            self._any_label = True
        label = item.label or "unlabeled"
        row = self._cross.get(label)
        if row is None:
            row = self._cross[label] = {v: 0 for v in Verdict}
        row[item.verdict] += 1

    @property
    def cross_table(self) -> dict[str, dict[Verdict, int]] | None:
        """Label-versus-verdict counts; None when no input carried a label."""
        return self._cross if self._any_label else None

    def summary_line(self) -> str:
        line = (
            f"malign:{self.counts[Verdict.MALIGN]} "
            f"partial:{self.counts[Verdict.PARTIALLY_MALIGN]} "
            f"benign:{self.counts[Verdict.BENIGN]}"
        )
        if self.record_errors:
            line += f" errors:{self.record_errors}"
        return line

    def as_dict(self) -> dict:
        doc = {
            "counts": {
                "malign": self.counts[Verdict.MALIGN],
                "partially_malign": self.counts[Verdict.PARTIALLY_MALIGN],
                "benign": self.counts[Verdict.BENIGN],
            },
            "record_errors": self.record_errors,
            # Keys are distinct, so sorting them alone gives the items' order.
            "histogram": {_percent_key(p): self.histogram[p] for p in sorted(self.histogram)},
        }
        if self.cross_table is not None:
            doc["label_cross_table"] = {
                label: {v.value: row[v] for v in Verdict}
                for label, row in sorted(self._cross.items())
            }
        return doc


def _percent_key(value: Fraction) -> str:
    # Exact rationals stay distinct even when two of them would round to
    # the same two-digit decimal.
    if 100 * value.numerator % value.denominator == 0:
        return format_percent(value)
    return f"{value.numerator}/{value.denominator}"


def classification_record(item: Classification) -> dict:
    """JSON-ready record for one classified trace."""
    pct = item.match_percentage
    matched = [t.behavior for t in item.match.matched_transitions]
    nearest = item.nearest
    return {
        "id": item.trace_id,
        "label": item.label,
        "verdict": item.verdict.value,
        "match_percentage": format_percent(pct),
        "match_fraction": {"num": pct.numerator, "den": pct.denominator},
        "end_state": item.match.end_state,
        "matched_behaviors": matched,
        "nearest_final_state": nearest.final_state if nearest else None,
        # The denominator path is the matched path carried on to the nearest final.
        "denominator_path_behaviors": (
            matched + [t.behavior for t in nearest.forward_path] if nearest else None
        ),
    }


class JsonReportWriter:
    """Line-delimited JSON report: one record per trace, then a summary object."""

    def __init__(self, out: IO[str]):
        self._out = out

    def record(self, item: Union[Classification, RecordError]) -> None:
        if isinstance(item, RecordError):
            doc = {"error": item.reason, "line": item.line}
        else:
            doc = classification_record(item)
        self._out.write(json.dumps(doc, ensure_ascii=True) + "\n")

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
            [item.trace_id, item.verdict.value, item.percent_display, item.label or ""]
        )

    def finish(self, summary: BatchSummary) -> None:
        pass

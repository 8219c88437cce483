"""Trace classification against a behavior automaton.

A trace is matched as a prefix walk from the initial state. Divergence is
the first step with no usable transition; entering a final state flags the
trace immediately, trailing input notwithstanding. For a non-final end
state the match percentage compares the weight collected along the walk
with the weight of the cheapest initial-to-final path extending it:

    percentage = 100 * matched_weight / weight_to_nearest_final

The model is a trie, so the walk's edges are the unique path to its end
state and the denominator is a lookup: the model derives once, per
state, the weight from the initial state and the cost of the cheapest
final ahead. Self-loop traversals consume input but add no weight on
either side of the ratio, so a behavior repeated eight times scores the
same as one repeated twice. Percentages are exact rationals end to end; decimal
strings appear only at the output boundary.
"""

from __future__ import annotations

import csv
import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Iterator, Union

from .dfa import BehaviorDfa, Transition
from .errors import InternalInvariantError, NoFinalReachableError
from .ingest import BehaviorTrace, RecordError


class Verdict(enum.Enum):
    BENIGN = "benign"
    PARTIALLY_MALIGN = "partially_malign"
    MALIGN = "malign"


@dataclass(frozen=True)
class MatchResult:
    """Where a prefix walk ended and what it collected on the way."""

    end_state: int
    matched_transitions: tuple[Transition, ...]
    matched_weight: int
    consumed_steps: int
    diverged: bool
    reached_final: bool


@dataclass(frozen=True)
class NearestFinal:
    """The cheapest final state ahead of a given state.

    denominator_path runs from the initial state all the way to the final;
    under trie construction it is the matched path plus forward_path.
    """

    final_state: int
    forward_path: tuple[Transition, ...]
    denominator_path: tuple[Transition, ...]
    denominator_weight: int


@dataclass(frozen=True)
class Classification:
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
    weight wins, ties broken by smallest behavior id. Self-loops are taken
    without being recorded; matched_transitions holds the forward path
    edges in traversal order. None repeats, since forward edges always
    lead to a higher state id.
    """
    state = dfa.initial
    matched: list[Transition] = []
    weight = 0
    consumed = 0
    diverged = False
    reached = state in dfa.finals
    for step in trace.steps:
        if reached:
            break
        transition = _choose_transition(dfa, state, step)
        if transition is None:
            diverged = True
            break
        consumed += 1
        target = transition.target
        if target != state:  # a self-loop consumes the step but is not recorded
            matched.append(transition)
            weight += transition.weight
        state = target
        if state in dfa.finals:
            reached = True
    return MatchResult(
        end_state=state,
        matched_transitions=tuple(matched),
        matched_weight=weight,
        consumed_steps=consumed,
        diverged=diverged,
        reached_final=reached,
    )


def _choose_transition(dfa, state, behaviors):
    candidates = [t for t in (dfa.step(state, b) for b in behaviors) if t is not None]
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]
    # Largest weight wins; the lower behavior id settles ties.
    return min(candidates, key=lambda t: (-t.weight, t.behavior))


def nearest_final(dfa: BehaviorDfa, from_state: int) -> NearestFinal:
    """Find the final state ahead of `from_state` with minimum path weight.

    A lookup in the model's per-state tables, which hold for every state
    the cost of its cheapest final ahead and the first forward transition
    toward it; self-loops only add cost and are never taken. Ties between
    equally cheap finals go to the smallest state id. The returned
    denominator covers the whole initial-to-final path: the weight from
    the initial state to `from_state` plus the forward cost.
    Raises NoFinalReachableError when no final is ahead.
    """
    if not 0 <= from_state < dfa.state_count:
        raise ValueError(f"state {from_state} outside 0..{dfa.state_count - 1}")
    _, prefix, nearest = dfa._tables
    if nearest[from_state] is None:
        raise NoFinalReachableError(f"no final state is reachable from state {from_state}")
    cost, final, t = nearest[from_state]
    forward: list[Transition] = []
    while t is not None:
        forward.append(t)
        t = nearest[t.target][2]
    return NearestFinal(
        final_state=final,
        forward_path=tuple(forward),
        denominator_path=dfa.path_from_initial(from_state) + tuple(forward),
        denominator_weight=prefix[from_state] + cost,
    )


def match_percentage(matched_weight: int, denominator_weight: int) -> Fraction:
    """Exact percentage 100 * matched / denominator."""
    if denominator_weight < 1 or not 0 <= matched_weight <= denominator_weight:
        raise InternalInvariantError(
            f"match percentage needs 0 <= matched <= denominator and denominator >= 1, "
            f"got matched={matched_weight} denominator={denominator_weight}"
        )
    return Fraction(100 * matched_weight, denominator_weight)


def format_percent(value: Fraction) -> str:
    """Decimal rendering with up to two fractional digits, zeros trimmed."""
    hundredths = round(Fraction(value) * 100)
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
    against the nearest final state ahead of where the walk ended.
    """
    match = match_prefix(dfa, trace)
    if match.reached_final:
        return Classification(
            trace_id=trace.trace_id,
            label=trace.label,
            verdict=Verdict.MALIGN,
            match_percentage=Fraction(100),
            match=match,
            nearest=nearest_final(dfa, match.end_state),
        )
    if match.matched_weight == 0:
        return Classification(
            trace_id=trace.trace_id,
            label=trace.label,
            verdict=Verdict.BENIGN,
            match_percentage=Fraction(0),
            match=match,
            nearest=None,
        )
    nearest = nearest_final(dfa, match.end_state)
    return Classification(
        trace_id=trace.trace_id,
        label=trace.label,
        verdict=Verdict.PARTIALLY_MALIGN,
        match_percentage=match_percentage(match.matched_weight, nearest.denominator_weight),
        match=match,
        nearest=nearest,
    )


def classify_stream(
    dfa: BehaviorDfa,
    items: Iterable[Union[BehaviorTrace, RecordError]],
) -> Iterator[Union[Classification, RecordError]]:
    """Classify a stream of parsed traces, passing record errors through.

    Lazy: each item is classified as it arrives and none is kept, so
    classification holds one trace at a time. The parse_traces and
    scan_traces readers do keep the set of every trace id seen, to reject
    duplicates, so a whole batch costs O(distinct ids) memory. Output
    order equals input order.
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
        row = self._cross.setdefault(item.label or "unlabeled", {v: 0 for v in Verdict})
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
            "histogram": {
                _percent_key(p): n for p, n in sorted(self.histogram.items())
            },
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
    if value == Fraction(round(value * 100), 100):
        return format_percent(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass
class BatchReport:
    """All per-trace outcomes of one batch, in input order, plus the summary."""

    items: tuple[Union[Classification, RecordError], ...]
    summary: BatchSummary

    @property
    def records(self) -> tuple[Classification, ...]:
        return tuple(i for i in self.items if isinstance(i, Classification))

    @property
    def errors(self) -> tuple[RecordError, ...]:
        return tuple(i for i in self.items if isinstance(i, RecordError))


def classify_batch(
    dfa: BehaviorDfa,
    items: Iterable[Union[BehaviorTrace, RecordError]],
) -> BatchReport:
    """Classify a whole batch and aggregate the summary."""
    summary = BatchSummary()
    collected = []
    for outcome in classify_stream(dfa, items):
        summary.add(outcome)
        collected.append(outcome)
    return BatchReport(items=tuple(collected), summary=summary)


def classification_record(item: Classification) -> dict:
    """JSON-ready record for one classified trace."""
    pct = item.match_percentage
    return {
        "id": item.trace_id,
        "label": item.label,
        "verdict": item.verdict.value,
        "match_percentage": format_percent(pct),
        "match_fraction": {"num": pct.numerator, "den": pct.denominator},
        "end_state": item.match.end_state,
        "matched_behaviors": [t.behavior for t in item.match.matched_transitions],
        "nearest_final_state": item.nearest.final_state if item.nearest else None,
        "denominator_path_behaviors": (
            [t.behavior for t in item.nearest.denominator_path] if item.nearest else None
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

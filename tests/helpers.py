"""Shared test constants and constructors."""

from __future__ import annotations

from fractions import Fraction

from behaviordfa.classify import (
    BatchSummary,
    Classification,
    MatchResult,
    Verdict,
    classify_stream,
)
from behaviordfa.dfa import BehaviorDfa, Transition
from behaviordfa.ingest import BehaviorTrace

# Known-malicious seed sequences used throughout the suite. Building from
# these two yields an 11-state model with finals {6, 10}: the first branch
# runs q0..q6 on [7, 5, 1, 7, 5, 1] (weight 16) with self-loops at q3, q4
# and q6; the second runs q0, q7..q10 on [5, 1, 5, 1] (weight 10) with
# self-loops at q8 and q10.
PATTERN_A = [7, 5, 1, 1, 1, 1, 7, 7, 5, 1, 1, 1]
PATTERN_B = [5, 1, 1, 1, 5, 1, 1, 1, 1]


def make_trace(steps, trace_id="t0", label=None) -> BehaviorTrace:
    """Build a trace from a list of ints (singleton steps) and/or lists."""
    norm = tuple((s,) if isinstance(s, int) else tuple(s) for s in steps)
    return BehaviorTrace(trace_id, norm, label)


def run_batch(dfa, items):
    """The CLI's classify loop: every outcome in input order, and their summary."""
    summary = BatchSummary()
    outcomes = []
    for outcome in classify_stream(dfa, items):
        summary.add(outcome)
        outcomes.append(outcome)
    return outcomes, summary


def weighted_classification(
    matched, denominator, verdict=Verdict.PARTIALLY_MALIGN, label=None, trace_id="t"
) -> Classification:
    """A Classification whose walk matched `matched`, scored against a final of `denominator`.

    The model is a chain from state 0: an edge of weight `matched` to the
    walk's end state (none when `matched` is 0, so the walk ends at state 0),
    then one of weight `denominator - matched` to the one final (none when
    the two are equal), so a partial reads 100 * matched / denominator. A
    benign one is scored against no final.
    """
    weights = [w for w in (matched, denominator - matched) if w]
    edges = [Transition(i, 7 + i, i + 1, w) for i, w in enumerate(weights)]
    model = BehaviorDfa(len(edges) + 1, edges, {len(edges)}, "0" * 64, 1)
    end = 1 if matched else 0
    match = MatchResult(end, end, False, verdict is Verdict.MALIGN, model)
    final = None if verdict is Verdict.BENIGN else len(edges)
    return Classification(trace_id, label, verdict, match, final)


def classification_at(p: Fraction, verdict=Verdict.PARTIALLY_MALIGN, label=None) -> Classification:
    """A Classification for any percentage p in [0, 100]: a partial reads back exactly p.

    Edge weight p.numerator over denominator weight 100 * p.denominator.
    """
    return weighted_classification(p.numerator, 100 * p.denominator, verdict, label)

"""Shared test constants and constructors."""

from __future__ import annotations

from behaviordfa.classify import BatchSummary, classify_stream
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

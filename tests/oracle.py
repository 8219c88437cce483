"""Brute-force reference implementations and random-instance generators.

Everything here works on the raw transition list of a model and answers
by exhaustive enumeration, independently of the library's index
structures, per-state tables, incremental insertion and string
templates. The property and acceptance suites compare the engine
against these.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from behaviordfa.dfa import MODEL_VERSION, BehaviorDfa, Transition, _flatten_pattern
from behaviordfa.errors import InternalInvariantError, UnknownBehaviorError
from behaviordfa.ingest import compress_runs

from helpers import make_trace


def oracle_walk(dfa: BehaviorDfa, steps):
    """Replay the prefix-walk rules directly off the transition list.

    Returns (end_state, matched_behaviors, matched_weight, diverged,
    reached_final). matched_behaviors lists the labels of the distinct
    non-self-loop edges taken, in order.
    """
    transitions = list(dfa.transitions)
    state = 0
    matched = []
    matched_weight = 0
    taken = set()
    diverged = False
    reached = 0 in dfa.finals
    for step in steps:
        behaviors = (step,) if isinstance(step, int) else tuple(step)
        if reached:
            break
        candidates = [
            t for t in transitions if t.source == state and t.behavior in behaviors
        ]
        if not candidates:
            diverged = True
            break
        best = sorted(candidates, key=lambda t: (-t.weight, t.behavior))[0]
        if best.source != best.target and best not in taken:
            taken.add(best)
            matched.append(best.behavior)
            matched_weight += best.weight
        state = best.target
        if state in dfa.finals:
            reached = True
    return state, matched, matched_weight, diverged, reached


def oracle_nearest(dfa: BehaviorDfa, start):
    """Cheapest final ahead of `start` by enumerating all simple paths.

    Returns (final_state, forward_cost) or None when no final is ahead.
    Ties on cost go to the smallest final id.
    """
    transitions = list(dfa.transitions)
    best: tuple[int, int] | None = None  # (cost, final)

    def explore(state, cost, visited):
        nonlocal best
        if state in dfa.finals:
            if best is None or (cost, state) < best:
                best = (cost, state)
            return
        for t in sorted(transitions, key=lambda t: t.behavior):
            if t.source != state or t.target == t.source or t.target in visited:
                continue
            explore(t.target, cost + t.weight, visited | {t.target})

    explore(start, 0, {start})
    if best is None:
        return None
    return best[1], best[0]


def oracle_prefix_weight(dfa: BehaviorDfa, state):
    """Weight of the unique trie path from the initial state to `state`."""
    transitions = list(dfa.transitions)
    weight = 0
    current = state
    hops = 0
    while current != 0:
        incoming = [
            t for t in transitions if t.target == current and t.source != t.target
        ]
        assert len(incoming) == 1, f"state {current} has {len(incoming)} incoming edges"
        weight += incoming[0].weight
        current = incoming[0].source
        hops += 1
        assert hops <= dfa.state_count, "cycle on a supposed trie path"
    return weight


def oracle_classify(dfa: BehaviorDfa, steps):
    """Full reference verdict: (verdict_name, percentage, end_state,
    matched_weight, nearest_final_or_None, denominator_or_None)."""
    end, _, matched_weight, _, reached = oracle_walk(dfa, steps)
    if reached:
        return "malign", Fraction(100), end, matched_weight, end, None
    if matched_weight == 0:
        return "benign", Fraction(0), end, matched_weight, None, None
    found = oracle_nearest(dfa, end)
    assert found is not None, "trie models always have a final ahead"
    final, forward_cost = found
    denominator = oracle_prefix_weight(dfa, end) + forward_cost
    pct = Fraction(100 * matched_weight, denominator)
    return "partially_malign", pct, end, matched_weight, final, denominator


def oracle_grow(base: BehaviorDfa, patterns, catalog) -> BehaviorDfa:
    """`base` grown by `patterns` through a dict of every transition, copied up front."""
    transitions = {(t.source, t.behavior): t for t in base.transitions}
    finals = set(base.finals)
    count = base.state_count
    for pattern in patterns:
        state = 0
        for behavior, length in compress_runs(_flatten_pattern(pattern)):
            try:
                weight = catalog.weight_of(behavior)
            except UnknownBehaviorError:
                context = f"pattern {pattern.trace_id!r}"
                raise UnknownBehaviorError(behavior, context=context) from None
            key = (state, behavior)
            existing = transitions.get(key)
            if existing is None:
                nxt = count
                count += 1
                transitions[key] = Transition(state, behavior, nxt, weight)
            else:
                nxt = existing.target
                if nxt == state:
                    raise InternalInvariantError(
                        f"adjacent runs share behavior {behavior} at state {state}"
                    )
            if length > 1:
                loop_key = (nxt, behavior)
                if loop_key not in transitions:
                    transitions[loop_key] = Transition(nxt, behavior, nxt, weight)
            state = nxt
        finals.add(state)
    return BehaviorDfa(
        state_count=count,
        transitions=tuple(transitions.values()),
        finals=frozenset(finals),
        catalog_fingerprint=base.catalog_fingerprint,
        pattern_count=base.pattern_count + len(patterns),
    )


def oracle_serialize(dfa: BehaviorDfa) -> bytes:
    """The model file as the standard library's indenting JSON encoder writes it."""
    doc = {
        "version": MODEL_VERSION,
        "catalog_fingerprint": dfa.catalog_fingerprint,
        "pattern_count": dfa.pattern_count,
        "states": dfa.state_count,
        "finals": sorted(dfa.finals),
        "transitions": [
            {"from": t.source, "on": t.behavior, "to": t.target, "weight": t.weight}
            for t in dfa.transitions
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def random_patterns(rng: random.Random, alphabet, max_patterns=5, max_len=8):
    """Non-empty flat pattern sequences over the given alphabet."""
    n = rng.randint(1, max_patterns)
    patterns = []
    for i in range(n):
        length = rng.randint(1, max_len)
        patterns.append(
            make_trace(
                [rng.choice(alphabet) for _ in range(length)],
                trace_id=f"p{i}",
            )
        )
    return patterns


def random_trace_steps(rng: random.Random, alphabet, max_len=10, stray=(9,)):
    """Random trace steps: mostly singletons, some multi-behavior sets,
    with occasional ids the model has never seen."""
    pool = list(alphabet) + list(stray)
    steps = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.2 and len(pool) >= 2:
            size = rng.randint(2, min(3, len(pool)))
            steps.append(rng.sample(pool, size))
        else:
            steps.append(rng.choice(pool))
    return steps

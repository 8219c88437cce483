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

from behaviordfa.dfa import (
    _LISTED_ISSUES,
    _MODEL_KEYS,
    _TRANSITION_FIELDS,
    MODEL_VERSION,
    BehaviorDfa,
    Transition,
    validate,
)
from behaviordfa.errors import (
    InternalInvariantError,
    ModelFormatError,
    PatternError,
    TraceFormatError,
    UnknownBehaviorError,
    brief,
)

from helpers import hand_built, make_trace


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


def oracle_consumed(dfa: BehaviorDfa, steps) -> int:
    """How many steps the prefix walk consumes, replayed off the transition list.

    The walk stops on a final state, or before the first step with no
    transition out of its state; self-loop steps count like any other.
    """
    state = 0
    for consumed, step in enumerate(steps):
        behaviors = (step,) if isinstance(step, int) else tuple(step)
        candidates = [t for t in dfa.transitions if t.source == state and t.behavior in behaviors]
        if state in dfa.finals or not candidates:
            return consumed
        state = min(candidates, key=lambda t: (-t.weight, t.behavior)).target
    return len(steps)


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


def compress_runs(flat):
    """Collapse consecutive repeats into (behavior, count) runs.

    Maximal encoding: no two adjacent runs share a behavior, and repeating
    each behavior `count` times restores the input exactly.
    """
    runs = []
    for behavior in flat:
        if runs and runs[-1][0] == behavior:
            runs[-1] = (behavior, runs[-1][1] + 1)
        else:
            runs.append((behavior, 1))
    return runs


def flatten_pattern(pattern):
    """A pattern's behavior ids, one per step; raises PatternError as the engine words it."""
    flat = []
    for index, step in enumerate(pattern.steps):
        if len(step) != 1:
            raise PatternError(
                f"pattern {brief(pattern.trace_id)}: step {index} holds "
                f"{len(step)} behaviors; patterns must use single-behavior steps"
            )
        flat.append(step[0])
    if not flat:
        raise PatternError(f"pattern {brief(pattern.trace_id)} is empty")
    return flat


def oracle_grow(base: BehaviorDfa, patterns, catalog) -> BehaviorDfa:
    """`base` grown by `patterns` through a dict of every transition, copied up front.

    Each pattern is flattened, then compressed into runs, then walked run by run.
    """
    weights = {spec.id: spec.weight for spec in catalog.entries}
    transitions = {(t.source, t.behavior): t for t in base.transitions}
    finals = set(base.finals)
    count = base.state_count
    for pattern in patterns:
        state = 0
        for behavior, length in compress_runs(flatten_pattern(pattern)):
            if behavior not in weights:
                raise UnknownBehaviorError(behavior, context=f"pattern {pattern.trace_id!r}")
            weight = weights[behavior]
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
                    # A loop copies its entry, whose weight a file may set apart from the catalog's.
                    transitions[loop_key] = Transition(nxt, behavior, nxt, transitions[key].weight)
            state = nxt
        finals.add(state)
    pattern_count = base.pattern_count + len(patterns)
    return hand_built(count, transitions.values(), finals, base.catalog_fingerprint, pattern_count)


def oracle_steps(raw_steps, trace_id, line_no, known):
    """A record's steps checked one by one, each its own tuple; raises as the parser does.

    Per behavior: type, then repeat within the step, then the catalog
    (`known`, or None to accept any id). Every error begins `line N: `.
    """
    try:
        return _oracle_steps(raw_steps, trace_id, known)
    except (TraceFormatError, UnknownBehaviorError) as exc:
        exc.args = (f"line {line_no}: {exc}",)
        raise


def _oracle_steps(raw_steps, trace_id, known):
    steps = []
    for index, entry in enumerate(raw_steps):
        step = tuple(entry) if type(entry) is list else (entry,)
        if not step:
            raise TraceFormatError(f"trace {trace_id!r}: step {index} is empty")
        earlier = []
        for b in step:
            if type(b) is not int or b < 0:
                raise TraceFormatError(
                    f"trace {trace_id!r}: step {index} holds {b!r}, "
                    "expected a non-negative integer behavior id"
                )
            if b in earlier:
                raise TraceFormatError(f"trace {trace_id!r}: step {index} repeats behavior {b}")
            earlier.append(b)
            if known is not None and b not in known:
                raise UnknownBehaviorError(b, context=f"trace {trace_id!r}, step {index}")
        steps.append(step)
    return tuple(steps)


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


def oracle_deserialize(text: str) -> BehaviorDfa:
    """The model loader as it was before the JSON parser built the transitions.

    It parses the whole document into dicts and lists, then decodes the
    transitions entry by entry, so a value is shown exactly as the parser
    gave it. Like deserialize(), it checks only the document's JSON shape
    and leaves what the values mean to validate(). deserialize() must
    accept the same models and reject the rest with the same error.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != MODEL_VERSION:
        raise ModelFormatError(
            f"unsupported model version {version!r} (this build reads version {MODEL_VERSION})"
        )
    if set(doc) - _MODEL_KEYS:
        raise ModelFormatError(f"unexpected model keys {sorted(set(doc) - _MODEL_KEYS)}")
    if _MODEL_KEYS - set(doc):
        raise ModelFormatError(f"missing model keys {sorted(_MODEL_KEYS - set(doc))}")
    fingerprint = doc["catalog_fingerprint"]
    if not isinstance(fingerprint, str):
        raise ModelFormatError(
            f'"catalog_fingerprint" must be a string, got {_oracle_show(fingerprint)}'
        )
    states = _oracle_int(doc["states"], '"states"')
    pattern_count = _oracle_int(doc["pattern_count"], '"pattern_count"')
    if not isinstance(doc["finals"], list):
        raise ModelFormatError('"finals" must be an array')
    finals = [_oracle_int(f, f"finals[{i}]") for i, f in enumerate(doc["finals"])]
    raw_transitions = doc["transitions"]
    if not isinstance(raw_transitions, list):
        raise ModelFormatError('"transitions" must be an array')
    transitions = []
    for position, raw in enumerate(raw_transitions):
        if type(raw) is not dict or raw.keys() != set(_TRANSITION_FIELDS):
            raise ModelFormatError(
                f"transition {position}: expected an object with keys "
                f"{sorted(_TRANSITION_FIELDS)}, got {_oracle_show(raw)}"
            )
        fields = [_oracle_int(raw[k], f'transition {position}: "{k}"') for k in _TRANSITION_FIELDS]
        transitions.append(fields)
    dfa = hand_built(states, transitions, finals, fingerprint, pattern_count)
    issues = validate(dfa)
    if issues:
        listing = "; ".join(f"{i.kind}: {i.detail}" for i in issues[:_LISTED_ISSUES])
        if len(issues) > _LISTED_ISSUES:
            listing += f"; and {len(issues) - _LISTED_ISSUES} more"
        raise ModelFormatError(f"model violates structural invariants: {listing}")
    return dfa


def _oracle_int(value, where: str) -> int:
    if type(value) is not int:
        raise ModelFormatError(f"{where} must be an integer, got {_oracle_show(value)}")
    return value


def _oracle_show(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


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

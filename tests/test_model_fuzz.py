"""Models that only deserialize() vouches for classify as the reference does.

Every other property test builds its models with build_dfa(), so it never
meets a trie numbered in another parent-before-child order, weights that
differ from the catalog's, or finals on inner states. Here a strategy
writes such model documents by hand, then optionally corrupts one field,
the finals or the state count. Each document must either be rejected
with ModelFormatError, or classify every generated trace exactly as the
enumerating reference in oracle.py does, without any other error, and
grow by more patterns exactly as the reference grower does.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from behaviordfa.classify import Verdict, classify
from behaviordfa.dfa import _grow, add_pattern, build_dfa, deserialize
from behaviordfa.errors import EngineError, InternalInvariantError, ModelFormatError

from helpers import make_trace
from oracle import oracle_classify, oracle_grow, oracle_walk

ALPHABET = (1, 5, 7, 11)
POOL = ALPHABET + (9,)  # 9 labels no transition
FIELDS = ("from", "on", "to", "weight")

# Weights of 1..3 make equal-weight choices in grouped steps common.
weights = st.integers(1, 3)
steps = st.one_of(
    st.sampled_from(POOL),
    st.lists(st.sampled_from(POOL), min_size=2, max_size=3, unique=True),
)


@st.composite
def trie_documents(draw):
    """(model document, the behaviors of the root path to each state).

    The shape is a trie numbered in any parent-before-child order, with
    weights of its own, self-loops that repeat a state's incoming edge,
    every leaf final and any inner states final too. A collision among
    a state's outgoing behaviors is left in: deserialize must reject it.
    """
    n = draw(st.integers(1, 12))
    transitions = []
    out = {0: set()}
    paths = [()]
    for state in range(1, n):
        # Chains half the time keep the trie deep enough for partial matches.
        parent = draw(st.one_of(st.just(state - 1), st.integers(0, state - 1)))
        free = [b for b in ALPHABET if b not in out[parent]]
        behavior = draw(st.sampled_from(free or ALPHABET))
        weight = draw(weights)
        out[parent].add(behavior)
        transitions.append((parent, behavior, state, weight))
        out[state] = set()
        if draw(st.booleans()):
            transitions.append((state, behavior, state, weight))
            out[state].add(behavior)
        paths.append(paths[parent] + (behavior,))
    parents = {source for source, _, target, _ in transitions if source != target}
    finals = {s for s in range(n) if s not in parents}
    finals |= set(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    doc = {
        "version": 1,
        "catalog_fingerprint": "ab" * 32,
        "pattern_count": draw(st.integers(0, 5)),
        "states": n,
        "finals": draw(st.permutations(sorted(finals))),
        "transitions": [
            dict(zip(FIELDS, t)) for t in draw(st.permutations(transitions))
        ],
    }
    mutation = draw(st.sampled_from((None, None, "field", "finals", "states")))
    if mutation == "field" and doc["transitions"]:
        entry = draw(st.sampled_from(doc["transitions"]))
        entry[draw(st.sampled_from(FIELDS))] = draw(
            st.one_of(st.integers(-1, n + 1), st.sampled_from(("1", None, True, 1.0)))
        )
    elif mutation == "finals":
        if doc["finals"] and draw(st.booleans()):
            doc["finals"].remove(draw(st.sampled_from(doc["finals"])))
        else:
            doc["finals"].append(draw(st.integers(-1, n)))
    elif mutation == "states":
        doc["states"] = n + draw(st.sampled_from((-n, -1, 1, 2)))
    return doc, paths


@st.composite
def traces_along(draw, paths):
    """A trace down part of one root path, with repeats, extra ids in its steps and a random tail."""
    path = draw(st.sampled_from(paths))
    trace = []
    for behavior in path[: draw(st.integers(0, len(path)))]:
        extra = draw(st.lists(st.sampled_from(POOL), max_size=2, unique=True))
        step = [behavior] + [b for b in extra if b != behavior]
        trace.extend([step] * draw(st.integers(1, 3)))
    return trace + draw(st.lists(steps, max_size=3))


@settings(max_examples=200, deadline=None)
@given(trie_documents(), st.data())
def test_an_accepted_model_classifies_as_the_reference(document, data):
    doc, paths = document
    try:
        dfa = deserialize(json.dumps(doc))
    except ModelFormatError:
        return
    traces = data.draw(
        st.lists(st.one_of(traces_along(paths), st.lists(steps, max_size=8)), min_size=1, max_size=6)
    )
    for trace in traces:
        outcome = classify(dfa, make_trace(trace))
        verdict, pct, end, matched_weight, final, denominator = oracle_classify(dfa, trace)
        _, matched, _, diverged, reached = oracle_walk(dfa, trace)
        assert outcome.verdict.value == verdict
        assert outcome.match_percentage == pct
        assert outcome.match.end_state == end
        assert outcome.match.matched_weight == matched_weight
        assert [t.behavior for t in outcome.match.matched_transitions] == matched
        assert (outcome.match.diverged, outcome.match.reached_final) == (diverged, reached)
        if outcome.verdict is Verdict.PARTIALLY_MALIGN:
            near = outcome.nearest
            assert (near.final_state, near.denominator_weight) == (final, denominator)
            assert sum(t.weight for t in near.denominator_path) == denominator
            assert near.denominator_path[-1].target == final
            assert near.denominator_path[: len(matched)] == outcome.match.matched_transitions


# Pattern steps are mostly the alphabet, sometimes an id outside the
# catalog or a grouped step, and a pattern may be empty: a bad pattern
# must fail with the same error in both growers.
pattern_steps = st.one_of(
    st.sampled_from(ALPHABET),
    st.sampled_from(ALPHABET),
    st.sampled_from(ALPHABET),
    st.just(999),
    st.lists(st.sampled_from(ALPHABET), min_size=2, max_size=2, unique=True),
)
pattern_bodies = st.lists(
    st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8), min_size=1, max_size=3
)


@st.composite
def patterns_along(draw, paths):
    """A pattern down all or part of one root path, each step repeated 1-3 times, then a tail."""
    path = draw(st.sampled_from(paths))
    pattern = []
    for behavior in path[: draw(st.one_of(st.just(len(path)), st.integers(0, len(path))))]:
        pattern += [behavior] * draw(st.integers(1, 3))
    return pattern + draw(st.lists(pattern_steps, max_size=3))


def _outcome(grow):
    """The grown model's contents, or the type and message of what growing raised."""
    try:
        dfa = grow()
    except (EngineError, InternalInvariantError) as exc:
        return type(exc), str(exc)
    return dfa.state_count, dfa.transitions, dfa.finals, dfa.pattern_count


@settings(max_examples=300, deadline=None)
@given(st.one_of(trie_documents(), pattern_bodies), st.data())
def test_growing_a_model_matches_the_reference(catalog, base, data):
    if isinstance(base, tuple):  # a hand-shaped document, stamped with the catalog's fingerprint
        doc, paths = base
        try:
            dfa = deserialize(json.dumps(dict(doc, catalog_fingerprint=catalog.fingerprint())))
        except ModelFormatError:
            return
    else:
        paths = base
        patterns = [make_trace(body, trace_id=f"p{i}") for i, body in enumerate(base)]
        dfa = build_dfa(patterns, catalog)
    extras = data.draw(
        st.lists(
            st.one_of(patterns_along(paths), st.lists(pattern_steps, max_size=8)),
            min_size=1,
            max_size=4,
        )
    )
    patterns = [make_trace(steps, trace_id=f"x{i}") for i, steps in enumerate(extras)]
    expected = _outcome(lambda: oracle_grow(dfa, patterns, catalog))
    assert _outcome(lambda: _grow(dfa, patterns, catalog)) == expected

    def one_at_a_time():
        grown = dfa
        for pattern in patterns:
            grown = add_pattern(grown, pattern, catalog)
        return grown

    assert _outcome(one_at_a_time) == expected

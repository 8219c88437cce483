"""Models that only deserialize() vouches for classify as the reference does.

Every other property test builds its models with build_dfa(), so it never
meets a trie numbered in another parent-before-child order, weights that
differ from the catalog's, or finals on inner states. Here a strategy
writes such model documents by hand, then optionally corrupts one field,
the finals or the state count. Each document must either be rejected
with ModelFormatError, or classify every generated trace exactly as the
enumerating reference in oracle.py does, without any other error.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from behaviordfa.classify import Verdict, classify
from behaviordfa.dfa import deserialize
from behaviordfa.errors import ModelFormatError

from helpers import make_trace
from oracle import oracle_classify, oracle_walk

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

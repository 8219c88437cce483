from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behaviordfa.classify import Verdict, classify, match_prefix, nearest_final
from behaviordfa.dfa import (
    BehaviorDfa,
    Transition,
    add_pattern,
    build_dfa,
    deserialize,
    serialize,
    validate,
)

from helpers import make_trace
from oracle import oracle_classify, oracle_nearest, oracle_prefix_weight, oracle_serialize

# Four behaviors with two distinct weights (2, 3, 3, 5) keep the grouped-step
# preference rule and the tie-break both exercised.
ALPHABET = [1, 5, 7, 11]

pattern_bodies = st.lists(
    st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8),
    min_size=1,
    max_size=5,
)

trace_steps = st.lists(
    st.one_of(
        st.sampled_from(ALPHABET + [9]),
        st.lists(st.sampled_from(ALPHABET + [9]), min_size=2, max_size=3, unique=True),
    ),
    max_size=10,
)


def build_from(bodies, catalog):
    return build_dfa(
        [make_trace(body, trace_id=f"p{i}") for i, body in enumerate(bodies)], catalog
    )


@given(pattern_bodies)
def test_construction_is_deterministic(catalog, bodies):
    dfa = build_from(bodies, catalog)
    keys = [(t.source, t.behavior) for t in dfa.transitions]
    assert len(keys) == len(set(keys))


@given(pattern_bodies)
def test_built_models_pass_validation(catalog, bodies):
    assert validate(build_from(bodies, catalog)) == []


@given(pattern_bodies)
def test_every_build_pattern_classifies_malign_at_100(catalog, bodies):
    dfa = build_from(bodies, catalog)
    for body in bodies:
        outcome = classify(dfa, make_trace(body))
        assert outcome.verdict is Verdict.MALIGN
        assert outcome.match_percentage == Fraction(100)


@given(pattern_bodies, st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8))
def test_adding_a_pattern_never_removes_anything(catalog, bodies, extra):
    base = build_from(bodies, catalog)
    grown = add_pattern(base, make_trace(extra, trace_id="extra"), catalog)
    assert set(base.transitions) <= set(grown.transitions)
    assert base.finals <= grown.finals
    assert base.state_count <= grown.state_count


@given(pattern_bodies, st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8))
def test_add_pattern_matches_a_full_rebuild(catalog, bodies, extra):
    base = build_from(bodies, catalog)
    grown = add_pattern(base, make_trace(extra, trace_id=f"p{len(bodies)}"), catalog)
    rebuilt = build_from(bodies + [extra], catalog)
    assert grown == rebuilt


@given(
    pattern_bodies,
    st.lists(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8), min_size=1, max_size=4),
)
def test_adding_patterns_one_at_a_time_matches_a_full_rebuild(catalog, bodies, extras):
    grown = build_from(bodies, catalog)
    for i, extra in enumerate(extras, start=len(bodies)):
        grown = add_pattern(grown, make_trace(extra, trace_id=f"p{i}"), catalog)
    assert grown == build_from(bodies + extras, catalog)


@given(pattern_bodies)
def test_serialize_deserialize_identity(catalog, bodies):
    dfa = build_from(bodies, catalog)
    data = serialize(dfa)
    assert deserialize(data) == dfa
    assert serialize(deserialize(data)) == data


@given(pattern_bodies, st.lists(pattern_bodies, max_size=3))
def test_serialize_matches_the_reference_encoder(catalog, bodies, batches):
    dfa = build_from(bodies, catalog)
    assert serialize(dfa) == oracle_serialize(dfa)
    for n, batch in enumerate(batches):
        for i, body in enumerate(batch):
            dfa = add_pattern(dfa, make_trace(body, trace_id=f"a{n}.{i}"), catalog)
        assert serialize(dfa) == oracle_serialize(dfa)


@pytest.mark.parametrize(
    "dfa",
    [
        pytest.param(BehaviorDfa(1, (), frozenset(), "0" * 64, 0), id="empty"),
        pytest.param(
            BehaviorDfa(2, (Transition(0, 7, 1, 3),), frozenset(), "f" * 64, 0), id="no-finals"
        ),
        pytest.param(BehaviorDfa(1, (), frozenset({0}), "0" * 64, 7), id="no-transitions"),
        pytest.param(
            BehaviorDfa(1, (), frozenset({0}), 'quote " slash \\ tab \t é \u2028', 1),
            id="escaped-fingerprint",
        ),
    ],
)
def test_serialize_matches_the_reference_encoder_on_degenerate_models(dfa):
    assert serialize(dfa) == oracle_serialize(dfa)


@given(pattern_bodies, trace_steps)
def test_percentages_stay_within_bounds(catalog, bodies, steps):
    dfa = build_from(bodies, catalog)
    outcome = classify(dfa, make_trace(steps))
    assert Fraction(0) <= outcome.match_percentage <= Fraction(100)


@given(pattern_bodies, trace_steps, st.sampled_from(ALPHABET + [9]))
def test_appending_a_step_never_decreases_matched_weight(catalog, bodies, steps, extra):
    dfa = build_from(bodies, catalog)
    shorter = match_prefix(dfa, make_trace(steps))
    longer = match_prefix(dfa, make_trace(steps + [extra]))
    assert longer.matched_weight >= shorter.matched_weight


@given(pattern_bodies, trace_steps)
def test_matched_path_prefixes_the_denominator_path(catalog, bodies, steps):
    dfa = build_from(bodies, catalog)
    outcome = classify(dfa, make_trace(steps))
    if outcome.verdict is Verdict.PARTIALLY_MALIGN:
        matched = outcome.match.matched_transitions
        assert outcome.nearest.denominator_path[: len(matched)] == matched


@given(pattern_bodies, trace_steps)
def test_classifying_twice_gives_identical_records(catalog, bodies, steps):
    dfa = build_from(bodies, catalog)
    trace = make_trace(steps)
    assert classify(dfa, trace) == classify(dfa, trace)


@settings(max_examples=200)
@given(pattern_bodies, trace_steps)
def test_engine_agrees_with_the_enumerating_reference(catalog, bodies, steps):
    dfa = build_from(bodies, catalog)
    outcome = classify(dfa, make_trace(steps))
    verdict, pct, end, matched_weight, final, denominator = oracle_classify(dfa, steps)
    assert outcome.verdict.value == verdict
    assert outcome.match_percentage == pct
    assert outcome.match.end_state == end
    assert outcome.match.matched_weight == matched_weight
    if verdict == "partially_malign":
        assert outcome.nearest.final_state == final
        assert outcome.nearest.denominator_weight == denominator


@given(pattern_bodies)
def test_nearest_final_agrees_with_the_enumerating_reference(catalog, bodies):
    dfa = build_from(bodies, catalog)
    for state in range(dfa.state_count):
        near = nearest_final(dfa, state)
        final, cost = oracle_nearest(dfa, state)
        assert near.final_state == final
        assert sum(t.weight for t in near.forward_path) == cost
        assert near.denominator_weight == oracle_prefix_weight(dfa, state) + cost
        assert near.denominator_path == dfa.path_from_initial(near.final_state)
        here = state
        for t in near.forward_path:  # a chain of forward edges from state to the final
            assert t.source == here < t.target
            here = t.target
        assert here == near.final_state

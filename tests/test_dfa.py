from __future__ import annotations

import io
import json
import os
import random
import re
import tracemalloc
from contextlib import ExitStack
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behaviordfa.classify import classify, match_prefix, nearest_final
from behaviordfa.dfa import (
    BehaviorDfa,
    Transition,
    add_patterns,
    build_dfa,
    deserialize,
    export_dot,
    serialize,
    validate,
)
from behaviordfa.errors import (
    CatalogMismatchError,
    ModelFormatError,
    PatternError,
    UnknownBehaviorError,
)
from behaviordfa import catalog as catalog_module
from behaviordfa import dfa as dfa_module
from behaviordfa.catalog import BehaviorCatalog, BehaviorSpec

from helpers import PATTERN_A, PATTERN_B, hand_built, make_trace
from oracle import random_patterns
from test_model_bytes import _patterns as model_bytes_patterns

# The full expected transition table of the seed model, keyed by
# (source state, behavior) -> (target state, weight).
SEED_TABLE = {
    (0, 7): (1, 3),
    (1, 5): (2, 3),
    (2, 1): (3, 2),
    (3, 1): (3, 2),
    (3, 7): (4, 3),
    (4, 7): (4, 3),
    (4, 5): (5, 3),
    (5, 1): (6, 2),
    (6, 1): (6, 2),
    (0, 5): (7, 3),
    (7, 1): (8, 2),
    (8, 1): (8, 2),
    (8, 5): (9, 3),
    (9, 1): (10, 2),
    (10, 1): (10, 2),
}


def table_of(dfa: BehaviorDfa):
    return {(t.source, t.behavior): (t.target, t.weight) for t in dfa.transitions}


# Hand-built models that are no sound trie, each with the kinds of issue validate() finds.
BACK_EDGE_MID_PATH = [(0, 7, 2, 3), (2, 5, 1, 3), (1, 3, 3, 3), (3, 1, 4, 2)]
UNSOUND = {
    "edge-leaving-the-model": (hand_built(2, [(0, 1, 1, 2), (0, 2, 9, 1)], {1}), ["state-bounds"]),
    "finals-outside-the-model": (
        hand_built(3, [(0, 7, 1, 3), (1, 5, 2, 3)], {-1, 2, 3}), ["state-bounds", "state-bounds"]
    ),
    "back-edge-from-the-final": (
        hand_built(3, [(0, 7, 1, 3), (1, 5, 2, 3), (2, 1, 1, 2)], {2}), ["not-a-trie"]
    ),
    "back-edge-beside-a-forward-edge": (
        hand_built(4, [(0, 7, 1, 3), (1, 5, 2, 3), (2, 1, 1, 2), (2, 11, 3, 5)], {3}),
        ["not-a-trie"],
    ),
    "two-edges-on-one-behavior": (
        hand_built(3, [(0, 7, 2, 4), (0, 7, 1, 3)], {1, 2}), ["determinism"]
    ),
    "no-final": (hand_built(2, [(0, 7, 1, 3)], ()), ["no-finals", "no-final-ahead"]),
    "final-entered-only-by-a-back-edge": (
        hand_built(3, [(0, 7, 2, 3), (2, 5, 1, 3)], {1}),
        ["not-a-trie", "unreachable-state", "unreachable-final", "no-final-ahead"],
    ),
    "back-edge-above-the-final": (
        hand_built(5, BACK_EDGE_MID_PATH, {4}),
        ["not-a-trie", "unreachable-state", "no-final-ahead"],
    ),
    "back-edge-into-the-final": (
        hand_built(5, BACK_EDGE_MID_PATH, {1}),
        ["not-a-trie", "unreachable-state", "unreachable-final", "no-final-ahead",
         "no-final-ahead"],
    ),
    "zero-weight": (hand_built(2, [(0, 7, 1, 0)], {1}), ["bad-weight"]),
    "self-loop-on-another-behavior": (
        hand_built(2, [(0, 7, 1, 3), (1, 5, 1, 3)], {1}), ["bad-self-loop"]
    ),
}
# One-edge tries that differ only in a header field, each with the kinds validate() finds.
HEADERS = {
    **{
        f"pattern-count-{count}": (
            hand_built(2, [(0, 7, 1, 3)], {1}, pattern_count=count),
            ["bad-pattern-count"] if count < 0 else [],
        )
        for count in (-1, 0, 5)
    },
    "fingerprint-64-hex": (hand_built(2, [(0, 7, 1, 3)], {1}, "0123456789abcdef" * 4), []),
    "fingerprint-63-hex": (hand_built(2, [(0, 7, 1, 3)], {1}, "f" * 63), ["bad-fingerprint"]),
    "fingerprint-upper-case": (
        hand_built(2, [(0, 7, 1, 3)], {1}, "0123456789ABCDEF" * 4), ["bad-fingerprint"]
    ),
    "fingerprint-and-newline": (
        hand_built(2, [(0, 7, 1, 3)], {1}, "0" * 64 + "\n"), ["bad-fingerprint"]
    ),
}


class TestTransition:
    def test_a_transition_is_a_named_tuple_of_four_ints(self):
        t = Transition(3, 7, 4, 2)
        assert Transition._fields == ("source", "behavior", "target", "weight")
        assert (t.source, t.behavior, t.target, t.weight) == (3, 7, 4, 2)
        source, behavior, target, weight = t
        assert (source, behavior, target, weight) == (3, 7, 4, 2)
        assert t == Transition(source=3, behavior=7, target=4, weight=2) == (3, 7, 4, 2)
        assert hash(t) == hash(Transition(3, 7, 4, 2))
        assert t != Transition(3, 7, 4, 3)
        assert len({t, Transition(3, 7, 4, 2), Transition(4, 7, 4, 2)}) == 2
        with pytest.raises(AttributeError):
            t.weight = 5


class TestBuild:
    def test_seed_model_has_eleven_states_and_two_finals(self, seed_dfa):
        assert seed_dfa.state_count == 11
        assert seed_dfa.finals == {6, 10}

    def test_seed_model_transition_table(self, seed_dfa):
        assert table_of(seed_dfa) == SEED_TABLE
        assert len(seed_dfa.transitions) == 15

    def test_repeat_runs_become_self_loops(self, seed_dfa):
        loops = {(t.source, t.behavior) for t in seed_dfa.transitions if t.source == t.target}
        assert loops == {(3, 1), (4, 7), (6, 1), (8, 1), (10, 1)}

    def test_single_behavior_pattern(self, catalog):
        dfa = build_dfa([make_trace([7])], catalog)
        assert dfa.state_count == 2
        assert dfa.finals == {1}
        assert table_of(dfa) == {(0, 7): (1, 3)}

    def test_shared_prefix_merges_into_one_branch_point(self, catalog):
        dfa = build_dfa([make_trace([7, 5], "p0"), make_trace([7, 1], "p1")], catalog)
        assert dfa.state_count == 4
        assert dfa.finals == {2, 3}
        assert table_of(dfa) == {(0, 7): (1, 3), (1, 5): (2, 3), (1, 1): (3, 2)}
        # Exhaustive determinism check: no (source, behavior) pair repeats.
        keys = [(t.source, t.behavior) for t in dfa.transitions]
        assert len(keys) == len(set(keys))

    def test_pattern_that_is_a_run_prefix_marks_an_interior_final(self, catalog):
        dfa = build_dfa([make_trace([7, 5, 1], "long"), make_trace([7, 5], "short")], catalog)
        assert dfa.finals == {3, 2}
        assert dfa.state_count == 4

    def test_repeat_count_does_not_create_new_states(self, catalog):
        short = build_dfa([make_trace([7, 7])], catalog)
        long = build_dfa([make_trace([7] * 6)], catalog)
        assert short.state_count == long.state_count == 2
        assert table_of(short) == table_of(long)

    def test_weights_are_frozen_from_the_catalog(self, seed_dfa, catalog):
        weights = {spec.id: spec.weight for spec in catalog.entries}
        for t in seed_dfa.transitions:
            assert t.weight == weights[t.behavior]
        assert seed_dfa.catalog_fingerprint == catalog.fingerprint()

    def test_empty_pattern_set_rejected(self, catalog):
        with pytest.raises(PatternError, match="no patterns"):
            build_dfa([], catalog)

    def test_empty_pattern_rejected(self, catalog):
        with pytest.raises(PatternError, match="empty"):
            build_dfa([make_trace([], "hollow")], catalog)

    def test_multi_behavior_step_rejected(self, catalog):
        with pytest.raises(PatternError, match=r"'grouped'.*step 1"):
            build_dfa([make_trace([7, [5, 1]], "grouped")], catalog)

    def test_a_bad_step_is_rejected_before_any_id_is_looked_up(self, catalog, seed_dfa):
        pattern = make_trace([99, [5, 1]], "both")
        with pytest.raises(PatternError, match=r"'both': step 1 holds 2 behaviors"):
            build_dfa([pattern], catalog)
        with pytest.raises(PatternError, match=r"'both': step 1 holds 2 behaviors"):
            add_patterns(seed_dfa, [pattern], catalog)

    def test_an_unknown_id_before_a_bad_step_still_names_the_step(self, catalog, seed_dfa):
        # The walk meets id 99 first; the PatternError for step 2 is still what is raised.
        pattern = make_trace([7, 99, [5, 1]], "late")
        with pytest.raises(PatternError, match=r"^pattern 'late': step 2 holds 2 behaviors"):
            build_dfa([pattern], catalog)
        with pytest.raises(PatternError, match=r"^pattern 'late': step 2 holds 2 behaviors"):
            add_patterns(seed_dfa, [pattern], catalog)

    def test_a_step_of_no_id_is_named(self, catalog):
        with pytest.raises(PatternError, match=r"^pattern 'void': step 1 holds 0 behaviors"):
            build_dfa([make_trace([7, []], "void")], catalog)

    def test_a_benign_pattern_is_refused_by_build_and_add(self, catalog, seed_dfa):
        pattern = make_trace([7], "calm", label="benign")
        expected = (
            r"^pattern 'calm' is labeled benign; models are built from malicious sequences only$"
        )
        with pytest.raises(PatternError, match=expected):
            build_dfa([pattern], catalog)
        with pytest.raises(PatternError, match=expected):
            add_patterns(seed_dfa, [pattern], catalog)

    def test_unknown_behavior_rejected(self, catalog):
        with pytest.raises(UnknownBehaviorError, match="99"):
            build_dfa([make_trace([99], "stray")], catalog)

    def test_state_numbering_follows_insertion_order(self, catalog):
        # Swapping pattern order renumbers the branches.
        forward = build_dfa([make_trace([7], "a"), make_trace([5], "b")], catalog)
        swapped = build_dfa([make_trace([5], "b"), make_trace([7], "a")], catalog)
        assert table_of(forward) == {(0, 7): (1, 3), (0, 5): (2, 3)}
        assert table_of(swapped) == {(0, 5): (1, 3), (0, 7): (2, 3)}


class TestAddPattern:
    def test_incremental_add_equals_rebuild(self, catalog, seed_patterns):
        base = build_dfa(seed_patterns[:1], catalog)
        grown = add_patterns(base, [seed_patterns[1]], catalog)
        assert grown == build_dfa(seed_patterns, catalog)

    def test_re_adding_an_existing_pattern_only_bumps_the_count(self, seed_dfa, seed_patterns, catalog):
        again = add_patterns(seed_dfa, [seed_patterns[0]], catalog)
        assert again.pattern_count == seed_dfa.pattern_count + 1
        assert table_of(again) == table_of(seed_dfa)
        assert again.finals == seed_dfa.finals
        assert again.state_count == seed_dfa.state_count

    def test_re_adding_a_pattern_that_loops_on_the_highest_state_adds_nothing(
        self, seed_dfa, seed_patterns, catalog
    ):
        # Pattern B ends in a run of 1s: a self-loop on state 10, the highest id.
        again = add_patterns(seed_dfa, [seed_patterns[1]], catalog)
        assert again.transitions == seed_dfa.transitions

    def test_adding_a_prefix_marks_an_interior_state_final(self, seed_dfa, seed_patterns, catalog):
        grown = add_patterns(seed_dfa, [make_trace([5, 1], "stub")], catalog)
        assert 8 in grown.finals
        assert grown == build_dfa(seed_patterns + [make_trace([5, 1], "stub")], catalog)

    def test_add_never_removes_anything(self, seed_dfa, catalog):
        grown = add_patterns(seed_dfa, [make_trace([7, 11], "new")], catalog)
        assert set(seed_dfa.transitions) <= set(grown.transitions)
        assert seed_dfa.finals <= grown.finals
        assert seed_dfa.state_count <= grown.state_count

    def test_a_batch_writes_the_bytes_of_one_by_one_adds_and_of_a_rebuild(
        self, seed_dfa, seed_patterns, catalog
    ):
        bodies = [[5, 1], [7, 11, 11], [3], [7, 5, 3]]
        batch = [make_trace(body, f"x{i}") for i, body in enumerate(bodies)]
        one_by_one = seed_dfa
        for pattern in batch:
            one_by_one = add_patterns(one_by_one, [pattern], catalog)
        grown = add_patterns(seed_dfa, batch, catalog)
        assert grown.pattern_count == seed_dfa.pattern_count + len(batch)
        assert serialize(grown) == serialize(one_by_one)
        assert serialize(grown) == serialize(build_dfa(seed_patterns + batch, catalog))

    def test_a_batch_stops_at_its_first_bad_pattern(self, seed_dfa, catalog):
        batch = [make_trace([7, 11], "good"), make_trace([7, 99], "bad")]
        with pytest.raises(UnknownBehaviorError, match="99 .pattern 'bad'"):
            add_patterns(seed_dfa, batch, catalog)

    def test_catalog_mismatch_is_loud(self, seed_dfa):
        other = BehaviorCatalog([BehaviorSpec(7, "Add Event Handler", 9)])
        with pytest.raises(CatalogMismatchError, match="catalog"):
            add_patterns(seed_dfa, [make_trace([7])], other)

    def test_a_base_that_loops_on_another_behavior_than_its_entry_is_refused_as_loading_it_is(
        self, catalog
    ):
        # State 1 is entered on 7 but loops on 5, which validate() flags before growing starts.
        base = hand_built(2, [(0, 7, 1, 3), (1, 5, 1, 3)], {1}, catalog.fingerprint())
        with pytest.raises(ModelFormatError) as loading:
            deserialize(serialize(base))
        with pytest.raises(ModelFormatError) as raised:
            add_patterns(base, [make_trace([7, 5])], catalog)
        assert str(raised.value) == str(loading.value)
        assert "bad-self-loop: self-loop on state 1 is behavior 5" in str(raised.value)

    def test_a_run_loops_with_the_weight_of_its_entry_not_the_catalogs(self, catalog):
        # A model file may weight an edge apart from its catalog; the loop copies the edge,
        # so the grown model loads again.
        base = hand_built(2, [(0, 7, 1, 1)], {1}, catalog.fingerprint())
        grown = add_patterns(deserialize(serialize(base)), [make_trace([7, 7])], catalog)
        assert grown.transitions == (Transition(0, 7, 1, 1), Transition(1, 7, 1, 1))
        assert deserialize(serialize(grown)) == grown

    def test_original_model_is_untouched(self, catalog, seed_patterns):
        base = build_dfa(seed_patterns[:1], catalog)
        before = table_of(base)
        add_patterns(base, [seed_patterns[1]], catalog)
        assert table_of(base) == before

    def test_lookup_indexes_are_built_on_first_use(self, catalog, seed_patterns):
        base = build_dfa(seed_patterns[:1], catalog)
        grown = add_patterns(base, [seed_patterns[1]], catalog)
        assert "_tables" not in vars(base)
        assert "_tables" not in vars(grown)
        assert grown._tables[0][0] == {7: (1, 3), 5: (7, 3)}
        assert "_tables" in vars(grown)


class TestIndex:
    def test_every_transition_is_found_from_its_source(self, seed_dfa):
        out = seed_dfa._tables[0]
        for t in seed_dfa.transitions:
            assert out[t.source][t.behavior] == (t.target - t.source, t.weight)
        assert 5 not in out[3]

    @pytest.mark.parametrize("dfa, kinds", UNSOUND.values(), ids=UNSOUND.keys())
    def test_a_model_validate_flags_is_refused_with_its_files_message(self, dfa, kinds, catalog):
        assert [issue.kind for issue in validate(dfa)] == kinds
        with pytest.raises(ModelFormatError) as loading:
            deserialize(serialize(dfa))
        assert str(loading.value).startswith("model violates structural invariants: ")
        trace = make_trace([7, 5, 1, 3])
        for read in (
            # Refused before its catalog check: the model's fingerprint is not the catalog's.
            lambda: add_patterns(dfa, [make_trace([7])], catalog),
            lambda: classify(dfa, trace),
            lambda: match_prefix(dfa, trace),
            lambda: nearest_final(dfa, 0),
            lambda: dfa.path_from_initial(0),
        ):
            with pytest.raises(ModelFormatError) as raised:
                read()
            assert str(raised.value) == str(loading.value)

    def test_validate_runs_once_per_model(self, seed_dfa, seed_patterns, catalog, monkeypatch):
        calls = []
        original = dfa_module.validate
        monkeypatch.setattr(dfa_module, "validate", lambda dfa: calls.append(dfa) or original(dfa))
        trace = make_trace([7, 5])
        loaded = deserialize(serialize(seed_dfa))
        add_patterns(loaded, [make_trace([7, 11])], catalog)
        assert len(calls) == 1  # growing reads the answer loading got
        classify(loaded, trace)
        classify(loaded, trace)
        assert len(calls) == 1 and calls[0] is loaded
        built = build_dfa(seed_patterns, catalog)
        assert len(calls) == 1  # building validates nothing; the first classify does
        classify(built, trace)
        classify(built, trace)
        assert len(calls) == 2 and calls[1] is built

    def test_a_state_outside_the_model_has_no_path(self, catalog):
        dfa = build_dfa([make_trace([7, 5, 1, 3, 11])], catalog)
        assert dfa.state_count == 6
        for state in (-1, 6):
            with pytest.raises(ValueError) as raised:
                dfa.path_from_initial(state)
            assert str(raised.value) == f"state {state} outside 0..5"


def offset_tables(dfa: BehaviorDfa) -> list[dict]:
    """out[s] as the transition list spells it: behavior -> (target - s, weight)."""
    out: list[dict] = [{} for _ in range(dfa.state_count)]
    for t in dfa.transitions:
        out[t.source][t.behavior] = (t.target - t.source, t.weight)
    return out


def seeded_patterns(catalog):
    """300 patterns of 5 to 40 uniform random steps: a model of about 5,000 states."""
    rng = random.Random(20)
    ids = [spec.id for spec in catalog.entries]
    return [
        make_trace([rng.choice(ids) for _ in range(rng.randint(5, 40))], trace_id=f"p{i}")
        for i in range(300)
    ]


class TestOutTables:
    def test_the_seed_models_tables_hold_each_edges_offset_and_weight(self, seed_dfa):
        assert seed_dfa._tables[0] == offset_tables(seed_dfa)
        # q10 loops on 1 and the chain q1 -> q2 -> q3 steps by one state each.
        assert seed_dfa._tables[0][10] == {1: (0, 2)}
        assert seed_dfa._tables[0][1] == {5: (1, 3)}

    # 150 examples: each is a model of up to five patterns, grown in one or two batches.
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 5))
    def test_random_models_tables_hold_each_edges_offset_and_weight(self, catalog, rng, cut):
        patterns = random_patterns(rng, (1, 5, 7, 11))
        dfa = build_dfa(patterns[:cut], catalog)
        if patterns[cut:]:
            dfa = add_patterns(dfa, patterns[cut:], catalog)
        assert dfa._tables[0] == offset_tables(dfa)

    def test_states_whose_edges_read_the_same_share_one_table(self, catalog):
        dfa = build_dfa(seeded_patterns(catalog), catalog)
        out = dfa._tables[0]
        assert out == offset_tables(dfa)
        # Most states sit inside a chain of new states, with one edge to the next state.
        assert len({id(table) for table in out}) * 10 < dfa.state_count

    def test_loading_a_model_holds_its_text_once(self, catalog, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(serialize(build_dfa(seeded_patterns(catalog), catalog)))
        size = path.stat().st_size
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with open(path, "rb") as fh:
                dfa = deserialize(fh)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        assert dfa.state_count > 5000
        # Above the model it keeps, the load holds the text and little else, never
        # the file's bytes beside it: holding both read about 2.0 times the size.
        assert peak - kept < 1.6 * size


class TestValidate:
    def test_seed_model_is_clean(self, seed_dfa):
        assert validate(seed_dfa) == []

    def test_a_model_with_no_states_has_one_issue(self):
        dfa = hand_built(0, [], (), pattern_count=0)
        assert [issue.kind for issue in validate(dfa)] == ["no-states"]

    def test_duplicate_transition_key_flagged(self):
        dfa = hand_built(3, [(0, 7, 1, 3), (0, 7, 2, 3), (1, 5, 2, 3)], {2})
        kinds = {i.kind for i in validate(dfa)}
        assert "determinism" in kinds

    def test_duplicate_keys_apart_in_the_input_are_flagged(self, seed_dfa):
        # Four transitions lie between the two on (0, 7), and the later one comes first.
        dfa = hand_built(
            5,
            [(0, 7, 4, 3), (1, 5, 2, 3), (0, 5, 3, 3), (2, 5, 2, 3), (1, 7, 1, 3), (0, 7, 1, 3)],
            {2, 3, 4},
            pattern_count=3,
        )
        (issue,) = validate(dfa)
        assert issue.kind == "determinism"
        assert issue.detail == "two transitions from state 0 on behavior 7"
        doc = json.loads(serialize(seed_dfa))
        doc["transitions"].append({"from": 0, "on": 5, "to": 10, "weight": 3})
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value) == (
            "model violates structural invariants: "
            "determinism: two transitions from state 0 on behavior 5; "
            "not-a-trie: state 10 has 2 incoming forward transitions"
        )

    def test_duplicates_are_listed_in_tuple_order_whatever_the_file_order(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        stray = {"from": 0, "on": 7, "to": 20, "weight": 3}
        messages = set()
        for position in (0, len(doc["transitions"])):
            edited = json.loads(json.dumps(doc))
            edited["transitions"].insert(position, stray)
            with pytest.raises(ModelFormatError) as raised:
                deserialize(json.dumps(edited))
            messages.add(str(raised.value))
        assert messages == {
            "model violates structural invariants: "
            "determinism: two transitions from state 0 on behavior 7; "
            "state-bounds: transition 0->20 on 7 references a state outside 0..10"
        }

    def test_every_issue_is_listed_in_order(self):
        edges = [
            (4, 7, 4, 3), (0, 7, 1, 3), (2, 1, 5, 0), (0, 5, 2, 3), (1, 1, 9, 2),
            (5, 7, 2, 3), (1, 5, 4, 3), (0, 7, 3, 3), (4, 1, 7, 2), (3, 1, 7, 2),
        ]
        dfa = hand_built(9, edges, {5, 6, 7, 12}, pattern_count=3)
        expected = [
            ("determinism", "two transitions from state 0 on behavior 7"),
            ("state-bounds", "transition 1->9 on 1 references a state outside 0..8"),
            ("bad-weight", "transition 2->5 on 1 has weight 0"),
            ("not-a-trie", "transition 5->2 on 7 goes to a lower state id"),
            ("state-bounds", "final state 12 outside 0..8"),
            ("unreachable-state", "state 6 is not reachable from the initial state"),
            ("unreachable-final", "final state 6 is unreachable from the initial state"),
            ("not-a-trie", "state 7 has 2 incoming forward transitions"),
            ("unreachable-state", "state 8 is not reachable from the initial state"),
            (
                "bad-self-loop",
                "self-loop on state 4 is behavior 7 weight 3, "
                "its incoming transition behavior 5 weight 3",
            ),
            ("no-final-ahead", "no final state is reachable from state 8"),
        ]
        assert [(i.kind, i.detail) for i in validate(dfa)] == expected
        with pytest.raises(ModelFormatError) as raised:
            deserialize(serialize(dfa))
        listing = "; ".join(f"{kind}: {detail}" for kind, detail in expected[:10])
        assert str(raised.value) == (
            f"model violates structural invariants: {listing}; and 1 more"
        )

    def test_unreachable_final_flagged(self):
        dfa = hand_built(3, [(0, 7, 1, 3), (1, 7, 1, 3)], {1, 2})
        kinds = {i.kind for i in validate(dfa)}
        assert "unreachable-final" in kinds
        assert "unreachable-state" in kinds

    @pytest.mark.parametrize("states", [3, 100_000])
    def test_a_model_short_of_transitions_has_one_issue_and_no_per_state_list(self, states):
        dfa = hand_built(states, [(0, 7, 1, 3)], {1, 2})
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            issues = validate(dfa)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        detail = f"{states} states need at least {states - 1} transitions, got 1"
        assert issues == [("too-many-states", detail)]
        assert peak < 1_000_000  # a list of 100,000 states alone would be 800 kB

    @pytest.mark.parametrize(
        "dfa, kinds", [*UNSOUND.values(), *HEADERS.values()], ids=[*UNSOUND, *HEADERS]
    )
    def test_a_model_validates_exactly_when_its_file_loads_back(self, dfa, kinds):
        assert [issue.kind for issue in validate(dfa)] == kinds
        try:
            loads_back = deserialize(serialize(dfa)) == dfa
        except ModelFormatError:
            loads_back = False
        assert loads_back == (kinds == [])

    def test_state_with_no_final_ahead_flagged(self):
        dfa = hand_built(3, [(0, 7, 1, 3), (0, 5, 2, 3)], {1})
        issues = validate(dfa)
        assert any(i.kind == "no-final-ahead" and "state 2" in i.detail for i in issues)

    def test_out_of_range_states_flagged(self):
        dfa = hand_built(2, [(0, 7, 5, 3)], {9})
        kinds = [i.kind for i in validate(dfa)]
        assert kinds.count("state-bounds") == 2

    def test_non_positive_weight_flagged(self):
        dfa = hand_built(2, [(0, 7, 1, 0)], {1})
        assert any(i.kind == "bad-weight" for i in validate(dfa))

    @pytest.mark.parametrize(
        "transitions, finals, kind, detail",
        [
            pytest.param(
                [(0, 7, 1, 3), (0, 5, 2, 3), (1, 1, 3, 2), (2, 1, 3, 2)],
                {3},
                "not-a-trie",
                "state 3 has 2 incoming",
                id="two-forward-edges-into-one-state",
            ),
            pytest.param(
                [(0, 7, 1, 3), (0, 5, 2, 3), (2, 1, 1, 2)],
                {1, 2},
                "not-a-trie",
                "2->1",
                id="forward-edge-to-a-lower-id",
            ),
            pytest.param(
                [(0, 7, 1, 3), (1, 5, 2, 3), (2, 1, 1, 2)],
                {2},
                "not-a-trie",
                "2->1",
                id="forward-cycle",
            ),
            pytest.param(
                [(0, 7, 1, 3), (1, 5, 1, 3)],
                {1},
                "bad-self-loop",
                "state 1 is behavior 5",
                id="self-loop-on-another-behavior",
            ),
            pytest.param(
                [(0, 7, 1, 3), (1, 7, 1, 4)],
                {1},
                "bad-self-loop",
                "weight 4",
                id="self-loop-with-another-weight",
            ),
            pytest.param(
                [(0, 7, 0, 3), (0, 5, 1, 3)],
                {1},
                "bad-self-loop",
                "initial state",
                id="self-loop-on-the-initial-state",
            ),
        ],
    )
    def test_shapes_other_than_a_trie_flagged(self, transitions, finals, kind, detail):
        dfa = hand_built(1 + max(target for _, _, target, _ in transitions), transitions, finals)
        (issue,) = validate(dfa)
        assert issue.kind == kind
        assert detail in issue.detail
        with pytest.raises(ModelFormatError, match=kind):
            deserialize(serialize(dfa))


class TestSerialization:
    def test_wire_format(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        assert doc["version"] == 1
        assert doc["states"] == 11
        assert doc["finals"] == [6, 10]
        assert doc["pattern_count"] == 2
        assert doc["catalog_fingerprint"] == seed_dfa.catalog_fingerprint
        keys = [(t["from"], t["on"]) for t in doc["transitions"]]
        assert keys == sorted(keys)
        assert len(keys) == 15

    def test_round_trip_is_exact(self, seed_dfa):
        assert deserialize(serialize(seed_dfa)) == seed_dfa

    def test_reserialization_is_byte_identical(self, seed_dfa):
        data = serialize(seed_dfa)
        assert serialize(deserialize(data)) == data

    def test_truncated_file(self, seed_dfa):
        with pytest.raises(ModelFormatError, match="JSON"):
            deserialize(serialize(seed_dfa)[:40])

    def test_unknown_version_names_both_versions(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["version"] = 99
        with pytest.raises(ModelFormatError, match=r"99.*version 1"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
    def test_version_must_be_the_integer_one(self, seed_dfa, version):
        # Both compare equal to 1, but a model loaded from them would write other bytes.
        doc = json.loads(serialize(seed_dfa))
        doc["version"] = version
        with pytest.raises(ModelFormatError, match="unsupported model version"):
            deserialize(json.dumps(doc))

    def test_a_long_version_is_quoted_cut_short(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["version"] = list(range(100_000))
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value) == (
            f"unsupported model version {repr(doc['version'])[:57]}... "
            "(this build reads version 1)"
        )

    def test_fingerprint_with_a_trailing_newline_is_corrupt(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["catalog_fingerprint"] += "\n"
        with pytest.raises(ModelFormatError, match="fingerprint"):
            deserialize(json.dumps(doc))

    def test_corrupt_fingerprint(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["catalog_fingerprint"] = "zz-not-hex"
        with pytest.raises(ModelFormatError, match="fingerprint"):
            deserialize(json.dumps(doc))

    def test_structural_violation_on_load(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["transitions"].append({"from": 0, "on": 7, "to": 7, "weight": 3})
        with pytest.raises(ModelFormatError, match="determinism"):
            deserialize(json.dumps(doc))

    def test_state_count_beyond_the_transitions_is_rejected_before_allocating(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["states"] = 100_000
        doc["finals"] = [1]
        doc["transitions"] = [{"from": 0, "on": 7, "to": 1, "weight": 3}]
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        message = str(raised.value)
        assert message == (
            "model violates structural invariants: "
            "too-many-states: 100000 states need at least 99999 transitions, got 1"
        )
        assert len(message) < 200

    def test_load_error_lists_the_first_ten_issues(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        for t in doc["transitions"]:
            t["weight"] = 0
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        message = str(raised.value)
        assert message.count("bad-weight") == 10
        assert message.endswith("; and 5 more")

    def test_unexpected_keys_rejected(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["comment"] = "hand edited"
        with pytest.raises(ModelFormatError, match="unexpected"):
            deserialize(json.dumps(doc))

    def test_finals_that_are_not_an_array_are_rejected(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["finals"] = 2
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value) == '"finals" must be an array'

    def test_transitions_that_are_not_an_array_are_rejected(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["transitions"] = 5
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value) == '"transitions" must be an array'

    @pytest.mark.parametrize("key", ["from", "on", "to", "weight"])
    @pytest.mark.parametrize(
        "value, shown",
        [(True, "true"), (1.5, "1.5"), ("3", '"3"'), (None, "null")],
        ids=["bool", "float", "string", "null"],
    )
    def test_non_integer_transition_field_names_the_place(self, seed_dfa, key, value, shown):
        doc = json.loads(serialize(seed_dfa))
        doc["transitions"][12][key] = value
        expected = f'transition 12: "{key}" must be an integer, got {shown}'
        with pytest.raises(ModelFormatError, match=f"^{re.escape(expected)}$"):
            deserialize(json.dumps(doc))

    def test_first_bad_transition_field_is_named(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["transitions"][4].update({"to": "x", "weight": False})
        with pytest.raises(ModelFormatError, match='transition 4: "to" must be an integer'):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param([0, 7, 1, 3], id="array"),
            pytest.param("0 7 1 3", id="string"),
            pytest.param(None, id="null"),
            pytest.param({"from": 0, "on": 7, "to": 1}, id="missing-key"),
            pytest.param({"from": 0, "on": 7, "to": 1, "weight": 3, "note": 1}, id="extra-key"),
            pytest.param({"from": 0, "on": 7, "to": 1, "cost": 3}, id="renamed-key"),
        ],
    )
    def test_malformed_transition_entry_names_the_place(self, seed_dfa, entry):
        doc = json.loads(serialize(seed_dfa))
        doc["transitions"][3] = entry
        expected = "transition 3: expected an object with keys ['from', 'on', 'to', 'weight']"
        with pytest.raises(ModelFormatError, match=f"^{re.escape(expected)}, got "):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("value, shown", [(True, "true"), ("6", '"6"')], ids=["bool", "string"])
    def test_non_integer_final_names_the_place(self, seed_dfa, value, shown):
        doc = json.loads(serialize(seed_dfa))
        doc["finals"].append(value)
        expected = f"finals[2] must be an integer, got {shown}"
        with pytest.raises(ModelFormatError, match=f"^{re.escape(expected)}$"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("key", ["states", "pattern_count"])
    def test_non_integer_count_names_the_key(self, seed_dfa, key):
        doc = json.loads(serialize(seed_dfa))
        doc[key] = "x"
        with pytest.raises(ModelFormatError, match=f'^"{key}" must be an integer, got "x"$'):
            deserialize(json.dumps(doc))

    def test_negative_pattern_count_is_rejected(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["pattern_count"] = -1
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value) == (
            "model violates structural invariants: "
            "bad-pattern-count: pattern count must be non-negative, got -1"
        )

    @pytest.mark.parametrize(
        "key, value, issue",
        [
            ("states", 0, "no-states: model has no states (initial state missing)"),
            ("states", 17, "too-many-states: 17 states need at least 16 transitions, got 15"),
            ("pattern_count", -2, "bad-pattern-count: pattern count must be non-negative, got -2"),
            (
                "catalog_fingerprint",
                "f" * 63,
                "bad-fingerprint: catalog fingerprint is corrupt (expected 64 hex digits)",
            ),
        ],
        ids=["no-states", "too-many-states", "bad-pattern-count", "bad-fingerprint"],
    )
    def test_a_header_value_is_refused_by_the_gate(self, seed_dfa, key, value, issue):
        doc = json.loads(serialize(seed_dfa))
        doc[key] = value
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value) == f"model violates structural invariants: {issue}"
        doc["transitions"][3] = None  # a shape error is named before any value's meaning
        with pytest.raises(ModelFormatError, match="^transition 3: expected an object"):
            deserialize(json.dumps(doc))

    def test_a_fingerprint_that_is_no_string_names_the_key(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["catalog_fingerprint"] = 5
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value) == '"catalog_fingerprint" must be a string, got 5'

    def test_a_file_that_is_not_utf8_is_rejected(self, seed_dfa):
        with pytest.raises(ModelFormatError) as raised:
            deserialize(b"\xff" + serialize(seed_dfa))
        assert str(raised.value) == (
            "model file is not valid UTF-8: "
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        )

    # The parser makes every well-formed transition object a Transition,
    # wherever it stands; out of its place it is still shown as an object.
    TRANSITION = {"from": 0, "on": 7, "to": 1, "weight": 3}
    SHOWN = '{"from": 0, "on": 7, "to": 1, "weight": 3}'

    def test_a_transition_object_as_a_final_is_shown_as_an_object(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["finals"][0] = self.TRANSITION
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value) == f"finals[0] must be an integer, got {self.SHOWN}"

    def test_a_transition_object_as_the_state_count_is_shown_as_an_object(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["states"] = [self.TRANSITION]
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc, indent=2))
        assert str(raised.value) == f'"states" must be an integer, got [{self.SHOWN}]'

    def test_a_deeply_nested_bad_value_is_shown(self, seed_dfa):
        # Nesting that the JSON parser accepts but one Python frame per level would not.
        text = serialize(seed_dfa).decode().replace(
            '"states": 11', '"states": ' + "[" * 900 + json.dumps(self.TRANSITION) + "]" * 900
        )
        with pytest.raises(ModelFormatError) as raised:
            deserialize(text)
        assert str(raised.value) == '"states" must be an integer, got ' + "[" * 57 + "..."

    def test_a_transition_object_as_the_document_has_no_version(self):
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(self.TRANSITION))
        assert str(raised.value) == "unsupported model version None (this build reads version 1)"

    def test_a_transition_object_as_the_version_is_shown_as_a_dict(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["version"] = self.TRANSITION
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value).startswith(
            f"unsupported model version {self.TRANSITION!r} (this build"
        )

    def test_a_transition_object_out_of_place_keeps_its_key_order(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["finals"][0] = {"weight": 3, "to": 1, "from": 0, "on": 7}
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        shown = '{"weight": 3, "to": 1, "from": 0, "on": 7}'
        assert str(raised.value) == f"finals[0] must be an integer, got {shown}"

    def test_an_accepted_file_is_parsed_once_and_a_rejected_one_twice(
        self, seed_dfa, monkeypatch
    ):
        hooked = []  # per parse: was an object_hook given?
        loads = json.loads

        def spy(text, **kwargs):
            hooked.append(kwargs.get("object_hook") is not None)
            return loads(text, **kwargs)

        monkeypatch.setattr(catalog_module.json, "loads", spy)
        data = serialize(seed_dfa)
        assert deserialize(data) == seed_dfa
        assert hooked == [True]
        hooked.clear()
        with pytest.raises(ModelFormatError, match="bad-weight"):
            deserialize(data.replace(b'"weight": 3', b'"weight": 0', 1))
        assert hooked == [True, False]
        hooked.clear()
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            deserialize(data[:40])
        assert hooked == [True]

    def test_a_rejected_file_object_is_read_again(self, seed_dfa):
        data = serialize(seed_dfa).replace(b'"states": 11', b'"states": "11"')
        with pytest.raises(ModelFormatError, match='^"states" must be an integer, got "11"$'):
            deserialize(io.BytesIO(data))

    @pytest.mark.parametrize(
        "kind", ["bytes", "str", "binary file", "text file", "no seekable()", "a pipe"]
    )
    def test_every_source_gives_the_model_and_the_same_placed_error(
        self, seed_dfa, tmp_path, kind
    ):
        # A file is read from where it stands, here past a first line; it is read again from
        # there for the error, or held as text first if it cannot seek.
        def source(data):
            if kind == "bytes":
                return data
            if kind == "str":
                return data.decode("utf-8")
            if kind == "no seekable()":  # an object that has read() and nothing else
                return SimpleNamespace(read=io.BytesIO(data).read)
            if kind == "a pipe":
                read_end, write_end = os.pipe()
                with open(write_end, "wb") as fh:  # a pipe buffer holds the small seed model
                    fh.write(data)
                return opened.enter_context(open(read_end, "rb"))
            path = tmp_path / "model.json"
            path.write_bytes(b"first line\n" + data)
            fh = opened.enter_context(
                open(path, "rb") if kind == "binary file" else open(path, encoding="utf-8")
            )
            fh.readline()
            return fh

        good = serialize(seed_dfa)
        bad = good.replace(b'"states": 11', b'"states": "11"')
        with ExitStack() as opened:
            assert deserialize(source(good)) == seed_dfa
            with pytest.raises(ModelFormatError) as raised:
                deserialize(source(bad))
        assert str(raised.value) == '"states" must be an integer, got "11"'

    def test_the_text_goes_before_the_model_is_checked(self, tmp_path, catalog):
        # The 300-pattern model of test_model_bytes.py. The load's peak is the hooked parse's
        # (bytes and text, then text and model); holding the text while validate() and the
        # model's tables ran read about 1.17 times that.
        path = tmp_path / "model.json"
        patterns = [make_trace(r["steps"], r["id"]) for r in model_bytes_patterns()]
        path.write_bytes(serialize(build_dfa(patterns, catalog)))

        def hooked_parse(fh):
            return catalog_module._read_json(
                fh, ModelFormatError, "model", dfa_module._transition_hook
            )

        parsed, loaded = _load_peak(path, hooked_parse), _load_peak(path, deserialize)
        assert loaded <= 1.02 * parsed

    def test_long_bad_values_are_cut_short(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["finals"][0] = list(range(1000))
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value).startswith("finals[0] must be an integer, got [0, 1, 2")
        assert len(str(raised.value)) < 120


def _load_peak(path, load):
    """The traced memory that `load` of the open file at `path` peaks at, above its start."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loaded = load(fh)
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert loaded
    return peak


class TestExportDot:
    def test_seed_model_node_and_edge_counts(self, seed_dfa, catalog):
        dot = export_dot(seed_dfa, catalog)
        assert dot.count("shape=doublecircle") == 2
        assert dot.count("shape=circle") == 9
        assert dot.count(" -> ") == 16  # 15 transitions + the entry arrow
        assert "__start -> q0;" in dot

    def test_edge_label_format(self, seed_dfa, catalog):
        dot = export_dot(seed_dfa, catalog)
        assert 'q0 -> q1 [label="Add Event Handler (7, w=3)"];' in dot
        assert 'q3 -> q3 [label="Find DOM Element(s) (1, w=2)"];' in dot

    def test_minimal_model(self, catalog):
        dot = export_dot(build_dfa([make_trace([7])], catalog), catalog)
        assert dot.count("shape=circle") == 1
        assert dot.count("shape=doublecircle") == 1
        assert dot.count(" -> ") == 2

    def test_output_is_stable(self, seed_dfa, catalog):
        assert export_dot(seed_dfa, catalog) == export_dot(seed_dfa, catalog)

    def test_unknown_behavior_gets_a_fallback_name(self):
        # Only a hand-built model carries an id its own catalog lacks.
        slim = BehaviorCatalog([BehaviorSpec(1, "Find DOM Element(s)", 2)])
        dfa = hand_built(2, [(0, 7, 1, 3)], {1}, slim.fingerprint())
        dot = export_dot(dfa, slim)
        assert "behavior 7 (7, w=3)" in dot

    def test_another_catalog_is_refused(self, seed_dfa):
        other = BehaviorCatalog([BehaviorSpec(7, "Add Event Handler", 3)])
        with pytest.raises(CatalogMismatchError):
            export_dot(seed_dfa, other)

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from behaviordfa.dfa import (
    BehaviorDfa,
    Transition,
    add_pattern,
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
from behaviordfa.catalog import BehaviorCatalog, BehaviorSpec

from helpers import PATTERN_A, PATTERN_B, make_trace

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
        for t in seed_dfa.transitions:
            assert t.weight == catalog.weight_of(t.behavior)
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
        grown = add_pattern(base, seed_patterns[1], catalog)
        assert grown == build_dfa(seed_patterns, catalog)

    def test_re_adding_an_existing_pattern_only_bumps_the_count(self, seed_dfa, seed_patterns, catalog):
        again = add_pattern(seed_dfa, seed_patterns[0], catalog)
        assert again.pattern_count == seed_dfa.pattern_count + 1
        assert table_of(again) == table_of(seed_dfa)
        assert again.finals == seed_dfa.finals
        assert again.state_count == seed_dfa.state_count

    def test_re_adding_a_pattern_that_loops_on_the_highest_state_adds_nothing(
        self, seed_dfa, seed_patterns, catalog
    ):
        # Pattern B ends in a run of 1s: a self-loop on state 10, the highest id.
        again = add_pattern(seed_dfa, seed_patterns[1], catalog)
        assert again.transitions == seed_dfa.transitions

    def test_adding_a_prefix_marks_an_interior_state_final(self, seed_dfa, seed_patterns, catalog):
        grown = add_pattern(seed_dfa, make_trace([5, 1], "stub"), catalog)
        assert 8 in grown.finals
        assert grown == build_dfa(seed_patterns + [make_trace([5, 1], "stub")], catalog)

    def test_add_never_removes_anything(self, seed_dfa, catalog):
        grown = add_pattern(seed_dfa, make_trace([7, 11], "new"), catalog)
        assert set(seed_dfa.transitions) <= set(grown.transitions)
        assert seed_dfa.finals <= grown.finals
        assert seed_dfa.state_count <= grown.state_count

    def test_catalog_mismatch_is_loud(self, seed_dfa):
        other = BehaviorCatalog([BehaviorSpec(7, "Add Event Handler", 9)])
        with pytest.raises(CatalogMismatchError, match="catalog"):
            add_pattern(seed_dfa, make_trace([7]), other)

    def test_original_model_is_untouched(self, catalog, seed_patterns):
        base = build_dfa(seed_patterns[:1], catalog)
        before = table_of(base)
        add_pattern(base, seed_patterns[1], catalog)
        assert table_of(base) == before

    def test_lookup_indexes_are_built_on_first_use(self, catalog, seed_patterns):
        grown = add_pattern(build_dfa(seed_patterns[:1], catalog), seed_patterns[1], catalog)
        assert "_tables" not in vars(grown)
        assert grown.step(0, 5) == Transition(0, 5, 7, 3)
        assert grown.step(0, 1) is None
        assert "_tables" in vars(grown)


class TestStep:
    def test_every_transition_is_found_from_its_source(self, seed_dfa):
        for t in seed_dfa.transitions:
            assert seed_dfa.step(t.source, t.behavior) is t
        assert seed_dfa.step(3, 5) is None

    def test_a_state_outside_the_model_has_no_transitions(self, seed_dfa):
        # State 10 has a self-loop on 1 and state 0 edges on 5 and 7: a
        # negative id must not wrap round to the last state's table.
        n = seed_dfa.state_count
        for state in (-1, -n, n, n + 1):
            for behavior in (1, 5, 7):
                assert seed_dfa.step(state, behavior) is None

    def test_a_transition_leaving_the_model_is_not_indexed(self):
        # Only a hand-built model has one; validate() rejects it on load.
        inside, outside = Transition(0, 1, 1, 2), Transition(0, 2, 9, 1)
        dfa = BehaviorDfa(2, (inside, outside), frozenset({1}), "0" * 64, 1)
        assert dfa.step(0, 1) is inside
        assert dfa.step(0, 2) is None
        assert dfa.path_from_initial(1) == (inside,)

    def test_a_back_edge_is_no_parent_link(self):
        # Only a hand-built model has one: validate() rejects the edge 2->1.
        edges = [Transition(0, 7, 1, 3), Transition(1, 5, 2, 3), Transition(2, 1, 1, 2)]
        assert [i.kind for i in validate(BehaviorDfa(3, edges, {2}, "0" * 64, 1))] == ["not-a-trie"]
        # Classify [7] and read the matched path and the report record in a
        # child process, so a path that loops fails the test instead of
        # hanging it; the address-space cap stops a runaway path early.
        reads = textwrap.dedent("""
            import json, resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
            from behaviordfa.classify import classification_record, classify
            from behaviordfa.dfa import BehaviorDfa, Transition
            from behaviordfa.ingest import BehaviorTrace
            edges = [Transition(0, 7, 1, 3), Transition(1, 5, 2, 3), Transition(2, 1, 1, 2)]
            dfa = BehaviorDfa(3, edges, {2}, "0" * 64, 1)
            outcome = classify(dfa, BehaviorTrace("t", ((7,),)))
            print(json.dumps(outcome.match.matched_transitions))
            print(json.dumps(classification_record(outcome)))
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", reads], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        matched, record = map(json.loads, proc.stdout.splitlines())
        assert matched == [[0, 7, 1, 3]]
        assert record["matched_behaviors"] == [7] and record["nearest_final_state"] == 2
        assert record["denominator_path_behaviors"] == [7, 5]
        assert record["match_percentage"] == "50"


class TestValidate:
    def test_seed_model_is_clean(self, seed_dfa):
        assert validate(seed_dfa) == []

    def test_duplicate_transition_key_flagged(self):
        dfa = BehaviorDfa(
            state_count=3,
            transitions=(
                Transition(0, 7, 1, 3),
                Transition(0, 7, 2, 3),
                Transition(1, 5, 2, 3),
            ),
            finals=frozenset({2}),
            catalog_fingerprint="0" * 64,
            pattern_count=1,
        )
        kinds = {i.kind for i in validate(dfa)}
        assert "determinism" in kinds

    def test_duplicate_keys_apart_in_the_input_are_flagged(self, seed_dfa):
        # Four transitions lie between the two on (0, 7), and the later one comes first.
        dfa = BehaviorDfa(
            state_count=5,
            transitions=(
                Transition(0, 7, 4, 3),
                Transition(1, 5, 2, 3),
                Transition(0, 5, 3, 3),
                Transition(2, 5, 2, 3),
                Transition(1, 7, 1, 3),
                Transition(0, 7, 1, 3),
            ),
            finals=frozenset({2, 3, 4}),
            catalog_fingerprint="0" * 64,
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
        dfa = BehaviorDfa(
            state_count=9,
            transitions=(
                Transition(4, 7, 4, 3),
                Transition(0, 7, 1, 3),
                Transition(2, 1, 5, 0),
                Transition(0, 5, 2, 3),
                Transition(1, 1, 9, 2),
                Transition(5, 7, 2, 3),
                Transition(1, 5, 4, 3),
                Transition(0, 7, 3, 3),
                Transition(4, 1, 7, 2),
                Transition(3, 1, 7, 2),
            ),
            finals=frozenset({5, 6, 7, 12}),
            catalog_fingerprint="0" * 64,
            pattern_count=3,
        )
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
        dfa = BehaviorDfa(
            state_count=3,
            transitions=(Transition(0, 7, 1, 3),),
            finals=frozenset({1, 2}),
            catalog_fingerprint="0" * 64,
            pattern_count=1,
        )
        kinds = {i.kind for i in validate(dfa)}
        assert "unreachable-final" in kinds
        assert "unreachable-state" in kinds

    def test_state_with_no_final_ahead_flagged(self):
        dfa = BehaviorDfa(
            state_count=3,
            transitions=(Transition(0, 7, 1, 3), Transition(0, 5, 2, 3)),
            finals=frozenset({1}),
            catalog_fingerprint="0" * 64,
            pattern_count=1,
        )
        issues = validate(dfa)
        assert any(i.kind == "no-final-ahead" and "state 2" in i.detail for i in issues)

    def test_out_of_range_states_flagged(self):
        dfa = BehaviorDfa(
            state_count=2,
            transitions=(Transition(0, 7, 5, 3),),
            finals=frozenset({9}),
            catalog_fingerprint="0" * 64,
            pattern_count=1,
        )
        kinds = [i.kind for i in validate(dfa)]
        assert kinds.count("state-bounds") == 2

    def test_non_positive_weight_flagged(self):
        dfa = BehaviorDfa(
            state_count=2,
            transitions=(Transition(0, 7, 1, 0),),
            finals=frozenset({1}),
            catalog_fingerprint="0" * 64,
            pattern_count=1,
        )
        assert any(i.kind == "bad-weight" for i in validate(dfa))

    @pytest.mark.parametrize(
        "transitions, finals, kind, detail",
        [
            pytest.param(
                (
                    Transition(0, 7, 1, 3),
                    Transition(0, 5, 2, 3),
                    Transition(1, 1, 3, 2),
                    Transition(2, 1, 3, 2),
                ),
                {3},
                "not-a-trie",
                "state 3 has 2 incoming",
                id="two-forward-edges-into-one-state",
            ),
            pytest.param(
                (Transition(0, 7, 1, 3), Transition(0, 5, 2, 3), Transition(2, 1, 1, 2)),
                {1, 2},
                "not-a-trie",
                "2->1",
                id="forward-edge-to-a-lower-id",
            ),
            pytest.param(
                (Transition(0, 7, 1, 3), Transition(1, 5, 2, 3), Transition(2, 1, 1, 2)),
                {2},
                "not-a-trie",
                "2->1",
                id="forward-cycle",
            ),
            pytest.param(
                (Transition(0, 7, 1, 3), Transition(1, 5, 1, 3)),
                {1},
                "bad-self-loop",
                "state 1 is behavior 5",
                id="self-loop-on-another-behavior",
            ),
            pytest.param(
                (Transition(0, 7, 1, 3), Transition(1, 7, 1, 4)),
                {1},
                "bad-self-loop",
                "weight 4",
                id="self-loop-with-another-weight",
            ),
            pytest.param(
                (Transition(0, 7, 0, 3), Transition(0, 5, 1, 3)),
                {1},
                "bad-self-loop",
                "initial state",
                id="self-loop-on-the-initial-state",
            ),
        ],
    )
    def test_shapes_other_than_a_trie_flagged(self, transitions, finals, kind, detail):
        dfa = BehaviorDfa(
            state_count=1 + max(t.target for t in transitions),
            transitions=transitions,
            finals=frozenset(finals),
            catalog_fingerprint="0" * 64,
            pattern_count=1,
        )
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
        assert message == "100000 states need at least 99999 transitions, got 1"
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

    def test_long_bad_values_are_cut_short(self, seed_dfa):
        doc = json.loads(serialize(seed_dfa))
        doc["finals"][0] = list(range(1000))
        with pytest.raises(ModelFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value).startswith("finals[0] must be an integer, got [0, 1, 2")
        assert len(str(raised.value)) < 120


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
        catalog = BehaviorCatalog([BehaviorSpec(7, "Add Event Handler", 3)])
        dfa = build_dfa([make_trace([7])], catalog)
        slim = BehaviorCatalog([BehaviorSpec(1, "Find DOM Element(s)", 2)])
        dot = export_dot(dfa, slim)
        assert "behavior 7 (7, w=3)" in dot

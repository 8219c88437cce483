from __future__ import annotations

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from behaviordfa.classify import (
    BatchSummary,
    CsvReportWriter,
    JsonReportWriter,
    Verdict,
    classification_record,
    classify,
    classify_batch,
    _percent_key,
    classify_stream,
    format_percent,
    match_percentage,
    match_prefix,
    nearest_final,
)
from behaviordfa.dfa import BehaviorDfa, Transition, build_dfa
from behaviordfa.errors import InternalInvariantError, NoFinalReachableError
from behaviordfa.ingest import RecordError

from helpers import PATTERN_A, PATTERN_B, make_trace


class TestMatchPrefix:
    def test_two_step_partial_walk(self, seed_dfa):
        result = match_prefix(seed_dfa, make_trace([7, 5]))
        assert result.end_state == 2
        assert result.matched_weight == 6
        assert result.consumed_steps == 2
        assert not result.diverged
        assert not result.reached_final

    def test_grouped_steps_diverge_when_nothing_matches(self, seed_dfa):
        result = match_prefix(seed_dfa, make_trace([7, [11, 3], 7, [11, 3]]))
        assert result.end_state == 1
        assert result.matched_weight == 3
        assert result.consumed_steps == 1
        assert result.diverged
        assert [t.behavior for t in result.matched_transitions] == [7]

    def test_full_pattern_reaches_a_final_with_path_weight_only(self, seed_dfa):
        result = match_prefix(seed_dfa, make_trace(PATTERN_A))
        assert result.reached_final
        assert result.end_state == 6
        # Self-loop traversals consume input but add no weight.
        assert result.matched_weight == 16
        assert [t.behavior for t in result.matched_transitions] == [7, 5, 1, 7, 5, 1]
        # The walk stops the moment the final is entered: 10 of 12 steps.
        assert result.consumed_steps == 10

    def test_empty_trace_stays_at_the_initial_state(self, seed_dfa):
        result = match_prefix(seed_dfa, make_trace([]))
        assert result.end_state == 0
        assert result.matched_weight == 0
        assert result.consumed_steps == 0
        assert not result.diverged
        assert not result.reached_final

    def test_trailing_input_after_a_final_is_ignored(self, seed_dfa):
        result = match_prefix(seed_dfa, make_trace(PATTERN_B + [7, 7, 7]))
        assert result.reached_final
        assert result.end_state == 10

    def test_grouped_step_with_single_viable_behavior(self, seed_dfa):
        result = match_prefix(seed_dfa, make_trace([[7, 11]]))
        assert result.end_state == 1

    def test_grouped_step_prefers_the_heavier_transition(self, catalog):
        dfa = build_dfa([make_trace([11, 2], "x"), make_trace([7, 2], "y")], catalog)
        result = match_prefix(dfa, make_trace([[7, 11]]))
        # Send Data (weight 5) outranks Add Event Handler (weight 3).
        assert result.matched_transitions[0].behavior == 11

    def test_grouped_step_tie_breaks_on_smaller_id(self, seed_dfa):
        result = match_prefix(seed_dfa, make_trace([[7, 5]]))
        # Both carry weight 3 from state 0; behavior 5 wins the tie.
        assert result.matched_transitions[0].behavior == 5
        assert result.end_state == 7

    def test_self_loop_repetition_count_is_irrelevant(self, seed_dfa):
        few = match_prefix(seed_dfa, make_trace([7, 5, 1, 1]))
        many = match_prefix(seed_dfa, make_trace([7, 5] + [1] * 30))
        assert few.end_state == many.end_state == 3
        assert few.matched_weight == many.matched_weight == 8


class TestNearestFinal:
    def test_mid_branch_state_goes_to_its_branch_final(self, seed_dfa):
        near = nearest_final(seed_dfa, 2)
        assert near.final_state == 6
        assert [t.behavior for t in near.denominator_path] == [7, 5, 1, 7, 5, 1]
        assert near.denominator_weight == 16

    def test_second_branch_head_costs_ten(self, seed_dfa):
        near = nearest_final(seed_dfa, 7)
        assert near.final_state == 10
        assert near.denominator_weight == 10
        assert [t.behavior for t in near.forward_path] == [1, 5, 1]

    def test_final_state_is_its_own_nearest(self, seed_dfa):
        near = nearest_final(seed_dfa, 6)
        assert near.final_state == 6
        assert near.forward_path == ()
        assert near.denominator_weight == 16

    def test_initial_state_picks_the_cheaper_branch(self, seed_dfa):
        near = nearest_final(seed_dfa, 0)
        assert near.final_state == 10  # 10 beats 16

    def test_equal_cost_finals_tie_break_on_smaller_id(self, catalog):
        # From the branch point both finals cost 3; state 2 beats state 3.
        dfa = build_dfa([make_trace([7, 5], "x"), make_trace([7, 3], "y")], catalog)
        near = nearest_final(dfa, 1)
        assert near.final_state == 2

    def test_forward_path_never_uses_self_loops(self, seed_dfa):
        for state in range(seed_dfa.state_count):
            near = nearest_final(seed_dfa, state)
            assert all(not t.is_self_loop for t in near.forward_path)

    def test_no_final_ahead_is_a_loud_error(self):
        dfa = BehaviorDfa(
            state_count=2,
            transitions=(Transition(0, 7, 1, 3),),
            finals=frozenset(),
            catalog_fingerprint="0" * 64,
            pattern_count=0,
        )
        with pytest.raises(NoFinalReachableError):
            nearest_final(dfa, 0)

    def test_invalid_state_rejected(self, seed_dfa):
        with pytest.raises(ValueError):
            nearest_final(seed_dfa, 99)


class TestMatchPercentage:
    @pytest.mark.parametrize(
        "matched, denominator, expected",
        [
            (6, 16, Fraction(75, 2)),
            (3, 16, Fraction(75, 4)),
            (3, 10, Fraction(30)),
            (5, 10, Fraction(50)),
            (8, 16, Fraction(50)),
            (0, 7, Fraction(0)),
            (16, 16, Fraction(100)),
        ],
    )
    def test_exact_ratios(self, matched, denominator, expected):
        assert match_percentage(matched, denominator) == expected

    def test_numerator_above_denominator_is_an_internal_error(self):
        with pytest.raises(InternalInvariantError):
            match_percentage(17, 16)

    def test_zero_denominator_is_an_internal_error(self):
        with pytest.raises(InternalInvariantError):
            match_percentage(0, 0)

    @pytest.mark.parametrize(
        "value, rendered",
        [
            (Fraction(75, 2), "37.5"),
            (Fraction(75, 4), "18.75"),
            (Fraction(30), "30"),
            (Fraction(50), "50"),
            (Fraction(100), "100"),
            (Fraction(0), "0"),
            (Fraction(100, 3), "33.33"),
            (Fraction(200, 3), "66.67"),
            (Fraction(125, 10), "12.5"),
        ],
    )
    def test_decimal_rendering(self, value, rendered):
        assert format_percent(value) == rendered

    @pytest.mark.parametrize(
        "value, rendered",
        [
            (Fraction("0.005"), "0"),  # half a hundredth rounds to the even 0
            (Fraction("0.015"), "0.02"),
            (Fraction("0.025"), "0.02"),
            (Fraction("12.125"), "12.12"),
            (Fraction("12.135"), "12.14"),
            (Fraction("99.995"), "100"),
            (Fraction("99.985"), "99.98"),
            (Fraction(2, 3), "0.67"),
            (Fraction(1, 8), "0.12"),
            (Fraction(3, 8), "0.38"),
            (Fraction("0.0049999"), "0"),
            (Fraction("0.0050001"), "0.01"),
        ],
    )
    def test_halfway_hundredths_round_to_even(self, value, rendered):
        assert format_percent(value) == rendered

    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    def test_rendering_agrees_with_exact_rounding(self, num, den):
        value = Fraction(num, den)
        whole, frac = divmod(round(value * 100), 100)
        expected = f"{whole}.{frac:02d}".rstrip("0").rstrip(".")
        assert format_percent(value) == expected

    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    def test_histogram_key_agrees_with_the_fraction_test(self, num, den):
        value = Fraction(num, den)
        exact = value == Fraction(round(value * 100), 100)
        expected = format_percent(value) if exact else f"{value.numerator}/{value.denominator}"
        assert _percent_key(value) == expected


class TestClassify:
    def test_partial_two_step_walk(self, seed_dfa):
        outcome = classify(seed_dfa, make_trace([7, 5]))
        assert outcome.verdict is Verdict.PARTIALLY_MALIGN
        assert outcome.match_percentage == Fraction(75, 2)
        assert outcome.percent_display == "37.5"

    def test_grouped_trace_scores_three_sixteenths(self, seed_dfa):
        outcome = classify(seed_dfa, make_trace([7, [11, 3], 7, [11, 3]], "1058"))
        assert outcome.verdict is Verdict.PARTIALLY_MALIGN
        assert outcome.match_percentage == Fraction(75, 4)
        assert outcome.percent_display == "18.75"
        assert outcome.nearest.final_state == 6
        assert outcome.nearest.denominator_weight == 16

    def test_zero_overlap_is_benign(self, seed_dfa):
        outcome = classify(seed_dfa, make_trace([9, 9, 9]))
        assert outcome.verdict is Verdict.BENIGN
        assert outcome.match_percentage == 0
        assert outcome.nearest is None

    def test_empty_trace_is_benign(self, seed_dfa):
        outcome = classify(seed_dfa, make_trace([]))
        assert outcome.verdict is Verdict.BENIGN
        assert outcome.match_percentage == 0

    def test_verbatim_pattern_is_malign_at_100(self, seed_dfa):
        outcome = classify(seed_dfa, make_trace(PATTERN_B))
        assert outcome.verdict is Verdict.MALIGN
        assert outcome.match_percentage == Fraction(100)
        assert outcome.match.end_state == 10

    def test_matched_path_is_a_prefix_of_the_denominator_path(self, seed_dfa):
        outcome = classify(seed_dfa, make_trace([7, 5]))
        prefix = outcome.nearest.denominator_path[: len(outcome.match.matched_transitions)]
        assert prefix == outcome.match.matched_transitions

    def test_labels_pass_through_untouched(self, seed_dfa):
        outcome = classify(seed_dfa, make_trace([7, 5], "t", label="benign"))
        assert outcome.label == "benign"
        assert outcome.verdict is Verdict.PARTIALLY_MALIGN

    def test_classification_is_deterministic(self, seed_dfa):
        trace = make_trace([7, 5, 1, 1, 7])
        assert classify(seed_dfa, trace) == classify(seed_dfa, trace)

    def test_classify_builds_no_path(self, seed_dfa, monkeypatch):
        calls = []
        original = BehaviorDfa.path_from_initial

        def spy(self, state):
            calls.append(state)
            return original(self, state)

        monkeypatch.setattr(BehaviorDfa, "path_from_initial", spy)
        traces = {
            Verdict.MALIGN: make_trace(PATTERN_A),
            Verdict.PARTIALLY_MALIGN: make_trace([7, 5, 1, 1]),
            Verdict.BENIGN: make_trace([9, 7]),
        }
        outcomes = {verdict: classify(seed_dfa, t) for verdict, t in traces.items()}
        diverged = classify(seed_dfa, make_trace([5, 1, [7, 11], 5]))
        assert calls == []
        for verdict, outcome in outcomes.items():
            assert outcome.verdict is verdict
        assert diverged.match.diverged and diverged.verdict is Verdict.PARTIALLY_MALIGN
        # Reading an explanation field is what builds a path.
        assert [t.behavior for t in diverged.match.matched_transitions] == [5, 1]
        assert [t.behavior for t in diverged.nearest.denominator_path] == [5, 1, 5, 1]
        assert calls == [8, 8]

    def test_results_are_immutable_values(self, seed_dfa, seed_patterns, catalog):
        outcome = classify(seed_dfa, make_trace([7, 5]))
        for obj, field in [
            (outcome, "verdict"),
            (outcome, "percent_display"),
            (outcome.match, "end_state"),
            (outcome.match, "matched_transitions"),
            (outcome.match, "matched_weight"),
            (outcome.nearest, "final_state"),
            (outcome.nearest, "forward_path"),
            (outcome.nearest, "denominator_path"),
        ]:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
        # Equal models give equal, equally hashed results: the model object does not count.
        rebuilt = build_dfa(seed_patterns, catalog)
        again = classify(rebuilt, make_trace([7, 5]))
        assert rebuilt is not seed_dfa and again == outcome and hash(again) == hash(outcome)
        assert not again != outcome
        assert again.match != classify(seed_dfa, make_trace([7])).match
        assert "matched_transitions=(Transition(source=0, behavior=7" in repr(outcome.match)


class TestClassifyBatch:
    def test_counts_and_histogram(self, seed_dfa):
        traces = [
            make_trace(PATTERN_A, "a"),
            make_trace(PATTERN_B, "b"),
            make_trace([7, 5], "c"),
            make_trace([9], "d"),
        ]
        report = classify_batch(seed_dfa, traces)
        counts = report.summary.counts
        assert counts[Verdict.MALIGN] == 2
        assert counts[Verdict.PARTIALLY_MALIGN] == 1
        assert counts[Verdict.BENIGN] == 1
        assert report.summary.histogram == {Fraction(75, 2): 1}

    def test_empty_batch(self, seed_dfa):
        report = classify_batch(seed_dfa, [])
        assert all(count == 0 for count in report.summary.counts.values())
        assert report.summary.histogram == {}
        assert report.items == ()

    def test_cohort_exemplars_fill_four_buckets(self, seed_dfa):
        traces = [
            make_trace([7, 3], "one"),
            make_trace([5, 3], "two"),
            make_trace([7, 5, 3], "three"),
            make_trace([5, 1, 3], "four"),
        ]
        report = classify_batch(seed_dfa, traces)
        assert report.summary.histogram == {
            Fraction(75, 4): 1,
            Fraction(30): 1,
            Fraction(75, 2): 1,
            Fraction(50): 1,
        }

    def test_record_errors_pass_through_and_are_counted(self, seed_dfa):
        items = [
            make_trace([7, 5], "ok"),
            RecordError(2, "line 2: not valid JSON"),
            make_trace([9], "quiet"),
        ]
        report = classify_batch(seed_dfa, items)
        assert report.summary.record_errors == 1
        assert len(report.records) == 2
        assert report.errors[0].line == 2

    def test_output_order_equals_input_order(self, seed_dfa):
        items = [make_trace([7], f"t{i}") for i in range(10)]
        report = classify_batch(seed_dfa, items)
        assert [r.trace_id for r in report.records] == [f"t{i}" for i in range(10)]

    def test_cross_table_appears_only_with_labels(self, seed_dfa):
        unlabeled = classify_batch(seed_dfa, [make_trace([7], "a")])
        assert unlabeled.summary.cross_table is None
        labeled = classify_batch(
            seed_dfa,
            [
                make_trace(PATTERN_A, "a", label="malicious"),
                make_trace([7, 5], "b", label="benign"),
                make_trace([7], "c"),
            ],
        )
        table = labeled.summary.cross_table
        assert table["malicious"][Verdict.MALIGN] == 1
        assert table["benign"][Verdict.PARTIALLY_MALIGN] == 1
        assert table["unlabeled"][Verdict.PARTIALLY_MALIGN] == 1

    def test_stream_is_lazy(self, seed_dfa):
        def endless():
            i = 0
            while True:
                yield make_trace([7], f"t{i}")
                i += 1

        stream = classify_stream(seed_dfa, endless())
        first = next(stream)
        assert first.trace_id == "t0"


class TestReportWriters:
    def test_json_record_shape(self, seed_dfa):
        outcome = classify(seed_dfa, make_trace([7, 5], "c", label="benign"))
        record = classification_record(outcome)
        assert record == {
            "id": "c",
            "label": "benign",
            "verdict": "partially_malign",
            "match_percentage": "37.5",
            "match_fraction": {"num": 75, "den": 2},
            "end_state": 2,
            "matched_behaviors": [7, 5],
            "nearest_final_state": 6,
            "denominator_path_behaviors": [7, 5, 1, 7, 5, 1],
        }

    def test_benign_record_has_no_nearest_final(self, seed_dfa):
        record = classification_record(classify(seed_dfa, make_trace([9], "z")))
        assert record["nearest_final_state"] is None
        assert record["denominator_path_behaviors"] is None
        assert record["match_percentage"] == "0"

    def test_jsonl_report_ends_with_a_summary_object(self, seed_dfa):
        out = io.StringIO()
        writer = JsonReportWriter(out)
        summary = BatchSummary()
        for item in classify_stream(
            seed_dfa, [make_trace([7, 5], "a"), RecordError(3, "bad line")]
        ):
            summary.add(item)
            writer.record(item)
        writer.finish(summary)
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert lines[0]["id"] == "a"
        assert lines[1] == {"error": "bad line", "line": 3}
        assert lines[2]["summary"]["counts"] == {
            "malign": 0,
            "partially_malign": 1,
            "benign": 0,
        }
        assert lines[2]["summary"]["record_errors"] == 1
        assert lines[2]["summary"]["histogram"] == {"37.5": 1}

    def test_summary_includes_cross_table_when_labeled(self, seed_dfa):
        report = classify_batch(
            seed_dfa, [make_trace(PATTERN_A, "a", label="malicious")]
        )
        doc = report.summary.as_dict()
        assert doc["label_cross_table"] == {
            "malicious": {"benign": 0, "partially_malign": 0, "malign": 1}
        }

    def test_csv_rows(self, seed_dfa):
        out = io.StringIO()
        writer = CsvReportWriter(out)
        summary = BatchSummary()
        items = [
            make_trace([7, 5], "a", label="benign"),
            RecordError(2, "skipped"),
            make_trace(PATTERN_B, "b"),
        ]
        for item in classify_stream(seed_dfa, items):
            summary.add(item)
            writer.record(item)
        writer.finish(summary)
        assert out.getvalue().splitlines() == [
            "id,verdict,percentage,label",
            "a,partially_malign,37.5,benign",
            "b,malign,100,",
        ]

    def test_summary_line_format(self, seed_dfa):
        report = classify_batch(
            seed_dfa,
            [make_trace([7, 3], "one"), make_trace([5, 3], "two")],
        )
        assert report.summary.summary_line() == "malign:0 partial:2 benign:0"
        report.summary.add(RecordError(9, "x"))
        assert report.summary.summary_line() == "malign:0 partial:2 benign:0 errors:1"

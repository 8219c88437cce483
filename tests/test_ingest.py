from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from behaviordfa.classify import classify
from behaviordfa.dfa import build_dfa
from behaviordfa.errors import PatternError, TraceFormatError, UnknownBehaviorError
from behaviordfa.ingest import (
    BehaviorTrace,
    RecordError,
    compress_runs,
    expand_runs,
    parse_traces,
    scan_traces,
)

from helpers import PATTERN_A, PATTERN_B


def jsonl(*records):
    return [json.dumps(r) for r in records]


class TestParseTraces:
    def test_grouped_steps(self, catalog):
        lines = jsonl({"id": "1058", "steps": [[7], [11, 3], [7], [11, 3]], "label": None})
        (trace,) = parse_traces(lines, catalog)
        assert trace.trace_id == "1058"
        assert len(trace.steps) == 4
        assert trace.steps[1] == (11, 3)

    def test_flat_shorthand_normalizes_to_singletons(self, catalog):
        lines = jsonl({"id": "a", "steps": [7, 5]})
        (trace,) = parse_traces(lines, catalog)
        assert list(trace.steps) == [(7,), (5,)]

    def test_mixed_shorthand_and_grouped(self, catalog):
        lines = jsonl({"id": "a", "steps": [7, [11, 3], 7]})
        (trace,) = parse_traces(lines, catalog)
        assert list(trace.steps) == [(7,), (11, 3), (7,)]

    def test_empty_steps_is_a_valid_zero_length_trace(self, catalog):
        lines = jsonl({"id": "empty", "steps": []})
        (trace,) = parse_traces(lines, catalog)
        assert len(trace) == 0

    def test_labels_are_carried(self, catalog):
        lines = jsonl(
            {"id": "a", "steps": [7], "label": "malicious"},
            {"id": "b", "steps": [7], "label": "benign"},
            {"id": "c", "steps": [7]},
        )
        labels = [t.label for t in parse_traces(lines, catalog)]
        assert labels == ["malicious", "benign", None]

    def test_accepts_byte_lines(self, catalog):
        lines = [json.dumps({"id": "a", "steps": [7]}).encode("utf-8")]
        (trace,) = parse_traces(lines, catalog)
        assert trace.trace_id == "a"

    def test_input_order_preserved(self, catalog):
        lines = jsonl(*({"id": f"t{i}", "steps": [7]} for i in range(20)))
        ids = [t.trace_id for t in parse_traces(lines, catalog)]
        assert ids == [f"t{i}" for i in range(20)]

    def test_streams_records_before_reading_everything(self, catalog):
        lines_read = 0

        def source():
            nonlocal lines_read
            for i in itertools.count():
                lines_read += 1
                yield json.dumps({"id": f"t{i}", "steps": [7]})

        first_two = list(itertools.islice(parse_traces(source(), catalog), 2))
        assert [t.trace_id for t in first_two] == ["t0", "t1"]
        assert lines_read <= 3

    def test_skips_blank_lines(self, catalog):
        lines = ["", json.dumps({"id": "a", "steps": [7]}), "   "]
        assert len(list(parse_traces(lines, catalog))) == 1


class TestParseErrors:
    def test_malformed_json_names_the_line(self, catalog):
        lines = [json.dumps({"id": "a", "steps": [7]}), "{nope"]
        with pytest.raises(TraceFormatError, match="line 2"):
            list(parse_traces(lines, catalog))

    def test_non_object_record(self, catalog):
        with pytest.raises(TraceFormatError, match="not a JSON object"):
            list(parse_traces(["[1, 2]"], catalog))

    def test_missing_id(self, catalog):
        with pytest.raises(TraceFormatError, match="'id'"):
            list(parse_traces([json.dumps({"steps": [7]})], catalog))

    def test_unknown_behavior_names_trace_and_step(self, catalog):
        lines = jsonl({"id": "bad", "steps": [7, 99]})
        with pytest.raises(UnknownBehaviorError, match=r"99.*'bad'.*step 1"):
            list(parse_traces(lines, catalog))

    def test_duplicate_trace_id(self, catalog):
        lines = jsonl({"id": "a", "steps": [7]}, {"id": "a", "steps": [5]})
        with pytest.raises(TraceFormatError, match="duplicate trace id 'a'"):
            list(parse_traces(lines, catalog))

    def test_duplicate_behavior_within_step(self, catalog):
        lines = jsonl({"id": "a", "steps": [[7, 7]]})
        with pytest.raises(TraceFormatError, match="repeats behavior 7"):
            list(parse_traces(lines, catalog))

    @pytest.mark.parametrize(
        "step, error, message",
        [
            ([7, 7, "x"], TraceFormatError, "step 1 repeats behavior 7"),
            (["x", 7], TraceFormatError, "step 1 holds 'x'"),
            # The first 99 fails the catalog check before its repeat is reached.
            ([99, 99], UnknownBehaviorError, "99.*step 1"),
        ],
        ids=["repeat-first", "type-first", "unknown-first"],
    )
    def test_first_bad_behavior_of_a_grouped_step_is_reported(
        self, catalog, step, error, message
    ):
        lines = jsonl({"id": "a", "steps": [7, step]})
        with pytest.raises(error, match=message):
            list(parse_traces(lines, catalog))

    def test_a_step_of_fifty_thousand_ids_is_checked_whole(self):
        ids = list(range(50_000))
        (trace,) = parse_traces(jsonl({"id": "wide", "steps": [ids]}))
        assert trace.steps == (tuple(ids),)
        lines = jsonl({"id": "wide", "steps": [7, ids[:-1] + [31_337]]})
        with pytest.raises(TraceFormatError) as raised:
            list(parse_traces(lines))
        assert str(raised.value) == "line 1: trace 'wide': step 1 repeats behavior 31337"

    def test_empty_step(self, catalog):
        lines = jsonl({"id": "a", "steps": [[]]})
        with pytest.raises(TraceFormatError, match="step 0 is empty"):
            list(parse_traces(lines, catalog))

    def test_boolean_behavior_rejected(self, catalog):
        lines = jsonl({"id": "a", "steps": [True]})
        with pytest.raises(TraceFormatError, match="behavior id"):
            list(parse_traces(lines, catalog))

    def test_negative_behavior_rejected(self, catalog):
        lines = jsonl({"id": "a", "steps": [-1]})
        with pytest.raises(TraceFormatError, match="behavior id"):
            list(parse_traces(lines, catalog))

    def test_bad_label_rejected(self, catalog):
        lines = jsonl({"id": "a", "steps": [7], "label": "suspicious"})
        with pytest.raises(TraceFormatError, match="label"):
            list(parse_traces(lines, catalog))

    def test_without_catalog_ids_are_not_validated(self):
        lines = jsonl({"id": "a", "steps": [99, 1234]})
        (trace,) = parse_traces(lines)
        assert trace.steps[0] == (99,)


class TestScanTraces:
    def test_bad_records_become_record_errors_in_place(self, catalog):
        lines = [
            json.dumps({"id": "a", "steps": [7]}),
            "{nope",
            json.dumps({"id": "b", "steps": [99]}),
            json.dumps({"id": "c", "steps": [5]}),
        ]
        items = list(scan_traces(lines, catalog))
        assert isinstance(items[0], BehaviorTrace)
        assert isinstance(items[1], RecordError) and items[1].line == 2
        assert isinstance(items[2], RecordError) and "99" in items[2].reason
        assert isinstance(items[3], BehaviorTrace)

    def test_rejects_exactly_the_violating_records(self, catalog):
        records = [{"id": f"t{i}", "steps": [7, 5]} for i in range(10)]
        records[3]["steps"] = [99]
        records[7]["steps"] = [[]]
        items = list(scan_traces(jsonl(*records), catalog))
        good = [i.trace_id for i in items if isinstance(i, BehaviorTrace)]
        bad = [i.line for i in items if isinstance(i, RecordError)]
        assert good == [f"t{i}" for i in range(10) if i not in (3, 7)]
        assert bad == [4, 8]


class TestDirectlyBuiltTraces:
    # Only parsed traces are checked; a hand-built empty step is still safe downstream.
    def test_empty_step_classifies_as_a_divergence(self, seed_dfa):
        result = classify(seed_dfa, BehaviorTrace("a", ((7,), (), (5,))))
        assert result.match.diverged
        assert (result.match.end_state, result.match.consumed_steps) == (1, 1)

    def test_empty_step_in_a_pattern_is_a_pattern_error(self, catalog):
        pattern = BehaviorTrace("p", ((7,), ()), "malicious")
        with pytest.raises(PatternError, match="step 1 holds 0 behaviors"):
            build_dfa([pattern], catalog)


class TestCompressRuns:
    def test_first_seed_sequence(self):
        assert compress_runs(PATTERN_A) == [(7, 1), (5, 1), (1, 4), (7, 2), (5, 1), (1, 3)]

    def test_second_seed_sequence(self):
        assert compress_runs(PATTERN_B) == [(5, 1), (1, 3), (5, 1), (1, 4)]

    def test_empty_input(self):
        assert compress_runs([]) == []

    def test_expand_inverts_the_seed_encodings(self):
        assert expand_runs(compress_runs(PATTERN_A)) == PATTERN_A
        assert expand_runs(compress_runs(PATTERN_B)) == PATTERN_B

    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=60))
    def test_round_trip(self, flat):
        assert expand_runs(compress_runs(flat)) == flat

    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=60))
    def test_adjacent_runs_always_differ(self, flat):
        runs = compress_runs(flat)
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
        assert all(count >= 1 for _, count in runs)

from __future__ import annotations

import itertools
import json
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from behaviordfa import ingest
from behaviordfa.classify import classify
from behaviordfa.dfa import build_dfa
from behaviordfa.errors import PatternError, TraceFormatError, UnknownBehaviorError
from behaviordfa.ingest import (
    BehaviorTrace,
    RecordError,
    parse_traces,
    scan_traces,
)

from helpers import PATTERN_A, PATTERN_B
from oracle import compress_runs, oracle_steps


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
        assert trace.steps == ()

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

    def test_every_error_of_a_line_begins_with_its_number_once(self, catalog):
        lines = jsonl({"id": "a", "steps": [7]}, {"id": "x", "steps": [99]})
        with pytest.raises(UnknownBehaviorError) as raised:
            list(parse_traces(lines, catalog))
        assert str(raised.value) == "line 2: unknown behavior id 99 (trace 'x', step 0)"
        assert raised.value.line == 2 and raised.value.behavior_id == 99
        with pytest.raises(TraceFormatError) as raised:
            list(parse_traces(["", "{nope"], catalog))
        assert str(raised.value).startswith("line 2: not valid JSON: ")
        assert raised.value.line == 2

    def test_an_id_that_is_not_unicode_text_is_rejected(self, catalog):
        # JSON can spell a lone surrogate; UTF-8, and so every report, cannot.
        lines = ['{"id": "x\\ud800", "steps": [7, 5]}', json.dumps({"id": "ok", "steps": [7]})]
        with pytest.raises(TraceFormatError) as raised:
            list(parse_traces(lines, catalog))
        assert str(raised.value) == "line 1: trace id 'x\\ud800' is not valid Unicode text"
        error, trace = scan_traces(lines, catalog)
        assert error == RecordError(1, str(raised.value)) and trace.trace_id == "ok"

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

    def test_a_long_bad_value_is_quoted_cut_short(self):
        wide = list(range(100_000))
        (error,) = scan_traces(jsonl({"id": "wide", "steps": [[wide]]}))
        assert error.reason == (
            f"line 1: trace 'wide': step 0 holds {repr(wide)[:57]}..., "
            "expected a non-negative integer behavior id"
        )
        assert len(error.reason) < 200

    def test_a_long_duplicate_trace_id_is_quoted_cut_short(self):
        long_id = "x" * 1_000_000
        first, error = scan_traces(jsonl({"id": long_id, "steps": [7]}, {"id": long_id}))
        assert first.trace_id == long_id
        assert error.reason == "line 2: duplicate trace id '" + "x" * 56 + "..."

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


# Step entries as JSON gives them: a few ids, so ids repeat within a record
# (99 is not in the catalog), and a quarter of values a step must reject,
# some equal to an id (True == 1, 1.0 == 1).
_id = st.sampled_from([0, 1, 3, 7, 11, 99])
_behavior = st.one_of(_id, _id, _id, st.sampled_from([-1, True, 1.0, "7", None]))
_entry = st.one_of(_behavior, st.lists(_behavior, max_size=3))


class TestSharedSteps:
    def test_equal_one_id_steps_share_one_tuple_within_a_record(self, catalog):
        (trace,) = parse_traces(jsonl({"id": "a", "steps": [7, [7], [5, 7], 5, [7], 5]}), catalog)
        assert trace.steps == ((7,), (7,), (5, 7), (5,), (7,), (5,))
        first = trace.steps[0]
        assert trace.steps[1] is first and trace.steps[4] is first
        assert trace.steps[5] is trace.steps[3]

    def test_a_bad_id_is_reported_at_its_first_step_even_after_good_ones(self, catalog):
        lines = jsonl({"id": "a", "steps": [7, [7], 7, [7, True]]})
        with pytest.raises(TraceFormatError) as raised:
            list(parse_traces(lines, catalog))
        assert str(raised.value) == (
            "line 1: trace 'a': step 3 holds True, expected a non-negative integer behavior id"
        )

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(_entry, max_size=12), with_catalog=st.booleans())
    def test_matches_the_per_step_oracle(self, catalog, steps, with_catalog):
        used = catalog if with_catalog else None
        line = json.dumps({"id": "r", "steps": steps})
        try:
            expected = BehaviorTrace("r", oracle_steps(steps, "r", 1, used and used.ids))
        except (TraceFormatError, UnknownBehaviorError) as exc:
            with pytest.raises(type(exc)) as raised:
                list(parse_traces([line], used))
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        else:
            assert list(parse_traces([line], used)) == [expected]


# A stream starts with a record of good entries, so that the later entries
# equal to one of its steps (True for 1, 1.0 for 1, a list nesting a list)
# meet a shared step.
_good_entry = st.one_of(_id, st.lists(_id, min_size=1, max_size=3, unique=True))
_nested = st.lists(st.one_of(_behavior, st.lists(_id, max_size=2)), min_size=1, max_size=3)
_stream = st.tuples(
    st.lists(_good_entry, max_size=10),
    st.lists(st.lists(st.one_of(_entry, _nested), max_size=8), min_size=1, max_size=5),
).map(lambda drawn: [drawn[0], *drawn[1]])


def _oracle_stream(records, known):
    """Each record's trace or exception, checked alone by the per-step oracle."""
    outcomes = []
    for line_no, steps in enumerate(records, start=1):
        trace_id = f"r{line_no}"
        try:
            outcomes.append(BehaviorTrace(trace_id, oracle_steps(steps, trace_id, line_no, known)))
        except (TraceFormatError, UnknownBehaviorError) as exc:
            outcomes.append(exc)
    return outcomes


def _parse_until_error(lines, catalog):
    """The traces parse_traces() yields, and the error it stops at, if any."""
    parsed = []
    try:
        for trace in parse_traces(lines, catalog):
            parsed.append(trace)
    except (TraceFormatError, UnknownBehaviorError) as exc:
        return parsed, exc
    return parsed, None


def _stream_lines(records):
    return jsonl(*({"id": f"r{n}", "steps": steps} for n, steps in enumerate(records, start=1)))


# Numbers as JSON may spell them, for lines written as text: ids in and out
# of the catalog, -0, negatives, floats, constants and other JSON values.
_token = st.sampled_from(
    ["1", "3", "5", "7", "11", "0", "-0", "99", "-1", "1.0", "1e2", "7E0", "NaN", "-Infinity",
     "true", "false", "null", '"7"', "[]", "{}"]
)


_space = st.sampled_from(["", " ", "\n"])


def _spell(items, space):
    """A list of tokens as JSON text, with space() inside its brackets and after each comma."""
    text = "".join(
        ("," + space() if index else "") + (_spell(e, space) if isinstance(e, list) else e)
        for index, e in enumerate(items)
    )
    return "[" + space() + text + space() + "]"


def _oracle_lines(lines, known):
    """Each line's trace or RecordError, from json.loads and the per-step oracle alone.

    The lines carry distinct ids and no label, so only their JSON and steps can fail."""
    outcomes = []
    for line_no, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except ValueError as exc:
            outcomes.append(RecordError(line_no, f"line {line_no}: not valid JSON: {exc}"))
            continue
        if not isinstance(obj, dict):
            outcomes.append(RecordError(line_no, f"line {line_no}: record is not a JSON object"))
        elif not isinstance(obj["id"], str):
            outcomes.append(RecordError(line_no, f"line {line_no}: missing or non-string 'id'"))
        elif obj.get("label") is not None:
            outcomes.append(RecordError(line_no, (
                f"line {line_no}: trace {obj['id']!r}: "
                "label must be one of ('malicious', 'benign') or null"
            )))
        elif not isinstance(obj["steps"], list):
            outcomes.append(RecordError(
                line_no, f"line {line_no}: trace {obj['id']!r}: 'steps' must be an array"
            ))
        else:
            try:
                steps = oracle_steps(obj["steps"], obj["id"], line_no, known)
            except (TraceFormatError, UnknownBehaviorError) as exc:
                outcomes.append(RecordError(line_no, str(exc)))
            else:
                outcomes.append(BehaviorTrace(obj["id"], steps))
    return outcomes


class TestStreamSharedSteps:
    """Steps are shared by the whole stream, and every record still parses as if alone."""

    # A cap of 4 entries makes the memo start over every few steps, so one
    # stream meets shared hits and steps checked after a clear.
    @settings(max_examples=300, deadline=None)
    @given(records=_stream, with_catalog=st.booleans())
    @example(records=[[[1, 2]], [[True, 2], [5, []]]], with_catalog=False)
    @example(records=[[7, [1, 3]], [7, 7, [1.0, 3]]], with_catalog=True)
    def test_every_record_matches_the_per_step_oracle(self, catalog, records, with_catalog):
        used = catalog if with_catalog else None
        expected = _oracle_stream(records, used and used.ids)
        lines = _stream_lines(records)
        with mock.patch.object(ingest, "_SHARED_STEPS", 4):
            scanned = list(scan_traces(lines, used))
            parsed, raised = _parse_until_error(lines, used)
        assert [type(item) for item in scanned] == [
            RecordError if isinstance(e, Exception) else BehaviorTrace for e in expected
        ]
        for line_no, (item, outcome) in enumerate(zip(scanned, expected), start=1):
            if isinstance(outcome, Exception):
                assert item == RecordError(line_no, str(outcome))
            else:
                assert item == outcome
        first_bad = next((e for e in expected if isinstance(e, Exception)), None)
        assert parsed == expected[: len(parsed)]
        if first_bad is None:
            assert raised is None and len(parsed) == len(expected)
        else:
            assert len(parsed) == expected.index(first_bad)
            assert type(raised) is type(first_bad) and str(raised) == str(first_bad)
        for trace in scanned:  # a run of equal steps is one object, at any cap
            steps = getattr(trace, "steps", ())
            assert all(after is step or after != step for step, after in zip(steps, steps[1:]))

    def test_equal_steps_share_one_tuple_across_records(self, catalog):
        first, second = parse_traces(
            jsonl({"id": "a", "steps": [7, [11, 3]]}, {"id": "b", "steps": [[7], [11, 3], 7]}),
            catalog,
        )
        assert second.steps == ((7,), (11, 3), (7,))
        assert second.steps[0] is first.steps[0] and second.steps[2] is first.steps[0]
        assert second.steps[1] is first.steps[1]

    @pytest.mark.parametrize(
        "later, reason",
        [
            ([[True, 3]], "step 0 holds True"),
            ([[1.0, 3]], "step 0 holds 1.0"),
            ([7, [3, 1.0]], "step 1 holds 1.0"),
            ([[True]], "step 0 holds True"),
            ([True], "step 0 holds True"),
            ([1.0], "step 0 holds 1.0"),
            ([["7"]], "step 0 holds '7'"),
            ([[]], "step 0 is empty"),
            ([[1, [3]]], "step 0 holds [3]"),
            ([[1, {"3": 3}]], "step 0 holds {'3': 3}"),
            ([[True, 3], [5, []]], "step 0 holds True"),
            ([[1, 3], [True, 3], [5, [3]]], "step 1 holds True"),
        ],
    )
    def test_an_entry_equal_to_a_shared_step_is_still_rejected(self, catalog, later, reason):
        lines = jsonl({"id": "a", "steps": [1, 7, [1, 3], [3, 1]]}, {"id": "b", "steps": later})
        first, error = scan_traces(lines, catalog)
        assert first.steps == ((1,), (7,), (1, 3), (3, 1))
        assert error == RecordError(2, f"line 2: trace 'b': {reason}" + (
            "" if reason.endswith("empty") else ", expected a non-negative integer behavior id"
        ))
        with pytest.raises(TraceFormatError) as raised:
            list(parse_traces(lines, catalog))
        assert str(raised.value) == error.reason

    def test_a_miss_after_a_hit_reports_the_first_bad_step(self):
        # The shared (1, 2) answers the lookup of [true, 2], and the error at
        # step 1 comes first; the record is checked again and fails at step 0.
        lines = jsonl({"id": "a", "steps": [[1, 2]]}, {"id": "b", "steps": [[True, 2], [5, []]]})
        error = list(scan_traces(lines))[1]
        assert error.reason == (
            "line 2: trace 'b': step 0 holds True, expected a non-negative integer behavior id"
        )

    @pytest.fixture
    def checked(self, monkeypatch):
        """Each step the decoder checks, and the id of each line json.loads reads, in order.

        Also records the largest size the decoder's memo reached, and how often a miss
        met it full. A miss on an id's text is not logged."""
        log = {"steps": [], "largest": 0, "full": 0}
        missing = ingest._Memo.__missing__

        def decoded(memo, key):
            if type(key) is str:
                return missing(memo, key)
            log["full"] += len(memo) >= ingest._SHARED_STEPS
            step = missing(memo, key)  # raises for a key the decoder path cannot take
            log["steps"].append(("decoded", step))
            log["largest"] = max(log["largest"], len(memo))
            return step

        def loads(line):  # the exact path
            obj = json.loads(line)
            log["steps"].append(("exact", obj["id"]))
            return obj

        monkeypatch.setattr(ingest._Memo, "__missing__", decoded)
        monkeypatch.setattr(ingest, "json", SimpleNamespace(JSONDecoder=json.JSONDecoder, loads=loads))
        return log

    def test_a_full_memo_is_tried_once_and_runs_still_share(self, catalog, monkeypatch, checked):
        monkeypatch.setattr(ingest, "_SHARED_STEPS", 9)
        a, b, c, d = parse_traces(jsonl(
            {"id": "a", "steps": [7, 5, 7, [7], [5, 7], [5, 7]]},
            {"id": "b", "steps": [11, 11, 7, [11]]},
            {"id": "c", "steps": [3, 3, 7]},
            {"id": "d", "steps": [7, 3]},
        ), catalog)
        # 7 and 5 take three entries each (text, (id,) and [id]'s key), [5, 7] one and 11
        # three more; 3's text is stored on its miss, then (3,) finds the memo full, so c and
        # every later line take the exact path.
        assert checked["steps"] == [
            ("decoded", (7,)), ("decoded", (5,)), ("decoded", (5, 7)), ("decoded", (11,)),
            ("exact", "c"), ("exact", "d"),
        ]
        assert checked["largest"] <= 9 + ingest._SHARED_WIDTH + 1  # then a miss raises
        assert checked["full"] == 1  # once full, the stream stops trying the decoder
        assert a.steps[0] is a.steps[2] is a.steps[3] and a.steps[4] is a.steps[5]
        assert b.steps[0] is b.steps[1] is b.steps[3] and b.steps[2] is a.steps[0]
        assert c.steps[0] is c.steps[1] and c.steps[2] == a.steps[0]
        assert d.steps == ((7,), (3,))
        (error,) = scan_traces(jsonl({"id": "e", "steps": [7, 5, 99]}), catalog)
        assert error.reason.startswith("line 1: unknown behavior id 99")

    def test_past_the_cap_a_run_is_one_object(self, monkeypatch, checked):
        monkeypatch.setattr(ingest, "_SHARED_STEPS", 64)
        runs = [[3, 1]] * 1000 + [1] * 1000
        first, second = parse_traces(jsonl(
            {"id": "a", "steps": list(range(100, 110)) + runs},
            {"id": "b", "steps": list(range(200, 240)) + runs},  # 40 distinct ids fill the memo
        ))
        # The decoder checks a's steps once each, and b's first ids until the memo is full;
        # then b takes the exact path.
        decoded = [(i,) for i in range(100, 110)] + [(3, 1), (1,)]
        decoded += [(i,) for i in range(200, 210)]  # (64 - 35) // 3 + 1 ids fit before it is full
        assert checked["steps"] == [("decoded", s) for s in decoded] + [("exact", "b")]
        assert checked["largest"] <= 64 + ingest._SHARED_WIDTH + 1 and checked["full"] == 1
        for trace in (first, second):
            assert len({id(step) for step in trace.steps[-2000:-1000]}) == 1
            assert len({id(step) for step in trace.steps[-1000:]}) == 1
        monkeypatch.setattr(ingest, "_SHARED_STEPS", 4)
        (third,) = parse_traces(jsonl({"id": "c", "steps": list(range(300, 340)) + runs}))
        assert len({id(step) for step in third.steps[40:1040]}) == 1
        assert len({id(step) for step in third.steps[1040:]}) == 1

    def test_an_ignored_number_no_step_may_hold_is_decoded(self, checked):
        lines = [
            '{"id": "a", "steps": [7]}',
            '{"id": "b", "steps": [-1]}',  # a bad line: the exact path words it
            '{"id": "c", "at": 1.5, "steps": [5]}',
            '{"id": "d", "steps": [11]}',
            '{"id": "e", "at": -2, "steps": [3]}',
            '{"id": "f", "at": [NaN, -Infinity, 1e2], "steps": [13]}',
        ]
        assert list(scan_traces(lines)) == _oracle_lines(lines, None)
        assert checked["steps"] == [
            ("decoded", (7,)), ("exact", "b"), ("decoded", (5,)), ("decoded", (11,)),
            ("decoded", (3,)), ("decoded", (13,)),
        ]

    def test_integers_in_an_ignored_key_never_fill_the_memo(self, monkeypatch):
        monkeypatch.setattr(ingest, "_SHARED_STEPS", 16)
        lines = [f'{{"id": "t{n}", "ts": {1000 + n}, "steps": [7]}}' for n in range(40)]
        traces = list(parse_traces(lines))
        assert traces[-1].steps == ((7,),) and traces[-1].steps[0] is traces[0].steps[0]

    @pytest.mark.parametrize("with_catalog", [True, False])
    def test_with_a_catalog_each_id_text_misses_once(self, catalog, monkeypatch, with_catalog):
        # A line is decoded before its steps are stored. With a catalog, which bounds them,
        # an id's text is stored on its first miss; without one, only once a step holds it.
        misses = []
        missing = ingest._Memo.__missing__

        def counted(memo, key):
            if type(key) is str:
                misses.append(key)
            return missing(memo, key)

        monkeypatch.setattr(ingest._Memo, "__missing__", counted)
        lines = ['{"id": "a", "ts": 3, "steps": [7, 5, [5, 7], 7, 11, [11], 5, 3]}',
                 '{"id": "b", "steps": [3, 7, [11, 5]]}']
        a, b = parse_traces(lines, catalog if with_catalog else None)
        assert a.steps[0] is a.steps[3] and a.steps[1] is a.steps[6] and b.steps[1] is a.steps[0]
        assert misses == (["3", "7", "5", "11"] if with_catalog
                          else ["3", "7", "5", "5", "7", "7", "11", "11", "5", "3"])

    @pytest.mark.parametrize("with_catalog", [True, False])
    @pytest.mark.parametrize(
        "record",
        [
            '{"id": "r2", "steps": [7, 1e2]}',
            '{"id": "r2", "steps": [[7, 1.0], 5]}',
            '{"id": "r2", "steps": [1.0]}',
            '{"id": "r2", "steps": [7, [5, 7]], "seen": 1e2}',
            '{"id": "r2", "steps": [7], "seen": 1.0, "at": [3, 1.5]}',
            '{"id": "r2", "steps": [-0, [0, 7], [-0], [-0, 0]]}',
            '{"id": "r2", "steps": [7, -1]}',
            '{"id": "r2", "steps": [NaN]}',
            '{"id": "r2", "steps": [[7, -Infinity]]}',
            '{"id": "r2", "steps": [7, ' + "1" * 5000 + "]}",
            '{"id": "r2", "steps": [99]}',
            '{"id": "r2", "steps": [[7, 99]], "seen": 99}',
            '{"id": "r2", "steps": [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17]]}',
            '{"id": "r2", "steps": [7, [7], [], 5]}',
            '{"id": "r2", "steps": [[5, 7, 5]]}',
            '{"id": "r2", "steps": [[7, "5"], 5]}',
            '{"id": "r2", "steps": [[7, null]]}',
            '{"id": "r2", "steps": ["75"]}',
            '{"id": "r2", "steps": {"7": 5}}',
            '{"id": "r2", "steps": ""}',
            '{"id": 7, "steps": [7]}',
            '{"id": "r2", "steps": [7], "label": 5}',
            "[7, 5]",
            "7",
            '{"id": "r2", "steps": [7, 5]',
        ],
    )
    def test_a_line_the_memo_cannot_answer_matches_json_loads_and_the_oracle(
        self, catalog, record, with_catalog
    ):
        used = catalog if with_catalog else None
        # The first line fills the memo with good steps, so the second meets hits and misses.
        lines = ['{"id": "r1", "steps": [7, 5, 1, 3, [5, 7], [1, 3], [7, 5]]}', record]
        expected = _oracle_lines(lines, used and used.ids)
        assert list(scan_traces(lines, used)) == expected
        parsed, raised = _parse_until_error(lines, used)
        if isinstance(expected[1], RecordError):
            assert parsed == expected[:1] and str(raised) == expected[1].reason
        else:
            assert parsed == expected and raised is None

    @pytest.mark.parametrize(
        "extra, shared, reason",
        [
            ('"score": 1.5', True, None),
            ('"score": NaN', True, None),
            ('"at": -3', True, None),
            ('"ts": 99', True, None),
            ('"flag": true', True, None),
            ('"note": "true", "x": [1, true]', True, None),
            ('"id": "false and true"', True, None),
            ('"x": [true]', False, None),
            ('"x": [\n false ]', False, None),
            ('"note": "[true]"', False, None),
            ('"label": "true"', False,
             "line 2: trace 'r2': label must be one of ('malicious', 'benign') or null"),
            ('"steps": [7, [ true ]]', False,
             "line 2: trace 'r2': step 1 holds True, expected a non-negative integer behavior id"),
            ('"steps": [[7, false]]', False,
             "line 2: trace 'r2': step 0 holds False, expected a non-negative integer behavior id"),
        ],
    )
    def test_only_a_list_of_one_bool_keeps_a_good_line_off_the_decoder(
        self, catalog, extra, shared, reason
    ):
        # Decoded, [true] would be (True,) == (1,), a shared step; any other spelling of a
        # bool, and any number no step may hold, fails the step it is in or is ignored.
        lines = [
            '{"id": "r1", "steps": [7, 5, 1, [5, 7]]}',
            f'{{"id": "r2", "steps": [7, [5, 7]], "label": null, {extra}}}',
        ]
        first, second = scan_traces(lines, catalog)
        assert second == _oracle_lines(lines, catalog.ids)[1]
        if reason is not None:
            assert second == RecordError(2, reason)
        else:
            # The exact path shares no step with another line: equal, but not the same object.
            assert (second.steps[0] is first.steps[0]) is shared
            assert (second.steps[1] is first.steps[3]) is shared

    def test_a_memo_that_overflows_mid_stream_matches_the_oracle(self, catalog, monkeypatch):
        monkeypatch.setattr(ingest, "_SHARED_STEPS", 5)
        records = [
            [7, 5, 7, [7]],  # 7 and 5 fill the memo past its 5 entries: decoded
            [5, 7, 11, 11, [11, 7], [11, 7]],  # 11 finds it full: the exact path, from here on
            [7, [11, 7], 5, 99],
            [[7, 11], 7, 7, 3],
        ]
        lines = _stream_lines(records)
        expected = _oracle_stream(records, catalog.ids)
        scanned = list(scan_traces(lines, catalog))
        assert scanned[2] == RecordError(3, str(expected[2]))
        assert [scanned[i] for i in (0, 1, 3)] == [expected[i] for i in (0, 1, 3)]
        for trace in (scanned[0], scanned[1], scanned[3]):
            steps = trace.steps
            assert all(after is step or after != step for step, after in zip(steps, steps[1:]))
        assert scanned[0].steps[3] is scanned[0].steps[0]

    # Lines spelt as text, so numbers and spacing take every JSON form; 200 examples, about 1.5 s.
    @settings(max_examples=200, deadline=None)
    @given(
        records=st.lists(st.lists(st.one_of(_token, st.lists(_token, max_size=4)), max_size=8),
                         min_size=1, max_size=6),
        extra=st.one_of(st.none(), _token, st.lists(_token, max_size=3)),
        with_catalog=st.booleans(),
        data=st.data(),
    )
    def test_every_line_matches_json_loads_and_the_oracle(
        self, catalog, records, extra, with_catalog, data
    ):
        def space():
            return data.draw(_space)

        used = catalog if with_catalog else None
        if isinstance(extra, list):
            extra = _spell(extra, space)
        tail = "}" if extra is None else f', "x": {extra}}}'
        lines = [
            f'{{"id": "r{n}", "steps": {_spell(steps, space)}{tail}'
            for n, steps in enumerate(records, start=1)
        ]
        expected = _oracle_lines(lines, used and used.ids)
        scanned = list(scan_traces(lines, used))
        assert scanned == expected
        for trace in scanned:  # a run of equal steps is one object
            steps = getattr(trace, "steps", ())
            assert all(after is step or after != step for step, after in zip(steps, steps[1:]))

    def test_only_narrow_steps_are_shared(self):
        narrow, wide = list(range(ingest._SHARED_WIDTH)), list(range(ingest._SHARED_WIDTH + 1))
        (trace,) = parse_traces(jsonl({"id": "a", "steps": [narrow, narrow, wide, wide]}))
        assert trace.steps[0] is trace.steps[1]
        assert trace.steps[2] == trace.steps[3] and trace.steps[2] is not trace.steps[3]


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

    def test_steps_that_are_not_an_array_are_one_record_error(self, catalog):
        (error,) = scan_traces(jsonl({"id": "b", "steps": 7}), catalog)
        assert error == RecordError(1, "line 1: trace 'b': 'steps' must be an array")

    def test_rejects_exactly_the_violating_records(self, catalog):
        records = [{"id": f"t{i}", "steps": [7, 5]} for i in range(10)]
        records[3]["steps"] = [99]
        records[7]["steps"] = [[]]
        items = list(scan_traces(jsonl(*records), catalog))
        good = [i.trace_id for i in items if isinstance(i, BehaviorTrace)]
        bad = [i.line for i in items if isinstance(i, RecordError)]
        assert good == [f"t{i}" for i in range(10) if i not in (3, 7)]
        assert bad == [4, 8]


class TestThrownErrors:
    """A caller refuses a trace by throwing its error into the reader, which names the line."""

    LINES = jsonl({"id": "a", "steps": [7]}, {"id": "b", "steps": [5]}, {"id": "c", "steps": [1]})

    def test_a_strict_parse_raises_it_named_by_the_traces_line(self, catalog):
        traces = parse_traces(self.LINES, catalog)
        assert [next(traces).trace_id, next(traces).trace_id] == ["a", "b"]
        with pytest.raises(PatternError) as raised:
            traces.throw(PatternError("x"))
        assert str(raised.value) == "line 2: x"
        assert raised.value.line == 2
        assert list(traces) == []

    def test_a_scan_yields_it_as_a_record_error_and_goes_on(self, catalog):
        traces = scan_traces(self.LINES, catalog)
        assert [next(traces).trace_id, next(traces).trace_id] == ["a", "b"]
        assert traces.throw(PatternError("x")) == RecordError(2, "line 2: x")
        assert [t.trace_id for t in traces] == ["c"]


NOT_UTF8 = (
    "line 2: not valid UTF-8: "
    "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
)


class TestUndecodableAndBlankLines:
    GOOD = json.dumps({"id": "a", "steps": [7]}).encode("utf-8") + b"\n"

    def test_a_line_that_is_not_utf8_is_one_record_error(self, catalog):
        items = list(scan_traces([self.GOOD, b"\xff\n", b"{nope\n"], catalog))
        assert items[1] == RecordError(2, NOT_UTF8)
        assert [type(i) for i in items] == [BehaviorTrace, RecordError, RecordError]

    def test_a_line_that_is_not_utf8_stops_a_strict_parse(self, catalog):
        with pytest.raises(TraceFormatError) as raised:
            list(parse_traces([self.GOOD, b"\xff\n"], catalog))
        assert str(raised.value) == NOT_UTF8

    @pytest.mark.parametrize(
        "blank",
        [b"\n", b"  \t\r\n", "\u00a0\n".encode("utf-8"), "\u00a0\u3000", "   "],
        ids=["empty", "ascii-space", "nbsp-bytes", "unicode-space-text", "space-text"],
    )
    def test_a_whitespace_line_is_skipped_and_still_counted(self, catalog, blank):
        items = list(scan_traces([self.GOOD, blank, b"{nope\n"], catalog))
        assert [type(i) for i in items] == [BehaviorTrace, RecordError]
        assert items[1].line == 3 and items[1].reason.startswith("line 3: not valid JSON")


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
        for flat in (PATTERN_A, PATTERN_B):
            assert [b for b, count in compress_runs(flat) for _ in range(count)] == flat

    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=60))
    def test_round_trip(self, flat):
        assert [b for b, count in compress_runs(flat) for _ in range(count)] == flat

    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=60))
    def test_adjacent_runs_always_differ(self, flat):
        runs = compress_runs(flat)
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
        assert all(count >= 1 for _, count in runs)

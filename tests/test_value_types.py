"""The contract of the package's value types.

Each is built by position or keyword, compared and hashed by its fields,
printed as its fields, and no field can be assigned. Each is a named
tuple of its fields.
"""

from __future__ import annotations

import pytest

from behaviordfa.catalog import BehaviorSpec
from behaviordfa.classify import Classification, MatchResult, Verdict, classify
from behaviordfa.dfa import BehaviorDfa, Transition, ValidationIssue
from behaviordfa.ingest import BehaviorTrace, RecordError

from helpers import PATTERN_A, make_trace

FINGERPRINT = "0" * 64

FIELDS = {
    BehaviorSpec: ("id", "name", "weight"),
    BehaviorTrace: ("trace_id", "steps", "label"),
    RecordError: ("line", "reason"),
    BehaviorDfa: ("state_count", "transitions", "finals", "catalog_fingerprint", "pattern_count"),
    ValidationIssue: ("kind", "detail"),
}
# (type, field values in order, the same type with one field changed)
CASES = [
    (BehaviorSpec, (1, "Find DOM Element(s)", 2), (1, "Find DOM Element(s)", 3)),
    (BehaviorTrace, ("t", ((7,), (11, 3)), "malicious"), ("t", ((7,), (11, 3)), None)),
    (RecordError, (3, "line 3: not valid JSON"), (4, "line 3: not valid JSON")),
    (
        BehaviorDfa,
        (2, (Transition(0, 7, 1, 3),), frozenset({1}), FINGERPRINT, 1),
        (2, (Transition(0, 7, 1, 3),), frozenset({1}), FINGERPRINT, 2),
    ),
    (ValidationIssue, ("no-finals", "model has no final states"), ("no-finals", "other")),
]
IDS = [case[0].__name__ for case in CASES]


def fields_of(obj) -> tuple:
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


@pytest.mark.parametrize("cls, values, changed", CASES, ids=IDS)
class TestContract:
    def test_positional_and_keyword_construction_agree(self, cls, values, changed):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(FIELDS[cls], values)))
        assert by_position == by_keyword
        assert fields_of(by_keyword) == values

    def test_no_field_can_be_assigned(self, cls, values, changed):
        obj = cls(*values)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        assert fields_of(obj) == values

    def test_equality_and_hash_go_by_field(self, cls, values, changed):
        one, other = cls(*values), cls(*values)
        assert one is not other and one == other and hash(one) == hash(other)
        assert not one != other
        assert cls(*changed) != one

    def test_repr_shows_every_field(self, cls, values, changed):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[cls], values))
        assert repr(cls(*values)) == f"{cls.__name__}({shown})"

    def test_is_a_named_tuple_of_its_fields(self, cls, values, changed):
        obj = cls(*values)
        assert isinstance(obj, tuple) and obj._fields == FIELDS[cls]
        assert tuple(obj) == values and len(obj) == len(values)


def test_trace_holds_its_steps_as_a_tuple():
    trace = BehaviorTrace("t", [[7]])
    assert type(trace.steps) is tuple and trace.steps == ([7],)
    assert trace.label is None
    assert BehaviorTrace("t", (s for s in [(7,), (5,)])).steps == ((7,), (5,))


def test_model_sorts_any_iterable_of_transitions_and_freezes_finals():
    edges = [Transition(1, 5, 2, 3), Transition(0, 7, 1, 3), Transition(1, 5, 1, 3)]
    dfa = BehaviorDfa(3, iter(edges), {2}, FINGERPRINT, 1)
    assert dfa.transitions == tuple(sorted(edges))
    assert type(dfa.transitions) is tuple
    assert type(dfa.finals) is frozenset and dfa.finals == {2}
    assert dfa == BehaviorDfa(3, reversed(edges), [2], FINGERPRINT, 1)


def test_model_index_is_built_once_and_is_no_field():
    dfa = BehaviorDfa(2, [Transition(0, 7, 1, 3)], {1}, FINGERPRINT, 1)
    assert "_tables" not in vars(dfa)
    tables = dfa._tables
    assert dfa._tables is tables and "_tables" in vars(dfa)
    assert dfa == BehaviorDfa(2, [Transition(0, 7, 1, 3)], {1}, FINGERPRINT, 1)
    with pytest.raises(AttributeError):
        dfa.extra = 1
    assert dfa._tables is tables


@pytest.mark.parametrize(
    "steps, verdict",
    [(PATTERN_A, Verdict.MALIGN), ([7, 5, 1, 1], Verdict.PARTIALLY_MALIGN), ([11], Verdict.BENIGN)],
    ids=["malign", "partial", "benign"],
)
def test_classify_returns_the_public_result_types(seed_dfa, steps, verdict):
    outcome = classify(seed_dfa, make_trace(steps, trace_id="t", label="malicious"))
    match, final = outcome.match, outcome.final_state
    assert type(outcome) is Classification and type(match) is MatchResult
    assert (final is None) == (verdict is Verdict.BENIGN)
    assert final is None or type(final) is int
    rebuilt_match = MatchResult(
        end_state=match.end_state,
        consumed_steps=match.consumed_steps,
        diverged=match.diverged,
        reached_final=match.reached_final,
        model=match.model,
    )
    assert rebuilt_match == match and hash(rebuilt_match) == hash(match)
    assert tuple(rebuilt_match) == tuple(match)
    rebuilt = Classification(
        trace_id=outcome.trace_id,
        label=outcome.label,
        verdict=outcome.verdict,
        match=rebuilt_match,
        final_state=final,
    )
    assert (rebuilt.trace_id, rebuilt.label, rebuilt.verdict) == ("t", "malicious", verdict)
    assert rebuilt == outcome and hash(rebuilt) == hash(outcome)
    assert tuple(rebuilt) == tuple(outcome)

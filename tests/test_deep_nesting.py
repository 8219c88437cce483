"""JSON nested as deep as the parser allows, or deeper, is an input error.

Each loader is fed a value nested 850 to 1,000 levels deep, and 5,000:
around 1,000 levels the JSON parser runs out of Python stack, so the sweep
covers both values that parse and values that do not. A value that parses
must have its error message rendered; one that does not is `not valid
JSON`. Either way the loader raises its own error type and nothing else,
and a trace line nested too deep is one record error among good records.
"""

from __future__ import annotations

import pytest

from behaviordfa.catalog import load_catalog
from behaviordfa.dfa import build_dfa, deserialize, serialize
from behaviordfa.errors import CatalogError, ModelFormatError
from behaviordfa.ingest import BehaviorTrace, RecordError, scan_traces

DEPTHS = [*range(850, 1001), 5000]
GOOD_LINE = '{"id": "good", "steps": [7, 5]}'


def nested(depth: int) -> str:
    return "[" * depth + "1" + "]" * depth


@pytest.fixture(scope="module")
def model_text(catalog):
    return serialize(build_dfa([BehaviorTrace("p", [(7,), (5,)])], catalog)).decode()


# Where the nested value goes: a function of the nested value's text.
MODEL_PLACES = {
    "document": lambda model, v: v,
    "version": lambda model, v: model.replace('"version": 1', f'"version": {v}', 1),
    "states": lambda model, v: model.replace('"states": 3', f'"states": {v}', 1),
    "finals[0]": lambda model, v: model.replace('"finals": [', f'"finals": [{v}, ', 1),
    "transition entry": lambda model, v: model.replace(
        '"transitions": [', f'"transitions": [{v}, ', 1
    ),
    "transition field": lambda model, v: model.replace('"from": 0', f'"from": {v}', 1),
}
CATALOG_PLACES = {
    "document": "{v}",
    "entry": "[{v}]",
    "id": '[{{"id": {v}, "name": "a", "weight": 1}}]',
    "name": '[{{"id": 1, "name": {v}, "weight": 1}}]',
}
TRACE_PLACES = {
    "line": "{v}",
    "steps": '{{"id": "deep", "steps": {v}}}',
    "step": '{{"id": "deep", "steps": [7, {v}]}}',
    "behavior": '{{"id": "deep", "steps": [[7, {v}]]}}',
    "id": '{{"id": {v}, "steps": [7]}}',
}


@pytest.mark.parametrize("place", MODEL_PLACES)
def test_a_deep_model_value_is_a_model_format_error(model_text, place):
    for depth in DEPTHS:
        with pytest.raises(ModelFormatError):
            deserialize(MODEL_PLACES[place](model_text, nested(depth)))


@pytest.mark.parametrize("place", CATALOG_PLACES)
def test_a_deep_catalog_value_is_a_catalog_error(place):
    for depth in DEPTHS:
        with pytest.raises(CatalogError):
            load_catalog(CATALOG_PLACES[place].format(v=nested(depth)))


@pytest.mark.parametrize("place", TRACE_PLACES)
def test_a_deep_trace_line_is_one_record_error(place):
    for depth in DEPTHS:
        deep, good = scan_traces([TRACE_PLACES[place].format(v=nested(depth)), GOOD_LINE])
        assert isinstance(deep, RecordError) and deep.line == 1
        assert good == BehaviorTrace("good", [(7,), (5,)])


def test_too_deep_to_parse_is_not_valid_json(model_text):
    text = nested(5000)
    with pytest.raises(ModelFormatError, match="^model file is not valid JSON: "):
        deserialize(MODEL_PLACES["finals[0]"](model_text, text))
    with pytest.raises(CatalogError, match="^catalog file is not valid JSON: "):
        load_catalog(text)
    (error,) = scan_traces([TRACE_PLACES["steps"].format(v=text)])
    assert error.reason.startswith("line 1: not valid JSON: ")

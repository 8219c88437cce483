"""brief(): the quoted value of an error message, and what quoting costs."""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behaviordfa.errors import brief


def cut(text: str) -> str:
    return text if len(text) <= 60 else text[:57] + "..."


def cut_repr(value) -> str:
    return cut(repr(value))


# brief()'s two spellings, each with the whole text it cuts short: repr, and
# the JSON that model files use.
SPELLINGS = pytest.mark.parametrize(
    "spell, whole",
    [(None, repr), (json.JSONEncoder().iterencode, json.dumps)],
    ids=["repr", "json"],
)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner),
    max_leaves=40,
)


@SPELLINGS
@settings(deadline=None)
@given(json_values)
def test_brief_is_the_spelling_cut_to_sixty_characters(spell, whole, value):
    assert brief(value, spell) == cut(whole(value))


def test_containers_inside_themselves_read_as_repr_shows_them():
    loop = [1, 2]
    loop.append(loop)
    table = {"list": loop}
    table["table"] = table
    shared = [7]
    for value in (loop, table, [shared, shared], {"a": [table]}):
        assert brief(value) == cut_repr(value)


def test_other_types_fall_back_to_repr():
    for value in ((1, [2]), frozenset({3}), "x" * 100, 10**70, b"\x00" * 80):
        assert brief(value) == cut_repr(value)


@SPELLINGS
def test_quoting_a_huge_list_renders_only_its_head(spell, whole):
    # Its whole repr is 7.9 MB; quoting it keeps 60 characters and allocates little more.
    huge = list(range(1_000_000))
    nested = {"steps": [huge, huge]}
    tracemalloc.start()
    try:
        head = brief(huge, spell)
        nested_head = brief(nested, spell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head == whole(huge[:20])[:57] + "..."
    assert nested_head == whole({"steps": [huge[:20]]})[:57] + "..."
    assert peak < 64_000

"""brief(): the quoted value of an error message, and what quoting costs."""

from __future__ import annotations

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from behaviordfa.errors import brief


def cut_repr(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner),
    max_leaves=40,
)


@settings(deadline=None)
@given(json_values)
def test_brief_is_repr_cut_to_sixty_characters(value):
    assert brief(value) == cut_repr(value)


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


def test_quoting_a_huge_list_renders_only_its_head():
    # Its whole repr is 7.9 MB; quoting it keeps 60 characters and allocates little more.
    huge = list(range(1_000_000))
    nested = {"steps": [huge, huge]}
    tracemalloc.start()
    try:
        head = brief(huge)
        nested_head = brief(nested)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head == repr(huge[:20])[:57] + "..."
    assert nested_head == "{'steps': " + repr([huge[:20]])[: 57 - 10] + "..."
    assert peak < 64_000

"""Exception types shared across the engine, and the one rule for catching them.

Everything derived from EngineError is an input or configuration problem and maps to
CLI exit code 1; InternalInvariantError, outside that hierarchy, signals a bug and maps
to exit code 2. A fault is raised where it is found. Besides cli.main(), which reports
it, a handler only converts a foreign exception at a boundary (decoding, JSON, the OS),
adds a trace line's number, throws a refused trace's error into the reader that numbers
its line, falls back from a fast path to its exact path, or cleans up; none turns one
engine error into another or returns an exception object.
"""

from __future__ import annotations

_SHOWN = 60  # longest input value an error message quotes


def brief(value, spell=None) -> str:
    """repr(value), or the pieces `spell(value)` yields, cut to 60 characters if longer.

    Pieces are joined only until 60 characters are passed, so quoting a huge
    list or dict costs no more than a small one.
    """
    text = ""
    for piece in _repr_pieces(value, set()) if spell is None else spell(value):
        text += piece
        if len(text) > _SHOWN:
            return text[: _SHOWN - 3] + "..."
    return text


def is_text(value: str) -> bool:
    """Whether `value` encodes as UTF-8: JSON can carry a lone surrogate, UTF-8 cannot."""
    try:
        return value.isascii() or bool(value.encode("utf-8"))
    except UnicodeEncodeError:
        return False


def _repr_pieces(value, open_ids):
    """repr(value) in pieces; `open_ids` holds the containers being rendered."""
    kind = type(value)
    if kind is not list and kind is not dict:
        yield repr(value)
        return
    if id(value) in open_ids:  # a container inside itself, as repr() shows it
        yield "[...]" if kind is list else "{...}"
        return
    open_ids.add(id(value))
    yield "[" if kind is list else "{"
    for i, item in enumerate(value if kind is list else value.items()):
        if i:
            yield ", "
        if kind is dict:
            key, item = item
            yield f"{key!r}: "
        yield from _repr_pieces(item, open_ids)
    yield "]" if kind is list else "}"
    open_ids.discard(id(value))


class EngineError(Exception):
    """Base class for user-facing input and configuration errors."""


class CatalogError(EngineError):
    """Catalog file is malformed or violates catalog invariants."""


class UnknownBehaviorError(EngineError):
    """A behavior id does not resolve in the active catalog."""

    def __init__(self, behavior_id: int, context: str | None = None):
        self.behavior_id = behavior_id
        suffix = f" ({context})" if context else ""
        super().__init__(f"unknown behavior id {brief(behavior_id)}{suffix}")


class TraceFormatError(EngineError):
    """A trace record could not be parsed."""


class PatternError(EngineError):
    """A pattern is unusable for automaton construction."""


class ModelFormatError(EngineError):
    """A serialized model could not be loaded, or a model is no sound trie.

    A model's lookup index raises it too, with the loader's message, for a
    hand-built model that validate() flags.
    """


class CatalogMismatchError(EngineError):
    """The supplied catalog is not the one the model was built with."""


class InternalInvariantError(Exception):
    """An internal invariant was violated; indicates a bug, not bad input."""

"""Exception types shared across the engine.

Everything derived from EngineError is an input or configuration problem
and maps to CLI exit code 1. InternalInvariantError deliberately sits
outside that hierarchy: it signals a broken internal assumption, that
is a bug, and maps to exit code 2. A hand-edited model file that breaks
the trie shape is rejected on load as a ModelFormatError.
"""

from __future__ import annotations

_SHOWN = 60  # longest input value an error message quotes


def brief(value) -> str:
    """repr(value) for an error message, cut to 60 characters if longer."""
    text = repr(value)
    return text if len(text) <= _SHOWN else text[: _SHOWN - 3] + "..."


class EngineError(Exception):
    """Base class for user-facing input and configuration errors."""


class CatalogError(EngineError):
    """Catalog file is malformed or violates catalog invariants."""


class UnknownBehaviorError(EngineError):
    """A behavior id does not resolve in the active catalog."""

    def __init__(self, behavior_id: int, context: str | None = None):
        self.behavior_id = behavior_id
        message = f"unknown behavior id {behavior_id}"
        if context:
            message = f"{message} ({context})"
        super().__init__(message)


class TraceFormatError(EngineError):
    """A trace record could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class PatternError(EngineError):
    """A pattern is unusable for automaton construction."""


class ModelFormatError(EngineError):
    """A serialized model could not be loaded."""


class CatalogMismatchError(EngineError):
    """The supplied catalog is not the one the model was built with."""


class NoFinalReachableError(EngineError):
    """No final state is forward-reachable from the given state.

    Cannot happen for models that pass validate(); guards ones built
    directly from a BehaviorDfa constructor.
    """


class InternalInvariantError(Exception):
    """An internal invariant was violated; indicates a bug, not bad input."""

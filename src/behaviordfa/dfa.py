"""Weighted deterministic automaton over behavior sequences.

The automaton is a trie of known-malicious behavior sequences with one
twist: consecutive repeats of a behavior are collapsed into a single
forward transition plus a self-loop on its target state, so repetition
count never multiplies states. Two sequences that start with the same
runs share a common prefix path, which keeps the transition function
deterministic. The last state of every inserted sequence is final.

Every transition carries the risk weight of its behavior, frozen from the
catalog at build time; the catalog's fingerprint is recorded so a model
can never be silently combined with a different weight table. A
transition is a named tuple (source, behavior, target, weight), so
transitions sort, compare and unpack as plain tuples.

Models are immutable values. build_dfa() grows the empty model by its
patterns and add_pattern() grows a given model by one more, along the
same path, so the result is bit-for-bit what a full rebuild with the
extended pattern list would produce, including state numbering. Growing
never copies the base model: its edges are found by bisection in its
sorted transitions, so an add costs O(pattern * log model) lookups plus
one C-level copy and merge of the sorted edges. The one per-state lookup
index is built on first use, so build and add never pay for it.

The model file is 2-space-indented JSON, fixed byte for byte: serialize()
writes it from string templates, and deserialize() checks every field,
in one pass over the transitions, and the trie shape before it returns a
model.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from functools import cached_property
from typing import IO, Iterable, NamedTuple, Union

from .catalog import BehaviorCatalog, _read_json
from .errors import (
    CatalogMismatchError,
    InternalInvariantError,
    ModelFormatError,
    PatternError,
    UnknownBehaviorError,
)
from .ingest import BehaviorTrace, compress_runs

MODEL_VERSION = 1

_MODEL_KEYS = {"version", "catalog_fingerprint", "pattern_count", "states", "finals", "transitions"}
_TRANSITION_FIELDS = ("from", "on", "to", "weight")  # file keys of Transition's fields, in order
_TRANSITION_KEYS = set(_TRANSITION_FIELDS)
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{64}")
_LISTED_ISSUES = 10  # a load error names this many structural issues, then counts the rest

# The model file as json.dumps(indent=2) lays it out; serialize() fills these in.
_HEADER = (
    '{\n  "version": %d,\n  "catalog_fingerprint": %s,\n  "pattern_count": %d,\n'
    '  "states": %d,\n  "finals": %s,\n  "transitions": %s\n}\n'
)
_FINAL = "    %d"
_TRANSITION = (
    '    {\n      "from": %d,\n      "on": %d,\n      "to": %d,\n      "weight": %d\n    }'
)


class Transition(NamedTuple):
    """One labeled, weighted edge of the automaton: (source, behavior, target, weight)."""

    source: int
    behavior: int
    target: int
    weight: int


class _DfaFields(NamedTuple):
    state_count: int
    transitions: tuple[Transition, ...]
    finals: frozenset[int]
    catalog_fingerprint: str
    pattern_count: int


class BehaviorDfa(_DfaFields):
    """States 0..state_count-1, deterministic transitions, final-state set.

    State 0 is always the initial state. Transitions are kept in plain
    tuple order, which sorts by (source, behavior) first, so equality,
    serialization and DOT export are reproducible and transitions that
    share a (source, behavior) are neighbours for validate()'s determinism
    check. Lookups rely on the trie shape that validate() checks:
    forward transitions go to higher state ids, and every state but the
    initial one has exactly one incoming forward transition. The one
    lookup index, _tables, holds every per-state fact that step(), the
    prefix walk and the nearest-final lookup read; it is built on first use
    and is no field: equality, hash and repr go by the five fields.
    """

    def __new__(
        cls,
        state_count: int,
        transitions: Iterable[Transition],
        finals: Iterable[int],
        catalog_fingerprint: str,
        pattern_count: int,
    ):
        return tuple.__new__(
            cls,
            (state_count, tuple(sorted(transitions)), frozenset(finals), catalog_fingerprint,
             pattern_count),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a BehaviorDfa is immutable")

    @cached_property
    def _tables(self) -> tuple[list, list, list, list]:
        """The one per-state index (out, parent, prefix, nearest), indexed by state id.

        out maps each behavior to the transition out of the state on it,
        parent is the forward transition into the state (None for state 0),
        prefix the weight from the initial state, and nearest the final at
        or below the state with the least (prefix, id), or None when no
        final is ahead. Only forward transitions (source < target) set
        parent and prefix, so parent chains always descend and the cost
        from a state on to its nearest final is prefix[final] - prefix[state].
        A transition with an end outside the model, which only an
        unvalidated model has, is left out.
        """
        n = self.state_count
        out: list[dict[int, Transition]] = [{} for _ in range(n)]
        parent: list = [None] * n
        prefix = [0] * n
        for t in self.transitions:  # ascending sources: each prefix is set before a child reads it
            source, behavior, target, weight = t
            if 0 <= source < n and 0 <= target < n:
                out[source][behavior] = t
                if source < target:
                    parent[target] = t
                    prefix[target] = prefix[source] + weight
        finals = self.finals
        nearest: list = [s if s in finals else None for s in range(n)]
        for s in range(n - 1, 0, -1):  # descending: children have higher ids and settle first
            final = nearest[s]
            t = parent[s]
            if final is not None and t is not None:
                best = nearest[t.source]
                if best is None or (prefix[final], final) < (prefix[best], best):
                    nearest[t.source] = final
        return out, parent, prefix, nearest

    def step(self, state: int, behavior: int) -> Transition | None:
        """The unique transition out of `state` on `behavior`, if defined."""
        if 0 <= state < self.state_count:
            return self._tables[0][state].get(behavior)
        return None

    def path_from_initial(self, state: int) -> tuple[Transition, ...]:
        """The unique non-self-loop path from the initial state to `state`."""
        return self._path(0, state)

    def _path(self, start: int, end: int) -> tuple[Transition, ...]:
        """The forward transitions from `start` down to `end`, read up end's parent links."""
        parent = self._tables[1]
        path: list[Transition] = []
        current = end
        while current != start:
            t = parent[current]
            if t is None:
                raise InternalInvariantError(f"state {end} is not reachable from state {start}")
            path.append(t)
            current = t.source
        path.reverse()
        return tuple(path)


def build_dfa(patterns: Iterable[BehaviorTrace], catalog: BehaviorCatalog) -> BehaviorDfa:
    """Build the automaton from known-malicious sequences.

    Patterns must be non-empty and hold exactly one behavior per step.
    State numbering is deterministic: 0 is initial, then states in order
    of first creation while inserting patterns in input order.
    """
    pats = list(patterns)
    if not pats:
        raise PatternError("no patterns to build from")
    return _grow(BehaviorDfa(1, (), frozenset(), catalog.fingerprint(), 0), pats, catalog)


def check_catalog(dfa: BehaviorDfa, catalog: BehaviorCatalog) -> None:
    """Raise CatalogMismatchError unless `catalog` is the one the model was built with."""
    supplied = catalog.fingerprint()
    if supplied != dfa.catalog_fingerprint:
        raise CatalogMismatchError(
            f"model was built with catalog {dfa.catalog_fingerprint[:12]}..., "
            f"supplied catalog is {supplied[:12]}...; re-run with the original catalog "
            "or rebuild the model"
        )


def add_pattern(dfa: BehaviorDfa, pattern: BehaviorTrace, catalog: BehaviorCatalog) -> BehaviorDfa:
    """Insert one more pattern, returning a new model.

    The result is exactly what rebuilding from the original patterns plus
    this one would produce, state numbering included. The catalog must be
    the one the model was built with.
    """
    check_catalog(dfa, catalog)
    return _grow(dfa, [pattern], catalog)


def _flatten_pattern(pattern: BehaviorTrace) -> list[int]:
    flat: list[int] = []
    for index, step in enumerate(pattern.steps):
        if len(step) != 1:
            raise PatternError(
                f"pattern {pattern.trace_id!r}: step {index} holds "
                f"{len(step)} behaviors; patterns must use single-behavior steps"
            )
        flat.append(step[0])
    if not flat:
        raise PatternError(f"pattern {pattern.trace_id!r} is empty")
    return flat


def _grow(base: BehaviorDfa, patterns: list, catalog: BehaviorCatalog) -> BehaviorDfa:
    """`base` grown by `patterns`, inserted in order; new states are numbered on from base's.

    Base is never copied: its edges are found by bisection in its sorted
    transitions, and only the edges this call adds go in a dict, so the
    cost is O(pattern * log model) lookups plus one copy and merge of the
    sorted edges. Growing the empty model, as build_dfa() does, never bisects.
    """
    edges = base.transitions
    searched = base.state_count if edges else 0  # only states below this have edges in base
    added: dict[tuple[int, int], Transition] = {}
    finals = set(base.finals)
    count = base.state_count
    for pattern in patterns:
        state = 0
        for behavior, length in compress_runs(_flatten_pattern(pattern)):
            try:
                weight = catalog.weight_of(behavior)
            except UnknownBehaviorError:
                context = f"pattern {pattern.trace_id!r}"
                raise UnknownBehaviorError(behavior, context=context) from None
            key = (state, behavior)
            existing = added.get(key)
            if existing is None and state < searched:
                existing = _edge_in(edges, key)
            if existing is None:
                nxt = count
                count += 1
                added[key] = Transition(state, behavior, nxt, weight)
            else:
                nxt = existing.target
                if nxt == state:
                    # Run-compressed input can never follow a self-loop forward.
                    raise InternalInvariantError(
                        f"adjacent runs share behavior {behavior} at state {state}"
                    )
            if length > 1 and (nxt >= searched or _edge_in(edges, (nxt, behavior)) is None):
                added[nxt, behavior] = Transition(nxt, behavior, nxt, weight)
            state = nxt
        finals.add(state)
    return BehaviorDfa(
        state_count=count,
        transitions=edges + tuple(added.values()),  # the constructor's sort merges the tail in
        finals=finals,
        catalog_fingerprint=base.catalog_fingerprint,
        pattern_count=base.pattern_count + len(patterns),
    )


def _edge_in(edges: tuple[Transition, ...], key: tuple[int, int]) -> Transition | None:
    """The transition of sorted `edges` on (source, behavior) `key`, if there is one."""
    i = bisect_left(edges, key)  # a 2-tuple sorts before every 4-tuple it prefixes
    if i < len(edges) and edges[i][:2] == key:
        return edges[i]
    return None


class ValidationIssue(NamedTuple):
    """One structural defect found by validate()."""

    kind: str
    detail: str


def validate(dfa: BehaviorDfa) -> list[ValidationIssue]:
    """Check all structural invariants; returns every violation found.

    An empty list means the model is a sound trie: deterministic, densely
    numbered, positive weights, every forward transition going to a higher
    state id, every state but the initial one entered by exactly one
    forward transition, self-loops only on such a state with the behavior
    and weight of that transition, and every leaf final. These make every
    state reachable from the initial state with a final ahead of it.
    """
    issues: list[ValidationIssue] = []

    def flag(kind: str, detail: str) -> None:
        issues.append(ValidationIssue(kind, detail))

    n = dfa.state_count
    if n < 1:
        flag("no-states", "model has no states (initial state missing)")
        return issues

    entry: list = [None] * n  # a forward transition into each state
    indegree = [0] * n
    has_child = [False] * n
    loops: list[Transition] = []
    last_source = last_behavior = None
    for t in dfa.transitions:  # sorted: transitions that share a (source, behavior) are neighbours
        source, behavior, target, weight = t
        if behavior == last_behavior and source == last_source:
            flag("determinism", f"two transitions from state {source} on behavior {behavior}")
        last_source, last_behavior = source, behavior
        if not (0 <= source < n and 0 <= target < n):
            flag(
                "state-bounds",
                f"transition {source}->{target} on {behavior} "
                f"references a state outside 0..{n - 1}",
            )
            continue
        if weight < 1:
            flag("bad-weight", f"transition {source}->{target} on {behavior} has weight {weight}")
        if source == target:
            loops.append(t)
        elif target < source:
            flag(
                "not-a-trie",
                f"transition {source}->{target} on {behavior} goes to a lower state id",
            )
        else:
            entry[target] = t
            indegree[target] += 1
            has_child[source] = True

    finals: set[int] = set()
    for f in sorted(dfa.finals):
        if 0 <= f < n:
            finals.add(f)
        else:
            flag("state-bounds", f"final state {f} outside 0..{n - 1}")
    if not finals:
        flag("no-finals", "model has no final states")

    for s in range(1, n):
        if indegree[s] == 0:
            flag("unreachable-state", f"state {s} is not reachable from the initial state")
            if s in finals:
                flag("unreachable-final", f"final state {s} is unreachable from the initial state")
        elif indegree[s] > 1:
            flag("not-a-trie", f"state {s} has {indegree[s]} incoming forward transitions")
    for t in loops:
        if t.source == 0:
            flag("bad-self-loop", f"self-loop on behavior {t.behavior} at the initial state")
        elif indegree[t.source] == 1:
            into = entry[t.source]
            if (t.behavior, t.weight) != (into.behavior, into.weight):
                flag(
                    "bad-self-loop",
                    f"self-loop on state {t.source} is behavior {t.behavior} weight {t.weight}, "
                    f"its incoming transition behavior {into.behavior} weight {into.weight}",
                )
    for s in range(n):
        if not has_child[s] and s not in finals:
            flag("no-final-ahead", f"no final state is reachable from state {s}")
    return issues


def serialize(dfa: BehaviorDfa) -> bytes:
    """The model file, fixed byte for byte and written from string templates.

    The bytes are what json.dumps(indent=2) writes for the model's document,
    plus a final newline; re-serializing a loaded model round-trips exactly.
    """
    finals = [_FINAL % f for f in sorted(dfa.finals)]
    transitions = [_TRANSITION % t for t in dfa.transitions]
    text = _HEADER % (
        MODEL_VERSION,
        json.dumps(dfa.catalog_fingerprint),
        dfa.pattern_count,
        dfa.state_count,
        _array(finals),
        _array(transitions),
    )
    return text.encode("utf-8")


def _array(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def deserialize(source: Union[bytes, str, IO[bytes], IO[str]]) -> BehaviorDfa:
    """Load a serialized model, verifying format and structural invariants.

    A rejection names its place, e.g. `transition 12: "weight"` or `finals[3]`.
    """
    doc = _read_json(source, ModelFormatError, "model")
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must be a JSON object")

    version = doc.get("version")
    if type(version) is not int or version != MODEL_VERSION:
        raise ModelFormatError(
            f"unsupported model version {version!r} (this build reads version {MODEL_VERSION})"
        )
    extra = set(doc) - _MODEL_KEYS
    if extra:
        raise ModelFormatError(f"unexpected model keys {sorted(extra)}")
    missing = _MODEL_KEYS - set(doc)
    if missing:
        raise ModelFormatError(f"missing model keys {sorted(missing)}")

    fingerprint = doc["catalog_fingerprint"]
    if not isinstance(fingerprint, str) or not _FINGERPRINT_RE.fullmatch(fingerprint):
        raise ModelFormatError("catalog fingerprint is corrupt (expected 64 hex digits)")
    states = _require_int(doc["states"], '"states"')
    if states < 1:
        raise ModelFormatError(f"state count must be positive, got {states}")
    pattern_count = _require_int(doc["pattern_count"], '"pattern_count"')
    if pattern_count < 0:
        raise ModelFormatError(f"pattern count must be non-negative, got {pattern_count}")

    raw_finals = doc["finals"]
    if not isinstance(raw_finals, list):
        raise ModelFormatError('"finals" must be an array')
    finals = frozenset(_require_int(f, f"finals[{i}]") for i, f in enumerate(raw_finals))

    raw_transitions = doc["transitions"]
    if not isinstance(raw_transitions, list):
        raise ModelFormatError('"transitions" must be an array')
    # In a trie every state but 0 has its own incoming transition.
    if states > len(raw_transitions) + 1:
        raise ModelFormatError(
            f"{states} states need at least {states - 1} transitions, got {len(raw_transitions)}"
        )
    transitions: list[Transition] = []
    for position, raw in enumerate(raw_transitions):
        # type() rather than isinstance(): JSON gives exact types, and a bool is no integer here.
        # A dict of four entries that holds the four keys has exactly those keys.
        if type(raw) is not dict or len(raw) != 4:
            raise _transition_error(position, raw)
        try:
            fields = (raw["from"], raw["on"], raw["to"], raw["weight"])
        except KeyError:
            raise _transition_error(position, raw) from None
        source, behavior, target, weight = fields
        if not (type(source) is type(behavior) is type(target) is type(weight) is int):
            raise _transition_error(position, raw)
        transitions.append(tuple.__new__(Transition, fields))

    dfa = BehaviorDfa(
        state_count=states,
        transitions=transitions,
        finals=finals,
        catalog_fingerprint=fingerprint,
        pattern_count=pattern_count,
    )
    issues = validate(dfa)
    if issues:
        listing = "; ".join(f"{i.kind}: {i.detail}" for i in issues[:_LISTED_ISSUES])
        if len(issues) > _LISTED_ISSUES:
            listing += f"; and {len(issues) - _LISTED_ISSUES} more"
        raise ModelFormatError(f"model violates structural invariants: {listing}")
    return dfa


def _require_int(value, where: str) -> int:
    if type(value) is not int:
        raise ModelFormatError(f"{where} must be an integer, got {_show(value)}")
    return value


def _transition_error(position: int, raw) -> ModelFormatError:
    """The placed error for a transition entry that deserialize() rejected."""
    if type(raw) is dict and raw.keys() == _TRANSITION_KEYS:
        try:
            for key in _TRANSITION_FIELDS:  # names the first bad field
                _require_int(raw[key], f'transition {position}: "{key}"')
        except ModelFormatError as exc:
            return exc
    return ModelFormatError(
        f"transition {position}: expected an object with keys "
        f"{sorted(_TRANSITION_KEYS)}, got {_show(raw)}"
    )


def _show(value) -> str:
    """A JSON value as the model file spells it, cut short if long."""
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def export_dot(dfa: BehaviorDfa, catalog: BehaviorCatalog) -> str:
    """Render the model as a Graphviz digraph.

    Finals are double-circled, the initial state gets an entry arrow, and
    edges are labeled "name (id, w=weight)". Output is byte-stable: nodes
    in state order, edges sorted by (source, behavior).
    """
    lines = [
        "digraph behavior_dfa {",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
    ]
    for s in range(dfa.state_count):
        shape = "doublecircle" if s in dfa.finals else "circle"
        lines.append(f"  q{s} [shape={shape}];")
    lines.append("  __start -> q0;")
    for t in dfa.transitions:
        name = catalog.name_of(t.behavior) if t.behavior in catalog else f"behavior {t.behavior}"
        label = _dot_escape(f"{name} ({t.behavior}, w={t.weight})")
        lines.append(f'  q{t.source} -> q{t.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')

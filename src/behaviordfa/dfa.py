"""Weighted deterministic automaton over behavior sequences.

The automaton is a trie of known-malicious behavior sequences with one
twist: consecutive repeats of a behavior are collapsed into a single
forward transition plus a self-loop on its target state, so repetition
count never multiplies states. Growing reads each sequence once, step by
step: a step that repeats the one before gives the current state its
self-loop, and any other step follows or makes a forward transition. Two
sequences that start with the same runs share a common prefix path, which
keeps the transition function deterministic. The last state of every
inserted sequence is final.

Every transition carries the risk weight of its behavior, frozen from the
catalog at build time; the catalog's fingerprint is recorded so a model
can never be silently combined with a different weight table. A
transition is a named tuple (source, behavior, target, weight), so
transitions sort, compare and unpack as plain tuples.

Models are immutable values. build_dfa() grows the empty model by its
patterns and add_patterns() grows a given model by more, along the same
path, so the result is bit-for-bit what a full rebuild with the extended
pattern list would produce, including state numbering. Growing never
copies the base model: its edges are found by bisection in its sorted
transitions, so an add costs O(patterns * log model) lookups plus one
C-level copy and merge of the sorted edges, once per call however large
the batch. The one per-state lookup index is built on first use, so
build and add never pay for it. Each model asks validate() once, and
deserialize(), add_patterns() and the index all read that answer, so a
hand-built model that is no trie gets the loader's error wherever it
goes, and neither growing nor any reader of the index guards against
one. Its out tables map a behavior to the edge's (target offset, weight)
rather than to the edge, so the many states whose edges read the same
that way, most of them the inner states of a chain, whose one edge goes
to the next state, share one table.

The model file is 2-space-indented JSON, fixed byte for byte: serialize()
writes it from bytes templates. deserialize() decodes the file to text,
letting its bytes go, then has the JSON parser make each well-formed
transition object a Transition as it goes, so neither the file nor the
transitions are ever held twice. The text goes when the parse returns,
before the fields and the trie shape are checked. Only a JSON-shape error
is worded from a second, plain parse of the same source, read again.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, NamedTuple, Union

from .catalog import BehaviorCatalog, _read_json, _read_text
from .errors import (
    CatalogMismatchError,
    ModelFormatError,
    PatternError,
    UnknownBehaviorError,
    brief,
)
from .ingest import BehaviorTrace

MODEL_VERSION = 1

_MODEL_KEYS = {"version", "catalog_fingerprint", "pattern_count", "states", "finals", "transitions"}
_TRANSITION_FIELDS = ("from", "on", "to", "weight")  # file keys of Transition's fields, in order
_TRANSITION_KEYS = set(_TRANSITION_FIELDS)
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{64}")
_LISTED_ISSUES = 10  # a load error names this many structural issues, then counts the rest

# The model file as json.dumps(indent=2) lays it out; serialize() fills these in.
_HEADER = (
    b'{\n  "version": %d,\n  "catalog_fingerprint": %s,\n  "pattern_count": %d,\n'
    b'  "states": %d,\n  "finals": %s,\n  "transitions": %s\n}\n'
)
_FINAL = b"    %d"
_TRANSITION = (
    b'    {\n      "from": %d,\n      "on": %d,\n      "to": %d,\n      "weight": %d\n    }'
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
    lookup index, _tables, holds every per-state fact that the prefix walk
    and the nearest-final lookup read; it is built on first use, for a
    model that validate() passes, and like validate()'s answer it is no
    field: equality, hash and repr go by the five fields.
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
    def _issues(self) -> list[ValidationIssue]:
        """validate(self), asked once per model object."""
        return validate(self)

    @cached_property
    def _tables(self) -> tuple[list, list, list, list]:
        """The one per-state index (out, parent, prefix, nearest), indexed by state id.

        Raises the loader's ModelFormatError for a model that validate()
        flags. out[s] maps each behavior to (target - s, weight) for the
        transition out of s on it: the offset is 0 for a self-loop. Every
        state whose edges read the same in this form shares one dict, and
        most do, since growing numbers each new chain of states in order:
        a state inside a chain has one edge, to s + 1. parent is the
        forward transition into the state (None for state 0), prefix the
        weight from the initial state, and nearest the final at or below
        the state with the least (prefix, id). Parent chains descend, so
        the cost from a state on to its nearest final is prefix[final] -
        prefix[state].
        """
        _refuse_unsound(self)
        n = self.state_count
        out: list = [{}] * n  # a state with no edges keeps this one empty table
        parent: list = [None] * n
        prefix = [0] * n
        shared: dict = {}  # a state's edges as a flat (behavior, offset, weight, ...) row -> table
        row = ()
        at = 0  # the state whose edges `row` holds
        # Ascending sources: each prefix is set before a child reads it. The
        # last item, of source n, settles the last state's row and is no edge.
        for t in chain(self.transitions, ((n, 0, n, 0),)):
            source, behavior, target, weight = t
            if source != at:
                if row:
                    table = shared.get(row)
                    if table is None:
                        table = shared[row] = {
                            row[i]: (row[i + 1], row[i + 2]) for i in range(0, len(row), 3)
                        }
                    out[at] = table
                    row = ()
                at = source
            row += (behavior, target - source, weight)
            if source < target:
                parent[target] = t
                prefix[target] = prefix[source] + weight
        nearest: list = [None] * n
        for f in self.finals:
            nearest[f] = f
        # Descending: children have higher ids and settle first, so each state's
        # nearest is set when it is read. A reversed list iterator reads each item
        # when it gets there, so it sees what was set.
        for final, t in zip(reversed(nearest), reversed(parent)):
            if t is not None:  # None only for the initial state
                best = nearest[t[0]]
                if best is None:
                    nearest[t[0]] = final
                else:
                    weight, least = prefix[final], prefix[best]
                    if weight < least or weight == least and final < best:
                        nearest[t[0]] = final
        return out, parent, prefix, nearest

    def path_from_initial(self, state: int) -> tuple[Transition, ...]:
        """The unique non-self-loop path from the initial state to `state`, sources ascending.

        The one walk up the parent links: every other path is a slice of one.
        """
        if not 0 <= state < self.state_count:
            raise ValueError(f"state {state} outside 0..{self.state_count - 1}")
        parent = self._tables[1]
        path: list[Transition] = []
        while state:
            t = parent[state]
            path.append(t)
            state = t[0]
        path.reverse()
        return tuple(path)


def build_dfa(patterns: Iterable[BehaviorTrace], catalog: BehaviorCatalog) -> BehaviorDfa:
    """Build the automaton from known-malicious sequences.

    Every pattern must pass check_pattern(); the first that does not raises its
    PatternError. State numbering is deterministic:
    0 is initial, then states in order of first creation, patterns in input order.
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


def check_pattern(pattern: BehaviorTrace) -> None:
    """Raise PatternError unless `pattern` can grow a model: not benign, one id in each step."""
    if pattern.label == "benign":
        raise PatternError(
            f"pattern {brief(pattern.trace_id)} is labeled benign; "
            "models are built from malicious sequences only"
        )
    if set(map(len, pattern.steps)) != {1}:  # a step not of one id, or no step at all
        for index, step in enumerate(pattern.steps):
            if len(step) != 1:
                raise PatternError(
                    f"pattern {brief(pattern.trace_id)}: step {index} holds "
                    f"{len(step)} behaviors; patterns must use single-behavior steps"
                )
        raise PatternError(f"pattern {brief(pattern.trace_id)} is empty")


def add_patterns(
    dfa: BehaviorDfa, patterns: Iterable[BehaviorTrace], catalog: BehaviorCatalog
) -> BehaviorDfa:
    """Insert a batch of patterns in order, growing the model once; returns a new model.

    The result is exactly what a rebuild with the extended pattern list would
    produce, state numbering included. A model that validate() flags raises the
    loader's ModelFormatError before the catalog is checked; validate() runs
    once per model, so a loaded model pays nothing more.
    """
    _refuse_unsound(dfa)
    check_catalog(dfa, catalog)
    return _grow(dfa, list(patterns), catalog)


def _grow(base: BehaviorDfa, patterns: list, catalog: BehaviorCatalog) -> BehaviorDfa:
    """`base` grown by `patterns`, inserted in order; new states are numbered on from base's.

    `base` is the empty model or one that validate() passes. Each pattern's steps are
    read once. A pattern that check_pattern() refuses raises its PatternError before any
    other error, yet only the constant-time checks, label and emptiness, run up front: a
    step not of one id fails to unpack, and that, like an id the catalog lacks, runs the
    full check_pattern() before it raises. A step equal to the one before gives the
    current state its self-loop, of the weight of the edge into it, unless base or this
    call has one already; any other step looks its id up in an id-to-weight dict made
    once per call, then follows its edge or makes a new one of that weight. Base is
    never copied: its edges are found by bisection in its sorted edges, and only new
    edges go in a dict, so the cost is O(pattern * log model) lookups plus one copy and
    merge of the sorted edges. Growing the empty model never bisects.
    """
    weight_of = {spec.id: spec.weight for spec in catalog.entries}.get
    edges = base.transitions
    searched = base.state_count if edges else 0  # only states below this have edges in base
    added: dict[tuple[int, int], Transition] = {}
    finals = set(base.finals)
    count = base.state_count
    for pattern in patterns:
        steps = pattern.steps
        if not steps or pattern.label == "benign":
            check_pattern(pattern)  # raises
        state = 0
        last = object()  # equal to no id, so a first step is never a repeat
        try:
            for (behavior,) in steps:
                if behavior == last:
                    key = (state, behavior)
                    if key not in added and (state >= searched or _edge_in(edges, key) is None):
                        # tuple.__new__ skips the named tuple's Python-level constructor.
                        added[key] = tuple.__new__(Transition, (state, behavior, state, weight))
                    continue
                weight = weight_of(behavior)
                if weight is None:
                    raise UnknownBehaviorError(
                        behavior, context=f"pattern {brief(pattern.trace_id)}"
                    )
                key = (state, behavior)
                existing = added.get(key)
                if existing is None and state < searched:
                    existing = _edge_in(edges, key)
                if existing is None:
                    added[key] = tuple.__new__(Transition, (state, behavior, count, weight))
                    state = count
                    count += 1
                else:  # never a self-loop: a sound state loops only on `last`, which enters it
                    _, _, state, weight = existing  # a loop on `state` copies this weight
                last = behavior
        except (ValueError, TypeError, UnknownBehaviorError):  # a bad step or id, among others
            check_pattern(pattern)  # a step not of one id, even a later one, is named first
            raise
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
    state reachable from the initial state with a final ahead of it. The
    header's pattern count and fingerprint are checked here, not on load.
    """
    issues: list[ValidationIssue] = []

    def flag(kind: str, detail: str) -> None:
        issues.append(ValidationIssue(kind, detail))

    n = dfa.state_count
    if n < 1:
        flag("no-states", "model has no states (initial state missing)")
        return issues
    m = len(dfa.transitions)
    if n > m + 1:  # in a trie every state but 0 has its own incoming transition
        flag("too-many-states", f"{n} states need at least {n - 1} transitions, got {m}")
        return issues  # before any per-state list is built
    if dfa.pattern_count < 0:
        flag("bad-pattern-count", f"pattern count must be non-negative, got {dfa.pattern_count}")
    fingerprint = dfa.catalog_fingerprint
    if not isinstance(fingerprint, str) or not _FINGERPRINT_RE.fullmatch(fingerprint):
        flag("bad-fingerprint", "catalog fingerprint is corrupt (expected 64 hex digits)")

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

    # C-level counts skip each per-state sweep that could flag nothing: the first
    # when every state but the initial one has one entry, the last when every
    # state without a child is final.
    if indegree.count(1) != n - 1:
        for s in range(1, n):
            if indegree[s] == 0:
                flag("unreachable-state", f"state {s} is not reachable from the initial state")
                if s in finals:
                    flag(
                        "unreachable-final",
                        f"final state {s} is unreachable from the initial state",
                    )
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
    if has_child.count(False) != len(finals) - sum(map(has_child.__getitem__, finals)):
        for s in range(n):
            if not has_child[s] and s not in finals:
                flag("no-final-ahead", f"no final state is reachable from state {s}")
    return issues


def serialize(dfa: BehaviorDfa) -> bytes:
    """The model file, fixed byte for byte and written from bytes templates.

    The bytes are what json.dumps(indent=2) writes for the model's document,
    plus a final newline; re-serializing a loaded model round-trips exactly.
    """
    return _HEADER % (
        MODEL_VERSION,
        json.dumps(dfa.catalog_fingerprint).encode("ascii"),
        dfa.pattern_count,
        dfa.state_count,
        _array(_FINAL, sorted(dfa.finals)),
        _array(_TRANSITION, dfa.transitions),
    )


def _array(template: bytes, values) -> bytes:
    return b"[\n" + b",\n".join(map(template.__mod__, values)) + b"\n  ]" if values else b"[]"


def deserialize(source: Union[bytes, str, IO[bytes], IO[str]]) -> BehaviorDfa:
    """Load a serialized model, verifying format and structural invariants.

    The model is decoded to text first, and the bytes read from a file go
    before the parse; the text goes when the parse returns, so it is never
    held with the model while the model is checked. The JSON parser makes
    each well-formed transition object a Transition (_transition_hook), so
    no parse tree of the transitions is built to be copied, and validate()
    checks that model once. Only a JSON-shape error is worded from a second,
    plain parse: it names its place, e.g. `finals[3]`, and shows a value as
    the file spells it, key order included. For that parse a file is read
    again from where it stood on entry, and bytes or text decoded again; a
    file that cannot seek (a pipe) is read to text first, and its text is held.
    """
    start = None
    if hasattr(source, "read"):
        seekable = getattr(source, "seekable", None)
        if seekable is not None and seekable():
            start = source.tell()
        else:
            source = _read_text(source, ModelFormatError, "model")
    doc = _read_json(source, ModelFormatError, "model", _transition_hook)
    try:
        dfa = _model(doc)
    except ModelFormatError:
        dfa = None  # a shape error: worded below from a plain parse, with no hooked error chained
    if dfa is None:
        if start is not None:
            source.seek(start)
        dfa = _model(_read_json(source, ModelFormatError, "model"))  # raises, as the hooked one did
    _refuse_unsound(dfa)
    return dfa


def _model(doc) -> BehaviorDfa:
    """The model that hooked document `doc` holds; a plain one comes only to word a shape error."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must be a JSON object")

    version = doc.get("version")
    if type(version) is not int or version != MODEL_VERSION:
        raise ModelFormatError(
            f"unsupported model version {brief(version)} (this build reads version {MODEL_VERSION})"
        )
    extra = set(doc) - _MODEL_KEYS
    if extra:
        raise ModelFormatError(f"unexpected model keys {sorted(extra)}")
    missing = _MODEL_KEYS - set(doc)
    if missing:
        raise ModelFormatError(f"missing model keys {sorted(missing)}")

    fingerprint = doc["catalog_fingerprint"]  # shapes only: validate() owns what values mean
    if not isinstance(fingerprint, str):
        shown = brief(fingerprint, json.JSONEncoder().iterencode)
        raise ModelFormatError(f'"catalog_fingerprint" must be a string, got {shown}')
    states = _require_int(doc["states"], '"states"')
    pattern_count = _require_int(doc["pattern_count"], '"pattern_count"')

    raw_finals = doc["finals"]
    if not isinstance(raw_finals, list):
        raise ModelFormatError('"finals" must be an array')
    if set(map(type, raw_finals)) - {int}:
        for i, f in enumerate(raw_finals):  # names the first entry that is not an integer
            _require_int(f, f"finals[{i}]")

    raw_transitions = doc["transitions"]
    if not isinstance(raw_transitions, list):
        raise ModelFormatError('"transitions" must be an array')
    # The hooked parse has made every well-formed entry a Transition; a plain one leaves dicts.
    if set(map(type, raw_transitions)) - {Transition}:
        for position, raw in enumerate(raw_transitions):
            if type(raw) is not Transition:
                _check_transition(position, raw)

    return BehaviorDfa(
        state_count=states,
        transitions=raw_transitions,
        finals=raw_finals,
        catalog_fingerprint=fingerprint,
        pattern_count=pattern_count,
    )


def _refuse_unsound(dfa: BehaviorDfa) -> None:
    """Raise ModelFormatError, naming the first issues, unless validate() passes `dfa`."""
    issues = dfa._issues
    if issues:
        listing = "; ".join(f"{i.kind}: {i.detail}" for i in issues[:_LISTED_ISSUES])
        if len(issues) > _LISTED_ISSUES:
            listing += f"; and {len(issues) - _LISTED_ISSUES} more"
        raise ModelFormatError(f"model violates structural invariants: {listing}")


def _transition_hook(obj: dict):
    """An object of exactly the four transition keys, each an int, as a Transition; else `obj`."""
    # A dict of four entries that holds the four keys has exactly those keys.
    # type() rather than isinstance(): JSON gives exact types, and a bool is no integer here.
    if len(obj) == 4:
        try:
            fields = obj["from"], obj["on"], obj["to"], obj["weight"]
        except KeyError:
            return obj
        source, behavior, target, weight = fields
        if type(source) is type(behavior) is type(target) is type(weight) is int:
            return tuple.__new__(Transition, fields)
    return obj


def _require_int(value, where: str) -> int:
    if type(value) is not int:
        shown = brief(value, json.JSONEncoder().iterencode)  # as the model file spells it
        raise ModelFormatError(f"{where} must be an integer, got {shown}")
    return value


def _check_transition(position: int, raw) -> None:
    """Raise the placed error unless transition entry `raw` is one _transition_hook() takes."""
    if type(raw) is not dict or raw.keys() != _TRANSITION_KEYS:
        raise ModelFormatError(
            f"transition {position}: expected an object with keys "
            f"{sorted(_TRANSITION_KEYS)}, got {brief(raw, json.JSONEncoder().iterencode)}"
        )
    for key in _TRANSITION_FIELDS:  # names the first bad field
        _require_int(raw[key], f'transition {position}: "{key}"')


def export_dot(dfa: BehaviorDfa, catalog: BehaviorCatalog) -> str:
    """Render the model as a Graphviz digraph.

    Finals are double-circled, the initial state gets an entry arrow, and
    edges are labeled "name (id, w=weight)". Output is byte-stable: nodes
    in state order, edges sorted by (source, behavior). The catalog must be
    the one the model was built with; an id it lacks is named "behavior <id>".
    """
    check_catalog(dfa, catalog)
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

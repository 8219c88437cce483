"""Behavior alphabet and per-behavior risk weights.

A catalog maps small integer behavior identifiers to human-readable names
and positive integer weights. The weight expresses how much risk a single
occurrence of that behavior carries; weights are configured by hand, never
learned. Catalogs are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator, NamedTuple, Union

from .errors import CatalogError, UnknownBehaviorError, brief, is_text


class BehaviorSpec(NamedTuple):
    """One catalog entry: identifier, display name, risk weight."""

    id: int
    name: str
    weight: int


# Stock behavior set. Ids 1, 3, 5, 7 and 11 are the conventional identifiers
# for these behaviors; 2, 4 and 6 are this package's own assignments for the
# behaviors that have no conventional number. Deployments whose capture
# pipeline numbers behaviors differently, or tracks more of them, should
# supply their own catalog file.
DEFAULT_ENTRIES: tuple[BehaviorSpec, ...] = (
    BehaviorSpec(1, "Find DOM Element(s)", 2),
    BehaviorSpec(2, "Add DOM Element(s)", 1),
    BehaviorSpec(3, "Update DOM Element", 3),
    BehaviorSpec(4, "Inject Code Dynamically", 4),
    BehaviorSpec(5, "Set Callback", 3),
    BehaviorSpec(6, "Access Input", 4),
    BehaviorSpec(7, "Add Event Handler", 3),
    BehaviorSpec(11, "Send Data", 5),
)

# fingerprint() of the stock entries, so that a run with them never imports hashlib. Entries
# hold only ints and strs (_check_spec), so equal entries always hash to this.
_DEFAULT_FINGERPRINT = "fc897b951b9c5b9ddef4c80c3a3f43974d78288785bc3417285d68daab9eca0a"

_ENTRY_KEYS = {"id", "name", "weight"}


def _check_spec(spec: BehaviorSpec, where: str) -> None:
    if isinstance(spec.id, bool) or not isinstance(spec.id, int) or spec.id < 0:
        raise CatalogError(
            f"{where}: behavior id must be a non-negative integer, got {brief(spec.id)}"
        )
    if not isinstance(spec.name, str) or not spec.name:
        raise CatalogError(f"{where}: behavior {spec.id}: name must be a non-empty string")
    if not is_text(spec.name):
        raise CatalogError(f"{where}: behavior {spec.id}: name is not valid Unicode text")
    if isinstance(spec.weight, bool) or not isinstance(spec.weight, int) or spec.weight < 1:
        raise CatalogError(
            f"{where}: behavior {spec.id} ({brief(spec.name)}): "
            f"non-positive weight {brief(spec.weight)}"
        )


class BehaviorCatalog:
    """Immutable registry of behaviors, looked up by id; names are unique too.

    The constructor is the one place entries are checked; an error names
    the entry by its 1-based position, as `entry 3: ...`.
    """

    def __init__(self, entries: Iterable[BehaviorSpec]):
        by_id: dict[int, BehaviorSpec] = {}
        names: set[str] = set()
        for position, spec in enumerate(entries, start=1):
            where = f"entry {position}"
            _check_spec(spec, where)
            if spec.id in by_id:
                raise CatalogError(f"{where}: duplicate behavior id {spec.id}")
            if spec.name in names:
                raise CatalogError(f"{where}: duplicate behavior name {brief(spec.name)}")
            by_id[spec.id] = spec
            names.add(spec.name)
        self._by_id = by_id
        self._ids = frozenset(by_id)
        self._fingerprint: str | None = None

    def __contains__(self, behavior_id: int) -> bool:
        return behavior_id in self._by_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BehaviorCatalog):
            return NotImplemented
        return self._by_id == other._by_id

    def __repr__(self) -> str:
        return f"BehaviorCatalog({len(self._by_id)} behaviors)"

    @property
    def ids(self) -> frozenset[int]:
        """Every behavior id, for membership tests that run once per id."""
        return self._ids

    @property
    def entries(self) -> tuple[BehaviorSpec, ...]:
        """All entries, sorted by id."""
        return tuple(self._by_id[i] for i in sorted(self._by_id))

    def name_of(self, behavior_id: int) -> str:
        spec = self._by_id.get(behavior_id)
        if spec is None:
            raise UnknownBehaviorError(behavior_id)
        return spec.name

    def fingerprint(self) -> str:
        """SHA-256 over the canonical entry list; identifies the weight table.

        Stored for the stock entries, from default_catalog() or a file that
        spells them, so only another catalog is hashed.
        """
        if self._fingerprint is None:
            if self.entries == DEFAULT_ENTRIES:
                self._fingerprint = _DEFAULT_FINGERPRINT
            else:
                import hashlib  # only another catalog needs it; most runs never ask

                canon = json.dumps(
                    [{"id": s.id, "name": s.name, "weight": s.weight} for s in self.entries],
                    separators=(",", ":"),
                    ensure_ascii=True,
                )
                self._fingerprint = hashlib.sha256(canon.encode("utf-8")).hexdigest()
        return self._fingerprint

    def to_json(self) -> bytes:
        """Catalog file content; load_catalog() reads this back identically."""
        doc = [{"id": s.id, "name": s.name, "weight": s.weight} for s in self.entries]
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def default_catalog() -> BehaviorCatalog:
    """The stock catalog shipped with the package; its fingerprint is stored."""
    return BehaviorCatalog(DEFAULT_ENTRIES)


def load_catalog(source: Union[bytes, str, IO[bytes], IO[str]]) -> BehaviorCatalog:
    """Load and validate a catalog file.

    The file must be a UTF-8 JSON array of ``{"id", "name", "weight"}``
    objects; extra keys are rejected. Errors name the offending entry.
    Entry shapes are checked here and values in the constructor, which
    pulls the entries one at a time, so errors are found in file order.
    """
    doc = _read_json(source, CatalogError, "catalog")
    if not isinstance(doc, list):
        raise CatalogError("catalog file must be a top-level JSON array")
    return BehaviorCatalog(_entries(doc))


def _entries(doc: list) -> Iterator[BehaviorSpec]:
    for position, raw in enumerate(doc, start=1):
        where = f"entry {position}"
        if not isinstance(raw, dict):
            raise CatalogError(f"{where}: not a JSON object")
        extra = set(raw) - _ENTRY_KEYS
        if extra:
            raise CatalogError(f"{where}: unknown keys {sorted(extra)}")
        missing = _ENTRY_KEYS - set(raw)
        if missing:
            raise CatalogError(f"{where}: missing keys {sorted(missing)}")
        yield BehaviorSpec(raw["id"], raw["name"], raw["weight"])


def _read_text(source, error: type[Exception], what: str) -> str:
    """The text of bytes, text or a file of either; bytes that are not UTF-8 raise `error`.

    Bytes read from a file are let go as soon as they are decoded.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        try:
            return source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{what} file is not valid UTF-8: {exc}") from exc
    return source


def _read_json(source, error: type[Exception], what: str, object_hook=None):
    """The JSON document in bytes, text or a file of either; failures raise `error`.

    `object_hook` is passed on to json.loads().
    """
    text = _read_text(source, error, what)
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"{what} file is not valid JSON: {exc}") from exc

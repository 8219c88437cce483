from __future__ import annotations

import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from behaviordfa.catalog import (
    DEFAULT_ENTRIES,
    BehaviorCatalog,
    BehaviorSpec,
    default_catalog,
    load_catalog,
)
from behaviordfa.errors import CatalogError, UnknownBehaviorError


def entry(id, name, weight):
    return {"id": id, "name": name, "weight": weight}


def load(entries):
    return load_catalog(json.dumps(entries).encode("utf-8"))


class TestDefaultCatalog:
    def test_stock_weights(self, catalog):
        weights = {s.id: s.weight for s in catalog.entries}
        assert weights == {1: 2, 2: 1, 3: 3, 4: 4, 5: 3, 6: 4, 7: 3, 11: 5}

    def test_stock_names(self, catalog):
        assert catalog.name_of(7) == "Add Event Handler"
        assert catalog.name_of(11) == "Send Data"

    def test_ids_and_names_are_a_bijection(self, catalog):
        specs = catalog.entries
        assert len({s.id for s in specs}) == len(specs)
        assert len({s.name for s in specs}) == len(specs)
        assert all(catalog.name_of(s.id) == s.name for s in specs)

    def test_every_weight_is_at_least_one(self, catalog):
        assert all(s.weight >= 1 for s in catalog.entries)

    def test_the_stored_fingerprint_is_the_one_the_entries_hash_to(self):
        import hashlib

        canon = json.dumps(
            [{"id": s.id, "name": s.name, "weight": s.weight} for s in sorted(DEFAULT_ENTRIES)],
            separators=(",", ":"),
            ensure_ascii=True,
        )
        expected = hashlib.sha256(canon.encode("utf-8")).hexdigest()
        assert default_catalog().fingerprint() == expected
        assert BehaviorCatalog(DEFAULT_ENTRIES).fingerprint() == expected
        # A file that spells the stock catalog gets the stored fingerprint, in any entry order.
        assert load_catalog(default_catalog().to_json()).fingerprint() == expected
        assert BehaviorCatalog(reversed(DEFAULT_ENTRIES)).fingerprint() == expected


class TestLoadCatalog:
    def test_accepts_well_formed_entries(self):
        cat = load(
            [entry(1, "Find DOM Element(s)", 2), entry(11, "Send Data", 5)]
        )
        assert cat.entries == (
            BehaviorSpec(1, "Find DOM Element(s)", 2), BehaviorSpec(11, "Send Data", 5)
        )

    def test_accepts_file_objects(self):
        data = json.dumps([entry(0, "Noop", 1)]).encode("utf-8")
        cat = load_catalog(io.BytesIO(data))
        assert 0 in cat

    def test_rejects_zero_weight(self):
        with pytest.raises(CatalogError, match="non-positive weight"):
            load([entry(7, "Add Event Handler", 0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(CatalogError, match="non-positive weight"):
            load([entry(7, "Add Event Handler", -3)])

    def test_rejects_duplicate_id_with_location(self):
        with pytest.raises(CatalogError, match=r"entry 2.*duplicate behavior id 7"):
            load([entry(7, "A", 1), entry(7, "B", 2)])

    def test_rejects_duplicate_name_with_location(self):
        with pytest.raises(CatalogError, match=r"entry 3.*duplicate behavior name"):
            load([entry(1, "A", 1), entry(2, "B", 1), entry(3, "A", 2)])

    def test_rejects_unknown_keys(self):
        with pytest.raises(CatalogError, match=r"entry 1.*unknown keys.*severity"):
            load([{"id": 1, "name": "A", "weight": 1, "severity": "high"}])

    def test_rejects_missing_keys(self):
        with pytest.raises(CatalogError, match=r"entry 1.*missing keys.*weight"):
            load([{"id": 1, "name": "A"}])

    def test_rejects_non_array_document(self):
        with pytest.raises(CatalogError, match="top-level JSON array"):
            load_catalog(b'{"id": 1}')

    def test_rejects_invalid_json(self):
        with pytest.raises(CatalogError, match="not valid JSON"):
            load_catalog(b"[{")

    def test_rejects_a_file_that_is_not_utf8(self):
        with pytest.raises(CatalogError) as raised:
            load_catalog(io.BytesIO(b'[{"id": 1, "name": "\xff", "weight": 1}]'))
        assert str(raised.value) == (
            "catalog file is not valid UTF-8: "
            "'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"
        )

    def test_rejects_empty_name(self):
        with pytest.raises(CatalogError, match="non-empty string"):
            load([entry(1, "", 1)])

    def test_rejects_a_name_that_is_not_unicode_text(self):
        expected = r"^entry 2: behavior 3: name is not valid Unicode text$"
        with pytest.raises(CatalogError, match=expected):
            load([entry(1, "A", 1), entry(3, "Find\ud800", 2)])

    def test_rejects_negative_id(self):
        with pytest.raises(CatalogError, match="non-negative integer"):
            load([entry(-1, "A", 1)])

    def test_a_long_bad_id_is_quoted_cut_short(self):
        wide = list(range(100_000))
        with pytest.raises(CatalogError) as raised:
            load([entry(wide, "A", 1)])
        assert str(raised.value) == (
            f"entry 1: behavior id must be a non-negative integer, got {repr(wide)[:57]}..."
        )

    def test_rejects_boolean_weight(self):
        with pytest.raises(CatalogError):
            load([entry(1, "A", True)])

    def test_errors_are_found_in_file_order(self):
        # Entry 1's value is checked before entry 2's shape is looked at.
        expected = r"^entry 1: behavior 1 \('A'\): non-positive weight 0$"
        with pytest.raises(CatalogError, match=expected):
            load([entry(1, "A", 0), {"id": 2, "name": "B", "weight": 1, "severity": "high"}])


class TestConstructor:
    def test_duplicate_id_names_the_entry(self):
        with pytest.raises(CatalogError, match=r"^entry 2: duplicate behavior id 1$"):
            BehaviorCatalog([BehaviorSpec(1, "A", 1), BehaviorSpec(1, "B", 2)])

    def test_a_name_that_is_not_unicode_text_names_the_entry(self):
        with pytest.raises(CatalogError, match=r"^entry 1: behavior 1: name is not valid Unicode"):
            BehaviorCatalog([BehaviorSpec(1, "A\udfff", 1)])

    def test_bad_weight_names_the_entry(self):
        specs = [BehaviorSpec(1, "A", 1), BehaviorSpec(2, "B", 1), BehaviorSpec(3, "C", 0)]
        expected = r"^entry 3: behavior 3 \('C'\): non-positive weight 0$"
        with pytest.raises(CatalogError, match=expected):
            BehaviorCatalog(specs)


class TestLookup:
    def test_unknown_id_error_carries_the_id(self, catalog):
        with pytest.raises(UnknownBehaviorError) as excinfo:
            catalog.name_of(99)
        assert excinfo.value.behavior_id == 99
        assert str(excinfo.value) == "unknown behavior id 99"

    def test_contains(self, catalog):
        assert 7 in catalog
        assert 99 not in catalog

    def test_name_of_an_unknown_id_raises(self, catalog):
        with pytest.raises(UnknownBehaviorError) as excinfo:
            catalog.name_of(99)
        assert excinfo.value.behavior_id == 99

    def test_a_catalog_never_equals_another_type(self):
        assert (default_catalog() == 5) is False


class TestRoundTrip:
    def test_serialize_then_reload_is_identical(self, catalog):
        assert load_catalog(catalog.to_json()) == catalog

    def test_fingerprint_is_order_independent(self):
        a = load([entry(1, "A", 1), entry(2, "B", 2)])
        b = load([entry(2, "B", 2), entry(1, "A", 1)])
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_tracks_weight_changes(self):
        a = load([entry(1, "A", 1)])
        b = load([entry(1, "A", 2)])
        assert a.fingerprint() != b.fingerprint()

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=1, max_value=9),
            min_size=1,
            max_size=12,
        )
    )
    def test_round_trip_over_random_catalogs(self, weights):
        cat = BehaviorCatalog(
            BehaviorSpec(i, f"behavior {i}", w) for i, w in weights.items()
        )
        reloaded = load_catalog(cat.to_json())
        assert reloaded == cat
        assert reloaded.fingerprint() == cat.fingerprint()

"""Pinned model bytes: the model file format is fixed byte for byte.

A seeded pattern file is built with `build` and grown with `add`; the
SHA-256 of both model files is pinned, and growing a model must write
exactly the bytes a full rebuild writes. Any change to the encoder that
moves a single byte fails here.
"""

from __future__ import annotations

import hashlib
import json
import random

from behaviordfa.catalog import default_catalog
from behaviordfa.cli import main

PATTERN_COUNT = 300
ADD_BATCH = 4

BUILD_SHA256 = "06491f5bb12ccb7fd4bff4d4bcb940febdb97ab7a23d73077207eb5ad489e65c"
ADDED_SHA256 = "b709f91f9ddd6af6c9f41cf18441c0a56328135f92a47885e1e77e728fc5324e"


def _patterns():
    rng = random.Random(20240607)
    ids = sorted(spec.id for spec in default_catalog())
    records = []
    for index in range(PATTERN_COUNT):
        steps = []
        # Few distinct first ids and short runs give shared prefixes and self-loops.
        steps.extend([rng.choice(ids[:4])] * rng.randint(1, 3))
        for _ in range(rng.randint(0, 12)):
            steps.extend([rng.choice(ids)] * rng.choice((1, 1, 1, 2, 4)))
        records.append({"id": f"p{index}", "steps": steps, "label": "malicious"})
    return records


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_build_and_add_write_the_pinned_bytes(tmp_path):
    records = _patterns()
    everything = _write(tmp_path / "all.jsonl", records)
    head = _write(tmp_path / "head.jsonl", records[:-ADD_BATCH])
    batch = _write(tmp_path / "batch.jsonl", records[-ADD_BATCH:])
    rebuilt = tmp_path / "rebuilt.json"
    grown = tmp_path / "grown.json"

    assert main(["--quiet", "build", "--patterns", everything, "--out", str(rebuilt)]) == 0
    assert main(["--quiet", "build", "--patterns", head, "--out", str(grown)]) == 0
    assert _sha256(grown) == BUILD_SHA256
    assert main(["--quiet", "add", "--model", str(grown), "--patterns", batch]) == 0
    assert _sha256(grown) == ADDED_SHA256
    assert grown.read_bytes() == rebuilt.read_bytes()

"""Pinned model and report bytes: both formats are fixed byte for byte.

A seeded pattern file is built with `build` and grown with `add`; the
SHA-256 of both model files and of the built model's `export-dot` output
is pinned, and growing a model must write exactly the bytes a full
rebuild writes. A seeded trace file classified
against a seeded model pins the SHA-256 of the JSON and CSV reports. Any
change to the encoders, ingest or scoring that moves a single byte fails
here.
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
DOT_SHA256 = "a1e1a9ec255e928b3c5d4029284b9b8a5f66b2bb28a84813a5629af62011c691"


def _patterns():
    rng = random.Random(20240607)
    ids = sorted(spec.id for spec in default_catalog().entries)
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


def test_export_dot_writes_the_pinned_bytes(tmp_path):
    # Edges come out in the model's transition order, so this pins that order too.
    model = tmp_path / "model.json"
    dot = tmp_path / "model.dot"
    patterns = _write(tmp_path / "all.jsonl", _patterns())
    assert main(["--quiet", "build", "--patterns", patterns, "--out", str(model)]) == 0
    assert main(["--quiet", "export-dot", "--model", str(model), "--out", str(dot)]) == 0
    assert _sha256(dot) == DOT_SHA256


TRACE_COUNT = 400

JSON_REPORT_SHA256 = "b2aa5bd8204546045b2c36f4c718ecb0d71bd22b4aa37e6add6c58f9106e7ac5"
CSV_REPORT_SHA256 = "269474fc48a7a25d7f777ef7a2b68eba8c72920d4cb14a5bd3a37f59169f0e94"


def _trace_lines(patterns):
    # Traces follow a seeded pattern for a while and then wander, spelled as
    # flat ids, grouped steps or a mix of both; a few lines are malformed,
    # hold an id outside the catalog or repeat an earlier trace id.
    rng = random.Random(20240611)
    ids = sorted(spec.id for spec in default_catalog().entries)
    lines = []
    for index in range(TRACE_COUNT):
        flat = list(rng.choice(patterns)["steps"])
        flat = flat[: rng.randint(0, len(flat))]
        flat.extend(rng.choice(ids) for _ in range(rng.randint(0, 4)))
        steps = []
        for behavior in flat:
            spelling = rng.random()
            if spelling < 0.5:
                steps.append(behavior)
            elif spelling < 0.75:
                steps.append([behavior])
            else:
                others = [b for b in rng.sample(ids, 2) if b != behavior]
                steps.append(rng.sample([behavior, *others], len(others) + 1))
        trace_id = f"t{index - 1}" if index % 97 == 50 else f"t{index}"
        if index % 61 == 30:
            steps.insert(rng.randint(0, len(steps)), 9999)
        label = rng.choice((None, "malicious", "benign"))
        line = json.dumps({"id": trace_id, "steps": steps, "label": label})
        if index % 53 == 20:
            line = line[: len(line) // 2]
        lines.append(line + "\n")
    return "".join(lines)


def test_classify_writes_the_pinned_report_bytes(tmp_path):
    # Long patterns only, so that few short walks end in a final state.
    records = [r for r in _patterns() if len(r["steps"]) >= 8]
    model = tmp_path / "model.json"
    catalog = tmp_path / "catalog.json"
    traces = tmp_path / "traces.jsonl"
    json_report = tmp_path / "report.json"
    csv_report = tmp_path / "report.csv"
    catalog.write_bytes(default_catalog().to_json())
    traces.write_text(_trace_lines(records), encoding="utf-8")
    patterns = _write(tmp_path / "patterns.jsonl", records)

    assert main(["--quiet", "build", "--patterns", patterns, "--out", str(model)]) == 0
    common = ["--quiet", "classify", "--model", str(model), "--traces", str(traces)]
    assert main([*common, "--out", str(json_report)]) == 0
    with_catalog = [*common, "--catalog", str(catalog), "--format", "csv"]
    assert main([*with_catalog, "--out", str(csv_report)]) == 0
    assert _sha256(json_report) == JSON_REPORT_SHA256
    assert _sha256(csv_report) == CSV_REPORT_SHA256

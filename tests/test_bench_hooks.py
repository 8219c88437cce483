"""The benchmark's traced pass still finds every hook it wraps.

bench/tracing.py wraps names in the cli, dfa and classify modules and
reads fields of their results, so a change that renames or drops one of
them breaks `bench/run.py --trace 1`. Each test runs one CLI command
under the tracer, in a fresh process, as the benchmark does.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from behaviordfa.catalog import default_catalog
from behaviordfa.cli import main

from helpers import PATTERN_A, PATTERN_B

ROOT = Path(__file__).resolve().parent.parent
CLASSIFY_SPANS = {"classify.match_prefix", "classify.nearest_final", "dfa.validate", "report.record"}


@pytest.fixture
def files(tmp_path):
    """Pattern, extra-pattern, catalog, model and trace files in tmp_path."""

    def jsonl(name, records):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))

    jsonl("patterns.jsonl", [{"id": "a", "steps": PATTERN_A}, {"id": "b", "steps": PATTERN_B}])
    jsonl("more.jsonl", [{"id": "c", "steps": [7, 3, 3, 11]}])
    jsonl("traces.jsonl", [
        {"id": "x", "steps": [7, 5]}, {"id": "y", "steps": PATTERN_B}, {"id": "z", "steps": [9]}
    ])
    (tmp_path / "catalog.json").write_bytes(default_catalog().to_json())
    assert main(["--quiet", "build", "--patterns", str(tmp_path / "patterns.jsonl"),
                 "--out", str(tmp_path / "model.json")]) == 0
    return tmp_path


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["build", "--patterns", "patterns.jsonl", "--out", "built.json"],
         {"dfa.build_dfa", "dfa.serialize", "catalog.default_catalog"}),
        (["add", "--model", "model.json", "--patterns", "more.jsonl"],
         {"dfa.add_pattern", "dfa.deserialize", "dfa.validate", "dfa.serialize"}),
        (["classify", "--model", "model.json", "--traces", "traces.jsonl"], CLASSIFY_SPANS),
        (["classify", "--model", "model.json", "--traces", "traces.jsonl", "--format", "csv",
          "--catalog", "catalog.json"], CLASSIFY_SPANS | {"catalog.load_catalog"}),
    ],
    ids=["build", "add", "classify", "classify-csv-catalog"],
)
def test_traced_command_records_its_layer_spans(files, argv, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans_path = files / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracing.py"), str(spans_path), "--", *argv],
        cwd=files, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    spans = [span[0] for span in json.loads(spans_path.read_text())["spans"]]
    assert expected <= set(spans), sorted(set(spans))
    if argv[0] == "classify":
        # The bench's classify.nearest_final_calls counts the traces scored against a final.
        if "csv" in argv:
            verdicts = [row["verdict"] for row in csv.DictReader(proc.stdout.splitlines())]
        else:
            verdicts = [json.loads(line).get("verdict") for line in proc.stdout.splitlines()]
        scored = sum(v in ("partially_malign", "malign") for v in verdicts)
        assert spans.count("classify.nearest_final") == scored == 2

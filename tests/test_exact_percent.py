"""Exact percentages: reports and summary against Fraction arithmetic, and no Fraction at start-up.

Classification carries no percentage: the writers and BatchSummary work on
the reduced (numerator, denominator) pair of ints, and a Fraction is built
only when a caller reads `match_percentage` or `BatchSummary.histogram`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from behaviordfa.catalog import default_catalog
from behaviordfa.cli import main
from behaviordfa.classify import (
    BatchSummary,
    CsvReportWriter,
    JsonReportWriter,
    Verdict,
    classification_record,
)

from helpers import PATTERN_A, PATTERN_B, make_trace, run_batch, weighted_classification

ROOT = Path(__file__).resolve().parent.parent

DENOMINATOR = st.integers(1, 10**12)
ANY_PAIR = DENOMINATOR.flatmap(lambda d: st.tuples(st.integers(1, d), st.just(d)))


@st.composite
def pair_near(draw, hundredths):
    """A (matched, denominator) pair whose percentage is at or just above hundredths / 100."""
    d = draw(DENOMINATOR)
    m = hundredths * d // 10_000 + draw(st.integers(0, 2))
    return min(max(m, 1), d), d


# Lists of pairs 1 <= matched <= denominator, some near one shared hundredth, so that
# distinct keys often tie on their two-digit rendering.
PAIR_LISTS = st.integers(1, 10_000).flatmap(
    lambda h: st.lists(ANY_PAIR | pair_near(h), min_size=1, max_size=8)
)


def decimal_text(p: Fraction) -> str:
    """p rounded to hundredths, halfway to even, as trimmed decimal text."""
    q = round(p, 2)
    return format((Decimal(q.numerator) / Decimal(q.denominator)).normalize(), "f")


def key_text(p: Fraction) -> str:
    return decimal_text(p) if (100 * p).denominator == 1 else f"{p.numerator}/{p.denominator}"


# 150 examples, about 1 s.
@settings(max_examples=150, deadline=None)
@given(PAIR_LISTS)
@example([(166667, 500000), (3333, 10000), (6667, 20000), (1, 3), (2, 6)])  # 33.33.. ties
@example([(1, 20000), (3, 20000), (5, 20000), (10**12, 10**12), (1, 10**12)])  # halfway cases
def test_reports_and_summary_agree_with_fraction_arithmetic(pairs):
    out_json, out_csv = io.StringIO(), io.StringIO()
    json_writer, csv_writer = JsonReportWriter(out_json), CsvReportWriter(out_csv)
    summary = BatchSummary()
    items = [weighted_classification(m, d, trace_id=f"t{i}") for i, (m, d) in enumerate(pairs)]
    for item in items:
        json_writer.record(item)
        csv_writer.record(item)
        summary.add(item)
    rows = list(csv.reader(io.StringIO(out_csv.getvalue())))[1:]
    lines = out_json.getvalue().splitlines()
    assert len(rows) == len(lines) == len(pairs)
    for (m, d), item, line, row in zip(pairs, items, lines, rows):
        p = Fraction(100 * m, d)
        record = json.loads(line)
        assert record == classification_record(item)
        assert record["match_fraction"] == {"num": p.numerator, "den": p.denominator}
        assert record["match_percentage"] == row[2] == decimal_text(p)
        assert item.match_percentage == p
    groups = Counter(Fraction(100 * m, d) for m, d in pairs)
    histogram = summary.as_dict()["histogram"]
    assert list(histogram.items()) == [(key_text(p), groups[p]) for p in sorted(groups)]
    assert summary.histogram == groups


def test_library_reads_still_give_fractions(seed_dfa):
    traces = [
        make_trace(PATTERN_A, "a"),
        make_trace([7, 5], "b"),
        make_trace([7, [11, 3], 7, [11, 3]], "c"),
        make_trace([9], "d"),
        make_trace([7, 5, 3], "e"),
    ]
    outcomes, summary = run_batch(seed_dfa, traces)
    percentages = [outcome.match_percentage for outcome in outcomes]
    assert all(type(p) is Fraction for p in percentages)
    assert percentages == [Fraction(100), Fraction(75, 2), Fraction(75, 4), Fraction(0),
                           Fraction(75, 2)]
    assert [o.verdict for o in outcomes].count(Verdict.PARTIALLY_MALIGN) == 3
    histogram = summary.histogram
    assert histogram == {Fraction(75, 4): 1, Fraction(75, 2): 2}
    assert all(type(p) is Fraction for p in histogram)
    histogram.clear()  # each read is a new dict
    assert summary.histogram == {Fraction(75, 4): 1, Fraction(75, 2): 2}
    with pytest.raises(AttributeError):
        summary.histogram = {}


# Runs one CLI command in a fresh interpreter; prints its exit code and which of the
# two rational-number modules it imported.
PROBE = (
    "import sys\n"
    "from behaviordfa.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, sorted(m for m in ('fractions', 'decimal') if m in sys.modules))\n"
)


@pytest.fixture
def files(tmp_path):
    """Pattern, extra-pattern, catalog, model and trace files; the traces include partials."""

    def jsonl(name, records):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))

    jsonl("patterns.jsonl", [{"id": "a", "steps": PATTERN_A}, {"id": "b", "steps": PATTERN_B}])
    jsonl("more.jsonl", [{"id": "c", "steps": [7, 3, 3, 11]}])
    jsonl("traces.jsonl", [{"id": "x", "steps": [7, 5]}, {"id": "y", "steps": PATTERN_B},
                           {"id": "z", "steps": [5, 1, 3]}, {"id": "w", "steps": [9]}])
    (tmp_path / "catalog.json").write_bytes(default_catalog().to_json())
    assert main(["--quiet", "build", "--patterns", str(tmp_path / "patterns.jsonl"),
                 "--out", str(tmp_path / "model.json")]) == 0
    return tmp_path


@pytest.mark.parametrize(
    "argv, report",
    [
        (["build", "--patterns", "patterns.jsonl", "--out", "built.json"], None),
        (["add", "--model", "model.json", "--patterns", "more.jsonl"], None),
        (["classify", "--model", "model.json", "--traces", "traces.jsonl", "--out",
          "report.json"], "report.json"),
        (["classify", "--model", "model.json", "--traces", "traces.jsonl", "--format", "csv",
          "--catalog", "catalog.json", "--out", "report.csv"], "report.csv"),
    ],
    ids=["build", "add", "classify-json", "classify-csv-catalog"],
)
def test_no_cli_command_imports_fractions(files, argv, report):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, "--quiet", *argv],
        cwd=files, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    if report is not None:
        assert "partially_malign" in (files / report).read_text()

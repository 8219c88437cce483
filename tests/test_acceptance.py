"""Acceptance gate: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. Bulk checks use a fixed seed so every run exercises the same
instances.
"""

from __future__ import annotations

import filecmp
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from behaviordfa.catalog import default_catalog
from behaviordfa.classify import Verdict, classify, nearest_final
from behaviordfa.cli import main
from behaviordfa.dfa import add_patterns, build_dfa, deserialize, serialize
from behaviordfa.ingest import scan_traces

from helpers import PATTERN_A, PATTERN_B, make_trace, run_batch
from oracle import compress_runs, oracle_classify, random_patterns, random_trace_steps

ALPHABET = [1, 5, 7, 11]
SEED = 20250808


def _passed(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} - {name}: PASS")


def _seed_patterns():
    return [
        make_trace(PATTERN_A, trace_id="seed-a", label="malicious"),
        make_trace(PATTERN_B, trace_id="seed-b", label="malicious"),
    ]


def test_criterion_1_model_reconstruction():
    catalog = default_catalog()
    started = time.perf_counter()
    dfa = build_dfa(_seed_patterns(), catalog)
    assert dfa.state_count == 11
    assert dfa.finals == {6, 10}
    # Path weight from the initial state to each final: each final is its
    # own nearest, and the pattern that reaches it is scored against it.
    for pattern, final, weight in zip(_seed_patterns(), (6, 10), (16, 10)):
        assert nearest_final(dfa, final) == final
        outcome = classify(dfa, pattern)
        assert (outcome.final_state, outcome.denominator_weight) == (final, weight)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"reconstruction took {elapsed:.3f}s"
    _passed(1, "eleven-state reconstruction with path weights 16 and 10")


def test_criterion_2_golden_percentages():
    dfa = build_dfa(_seed_patterns(), default_catalog())
    cases = [
        ([7, 5], Fraction(75, 2)),                    # 37.5
        ([7, [11, 3], 7, [11, 3]], Fraction(75, 4)),  # 18.75
        ([5, 3], Fraction(30)),                       # matched {5}
        ([5, 1, 3], Fraction(50)),                    # matched {5, 1}
        ([7, 5, 1, 3], Fraction(50)),                 # matched {7, 5, 1}
        ([7, 5, 3], Fraction(75, 2)),                 # matched {7, 5}
    ]
    for steps, expected in cases:
        outcome = classify(dfa, make_trace(steps))
        assert outcome.verdict is Verdict.PARTIALLY_MALIGN, steps
        assert outcome.match_percentage == expected, steps
    _passed(2, "exact partial-match percentages")


def test_criterion_3_pattern_acceptance():
    dfa = build_dfa(_seed_patterns(), default_catalog())
    for pattern in _seed_patterns():
        outcome = classify(dfa, pattern)
        assert outcome.verdict is Verdict.MALIGN
        assert outcome.match_percentage == Fraction(100)
    _passed(3, "build patterns classify malign at exactly 100%")


def test_criterion_4_synthetic_batch(tmp_path):
    # The published full-corpus counts come from a proprietary dataset and
    # are not reproducible; a generated batch with known composition
    # substitutes for them.
    records = [
        {"id": "seed-a", "steps": PATTERN_A, "label": "malicious"},
        {"id": "seed-b", "steps": PATTERN_B, "label": "malicious"},
        {"id": "cohort-18.75", "steps": [7, 3]},
        {"id": "cohort-30", "steps": [5, 3]},
        {"id": "cohort-37.5", "steps": [7, 5, 3]},
        {"id": "cohort-50", "steps": [5, 1, 3]},
        {"id": "noise-1", "steps": [3]},
        {"id": "noise-2", "steps": [11]},
        {"id": "noise-3", "steps": [2, 4]},
        {"id": "noise-4", "steps": [6, 6, 3]},
        {"id": "noise-5", "steps": []},
    ]
    batch_file = tmp_path / "batch.jsonl"
    batch_file.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    catalog = default_catalog()
    dfa = build_dfa(_seed_patterns(), catalog)
    with open(batch_file, "rb") as fh:
        _, summary = run_batch(dfa, scan_traces(fh, catalog))
    assert summary.record_errors == 0
    assert summary.counts == {
        Verdict.MALIGN: 2,
        Verdict.PARTIALLY_MALIGN: 4,
        Verdict.BENIGN: 5,
    }
    assert summary.histogram == {
        Fraction(75, 4): 1,
        Fraction(30): 1,
        Fraction(75, 2): 1,
        Fraction(50): 1,
    }
    _passed(4, "synthetic batch counts 2/4/5 with the four-bucket histogram")


def test_criterion_5_oracle_equivalence():
    catalog = default_catalog()
    rng = random.Random(SEED)
    started = time.perf_counter()
    instances = 0
    while instances < 1000:
        patterns = random_patterns(rng, ALPHABET)
        dfa = build_dfa(patterns, catalog)
        for _ in range(4):
            steps = random_trace_steps(rng, ALPHABET)
            outcome = classify(dfa, make_trace(steps))
            verdict, pct, end, matched_weight, final, denominator = oracle_classify(
                dfa, steps
            )
            assert outcome.verdict.value == verdict, (patterns, steps)
            assert outcome.match_percentage == pct, (patterns, steps)
            assert outcome.match.end_state == end, (patterns, steps)
            assert outcome.match.matched_weight == matched_weight, (patterns, steps)
            if verdict == "partially_malign":
                assert outcome.final_state == final, (patterns, steps)
                assert outcome.denominator_weight == denominator, (patterns, steps)
            instances += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _passed(5, f"{instances} random instances agree with the enumerating reference")


def test_criterion_6_structural_properties():
    catalog = default_catalog()
    rng = random.Random(SEED + 1)

    for _ in range(500):  # determinism
        dfa = build_dfa(random_patterns(rng, ALPHABET), catalog)
        keys = [(t.source, t.behavior) for t in dfa.transitions]
        assert len(keys) == len(set(keys))

    for _ in range(500):  # no dead states, finals ahead and behind
        dfa = build_dfa(random_patterns(rng, ALPHABET), catalog)
        forward: dict[int, set[int]] = {}
        reverse: dict[int, set[int]] = {}
        for t in dfa.transitions:
            if t.source != t.target:
                forward.setdefault(t.source, set()).add(t.target)
                reverse.setdefault(t.target, set()).add(t.source)
        reachable = _closure({0}, forward)
        coreachable = _closure(set(dfa.finals), reverse)
        assert dfa.finals <= reachable
        assert reachable == set(range(dfa.state_count))
        assert coreachable == set(range(dfa.state_count))

    for _ in range(500):  # run compression round-trip
        flat = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 30))]
        runs = compress_runs(flat)
        assert [b for b, count in runs for _ in range(count)] == flat
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))

    for _ in range(500):  # serialization identity
        dfa = build_dfa(random_patterns(rng, ALPHABET), catalog)
        data = serialize(dfa)
        assert deserialize(data) == dfa
        assert serialize(deserialize(data)) == data

    for _ in range(500):  # incremental add equals rebuild
        bodies = [
            [rng.choice(ALPHABET) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(2, 6))
        ]
        patterns = [make_trace(b, trace_id=f"p{i}") for i, b in enumerate(bodies)]
        grown = add_patterns(
            build_dfa(patterns[:-1], catalog), [patterns[-1]], catalog
        )
        assert grown == build_dfa(patterns, catalog)

    _passed(6, "structural properties hold over 500 random cases each")


def _closure(start: set[int], edges: dict[int, set[int]]) -> set[int]:
    seen = set(start)
    stack = list(start)
    while stack:
        state = stack.pop()
        for nxt in edges.get(state, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def test_criterion_7_reproducibility(tmp_path):
    patterns_file = tmp_path / "patterns.jsonl"
    patterns_file.write_text(
        json.dumps({"id": "seed-a", "steps": PATTERN_A, "label": "malicious"})
        + "\n"
        + json.dumps({"id": "seed-b", "steps": PATTERN_B, "label": "malicious"})
        + "\n",
        encoding="utf-8",
    )
    traces_file = tmp_path / "traces.jsonl"
    traces_file.write_text(
        "".join(
            json.dumps(r) + "\n"
            for r in [
                {"id": "one", "steps": [7, 3], "label": "benign"},
                {"id": "two", "steps": PATTERN_B, "label": "malicious"},
                {"id": "three", "steps": [9]},
            ]
        ),
        encoding="utf-8",
    )

    def run_pipeline(workdir: Path):
        workdir.mkdir()
        model = workdir / "model.json"
        report = workdir / "report.jsonl"
        table = workdir / "report.csv"
        dot = workdir / "model.dot"
        assert main(["--quiet", "build", "--patterns", str(patterns_file), "--out", str(model)]) == 0
        for out_path, fmt in ((report, "json"), (table, "csv")):
            assert (
                main(
                    [
                        "--quiet",
                        "classify",
                        "--model",
                        str(model),
                        "--traces",
                        str(traces_file),
                        "--format",
                        fmt,
                        "--out",
                        str(out_path),
                    ]
                )
                == 0
            )
        assert main(["--quiet", "export-dot", "--model", str(model), "--out", str(dot)]) == 0
        return model, report, table, dot

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    for a, b in zip(first, second):
        assert filecmp.cmp(a, b, shallow=False), f"{a.name} differs between runs"
        assert a.read_bytes() == b.read_bytes()
    _passed(7, "build + classify + export-dot are byte-identical across runs")

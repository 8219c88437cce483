"""Damaged input files, run through every command: exit 0 or 1, never an internal error.

A seeded run edits one of the four input files (model, traces, catalog or
patterns) in 1-4 places at the byte level, half of the edits turning a
digit into another digit. Then it runs build, add, classify and
export-dot on the files through cli.main. Every exit must be 0 or 1, with
no "internal error" on stderr. Whenever classify accepts the model, each
record of its report must be what the enumerating reference in oracle.py
gives for that trace. Seed 7 and 300 inputs (1,200 commands) take about
3 s.
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction

from behaviordfa.catalog import default_catalog, load_catalog
from behaviordfa.cli import main
from behaviordfa.dfa import build_dfa, deserialize, serialize
from behaviordfa.ingest import RecordError, scan_traces

from helpers import PATTERN_A, PATTERN_B, make_trace
from oracle import oracle_classify, oracle_walk

SEED = 7
INPUTS = 300
# What an edit writes: JSON's punctuation, digits and letters, and bytes that are no UTF-8.
PALETTE = b'{}[]:,"-.0123456789 eEtrufalsn\\\n\x00\x80\xff'
DIGITS = b"0123456789"

PATTERNS = [PATTERN_A, PATTERN_B, [11, 3, 3, 6], [7, 2, 4, 4]]
TRACES = [
    {"id": "full", "steps": PATTERN_A, "label": "malicious"},
    {"id": "half", "steps": [7, 5, 1, 1], "label": "benign"},
    {"id": "grouped", "steps": [[5, 7], 1, [5, 11], 1, 1]},
    {"id": "off", "steps": [2, 7, 5], "label": None},
    {"id": "looped", "steps": [11, 11, 3, 3, 3, 6, 6]},
    {"id": "unknown", "steps": [7, 9]},
]


def _jsonl(docs) -> bytes:
    return "".join(json.dumps(doc) + "\n" for doc in docs).encode()


def _base_files() -> dict[str, bytes]:
    catalog = default_catalog()
    entries = [{"id": s.id, "name": s.name, "weight": s.weight} for s in catalog.entries]
    return {
        "catalog": json.dumps(entries, indent=2).encode(),
        "patterns": _jsonl({"id": f"p{i}", "steps": p} for i, p in enumerate(PATTERNS)),
        "model": serialize(build_dfa([make_trace(p, f"p{i}") for i, p in enumerate(PATTERNS)],
                                     catalog)),
        "traces": _jsonl(TRACES) + b"not json\n",
    }


def _damage(data: bytes, rng: random.Random) -> bytes:
    """`data` with 1-4 bytes replaced, deleted or inserted, or digits changed to digits."""
    buf = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        digits = [i for i, b in enumerate(buf) if b in DIGITS]
        if digits and rng.random() < 0.5:
            # The file still parses, so its numbers reach the checks that follow the parse.
            buf[rng.choice(digits)] = rng.choice(DIGITS)
            continue
        at = rng.randrange(len(buf) + 1)
        byte = rng.choice(PALETTE) if rng.random() < 0.8 else rng.randrange(256)
        edit = rng.randrange(3) if at < len(buf) else 2
        if edit == 0:
            buf[at] = byte
        elif edit == 1:
            del buf[at]
        else:
            buf.insert(at, byte)
    return bytes(buf)


def _check_report(files: dict[str, bytes], with_catalog: bool, report: str) -> None:
    """Each record of an accepted run is the reference's verdict for its trace."""
    dfa = deserialize(files["model"])
    catalog = load_catalog(files["catalog"]) if with_catalog else None
    items = list(scan_traces(io.BytesIO(files["traces"]), catalog))
    records = [json.loads(line) for line in report.splitlines()[:-1]]
    assert len(records) == len(items)
    for item, record in zip(items, records):
        if isinstance(item, RecordError):
            assert record == {"error": item.reason, "line": item.line}
            continue
        verdict, pct, end, _, final, _ = oracle_classify(dfa, item.steps)
        matched = oracle_walk(dfa, item.steps)[1]
        fraction = record["match_fraction"]
        assert (
            record["verdict"], Fraction(fraction["num"], fraction["den"]), record["end_state"],
            record["nearest_final_state"], record["matched_behaviors"],
        ) == (verdict, pct, end, final, matched), item


def test_damaged_inputs_exit_0_or_1_and_classify_as_the_reference(tmp_path, capsys):
    rng = random.Random(SEED)
    base = _base_files()
    paths = {name: tmp_path / name for name in base}
    grown, built, report, dot = (tmp_path / n for n in ("grown", "built", "report", "dot"))
    for index in range(INPUTS):
        damaged = rng.choice(sorted(base))
        files = dict(base, **{damaged: _damage(base[damaged], rng)})
        for name, data in files.items():
            paths[name].write_bytes(data)
        grown.write_bytes(files["model"])  # add rewrites its model in place
        with_catalog = index % 2 == 0
        model, catalog = str(paths["model"]), str(paths["catalog"])
        commands = {
            "build": ["build", "--patterns", str(paths["patterns"]), "--catalog", catalog,
                      "--out", str(built)],
            "add": ["add", "--model", str(grown), "--patterns", str(paths["patterns"]),
                    "--catalog", catalog],
            "classify": ["classify", "--model", model, "--traces", str(paths["traces"]),
                         "--out", str(report)] + (["--catalog", catalog] if with_catalog else []),
            "export-dot": ["export-dot", "--model", model, "--catalog", catalog, "--out", str(dot)],
        }
        for command, argv in commands.items():
            code = main(["--quiet", *argv])
            err = capsys.readouterr().err
            where = f"input {index}: {damaged} damaged to {files[damaged]!r}; {command}"
            assert code in (0, 1) and "internal error" not in err, f"{where}: exit {code}, {err}"
            if command == "classify" and code == 0:
                _check_report(files, with_catalog, report.read_text(encoding="utf-8"))

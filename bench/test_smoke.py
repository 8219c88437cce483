"""Fast smoke test of the benchmark harness at a tiny scale.

    python3 -m pytest bench/test_smoke.py -q

It checks that every metric BENCHMARK.json declares is printed with its
unit, that the correctness gate passes, that two runs of one seed write
byte-identical models and reports, and that the harness refuses to run
without the program's source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_digests_stable(workload):
    digests = []
    for _ in range(2):
        out = result(bench(workload, 0))
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
        assert all(v["value"] > 0 for v in out["metrics"].values())
        side = json.loads((ROOT / ".bench_work" / workload / "run-trace0.json").read_text())
        digests.append(side["digests"])
    assert set(digests[0]) == {"build", "add", "setup", "classify"}
    assert digests[0] == digests[1]

    out = result(bench(workload, 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    side = json.loads((ROOT / ".bench_work" / workload / "run-trace1.json").read_text())
    assert side["digests"] == digests[0]
    for command in ("build", "add", "setup", "classify"):
        assert (ROOT / ".bench_work" / workload / f"spans-{command}.json").is_file()


def test_refuses_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for behaviordfa.

Run from the repository root:

    python3 bench/run.py --workload triage-M --seed 7 --seconds 56 --trace 0

The program under test is the source tree in src/, driven as
`python3 -m behaviordfa` child processes by one closed-loop client: one
command at a time, no extra threads. Every output is checked against an
independent reference and, at the default seed, against pinned SHA-256
digests. With --trace 0 the end-to-end metrics are measured, with all
timings scaled to a reference machine speed; with --trace 1 a separate
traced pass (tracing.py) records spans around every layer call and
reports per-layer metrics. The last line of stdout is one JSON object; a
human-readable account goes to stderr, and side files go to
.bench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from workloads import quantile  # noqa: E402

DEFAULT_SEED = 7
COMMANDS = ("build", "add", "setup", "classify")
# One round of the end-to-end loop, followed by library latency passes.
# Rounds repeat until --seconds is used up, so every metric samples the
# whole run. "calibrate" is the reference job of calibrate.py: on machines
# that share cores, the speed of everything swings by tens of percent over
# seconds and minutes, and the job, run beside every command, measures it.
ROUND = ("calibrate", "build", "calibrate", "add", "add", "calibrate", "setup", "setup",
         "calibrate", "classify", "classify")
LATENCY_PER_ROUND_S = 1.5
# CLI command timings are reported at the machine speed at which the
# reference job takes CAL_REF_S: each wall time is multiplied by CAL_REF_S
# over the mean of the reference runs just before and just after it, and
# the metric is the mean of the middle half of these over the run (which
# spends the few samples a run has better than the median). Raw values go
# to stderr and the side file.
CAL_REF_S = 0.45
# The library latencies are timed in a warm process, which the reference
# job (it pays process start-up like the commands) does not track, so they
# get an in-process reference: one calibrate.warm_unit at the start and
# end of every pass and every WARM_EVERY_S in between. Calls are reported
# at the speed at which a unit takes WARM_REF_S.
WARM_REF_S = 0.015
WARM_EVERY_S = 0.1
WARM_SEARCH = 4000  # states a reference unit settles
WARM_WALKS = 50  # latency traces a reference unit walks

SUMMARY_RE = re.compile(r"malign:(\d+) partial:(\d+) benign:(\d+)(?: errors:(\d+))?")
CSV_HEADER = "id,verdict,percentage,label\n"


def repeat(budget_s, min_reps, fn):
    """Call fn until min_reps are done and one more would overrun budget_s."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(fn())
        spent = time.perf_counter() - start
        if len(results) >= min_reps and spent * (len(results) + 1) / len(results) > budget_s:
            return results


def middle_mean(values):
    """Mean of the values between the quartiles (all of them if fewer than 4)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Spawner:
    """Client of spawn.py, which runs one CLI command at a time for us."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, cwd, env) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd), "env": env}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the command helper exited")
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """One workload at one seed: its files, its commands and their checks."""

    def __init__(self, wl: workloads.Workload, pkg, pins: dict | None, spawner: Spawner):
        self.wl = wl
        self.pkg = pkg
        self.pins = pins
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tally = None
        self.digests: dict[str, str] = {}
        self.shape: dict = {}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        d = wl.dir
        self.model, self.added = d / "model.json", d / "model_added.json"
        fmt = ["--format", wl.report_format]
        if wl.catalog is not None:
            fmt += ["--catalog", str(wl.catalog)]
        self.outputs = {
            "build": self.model,
            "add": self.added,
            "setup": d / f"report_empty.{wl.report_format}",
            "classify": d / f"report.{wl.report_format}",
        }
        self.argv = {
            "build": ["build", "--patterns", str(wl.patterns), "--out", str(self.model)],
            "add": ["--quiet", "add", "--model", str(self.added), "--patterns", str(wl.batch)],
            "setup": ["classify", "--model", str(self.model), "--traces", str(wl.empty),
                      "--out", str(self.outputs["setup"]), *fmt],
            "classify": ["classify", "--model", str(self.model), "--traces", str(wl.traces),
                         "--out", str(self.outputs["classify"]), *fmt],
        }

    # -- running commands -------------------------------------------------

    def cli(self, command):
        """Run one CLI command as a child process; returns (wall s, peak RSS MB)."""
        if command == "add":
            shutil.copyfile(self.model, self.added)
        reply = self.spawner.run([sys.executable, "-m", "behaviordfa", *self.argv[command]],
                                 self.wl.dir, self.env)
        self.finish(command, reply["code"], reply["stderr"])
        return reply["wall_s"], reply["maxrss_kb"] / 1024

    def calibrate(self):
        """Wall time of one run of the reference job, in s."""
        reply = self.spawner.run(
            [sys.executable, str(BENCH / "calibrate.py"), str(self.wl.patterns),
             str(self.wl.traces)], self.wl.dir, self.env)
        if reply["code"] != 0:
            raise RuntimeError(f"reference job failed: {reply['stderr']}")
        return reply["wall_s"]

    def fail(self, message):
        self.failures.append(message)

    # -- correctness gate -------------------------------------------------

    def finish(self, command, code, stderr):
        """Count one operation and check what it wrote."""
        self.attempted += 1
        before = len(self.failures)
        self.check(command, code, stderr)
        self.failed += len(self.failures) > before

    def check(self, command, code, stderr):
        if code != 0:
            self.fail(f"{command}: exit {code}: {stderr.strip()[-300:]}")
            return
        digest = sha256(self.outputs[command])
        first = self.digests.setdefault(command, digest)
        if digest != first:
            self.fail(f"{command}: output differs from the first run of the same command")
        elif command not in self.shape:
            try:
                self.shape[command] = getattr(self, "verify_" + command)(self.outputs[command])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self.fail(f"{command}: output does not parse: {exc!r}")
        if command in ("setup", "classify"):
            self.verify_summary_line(command, stderr)
        if self.pins is not None and self.pins.get(command) != digest:
            self.fail(f"{command}: digest {digest[:16]} does not match the pinned one")

    def verify_model(self, path, shape, patterns):
        doc = json.loads(path.read_bytes())
        got = {"states": doc["states"], "transitions": len(doc["transitions"]),
               "finals": len(doc["finals"])}
        if got != shape or doc["pattern_count"] != patterns:
            self.fail(f"model {path.name}: {got}, {doc['pattern_count']} patterns; "
                      f"reference {shape}, {patterns} patterns")
        return got

    def verify_build(self, path):
        return self.verify_model(path, self.wl.model_shape, self.wl.scale.patterns)

    def verify_add(self, path):
        return self.verify_model(path, self.wl.added_shape,
                                 self.wl.scale.patterns + self.wl.scale.batch)

    def verify_setup(self, path):
        text = path.read_text(encoding="utf-8")
        if self.wl.report_format == "csv":
            ok = text == CSV_HEADER
        else:
            lines = text.splitlines()
            summary = json.loads(lines[0]).get("summary", {}) if len(lines) == 1 else {}
            counts = summary.get("counts", {})
            ok = summary.get("record_errors") == 0 and \
                [counts.get(v) for v in ("malign", "partially_malign", "benign")] == [0, 0, 0]
        if not ok:
            self.fail("setup: report of an empty trace file is not empty")
        return {}

    def verify_classify(self, path):
        """Every record against the reference; summary counts against the records."""
        text = path.read_text(encoding="utf-8")
        expected = self.wl.expected
        good = [e for e in expected if e is not None]
        tally = {"malign": 0, "partially_malign": 0, "benign": 0}
        wrong = 0
        if self.wl.report_format == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            if not text.startswith(CSV_HEADER) or len(rows) - 1 != len(good):
                self.fail(f"classify: CSV has {len(rows) - 1} rows, reference {len(good)}")
                return {}
            for row, (tid, verdict, pct) in zip(rows[1:], good):
                wrong += row[0] != tid or row[1] != verdict or \
                    abs(Fraction(row[2]) - pct) > Fraction(1, 200)
                tally[row[1]] = tally.get(row[1], 0) + 1
            errors = len(expected) - len(good)
        else:
            lines = text.splitlines()
            if len(lines) != len(expected) + 1:
                self.fail(f"classify: report has {len(lines) - 1} records, "
                          f"reference {len(expected)}")
                return {}
            errors = 0
            for line_no, (raw, exp) in enumerate(zip(lines, expected), start=1):
                rec = json.loads(raw)
                if exp is None:
                    errors += 1
                    wrong += rec.get("line") != line_no or "error" not in rec
                    continue
                tid, verdict, pct = exp
                frac = rec["match_fraction"]
                wrong += rec["id"] != tid or rec["verdict"] != verdict or \
                    Fraction(frac["num"], frac["den"]) != pct
                tally[rec["verdict"]] = tally.get(rec["verdict"], 0) + 1
            summary = json.loads(lines[-1])["summary"]
            counts = summary["counts"]
            if (counts["malign"], counts["partially_malign"], counts["benign"],
                    summary["record_errors"]) != (tally["malign"], tally["partially_malign"],
                                                  tally["benign"], errors):
                self.fail(f"classify: summary {summary['counts']} disagrees with the records")
        if wrong:
            self.fail(f"classify: {wrong} records disagree with the reference")
        self.tally = (tally["malign"], tally["partially_malign"], tally["benign"], errors)
        return {}

    def verify_summary_line(self, command, stderr):
        match = SUMMARY_RE.search(stderr)
        if match is None:
            self.fail(f"{command}: no summary line on stderr")
            return
        got = tuple(int(g or 0) for g in match.groups())
        want = (0, 0, 0, 0) if command == "setup" else self.tally
        if got != want:
            self.fail(f"{command}: summary line {match.group(0)!r} disagrees with the records")

    # -- phases -----------------------------------------------------------

    def latency_pass(self, passes: list[list[int]], warm: list[list[tuple[int, float]]]):
        """A function timing library classify() once per latency trace, in ns.

        The model is loaded and the traces parsed here, outside the timing.
        Each pass appends its per-trace times to `passes` and the times of
        its in-process reference units to `warm`: one unit at the start and
        end of the pass and one every WARM_EVERY_S in between, so the
        reference samples the same moments as the program.
        """
        with open(self.model, "rb") as fh:
            model = self.pkg.dfa.deserialize(fh)
        traces = list(self.pkg.ingest.parse_traces(self.wl.latency_lines))
        trie = workloads.RefTrie()
        with open(self.wl.patterns, "rb") as fh:
            for line in fh:
                trie.insert(json.loads(line)["steps"])
        walks = [[s if isinstance(s, list) else [s] for s in json.loads(line)["steps"]]
                 for line in self.wl.latency_lines[:WARM_WALKS]]
        classify = self.pkg.classify.classify
        clock = time.perf_counter_ns

        def one_pass():
            outcomes, times, units = [], [], [(0, _time_warm(trie, walks))]
            self.attempted += 1
            next_warm = clock() + WARM_EVERY_S * 1e9
            try:
                for trace in traces:
                    t0 = clock()
                    outcome = classify(model, trace)
                    t1 = clock()
                    times.append(t1 - t0)
                    outcomes.append(outcome)
                    if t1 >= next_warm:
                        units.append((len(times), _time_warm(trie, walks)))
                        next_warm = clock() + WARM_EVERY_S * 1e9
            except Exception as exc:  # a failed call is a failed operation, not a crash
                self.failed += 1
                self.fail(f"latency: classify() raised {type(exc).__name__}: {exc}")
                return
            units.append((len(times), _time_warm(trie, walks)))
            passes.append(times)
            warm.append(units)
            got = [(o.verdict.value, o.match_percentage) for o in outcomes]
            if got != self.wl.latency_expected:
                self.failed += 1
                wrong = sum(a != b for a, b in zip(got, self.wl.latency_expected))
                self.fail(f"latency: {wrong} library classifications disagree with the reference")

        return one_pass

    def end_to_end(self, seconds):
        timeline: list[tuple[str, float]] = []  # (command or "calibrate", wall s) in run order
        rss = {command: [] for command in COMMANDS}
        passes: list[list[int]] = []
        warm: list[list[tuple[int, float]]] = []  # per pass: (traces timed before, unit s)
        latency = None
        start, rounds = time.perf_counter(), 0
        while True:
            for command in ROUND:
                if command == "calibrate":
                    timeline.append((command, self.calibrate()))
                    continue
                wall, peak = self.cli(command)
                timeline.append((command, wall))
                rss[command].append(peak)
            if latency is None:
                latency = self.latency_pass(passes, warm)
            repeat(LATENCY_PER_ROUND_S, 1, latency)
            rounds += 1
            spent = time.perf_counter() - start
            if spent + spent / rounds > seconds:  # stop unless a whole round more fits
                break
        timeline.append(("calibrate", self.calibrate()))
        scale = self.wl.scale
        med = statistics.median
        walls = {command: [w for c, w in timeline if c == command] for command in COMMANDS}
        scaled = {command: [w * CAL_REF_S / r for w, r in _beside_reference(timeline, command)]
                  for command in COMMANDS}

        # Each call is scaled by the mean of the two reference units that
        # bracket it; a trace's latency is its median over the passes, so a
        # moment of contention that hits one call does not reach the tail.
        def per_trace(to_reference):
            if not passes:
                return [0]
            rows = []
            for times, units in zip(passes, warm):
                factors = []
                for (lo, before), (hi, after) in zip(units, units[1:]):
                    f = 2 * WARM_REF_S / (before + after) if to_reference else 1.0
                    factors += [f] * (hi - lo)
                rows.append([t * f for t, f in zip(times, factors)])
            return [med(column) for column in zip(*rows)]

        def metrics(cmd, lat):
            return {
                "setup_s": middle_mean(cmd["setup"]),
                "classify_traces_per_s": len(self.wl.expected) / middle_mean(cmd["classify"]),
                "trace_latency_p50_us": quantile(lat, 50) / 1000,
                "trace_latency_p99_us": quantile(lat, 99) / 1000,
                "build_patterns_per_s": scale.patterns / middle_mean(cmd["build"]),
                "add_patterns_per_s": scale.batch / middle_mean(cmd["add"]),
                "peak_rss_mb": med(rss["classify"]),
            }

        return metrics(scaled, per_trace(True)), {
            "rounds": rounds, "latency_passes": len(passes), "timeline": timeline,
            "warm_reference_s": warm, "raw_metrics": metrics(walls, per_trace(False)),
            "peak_rss_mb": rss}

    def traced(self, command):
        """Run one CLI command under tracing.py in a fresh process; returns wall s."""
        if command == "add":
            shutil.copyfile(self.model, self.added)
        reply = self.spawner.run(
            [sys.executable, str(BENCH / "tracing.py"), str(self.spans_path(command)), "--",
             *self.argv[command]], self.wl.dir, self.env)
        self.finish(command, reply["code"], reply["stderr"])
        return reply["wall_s"]

    def spans_path(self, command):
        return self.wl.dir / f"spans-{command}.json"

    def per_layer(self, seconds):
        for command in ("build", "add", "setup"):
            self.traced(command)
        # Traced and plain CLI runs alternate, so drift hits both alike.
        pairs = repeat(seconds * 0.7, 2, lambda: (self.traced("classify"), self.cli("classify")))
        traced_walls = [traced for traced, _ in pairs]
        cli_walls = [wall for _, (wall, _) in pairs]
        lines = self.wl.traces.read_bytes().splitlines()
        json_loads_s = statistics.median(repeat(seconds * 0.05, 3, lambda: _time_json(lines)))

        spans = {command: json.loads(self.spans_path(command).read_text())["spans"]
                 for command in COMMANDS}

        def pick(command, name):
            return [span for span in spans[command] if span[0] == name]

        def dur(command, *names):
            return sum(end - start for n in names for _, start, end, *_ in pick(command, n))

        def own(command, name):
            return sum(span[4] for span in pick(command, name))

        items = [span[5] for span in pick("classify", "ingest.scan_traces") if span[5] is not None]
        traces = sum(1 for n in items if n >= 0)
        depths = [span[5] for span in pick("classify", "classify.match_prefix")]
        verdicts = [span[5] for span in pick("classify", "classify.classify")]
        busy = dur("classify", "ingest.scan_traces")
        nearest_s = dur("classify", "classify.nearest_final")
        render_s = dur("classify", "report.__init__", "report.record", "report.finish")
        layer_self = sum(span[4] for span in spans["classify"] if span[3] >= 0)
        return {
            "ingest.busy_s": busy,
            "ingest.traces": traces,
            "ingest.steps": sum(n for n in items if n >= 0),
            "ingest.record_errors": sum(1 for n in items if n < 0),
            "ingest.traces_per_s": traces / busy,
            "ingest.json_loads_s": json_loads_s,
            "ingest.json_floor_ratio": busy / json_loads_s,
            "classify.match_prefix_s": dur("classify", "classify.match_prefix"),
            "classify.nearest_final_s": nearest_s,
            "classify.nearest_final_calls": len(pick("classify", "classify.nearest_final")),
            "classify.nearest_final_share": nearest_s / dur("classify", "classify.classify"),
            "classify.score_s": dur("classify", "classify.match_percentage"),
            "classify.self_s": own("classify", "classify.classify"),
            "classify.walk_depth_p50": quantile(depths, 50),
            "classify.walk_depth_p90": quantile(depths, 90),
            "classify.malign": verdicts.count("malign"),
            "classify.partial": verdicts.count("partially_malign"),
            "classify.benign": verdicts.count("benign"),
            "report.render_s": render_s,
            "report.records_per_s": len(pick("classify", "report.record")) / render_s,
            "report.bytes": self.outputs["classify"].stat().st_size,
            "dfa.deserialize_s": own("setup", "dfa.deserialize"),
            "dfa.validate_s": dur("setup", "dfa.validate"),
            "dfa.build_s": dur("build", "dfa.build_dfa"),
            "dfa.serialize_s": dur("build", "dfa.serialize"),
            "dfa.add_ms_per_pattern": 1000 * dur("add", "dfa.add_pattern") / self.wl.scale.batch,
            "dfa.states": self.shape["build"]["states"],
            "dfa.transitions": self.shape["build"]["transitions"],
            "dfa.finals": self.shape["build"]["finals"],
            "dfa.model_bytes": self.model.stat().st_size,
            "catalog.load_s": sum(dur(c, "catalog.load_catalog", "catalog.default_catalog")
                                  for c in COMMANDS),
            "cli.overhead_s": statistics.median(cli_walls) - layer_self,
            "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(cli_walls),
        }, {"cli_walls_s": cli_walls, "traced_walls_s": traced_walls,
            "spans": {command: len(spans[command]) for command in COMMANDS}}


def _beside_reference(timeline, command):
    """(wall, reference) for each run of `command`; the reference is the mean
    of the reference-job times just before and just after it."""
    pairs = []
    for i, (name, wall) in enumerate(timeline):
        if name != command:
            continue
        before = next(w for c, w in reversed(timeline[:i]) if c == "calibrate")
        after = next(w for c, w in timeline[i + 1:] if c == "calibrate")
        pairs.append((wall, (before + after) / 2))
    return pairs


def _time_warm(trie, walks):
    start = time.perf_counter()
    calibrate.warm_unit(trie, walks, WARM_SEARCH)
    return time.perf_counter() - start


def _time_json(lines):
    """Bare json.loads over the lines, malformed ones included."""
    loads = json.loads
    start = time.perf_counter()
    for line in lines:
        try:
            loads(line)
        except ValueError:
            pass
    return time.perf_counter() - start


def log(text):
    print(text, file=sys.stderr, flush=True)


def load_program():
    """Import behaviordfa from this checkout's src/, or None if it is missing."""
    if not (SRC / "behaviordfa" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    modules = {m: importlib.import_module(f"behaviordfa.{m}") for m in ("dfa", "classify", "ingest")}
    if SRC not in Path(modules["dfa"].__file__).resolve().parents:
        return None
    return SimpleNamespace(**modules)


def environment(args):
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale_name": args.scale,
        "scale": vars(workloads.SCALES[args.scale][args.workload]),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SCALES["full"]))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=56, help="measuring budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    pkg = load_program()
    if pkg is None:
        print(f"error: no behaviordfa source tree at {SRC}", file=sys.stderr)
        return 1
    env = environment(args)
    log("environment: " + json.dumps(env))

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.generate(args.workload, args.seed, args.scale, work)
    # Keep the harness's own objects out of the collector's scans, so that
    # the in-process latency pass pays only for the program's allocations.
    gc.freeze()
    log(f"workload {wl.name} properties: " + json.dumps(wl.properties))

    pins = None
    if args.seed == DEFAULT_SEED and args.scale == "full":
        pins = json.loads((BENCH / "digests.json").read_text()).get(args.workload, {})
    # Metric names and units live in BENCHMARK.json at the repository root.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    spawner = Spawner()
    try:
        bench = Bench(wl, pkg, pins, spawner)
        if args.trace:
            metrics, detail = bench.per_layer(args.seconds)
        else:
            metrics, detail = bench.end_to_end(args.seconds)
    finally:
        spawner.close()

    failed = bench.failed
    for message in bench.failures:
        log(f"FAILED {message}")
    log(f"failed_ops_ratio {failed / bench.attempted:.4f} ratio "
        f"({failed} of {bench.attempted} operations)")
    raw = detail.get("raw_metrics", metrics)
    if "raw_metrics" in detail:
        log("timings scaled to reference speed; raw values in the last column")
    for name, unit in units.items():
        log(f"{name:32s} {metrics[name]:>16.6g} {unit:6s} {raw[name]:>16.6g}")
    record = {"environment": env, "properties": wl.properties, "digests": bench.digests,
              "metrics": metrics, "detail": detail, "failures": bench.failures}
    (work / f"run-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str))
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

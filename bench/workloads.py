"""Seeded input generators and an independent reference for the benchmark.

Every input file the program sees is made here from one integer seed, so
the same seed gives byte-identical inputs. The reference trie below
re-derives model shape, verdicts and exact percentages straight from the
generated patterns; it shares no code with the engine and is what the
benchmark checks the program's outputs against on every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# The stock catalog as the README documents it. The benchmark keeps its
# own copy so that the reference does not depend on the engine.
CATALOG = (
    (1, "Find DOM Element(s)", 2),
    (2, "Add DOM Element(s)", 1),
    (3, "Update DOM Element", 3),
    (4, "Inject Code Dynamically", 4),
    (5, "Set Callback", 3),
    (6, "Access Input", 4),
    (7, "Add Event Handler", 3),
    (11, "Send Data", 5),
)
WEIGHT = {bid: weight for bid, _, weight in CATALOG}

# Patterns never use id 2, so a step on 2 never has a transition. Traces
# use it to start benign walks and as the extra id in grouped steps; id 9
# is outside the catalog and only appears where no catalog is passed.
PATTERN_IDS = (1, 3, 4, 5, 6, 7, 11)
PATTERN_ID_ODDS = (5, 3, 1, 3, 1, 3, 2)
ABSENT_ID = 2
OFF_CATALOG_ID = 9


@dataclass(frozen=True)
class Scale:
    patterns: int
    pattern_len: tuple[int, int]
    repeat_p: float  # chance that a pattern run is repeated (gets a self-loop)
    batch: int  # patterns inserted by `add`
    traces: int
    latency_traces: int  # traces timed one by one through the library


# Why each workload exists:
# - triage-M: the ROADMAP "M" model and a realistic verdict mix with a
#   fixed share of walks that stop near the root. Nearly all time goes to
#   the nearest-final search, so this is where a cheaper denominator shows.
# - pagescan-long: a smaller model; traces of hundreds of steps with long
#   runs, grouped steps and ~1% malformed lines, classified with --catalog
#   into CSV. Walks end deep where little is left to search, so ingest
#   dominates and the nearest-final search should not move.
# Both also build their model and add a small batch to it, so the dfa
# write path and the model load are timed on two model shapes.
SCALES = {
    "full": {
        "triage-M": Scale(2000, (5, 40), 0.10, 4, 1000, 1000),
        "pagescan-long": Scale(1000, (5, 40), 0.35, 4, 2000, 3000),
    },
    "tiny": {
        "triage-M": Scale(60, (5, 40), 0.10, 3, 200, 100),
        "pagescan-long": Scale(40, (5, 40), 0.35, 3, 200, 100),
    },
}


def runs_of(ids):
    """Collapse consecutive repeats into [behavior, count] runs."""
    runs = []
    for b in ids:
        if runs and runs[-1][0] == b:
            runs[-1][1] += 1
        else:
            runs.append([b, 1])
    return runs


class RefTrie:
    """Run-collapsed trie built from scratch, numbered in creation order."""

    def __init__(self):
        self.children = [{}]
        self.loops = [set()]
        self.final = [False]
        self.depth = [0]

    def insert(self, ids):
        state = 0
        for b, count in runs_of(ids):
            child = self.children[state].get(b)
            if child is None:
                child = len(self.children)
                self.children[state][b] = child
                self.children.append({})
                self.loops.append(set())
                self.final.append(False)
                self.depth.append(self.depth[state] + 1)
            if count > 1:
                self.loops[child].add(b)
            state = child
        self.final[state] = True

    def shape(self):
        transitions = sum(len(c) for c in self.children) + sum(len(l) for l in self.loops)
        return {"states": len(self.children), "transitions": transitions,
                "finals": sum(self.final)}

    def costs(self):
        """Cheapest weight from each state to a final; children have larger ids."""
        cost = [0] * len(self.children)
        for s in range(len(self.children) - 1, -1, -1):
            if not self.final[s]:
                cost[s] = min(WEIGHT[b] + cost[c] for b, c in self.children[s].items())
        return cost

    def judge(self, steps, cost):
        """(verdict, exact percentage, walk depth) under the paper's rules."""
        state, matched = 0, 0
        reached = self.final[0]
        for step in steps:
            if reached:
                break
            best = None
            for b in step:
                if b in self.children[state] or b in self.loops[state]:
                    if best is None or (-WEIGHT[b], b) < (-WEIGHT[best], best):
                        best = b
            if best is None:
                break
            if best in self.children[state]:
                matched += WEIGHT[best]
                state = self.children[state][best]
                reached = self.final[state]
        if reached:
            return "malign", Fraction(100), self.depth[state]
        if matched == 0:
            return "benign", Fraction(0), 0
        return "partially_malign", Fraction(100 * matched, matched + cost[state]), self.depth[state]


@dataclass
class Workload:
    """Generated files plus what the reference expects of them."""

    name: str
    scale: Scale
    dir: Path
    patterns: Path
    batch: Path
    traces: Path
    empty: Path
    catalog: Path | None
    report_format: str
    model_shape: dict
    added_shape: dict
    expected: list  # per trace line: None for a malformed line, else (id, verdict, pct)
    latency_lines: list  # JSON lines timed one by one through the library
    latency_expected: list  # (verdict, pct) per latency line
    properties: dict


# Pattern first ids cycle through this list, so the share of patterns under
# each root edge (which sets the cost of walks that stop there) is the same
# for every seed.
FIRST_IDS = [b for b, odds in zip(PATTERN_IDS, PATTERN_ID_ODDS) for _ in range(odds)]


def _pattern(rng, scale, first, n):
    ids = [first]
    while len(ids) < n:
        choices = [(b, w) for b, w in zip(PATTERN_IDS, PATTERN_ID_ODDS) if not ids or b != ids[-1]]
        b = rng.choices([c[0] for c in choices], [c[1] for c in choices])[0]
        # The first runs stay single so that no final sits right under the root.
        repeat = len(ids) >= 4 and rng.random() < scale.repeat_p
        count = 2 + int(rng.expovariate(0.7)) if repeat else 1
        ids.extend([b] * min(count, n - len(ids)))
    return ids


def _noise(rng, n):
    """Random ids with no id twice in a row: a repeat right under the root
    would end the walk at depth 1, and how often that happens would then
    swing the cost of the workload from seed to seed."""
    ids = []
    while len(ids) < n:
        b = rng.choice(PATTERN_IDS)
        if not ids or b != ids[-1]:
            ids.append(b)
    return ids


def _diverge(rng, trie, state):
    """An id with no transition out of `state`."""
    free = [b for b in PATTERN_IDS if b not in trie.children[state] and b not in trie.loops[state]]
    return rng.choice(free) if free else ABSENT_ID


def _prefix_state(trie, runs):
    state = 0
    for b, _ in runs:
        state = trie.children[state][b]
    return state


def _triage_trace(rng, kind, pat, index, trie):
    """Flat ids, 1-60 long, shaped by `kind`."""
    if kind == "random":
        return _noise(rng, rng.randint(1, 60))
    if kind == "absent":
        return [rng.choice((ABSENT_ID, OFF_CATALOG_ID))] + _noise(rng, rng.randint(0, 59))
    runs = runs_of(pat)
    if kind == "malign":
        ids = pat + _noise(rng, rng.randint(0, 10))
    else:
        if kind == "shallow":
            # Half the short walks stop at depth 1, so the slowest 1% of
            # traces all end on the same, largest root subtree.
            cut = min((1, 1, 2, 3)[index % 4], len(runs))
        else:
            cut = rng.randint(max(1, len(runs) // 2), max(1, len(runs) - 1))
        head = [b for b, count in runs[:cut] for _ in range(count)]
        ids = head + [_diverge(rng, trie, _prefix_state(trie, runs[:cut]))]
        ids += _noise(rng, rng.randint(0, 20))
    return ids[:60]


def _page_trace(rng, kind, pat, index, trie):
    """Steps (ints or lists) of a long page session: long runs, grouped steps."""
    runs = runs_of(pat)
    if kind == "absent":
        ids = [ABSENT_ID]
    else:
        if kind == "deep":
            cut = rng.randint(max(1, (len(runs) * 3) // 4), max(1, len(runs) - 1))
            state = _prefix_state(trie, runs[:cut])
            runs = runs[:cut] + [[_diverge(rng, trie, state), 1]]
        ids = []
    for b, count in runs:
        # Only runs that own a self-loop can be stretched without diverging.
        ids.extend([b] * (rng.randint(5, 30) if count > 1 else 1))
    while len(ids) < 200:
        ids.extend([rng.choice(PATTERN_IDS)] * rng.randint(1, 25))
    steps = []
    for b in ids:
        if b != ABSENT_ID and rng.random() < 0.15:
            group = [b, ABSENT_ID]
            rng.shuffle(group)
            steps.append(group)
        else:
            steps.append(b)
    return steps


MALFORMED = (
    lambda tid: '{"id": "%s", "steps": [1, 3' % tid,
    lambda tid: json.dumps({"id": tid, "steps": [1, [3, OFF_CATALOG_ID]]}),
    lambda tid: json.dumps({"id": tid, "steps": [5, []]}),
    lambda tid: json.dumps({"id": tid, "steps": [[7, 7]]}),
    lambda tid: json.dumps({"steps": [1]}),
    lambda tid: json.dumps({"id": tid, "steps": [1, -3]}),
)

TRIAGE_MIX = (("malign", 15), ("deep", 40), ("shallow", 10), ("absent", 10), ("random", 25))
PAGE_MIX = (("malign", 40), ("deep", 55), ("absent", 5))


def _traces(rng, mix, n, pats, trie, make):
    """n traces in exactly the mix's shares, in seeded order.

    Each kind draws its patterns at even spacing from the sorted pattern
    list, so every seed samples prefixes in the model's own proportions.
    """
    kinds = []
    for kind, share in mix:
        kinds += [kind] * (n * share // 100)
    kinds += [mix[0][0]] * (n - len(kinds))
    rng.shuffle(kinds)
    ordered = sorted(pats)
    picks = {}
    for kind in sorted(set(kinds)):
        count, offset = kinds.count(kind), rng.random()
        # The index travels with its pattern, so index-driven choices such
        # as the cut depth are spread evenly over the sorted patterns too.
        picks[kind] = [(ordered[int((j + offset) * len(ordered) / count)], j)
                       for j in range(count)]
        rng.shuffle(picks[kind])
    return [make(rng, kind, *picks[kind].pop(), trie) for kind in kinds]


def _jsonl(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc, separators=(",", ":")))
            fh.write("\n")


def quantile(values, q):
    """Nearest-rank quantile, q in percent."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-len(ordered) * q // 100) - 1))]


def generate(name: str, seed: int, scale_name: str, out_dir: Path) -> Workload:
    """Write every input of one workload under out_dir; the same seed gives the same bytes."""
    scale = SCALES[scale_name][name]
    rng = random.Random(f"{name}/{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)

    # Lengths are spread evenly over the range in blocks, and first ids
    # cycle within each block, so every seed builds from the same multiset
    # of lengths and the model's size moves little from seed to seed.
    lo, hi = scale.pattern_len
    offset = rng.randrange(len(FIRST_IDS))
    pats = [_pattern(rng, scale, FIRST_IDS[(i + offset) % len(FIRST_IDS)],
                     lo + i * (hi - lo + 1) // scale.patterns)
            for i in range(scale.patterns)]
    batch = [_pattern(rng, scale, rng.choice(PATTERN_IDS), rng.randint(lo, hi))
             for _ in range(scale.batch)]
    trie = RefTrie()
    for p in pats:
        trie.insert(p)
    model_shape = trie.shape()
    patterns_path, batch_path = out_dir / "patterns.jsonl", out_dir / "batch.jsonl"
    _jsonl(patterns_path, ({"id": f"p{i:05d}", "steps": p, "label": "malicious"}
                           for i, p in enumerate(pats)))
    _jsonl(batch_path, ({"id": f"a{i:05d}", "steps": p, "label": "malicious"}
                        for i, p in enumerate(batch)))

    page = name == "pagescan-long"
    mix, make = (PAGE_MIX, _page_trace) if page else (TRIAGE_MIX, _triage_trace)
    steps_list = _traces(rng, mix, scale.traces, pats, trie, make)
    cost = trie.costs()
    latency_lines, latency_expected = [], []
    for i, steps in enumerate(_traces(rng, mix, scale.latency_traces, pats, trie, make)):
        latency_lines.append(json.dumps({"id": f"l{i:06d}", "steps": steps}))
        norm = [s if isinstance(s, list) else [s] for s in steps]
        latency_expected.append(trie.judge(norm, cost)[:2])

    malformed_every = 100 if page else 0
    lines, expected, verdicts, depths = [], [], {}, []
    grouped = run_steps = total_steps = 0
    for i, steps in enumerate(steps_list):
        tid = f"t{i:06d}"
        if malformed_every and i % malformed_every == malformed_every // 2:
            lines.append(MALFORMED[(i // malformed_every) % len(MALFORMED)](tid))
            expected.append(None)
            continue
        norm = [s if isinstance(s, list) else [s] for s in steps]
        verdict, pct, depth = trie.judge(norm, cost)
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        depths.append(depth)
        total_steps += len(norm)
        grouped += sum(len(s) > 1 for s in norm)
        run_steps += sum(a == b for a, b in zip(norm, norm[1:]))
        label = ("malicious", "benign", None)[i % 3]
        lines.append({"id": tid, "steps": steps, "label": label})
        expected.append((tid, verdict, pct))
    traces_path = out_dir / "traces.jsonl"
    _jsonl(traces_path, lines)
    empty = out_dir / "empty.jsonl"
    empty.write_bytes(b"")

    catalog = None
    if page:
        catalog = out_dir / "catalog.json"
        entries = [{"id": i, "name": n, "weight": w} for i, n, w in CATALOG]
        catalog.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")

    for p in batch:
        trie.insert(p)
    added_shape = trie.shape()
    good = len(depths)
    properties = {
        "model": model_shape,
        "model_after_add": added_shape,
        "traces": len(lines),
        "verdict_mix": {v: round(n / good, 4) for v, n in sorted(verdicts.items())},
        "walk_depth": {f"p{q}": quantile(depths, q) for q in (50, 90, 99)},
        "mean_steps_per_trace": round(total_steps / good, 1),
        "grouped_step_share": round(grouped / total_steps, 4),
        "run_step_share": round(run_steps / total_steps, 4),
        "malformed_share": round((len(lines) - good) / len(lines), 4),
    }
    return Workload(
        name=name, scale=scale, dir=out_dir, patterns=patterns_path, batch=batch_path,
        traces=traces_path, empty=empty, catalog=catalog,
        report_format="csv" if page else "json",
        model_shape=model_shape, added_shape=added_shape, expected=expected,
        latency_lines=latency_lines, latency_expected=latency_expected, properties=properties,
    )

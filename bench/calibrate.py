"""Reference job that measures how fast the machine is right now.

    python3 bench/calibrate.py PATTERNS.jsonl TRACES.jsonl

The benchmark times this job beside each of the program's commands and
scales the command's wall time by how long the job took (see run.py);
warm_unit below is the in-process counterpart for the library latency
passes. It does the same kinds of work as the engine, in plain Python:
JSON decoding of trace lines, building a trie of patterns, walking it,
allocating and sorting many small objects and JSON encoding. It uses only
the benchmark's own generated inputs and no code of the program, so no
change to the program can change its running time.
"""

import json
import sys
from heapq import heappop, heappush
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WEIGHT, RefTrie  # noqa: E402


class Edge:
    __slots__ = ("source", "behavior", "target")

    def __init__(self, source, behavior, target):
        self.source, self.behavior, self.target = source, behavior, target


def main(patterns_path, traces_path):
    trie = RefTrie()
    with open(patterns_path, "rb") as fh:
        for line in fh:
            trie.insert(json.loads(line)["steps"])
    cost = trie.costs()
    walked = 0
    with open(traces_path, "rb") as fh:
        for line in fh:
            try:
                steps = json.loads(line)["steps"]
                norm = [s if isinstance(s, list) else [s] for s in steps]
                walked += trie.judge(norm, cost)[2]
            except (ValueError, KeyError, TypeError):
                continue
    edges = [Edge(s, b, t) for s, children in enumerate(trie.children) for b, t in children.items()]
    edges.sort(key=lambda e: (e.target, e.behavior))
    doc = [{"from": e.source, "on": e.behavior, "to": e.target} for e in edges]
    return len(json.dumps(doc, indent=2)) + walked


def warm_unit(trie, walks, limit):
    """One unit of the in-process reference job, for the latency passes.

    The library latency is timed in a warm process, which does not slow
    down with the machine the way a fresh process does, so it gets a
    reference of its own: a uniform-cost search from the root of the
    reference trie that settles `limit` states, like the engine's
    nearest-final search, and prefix walks of pre-normalised traces, like
    its matching. Returns a checksum.
    """
    dist, heap, settled = {0: 0}, [(0, 0)], set()
    children = trie.children
    while heap and len(settled) < limit:
        d, state = heappop(heap)
        if state in settled:
            continue
        settled.add(state)
        for b, child in children[state].items():
            nd = d + WEIGHT[b]
            if child not in dist or nd < dist[child]:
                dist[child] = nd
                heappush(heap, (nd, child))
    total = len(settled)
    for steps in walks:
        state = 0
        for step in steps:
            options = [b for b in step if b in children[state] or b in trie.loops[state]]
            if not options:
                break
            best = min(options, key=lambda b: (-WEIGHT[b], b))
            state = children[state].get(best, state)
        total += state
    return total


if __name__ == "__main__":
    main(*sys.argv[1:3])

"""In-memory span recorder for the traced pass, and its entry point.

    python3 bench/tracing.py SPANS.json -- <behaviordfa CLI arguments>

runs one CLI command in this process, like `python3 -m behaviordfa`,
with a span recorded at every call into a layer: the public functions
that the CLI and classify() look up at call time are wrapped, so each
call becomes a span with a name, start, end and parent. Nothing under
src/ is changed; the wrappers are installed on module attributes. Spans
stay in memory and are written to SPANS.json when the command ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

_now = time.perf_counter
FIELDS = ["name", "start_s", "end_s", "parent", "self_s", "info"]  # columns of a dumped span


class Tracer:
    """Spans kept as [name, start, end, parent index, info] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def _open(self, name):
        self.spans.append([name, _now(), 0.0, self._stack[-1], None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index, info=None):
        span = self.spans[index]
        span[2] = _now()
        span[4] = info
        self._stack.pop()

    def wrap(self, name, fn, info=None):
        """fn with one span per call; info(result) is stored on the span."""

        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, info(result) if info and result is not None else None)

        return traced

    def wrap_iter(self, name, fn, info):
        """fn returns an iterator; each next() on it becomes one span."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    self._close(index)
                    return
                except BaseException:
                    self._close(index)
                    raise
                self._close(index, info(item))
                yield item

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path) -> None:
        own = self.self_times()
        doc = {
            "fields": FIELDS,
            "spans": [[name, start, end, parent, own[i], info]
                      for i, (name, start, end, parent, info) in enumerate(self.spans)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))



def _trace_info(item):
    steps = getattr(item, "steps", None)
    return -1 if steps is None else len(steps)


@contextmanager
def instrumented(tracer: Tracer, pkg):
    """Install span wrappers on the layer entry points of behaviordfa."""
    cli, dfa, classify = pkg.cli, pkg.dfa, pkg.classify
    patches = [
        (cli, "main", tracer.wrap("cli.main", cli.main)),
        (cli, "load_catalog", tracer.wrap("catalog.load_catalog", cli.load_catalog)),
        (cli, "default_catalog", tracer.wrap("catalog.default_catalog", cli.default_catalog)),
        (cli, "parse_traces", tracer.wrap_iter("ingest.parse_traces", cli.parse_traces, _trace_info)),
        (cli, "scan_traces", tracer.wrap_iter("ingest.scan_traces", cli.scan_traces, _trace_info)),
        (cli, "build_dfa", tracer.wrap("dfa.build_dfa", cli.build_dfa)),
        (cli, "add_pattern", tracer.wrap("dfa.add_pattern", cli.add_pattern)),
        (cli, "serialize", tracer.wrap("dfa.serialize", cli.serialize)),
        (cli, "deserialize", tracer.wrap("dfa.deserialize", cli.deserialize)),
        (dfa, "validate", tracer.wrap("dfa.validate", dfa.validate)),
        (classify, "classify", tracer.wrap("classify.classify", classify.classify,
                                           lambda c: c.verdict.value)),
        (classify, "match_prefix", tracer.wrap("classify.match_prefix", classify.match_prefix,
                                               lambda m: len(m.matched_transitions))),
        (classify, "nearest_final", tracer.wrap("classify.nearest_final", classify.nearest_final)),
        (classify, "match_percentage",
         tracer.wrap("classify.match_percentage", classify.match_percentage)),
    ]
    for writer in (classify.JsonReportWriter, classify.CsvReportWriter):
        for method in ("__init__", "record", "finish"):
            patches.append((writer, method, tracer.wrap("report." + method, getattr(writer, method))))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def main(argv) -> int:
    spans_path, separator, cli_args = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- <behaviordfa CLI arguments>")
    pkg = SimpleNamespace(**{m: importlib.import_module(f"behaviordfa.{m}")
                             for m in ("cli", "dfa", "classify")})
    tracer = Tracer()
    with instrumented(tracer, pkg):
        code = pkg.cli.main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end.

Subcommands:

    build       construct a model from a file of known-malicious patterns
    add         insert more patterns into an existing model
    classify    run a trace file against a model, emit a JSON or CSV report
    export-dot  render a model as a Graphviz digraph

Diagnostics go to stderr; data goes to stdout unless --out is given.
Exit codes: 0 success, 1 user/input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from .catalog import BehaviorCatalog, default_catalog, load_catalog
from .classify import BatchSummary, CsvReportWriter, JsonReportWriter, classify_stream
from .dfa import add_pattern, build_dfa, check_catalog, deserialize, export_dot, serialize
from .errors import EngineError, InternalInvariantError, PatternError
from .ingest import parse_traces, scan_traces


class _Parser(argparse.ArgumentParser):
    # Usage problems are user errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="behaviordfa",
        description="Classify JavaScript behavior traces against a weighted automaton "
        "of known-malicious sequences.",
    )
    volume = parser.add_mutually_exclusive_group()
    volume.add_argument("--quiet", action="store_true", help="suppress summary output")
    volume.add_argument("--verbose", action="store_true", help="print internal-error tracebacks")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    build = sub.add_parser("build", help="build a model from malicious patterns")
    build.add_argument("--patterns", required=True, help="pattern trace file (JSONL)")
    build.add_argument("--catalog", help="behavior catalog file (default: built-in)")
    build.add_argument("--out", help="model output path (default: stdout)")

    add = sub.add_parser("add", help="add patterns to an existing model")
    add.add_argument("--model", required=True, help="model file to update in place")
    add.add_argument("--patterns", required=True, help="pattern trace file (JSONL)")
    add.add_argument("--catalog", help="behavior catalog file (default: built-in)")

    classify = sub.add_parser("classify", help="classify a trace file")
    classify.add_argument("--model", required=True, help="model file")
    classify.add_argument("--traces", required=True, help="trace file (JSONL)")
    classify.add_argument("--format", choices=("json", "csv"), default="json")
    classify.add_argument("--out", help="report output path (default: stdout)")
    classify.add_argument(
        "--catalog",
        help="optional: the model's catalog; when given, trace ids are validated against it",
    )

    export = sub.add_parser("export-dot", help="render a model as Graphviz DOT")
    export.add_argument("--model", required=True, help="model file")
    export.add_argument("--out", help="DOT output path (default: stdout)")
    export.add_argument("--catalog", help="the model's catalog, for edge names (default: built-in)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "add": _cmd_add,
        "classify": _cmd_classify,
        "export-dot": _cmd_export_dot,
    }
    try:
        return handlers[args.command](args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug: no raw traceback unless asked for
        if args.verbose:
            import traceback  # only this branch needs it
            traceback.print_exc()
        kind = "" if isinstance(exc, InternalInvariantError) else f"{type(exc).__name__}: "
        print(f"internal error: {kind}{exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


def _load_catalog_arg(path: str | None) -> BehaviorCatalog:
    if path is None:
        return default_catalog()
    with open(path, "rb") as fh:
        return load_catalog(fh)


def _load_patterns(path: str, catalog: BehaviorCatalog):
    with open(path, "rb") as fh:
        patterns = list(parse_traces(fh, catalog))
    for trace in patterns:
        if trace.label == "benign":
            raise PatternError(
                f"pattern {trace.trace_id!r} is labeled benign; "
                "models are built from malicious sequences only"
            )
    if not patterns:
        raise PatternError("no patterns in file")
    return patterns


def _atomic_write(path: str, data: bytes) -> None:
    # Temp file in the target directory, then rename: an interrupted write
    # never leaves a half-written model behind. It keeps the replaced file's
    # mode, or takes the one open() gives a new file (mkstemp's is 0600).
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = Path(path).resolve().parent
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _emit(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        _atomic_write(out, data)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _model_summary(dfa) -> str:
    return (
        f"states={dfa.state_count} transitions={len(dfa.transitions)} "
        f"finals={len(dfa.finals)} patterns={dfa.pattern_count}"
    )


def _cmd_build(args) -> int:
    catalog = _load_catalog_arg(args.catalog)
    patterns = _load_patterns(args.patterns, catalog)
    dfa = build_dfa(patterns, catalog)
    _emit(serialize(dfa), args.out)
    _say(args, f"model built: {_model_summary(dfa)}")
    return 0


def _cmd_add(args) -> int:
    catalog = _load_catalog_arg(args.catalog)
    # Patterns first: a bad pattern file fails before paying for a model load.
    patterns = _load_patterns(args.patterns, catalog)
    with open(args.model, "rb") as fh:
        dfa = deserialize(fh)
    for pattern in patterns:
        dfa = add_pattern(dfa, pattern, catalog)
    _atomic_write(args.model, serialize(dfa))
    _say(args, f"model updated: {_model_summary(dfa)}")
    return 0


def _cmd_classify(args) -> int:
    # The report file is truncated on open, before any input is read.
    if args.out is not None and os.path.exists(args.out):
        for flag, path in (("--traces", args.traces), ("--model", args.model)):
            if os.path.exists(path) and os.path.samefile(args.out, path):
                raise FileExistsError(f"--out {args.out} is the {flag} file; not overwriting it")
    with open(args.model, "rb") as fh:
        dfa = deserialize(fh)
    catalog = None
    if args.catalog is not None:
        catalog = _load_catalog_arg(args.catalog)
        check_catalog(dfa, catalog)
    summary = BatchSummary()

    def render(out):
        writer = JsonReportWriter(out) if args.format == "json" else CsvReportWriter(out)
        with open(args.traces, "rb") as traces_fh:
            for item in classify_stream(dfa, scan_traces(traces_fh, catalog)):
                summary.add(item)
                writer.record(item)
        writer.finish(summary)

    if args.out is None:
        render(sys.stdout)
        sys.stdout.flush()
    else:
        # Reports stream straight to the file; only models need atomic writes.
        with open(args.out, "w", encoding="utf-8", newline="") as out_fh:
            render(out_fh)
    _say(args, summary.summary_line())
    return 0


def _cmd_export_dot(args) -> int:
    with open(args.model, "rb") as fh:
        dfa = deserialize(fh)
    catalog = _load_catalog_arg(args.catalog)
    if args.catalog is not None:
        check_catalog(dfa, catalog)
    _emit(export_dot(dfa, catalog).encode("utf-8"), args.out)
    return 0


if __name__ == "__main__":
    run()

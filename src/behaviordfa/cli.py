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
from contextlib import nullcontext

from .catalog import BehaviorCatalog, default_catalog, load_catalog
from .classify import BatchSummary, CsvReportWriter, JsonReportWriter, classify_stream
from .dfa import build_dfa, check_catalog, check_pattern, deserialize, export_dot, serialize
# `add` grows the model once for its whole batch; bench/tracing.py times it as cli.add_pattern.
from .dfa import add_patterns as add_pattern
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
    """The process entry (`python -m behaviordfa`, the console script).

    A command's objects hold no reference cycles, so the collector's
    first-generation threshold goes from 700 to 100,000 allocations; a
    cycle made per record would still be collected. Once main() returns
    and the standard streams are flushed, os._exit() skips the
    interpreter's teardown; if a flush fails, sys.exit() reports it.
    main(), for library and test callers, changes neither.
    """
    import gc

    gc.set_threshold(100_000)
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


def _load_catalog_arg(path: str | None) -> BehaviorCatalog:
    if path is None:
        return default_catalog()
    with open(path, "rb") as fh:
        return load_catalog(fh)


def _load_patterns(path: str, catalog: BehaviorCatalog):
    """The patterns of a pattern file; each is checked by check_pattern() as it is read."""
    patterns = []
    with open(path, "rb") as fh:
        traces = parse_traces(fh, catalog)  # yields each trace as soon as its line is read
        for trace in traces:
            try:
                check_pattern(trace)
            except PatternError as exc:
                traces.throw(exc)  # the reader names it by its line and raises it
            patterns.append(trace)
    if not patterns:
        raise PatternError("no patterns in file")
    return patterns


def _atomic_write(path: str, data: bytes) -> None:
    # Temp file in the target directory, then rename: an interrupted write
    # never leaves a half-written model behind. A symlink is written
    # through: the file it points to is the one replaced. It keeps the
    # replaced file's mode, or takes the one open() gives a new file
    # (mkstemp's is 0600).
    import tempfile  # only model writes need it

    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(data)
        os.replace(tmp_path, target)
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


def _refuse_out_over_inputs(args, *flags: str) -> None:
    """Refuse an --out that names an input flag's file, which writing it would replace."""
    if args.out is None or not os.path.exists(args.out):
        return
    for flag in flags:
        path = getattr(args, flag)
        if path is not None and os.path.exists(path) and os.path.samefile(args.out, path):
            raise FileExistsError(f"--out {args.out} is the --{flag} file; not overwriting it")


def _cmd_build(args) -> int:
    _refuse_out_over_inputs(args, "patterns", "catalog")
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
    dfa = add_pattern(dfa, patterns, catalog)
    _atomic_write(args.model, serialize(dfa))
    _say(args, f"model updated: {_model_summary(dfa)}")
    return 0


def _cmd_classify(args) -> int:
    _refuse_out_over_inputs(args, "traces", "model", "catalog")
    with open(args.model, "rb") as fh:
        dfa = deserialize(fh)
    catalog = None
    if args.catalog is not None:
        catalog = _load_catalog_arg(args.catalog)
        check_catalog(dfa, catalog)
    summary = BatchSummary()
    # The report opens last: an input that cannot be opened leaves the old one as it was.
    with open(args.traces, "rb") as traces_fh, (
        nullcontext(sys.stdout) if args.out is None
        else open(args.out, "w", encoding="utf-8", newline="")
    ) as out:
        writer = JsonReportWriter(out) if args.format == "json" else CsvReportWriter(out)
        for item in classify_stream(dfa, scan_traces(traces_fh, catalog)):
            summary.add(item)
            writer.record(item)
        writer.finish(summary)
        out.flush()
    _say(args, summary.summary_line())
    return 0


def _cmd_export_dot(args) -> int:
    _refuse_out_over_inputs(args, "model", "catalog")
    with open(args.model, "rb") as fh:
        dfa = deserialize(fh)
    catalog = _load_catalog_arg(args.catalog)
    _emit(export_dot(dfa, catalog).encode("utf-8"), args.out)
    return 0


if __name__ == "__main__":
    run()

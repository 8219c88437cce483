"""Weighted behavior-DFA engine for JavaScript execution-behavior traces.

Builds a deterministic automaton from known-malicious behavior sequences
and classifies new traces as benign, partially malign (with an exact match
percentage), or malign.
"""

from .catalog import BehaviorCatalog, BehaviorId, BehaviorSpec, default_catalog, load_catalog
from .classify import (
    BatchReport,
    BatchSummary,
    Classification,
    CsvReportWriter,
    JsonReportWriter,
    MatchResult,
    NearestFinal,
    Verdict,
    classification_record,
    classify,
    classify_batch,
    classify_stream,
    format_percent,
    match_percentage,
    match_prefix,
    nearest_final,
)
from .dfa import (
    BehaviorDfa,
    Transition,
    ValidationIssue,
    add_pattern,
    build_dfa,
    deserialize,
    export_dot,
    serialize,
    validate,
)
from .errors import (
    CatalogError,
    CatalogMismatchError,
    EngineError,
    InternalInvariantError,
    ModelFormatError,
    NoFinalReachableError,
    PatternError,
    TraceFormatError,
    UnknownBehaviorError,
)
from .ingest import (
    BehaviorTrace,
    RecordError,
    compress_runs,
    expand_runs,
    parse_traces,
    scan_traces,
)

__version__ = "0.1.0"

__all__ = [
    "BatchReport",
    "BatchSummary",
    "BehaviorCatalog",
    "BehaviorDfa",
    "BehaviorId",
    "BehaviorSpec",
    "BehaviorTrace",
    "CatalogError",
    "CatalogMismatchError",
    "Classification",
    "CsvReportWriter",
    "EngineError",
    "InternalInvariantError",
    "JsonReportWriter",
    "MatchResult",
    "ModelFormatError",
    "NearestFinal",
    "NoFinalReachableError",
    "PatternError",
    "RecordError",
    "TraceFormatError",
    "Transition",
    "UnknownBehaviorError",
    "ValidationIssue",
    "Verdict",
    "add_pattern",
    "build_dfa",
    "classification_record",
    "classify",
    "classify_batch",
    "classify_stream",
    "compress_runs",
    "default_catalog",
    "deserialize",
    "expand_runs",
    "export_dot",
    "format_percent",
    "load_catalog",
    "match_percentage",
    "match_prefix",
    "nearest_final",
    "parse_traces",
    "scan_traces",
    "serialize",
    "validate",
]

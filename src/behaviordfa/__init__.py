"""Weighted behavior-DFA engine for JavaScript execution-behavior traces.

Builds a deterministic automaton from known-malicious behavior sequences
and classifies new traces as benign, partially malign (with an exact match
percentage), or malign.
"""

from .catalog import BehaviorCatalog, BehaviorSpec, default_catalog, load_catalog
from .classify import (
    BatchSummary,
    Classification,
    CsvReportWriter,
    JsonReportWriter,
    MatchResult,
    NearestFinal,
    Verdict,
    classification_record,
    classify,
    classify_stream,
    match_percentage,
    match_prefix,
    nearest_final,
)
from .dfa import (
    BehaviorDfa,
    Transition,
    ValidationIssue,
    add_patterns,
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
    PatternError,
    TraceFormatError,
    UnknownBehaviorError,
)
from .ingest import (
    BehaviorTrace,
    RecordError,
    parse_traces,
    scan_traces,
)

__version__ = "0.1.0"

__all__ = [
    "BatchSummary",
    "BehaviorCatalog",
    "BehaviorDfa",
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
    "PatternError",
    "RecordError",
    "TraceFormatError",
    "Transition",
    "UnknownBehaviorError",
    "ValidationIssue",
    "Verdict",
    "add_patterns",
    "build_dfa",
    "classification_record",
    "classify",
    "classify_stream",
    "default_catalog",
    "deserialize",
    "export_dot",
    "load_catalog",
    "match_percentage",
    "match_prefix",
    "nearest_final",
    "parse_traces",
    "scan_traces",
    "serialize",
    "validate",
]

"""Miniature end-to-end data warehouse for employment-agency applicants.

Three legacy city sources (fixed-width, delimited, dBASE III) are parsed
into one canonical record shape, cleaned and generalized, loaded into a
star schema, and served through a multidimensional cube with roll-up,
drill-down, slice, and dice, plus decision-support reports and a
scan-versus-cube benchmark harness.
"""

from .bench import BenchConfig, BenchResult, QueryTiming, run_benchmark, run_scan_query, write_bench_report
from .cube import (
    AggregateQuery,
    Cube,
    CubeAxis,
    ResultTable,
    aggregate,
    build_cube,
    dice,
    drilldown,
    rollup,
    slice_cube,
)
from .datagen import GenConfig, GenResult, Rng, generate
from .errors import JobcubeError
from .preprocess import (
    CleaningPolicy,
    ConceptHierarchy,
    PreprocessReport,
    deduplicate,
    dimension_reduce,
    fill_missing,
    generalize,
    normalize_codes,
    run_pipeline,
)
from .records import CanonicalApplicant, read_records_csv, write_records_csv
from .reporting import ReportSpec, run_report
from .sources import (
    FieldDescriptor,
    IngestReport,
    SourceSpec,
    ingest_sources,
    parse_dbf,
    parse_delimited,
    parse_fixed_width,
    read_dbf,
    record_mapper,
    row_mapper,
)
from .warehouse import (
    StarSchema,
    build_schema,
    check_integrity,
    load_schema,
    logically_equal,
    persist,
    refresh,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateQuery",
    "BenchConfig",
    "BenchResult",
    "CanonicalApplicant",
    "CleaningPolicy",
    "ConceptHierarchy",
    "Cube",
    "CubeAxis",
    "FieldDescriptor",
    "GenConfig",
    "GenResult",
    "IngestReport",
    "JobcubeError",
    "PreprocessReport",
    "QueryTiming",
    "ReportSpec",
    "ResultTable",
    "Rng",
    "SourceSpec",
    "StarSchema",
    "aggregate",
    "build_cube",
    "build_schema",
    "check_integrity",
    "deduplicate",
    "dice",
    "dimension_reduce",
    "drilldown",
    "fill_missing",
    "generalize",
    "generate",
    "ingest_sources",
    "load_schema",
    "logically_equal",
    "normalize_codes",
    "parse_dbf",
    "parse_delimited",
    "parse_fixed_width",
    "persist",
    "read_dbf",
    "read_records_csv",
    "record_mapper",
    "refresh",
    "rollup",
    "row_mapper",
    "run_benchmark",
    "run_pipeline",
    "run_report",
    "run_scan_query",
    "slice_cube",
    "write_bench_report",
    "write_records_csv",
    "__version__",
]

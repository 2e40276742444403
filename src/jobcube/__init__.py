"""Miniature end-to-end data warehouse for employment-agency applicants.

Three legacy city sources (fixed-width, delimited, dBASE III) are parsed
into one canonical record shape, cleaned and generalized, loaded into a
star schema, and served through a multidimensional cube with roll-up,
drill-down, slice, and dice, plus decision-support reports and a
scan-versus-cube benchmark harness.

`_EXPORTS` names each public object once, under the module that defines
it. `from jobcube import X` imports X's module on first use (PEP 562), so
`import jobcube.<module>` loads only that module and what it imports.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bench": "BenchResult QueryTiming run_benchmark run_scan_query write_bench_report",
    "config": "BenchConfig CleaningPolicy GenConfig",
    "cube": "AggregateQuery Cube CubeAxis ResultTable aggregate build_cube dice drilldown rollup "
            "slice_cube",
    "datagen": "GenResult Rng generate",
    "errors": "JobcubeError",
    "preprocess": "ConceptHierarchy PreprocessReport deduplicate dimension_reduce "
                  "fill_missing generalize normalize_codes run_pipeline",
    "records": "CanonicalApplicant read_records_csv write_records_csv",
    "reporting": "ReportSpec run_report",
    "sources": "FieldDescriptor IngestReport SourceSpec ingest_sources parse_dbf parse_delimited "
               "parse_fixed_width read_dbf record_mapper row_mapper",
    "warehouse": "StarSchema build_schema check_integrity load_schema logically_equal persist "
                 "refresh",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """An export, imported on first use. Any other name raises AttributeError,
    so `from jobcube import cli` falls back to importing the submodule."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value

"""Command-line driver: gen | ingest | etl | load | refresh | query | report
| bench | validate.

One YAML config drives everything; flags only pick the subcommand, the
config path, and query parameters, which `config.parse_query` reads in the
same grammar as a config's bench queries and custom reports. Stages hand
artifacts to each other as files: gen writes the raw sources plus sidecar
configs into data_dir, ingest writes staging.csv, etl writes clean.csv,
load/refresh maintain the warehouse directory, and every command that reads
it does so through `_warehouse`, which refuses what `validate` refuses. Exit
codes: 0 success (or --help), 1 for a flag or subcommand argparse refuses,
and otherwise the `exit_code` of the JobcubeError raised: 1 usage or config
error, 2 data error (quarantine files written where applicable) or OSError,
3 a warehouse that fails a check of `load_schema` or `check_integrity`.
gen, ingest, etl and bench import their stage module when they run, so
the other commands load no module they do not call.
"""

from __future__ import annotations

import argparse
import fcntl
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from .config import (CITY_ORDER, PipelineConfig, load_codebooks, load_config, load_hierarchy,
                     load_sources, parse_query)
from .cube import MEASURES, aggregate, build_cube
from .errors import ConfigError, CorruptManifest, JobcubeError
from .records import ALL_FIELDS, find_row, read_columns, read_records_csv, text_years, write_csv
from .reporting import run_report, write_result
from .warehouse import (LOAD_FIELDS, MANIFEST_FILE, StarSchema, check_integrity, empty_schema,
                        load_schema, member_lists, persist, refresh_members)

INGEST_REJECTS = "ingest_rejects.csv"
ETL_REJECTS = "rejects.csv"


def _say(message: str) -> None:
    print(message, file=sys.stderr)


@contextmanager
def _locked(warehouse_dir: Path):
    """One process per warehouse: an exclusive flock on its .lock file, which the
    kernel drops when the holder dies. The file stays: unlinking races an opener."""
    warehouse_dir.mkdir(parents=True, exist_ok=True)
    lock = warehouse_dir / ".lock"
    with open(lock, "ab") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"{lock}: warehouse is locked by another process") from None
        yield


def _require_file(path: Path, hint: str) -> None:
    if not path.exists():
        raise ConfigError(f"{path}: not found; run `{hint}` first")


def _clean_records(config: PipelineConfig) -> list:
    """The records `jobcube etl` wrote to clean.csv, for bench's row scan."""
    _require_file(config.clean_path(), "jobcube etl")
    return read_records_csv(config.clean_path())


def _refreshed(config: PipelineConfig, schema: StarSchema) -> tuple[StarSchema, int]:
    """schema refreshed with the LOAD_FIELDS columns of clean.csv, a record
    named by its file, line and national_id, and the record count."""
    path = config.clean_path()
    members, status = member_lists(read_columns(path, LOAD_FIELDS))
    hierarchy = load_hierarchy(config.hierarchy_path())

    def where(i: int) -> tuple[str, str]:
        line, row = find_row(path, i)
        return f"{path}: line {line}: ", row[0]
    return refresh_members(schema, members, status, hierarchy, where), len(status)


def _rejects(stage: str, path: Path, header: tuple, rows: list, what: str) -> int:
    """Write the rejected rows to path, say so and return 2; with none, remove
    a stale file from an earlier run and return 0."""
    if rows:
        write_csv(path, header, rows)
        _say(f"[{stage}] {len(rows)} {what} -> {path}")
        return 2
    path.unlink(missing_ok=True)
    return 0


def _warehouse(config: PipelineConfig, stage: str) -> StarSchema:
    """The warehouse `load_schema` reads, refused (exit 3) if `check_integrity`
    finds a violation; each is printed as `[stage] violation: ...`."""
    base = Path(config.warehouse_dir)
    _require_file(base / MANIFEST_FILE, "jobcube load")
    schema = load_schema(base)
    issues = check_integrity(schema)
    for issue in issues:
        _say(f"[{stage}] violation: {issue}")
    if issues:
        raise CorruptManifest(f"{base}: {len(issues)} invariant violation(s); "
                              "`jobcube load` rebuilds the warehouse")
    return schema


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(config: PipelineConfig, args: argparse.Namespace) -> int:
    from .datagen import generate
    result = generate(config.gen, config.data_dir)
    _say(f"[gen] persons={result.expect.persons} wire_rows={result.expect.wire_rows} "
         f"duplicates={result.expect.duplicates} "
         f"blanks={sum(result.expect.filled.values())} "
         f"discrepancies={sum(result.expect.normalized.values())}")
    for city in CITY_ORDER:
        path = result.files[city]
        _say(f"[gen] {path} ({path.stat().st_size} bytes)")
    _say(f"[gen] truth={result.files['truth']}")
    return 0


def cmd_ingest(config: PipelineConfig, args: argparse.Namespace) -> int:
    from .sources import RejectedRow, ingest_columns
    specs = load_sources(config.sources_path())
    for spec in specs:
        _require_file(Path(config.data_dir) / spec.path, "jobcube gen")
    columns, report = ingest_columns(specs, config.data_dir)
    for line in report.summary_lines():
        _say(f"[ingest] {line}")

    staging = config.staging_path()
    written = write_csv(staging, ALL_FIELDS, zip(*text_years(columns)))
    _say(f"[ingest] staged {written} records -> {staging}")
    return _rejects("ingest", Path(config.data_dir) / INGEST_REJECTS, RejectedRow._fields,
                    report.rejects, "rejected rows")


def cmd_etl(config: PipelineConfig, args: argparse.Namespace) -> int:
    from .preprocess import run_columns
    staging = config.staging_path()
    _require_file(staging, "jobcube ingest")
    columns = read_columns(staging)
    staged = len(columns[0])
    codebooks = load_codebooks(config.codebooks_path())
    hierarchy = load_hierarchy(config.hierarchy_path())
    cleaned, report = run_columns(columns, codebooks=codebooks,
                                  policy=config.policy(), hierarchy=hierarchy)
    del columns
    for line in report.summary_lines():
        _say(f"[etl] {line}")

    clean = config.clean_path()
    written = write_csv(clean, ALL_FIELDS, zip(*text_years(cleaned)))
    _say(f"[etl] {staged} in, {written} out -> {clean}")
    return _rejects("etl", Path(config.data_dir) / ETL_REJECTS, ALL_FIELDS,
                    report.rejected, "quarantined records")


def cmd_load(config: PipelineConfig, args: argparse.Namespace) -> int:
    _require_file(config.clean_path(), "jobcube etl")
    schema, records = _refreshed(config, empty_schema((config.year_from, config.year_to)))
    with _locked(Path(config.warehouse_dir)):
        manifest = persist(schema, config.warehouse_dir)
    _say_persisted("load", schema, records, manifest)
    return 0


def cmd_refresh(config: PipelineConfig, args: argparse.Namespace) -> int:
    _require_file(Path(config.warehouse_dir) / MANIFEST_FILE, "jobcube load")
    _require_file(config.clean_path(), "jobcube etl")
    with _locked(Path(config.warehouse_dir)):   # held from read to write
        schema = _warehouse(config, "refresh")
        before = {dim: len(table) for dim, table in schema.dimensions.items()}
        refreshed, records = _refreshed(config, schema)
        manifest = persist(refreshed, config.warehouse_dir)
    _say_persisted("refresh", refreshed, records, manifest, before)
    return 0


def _say_persisted(stage: str, schema: StarSchema, records: int, manifest: Path,
                   before: dict[str, int] | None = None) -> None:
    """Each table's rows, a dimension's growth over its `before` rows, and the manifest."""
    for dim, table in sorted(schema.dimensions.items()):
        grown = len(table) - before[dim] if before else 0
        _say(f"[{stage}] dim_{dim}: {len(table)} rows" + (f" (+{grown})" if grown else ""))
    _say(f"[{stage}] fact: {len(schema.facts)} rows from {records} records")
    _say(f"[{stage}] manifest -> {manifest}")


# parse_query's name for each query key, in its errors
_QUERY_FLAGS = {"measure": "--measure", "group_by": "--group-by",
                "filters": "--filter", "years": "--years"}


def cmd_query(config: PipelineConfig, args: argparse.Namespace) -> int:
    query = parse_query(args.measure, args.group_by, args.filter, args.years, _QUERY_FLAGS)
    cube = build_cube(_warehouse(config, "query"))
    started = time.perf_counter()
    table = aggregate(cube, query)
    elapsed = time.perf_counter() - started
    write_result(table, args.output or sys.stdout, args.format)
    if args.output:
        _say(f"[query] {len(table.rows)} rows -> {args.output}")
    _say(f"[query] answered in {elapsed * 1000:.2f} ms")
    return 0


def cmd_report(config: PipelineConfig, args: argparse.Namespace) -> int:
    if not config.reports:
        _say("[report] no reports configured")
        return 0
    cube = build_cube(_warehouse(config, "report"))
    for spec in config.reports:
        table = run_report(cube, spec)
        target = spec.output or "(stdout)"
        _say(f"[report] {spec.kind}: {len(table.rows)} rows -> {target}")
        if not spec.output:
            write_result(table, sys.stdout, spec.format)
    return 0


def cmd_bench(config: PipelineConfig, args: argparse.Namespace) -> int:
    from .bench import run_benchmark, summary_lines, write_bench_report
    records = _clean_records(config)
    cube = build_cube(_warehouse(config, "bench"))
    result = run_benchmark(records, cube, config.bench,
                           congress_parent=cube.axis("congress").parent)
    for line in summary_lines(result):
        _say(f"[bench] {line}")
    path = write_bench_report(result, config.bench_output)
    _say(f"[bench] report -> {path}")
    return 0


def cmd_validate(config: PipelineConfig, args: argparse.Namespace) -> int:
    schema = _warehouse(config, "validate")
    total_rows = sum(len(t) for t in schema.dimensions.values())
    _say(f"[validate] warehouse ok: {len(schema.dimensions)} dimension tables "
         f"({total_rows} rows), {len(schema.facts)} fact rows")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jobcube",
        description="Employment-agency warehouse pipeline: generate sources, "
                    "ingest, clean, load a star schema, query the cube.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, handler: Callable[..., int]) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", default="jobcube.yaml",
                       help="pipeline config file (default: %(default)s)")
        p.set_defaults(run=handler)
        return p

    command("gen", "generate the three synthetic city sources", cmd_gen)
    command("ingest", "parse all sources into canonical staging records", cmd_ingest)
    command("etl", "clean, deduplicate, generalize, and reduce staged records", cmd_etl)
    command("load", "build the star schema and persist the warehouse", cmd_load)
    command("refresh", "fold the current clean records into an existing warehouse", cmd_refresh)
    query = command("query", "run one aggregate query against the cube", cmd_query)
    query.add_argument("--measure", default="total", choices=MEASURES)
    query.add_argument("--group-by", default="",
                       help="comma list of dimensions, dim or dim:level")
    query.add_argument("--years", default=None, help="year filter, e.g. 2000:2006")
    query.add_argument("--filter", action="append", default=[],
                       metavar="DIM[:LEVEL]=M1,M2",
                       help="restrict a dimension to members (repeatable)")
    query.add_argument("--format", default="csv", choices=("csv", "table"))
    query.add_argument("--output", default="", help="write result to this file")
    command("report", "run every report configured in the pipeline config", cmd_report)
    command("bench", "time configured queries, cube versus full record scan", cmd_bench)
    command("validate", "check warehouse invariants; exit 3 on violation", cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:           # argparse has printed the help, or a usage error
        return 1 if exc.code else 0
    started = time.perf_counter()
    try:
        code = args.run(load_config(args.config), args)
    except (JobcubeError, OSError) as exc:
        _say(f"error: {exc}")
        return getattr(exc, "exit_code", 2)     # an OSError is a data error
    _say(f"[{args.command}] done in {time.perf_counter() - started:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())

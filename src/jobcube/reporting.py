"""Decision-support reports over a built cube.

Each report kind expands to a fixed aggregate query template; reporting adds
no arithmetic of its own. Serialization is pinned (comma, LF, header row,
minimal quoting) so a report over the same warehouse is byte-identical
run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

from .cube import AggregateQuery, Cube, ResultTable, YearSpan, aggregate
from .errors import ConfigError
from .records import write_csv

REPORT_KINDS = ("seekers_by_sector", "seekers_vs_directed",
                "edu_level_counts", "service_counts", "custom")


@dataclass(frozen=True)
class ReportSpec:
    """One report: its kind, year range and where it goes; checked when made."""

    kind: str
    year_from: int
    year_to: int
    city_filter: frozenset[str] | None = None
    output: str = ""            # file path; empty means in-memory only
    format: str = "csv"         # csv | table
    query: AggregateQuery | None = None     # kind=custom only

    def __post_init__(self) -> None:
        if self.kind not in REPORT_KINDS:
            raise ConfigError(f"unknown report kind {self.kind!r}")
        if self.year_from > self.year_to:
            raise ConfigError(f"empty report year range {self.year_from}:{self.year_to}")
        if self.format not in ("csv", "table"):
            raise ConfigError(f"unknown report format {self.format!r}")
        if self.kind == "custom" and self.query is None:
            raise ConfigError("custom report needs a query")


def _base_filters(spec: ReportSpec) -> tuple:
    filters: list = [("time", "year", YearSpan(spec.year_from, spec.year_to))]
    if spec.city_filter:
        filters.append(("city", frozenset(spec.city_filter)))
    return tuple(filters)


def _joined_by_sector(cube: Cube, filters: tuple) -> ResultTable:
    seekers = aggregate(cube, AggregateQuery("seekers", ("sector",), filters))
    directed = aggregate(cube, AggregateQuery("directed", ("sector",), filters))
    by_sector: dict[str, list[int]] = {}
    for sector, value in seekers.rows:
        by_sector.setdefault(sector, [0, 0])[0] = value
    for sector, value in directed.rows:
        by_sector.setdefault(sector, [0, 0])[1] = value
    rows = tuple((sector, *by_sector[sector]) for sector in sorted(by_sector))
    return ResultTable(("sector", "seekers", "directed"), rows)


def run_report(cube: Cube, spec: ReportSpec) -> ResultTable:
    """Evaluate the report and, when an output path is set, serialize it."""
    filters = _base_filters(spec)
    if spec.kind == "seekers_by_sector":
        table = aggregate(cube, AggregateQuery("seekers", ("sector",), filters))
    elif spec.kind == "seekers_vs_directed":
        table = _joined_by_sector(cube, filters)
    elif spec.kind == "edu_level_counts":
        table = aggregate(cube, AggregateQuery("total", ("edulevel",), filters))
    elif spec.kind == "service_counts":
        table = aggregate(cube, AggregateQuery("total", ("service",), filters))
    else:
        table = aggregate(cube, spec.query)
    if spec.output:
        write_result(table, spec.output, spec.format)
    return table


def write_result(table: ResultTable, target: str | Path | TextIO,
                 format: str = "csv") -> Path | TextIO:
    """Write the table as CSV or as a text table to a path, making its parent
    directories, or to an open text stream. Returns the target, a path as a Path."""
    if format not in ("csv", "table"):
        raise ConfigError(f"unknown output format {format!r}")
    if isinstance(target, (str, Path)):
        target = Path(target)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_result(table, fh, format)
    elif format == "csv":
        write_csv(target, table.columns, table.rows)
    else:
        target.write(render_text_table(table) + "\n")
    return target


def render_text_table(table: ResultTable) -> str:
    """Fixed-width terminal rendering: labels left, numbers right."""
    cells = [[str(v) for v in row] for row in table.rows]
    widths = [len(c) for c in table.columns]
    for row in cells:
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))

    def fmt(parts: Iterable[str], row=None) -> str:
        out = []
        for i, text in enumerate(parts):
            numeric = row is not None and isinstance(row[i], (int, float))
            out.append(text.rjust(widths[i]) if numeric else text.ljust(widths[i]))
        return "  ".join(out).rstrip()

    lines = [fmt(table.columns), fmt("-" * w for w in widths)]
    for raw, row in zip(table.rows, cells):
        lines.append(fmt(row, raw))
    return "\n".join(lines)

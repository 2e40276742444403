"""Decision-support reports over a built cube.

Each report kind is a template of aggregate queries, one per measure over
one group-by, and a custom report is its spec's own query. Every query runs
under the spec's year and city filters; reporting adds no arithmetic of its
own. Serialization is pinned (comma, LF, header row,
minimal quoting) so a report over the same warehouse is byte-identical
run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, TextIO

from .cube import AggregateQuery, Cube, ResultTable, YearSpan, aggregate
from .errors import ConfigError
from .records import replacing, write_csv

# Each report kind is a template: one query per measure, all over one group-by.
# A custom report's one query is its spec's own.
_TEMPLATES: dict[str, tuple[AggregateQuery, ...]] = {
    "seekers_by_sector": (AggregateQuery("seekers", ("sector",)),),
    "seekers_vs_directed": (AggregateQuery("seekers", ("sector",)),
                            AggregateQuery("directed", ("sector",))),
    "edu_level_counts": (AggregateQuery("total", ("edulevel",)),),
    "service_counts": (AggregateQuery("total", ("service",)),),
    "custom": (),
}


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
        if self.kind not in _TEMPLATES:
            raise ConfigError(f"unknown report kind {self.kind!r}")
        if self.year_from > self.year_to:
            raise ConfigError(f"empty report year range {self.year_from}:{self.year_to}")
        if self.format not in ("csv", "table"):
            raise ConfigError(f"unknown report format {self.format!r}")
        if (self.kind == "custom") != (self.query is not None):
            raise ConfigError("custom report needs a query" if self.kind == "custom" else
                              f"a {self.kind} report takes no query; only a custom report does")


def _base_filters(spec: ReportSpec) -> tuple:
    filters: list = [("time", "year", YearSpan(spec.year_from, spec.year_to))]
    if spec.city_filter:
        filters.append(("city", frozenset(spec.city_filter)))
    return tuple(filters)


def run_report(cube: Cube, spec: ReportSpec) -> ResultTable:
    """Evaluate the report and, when an output path is set, serialize it.

    Each query runs with the spec's year and city filters appended. The
    queries of one template read one memoised cuboid under one mask, so
    their rows hold the same groups in the same order and zip into one table.
    """
    filters = _base_filters(spec)
    tables = [aggregate(cube, replace(query, filters=query.filters + filters))
              for query in _TEMPLATES[spec.kind] or (spec.query,)]
    table = ResultTable(tables[0].columns[:-1] + tuple(t.columns[-1] for t in tables),
                        tuple((*rows[0][:-1], *(row[-1] for row in rows))
                              for rows in zip(*(t.rows for t in tables))))
    if spec.output:
        write_result(table, spec.output, spec.format)
    return table


def write_result(table: ResultTable, target: str | Path | TextIO,
                 format: str = "csv") -> Path | TextIO:
    """Write the table as CSV or as a text table to an open text stream, or to
    a path, which is replaced whole. Returns the target, a path as a Path."""
    if format not in ("csv", "table"):
        raise ConfigError(f"unknown output format {format!r}")
    if isinstance(target, (str, Path)):
        target = Path(target)
        with replacing(target) as fh:
            write_result(table, fh, format)
    elif format == "csv":
        write_csv(target, table.columns, table.rows)
    else:
        target.write(render_text_table(table) + "\n")
    return target


def render_text_table(table: ResultTable) -> str:
    """Fixed-width terminal rendering: labels left, numbers right."""
    cells = [[str(v) for v in row] for row in table.rows]
    widths = [max(map(len, column)) for column in zip(table.columns, *cells)]
    rule = ["-" * w for w in widths]

    def fmt(texts: Sequence[str], values: Sequence) -> str:
        return "  ".join(text.rjust(w) if isinstance(v, (int, float)) else text.ljust(w)
                         for text, w, v in zip(texts, widths, values)).rstrip()

    return "\n".join(map(fmt, [table.columns, rule, *cells], [table.columns, rule, *table.rows]))

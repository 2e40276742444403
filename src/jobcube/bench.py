"""Row-scan versus cube timing harness.

The baseline answers each query with a full pass over the canonical records,
the way the pre-warehouse systems produced reports. The query is resolved
once, into one label getter per filter entry (a year span becomes an int
range on the year field), one key over the record fields
the group-by reads and one weight per status; group labels are made once per
key. The scan is still one Python pass per record, with no pre-aggregation
and no numpy. Correctness comes first:
every query's two answers are compared before any timing, and a mismatch
aborts the run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .cube import (
    AggregateQuery,
    Cube,
    ResultTable,
    YearSpan,
    aggregate,
    base_level,
    normalize_query,
    result_columns,
)
from .config import BenchConfig
from .errors import AnswerMismatch, BadLevel
from .records import (
    DIMENSIONS,
    MEMBER_FIELDS,
    STATUS_SEEKER,
    CanonicalApplicant,
    time_key,
    write_csv,
)


# measure -> (what a seeker adds, what any other record adds)
_WEIGHTS = {"total": (1, 1), "seekers": (1, 0), "directed": (0, 1)}


def _label_getter(dimension: str, level: str, congress_parent: Mapping[str, str],
                  ) -> Callable[[CanonicalApplicant], str]:
    """One callable giving a record's member label on a dimension at a level."""
    if level == base_level(dimension):
        if dimension == "time":
            return lambda r: time_key(r.year, r.quarter)
        return attrgetter(*MEMBER_FIELDS[dimension])
    if (dimension, level) == ("time", "year"):
        return lambda r: str(r.year)
    if (dimension, level) == ("congress", "city"):
        parent = congress_parent.get
        return lambda r: parent(r.congress, r.congress)
    raise BadLevel(f"{dimension}: unknown level {level!r}")


def run_scan_query(records: Sequence[CanonicalApplicant], query: AggregateQuery,
                   congress_parent: Mapping[str, str]) -> ResultTable:
    """Answer the query by scanning every record; no pre-aggregation.

    congress_parent is the warehouse's congress-to-city assignment, the
    cube's `cube.axis("congress").parent`, so a city-level grouping agrees
    with the cube; a congress it lacks is its own city. Membership of filter
    values is not validated here: a member nothing matches simply
    contributes nothing.
    """
    group_by, filters = normalize_query(
        query, {dimension: base_level(dimension) for dimension in DIMENSIONS})
    # a year span is tested as an int range on the year field, never parsed per record
    tests = [(attrgetter("year"), range(members.lo, members.hi + 1))
             if isinstance(members, YearSpan) and (dimension, level) == ("time", "year")
             else (_label_getter(dimension, level, congress_parent), members)
             for dimension, level, members in filters]
    # Group on the raw fields the group-by reads, one C call per record (a bare
    # value for one field, else a tuple); labels are made once per group.
    fields = [name for dimension, _ in group_by for name in MEMBER_FIELDS[dimension]]
    key_of = attrgetter(*fields) if fields else (lambda r: ())
    if_seeker, otherwise = _WEIGHTS[query.measure]

    raw_groups: dict[object, int] = {}
    for r in records:
        for member_of, members in tests:
            if member_of(r) not in members:
                break
        else:
            key = key_of(r)
            raw_groups[key] = raw_groups.get(key, 0) + (
                if_seeker if r.status == STATUS_SEEKER else otherwise)

    labels = [_label_getter(dimension, level, congress_parent)
              for dimension, level in group_by]
    groups: dict[tuple[str, ...], int] = {}
    for raw, n in raw_groups.items():
        record = CanonicalApplicant()._replace(
            **dict(zip(fields, (raw,) if len(fields) == 1 else raw)))
        key = tuple([label(record) for label in labels])
        groups[key] = groups.get(key, 0) + n

    columns = result_columns(group_by, query.measure)
    if not group_by:
        return ResultTable(columns, ((groups.get((), 0),),))
    rows = tuple((*key, groups[key]) for key in sorted(groups))
    return ResultTable(columns, rows)


@dataclass(frozen=True)
class QueryTiming:
    query_id: str
    scan_median: float
    cube_median: float
    speedup: float              # scan_median / cube_median
    cube_first: float           # the first cube call, which may build a cuboid


@dataclass(frozen=True)
class BenchResult:
    timings: tuple[QueryTiming, ...]


def _time_repeated(fn, repetitions: int) -> list[float]:
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def run_benchmark(records: Sequence[CanonicalApplicant], cube: Cube,
                  config: BenchConfig, congress_parent: Mapping[str, str],
                  ) -> BenchResult:
    """Time each query both ways after verifying the answers agree, with
    congress_parent as for run_scan_query.

    Raises AnswerMismatch if any query's scan and cube answers differ; a
    benchmark of wrong answers is worthless.
    """
    timings = []
    for query_id, query in config.queries:
        scan_answer = run_scan_query(records, query, congress_parent)
        start = time.perf_counter()
        cube_answer = aggregate(cube, query)
        cube_first = time.perf_counter() - start
        if scan_answer != cube_answer:
            raise AnswerMismatch(f"query {query_id!r}: scan and cube answers differ")
        for _ in range(config.warmup):
            run_scan_query(records, query, congress_parent)
            aggregate(cube, query)
        scan_times = _time_repeated(
            lambda: run_scan_query(records, query, congress_parent),
            config.repetitions)
        cube_times = _time_repeated(lambda: aggregate(cube, query),
                                    config.repetitions)
        scan_median = statistics.median(scan_times)
        cube_median = statistics.median(cube_times)
        timings.append(QueryTiming(
            query_id=query_id,
            scan_median=scan_median,
            cube_median=cube_median,
            speedup=scan_median / max(cube_median, 1e-9),
            cube_first=cube_first,
        ))
    return BenchResult(tuple(timings))


def write_bench_report(result: BenchResult, path: str | Path) -> Path:
    """One row per query; answers_equal is always true, as a mismatch aborts the run."""
    write_csv(path, ("query_id", "scan_median_s", "cube_median_s", "speedup",
                     "answers_equal"),
              ((t.query_id, f"{t.scan_median:.6f}", f"{t.cube_median:.6f}",
                f"{t.speedup:.2f}", "true")
               for t in result.timings))
    return Path(path)


def summary_lines(result: BenchResult) -> list[str]:
    lines = []
    for t in result.timings:
        lines.append(
            f"{t.query_id}: scan median {t.scan_median * 1000:.2f} ms, "
            f"cube median {t.cube_median * 1000:.2f} ms, "
            f"speedup {t.speedup:.1f}x, first call {t.cube_first * 1000:.2f} ms")
    return lines

"""Canonical applicant record: the unified schema every legacy source maps into.

All attribute values are carried as text until warehouse load; `year` is the
single typed exception because time ordering drives deduplication.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable

QUARTERS = ("Q1", "Q2", "Q3", "Q4")

STATUS_SEEKER = "seeker"
STATUS_DIRECTED = "directed"


@dataclass(frozen=True, slots=True)
class CanonicalApplicant:
    national_id: str = ""
    name: str = ""
    sex: str = ""
    district: str = ""
    congress: str = ""
    city: str = ""
    specialty: str = ""
    job_group: str = ""
    sector: str = ""            # empty <=> status is "seeker"
    moahel: str = ""            # education qualification
    education_level: str = ""   # one of the six configured levels
    service_status: str = ""
    status: str = STATUS_SEEKER
    year: int = 0
    quarter: str = ""
    source_id: str = ""         # provenance, used as a dedup tie-break


ALL_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(CanonicalApplicant))

# Fields a cleaning policy may fill. Key fields are quarantined instead,
# sector emptiness encodes seeker status, status is derived, and congress is
# populated later by generalization.
NULLABLE_FIELDS: frozenset[str] = frozenset(
    {"name", "sex", "district", "specialty", "job_group", "moahel",
     "education_level", "service_status"}
)

# The six cube dimensions, in fixed axis order, with the record field backing
# each one. Time is synthesized from (year, quarter).
DIMENSIONS: tuple[str, ...] = ("city", "sector", "edulevel", "congress", "service", "time")
DIMENSION_FIELDS: dict[str, str] = {
    "city": "city",
    "sector": "sector",
    "edulevel": "education_level",
    "congress": "congress",
    "service": "service_status",
}

# What must survive projection: the six dimension attributes, status, and the
# natural key (identity is needed for dedup idempotence and refresh).
WAREHOUSE_REQUIRED_FIELDS: frozenset[str] = frozenset(
    {"national_id", "city", "sector", "congress", "education_level",
     "service_status", "status", "year", "quarter"}
)


def derive_status(sector: str) -> str:
    return STATUS_DIRECTED if sector.strip() else STATUS_SEEKER


def quarter_index(quarter: str) -> int:
    """Q1..Q4 -> 1..4; raises ValueError on anything else."""
    if quarter not in QUARTERS:
        raise ValueError(f"not a quarter: {quarter!r}")
    return int(quarter[1])


def time_key(year: int, quarter: str) -> str:
    """Base-grain time member, e.g. (2003, 'Q2') -> '2003Q2'."""
    return f"{year}{quarter}"


def dimension_value(record: CanonicalApplicant, dimension: str) -> str:
    """The record's member on a cube dimension at base grain."""
    if dimension == "time":
        return time_key(record.year, record.quarter)
    return getattr(record, DIMENSION_FIELDS[dimension])


def record_sort_key(record: CanonicalApplicant) -> tuple:
    """Total order over records; ties between equal records only."""
    return tuple(getattr(record, name) for name in ALL_FIELDS)


def project(record: CanonicalApplicant, keep: frozenset[str] | set[str]) -> CanonicalApplicant:
    """Blank every field outside `keep` (year becomes 0)."""
    updates = {}
    for name in ALL_FIELDS:
        if name in keep:
            continue
        updates[name] = 0 if name == "year" else ""
    return replace(record, **updates) if updates else record


def write_records_csv(records: Iterable[CanonicalApplicant], path: str | Path) -> int:
    """Write records as CSV (LF, header row). Returns the row count."""
    n = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ALL_FIELDS)
        for r in records:
            writer.writerow([getattr(r, name) for name in ALL_FIELDS])
            n += 1
    return n


def read_records_csv(path: str | Path) -> list[CanonicalApplicant]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        if tuple(header) != ALL_FIELDS:
            raise ValueError(f"{path}: unexpected record columns {header}")
        out = []
        for row in reader:
            vals = dict(zip(ALL_FIELDS, row))
            vals["year"] = int(vals["year"]) if vals["year"] else 0
            out.append(CanonicalApplicant(**vals))
        return out


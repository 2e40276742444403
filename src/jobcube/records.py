"""Canonical applicant record: the unified schema every legacy source maps into.

A record is an immutable `NamedTuple`: `record._replace(field=value)` makes a
variant, and records order by their field tuple in `ALL_FIELDS` order. All
attribute values are carried as text until warehouse load; `year` is the
single typed exception because time ordering drives deduplication.

`read_records_csv` gives equal values of a field one shared `str` object
(all but the near-unique `national_id` and `name`) and parses each distinct
year text once, so later passes over the records touch a few hot objects.

Every file jobcube writes goes through `replacing`: a temp file beside the
target, renamed over it when whole, so a crash leaves the old file or the new.
A device or FIFO path such as /dev/null cannot be replaced and is written in place.

A bulk path runs under `bulk()`, which pauses the cyclic collector.
"""

from __future__ import annotations

import csv
import gc
import io
import os
import re
import shutil
from contextlib import contextmanager
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import MalformedCsv

QUARTERS = ("Q1", "Q2", "Q3", "Q4")

STATUS_SEEKER = "seeker"
STATUS_DIRECTED = "directed"


class CanonicalApplicant(NamedTuple):
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


ALL_FIELDS: tuple[str, ...] = CanonicalApplicant._fields
_YEAR = ALL_FIELDS.index("year")
_SHARED = ALL_FIELDS.index("sex")      # fields from here on repeat across rows
_CHUNK_ROWS = 512                      # rows write_csv renders per CR check
_INT_TEXT = re.compile(r"-?[0-9]+")

# Fields a cleaning policy may fill. Key fields are quarantined instead,
# sector emptiness encodes seeker status, status is derived, and congress is
# populated later by generalization.
NULLABLE_FIELDS: frozenset[str] = frozenset(
    {"name", "sex", "district", "specialty", "job_group", "moahel",
     "education_level", "service_status"}
)

# The six cube dimensions, in fixed axis order; MEMBER_GETTERS (below) gives a
# record's member on each.
DIMENSIONS: tuple[str, ...] = ("city", "sector", "edulevel", "congress", "service", "time")

# What must survive projection: the six dimension attributes, status, and the
# natural key (identity is needed for dedup idempotence and refresh).
WAREHOUSE_REQUIRED_FIELDS: frozenset[str] = frozenset(
    {"national_id", "city", "sector", "congress", "education_level",
     "service_status", "status", "year", "quarter"}
)


def derive_status(sector: str) -> str:
    return STATUS_DIRECTED if sector.strip() else STATUS_SEEKER


def parse_int(text: str) -> int:
    """ASCII `-?[0-9]+` as an int, else ValueError: integer text in records,
    configs and queries. `int()` would also take '2_003', '+2003', ' 2003'
    and non-ASCII digits."""
    if not _INT_TEXT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_years(value: int | str) -> tuple[int, int]:
    """A year range as (A, B), from an int A or text 'A' or 'A:B' whose years
    parse_int reads; ValueError if it is neither, or empty (A > B). Every year
    range, in configs, queries and the warehouse manifest, is read here."""
    if type(value) is int:
        lo = hi = value
    elif isinstance(value, str):
        lo_text, sep, hi_text = value.partition(":")
        try:
            lo, hi = parse_int(lo_text), parse_int(hi_text if sep else lo_text)
        except ValueError:
            raise ValueError(f"bad range {value!r}") from None
    else:
        raise ValueError(f"expected 'A' or 'A:B', got {value!r}")
    if lo > hi:
        raise ValueError(f"empty range {value!r}")
    return lo, hi


def time_key(year: int, quarter: str) -> str:
    """Base-grain time member, e.g. (2003, 'Q2') -> '2003Q2'."""
    return f"{year}{quarter}"


# The fields each cube dimension's member is read from, and the member at base
# grain: the backing field, and for time the (year, quarter) pair as a time_key.
MEMBER_FIELDS: dict[str, tuple[str, ...]] = {
    "city": ("city",), "sector": ("sector",), "edulevel": ("education_level",),
    "congress": ("congress",), "service": ("service_status",), "time": ("year", "quarter"),
}
MEMBER_GETTERS: dict[str, Callable[[CanonicalApplicant], str]] = {
    **{dimension: attrgetter(*names) for dimension, names in MEMBER_FIELDS.items()},
    "time": lambda r: time_key(r.year, r.quarter),
}


@contextmanager
def bulk() -> Iterator[None]:
    """Pause the cyclic collector while a bulk path makes many records, and
    restore the state it found, also on an exception. Records hold only str
    and int, so they make no cycles, but a record is no exact tuple, so each
    full collection walks every live one. The thresholds stay as they are."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def replacing(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open `.<name>.<pid>.tmp` beside path for writing (UTF-8 text without
    newline translation, or binary), making the parent directories. A block
    that ends normally renames it over path, through a symlink and keeping the
    mode of a file it replaces; one that raises deletes it. A path that exists
    but is no regular file (/dev/null, /dev/stdout, a FIFO) is written in place."""
    path, real = Path(path), Path(path).resolve()
    if path.exists() and not real.is_file():
        with _open(path, binary) as fh:
            yield fh
        return
    path = real
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with _open(tmp, binary) as fh:
            yield fh
        if path.exists():
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _open(path: Path, binary: bool) -> IO:
    return open(path, "wb") if binary else open(path, "w", newline="", encoding="utf-8")


def write_csv(target: str | Path | TextIO, header: Sequence,
              rows: Iterable[Sequence], delimiter: str = ",") -> int:
    """Write a header row and rows as CSV with LF line ends. Returns the row
    count (header excluded). target is an open text stream, or a path that is
    replaced whole (see `replacing`).

    A writer ending lines in LF leaves a bare CR unquoted, and a reader then
    splits the row there, so a row holding a CR is written fully quoted and
    every other row with minimal quoting. Rows are rendered in chunks; only a
    chunk whose text holds a CR is checked row by row.
    """
    if isinstance(target, (str, Path)):
        with replacing(target) as fh:
            return write_csv(fh, header, rows, delimiter)
    plain = csv.writer(target, delimiter=delimiter, lineterminator="\n")
    quote_all = csv.writer(target, delimiter=delimiter, lineterminator="\n",
                           quoting=csv.QUOTE_ALL)
    plain.writerow(header)
    rows, n = iter(rows), 0
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        buffer = io.StringIO()
        csv.writer(buffer, delimiter=delimiter, lineterminator="\n").writerows(chunk)
        if "\r" not in buffer.getvalue():
            target.write(buffer.getvalue())
        else:
            for row in chunk:
                has_cr = any("\r" in v for v in row if type(v) is str)
                (quote_all if has_cr else plain).writerow(row)
        n += len(chunk)
    return n


def write_records_csv(records: Iterable[CanonicalApplicant], path: str | Path) -> int:
    """Write records as CSV (LF, header row). Returns the row count."""
    return write_csv(path, ALL_FIELDS, records)


def read_records_csv(path: str | Path) -> list[CanonicalApplicant]:
    """Read a file written by `write_records_csv`, sharing equal values.

    Fails closed: a wrong header, a row without exactly one value per field,
    a year that `parse_int` refuses (an empty year reads as 0), a CSV syntax
    error or bytes that are not UTF-8 raise MalformedCsv naming the file and
    the line.
    """
    width = len(ALL_FIELDS)
    make = CanonicalApplicant._make
    share = {}.setdefault
    years = {"": 0}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                return []
            if tuple(header) != ALL_FIELDS:
                raise MalformedCsv(f"{path}: line 1: unexpected record columns {header}")
            out = []
            for row in reader:
                if len(row) != width:
                    raise MalformedCsv(f"{path}: line {reader.line_num}: "
                                       f"{len(row)} columns, expected {width}")
                year = row[_YEAR]
                if year not in years:
                    try:
                        years[year] = parse_int(year)
                    except ValueError:
                        raise MalformedCsv(f"{path}: line {reader.line_num}: "
                                           f"bad year {year!r}") from None
                repeated = row[_SHARED:]
                row[_SHARED:] = map(share, repeated, repeated)
                row[_YEAR] = years[year]
                out.append(make(row))
            return out
        except csv.Error as exc:
            raise MalformedCsv(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise MalformedCsv(f"{path}: not UTF-8 ({exc.reason}) after "
                               f"{reader.line_num} good lines") from None

"""Canonical applicant record: the unified schema every legacy source maps into.

A record is an immutable `NamedTuple`: `record._replace(field=value)` makes a
variant, and records order by their field tuple in `ALL_FIELDS` order. All
attribute values are carried as text until warehouse load; `year` is the
single typed exception because time ordering drives deduplication.

Inside jobcube a record set is columns, one list per `ALL_FIELDS` name, which
`as_records` and `as_columns` turn into records and back at the public fronts.
A record file is written from its columns by `write_columns` and read by one
column reader, chunk by chunk: `read_columns` gives the named fields as one
list each, and `read_records_csv` makes records from the same chunks. A chunk
of plain lines is split in one pass and checked once; the rest of a file that
is not so plain goes through csv.reader. Equal values of a field share one
`str` (all but the near-unique `national_id` and `name`), and each distinct
year text is parsed once. `write_csv` joins a chunk of text rows and checks it once.

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
from contextlib import contextmanager, suppress
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence, TextIO

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
_CHUNK_ROWS = 128                      # rows write_csv renders per check, and the
                                       # reader's csv.reader path hands on per chunk
_CHUNK_BYTES = 1 << 14                 # bytes of plain lines a record file is split at a time
_HEADER_LINE = (",".join(ALL_FIELDS) + "\n").encode()
_INT_TEXT = re.compile(r"-?[0-9]+")

# Fields a cleaning policy may fill. Key fields are quarantined instead,
# sector emptiness encodes seeker status, status is derived, and congress is
# populated later by generalization.
NULLABLE_FIELDS: frozenset[str] = frozenset(
    {"name", "sex", "district", "specialty", "job_group", "moahel",
     "education_level", "service_status"}
)

# The six cube dimensions, in fixed axis order; MEMBER_FIELDS (below) names the
# fields a member is read from.
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


# The fields each cube dimension's member is read from: its field, or for time
# the (year, quarter) pair, whose member is their time_key.
MEMBER_FIELDS: dict[str, tuple[str, ...]] = {
    "city": ("city",), "sector": ("sector",), "edulevel": ("education_level",),
    "congress": ("congress",), "service": ("service_status",), "time": ("year", "quarter"),
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

    Rows are taken in chunks. A chunk of str values is joined in one pass
    and checked once: one delimiter fewer than the header's width and one LF
    a row, and no '"' or CR. A chunk that fails the check, or holds a row of
    another width or a value that is no str (an int, say), and every row of a
    one-column file, goes through the csv module row by row. There a row
    holding a CR is written fully quoted and every other row with minimal
    quoting: a writer ending lines in LF leaves a bare CR unquoted, and a
    reader then splits the row.
    """
    if isinstance(target, (str, Path)):
        with replacing(target) as fh:
            return write_csv(fh, header, rows, delimiter)
    plain = csv.writer(target, delimiter=delimiter, lineterminator="\n")
    quote_all = csv.writer(target, delimiter=delimiter, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(header)
    width = len(header)
    rows, n = iter(rows), 0
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        text = ""
        if width > 1 and set(map(len, chunk)) == {width}:
            with suppress(TypeError):       # a value that is no str: an int, say
                text = "\n".join(map(delimiter.join, chunk)) + "\n"
        if (text and text.count(delimiter) == (width - 1) * len(chunk)
                and text.count("\n") == len(chunk) and '"' not in text and "\r" not in text):
            target.write(text)
        else:
            for row in chunk:
                has_cr = any("\r" in v for v in row if type(v) is str)
                (quote_all if has_cr else plain).writerow(row)
        n += len(chunk)
    return n


def text_years(columns: Sequence[list]) -> list[list]:
    """ALL_FIELDS columns with each year made text, once per distinct value."""
    text = {year: str(year) for year in dict.fromkeys(columns[_YEAR])}
    return [*columns[:_YEAR], list(map(text.__getitem__, columns[_YEAR])), *columns[_YEAR + 1:]]


def as_columns(records: Iterable[CanonicalApplicant]) -> list[list]:
    """Records as one list per field, in ALL_FIELDS order."""
    return [list(column) for column in zip(*records)] or [[] for _ in ALL_FIELDS]


def as_records(columns: Sequence[Sequence]) -> list[CanonicalApplicant]:
    return list(map(CanonicalApplicant._make, zip(*columns)))


def write_columns(path: str | Path, columns: Sequence[list]) -> int:
    """Write ALL_FIELDS columns as a record file (LF, header row), years made
    text once each, so every chunk is a join. Returns the row count."""
    return write_csv(path, ALL_FIELDS, zip(*text_years(columns)))


def write_records_csv(records: Iterable[CanonicalApplicant], path: str | Path) -> int:
    """`write_columns` of the records' columns. Returns the row count."""
    return write_columns(path, as_columns(records))


def _plain_cells(data: bytes, years: dict[str, int]) -> list[str] | None:
    """A chunk of whole lines split in one pass into cells, each row's
    sixteen fields then an LF cell, with each new year text read into years
    by parse_int. None if the chunk holds '"', CR or NUL, or fails the check:
    sixteen fields a line, and years parse_int reads. Raises
    UnicodeDecodeError for bytes that are not UTF-8."""
    if not data.endswith(b"\n") or any(c in data for c in (b'"', b"\r", b"\0")):
        return None
    rows, step = data.count(b"\n"), len(ALL_FIELDS) + 1
    cells = data.decode("utf-8").replace("\n", ",\n,").split(",")
    if cells.pop() != "" or len(cells) != rows * step or cells[step - 1::step].count("\n") != rows:
        return None
    try:
        for year in set(cells[_YEAR::step]).difference(years):
            years[year] = parse_int(year)
    except ValueError:
        return None
    return cells


def _column_chunks(path: str | Path, keep: Sequence[int]) -> Iterator[list[list]]:
    """The columns at `keep` (ALL_FIELDS indices) of a record file, a chunk
    of rows at a time: years read by parse_int (an empty one as 0), and equal
    values of the fields from `sex` on one shared str.

    After the header, the file is read in chunks of whole lines, each split
    by `_plain_cells`. The rest of the file, from the first chunk that is not
    so plain, goes through csv.reader, which checks row by row and so names
    the first fault in file order.
    """
    width = len(ALL_FIELDS)
    years = {"": 0}
    share = {}.setdefault

    def columns(cells: list[list[str]]) -> list[list]:
        for k, i in enumerate(keep):
            if i == _YEAR:
                cells[k] = list(map(years.__getitem__, cells[k]))
            elif i >= _SHARED:
                cells[k] = list(map(share, cells[k], cells[k]))
        return cells

    with open(path, "rb") as fh:
        lines = 1 if fh.readline() == _HEADER_LINE else 0      # lines taken so far
        start = fh.tell() if lines else 0                      # where they end
        while lines:
            data = fh.read(_CHUNK_BYTES) + fh.readline()
            if not data:
                return
            try:
                cells = _plain_cells(data, years)
            except UnicodeDecodeError as exc:
                good = lines + data.count(b"\n", 0, exc.start)
                raise MalformedCsv(f"{path}: not UTF-8 ({exc.reason}) after "
                                   f"{good} good lines") from None
            if cells is None:
                break
            yield columns([cells[i::width + 1] for i in keep])
            lines += len(cells) // (width + 1)
            start += len(data)

        fh.seek(start)
        with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
            reader = csv.reader(text)
            try:
                if not lines:
                    if (header := next(reader, None)) is None:
                        raise MalformedCsv(f"{path}: no header line")
                    if tuple(header) != ALL_FIELDS:
                        raise MalformedCsv(f"{path}: line 1: unexpected record columns {header}")
                rows = []
                for row in reader:
                    if len(row) != width:
                        raise MalformedCsv(f"{path}: line {lines + reader.line_num}: "
                                           f"{len(row)} columns, expected {width}")
                    if (year := row[_YEAR]) not in years:
                        try:
                            years[year] = parse_int(year)
                        except ValueError:
                            raise MalformedCsv(f"{path}: line {lines + reader.line_num}: "
                                               f"bad year {year!r}") from None
                    rows.append(row)
                    if len(rows) == _CHUNK_ROWS:
                        yield columns([list(map(itemgetter(i), rows)) for i in keep])
                        rows = []
                if rows:
                    yield columns([list(map(itemgetter(i), rows)) for i in keep])
            except csv.Error as exc:
                raise MalformedCsv(f"{path}: line {lines + reader.line_num}: {exc}") from None
            except UnicodeDecodeError as exc:
                raise MalformedCsv(f"{path}: not UTF-8 ({exc.reason}) after "
                                   f"{lines + reader.line_num} good lines") from None


@bulk()
def read_columns(path: str | Path, fields: Sequence[str] = ALL_FIELDS) -> list[list]:
    """The named fields of a file written by `write_columns`, one list per
    field in the order given, read chunk by chunk as `read_records_csv` reads
    them, and failing closed as it does."""
    out: list[list] = [[] for _ in fields]
    for chunk in _column_chunks(path, [ALL_FIELDS.index(name) for name in fields]):
        for column, part in zip(out, chunk):
            column += part
    return out


@bulk()
def read_records_csv(path: str | Path) -> list[CanonicalApplicant]:
    """Read a file written by `write_columns`, sharing equal values.

    Fails closed: no header line or a wrong one, a row without exactly one
    value per field, a year that `parse_int` refuses (an empty year reads as
    0), a CSV syntax error or bytes that are not UTF-8 raise MalformedCsv
    naming the file and the line.
    """
    chunks = _column_chunks(path, range(len(ALL_FIELDS)))
    return list(chain.from_iterable(map(as_records, chunks)))


def find_row(path: str | Path, index: int) -> tuple[int, list[str]]:
    """The line that row `index` (0 is the first after the header) of a record
    file ends on, counted as its readers count, and the row's values."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in islice(reader, index + 1, None):
            return reader.line_num, row
    raise MalformedCsv(f"{path}: no row {index + 1} after the header")

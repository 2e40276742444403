"""Readers and writers for three legacy personnel-file formats, plus the
mapping in both directions between their rows and
:class:`~jobcube.records.CanonicalApplicant`: dBASE III tables (version byte
0x03, field types C/N/D), fixed-width files described by a column layout, and
delimiter-separated text with a header row.

Ingest reads a file as a `Table`, one list per column. In the fixed-position
formats a field is the byte slice [offset, offset+length) of a line or record
body, space-padded: C fields left-aligned and right-stripped, N and D fields
right-aligned and stripped on both sides; each distinct byte string of a field
is decoded and unpadded once, so equal values share one str. Both writers
render a file in one `%` pass and check it once. :func:`record_mapper` applies
a `SourceSpec`'s field map and codebooks to a file's columns, each rule once
per distinct value; :func:`row_mapper`, its inverse, turns such record
columns into rows in a given column order. Only :func:`ingest_columns` touches
files.
"""

from __future__ import annotations

import csv
import io
import struct
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, replace
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (ConfigError, DecodeError, FieldOverflow, InvalidFieldValue, MalformedCsv,
                     MalformedHeader, RaggedRow, ShortLine, TruncatedFile, UnsupportedFieldType)
from .records import (ALL_FIELDS, CanonicalApplicant, as_records, bulk, derive_status, parse_int,
                      text_years, write_csv)

# The padding rule of both fixed-position formats, per field kind: the
# %-format flag that aligns a written value, and the strip that undoes it.
_PADDING = {"C": ("-", str.rstrip), "N": ("", str.strip), "D": ("", str.strip)}
FIELD_KINDS = frozenset(_PADDING)  # character, numeric, date

DBF_VERSION = 0x03
DBF_LIVE_FLAG = 0x20
DBF_DELETED_FLAG = 0x2A
DBF_TERMINATOR = 0x0D
DBF_EOF = 0x1A
# Table header: version, last update (yy, mm, dd), record count, header length,
# record length. Field descriptor: name (NUL-padded), type, length, decimals.
_DBF_HEADER = struct.Struct("<4BIHH20x")
_DBF_FIELD = struct.Struct("<11sB4xBB14x")

# Canonical fields every source must map, and those no source may map: city
# and source id come from the spec, status derives from sector.
MANDATORY_MAPPED = ("national_id", "year", "quarter")
FIXED_FIELDS = frozenset({"city", "status", "source_id"})


Parsed = tuple[tuple[str, ...], list[Sequence[str]]]     # column names, rows of text


class Table(NamedTuple):
    """A file by column: its column names, one list of text values per name,
    its row count, and the (index, reason) of each row csv could not read."""

    names: tuple[str, ...]
    columns: list[list[str]]
    size: int
    broken: tuple[tuple[int, str], ...] = ()

    def parsed(self) -> Parsed:
        """The names and rows; a broken row raises MalformedCsv."""
        if self.broken:
            raise MalformedCsv(self.broken[0][1])
        return self.names, list(zip(*self.columns)) if self.columns else [()] * self.size


@dataclass(frozen=True)
class FieldDescriptor:
    """One column of a record layout.

    `offset` is the byte position within the record body; parsers fill it in
    for self-describing formats.
    """

    name: str
    kind: str           # 'C' | 'N' | 'D'
    length: int
    offset: int = 0
    decimals: int = 0


@dataclass(frozen=True)
class SourceSpec:
    """One source file and how its columns become canonical fields, checked when made.

    field_map: canonical field -> source column name.
    value_codebooks: canonical field -> {source code -> canonical code};
    lookups are exact, untranslated codes pass through and are counted.
    """

    source_id: str
    city: str
    format: str                     # 'dbf' | 'fixed_width' | 'delimited'
    path: str
    field_map: dict[str, str]
    value_codebooks: dict[str, dict[str, str]] = field(default_factory=dict)
    encoding: str = "ascii"
    delimiter: str = ","
    layout: tuple[FieldDescriptor, ...] = ()

    def __post_init__(self) -> None:
        if self.format not in ("dbf", "fixed_width", "delimited"):
            raise ConfigError(f"{self.source_id}: unknown format {self.format!r}")
        if self.format == "fixed_width" and not self.layout:
            raise ConfigError(f"{self.source_id}: fixed_width source needs a layout")
        if self.layout:
            validate_layout(self.layout, f"{self.source_id}: ")
        if self.format == "delimited" and len(self.delimiter) != 1:
            raise ConfigError(f"{self.source_id}: delimiter must be one character")
        try:
            "".encode(self.encoding)    # refuses unknown names and non-text codecs (hex)
        except LookupError:
            raise ConfigError(f"{self.source_id}: unknown encoding {self.encoding!r}") from None
        # fixed-position formats frame by byte, so padding and digits must be ASCII bytes
        ascii_text = "".join(map(chr, range(128)))
        if (self.format != "delimited"
                and ascii_text.encode(self.encoding, "replace") != ascii_text.encode()):
            raise ConfigError(f"{self.source_id}: a {self.format} source needs an "
                              f"ASCII-compatible encoding, not {self.encoding!r}")
        if missing := [f for f in MANDATORY_MAPPED if f not in self.field_map]:
            raise ConfigError(f"{self.source_id}: lacks mandatory canonical fields: {missing}")
        for name in self.field_map:
            if name not in ALL_FIELDS or name in FIXED_FIELDS:
                raise ConfigError(f"{self.source_id}: field_map key {name!r} is not a "
                                  f"mappable field")
        for name in self.value_codebooks:
            if name not in self.field_map:
                raise ConfigError(f"{self.source_id}: value_codebooks key {name!r} is not mapped")


def validate_layout(layout: Iterable[FieldDescriptor], where: str = "") -> None:
    """Reject a layout with overlapping, unordered or unnamed columns, naming `where` first."""
    seen: set[str] = set()
    pos = 0
    for fd in layout:
        if not fd.name:
            raise ConfigError(f"{where}layout field with empty name")
        if fd.name in seen:
            raise ConfigError(f"{where}duplicate layout field {fd.name!r}")
        seen.add(fd.name)
        if fd.kind not in FIELD_KINDS:
            raise ConfigError(f"{where}{fd.name}: unsupported field kind {fd.kind!r}")
        if fd.length < 1:
            raise ConfigError(f"{where}{fd.name}: field length must be >= 1")
        if fd.offset < pos:
            raise ConfigError(f"{where}{fd.name}: offset {fd.offset} overlaps previous field")
        pos = fd.offset + fd.length
    if not seen:
        raise ConfigError(f"{where}empty layout")


# ---------------------------------------------------------------------------
# Fixed-position fields: fixed-width lines, and dBASE record bodies below


def _row_writer(layout: Sequence[FieldDescriptor], where: str, head: str = "",
                tail: str = "") -> Callable[[Iterable[Sequence[str]]], bytes]:
    """write(rows): ASCII bytes of, per row in layout order, `head`, each field
    padded at its offset (gaps are spaces), `tail`, in one `%` pass after a
    RaggedRow check. The text is checked once (width, ASCII and, where `tail`
    ends a line, one line break a row); if it fails, the first bad value by
    row, then field, raises naming `where`, the row and the field: too long
    (FieldOverflow), else not ASCII or holding a line break (InvalidFieldValue)."""
    fmt, end = head, 0
    for fd in layout:
        fmt += " " * (fd.offset - end) + f"%{_PADDING[fd.kind][0]}{fd.length}s"
        end = fd.offset + fd.length
    fmt += tail
    width, lines = len(fmt % (("",) * len(layout))), "\n" in tail

    def write(rows: Iterable[Sequence[str]]) -> bytes:
        rows = list(rows)
        if not set(map(len, rows)) <= {len(layout)}:
            i, values = next((i, v) for i, v in enumerate(rows) if len(v) != len(layout))
            raise RaggedRow(f"{where} {i}: {len(values)} values, layout has {len(layout)}")
        text = (fmt * len(rows)) % tuple(chain.from_iterable(rows))
        if (len(text) != width * len(rows) or not text.isascii()
                or lines and text.count("\n") != len(rows)):
            for i, values in enumerate(rows):
                for fd, value in zip(layout, values):
                    bad = f"{where} {i}: {fd.name}={value!r}"
                    if len(value) > fd.length:
                        raise FieldOverflow(f"{bad} exceeds {fd.length} bytes")
                    if not value.isascii():
                        raise InvalidFieldValue(f"{bad} is not ASCII")
                    if lines and "\n" in value:    # a reader would split the line
                        raise InvalidFieldValue(f"{bad} holds a line break")
        return text.encode("ascii")

    return write


def _cut(buf: bytes | memoryview, fields: Sequence[FieldDescriptor], encoding: str, stride: int,
         where: str, skip: int = 0, live: list[bool] | None = None) -> list[list[str]]:
    """The columns of the `live` records tiling buf every `stride` bytes, fields at skip+offset."""
    columns = []
    try:
        for fd in fields:
            tail = stride - skip - fd.offset - fd.length
            cut = struct.Struct(f"{skip + fd.offset}x{fd.length}s{tail}x").iter_unpack(buf)
            chunks = list(chain.from_iterable(cut if live is None else compress(cut, live)))
            distinct = list(dict.fromkeys(chunks))
            texts = map(bytes.decode, distinct, repeat(encoding))
            text = dict(zip(distinct, map(_PADDING[fd.kind][1], texts, repeat(" "))))
            columns.append(list(map(text.__getitem__, chunks)))
    except UnicodeDecodeError:
        for no, pos in enumerate(range(skip, len(buf), stride), start=1):
            for fd in fields if live is None or live[no - 1] else ():
                try:
                    str(buf[pos + fd.offset:pos + fd.offset + fd.length], encoding)
                except UnicodeDecodeError as exc:
                    raise DecodeError(f"{where} {no}: field {fd.name!r}: {exc}") from None
        raise
    return columns


def _fixed_width_table(data: bytes, layout: Iterable[FieldDescriptor], encoding: str,
                       source_id: str) -> Table:
    """One row per line, cut to the layout extent; a shorter line is an error."""
    layout = tuple(layout)
    validate_layout(layout)
    extent, where = layout[-1].offset + layout[-1].length, f"{source_id}: line"
    buf = data if not data or data.endswith(b"\n") else data + b"\n"
    size = buf.count(b"\n")
    stride = len(buf) // size if size else 0
    if not (stride > extent and stride * size == len(buf)
            and buf[stride - 1::stride].count(b"\n") == size):
        lines = buf.split(b"\n")[:-1]
        n = next((i for i, line in enumerate(lines) if len(line) < extent), size)
        buf, stride = b"".join(line[:extent] for line in lines[:n]), extent
        if n < size:                # the first short line, unless a line before does not decode
            _cut(buf, layout, encoding, stride, where)
            raise ShortLine(f"{where} {n + 1}: {len(lines[n])} bytes, layout needs {extent}")
    return Table(tuple(fd.name for fd in layout), _cut(buf, layout, encoding, stride, where), size)


def parse_fixed_width(data: bytes, layout: Iterable[FieldDescriptor], *,
                      encoding: str = "ascii", source_id: str = "") -> Parsed:
    return _fixed_width_table(data, layout, encoding, source_id).parsed()


def render_fixed_width(rows: Iterable[Sequence[str]],
                       layout: Sequence[FieldDescriptor]) -> bytes:
    """One line per row, each field at its layout offset."""
    layout = tuple(layout)
    validate_layout(layout)
    return _row_writer(layout, "row", tail="\n")(rows)


# ---------------------------------------------------------------------------
# dBASE III


@dataclass(frozen=True)
class DbfFile:
    """A decoded table file: header facts, and its live records as a table."""

    last_update: tuple[int, int, int]   # (yy, mm, dd) as stored
    record_count: int
    header_len: int
    record_len: int
    fields: tuple[FieldDescriptor, ...]
    table: Table
    deleted: int


def read_dbf(data: bytes, *, encoding: str = "ascii", source_id: str = "") -> DbfFile:
    if len(data) < _DBF_HEADER.size:
        raise TruncatedFile(f"{source_id}: {len(data)} bytes is too short for a table header")
    version, yy, mm, dd, record_count, header_len, record_len = _DBF_HEADER.unpack_from(data)
    if version != DBF_VERSION:
        raise MalformedHeader(f"{source_id}: unsupported version byte 0x{version:02x}")
    n_fields, rest = divmod(header_len - _DBF_HEADER.size - 1, _DBF_FIELD.size)
    if n_fields < 0 or rest:
        raise MalformedHeader(f"{source_id}: header length {header_len} is not 32 + 32*n + 1")
    if len(data) < header_len:
        raise TruncatedFile(f"{source_id}: header claims {header_len} bytes, file has {len(data)}")
    if data[header_len - 1] != DBF_TERMINATOR:
        raise MalformedHeader(f"{source_id}: field descriptor array lacks the 0x0D terminator")

    fields: list[FieldDescriptor] = []
    body_pos = 0
    descriptors = _DBF_FIELD.iter_unpack(data[_DBF_HEADER.size:header_len - 1])
    for i, (raw_name, kind, length, decimals) in enumerate(descriptors):
        raw_name = raw_name.split(b"\x00", 1)[0]
        try:
            name = raw_name.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedHeader(f"{source_id}: field {i}: undecodable name {raw_name!r}") from exc
        if not name:
            raise MalformedHeader(f"{source_id}: field {i}: empty name")
        if chr(kind) not in FIELD_KINDS:
            raise UnsupportedFieldType(f"{source_id}: field {name!r}: type {chr(kind)!r}")
        if length < 1:
            raise MalformedHeader(f"{source_id}: field {name!r}: zero length")
        fields.append(FieldDescriptor(name, chr(kind), length, body_pos, decimals))
        body_pos += length

    if record_len != 1 + body_pos:
        raise MalformedHeader(
            f"{source_id}: record length {record_len} != 1 + sum of field lengths {body_pos}")
    need = header_len + record_count * record_len
    if len(data) < need:
        raise TruncatedFile(
            f"{source_id}: {record_count} records need {need} bytes, file has {len(data)}")

    flags = data[header_len:need:record_len]
    deleted = flags.count(DBF_DELETED_FLAG)
    live = [flag != DBF_DELETED_FLAG for flag in flags] if deleted else None
    columns = _cut(memoryview(data)[header_len:need], fields, encoding, record_len,
                   f"{source_id}: record", 1, live)
    return DbfFile((yy, mm, dd), record_count, header_len, record_len, tuple(fields),
                   Table(tuple(fd.name for fd in fields), columns, len(flags) - deleted), deleted)


def parse_dbf(data: bytes, *, encoding: str = "ascii", source_id: str = "") -> Parsed:
    return read_dbf(data, encoding=encoding, source_id=source_id).table.parsed()


def render_dbf(rows: Sequence[Sequence[str]],
               layout: Sequence[FieldDescriptor],
               last_update: tuple[int, int, int] = (80, 1, 1)) -> bytes:
    """dBASE III bytes: header, field descriptors, terminator, live records,
    EOF marker. The fields lie back to back whatever their layout offsets."""
    fields, body_pos = [], 0
    for fd in layout:
        fields.append(replace(fd, offset=body_pos))
        body_pos += fd.length
    validate_layout(fields)
    for fd in fields:
        if len(fd.name) > 10 or fd.length > 255:
            raise ConfigError(f"field {fd.name!r} (length {fd.length}): dBASE allows "
                              f"names of up to 10 bytes and lengths up to 255")
    header_len, record_len = _DBF_HEADER.size + _DBF_FIELD.size * len(fields) + 1, 1 + body_pos
    head = _DBF_HEADER.pack(DBF_VERSION, *(b & 0xFF for b in last_update),
                            len(rows), header_len, record_len)
    descriptors = b"".join(_DBF_FIELD.pack(fd.name.encode("ascii"), ord(fd.kind),
                                           fd.length, fd.decimals) for fd in fields)
    body = _row_writer(fields, "record", head=chr(DBF_LIVE_FLAG))(rows)
    return b"".join((head, descriptors, bytes([DBF_TERMINATOR]), body, bytes([DBF_EOF])))


# ---------------------------------------------------------------------------
# Delimited


def _delimited_table(data: bytes, delimiter: str, has_header: bool, encoding: str,
                     source_id: str) -> Table:
    """Rows read a chunk at a time into columns, equal values sharing one str; no
    header names them f0, f1, ... A row csv cannot read, but the first, is broken."""
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{source_id}: {exc}") from exc
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows, broken, size, share = [], [], 0, {}.setdefault
    try:
        rows += islice(reader, 1)
    except csv.Error as exc:
        raise MalformedCsv(f"{source_id}: line {reader.line_num}: {exc}") from None
    if not rows:
        return Table((), [], 0)
    names = tuple(rows.pop()) if has_header else tuple(f"f{i}" for i in range(len(rows[0])))
    columns: list[list[str]] = [[] for _ in names]
    while True:
        try:
            rows += islice(reader, 4096)
        except csv.Error as exc:
            broken.append((size + len(rows), f"{source_id}: line {reader.line_num}: {exc}"))
            rows.append(("",) * len(names))
            continue
        if not rows:
            return Table(names, columns, size, tuple(broken))
        if not set(map(len, rows)) <= {len(names)}:
            no, row = next((n, r) for n, r in enumerate(rows, size + 1 + has_header)
                           if len(r) != len(names))
            raise RaggedRow(f"{source_id}: row {no}: {len(row)} fields, expected {len(names)}")
        for column, values in zip(columns, zip(*rows)):
            column += map(share, values, values)
        size, rows = size + len(rows), []


def parse_delimited(data: bytes, delimiter: str = ",", has_header: bool = True, *,
                    encoding: str = "utf-8", source_id: str = "") -> Parsed:
    """The first ragged row raises RaggedRow, else a row csv cannot read MalformedCsv."""
    return _delimited_table(data, delimiter, has_header, encoding, source_id).parsed()


def render_delimited(rows: Iterable[Sequence[str]], columns: Sequence[str],
                     delimiter: str = ",") -> bytes:
    """A header row of the columns, then the rows in that order, by the
    quoting rule of `records.write_csv`."""
    buf = io.StringIO()
    write_csv(buf, columns, rows, delimiter)
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Mapping between rows and canonical records


@dataclass
class SourceCounters:
    records_read: int = 0       # live rows handed to the mapper
    records_ok: int = 0
    records_rejected: int = 0
    deleted_skipped: int = 0
    untranslatable: dict[str, int] = field(default_factory=dict)


class RejectedRow(NamedTuple):
    source_id: str
    row_no: int
    reason: str


@dataclass
class IngestReport:
    per_source: dict[str, SourceCounters] = field(default_factory=dict)
    rejects: list[RejectedRow] = field(default_factory=list)

    def counters(self, source_id: str) -> SourceCounters:
        return self.per_source.setdefault(source_id, SourceCounters())

    def total_ok(self) -> int:
        return sum(c.records_ok for c in self.per_source.values())

    def summary_lines(self) -> list[str]:
        return [f"{sid}: read={c.records_read} ok={c.records_ok} "
                f"rejected={c.records_rejected} deleted={c.deleted_skipped} "
                f"untranslatable_codes={sum(c.untranslatable.values())}"
                for sid, c in sorted(self.per_source.items())]


def record_mapper(spec: SourceSpec, table: Table, counters: SourceCounters,
                  ) -> tuple[list[list], list[RejectedRow]]:
    """A spec applied to a file's columns: its records' columns (ALL_FIELDS order)
    and its rejected rows. Each codebook, the year rule (`parse_int` on the
    stripped text) and the status rule run once per distinct value; an
    untranslated code passes through and is counted once a row, rejected later
    or not, a field entering `untranslatable` at its first such row (in codebook
    order within a row). A row is rejected for the first of: csv could not read
    it; the file lacks a mapped column (the first named); a bad year; a blank
    quarter. A column named twice is read from its last place."""
    sid, size = spec.source_id, table.size
    place = {name: i for i, name in enumerate(table.names)}
    lacking = [(name, wire) for name, wire in spec.field_map.items() if wire not in place]
    fields = dict.fromkeys(ALL_FIELDS, [""] * size) | {"city": [spec.city] * size,
                                                       "source_id": [sid] * size}
    if not lacking:
        fields |= {name: table.columns[place[wire]] for name, wire in spec.field_map.items()}
    untranslated = []       # (first row, place in the books, field, count)
    for j, (name, book) in enumerate(spec.value_codebooks.items()):
        counts = Counter(fields[name])
        if bad := {code for code in counts if code and code not in book}:
            untranslated.append((next(compress(count(), map(bad.__contains__, fields[name]))),
                                 j, name, sum(map(counts.__getitem__, bad))))
        text = {code: book.get(code, code) if code else code for code in counts}
        fields[name] = list(map(text.__getitem__, fields[name]))
    for *_, name, n in sorted(untranslated):
        counters.untranslatable[name] = counters.untranslatable.get(name, 0) + n

    year_texts, years = dict.fromkeys(fields["year"]), {}
    for text in year_texts:
        with suppress(ValueError):
            years[text] = parse_int(text.strip())
    blank, reasons = {q for q in dict.fromkeys(fields["quarter"]) if not q.strip()}, {}
    if blank or len(years) < len(year_texts):
        for i, (y, q) in enumerate(zip(fields["year"], fields["quarter"])):
            if y not in years:
                reasons[i] = f"{sid}: bad year {y.strip()!r}"
            elif q in blank:
                reasons[i] = f"{sid}: empty quarter"
    if lacking:
        canonical, wire = lacking[0]
        reasons = dict.fromkeys(range(size), f"{sid}: row lacks field {wire!r} (for {canonical})")
    reasons |= dict(table.broken)
    fields["year"] = list(map(years.get, fields["year"]))
    status = {sector: derive_status(sector) for sector in dict.fromkeys(fields["sector"])}
    fields["status"] = list(map(status.__getitem__, fields["sector"]))
    columns = [fields[name] for name in ALL_FIELDS]
    if reasons:
        keep = [i not in reasons for i in range(size)]
        columns = [list(compress(column, keep)) for column in columns]
    return columns, [RejectedRow(sid, i + 1, reasons[i]) for i in sorted(reasons)]


def row_mapper(spec: SourceSpec, columns: Sequence[str],
               ) -> Callable[..., list[tuple[str, ...]]]:
    """The inverse of record_mapper: record columns, one list per field in
    ALL_FIELDS order as it returns them, as rows in `columns` order. Each
    mapped value is written as text (the year by `text_years`, every other
    field is text already) through its codebook run backwards (a value the book
    lacks passes through, as an untranslated code does forwards). A column the
    field map does not name holds the values given for it by keyword, one a
    row, or else is blank. Where canonical fields share a column, the last in
    map order fills it."""
    named = {wire: canonical for canonical, wire in spec.field_map.items()}
    plan = [(c, ALL_FIELDS.index(named[c]) if c in named else None,
             {value: code for code, value in spec.value_codebooks[named[c]].items()}
             if named.get(c) in spec.value_codebooks else None)
            for c in columns]

    def to_rows(fields: Sequence[list], **given: Sequence[str]) -> list[tuple[str, ...]]:
        fields = text_years(fields)
        texts = []
        for name, j, book in plan:
            text = given.get(name, ("",) * len(fields[0])) if j is None else fields[j]
            texts.append(text if book is None else list(map(book.get, text, text)))
        return list(zip(*texts))

    return to_rows


def parse_source(data: bytes, spec: SourceSpec, report: IngestReport) -> Table:
    """Dispatch on the spec's format; a dbf's deleted rows are counted in report."""
    if spec.format == "dbf":
        table = read_dbf(data, encoding=spec.encoding, source_id=spec.source_id)
        report.counters(spec.source_id).deleted_skipped += table.deleted
        return table.table
    if spec.format == "fixed_width":
        return _fixed_width_table(data, spec.layout, spec.encoding, spec.source_id)
    return _delimited_table(data, spec.delimiter, True, spec.encoding, spec.source_id)


@bulk()
def ingest_columns(specs: Iterable[SourceSpec], base_dir: str | Path,
                   ) -> tuple[list[list], IngestReport]:
    """Every source read, parsed and mapped: its record columns (ALL_FIELDS order), the report."""
    base, report, out = Path(base_dir), IngestReport(), [[] for _ in ALL_FIELDS]
    for spec in specs:
        table = parse_source((base / spec.path).read_bytes(), spec, report)
        columns, rejects = record_mapper(spec, table, counters := report.counters(spec.source_id))
        for column, part in zip(out, columns):
            column += part
        report.rejects += rejects
        counters.records_read += table.size
        counters.records_ok += table.size - len(rejects)
        counters.records_rejected += len(rejects)
    return out, report


@bulk()
def ingest_sources(specs: Iterable[SourceSpec], base_dir: str | Path,
                   ) -> tuple[list[CanonicalApplicant], IngestReport]:
    """The rows of `ingest_columns` as records, and the report."""
    columns, report = ingest_columns(specs, base_dir)
    return as_records(columns), report

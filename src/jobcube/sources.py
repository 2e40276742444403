"""Readers and writers for three legacy personnel-file formats, plus the
mapping in both directions between their rows and
:class:`~jobcube.records.CanonicalApplicant`.

* dBASE III table files (version byte 0x03, field types C/N/D)
* fixed-width flat files described by a column layout
* delimiter-separated text with a header row

A row is its text values in the file's own column order. Each reader returns
the file's column names once and its rows as value sequences; each writer
takes rows in the column order of its layout or header.

In both fixed-position formats a field is the byte slice [offset,
offset+length) of its line or record body, decoded on its own and padded with
spaces: C fields left-aligned and right-stripped, N and D fields right-aligned
and stripped on both sides. Both writers render a file in one `%` pass and
check its text once; only a failing text is scanned for its first bad value.

Codecs are pure functions over bytes; nothing here touches the filesystem
except :func:`ingest_sources`, which drives the full read-and-map pass.

A :class:`SourceSpec` holds a source's field map and codebooks, as
`sources.yaml` spells them; a key naming no mappable canonical field is a
ConfigError. :func:`record_mapper` resolves them once per file, against the
file's columns, into one row function; :func:`row_mapper`, its inverse, turns
records into rows in a given column order, one column at a time.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    ConfigError,
    DecodeError,
    FieldOverflow,
    InvalidFieldValue,
    MalformedCsv,
    MalformedHeader,
    MissingMandatoryField,
    RaggedRow,
    ShortLine,
    TruncatedFile,
    UnsupportedFieldType,
)
from .records import ALL_FIELDS, CanonicalApplicant, bulk, derive_status, parse_int, write_csv

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

_STATUS, _YEAR, _QUARTER, _SECTOR = map(ALL_FIELDS.index, ("status", "year", "quarter", "sector"))

# A parsed file: its column names in file order, and each row's text values
# in that order.
Parsed = tuple[tuple[str, ...], list[Sequence[str]]]


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


def _field_reader(layout: Sequence[FieldDescriptor], encoding: str, where: str,
                  ) -> Callable[[bytes, int, int], tuple[str, ...]]:
    """read(buf, pos, row_no): each field's bytes at pos + [offset, offset+length),
    decoded and unpadded; a DecodeError names `where`, the row and the field."""
    fmt, end = "", 0
    for fd in layout:
        fmt += f"{fd.offset - end}x{fd.length}s"
        end = fd.offset + fd.length
    unpack = struct.Struct(fmt).unpack_from
    strips = [_PADDING[fd.kind][1] for fd in layout]

    def read(buf: bytes, pos: int, row_no: int) -> tuple[str, ...]:
        chunks = unpack(buf, pos)
        try:
            return tuple([strip(chunk.decode(encoding), " ")
                          for strip, chunk in zip(strips, chunks)])
        except UnicodeDecodeError as exc:
            # the first chunk equal to the failing one is the one that failed
            name = layout[chunks.index(exc.object)].name
            raise DecodeError(f"{where} {row_no}: field {name!r}: {exc}") from None

    return read


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


def parse_fixed_width(data: bytes, layout: Iterable[FieldDescriptor], *,
                      encoding: str = "ascii", source_id: str = "") -> Parsed:
    """One row per line, fields read by the fixed-position rule. Lines shorter
    than the layout extent are an error; longer lines keep their tail bytes
    unread."""
    layout = tuple(layout)
    validate_layout(layout)
    extent = layout[-1].offset + layout[-1].length
    read = _field_reader(layout, encoding, f"{source_id}: line")
    lines = data.removesuffix(b"\n").split(b"\n") if data else []
    rows = []
    for line_no, line in enumerate(lines, start=1):
        if len(line) < extent:
            raise ShortLine(f"{source_id}: line {line_no}: {len(line)} bytes, "
                            f"layout needs {extent}")
        rows.append(read(line, 0, line_no))
    return tuple(fd.name for fd in layout), rows


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
    """A fully decoded table file, header facts included; its rows are the
    live records, in field order."""

    last_update: tuple[int, int, int]   # (yy, mm, dd) as stored
    record_count: int
    header_len: int
    record_len: int
    fields: tuple[FieldDescriptor, ...]
    rows: list[tuple[str, ...]]
    deleted: int


def _dbf_lengths(fields: Sequence[FieldDescriptor]) -> tuple[int, int]:
    """(header + descriptors + terminator, deletion flag + field bytes)."""
    return (_DBF_HEADER.size + _DBF_FIELD.size * len(fields) + 1,
            1 + sum(fd.length for fd in fields))


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

    if record_len != _dbf_lengths(fields)[1]:
        raise MalformedHeader(
            f"{source_id}: record length {record_len} != 1 + sum of field lengths {body_pos}")
    need = header_len + record_count * record_len
    if len(data) < need:
        raise TruncatedFile(
            f"{source_id}: {record_count} records need {need} bytes, file has {len(data)}")

    read = _field_reader(fields, encoding, f"{source_id}: record")
    rows = [read(data, pos + 1, record_no)
            for record_no, pos in enumerate(range(header_len, need, record_len), start=1)
            if data[pos] != DBF_DELETED_FLAG]

    return DbfFile((yy, mm, dd), record_count, header_len, record_len, tuple(fields),
                   rows, record_count - len(rows))


def parse_dbf(data: bytes, *, encoding: str = "ascii", source_id: str = "") -> Parsed:
    table = read_dbf(data, encoding=encoding, source_id=source_id)
    return tuple(fd.name for fd in table.fields), table.rows


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
    header_len, record_len = _dbf_lengths(fields)
    head = _DBF_HEADER.pack(DBF_VERSION, *(b & 0xFF for b in last_update),
                            len(rows), header_len, record_len)
    descriptors = b"".join(_DBF_FIELD.pack(fd.name.encode("ascii"), ord(fd.kind),
                                           fd.length, fd.decimals) for fd in fields)
    body = _row_writer(fields, "record", head=chr(DBF_LIVE_FLAG))(rows)
    return b"".join((head, descriptors, bytes([DBF_TERMINATOR]), body, bytes([DBF_EOF])))


# ---------------------------------------------------------------------------
# Delimited


def parse_delimited(data: bytes, delimiter: str = ",", has_header: bool = True, *,
                    encoding: str = "utf-8", source_id: str = "") -> Parsed:
    """Without a header the columns are named f0, f1, ...; a header that
    repeats a name keeps both columns."""
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{source_id}: {exc}") from exc
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise MalformedCsv(f"{source_id}: line {reader.line_num}: {exc}") from None
    if not rows:
        return (), []
    if has_header:
        names, first_no = tuple(rows.pop(0)), 2
    else:
        names, first_no = tuple(f"f{i}" for i in range(len(rows[0]))), 1
    for row_no, row in enumerate(rows, start=first_no):
        if len(row) != len(names):
            raise RaggedRow(f"{source_id}: row {row_no}: {len(row)} fields, "
                            f"expected {len(names)}")
    return names, rows


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

    def count_untranslatable(self, field_name: str) -> None:
        self.untranslatable[field_name] = self.untranslatable.get(field_name, 0) + 1


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
        lines = []
        for sid in sorted(self.per_source):
            c = self.per_source[sid]
            bad_codes = sum(c.untranslatable.values())
            lines.append(
                f"{sid}: read={c.records_read} ok={c.records_ok} "
                f"rejected={c.records_rejected} deleted={c.deleted_skipped} "
                f"untranslatable_codes={bad_codes}")
        return lines


def record_mapper(spec: SourceSpec, columns: Sequence[str], counters: SourceCounters,
                  ) -> Callable[[Sequence[str]], CanonicalApplicant]:
    """A spec's row function for a file with these columns: field map and
    codebooks applied (an untranslated code passes through and is counted in
    counters), city and source id fixed, status derived. A column named twice
    is read from its last place. It raises MissingMandatoryField for every row
    if the file lacks a mapped column, InvalidFieldValue for a bad year or a
    blank quarter."""
    sid = spec.source_id
    place = {name: i for i, name in enumerate(columns)}
    lacking = [(canonical, wire) for canonical, wire in spec.field_map.items()
               if wire not in place]
    if lacking:
        canonical, wire = lacking[0]

        def reject(values: Sequence[str]) -> CanonicalApplicant:
            raise MissingMandatoryField(f"{sid}: row lacks field {wire!r} (for {canonical})")

        return reject
    # The text of unmapped fields, city and source id, then the row's values,
    # picked into ALL_FIELDS positions.
    fixed = ("", spec.city, sid)
    slots = {"city": 1, "source_id": 2} | {name: 3 + place[wire]
                                           for name, wire in spec.field_map.items()}
    arrange = itemgetter(*(slots.get(name, 0) for name in ALL_FIELDS))
    coded = tuple((ALL_FIELDS.index(name), name, book)
                  for name, book in spec.value_codebooks.items())
    count = counters.count_untranslatable
    make = CanonicalApplicant._make

    def to_record(values: Sequence[str]) -> CanonicalApplicant:
        row = list(arrange((*fixed, *values)))
        for pos, name, book in coded:
            code = row[pos]
            if code and code in book:
                row[pos] = book[code]
            elif code:
                count(name)
        year_text = row[_YEAR].strip()
        try:
            row[_YEAR] = parse_int(year_text)
        except ValueError:
            raise InvalidFieldValue(f"{sid}: bad year {year_text!r}") from None
        if not row[_QUARTER].strip():
            raise InvalidFieldValue(f"{sid}: empty quarter")
        row[_STATUS] = derive_status(row[_SECTOR])
        return make(row)

    return to_record


def row_mapper(spec: SourceSpec, columns: Sequence[str],
               ) -> Callable[..., list[tuple[str, ...]]]:
    """The inverse of record_mapper, by column: records as rows in `columns`
    order. Each mapped value is written as text (the year through str, every
    other field is text already) through its codebook run backwards (a value
    the book lacks passes through, as an untranslated code does forwards). A
    column the field map does not name holds the values given for it by
    keyword, one a record, or else is blank. Where canonical fields share a
    column, the last in map order fills it."""
    named = {wire: canonical for canonical, wire in spec.field_map.items()}
    plan = [(c, ALL_FIELDS.index(named[c]) if c in named else None,
             {value: code for code, value in spec.value_codebooks[named[c]].items()}
             if named.get(c) in spec.value_codebooks else None)
            for c in columns]

    def to_rows(records: Sequence[CanonicalApplicant],
                **given: Sequence[str]) -> list[tuple[str, ...]]:
        fields = list(zip(*records)) or [()] * len(ALL_FIELDS)
        texts = []
        for name, j, book in plan:
            text = (given.get(name, ("",) * len(records)) if j is None
                    else list(map(str, fields[j])) if j == _YEAR else fields[j])
            texts.append(text if book is None else list(map(book.get, text, text)))
        return list(zip(*texts))

    return to_rows


def parse_source(data: bytes, spec: SourceSpec, report: IngestReport) -> Parsed:
    """Dispatch on the spec's format; a dbf's deleted rows are counted in report."""
    if spec.format == "dbf":
        table = read_dbf(data, encoding=spec.encoding, source_id=spec.source_id)
        report.counters(spec.source_id).deleted_skipped += table.deleted
        return tuple(fd.name for fd in table.fields), table.rows
    if spec.format == "fixed_width":
        return parse_fixed_width(data, spec.layout, encoding=spec.encoding,
                                 source_id=spec.source_id)
    return parse_delimited(data, spec.delimiter, True, encoding=spec.encoding,
                           source_id=spec.source_id)


@bulk()
def ingest_sources(specs: Iterable[SourceSpec], base_dir: str | Path,
                   ) -> tuple[list[CanonicalApplicant], IngestReport]:
    """Read, parse, and map every configured source file.

    Rows that cannot satisfy the canonical mandatory fields are quarantined
    into the report instead of aborting the run.
    """
    base = Path(base_dir)
    report = IngestReport()
    out: list[CanonicalApplicant] = []
    for spec in specs:
        data = (base / spec.path).read_bytes()
        columns, rows = parse_source(data, spec, report)
        counters = report.counters(spec.source_id)
        to_record = record_mapper(spec, columns, counters)
        before = len(out)
        for row_no, values in enumerate(rows, start=1):
            try:
                out.append(to_record(values))
            except (MissingMandatoryField, InvalidFieldValue) as exc:
                report.rejects.append(RejectedRow(spec.source_id, row_no, str(exc)))
        ok = len(out) - before
        counters.records_read += len(rows)
        counters.records_ok += ok
        counters.records_rejected += len(rows) - ok
    return out, report

"""Readers for three legacy personnel-file formats, plus the schema mapping
that unifies them into :class:`~jobcube.records.CanonicalApplicant`.

Formats:

* dBASE III table files (version byte 0x03, field types C/N/D)
* fixed-width flat files described by a column layout
* delimiter-separated text with a header row

Parsers are pure functions over bytes; nothing here touches the filesystem
except :func:`ingest_sources`, which drives the full read-and-map pass.

:func:`record_mapper` resolves each source's field map and codebooks once into
one row function. A key naming no mappable canonical field is a ConfigError.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .errors import (
    ConfigError,
    DecodeError,
    InvalidFieldValue,
    MalformedCsv,
    MalformedHeader,
    MissingMandatoryField,
    RaggedRow,
    ShortLine,
    TruncatedFile,
    UnsupportedFieldType,
)
from .records import ALL_FIELDS, CanonicalApplicant, derive_status, parse_year

DBF_VERSION = 0x03
DBF_LIVE_FLAG = 0x20
DBF_DELETED_FLAG = 0x2A
DBF_TERMINATOR = 0x0D
DBF_EOF = 0x1A
FIELD_KINDS = frozenset("CND")  # character, numeric, date

# Canonical fields every source must map, and those no source may map: city
# and source id come from the spec, status derives from sector.
MANDATORY_MAPPED = ("national_id", "year", "quarter")
FIXED_FIELDS = frozenset({"city", "status", "source_id"})

_STATUS, _YEAR, _QUARTER, _SECTOR = map(ALL_FIELDS.index, ("status", "year", "quarter", "sector"))


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
class RawRecord:
    """A parsed source row: text field values keyed by source field name."""

    source_id: str
    values: dict[str, str]


@dataclass(frozen=True)
class SchemaMapping:
    """How one source's fields become canonical fields.

    field_map: canonical field -> source field name.
    value_codebooks: canonical field -> {source code -> canonical code};
    lookups are exact, untranslated codes pass through and are counted.
    """

    field_map: dict[str, str]
    value_codebooks: dict[str, dict[str, str]] = field(default_factory=dict)

    def require_mandatory(self, where: str = "mapping") -> None:
        missing = [f for f in MANDATORY_MAPPED if f not in self.field_map]
        if missing:
            raise ConfigError(f"{where}: lacks mandatory canonical fields: {missing}")
        for name in self.field_map:
            if name not in ALL_FIELDS or name in FIXED_FIELDS:
                raise ConfigError(f"{where}: field_map key {name!r} is not a mappable field")
        for name in self.value_codebooks:
            if name not in self.field_map:
                raise ConfigError(f"{where}: value_codebooks key {name!r} is not mapped")


@dataclass(frozen=True)
class SourceSpec:
    source_id: str
    city: str
    format: str                     # 'dbf' | 'fixed_width' | 'delimited'
    path: str
    mapping: SchemaMapping
    encoding: str = "ascii"
    delimiter: str = ","
    layout: tuple[FieldDescriptor, ...] = ()

    def validate(self) -> None:
        if self.format not in ("dbf", "fixed_width", "delimited"):
            raise ConfigError(f"{self.source_id}: unknown format {self.format!r}")
        if self.format == "fixed_width" and not self.layout:
            raise ConfigError(f"{self.source_id}: fixed_width source needs a layout")
        if self.format == "delimited" and len(self.delimiter) != 1:
            raise ConfigError(f"{self.source_id}: delimiter must be one character")
        self.mapping.require_mandatory(self.source_id)


def validate_layout(layout: Iterable[FieldDescriptor]) -> None:
    """Reject layouts with overlapping, unordered, or unnamed columns."""
    seen: set[str] = set()
    pos = 0
    for fd in layout:
        if not fd.name:
            raise ConfigError("layout field with empty name")
        if fd.name in seen:
            raise ConfigError(f"duplicate layout field {fd.name!r}")
        seen.add(fd.name)
        if fd.kind not in FIELD_KINDS:
            raise ConfigError(f"{fd.name}: unsupported field kind {fd.kind!r}")
        if fd.length < 1:
            raise ConfigError(f"{fd.name}: field length must be >= 1")
        if fd.offset < pos:
            raise ConfigError(f"{fd.name}: offset {fd.offset} overlaps previous field")
        pos = fd.offset + fd.length
    if not seen:
        raise ConfigError("empty layout")


# ---------------------------------------------------------------------------
# dBASE III


@dataclass(frozen=True)
class DbfFile:
    """A fully decoded table file, header facts included."""

    last_update: tuple[int, int, int]   # (yy, mm, dd) as stored
    record_count: int
    header_len: int
    record_len: int
    fields: tuple[FieldDescriptor, ...]
    records: tuple[RawRecord, ...]
    deleted: int


def read_dbf(data: bytes, *, encoding: str = "ascii", source_id: str = "") -> DbfFile:
    if len(data) < 32:
        raise TruncatedFile(f"{len(data)} bytes is too short for a table header")
    version = data[0]
    if version != DBF_VERSION:
        raise MalformedHeader(f"unsupported version byte 0x{version:02x}")
    record_count = struct.unpack_from("<I", data, 4)[0]
    header_len = struct.unpack_from("<H", data, 8)[0]
    record_len = struct.unpack_from("<H", data, 10)[0]
    if header_len < 33 or (header_len - 33) % 32 != 0:
        raise MalformedHeader(f"header length {header_len} is not 32 + 32*n + 1")
    if len(data) < header_len:
        raise TruncatedFile(f"header claims {header_len} bytes, file has {len(data)}")
    if data[header_len - 1] != DBF_TERMINATOR:
        raise MalformedHeader("field descriptor array lacks the 0x0D terminator")

    n_fields = (header_len - 33) // 32
    fields: list[FieldDescriptor] = []
    body_pos = 0
    for i in range(n_fields):
        base = 32 + 32 * i
        raw_name = data[base:base + 11].split(b"\x00", 1)[0]
        try:
            name = raw_name.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedHeader(f"field {i}: undecodable name {raw_name!r}") from exc
        if not name:
            raise MalformedHeader(f"field {i}: empty name")
        kind = chr(data[base + 11])
        if kind not in FIELD_KINDS:
            raise UnsupportedFieldType(f"field {name!r}: type {kind!r}")
        length = data[base + 16]
        if length < 1:
            raise MalformedHeader(f"field {name!r}: zero length")
        fields.append(FieldDescriptor(name=name, kind=kind, length=length,
                                      offset=body_pos, decimals=data[base + 17]))
        body_pos += length

    if record_len != 1 + body_pos:
        raise MalformedHeader(
            f"record length {record_len} != 1 + sum of field lengths {body_pos}")
    need = header_len + record_count * record_len
    if len(data) < need:
        raise TruncatedFile(f"{record_count} records need {need} bytes, file has {len(data)}")

    records: list[RawRecord] = []
    deleted = 0
    pos = header_len
    for _ in range(record_count):
        flag = data[pos]
        body = data[pos + 1:pos + record_len]
        pos += record_len
        if flag == DBF_DELETED_FLAG:
            deleted += 1
            continue
        values: dict[str, str] = {}
        for fd in fields:
            chunk = body[fd.offset:fd.offset + fd.length]
            try:
                text = chunk.decode(encoding)
            except UnicodeDecodeError as exc:
                raise DecodeError(f"field {fd.name!r}: {exc}") from exc
            # character data is right-padded; numerics/dates may be left-padded
            values[fd.name] = text.rstrip(" ") if fd.kind == "C" else text.strip(" ")
        records.append(RawRecord(source_id=source_id, values=values))

    return DbfFile(last_update=(data[1], data[2], data[3]),
                   record_count=record_count, header_len=header_len,
                   record_len=record_len, fields=tuple(fields),
                   records=tuple(records), deleted=deleted)


def parse_dbf(data: bytes, *, encoding: str = "ascii", source_id: str = "") -> list[RawRecord]:
    return list(read_dbf(data, encoding=encoding, source_id=source_id).records)


# ---------------------------------------------------------------------------
# Fixed width


def parse_fixed_width(data: bytes | str, layout: Iterable[FieldDescriptor], *,
                      encoding: str = "ascii", source_id: str = "") -> list[RawRecord]:
    """One record per line; fields are byte slices [offset, offset+length).

    Lines shorter than the layout extent are an error; longer lines keep
    their tail bytes unread.
    """
    layout = tuple(layout)
    validate_layout(layout)
    if isinstance(data, bytes):
        try:
            text = data.decode(encoding)
        except UnicodeDecodeError as exc:
            raise DecodeError(str(exc)) from exc
    else:
        text = data
    extent = max(fd.offset + fd.length for fd in layout)

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records: list[RawRecord] = []
    for line_no, line in enumerate(lines, start=1):
        if len(line) < extent:
            raise ShortLine(line_no, len(line), extent)
        values = {fd.name: line[fd.offset:fd.offset + fd.length].rstrip(" ")
                  for fd in layout}
        records.append(RawRecord(source_id=source_id, values=values))
    return records


# ---------------------------------------------------------------------------
# Delimited


def parse_delimited(data: bytes | str, delimiter: str = ",", has_header: bool = True, *,
                    encoding: str = "utf-8", source_id: str = "") -> list[RawRecord]:
    if isinstance(data, bytes):
        try:
            text = data.decode(encoding)
        except UnicodeDecodeError as exc:
            raise DecodeError(str(exc)) from exc
    else:
        text = data
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise MalformedCsv(f"{source_id}: line {reader.line_num}: {exc}") from None
    if not rows:
        return []
    if has_header:
        names, data_rows, first_no = rows[0], rows[1:], 2
    else:
        names, data_rows, first_no = [f"f{i}" for i in range(len(rows[0]))], rows, 1
    records: list[RawRecord] = []
    for row_no, row in enumerate(data_rows, start=first_no):
        if len(row) != len(names):
            raise RaggedRow(row_no, len(row), len(names))
        records.append(RawRecord(source_id=source_id, values=dict(zip(names, row))))
    return records


# ---------------------------------------------------------------------------
# Mapping into the canonical record


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


def record_mapper(spec: SourceSpec, counters: SourceCounters | None = None,
                  ) -> Callable[[RawRecord], CanonicalApplicant]:
    """A validated spec's row function: field map and codebooks applied (an
    untranslated code passes through and is counted), city and source id
    fixed, status derived. It raises MissingMandatoryField for a row lacking a
    mapped field, InvalidFieldValue for a bad year or a blank quarter."""
    sid = spec.source_id
    field_map = spec.mapping.field_map
    mapped = [name for name in ALL_FIELDS if name in field_map]
    # The text of unmapped fields, city, source id, then the mapped fields' wire
    # values (three or more: a tuple), reordered into ALL_FIELDS positions.
    fixed = ("", spec.city, sid)
    pick = itemgetter(*(field_map[name] for name in mapped))
    slots = {"city": 1, "source_id": 2} | {name: i for i, name in enumerate(mapped, 3)}
    arrange = itemgetter(*(slots.get(name, 0) for name in ALL_FIELDS))
    coded = tuple((ALL_FIELDS.index(name), name, book)
                  for name, book in spec.mapping.value_codebooks.items())
    count = (counters or SourceCounters()).count_untranslatable
    make = CanonicalApplicant._make

    def to_record(raw: RawRecord) -> CanonicalApplicant:
        try:
            picked = pick(raw.values)
        except KeyError:
            canonical, wire = next(pair for pair in field_map.items()
                                   if pair[1] not in raw.values)
            raise MissingMandatoryField(
                f"{sid}: row lacks field {wire!r} (for {canonical})") from None
        row = list(arrange(fixed + picked))
        for pos, name, book in coded:
            code = row[pos]
            if code and code in book:
                row[pos] = book[code]
            elif code:
                count(name)
        year_text = row[_YEAR].strip()
        try:
            row[_YEAR] = parse_year(year_text)
        except ValueError:
            raise InvalidFieldValue(f"{sid}: bad year {year_text!r}") from None
        if not row[_QUARTER].strip():
            raise InvalidFieldValue(f"{sid}: empty quarter")
        row[_STATUS] = derive_status(row[_SECTOR])
        return make(row)

    return to_record


def parse_source(data: bytes, spec: SourceSpec,
                 report: IngestReport | None = None) -> list[RawRecord]:
    """Dispatch on the spec's format; counts deleted rows when applicable."""
    if spec.format == "dbf":
        table = read_dbf(data, encoding=spec.encoding, source_id=spec.source_id)
        if report is not None:
            report.counters(spec.source_id).deleted_skipped += table.deleted
        return list(table.records)
    if spec.format == "fixed_width":
        return parse_fixed_width(data, spec.layout, encoding=spec.encoding,
                                 source_id=spec.source_id)
    if spec.format == "delimited":
        return parse_delimited(data, spec.delimiter, True, encoding=spec.encoding,
                               source_id=spec.source_id)
    raise ConfigError(f"{spec.source_id}: unknown format {spec.format!r}")


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
        spec.validate()
        data = (base / spec.path).read_bytes()
        rows = parse_source(data, spec, report)
        counters = report.counters(spec.source_id)
        to_record = record_mapper(spec, counters)
        before = len(out)
        for row_no, raw in enumerate(rows, start=1):
            try:
                out.append(to_record(raw))
            except (MissingMandatoryField, InvalidFieldValue) as exc:
                report.rejects.append(RejectedRow(spec.source_id, row_no, str(exc)))
        ok = len(out) - before
        counters.records_read += len(rows)
        counters.records_ok += ok
        counters.records_rejected += len(rows) - ok
    return out, report

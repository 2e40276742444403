"""Star schema: six dimension tables, one fact table of additive counts.

The fact table is one read-only (rows, 9) int64 array in FACT_COLUMNS order,
rows in ascending id order. A build is a refresh of the empty warehouse.
A refresh takes one member list per dimension, made by `member_lists` from
the records' LOAD_FIELDS columns (taken from records by `refresh`, or read of
clean.csv by the command line), and takes each dimension in one pass, where
one natural key -> row index dict gives both the members to append and the
fact codes; it groups the codes into facts with `group_rows`, the kernel the
cube's roll-up and aggregate also use.

A dimension row's surrogate id is its 1-based position in its table, which
`load_schema` enforces and `check_integrity` checks. A build adds members in
sorted natural-key order, so a rebuild is bit-identical. A refresh appends
unseen members after the existing rows, so two logically equal warehouses may
differ in ids; fact_index/logically_equal compare on natural keys for that.

Persistence is one CSV per table plus a checksummed manifest, each replaced
whole, the manifest last: a persist cut short between tables leaves the old
manifest beside new tables, whose checksums then fail at load. The load stamp
is derived from table content, not the clock, so identical inputs persist to
byte-identical directories. The fact table is written in one `%` pass, and read
in bulk by `np.fromstring` once numpy passes over its bytes find plain rows of
nine 1-18 digit fields; any other fact file goes through the csv module.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, repeat
from operator import attrgetter, eq
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CorruptManifest,
    EmptyYearRange,
    InvalidFieldValue,
    UnresolvedDimensionValue,
)
from .records import (
    DIMENSIONS,
    MEMBER_FIELDS,
    QUARTERS,
    STATUS_DIRECTED,
    STATUS_SEEKER,
    CanonicalApplicant,
    bulk,
    parse_int,
    parse_years,
    replacing,
    time_key,
    write_csv,
)

if TYPE_CHECKING:
    from .preprocess import ConceptHierarchy

DISPLAY_NAMES = {
    "city": "City",
    "sector": "Sector",
    "edulevel": "EducationLevel",
    "congress": "Congress",
    "service": "Service",
    "time": "Time",
}
DIM_FILES = {dim: f"dim_{dim}.csv" for dim in DIMENSIONS}
FACT_FILE = "fact.csv"
MANIFEST_FILE = "manifest.txt"
FACT_COLUMNS = ("city_id", "sector_id", "edulevel_id", "cong_id", "service_id",
                "time_id", "total_applicants", "num_seekers", "num_directed")
ATTR_COLUMNS = {"time": ("year", "quarter"), "congress": ("city",)}
KEYS = len(DIMENSIONS)          # fact columns before the three measures
# The record fields a build or refresh reads: each dimension's members, and status.
LOAD_FIELDS = (*chain.from_iterable(MEMBER_FIELDS.values()), "status")
_FACT_HEADER = (",".join(FACT_COLUMNS) + "\n").encode()
_FACT_ROW = "%d," * (len(FACT_COLUMNS) - 1) + "%d\n"    # a fact row as write_csv renders it

_STAMP_ROWS = 4096              # fact rows the load stamp renders per hash update

# Grouping counts into a dense slot array only while the key space is at
# most this many slots per grouped row; beyond that it sorts the keys.
_DENSE_SLOTS_PER_ROW = 4


@dataclass(frozen=True)
class DimensionRow:
    surrogate_id: int               # the row's 1-based position in its table
    natural_key: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class DimensionTable:
    rows: tuple[DimensionRow, ...]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, eq=False)
class StarSchema:
    """A fact holds each member as the id of its dimension row: row index + 1."""

    dimensions: dict[str, DimensionTable]   # keyed by short dimension name
    facts: np.ndarray                       # (rows, 9) int64, FACT_COLUMNS order
    meta: dict[str, str]

    def __post_init__(self) -> None:        # shared between readers
        self.facts.flags.writeable = False

    def year_range(self) -> tuple[int, int]:
        return parse_years(self.meta["year_range"])


def group_rows(columns: list[np.ndarray], sizes: list[int],
               weights: Iterable[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Group rows by their key columns (column i holds codes below sizes[i]).

    Returns each distinct key's codes per column, in ascending key order, and
    each weight column summed per key as int64 (summed in float64, so exact
    below 2**53). The product of the sizes must fit in int64.
    """
    flat, slots = columns[0], sizes[0]
    for col, size in zip(columns[1:], sizes[1:]):
        flat = flat * size + col
        slots *= size
    if slots <= _DENSE_SLOTS_PER_ROW * len(flat):
        keys = np.flatnonzero(np.bincount(flat, minlength=slots))
        sums = [np.bincount(flat, weights=w, minlength=slots)[keys] for w in weights]
    else:
        keys, inverse = np.unique(flat, return_inverse=True)
        sums = [np.bincount(inverse, weights=w, minlength=len(keys)) for w in weights]
    key_columns = []
    for size in reversed(sizes):
        keys, pos = np.divmod(keys, size)
        key_columns.append(pos)
    key_columns.reverse()
    return key_columns, [s.astype(np.int64) for s in sums]


def _stamped(dims: dict[str, DimensionTable], facts: np.ndarray,
             meta_core: dict[str, str]) -> StarSchema:
    """The schema with its meta completed by a load stamp hashed from content."""
    h = hashlib.sha256()
    for dim in DIMENSIONS:
        for row in dims[dim].rows:
            h.update(repr((dim, row.surrogate_id, row.natural_key,
                           sorted(row.attributes.items()))).encode())
    row_repr = "((%d, %d, %d, %d, %d, %d), (%d, %d, %d))"     # repr((keys, measures))
    for start in range(0, len(facts), _STAMP_ROWS):
        block = facts[start:start + _STAMP_ROWS]
        h.update(((row_repr * len(block)) % tuple(block.ravel().tolist())).encode())
    h.update(repr(sorted(meta_core.items())).encode())
    return StarSchema(dims, facts, {**meta_core, "loaded": "content:" + h.hexdigest()[:16]})


def empty_schema(year_range: tuple[int, int]) -> StarSchema:
    """The warehouse of no records, whose time is exhaustive over year_range."""
    year_from, year_to = year_range
    if year_from > year_to:
        raise EmptyYearRange(f"year range {year_from}:{year_to} is empty")
    quarters = [(y, q) for y in range(year_from, year_to + 1) for q in QUARTERS]
    dims = {dim: DimensionTable(()) for dim in DIMENSIONS}
    dims["time"] = DimensionTable(tuple(
        DimensionRow(i, time_key(y, q), {"year": str(y), "quarter": q})
        for i, (y, q) in enumerate(quarters, 1)))
    return StarSchema(dims, np.empty((0, KEYS + 3), np.int64),
                      {"year_range": f"{year_from}:{year_to}"})


def build_schema(records: Sequence[CanonicalApplicant],
                 year_range: tuple[int, int],
                 hierarchy: ConceptHierarchy) -> StarSchema:
    """A refresh of the empty warehouse, whose time is exhaustive over year_range."""
    return refresh(empty_schema(year_range), records, hierarchy)


def refresh(schema: StarSchema, full_records: Sequence[CanonicalApplicant],
            hierarchy: ConceptHierarchy) -> StarSchema:
    """Recompute the warehouse over the full (re-deduplicated) record set:
    `refresh_members` on the `member_lists` of the records' LOAD_FIELDS, a
    record named by its national_id."""
    # Each list in one pass, back to back: it runs faster over scattered records.
    lazy = MEMBER_FIELDS["time"]        # read as member_lists makes time's members
    columns = [map(attrgetter(name), full_records) if name in lazy
               else list(map(attrgetter(name), full_records)) for name in LOAD_FIELDS]
    return refresh_members(schema, *member_lists(columns), hierarchy,
                           lambda i: ("", full_records[i].national_id))


def member_lists(columns: Sequence[Iterable]) -> tuple[dict[str, list[str]], list[str]]:
    """The member lists and the status list of records given as their
    LOAD_FIELDS columns in that order, lists but for year and quarter. Each
    distinct time member is made once, and equal ones share its string."""
    *fields, years, quarters, status = columns
    members = dict(zip(DIMENSIONS[:-1], fields))        # time is the last dimension
    members["time"] = list(map(cache(time_key), years, quarters))
    return members, status


@bulk()
def refresh_members(schema: StarSchema, members: Mapping[str, Sequence[str]],
                    status: Sequence[str], hierarchy: ConceptHierarchy,
                    where: Callable[[int], tuple[str, str]]) -> StarSchema:
    """Recompute the warehouse over the full (re-deduplicated) record set,
    given as each record's member of each dimension and its status.

    Per dimension, one natural key -> row index dict gives both the members to
    append and the fact codes. Existing rows keep their ids; every dimension
    but time appends its unseen members in sorted order, a congress outside the
    hierarchy as its own city, which a city roll-up keeps. Facts are regrouped
    from scratch, so refresh(load(A), A∪B) is logically equal to load(A∪B). The
    first record whose time is not in the time dimension, or whose status is
    neither seeker nor directed, raises, time checked first; `where(i)` gives
    the text that locates record i ('<path>: line N: ', or '') and its
    national_id.
    """
    n = len(status)
    dims, columns = {}, []
    for dim in DIMENSIONS:
        rows = list(schema.dimensions[dim].rows)
        index = {r.natural_key: i for i, r in enumerate(rows)}     # row index = id - 1
        if dim != "time":
            for key in sorted(set(members[dim]).difference(index)):
                attributes = ({"city": hierarchy.parent_of.get(("congress", key), key)}
                              if dim == "congress" else {})
                index[key] = len(rows)
                rows.append(DimensionRow(len(rows) + 1, key, attributes))
        dims[dim] = DimensionTable(tuple(rows))
        columns.append(np.fromiter(map(index.get, members[dim], repeat(-1)), np.int64, n))
    weights = [np.fromiter(map(eq, status, repeat(s)), bool, n)
               for s in (STATUS_SEEKER, STATUS_DIRECTED)]
    unresolved = columns[DIMENSIONS.index("time")] < 0     # the one table not extended
    bad = np.flatnonzero(unresolved | ~(weights[0] | weights[1]))
    if bad.size:
        i = int(bad[0])
        place, national_id = where(i)
        if unresolved[i]:
            raise UnresolvedDimensionValue(f"{place}Time: value {members['time'][i]!r} "
                                           f"of record {national_id!r} not in dimension")
        raise InvalidFieldValue(f"{place}record {national_id!r}: bad status {status[i]!r}")

    columns, (seekers, directed) = group_rows(columns, [len(dims[d]) for d in DIMENSIONS], weights)
    facts = np.column_stack([*(k + 1 for k in columns), seekers + directed, seekers, directed])
    del columns, weights, seekers, directed         # not held through _stamped
    meta_core = {k: v for k, v in schema.meta.items() if k != "loaded"}
    return _stamped(dims, facts, {**meta_core, "records": str(n)})


# ---------------------------------------------------------------------------
# Persistence


def persist(schema: StarSchema, path: str | Path) -> Path:
    """Write the table files and manifest; returns the manifest path. Each
    table is rendered once, the facts in one `%` pass, and the bytes hashed
    are the bytes written."""
    out = Path(path)
    table_lines = []

    def write(fname: str, data: bytes, n: int) -> None:
        with replacing(out / fname, binary=True) as fh:
            fh.write(data)
        table_lines.append(
            f"table={fname[:-4]} rows={n} sha256={hashlib.sha256(data).hexdigest()}")

    for dim in DIMENSIONS:
        attr_cols = ATTR_COLUMNS.get(dim, ())
        text = io.StringIO()
        n = write_csv(text, ("id", "key", *attr_cols), (
            (r.surrogate_id, r.natural_key, *(r.attributes.get(a, "") for a in attr_cols))
            for r in schema.dimensions[dim].rows))
        write(DIM_FILES[dim], text.getvalue().encode("utf-8"), n)
    n, cells = len(schema.facts), tuple(schema.facts.ravel().tolist())
    write(FACT_FILE, _FACT_HEADER + (_FACT_ROW * n % cells).encode(), n)

    lines = table_lines + [f"{k}={schema.meta[k]}" for k in sorted(schema.meta)]
    manifest = out / MANIFEST_FILE
    with replacing(manifest) as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def _parsed_row(fname: str, row_no: int, row: list[str], width: int, ints: int) -> np.ndarray:
    """The row's first `ints` fields as int64, each read by parse_int, once its
    width is checked; a wrong width, or a field that is no int64, raises naming the row."""
    if len(row) != width:
        raise CorruptManifest(f"{fname}: row {row_no}: {len(row)} columns, expected {width}")
    try:
        return np.array([*map(parse_int, row[:ints])], np.int64)
    except (ValueError, OverflowError):
        raise CorruptManifest(f"{fname}: row {row_no}: not integers: {row[:ints]}") from None


def _fact_array(data: bytes, rows: int) -> np.ndarray | None:
    """fact.csv parsed in bulk when it is plainly the header and `rows` lines
    of nine 1-18 digit fields (np.fromstring alone would saturate a longer
    value to int64 max, take a trailing comma, and take rows whose widths
    cancel out); None otherwise, and the csv path names the fault."""
    body = data[len(_FACT_HEADER):]
    if (not data.startswith(_FACT_HEADER) or body.translate(None, b"0123456789,\n")
            or not body.endswith(b"\n") or body.count(b"\n") != rows):
        return None
    text = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(text < ord("0"))          # each field's ',' or '\n'
    widths = np.diff(ends, prepend=-1)              # its digits, plus one
    width = len(FACT_COLUMNS)
    if (len(ends) != rows * width or (text[ends[width - 1::width]] != ord("\n")).any()
            or widths.min() < 2 or widths.max() > 19):
        return None
    return np.fromstring(body.replace(b"\n", b","), np.int64, sep=",").reshape(rows, -1)


def load_schema(path: str | Path) -> StarSchema:
    """Read a warehouse directory back, verifying checksums and row counts.

    Fails closed: anything unreadable, tampered or malformed raises
    CorruptManifest naming the file, and the first faulty row in file order
    where there is one. A dimension row's id must be its row number, and its
    key must not repeat an earlier row's, as `persist` writes them.
    """
    base = Path(path)
    manifest = base / MANIFEST_FILE
    if not manifest.is_file():
        raise CorruptManifest(f"missing {MANIFEST_FILE} in {base}")
    try:
        lines = manifest.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise CorruptManifest(f"{MANIFEST_FILE}: not UTF-8") from None
    tables: dict[str, tuple[int, str]] = {}
    meta: dict[str, str] = {}
    for line in lines:
        if not line.strip():
            continue
        if line.startswith("table="):
            parts = dict(p.partition("=")[::2] for p in line.split())
            try:
                tables[parts["table"]] = (parse_int(parts["rows"]), parts["sha256"])
            except (KeyError, ValueError):
                raise CorruptManifest(f"{MANIFEST_FILE}: bad table line {line!r}") from None
        else:
            k, _, v = line.partition("=")
            meta[k] = v

    expected = [DIM_FILES[d][:-4] for d in DIMENSIONS] + ["fact"]
    missing = [t for t in expected if t not in tables]
    if missing:
        raise CorruptManifest(f"manifest lacks tables: {missing}")

    def checked(name: str, bulk: Callable | None = None) -> tuple[Sequence[str], Sequence]:
        fpath = base / f"{name}.csv"
        if not fpath.is_file():
            raise CorruptManifest(f"missing table file {fpath.name}")
        want_rows, want_sha = tables[name]
        data = fpath.read_bytes()       # read once: the bytes verified are the bytes parsed
        if hashlib.sha256(data).hexdigest() != want_sha:
            raise CorruptManifest(f"{fpath.name}: checksum mismatch")
        if bulk and (table := bulk(data, want_rows)) is not None:
            return FACT_COLUMNS, table      # a bulk parse has matched the header
        try:
            rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise CorruptManifest(f"{fpath.name}: not a CSV table ({exc})") from None
        if not rows:
            raise CorruptManifest(f"{fpath.name}: empty table file")
        header, rows = rows[0], rows[1:]
        if len(rows) != want_rows:
            raise CorruptManifest(f"{fpath.name}: {len(rows)} rows, manifest says {want_rows}")
        return header, rows

    dims: dict[str, DimensionTable] = {}
    for dim in DIMENSIONS:
        fname = DIM_FILES[dim]
        header, rows = checked(fname[:-4])
        attr_cols = tuple(header[2:])
        if header[:2] != ["id", "key"] or attr_cols != ATTR_COLUMNS.get(dim, ()):
            raise CorruptManifest(f"{fname}: unexpected columns {header}")
        table_rows, first_row = [], {}      # first_row: each key's first row number
        for row_no, row in enumerate(rows, 1):
            row_id = _parsed_row(fname, row_no, row, len(header), 1)[0]
            if row_id != row_no:
                raise CorruptManifest(f"{fname}: row {row_no}: id {row_id}, expected {row_no}")
            if (first := first_row.setdefault(row[1], row_no)) != row_no:
                raise CorruptManifest(f"{fname}: row {row_no}: key {row[1]!r} repeats row {first}")
            table_rows.append(DimensionRow(row_no, row[1], dict(zip(attr_cols, row[2:]))))
        dims[dim] = DimensionTable(tuple(table_rows))

    header, rows = checked("fact", _fact_array)
    if tuple(header) != FACT_COLUMNS:
        raise CorruptManifest(f"{FACT_FILE}: unexpected columns {header}")
    width = len(FACT_COLUMNS)
    if isinstance(rows, list):          # the bulk guard refused the file
        rows = [_parsed_row(FACT_FILE, row_no, row, width, width)
                for row_no, row in enumerate(rows, 1)]
    schema = StarSchema(dims, np.asarray(rows, np.int64).reshape(len(rows), width), meta)
    if "year_range" not in meta:
        raise CorruptManifest(f"{MANIFEST_FILE}: no year_range entry")
    for key, parse in (("year_range", parse_years), ("records", parse_int)):
        try:
            parse(meta.get(key, "0"))
        except ValueError as exc:
            raise CorruptManifest(f"{MANIFEST_FILE}: {key}: {exc}") from None
    return schema


# ---------------------------------------------------------------------------
# Integrity and comparison


def check_integrity(schema: StarSchema) -> list[str]:
    """Invariant scan; returns human-readable violations (empty = healthy).
    The command line refuses a warehouse it reads back with any; a schema
    `build_schema` or `refresh` returns from a healthy one has none."""
    problems: list[str] = []
    for dim in DIMENSIONS:
        rows = schema.dimensions[dim].rows
        ids = [r.surrogate_id for r in rows]
        if ids != list(range(1, len(ids) + 1)):
            problems.append(f"{DISPLAY_NAMES[dim]}: surrogate ids not dense 1..{len(ids)}")
        keys = [r.natural_key for r in rows]
        if len(set(keys)) != len(keys):
            problems.append(f"{DISPLAY_NAMES[dim]}: duplicate natural keys")
    lo, hi = schema.year_range()
    want_time = (hi - lo + 1) * 4
    if len(schema.dimensions["time"]) != want_time:
        problems.append(
            f"Time: {len(schema.dimensions['time'])} rows, want {want_time}")

    keys, measures = np.split(schema.facts.T.copy(), [KEYS])     # contiguous columns
    sizes = [len(schema.dimensions[dim]) for dim in DIMENSIONS]
    dangling = (keys < 1) | (keys > np.array(sizes)[:, None])
    try:    # every id in range and the key space within int64: one packed key a row
        first = np.unique(np.ravel_multi_index(keys - 1, sizes), return_index=True)[1]
    except ValueError:
        first = np.unique(keys.T, axis=0, return_index=True)[1]
    duplicate = np.ones(keys.shape[1], dtype=bool)
    duplicate[first] = False
    negative = (measures < 0).any(axis=0)
    unbalanced = measures[0] != measures[1] + measures[2]
    for i in np.flatnonzero(dangling.any(axis=0) | duplicate | negative | unbalanced):
        key = tuple(keys[:, i].tolist())
        for dim, sid, bad in zip(DIMENSIONS, key, dangling[:, i]):
            if bad:
                problems.append(f"fact {key}: dangling {dim} id {sid}")
        if duplicate[i]:
            problems.append(f"fact {key}: duplicate key tuple")
        if negative[i]:
            problems.append(f"fact {key}: negative measure")
        if unbalanced[i]:
            total, seekers, directed = measures[:, i].tolist()
            problems.append(f"fact {key}: total {total} != {seekers} + {directed}")
    if "records" in schema.meta:
        total = int(measures[0].sum())
        if total != parse_int(schema.meta["records"]):
            problems.append(
                f"fact totals sum to {total}, manifest records={schema.meta['records']}")
    return problems


def fact_index(schema: StarSchema) -> dict[tuple[str, ...], tuple[int, int, int]]:
    """Facts re-keyed by natural keys, for id-independent comparison; ids must be in range."""
    keys = [[r.natural_key for r in schema.dimensions[dim].rows] for dim in DIMENSIONS]
    return {tuple(k[sid - 1] for k, sid in zip(keys, row[:KEYS])):
            tuple(row[KEYS:]) for row in schema.facts.tolist()}


def logically_equal(a: StarSchema, b: StarSchema) -> bool:
    """Same dimension contents and same per-cell measures, ids ignored."""
    for dim in DIMENSIONS:
        rows_a = {r.natural_key: r.attributes for r in a.dimensions[dim].rows}
        rows_b = {r.natural_key: r.attributes for r in b.dimensions[dim].rows}
        if rows_a != rows_b:
            return False
    return fact_index(a) == fact_index(b)

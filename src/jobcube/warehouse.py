"""Star schema: six dimension tables, one fact table of additive counts.

The fact table is one read-only (rows, 9) int64 array in FACT_COLUMNS order,
rows in ascending id order. A build is a refresh of the empty warehouse;
either reads each record's members once, into lists that give both the new
dimension members and the fact codes, and groups the codes into facts with
`group_rows`, the kernel the cube's roll-up and aggregate also use.

Surrogate ids are dense (1..N) and assigned in sorted natural-key order, so a
rebuild from the same records is bit-identical. A refresh keeps existing ids
stable and appends fresh ones, so after a refresh two warehouses can be
logically equal (same keys, same measures) without sharing id assignments;
fact_index/logically_equal compare on natural keys for that reason.

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
from itertools import repeat
from operator import attrgetter, eq
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CorruptManifest,
    EmptyYearRange,
    InvalidFieldValue,
    UnresolvedDimensionValue,
)
from .preprocess import ConceptHierarchy
from .records import (
    DIMENSIONS,
    MEMBER_GETTERS,
    QUARTERS,
    STATUS_DIRECTED,
    STATUS_SEEKER,
    CanonicalApplicant,
    replacing,
    time_key,
    write_csv,
)

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
_FACT_HEADER = (",".join(FACT_COLUMNS) + "\n").encode()
_FACT_ROW = "%d," * (len(FACT_COLUMNS) - 1) + "%d\n"    # a fact row as write_csv renders it

# Grouping counts into a dense slot array only while the key space is at
# most this many slots per grouped row; beyond that it sorts the keys.
_DENSE_SLOTS_PER_ROW = 4


@dataclass(frozen=True)
class DimensionRow:
    surrogate_id: int
    natural_key: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class DimensionTable:
    name: str                       # display name, e.g. "EducationLevel"
    rows: tuple[DimensionRow, ...]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, eq=False)
class StarSchema:
    dimensions: dict[str, DimensionTable]   # keyed by short dimension name
    facts: np.ndarray                       # (rows, 9) int64, FACT_COLUMNS order
    meta: dict[str, str]

    def __post_init__(self) -> None:        # shared between readers
        self.facts.flags.writeable = False

    def year_range(self) -> tuple[int, int]:
        lo, hi = self.meta["year_range"].split(":")
        return int(lo), int(hi)


def _congress_parent(hierarchy: ConceptHierarchy | None, value: str) -> str:
    """Parent city of a congress; values outside the hierarchy are their own
    parent so they survive a city-level roll-up as themselves."""
    return value if hierarchy is None else hierarchy.parent_of.get(("congress", value), value)


def _member_lists(records: Sequence[CanonicalApplicant]) -> dict[str, list]:
    """Each record's member on every dimension, and its status, one list per
    key: the observed members and the fact codes both come from these. Each
    distinct time member is built once, and equal members share its string."""
    lists = {dim: list(map(MEMBER_GETTERS[dim], records)) for dim in DIMENSIONS if dim != "time"}
    lists["time"] = list(map(cache(time_key), map(attrgetter("year"), records),
                             map(attrgetter("quarter"), records)))
    lists["status"] = list(map(attrgetter("status"), records))
    return lists


def _appended(rows: tuple[DimensionRow, ...], values: set[str], dim: str,
              hierarchy: ConceptHierarchy | None) -> tuple[DimensionRow, ...]:
    """rows plus one row per value they lack, in sorted order, ids following on."""
    known = {r.natural_key for r in rows}
    return rows + tuple(
        DimensionRow(len(rows) + i, key,
                     {"city": _congress_parent(hierarchy, key)} if dim == "congress" else {})
        for i, key in enumerate(sorted(values - known), 1))


def group_rows(columns: list[np.ndarray], sizes: list[int],
               weights: Iterable[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Group rows by their key columns (column i holds codes below sizes[i]).

    Returns each distinct key's codes per column, in ascending key order, and
    each weight column summed per key (float64, exact below 2**53). The
    product of the sizes must fit in int64.
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
    return key_columns, sums


def _facts(records: Sequence[CanonicalApplicant], members: Mapping[str, list],
           dims: Mapping[str, DimensionTable]) -> np.ndarray:
    """Group records at the six-key grain and count the three measures.

    Returns the (rows, 9) int64 fact array. The first record holding a value
    outside its dimension, or a status neither seeker nor directed, raises.
    """
    n = len(records)
    columns, ids = [], []
    for dim in DIMENSIONS:
        # group on each id's rank among the sorted ids; -1: not a member
        rows = sorted(dims[dim].rows, key=attrgetter("surrogate_id"))
        rank = {r.natural_key: i for i, r in enumerate(rows)}
        columns.append(np.fromiter(map(rank.get, members[dim], repeat(-1)), np.int64, n))
        ids.append(np.array([r.surrogate_id for r in rows], dtype=np.int64))
    status = members["status"]
    weights = [np.fromiter(map(eq, status, repeat(s)), bool, n)
               for s in (STATUS_SEEKER, STATUS_DIRECTED)]

    bad = np.flatnonzero((np.array(columns) < 0).any(axis=0) | ~(weights[0] | weights[1]))
    if bad.size:
        r = records[bad[0]]
        for dim, column in zip(DIMENSIONS, columns):
            if column[bad[0]] < 0:
                raise UnresolvedDimensionValue(
                    f"{dims[dim].name}: value {members[dim][bad[0]]!r} not in dimension")
        raise InvalidFieldValue(f"record {r.national_id!r}: bad status {r.status!r}")

    key_columns, sums = group_rows(columns, [len(i) for i in ids], weights)
    seekers, directed = np.array(sums, dtype=np.int64)
    return np.column_stack([*(i[k] for i, k in zip(ids, key_columns)),
                            seekers + directed, seekers, directed])


def _stamped(dims: dict[str, DimensionTable], facts: np.ndarray,
             meta_core: dict[str, str]) -> StarSchema:
    """The schema with its meta completed by a load stamp hashed from content."""
    h = hashlib.sha256()
    for dim in DIMENSIONS:
        for row in dims[dim].rows:
            h.update(repr((dim, row.surrogate_id, row.natural_key,
                           sorted(row.attributes.items()))).encode())
    row_repr = "((%d, %d, %d, %d, %d, %d), (%d, %d, %d))"     # repr((keys, measures))
    h.update(((row_repr * len(facts)) % tuple(facts.ravel().tolist())).encode())
    h.update(repr(sorted(meta_core.items())).encode())
    return StarSchema(dims, facts, {**meta_core, "loaded": "content:" + h.hexdigest()[:16]})


def build_schema(records: Sequence[CanonicalApplicant],
                 year_range: tuple[int, int],
                 hierarchy: ConceptHierarchy | None = None) -> StarSchema:
    """A refresh of the empty warehouse, whose time is exhaustive over year_range."""
    year_from, year_to = year_range
    if year_from > year_to:
        raise EmptyYearRange(f"year range {year_from}:{year_to} is empty")
    quarters = [(y, q) for y in range(year_from, year_to + 1) for q in QUARTERS]
    dims = {dim: DimensionTable(DISPLAY_NAMES[dim], ()) for dim in DIMENSIONS}
    dims["time"] = DimensionTable(DISPLAY_NAMES["time"], tuple(
        DimensionRow(i, time_key(y, q), {"year": str(y), "quarter": q})
        for i, (y, q) in enumerate(quarters, 1)))
    empty = StarSchema(dims, np.empty((0, KEYS + 3), np.int64),
                       {"year_range": f"{year_from}:{year_to}"})
    return refresh(empty, records, hierarchy)


def refresh(schema: StarSchema, full_records: Sequence[CanonicalApplicant],
            hierarchy: ConceptHierarchy | None = None) -> StarSchema:
    """Recompute the warehouse over the full (re-deduplicated) record set.

    Existing surrogate ids stay put; unseen dimension values get fresh ids
    appended after the current maximum. Fact cells are regrouped from scratch,
    which makes refresh(load(A), A∪B) logically equal to load(A∪B).
    """
    members = _member_lists(full_records)
    dims = {dim: table if dim == "time" else DimensionTable(
                table.name, _appended(table.rows, set(members[dim]), dim, hierarchy))
            for dim, table in schema.dimensions.items()}
    meta_core = {k: v for k, v in schema.meta.items() if k != "loaded"}
    meta_core["records"] = str(len(full_records))
    return _stamped(dims, _facts(full_records, members, dims), meta_core)


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


def _bad_row(fname: str, rows: list[list[str]], width: int, ints: int) -> CorruptManifest:
    """The error naming the first row of the wrong width or a non-int64 id."""
    for row_no, row in enumerate(rows, 1):
        if len(row) != width:
            return CorruptManifest(
                f"{fname}: row {row_no}: {len(row)} columns, expected {width}")
        try:
            np.array(row[:ints], dtype=np.int64)
        except (ValueError, OverflowError):
            return CorruptManifest(f"{fname}: row {row_no}: not integers: {row[:ints]}")
    return CorruptManifest(f"{fname}: not a table of integers")


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
    CorruptManifest naming the file, and the row where there is one. A
    dimension row's id must be its row number, as `persist` writes them.
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
                tables[parts["table"]] = (int(parts["rows"]), parts["sha256"])
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
        try:
            table_rows = tuple(DimensionRow(int(r[0]), r[1], dict(zip(attr_cols, r[2:])))
                               for r in rows if len(r) == len(header))
        except ValueError:
            table_rows = ()
        if len(table_rows) != len(rows):
            raise _bad_row(fname, rows, len(header), 1)
        for row_no, row in enumerate(table_rows, 1):
            if row.surrogate_id != row_no:
                raise CorruptManifest(f"{fname}: row {row_no}: id {row.surrogate_id}, "
                                      f"expected {row_no}")
        dims[dim] = DimensionTable(DISPLAY_NAMES[dim], table_rows)

    header, rows = checked("fact", _fact_array)
    if tuple(header) != FACT_COLUMNS:
        raise CorruptManifest(f"{FACT_FILE}: unexpected columns {header}")
    try:
        facts = np.asarray(rows, dtype=np.int64).reshape(len(rows), len(header))
    except (ValueError, OverflowError):
        raise _bad_row(FACT_FILE, rows, len(header), len(header)) from None
    schema = StarSchema(dims, facts, meta)
    try:
        schema.year_range(), int(meta.get("records", 0))
    except (KeyError, ValueError):
        raise CorruptManifest(f"{MANIFEST_FILE}: bad year_range or records entry") from None
    return schema


# ---------------------------------------------------------------------------
# Integrity and comparison


def check_integrity(schema: StarSchema) -> list[str]:
    """Invariant scan; returns human-readable violations (empty = healthy)."""
    problems: list[str] = []
    for dim in DIMENSIONS:
        table = schema.dimensions[dim]
        ids = [r.surrogate_id for r in table.rows]
        if ids != list(range(1, len(ids) + 1)):
            problems.append(f"{table.name}: surrogate ids not dense 1..{len(ids)}")
        keys = [r.natural_key for r in table.rows]
        if len(set(keys)) != len(keys):
            problems.append(f"{table.name}: duplicate natural keys")
    lo, hi = schema.year_range()
    want_time = (hi - lo + 1) * 4
    if len(schema.dimensions["time"]) != want_time:
        problems.append(
            f"Time: {len(schema.dimensions['time'])} rows, want {want_time}")

    keys, measures = schema.facts[:, :KEYS], schema.facts[:, KEYS:]
    sizes = np.array([len(schema.dimensions[dim]) for dim in DIMENSIONS])
    dangling = (keys < 1) | (keys > sizes)
    duplicate = np.ones(len(keys), dtype=bool)
    duplicate[np.unique(keys, axis=0, return_index=True)[1]] = False
    negative = (measures < 0).any(axis=1)
    unbalanced = measures[:, 0] != measures[:, 1] + measures[:, 2]
    for i in np.flatnonzero(dangling.any(axis=1) | duplicate | negative | unbalanced):
        key = tuple(keys[i].tolist())
        for dim, sid, bad in zip(DIMENSIONS, key, dangling[i]):
            if bad:
                problems.append(f"fact {key}: dangling {dim} id {sid}")
        if duplicate[i]:
            problems.append(f"fact {key}: duplicate key tuple")
        if negative[i]:
            problems.append(f"fact {key}: negative measure")
        if unbalanced[i]:
            total, seekers, directed = measures[i].tolist()
            problems.append(f"fact {key}: total {total} != {seekers} + {directed}")
    if "records" in schema.meta:
        total = int(measures[:, 0].sum())
        if total != int(schema.meta["records"]):
            problems.append(
                f"fact totals sum to {total}, manifest records={schema.meta['records']}")
    return problems


def fact_index(schema: StarSchema) -> dict[tuple[str, ...], tuple[int, int, int]]:
    """Facts re-keyed by natural keys, for id-independent comparison."""
    keys = {dim: {r.surrogate_id: r.natural_key for r in schema.dimensions[dim].rows}
            for dim in DIMENSIONS}
    return {tuple(keys[dim][sid] for dim, sid in zip(DIMENSIONS, row[:KEYS])):
            tuple(row[KEYS:]) for row in schema.facts.tolist()}


def logically_equal(a: StarSchema, b: StarSchema) -> bool:
    """Same dimension contents and same per-cell measures, ids ignored."""
    for dim in DIMENSIONS:
        rows_a = {r.natural_key: r.attributes for r in a.dimensions[dim].rows}
        rows_b = {r.natural_key: r.attributes for r in b.dimensions[dim].rows}
        if rows_a != rows_b:
            return False
    return fact_index(a) == fact_index(b)

"""Star schema: six dimension tables, one fact table of additive counts.

Surrogate ids are dense (1..N) and assigned in sorted natural-key order, so a
rebuild from the same records is bit-identical. A refresh keeps existing ids
stable and appends fresh ones, so after a refresh two warehouses can be
logically equal (same keys, same measures) without sharing id assignments;
fact_index/logically_equal compare on natural keys for that reason.

Persistence is one CSV per table plus a checksummed manifest. The load stamp
is derived from table content, not the clock, so identical inputs persist to
byte-identical directories.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    CorruptManifest,
    EmptyYearRange,
    InvalidFieldValue,
    UnresolvedDimensionValue,
)
from .preprocess import ConceptHierarchy
from .records import (
    DIMENSIONS,
    QUARTERS,
    STATUS_DIRECTED,
    STATUS_SEEKER,
    CanonicalApplicant,
    dimension_value,
    time_key,
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


@dataclass(frozen=True)
class DimensionRow:
    surrogate_id: int
    natural_key: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class DimensionTable:
    name: str                       # display name, e.g. "EducationLevel"
    rows: tuple[DimensionRow, ...]

    def id_map(self) -> dict[str, int]:
        return {r.natural_key: r.surrogate_id for r in self.rows}

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class FactRow:
    city_id: int
    sector_id: int
    edulevel_id: int
    cong_id: int
    service_id: int
    time_id: int
    total_applicants: int
    num_seekers: int
    num_directed: int

    def key(self) -> tuple[int, int, int, int, int, int]:
        return (self.city_id, self.sector_id, self.edulevel_id,
                self.cong_id, self.service_id, self.time_id)

    def measures(self) -> tuple[int, int, int]:
        return (self.total_applicants, self.num_seekers, self.num_directed)


@dataclass(frozen=True)
class StarSchema:
    dimensions: dict[str, DimensionTable]   # keyed by short dimension name
    facts: tuple[FactRow, ...]
    meta: dict[str, str]

    def year_range(self) -> tuple[int, int]:
        lo, hi = self.meta["year_range"].split(":")
        return int(lo), int(hi)


def _congress_parent(hierarchy: ConceptHierarchy | None, value: str) -> str:
    """Parent city of a congress; values outside the hierarchy are their own
    parent so they survive a city-level roll-up as themselves."""
    if hierarchy is not None and "congress" in hierarchy.levels:
        parent = hierarchy.parent("congress", value)
        if parent is not None:
            return parent
    return value


def build_dimensions(records: Iterable[CanonicalApplicant],
                     year_range: tuple[int, int],
                     hierarchy: ConceptHierarchy | None = None,
                     ) -> dict[str, DimensionTable]:
    """Distinct observed values per dimension, ids in sorted-key order.

    Time is exhaustive over the year range (years x 4 quarters) regardless of
    what the records cover.
    """
    year_from, year_to = year_range
    if year_from > year_to:
        raise EmptyYearRange(f"year range {year_from}:{year_to} is empty")

    observed: dict[str, set[str]] = {d: set() for d in DIMENSIONS if d != "time"}
    for r in records:
        for dim in observed:
            observed[dim].add(dimension_value(r, dim))

    dims: dict[str, DimensionTable] = {}
    for dim in DIMENSIONS:
        if dim == "time":
            rows = tuple(
                DimensionRow(i + 1, time_key(year, q),
                             {"year": str(year), "quarter": q})
                for i, (year, q) in enumerate(
                    (y, q) for y in range(year_from, year_to + 1) for q in QUARTERS))
        elif dim == "congress":
            rows = tuple(
                DimensionRow(i + 1, key, {"city": _congress_parent(hierarchy, key)})
                for i, key in enumerate(sorted(observed[dim])))
        else:
            rows = tuple(DimensionRow(i + 1, key)
                         for i, key in enumerate(sorted(observed[dim])))
        dims[dim] = DimensionTable(DISPLAY_NAMES[dim], rows)
    return dims


def load_facts(records: Iterable[CanonicalApplicant],
               dims: Mapping[str, DimensionTable]) -> tuple[FactRow, ...]:
    """Group records at the six-key grain and count the three measures."""
    id_maps = {dim: dims[dim].id_map() for dim in DIMENSIONS}
    cells: dict[tuple[int, ...], list[int]] = {}
    for r in records:
        key_ids = []
        for dim in DIMENSIONS:
            value = dimension_value(r, dim)
            sid = id_maps[dim].get(value)
            if sid is None:
                raise UnresolvedDimensionValue(
                    f"{dims[dim].name}: value {value!r} not in dimension")
            key_ids.append(sid)
        if r.status == STATUS_SEEKER:
            s, d = 1, 0
        elif r.status == STATUS_DIRECTED:
            s, d = 0, 1
        else:
            raise InvalidFieldValue(f"record {r.national_id!r}: bad status {r.status!r}")
        cell = cells.setdefault(tuple(key_ids), [0, 0, 0])
        cell[0] += 1
        cell[1] += s
        cell[2] += d
    return tuple(FactRow(*key, *cells[key]) for key in sorted(cells))


def _content_stamp(dims: Mapping[str, DimensionTable], facts: Sequence[FactRow],
                   meta_core: Mapping[str, str]) -> str:
    h = hashlib.sha256()
    for dim in DIMENSIONS:
        for row in dims[dim].rows:
            h.update(repr((dim, row.surrogate_id, row.natural_key,
                           sorted(row.attributes.items()))).encode())
    for f in facts:
        h.update(repr((f.key(), f.measures())).encode())
    h.update(repr(sorted(meta_core.items())).encode())
    return "content:" + h.hexdigest()[:16]


def _finish_meta(dims, facts, meta_core: dict[str, str]) -> dict[str, str]:
    meta = dict(meta_core)
    meta["loaded"] = _content_stamp(dims, facts, meta_core)
    return meta


def build_schema(records: Sequence[CanonicalApplicant],
                 year_range: tuple[int, int],
                 hierarchy: ConceptHierarchy | None = None,
                 source_note: str = "") -> StarSchema:
    dims = build_dimensions(records, year_range, hierarchy)
    facts = load_facts(records, dims)
    meta_core = {
        "year_range": f"{year_range[0]}:{year_range[1]}",
        "records": str(len(records)),
    }
    if source_note:
        meta_core["sources"] = source_note
    return StarSchema(dims, facts, _finish_meta(dims, facts, meta_core))


def refresh(schema: StarSchema, full_records: Sequence[CanonicalApplicant],
            hierarchy: ConceptHierarchy | None = None) -> StarSchema:
    """Recompute the warehouse over the full (re-deduplicated) record set.

    Existing surrogate ids stay put; unseen dimension values get fresh ids
    appended after the current maximum. Fact cells are regrouped from scratch,
    which makes refresh(load(A), A∪B) logically equal to load(A∪B).
    """
    year_range = schema.year_range()
    observed: dict[str, set[str]] = {d: set() for d in DIMENSIONS if d != "time"}
    for r in full_records:
        for dim in observed:
            observed[dim].add(dimension_value(r, dim))

    dims: dict[str, DimensionTable] = {"time": schema.dimensions["time"]}
    for dim, values in observed.items():
        old = schema.dimensions[dim]
        known = set(r.natural_key for r in old.rows)
        new_rows = list(old.rows)
        next_id = len(old.rows) + 1
        for key in sorted(values - known):
            attrs = {"city": _congress_parent(hierarchy, key)} if dim == "congress" else {}
            new_rows.append(DimensionRow(next_id, key, attrs))
            next_id += 1
        dims[dim] = DimensionTable(old.name, tuple(new_rows))

    facts = load_facts(full_records, dims)
    meta_core = {k: v for k, v in schema.meta.items() if k != "loaded"}
    meta_core["records"] = str(len(full_records))
    return StarSchema(dims, facts, _finish_meta(dims, facts, meta_core))


# ---------------------------------------------------------------------------
# Persistence


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def persist(schema: StarSchema, path: str | Path) -> Path:
    """Write the table files and manifest; returns the manifest path."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    table_lines = []
    for dim in DIMENSIONS:
        table = schema.dimensions[dim]
        attr_cols = ATTR_COLUMNS.get(dim, ())
        fpath = out / DIM_FILES[dim]
        _write_csv(fpath, ("id", "key", *attr_cols),
                   ((r.surrogate_id, r.natural_key,
                     *(r.attributes.get(a, "") for a in attr_cols))
                    for r in table.rows))
        table_lines.append(
            f"table={DIM_FILES[dim][:-4]} rows={len(table.rows)} sha256={_sha256(fpath)}")
    fact_path = out / FACT_FILE
    _write_csv(fact_path, FACT_COLUMNS,
               ((*f.key(), *f.measures()) for f in schema.facts))
    table_lines.append(
        f"table=fact rows={len(schema.facts)} sha256={_sha256(fact_path)}")

    lines = table_lines + [f"{k}={schema.meta[k]}" for k in sorted(schema.meta)]
    manifest = out / MANIFEST_FILE
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise CorruptManifest(f"{path.name}: empty table file")
    return rows[0], rows[1:]


def load_schema(path: str | Path) -> StarSchema:
    """Read a warehouse directory back, verifying checksums and row counts."""
    base = Path(path)
    manifest = base / MANIFEST_FILE
    if not manifest.is_file():
        raise CorruptManifest(f"missing {MANIFEST_FILE} in {base}")
    tables: dict[str, tuple[int, str]] = {}
    meta: dict[str, str] = {}
    for line in manifest.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("table="):
            parts = dict(p.split("=", 1) for p in line.split())
            tables[parts["table"]] = (int(parts["rows"]), parts["sha256"])
        else:
            k, _, v = line.partition("=")
            meta[k] = v

    expected = [DIM_FILES[d][:-4] for d in DIMENSIONS] + ["fact"]
    missing = [t for t in expected if t not in tables]
    if missing:
        raise CorruptManifest(f"manifest lacks tables: {missing}")

    def checked(name: str) -> tuple[list[str], list[list[str]]]:
        fpath = base / f"{name}.csv"
        if not fpath.is_file():
            raise CorruptManifest(f"missing table file {fpath.name}")
        want_rows, want_sha = tables[name]
        if _sha256(fpath) != want_sha:
            raise CorruptManifest(f"{fpath.name}: checksum mismatch")
        header, rows = _read_csv(fpath)
        if len(rows) != want_rows:
            raise CorruptManifest(f"{fpath.name}: {len(rows)} rows, manifest says {want_rows}")
        return header, rows

    dims: dict[str, DimensionTable] = {}
    for dim in DIMENSIONS:
        header, rows = checked(DIM_FILES[dim][:-4])
        attr_cols = tuple(header[2:])
        if attr_cols != ATTR_COLUMNS.get(dim, ()):
            raise CorruptManifest(f"{DIM_FILES[dim]}: unexpected columns {header}")
        dims[dim] = DimensionTable(
            DISPLAY_NAMES[dim],
            tuple(DimensionRow(int(r[0]), r[1], dict(zip(attr_cols, r[2:])))
                  for r in rows))

    header, rows = checked("fact")
    if tuple(header) != FACT_COLUMNS:
        raise CorruptManifest(f"{FACT_FILE}: unexpected columns {header}")
    facts = tuple(FactRow(*(int(v) for v in r)) for r in rows)
    return StarSchema(dims, facts, meta)


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

    sizes = {dim: len(schema.dimensions[dim]) for dim in DIMENSIONS}
    seen_keys: set[tuple[int, ...]] = set()
    for f in schema.facts:
        for dim, sid in zip(DIMENSIONS, f.key()):
            if not 1 <= sid <= sizes[dim]:
                problems.append(f"fact {f.key()}: dangling {dim} id {sid}")
        if f.key() in seen_keys:
            problems.append(f"fact {f.key()}: duplicate key tuple")
        seen_keys.add(f.key())
        if min(f.measures()) < 0:
            problems.append(f"fact {f.key()}: negative measure")
        if f.total_applicants != f.num_seekers + f.num_directed:
            problems.append(
                f"fact {f.key()}: total {f.total_applicants} != "
                f"{f.num_seekers} + {f.num_directed}")
    if "records" in schema.meta:
        total = sum(f.total_applicants for f in schema.facts)
        if total != int(schema.meta["records"]):
            problems.append(
                f"fact totals sum to {total}, manifest records={schema.meta['records']}")
    return problems


def fact_index(schema: StarSchema) -> dict[tuple[str, ...], tuple[int, int, int]]:
    """Facts re-keyed by natural keys, for id-independent comparison."""
    keys = {dim: {r.surrogate_id: r.natural_key for r in schema.dimensions[dim].rows}
            for dim in DIMENSIONS}
    return {
        tuple(keys[dim][sid] for dim, sid in zip(DIMENSIONS, f.key())): f.measures()
        for f in schema.facts
    }


def logically_equal(a: StarSchema, b: StarSchema) -> bool:
    """Same dimension contents and same per-cell measures, ids ignored."""
    for dim in DIMENSIONS:
        rows_a = {r.natural_key: r.attributes for r in a.dimensions[dim].rows}
        rows_b = {r.natural_key: r.attributes for r in b.dimensions[dim].rows}
        if rows_a != rows_b:
            return False
    return fact_index(a) == fact_index(b)

"""Reference implementations the tests trust.

`oracle_aggregate` answers any aggregate query by one straight pass over
canonical records, written from first principles with no cube, no numpy,
and no shared helpers, so cube answers can be checked against it exactly.
The factories build already-cleaned record sets with a known address
hierarchy for property-style checks. `oracle_integrity` is check_integrity's
problem list, found one row at a time with a set of the key tuples seen.
`oracle_row_writer` renders fixed-position rows one at a time, checking each
kind of bad value in a pass of its own. `ScalarRng` is the generator's
xorshift64* stream stepped one draw at a time, and `oracle_persons` and
`oracle_copies` make the generated persons and duplicate copies from it one
record and one draw at a time; `oracle_planting` plants blanks and entry
discrepancies on wire rows one row at a time. `oracle_etl` is the fixed
four-step ETL one record at a time: each record cleaned, a dict of the best
record per key, each survivor lifted and projected. `oracle_ingest` reads a
source file one line or record at a time, each field decoded and unpadded on
its own, and maps it one row at a time by `oracle_record`.
"""

from __future__ import annotations

import csv
import io
import random
import struct

from jobcube.config import CITY_ORDER
from jobcube.datagen import (BLANKABLE_FIELDS, CITY_NAMES, CITY_PREFIX, DIRECTED_SHARE,
                             DISCREPANCY_FIELDS, DISTRICTS_PER_CONGRESS, EDUCATION_LEVELS,
                             JOB_GROUPS, MOAHELS, SPECIALTIES, VARIANT_POOLS)
from jobcube.datagen import SERVICES as SERVICES_GEN
from jobcube.errors import (DecodeError, FieldOverflow, InvalidFieldValue, JobcubeError,
                            MalformedCsv, RaggedRow, ShortLine, UnresolvedDimensionValue)
from jobcube.preprocess import ConceptHierarchy
from jobcube.records import (ALL_FIELDS, DIMENSIONS, QUARTERS, WAREHOUSE_REQUIRED_FIELDS,
                             CanonicalApplicant, derive_status, parse_int)
from jobcube.warehouse import DISPLAY_NAMES

EDU_LEVELS = ("edu1", "edu2", "edu3", "edu4", "edu5", "edu6")
SERVICES = ("svc1", "svc2", "svc3", "svc4")
SECTORS = ("", "SEC-A", "SEC-B", "SEC-C", "SEC-D", "SEC-E")

TREE = {
    "CityA": {"CGA1": ["DA11", "DA12"], "CGA2": ["DA21"]},
    "CityB": {"CGB1": ["DB11"], "CGB2": ["DB21", "DB22"]},
    "CityC": {"CGC1": ["DC11"]},
}
CITY_CONGRESSES = {
    "CityA": ("CGA1", "CGA2", "UNKNOWN"),
    "CityB": ("CGB1", "CGB2"),
    "CityC": ("CGC1", "UNKNOWN"),
}


def make_hierarchy() -> ConceptHierarchy:
    return ConceptHierarchy.from_tree(("district", "congress", "city"), TREE)


def congress_city_map(records) -> dict[str, str]:
    """congress -> city for every value the records use; unmapped values
    (like a fill constant) parent to themselves."""
    known = {}
    for city, congresses in TREE.items():
        for congress in congresses:
            known[congress] = city
    return {r.congress: known.get(r.congress, r.congress) for r in records}


def random_clean_records(seed: int, n: int,
                         year_from: int = 2000, year_to: int = 2006,
                         ) -> list[CanonicalApplicant]:
    """n post-cleaning records over the fixed three-city hierarchy."""
    rnd = random.Random(seed)
    cities = tuple(CITY_CONGRESSES)
    records = []
    for i in range(n):
        city = rnd.choice(cities)
        sector = rnd.choice(SECTORS)
        records.append(CanonicalApplicant(
            national_id=f"P{seed:04d}{i:06d}",
            congress=rnd.choice(CITY_CONGRESSES[city]),
            city=city,
            sector=sector,
            education_level=rnd.choice(EDU_LEVELS),
            service_status=rnd.choice(SERVICES),
            status=derive_status(sector),
            year=rnd.randint(year_from, year_to),
            quarter=rnd.choice(QUARTERS),
        ))
    return records


def record_label(record: CanonicalApplicant, dimension: str, level: str,
                 congress_city: dict[str, str]) -> str:
    if dimension == "time":
        if level == "year":
            return str(record.year)
        return f"{record.year}{record.quarter}"
    if dimension == "congress":
        if level == "city":
            return congress_city.get(record.congress, record.congress)
        return record.congress
    return {
        "city": record.city,
        "sector": record.sector,
        "edulevel": record.education_level,
        "service": record.service_status,
    }[dimension]


def measure_of(record: CanonicalApplicant, measure: str) -> int:
    if measure == "total":
        return 1
    if measure == "seekers":
        return 1 if record.status == "seeker" else 0
    if measure == "directed":
        return 1 if record.status == "directed" else 0
    raise ValueError(measure)


def oracle_aggregate(records, measure: str,
                     group_by: list[tuple[str, str]],
                     filters: list[tuple[str, str, tuple[str, ...]]],
                     congress_city: dict[str, str]) -> dict[tuple, int]:
    """Group labels -> measure sum. A group appears iff some record lands in
    it after filtering; with no grouping there is always exactly one group."""
    member_sets = [(dim, level, set(members)) for dim, level, members in filters]
    out: dict[tuple, int] = {} if group_by else {(): 0}
    for r in records:
        if any(record_label(r, dim, level, congress_city) not in members
               for dim, level, members in member_sets):
            continue
        key = tuple(record_label(r, dim, level, congress_city)
                    for dim, level in group_by)
        out[key] = out.get(key, 0) + measure_of(r, measure)
    return out


def oracle_facts(records, year_range: tuple[int, int]):
    """The fact table over records as `fact_index` keys it: natural keys ->
    (total, seekers, directed), counted one record at a time. The first record
    whose time falls outside year_range or whose status is neither seeker nor
    directed is returned instead, as the error loading it must raise."""
    lo, hi = year_range
    out: dict[tuple, tuple[int, int, int]] = {}
    for r in records:
        time = f"{r.year}{r.quarter}"
        if not (lo <= r.year <= hi and r.quarter in QUARTERS):
            return UnresolvedDimensionValue(
                f"Time: value {time!r} of record {r.national_id!r} not in dimension")
        if r.status not in ("seeker", "directed"):
            return InvalidFieldValue(f"record {r.national_id!r}: bad status {r.status!r}")
        key = (r.city, r.sector, r.education_level, r.congress, r.service_status, time)
        total, seekers, directed = out.get(key, (0, 0, 0))
        out[key] = (total + 1, seekers + (r.status == "seeker"),
                    directed + (r.status == "directed"))
    return out


def table_as_dict(table) -> dict[tuple, int]:
    """ResultTable rows -> {label tuple: value}."""
    return {tuple(row[:-1]): row[-1] for row in table.rows}


def oracle_fact_problems(schema) -> list[str]:
    """check_integrity's fact checks as a per-row loop: a row repeats a key
    tuple when an earlier row has it."""
    sizes = [len(schema.dimensions[dim]) for dim in DIMENSIONS]
    problems, seen = [], set()
    for row in schema.facts.tolist():
        key, (total, seekers, directed) = tuple(row[:6]), row[6:]
        for dim, sid, size in zip(DIMENSIONS, key, sizes):
            if not 1 <= sid <= size:
                problems.append(f"fact {key}: dangling {dim} id {sid}")
        if key in seen:
            problems.append(f"fact {key}: duplicate key tuple")
        seen.add(key)
        if min(total, seekers, directed) < 0:
            problems.append(f"fact {key}: negative measure")
        if total != seekers + directed:
            problems.append(f"fact {key}: total {total} != {seekers} + {directed}")
    return problems


def oracle_integrity(schema) -> list[str]:
    """Every problem check_integrity reports, in its order: each dimension's
    ids and keys, the time dimension's size, the facts, the manifest total."""
    problems = []
    for dim in DIMENSIONS:
        rows = schema.dimensions[dim].rows
        if [r.surrogate_id for r in rows] != list(range(1, len(rows) + 1)):
            problems.append(f"{DISPLAY_NAMES[dim]}: surrogate ids not dense 1..{len(rows)}")
        if len({r.natural_key for r in rows}) != len(rows):
            problems.append(f"{DISPLAY_NAMES[dim]}: duplicate natural keys")
    lo, hi = map(int, schema.meta["year_range"].split(":"))
    if len(schema.dimensions["time"]) != (hi - lo + 1) * 4:
        problems.append(f"Time: {len(schema.dimensions['time'])} rows, want {(hi - lo + 1) * 4}")
    problems += oracle_fact_problems(schema)
    if "records" in schema.meta:
        total = sum(row[6] for row in schema.facts.tolist())
        if total != int(schema.meta["records"]):
            problems.append(
                f"fact totals sum to {total}, manifest records={schema.meta['records']}")
    return problems


def oracle_row_writer(layout, where: str, head: str = "", tail: str = ""):
    """The fixed-position writer row by row: a length check on each rendered
    row, then a scan of the whole text for a line break (where `tail` ends a
    line), then an ASCII encode. A bad value is found again in its rendered
    row and named by its row and field; a row of the wrong arity raises the
    TypeError of `%`."""
    flags = {"C": "-", "N": "", "D": ""}
    fmt, end = head, 0
    for fd in layout:
        fmt += " " * (fd.offset - end) + f"%{flags[fd.kind]}{fd.length}s"
        end = fd.offset + fd.length
    fmt += tail
    width = len(fmt % (("",) * len(layout)))

    def field_at(line: str, pos: int):
        fd = next(fd for fd in layout if pos < len(head) + fd.offset + fd.length)
        start = len(head) + fd.offset
        text = line[start:start + fd.length]
        return fd, text.rstrip(" ") if fd.kind == "C" else text.strip(" ")

    def write(rows) -> bytes:
        out = []
        for i, values in enumerate(rows):
            out.append(fmt % tuple(values))
            if len(out[-1]) != width:
                fd, value = next((fd, value) for fd, value in zip(layout, values)
                                 if len(value) > fd.length)
                raise FieldOverflow(f"{where} {i}: {fd.name}={value!r} exceeds {fd.length} bytes")
        text = "".join(out)
        if "\n" in tail and text.count("\n") != len(out):
            i = next(i for i, line in enumerate(out) if "\n" in line[:-1])
            fd, value = field_at(out[i], out[i].index("\n"))
            raise InvalidFieldValue(f"{where} {i}: {fd.name}={value!r} holds a line break")
        try:
            return text.encode("ascii")
        except UnicodeEncodeError as exc:
            i, pos = divmod(exc.start, width)
            fd, value = field_at(out[i], pos)
            raise InvalidFieldValue(f"{where} {i}: {fd.name}={value!r} is not ASCII") from None

    return write


# ---------------------------------------------------------------------------
# The generator one draw at a time

MASK64 = (1 << 64) - 1


class ScalarRng:
    """xorshift64*, seeded via one splitmix64 scramble, stepped one draw at a
    time in pure integer math: the stream datagen.Rng serves from blocks."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        z = (seed + 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        self.state = z or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & MASK64

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, n: int, k: int) -> list[int]:
        idx = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]


def oracle_placement(rng, config, city_key: str) -> dict:
    """Where one application is filed: congress, district and sector draws
    in that order, with the fields that follow from them."""
    congress = f"{CITY_PREFIX[city_key]}-CG{rng.randrange(config.congresses_per_city) + 1:02d}"
    district = f"{congress}-D{rng.randrange(DISTRICTS_PER_CONGRESS) + 1:02d}"
    sector = (f"SEC-{rng.randrange(config.sectors) + 1:02d}"
              if rng.random() < DIRECTED_SHARE else "")
    return {"district": district, "congress": congress, "city": CITY_NAMES[city_key],
            "sector": sector, "status": derive_status(sector), "source_id": city_key}


def oracle_make_person(rng, config, city_key: str, ordinal: int) -> CanonicalApplicant:
    placement = oracle_placement(rng, config, city_key)
    return CanonicalApplicant(
        national_id=f"NID{ordinal:09d}",
        name=f"APPLICANT-{ordinal:07d}",
        sex=("male", "female")[rng.randrange(2)],
        specialty=f"SPC-{rng.randrange(SPECIALTIES) + 1:03d}",
        job_group=f"JG-{rng.randrange(JOB_GROUPS) + 1:02d}",
        moahel=f"QL-{rng.randrange(MOAHELS) + 1:02d}",
        education_level=EDUCATION_LEVELS[rng.randrange(len(EDUCATION_LEVELS))],
        service_status=SERVICES_GEN[rng.randrange(len(SERVICES_GEN))],
        year=config.year_from + rng.randrange(config.year_to - config.year_from + 1),
        quarter=QUARTERS[rng.randrange(4)],
        **placement,
    )


def oracle_persons(rng, config, counts: dict[str, int]) -> list[CanonicalApplicant]:
    """Each city's persons in city order, one person and one draw at a time."""
    persons = []
    for city_key in CITY_ORDER:
        for _ in range(counts[city_key]):
            persons.append(oracle_make_person(rng, config, city_key, len(persons) + 1))
    return persons


def oracle_copies(rng, config, eligible, count: int) -> list[tuple]:
    """(donor, copy) pairs one copy at a time: donor, copy city, placement,
    specialty and job group, the copy filed one quarter before its donor."""
    pairs = []
    for _ in range(count):
        donor = eligible[rng.randrange(len(eligible))]
        others = [c for c in CITY_ORDER if c != donor.source_id]
        placement = oracle_placement(rng, config, others[rng.randrange(2)])
        qi = QUARTERS.index(donor.quarter)
        year, quarter = (donor.year, QUARTERS[qi - 1]) if qi else (donor.year - 1, QUARTERS[3])
        pairs.append((donor, donor._replace(
            specialty=f"SPC-{rng.randrange(SPECIALTIES) + 1:03d}",
            job_group=f"JG-{rng.randrange(JOB_GROUPS) + 1:02d}",
            year=year, quarter=quarter, **placement)))
    return pairs


def oracle_planting(rng, config, flat) -> tuple[list, list, dict]:
    """Blanks, discrepancies and overlays as the generator plants them, one row
    and one draw at a time: a blank's field, then each discrepancy's field
    among those its row's blank spares and its variant among the value's."""
    blanks, discrepancies, overlays = [], [], {}
    for row in rng.sample(len(flat), int(config.blank_rate * len(flat))):
        name = BLANKABLE_FIELDS[rng.randrange(len(BLANKABLE_FIELDS))]
        overlays[row] = {name: ""}
        blanks.append((flat[row].source_id, flat[row].national_id, name))
    for row in rng.sample(len(flat), int(config.discrepancy_rate * len(flat))):
        record, overlay = flat[row], overlays.setdefault(row, {})
        candidates = [name for name in DISCREPANCY_FIELDS if name not in overlay]
        name = candidates[rng.randrange(len(candidates))]
        pool = VARIANT_POOLS[record.source_id][name][getattr(record, name)]
        overlay[name] = pool[rng.randrange(len(pool))]
        discrepancies.append((record.source_id, record.national_id, name, overlay[name]))
    return blanks, discrepancies, overlays


def oracle_etl(records, codebooks, policy, hierarchy, district_fill):
    """run_pipeline's clean records and counters, one record at a time: the
    counters as (duplicates_removed, values_filled, values_normalized,
    values_unmatched, records_generalized, unknown_hierarchy_values, rejected)."""
    books = {}
    for name, book in codebooks.items():
        for variant, canonical in book.items():
            for key in (variant, canonical):
                books.setdefault(name, {})[key.strip().casefold()] = canonical
    filled, normalized, unmatched = {}, {}, 0
    cleaned = []
    for r in records:
        values = r._asdict()
        for name in sorted(books.keys() | policy.fill_constants.keys()):
            value = values[name]
            if name in books and value != "":
                canonical = books[name].get(value.strip().casefold())
                if canonical is None:
                    unmatched += 1
                elif canonical != value:
                    normalized[name] = normalized.get(name, 0) + 1
                    value = canonical
            if name in policy.fill_constants and value.strip() == "":
                filled[name] = filled.get(name, 0) + 1
                value = policy.fill_constants[name]
            values[name] = value
        cleaned.append(CanonicalApplicant(**values))

    sign = -1 if policy.keep_rule == "latest_application" else 1
    quarter_rank = {q: i for i, q in enumerate(QUARTERS, 1)}
    best, rejected = {}, []
    for r in cleaned:
        key = r.national_id.strip()
        if not key:
            rejected.append(r)
            continue
        rank = (sign * r.year, sign * quarter_rank.get(r.quarter, 0), r.city, r.source_id, r)
        if key not in best or rank < best[key][0]:
            best[key] = (rank, r)
    ancestors = hierarchy.ancestors("district", "congress")
    generalized = unknown = 0
    out = []
    for key in sorted(best):
        r = best[key][1]
        if r.district in ancestors:
            generalized += 1
            r = r._replace(congress=ancestors[r.district])
        else:
            unknown += 1
            r = r._replace(congress=district_fill)
        out.append(CanonicalApplicant(**{
            name: getattr(r, name) if name in WAREHOUSE_REQUIRED_FIELDS
            else 0 if name == "year" else "" for name in ALL_FIELDS}))
    kept = len(cleaned) - len(rejected)
    return out, (kept - len(out), filled, normalized, unmatched, generalized, unknown, rejected)


def oracle_source_rows(spec, data: bytes, layout=()) -> tuple[tuple, list, int]:
    """A source's column names, its rows one at a time and its deleted dBASE
    records. A row csv cannot read is its reason text. A fixed-width line is
    checked for length, then each field is decoded and unpadded on its own; a
    dBASE file is read by the header facts of `layout`, its fields back to
    back behind a flag byte, and a live record named by its place among all."""
    sid, encoding = spec.source_id, spec.encoding
    if spec.format == "delimited":
        try:
            text = data.decode(encoding)
        except UnicodeDecodeError as exc:
            raise DecodeError(f"{sid}: {exc}") from None
        reader = csv.reader(io.StringIO(text), delimiter=spec.delimiter)
        rows = []
        while True:
            try:
                rows.append(next(reader))
            except StopIteration:
                break
            except csv.Error as exc:
                rows.append(f"{sid}: line {reader.line_num}: {exc}")
        if not rows:
            return (), [], 0
        if isinstance(rows[0], str):
            raise MalformedCsv(rows[0])
        names = tuple(rows.pop(0))
        for row_no, row in enumerate(rows, start=2):
            if not isinstance(row, str) and len(row) != len(names):
                raise RaggedRow(f"{sid}: row {row_no}: {len(row)} fields, expected {len(names)}")
        return names, rows, 0

    if spec.format == "fixed_width":
        fields, where = spec.layout, "line"
        extent = fields[-1].offset + fields[-1].length
        records = list(enumerate(data.removesuffix(b"\n").split(b"\n") if data else [], 1))
        deleted = 0
    else:
        fields, where, offset = [], "record", 0
        for fd in layout:
            fields.append(type(fd)(fd.name, fd.kind, fd.length, offset))
            offset += fd.length
        extent = 0
        count = struct.unpack_from("<I", data, 4)[0]
        start, size = 32 + 32 * len(fields) + 1, 1 + offset
        flags = data[start:start + count * size:size]
        deleted = flags.count(0x2A)
        records = [(i + 1, data[start + i * size + 1:start + (i + 1) * size])
                   for i in range(count) if flags[i] != 0x2A]
    rows = []
    for row_no, record in records:
        if len(record) < extent:
            raise ShortLine(f"{sid}: line {row_no}: {len(record)} bytes, layout needs {extent}")
        row = []
        for fd in fields:
            try:
                text = record[fd.offset:fd.offset + fd.length].decode(encoding)
            except UnicodeDecodeError as exc:
                raise DecodeError(f"{sid}: {where} {row_no}: field {fd.name!r}: {exc}") from None
            row.append(text.rstrip(" ") if fd.kind == "C" else text.strip(" "))
        rows.append(row)
    return tuple(fd.name for fd in fields), rows, deleted


def oracle_record(values: dict[str, str], spec, untranslatable: dict[str, int]):
    """One row, as {column name: text}, mapped to its record, or to the text
    of why it is rejected: each code looked up, an untranslated one counted
    in untranslatable, then the year and the quarter checked."""
    picked: dict[str, str] = {}
    for canonical, wire in spec.field_map.items():
        if wire not in values:
            return f"{spec.source_id}: row lacks field {wire!r} (for {canonical})"
        picked[canonical] = values[wire]

    for name, book in spec.value_codebooks.items():
        raw = picked.get(name, "")
        if raw == "":
            continue
        if raw in book:
            picked[name] = book[raw]
        else:
            untranslatable[name] = untranslatable.get(name, 0) + 1

    year_text = picked.pop("year", "").strip()
    try:
        year = parse_int(year_text)
    except ValueError:
        return f"{spec.source_id}: bad year {year_text!r}"
    if picked.get("quarter", "").strip() == "":
        return f"{spec.source_id}: empty quarter"
    return CanonicalApplicant(**picked, city=spec.city, source_id=spec.source_id,
                              status=derive_status(picked.get("sector", "")), year=year)


def oracle_ingest(spec, data: bytes, layout=()):
    """One source ingested a row at a time: (records, rejects as (source id,
    row number, reason), (read, ok, rejected, deleted), untranslatable counts
    as (field, count) in the order the fields were first counted), or (error
    class, text) for a file that cannot be read."""
    try:
        names, rows, deleted = oracle_source_rows(spec, data, layout)
    except JobcubeError as exc:
        return type(exc), str(exc)
    records, rejects, untranslatable = [], [], {}
    for row_no, row in enumerate(rows, start=1):
        out = row if isinstance(row, str) else oracle_record(dict(zip(names, row)), spec,
                                                             untranslatable)
        if isinstance(out, str):
            rejects.append((spec.source_id, row_no, out))
        else:
            records.append(out)
    return (records, rejects, (len(rows), len(records), len(rejects), deleted),
            list(untranslatable.items()))

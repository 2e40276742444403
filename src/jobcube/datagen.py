"""Synthetic three-city source generator.

Emits one fixed-width file, one delimited export, and one dBASE III table,
together with the ground-truth record set the pipeline should reconstruct
and a manifest of every planted corruption (cross-city duplicate
applications, blanked fields, variant code spellings).

Each city is described once, by its entry in `CITY_SPECS`, the SourceSpec
that `sources.yaml` carries to ingest. A city's file is written row by row:
`sources.row_mapper`, the inverse of ingest's `record_mapper`, turns each
record into a row in the file's column order, and this module adds only what
is its own: the planted corruption laid over the record, and Sirte's APPDATE,
the one column no mapping reads. The bytes come from the `sources` writers,
the partners of the readers ingest uses.

Determinism: a pinned xorshift64* generator seeded through one splitmix64
step. State update x ^= x>>12; x ^= x<<25; x ^= x>>27; output is
x * 0x2545F4914F6CDD1D mod 2**64. Same seed, same bytes, any platform.

Planted corruption is bookkept so downstream cleaning counters are exactly
predictable: duplicate copies always lose the keep-latest rule (they are
planted one quarter before their donor), blanks hit only fillable fields,
and variant spellings always differ from the canonical value after trimming.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .config import (CITY_ORDER, CODEBOOKS_FILE, DEFAULT_FILL, HIERARCHY_FILE, SOURCES_FILE,
                     GenConfig)
from .errors import UnsatisfiableSize
from .preprocess import dimension_reduce
from .records import (
    QUARTERS,
    WAREHOUSE_REQUIRED_FIELDS,
    CanonicalApplicant,
    derive_status,
    quarter_index,
    replacing,
    write_records_csv,
)
from .sources import (
    FieldDescriptor,
    SourceSpec,
    render_dbf,
    render_delimited,
    render_fixed_width,
    row_mapper,
)

MASK64 = (1 << 64) - 1

EDUCATION_LEVELS = ("primary", "preparatory", "secondary",
                    "diploma", "university", "postgraduate")
SERVICES = ("completed", "exempt", "deferred", "pending")

# The population shape no config sets: districts per congress, the share of
# applications directed to a sector, and three code-table sizes.
DISTRICTS_PER_CONGRESS = 3
DIRECTED_SHARE = 0.5
SPECIALTIES = 40
JOB_GROUPS = 9
MOAHELS = 8

TRUTH_FILE = "truth.csv"
GEN_MANIFEST_FILE = "gen_manifest.txt"


class Rng:
    """xorshift64*, seeded via one splitmix64 scramble. Pure integer math."""

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
        """k distinct indices from range(n), order rng-determined."""
        idx = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]


# ---------------------------------------------------------------------------
# City catalog: one source spec per city, and the dBASE file's own layout

CITY_PREFIX = {"tripoli": "TRI", "misurata": "MIS", "sirte": "SIR"}

_QTR_BY_INDEX = {str(i + 1): q for i, q in enumerate(QUARTERS)}

CITY_SPECS = (
    SourceSpec(
        "tripoli", "Tripoli", "fixed_width", "tripoli.dat",
        field_map={
            "national_id": "ID_NO", "name": "FULL_NAME", "sex": "SEX",
            "district": "DISTRICT", "specialty": "SPECIALTY", "job_group": "JOB_GROUP",
            "sector": "SECTOR", "moahel": "MOAHEL", "education_level": "EDU_LEVEL",
            "service_status": "SVC_STATUS", "year": "APP_YEAR", "quarter": "APP_QTR",
        },
        layout=(
            FieldDescriptor("ID_NO", "C", 12, 0),
            FieldDescriptor("FULL_NAME", "C", 20, 12),
            FieldDescriptor("SEX", "C", 6, 32),
            FieldDescriptor("DISTRICT", "C", 14, 38),
            FieldDescriptor("SPECIALTY", "C", 8, 52),
            FieldDescriptor("JOB_GROUP", "C", 6, 60),
            FieldDescriptor("SECTOR", "C", 8, 66),
            FieldDescriptor("MOAHEL", "C", 6, 74),
            FieldDescriptor("EDU_LEVEL", "C", 12, 80),
            FieldDescriptor("SVC_STATUS", "C", 10, 92),
            FieldDescriptor("APP_YEAR", "N", 4, 102),
            FieldDescriptor("APP_QTR", "C", 2, 106),
        ),
    ),
    SourceSpec(
        "misurata", "Misurata", "delimited", "misurata.csv",
        field_map={
            "national_id": "nid", "name": "full_name", "sex": "sex",
            "district": "district", "congress": "mothamer", "specialty": "specialty",
            "job_group": "job_group", "sector": "sector", "moahel": "moahel",
            "education_level": "edu_level", "service_status": "svc_status",
            "year": "app_year", "quarter": "app_qtr",
        },
        value_codebooks={
            "sex": {"1": "male", "2": "female"},
            "education_level": {str(i + 1): v for i, v in enumerate(EDUCATION_LEVELS)},
            "service_status": {str(i + 1): v for i, v in enumerate(SERVICES)},
            "quarter": dict(_QTR_BY_INDEX),
        },
        encoding="utf-8",
    ),
    SourceSpec(
        "sirte", "Sirte", "dbf", "sirte.dbf",
        field_map={
            "national_id": "NID", "name": "NAME", "sex": "SEX",
            "district": "DISTRICT", "specialty": "SPEC", "job_group": "JOBGRP",
            "sector": "SECTOR", "moahel": "MOAHEL", "education_level": "EDULVL",
            "service_status": "SERVICE", "year": "YEAR", "quarter": "QTR",
        },
        value_codebooks={
            "sex": {"M": "male", "F": "female"},
            "education_level": {f"E{i + 1}": v for i, v in enumerate(EDUCATION_LEVELS)},
            "service_status": {f"S{i + 1}": v for i, v in enumerate(SERVICES)},
            "quarter": dict(_QTR_BY_INDEX),
        },
    ),
)
CITY_NAMES = {spec.source_id: spec.city for spec in CITY_SPECS}

# A dBASE file describes itself, so its spec has no layout; the writer's is here.
SIRTE_LAYOUT = (
    FieldDescriptor("NID", "C", 12, 0),
    FieldDescriptor("NAME", "C", 20, 12),
    FieldDescriptor("SEX", "C", 1, 32),
    FieldDescriptor("DISTRICT", "C", 14, 33),
    FieldDescriptor("SPEC", "C", 8, 47),
    FieldDescriptor("JOBGRP", "C", 6, 55),
    FieldDescriptor("SECTOR", "C", 8, 61),
    FieldDescriptor("MOAHEL", "C", 6, 69),
    FieldDescriptor("EDULVL", "C", 2, 75),
    FieldDescriptor("SERVICE", "C", 2, 77),
    FieldDescriptor("YEAR", "N", 4, 79),
    FieldDescriptor("QTR", "N", 1, 83),
    FieldDescriptor("APPDATE", "D", 8, 84),
)

# Variant spellings plantable as entry discrepancies, keyed by canonical
# value, constrained to each source's field widths. All of them differ from
# the canonical value even after trimming, and none collides with the codes a
# source's ingest codebook translates, so exactly one normalization rewrite
# happens per planted variant.
_WORD_VARIANTS = {
    "sex": {"male": ("MALE", "Male"), "female": ("FEMALE", "Female")},
    "education_level": {
        "primary": ("PRIMARY", "Primary"),
        "preparatory": ("PREPARATORY", "Prep"),
        "secondary": ("SECONDARY", "Sec"),
        "diploma": ("DIPLOMA", "Dipl"),
        "university": ("UNIVERSITY", "Univ"),
        "postgraduate": ("POSTGRADUATE", "PostGrad"),
    },
    "service_status": {
        "completed": ("COMPLETED", "Complete"),
        "exempt": ("EXEMPT", "Exempted"),
        "deferred": ("DEFERRED", "Defer"),
        "pending": ("PENDING", "Pend"),
    },
}
_SIRTE_VARIANTS = {
    "sex": {"male": ("m",), "female": ("f",)},
    "education_level": {level: (f"e{i + 1}",) for i, level in enumerate(EDUCATION_LEVELS)},
    "service_status": {svc: (f"s{i + 1}",) for i, svc in enumerate(SERVICES)},
}
VARIANT_POOLS = {"tripoli": _WORD_VARIANTS, "misurata": _WORD_VARIANTS,
                 "sirte": _SIRTE_VARIANTS}

BLANKABLE_FIELDS = ("district", "job_group", "moahel", "name", "sex", "specialty")
DISCREPANCY_FIELDS = ("education_level", "service_status", "sex")


def normalize_codebooks() -> dict[str, dict[str, str]]:
    """The variant-to-canonical books the cleaning stage needs, i.e. the union
    of every plantable spelling."""
    books: dict[str, dict[str, str]] = {}
    for pools in VARIANT_POOLS.values():
        for field_name, by_canonical in pools.items():
            book = books.setdefault(field_name, {})
            for canonical, variants in by_canonical.items():
                for v in variants:
                    book[v] = canonical
    return {name: dict(sorted(book.items())) for name, book in sorted(books.items())}


def build_hierarchy_tree(config: GenConfig) -> dict:
    """{city: {congress: [districts]}} covering every generated address."""
    tree: dict = {}
    for city_key in CITY_ORDER:
        prefix = CITY_PREFIX[city_key]
        congresses = {}
        for i in range(1, config.congresses_per_city + 1):
            cg = f"{prefix}-CG{i:02d}"
            congresses[cg] = [f"{cg}-D{j:02d}"
                              for j in range(1, DISTRICTS_PER_CONGRESS + 1)]
        tree[CITY_NAMES[city_key]] = congresses
    return tree


# ---------------------------------------------------------------------------
# Wire rows and sizing

_QTR_MONTH = {"Q1": "02", "Q2": "05", "Q3": "08", "Q4": "11"}


def _columns(spec: SourceSpec) -> tuple[str, ...]:
    """A city file's column names, in file order."""
    if spec.format == "delimited":
        return tuple(spec.field_map.values())
    return tuple(fd.name for fd in (SIRTE_LAYOUT if spec.format == "dbf" else spec.layout))


def _wire_rows(spec: SourceSpec, entries: list) -> list[list[str]]:
    """Each record as a row of the city's file, with its planted corruption
    laid over it, so that ingest maps it straight back. No planted value is
    one the codebooks translate, so they pass through them as they stand."""
    columns = _columns(spec)
    to_row = row_mapper(spec, columns)
    rows = [to_row(record._replace(**overlay) if overlay else record)
            for record, _, overlay in entries]
    if spec.format == "dbf":    # the one column no mapping reads
        appdate = columns.index("APPDATE")
        for row, (record, _, _) in zip(rows, entries):
            row[appdate] = f"{record.year}{_QTR_MONTH[record.quarter]}15"
    return rows


def _misurata_row_width() -> float:
    widths = {
        "nid": 12, "full_name": 17, "sex": 1, "district": 12, "mothamer": 8,
        "specialty": 7, "job_group": 5, "sector": 6 * DIRECTED_SHARE,
        "moahel": 5, "edu_level": 1, "svc_status": 1, "app_year": 4, "app_qtr": 1,
    }
    return sum(widths.values()) + len(widths)   # a delimiter after each value, or a newline


def _render(config: GenConfig, spec: SourceSpec, rows: Sequence[Sequence[str]]) -> bytes:
    """A city's file: its wire rows in the spec's format."""
    if spec.format == "fixed_width":
        return render_fixed_width(rows, spec.layout)
    if spec.format == "delimited":
        return render_delimited(rows, _columns(spec), spec.delimiter)
    return render_dbf(rows, SIRTE_LAYOUT, (max(0, config.year_to - 1900) & 0xFF, 12, 28))


def _persons_from_targets(config: GenConfig) -> dict[str, int]:
    """Back out person counts from byte targets, correcting for the extra
    rows duplicate copies will add to each file."""
    base: dict[str, float] = {}
    for spec in CITY_SPECS:
        target = config.target_bytes[spec.source_id]
        # the writer's own framing; a delimited row's width is an estimate
        overhead = len(_render(config, spec, []))
        width = (_misurata_row_width() if spec.format == "delimited"
                 else len(_render(config, spec, [("",) * len(_columns(spec))])) - overhead)
        if target < overhead + width:
            raise UnsatisfiableSize(
                f"{spec.source_id}: {target} bytes cannot hold one {width:.0f}-byte record")
        base[spec.source_id] = (target - overhead) / width
    counts: dict[str, int] = {}
    total = sum(base.values())
    for city_key in CITY_ORDER:
        # copies into this city come from donors elsewhere, half odds each
        copies_in = config.duplicate_rate * (total - base[city_key]) / 2.0
        counts[city_key] = max(1, round(base[city_key] - copies_in))
    return counts


# ---------------------------------------------------------------------------
# Generation


@dataclass
class GenExpectations:
    """What the cleaning stage must report when run over the emitted files."""

    persons: int = 0
    wire_rows: int = 0
    duplicates: int = 0
    filled: dict[str, int] = field(default_factory=dict)
    normalized: dict[str, int] = field(default_factory=dict)
    unknown_hierarchy: int = 0
    generalized: int = 0


@dataclass
class GenResult:
    out_dir: Path
    truth: list[CanonicalApplicant]
    files: dict[str, Path]
    expect: GenExpectations
    duplicates: list[tuple[str, str, str, str]]     # nid, donor city, copy city, copy time
    blanks: list[tuple[str, str, str]]              # city, nid, field
    discrepancies: list[tuple[str, str, str, str]]  # city, nid, field, planted value


def _previous_quarter(year: int, quarter: str) -> tuple[int, str]:
    qi = quarter_index(quarter)
    if qi > 1:
        return year, QUARTERS[qi - 2]
    return year - 1, QUARTERS[3]


def _placement(rng: Rng, config: GenConfig, city_key: str) -> dict:
    """Where one application is filed: congress, district and sector draws
    in that order, with the fields that follow from them."""
    congress = f"{CITY_PREFIX[city_key]}-CG{rng.randrange(config.congresses_per_city) + 1:02d}"
    district = f"{congress}-D{rng.randrange(DISTRICTS_PER_CONGRESS) + 1:02d}"
    sector = (f"SEC-{rng.randrange(config.sectors) + 1:02d}"
              if rng.random() < DIRECTED_SHARE else "")
    return {"district": district, "congress": congress, "city": CITY_NAMES[city_key],
            "sector": sector, "status": derive_status(sector), "source_id": city_key}


def _make_person(rng: Rng, config: GenConfig, city_key: str, ordinal: int,
                 ) -> CanonicalApplicant:
    placement = _placement(rng, config, city_key)
    return CanonicalApplicant(
        national_id=f"NID{ordinal:09d}",
        name=f"APPLICANT-{ordinal:07d}",
        sex=("male", "female")[rng.randrange(2)],
        specialty=f"SPC-{rng.randrange(SPECIALTIES) + 1:03d}",
        job_group=f"JG-{rng.randrange(JOB_GROUPS) + 1:02d}",
        moahel=f"QL-{rng.randrange(MOAHELS) + 1:02d}",
        education_level=EDUCATION_LEVELS[rng.randrange(len(EDUCATION_LEVELS))],
        service_status=SERVICES[rng.randrange(len(SERVICES))],
        year=config.year_from + rng.randrange(config.year_to - config.year_from + 1),
        quarter=QUARTERS[rng.randrange(4)],
        **placement,
    )


def _make_copy(rng: Rng, config: GenConfig, donor: CanonicalApplicant,
               copy_city: str) -> CanonicalApplicant:
    """The same applicant filed in another city, strictly one quarter before
    the donor application so the keep-latest rule always removes the copy."""
    placement = _placement(rng, config, copy_city)
    year, quarter = _previous_quarter(donor.year, donor.quarter)
    return donor._replace(
        specialty=f"SPC-{rng.randrange(SPECIALTIES) + 1:03d}",
        job_group=f"JG-{rng.randrange(JOB_GROUPS) + 1:02d}",
        year=year,
        quarter=quarter,
        **placement,
    )


def generate(config: GenConfig, out_dir: str | Path) -> GenResult:
    """Emit the three source files plus truth set, sidecar configs, and the
    planted-corruption manifest. Byte-deterministic for a given config."""
    out = Path(out_dir)
    rng = Rng(config.seed)

    if config.target_bytes is not None:
        counts = _persons_from_targets(config)
    elif config.counts is not None:
        counts = dict(config.counts)
    else:
        counts = {"tripoli": 900, "misurata": 600, "sirte": 300}

    # Persons, one rng stream, fixed city order.
    persons: list[CanonicalApplicant] = []
    ordinal = 0
    for city_key in CITY_ORDER:
        for _ in range(counts[city_key]):
            ordinal += 1
            persons.append(_make_person(rng, config, city_key, ordinal))
    total_persons = len(persons)

    # Cross-city duplicate applications; copies always predate their donor.
    n_copies = int(config.duplicate_rate * total_persons)
    eligible = [p for p in persons
                if (p.year, quarter_index(p.quarter)) > (config.year_from, 1)]
    if not eligible:
        n_copies = 0
    duplicates: list[tuple[str, str, str, str]] = []
    wire: dict[str, list] = {c: [] for c in CITY_ORDER}
    for p in persons:
        wire[p.source_id].append([p, True])         # [record, is_person_row]
    for _ in range(n_copies):
        donor = eligible[rng.randrange(len(eligible))]
        others = [c for c in CITY_ORDER if c != donor.source_id]
        copy_city = others[rng.randrange(2)]
        copy = _make_copy(rng, config, donor, copy_city)
        wire[copy_city].append([copy, False])
        duplicates.append((donor.national_id, donor.source_id, copy_city,
                           f"{copy.year}{copy.quarter}"))

    for city_key in CITY_ORDER:
        rng.shuffle(wire[city_key])
    flat: list[list] = [entry for city_key in CITY_ORDER for entry in wire[city_key]]
    for entry in flat:
        entry.append({})    # corruption overlay: canonical field -> wire value

    expect = GenExpectations(persons=total_persons, wire_rows=len(flat),
                             duplicates=len(duplicates))

    # Blanks: at most one per row, only on fillable fields.
    n_blanks = int(config.blank_rate * len(flat))
    blank_rows = rng.sample(len(flat), n_blanks)
    blanks: list[tuple[str, str, str]] = []
    blanked_district_persons: set[str] = set()
    for row_idx in blank_rows:
        record, is_person, overlay = flat[row_idx]
        field_name = BLANKABLE_FIELDS[rng.randrange(len(BLANKABLE_FIELDS))]
        overlay[field_name] = ""
        expect.filled[field_name] = expect.filled.get(field_name, 0) + 1
        blanks.append((record.source_id, record.national_id, field_name))
        if field_name == "district" and is_person:
            blanked_district_persons.add(record.national_id)

    # Entry discrepancies: variant spellings that normalization must rewrite.
    n_disc = int(config.discrepancy_rate * len(flat))
    disc_rows = rng.sample(len(flat), n_disc)
    discrepancies: list[tuple[str, str, str, str]] = []
    for row_idx in disc_rows:
        record, _, overlay = flat[row_idx]
        candidates = [f for f in DISCREPANCY_FIELDS if f not in overlay]
        field_name = candidates[rng.randrange(len(candidates))]
        pool = VARIANT_POOLS[record.source_id][field_name][getattr(record, field_name)]
        variant = pool[rng.randrange(len(pool))]
        overlay[field_name] = variant
        expect.normalized[field_name] = expect.normalized.get(field_name, 0) + 1
        discrepancies.append((record.source_id, record.national_id,
                              field_name, variant))

    expect.unknown_hierarchy = len(blanked_district_persons)
    expect.generalized = total_persons - expect.unknown_hierarchy
    expect.filled = dict(sorted(expect.filled.items()))
    expect.normalized = dict(sorted(expect.normalized.items()))

    # Truth: what the pipeline should hand the warehouse, sorted by key.
    truth = dimension_reduce(
        (p._replace(congress=DEFAULT_FILL) if p.national_id in blanked_district_persons else p
         for p in persons), WAREHOUSE_REQUIRED_FIELDS)
    truth.sort(key=lambda r: r.national_id)

    files = _write_outputs(config, out, wire, truth)
    _write_gen_manifest(out / GEN_MANIFEST_FILE, config, expect, files,
                        duplicates, blanks, discrepancies)
    files["gen_manifest"] = out / GEN_MANIFEST_FILE
    return GenResult(out, truth, files, expect, duplicates, blanks, discrepancies)


def _write_outputs(config: GenConfig, out: Path, wire: dict[str, list],
                   truth: list[CanonicalApplicant]) -> dict[str, Path]:
    import yaml

    files: dict[str, Path] = {}
    specs = []
    for spec in CITY_SPECS:
        path = out / spec.path
        with replacing(path, binary=True) as fh:
            fh.write(_render(config, spec, _wire_rows(spec, wire[spec.source_id])))
        files[spec.source_id] = path

        entry: dict = {
            "source_id": spec.source_id, "city": spec.city, "format": spec.format,
            "path": spec.path, "encoding": spec.encoding,
            "field_map": dict(spec.field_map),
        }
        if spec.value_codebooks:
            entry["value_codebooks"] = {k: dict(v) for k, v in spec.value_codebooks.items()}
        if spec.format == "delimited":
            entry["delimiter"] = spec.delimiter
        if spec.layout:
            entry["layout"] = [
                {"name": fd.name, "kind": fd.kind, "length": fd.length,
                 "offset": fd.offset} for fd in spec.layout]
        specs.append(entry)

    files["truth"] = out / TRUTH_FILE
    write_records_csv(truth, files["truth"])
    hierarchy = {"levels": ["district", "congress", "city"],
                 "tree": build_hierarchy_tree(config)}
    for key, name, document in (("sources", SOURCES_FILE, {"sources": specs}),
                                ("hierarchy", HIERARCHY_FILE, hierarchy),
                                ("codebooks", CODEBOOKS_FILE, normalize_codebooks())):
        with replacing(out / name) as fh:
            yaml.safe_dump(document, fh, sort_keys=True)
        files[key] = out / name
    return files


def _write_gen_manifest(path: Path, config: GenConfig, expect: GenExpectations,
                        files: dict[str, Path],
                        duplicates: list, blanks: list, discrepancies: list) -> None:
    lines = [
        f"seed={config.seed}",
        f"persons={expect.persons}",
        f"wire_rows={expect.wire_rows}",
        f"duplicates_planted={expect.duplicates}",
        f"blanks_planted={sum(expect.filled.values())}",
        f"discrepancies_planted={sum(expect.normalized.values())}",
        f"expected_duplicates_removed={expect.duplicates}",
        f"expected_unknown_hierarchy={expect.unknown_hierarchy}",
        f"expected_generalized={expect.generalized}",
        "expected_unmatched=0",
    ]
    for field_name, count in expect.filled.items():
        lines.append(f"expected_filled.{field_name}={count}")
    for field_name, count in expect.normalized.items():
        lines.append(f"expected_normalized.{field_name}={count}")
    for city_key in CITY_ORDER:
        lines.append(f"bytes.{city_key}={files[city_key].stat().st_size}")
    lines.append("[duplicates]")
    lines.extend(f"{nid} donor={dc} copy={cc} copy_time={ct}"
                 for nid, dc, cc, ct in duplicates)
    lines.append("[blanks]")
    lines.extend(f"{nid} city={city} field={field_name}"
                 for city, nid, field_name in blanks)
    lines.append("[discrepancies]")
    lines.extend(f"{nid} city={city} field={field_name} value={value}"
                 for city, nid, field_name, value in discrepancies)
    with replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_gen_manifest(path: str | Path) -> dict:
    """Scalar and per-field expectations from a generation manifest."""
    out: dict = {"expected_filled": {}, "expected_normalized": {}, "bytes": {}}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("[") or "=" not in line or " " in line.split("=", 1)[0]:
            continue
        key, _, value = line.partition("=")
        if key.startswith("expected_filled."):
            out["expected_filled"][key.split(".", 1)[1]] = int(value)
        elif key.startswith("expected_normalized."):
            out["expected_normalized"][key.split(".", 1)[1]] = int(value)
        elif key.startswith("bytes."):
            out["bytes"][key.split(".", 1)[1]] = int(value)
        elif value.lstrip("-").isdigit():
            out[key] = int(value)
        else:
            out[key] = value
    return out

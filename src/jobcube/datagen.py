"""Synthetic three-city source generator.

Emits one fixed-width file, one delimited export, and one dBASE III table,
together with the ground-truth record set the pipeline should reconstruct
and a manifest of every planted corruption (cross-city duplicate
applications, blanked fields, variant code spellings).

Each city is described once, by its entry in `SOURCE_CATALOG`, the document
gen dumps as `sources.yaml`; `CITY_SPECS` is that document read by
`config.source_specs`, the reader ingest's `load_sources` uses, so gen writes
no catalog that ingest reads differently.

Gen holds its table as columns from the draw to the file, one list per
`ALL_FIELDS` name as ingest's column mapper `record_mapper` returns them:
persons drawn, copies gathered from their donor rows, each city's rows shuffled
as an index list, the corruption written into the columns. Its inverse
`sources.row_mapper` turns a city's columns into rows in the file's column
order, for the `sources` writers, the partners of the readers ingest uses. The
truth is the person columns projected onto the warehouse fields, already in
`national_id` order, written by `records.write_columns` as staging.csv is.

Determinism: one pinned xorshift64* stream seeded through one splitmix64
step. State update x ^= x>>12; x ^= x<<25; x ^= x>>27; output is
x * 0x2545F4914F6CDD1D mod 2**64. The step is linear over GF(2), so `Rng`
draws the stream in numpy blocks: lanes start at their places through a
jump-ahead matrix and step side by side, giving the draws of the one stream
in its order. Every operation is exact uint64 math, so the same seed gives
the same bytes on any platform and numpy version. `Rng.randranges` is the one
rule for a draw below n, and the only code that passes over a rejected draw.
Persons and copies are built by column from a block of draws; a record with a
draw that some column might reject is drawn through `randranges` instead (see
`_draw_tables`). The corruption is planted by column too (see `_plant`).

Planted corruption is bookkept so downstream cleaning counters are exactly
predictable: duplicate copies always lose the keep-latest rule (they are
planted one quarter before their donor), blanks hit only fillable fields,
and variant spellings always differ from the canonical value after trimming.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import (CITY_ORDER, CODEBOOKS_FILE, DEFAULT_FILL, HIERARCHY_FILE, SOURCES_FILE,
                     GenConfig, source_specs)
from .errors import ConfigError, InvalidFieldValue, UnsatisfiableSize
from .records import (ALL_FIELDS, QUARTERS, STATUS_DIRECTED, STATUS_SEEKER,
                      WAREHOUSE_REQUIRED_FIELDS, CanonicalApplicant, bulk, parse_int,
                      read_records_csv, replacing, write_columns)
from .sources import (FieldDescriptor, SourceSpec, render_dbf, render_delimited,
                      render_fixed_width, row_mapper)

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
    """xorshift64*, seeded via one splitmix64 scramble, served from blocks.

    A block is LANES * STEPS consecutive states of the one stream: lane j
    starts STEPS * j steps on (a jump-ahead matrix over GF(2)) and takes the
    three shift-xors STEPS times, so each lane fills its own stretch. Code
    reads the next draws as an array with `block` and serves the ones it used
    with `skip`; `randranges` is the one rule for a bounded draw, and
    `shuffle` and `sample` take their draws from it. `state` is the xorshift
    state after the last draw served, as if stepped one by one; setting it
    restarts the stream there."""

    LANES = 256
    STEPS = 64

    def __init__(self, seed: int):
        z = (seed + 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        self.state = z or 0x9E3779B97F4A7C15

    @property
    def state(self) -> int:
        return int(self._raw[self._pos - 1]) if self._pos else self._head

    @state.setter
    def state(self, x: int) -> None:
        self._head = x                  # the state before _raw[0]
        self._raw = np.empty(0, np.uint64)
        self._pos = 0                   # draws of _raw served
        jumps = _jumps(self.LANES, self.STEPS)
        starts = np.array([x], np.uint64)
        for jump in jumps[:-1]:         # lane j starts j * STEPS steps on
            starts = np.concatenate((starts, _apply(jump, starts)))
        self._starts = starts

    def _fill(self) -> np.ndarray:
        """The next LANES * STEPS raw states, lane after lane."""
        x, t = self._starts.copy(), np.empty(self.LANES, np.uint64)
        states = np.empty((self.STEPS, self.LANES), np.uint64)
        for row in states:
            np.right_shift(x, _S12, out=t)
            x ^= t
            np.left_shift(x, _S25, out=t)
            x ^= t
            np.right_shift(x, _S27, out=t)
            x ^= t
            row[:] = x
        self._starts = _apply(_jumps(self.LANES, self.STEPS)[-1], self._starts)
        return states.T.ravel()

    def block(self, n: int) -> np.ndarray:
        """The next n outputs as uint64, not yet served (see skip)."""
        short = n - (len(self._raw) - self._pos)
        if short > 0:                   # the unserved draws, then enough fills
            fills = [self._fill() for _ in range(-(-short // (self.LANES * self.STEPS)))]
            self._head, self._raw = self.state, np.concatenate((self._raw[self._pos:], *fills))
            self._pos = 0
        return self._raw[self._pos:self._pos + n] * _MULTIPLIER

    def skip(self, n: int) -> None:
        """Serve the next n draws, which a block has made."""
        if n > len(self._raw) - self._pos:
            raise ValueError("skip past the draws a block has made")
        self._pos += n

    def randranges(self, bounds) -> np.ndarray:
        """A draw below n for each bound n >= 1 in turn, as a uint64 array: the
        next draw mod n, where a draw at or past the largest multiple of n up
        to 2**64 is passed over, so that each value is as likely."""
        bounds = np.asarray(bounds, np.uint64)
        if not bounds.all():
            raise ValueError("randranges needs every bound >= 1")
        tops = _tops(bounds)
        out, done = np.empty(len(bounds), np.uint64), 0
        while done < len(bounds):
            v = self.block(len(bounds) - done)
            rejected = np.flatnonzero(v > tops[done:])
            k = int(rejected[0]) if len(rejected) else len(v)
            out[done:done + k] = v[:k] % bounds[done:done + k]
            self.skip(k + (k < len(v)))
            done += k
        return out

    def shuffle(self, items: list) -> None:
        picks = self.randranges(np.arange(2, len(items) + 1, dtype=np.uint64)[::-1]).tolist()
        for i, j in zip(range(len(items) - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order rng-determined."""
        if not 0 <= k <= n:
            raise ValueError("sample needs 0 <= k <= n")
        idx = list(range(n))
        picks = self.randranges(np.arange(n - k + 1, n + 1, dtype=np.uint64)[::-1]).tolist()
        for i, j in enumerate(picks):
            idx[i], idx[i + j] = idx[i + j], idx[i]
        return idx[:k]


# Every constant a uint64 array meets is a uint64 too: numpy 1.x turns a uint64
# scalar met with a Python int into float64.
_MULTIPLIER = np.uint64(0x2545F4914F6CDD1D)
_S11, _S12, _S25, _S27 = (np.uint64(k) for k in (11, 12, 25, 27))
_BITS = np.arange(64, dtype=np.uint64)
_ONE = np.uint64(1)


def _apply(matrix: np.ndarray, states: np.ndarray) -> np.ndarray:
    """A linear map over GF(2)**64, given by the images of the 64 unit
    vectors, applied to each state: the xor of the images of its set bits."""
    bits = ((states[:, None] >> _BITS) & _ONE).astype(bool)
    return np.bitwise_xor.reduce(np.where(bits, matrix, np.uint64(0)), axis=1)


@functools.cache
def _jumps(lanes: int, steps: int) -> tuple[np.ndarray, ...]:
    """The xorshift step taken steps * 2**i times, for each 2**i up to lanes."""
    if lanes & (lanes - 1) or steps & (steps - 1):
        raise ValueError("lanes and steps must be powers of two")
    x = _ONE << _BITS
    x ^= x >> _S12
    x ^= x << _S25
    x ^= x >> _S27
    for _ in range(steps.bit_length() - 1):
        x = _apply(x, x)
    jumps = [x]
    for _ in range(lanes.bit_length() - 1):
        jumps.append(_apply(jumps[-1], jumps[-1]))
    for jump in jumps:          # shared by every Rng through the cache
        jump.flags.writeable = False
    return tuple(jumps)


def _tops(bounds: np.ndarray) -> np.ndarray:
    """The largest output randranges accepts for each bound n of a uint64 array:
    2**64 - 2**64 % n - 1, where 2**64 % n is (2**64 - n) % n."""
    return ~((~bounds + _ONE) % bounds)


# ---------------------------------------------------------------------------
# City catalog: the source catalog document, and the dBASE file's own layout

CITY_PREFIX = {"tripoli": "TRI", "misurata": "MIS", "sirte": "SIR"}

_LAYOUT_KEYS = ("name", "kind", "length", "offset")


def _numbered(values: Sequence[str], prefix: str = "") -> dict[str, str]:
    """A codebook of values coded prefix1, prefix2, ... in order."""
    return {f"{prefix}{i}": v for i, v in enumerate(values, 1)}


# The source catalog as `sources.yaml` holds it: gen dumps this document, and
# CITY_SPECS is it read by `config.source_specs`, the reader ingest's loader uses.
SOURCE_CATALOG = {"sources": [
    {"source_id": "tripoli", "city": "Tripoli", "format": "fixed_width",
     "path": "tripoli.dat", "encoding": "ascii",
     "field_map": {
         "national_id": "ID_NO", "name": "FULL_NAME", "sex": "SEX",
         "district": "DISTRICT", "specialty": "SPECIALTY", "job_group": "JOB_GROUP",
         "sector": "SECTOR", "moahel": "MOAHEL", "education_level": "EDU_LEVEL",
         "service_status": "SVC_STATUS", "year": "APP_YEAR", "quarter": "APP_QTR"},
     "layout": [dict(zip(_LAYOUT_KEYS, column)) for column in (
         ("ID_NO", "C", 12, 0), ("FULL_NAME", "C", 20, 12), ("SEX", "C", 6, 32),
         ("DISTRICT", "C", 14, 38), ("SPECIALTY", "C", 8, 52), ("JOB_GROUP", "C", 6, 60),
         ("SECTOR", "C", 8, 66), ("MOAHEL", "C", 6, 74), ("EDU_LEVEL", "C", 12, 80),
         ("SVC_STATUS", "C", 10, 92), ("APP_YEAR", "N", 4, 102), ("APP_QTR", "C", 2, 106))]},
    {"source_id": "misurata", "city": "Misurata", "format": "delimited",
     "path": "misurata.csv", "encoding": "utf-8", "delimiter": ",",
     "field_map": {
         "national_id": "nid", "name": "full_name", "sex": "sex",
         "district": "district", "congress": "mothamer", "specialty": "specialty",
         "job_group": "job_group", "sector": "sector", "moahel": "moahel",
         "education_level": "edu_level", "service_status": "svc_status",
         "year": "app_year", "quarter": "app_qtr"},
     "value_codebooks": {
         "sex": {"1": "male", "2": "female"},
         "education_level": _numbered(EDUCATION_LEVELS),
         "service_status": _numbered(SERVICES),
         "quarter": _numbered(QUARTERS)}},
    {"source_id": "sirte", "city": "Sirte", "format": "dbf",
     "path": "sirte.dbf", "encoding": "ascii",
     "field_map": {
         "national_id": "NID", "name": "NAME", "sex": "SEX",
         "district": "DISTRICT", "specialty": "SPEC", "job_group": "JOBGRP",
         "sector": "SECTOR", "moahel": "MOAHEL", "education_level": "EDULVL",
         "service_status": "SERVICE", "year": "YEAR", "quarter": "QTR"},
     "value_codebooks": {
         "sex": {"M": "male", "F": "female"},
         "education_level": _numbered(EDUCATION_LEVELS, "E"),
         "service_status": _numbered(SERVICES, "S"),
         "quarter": _numbered(QUARTERS)}},
]}
CITY_SPECS = tuple(source_specs(SOURCE_CATALOG, SOURCES_FILE))
CITY_NAMES = {spec.source_id: spec.city for spec in CITY_SPECS}

# A dBASE file describes itself, so its spec has no layout; the writer's is here.
SIRTE_LAYOUT = tuple(FieldDescriptor(*column) for column in (
    ("NID", "C", 12, 0), ("NAME", "C", 20, 12), ("SEX", "C", 1, 32),
    ("DISTRICT", "C", 14, 33), ("SPEC", "C", 8, 47), ("JOBGRP", "C", 6, 55),
    ("SECTOR", "C", 8, 61), ("MOAHEL", "C", 6, 69), ("EDULVL", "C", 2, 75),
    ("SERVICE", "C", 2, 77), ("YEAR", "N", 4, 79), ("QTR", "N", 1, 83),
    ("APPDATE", "D", 8, 84)))

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
# A field's place in a column table, which holds one list per ALL_FIELDS name.
_AT = {name: i for i, name in enumerate(ALL_FIELDS)}


def _layout(spec: SourceSpec) -> tuple[FieldDescriptor, ...]:
    """A city file's fixed-position layout: its spec's, the dBASE writer's, or none."""
    return SIRTE_LAYOUT if spec.format == "dbf" else spec.layout


def _columns(spec: SourceSpec) -> tuple[str, ...]:
    """A city file's column names, in file order."""
    return tuple(fd.name for fd in _layout(spec)) or tuple(spec.field_map.values())


def _check_widths(config: GenConfig) -> None:
    """Refuse a year, sector or district that a fixed-position file's column
    cannot hold, naming the source, the column and its width: the longest is
    an end's, a year range's or what `_placements` makes of the highest draws."""
    ends = [config.congresses_per_city - 1, DISTRICTS_PER_CONGRESS - 1, 1, config.sectors - 1]
    labels = _placements(config, np.arange(len(CITY_ORDER)), np.array([ends] * len(CITY_ORDER)))
    longest = {name: max(labels[name], key=len) for name in ("district", "sector")}
    longest["year"] = str(max(config.year_from, config.year_to, key=lambda y: len(str(y))))
    for spec in CITY_SPECS:
        for fd in _layout(spec):
            for name, text in longest.items():
                if fd.name == spec.field_map[name] and len(text) > fd.length:
                    raise ConfigError(f"{spec.source_id}: {name} {text} does not fit "
                                      f"{fd.name}, which is {fd.length} bytes wide")


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

    persons: int
    wire_rows: int
    duplicates: int
    filled: dict[str, int]
    normalized: dict[str, int]
    unknown_hierarchy: int
    generalized: int


@dataclass
class GenResult:
    out_dir: Path
    files: dict[str, Path]
    expect: GenExpectations
    duplicates: list[tuple[str, str, str, str]]     # nid, donor city, copy city, copy time
    blanks: list[tuple[str, str, str]]              # city, nid, field
    discrepancies: list[tuple[str, str, str, str]]  # city, nid, field, planted value

    @functools.cached_property
    def truth(self) -> list[CanonicalApplicant]:
        """The records of truth.csv, read on first use."""
        return read_records_csv(self.files["truth"])


# Records are drawn by column from blocks of the stream, CHUNK records a block.
# A record's draws come in a fixed order, one per entry of its bounds: a None
# is the directed draw, random() < DIRECTED_SHARE with random() a draw's top 53
# bits over 2**53, and the sector draw after it is taken only when that holds;
# every other entry n is a draw below n, as `randranges` makes it.
CHUNK = 8192


def _directed(draws: np.ndarray) -> np.ndarray:
    return (draws >> _S11).astype(np.float64) * 2.0 ** -53 < DIRECTED_SHARE


def _draw_tables(rng: Rng, bounds: tuple, count: int):
    """count records' draws, as tables of up to CHUNK rows with a column per
    bound: the directed column holds 0 or 1, and a sector column whose draw was
    not taken holds any value. A block of CHUNK * len(bounds) draws holds CHUNK
    records, read from it by column up to the first record whose len(bounds)
    draws from its start hold one that some column might reject; that record
    is drawn column by column through `randranges`, which passes over a
    rejected draw, and the next block starts after it."""
    width, d = len(bounds), bounds.index(None)
    ns = np.array([1 if n is None else n for n in bounds], np.uint64)
    # where each column's draw lies from the record's first one, when not
    # directed; directed, the draws after the sector draw lie one further on
    lag = np.arange(width) > d + 1
    offsets = np.arange(width) - lag
    while count:
        n = min(count, CHUNK)
        v = rng.block(n * width)
        directed = _directed(v)
        # the record at p is followed by one at following[p], and is plain if
        # none of the width draws from p is one that some column might reject
        places = len(v) - width + 1     # where a record may start
        following = (np.arange(places) + width - 1 + directed[d:d + places]).tolist()
        doubtful = np.concatenate(([0], np.cumsum(v > _tops(ns).min())))
        plain = (doubtful[width:] == doubtful[:-width]).tolist()
        starts, p = [], 0
        for _ in range(n):
            if not plain[p]:
                break
            starts.append(p)
            p = following[p]
        rng.skip(p)
        if starts:
            first = np.array(starts)
            at = first[:, None] + offsets + (directed[first + d][:, None] & lag)
            table = (v[at] % ns).astype(np.int64)
            table[:, d] = directed[at[:, d]]
            yield table
        if len(starts) < n:             # the record at p, column by column
            record = np.zeros(width, np.int64)
            record[:d] = rng.randranges(ns[:d])
            record[d] = _directed(rng.block(1))[0]
            rng.skip(1)
            rest = d + 2 - record[d]    # the sector draw only if directed
            record[rest:] = rng.randranges(ns[rest:])
            yield record[None]
        count -= min(len(starts) + 1, n)


def _take(labels, index: np.ndarray) -> list:
    """labels[i] for each i of the index array, as a list."""
    return np.array(labels, dtype=object)[index].tolist()


def _labels(label: Callable[[int], str], values: np.ndarray) -> list[str]:
    """label(v) for each of the values, made once for each distinct one."""
    distinct, index = np.unique(values, return_inverse=True)
    return _take([label(v) for v in distinct.tolist()], index)


def _placement_bounds(config: GenConfig) -> tuple:
    """The draws that file an application: congress, district, directed, sector."""
    return (config.congresses_per_city, DISTRICTS_PER_CONGRESS, None, config.sectors)


def _placements(config: GenConfig, cities: np.ndarray, draws: np.ndarray) -> dict:
    """Where each application is filed, from its city's CITY_ORDER index and
    its placement draws, with the fields that follow from them."""
    per_city = config.congresses_per_city

    def congress(k: int) -> str:    # k numbers a (city, congress) pair
        city, i = divmod(k, per_city)
        return f"{CITY_PREFIX[CITY_ORDER[city]]}-CG{i + 1:02d}"

    congresses = cities * per_city + draws[:, 0]
    return {
        "district": _labels(lambda k: f"{congress(k // DISTRICTS_PER_CONGRESS)}-D"
                                      f"{k % DISTRICTS_PER_CONGRESS + 1:02d}",
                            congresses * DISTRICTS_PER_CONGRESS + draws[:, 1]),
        "congress": _labels(congress, congresses),
        "city": _take([CITY_NAMES[city_key] for city_key in CITY_ORDER], cities),
        "sector": _labels(lambda i: f"SEC-{i:02d}" if i else "", draws[:, 2] * (draws[:, 3] + 1)),
        "status": _take((STATUS_SEEKER, STATUS_DIRECTED), draws[:, 2]),
        "source_id": _take(CITY_ORDER, cities),
    }


def _codes(form: str, n: int) -> list[str]:
    return [form % (i + 1) for i in range(n)]


def _make_persons(rng: Rng, config: GenConfig, counts: dict[str, int]) -> list[list]:
    """Each city's persons in CITY_ORDER, numbered on across cities, as a
    column table. A person's draws are its placement, then sex, specialty, job
    group, moahel, education level, service status, year and quarter."""
    span = config.year_to - config.year_from + 1
    bounds = (*_placement_bounds(config), 2, SPECIALTIES, JOB_GROUPS, MOAHELS,
              len(EDUCATION_LEVELS), len(SERVICES), span, len(QUARTERS))
    coded = (("sex", ("male", "female")), ("specialty", _codes("SPC-%03d", SPECIALTIES)),
             ("job_group", _codes("JG-%02d", JOB_GROUPS)), ("moahel", _codes("QL-%02d", MOAHELS)),
             ("education_level", EDUCATION_LEVELS), ("service_status", SERVICES))
    persons: list[list] = [[] for _ in ALL_FIELDS]
    for city, city_key in enumerate(CITY_ORDER):
        for draws in _draw_tables(rng, bounds, counts[city_key]):
            ordinals = range(len(persons[0]) + 1, len(persons[0]) + 1 + len(draws))
            columns = _placements(config, np.full(len(draws), city), draws)
            for i, (name, labels) in enumerate(coded, 4):
                columns[name] = _take(labels, draws[:, i])
            columns.update(
                national_id=list(map("NID%09d".__mod__, ordinals)),
                name=list(map("APPLICANT-%07d".__mod__, ordinals)),
                year=_labels(config.year_from.__add__, draws[:, 10]),
                quarter=_take(QUARTERS, draws[:, 11]))
            for column, name in zip(persons, ALL_FIELDS):
                column += columns[name]
    return persons


def _make_copies(rng: Rng, config: GenConfig, persons: list[list], eligible: Sequence[int],
                 count: int) -> tuple[list[int], list[list]]:
    """count copies, as their donors' rows and a column table: an eligible
    donor row's application filed again in one of the other two cities,
    strictly one quarter before the donor's so that the keep-latest rule always
    removes the copy. A copy's draws are its donor, its city, its placement,
    then specialty and job group."""
    bounds = (len(eligible), 2, *_placement_bounds(config), SPECIALTIES, JOB_GROUPS)
    specialties, job_groups = _codes("SPC-%03d", SPECIALTIES), _codes("JG-%02d", JOB_GROUPS)
    donors: list[int] = []
    drawn: dict[str, list] = {}
    for draws in _draw_tables(rng, bounds, count):
        rows = np.asarray(eligible)[draws[:, 0]].tolist()
        donor_city = np.array([CITY_ORDER.index(persons[_AT["source_id"]][row]) for row in rows])
        cities = draws[:, 1] + (draws[:, 1] >= donor_city)     # the other two, in order
        columns = _placements(config, cities, draws[:, 2:])
        columns.update(specialty=_take(specialties, draws[:, 6]),
                       job_group=_take(job_groups, draws[:, 7]))
        donors += rows
        for name, values in columns.items():
            drawn.setdefault(name, []).extend(values)
    copies = [drawn[name] if name in drawn else list(map(column.__getitem__, donors))
              for name, column in zip(ALL_FIELDS, persons)]
    # filed the quarter before the donor's
    quarters, earlier = copies[_AT["quarter"]], dict(zip(QUARTERS, QUARTERS[-1:] + QUARTERS[:-1]))
    copies[_AT["year"]] = [y - (q == QUARTERS[0]) for y, q in zip(copies[_AT["year"]], quarters)]
    copies[_AT["quarter"]] = list(map(earlier.__getitem__, quarters))
    return donors, copies


def _plant(rng: Rng, config: GenConfig, wire: list[list]) -> tuple[list, list]:
    """The corruption planted on the wire rows, written into their columns:
    blanks (city, nid, field), at most one a row and only on fillable fields;
    then entry discrepancies (city, nid, field, variant), spellings that
    normalization must rewrite, on a field the row's blank spares. A
    discrepancy's draws are its field, from the two or three its row leaves,
    and its variant, from its source's pools, which are all one length."""
    size, cities, nids = len(wire[0]), wire[_AT["source_id"]], wire[_AT["national_id"]]
    blank_rows = rng.sample(size, int(config.blank_rate * size))
    blanked = dict(zip(blank_rows, _take(BLANKABLE_FIELDS, rng.randranges(
        np.full(len(blank_rows), len(BLANKABLE_FIELDS), np.uint64)))))
    blanks = [(cities[row], nids[row], name) for row, name in blanked.items()]
    disc_rows = rng.sample(size, int(config.discrepancy_rate * size))
    order = {name: i for i, name in enumerate(DISCREPANCY_FIELDS)}
    # the discrepancy field each row's blank took, or one past the last
    taken = np.array([order.get(blanked.get(row), len(order)) for row in disc_rows], np.int64)
    pool_sizes = {city: len(pools["sex"]["male"]) for city, pools in VARIANT_POOLS.items()}
    bounds = np.empty((len(disc_rows), 2), np.uint64)
    bounds[:, 0] = len(order) - (taken < len(order))
    bounds[:, 1] = [pool_sizes[cities[row]] for row in disc_rows]
    picks = rng.randranges(bounds.ravel()).astype(np.int64).reshape(-1, 2)
    fields = picks[:, 0] + (picks[:, 0] >= taken)   # passing over the blanked one
    for row, name in blanked.items():
        wire[_AT[name]][row] = ""
    discrepancies = []
    for row, at, variant_at in zip(disc_rows, fields.tolist(), picks[:, 1].tolist()):
        name = DISCREPANCY_FIELDS[at]
        column = wire[_AT[name]]
        column[row] = VARIANT_POOLS[cities[row]][name][column[row]][variant_at]
        discrepancies.append((cities[row], nids[row], name, column[row]))
    return blanks, discrepancies


@bulk()
def generate(config: GenConfig, out_dir: str | Path) -> GenResult:
    """Emit the three source files plus truth set, sidecar configs, and the
    planted-corruption manifest, with the collector paused. Byte-deterministic
    for a given config. A year, sector or district a source's column cannot
    hold raises ConfigError before anything is drawn or written."""
    _check_widths(config)
    out, rng = Path(out_dir), Rng(config.seed)
    counts = (_persons_from_targets(config) if config.target_bytes is not None
              else dict(config.counts or {"tripoli": 900, "misurata": 600, "sirte": 300}))

    # Persons, one rng stream, fixed city order: in national_id order.
    persons = _make_persons(rng, config, counts)
    total_persons = len(persons[0])

    # Cross-city duplicate applications; copies always predate their donor.
    first = (config.year_from, QUARTERS[0])
    eligible = np.flatnonzero([when != first for when in
                               zip(persons[_AT["year"]], persons[_AT["quarter"]])])
    n_copies = int(config.duplicate_rate * total_persons) if len(eligible) else 0
    donors, copies = _make_copies(rng, config, persons, eligible, n_copies)
    nids, cities = persons[_AT["national_id"]], persons[_AT["source_id"]]
    duplicates = [(nids[row], cities[row], city, f"{year}{quarter}") for row, city, year, quarter
                  in zip(donors, *(copies[_AT[name]] for name in ("source_id", "year", "quarter")))]

    # Each city's rows, its persons then the copies filed there, shuffled; the
    # rows count on past the persons into the copies.
    source_ids = np.array(cities + copies[_AT["source_id"]], dtype=object)
    shuffled = []
    for city_key in CITY_ORDER:
        rows = np.flatnonzero(source_ids == city_key).tolist()
        rng.shuffle(rows)
        shuffled.append(np.array(rows, np.int64))
    order = np.concatenate(shuffled)
    sizes = dict(zip(CITY_ORDER, map(len, shuffled)))
    wire = [_take(p + c, order) for p, c in zip(persons, copies)]
    blanks, discrepancies = _plant(rng, config, wire)
    # a person whose district the wire holds blank: only a blank is on district
    unknown = {wire[_AT["national_id"]][row] for row, district in enumerate(wire[_AT["district"]])
               if not district and order[row] < total_persons}
    expect = GenExpectations(
        persons=total_persons, wire_rows=len(order), duplicates=len(duplicates),
        filled=dict(sorted(Counter(name for _, _, name in blanks).items())),
        normalized=dict(sorted(Counter(name for _, _, name, _ in discrepancies).items())),
        unknown_hierarchy=len(unknown), generalized=total_persons - len(unknown))

    # Truth: what the pipeline should hand the warehouse, the person columns
    # projected onto the warehouse fields; written first, so that the persons
    # and the city labels are let go before the cities' files are rendered.
    blank = [""] * total_persons
    truth = [column if name in WAREHOUSE_REQUIRED_FIELDS else blank
             for name, column in zip(ALL_FIELDS, persons)]
    truth[_AT["congress"]] = [DEFAULT_FILL if nid in unknown else congress
                              for nid, congress in zip(nids, persons[_AT["congress"]])]
    files = {"truth": out / TRUTH_FILE}
    write_columns(files["truth"], truth)
    del persons, nids, cities, truth, blank, source_ids

    files |= _write_outputs(config, out, wire, sizes)
    _write_gen_manifest(out / GEN_MANIFEST_FILE, config, expect, files,
                        duplicates, blanks, discrepancies)
    files["gen_manifest"] = out / GEN_MANIFEST_FILE
    return GenResult(out, files, expect, duplicates, blanks, discrepancies)


def _write_outputs(config: GenConfig, out: Path, wire: list[list],
                   sizes: dict[str, int]) -> dict[str, Path]:
    """Each city's file from its slice of the wire columns (CITY_ORDER, sizes
    rows each), and the sidecar configs."""
    import yaml

    files: dict[str, Path] = {}
    start = 0
    for spec in CITY_SPECS:
        end = start + sizes[spec.source_id]
        # Sirte's APPDATE, which no mapping reads, is the 15th of the quarter's middle month
        given = {}
        if spec.format == "dbf":
            given["APPDATE"] = [f"{y}{_QTR_MONTH[q]}15" for y, q in zip(
                wire[_AT["year"]][start:end], wire[_AT["quarter"]][start:end])]
        rows = row_mapper(spec, _columns(spec))([column[start:end] for column in wire], **given)
        with replacing(out / spec.path, binary=True) as fh:
            fh.write(_render(config, spec, rows))
        files[spec.source_id], start = out / spec.path, end
    hierarchy = {"levels": ["district", "congress", "city"],
                 "tree": build_hierarchy_tree(config)}
    for key, name, document in (("sources", SOURCES_FILE, SOURCE_CATALOG),
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
    """The counts of a generation manifest: each `key=value` line before the
    first `[section]` line, read by `parse_int`; `expected_filled.<field>`,
    `expected_normalized.<field>` and `bytes.<city>` go into a dict of their
    group. A count parse_int refuses raises InvalidFieldValue naming the file
    and the key."""
    groups = ("expected_filled", "expected_normalized", "bytes")
    out: dict = {group: {} for group in groups}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            break
        key, _, value = line.partition("=")
        try:
            count = parse_int(value)
        except ValueError as exc:
            raise InvalidFieldValue(f"{path}: {key}: {exc}") from None
        group, dot, name = key.partition(".")
        if dot and group in groups:
            out[group][name] = count
        else:
            out[key] = count
    return out

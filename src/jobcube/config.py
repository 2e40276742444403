"""One YAML file drives the whole pipeline.

Top-level keys: seed, data_dir, warehouse_dir, years, gen, etl, reports,
bench. Each setting lives in one dataclass (seed and years in GenConfig),
whose default a missing key takes. The sidecar files (sources.yaml,
hierarchy.yaml, codebooks.yaml, staging.csv, clean.csv) live in data_dir.
Relative paths are taken as written, i.e. resolved against the working
directory of the invoking process. Query text has one grammar, parse_query's,
shared by the `jobcube query` flags, bench queries and custom reports, and
every year range is read by records.parse_years. Each value is read through
one check per shape, so a malformed file ends in a ConfigError naming the file
and key path; an unquoted YAML number is an integer only as ASCII digits, the
rule record years follow, and YAML 1.1's other integer forms reach the checks
as text. Each config object checks itself when it is made; stages only check
that their input files exist. The stages' settings objects are defined here,
and this module imports no stage until source_specs or load_hierarchy runs, so
a query process loads no stage code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import yaml

from .cube import AggregateQuery, MEASURES, YearSpan
from .errors import BadHierarchy, BadPolicy, ConfigError
from .records import NULLABLE_FIELDS, parse_int, parse_years
from .reporting import ReportSpec

if TYPE_CHECKING:
    from .preprocess import ConceptHierarchy
    from .sources import SourceSpec

# the sidecar files gen writes into data_dir for ingest, etl, load and refresh
SOURCES_FILE = "sources.yaml"
HIERARCHY_FILE = "hierarchy.yaml"
CODEBOOKS_FILE = "codebooks.yaml"
CITY_ORDER = ("tripoli", "misurata", "sirte")     # the generated cities, in file order
DEFAULT_FILL = "UNKNOWN"                           # the constant a blank field is filled with
MAX_CODES = 10 ** 6         # the most values gen draws a sector, a city's congress or a year from
DEFAULT_BENCH_QUERIES = (
    ("seekers_by_sector", AggregateQuery(measure="seekers", group_by=("sector",))),
)


_INT_TAG = "tag:yaml.org,2002:int"


class _Loader(yaml.SafeLoader):
    """SafeLoader whose only integers are ASCII `-?[0-9]+`, read by parse_int,
    the record-year rule, so 010 is 10. YAML 1.1's other forms (0x4, 0o7, 1_2,
    base-60 1:00, +3) stay text for the key's own check to refuse."""

    yaml_implicit_resolvers = {
        first: [(tag, regexp) for tag, regexp in resolvers if tag != _INT_TAG]
        for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()}

    def construct_int(self, node) -> int:
        text = self.construct_scalar(node)
        try:
            return parse_int(text)
        except ValueError:
            raise yaml.constructor.ConstructorError(
                None, None, f"not an integer: {text!r}", node.start_mark) from None


_Loader.add_implicit_resolver(_INT_TAG, re.compile(r"-?[0-9]+\Z"), list("-0123456789"))
_Loader.add_constructor(_INT_TAG, _Loader.construct_int)


def _read_yaml(path: str | Path):
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{p}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8: byte {exc.start} ({exc.reason})") from exc
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p}: not valid YAML: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"{p}: not valid YAML: nested too deeply") from None


def _as_mapping(value, where: str, keys: set[str] | None = None) -> dict:
    """value as a dict, {} for None; given keys, any other key is refused."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    unknown = set(value) - keys if keys is not None else ()
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(map(str, unknown))}")
    return dict(value)


def _require(mapping: Mapping, names: tuple[str, ...], where: str) -> None:
    missing = [name for name in names if name not in mapping]
    if missing:
        raise ConfigError(f"{where}: missing {', '.join(map(repr, missing))}")


def _as_list(value, where: str) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _integer(raw, where: str) -> int:
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {raw!r}")
    try:
        return parse_int(raw) if isinstance(raw, str) else int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


def _rate(raw, where: str) -> float:
    if isinstance(raw, bool):
        raise ConfigError(f"{where}: expected a number, got {raw!r}")
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None


def _text(value, where: str, form: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected {form}, got {value!r}")
    return value


def _texts(mapping: Mapping, where: str, **defaults) -> dict[str, str]:
    """Each key named in defaults as text, the default standing in for a missing key."""
    return {key: _text(mapping.get(key, default), f"{where}.{key}", "text")
            for key, default in defaults.items()}


def _years(raw, where: str) -> tuple[int, int]:
    """A year range read by parse_years, the one rule for every years."""
    try:
        return parse_years(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _dimension_level(text: str) -> tuple[str, ...]:
    """'dim' -> ('dim',) and 'dim:level' -> ('dim', 'level'), trimmed."""
    return tuple(part.strip() for part in text.split(":", 1))


def parse_query(measure, group_by, filters, years,
                where: Mapping[str, str]) -> AggregateQuery:
    """The one query grammar, from `jobcube query` flags or a YAML entry.

    group_by is "dim[:level],..."; each filter is "dim[:level]=m1,m2"; years,
    "A" or "A:B" (or an int A), filters time:year. where names each of the four keys
    (measure, group_by, filters, years) in error messages.
    """
    if measure not in MEASURES:
        raise ConfigError(f"{where['measure']}: unknown measure {measure!r}")
    text = _text("" if group_by is None else group_by, where["group_by"], "'dim[:level],...'")
    entries = [_dimension_level(item) for item in text.split(",") if item.strip()]
    query_filters = []
    if years is not None:
        lo, hi = _years(years, where["years"])
        query_filters.append(("time", "year", YearSpan(lo, hi)))
    for raw in filters:
        target, eq, members = _text(raw, where["filters"], "'dim[:level]=m1,m2'").partition("=")
        members = tuple(m.strip() for m in members.split(",") if m.strip())
        if not eq or not members:
            raise ConfigError(f"{where['filters']}: expected 'dim[:level]=m1,m2', got {raw!r}")
        query_filters.append((*_dimension_level(target), members))
    return AggregateQuery(measure, tuple(e if len(e) == 2 else e[0] for e in entries),
                          tuple(query_filters))


_QUERY_KEYS = {"measure", "group_by", "filters", "years"}


def _yaml_query(raw, where: str) -> AggregateQuery:
    """A query mapping: parse_query's four keys, each written as in the flags."""
    raw = _as_mapping(raw, where, _QUERY_KEYS)
    return parse_query(raw.get("measure", AggregateQuery.measure), raw.get("group_by"),
                       _as_list(raw.get("filters"), f"{where}.filters"), raw.get("years"),
                       {key: f"{where}.{key}" for key in _QUERY_KEYS})


@dataclass(frozen=True)
class GenConfig:
    """The generator's settings, checked when made (ConfigError if invalid)."""

    seed: int = 20060814
    counts: dict[str, int] | None = None            # persons per city
    target_bytes: dict[str, int] | None = None      # file size goals per city
    duplicate_rate: float = 0.05
    blank_rate: float = 0.03
    discrepancy_rate: float = 0.10
    year_from: int = 2000
    year_to: int = 2006
    sectors: int = 12
    congresses_per_city: int = 4

    def __post_init__(self) -> None:
        for name in ("duplicate_rate", "blank_rate", "discrepancy_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0,1], got {v}")
        if self.year_from > self.year_to:
            raise ConfigError(f"empty year range {self.year_from}:{self.year_to}")
        if self.year_to - self.year_from >= MAX_CODES:
            raise ConfigError(f"year range {self.year_from}:{self.year_to} spans more than "
                              f"{MAX_CODES} years")
        for name in ("sectors", "congresses_per_city"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
            if getattr(self, name) > MAX_CODES:
                raise ConfigError(f"{name} must be <= {MAX_CODES}")
        if self.counts is not None and self.target_bytes is not None:
            raise ConfigError("give counts or target_bytes, not both")
        for given in (self.counts, self.target_bytes):
            if given is not None:
                if unknown := set(given) - set(CITY_ORDER):
                    raise ConfigError(f"unknown cities: {sorted(unknown)}")
                if set(given) != set(CITY_ORDER):
                    raise ConfigError(f"need entries for all of {CITY_ORDER}")
                if min(given.values()) < 1:
                    raise ConfigError("per-city values must be >= 1")


@dataclass(frozen=True)
class CleaningPolicy:
    """Fill constants for nullable fields plus the duplicate-survivor rule, checked
    when made. Records are deduplicated on national_id, which is never filled."""

    fill_constants: dict[str, str] = field(
        default_factory=lambda: {f: DEFAULT_FILL for f in sorted(NULLABLE_FIELDS)})
    keep_rule: str = "latest_application"   # or "first_seen"

    def __post_init__(self) -> None:
        if self.keep_rule not in ("latest_application", "first_seen"):
            raise BadPolicy(f"unknown keep_rule {self.keep_rule!r}")
        if bad := set(self.fill_constants) - NULLABLE_FIELDS:
            raise BadPolicy(f"fill constants for non-fillable fields: {sorted(bad)}")


@dataclass(frozen=True)
class BenchConfig:
    """The queries to time and how often; checked when made."""

    queries: tuple[tuple[str, AggregateQuery], ...]     # (query id, query)
    repetitions: int = 10
    warmup: int = 2

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")
        if not self.queries:
            raise ConfigError("no queries to benchmark")


@dataclass(frozen=True)
class PipelineConfig:
    """The pipeline's settings, checked when made, as each nested config is."""

    data_dir: Path = Path("data")
    warehouse_dir: Path = Path("warehouse")
    gen: GenConfig = field(default_factory=GenConfig)
    fill_constant: str = DEFAULT_FILL
    keep_rule: str = CleaningPolicy.keep_rule
    reports: tuple[ReportSpec, ...] = ()
    bench: BenchConfig = field(default_factory=lambda: BenchConfig(DEFAULT_BENCH_QUERIES))
    bench_output: str = "reports/bench_report.csv"

    # the year range is the generator's
    year_from = property(lambda self: self.gen.year_from)
    year_to = property(lambda self: self.gen.year_to)

    def __post_init__(self) -> None:
        if not self.fill_constant:
            raise ConfigError("fill_constant must be non-empty")
        self.policy()           # a CleaningPolicy checks keep_rule

    def policy(self) -> CleaningPolicy:
        fills = {name: self.fill_constant for name in sorted(NULLABLE_FIELDS)}
        return CleaningPolicy(fill_constants=fills, keep_rule=self.keep_rule)

    # sidecar files: the generator and the pipeline stages write them into data_dir
    def sources_path(self) -> Path:
        return self.data_dir / SOURCES_FILE

    def hierarchy_path(self) -> Path:
        return self.data_dir / HIERARCHY_FILE

    def codebooks_path(self) -> Path:
        return self.data_dir / CODEBOOKS_FILE

    def staging_path(self) -> Path:
        return self.data_dir / "staging.csv"

    def clean_path(self) -> Path:
        return self.data_dir / "clean.csv"


_TOP_KEYS = {"seed", "data_dir", "warehouse_dir", "years", "gen", "etl",
             "reports", "bench"}
_GEN_KEYS = {"counts", "target_bytes", "duplicate_rate", "blank_rate",
             "discrepancy_rate", "sectors", "congresses_per_city"}
_ETL_KEYS = {"fill_constant", "keep_rule"}
_BENCH_KEYS = {"repetitions", "warmup", "output", "queries"}
_REPORT_KEYS = {"kind", "years", "city", "output", "format", "query"}


def _parse_years(raw, where: str, default: tuple[int, int]) -> tuple[int, int]:
    """{from, to} or parse_years' 'A', 'A:B' or int A, the range checked by
    parse_years in either form; None takes the default."""
    if raw is None:
        return default
    if isinstance(raw, Mapping):
        raw = _as_mapping(raw, where, {"from", "to"})
        _require(raw, ("from", "to"), where)
        lo, hi = (_integer(raw[key], f"{where}.{key}") for key in ("from", "to"))
        raw = f"{lo}:{hi}"
    return _years(raw, where)


def _build_gen(raw: Mapping, seed: int, years: tuple[int, int],
               where: str) -> GenConfig:
    kwargs: dict = {"seed": seed, "year_from": years[0], "year_to": years[1]}
    for name in ("counts", "target_bytes"):     # per city; None is the default
        if raw.get(name) is not None:
            kwargs[name] = {str(k): _integer(v, f"{where}.{name}.{k}")
                            for k, v in _as_mapping(raw[name], f"{where}.{name}").items()}
    for name in ("duplicate_rate", "blank_rate", "discrepancy_rate"):
        if name in raw:
            kwargs[name] = _rate(raw[name], f"{where}.{name}")
    for name in ("sectors", "congresses_per_city"):
        if name in raw:
            kwargs[name] = _integer(raw[name], f"{where}.{name}")
    return _made(GenConfig, where, **kwargs)


def _made(make: type, where: str, *args, **kwargs):
    """make(*args, **kwargs), a config object that checks itself when made; the
    error of its check keeps its class and is prefixed with where it was read."""
    try:
        return make(*args, **kwargs)
    except (ConfigError, BadPolicy) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _build_reports(raw, years: tuple[int, int], where: str,
                   ) -> tuple[ReportSpec, ...]:
    specs = []
    for i, entry in enumerate(_as_list(raw, where)):
        entry_where = f"{where}[{i}]"
        entry = _as_mapping(entry, entry_where, _REPORT_KEYS)
        _require(entry, ("kind",), entry_where)
        y_from, y_to = _parse_years(entry.get("years"), f"{entry_where}.years",
                                    years)
        city = entry.get("city")
        cities = [city] if isinstance(city, str) else _as_list(city, f"{entry_where}.city")
        query = _yaml_query(entry["query"], f"{entry_where}.query") if "query" in entry else None
        texts = _texts(entry, entry_where, kind=None, output=ReportSpec.output,
                       format=ReportSpec.format)
        specs.append(_made(ReportSpec, entry_where, year_from=y_from, year_to=y_to, query=query,
                           **texts, city_filter=frozenset(map(str, cities)) or None))
    return tuple(specs)


def load_config(path: str | Path) -> PipelineConfig:
    where = str(path)
    raw = _as_mapping(_read_yaml(path), where, _TOP_KEYS)

    seed = _integer(raw.get("seed", GenConfig.seed), f"{where}.seed")
    years = _parse_years(raw.get("years"), f"{where}.years",
                         (GenConfig.year_from, GenConfig.year_to))
    gen = _build_gen(_as_mapping(raw.get("gen"), f"{where}.gen", _GEN_KEYS), seed, years,
                     f"{where}.gen")
    etl = _texts(_as_mapping(raw.get("etl"), f"{where}.etl", _ETL_KEYS), f"{where}.etl",
                 fill_constant=PipelineConfig.fill_constant, keep_rule=PipelineConfig.keep_rule)
    bench = _as_mapping(raw.get("bench"), f"{where}.bench", _BENCH_KEYS)
    bench_queries = []
    for i, entry in enumerate(_as_list(bench.get("queries"), f"{where}.bench.queries")):
        entry_where = f"{where}.bench.queries[{i}]"
        entry = _as_mapping(entry, entry_where)
        _require(entry, ("id",), entry_where)
        bench_queries.append((str(entry.pop("id")), _yaml_query(entry, entry_where)))

    dirs = _texts(raw, where, data_dir=str(PipelineConfig.data_dir),
                  warehouse_dir=str(PipelineConfig.warehouse_dir))
    return _made(
        PipelineConfig, f"{where}.etl",     # whose own check reads only the etl keys
        data_dir=Path(dirs["data_dir"]), warehouse_dir=Path(dirs["warehouse_dir"]),
        gen=gen, **etl,
        reports=_build_reports(raw.get("reports"), years, f"{where}.reports"),
        bench=_made(BenchConfig, f"{where}.bench", tuple(bench_queries) or DEFAULT_BENCH_QUERIES,
                    **{name: _integer(bench[name], f"{where}.bench.{name}")
                       for name in ("repetitions", "warmup") if name in bench}),
        bench_output=_texts(bench, f"{where}.bench", output=PipelineConfig.bench_output)["output"],
    )


def load_sources(path: str | Path) -> list[SourceSpec]:
    """The source catalog in a YAML file, read by source_specs."""
    return source_specs(_read_yaml(path), str(path))


def source_specs(document, where: str) -> list[SourceSpec]:
    """The source catalog document, {sources: [...]}: formats, layouts, field
    maps, codebooks. Gen's catalog is read here as ingest's file is."""
    from .sources import FieldDescriptor, SourceSpec
    raw = _as_mapping(document, where, {"sources"})
    specs = []
    for i, entry in enumerate(_as_list(raw.get("sources"), f"{where}.sources")):
        entry_where = f"{where}.sources[{i}]"
        entry = _as_mapping(entry, entry_where, {
            "source_id", "city", "format", "path", "encoding", "delimiter", "field_map",
            "value_codebooks", "layout"})
        _require(entry, ("source_id", "city", "format", "path", "field_map"), entry_where)
        field_map = {str(k): _text(v, f"{entry_where}.field_map.{k}", "text") for k, v in
                     _as_mapping(entry["field_map"], f"{entry_where}.field_map").items()}
        codebooks = _codebooks(entry.get("value_codebooks"), f"{entry_where}.value_codebooks")
        layout = []
        for j, fd in enumerate(_as_list(entry.get("layout"), f"{entry_where}.layout")):
            fd_where = f"{entry_where}.layout[{j}]"
            fd = _as_mapping(fd, fd_where, {"name", "kind", "length", "offset", "decimals"})
            _require(fd, ("name", "kind", "length"), fd_where)
            sizes = {name: _integer(fd[name], f"{fd_where}.{name}")
                     for name in ("length", "offset", "decimals") if name in fd}
            layout.append(FieldDescriptor(**_texts(fd, fd_where, name=None, kind=None), **sizes))
        specs.append(SourceSpec(
            source_id=str(entry["source_id"]), city=str(entry["city"]),
            field_map=field_map, value_codebooks=codebooks, layout=tuple(layout),
            **_texts(entry, entry_where, format=None, path=None,
                     encoding=SourceSpec.encoding, delimiter=SourceSpec.delimiter)))
    if not specs:
        raise ConfigError(f"{where}: no sources defined")
    return specs


def load_hierarchy(path: str | Path) -> ConceptHierarchy:
    from .preprocess import ConceptHierarchy
    where = str(path)
    raw = _as_mapping(_read_yaml(path), where, {"levels", "tree"})
    levels = [str(lv) for lv in _as_list(raw.get("levels"), f"{where}.levels")]
    tree = _as_mapping(raw.get("tree"), f"{where}.tree")
    try:
        return ConceptHierarchy.from_tree(levels, tree)
    except BadHierarchy as exc:
        raise BadHierarchy(f"{where}: {exc}") from None


def _codebooks(raw, where: str) -> dict[str, dict[str, str]]:
    """{field: {code: value}} as text, from a YAML mapping of mappings."""
    return {str(name): {str(code): str(value) for code, value in
                        _as_mapping(book, f"{where}.{name}").items()}
            for name, book in _as_mapping(raw, where).items()}


def load_codebooks(path: str | Path) -> dict[str, dict[str, str]]:
    return _codebooks(_read_yaml(path), str(path))

"""One YAML file drives the whole pipeline.

Top-level keys: seed, data_dir, warehouse_dir, years, gen, etl, reports,
bench. Each setting lives in one dataclass (seed and years in GenConfig),
whose default a missing key takes. The sidecar files (sources.yaml,
hierarchy.yaml, codebooks.yaml, staging.csv, clean.csv) live in data_dir.
Relative paths are taken as written, i.e. resolved against the working
directory of the invoking process. Everything is validated up front;
stages only check that their input files exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .bench import BenchConfig
from .cube import AggregateQuery, MEASURES
from .datagen import CODEBOOKS_FILE, HIERARCHY_FILE, SOURCES_FILE, GenConfig
from .errors import ConfigError
from .preprocess import DEFAULT_FILL, CleaningPolicy, ConceptHierarchy
from .records import NULLABLE_FIELDS
from .reporting import ReportSpec
from .sources import FieldDescriptor, SchemaMapping, SourceSpec

DEFAULT_BENCH_QUERIES = (
    ("seekers_by_sector", AggregateQuery(measure="seekers", group_by=("sector",))),
)


def _read_yaml(path: str | Path):
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{p}: {exc.strerror or exc}") from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p}: not valid YAML: {exc}") from exc


def _check_keys(mapping: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(map(str, unknown))}")


def _as_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return dict(value)


def parse_query(raw: Mapping, where: str = "query") -> AggregateQuery:
    """{measure, group_by: [dim | {dimension, level}], filters: [{dimension,
    level?, members}]} -> AggregateQuery."""
    raw = _as_mapping(raw, where)
    _check_keys(raw, {"measure", "group_by", "filters"}, where)
    measure = str(raw.get("measure", AggregateQuery.measure))
    if measure not in MEASURES:
        raise ConfigError(f"{where}: unknown measure {measure!r}")
    group_by = []
    for entry in raw.get("group_by") or []:
        if isinstance(entry, Mapping):
            _check_keys(entry, {"dimension", "level"}, f"{where}.group_by")
            if "dimension" not in entry:
                raise ConfigError(f"{where}.group_by: entry needs a dimension")
            if "level" in entry:
                group_by.append((str(entry["dimension"]), str(entry["level"])))
            else:
                group_by.append(str(entry["dimension"]))
        else:
            group_by.append(str(entry))
    filters = []
    for entry in raw.get("filters") or []:
        entry = _as_mapping(entry, f"{where}.filters")
        _check_keys(entry, {"dimension", "level", "members"}, f"{where}.filters")
        if "dimension" not in entry or "members" not in entry:
            raise ConfigError(f"{where}.filters: entry needs dimension and members")
        members = entry["members"]
        if not isinstance(members, Sequence) or isinstance(members, str):
            raise ConfigError(f"{where}.filters: members must be a list")
        members = tuple(str(m) for m in members)
        if "level" in entry:
            filters.append((str(entry["dimension"]), str(entry["level"]), members))
        else:
            filters.append((str(entry["dimension"]), members))
    return AggregateQuery(measure, tuple(group_by), tuple(filters))


@dataclass(frozen=True)
class PipelineConfig:
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

    def validate(self) -> None:
        self.gen.validate()
        if not self.fill_constant:
            raise ConfigError("fill_constant must be non-empty")
        self.policy().validate()
        for spec in self.reports:
            spec.validate()
        self.bench.validate()

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
    if raw is None:
        return default
    if isinstance(raw, Mapping):
        _check_keys(raw, {"from", "to"}, where)
        try:
            return int(raw["from"]), int(raw["to"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{where}: need integer 'from' and 'to'") from None
    if isinstance(raw, str) and raw.count(":") == 1:
        lo, _, hi = raw.partition(":")
        try:
            return int(lo), int(hi)
        except ValueError:
            raise ConfigError(f"{where}: bad year range {raw!r}") from None
    raise ConfigError(f"{where}: expected {{from, to}} or 'A:B', got {raw!r}")


def _integer(raw, where: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected an integer") from None


def _int_counts(raw, where: str) -> dict[str, int] | None:
    if raw is None:
        return None
    return {str(k): _integer(v, f"{where}.{k}") for k, v in _as_mapping(raw, where).items()}


def _build_gen(raw: Mapping, seed: int, years: tuple[int, int],
               where: str) -> GenConfig:
    _check_keys(raw, _GEN_KEYS, where)
    kwargs: dict = {"seed": seed, "year_from": years[0], "year_to": years[1]}
    for name in ("counts", "target_bytes"):
        kwargs[name] = _int_counts(raw.get(name), f"{where}.{name}")
    for name in ("duplicate_rate", "blank_rate", "discrepancy_rate"):
        if name in raw:
            try:
                kwargs[name] = float(raw[name])
            except (TypeError, ValueError):
                raise ConfigError(f"{where}.{name}: expected a number") from None
    for name in ("sectors", "congresses_per_city"):
        if name in raw:
            kwargs[name] = _integer(raw[name], f"{where}.{name}")
    return GenConfig(**kwargs)


def _build_reports(raw, years: tuple[int, int], where: str,
                   ) -> tuple[ReportSpec, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise ConfigError(f"{where}: expected a list of report entries")
    specs = []
    for i, entry in enumerate(raw):
        entry_where = f"{where}[{i}]"
        entry = _as_mapping(entry, entry_where)
        _check_keys(entry, _REPORT_KEYS, entry_where)
        if "kind" not in entry:
            raise ConfigError(f"{entry_where}: report needs a kind")
        y_from, y_to = _parse_years(entry.get("years"), f"{entry_where}.years",
                                    years)
        city = entry.get("city")
        city_filter = None
        if city is not None:
            members = [city] if isinstance(city, str) else list(city)
            city_filter = frozenset(str(m) for m in members)
        query = None
        if "query" in entry:
            query = parse_query(entry["query"], f"{entry_where}.query")
        specs.append(ReportSpec(
            kind=str(entry["kind"]), year_from=y_from, year_to=y_to,
            city_filter=city_filter, output=str(entry.get("output", ReportSpec.output)),
            format=str(entry.get("format", ReportSpec.format)), query=query))
    return tuple(specs)


def load_config(path: str | Path) -> PipelineConfig:
    where = str(path)
    raw = _as_mapping(_read_yaml(path), where)
    _check_keys(raw, _TOP_KEYS, where)

    seed = _integer(raw.get("seed", GenConfig.seed), f"{where}.seed")
    years = _parse_years(raw.get("years"), f"{where}.years",
                         (GenConfig.year_from, GenConfig.year_to))
    gen = _build_gen(_as_mapping(raw.get("gen"), f"{where}.gen"), seed, years,
                     f"{where}.gen")
    etl = _as_mapping(raw.get("etl"), f"{where}.etl")
    _check_keys(etl, _ETL_KEYS, f"{where}.etl")
    bench = _as_mapping(raw.get("bench"), f"{where}.bench")
    _check_keys(bench, _BENCH_KEYS, f"{where}.bench")
    bench_queries = []
    for i, entry in enumerate(bench.get("queries") or []):
        entry_where = f"{where}.bench.queries[{i}]"
        entry = _as_mapping(entry, entry_where)
        if "id" not in entry:
            raise ConfigError(f"{entry_where}: query needs an id")
        bench_queries.append((str(entry["id"]),
                              parse_query({k: v for k, v in entry.items()
                                           if k != "id"}, entry_where)))

    config = PipelineConfig(
        data_dir=Path(str(raw.get("data_dir", PipelineConfig.data_dir))),
        warehouse_dir=Path(str(raw.get("warehouse_dir", PipelineConfig.warehouse_dir))),
        gen=gen,
        fill_constant=str(etl.get("fill_constant", PipelineConfig.fill_constant)),
        keep_rule=str(etl.get("keep_rule", PipelineConfig.keep_rule)),
        reports=_build_reports(raw.get("reports"), years, f"{where}.reports"),
        bench=BenchConfig(tuple(bench_queries) or DEFAULT_BENCH_QUERIES,
                          **{name: _integer(bench[name], f"{where}.bench.{name}")
                             for name in ("repetitions", "warmup") if name in bench}),
        bench_output=str(bench.get("output", PipelineConfig.bench_output)),
    )
    config.validate()
    return config


def load_sources(path: str | Path) -> list[SourceSpec]:
    """Source catalog from YAML: formats, layouts, field maps, codebooks."""
    where = str(path)
    raw = _as_mapping(_read_yaml(path), where)
    _check_keys(raw, {"sources"}, where)
    entries = raw.get("sources")
    if not isinstance(entries, Sequence) or isinstance(entries, str):
        raise ConfigError(f"{where}: 'sources' must be a list")
    specs = []
    for i, entry in enumerate(entries):
        entry_where = f"{where}.sources[{i}]"
        entry = _as_mapping(entry, entry_where)
        _check_keys(entry, {"source_id", "city", "format", "path", "encoding",
                            "delimiter", "field_map", "value_codebooks",
                            "layout"}, entry_where)
        for required in ("source_id", "city", "format", "path", "field_map"):
            if required not in entry:
                raise ConfigError(f"{entry_where}: missing {required!r}")
        field_map = {str(k): str(v) for k, v in
                     _as_mapping(entry["field_map"], f"{entry_where}.field_map").items()}
        codebooks = _codebooks(entry.get("value_codebooks"), f"{entry_where}.value_codebooks")
        layout = []
        for j, fd in enumerate(entry.get("layout") or []):
            fd = _as_mapping(fd, f"{entry_where}.layout[{j}]")
            _check_keys(fd, {"name", "kind", "length", "offset", "decimals"},
                        f"{entry_where}.layout[{j}]")
            try:
                layout.append(FieldDescriptor(
                    name=str(fd["name"]), kind=str(fd["kind"]),
                    length=int(fd["length"]), offset=int(fd.get("offset", FieldDescriptor.offset)),
                    decimals=int(fd.get("decimals", FieldDescriptor.decimals))))
            except (KeyError, TypeError, ValueError):
                raise ConfigError(
                    f"{entry_where}.layout[{j}]: needs name, kind, length") from None
        spec = SourceSpec(
            source_id=str(entry["source_id"]), city=str(entry["city"]),
            format=str(entry["format"]), path=str(entry["path"]),
            mapping=SchemaMapping(field_map=field_map, value_codebooks=codebooks),
            encoding=str(entry.get("encoding", SourceSpec.encoding)),
            delimiter=str(entry.get("delimiter", SourceSpec.delimiter)), layout=tuple(layout))
        spec.validate()
        specs.append(spec)
    if not specs:
        raise ConfigError(f"{where}: no sources defined")
    return specs


def load_hierarchy(path: str | Path) -> ConceptHierarchy:
    where = str(path)
    raw = _as_mapping(_read_yaml(path), where)
    _check_keys(raw, {"levels", "tree"}, where)
    levels = raw.get("levels")
    if not isinstance(levels, Sequence) or isinstance(levels, str) or not levels:
        raise ConfigError(f"{where}: 'levels' must be a list of level names")
    tree = _as_mapping(raw.get("tree"), f"{where}.tree")
    return ConceptHierarchy.from_tree([str(lv) for lv in levels], tree)


def _codebooks(raw, where: str) -> dict[str, dict[str, str]]:
    """{field: {code: value}} as text, from a YAML mapping of mappings."""
    return {str(name): {str(code): str(value) for code, value in
                        _as_mapping(book, f"{where}.{name}").items()}
            for name, book in _as_mapping(raw, where).items()}


def load_codebooks(path: str | Path) -> dict[str, dict[str, str]]:
    return _codebooks(_read_yaml(path), str(path))

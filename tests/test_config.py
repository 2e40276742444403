"""Pipeline config files: the shipped profiles, the defaults of an empty file,
the one query grammar, and loaders that fail closed on any malformed value."""

import copy
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from jobcube.bench import BenchConfig
from jobcube.config import (DEFAULT_BENCH_QUERIES, MAX_CODES, PipelineConfig, load_codebooks,
                            load_config, load_hierarchy, load_sources, parse_query)
from jobcube.cube import AggregateQuery, YearSpan
from jobcube.datagen import GenConfig
from jobcube.errors import BadHierarchy, BadPolicy, ConfigError, JobcubeError
from jobcube.preprocess import CleaningPolicy, ConceptHierarchy
from jobcube.records import NULLABLE_FIELDS
from jobcube.reporting import ReportSpec
from jobcube.sources import FieldDescriptor, SourceSpec

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads_as_written(path):
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    config = load_config(path)
    assert config.gen.seed == raw["seed"]
    assert config.data_dir == Path(raw["data_dir"])
    assert config.warehouse_dir == Path(raw["warehouse_dir"])
    assert (config.year_from, config.year_to) == (raw["years"]["from"], raw["years"]["to"])
    for key, value in raw["gen"].items():
        assert getattr(config.gen, key) == value, key
    assert config.fill_constant == raw["etl"]["fill_constant"]
    assert config.keep_rule == raw["etl"]["keep_rule"]
    assert [(s.kind, s.output) for s in config.reports] == \
        [(r["kind"], r["output"]) for r in raw["reports"]]
    assert config.bench.repetitions == raw["bench"]["repetitions"]
    assert config.bench.warmup == raw["bench"]["warmup"]
    assert config.bench_output == raw["bench"]["output"]


def test_empty_config_takes_the_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("", encoding="utf-8")
    config = load_config(path)
    assert (config.data_dir, config.warehouse_dir) == (Path("data"), Path("warehouse"))
    assert (config.year_from, config.year_to) == (2000, 2006)
    assert config.gen.seed == 20060814
    assert config.gen.counts is None and config.gen.target_bytes is None
    policy = config.policy()
    assert policy.fill_constants == {name: "UNKNOWN" for name in NULLABLE_FIELDS}
    assert policy.keep_rule == "latest_application"
    assert config.reports == ()
    assert config.bench.queries == (
        ("seekers_by_sector", AggregateQuery(measure="seekers", group_by=("sector",))),)
    assert (config.bench.repetitions, config.bench.warmup) == (10, 2)
    assert config.bench_output == "reports/bench_report.csv"


FIXED_SPEC = SourceSpec("fw", "CityX", "fixed_width", "x.dat",
                        {"national_id": "NID", "year": "YR", "quarter": "QTR"},
                        layout=(FieldDescriptor("NID", "C", 10), FieldDescriptor("YR", "N", 4, 10),
                                FieldDescriptor("QTR", "C", 1, 14)))

# (a valid object, one bad field value, the error class and message it raises)
INVALID_FIELDS = [
    pytest.param(GenConfig(), {"duplicate_rate": 1.5}, ConfigError,
                 "duplicate_rate must lie in [0,1], got 1.5", id="GenConfig"),
    pytest.param(BenchConfig(DEFAULT_BENCH_QUERIES), {"repetitions": 0}, ConfigError,
                 "repetitions must be >= 1", id="BenchConfig"),
    pytest.param(ReportSpec("seekers_by_sector", 2000, 2006), {"kind": "pie_chart"},
                 ConfigError, "unknown report kind 'pie_chart'", id="ReportSpec"),
    pytest.param(ReportSpec("seekers_by_sector", 2000, 2006), {"query": AggregateQuery()},
                 ConfigError, "a seekers_by_sector report takes no query; only a custom "
                 "report does", id="ReportSpec_query"),
    pytest.param(SourceSpec("src", "CityX", "delimited", "x.csv",
                            {"national_id": "NID", "year": "YR", "quarter": "QTR"}),
                 {"format": "xml"}, ConfigError, "src: unknown format 'xml'", id="SourceSpec"),
    pytest.param(FIXED_SPEC, {"layout": (FieldDescriptor("NID", "Q", 10),)}, ConfigError,
                 "fw: NID: unsupported field kind 'Q'", id="SourceSpec_layout_kind"),
    pytest.param(FIXED_SPEC, {"layout": (FieldDescriptor("NID", "C", 10),
                                         FieldDescriptor("YR", "N", 4, 8))},
                 ConfigError, "fw: YR: offset 8 overlaps previous field",
                 id="SourceSpec_layout_overlap"),
    pytest.param(FIXED_SPEC, {"layout": (FieldDescriptor("NID", "C", 0),)}, ConfigError,
                 "fw: NID: field length must be >= 1", id="SourceSpec_layout_length"),
    pytest.param(ConceptHierarchy(("district", "congress"), {("district", "D1"): "CG1"}),
                 {"levels": ("solo",)}, BadHierarchy, "need at least two levels",
                 id="ConceptHierarchy"),
    pytest.param(CleaningPolicy(), {"keep_rule": "newest"}, BadPolicy,
                 "unknown keep_rule 'newest'", id="CleaningPolicy"),
    pytest.param(PipelineConfig(), {"fill_constant": ""}, ConfigError,
                 "fill_constant must be non-empty", id="PipelineConfig"),
    pytest.param(PipelineConfig(), {"keep_rule": "newest"}, BadPolicy,
                 "unknown keep_rule 'newest'", id="PipelineConfig_keep_rule"),
]


@pytest.mark.parametrize("make", ["constructor", "replace"])
@pytest.mark.parametrize("valid, bad, error, message", INVALID_FIELDS)
def test_config_objects_refuse_bad_values(valid, bad, error, message, make):
    """A config object checks itself when made, by its constructor or by replace."""
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        if make == "constructor":
            type(valid)(**{f.name: getattr(valid, f.name) for f in fields(valid)} | bad)
        else:
            replace(valid, **bad)
    assert type(caught.value) is error


YAML_WHERE = {key: f"q.{key}" for key in ("measure", "group_by", "filters", "years")}


class TestQueryGrammar:
    def test_flag_text_to_query(self):
        query = parse_query("seekers", "congress:city, sector", ["city=Tripoli, Sirte",
                                                                 "time:year=2003"],
                            "2001:2004", YAML_WHERE)
        assert query == AggregateQuery(
            "seekers", (("congress", "city"), "sector"),
            (("time", "year", YearSpan(2001, 2004)),
             ("city", ("Tripoli", "Sirte")), ("time", "year", ("2003",))))
        assert tuple(query.filters[0][2]) == ("2001", "2002", "2003", "2004")
        assert parse_query("total", "", [], "2005", YAML_WHERE) == AggregateQuery(
            "total", (), (("time", "year", YearSpan(2005, 2005)),))

    @pytest.mark.parametrize("args, message", [
        (("count", None, [], None), "q.measure: unknown measure 'count'"),
        (("total", ["sector"], [], None), "q.group_by: expected 'dim[:level],...', got"),
        (("total", None, ["city="], None), "q.filters: expected 'dim[:level]=m1,m2', got 'city='"),
        (("total", None, ["city"], None), "q.filters: expected 'dim[:level]=m1,m2', got 'city'"),
        (("total", None, ["city=,"], None), "q.filters: expected 'dim[:level]=m1,m2', got"),
        (("total", None, [{"dimension": "city", "members": ["Sirte"]}], None),
         "q.filters: expected 'dim[:level]=m1,m2', got {'dimension'"),
        (("total", None, [], "x"), "q.years: bad range 'x'"),
        (("total", None, [], "2006:2000"), "q.years: empty range '2006:2000'"),
        (("total", None, [], True), "q.years: expected 'A' or 'A:B', got True"),
    ])
    def test_malformed_query_names_its_key(self, args, message):
        with pytest.raises(ConfigError) as info:
            parse_query(*args, YAML_WHERE)
        assert str(info.value).startswith(message), info.value

    @pytest.mark.parametrize("text, key", [
        ("years: {from: 2006, to: 2000}", "years"),
        ("reports: [{kind: service_counts, years: {from: 2006, to: 2000}}]", "reports[0].years"),
    ])
    def test_empty_from_to_range_names_its_key(self, tmp_path, text, key):
        """The {from, to} form is checked by the rule the text form follows."""
        path = tmp_path / "y2.yaml"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}.{key}: empty range '2006:2000'"
        assert info.value.exit_code == 1

    @pytest.mark.parametrize("entry, key", [
        ({"id": "q", "group_by": [{"dimension": "congress", "level": "city"}]},
         "bench.queries[0].group_by"),
        ({"id": "q", "filters": [{"dimension": "city", "members": ["Sirte"]}]},
         "bench.queries[0].filters"),
        ({"id": "q", "filters": "city=Sirte"}, "bench.queries[0].filters"),
        ({"id": "q", "members": ["Sirte"]}, "bench.queries[0]: unknown keys ['members']"),
        ({"group_by": "sector"}, "bench.queries[0]: missing 'id'"),
    ])
    def test_mapping_form_is_refused(self, tmp_path, entry, key):
        path = tmp_path / "old.yaml"
        path.write_text(yaml.safe_dump({"bench": {"queries": [entry]}}), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}.{key}"), info.value

    def test_top_level_years_string_uses_the_query_year_range(self, tmp_path):
        path = tmp_path / "years.yaml"
        for text, years in (("2003", (2003, 2003)), ("2001:2004", (2001, 2004))):
            path.write_text(yaml.safe_dump({"years": text}), encoding="utf-8")
            config = load_config(path)
            assert (config.year_from, config.year_to) == years
        path.write_text(yaml.safe_dump({"years": "2006:2000"}), encoding="utf-8")
        with pytest.raises(ConfigError, match="years: empty range '2006:2000'"):
            load_config(path)

    def test_unquoted_one_year_range_loads(self, tmp_path):
        """YAML reads `years: 2003` as an int, which is the range 2003:2003, at
        the top level, in a report and in a query mapping; a bool is still no range."""
        path = tmp_path / "years.yaml"
        path.write_text("years: 2003\n", encoding="utf-8")
        config = load_config(path)
        assert (config.year_from, config.year_to) == (2003, 2003)
        path.write_text("reports: [{kind: service_counts, years: 2004}]\n", encoding="utf-8")
        report = load_config(path).reports[0]
        assert (report.year_from, report.year_to) == (2004, 2004)
        want = AggregateQuery("total", (), (("time", "year", YearSpan(2003, 2003)),))
        assert parse_query("total", None, [], 2003, YAML_WHERE) == want
        path.write_text("reports: [{kind: custom, query: {years: 2003}}]\n"
                        "bench: {queries: [{id: q, years: 2003}]}\n", encoding="utf-8")
        config = load_config(path)
        assert config.reports[0].query == want
        assert config.bench.queries == (("q", want),)
        path.write_text("years: true\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="years: expected 'A' or 'A:B', got True"):
            load_config(path)


@pytest.mark.parametrize("sectors", [12, "12"])
def test_integer_text_reads_as_its_value(tmp_path, sectors):
    """Text of ASCII digits is an integer in the config as in a record file."""
    path = tmp_path / "sectors.yaml"
    doc = {"gen": {"sectors": sectors}, "years": {"from": "2001", "to": 2004}}
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    config = load_config(path)
    assert (config.gen.sectors, config.year_from, config.year_to) == (12, 2001, 2004)


# YAML 1.1 reads each of these as an integer; the config loader reads them as
# text, which the key's integer check refuses as it refuses the quoted text
@pytest.mark.parametrize("text, message", [
    ("seed: 1:00", "seed: expected an integer, got '1:00'"),
    ("gen: {sectors: 1_2}", "gen.sectors: expected an integer, got '1_2'"),
    ("gen: {congresses_per_city: 0x4}", "gen.congresses_per_city: expected an integer, got '0x4'"),
    ("seed: 0o7", "seed: expected an integer, got '0o7'"),
    ("seed: 0b101", "seed: expected an integer, got '0b101'"),
    ("seed: +7", "seed: expected an integer, got '+7'"),
    ("years: {from: 2_001, to: 2004}", "years.from: expected an integer, got '2_001'"),
])
def test_yaml_integer_forms_past_ascii_digits_are_refused(tmp_path, text, message):
    path = tmp_path / "forms.yaml"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}.{message}"


def test_yaml_digits_read_as_decimal(tmp_path):
    path = tmp_path / "digits.yaml"
    path.write_text("seed: 010\ngen: {sectors: 012, congresses_per_city: -0}\n"
                    "years: {from: 02001, to: 2004}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="congresses_per_city must be >= 1"):
        load_config(path)
    path.write_text("seed: -010\ngen: {sectors: 012, congresses_per_city: 04}\n"
                    "years: {from: 02001, to: 2004}\n", encoding="utf-8")
    config = load_config(path)
    assert (config.gen.seed, config.gen.sectors, config.gen.congresses_per_city) == (-10, 12, 4)
    assert (config.year_from, config.year_to) == (2001, 2004)


def test_yaml_base_60_years_read_as_the_query_year_range(tmp_path):
    # YAML 1.1 read 20:30 as 1230, which the years check refused
    path = tmp_path / "years.yaml"
    path.write_text("years: 20:30\n", encoding="utf-8")
    config = load_config(path)
    assert (config.year_from, config.year_to) == (20, 30)


def test_a_tagged_integer_is_read_by_the_same_rule(tmp_path):
    path = tmp_path / "tagged.yaml"
    path.write_text("seed: !!int 42\n", encoding="utf-8")
    assert load_config(path).gen.seed == 42
    path.write_text("seed: !!int 0x4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"not valid YAML: not an integer: '0x4'"):
        load_config(path)


@pytest.mark.parametrize("name", ["sectors", "congresses_per_city"])
def test_code_counts_are_bounded(name):
    assert getattr(GenConfig(**{name: MAX_CODES}), name) == MAX_CODES
    with pytest.raises(ConfigError, match=f"{name} must be <= {MAX_CODES}"):
        GenConfig(**{name: MAX_CODES + 1})


@pytest.mark.parametrize("section, error, message", [
    pytest.param({"gen": {"duplicate_rate": 2}}, ConfigError,
                 "gen: duplicate_rate must lie in [0,1], got 2.0", id="gen"),
    pytest.param({"bench": {"repetitions": 0}}, ConfigError,
                 "bench: repetitions must be >= 1", id="bench"),
    pytest.param({"etl": {"keep_rule": "newest"}}, BadPolicy,
                 "etl: unknown keep_rule 'newest'", id="etl_keep_rule"),
    pytest.param({"etl": {"fill_constant": ""}}, ConfigError,
                 "etl: fill_constant must be non-empty", id="etl_fill_constant"),
])
def test_a_config_object_error_names_its_file_and_section(tmp_path, section, error, message):
    """A value each key's reader takes but its config object's own check
    refuses: the error keeps its class and names the file and the section."""
    path = tmp_path / "ranges.yaml"
    path.write_text(yaml.safe_dump(section), encoding="utf-8")
    with pytest.raises(error) as caught:
        load_config(path)
    assert type(caught.value) is error
    assert str(caught.value) == f"{path}.{message}"


def test_year_span_is_bounded():
    assert GenConfig(year_from=-10 ** 30, year_to=MAX_CODES - 1 - 10 ** 30).year_from == -10 ** 30
    with pytest.raises(ConfigError, match=f"year range 0:{MAX_CODES} spans more than"):
        GenConfig(year_from=0, year_to=MAX_CODES)


# A valid config that exercises every reader: both year forms, a city list, a
# custom report and a bench query in the flag grammar.
VALID_CONFIG = {
    "seed": 7, "data_dir": "data", "warehouse_dir": "warehouse",
    "years": {"from": 2000, "to": 2006},
    "gen": {"counts": {"tripoli": 9, "misurata": 6, "sirte": 3}, "duplicate_rate": 0.05,
            "blank_rate": 0.03, "discrepancy_rate": 0.1, "sectors": 12,
            "congresses_per_city": 4},
    "etl": {"fill_constant": "UNKNOWN", "keep_rule": "latest_application"},
    "reports": [
        {"kind": "service_counts", "years": "2001:2003", "city": ["Tripoli", "Sirte"],
         "output": "reports/service_counts.csv", "format": "table"},
        {"kind": "custom", "city": "Sirte", "output": "reports/custom.csv",
         "query": {"measure": "seekers", "group_by": "congress:city",
                   "filters": ["time:year=2003,2004"], "years": "2003"}},
    ],
    "bench": {"repetitions": 3, "warmup": 1, "output": "reports/bench.csv",
              "queries": [{"id": "lifted", "group_by": "congress:city,sector",
                           "filters": ["city=Tripoli"], "years": "2000:2002"}]},
}

LOADERS = {"jobcube.yaml": load_config, "sources.yaml": load_sources,
           "hierarchy.yaml": load_hierarchy, "codebooks.yaml": load_codebooks}

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10)


def nested(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3)


# Any YAML value, nested up to two levels.
YAML_VALUES = SCALARS | nested(SCALARS | nested(SCALARS))


def key_paths(node, path=()):
    """The path of every value inside a YAML document, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from key_paths(child, path + (key,))


@pytest.fixture(scope="module")
def valid_documents(gen_small, tmp_path_factory):
    """One valid document per loader, and a directory to write variants into."""
    docs = {name: yaml.safe_load((gen_small.out_dir / name).read_text(encoding="utf-8"))
            for name in ("sources.yaml", "hierarchy.yaml", "codebooks.yaml")}
    docs["jobcube.yaml"] = VALID_CONFIG
    work = tmp_path_factory.mktemp("fail_closed")
    for name, doc in docs.items():
        (work / name).write_text(yaml.safe_dump(doc), encoding="utf-8")
        LOADERS[name](work / name)          # each starts out valid
    return docs, work


def must_be_text(name: str, path: tuple) -> bool:
    """Whether the value at path is read as text (a path, label or name)."""
    if name == "jobcube.yaml":
        return path in {("data_dir",), ("warehouse_dir",), ("etl", "fill_constant"),
                        ("etl", "keep_rule"), ("bench", "output")} or (
            len(path) == 3 and path[0] == "reports" and path[2] in {"kind", "output", "format"})
    if name == "sources.yaml":
        return (len(path) == 3 and path[2] in {"format", "path", "encoding", "delimiter"}
                or len(path) == 4 and path[2] == "field_map"
                or len(path) == 5 and path[2] == "layout" and path[4] in {"name", "kind"})
    return False


def key_path_text(path: tuple) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loaders_fail_closed(valid_documents, name, data):
    """Any one value swapped for any YAML value loads or raises a JobcubeError;
    where the value must be text and is not, the error names its key path."""
    docs, work = valid_documents
    doc = copy.deepcopy(docs[name])
    paths = list(key_paths(doc))
    text_paths = [p for p in paths if must_be_text(name, p)] or paths
    key_path = data.draw(st.sampled_from(paths) | st.sampled_from(text_paths), label="path")
    *parents, last = key_path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value = data.draw(YAML_VALUES, label="value")
    path = work / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    refused = must_be_text(name, key_path) and not isinstance(value, str)
    try:
        LOADERS[name](path)
    except JobcubeError as exc:
        if refused:
            assert str(exc).startswith(f"{path}{key_path_text(key_path)}: expected text"), exc
    else:
        assert not refused, f"{key_path_text(key_path)}: loaded {value!r}"

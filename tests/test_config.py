"""Pipeline config files: the shipped profiles and the defaults of an empty file."""

from pathlib import Path

import pytest
import yaml

from jobcube.config import load_config
from jobcube.cube import AggregateQuery
from jobcube.records import NULLABLE_FIELDS

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

"""The package surface: one export table, each module loaded on first use,
and a `jobcube query` process that loads no stage module it does not run."""

import subprocess
import sys
from importlib import import_module

import pytest
import yaml

import jobcube
from jobcube.cli import main

EXPORTS = """
    AggregateQuery BenchConfig BenchResult CanonicalApplicant CleaningPolicy ConceptHierarchy
    Cube CubeAxis FieldDescriptor GenConfig GenResult IngestReport JobcubeError
    PreprocessReport QueryTiming ReportSpec ResultTable Rng SourceSpec StarSchema aggregate
    build_cube build_schema check_integrity deduplicate dice dimension_reduce drilldown
    fill_missing generalize generate ingest_sources load_schema logically_equal
    normalize_codes parse_dbf parse_delimited parse_fixed_width persist read_dbf
    read_records_csv record_mapper refresh rollup row_mapper run_benchmark run_pipeline
    run_report run_scan_query slice_cube write_bench_report write_records_csv __version__
""".split()


def test_all_is_the_export_set():
    assert len(jobcube.__all__) == len(set(jobcube.__all__)) == 53
    assert set(jobcube.__all__) == set(EXPORTS)
    assert jobcube.__version__ == "0.1.0"


@pytest.mark.parametrize("module, names", sorted(jobcube._EXPORTS.items()))
def test_each_export_is_its_module_object(module, names):
    defining = import_module(f"jobcube.{module}")
    for name in names.split():
        obj = getattr(jobcube, name)
        assert obj is getattr(defining, name), name
        assert obj.__module__ == defining.__name__, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from jobcube import *", namespace)
    assert {name: namespace[name] for name in jobcube.__all__} == {
        name: getattr(jobcube, name) for name in jobcube.__all__}


def test_other_names_are_not_attributes_and_submodules_still_import():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        jobcube.no_such_name
    from jobcube import cli
    from jobcube import warehouse as warehouse_module
    assert cli.__name__ == "jobcube.cli"
    assert warehouse_module.persist is jobcube.persist


def test_importing_one_module_loads_only_its_imports():
    probe = ("import sys, jobcube.records\n"
             "print(' '.join(sorted(m for m in sys.modules\n"
             "                      if m == 'numpy' or m.startswith('jobcube'))))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["jobcube", "jobcube.errors", "jobcube.records"]


# modules a query never runs: the gen, ingest, etl and bench stages, and bench's statistics
NOT_FOR_A_QUERY = {"jobcube.datagen", "jobcube.sources", "jobcube.bench",
                   "jobcube.preprocess", "statistics"}


def test_a_cold_query_answers_without_the_stage_modules(tmp_path, capsys):
    cfg = tmp_path / "jobcube.yaml"
    cfg.write_text(yaml.safe_dump({
        "data_dir": str(tmp_path / "data"), "warehouse_dir": str(tmp_path / "warehouse"),
        "gen": {"counts": {"tripoli": 60, "misurata": 40, "sirte": 20}}}), encoding="utf-8")
    query = ["query", "-c", str(cfg), "--measure", "seekers", "--group-by", "sector",
             "--years", "2001:2004"]
    for command in ("gen", "ingest", "etl", "load"):
        assert main([command, "-c", str(cfg)]) == 0, command
    capsys.readouterr()
    assert main(query) == 0
    answer = capsys.readouterr().out
    assert answer.startswith("sector,seekers\n") and answer.count("\n") > 2
    # -X importtime names on stderr every module the process imports
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "jobcube.cli", *query],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, answer)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"jobcube.config", "jobcube.cube", "jobcube.warehouse"} <= imported
    assert imported.isdisjoint(NOT_FOR_A_QUERY), sorted(imported & NOT_FOR_A_QUERY)

"""The three workloads: set-up, the measured closed loop, correctness gates.

Every workload is a single client in a closed loop: the next call starts only
when the previous one has returned. Timed calls go through jobcube's public
functions (or its command line) and nothing else. With a tracer enabled the
same calls are wrapped in spans named ``<module>.<step>``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path

import yaml

from jobcube import (
    AggregateQuery,
    BenchConfig,
    aggregate,
    build_cube,
    build_schema,
    check_integrity,
    deduplicate,
    dice,
    dimension_reduce,
    drilldown,
    fill_missing,
    generalize,
    generate,
    ingest_sources,
    load_schema,
    logically_equal,
    normalize_codes,
    parse_dbf,
    parse_delimited,
    parse_fixed_width,
    persist,
    read_records_csv,
    refresh,
    rollup,
    run_benchmark,
    run_pipeline,
    run_report,
    run_scan_query,
    slice_cube,
    write_records_csv,
)
from jobcube import cli
from jobcube.config import load_codebooks, load_config, load_hierarchy, load_sources
from jobcube.datagen import read_gen_manifest
from jobcube.records import DIMENSIONS, STATUS_SEEKER, WAREHOUSE_REQUIRED_FIELDS

import fair
from measure import Tally, Tracer

# ---------------------------------------------------------------------------
# Workload shapes

SETUP_RUNS = 3              # set-ups per untraced run; setup_s is their median
REFRESH_EPOCHS = 3          # epochs per refresh round, after the base slice
OLAP_NAV_REPS = 2           # passes over the navigation ops per olap cycle
REPORT_KINDS = ("seekers_by_sector", "seekers_vs_directed", "edu_level_counts",
                "service_counts")


@dataclass(frozen=True)
class Shape:
    persons: int
    gen: dict               # generator keys beyond the person counts

    def counts(self) -> dict[str, int]:
        # the default config's 3:2:1 split across the three city offices
        tripoli, misurata = self.persons // 2, self.persons // 3
        return {"tripoli": tripoli, "misurata": misurata,
                "sirte": self.persons - tripoli - misurata}


SHAPES = {
    "batch": Shape(15_000, {}),
    "olap": Shape(30_000, {}),
    "refresh": Shape(30_000, {"sectors": 48, "congresses_per_city": 12}),
}


@dataclass(frozen=True)
class Run:
    workload: str
    seed: int
    work: Path              # scratch directory inside the checkout
    src: Path               # the program's source tree, for child processes

    @property
    def cfg_path(self) -> Path:
        return self.work / "jobcube.yaml"

    @property
    def base_wh(self) -> Path:
        return self.work / "base_warehouse"

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        return env


def write_config(run: Run) -> None:
    shape = SHAPES[run.workload]
    config = {
        "seed": run.seed,
        "data_dir": str(run.work / "data"),
        "warehouse_dir": str(run.work / "warehouse"),
        "years": {"from": 2000, "to": 2006},
        "gen": {"counts": shape.counts(), **shape.gen},
        "etl": {"fill_constant": "UNKNOWN", "keep_rule": "latest_application"},
        "reports": [{"kind": kind} for kind in REPORT_KINDS],
    }
    run.cfg_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")


def closed_loop(seconds: float, cycle, tally: Tally, tr: Tracer) -> int:
    """Run whole cycles until `seconds` have passed; stop at the first failure.

    A JobcubeError or any other exception the program raises counts as a
    failed operation, never as a crash of the benchmark. With tracing on,
    only odd cycles are traced, so traced and untraced cycles see the same
    machine conditions and their difference is the tracing overhead.
    """
    deadline = time.perf_counter() + seconds
    tracing = tr.enabled
    done = 0
    while True:
        tr.enabled = tracing and done % 2 == 1
        tr.trace = f"cycle{done}"
        try:
            ok = cycle(done)
        except Exception as exc:  # the program under test failed; count it
            ok = tally.record(False, f"cycle {done}: {type(exc).__name__}: {exc}")
        done += 1
        if not ok or time.perf_counter() >= deadline:
            tr.enabled = tracing
            tr.trace = "run"
            return done


def timed(tr: Tracer, name: str, fn, *args, **kwargs):
    """Call fn inside a span; return (result, seconds)."""
    with tr.span(name):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
    return result, elapsed


# ---------------------------------------------------------------------------
# The pipeline through public functions (set-up, and the traced batch pass)

PARSERS = {
    "dbf": lambda data, spec: parse_dbf(data, encoding=spec.encoding,
                                        source_id=spec.source_id),
    "fixed_width": lambda data, spec: parse_fixed_width(
        data, spec.layout, encoding=spec.encoding, source_id=spec.source_id),
    "delimited": lambda data, spec: parse_delimited(
        data, spec.delimiter, True, encoding=spec.encoding, source_id=spec.source_id),
}


def pipeline(config, tr: Tracer, *, load: bool = True) -> dict:
    """ingest -> etl (step by step) -> load, as the three CLI stages do.

    With tracing on, each source is also parsed on its own first, so the
    per-format parse time can be split out of ingest_sources.
    """
    data = Path(config.data_dir)
    specs = load_sources(config.sources_path())
    parse_s = 0.0
    if tr.enabled:
        for spec in specs:
            raw = (data / spec.path).read_bytes()
            _, elapsed = timed(tr, f"sources.parse_{spec.format}",
                               PARSERS[spec.format], raw, spec)
            parse_s += elapsed
    records, ingest = timed(tr, "sources.ingest", ingest_sources, specs, data)[0]
    timed(tr, "records.write_staging", write_records_csv, records, config.staging_path())
    staged, _ = timed(tr, "records.read_staging", read_records_csv, config.staging_path())

    codebooks = load_codebooks(config.codebooks_path())
    hierarchy = load_hierarchy(config.hierarchy_path())
    policy = config.policy()
    fill = (policy.fill_constants.get("congress")
            or policy.fill_constants.get("district") or "UNKNOWN")
    (recs, norm), _ = timed(tr, "preprocess.normalize", normalize_codes, staged, codebooks)
    (recs, filled), _ = timed(tr, "preprocess.fill", fill_missing, recs, policy)
    (recs, dedup), _ = timed(tr, "preprocess.dedup", deduplicate, recs, policy)
    (recs, gen), _ = timed(tr, "preprocess.generalize", generalize, recs, hierarchy,
                           "district", "congress", fill=fill)
    clean, _ = timed(tr, "preprocess.reduce", dimension_reduce, recs,
                     WAREHOUSE_REQUIRED_FIELDS)
    timed(tr, "records.write_clean", write_records_csv, clean, config.clean_path())

    counters = {
        "read": sum(c.records_read for c in ingest.per_source.values()),
        "ok": ingest.total_ok(),
        "rejected": sum(c.records_rejected for c in ingest.per_source.values()),
        "duplicates_removed": dedup.duplicates_removed,
        "values_filled": filled.filled_total(),
        "values_normalized": norm.normalized_total(),
        "values_unmatched": norm.values_unmatched,
        "records_generalized": gen.records_generalized,
        "unknown_hierarchy_values": gen.unknown_hierarchy_values,
        "rejected_empty_key": len(dedup.rejected),
    }
    tr.count("sources.rows_read", counters["read"])
    tr.count("sources.rows_rejected", counters["rejected"])
    tr.count("preprocess.rows_in", len(staged))
    tr.count("preprocess.rows_out", len(clean))
    tr.count("preprocess.duplicates_removed", counters["duplicates_removed"])
    tr.count("preprocess.values_normalized", counters["values_normalized"])
    tr.count("preprocess.values_filled", counters["values_filled"])
    out = {"counters": counters, "staged": staged, "clean": clean,
           "parse_s": parse_s, "problems": []}
    if load:
        clean, _ = timed(tr, "records.read_clean", read_records_csv, config.clean_path())
        out["problems"] = load_warehouse(config, tr, clean, hierarchy,
                                         Path(config.warehouse_dir))
    return out


def load_warehouse(config, tr: Tracer, records, hierarchy, target: Path) -> list[str]:
    years = (config.year_from, config.year_to)
    schema, _ = timed(tr, "warehouse.build_schema", build_schema, records, years, hierarchy)
    issues, _ = timed(tr, "warehouse.check_integrity", check_integrity, schema)
    timed(tr, "warehouse.persist", persist, schema, target)
    tr.count("warehouse.fact_rows", len(schema.facts))
    tr.count("warehouse.bytes_written", dir_bytes(target))
    return issues


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def refresh_order(records) -> list:
    """City, then year: later slices add new city and congress members."""
    return sorted(records, key=lambda r: (r.city, r.year, r.quarter, r.national_id))


def refresh_slices(ordered) -> list:
    """Cumulative slices: base = 1/(E+1) of the records, epoch k = (k+1)/(E+1)."""
    parts = REFRESH_EPOCHS + 1
    return [ordered[:len(ordered) * (k + 1) // parts] for k in range(parts)]


def setup(run: Run, tr: Tracer) -> dict:
    """Generate the inputs and reach the workload's start state."""
    for sub in ("data", "warehouse", "base_warehouse"):
        shutil.rmtree(run.work / sub, ignore_errors=True)
    write_config(run)
    started = time.perf_counter()
    config = load_config(run.cfg_path)
    result, _ = timed(tr, "datagen.generate", generate, config.gen, config.data_dir)
    tr.count("datagen.wire_rows", result.expect.wire_rows)
    tr.count("datagen.bytes", sum(result.files[c].stat().st_size
                                  for c in ("tripoli", "misurata", "sirte")))
    problems: list[str] = []
    if run.workload == "olap":
        problems = pipeline(config, tr)["problems"]
    elif run.workload == "refresh":
        clean = pipeline(config, tr, load=False)["clean"]
        base = refresh_slices(refresh_order(clean))[0]
        problems = load_warehouse(config, tr, base,
                                  load_hierarchy(config.hierarchy_path()), run.base_wh)
    return {"setup_s": time.perf_counter() - started, "problems": problems}


# ---------------------------------------------------------------------------
# batch: ingest -> etl -> load through jobcube.cli.main, in-process

_INGEST_LINE = re.compile(r"\[ingest\] \w+: read=(\d+) ok=(\d+) rejected=(\d+)")
_ETL_LINE = re.compile(r"\[etl\] (\w+)=(\d+)$", re.MULTILINE)


def cli_pass(cfg_path: Path) -> tuple[list[int], str]:
    stderr = io.StringIO()
    with redirect_stderr(stderr):
        codes = [cli.main([cmd, "-c", str(cfg_path)]) for cmd in ("ingest", "etl", "load")]
    return codes, stderr.getvalue()


def parse_counters(stderr: str) -> dict:
    counters = {"read": 0, "ok": 0, "rejected": 0}
    for read, ok, rejected in _INGEST_LINE.findall(stderr):
        counters["read"] += int(read)
        counters["ok"] += int(ok)
        counters["rejected"] += int(rejected)
    counters.update({k: int(v) for k, v in _ETL_LINE.findall(stderr)})
    return counters


def counter_problems(counters: dict, manifest: dict) -> list[str]:
    want = {
        "read": manifest["wire_rows"],
        "ok": manifest["wire_rows"],
        "rejected": 0,
        "duplicates_removed": manifest["expected_duplicates_removed"],
        "values_filled": sum(manifest["expected_filled"].values()),
        "values_normalized": sum(manifest["expected_normalized"].values()),
        "values_unmatched": manifest["expected_unmatched"],
        "records_generalized": manifest["expected_generalized"],
        "unknown_hierarchy_values": manifest["expected_unknown_hierarchy"],
        "rejected_empty_key": 0,
    }
    return [f"{k}={counters.get(k)} want {v}" for k, v in want.items()
            if counters.get(k) != v]


def measure_batch(run: Run, tr: Tracer, seconds: float, tally: Tally) -> dict:
    config = load_config(run.cfg_path)
    data = Path(config.data_dir)
    manifest = read_gen_manifest(data / "gen_manifest.txt")
    truth = (data / "truth.csv").read_bytes()
    passes: list[float] = []
    pipeline_checked = False

    def cycle(i: int) -> bool:
        nonlocal pipeline_checked
        problems: list[str] = []
        if tr.enabled:
            with tr.span("cycle"):
                started = time.perf_counter()
                out = pipeline(config, tr)
                # the per-source parses are extra work the CLI does not do
                passes.append(time.perf_counter() - started - out["parse_s"])
            counters, problems = out["counters"], out["problems"]
            if not pipeline_checked:
                pipeline_checked = True
                with tr.span("gate.run_pipeline"):
                    whole, _ = run_pipeline(
                        out["staged"], codebooks=load_codebooks(config.codebooks_path()),
                        policy=config.policy(),
                        hierarchy=load_hierarchy(config.hierarchy_path()))
                if whole != out["clean"]:
                    problems.append("step-by-step ETL differs from run_pipeline")
        else:
            started = time.perf_counter()
            codes, stderr = cli_pass(run.cfg_path)
            passes.append(time.perf_counter() - started)
            counters = parse_counters(stderr)
            if codes != [0, 0, 0]:
                problems.append(f"exit codes {codes}")
        problems += counter_problems(counters, manifest)
        if config.clean_path().read_bytes() != truth:
            problems.append("clean.csv differs from truth.csv")
        schema, _ = timed(tr, "warehouse.load_schema", load_schema, config.warehouse_dir)
        problems += check_integrity(schema)
        return tally.expect(problems, f"batch pass {i}")

    closed_loop(seconds, cycle, tally, tr)
    rows_per_s = [manifest["wire_rows"] / p for p in passes]
    return {"op": passes, "cycle": passes, "rows_per_s": rows_per_s}


# ---------------------------------------------------------------------------
# olap: warm query mix plus cold `jobcube query` processes

YEARS_2001_2004 = ("2001", "2002", "2003", "2004")
AGG_QUERIES = (
    ("seekers_by_sector", AggregateQuery("seekers", ("sector",))),
    ("total_by_city", AggregateQuery("total", ("city",))),
    ("total_by_congress_city_2001_2004",
     AggregateQuery("total", (("congress", "city"),), (("time", "year", YEARS_2001_2004),))),
    ("total_by_year", AggregateQuery("total", (("time", "year"),))),
    ("directed_by_edulevel_year_sirte",
     AggregateQuery("directed", ("edulevel", ("time", "year")), (("city", ("Sirte",)),))),
    ("seekers_by_edulevel_tripoli",
     AggregateQuery("seekers", ("edulevel",), (("city", ("Tripoli",)),))),
    ("total_by_service_year_misurata",
     AggregateQuery("total", ("service", ("time", "year")),
                    (("congress", "city", ("Misurata",)),))),
    ("total_higher_education",
     AggregateQuery("total", (), (("edulevel", ("university", "postgraduate")),))),
)
# Fresh-process queries, each the CLI spelling of one AGG_QUERIES entry.
COLD_QUERIES = (
    ("seekers_by_sector", ["--measure", "seekers", "--group-by", "sector"]),
    ("total_by_congress_city_2001_2004",
     ["--measure", "total", "--group-by", "congress:city", "--years", "2001:2004"]),
    ("directed_by_edulevel_year_sirte",
     ["--measure", "directed", "--group-by", "edulevel,time:year", "--filter", "city=Sirte"]),
)
ALL_YEARS = tuple(str(y) for y in range(2000, 2007))
REPORT_QUERIES = (
    ("report_seekers", AggregateQuery("seekers", ("sector",), (("time", "year", ALL_YEARS),))),
    ("report_directed", AggregateQuery("directed", ("sector",), (("time", "year", ALL_YEARS),))),
    ("report_edulevel", AggregateQuery("total", ("edulevel",), (("time", "year", ALL_YEARS),))),
    ("report_service", AggregateQuery("total", ("service",), (("time", "year", ALL_YEARS),))),
)
DICE_FILTERS = (
    (("edulevel", ("primary", "secondary")), ("service", ("exempt", "deferred"))),
    (("city", ("Tripoli", "Sirte")), ("sector", ("",))),
)


def as_json(table) -> dict:
    """The table as plain JSON values; numpy scalars compare by value."""
    return json.loads(json.dumps({"columns": table.columns, "rows": table.rows},
                                 default=lambda v: v.item() if hasattr(v, "item") else str(v)))


def as_csv(table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    return buf.getvalue()


def congress_parents(schema) -> dict[str, str]:
    return {r.natural_key: r.attributes.get("city", r.natural_key)
            for r in schema.dimensions["congress"].rows}


def olap_expected(run: Run) -> dict:
    """Row-scan answers for every distinct olap query, computed before timing."""
    config = load_config(run.cfg_path)
    records = read_records_csv(config.clean_path())
    parents = congress_parents(load_schema(config.warehouse_dir))
    return {qid: as_json(run_scan_query(records, query, parents))
            for qid, query in AGG_QUERIES + REPORT_QUERIES}


def expected_reports(expected: dict) -> dict[str, dict]:
    seekers = dict(map(tuple, expected["report_seekers"]["rows"]))
    directed = dict(map(tuple, expected["report_directed"]["rows"]))
    joined = [[s, seekers.get(s, 0), directed.get(s, 0)]
              for s in sorted(set(seekers) | set(directed))]
    return {
        "seekers_by_sector": expected["report_seekers"],
        "seekers_vs_directed": {"columns": ["sector", "seekers", "directed"], "rows": joined},
        "edu_level_counts": expected["report_edulevel"],
        "service_counts": expected["report_service"],
    }


def navigation_ops(cube) -> list[tuple[str, str, object, tuple]]:
    """(kind, label, thunk, filters) for the roll-up, drill-down, slice and
    dice mix; the result's mass must equal aggregate() under `filters`."""
    by_year = rollup(cube, "time", "year")
    by_city = rollup(cube, "congress", "city")
    ops = [
        ("rollup", "time->year", lambda: rollup(cube, "time", "year"), ()),
        ("rollup", "congress->city", lambda: rollup(cube, "congress", "city"), ()),
        ("drilldown", "year->quarter",
         lambda: drilldown(by_year, cube, "time", "quarter"), ()),
        ("drilldown", "city->congress",
         lambda: drilldown(by_city, cube, "congress", "congress"), ()),
        ("slice", "city=Tripoli", lambda: slice_cube(cube, "city", "Tripoli"),
         (("city", ("Tripoli",)),)),
        ("slice", "service=exempt", lambda: slice_cube(cube, "service", "exempt"),
         (("service", ("exempt",)),)),
    ]
    for i, filters in enumerate(DICE_FILTERS):
        ops.append(("dice", f"dice{i}", lambda f=filters: dice(cube, f), filters))
    return ops


def grand_totals(cube, filters=()) -> tuple[int, int, int]:
    return tuple(aggregate(cube, AggregateQuery(m, (), filters)).rows[0][0]
                 for m in ("total", "seekers", "directed"))


def navigation_problems(cube, ops) -> list[str]:
    """Roll-up, drill-down, slice and dice conserve mass against aggregate."""
    problems = []
    if cube.mass() != grand_totals(cube):
        problems.append(f"cube mass {cube.mass()} != aggregate {grand_totals(cube)}")
    for kind, label, thunk, filters in ops:
        mass, want = thunk().mass(), grand_totals(cube, filters)
        if mass != want:
            problems.append(f"{kind} {label}: mass {mass} != {want}")
    return problems


def measure_olap(run: Run, tr: Tracer, seconds: float, tally: Tally) -> dict:
    config = load_config(run.cfg_path)
    expected = json.loads((run.work / "expected.json").read_text(encoding="utf-8"))
    schema, _ = timed(tr, "warehouse.load_schema", load_schema, config.warehouse_dir)
    cube, _ = timed(tr, "cube.build_cube", build_cube, schema)
    timed(tr, "cube.first_aggregate", aggregate, cube, AGG_QUERIES[0][1])

    # Gates before timing; every distinct query also warms the lazy caches.
    answers = {}
    for qid, query in AGG_QUERIES:
        answers[qid] = aggregate(cube, query)
        tally.record(as_json(answers[qid]) == expected[qid], f"aggregate {qid} != row scan")
    reports_want = expected_reports(expected)
    reports = {}
    for spec in config.reports:
        reports[spec.kind] = run_report(cube, spec)
        tally.record(as_json(reports[spec.kind]) == reports_want[spec.kind],
                     f"report {spec.kind} != row scan")
    ops = navigation_ops(cube)
    tally.expect(navigation_problems(cube, ops), "navigation mass")
    sizes = [len(op[2]().cells) for op in ops]
    cold_want = {qid: as_csv(answers[qid]) for qid, _ in COLD_QUERIES}

    samples: dict[str, list[float]] = {
        key: [] for key in ("aggregate", "navigate", "rollup", "drilldown", "slice",
                            "dice", "report", "cold", "cycle")}

    def cycle(i: int) -> bool:
        ok = True
        started = time.perf_counter()
        with tr.span("cycle"):
            qid, argv = COLD_QUERIES[i % len(COLD_QUERIES)]
            proc, elapsed = timed(tr, "cli.query", subprocess.run,
                                  [sys.executable, "-m", "jobcube.cli", "query",
                                   "-c", str(run.cfg_path), *argv],
                                  capture_output=True, text=True, env=run.env(),
                                  timeout=120)
            samples["cold"].append(elapsed)
            ok &= tally.record(proc.returncode == 0 and proc.stdout == cold_want[qid],
                               f"cold query {qid}: exit {proc.returncode}")
            # aggregates run between navigation ops, so both spread over the cycle
            for _ in range(OLAP_NAV_REPS):
                for (kind, label, thunk, _), size in zip(ops, sizes):
                    result, elapsed = timed(tr, f"cube.{kind}", thunk)
                    samples[kind].append(elapsed)
                    samples["navigate"].append(elapsed)
                    ok &= tally.record(len(result.cells) == size, f"{kind} {label} cells")
                    for qid, query in AGG_QUERIES:
                        table, elapsed = timed(tr, "cube.aggregate", aggregate, cube, query)
                        samples["aggregate"].append(elapsed)
                        ok &= tally.record(table == answers[qid], f"warm aggregate {qid}")
            for spec in config.reports:
                table, elapsed = timed(tr, "reporting.run_report", run_report, cube, spec)
                samples["report"].append(elapsed)
                ok &= tally.record(table == reports[spec.kind], f"report {spec.kind}")
        samples["cycle"].append(time.perf_counter() - started)
        return ok

    closed_loop(seconds, cycle, tally, tr)
    samples["op"] = samples["aggregate"]
    return samples


# ---------------------------------------------------------------------------
# refresh: epochs that fold larger slices into the warehouse, each then read


def ids_stable(before, after) -> list[str]:
    problems = []
    for dim in DIMENSIONS:
        old = before.dimensions[dim].rows
        new = after.dimensions[dim].rows
        if [(r.surrogate_id, r.natural_key) for r in new[:len(old)]] != \
                [(r.surrogate_id, r.natural_key) for r in old]:
            problems.append(f"{dim}: existing surrogate ids changed")
    return problems


def measure_refresh(run: Run, tr: Tracer, seconds: float, tally: Tally) -> dict:
    config = load_config(run.cfg_path)
    hierarchy = load_hierarchy(config.hierarchy_path())
    years = (config.year_from, config.year_to)
    wh = Path(config.warehouse_dir)
    slices = refresh_slices(refresh_order(read_records_csv(config.clean_path())))[1:]
    seekers = [sum(r.status == STATUS_SEEKER for r in s) for s in slices]
    samples: dict[str, list[float]] = {"write": [], "read": [], "cycle": []}

    def one_round(round_no: int) -> bool:
        shutil.rmtree(wh, ignore_errors=True)
        shutil.copytree(run.base_wh, wh)
        appended = 0
        round_s = 0.0
        for epoch, records in enumerate(slices):
            with tr.span("epoch"):
                started = time.perf_counter()
                schema, _ = timed(tr, "warehouse.load_schema", load_schema, wh)
                new, _ = timed(tr, "warehouse.refresh", refresh, schema, records, hierarchy)
                issues, _ = timed(tr, "warehouse.check_integrity", check_integrity, new)
                timed(tr, "warehouse.persist", persist, new, wh)
                wrote = time.perf_counter()
                reader, _ = timed(tr, "warehouse.load_schema", load_schema, wh)
                cube, _ = timed(tr, "cube.build_cube", build_cube, reader)
                tables = {spec.kind: timed(tr, "reporting.run_report", run_report, cube, spec)[0]
                          for spec in config.reports}
                done = time.perf_counter()
            samples["write"].append(wrote - started)
            samples["read"].append(done - wrote)
            round_s += done - started
            appended += sum(len(new.dimensions[d]) - len(schema.dimensions[d])
                            for d in DIMENSIONS)
            problems = list(issues) + ids_stable(schema, new)
            if round_no == 0:
                with tr.span("gate.rebuild"):
                    if not logically_equal(new, build_schema(records, years, hierarchy)):
                        problems.append("refresh differs from a rebuild")
            if sum(row[-1] for row in tables["edu_level_counts"].rows) != len(records):
                problems.append("edu_level_counts does not sum to the record count")
            if sum(row[-1] for row in tables["seekers_by_sector"].rows) != seekers[epoch]:
                problems.append("seekers_by_sector does not sum to the seeker count")
            if not tally.expect(problems, f"refresh round {round_no} epoch {epoch + 1}"):
                return False
        samples["cycle"].append(round_s)
        if round_no == 0:
            tr.count("warehouse.members_appended", appended)
            tr.count("warehouse.fact_rows", len(new.facts))
            tr.count("warehouse.bytes_written", dir_bytes(wh))
        return True

    closed_loop(seconds, one_round, tally, tr)
    samples["op"] = samples["write"]
    return samples


MEASURE = {"batch": measure_batch, "olap": measure_olap, "refresh": measure_refresh}


# ---------------------------------------------------------------------------
# Traced coverage pass: every layer once, on whatever the workload left behind


def cli_import(run: Run, tr: Tracer, tally: Tally) -> None:
    proc, _ = timed(tr, "cli.import", subprocess.run,
                    [sys.executable, "-c", "import jobcube.cli"],
                    capture_output=True, env=run.env(), timeout=120)
    tally.record(proc.returncode == 0, "import jobcube.cli failed")


def traced_tail(run: Run, tr: Tracer, tally: Tally) -> None:
    """Reader, query mix, bench tiers, CLI import and a refresh-equals-rebuild
    check, so every layer metric is measured on every workload."""
    tr.trace = "tail"
    config = load_config(run.cfg_path)
    schema, _ = timed(tr, "warehouse.load_schema", load_schema, config.warehouse_dir)
    cube, _ = timed(tr, "cube.build_cube", build_cube, schema)
    timed(tr, "cube.first_aggregate", aggregate, cube, AGG_QUERIES[0][1])
    for _ in range(3):
        for _, query in AGG_QUERIES:
            timed(tr, "cube.aggregate", aggregate, cube, query)
        for kind, _, thunk, _ in navigation_ops(cube):
            timed(tr, f"cube.{kind}", thunk)
        for spec in config.reports:
            timed(tr, "reporting.run_report", run_report, cube, spec)
    tally.expect(navigation_problems(cube, navigation_ops(cube)), "navigation mass")

    records, _ = timed(tr, "records.read_clean", read_records_csv, config.clean_path())
    query = AGG_QUERIES[0][1]
    bench_config = BenchConfig(queries=(("seekers_by_sector", query),),
                               repetitions=11, warmup=1)
    result, _ = timed(tr, "bench.run_benchmark", run_benchmark, records, cube,
                      bench_config, congress_parent=congress_parents(schema))
    timing = result.timings[0]
    cols = fair.sector_columns(records)
    numpy_s = []
    for _ in range(101):
        table, elapsed = timed(tr, "bench.numpy_scan", fair.seekers_by_sector, cols)
        numpy_s.append(elapsed)
    tally.record(table == aggregate(cube, query), "numpy group-by != cube answer")
    numpy_p50 = sorted(numpy_s)[len(numpy_s) // 2]
    tr.count("bench.scan_p50_ms", timing.scan_median * 1e3)
    tr.count("bench.numpy_scan_p50_ms", numpy_p50 * 1e3)
    tr.count("bench.speedup", timing.speedup)
    tr.count("bench.fair_speedup", numpy_p50 / max(timing.cube_median, 1e-9))

    for _ in range(3):
        cli_import(run, tr, tally)

    if not tr.durations("warehouse.refresh"):
        hierarchy = load_hierarchy(config.hierarchy_path())
        years = (config.year_from, config.year_to)
        ordered = refresh_order(records)
        base = build_schema(ordered[:len(ordered) // 2], years, hierarchy)
        new, _ = timed(tr, "warehouse.refresh", refresh, base, records, hierarchy)
        tr.count("warehouse.members_appended",
                 sum(len(new.dimensions[d]) - len(base.dimensions[d]) for d in DIMENSIONS))
        problems = ids_stable(base, new)
        if not logically_equal(new, schema):
            problems.append("refresh differs from the loaded warehouse")
        tally.expect(problems, "refresh equals rebuild")

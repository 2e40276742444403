"""End-to-end acceptance gate.

Eight criteria, each printed as one ACCEPTANCE line so the verdicts are
visible in plain pytest output: oracle equivalence on many seeded datasets,
measure conservation under rollup, warehouse structure, cleaning counters
against planted truth, format round-trips, refresh-equals-rebuild, benchmark
speedup at realistic volume, and bit-for-bit determinism of repeated runs.
"""

import contextlib
import hashlib
import random
import struct
import time

import yaml

from jobcube.bench import BenchConfig, run_benchmark
from jobcube.cli import main as cli_main
from jobcube.config import load_hierarchy
from jobcube.cube import AggregateQuery, aggregate, build_cube, dice, rollup, slice_cube
from jobcube.datagen import (
    EDUCATION_LEVELS,
    GenConfig,
    generate,
    read_gen_manifest,
)
from jobcube.preprocess import deduplicate
from jobcube.sources import (
    FieldDescriptor,
    parse_delimited,
    parse_fixed_width,
    read_dbf,
    render_dbf,
    render_delimited,
    render_fixed_width,
)
from jobcube.warehouse import (
    DIMENSIONS,
    build_schema,
    load_schema,
    logically_equal,
    persist,
    refresh,
)

from conftest import default_policy, run_etl
from oracle import (
    congress_city_map,
    make_hierarchy,
    oracle_aggregate,
    random_clean_records,
    record_label,
    table_as_dict,
)

YEARS = (2000, 2006)
BASE_DIMS = [("city", "city"), ("sector", "sector"), ("edulevel", "edulevel"),
             ("congress", "congress"), ("service", "service"),
             ("time", "quarter")]
LEVEL_CHOICES = {"city": ("city",), "sector": ("sector",),
                 "edulevel": ("edulevel",), "service": ("service",),
                 "congress": ("congress", "city"),
                 "time": ("quarter", "year")}


@contextlib.contextmanager
def criterion(capsys, number, name):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {name}: {verdict}")


def cells_single(cube, measure_pos=0):
    return {coord: triple[measure_pos] for coord, triple in cube.cells.items()}


def test_1_oracle_equivalence(capsys):
    with criterion(capsys, 1, "cube answers equal record-scan oracle"):
        started = time.monotonic()
        rnd = random.Random(11)
        sizes = [300 + 37 * i for i in range(46)] + [4000, 6500, 8200, 10_000]
        assert len(sizes) == 50 and max(sizes) == 10_000
        for i, n in enumerate(sizes):
            records = random_clean_records(1000 + i, n)
            cities = congress_city_map(records)
            cube = build_cube(build_schema(records, YEARS, make_hierarchy()))

            for pos, measure in ((0, "total"), (1, "seekers")):
                assert cells_single(cube, pos) == oracle_aggregate(
                    records, measure, BASE_DIMS, [], cities)

            by_year = [d if d[0] != "time" else ("time", "year")
                       for d in BASE_DIMS]
            assert cells_single(rollup(cube, "time", "year")) == \
                oracle_aggregate(records, "total", by_year, [], cities)
            by_city = [d if d[0] != "congress" else ("congress", "city")
                       for d in BASE_DIMS]
            assert cells_single(rollup(cube, "congress", "city")) == \
                oracle_aggregate(records, "total", by_city, [], cities)

            city = rnd.choice(cube.axis("city").members)
            sliced = slice_cube(cube, "city", city)
            got = table_as_dict(aggregate(
                sliced, AggregateQuery("seekers", group_by=("sector",))))
            in_city = [r for r in records if r.city == city]
            assert got == oracle_aggregate(
                in_city, "seekers", [("sector", "sector")], [], cities)

            sectors = tuple(rnd.sample(
                cube.axis("sector").members,
                rnd.randint(1, min(3, len(cube.axis("sector").members)))))
            quarters = tuple(rnd.sample(cube.axis("time").members, 3))
            diced = dice(cube, [("sector", sectors), ("time", quarters)])
            want = oracle_aggregate(
                records, "total", [],
                [("sector", "sector", sectors), ("time", "quarter", quarters)],
                cities)[()]
            assert diced.mass()[0] == want

            label_universe = {
                (dim, level): sorted({record_label(r, dim, level, cities)
                                      for r in records})
                for dim, choices in LEVEL_CHOICES.items() for level in choices}
            for _ in range(4):
                measure = rnd.choice(("total", "seekers", "directed"))
                group_dims = rnd.sample(sorted(LEVEL_CHOICES), rnd.randint(0, 3))
                group_by = tuple((d, rnd.choice(LEVEL_CHOICES[d]))
                                 for d in group_dims)
                filters = []
                for d in rnd.sample(sorted(LEVEL_CHOICES), rnd.randint(0, 2)):
                    level = rnd.choice(LEVEL_CHOICES[d])
                    universe = label_universe[(d, level)]
                    members = tuple(rnd.sample(
                        universe, rnd.randint(1, min(3, len(universe)))))
                    filters.append((d, level, members))
                query = AggregateQuery(measure, group_by, tuple(filters))
                got = table_as_dict(aggregate(cube, query))
                assert got == oracle_aggregate(records, measure, list(group_by),
                                               filters, cities), query
        assert time.monotonic() - started < 120.0


def test_2_measure_conservation(capsys):
    with criterion(capsys, 2, "rollups conserve measures and total = seekers + directed"):
        for seed in range(21, 26):
            records = random_clean_records(seed, 900 + 113 * seed)
            cube = build_cube(build_schema(records, YEARS, make_hierarchy()))
            by_year = rollup(cube, "time", "year")
            by_city = rollup(cube, "congress", "city")
            assert by_year.mass() == cube.mass()
            assert by_city.mass() == cube.mass()
            twice = rollup(by_year, "congress", "city")
            assert twice.mass() == cube.mass()
            for view in (cube, by_year, by_city, twice):
                for total, seekers, directed in view.cells.values():
                    assert total == seekers + directed


def test_3_warehouse_structure(capsys, gen_small, clean_small, tmp_path):
    with criterion(capsys, 3, "time grain, six education levels, star shape"):
        hierarchy = load_hierarchy(gen_small.out_dir / "hierarchy.yaml")
        schema = build_schema(clean_small, YEARS, hierarchy)
        persist(schema, tmp_path)
        loaded = load_schema(tmp_path)
        assert logically_equal(loaded, schema)

        for view in (schema, loaded):
            assert set(view.dimensions) == set(DIMENSIONS)
            assert len(view.dimensions) == 6

            time_rows = view.dimensions["time"].rows
            assert len(time_rows) == 28
            quarters_by_year = {}
            for row in time_rows:
                quarters_by_year.setdefault(
                    row.attributes["year"], set()).add(row.attributes["quarter"])
            assert set(quarters_by_year) == {str(y) for y in range(2000, 2007)}
            for quarters in quarters_by_year.values():
                assert quarters == {"Q1", "Q2", "Q3", "Q4"}

            levels = {r.natural_key for r in view.dimensions["edulevel"].rows}
            assert levels == set(EDUCATION_LEVELS)
            assert len(levels) == 6

        files = {p.name for p in tmp_path.iterdir()}
        fact_files = {name for name in files if name.startswith("fact")}
        assert fact_files == {"fact.csv"}
        assert files == {"manifest.txt", "fact.csv"} | {
            f"dim_{d}.csv" for d in DIMENSIONS}


def test_4_etl_counters_match_planted_truth(capsys, tmp_path):
    with criterion(capsys, 4, "cleaning counters equal the generator's planted truth"):
        config = GenConfig(seed=777, counts={"tripoli": 1200, "misurata": 800,
                                             "sirte": 500})
        assert (config.duplicate_rate, config.blank_rate,
                config.discrepancy_rate) == (0.05, 0.03, 0.10)
        gen = generate(config, tmp_path)
        staged, cleaned, _, report = run_etl(gen)

        expect = gen.expect
        assert report.duplicates_removed == expect.duplicates > 0
        assert report.values_filled == expect.filled
        assert report.filled_total() == sum(expect.filled.values()) > 0
        assert report.values_normalized == expect.normalized
        assert report.normalized_total() > 0
        assert report.values_unmatched == 0
        assert report.unknown_hierarchy_values == expect.unknown_hierarchy
        assert report.records_generalized == expect.generalized
        assert report.rejected == []
        assert cleaned == gen.truth
        assert len(cleaned) == expect.persons

        manifest = read_gen_manifest(gen.out_dir / "gen_manifest.txt")
        assert manifest["expected_duplicates_removed"] == report.duplicates_removed
        assert manifest["expected_filled"] == report.values_filled
        assert manifest["expected_normalized"] == report.values_normalized
        assert manifest["expected_unknown_hierarchy"] == report.unknown_hierarchy_values
        assert manifest["expected_generalized"] == report.records_generalized
        assert manifest["expected_unmatched"] == 0

        policy = default_policy()
        again, rep2 = deduplicate(cleaned, policy)
        assert again == cleaned and rep2.duplicates_removed == 0

        base_survivors, _ = deduplicate(staged, policy)
        for i in range(20):
            shuffled = list(staged)
            random.Random(i).shuffle(shuffled)
            survivors, _ = deduplicate(shuffled, policy)
            assert survivors == base_survivors


def test_5_format_round_trips(capsys):
    with criterion(capsys, 5, "write/parse round-trips and dbf header arithmetic"):
        rnd = random.Random(55)
        n = 1000
        layout, offset = [], 0
        for name, kind, length in (("ID", "C", 8), ("NAME", "C", 12),
                                   ("GRP", "C", 3), ("YEAR", "N", 4)):
            layout.append(FieldDescriptor(name, kind, length, offset))
            offset += length
        rows = [(f"R{i:05d}",
                 f"NM{rnd.randrange(10**8):08d}",
                 rnd.choice(("A", "BB", "CCC")),
                 str(rnd.randrange(1980, 2020))) for i in range(n)]

        parsed = parse_fixed_width(render_fixed_width(rows, layout), layout)
        assert parsed == (("ID", "NAME", "GRP", "YEAR"), rows)

        columns = ("id", "name", "note", "year")
        drows = [[f"D{i}",
                  f"N,{i}" if i % 97 == 0 else f"N{i}",
                  "" if i % 3 else "checked",
                  str(2000 + i % 7)] for i in range(n)]
        parsed = parse_delimited(render_delimited(drows, columns))
        assert parsed == (columns, list(map(tuple, drows)))

        blob = render_dbf(rows, layout, last_update=(95, 6, 30))
        dbf = read_dbf(blob)
        assert dbf.table.parsed() == (tuple(fd.name for fd in layout), rows)
        assert dbf.record_count == n and dbf.deleted == 0
        record_len = 1 + sum(fd.length for fd in layout)
        header_len = 32 + 32 * len(layout) + 1
        assert struct.unpack_from("<I", blob, 4)[0] == n
        assert struct.unpack_from("<H", blob, 8)[0] == header_len == dbf.header_len
        assert struct.unpack_from("<H", blob, 10)[0] == record_len == dbf.record_len
        assert len(blob) == header_len + n * record_len + 1
        assert blob[header_len - 1] == 0x0D and blob[-1] == 0x1A


def test_6_refresh_matches_rebuild(capsys):
    with criterion(capsys, 6, "incremental refresh equals full rebuild"):
        records = random_clean_records(66, 3000)
        hierarchy = make_hierarchy()
        target = build_schema(records, YEARS, hierarchy)
        for i in range(20):
            rnd = random.Random(900 + i)
            shuffled = list(records)
            rnd.shuffle(shuffled)
            cut = rnd.randrange(1, len(shuffled))
            base = build_schema(shuffled[:cut], YEARS, hierarchy)
            refreshed = refresh(base, shuffled, hierarchy)
            assert logically_equal(refreshed, target)
            for dim in DIMENSIONS:
                new_ids = {r.natural_key: r.surrogate_id for r in refreshed.dimensions[dim].rows}
                assert all(new_ids[r.natural_key] == r.surrogate_id
                           for r in base.dimensions[dim].rows)


def test_7_benchmark_speedup_at_scale(capsys, tmp_path):
    with criterion(capsys, 7, "cube at least 10x faster than row scan at realistic volume"):
        targets = {"tripoli": 28_100_000, "misurata": 15_560_000,
                   "sirte": 6_850_000}
        gen = generate(GenConfig(seed=19, target_bytes=targets), tmp_path)
        for city, want in targets.items():
            size = gen.files[city].stat().st_size
            assert abs(size - want) <= 0.05 * want, (city, size, want)

        _, cleaned, _, _ = run_etl(gen)
        hierarchy = load_hierarchy(gen.out_dir / "hierarchy.yaml")
        schema = build_schema(cleaned, YEARS, hierarchy)
        cube = build_cube(schema)
        parents = {row.natural_key: row.attributes.get("city", row.natural_key)
                   for row in schema.dimensions["congress"].rows}

        config = BenchConfig(
            queries=(("seekers_by_sector",
                      AggregateQuery("seekers", group_by=("sector",))),),
            repetitions=100, warmup=2)
        started = time.monotonic()
        result = run_benchmark(cleaned, cube, config, congress_parent=parents)
        elapsed = time.monotonic() - started

        timing = result.timings[0]      # run_benchmark raises if the answers differ
        assert timing.speedup >= 10.0, timing.speedup
        assert elapsed < 300.0, elapsed


def test_8_two_runs_bit_identical(capsys, tmp_path, monkeypatch):
    with criterion(capsys, 8, "same seed and config reproduce identical outputs"):
        config_text = yaml.safe_dump({
            "seed": 20060814,
            "data_dir": "data",
            "warehouse_dir": "warehouse",
            "years": {"from": 2000, "to": 2006},
            "gen": {"counts": {"tripoli": 400, "misurata": 250, "sirte": 150}},
            "reports": [
                {"kind": "seekers_by_sector",
                 "output": "reports/seekers_by_sector.csv"},
                {"kind": "seekers_vs_directed",
                 "output": "reports/seekers_vs_directed.csv"},
                {"kind": "edu_level_counts",
                 "output": "reports/edu_level_counts.csv"},
            ],
        })
        trees = []
        for run in ("run_a", "run_b"):
            root = tmp_path / run
            root.mkdir()
            (root / "jobcube.yaml").write_text(config_text, encoding="utf-8")
            monkeypatch.chdir(root)
            for command in ("gen", "ingest", "etl", "load", "report"):
                assert cli_main([command, "-c", "jobcube.yaml"]) == 0, command
            tree = {}
            for sub in ("data", "warehouse", "reports"):
                for path in sorted((root / sub).rglob("*")):
                    if path.is_file():
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        tree[str(path.relative_to(root))] = digest
            trees.append(tree)
        assert trees[0] == trees[1]
        assert any(name.startswith("warehouse") for name in trees[0])
        assert any(name.startswith("reports") for name in trees[0])

"""Scan baseline vs cube timing harness."""

import pytest

from jobcube.bench import (
    BenchConfig,
    run_benchmark,
    run_scan_query,
    summary_lines,
    write_bench_report,
)
from jobcube.cube import AggregateQuery, YearSpan, aggregate, build_cube
from jobcube.errors import AnswerMismatch, BadQuery, ConfigError
from jobcube.warehouse import build_schema

from oracle import (
    congress_city_map,
    make_hierarchy,
    oracle_aggregate,
    random_clean_records,
    table_as_dict,
)

QUERIES = (
    AggregateQuery("seekers", group_by=("sector",)),
    AggregateQuery("total", group_by=(("time", "year"), "city")),
    AggregateQuery("directed", group_by=(("congress", "city"),),
                   filters=(("time", "year", ("2001", "2002")),)),
    AggregateQuery("total"),
)


# Every (dimension, level) pair the scan resolves, with members to filter on.
LEVEL_MEMBERS = {
    ("city", "city"): ("CityA", "CityC"),
    ("sector", "sector"): ("", "SEC-B"),
    ("edulevel", "edulevel"): ("edu2",),
    ("congress", "congress"): ("CGA1", "UNKNOWN"),
    ("congress", "city"): ("CityB", "UNKNOWN"),
    ("service", "service"): ("svc1", "svc4"),
    ("time", "quarter"): ("2001Q1", "2003Q4", "2006Q2"),
    ("time", "year"): ("2002", "2005"),
}
NOTHING = (("city", "city", ("NOT-A-CITY",)),)


def matrix_cases():
    """(group_by, filters) pairs covering each level as a grouping and as a
    filter, two-level groupings, and a filter that matches nothing."""
    pairs = list(LEVEL_MEMBERS)
    cases = [((), ())]
    for i, pair in enumerate(pairs):
        other = next(p for p in pairs[i + 1:] + pairs if p[0] != pair[0])
        cases.append(((pair,), ()))
        cases.append(((other,), ((*pair, LEVEL_MEMBERS[pair]),)))
        cases.append(((pair, other), ()))
    cases.append(((("congress", "congress"),),
                  (("congress", "city", LEVEL_MEMBERS["congress", "city"]),)))
    cases.append(((("time", "quarter"),), (("time", "year", ("2004",)),)))
    cases.append(((), NOTHING))
    cases.append(((("time", "year"), ("congress", "city")), NOTHING))
    return cases


@pytest.fixture(scope="module")
def fixture():
    records = random_clean_records(77, 1800)
    schema = build_schema(records, (2000, 2006), make_hierarchy())
    return records, build_cube(schema), congress_city_map(records)


class TestScanBaseline:
    def test_matches_cube_answers(self, fixture):
        records, cube, cities = fixture
        for query in QUERIES:
            scanned = run_scan_query(records, query, congress_parent=cities)
            assert table_as_dict(scanned) == table_as_dict(aggregate(cube, query))

    def test_matches_oracle_directly(self, fixture):
        records, _, cities = fixture
        scanned = run_scan_query(
            records, AggregateQuery("seekers", group_by=("sector",)),
            congress_parent=cities)
        want = oracle_aggregate(records, "seekers", [("sector", "sector")],
                                [], cities)
        assert table_as_dict(scanned) == want

    def test_grand_total_row_always_present(self, fixture):
        records, _, cities = fixture
        table = run_scan_query(records, AggregateQuery(
            "total", filters=(("city", ("NOT-A-CITY",)),)), congress_parent=cities)
        assert table.rows == ((0,),)

    def test_rows_sorted(self, fixture):
        records, _, cities = fixture
        table = run_scan_query(records, AggregateQuery(
            "total", group_by=("city", "sector")), congress_parent=cities)
        labels = [row[:-1] for row in table.rows]
        assert labels == sorted(labels)

    @pytest.mark.parametrize("with_parent", [True, False])
    @pytest.mark.parametrize("measure", ["total", "seekers", "directed"])
    def test_matrix_matches_oracle(self, fixture, measure, with_parent):
        records, _, cities = fixture
        parent = cities if with_parent else {}      # {}: each congress is its own city
        for group_by, filters in matrix_cases():
            query = AggregateQuery(measure, group_by=group_by, filters=filters)
            scanned = run_scan_query(records, query, congress_parent=parent)
            want = oracle_aggregate(records, measure, list(group_by), list(filters), parent)
            assert table_as_dict(scanned) == want, (group_by, filters)
            assert [row[:-1] for row in scanned.rows] == sorted(want), (group_by, filters)
            assert all(type(row[-1]) is int for row in scanned.rows)

    def test_year_span_is_never_listed(self, fixture, monkeypatch):
        """A year span filters by arithmetic, as the cube does: listing one
        string per year of a wide span took seconds and hundreds of MB."""
        records, cube, cities = fixture

        def refuse(span):
            raise AssertionError(f"{span} listed")
        monkeypatch.setattr(YearSpan, "__iter__", refuse)

        def query(*filters):
            return AggregateQuery("total", group_by=("city",), filters=filters)
        some = query(("time", "year", YearSpan(2002, 2004)))
        assert (table_as_dict(run_scan_query(records, some, congress_parent=cities))
                == table_as_dict(aggregate(cube, some)))
        wide = query(("time", "year", YearSpan(0, 5_000_000)))
        assert (table_as_dict(run_scan_query(records, wide, congress_parent=cities))
                == table_as_dict(aggregate(cube, query())))

    def test_year_span_is_tested_as_an_int_range(self, fixture, monkeypatch):
        """The scan tests a record's int year against the span's range; parsing
        str(year) back through YearSpan.__contains__ doubled the scan time."""
        records, cube, cities = fixture
        query = AggregateQuery("seekers", group_by=("sector",),
                               filters=(("time", "year", YearSpan(2001, 2004)),))
        want = aggregate(cube, query)

        def refuse(span, member):
            raise AssertionError(f"{member!r} tested against {span}")
        monkeypatch.setattr(YearSpan, "__contains__", refuse)
        assert run_scan_query(records, query, congress_parent=cities) == want

    def test_duplicate_group_by_dimension_rejected(self, fixture):
        records, cube, cities = fixture
        for group_by in (("sector", "sector"), ("time", ("time", "year"))):
            query = AggregateQuery("total", group_by=group_by)
            with pytest.raises(BadQuery):
                run_scan_query(records, query, congress_parent=cities)
            with pytest.raises(BadQuery):
                aggregate(cube, query)


class TestBenchmark:
    def test_runs_and_verifies_answers(self, fixture, tmp_path):
        records, cube, cities = fixture
        config = BenchConfig(queries=tuple(
            (f"q{i}", q) for i, q in enumerate(QUERIES)),
            repetitions=3, warmup=1)
        result = run_benchmark(records, cube, config, congress_parent=cities)
        assert len(result.timings) == len(QUERIES)
        report = write_bench_report(result, tmp_path / "bench.csv")
        rows = report.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["true"] * len(QUERIES)
        for timing in result.timings:
            assert timing.scan_median > 0
            assert timing.cube_median > 0
            assert timing.cube_first > 0
            assert timing.speedup == pytest.approx(
                timing.scan_median / timing.cube_median, rel=1e-6)

    def test_answer_mismatch_aborts(self, fixture):
        records, cube, cities = fixture
        config = BenchConfig(queries=(("bad", QUERIES[0]),),
                             repetitions=1, warmup=0)
        with pytest.raises(AnswerMismatch):
            run_benchmark(records + records[:5], cube, config,
                          congress_parent=cities)

    def test_report_format(self, fixture, tmp_path):
        records, cube, cities = fixture
        config = BenchConfig(queries=(("headline", QUERIES[0]),),
                             repetitions=2, warmup=0)
        result = run_benchmark(records, cube, config, congress_parent=cities)
        path = write_bench_report(result, tmp_path / "bench.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "query_id,scan_median_s,cube_median_s,speedup,answers_equal"
        first = lines[1].split(",")
        assert first[0] == "headline"
        assert float(first[1]) > 0
        assert first[4] == "true"
        assert len(first) == 5
        (line,) = summary_lines(result)
        assert line.startswith("headline: scan median ")
        assert line.endswith(f"first call {result.timings[0].cube_first * 1000:.2f} ms")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BenchConfig(queries=(), repetitions=3)
        with pytest.raises(ConfigError):
            BenchConfig(queries=(("q", QUERIES[0]),), repetitions=0)
        with pytest.raises(ConfigError):
            BenchConfig(queries=(("q", QUERIES[0]),), warmup=-1)

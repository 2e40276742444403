"""Decision-support report shapes and serialization."""

import csv
from dataclasses import replace

import pytest

from jobcube.cube import AggregateQuery, ResultTable, aggregate, build_cube
from jobcube.errors import ConfigError
from jobcube.reporting import (
    ReportSpec,
    render_text_table,
    run_report,
    write_result,
)
from jobcube.warehouse import build_schema

from oracle import (
    congress_city_map,
    make_hierarchy,
    oracle_aggregate,
    random_clean_records,
    table_as_dict,
)


@pytest.fixture(scope="module")
def fixture():
    records = random_clean_records(31, 1500)
    schema = build_schema(records, (2000, 2006), make_hierarchy())
    return records, build_cube(schema), congress_city_map(records)


class TestSpecs:
    def test_known_kinds_only(self):
        with pytest.raises(ConfigError):
            ReportSpec("pie_chart", 2000, 2006)

    def test_year_range_checked(self):
        with pytest.raises(ConfigError):
            ReportSpec("service_counts", 2006, 2000)

    def test_custom_needs_query(self):
        with pytest.raises(ConfigError):
            ReportSpec("custom", 2000, 2006)


class TestKinds:
    def test_seekers_by_sector(self, fixture):
        records, cube, cities = fixture
        table = run_report(cube, ReportSpec("seekers_by_sector", 2000, 2006))
        assert table.columns == ("sector", "seekers")
        want = oracle_aggregate(records, "seekers", [("sector", "sector")],
                                [], cities)
        assert table_as_dict(table) == want

    def test_seekers_vs_directed_zero_fills(self, fixture):
        records, cube, cities = fixture
        table = run_report(cube, ReportSpec("seekers_vs_directed", 2000, 2006))
        assert table.columns == ("sector", "seekers", "directed")
        by_sector = {row[0]: (row[1], row[2]) for row in table.rows}
        # the empty sector holds every seeker and zero directed, by definition
        assert by_sector[""][1] == 0
        named = [s for s in by_sector if s]
        assert all(by_sector[s][0] == 0 for s in named)
        seekers = oracle_aggregate(records, "seekers", [("sector", "sector")],
                                   [], cities)
        directed = oracle_aggregate(records, "directed", [("sector", "sector")],
                                    [], cities)
        for sector, (s, d) in by_sector.items():
            assert s == seekers.get((sector,), 0)
            assert d == directed.get((sector,), 0)

    def test_edu_level_counts(self, fixture):
        records, cube, cities = fixture
        table = run_report(cube, ReportSpec("edu_level_counts", 2000, 2006))
        assert table.columns == ("edulevel", "total")
        assert len(table.rows) == 6
        want = oracle_aggregate(records, "total", [("edulevel", "edulevel")],
                                [], cities)
        assert table_as_dict(table) == want

    def test_service_counts(self, fixture):
        _, cube, _ = fixture
        table = run_report(cube, ReportSpec("service_counts", 2000, 2006))
        assert table.columns == ("service", "total")
        assert len(table.rows) == 4

    def test_year_window_applies(self, fixture):
        records, cube, cities = fixture
        table = run_report(cube, ReportSpec("edu_level_counts", 2002, 2003))
        want = oracle_aggregate(
            records, "total", [("edulevel", "edulevel")],
            [("time", "year", ("2002", "2003"))], cities)
        assert table_as_dict(table) == want

    def test_city_filter_applies(self, fixture):
        records, cube, cities = fixture
        table = run_report(cube, ReportSpec("service_counts", 2000, 2006,
                                            city_filter=frozenset({"CityB"})))
        want = oracle_aggregate(records, "total", [("service", "service")],
                                [("city", "city", ("CityB",))], cities)
        assert table_as_dict(table) == want

    def test_custom_passthrough(self, fixture):
        _, cube, _ = fixture
        query = AggregateQuery("directed", group_by=(("time", "year"),))
        spec = ReportSpec("custom", 2000, 2006, query=query)
        assert run_report(cube, spec).rows == aggregate(cube, query).rows

    def test_custom_honours_city_and_years(self, fixture):
        _, cube, _ = fixture
        query = AggregateQuery("seekers", (("congress", "city"),), (("sector", ("", "SEC-A")),))
        spec = ReportSpec("custom", 2002, 2003, city_filter=frozenset({"CityB"}), query=query)
        filtered = replace(query, filters=query.filters + (("time", "year", ("2002", "2003")),
                                                           ("city", ("CityB",))))
        table = run_report(cube, spec)
        assert table == aggregate(cube, filtered)
        assert [row[0] for row in table.rows] == ["CityB"]


class TestSerialization:
    TABLE = ResultTable(("sector", "seekers"),
                        (("", 12), ("SEC-A", 0), ("SEC-LONG-NAME", 345)))

    def test_csv_bytes_pinned(self, tmp_path):
        path = write_result(self.TABLE, tmp_path / "r.csv", "csv")
        assert path.read_bytes() == (b"sector,seekers\n"
                                     b",12\n"
                                     b"SEC-A,0\n"
                                     b"SEC-LONG-NAME,345\n")

    def test_text_table_alignment(self):
        text = render_text_table(self.TABLE)
        lines = text.splitlines()
        assert lines[0].split() == ["sector", "seekers"]
        assert set(lines[1]) <= {"-", " "}
        assert lines[-1].endswith("345")
        assert len({len(line) for line in lines}) == 1

    def test_write_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "deep" / "down" / "r.csv"
        write_result(self.TABLE, target, "csv")
        assert target.exists()

    def test_report_writes_where_told(self, fixture, tmp_path):
        _, cube, _ = fixture
        out = tmp_path / "seekers.csv"
        run_report(cube, ReportSpec("seekers_by_sector", 2000, 2006,
                                    output=str(out)))
        assert out.read_text(encoding="utf-8").startswith("sector,seekers\n")


def test_carriage_return_label_reads_back_as_one_row(tmp_path):
    table = ResultTable(("sector", "seekers"), (("A\rB", 1), ("C", 2)))
    path = write_result(table, tmp_path / "report.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["sector", "seekers"], ["A\rB", "1"], ["C", "2"]]

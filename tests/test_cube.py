"""Cube construction, algebra (rollup, drilldown, slice, dice), aggregation."""

import itertools
import random

import numpy as np
import pytest

from jobcube import warehouse as warehouse_module
from jobcube.cube import (
    MEASURES,
    AggregateQuery,
    Cube,
    YearSpan,
    aggregate,
    base_level,
    build_cube,
    dice,
    drilldown,
    rollup,
    slice_cube,
)
from jobcube.errors import (
    BadLevel,
    BadQuery,
    EmptyMemberSet,
    UnknownMember,
    UnresolvedDimensionValue,
)
from jobcube.records import DIMENSIONS
from jobcube.warehouse import (
    StarSchema,
    build_schema,
    fact_index,
    load_schema,
    persist,
    refresh,
)

from oracle import (
    congress_city_map,
    make_hierarchy,
    oracle_aggregate,
    oracle_facts,
    random_clean_records,
    record_label,
    table_as_dict,
)

YEARS = (2000, 2006)


def build(seed: int, n: int):
    records = random_clean_records(seed, n)
    schema = build_schema(records, YEARS, make_hierarchy())
    return records, build_cube(schema), congress_city_map(records)


@pytest.fixture(scope="module")
def fixture():
    return build(21, 2500)


class TestBuild:
    def test_cells_match_oracle(self, fixture):
        records, cube, cities = fixture
        dims = [("city", "city"), ("sector", "sector"), ("edulevel", "edulevel"),
                ("congress", "congress"), ("service", "service"),
                ("time", "quarter")]
        want = oracle_aggregate(records, "total", dims, [], cities)
        got = {coord: t for coord, (t, s, d) in cube.cells.items()}
        assert got == want

    def test_axis_members_sorted(self, fixture):
        _, cube, _ = fixture
        for axis in cube.axes:
            assert list(axis.members) == sorted(axis.members)

    def test_mass_is_record_count(self, fixture):
        records, cube, _ = fixture
        assert cube.mass() == (len(records),
                               sum(r.status == "seeker" for r in records),
                               sum(r.status == "directed" for r in records))


class TestFactIds:
    """A fact's id on an axis is its member's dimension row index + 1."""

    @pytest.mark.parametrize("axis, dim", enumerate(DIMENSIONS))
    def test_id_outside_the_table_is_refused(self, axis, dim):
        schema = build_schema(random_clean_records(41, 200), YEARS, make_hierarchy())
        for bad in (0, len(schema.dimensions[dim]) + 1):
            facts = schema.facts.copy()
            facts[0, axis] = bad
            with pytest.raises(UnresolvedDimensionValue) as info:
                build_cube(StarSchema(schema.dimensions, facts, schema.meta))
            assert str(info.value) == f"fact table: dangling {dim} id", bad

    def test_refreshed_warehouse_matches_the_oracle(self, tmp_path):
        """Members the refresh appends sort before the old ones, so id order
        is not member order on any dimension but time, which is exhaustive."""
        hierarchy = make_hierarchy()
        records = random_clean_records(61, 1500)
        old = [r for r in records if r.city != "CityA" and r.sector > "SEC-B"
               and r.education_level > "edu3" and r.service_status > "svc2"]
        refreshed = refresh(build_schema(old, YEARS, hierarchy), records, hierarchy)
        for dim in DIMENSIONS:
            keys = [r.natural_key for r in refreshed.dimensions[dim].rows]
            assert (keys == sorted(keys)) == (dim == "time"), dim
        persist(refreshed, tmp_path)
        cities = congress_city_map(records)
        rnd = random.Random(61)
        for schema in (refreshed, load_schema(tmp_path)):
            assert fact_index(schema) == oracle_facts(records, YEARS)
            queries = seeded_queries(rnd, records, cities, LEVEL_CHOICES)
            assert_battery(build_cube(schema), records, cities, queries)


class TestRollup:
    def test_quarter_to_year_conserves_measures(self, fixture):
        _, cube, _ = fixture
        rolled = rollup(cube, "time", "year")
        assert rolled.mass() == cube.mass()
        axis = rolled.axis("time")
        assert axis.level == "year"
        assert list(axis.members) == [str(y) for y in range(2000, 2007)]

    def test_congress_to_city_conserves_measures(self, fixture):
        _, cube, _ = fixture
        rolled = rollup(cube, "congress", "city")
        assert rolled.mass() == cube.mass()
        assert rolled.axis("congress").level == "city"

    def test_rolled_cells_match_oracle(self, fixture):
        records, cube, cities = fixture
        rolled = rollup(cube, "time", "year")
        got = table_as_dict(aggregate(rolled, AggregateQuery(
            "total", group_by=(("time", "year"),))))
        want = oracle_aggregate(records, "total", [("time", "year")], [], cities)
        assert got == want

    def test_rollup_requires_coarser_level(self, fixture):
        _, cube, _ = fixture
        with pytest.raises(BadLevel):
            rollup(cube, "time", "quarter")
        with pytest.raises(BadLevel):
            rollup(cube, "sector", "galaxy")

    def test_cell_additivity_everywhere(self, fixture):
        _, cube, _ = fixture
        for c in (cube, rollup(cube, "time", "year"),
                  rollup(cube, "congress", "city")):
            for t, s, d in c.cells.values():
                assert t == s + d


class TestDrilldown:
    def test_returns_to_base_grain(self, fixture):
        _, cube, _ = fixture
        year_cube = rollup(cube, "time", "year")
        back = drilldown(year_cube, cube, "time", "quarter")
        assert back.cells == cube.cells

    def test_rejects_level_not_below_current(self, fixture):
        _, cube, _ = fixture
        year_cube = rollup(cube, "time", "year")
        with pytest.raises(BadLevel):
            drilldown(year_cube, cube, "time", "year")
        with pytest.raises(BadLevel):
            drilldown(cube, cube, "time", "quarter")

    def test_drills_one_axis_of_a_two_axis_rollup(self, fixture):
        records, cube, cities = fixture
        by_city = rollup(cube, "congress", "city")
        both = rollup(rollup(cube, "time", "year"), "congress", "city")
        back = drilldown(both, cube, "time", "quarter")
        assert back is by_city      # the base cube's memoised cuboid
        assert back.axis("congress").level == "city"
        assert_matches_records(back, records, cities)
        assert drilldown(both, cube, "congress", "congress") is rollup(cube, "time", "year")

    def test_refuses_a_diced_or_sliced_rollup(self, fixture):
        _, cube, cities = fixture
        by_year = rollup(cube, "time", "year")
        city = cube.axis("city").members[0]
        # one congress of each city: every city stays, most cells go
        one_each = tuple({cities[c]: c for c in cube.axis("congress").members}.values())
        cases = [
            (dice(by_year, [("city", (city,))]), "time", "city: diced"),
            (dice(by_year, [("time", ("2003",))]), "time", "time: diced"),
            (slice_cube(by_year, "city", city), "time", "city: sliced away"),
            (rollup(dice(cube, [("congress", one_each)]), "congress", "city"), "congress",
             "congress: diced below the cube's level"),
        ]
        for derived, dimension, reason in cases:
            with pytest.raises(BadQuery, match=f"^{reason}, so the cube is not a roll-up "
                                               "of the base cube$"):
                drilldown(derived, cube, dimension, base_level(dimension))

    def test_a_rollup_in_the_base_memo_skips_the_proof(self, monkeypatch):
        _, cube, _ = build(22, 800)
        by_year = rollup(cube, "time", "year")
        twice = rollup(by_year, "congress", "city")     # in by_year's memo, not the base's
        aggregate(cube, AggregateQuery("total", (("time", "year"), "sector")))
        partial = cube._cuboids[tuple((ax.dimension, "year" if ax.dimension == "time" else
                                       ax.level) for ax in cube.axes
                                      if ax.dimension in ("sector", "time"))]
        proofs = []
        real_mass = Cube.mass
        monkeypatch.setattr(Cube, "mass", lambda c: proofs.append(c) or real_mass(c))
        assert drilldown(by_year, cube, "time", "quarter") is cube
        assert proofs == []
        assert drilldown(twice, cube, "time", "quarter") is rollup(cube, "congress", "city")
        assert proofs == [twice, cube]
        # an aggregate's cuboid lacks axes, so base's memo holding it proves nothing
        with pytest.raises(BadQuery, match="^city: sliced away, so the cube is not a roll-up"):
            drilldown(partial, cube, "time", "quarter")


class TestSlice:
    def test_removes_axis_and_filters(self, fixture):
        records, cube, cities = fixture
        sliced = slice_cube(cube, "city", "CityA")
        assert all(axis.dimension != "city" for axis in sliced.axes)
        in_city = [r for r in records if r.city == "CityA"]
        assert sliced.mass()[0] == len(in_city)
        got = table_as_dict(aggregate(sliced, AggregateQuery(
            "seekers", group_by=("sector",))))
        want = oracle_aggregate(in_city, "seekers", [("sector", "sector")],
                                [], cities)
        assert got == want

    def test_unknown_member(self, fixture):
        _, cube, _ = fixture
        with pytest.raises(UnknownMember):
            slice_cube(cube, "city", "Atlantis")


class TestDice:
    def test_restricts_members(self, fixture):
        records, cube, cities = fixture
        diced = dice(cube, [("sector", ("SEC-A", "SEC-B")),
                            ("service", ("svc1",))])
        kept = [r for r in records
                if r.sector in ("SEC-A", "SEC-B") and r.service_status == "svc1"]
        assert diced.mass()[0] == len(kept)
        assert set(diced.axis("sector").members) == {"SEC-A", "SEC-B"}

    def test_repeated_filters_intersect(self, fixture):
        _, cube, _ = fixture
        diced = dice(cube, [("sector", ("SEC-A", "SEC-B")),
                            ("sector", ("SEC-B", "SEC-C"))])
        assert tuple(diced.axis("sector").members) == ("SEC-B",)
        with pytest.raises(EmptyMemberSet):
            dice(cube, [("sector", ("SEC-A",)), ("sector", ("SEC-B",))])

    def test_empty_or_unknown_members(self, fixture):
        _, cube, _ = fixture
        with pytest.raises(EmptyMemberSet):
            dice(cube, [("sector", ())])
        with pytest.raises(UnknownMember):
            dice(cube, [("sector", ("SEC-A", "NOPE"))])


class TestAggregate:
    def test_group_by_levels_name_columns(self, fixture):
        _, cube, _ = fixture
        base = aggregate(cube, AggregateQuery("total", group_by=("sector",)))
        assert base.columns == ("sector", "total")
        lifted = aggregate(cube, AggregateQuery(
            "total", group_by=(("time", "year"), ("congress", "city"))))
        assert lifted.columns == ("time_year", "congress_city", "total")

    def test_empty_group_by_single_row(self, fixture):
        records, cube, _ = fixture
        table = aggregate(cube, AggregateQuery("total"))
        assert table.columns == ("total",)
        assert table.rows == ((len(records),),)

    def test_empty_group_by_no_match_is_zero(self, fixture):
        _, cube, _ = fixture
        # a year with no records still answers, with a zero
        empty_years = aggregate(cube, AggregateQuery(
            "total", filters=(("sector", ("SEC-A",)),
                              ("service", ("svc2",)),
                              ("time", "year", ("2000",)),
                              ("city", ("CityC",)),
                              ("edulevel", ("edu6",)))))
        assert len(empty_years.rows) == 1

    def test_rows_sorted_by_labels(self, fixture):
        _, cube, _ = fixture
        table = aggregate(cube, AggregateQuery(
            "total", group_by=("city", "sector")))
        labels = [row[:-1] for row in table.rows]
        assert labels == sorted(labels)

    def test_filters_at_lifted_level(self, fixture):
        records, cube, cities = fixture
        table = aggregate(cube, AggregateQuery(
            "directed", group_by=("sector",),
            filters=(("time", "year", ("2003", "2004")),)))
        want = oracle_aggregate(records, "directed", [("sector", "sector")],
                                [("time", "year", ("2003", "2004"))], cities)
        assert table_as_dict(table) == want

    def test_year_filter_with_quarter_group_by(self, fixture):
        records, cube, cities = fixture
        filters = [("time", "year", ("2001", "2005"))]
        table = aggregate(cube, AggregateQuery(
            "seekers", group_by=("time",), filters=tuple(filters)))
        want = oracle_aggregate(records, "seekers", [("time", "quarter")], filters, cities)
        assert table_as_dict(table) == want

    def test_year_span_selects_its_listed_years(self, fixture):
        _, cube, _ = fixture
        span = YearSpan(2001, 2003)
        assert list(span) == ["2001", "2002", "2003"] and len(span) == 3
        for text in ("2000", "02001", "+2001", " 2001", "2001Q1", "\u0662\u0660\u0660\u0662", ""):
            assert text not in span
        listed = AggregateQuery("seekers", ("sector",), (("time", "year", tuple(span)),))
        assert aggregate(cube, listed) == aggregate(
            cube, AggregateQuery("seekers", ("sector",), (("time", "year", span),)))

    @pytest.mark.parametrize("span, message", [
        (YearSpan(1990, 2003), "['1990', '1991', '1992', '1993', '1994', '1995', '1996', "
                               "'1997', '1998', '1999']"),
        (YearSpan(0, 2_000_000), "['0', '1', '2', '3', '4', '5', '6', '7', '8', '9'] "
                                     "(1999994 in all)"),
        (("2003", "x", "1999"), "['1999', 'x']"),
    ])
    def test_unknown_members_are_named_up_to_ten(self, fixture, span, message):
        _, cube, _ = fixture
        with pytest.raises(UnknownMember) as info:
            aggregate(cube, AggregateQuery("total", (), (("time", "year", span),)))
        assert str(info.value) == f"time@year: no members {message}"

    def test_city_group_by_on_diced_cube(self, fixture):
        # dice keeps the congress axis's parent map
        records, cube, cities = fixture
        congresses = cube.axis("congress").members[::3]
        diced = dice(cube, [("congress", congresses)])
        table = aggregate(diced, AggregateQuery("total", group_by=(("congress", "city"),)))
        kept = [r for r in records if r.congress in congresses]
        want = oracle_aggregate(kept, "total", [("congress", "city")], [], cities)
        assert table_as_dict(table) == want

    def test_congress_group_by_after_rollup_to_city(self, fixture):
        _, cube, _ = fixture
        rolled = rollup(cube, "congress", "city")
        assert rolled.axis("congress").parent is None
        with pytest.raises(BadLevel):
            aggregate(rolled, AggregateQuery("total", group_by=(("congress", "congress"),)))

    def test_bad_queries(self, fixture):
        _, cube, _ = fixture
        with pytest.raises(BadQuery):
            aggregate(cube, AggregateQuery("median", group_by=("sector",)))
        with pytest.raises(BadQuery):
            aggregate(cube, AggregateQuery("total", group_by=("sector", "sector")))
        with pytest.raises(BadQuery):
            aggregate(cube, AggregateQuery("total", group_by=("flavor",)))
        with pytest.raises(UnknownMember):
            aggregate(cube, AggregateQuery(
                "total", filters=(("sector", ("NOPE",)),)))
        with pytest.raises(BadLevel):
            aggregate(cube, AggregateQuery("total", group_by=(("time", "era"),)))

    def test_seeded_battery_matches_oracle(self):
        rnd = random.Random(5150)
        for seed in range(8):
            records, cube, cities = build(400 + seed, rnd.randint(100, 1500))
            queries = seeded_queries(rnd, records, cities, LEVEL_CHOICES)
            assert_battery(cube, records, cities, queries)


LEVEL_CHOICES = {"city": ("city",), "sector": ("sector",),
                 "edulevel": ("edulevel",), "service": ("service",),
                 "congress": ("congress", "city"),
                 "time": ("quarter", "year")}


def seeded_queries(rnd, records, cities, levels, count=25):
    """count random queries over levels {dim: its levels}; filters name
    members the records carry."""
    label_universe = {}
    for dim, choices in levels.items():
        for level in choices:
            label_universe[(dim, level)] = sorted(
                {record_label(r, dim, level, cities) for r in records})
    queries = []
    for _ in range(count):
        measure = rnd.choice(("total", "seekers", "directed"))
        group_dims = rnd.sample(sorted(levels), rnd.randint(0, 3))
        group_by = tuple((d, rnd.choice(levels[d])) for d in group_dims)
        filters = []
        for d in rnd.sample(sorted(levels), rnd.randint(0, 2)):
            level = rnd.choice(levels[d])
            universe = label_universe[(d, level)]
            members = tuple(rnd.sample(universe,
                                       rnd.randint(1, min(3, len(universe)))))
            filters.append((d, level, members))
        queries.append(AggregateQuery(measure, group_by, tuple(filters)))
    return queries


def assert_battery(cube, records, cities, queries):
    for query in queries:
        got = table_as_dict(aggregate(cube, query))
        want = oracle_aggregate(records, query.measure, list(query.group_by),
                                list(query.filters), cities)
        assert got == want, query


# ---------------------------------------------------------------------------
# Navigation chains, empty cubes and both grouping strategies, each checked
# cell by cell against the oracle over the matching records.

def assert_matches_records(cube, records, cities):
    """cells, mass() and per-axis aggregates equal the oracle over records."""
    dims = [(axis.dimension, axis.level) for axis in cube.axes]
    for pos, measure in enumerate(MEASURES):
        got = {coord: triple[pos] for coord, triple in cube.cells.items()}
        assert got == oracle_aggregate(records, measure, dims, [], cities)
    assert cube.mass() == (len(records),
                           sum(r.status == "seeker" for r in records),
                           sum(r.status == "directed" for r in records))
    for measure in MEASURES:
        grand = aggregate(cube, AggregateQuery(measure))
        assert table_as_dict(grand) == oracle_aggregate(records, measure, [], [], cities)
        for dim in dims:
            got = table_as_dict(aggregate(cube, AggregateQuery(measure, (dim,))))
            assert got == oracle_aggregate(records, measure, [dim], [], cities)


def pick(rnd, members, most=3):
    return tuple(rnd.sample(members, rnd.randint(1, min(most, len(members)))))


class TestNavigationChains:
    @pytest.mark.parametrize("seed", range(4))
    def test_rollup_of_dice(self, seed):
        rnd = random.Random(seed)
        records, cube, cities = build(700 + seed, 900)
        sectors = pick(rnd, list(cube.axis("sector").members))
        quarters = pick(rnd, list(cube.axis("time").members), 12)
        diced = dice(cube, [("sector", sectors), ("time", quarters)])
        assert diced.axis("sector").members == tuple(sorted(sectors))
        kept = [r for r in records
                if r.sector in sectors and f"{r.year}{r.quarter}" in quarters]
        assert_matches_records(diced, kept, cities)
        to_level = rnd.choice((("time", "year"), ("congress", "city")))
        assert_matches_records(rollup(diced, *to_level), kept, cities)

    @pytest.mark.parametrize("seed", range(4))
    def test_slice_of_rollup(self, seed):
        rnd = random.Random(seed)
        records, cube, cities = build(710 + seed, 900)
        rolled = rollup(rollup(cube, "congress", "city"), "time", "year")
        sector = rnd.choice(cube.axis("sector").members)
        sliced = slice_cube(rolled, "sector", sector)
        assert_matches_records(sliced, [r for r in records if r.sector == sector],
                               cities)
        year = rnd.choice(sliced.axis("time").members)
        by_year = slice_cube(sliced, "time", year)
        assert_matches_records(
            by_year, [r for r in records if r.sector == sector and str(r.year) == year],
            cities)

    @pytest.mark.parametrize("seed", range(4))
    def test_dice_of_slice(self, seed):
        rnd = random.Random(seed)
        records, cube, cities = build(720 + seed, 900)
        city = rnd.choice(cube.axis("city").members)
        sliced = slice_cube(cube, "city", city)
        services = pick(rnd, list(sliced.axis("service").members))
        edus = pick(rnd, list(sliced.axis("edulevel").members))
        diced = dice(sliced, [("service", services), ("edulevel", edus)])
        kept = [r for r in records if r.city == city
                and r.service_status in services and r.education_level in edus]
        assert_matches_records(diced, kept, cities)


class TestEmptyCubes:
    def assert_empty_but_answering(self, cube, cities):
        assert_matches_records(cube, [], cities)
        assert cube.cells == {}
        for dimension, level in (("time", "year"), ("congress", "city")):
            rolled = rollup(cube, dimension, level)
            assert rolled.cells == {}
            assert rolled.mass() == (0, 0, 0)
        table = aggregate(cube, AggregateQuery("seekers", group_by=("sector",)))
        assert table.rows == ()
        assert aggregate(cube, AggregateQuery("total")).rows == ((0,),)

    def test_dice_matching_no_cell(self):
        # every record falls in 2000, yet the time axis spans every quarter
        records = random_clean_records(31, 200, 2000, 2000)
        cube = build_cube(build_schema(records, YEARS, make_hierarchy()))
        cities = congress_city_map(records)
        diced = dice(cube, [("time", ("2003Q1", "2004Q2"))])
        assert diced.axis("time").members == ("2003Q1", "2004Q2")
        self.assert_empty_but_answering(diced, cities)

    def test_cube_over_zero_records(self):
        cube = build_cube(build_schema([], YEARS, make_hierarchy()))
        assert all(axis.members == () for axis in cube.axes if axis.dimension != "time")
        assert len(cube.axis("time").members) == 28
        self.assert_empty_but_answering(cube, {})
        assert dice(cube, [("time", ("2001Q1",))]).cells == {}
        assert slice_cube(cube, "time", "2001Q1").mass() == (0, 0, 0)


class GroupingSpy:
    """Records which strategy the grouping helper took and the bincount
    slot arrays it asked for."""

    def __init__(self, monkeypatch):
        self.sorted = 0
        self.minlengths = []
        unique, bincount = np.unique, np.bincount

        def spy_unique(*args, **kwargs):
            self.sorted += 1
            return unique(*args, **kwargs)

        def spy_bincount(x, weights=None, minlength=0):
            self.minlengths.append(minlength)
            return bincount(x, weights=weights, minlength=minlength)

        monkeypatch.setattr(np, "unique", spy_unique)
        monkeypatch.setattr(np, "bincount", spy_bincount)


class TestGroupingStrategies:
    def test_aggregate_counts_densely(self, fixture, monkeypatch):
        records, cube, cities = fixture
        spy = GroupingSpy(monkeypatch)
        table = aggregate(cube, AggregateQuery("seekers", ("sector", ("time", "year"))))
        assert spy.sorted == 0
        assert table_as_dict(table) == oracle_aggregate(
            records, "seekers", [("sector", "sector"), ("time", "year")], [], cities)

    def test_narrow_rollup_counts_densely(self, monkeypatch):
        # one year, one service, one education level: few slots per cell
        records = [r._replace(service_status="svc1", education_level="edu1")
                   for r in random_clean_records(41, 1500, 2000, 2000)]
        cube = build_cube(build_schema(records, (2000, 2000), make_hierarchy()))
        spy = GroupingSpy(monkeypatch)
        rolled = rollup(cube, "time", "year")
        assert spy.sorted == 0
        assert_matches_records(rolled, records, congress_city_map(records))

    def test_wide_sparse_rollup_sorts(self, monkeypatch):
        # 400 sectors over 300 records: the slot space dwarfs the cell count
        rnd = random.Random(43)
        records = [r._replace(sector=f"SEC-{rnd.randrange(400):03d}", status="directed")
                   for r in random_clean_records(43, 300)]
        cube = build_cube(build_schema(records, YEARS, make_hierarchy()))
        slots = 1
        for axis in cube.axes:
            slots *= len(axis.members)
        assert slots > 1000 * len(cube.cells)
        spy = GroupingSpy(monkeypatch)
        rolled = rollup(cube, "congress", "city")
        assert spy.sorted == 1
        assert max(spy.minlengths) <= len(cube.cells)
        cities = congress_city_map(records)
        assert_matches_records(rolled, records, cities)
        assert_matches_records(rollup(rolled, "time", "year"), records, cities)

    @pytest.mark.parametrize("slots_per_row", [0, 10 ** 9])
    def test_both_strategies_agree_with_oracle(self, monkeypatch, slots_per_row):
        # 0 forces the sort for every grouping, 10**9 the dense count; a fresh
        # cube, so no cuboid comes from a memo filled under the other strategy
        monkeypatch.setattr(warehouse_module, "_DENSE_SLOTS_PER_ROW", slots_per_row)
        records, cube, cities = build(21, 2500)
        for dim, level in (("time", "year"), ("congress", "city")):
            rolled = rollup(cube, dim, level)
            assert rolled.mass() == cube.mass()
            assert_matches_records(rolled, records, cities)
        assert_matches_records(cube, records, cities)


# ---------------------------------------------------------------------------
# The cuboid memo: a warm cube answers and fails exactly as a cold one.

def error_of(cube, query):
    try:
        aggregate(cube, query)
    except Exception as exc:   # the test compares whatever was raised
        return type(exc), str(exc)
    return None


class TestCuboidMemo:
    def test_battery_cold_then_warm_and_on_derived_cubes(self):
        rnd = random.Random(6160)
        records, cube, cities = build(460, 1200)
        queries = seeded_queries(rnd, records, cities, LEVEL_CHOICES, 40)
        assert_battery(cube, records, cities, queries)
        built = dict(cube._cuboids)
        assert built
        assert_battery(cube, records, cities, queries)
        assert cube._cuboids == built       # the warm pass built nothing new

        for dim, level in (("time", "year"), ("congress", "city")):
            levels = {**LEVEL_CHOICES, dim: (level,)}
            rolled = rollup(cube, dim, level)
            assert rolled is rollup(cube, dim, level)
            assert_battery(rolled, records, cities,
                           seeded_queries(rnd, records, cities, levels))
        sectors = ("SEC-A", "SEC-C", "")
        kept = [r for r in records if r.sector in sectors]
        assert_battery(dice(cube, [("sector", sectors)]), kept, cities,
                       seeded_queries(rnd, kept, cities, LEVEL_CHOICES))
        in_city = [r for r in records if r.city == "CityB"]
        sliced_levels = {d: v for d, v in LEVEL_CHOICES.items() if d != "city"}
        assert_battery(slice_cube(cube, "city", "CityB"), in_city, cities,
                       seeded_queries(rnd, in_city, cities, sliced_levels))

    def test_errors_equal_on_cold_and_warm_memo(self):
        _, base, _ = build(461, 600)
        bad = [
            AggregateQuery("total", (("congress", "congress"),)),
            AggregateQuery("total", (("congress", "city"),),
                           (("congress", "congress", ("CGA1",)),)),
            AggregateQuery("total", ("sector",), (("sector", ("NOPE",)),)),
            AggregateQuery("total", ("time",), (("time", "year", ("1999",)),)),
            AggregateQuery("total", ("edulevel",), (("sector", ()),)),
            AggregateQuery("total", ("sector", ("sector", "sector"))),
        ]
        warmers = [AggregateQuery("total", (("congress", "city"),)),
                   AggregateQuery("total", ("sector",)),
                   AggregateQuery("total", ("time",)),
                   AggregateQuery("total", ("edulevel", "sector"))]
        cube = rollup(base, "congress", "city")
        cold = [error_of(cube, query) for query in bad]
        assert [kind for kind, _ in cold] == [BadLevel, BadLevel, UnknownMember,
                                              UnknownMember, EmptyMemberSet, BadQuery]
        for query in warmers:
            aggregate(cube, query)
        assert len(cube._cuboids) == len(warmers)
        assert [error_of(cube, query) for query in bad] == cold

    def test_key_space_bounded_and_read_only(self):
        records, cube, cities = build(462, 500)
        choices = [(None, *levels) for levels in LEVEL_CHOICES.values()]
        for picked in itertools.product(*choices):
            group_by = tuple((d, level) for d, level in zip(LEVEL_CHOICES, picked)
                             if level is not None)
            got = table_as_dict(aggregate(cube, AggregateQuery("directed", group_by)))
            assert got == oracle_aggregate(records, "directed", list(group_by), [],
                                           cities)
        for dim, level in (("time", "year"), ("congress", "city")):
            assert rollup(cube, dim, level).mass() == cube.mass()
        # 3 * 3 * 2**4 keys, less the empty one, which the base cube answers;
        # a roll-up's key is one of them
        assert len(cube._cuboids) == 143
        for c in (cube, *cube._cuboids.values()):
            for array in (c.codes, c.measures):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[..., :1] = 0

"""Star schema: dimension building, fact loading, persistence, refresh."""

import builtins
import hashlib
import io
import math
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobcube.errors import (
    CorruptManifest,
    EmptyYearRange,
    InvalidFieldValue,
    UnresolvedDimensionValue,
)
from jobcube import warehouse
from jobcube.records import DIMENSIONS, write_csv
from jobcube.warehouse import (
    DIM_FILES,
    FACT_COLUMNS,
    DimensionRow,
    DimensionTable,
    StarSchema,
    build_schema,
    check_integrity,
    fact_index,
    load_schema,
    logically_equal,
    persist,
    refresh,
)

from oracle import (make_hierarchy, oracle_fact_problems, oracle_facts, oracle_integrity,
                    random_clean_records)

YEARS = (2000, 2006)

# sha256 of every file `persist` writes for the module's schema fixture
PINNED_SHA256 = {
    "dim_city.csv": "35104bfce7a2a82cffee1dd58ddd297dae118332291855fb9a828d5e46ce66ac",
    "dim_congress.csv": "9adea70e05cde71a4bccdd8098f6c13119a338a04fb9f19278df875200dcbfd4",
    "dim_edulevel.csv": "b88abe3ff1dfd5e7be1c7e453c4d457b93f94c9add77e8e89dc3dfc01b037394",
    "dim_sector.csv": "f2754f2196784886d2171c379d94f71bb8fd701d1407d2f47cbd7adf242cfd51",
    "dim_service.csv": "7dbf18f0aa70e29c7906e1bee45a8d29bc98c485f87c7a3f1112ca85a652c313",
    "dim_time.csv": "65115512dd6188ddd4c1eda7ad08b93f2448b46dcd25c57a2e50abf3bd254928",
    "fact.csv": "52e155bd163ed3fcece8ad396f5d18f38ce65e7a2eea4bf0c2c5882e752aeea2",
    "manifest.txt": "681c52aa083ba4ddceebbff55aef546d1baffc9e2e3d5855c99d1d6189642da6",
}


def count_opens(monkeypatch) -> list[str]:
    """The names of the files opened from now on, through `open` or `io.open`."""
    opened = []
    for module, name in ((io, "open"), (builtins, "open")):
        real = getattr(module, name)

        def counting(file, *args, real=real, **kwargs):
            opened.append(Path(file).name)
            return real(file, *args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return opened


@pytest.fixture(scope="module")
def schema():
    return build_schema(random_clean_records(1, 2000), YEARS, make_hierarchy())


class TestDimensions:
    def test_time_is_exhaustive(self, schema):
        time = schema.dimensions["time"]
        assert len(time) == 28
        keys = [r.natural_key for r in time.rows]
        assert keys[:4] == ["2000Q1", "2000Q2", "2000Q3", "2000Q4"]
        assert keys[-1] == "2006Q4"
        per_year = {}
        for r in time.rows:
            per_year.setdefault(r.attributes["year"], []).append(
                r.attributes["quarter"])
        assert all(sorted(qs) == ["Q1", "Q2", "Q3", "Q4"]
                   for qs in per_year.values())

    def test_ids_dense_and_sorted(self, schema):
        for table in schema.dimensions.values():
            assert [r.surrogate_id for r in table.rows] == list(
                range(1, len(table) + 1))
            keys = [r.natural_key for r in table.rows]
            assert keys == sorted(keys)

    def test_observed_members_only(self, schema):
        records = random_clean_records(1, 2000)
        assert {r.natural_key for r in schema.dimensions["sector"].rows} == {
            rec.sector for rec in records}
        assert {r.natural_key for r in schema.dimensions["edulevel"].rows} == {
            rec.education_level for rec in records}

    def test_empty_sector_is_a_member(self, schema):
        assert "" in {r.natural_key for r in schema.dimensions["sector"].rows}

    def test_congress_rows_carry_city_parent(self, schema):
        attrs = {r.natural_key: r.attributes["city"]
                 for r in schema.dimensions["congress"].rows}
        assert attrs["CGA1"] == "CityA"
        assert attrs["CGB2"] == "CityB"
        assert attrs["UNKNOWN"] == "UNKNOWN"     # unmapped values parent to themselves

    def test_empty_year_range(self):
        with pytest.raises(EmptyYearRange):
            build_schema([], (2005, 2004), make_hierarchy())


class TestFacts:
    def test_one_read_only_int64_array(self, schema):
        assert schema.facts.dtype == np.int64
        assert schema.facts.shape == (len(schema.facts), 9)
        assert not schema.facts.flags.writeable

    def test_grain_and_conservation(self, schema):
        records = random_clean_records(1, 2000)
        keys = [tuple(row[:6]) for row in schema.facts.tolist()]
        assert len(keys) == len(set(keys))
        assert sum(schema.facts[:, 6].tolist()) == len(records)
        for total, seekers, directed in schema.facts[:, 6:].tolist():
            assert total == seekers + directed

    def test_fact_reflects_records(self, schema):
        assert fact_index(schema) == oracle_facts(random_clean_records(1, 2000), YEARS)

    @pytest.mark.parametrize("seed", range(12))
    def test_build_and_refresh_match_the_oracle(self, seed):
        """Seeded records with new members, times outside the range and bad
        statuses: counts, or the error naming the first bad record."""
        rnd = random.Random(seed)
        hierarchy = make_hierarchy()
        records = random_clean_records(300 + seed, rnd.randint(20, 400))
        base = build_schema(records[:rnd.randint(1, len(records) - 1)], YEARS, hierarchy)
        for _ in range(rnd.randint(0, 4)):
            i = rnd.randrange(len(records))
            records[i] = records[i]._replace(**rnd.choice([
                {"sector": "SEC-NEW", "city": "CityNew", "congress": "CG-NEW"},
                {"year": rnd.choice((YEARS[0] - 1, YEARS[1] + 1))},
                {"quarter": "Q5"},
                {"status": rnd.choice(("waiting", "", "Seeker"))},
            ]))
        want = oracle_facts(records, YEARS)
        for load in (lambda: build_schema(records, YEARS, hierarchy),
                     lambda: refresh(base, records, hierarchy)):
            if isinstance(want, dict):
                assert fact_index(load()) == want
            else:
                with pytest.raises(type(want)) as info:
                    load()
                assert str(info.value) == str(want)

    def test_year_outside_range_rejected(self):
        records = random_clean_records(3, 50)
        alien = records[0]._replace(year=1999)
        with pytest.raises(UnresolvedDimensionValue):
            build_schema(records + [alien], YEARS, make_hierarchy())

    def test_bad_status_rejected(self):
        records = random_clean_records(4, 10)
        bad = records[0]._replace(status="waiting")
        with pytest.raises(InvalidFieldValue):
            build_schema([bad], YEARS, make_hierarchy())

    def test_non_text_status_rejected(self):
        records = random_clean_records(4, 10)
        with pytest.raises(InvalidFieldValue):
            build_schema([records[0]._replace(status=1)], YEARS, make_hierarchy())


class TestPersistence:
    def test_round_trip(self, tmp_path, schema):
        persist(schema, tmp_path / "w")
        loaded = load_schema(tmp_path / "w")
        assert logically_equal(loaded, schema)
        assert loaded.meta == schema.meta
        for dim, table in schema.dimensions.items():
            assert loaded.dimensions[dim].rows == table.rows

    def test_expected_files(self, tmp_path, schema):
        persist(schema, tmp_path / "w")
        names = {p.name for p in (tmp_path / "w").iterdir()}
        assert names == {"manifest.txt", "fact.csv", *DIM_FILES.values()}

    def test_byte_deterministic(self, tmp_path, schema):
        persist(schema, tmp_path / "w1")
        persist(schema, tmp_path / "w2")
        for p1 in sorted((tmp_path / "w1").iterdir()):
            assert p1.read_bytes() == (tmp_path / "w2" / p1.name).read_bytes()

    def test_load_stamp_is_content_derived(self, tmp_path, schema):
        assert schema.meta["loaded"].startswith("content:")
        rebuilt = build_schema(random_clean_records(1, 2000), YEARS,
                               make_hierarchy())
        assert rebuilt.meta["loaded"] == schema.meta["loaded"]

    def test_pinned_bytes(self, tmp_path, schema):
        persist(schema, tmp_path / "w")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (tmp_path / "w").iterdir()}
        assert digests == PINNED_SHA256

    def test_carriage_return_label_round_trips(self, tmp_path):
        records = random_clean_records(5, 200)
        records[0] = records[0]._replace(sector="SEC\rX", status="directed")
        schema = build_schema(records, YEARS, make_hierarchy())
        persist(schema, tmp_path / "w")
        loaded = load_schema(tmp_path / "w")
        assert "SEC\rX" in {r.natural_key for r in loaded.dimensions["sector"].rows}
        assert logically_equal(loaded, schema)
        assert check_integrity(loaded) == []

    def test_load_reads_each_table_once(self, tmp_path, schema, monkeypatch):
        """The bytes hashed are the bytes parsed: one open per table file."""
        persist(schema, tmp_path / "w")
        opened = count_opens(monkeypatch)
        assert logically_equal(load_schema(tmp_path / "w"), schema)
        assert sorted(opened) == sorted(["manifest.txt", "fact.csv", *DIM_FILES.values()])
        monkeypatch.undo()
        fact = tmp_path / "w" / "fact.csv"
        fact.write_bytes(fact.read_bytes() + b"1,1,1,1,1,1,1,1,0\n")
        with pytest.raises(CorruptManifest, match="fact.csv: checksum mismatch"):
            load_schema(tmp_path / "w")

    def test_persist_writes_each_table_once(self, tmp_path, schema, monkeypatch):
        """The bytes hashed are the bytes written: one open per file, none read back.
        Each file is opened as its `.<name>.<pid>.tmp` and renamed over the name."""
        opened = count_opens(monkeypatch)
        persist(schema, tmp_path / "w")
        monkeypatch.undo()
        targets = [re.fullmatch(r"\.(.+)\.[0-9]+\.tmp", name)[1] for name in opened]
        assert sorted(targets) == sorted(["manifest.txt", "fact.csv", *DIM_FILES.values()])
        assert logically_equal(load_schema(tmp_path / "w"), schema)

    def test_fact_bytes_are_write_csv_bytes(self, tmp_path, schema):
        """The one-pass fact rendering writes what write_csv writes, measures
        past 2**31 and a 19-digit value (which loads through the csv path) included."""
        facts = schema.facts.copy()
        facts[:, 6:] += 2**40
        facts[-1, 6] = 2**62
        big = replace(schema, facts=facts)
        persist(big, tmp_path / "w")
        text = io.StringIO()
        write_csv(text, FACT_COLUMNS, facts.tolist())
        assert (tmp_path / "w" / "fact.csv").read_bytes() == text.getvalue().encode()
        assert np.array_equal(load_schema(tmp_path / "w").facts, facts)

    def test_tampered_table_detected(self, tmp_path, schema):
        persist(schema, tmp_path / "w")
        fact = tmp_path / "w" / "fact.csv"
        fact.write_bytes(fact.read_bytes().replace(b"1", b"2", 1))
        with pytest.raises(CorruptManifest):
            load_schema(tmp_path / "w")

    def test_missing_table_detected(self, tmp_path, schema):
        persist(schema, tmp_path / "w")
        (tmp_path / "w" / "dim_sector.csv").unlink()
        with pytest.raises(CorruptManifest):
            load_schema(tmp_path / "w")

    def test_damaged_manifest_detected(self, tmp_path, schema):
        persist(schema, tmp_path / "w")
        manifest = tmp_path / "w" / "manifest.txt"
        manifest.write_text("nonsense\n", encoding="utf-8")
        with pytest.raises(CorruptManifest):
            load_schema(tmp_path / "w")


def restamp_fact(directory: Path, data: bytes) -> None:
    """Write data as fact.csv and give the manifest its row count (lines after
    the header, as the csv module splits them) and checksum, so that only the
    parser can find a fault."""
    (directory / "fact.csv").write_bytes(data)
    rows = len(data.splitlines()) - 1
    manifest = directory / "manifest.txt"
    manifest.write_text(re.sub(
        r"table=fact rows=\d+ sha256=\w+",
        f"table=fact rows={rows} sha256={hashlib.sha256(data).hexdigest()}",
        manifest.read_text(encoding="utf-8")), encoding="utf-8")


def load_both_ways(directory: Path):
    """load_schema's facts, or its CorruptManifest message, as it runs and
    with the bulk fact parse switched off, so the csv path reads every file."""
    outcomes = []
    for bulk in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not bulk:
                patch.setattr(warehouse, "_fact_array", lambda data, rows: None)
            try:
                outcomes.append(load_schema(directory).facts)
            except CorruptManifest as exc:
                outcomes.append(str(exc))
    return outcomes


def edit_rows(edit):
    """An edit of fact.csv's bytes applying edit(rows) to its lines after the header."""
    def apply(data: bytes) -> bytes:
        header, *rows = data.split(b"\n")
        return b"\n".join([header, *edit(rows[:-1]), b""])
    return apply


def set_field(row: int, column: int, value: bytes):
    def edit(rows):
        fields = rows[row].split(b",")
        fields[column] = value
        rows[row] = b",".join(fields)
        return rows
    return edit_rows(edit)


def widths_cancel(rows):
    rows[0] = rows[0].rsplit(b",", 1)[0]
    rows[1] += b",7"
    return rows


def nineteen_digits(facts):
    facts = facts.copy()
    facts[0, 6] = 1234567890123456789
    return facts


def unchanged(facts):
    return facts


# (edit of fact.csv's bytes, then how its error must begin, or a function
# from the written facts to the facts it must load as)
FACT_FAULTS = [
    pytest.param(set_field(0, 6, b"1234567890123456789"), nineteen_digits,
                 id="nineteen_digits"),
    pytest.param(set_field(0, 6, b"9223372036854775808"), "fact.csv: row 1: not integers",
                 id="int64_overflow"),
    pytest.param(edit_rows(lambda rows: [rows[0], rows[1] + b",", *rows[2:]]),
                 "fact.csv: row 2: 10 columns, expected 9", id="trailing_comma"),
    pytest.param(set_field(1, 3, b""), "fact.csv: row 2: not integers", id="empty_field"),
    pytest.param(edit_rows(widths_cancel), "fact.csv: row 1: 8 columns, expected 9",
                 id="widths_cancel"),
    pytest.param(edit_rows(lambda rows: [rows[0], b"", *rows[1:]]),
                 "fact.csv: row 2: 0 columns, expected 9", id="blank_line"),
    pytest.param(set_field(0, 0, b"+1"), "fact.csv: row 1: not integers", id="plus_sign"),
    pytest.param(set_field(0, 0, b" 1"), "fact.csv: row 1: not integers", id="leading_space"),
    pytest.param(set_field(0, 0, b"0_1"), "fact.csv: row 1: not integers", id="underscore"),
    pytest.param(set_field(0, 0, "\u0661".encode()), "fact.csv: row 1: not integers",
                 id="arabic_digit"),
    pytest.param(set_field(0, 0, b'"1"'), unchanged, id="quoted"),
    pytest.param(lambda data: data.replace(b"\n", b"\r\n"), unchanged, id="crlf"),
    pytest.param(lambda data: data[:-1], unchanged, id="no_final_newline"),
    pytest.param(lambda data: data.split(b"\n", 1)[0] + b"\n", lambda facts: facts[:0],
                 id="header_only"),
]


class TestFactParse:
    """The bulk fact parse takes only plain files and gives what the csv path gives."""

    def test_written_file_takes_the_bulk_parse(self, tmp_path, schema):
        persist(schema, tmp_path / "w")
        data = (tmp_path / "w" / "fact.csv").read_bytes()
        fast = warehouse._fact_array(data, len(schema.facts))
        assert fast.dtype == np.int64 and np.array_equal(fast, schema.facts)
        bulk, csv_path = load_both_ways(tmp_path / "w")
        assert np.array_equal(bulk, schema.facts) and np.array_equal(csv_path, schema.facts)

    @pytest.mark.parametrize("edit, expected", FACT_FAULTS)
    def test_fault_gives_what_the_csv_path_gives(self, tmp_path, schema, edit, expected):
        persist(schema, tmp_path / "w")
        data = edit((tmp_path / "w" / "fact.csv").read_bytes())
        restamp_fact(tmp_path / "w", data)
        assert warehouse._fact_array(data, len(data.splitlines()) - 1) is None
        bulk, csv_path = load_both_ways(tmp_path / "w")
        if isinstance(expected, str):
            assert bulk == csv_path and bulk.startswith(expected)
        else:
            assert np.array_equal(bulk, csv_path)
            assert bulk.dtype == np.int64 and np.array_equal(bulk, expected(schema.facts))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                              st.integers(0, 10**6), st.sampled_from(b"0123456789,\n\r\" +-x")),
                    min_size=1, max_size=4))
    def test_mutated_fact_gives_what_the_csv_path_gives(self, mutated_fact_dir, mutations):
        directory, header, data = mutated_fact_dir
        body = bytearray(data)
        for op, at, byte in mutations:
            at %= len(body) + 1
            if op == "insert":
                body.insert(at, byte)
            elif at < len(body):
                if op == "replace":
                    body[at] = byte
                else:
                    del body[at]
        restamp_fact(directory, header + body)
        bulk, csv_path = load_both_ways(directory)
        if isinstance(bulk, str):
            assert bulk == csv_path
        else:
            assert bulk.dtype == np.int64 and np.array_equal(bulk, csv_path)


@pytest.fixture(scope="module")
def mutated_fact_dir(tmp_path_factory, schema):
    """A persisted warehouse, and the header and first five rows of its
    fact.csv, which the mutation test rewrites."""
    directory = tmp_path_factory.mktemp("mutated_fact")
    persist(schema, directory)
    header, *rows = (directory / "fact.csv").read_bytes().splitlines(keepends=True)
    return directory, header, b"".join(rows[:5])


class TestIntegrity:
    def test_clean_schema_passes(self, schema):
        assert check_integrity(schema) == []

    def test_fact_checks_match_row_loop(self, schema):
        rnd = random.Random(11)
        for trial in range(40):
            facts = np.array(schema.facts)
            for _ in range(rnd.randint(1, 6)):
                i = rnd.randrange(len(facts))
                kind = rnd.randrange(4)
                if kind == 0:
                    facts[i, rnd.randrange(6)] = rnd.choice([0, -1, 999])
                elif kind == 1:
                    facts = np.vstack((facts, facts[rnd.randrange(len(facts))]))
                elif kind == 2:
                    facts[i, 6 + rnd.randrange(3)] = -rnd.randint(1, 3)
                else:
                    facts[i, 6] += 1
            broken = StarSchema(schema.dimensions, facts, schema.meta)
            found = [p for p in check_integrity(broken) if p.startswith("fact (")]
            assert found == oracle_fact_problems(broken), trial

    def test_detects_dangling_foreign_key(self, schema):
        facts = np.vstack((schema.facts[1:], schema.facts[:1]))
        facts[-1, 0] = 999                      # city_id
        broken = StarSchema(schema.dimensions, facts, schema.meta)
        assert any("city" in issue for issue in check_integrity(broken))

    def test_detects_measure_mismatch(self, schema):
        facts = np.vstack((schema.facts[1:], schema.facts[:1]))
        facts[-1, 6] += 1                       # total_applicants
        broken = StarSchema(schema.dimensions, facts, schema.meta)
        assert check_integrity(broken) != []

    def test_detects_sparse_ids(self, schema):
        rows = schema.dimensions["sector"].rows
        gappy = DimensionTable((*rows[:-1], replace(rows[-1], surrogate_id=99)))
        broken = StarSchema({**schema.dimensions, "sector": gappy},
                            schema.facts, schema.meta)
        assert any("Sector" in issue and "dense" in issue
                   for issue in check_integrity(broken))

    def test_detects_duplicate_fact_key(self, schema):
        broken = StarSchema(schema.dimensions,
                            np.vstack((schema.facts, schema.facts[:1])), schema.meta)
        assert any("duplicate" in issue for issue in check_integrity(broken))


# dimension sizes in DIMENSIONS order; the last two put the radix product of
# the six sizes at and past 2**63, where ids no longer pack into one int64
KEY_SPACES = [
    pytest.param((3, 7, 6, 5, 4, 28), id="small"),
    pytest.param((2**10,) * 5 + (2**12,), id="product_2**62"),
    pytest.param((2**10,) * 5 + (2**13,), id="product_2**63"),
    pytest.param((2**11,) * 6, id="product_2**66"),
]


def seeded_facts(rnd: random.Random, sizes) -> np.ndarray:
    """Fact rows over ids drawn below sizes, in random or id order, with
    repeated key tuples next to and far from their first row, and at times a
    dangling id (0, -1 or one past the table) or a broken measure."""
    rows = []
    for _ in range(rnd.randint(0, 60)):
        seekers, directed = rnd.randint(0, 5), rnd.randint(0, 5)
        rows.append([rnd.randint(1, size) for size in sizes] + [seekers + directed, seekers,
                                                                directed])
    if rnd.random() < 0.5:
        rows.sort()
    for _ in range(rnd.randint(0, 4) if rows else 0):
        i = rnd.randrange(len(rows))
        at = i + 1 if rnd.random() < 0.5 else rnd.randrange(len(rows) + 1)
        rows.insert(at, list(rows[i]))
    for _ in range(rnd.randint(0, 2) if rows and rnd.random() < 0.3 else 0):
        column = rnd.randrange(6)
        rows[rnd.randrange(len(rows))][column] = rnd.choice([0, -1, sizes[column] + 1])
    if rows and rnd.random() < 0.2:
        rows[rnd.randrange(len(rows))][6 + rnd.randrange(3)] -= rnd.randint(1, 3)
    return np.array(rows, dtype=np.int64).reshape(len(rows), 9)


class TestDuplicateKeys:
    """check_integrity's problem list on fact tables of every shape equals the
    row-at-a-time oracle's, on packed keys and on the row-wise fallback."""

    @pytest.mark.parametrize("sizes", KEY_SPACES)
    def test_matches_the_oracle(self, monkeypatch, sizes):
        dims = {dim: DimensionTable(tuple(DimensionRow(i, f"{dim}-{i}")
                                          for i in range(1, size + 1)))
                for dim, size in zip(DIMENSIONS, sizes)}
        rowwise = []
        real_unique = np.unique

        def spy(array, *args, **kwargs):
            rowwise.append(kwargs.get("axis") == 0)
            return real_unique(array, *args, **kwargs)
        monkeypatch.setattr(np, "unique", spy)
        rnd = random.Random(sum(sizes))
        for trial in range(40):
            facts = seeded_facts(rnd, sizes)
            records = int(facts[:, 6].sum()) + (trial % 5 == 0)
            schema = StarSchema(dims, facts, {"year_range": "2000:2006", "records": str(records)})
            rowwise.clear()
            assert check_integrity(schema) == oracle_integrity(schema), trial
            in_range = ((facts[:, :6] >= 1) & (facts[:, :6] <= sizes)).all()
            assert rowwise == [not in_range or math.prod(sizes) >= 2**63], trial


class TestRefresh:
    def test_ids_append_only(self):
        hierarchy = make_hierarchy()
        records = random_clean_records(7, 800)
        first, rest = records[:500], records
        schema = build_schema(first, YEARS, hierarchy)
        refreshed = refresh(schema, rest, hierarchy)
        for dim, table in schema.dimensions.items():
            new_ids = {r.natural_key: r.surrogate_id
                       for r in refreshed.dimensions[dim].rows}
            for row in table.rows:
                assert new_ids[row.natural_key] == row.surrogate_id

    def test_matches_rebuild_logically(self):
        hierarchy = make_hierarchy()
        rnd = random.Random(99)
        for trial in range(20):
            records = random_clean_records(100 + trial, rnd.randint(30, 600))
            cut = rnd.randint(1, len(records) - 1)
            schema = build_schema(records[:cut], YEARS, hierarchy)
            refreshed = refresh(schema, records, hierarchy)
            rebuilt = build_schema(records, YEARS, hierarchy)
            assert logically_equal(refreshed, rebuilt)
            assert check_integrity(refreshed) == []
            assert check_integrity(rebuilt) == []

    def test_noop_refresh_identical(self):
        hierarchy = make_hierarchy()
        records = random_clean_records(8, 300)
        schema = build_schema(records, YEARS, hierarchy)
        refreshed = refresh(schema, records, hierarchy)
        assert refreshed.dimensions == schema.dimensions
        assert np.array_equal(refreshed.facts, schema.facts)
        assert refreshed.meta == schema.meta

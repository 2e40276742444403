"""Record CSV files: what write_records_csv writes, read_records_csv reads back."""

import csv
import io
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobcube.cube import ResultTable
from jobcube.errors import MalformedCsv
from jobcube.records import (
    ALL_FIELDS,
    CanonicalApplicant,
    parse_int,
    parse_years,
    read_records_csv,
    write_csv,
    write_records_csv,
)
from jobcube.reporting import write_result

# Text that stresses CSV quoting: delimiters, quotes, both line-break
# characters, surrounding spaces, and the empty string.
awkward_text = st.one_of(
    st.just(""),
    st.text(alphabet=st.sampled_from(list('ab ,"\n\r')), max_size=8),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=8),
)

records = st.builds(
    CanonicalApplicant,
    **{name: st.integers(0, 9999) if name == "year" else awkward_text
       for name in ALL_FIELDS},
)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("records") / "records.csv"


@settings(max_examples=60, deadline=None)
@given(st.lists(records, max_size=8))
def test_csv_round_trip(csv_path, batch):
    assert write_records_csv(batch, csv_path) == len(batch)
    assert read_records_csv(csv_path) == batch


def reference_read(path):
    """The reader without value sharing: one new str per cell, each year parsed."""
    year = ALL_FIELDS.index("year")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [CanonicalApplicant._make([*row[:year], parse_int(row[year]) if row[year] else 0,
                                      *row[year + 1:]]) for row in rows]


# Few distinct values, so rows repeat them; the year may be written empty.
repeating_records = st.builds(
    CanonicalApplicant,
    **{name: st.sampled_from(["", "2003", "-7"]) if name == "year"
       else st.sampled_from(["", "a,b", 'q"t', "x\ry", "Tripoli"]) for name in ALL_FIELDS},
)


@settings(max_examples=60, deadline=None)
@given(st.lists(repeating_records, max_size=12))
def test_read_shares_equal_values(csv_path, batch):
    write_records_csv(batch, csv_path)
    got = read_records_csv(csv_path)
    assert got == reference_read(csv_path)
    for name in ALL_FIELDS[2:]:             # national_id and name are not shared
        first = {}
        for record in got:
            value = getattr(record, name)
            assert first.setdefault(value, value) is value, name


def test_non_utf8_bytes_fail_closed(tmp_path):
    path = tmp_path / "staging.csv"
    path.write_bytes(",".join(ALL_FIELDS).encode("ascii") + b"\n\xff\n")
    with pytest.raises(MalformedCsv, match="staging.csv: not UTF-8"):
        read_records_csv(path)


def test_write_csv_quotes_only_rows_holding_a_cr(tmp_path):
    rows = [(f"r{i}", i) for i in range(5000)]
    rows[4500] = ("A\rB", 4500)
    path = tmp_path / "table.csv"
    assert write_csv(path, ("label", "n"), rows) == 5000
    data = path.read_bytes()
    assert data.startswith(b"label,n\nr0,0\nr1,1\n")
    assert b'\nr4499,4499\n"A\rB","4500"\nr4501,4501\n' in data
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["label", "n"]] + [[a, str(b)] for a, b in rows]


def test_write_csv_to_a_stream():
    stream = io.StringIO()
    assert write_csv(stream, ("a", "b"), []) == 0
    assert write_csv(stream, ("a", "b"), iter([("x,y", 1)])) == 1
    assert stream.getvalue() == 'a,b\na,b\n"x,y",1\n'


class Unprintable:
    def __str__(self):
        raise RuntimeError("write failed")


def failing(rows, at=1000):
    """rows, raising in place of row `at`."""
    for i, row in enumerate(rows):
        if i == at:
            raise RuntimeError("write failed")
        yield row


# Each writes 1,800 records to a path and fails at row 1,000.
FAILING_WRITES = [
    pytest.param(lambda path, rows: write_csv(path, ALL_FIELDS, failing(rows)), id="write_csv"),
    pytest.param(lambda path, rows: write_records_csv(failing(rows), path),
                 id="write_records_csv"),
    pytest.param(lambda path, rows: write_result(
        ResultTable(ALL_FIELDS, tuple(r._replace(name=Unprintable()) if i == 1000 else r
                                      for i, r in enumerate(rows))), path, "csv"),
                 id="write_result"),
]


@pytest.mark.parametrize("write", FAILING_WRITES)
def test_a_failed_write_leaves_the_old_file_whole(tmp_path, write):
    path = tmp_path / "clean.csv"
    old = [CanonicalApplicant(national_id=f"N{i:05d}", year=2000 + i % 7) for i in range(1800)]
    write_records_csv(old, path)
    old_bytes = path.read_bytes()
    with pytest.raises(RuntimeError, match="write failed"):
        write(path, [r._replace(name="new") for r in old])
    assert path.read_bytes() == old_bytes
    assert [p.name for p in tmp_path.iterdir()] == ["clean.csv"]     # no .*.tmp left


def test_a_device_is_written_in_place(tmp_path):
    """/dev/null, named or behind a symlink, stays a device with no temp file beside it."""
    link = tmp_path / "out.csv"
    link.symlink_to(os.devnull)
    for target in (os.devnull, link):
        write_result(ResultTable(("a",), (("1",),)), target, "csv")
    assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)
    assert link.is_symlink()
    assert not [n for n in os.listdir(os.path.dirname(os.devnull)) if n.endswith(".tmp")]


def test_a_write_through_a_symlink_replaces_the_file_it_names(tmp_path):
    real = tmp_path / "real.csv"
    write_csv(real, ("a",), [("old",)])
    real.chmod(0o640)
    link = tmp_path / "clean.csv"
    link.symlink_to(real.name)
    write_csv(link, ("a",), [("new",)])
    assert link.is_symlink() and link.resolve() == real
    assert real.read_text(encoding="utf-8") == "a\nnew\n"
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.csv", "real.csv"]


@pytest.mark.parametrize("value, years", [
    (2003, (2003, 2003)), ("2003", (2003, 2003)), ("2001:2004", (2001, 2004)),
    ("02001:2004", (2001, 2004)), ("-5:-3", (-5, -3)), ("2004:2004", (2004, 2004)),
])
def test_parse_years_reads_a_range(value, years):
    assert parse_years(value) == years


@pytest.mark.parametrize("value, message", [
    ("2006:2000", "empty range '2006:2000'"),
    ("x", "bad range 'x'"),
    ("2001:", "bad range '2001:'"),
    ("2001:2002:2003", "bad range '2001:2002:2003'"),
    ("2_000:+2006", "bad range '2_000:+2006'"),        # int() reads both years
    (" 2001", "bad range ' 2001'"),
    ("\u0662\u0660\u0660\u0661", "bad range '\u0662\u0660\u0660\u0661'"),
    (True, "expected 'A' or 'A:B', got True"),
    (2003.0, "expected 'A' or 'A:B', got 2003.0"),
    (None, "expected 'A' or 'A:B', got None"),
])
def test_parse_years_refuses_what_is_no_range(value, message):
    with pytest.raises(ValueError) as info:
        parse_years(value)
    assert str(info.value) == message

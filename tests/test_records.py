"""Record CSV files: what write_records_csv writes, read_records_csv reads back."""

import csv
import gc
import io
import os
import stat
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobcube import records as records_module
from jobcube.cube import ResultTable
from jobcube.errors import MalformedCsv
from jobcube.records import (
    ALL_FIELDS,
    CanonicalApplicant,
    find_row,
    parse_int,
    parse_years,
    read_columns,
    read_records_csv,
    text_years,
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


def reference_write(header, rows, delimiter):
    """write_csv's text, one row at a time through the csv module: a row
    holding a CR fully quoted, every other row with minimal quoting."""
    stream = io.StringIO()
    plain = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
    quote_all = csv.writer(stream, delimiter=delimiter, lineterminator="\n",
                           quoting=csv.QUOTE_ALL)
    plain.writerow(header)
    for row in rows:
        (quote_all if any("\r" in v for v in row if type(v) is str) else plain).writerow(row)
    return stream.getvalue()


class Shouty(str):
    """A str whose str() differs from its text, which the csv module writes."""

    def __str__(self):
        return self.upper()


# Values the one-pass render must leave to the csv module (every delimiter a
# source may use, quotes, line breaks, the empty string, non-ASCII text) or
# render as it does (ints, a str subclass), and a few it never takes (None,
# a float, a bool).
cell = st.one_of(
    st.text(alphabet=st.sampled_from(list('ab ,;|\t"\n\r\u0644')), max_size=4),
    st.sampled_from(["", '""', "x", "\u0637\u0631\u0627\u0628\u0644\u0633"]),
    st.integers(-10**20, 10**20),
    st.sampled_from([None, 1.5, True, Shouty("ab")]),
)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 4), delimiter=st.sampled_from([",", ";", "|", "\t"]),
       data=st.data())
def test_write_csv_is_the_csv_module_row_by_row(width, delimiter, data):
    """The same text as the csv module row by row, for rows of the header's
    width and (rarely) of another, at several chunk sizes."""
    row = st.lists(cell, min_size=width, max_size=width)
    rows = data.draw(st.lists(st.one_of(row, row, row, st.lists(cell, max_size=5)),
                              max_size=12))
    header = [f"h{i}" for i in range(width)]
    for chunk_rows in (1, 3, 4096):
        stream = io.StringIO()
        with mock.patch.object(records_module, "_CHUNK_ROWS", chunk_rows):
            assert write_csv(stream, header, rows, delimiter) == len(rows)
        assert stream.getvalue() == reference_write(header, rows, delimiter)


def test_text_years_makes_each_distinct_year_text_once():
    records = [CanonicalApplicant(national_id=f"P{i}", year=2000 + i % 2) for i in range(4)]
    columns = text_years([list(column) for column in zip(*records)])
    year = ALL_FIELDS.index("year")
    assert columns[year] == ["2000", "2001", "2000", "2001"]
    assert columns[year][0] is columns[year][2]
    assert columns[:year] + columns[year + 1:] == [
        list(column) for i, column in enumerate(zip(*records)) if i != year]
    stream, want = io.StringIO(), io.StringIO()
    write_csv(stream, ALL_FIELDS, zip(*columns))
    write_records_csv(records, want)
    assert stream.getvalue() == want.getvalue()


def reference_columns(path, fields=ALL_FIELDS):
    """The named fields of a record file as csv.reader reads it, years parsed."""
    year = ALL_FIELDS.index("year")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [[*row[:year], parse_int(row[year]) if row[year] else 0, *row[year + 1:]]
                for row in list(csv.reader(fh))[1:]]
    return [[row[ALL_FIELDS.index(name)] for row in rows] for name in fields]


plain_records = st.builds(
    CanonicalApplicant,
    **{name: st.integers(0, 9999) if name == "year"
       else st.sampled_from(["", "Tripoli", "x y", "\u0633\u0631\u062a"]) for name in ALL_FIELDS},
)


# Quotes or a CR with no delimiter or LF beside them keep every row sixteen
# fields wide when split on ',' and LF, so only the plain check sees them.
quoted_records = st.builds(
    CanonicalApplicant,
    **{name: st.integers(0, 9999) if name == "year"
       else st.sampled_from(["", "x", 'q"t', '"', "x\ry"]) for name in ALL_FIELDS},
)


@settings(max_examples=80, deadline=None)
@given(head=st.lists(plain_records, max_size=30),
       middle=st.lists(st.one_of(records, quoted_records), max_size=4),
       tail=st.lists(plain_records, max_size=30),
       chunk_bytes=st.sampled_from([1, 64, 300, 1 << 16]),
       fields=st.lists(st.sampled_from(ALL_FIELDS), unique=True, min_size=1))
def test_read_columns_is_csv_reader(csv_path, head, middle, tail, chunk_bytes, fields):
    """Plain rows, then rows that may need quoting, then plain rows again, read
    in chunks of several sizes: the columns csv.reader reads, and each row's
    line as find_row counts it."""
    batch = head + middle + tail
    write_records_csv(batch, csv_path)
    with mock.patch.object(records_module, "_CHUNK_BYTES", chunk_bytes):
        assert read_columns(csv_path, fields) == reference_columns(csv_path, fields)
        assert [*map(CanonicalApplicant._make, zip(*read_columns(csv_path)))] == batch
        assert read_records_csv(csv_path) == batch
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        lines = [(reader.line_num, row) for row in reader]
    assert [find_row(csv_path, i) for i in range(len(batch))] == lines


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 16])
@pytest.mark.parametrize("enabled", [True, False])
def test_a_malformed_file_restores_the_collector(tmp_path, chunk_bytes, enabled):
    """The reader pauses the collector and restores the state it found, also
    when it refuses a file, whether the fault is in a plain chunk or not."""
    path = tmp_path / "clean.csv"
    write_records_csv([CanonicalApplicant(national_id=f"N{i}", year=2003) for i in range(50)],
                      path)
    text = path.read_text(encoding="utf-8").replace(",2003,", ",20x3,", 1)
    path.write_text(text, encoding="utf-8")
    (gc.enable if enabled else gc.disable)()
    try:
        for read in (read_records_csv, read_columns):
            with mock.patch.object(records_module, "_CHUNK_BYTES", chunk_bytes), \
                    pytest.raises(MalformedCsv, match="line 2: bad year '20x3'"):
                read(path)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 16])
def test_rows_whose_widths_cancel_out_fail_closed(tmp_path, chunk_bytes):
    """A 15-field row then a 17-field one hold as many fields as two good rows."""
    path = tmp_path / "staging.csv"
    write_records_csv([CanonicalApplicant(national_id=f"N{i}", year=2003) for i in range(4)],
                      path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[2], lines[3] = lines[2].replace(",", "", 1), lines[3] + ","
    path.write_text("\n".join(lines), encoding="utf-8")
    with mock.patch.object(records_module, "_CHUNK_BYTES", chunk_bytes):
        for read in (read_records_csv, read_columns):
            with pytest.raises(MalformedCsv, match="staging.csv: line 3: 15 columns, expected 16"):
                read(path)


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 16])
def test_a_bare_cr_ends_a_line_as_csv_reader_reads_it(tmp_path, chunk_bytes):
    """A CR left unquoted (by a writer other than write_csv) ends a line."""
    path = tmp_path / "staging.csv"
    write_records_csv([CanonicalApplicant(national_id=f"N{i}", year=2003) for i in range(4)],
                      path)
    path.write_bytes(path.read_bytes().replace(b"N2,", b"N2\r,"))
    with mock.patch.object(records_module, "_CHUNK_BYTES", chunk_bytes):
        for read in (read_records_csv, read_columns):
            with pytest.raises(MalformedCsv, match="staging.csv: line 4: 1 columns, expected 16"):
                read(path)


def test_a_file_without_a_header_line_fails_closed(tmp_path):
    """A 0-byte file holds no header, not zero records."""
    path = tmp_path / "clean.csv"
    path.write_bytes(b"")
    for read in (read_records_csv, read_columns):
        with pytest.raises(MalformedCsv) as caught:
            read(path)
        assert str(caught.value) == f"{path}: no header line"
    write_records_csv([], path)
    assert read_records_csv(path) == [] and read_columns(path) == [[] for _ in ALL_FIELDS]


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

"""Legacy format parsers and the canonical schema mapping."""

import hashlib
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobcube.config import load_sources
from jobcube.datagen import generate
from jobcube.errors import (
    ConfigError,
    DecodeError,
    InvalidFieldValue,
    JobcubeError,
    MalformedCsv,
    MalformedHeader,
    RaggedRow,
    ShortLine,
    TruncatedFile,
    UnsupportedFieldType,
)
from jobcube.records import ALL_FIELDS, CanonicalApplicant, write_records_csv
from jobcube.sources import (
    FIXED_FIELDS,
    MANDATORY_MAPPED,
    FieldDescriptor,
    IngestReport,
    SourceCounters,
    SourceSpec,
    Table,
    ingest_sources,
    parse_dbf,
    parse_delimited,
    parse_fixed_width,
    parse_source,
    read_dbf,
    record_mapper,
    render_dbf,
    render_delimited,
    render_fixed_width,
    row_mapper,
    validate_layout,
)

from oracle import oracle_ingest, oracle_record, oracle_row_writer
from test_datagen import PINNED_CONFIGS


def build_frozen_dbf() -> bytes:
    """Hand-assembled table: ID C4 + CITY C8, two records, second deleted.

    header_len = 32 + 32*2 + 1 = 97, record_len = 1 + 4 + 8 = 13.
    """
    head = bytes([0x03, 103, 7, 15])
    head += struct.pack("<IHH", 2, 97, 13)
    head += b"\x00" * 20
    desc_id = b"ID" + b"\x00" * 9 + b"C" + b"\x00" * 4 + bytes([4, 0]) + b"\x00" * 14
    desc_city = b"CITY" + b"\x00" * 7 + b"C" + b"\x00" * 4 + bytes([8, 0]) + b"\x00" * 14
    rec1 = b" " + b"A001" + b"Tripoli "
    rec2 = b"*" + b"A002" + b"Sirte   "
    return head + desc_id + desc_city + b"\x0d" + rec1 + rec2 + b"\x1a"


class TestDbf:
    def test_frozen_fixture_header_facts(self):
        table = read_dbf(build_frozen_dbf(), source_id="t")
        assert table.record_count == 2
        assert table.header_len == 97
        assert table.record_len == 13
        assert table.last_update == (103, 7, 15)
        assert [(f.name, f.kind, f.length, f.offset) for f in table.fields] == [
            ("ID", "C", 4, 0), ("CITY", "C", 8, 4)]

    def test_frozen_fixture_skips_deleted(self):
        table = read_dbf(build_frozen_dbf(), source_id="t")
        assert table.deleted == 1
        assert table.table.parsed() == (("ID", "CITY"), [("A001", "Tripoli")])
        assert parse_dbf(build_frozen_dbf(), source_id="t") == table.table.parsed()

    def test_character_fields_keep_leading_spaces(self):
        data = bytearray(build_frozen_dbf())
        body = 97 + 1          # first record body
        data[body:body + 4] = b" A1 "
        _, [row] = parse_dbf(bytes(data))
        assert row[0] == " A1"

    def test_bad_version_byte(self):
        data = bytearray(build_frozen_dbf())
        data[0] = 0x8B
        with pytest.raises(MalformedHeader):
            read_dbf(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(TruncatedFile):
            read_dbf(build_frozen_dbf()[:20])

    def test_truncated_body(self):
        with pytest.raises(TruncatedFile):
            read_dbf(build_frozen_dbf()[:-10])

    def test_missing_terminator(self):
        data = bytearray(build_frozen_dbf())
        data[96] = 0x00
        with pytest.raises(MalformedHeader):
            read_dbf(bytes(data))

    def test_header_len_not_arithmetic(self):
        data = bytearray(build_frozen_dbf())
        struct.pack_into("<H", data, 8, 98)
        with pytest.raises(MalformedHeader):
            read_dbf(bytes(data))

    def test_record_len_mismatch(self):
        data = bytearray(build_frozen_dbf())
        struct.pack_into("<H", data, 10, 14)
        with pytest.raises(MalformedHeader):
            read_dbf(bytes(data))

    def test_unsupported_field_type(self):
        data = bytearray(build_frozen_dbf())
        data[32 + 11] = ord("M")        # memo fields are not supported
        with pytest.raises(UnsupportedFieldType):
            read_dbf(bytes(data))

    def test_unknown_deletion_flag_is_live(self):
        data = bytearray(build_frozen_dbf())
        data[97 + 13] = ord("?")        # only 0x2A means deleted
        table = read_dbf(bytes(data))
        assert table.table.size == 2
        assert table.deleted == 0

    def test_zero_record_file(self):
        layout = (FieldDescriptor("A", "C", 3),)
        table = read_dbf(render_dbf([], layout))
        assert table.record_count == 0
        assert table.table.parsed() == (("A",), [])
        assert table.header_len == 32 + 32 + 1
        assert table.record_len == 4


DBF_LAYOUT = (FieldDescriptor("CODE", "C", 6), FieldDescriptor("QTY", "N", 4),
              FieldDescriptor("WHEN", "D", 8))

dbf_value = st.text(alphabet="ABCXYZ123", min_size=0, max_size=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(dbf_value, st.integers(0, 9999)), max_size=20))
def test_dbf_round_trip(rows_src):
    rows = [(code, str(qty), "20040515") for code, qty in rows_src]
    parsed = parse_dbf(render_dbf(rows, DBF_LAYOUT), source_id="x")
    assert parsed == (("CODE", "QTY", "WHEN"), rows)


class TestFixedWidth:
    LAYOUT = (FieldDescriptor("A", "C", 4, 0), FieldDescriptor("B", "C", 6, 4),
              FieldDescriptor("Y", "N", 4, 10))

    def test_parses_and_strips_padding(self):
        text = b"ab  ccc   2004\nx   y     1999\n"
        assert parse_fixed_width(text, self.LAYOUT, source_id="s") == (
            ("A", "B", "Y"), [("ab", "ccc", "2004"), ("x", "y", "1999")])

    def test_short_line_reports_position(self):
        with pytest.raises(ShortLine) as err:
            parse_fixed_width(b"ab  ccc   2004\nshort\n", self.LAYOUT)
        assert "line 2" in str(err.value)

    def test_longer_lines_keep_tail_unread(self):
        _, [row] = parse_fixed_width(b"ab  ccc   2004TRAILING\n", self.LAYOUT)
        assert row[2] == "2004"

    def test_missing_final_newline_ok(self):
        assert len(parse_fixed_width(b"ab  ccc   2004", self.LAYOUT)[1]) == 1

    def test_empty_input(self):
        assert parse_fixed_width(b"", self.LAYOUT) == (("A", "B", "Y"), [])

    def test_layout_validation(self):
        with pytest.raises(ConfigError):
            validate_layout([FieldDescriptor("A", "C", 3, 0),
                             FieldDescriptor("A", "C", 3, 3)])
        with pytest.raises(ConfigError):
            validate_layout([FieldDescriptor("A", "Q", 3, 0)])
        with pytest.raises(ConfigError):
            validate_layout([FieldDescriptor("A", "C", 3, 0),
                             FieldDescriptor("B", "C", 3, 2)])
        with pytest.raises(ConfigError):
            validate_layout([])


fw_value = st.text(alphabet="abcXYZ09-", min_size=0, max_size=6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(fw_value, fw_value), max_size=20))
def test_fixed_width_round_trip(pairs):
    layout = (FieldDescriptor("A", "C", 6, 0), FieldDescriptor("B", "C", 6, 6))
    parsed = parse_fixed_width(render_fixed_width(pairs, layout), layout)
    assert parsed == (("A", "B"), pairs)


@st.composite
def fixed_position_rows(draw):
    """A layout of C/N/D fields with gaps between them, and rows whose values
    are often shorter than their field and carry no padding the rule strips."""
    layout, offset = [], 0
    for i in range(draw(st.integers(1, 5))):
        offset += draw(st.integers(0, 3))
        fd = FieldDescriptor(f"F{i}", draw(st.sampled_from("CND")), draw(st.integers(1, 6)),
                             offset)
        layout.append(fd)
        offset += fd.length
    unpad = {"C": lambda s: s.rstrip(" "), "N": lambda s: s.strip(" "),
             "D": lambda s: s.strip(" ")}
    rows = draw(st.lists(st.tuples(*(
        st.text(alphabet="aZ9- ", max_size=fd.length).map(unpad[fd.kind])
        for fd in layout)), max_size=8))
    return tuple(layout), rows


@settings(max_examples=60, deadline=None)
@given(fixed_position_rows())
def test_fixed_width_round_trip_any_layout(case):
    layout, rows = case
    parsed = parse_fixed_width(render_fixed_width(rows, layout), layout)
    assert parsed == (tuple(fd.name for fd in layout), rows)


@settings(max_examples=60, deadline=None)
@given(fixed_position_rows())
def test_dbf_round_trip_any_layout(case):
    """dBASE packs the fields whatever their offsets, and reads each one by
    the same rule as a fixed-width line."""
    layout, rows = case
    parsed = parse_dbf(render_dbf(rows, layout))
    assert parsed[1] == rows
    assert parsed == parse_fixed_width(render_fixed_width(rows, layout), layout)


class TestFixedPositionFields:
    def test_fields_are_byte_slices(self):
        layout = (FieldDescriptor("A", "C", 4, 0), FieldDescriptor("B", "C", 3, 4))
        _, [row] = parse_fixed_width(b"Jo\xc3\xa9ABC", layout, encoding="utf-8")
        assert row == ("Joé", "ABC")

    def test_fixed_width_decode_error_names_source_line_and_field(self):
        layout = (FieldDescriptor("A", "C", 3, 0), FieldDescriptor("B", "C", 3, 3))
        with pytest.raises(DecodeError) as err:
            parse_fixed_width(b"abcxyz\nabcx\xffz\n", layout, source_id="tripoli")
        assert str(err.value).startswith("tripoli: line 2: field 'B': 'ascii' codec ")

    def test_dbf_decode_error_names_source_record_and_field(self):
        layout = (FieldDescriptor("A", "C", 2), FieldDescriptor("B", "C", 2))
        blob = render_dbf([("ok", "ok"), ("ok", "zz")], layout)
        with pytest.raises(DecodeError) as err:
            parse_dbf(blob.replace(b"zz", b"z\xff"), source_id="sirte")
        assert str(err.value).startswith("sirte: record 2: field 'B': 'ascii' codec ")

    @pytest.mark.parametrize("render, where", [(render_fixed_width, "row"),
                                               (render_dbf, "record")])
    def test_writer_rejects_non_ascii_naming_row_and_field(self, render, where):
        layout = (FieldDescriptor("A", "C", 4, 0), FieldDescriptor("B", "N", 5, 4))
        with pytest.raises(InvalidFieldValue) as err:
            render([("ok", "1"), ("ok", "Joé")], layout)
        assert str(err.value) == f"{where} 1: B='Joé' is not ASCII"

    def test_fixed_width_writer_rejects_line_break_naming_row_and_field(self):
        # the reader splits lines at LF, so the value would end its line early
        layout = (FieldDescriptor("A", "C", 4, 0), FieldDescriptor("B", "N", 5, 4))
        with pytest.raises(InvalidFieldValue) as err:
            render_fixed_width([("ok", "1"), ("a\nb", "2")], layout)
        assert str(err.value) == "row 1: A='a\\nb' holds a line break"

    def test_dbf_writer_keeps_line_break(self):
        # records are framed by length, so a line break is plain data
        layout = (FieldDescriptor("A", "C", 4, 0), FieldDescriptor("B", "N", 5, 4))
        rows = [("a\nb", "2")]
        assert parse_dbf(render_dbf(rows, layout)) == (("A", "B"), rows)

    def test_writer_validates_its_layout(self):
        overlapping = (FieldDescriptor("A", "C", 3, 0), FieldDescriptor("B", "C", 3, 2))
        with pytest.raises(ConfigError):
            render_fixed_width([], overlapping)


# A small layout with a gap: C and N fields, each read back by its padding rule.
WRITER_LAYOUT = (FieldDescriptor("NAME", "C", 4, 0), FieldDescriptor("NUM", "N", 3, 6),
                 FieldDescriptor("CODE", "C", 2, 9))
DBF_BODY = 32 + 32 * len(WRITER_LAYOUT) + 1     # a table's bytes before its first record

# (writer under test, the reference writer on the same layout, whether a row
# ends a line): the fixed-width lines, and the dBASE record bodies, whose
# fields lie back to back behind a live flag.
WRITERS = {
    "line_tail": (lambda rows: render_fixed_width(rows, WRITER_LAYOUT),
                  oracle_row_writer(WRITER_LAYOUT, "row", tail="\n"), True),
    "no_tail": (lambda rows: render_dbf(rows, WRITER_LAYOUT)[DBF_BODY:-1],
                oracle_row_writer([replace(fd, offset=pos) for fd, pos in
                                   zip(WRITER_LAYOUT, (0, 4, 7))], "record", head=" "), False),
}


def outcome(write, rows):
    """The bytes write returns for rows, or the class and text of what it raises."""
    try:
        return write(rows)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("writer", sorted(WRITERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_writer_matches_the_row_by_row_reference(writer, data):
    """Clean rows render to the reference's bytes. With bad values planted in up
    to two rows, the writer raises what the reference raises for the rows up
    to the first bad one: the reference checks each kind of fault in a pass
    of its own, so on two faults of different kinds it may name the later."""
    write, reference, line_tail = WRITERS[writer]
    alphabet = "aZ9-" if line_tail else "aZ9-\n"     # a dBASE value may hold a line break
    rows = data.draw(st.lists(st.tuples(*(st.text(alphabet, max_size=fd.length)
                                          for fd in WRITER_LAYOUT)).map(list), min_size=1,
                              max_size=6), label="rows")
    faulty = sorted(data.draw(st.sets(st.integers(0, len(rows) - 1), max_size=2), label="faulty"))
    kinds = ["too_long", "non_ascii", "line_break"] if line_tail else ["too_long", "non_ascii"]
    for i in faulty:
        field = data.draw(st.integers(0, len(WRITER_LAYOUT) - 1), label="field")
        kind = data.draw(st.sampled_from(kinds), label="kind")
        value, length = rows[i][field], WRITER_LAYOUT[field].length
        if kind == "too_long":
            rows[i][field] = value + "Z" * (length + 1 - len(value))
        else:
            at = data.draw(st.integers(0, min(len(value), length - 1)), label="at")
            bad = "é" if kind == "non_ascii" else "\n"
            rows[i][field] = value[:at] + bad + value[at:length - 1]
    expected = outcome(reference, rows[:faulty[0] + 1] if faulty else rows)
    assert outcome(write, rows) == expected
    assert isinstance(expected, bytes) != bool(faulty)


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("rows, row_no, count", [
    ([("ab", "1", "c"), ("ab", "1")], 1, 2),
    ([("ab", "1", "c"), ("ab", "1", "c", "d")], 1, 4),
    ([("ab", "1"), ("ab", "1", "c", "d")], 0, 2),     # flattened, the values still add up
])
def test_row_writer_refuses_a_row_of_the_wrong_arity(writer, rows, row_no, count):
    write, _, _ = WRITERS[writer]
    where = "row" if writer == "line_tail" else "record"
    with pytest.raises(RaggedRow) as err:
        write(rows)
    assert str(err.value) == f"{where} {row_no}: {count} values, layout has 3"


class TestDelimited:
    def test_header_names_columns(self):
        assert parse_delimited(b"a,b\n1,2\n3,4\n", source_id="d") == (
            ("a", "b"), [("1", "2"), ("3", "4")])

    def test_no_header_generates_names(self):
        assert parse_delimited(b"1,2,3\n", has_header=False) == (
            ("f0", "f1", "f2"), [("1", "2", "3")])

    def test_ragged_row(self):
        with pytest.raises(RaggedRow) as err:
            parse_delimited(b"a,b\n1,2\n1,2,3\n")
        assert "row 3" in str(err.value)

    def test_quoted_values_with_delimiter(self):
        _, [row] = parse_delimited(b'a,b\n"x,y",2\n')
        assert row == ("x,y", "2")

    def test_values_kept_verbatim(self):
        _, [row] = parse_delimited(b"a,b\n x ,2\n")
        assert row[0] == " x "

    def test_empty_input(self):
        assert parse_delimited(b"") == ((), [])

    def test_stray_carriage_return_names_source_and_line(self):
        with pytest.raises(MalformedCsv) as err:
            parse_delimited(b"a,b\n1,x\ry\n", source_id="misurata")
        assert str(err.value).startswith("misurata: line 2: ")

    @pytest.mark.parametrize("body, row_no", [(b"1,x\ry\n1,2,3\n", 3),
                                              (b"1,2,3\n1,x\ry\n", 2)])
    def test_a_ragged_row_outranks_a_row_csv_cannot_read(self, body, row_no):
        # a broken row is noted and reading goes on, so a ragged row anywhere is met
        with pytest.raises(RaggedRow) as err:
            parse_delimited(b"a,b\n" + body, source_id="d")
        assert str(err.value) == f"d: row {row_no}: 3 fields, expected 2"

    def test_writer_quotes_a_row_holding_a_carriage_return(self):
        # unquoted, the CR would end the record for a reader
        blob = render_delimited([("x\ry", "2"), ("z", "3")], ("c1", "c2"))
        assert blob == b'c1,c2\n"x\ry","2"\nz,3\n'
        assert parse_delimited(blob) == (("c1", "c2"), [("x\ry", "2"), ("z", "3")])


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64), st.booleans())
def test_delimited_arbitrary_bytes_raise_only_jobcube_errors(data, has_header):
    try:
        parse_delimited(data, has_header=has_header, source_id="fuzz")
    except JobcubeError:
        pass


delim_value = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00")
    | st.sampled_from("\r\n"), min_size=0, max_size=8)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(delim_value, min_size=2, max_size=2), max_size=20))
def test_delimited_round_trip(rows):
    assert parse_delimited(render_delimited(rows, ("c1", "c2"))) == (
        ("c1", "c2"), list(map(tuple, rows)))


def make_spec(value_codebooks=None) -> SourceSpec:
    return SourceSpec("src", "CityX", "delimited", "x.csv",
                      field_map={"national_id": "NID", "year": "YR", "quarter": "QTR",
                                 "sector": "SEC", "sex": "SX"},
                      value_codebooks=value_codebooks or {})


COLUMNS = ("NID", "YR", "QTR", "SEC", "SX")


def as_table(columns, rows) -> Table:
    return Table(tuple(columns), [list(c) for c in zip(*rows)] or [[] for _ in columns],
                 len(rows))


def map_rows(spec, rows, columns=COLUMNS, counters=None):
    """The records rows of a file with these columns map to, and the (row
    number, reason) of each rejected row."""
    fields, rejects = record_mapper(spec, as_table(columns, rows), counters or SourceCounters())
    return ([CanonicalApplicant._make(values) for values in zip(*fields)],
            [(r.row_no, r.reason) for r in rejects])


def map_row(spec, row, counters=None):
    """The record one row of a file with COLUMNS maps to, or its reject reason."""
    records, rejects = map_rows(spec, [row], counters=counters)
    return records[0] if records else rejects[0][1]


class TestMapping:
    def test_maps_fields_and_fixes_city(self):
        spec = make_spec()
        rec = map_row(spec, ("N1", "2003", "Q2", "S9", "male"))
        assert (rec.national_id, rec.year, rec.quarter) == ("N1", 2003, "Q2")
        assert rec.city == "CityX"
        assert rec.source_id == "src"

    def test_picks_by_position_in_any_column_order(self):
        spec = make_spec()
        [record], _ = map_rows(spec, [("male", "x", "Q2", "N1", "S9", "2003")],
                               ("SX", "EXTRA", "QTR", "NID", "SEC", "YR"))
        assert record == map_row(spec, ("N1", "2003", "Q2", "S9", "male"))

    def test_repeated_column_reads_the_last(self):
        # as a header read into a dict would
        [record], _ = map_rows(make_spec(), [("N1", "2003", "Q2", "", "male", "female")],
                               COLUMNS + ("SX",))
        assert record.sex == "female"

    def test_status_follows_sector(self):
        spec = make_spec()
        directed = map_row(spec, ("N1", "2003", "Q2", "S9", "male"))
        seeker = map_row(spec, ("N1", "2003", "Q2", "", "male"))
        assert directed.status == "directed"
        assert seeker.status == "seeker"

    def test_codebook_translates_exact_codes(self):
        spec = make_spec({"sex": {"1": "male", "2": "female"}})
        counters = SourceCounters()
        rec = map_row(spec, ("N1", "2003", "Q2", "", "2"), counters)
        assert rec.sex == "female"
        assert counters.untranslatable == {}

    def test_untranslatable_code_passes_through_and_counts(self):
        spec = make_spec({"sex": {"1": "male"}})
        counters = SourceCounters()
        rec = map_row(spec, ("N1", "2003", "Q2", "", "Male"), counters)
        assert rec.sex == "Male"
        assert counters.untranslatable == {"sex": 1}

    def test_blank_code_is_neither_translated_nor_counted(self):
        spec = make_spec({"sex": {"": "male"}})
        counters = SourceCounters()
        rec = map_row(spec, ("N1", "2003", "Q2", "", ""), counters)
        assert rec.sex == ""
        assert counters.untranslatable == {}

    def test_missing_mapped_field(self):
        # every row is rejected, naming the first missing column in map order
        records, rejects = map_rows(make_spec(), [("N1", ""), ("N2", "S9")], ("NID", "SEC"))
        assert records == []
        assert rejects == [(1, "src: row lacks field 'YR' (for year)"),
                           (2, "src: row lacks field 'YR' (for year)")]

    def test_bad_year(self):
        spec = make_spec()
        assert map_row(spec, ("N1", "MMIV", "Q2", "", "")) == "src: bad year 'MMIV'"

    @pytest.mark.parametrize("year", ["2_003", "\u0662\u0660\u0660\u0663", "+2003",
                                      "20 03", "--2003", ""])
    def test_year_must_be_ascii_digits(self, year):
        spec = make_spec()
        assert map_row(spec, ("N1", year, "Q2", "", "")) == f"src: bad year {year!r}"

    @pytest.mark.parametrize("year, want", [("2003", 2003), (" 2003  ", 2003),
                                            ("-5", -5), ("02003", 2003)])
    def test_padded_year_is_stripped(self, year, want):
        spec = make_spec()
        assert map_row(spec, ("N1", year, "Q2", "", "")).year == want

    def test_empty_quarter(self):
        spec = make_spec()
        assert map_row(spec, ("N1", "2004", " ", "", "")) == "src: empty quarter"

    def test_mapping_must_cover_mandatory_fields(self):
        with pytest.raises(ConfigError, match="^src: lacks mandatory canonical fields"):
            SourceSpec("src", "CityX", "delimited", "x.csv", {"national_id": "NID"})

    @pytest.mark.parametrize("field_map, codebooks, key", [
        pytest.param({"setor": "SEC"}, {}, "setor", id="misspelt_field"),
        pytest.param({"status": "SEC"}, {}, "status", id="derived_status"),
        pytest.param({"city": "TOWN"}, {}, "city", id="fixed_city"),
        pytest.param({"source_id": "SRC"}, {}, "source_id", id="fixed_source_id"),
        pytest.param({}, {"sector": {"1": "S1"}}, "sector", id="codebook_on_unmapped"),
    ])
    def test_unknown_mapping_keys_fail_closed(self, field_map, codebooks, key):
        with pytest.raises(ConfigError, match=f"^src: .*'{key}'"):
            SourceSpec(
                "src", "CityX", "delimited", "x.csv",
                field_map={"national_id": "NID", "year": "YR", "quarter": "QTR"} | field_map,
                value_codebooks=codebooks)


class TestRowMapper:
    def test_writes_codes_in_column_order_and_blanks_the_rest(self):
        spec = make_spec({"sex": {"1": "male", "2": "female"}})
        record = map_row(spec, ("N1", "2003", "Q2", "S9", "2"))
        to_rows = row_mapper(spec, ("SX", "EXTRA", "YR", "NID", "QTR", "SEC"))
        assert to_rows([record]) == [("2", "", "2003", "N1", "Q2", "S9")]
        assert to_rows([record], EXTRA=["x"]) == [("2", "x", "2003", "N1", "Q2", "S9")]
        assert to_rows([]) == []

    def test_value_outside_the_codebook_passes_through(self):
        spec = make_spec({"sex": {"1": "male"}})
        record = map_row(spec, ("N1", "2003", "Q2", "", "Male"))
        assert row_mapper(spec, COLUMNS)([record]) == [("N1", "2003", "Q2", "", "Male")]

    def test_shared_column_takes_the_last_mapped_field(self):
        spec = SourceSpec("src", "CityX", "delimited", "x.csv",
                          field_map={"national_id": "NID", "name": "NID",
                                     "year": "YR", "quarter": "QTR"})
        record = CanonicalApplicant(national_id="N1", name="Ann", year=2003, quarter="Q2")
        assert row_mapper(spec, ("NID", "YR", "QTR"))([record]) == [("Ann", "2003", "Q2")]

    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_inverts_record_mapper_on_generated_files(self, tmp_path, name):
        """Every row of every generated file maps to a record that the inverse
        writes back as that row, less the columns no mapping reads, and that
        row maps back to the same record."""
        generate(PINNED_CONFIGS[name], tmp_path)
        report = IngestReport()
        for spec in load_sources(tmp_path / "sources.yaml"):
            table = parse_source((tmp_path / spec.path).read_bytes(), spec, report)
            rows = list(zip(*table.columns))
            read = set(spec.field_map.values())
            records, rejects = map_rows(spec, rows, table.names)
            assert rejects == []
            back = row_mapper(spec, table.names)(records)
            assert back == [tuple(v if c in read else "" for c, v in zip(table.names, row))
                            for row in rows]
            assert map_rows(spec, back, table.names) == (records, [])


MAPPABLE = tuple(f for f in ALL_FIELDS if f not in FIXED_FIELDS)
# Few wire names, so canonical fields often share one column.
WIRES = ("A", "B", "C", "D", "E", "F")
# Padded, signed and invalid years, blank quarters, codes and non-codes.
TEXTS = ("", " ", "2003", " 2003 ", "2004", "-5", "0", "+2003", "20x3", "\u0662\u0660",
         "1", "2", "x", "Q2", " Q3")


@st.composite
def specs(draw) -> SourceSpec:
    extra = draw(st.lists(st.sampled_from(
        [f for f in MAPPABLE if f not in MANDATORY_MAPPED]), unique=True))
    names = draw(st.permutations(list(MANDATORY_MAPPED) + extra))
    field_map = {name: draw(st.sampled_from(WIRES)) for name in names}
    coded = draw(st.lists(st.sampled_from(names), unique=True))
    books = {name: draw(st.dictionaries(st.sampled_from(("", "1", "2", "x", "2003")),
                                        st.sampled_from(TEXTS), max_size=3))
             for name in coded}
    return SourceSpec("src", "CityX", "delimited", "x.csv", field_map, books)


@st.composite
def tables(draw) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """A file's columns, the wire names in any order with one perhaps missing
    and some repeated, and its rows."""
    names = draw(st.permutations(WIRES))[draw(st.integers(0, 1)):]
    columns = draw(st.permutations(names + draw(st.lists(st.sampled_from(names), max_size=2))))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(TEXTS)] * len(columns)), max_size=8))
    return tuple(columns), rows


@settings(max_examples=60, deadline=None)
@given(specs(), tables())
def test_record_mapper_matches_reference(spec, table):
    """The column mapper's records, rejects and untranslated-code counts are
    those of the row-at-a-time reference."""
    columns, rows = table
    want, got = {}, SourceCounters()
    outcomes = [oracle_record(dict(zip(columns, row)), spec, want) for row in rows]
    assert map_rows(spec, rows, columns, got) == (
        [o for o in outcomes if not isinstance(o, str)],
        [(i, o) for i, o in enumerate(outcomes, start=1) if isinstance(o, str)])
    assert list(got.untranslatable.items()) == list(want.items())


# Bytes planted into a rendered source: undecodable in ASCII and UTF-8, an
# Arabic-Indic digit two in UTF-8, and a carriage return that csv refuses
# inside an unquoted field.
PLANTED = (b"\xff", b"\xd9\xa2", b"\r")
FIXED_TEXTS = tuple(t for t in TEXTS if t.isascii())


def indices(n, most):
    """Sets of up to `most` indices below n."""
    return st.sets(st.integers(0, n - 1), max_size=most) if n else st.just(())


@st.composite
def source_files(draw):
    """A spec of any format, the layout its file was rendered with, and the
    file's bytes with faults planted: for fixed-width, a tail on every line
    and lines cut short or lengthened; for dBASE, records flagged deleted; in
    every format, bytes overwritten anywhere past a dBASE header."""
    fmt = draw(st.sampled_from(("fixed_width", "dbf", "delimited")))
    names = draw(st.permutations(WIRES))[draw(st.integers(0, 1)):]
    layout, offset = [], 0
    for name in names:
        offset += draw(st.integers(0, 2)) if fmt == "fixed_width" else 0
        layout.append(FieldDescriptor(name, draw(st.sampled_from("CND")),
                                      draw(st.integers(1, 5)), offset))
        offset += layout[-1].length
    spec = replace(draw(specs()), format=fmt, encoding=draw(st.sampled_from(("ascii", "utf-8"))),
                   layout=tuple(layout) if fmt == "fixed_width" else ())
    if fmt == "delimited":
        columns = draw(st.permutations(names + draw(st.lists(st.sampled_from(names), max_size=2))))
        rows = draw(st.lists(st.tuples(*[st.sampled_from(TEXTS)] * len(columns)), max_size=8))
        data = render_delimited(rows, columns)
    else:
        rows = draw(st.lists(st.tuples(*(st.sampled_from(FIXED_TEXTS).map(
            lambda t, n=fd.length: t[:n]) for fd in layout)), max_size=8))
        if fmt == "dbf":
            data = bytearray(render_dbf(rows, layout))
            start, size = 32 + 32 * len(layout) + 1, 1 + offset
            for i in draw(indices(len(rows), 3)):
                data[start + i * size] = 0x2A
            data = bytes(data)
        else:
            tail = draw(st.sampled_from((b"", b"T", b"\xffZ")))
            lines = [line + tail for line in render_fixed_width(rows, layout).split(b"\n")[:-1]]
            for i in draw(indices(len(lines), 2)):
                lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))] + tail
            data = b"\n".join(lines) + draw(st.sampled_from((b"", b"\n")))
    low = 32 + 32 * len(layout) + 1 if fmt == "dbf" else 0     # a dBASE header stays whole
    for _ in range(draw(st.integers(0, 2)) if len(data) > low else 0):
        at, plant = draw(st.integers(low, len(data) - 1)), draw(st.sampled_from(PLANTED))
        data = data[:at] + plant + data[at + len(plant):]
    return spec, tuple(layout), data


@settings(max_examples=300, deadline=None)
@given(source_files())
def test_column_ingest_is_the_row_at_a_time_oracle(case):
    """Records, rejects, counters and error texts of a source ingested by
    column are those of reading and mapping it one row at a time."""
    spec, layout, data = case
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, spec.path).write_bytes(data)
        try:
            records, report = ingest_sources([spec], tmp)
        except JobcubeError as exc:
            got = type(exc), str(exc)
        else:
            c = report.per_source[spec.source_id]
            got = (records, [tuple(r) for r in report.rejects],
                   (c.records_read, c.records_ok, c.records_rejected, c.deleted_skipped),
                   list(c.untranslatable.items()))
    assert got == oracle_ingest(spec, data, layout)


# sha256 of staging.csv and the ingest summary for each pinned generator
# config, recorded before each source's mapping was resolved into one row
# function; ingest's output must not move.
PINNED_STAGING = {
    "counts": ("247712cfc0bd9d474fdfa424714179b89dbd45ca613b4bf7e410c6ecf32bb67c", [
        "misurata: read=211 ok=211 rejected=0 deleted=0 untranslatable_codes=19",
        "sirte: read=130 ok=130 rejected=0 deleted=0 untranslatable_codes=14",
        "tripoli: read=310 ok=310 rejected=0 deleted=0 untranslatable_codes=0"]),
    "target_bytes": ("a78e5b42bf0c6fa1bb81ff4b0f2f5c36831783bb448cccfd6d99dc9d8c0a3aff", [
        "misurata: read=437 ok=437 rejected=0 deleted=0 untranslatable_codes=43",
        "sirte: read=210 ok=210 rejected=0 deleted=0 untranslatable_codes=18",
        "tripoli: read=553 ok=553 rejected=0 deleted=0 untranslatable_codes=0"]),
    "wide": ("f7008abe0cb77d1adfcea5bff5e1846c2a91e49645c123afcdefc387704bd583", [
        "misurata: read=211 ok=211 rejected=0 deleted=0 untranslatable_codes=27",
        "sirte: read=134 ok=134 rejected=0 deleted=0 untranslatable_codes=13",
        "tripoli: read=306 ok=306 rejected=0 deleted=0 untranslatable_codes=0"]),
}


class TestIngest:
    def test_generated_trio_ingests_clean(self, gen_small, etl_small):
        staged, _, report, _ = etl_small
        assert len(staged) == gen_small.expect.wire_rows
        assert report.rejects == []
        assert report.total_ok() == gen_small.expect.wire_rows
        by_source = {sid: c.records_read for sid, c in report.per_source.items()}
        assert set(by_source) == {"tripoli", "misurata", "sirte"}

    def test_untranslatable_counts_are_planted_variants(self, gen_small, etl_small):
        # only sources with ingest codebooks can hit untranslatable codes
        _, _, report, _ = etl_small
        planted = {"misurata": 0, "sirte": 0, "tripoli": 0}
        for city, _nid, _field, _value in gen_small.discrepancies:
            planted[city] += 1
        assert sum(report.per_source["misurata"].untranslatable.values()) == planted["misurata"]
        assert sum(report.per_source["sirte"].untranslatable.values()) == planted["sirte"]
        assert report.per_source["tripoli"].untranslatable == {}

    def test_counters_and_rejects_per_source(self, tmp_path):
        (tmp_path / "x.csv").write_text(
            "NID,YR,QTR,SEC,SX\nN1,2003,Q2,,1\nN2,20x3,Q2,,1\nN3,2004, ,,7\n"
            "N4,2005,Q1,S9,2\n", encoding="utf-8")
        records, report = ingest_sources([make_spec({"sex": {"1": "male"}})], tmp_path)
        assert [r.national_id for r in records] == ["N1", "N4"]
        counters = report.per_source["src"]
        assert (counters.records_read, counters.records_ok,
                counters.records_rejected) == (4, 2, 2)
        assert counters.untranslatable == {"sex": 2}      # "7" on a rejected row too
        assert [(r.source_id, r.row_no, r.reason) for r in report.rejects] == [
            ("src", 2, "src: bad year '20x3'"), ("src", 3, "src: empty quarter")]

    def test_missing_column_rejects_every_row(self, tmp_path):
        (tmp_path / "x.csv").write_text("NID,YR,SEC,SX\nN1,2003,,1\nN2,20x3,,7\n",
                                        encoding="utf-8")
        records, report = ingest_sources([make_spec({"sex": {"1": "male"}})], tmp_path)
        assert records == []
        counters = report.per_source["src"]
        assert (counters.records_read, counters.records_ok,
                counters.records_rejected, counters.untranslatable) == (2, 0, 2, {})
        assert [(r.row_no, r.reason) for r in report.rejects] == [
            (1, "src: row lacks field 'QTR' (for quarter)"),
            (2, "src: row lacks field 'QTR' (for quarter)")]

    def test_a_row_csv_cannot_read_is_quarantined(self, tmp_path):
        (tmp_path / "x.csv").write_text(
            "NID,YR,QTR,SEC,SX\nN1,2003,Q2,,1\nN2,2003,Q2,x\ry,7\nN3,2004,Q1,,7\n",
            encoding="utf-8")
        records, report = ingest_sources([make_spec({"sex": {"1": "male"}})], tmp_path)
        assert [r.national_id for r in records] == ["N1", "N3"]
        counters = report.per_source["src"]
        assert (counters.records_read, counters.records_ok,
                counters.records_rejected, counters.untranslatable) == (3, 2, 1, {"sex": 1})
        assert [(r.row_no, r.reason) for r in report.rejects] == [
            (2, "src: line 3: new-line character seen in unquoted field - do you need to "
                "open the file in universal-newline mode?")]

    @pytest.mark.parametrize("rows, row_no", [(("N1,2003,Q2,x\ry,1", "N2,2003,Q2,,1,9"), 3),
                                              (("N2,2003,Q2,,1,9", "N1,2003,Q2,x\ry,1"), 2)])
    def test_a_ragged_row_stops_a_source_that_also_holds_a_broken_row(self, tmp_path, rows,
                                                                       row_no):
        data = "\n".join(("NID,YR,QTR,SEC,SX",) + rows).encode() + b"\n"
        (tmp_path / "x.csv").write_bytes(data)
        spec = make_spec()
        with pytest.raises(RaggedRow) as err:
            ingest_sources([spec], tmp_path)
        assert str(err.value) == f"src: row {row_no}: 6 fields, expected 5"
        assert oracle_ingest(spec, data) == (RaggedRow, str(err.value))

    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_pinned_staging_bytes(self, tmp_path, name):
        generate(PINNED_CONFIGS[name], tmp_path)
        records, report = ingest_sources(load_sources(tmp_path / "sources.yaml"), tmp_path)
        write_records_csv(records, tmp_path / "staging.csv")
        digest = hashlib.sha256((tmp_path / "staging.csv").read_bytes()).hexdigest()
        assert (digest, report.summary_lines()) == PINNED_STAGING[name]

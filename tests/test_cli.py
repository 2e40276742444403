"""Subcommand driver: stage wiring, exit codes, quarantine files."""

import copy
import csv
import fcntl
import hashlib
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from jobcube import cli, preprocess
from jobcube.cli import main
from jobcube.config import load_config
from jobcube.cube import aggregate
from jobcube.errors import JobcubeError
from jobcube.warehouse import load_schema

COUNTS = {"tripoli": 120, "misurata": 80, "sirte": 50}


def write_config(tmp_path, **overrides) -> str:
    root = tmp_path
    config = {
        "seed": 999,
        "data_dir": str(root / "data"),
        "warehouse_dir": str(root / "warehouse"),
        "years": {"from": 2000, "to": 2006},
        "gen": {"counts": dict(COUNTS)},
        "etl": {"fill_constant": "UNKNOWN"},
        "reports": [
            {"kind": "seekers_by_sector",
             "output": str(root / "reports" / "seekers_by_sector.csv")},
            {"kind": "seekers_vs_directed",
             "output": str(root / "reports" / "seekers_vs_directed.csv")},
        ],
        "bench": {"repetitions": 2, "warmup": 0,
                  "output": str(root / "reports" / "bench_report.csv")},
    }
    config.update(overrides)
    path = tmp_path / "jobcube.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return str(path)


def edit_record_csv(path, line_index, edit) -> None:
    """Rewrite one row of a record CSV (0 is the header) through edit(row)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[line_index] = edit(rows[line_index])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# (row index, edit, what the error must say after "<file>: ")
RECORD_CSV_TAMPERS = [
    pytest.param(2, lambda row: row[:15], "line 3: 15 columns, expected 16", id="15_columns"),
    pytest.param(2, lambda row: row + ["extra"], "line 3: 17 columns, expected 16",
                 id="17_columns"),
    pytest.param(2, lambda row: row[:5], "line 3: 5 columns, expected 16", id="5_columns"),
    pytest.param(2, lambda row: row[:13] + ["20x3"] + row[14:], "line 3: bad year '20x3'",
                 id="bad_year"),
    pytest.param(2, lambda row: row[:13] + ["2_003"] + row[14:], "line 3: bad year '2_003'",
                 id="underscore_year"),
    pytest.param(2, lambda row: row[:13] + ["\u0662\u0660\u0660\u0663"] + row[14:],
                 "line 3: bad year '\u0662\u0660\u0660\u0663'", id="arabic_indic_year"),
    pytest.param(2, lambda row: row[:13] + ["+2003"] + row[14:], "line 3: bad year '+2003'",
                 id="plus_year"),
    pytest.param(2, lambda row: row[:13] + [" 2003"] + row[14:], "line 3: bad year ' 2003'",
                 id="padded_year"),
    pytest.param(0, lambda row: row[1:] + row[:1], "line 1: unexpected record columns",
                 id="wrong_header"),
]


# (edit of one clean.csv row, and the error line load and refresh then print
# after "error: <file>: line N: ", from the edited row)
UNLOADABLE_RECORDS = [
    pytest.param(lambda row: row[:13] + ["2010"] + row[14:],
                 lambda row: f"Time: value '2010{row[14]}' of record {row[0]!r} "
                             "not in dimension", id="year_out_of_range"),
    pytest.param(lambda row: row[:12] + ["waiting"] + row[13:],
                 lambda row: f"record {row[0]!r}: bad status 'waiting'", id="bad_status"),
]


def retamper(warehouse, name, edit) -> None:
    """Rewrite a warehouse file through edit(text) and, for a table file,
    give the manifest its new checksum, so only the content is wrong."""
    path = warehouse / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    if name == "manifest.txt":
        return
    manifest = warehouse / "manifest.txt"
    table = name[:-4]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest.write_text("".join(
        re.sub(r"sha256=\w+", f"sha256={digest}", line)
        if line.startswith(f"table={table} ") else line
        for line in manifest.read_text(encoding="utf-8").splitlines(keepends=True)),
        encoding="utf-8")


# int() reads each of these forms of a number as the number
INTEGER_FORMS = {
    "plus_sign": lambda n: "+" + n, "leading_space": lambda n: " " + n,
    "underscore": lambda n: f"{n[0]}_{n[1:]}",
    "arabic_digit": lambda n: "".join(chr(0x660 + int(d)) for d in n),
}


def manifest_count(entry, form):
    """An edit(text) of manifest.txt writing the number after `entry` in form."""
    return lambda text: re.sub(rf"(?<={entry})\d+", lambda m: form(m[0]), text, count=1)


def replace_line(index, edit):
    """An edit(text) applying edit(line) to one line (0 is the header)."""
    def apply(text):
        lines = text.split("\n")
        lines[index] = edit(lines[index])
        return "\n".join(lines)
    return apply


# (file, edit of its text, what the error must say after "error: ")
WAREHOUSE_TAMPERS = [
    pytest.param("fact.csv", replace_line(2, lambda line: line[:-1] + "x"),
                 "fact.csv: row 2: not integers", id="non_integer_fact"),
    pytest.param("fact.csv", replace_line(3, lambda line: line.rsplit(",", 1)[0]),
                 "fact.csv: row 3: 8 columns, expected 9", id="8_column_fact"),
    pytest.param("dim_sector.csv", replace_line(1, lambda line: "one" + line[1:]),
                 "dim_sector.csv: row 1: not integers", id="non_integer_dim_id"),
    # int() reads each of these as 1, the row's id; parse_int, the record-year rule, does not
    *[pytest.param("dim_sector.csv", replace_line(1, lambda line, one=one: one + line[1:]),
                   "dim_sector.csv: row 1: not integers", id=name)
      for name, one in (("plus_sign_dim_id", "+1"), ("leading_space_dim_id", " 1"),
                        ("underscore_dim_id", "0_1"), ("arabic_digit_dim_id", "\u0661"))],
    pytest.param("dim_city.csv", replace_line(1, lambda line: "20000000" + line[1:]),
                 "dim_city.csv: row 1: id 20000000, expected 1", id="huge_dim_id"),
    pytest.param("dim_city.csv", replace_line(2, lambda line: "-1" + line[1:]),
                 "dim_city.csv: row 2: id -1, expected 2", id="negative_dim_id"),
    pytest.param("dim_sector.csv", replace_line(3, lambda line: "3,SEC-01"),
                 "dim_sector.csv: row 3: key 'SEC-01' repeats row 2", id="repeated_key"),
    pytest.param("dim_congress.csv", replace_line(3, lambda line: "3,MIS-CG01,Misurata"),
                 "dim_congress.csv: row 3: key 'MIS-CG01' repeats row 1",
                 id="repeated_attributed_key"),
    pytest.param("dim_city.csv",
                 lambda text: text.replace("\n2,", "\n-1,").replace("\n3,", "\nx,"),
                 "dim_city.csv: row 2: id -1, expected 2", id="first_of_two_faults"),
    pytest.param("dim_city.csv", lambda text: re.sub(r",[^\n]*", "", text),
                 "dim_city.csv: unexpected columns ['id']", id="id_only_dim"),
    pytest.param("dim_city.csv", lambda text: re.sub(r"[^\n]", "", text),
                 "dim_city.csv: unexpected columns []", id="blank_lines_dim"),
    pytest.param("manifest.txt",
                 lambda text: re.sub(r"(table=fact) rows=\d+", r"\1 rows=x9", text),
                 "manifest.txt: bad table line 'table=fact rows=x9", id="rows_not_integer"),
    pytest.param("manifest.txt", lambda text: re.sub(r"(table=fact rows=\d+) sha256=\w+",
                                                     r"\1", text),
                 "manifest.txt: bad table line 'table=fact rows=", id="no_sha256"),
    # int() reads each of these counts as the number it writes; parse_int does not
    *[pytest.param("manifest.txt", manifest_count(entry, form),
                   f"manifest.txt: {reason}", id=f"{name}_{entry.split()[-1][:-1]}")
      for entry, reason in (("table=fact rows=", "bad table line 'table=fact rows="),
                            ("records=", "records: not an integer: "))
      for name, form in INTEGER_FORMS.items()
      if not (entry.endswith("rows=") and name == "leading_space")],   # a space splits the line
    pytest.param("manifest.txt",
                 lambda text: re.sub(r"year_range=(\d)(\d+):", r"year_range=\1_\2:+", text),
                 "manifest.txt: year_range: bad range '2_00", id="signed_year_range"),
    pytest.param("manifest.txt", lambda text: re.sub(r"year_range=.*\n", "", text),
                 "manifest.txt: no year_range entry", id="no_year_range"),
]


def repeat_row_1(text):
    """fact.csv with row 2 a copy of row 1."""
    lines = text.split("\n")
    lines[2] = lines[1]
    return "\n".join(lines)


def fact_measures(edit):
    """An edit(text) of fact.csv giving row 1 the measures edit(total, seekers, directed)."""
    def apply(line):
        fields = line.split(",")
        return ",".join(fields[:6] + [str(m) for m in edit(*map(int, fields[6:]))])
    return replace_line(1, apply)


# (edit of fact.csv's text, keeping its row count; what the violation says, a regex)
FACT_FAULTS = [
    pytest.param(repeat_row_1, r"fact \(.*\): duplicate key tuple", id="repeated_key"),
    pytest.param(replace_line(1, lambda line: "99" + line[line.index(","):]),
                 r"fact \(99, .*\): dangling city id 99", id="dangling_id"),
    pytest.param(fact_measures(lambda t, s, d: (t, s + 1, d)),
                 r"fact \(.*\): total \d+ != \d+ \+ \d+", id="unbalanced"),
    pytest.param(fact_measures(lambda t, s, d: (t, t + 1, -1)),
                 r"fact \(.*\): negative measure", id="negative_measure"),
    pytest.param(fact_measures(lambda t, s, d: (t + 1, s + 1, d)),
                 r"fact totals sum to \d+, manifest records=\d+", id="totals_not_records"),
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> ingest -> etl -> load, once, in its own directory."""
    tmp_path = tmp_path_factory.mktemp("cli_pipeline")
    cfg = write_config(tmp_path)
    for command in ("gen", "ingest", "etl", "load"):
        assert main([command, "-c", cfg]) == 0, command
    return tmp_path, cfg


class TestHappyPath:
    def test_stage_artifacts_exist(self, pipeline):
        tmp_path, _ = pipeline
        for name in ("tripoli.dat", "misurata.csv", "sirte.dbf", "truth.csv",
                     "staging.csv", "clean.csv", "sources.yaml",
                     "hierarchy.yaml", "codebooks.yaml", "gen_manifest.txt"):
            assert (tmp_path / "data" / name).exists(), name
        assert (tmp_path / "warehouse" / "manifest.txt").exists()

    def test_clean_file_is_the_truth_file(self, pipeline):
        """etl writes the bytes gen wrote as the truth."""
        tmp_path, _ = pipeline
        data = tmp_path / "data"
        assert (data / "clean.csv").read_bytes() == (data / "truth.csv").read_bytes()

    def test_no_quarantines_on_clean_data(self, pipeline):
        tmp_path, _ = pipeline
        assert not (tmp_path / "data" / "rejects.csv").exists()
        assert not (tmp_path / "data" / "ingest_rejects.csv").exists()

    def test_validate_ok(self, pipeline):
        _, cfg = pipeline
        assert main(["validate", "-c", cfg]) == 0

    def test_query_prints_csv(self, pipeline, capsys):
        _, cfg = pipeline
        assert main(["query", "-c", cfg, "--measure", "seekers",
                     "--group-by", "sector", "--years", "2000:2006"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "sector,seekers"
        assert len(lines) > 1

    def test_query_filter_flag(self, pipeline, capsys):
        _, cfg = pipeline
        assert main(["query", "-c", cfg, "--group-by", "congress:city",
                     "--filter", "time:year=2003,2004"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "congress_city,total"

    def test_query_table_format(self, pipeline, capsys, tmp_path):
        """stdout carries the bytes --output writes, final newline included."""
        _, cfg = pipeline
        query = ["query", "-c", cfg, "--group-by", "service", "--format", "table"]
        assert main(query) == 0
        out = capsys.readouterr().out
        assert "service" in out.splitlines()[0]
        assert main(query + ["--output", str(tmp_path / "q.txt")]) == 0
        assert out.encode("utf-8") == (tmp_path / "q.txt").read_bytes()

    def test_query_output_to_dev_stdout_writes_the_pipe(self, pipeline):
        """/dev/stdout on a pipe is written in place, as stdout itself would be."""
        _, cfg = pipeline
        query = [sys.executable, "-m", "jobcube.cli", "query", "-c", cfg, "--group-by", "sector"]
        printed = subprocess.run(query, capture_output=True, check=True).stdout
        proc = subprocess.run(query + ["--output", "/dev/stdout"], capture_output=True)
        assert (proc.returncode, proc.stdout) == (0, printed)
        assert os.path.islink("/dev/stdout") or not os.path.isfile("/dev/stdout")

    def test_report_writes_configured_outputs(self, pipeline):
        tmp_path, cfg = pipeline
        assert main(["report", "-c", cfg]) == 0
        report = tmp_path / "reports" / "seekers_by_sector.csv"
        assert report.read_text(encoding="utf-8").startswith("sector,seekers\n")
        assert (tmp_path / "reports" / "seekers_vs_directed.csv").exists()

    def test_bench_writes_report(self, pipeline):
        tmp_path, cfg = pipeline
        assert main(["bench", "-c", cfg]) == 0
        lines = (tmp_path / "reports" / "bench_report.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0].startswith("query_id,")
        assert lines[1].split(",")[-1] == "true"

    def test_yaml_queries_match_the_flags(self, pipeline, tmp_path, monkeypatch):
        """A bench query and a custom report in the config are the query the
        same `jobcube query` flags make, and the report writes the same bytes."""
        _, cfg = pipeline
        asked = []
        monkeypatch.setattr(cli, "aggregate",
                            lambda cube, query: asked.append(query) or aggregate(cube, query))
        flagged = tmp_path / "flags.csv"
        assert main(["query", "-c", cfg, "--measure", "directed", "--group-by", "congress:city",
                     "--filter", "time:year=2003,2004", "--years", "2002:2005",
                     "--output", str(flagged)]) == 0

        query = {"measure": "directed", "group_by": "congress:city",
                 "filters": ["time:year=2003,2004"], "years": "2002:2005"}
        raw = yaml.safe_load(Path(cfg).read_text(encoding="utf-8"))
        raw["reports"] = [{"kind": "custom", "output": str(tmp_path / "custom.csv"),
                           "query": query}]
        raw["bench"] = {"repetitions": 1, "warmup": 0,
                        "output": str(tmp_path / "bench_report.csv"),
                        "queries": [{"id": "lifted_2003_2004", **query}]}
        path = tmp_path / "yaml_queries.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        config = load_config(path)
        assert config.bench.queries == (("lifted_2003_2004", asked[0]),)
        assert config.reports[0].query == asked[0]

        assert main(["report", "-c", str(path)]) == 0
        assert (tmp_path / "custom.csv").read_bytes() == flagged.read_bytes()
        assert main(["bench", "-c", str(path)]) == 0
        bench_rows = (tmp_path / "bench_report.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[0] for row in bench_rows[1:]] == ["lifted_2003_2004"]

    def test_refresh_unchanged_input_is_stable(self, pipeline):
        tmp_path, cfg = pipeline
        before = {p.name: p.read_bytes()
                  for p in (tmp_path / "warehouse").iterdir()}
        assert main(["refresh", "-c", cfg]) == 0
        after = {p.name: p.read_bytes()
                 for p in (tmp_path / "warehouse").iterdir()}
        assert after == before


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)     # an accepted config would gen into ./data
        path = tmp_path / "bad.yaml"
        for text in ("sede: 12\n", "sources_file: s.yaml\n",
                     "hierarchy_file: h.yaml\n", "codebooks_file: c.yaml\n",
                     "staging_file: s.csv\n", "clean_file: c.csv\n",
                     "gen:\n  districts_per_congress: 3\n",
                     "gen:\n  directed_share: 0.5\n", "gen:\n  specialties: 40\n",
                     "gen:\n  job_groups: 9\n", "gen:\n  moahels: 8\n"):
            path.write_text(text, encoding="utf-8")
            assert main(["gen", "-c", str(path)]) == 1, text

    def test_unknown_sources_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen", "-c", cfg]) == 0
        path = tmp_path / "data" / "sources.yaml"
        generated = yaml.safe_load(path.read_text(encoding="utf-8"))
        assert generated["sources"][0]["city"] == "Tripoli"     # maps no congress
        edits = {
            "setor": lambda src: src["field_map"].update(
                setor=src["field_map"].pop("sector")),
            "status": lambda src: src["field_map"].update(status="SECTOR"),
            "congress": lambda src: src.update(value_codebooks={"congress": {"1": "C1"}}),
            "nope": lambda src: src.update(encoding="nope"),
            "rot13": lambda src: src.update(encoding="rot13"),
            # fixed-width framing needs ASCII bytes; these codecs change them
            "utf-16": lambda src: src.update(encoding="utf-16"),
            "cp037": lambda src: src.update(encoding="cp037"),
        }
        for key, edit in edits.items():
            raw = copy.deepcopy(generated)
            edit(raw["sources"][0])
            path.write_text(yaml.safe_dump(raw), encoding="utf-8")
            capsys.readouterr()
            assert main(["ingest", "-c", cfg]) == 1, key
            err = capsys.readouterr().err
            assert "error: tripoli: " in err and repr(key) in err, err
            assert "Traceback" not in err

    def test_ascii_compatible_encoding_still_ingests(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen", "-c", cfg]) == 0
        path = tmp_path / "data" / "sources.yaml"
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
        raw["sources"][0]["encoding"] = "latin-1"     # Tripoli's fixed-width file
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert main(["ingest", "-c", cfg]) == 0

    def test_unsatisfiable_byte_target_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gen={
            "target_bytes": {"tripoli": 10, "misurata": 10, "sirte": 10}})
        capsys.readouterr()
        assert main(["gen", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert "error: tripoli: 10 bytes cannot hold one" in err, err

    def test_query_on_a_fixed_report_kind_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, reports=[{"kind": "service_counts",
                                               "query": {"group_by": "sector"}}])
        capsys.readouterr()
        assert main(["report", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert (f"error: {cfg}.reports[0]: a service_counts report takes no query; only a "
                "custom report does\n") in err and "Traceback" not in err, err

    def test_unknown_keep_rule_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, etl={"keep_rule": "newest"})
        capsys.readouterr()
        assert main(["gen", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}.etl: unknown keep_rule 'newest'" in err, err
        assert "Traceback" not in err, err

    @staticmethod
    def etl_with_codebook(tmp_path, capsys, field_name, book) -> str:
        """etl's stderr after adding a codebook for field_name to a tour."""
        cfg = write_config(tmp_path)
        assert main(["gen", "-c", cfg]) == 0
        assert main(["ingest", "-c", cfg]) == 0
        path = tmp_path / "data" / "codebooks.yaml"
        books = yaml.safe_load(path.read_text(encoding="utf-8"))
        books[field_name] = book
        path.write_text(yaml.safe_dump(books), encoding="utf-8")
        capsys.readouterr()
        assert main(["etl", "-c", cfg]) == 1
        assert not (tmp_path / "data" / "clean.csv").exists()
        return capsys.readouterr().err

    def test_codebook_for_year_is_config_error(self, tmp_path, capsys):
        err = self.etl_with_codebook(tmp_path, capsys, "year", {"2003": "2004"})
        assert "error: codebook for non-text field 'year'" in err, err

    def test_codebook_for_status_is_config_error(self, tmp_path, capsys):
        # status derives from sector; a codebook would load seekers as directed
        err = self.etl_with_codebook(tmp_path, capsys, "status", {"seeker": "directed"})
        assert "error: codebook for derived field 'status'" in err, err

    def test_missing_config(self, tmp_path):
        assert main(["gen", "-c", str(tmp_path / "none.yaml")]) == 1

    def test_gen_refuses_years_a_source_layout_cannot_hold(self, tmp_path, capsys):
        cfg = write_config(tmp_path, years={"from": 9998, "to": 10001})
        assert main(["gen", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert "error: tripoli: year 10001 does not fit APP_YEAR, which is 4 bytes wide" in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("gen, message", [
        ({"sectors": 100000}, "tripoli: sector SEC-100000 does not fit SECTOR, which is 8 bytes"),
        ({"congresses_per_city": 100000},
         "tripoli: district TRI-CG100000-D03 does not fit DISTRICT, which is 14 bytes"),
    ])
    def test_gen_refuses_codes_a_source_layout_cannot_hold(self, tmp_path, capsys, gen, message):
        cfg = write_config(tmp_path, gen={"counts": dict(COUNTS), **gen})
        assert main(["gen", "-c", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message} wide\n")
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command, name", [("etl", "staging.csv"), ("load", "clean.csv"),
                                               ("refresh", "clean.csv"), ("bench", "clean.csv")])
    def test_a_record_file_without_a_header_is_data_error(self, pipeline, tmp_path, capsys,
                                                          command, name):
        """A 0-byte staging.csv or clean.csv holds no header line, so no records:
        the command reading it fails (exit 2) naming the file, and every file
        already there, the warehouse's too, keeps its bytes."""
        built, _ = pipeline
        for directory in ("data", "warehouse"):
            shutil.copytree(built / directory, tmp_path / directory)
        path = tmp_path / "data" / name
        path.write_bytes(b"")
        files = sorted(p for d in ("data", "warehouse") for p in (tmp_path / d).iterdir())
        before = [p.read_bytes() for p in files]
        cfg = write_config(tmp_path)
        capsys.readouterr()
        assert main([command, "-c", cfg]) == 2
        assert f"error: {path}: no header line\n" in capsys.readouterr().err
        assert sorted(p for d in ("data", "warehouse") for p in (tmp_path / d).iterdir()) == files
        assert [p.read_bytes() for p in files] == before

    def test_stage_run_out_of_order(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["etl", "-c", cfg]) == 1
        assert main(["load", "-c", cfg]) == 1
        assert main(["validate", "-c", cfg]) == 1

    def test_refresh_without_a_warehouse_creates_none(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["refresh", "-c", cfg]) == 1
        manifest = tmp_path / "warehouse" / "manifest.txt"
        assert f"error: {manifest}: not found; run `jobcube load` first" in capsys.readouterr().err
        assert not (tmp_path / "warehouse").exists()

    def test_report_with_no_reports_reads_no_warehouse(self, tmp_path, capsys):
        cfg = write_config(tmp_path, reports=[])
        assert main(["report", "-c", cfg]) == 0
        assert "[report] no reports configured" in capsys.readouterr().err

    def test_bad_year_row_quarantined_at_ingest(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen", "-c", cfg]) == 0
        misurata = tmp_path / "data" / "misurata.csv"
        with open(misurata, "a", encoding="utf-8", newline="") as fh:
            fh.write("X1,BAD,1,MIS-CG01-D01,MIS-CG01,SPC-001,JG-01,,QL-01,1,1,20XX,1\n")
        assert main(["ingest", "-c", cfg]) == 2
        rejects = (tmp_path / "data" / "ingest_rejects.csv").read_text(
            encoding="utf-8")
        assert "misurata" in rejects

    def test_stray_carriage_return_at_ingest(self, tmp_path, capsys):
        # the row csv cannot read is quarantined, and the rows after it staged
        cfg = write_config(tmp_path)
        assert main(["gen", "-c", cfg]) == 0
        misurata = tmp_path / "data" / "misurata.csv"
        lines = misurata.read_bytes().count(b"\n")
        with open(misurata, "a", encoding="utf-8", newline="") as fh:
            fh.write("X1,BAD\rNAME,1,MIS-CG01-D01,MIS-CG01,SPC-001,JG-01,,QL-01,1,1,2003,1\n"
                     "X2,GOOD,1,MIS-CG01-D01,MIS-CG01,SPC-001,JG-01,,QL-01,1,1,2003,1\n")
        capsys.readouterr()
        assert main(["ingest", "-c", cfg]) == 2
        assert "[ingest] 1 rejected rows -> " in capsys.readouterr().err
        rejects = (tmp_path / "data" / "ingest_rejects.csv").read_text(encoding="utf-8")
        assert f"misurata,{lines},misurata: line {lines + 1}: new-line character" in rejects
        staged = (tmp_path / "data" / "staging.csv").read_text(encoding="utf-8")
        assert "\nX2,GOOD," in staged and "X1," not in staged

    # A Tripoli line is 108 bytes and a newline; cut_line keeps 50 bytes of line 6.
    @pytest.mark.parametrize("name, tamper, message", [
        pytest.param("tripoli.dat", lambda data: data[:5 * 109 + 50] + data[6 * 109 - 1:],
                     "error: tripoli: line 6: 50 bytes, layout needs 108\n", id="cut_line"),
        pytest.param("sirte.dbf", lambda data: data[:-500], "error: sirte: ",
                     id="truncated_dbf"),
        pytest.param("tripoli.dat", lambda data: data[:300] + b"\xff" + data[301:],
                     "error: tripoli: line 3: field 'EDU_LEVEL': 'ascii' codec can't "
                     "decode byte 0xff", id="undecodable_byte"),
    ])
    def test_unreadable_source_is_named(self, tmp_path, capsys, name, tamper, message):
        cfg = write_config(tmp_path)
        assert main(["gen", "-c", cfg]) == 0
        path = tmp_path / "data" / name
        path.write_bytes(tamper(path.read_bytes()))
        capsys.readouterr()
        assert main(["ingest", "-c", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    def test_blank_key_quarantined_at_etl(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen", "-c", cfg]) == 0
        misurata = tmp_path / "data" / "misurata.csv"
        with open(misurata, "a", encoding="utf-8", newline="") as fh:
            fh.write(",NOBODY,1,MIS-CG01-D01,MIS-CG01,SPC-001,JG-01,,QL-01,1,1,2003,2\n")
        assert main(["ingest", "-c", cfg]) == 0
        assert main(["etl", "-c", cfg]) == 2
        rejects = tmp_path / "data" / "rejects.csv"
        assert rejects.exists()
        assert "NOBODY" in rejects.read_text(encoding="utf-8")

    def test_tampered_warehouse_fails_validate(self, tmp_path):
        cfg = write_config(tmp_path)
        for command in ("gen", "ingest", "etl", "load"):
            assert main([command, "-c", cfg]) == 0
        fact = tmp_path / "warehouse" / "fact.csv"
        fact.write_bytes(fact.read_bytes() + b"9,9,9,9,9,9,1,1,0\n")
        assert main(["validate", "-c", cfg]) == 3

    def test_a_failed_etl_leaves_clean_csv_whole(self, tmp_path, monkeypatch):
        """A crash while etl writes clean.csv leaves the last run's file, so the
        next load writes the warehouse it wrote before."""
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
        monkeypatch.chdir(tmp_path)
        for command in ("gen", "ingest", "etl", "load"):
            assert main([command, "-c", cfg]) == 0, command
        clean = tmp_path / "data" / "clean.csv"
        clean_bytes = clean.read_bytes()
        warehouse = {p.name: p.read_bytes() for p in (tmp_path / "warehouse").iterdir()}
        real = preprocess.run_columns

        def crashing(*args, **kwargs):
            cleaned, report = real(*args, **kwargs)

            def first_column():
                yield from cleaned[0][:1000]
                raise RuntimeError("etl crashed mid-write")
            return [first_column(), *cleaned[1:]], report
        monkeypatch.setattr(preprocess, "run_columns", crashing)
        with pytest.raises(RuntimeError, match="mid-write"):
            main(["etl", "-c", cfg])
        monkeypatch.setattr(preprocess, "run_columns", real)
        assert clean.read_bytes() == clean_bytes
        assert not list((tmp_path / "data").glob(".*.tmp"))
        shutil.rmtree(tmp_path / "warehouse")
        assert main(["load", "-c", cfg]) == 0
        assert {p.name: p.read_bytes() for p in (tmp_path / "warehouse").iterdir()} == warehouse

    def test_warehouse_lock_blocks_load(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for command in ("gen", "ingest", "etl"):
            assert main([command, "-c", cfg]) == 0
        (tmp_path / "warehouse").mkdir()
        lock = tmp_path / "warehouse" / ".lock"
        with open(lock, "ab") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            capsys.readouterr()
            assert main(["load", "-c", cfg]) == 1
            assert f"error: {lock}: warehouse is locked" in capsys.readouterr().err
        assert main(["load", "-c", cfg]) == 0

    def test_refresh_reads_the_warehouse_under_the_lock(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        for command in ("gen", "ingest", "etl", "load"):
            assert main([command, "-c", cfg]) == 0
        lock = tmp_path / "warehouse" / ".lock"

        def held() -> bool:
            """Whether another descriptor holds the lock, probed without waiting."""
            with open(lock, "ab") as probe:
                try:
                    fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    return True
            return False

        locked_at_read = []

        def spy(path):
            locked_at_read.append(held())
            return load_schema(path)

        monkeypatch.setattr(cli, "load_schema", spy)
        assert main(["refresh", "-c", cfg]) == 0
        assert locked_at_read == [True]
        assert not held()

    def test_lock_of_a_killed_holder_does_not_block_load(self, tmp_path):
        cfg = write_config(tmp_path)
        for command in ("gen", "ingest", "etl"):
            assert main([command, "-c", cfg]) == 0
        holder = ("import os, signal, sys\n"
                  "from pathlib import Path\n"
                  "from jobcube.cli import _locked\n"
                  "with _locked(Path(sys.argv[1])):\n"
                  "    os.kill(os.getpid(), signal.SIGKILL)\n")
        proc = subprocess.run([sys.executable, "-c", holder, str(tmp_path / "warehouse")])
        assert proc.returncode == -signal.SIGKILL
        assert (tmp_path / "warehouse" / ".lock").exists()
        assert main(["load", "-c", cfg]) == 0

    @pytest.mark.parametrize("line_index, edit, reason", RECORD_CSV_TAMPERS)
    def test_tampered_staging_is_data_error(self, tmp_path, capsys, line_index, edit,
                                            reason):
        cfg = write_config(tmp_path)
        for command in ("gen", "ingest"):
            assert main([command, "-c", cfg]) == 0
        staging = tmp_path / "data" / "staging.csv"
        edit_record_csv(staging, line_index, edit)
        capsys.readouterr()
        assert main(["etl", "-c", cfg]) == 2
        assert f"error: {staging}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "data" / "clean.csv").exists()

    @pytest.mark.parametrize("command", ["load", "refresh", "bench"])
    def test_tampered_clean_is_data_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        for stage in ("gen", "ingest", "etl", "load"):
            assert main([stage, "-c", cfg]) == 0
        clean = tmp_path / "data" / "clean.csv"
        edit_record_csv(clean, 2, lambda row: row[:13] + ["20x3"] + row[14:])
        capsys.readouterr()
        assert main([command, "-c", cfg]) == 2
        assert f"error: {clean}: line 3: bad year '20x3'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", UNLOADABLE_RECORDS)
    def test_unloadable_record_is_named(self, pipeline, tmp_path, capsys, edit, message):
        """A clean.csv record whose time or status the warehouse cannot take fails
        load and refresh (exit 2) with an error naming its file, line and
        national_id; load creates no warehouse, and refresh moves no byte of
        the one it reads."""
        built, _ = pipeline
        shutil.copytree(built / "data", tmp_path / "data")
        clean = tmp_path / "data" / "clean.csv"
        edit_record_csv(clean, 5, edit)
        with open(clean, newline="", encoding="utf-8") as fh:
            line = f"error: {clean}: line 6: " + message(list(csv.reader(fh))[5])
        cfg = write_config(tmp_path)
        warehouse = tmp_path / "warehouse"
        capsys.readouterr()
        assert main(["load", "-c", cfg]) == 2
        assert line in capsys.readouterr().err.splitlines()
        assert not warehouse.exists()

        shutil.copytree(built / "warehouse", warehouse)
        before = {p.name: p.read_bytes() for p in warehouse.iterdir()}
        assert main(["refresh", "-c", cfg]) == 2
        assert line in capsys.readouterr().err.splitlines()
        assert {p.name: p.read_bytes() for p in warehouse.iterdir()} == before

    @pytest.mark.parametrize("name, edit, reason", WAREHOUSE_TAMPERS)
    def test_malformed_warehouse_fails_closed(self, pipeline, tmp_path, capsys, name,
                                              edit, reason):
        built, _ = pipeline
        warehouse = tmp_path / "warehouse"
        shutil.copytree(built / "warehouse", warehouse)
        retamper(warehouse, name, edit)
        cfg = write_config(tmp_path)
        for command in ("validate", "query"):
            capsys.readouterr()
            assert main([command, "-c", cfg]) == 3, command
            assert f"error: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "query", "report", "bench", "refresh"])
    @pytest.mark.parametrize("edit, violation", FACT_FAULTS)
    def test_warehouse_failing_an_invariant_is_refused(self, pipeline, tmp_path, capsys,
                                                       command, edit, violation):
        """Every command that reads the warehouse refuses one that check_integrity
        faults, with validate's violation lines, and writes nothing."""
        built, _ = pipeline
        for name in ("data", "warehouse"):
            shutil.copytree(built / name, tmp_path / name)
        warehouse = tmp_path / "warehouse"
        retamper(warehouse, "fact.csv", edit)
        before = {p.name: p.read_bytes() for p in warehouse.iterdir()}
        cfg = write_config(tmp_path)
        argv = [command, "-c", cfg]
        if command == "query":
            argv += ["--output", str(tmp_path / "reports" / "query.csv")]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert re.search(rf"^\[{command}\] violation: {violation}$", err, re.M), err
        found = len(re.findall(rf"^\[{command}\] violation: ", err, re.M))
        assert f"error: {warehouse}: {found} invariant violation(s)" in err
        assert not (tmp_path / "reports").exists()
        assert {p.name: p.read_bytes() for p in warehouse.iterdir()} == before

    @pytest.mark.parametrize("key", ["repetitions", "warmup"])
    def test_non_integer_bench_setting(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, bench={key: "abc"})
        assert main(["validate", "-c", cfg]) == 1
        assert f"bench.{key}: expected an integer" in capsys.readouterr().err

    def test_removed_generator_knob_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, gen={"counts": dict(COUNTS),
                                          "education_levels": ["primary", "tertiary"]})
        proc = subprocess.run([sys.executable, "-m", "jobcube.cli", "gen", "-c", cfg],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "error: " in proc.stderr and "education_levels" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [["query", "--measure", "bogus"],
                                      ["query", "--format", "html"], [], ["frobnicate"]])
    def test_bad_flag_or_subcommand_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["query", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: jobcube")

    def test_query_unknown_member_is_usage_error(self, pipeline):
        _, cfg = pipeline
        assert main(["query", "-c", cfg, "--filter", "city=Atlantis"]) == 1

    def test_wide_year_range_names_a_few_missing_years(self, pipeline, capsys):
        """The range is matched against the time axis, never listed member by
        member, also when it spans more years than len() can count."""
        _, cfg = pipeline
        for years, message in (
                ("0:2000000",
                 "['0', '1', '2', '3', '4', '5', '6', '7', '8', '9'] (1999994 in all)"),
                ("2000:99999999999999999999", "['2007', '2008', '2009', '2010', '2011', '2012', "
                 "'2013', '2014', '2015', '2016'] (99999999999999997993 in all)")):
            capsys.readouterr()
            assert main(["query", "-c", cfg, "--years", years]) == 1
            assert capsys.readouterr().err == f"error: time@year: no members {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--years", "2006:2000"], "error: --years: empty range '2006:2000'"),
        (["--years", "x"], "error: --years: bad range 'x'"),
        (["--filter", "city="], "error: --filter: expected 'dim[:level]=m1,m2', got 'city='"),
        (["--filter", "city"], "error: --filter: expected 'dim[:level]=m1,m2', got 'city'"),
        # integer text follows the record-file rule: ASCII digits, an optional '-'
        (["--years", "2_001:2004"], "error: --years: bad range '2_001:2004'"),
        (["--years", " 2001"], "error: --years: bad range ' 2001'"),
        (["--years", "+2001:2004"], "error: --years: bad range '+2001:2004'"),
        (["--years", "\u0662\u0660\u0660\u0661:2004"],
         "error: --years: bad range '\u0662\u0660\u0660\u0661:2004'"),
    ])
    def test_malformed_query_flag_is_usage_error(self, pipeline, capsys, flags, message):
        _, cfg = pipeline
        capsys.readouterr()
        assert main(["query", "-c", cfg, *flags]) == 1
        assert capsys.readouterr().err.startswith(message + "\n")

    # (config overrides, the error after the file name: key path and reason)
    @pytest.mark.parametrize("overrides, message", [
        pytest.param({"bench": {"queries": 5}}, "bench.queries: expected a list, got int",
                     id="bench_queries_int"),
        pytest.param({"reports": [{"kind": "service_counts", "city": 5}]},
                     "reports[0].city: expected a list, got int", id="report_city_int"),
        pytest.param({"bench": {"repetitions": 2.7}},
                     "bench.repetitions: expected an integer, got 2.7", id="repetitions_float"),
        pytest.param({"seed": True}, "seed: expected an integer, got True", id="seed_bool"),
        pytest.param({"gen": {"counts": dict(COUNTS), "sectors": "1_2"}},
                     "gen.sectors: expected an integer, got '1_2'", id="sectors_underscore"),
        pytest.param({"gen": {"counts": dict(COUNTS), "sectors": "\u0661\u0662"}},
                     "gen.sectors: expected an integer, got '\u0661\u0662'",
                     id="sectors_arabic_indic"),
        pytest.param({"gen": {"counts": dict(COUNTS), "duplicate_rate": True}},
                     "gen.duplicate_rate: expected a number, got True", id="rate_bool"),
        pytest.param({"bench": {"output": ["a", "b"]}},
                     "bench.output: expected text, got ['a', 'b']", id="bench_output_list"),
        pytest.param({"data_dir": {"x": 1}}, "data_dir: expected text, got {'x': 1}",
                     id="data_dir_mapping"),
        pytest.param({"reports": [{"kind": "service_counts", "output": True}]},
                     "reports[0].output: expected text, got True", id="report_output_bool"),
        pytest.param({"reports": [{"kind": ["custom"]}]},
                     "reports[0].kind: expected text, got ['custom']", id="report_kind_list"),
        pytest.param({"etl": {"fill_constant": 0}}, "etl.fill_constant: expected text, got 0",
                     id="fill_constant_int"),
    ])
    def test_malformed_config_value_is_config_error(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path, **overrides)
        capsys.readouterr()
        assert main(["validate", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}.{message}\n"), err
        assert "Traceback" not in err

    # (sidecar file, edit of its document, stage that reads it, the error after the path)
    @pytest.mark.parametrize("name, edit, stage, message", [
        pytest.param("sources.yaml", lambda doc: doc["sources"][0].update(layout=5), "ingest",
                     ".sources[0].layout: expected a list, got int", id="layout_int"),
        pytest.param("sources.yaml", lambda doc: doc["sources"][0].update(path=5), "ingest",
                     ".sources[0].path: expected text, got 5", id="path_int"),
        pytest.param("sources.yaml", lambda doc: doc["sources"][1].update(encoding=None),
                     "ingest", ".sources[1].encoding: expected text, got None", id="encoding_none"),
        pytest.param("sources.yaml", lambda doc: doc["sources"][0]["field_map"].update(sector=7),
                     "ingest", ".sources[0].field_map.sector: expected text, got 7",
                     id="field_name_int"),
        pytest.param("hierarchy.yaml", lambda doc: doc.update(tree={"Tripoli": 5}), "etl",
                     ": 'Tripoli': expected a list or mapping of 'congress' values, got 5",
                     id="tree_leaf_int"),
        pytest.param("hierarchy.yaml",
                     lambda doc: doc.update(tree={"Tripoli": {"CG1": {"D1": {"X": 1}}}}), "etl",
                     ": 'D1': nested deeper than the levels ('district', 'congress', 'city')",
                     id="tree_too_deep"),
    ])
    def test_malformed_sidecar_value_is_config_error(self, tmp_path, capsys, name, edit,
                                                     stage, message):
        cfg = write_config(tmp_path)
        for command in ("gen", "ingest"):
            assert main([command, "-c", cfg]) == 0
        path = tmp_path / "data" / name
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([stage, "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}{message}" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, stage", [("jobcube.yaml", "validate"),
                                             ("sources.yaml", "ingest"),
                                             ("codebooks.yaml", "etl"),
                                             ("hierarchy.yaml", "etl")])
    def test_config_file_with_a_non_utf8_byte_is_config_error(self, tmp_path, capsys, name,
                                                              stage):
        cfg = write_config(tmp_path)
        path = Path(cfg)
        if name != "jobcube.yaml":
            for command in ("gen", "ingest"):
                assert main([command, "-c", cfg]) == 0
            path = tmp_path / "data" / name
        data = path.read_bytes()
        path.write_bytes(data[:20] + b"\xff" + data[20:])
        capsys.readouterr()
        assert main([stage, "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8: byte 20 "), err
        assert "Traceback" not in err

    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "jobcube.yaml"
        path.write_text("seed: " + "[" * 5000 + "]" * 5000 + "\n", encoding="utf-8")
        assert main(["validate", "-c", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid YAML: nested too deeply"), err
        assert "Traceback" not in err

    def test_a_tagged_integer_that_is_no_integer_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "jobcube.yaml"
        path.write_text("seed: !!int 0x4\n", encoding="utf-8")
        assert main(["validate", "-c", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid YAML: not an integer: '0x4'"), err
        assert "Traceback" not in err


# Each hand-off file of a tour and the subcommands that read it next; the
# config itself goes only to commands that write nothing, so a mutated path
# in it cannot lead to a write outside the tour.
HANDOFF_READERS = {
    "data/tripoli.dat": ("ingest",), "data/misurata.csv": ("ingest",),
    "data/sirte.dbf": ("ingest",), "data/sources.yaml": ("ingest",),
    "data/staging.csv": ("etl",), "data/codebooks.yaml": ("etl",),
    "data/clean.csv": ("load",), "data/hierarchy.yaml": ("load",),
    **{f"warehouse/{name}": ("validate", "query") for name in (
        "manifest.txt", "fact.csv", "dim_city.csv", "dim_congress.csv", "dim_edulevel.csv",
        "dim_sector.csv", "dim_service.csv", "dim_time.csv")},
    "jobcube.yaml": ("validate", "query"),
}
CASES_PER_FILE = 12


def mutated(rnd, data: bytes) -> bytes:
    """data with one seeded fault: a flipped byte, a cut, an inserted byte or
    a deleted run."""
    at = rnd.randrange(len(data))
    kind = rnd.randrange(4)
    if kind == 0:
        return data[:at] + bytes([data[at] ^ rnd.randrange(1, 256)]) + data[at + 1:]
    if kind == 1:
        return data[:at]
    if kind == 2:
        return data[:at] + bytes([rnd.randrange(256)]) + data[at:]
    return data[:at] + data[at + rnd.randint(1, 16):]


def test_mutated_handoff_files_fail_closed(tmp_path, capsys):
    """Seeded faults in every file one stage hands the next: the reading
    command returns an exit code in 0-3, and a failure says why on stderr."""
    tour = tmp_path / "tour"
    tour.mkdir()
    cfg = write_config(tour, years={"from": 2000, "to": 2002},
                       gen={"counts": {"tripoli": 30, "misurata": 20, "sirte": 10}})
    for command in ("gen", "ingest", "etl", "load"):
        assert main([command, "-c", cfg]) == 0, command
    snapshot = tmp_path / "snapshot"
    shutil.copytree(tour, snapshot)
    rnd = random.Random(2021)
    for name, commands in HANDOFF_READERS.items():
        original = (snapshot / name).read_bytes()
        for case in range(CASES_PER_FILE):
            (tour / name).write_bytes(mutated(rnd, original))
            command = rnd.choice(commands)
            argv = [command, "-c", cfg] + (["--group-by", "sector"] if command == "query" else [])
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            assert type(code) is int and 0 <= code <= 3, (name, case, code)
            if code:
                assert re.search(r"^(error: |\[\w+\] )", err, re.M), (name, case, err)
            shutil.rmtree(tour)
            shutil.copytree(snapshot, tour)


# Every error class and the exit code the command line returns for it; a new
# class cannot land without a line here.
EXIT_CODES = {
    "JobcubeError": 2, "MalformedHeader": 2, "TruncatedFile": 2, "UnsupportedFieldType": 2,
    "ShortLine": 2, "DecodeError": 2, "RaggedRow": 2, "MalformedCsv": 2,
    "InvalidFieldValue": 2, "MissingRequiredField": 2,
    "UnresolvedDimensionValue": 2, "FieldOverflow": 2, "AnswerMismatch": 2,
    "ConfigError": 1, "BadPolicy": 1, "BadHierarchy": 1, "BadLevelPair": 1, "BadQuery": 1,
    "BadLevel": 1, "UnknownMember": 1, "EmptyMemberSet": 1, "EmptyYearRange": 1,
    "UnsatisfiableSize": 1,
    "CorruptManifest": 3,
}


def test_every_error_class_declares_its_exit_code():
    def family(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from family(sub)

    declared = {cls.__name__: cls.exit_code for cls in family(JobcubeError)
                if cls.__module__.startswith("jobcube")}
    assert declared == EXIT_CODES


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "jobcube.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("gen", "ingest", "etl", "load", "refresh", "query",
                 "report", "bench", "validate"):
        assert name in proc.stdout

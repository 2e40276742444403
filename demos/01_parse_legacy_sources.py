"""
Reading the three legacy source formats
=======================================

Generates a small batch of agency files, then opens each one the hard way:
raw bytes for the dBASE file, column slicing for the fixed-width file, and
the csv reader for the delimited export. Ends with the one-call ingest that
the `jobcube ingest` subcommand wraps.
"""

import struct
import tempfile
from pathlib import Path

from jobcube.config import load_sources
from jobcube.datagen import GenConfig, generate
from jobcube.sources import ingest_sources, parse_fixed_width, read_dbf

workspace = tempfile.TemporaryDirectory(prefix="jobcube_demo_")    # removed at the end, or at exit on an error
out_dir = Path(workspace.name)
gen = generate(GenConfig(seed=7, counts={"tripoli": 60, "misurata": 40,
                                         "sirte": 25}), out_dir)
print(f"wrote {len(gen.files)} source files under {out_dir}")

# The dBASE file starts with a 32-byte header. Byte 0 is the version tag,
# bytes 4..7 the record count, then two little-endian u16 lengths whose
# arithmetic (32 + 32*fields + 1 and 1 + sum of field widths) is how a
# reader knows the file is intact.
blob = gen.files["sirte"].read_bytes()
count = struct.unpack_from("<I", blob, 4)[0]
header_len, record_len = struct.unpack_from("<HH", blob, 8)
print(f"\nsirte.dbf: {count} records, header {header_len} B, "
      f"record {record_len} B, total {len(blob)} B")

dbf = read_dbf(blob, source_id="sirte")
print("fields:", ", ".join(f"{f.name}({f.kind}{f.length})" for f in dbf.fields))
# A parsed row is its values in the file's column order; the names come once.
print("first record:", dict(zip((f.name for f in dbf.fields), dbf.rows[0])))

# The fixed-width file has no header at all; the layout lives in the
# sources config that ships next to the data.
specs = {spec.source_id: spec for spec in load_sources(out_dir / "sources.yaml")}
layout = specs["tripoli"].layout
line = gen.files["tripoli"].read_bytes().splitlines()[0]
print(f"\ntripoli.dat line 0 ({len(line)} bytes):")
for fd in layout[:4]:
    print(f"  {fd.name:<10} [{fd.offset:>3}:{fd.offset + fd.length:>3}] "
          f"= {line[fd.offset:fd.offset + fd.length].decode()!r}")
columns, rows = parse_fixed_width(gen.files["tripoli"].read_bytes(), layout,
                                  source_id="tripoli")
print(f"parsed {len(rows)} rows of {len(columns)} columns; row 0:")
for name, value in zip(columns, rows[0]):
    print(f"  {name:<10} {value!r}")

# Misurata ships coded values (sex 1/2, education 1..6). The source spec
# carries codebooks, and ingest translates while mapping each row onto the
# shared applicant record; codes it cannot translate are counted, not lost.
staged, report = ingest_sources(load_sources(out_dir / "sources.yaml"), out_dir)
print()
for line in report.summary_lines():
    print(line)
print(f"\nstaged {len(staged)} canonical records; first:")
first = staged[0]
print(f"  {first.national_id} {first.city} {first.year}{first.quarter} "
      f"education={first.education_level!r} status={first.status!r}")

workspace.cleanup()

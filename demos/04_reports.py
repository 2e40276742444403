"""
Decision-support reports
========================

The reporting layer turns cube queries into small deterministic tables for
the people deciding where training budgets go: who is still seeking per
sector, seekers against directed placements, and applicant mix by education
level and by service status.
"""

import tempfile
from pathlib import Path

from jobcube.config import load_codebooks, load_hierarchy, load_sources
from jobcube.cube import build_cube
from jobcube.datagen import GenConfig, generate
from jobcube.preprocess import CleaningPolicy, run_pipeline
from jobcube.records import NULLABLE_FIELDS
from jobcube.reporting import ReportSpec, render_text_table, run_report, write_result
from jobcube.sources import ingest_sources
from jobcube.warehouse import build_schema

workspace = tempfile.TemporaryDirectory(prefix="jobcube_demo_")    # removed at the end, or at exit on an error
out_dir = Path(workspace.name)
gen = generate(GenConfig(seed=47, counts={"tripoli": 400, "misurata": 300,
                                          "sirte": 150}), out_dir)
staged, _ = ingest_sources(load_sources(out_dir / "sources.yaml"), out_dir)
hierarchy = load_hierarchy(out_dir / "hierarchy.yaml")
cleaned, _ = run_pipeline(
    staged, codebooks=load_codebooks(out_dir / "codebooks.yaml"),
    policy=CleaningPolicy(fill_constants={f: "UNKNOWN"
                                          for f in sorted(NULLABLE_FIELDS)}),
    hierarchy=hierarchy)
cube = build_cube(build_schema(cleaned, (2000, 2006), hierarchy))

# Applicants not yet placed sit in the empty sector by definition, so the
# headline seekers-by-sector table concentrates them in its first row.
table = run_report(cube, ReportSpec("seekers_by_sector", 2000, 2006))
print("seekers by sector:")
print(render_text_table(table))

print("\nseekers vs directed per sector:")
print(render_text_table(run_report(cube, ReportSpec("seekers_vs_directed",
                                                    2000, 2006))))

print("\napplicants by education level:")
print(render_text_table(run_report(cube, ReportSpec("edu_level_counts",
                                                    2000, 2006))))

# Reports accept a year window and a city focus.
spec = ReportSpec("service_counts", 2003, 2005,
                  city_filter=frozenset({"Tripoli"}))
print("\nservice mix, Tripoli 2003-2005:")
print(render_text_table(run_report(cube, spec)))

# The same tables serialize to stable CSV files for downstream use.
path = write_result(table, out_dir / "seekers_by_sector.csv", "csv")
lines = path.read_text(encoding="utf-8").splitlines()
print(f"\nwrote {path}; first lines:")
print("\n".join(lines[:3]))

workspace.cleanup()

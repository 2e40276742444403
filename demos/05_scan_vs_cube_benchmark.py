"""
Row scan versus cube: the payoff measurement
============================================

Times the headline seekers-by-sector query two ways over the same records:
a full scan of the cleaned rows, and a lookup against the prebuilt cube.
Both answers are compared before any timing counts; a benchmark of wrong
answers would be worthless.

Volume is moderate here so the script stays quick; the acceptance suite
repeats this at tens of megabytes, where the gap only widens.
"""

import tempfile
from pathlib import Path

from jobcube.bench import BenchConfig, run_benchmark, summary_lines, write_bench_report
from jobcube.config import load_codebooks, load_hierarchy, load_sources
from jobcube.cube import AggregateQuery, build_cube
from jobcube.datagen import GenConfig, generate
from jobcube.preprocess import CleaningPolicy, run_pipeline
from jobcube.records import NULLABLE_FIELDS
from jobcube.sources import ingest_sources
from jobcube.warehouse import build_schema

workspace = tempfile.TemporaryDirectory(prefix="jobcube_demo_")    # removed at the end, or at exit on an error
out_dir = Path(workspace.name)
gen = generate(GenConfig(seed=59, counts={"tripoli": 6000, "misurata": 4000,
                                          "sirte": 2500}), out_dir)
staged, _ = ingest_sources(load_sources(out_dir / "sources.yaml"), out_dir)
hierarchy = load_hierarchy(out_dir / "hierarchy.yaml")
cleaned, _ = run_pipeline(
    staged, codebooks=load_codebooks(out_dir / "codebooks.yaml"),
    policy=CleaningPolicy(fill_constants={f: "UNKNOWN"
                                          for f in sorted(NULLABLE_FIELDS)}),
    hierarchy=hierarchy)
schema = build_schema(cleaned, (2000, 2006), hierarchy)
cube = build_cube(schema)
print(f"{len(cleaned)} cleaned records, {len(schema.facts)} fact rows")

# The congress -> city map lets the scan answer city-level groupings; the
# cube's congress axis carries it, read from the warehouse's dimension rows.
parents = cube.axis("congress").parent

config = BenchConfig(
    queries=(
        ("seekers_by_sector",
         AggregateQuery("seekers", group_by=("sector",))),
        ("city_year_totals",
         AggregateQuery("total", group_by=("city", ("time", "year")))),
        ("directed_recent",
         AggregateQuery("directed", group_by=(("congress", "city"),),
                        filters=(("time", "year", ("2005", "2006")),))),
    ),
    repetitions=15, warmup=3)

result = run_benchmark(cleaned, cube, config, congress_parent=parents)
print()
for line in summary_lines(result):
    print(line)

path = write_bench_report(result, out_dir / "bench_report.csv")
print(f"\nwrote {path}:")
print(path.read_text(encoding="utf-8"), end="")

workspace.cleanup()

"""
Star schema, data cube, and the four OLAP moves
===============================================

Loads cleaned records into one fact table ringed by six dimension tables,
persists the warehouse, then works the cube: roll congress up to city and
quarters up to years, drill one axis back down, slice out one city, dice
a few sectors against a band of years.
"""

import tempfile
from pathlib import Path

from jobcube.config import load_codebooks, load_hierarchy, load_sources
from jobcube.cube import (
    AggregateQuery,
    aggregate,
    build_cube,
    dice,
    drilldown,
    rollup,
    slice_cube,
)
from jobcube.datagen import GenConfig, generate
from jobcube.preprocess import CleaningPolicy, run_pipeline
from jobcube.records import NULLABLE_FIELDS
from jobcube.reporting import render_text_table
from jobcube.sources import ingest_sources
from jobcube.warehouse import DISPLAY_NAMES, build_schema, check_integrity, load_schema, persist

workspace = tempfile.TemporaryDirectory(prefix="jobcube_demo_")    # removed at the end, or at exit on an error
out_dir = Path(workspace.name)
gen = generate(GenConfig(seed=31, counts={"tripoli": 500, "misurata": 350,
                                          "sirte": 200}), out_dir)
staged, _ = ingest_sources(load_sources(out_dir / "sources.yaml"), out_dir)
hierarchy = load_hierarchy(out_dir / "hierarchy.yaml")
cleaned, _ = run_pipeline(
    staged, codebooks=load_codebooks(out_dir / "codebooks.yaml"),
    policy=CleaningPolicy(fill_constants={f: "UNKNOWN"
                                          for f in sorted(NULLABLE_FIELDS)}),
    hierarchy=hierarchy)

# One fact row per distinct six-key combination; measures are additive
# applicant counts (total = seekers + directed).
schema = build_schema(cleaned, (2000, 2006), hierarchy)
print(f"fact table: {len(schema.facts)} rows at the six-key grain")
for name, table in schema.dimensions.items():
    print(f"  dim {DISPLAY_NAMES[name]:<15} {len(table.rows):>3} members")
assert check_integrity(schema) == []

warehouse_dir = out_dir / "warehouse"
persist(schema, warehouse_dir)
reloaded = load_schema(warehouse_dir)
print(f"persisted and reloaded from {warehouse_dir} "
      f"({len(reloaded.facts)} facts verified by checksum)")

# The cube holds the same data as one code array per dimension (one entry
# per non-empty cell) plus the measures, ready for repeated aggregate queries.
cube = build_cube(schema)
total, seekers, directed = cube.mass()
print(f"\ncube mass: total={total} seekers={seekers} directed={directed}")

by_year = rollup(cube, "time", "year")
print(f"roll-up time quarter->year: {len(cube.axis('time').members)} -> "
      f"{len(by_year.axis('time').members)} members, mass unchanged: "
      f"{by_year.mass() == cube.mass()}")

by_city = rollup(by_year, "congress", "city")
print(f"roll-up congress->city: {len(cube.axis('congress').members)} -> "
      f"{len(by_city.axis('congress').members)} members")

back = drilldown(by_year, cube, "time", "quarter")
print(f"drill-down restores quarter cells: {back.cells == cube.cells}")

# A drill-down reads the base cube's memoised cuboids, so it moves one axis
# of a roll-up on several: time goes back to quarters, congress stays at city.
by_quarter = drilldown(by_city, cube, "time", "quarter")
print(f"drill-down time on the two-axis roll-up: time at "
      f"{by_quarter.axis('time').level}, congress still at "
      f"{by_quarter.axis('congress').level}; the memoised congress->city roll-up: "
      f"{by_quarter is rollup(cube, 'congress', 'city')}")

tripoli = slice_cube(cube, "city", "Tripoli")
print(f"slice city=Tripoli: mass {tripoli.mass()[0]} of {total}")

diced = dice(cube, [("city", ("Tripoli", "Misurata"))])
print(f"dice city in (Tripoli, Misurata): mass {diced.mass()[0]}")

# Queries name a measure, grouping levels, and member filters; answers come
# back as small sorted tables.
table = aggregate(by_year, AggregateQuery(
    "total", group_by=("city", ("time", "year")),
    filters=(("time", "year", ("2004", "2005", "2006")),)))
print("\napplicants by city and year, 2004-2006:")
print(render_text_table(table))

workspace.cleanup()

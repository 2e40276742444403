"""
Cleaning the staged records against planted truth
=================================================

The generator plants a known number of duplicates, blank fields and coding
discrepancies, and writes the expected cleaning counters into a manifest.
This script runs the four-step pipeline (normalize, fill, deduplicate,
generalize + reduce) and checks the books balance to the row.
"""

import tempfile
from pathlib import Path

from jobcube.config import load_codebooks, load_hierarchy, load_sources
from jobcube.datagen import GenConfig, generate, read_gen_manifest
from jobcube.preprocess import CleaningPolicy, run_pipeline
from jobcube.records import NULLABLE_FIELDS
from jobcube.sources import ingest_sources

workspace = tempfile.TemporaryDirectory(prefix="jobcube_demo_")    # removed at the end, or at exit on an error
out_dir = Path(workspace.name)
gen = generate(GenConfig(seed=23, counts={"tripoli": 300, "misurata": 200,
                                          "sirte": 120}), out_dir)
staged, _ = ingest_sources(load_sources(out_dir / "sources.yaml"), out_dir)
print(f"{gen.expect.persons} persons -> {len(staged)} staged rows "
      f"({gen.expect.duplicates} planted duplicates)")

# One planted discrepancy, straight off the wire: the value survives ingest
# untouched and is only folded back to its canonical form by normalization.
city, nid, field, planted = gen.discrepancies[0]
assert any(getattr(r, field) == planted for r in staged if r.national_id == nid)
print(f"example discrepancy: {field}={planted!r} for {nid} ({city})")

policy = CleaningPolicy(fill_constants={f: "UNKNOWN"
                                        for f in sorted(NULLABLE_FIELDS)})
cleaned, report = run_pipeline(
    staged,
    codebooks=load_codebooks(out_dir / "codebooks.yaml"),
    policy=policy,
    hierarchy=load_hierarchy(out_dir / "hierarchy.yaml"))

print(f"\npipeline: {len(staged)} in -> {len(cleaned)} out")
print(f"  duplicates removed   {report.duplicates_removed}")
print(f"  values filled        {report.filled_total()}  {report.values_filled}")
print(f"  values normalized    {report.normalized_total()}  {report.values_normalized}")
print(f"  untranslatable left  {report.values_unmatched}")
print(f"  generalized          {report.records_generalized} "
      f"(+{report.unknown_hierarchy_values} with no hierarchy parent)")
print(f"  columns dropped      {', '.join(report.fields_dropped)}")

# The generator's manifest states what those counters must be.
manifest = read_gen_manifest(out_dir / "gen_manifest.txt")
assert report.duplicates_removed == manifest["expected_duplicates_removed"]
assert report.values_filled == manifest["expected_filled"]
assert report.values_normalized == manifest["expected_normalized"]
assert report.values_unmatched == manifest["expected_unmatched"]
print("\ncounters match the generator manifest exactly")

# And the cleaned rows themselves equal the generator's projected truth.
assert cleaned == gen.truth
print(f"cleaned output equals planted truth ({len(cleaned)} records)")

# District climbs to its congress during generalization; a person whose
# district was blanked lands on the fill constant instead.
sample = cleaned[0]
print(f"\nsample cleaned record: {sample.national_id} {sample.city} "
      f"congress={sample.congress} sector={sample.sector!r} "
      f"status={sample.status}")

workspace.cleanup()

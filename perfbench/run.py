"""jobcube benchmark: batch, olap and refresh workloads.

Run from the repository root:

    python3 perfbench/run.py --workload {batch,olap,refresh} --seed N \
        --seconds S --trace {0,1}

The seed drives the synthetic generator, so the same seed gives the same
input files; the program sees only those files. Set-up runs in child
processes, the measured phase in this process, so its peak RSS is the
workload's own. With --trace 0 the last stdout line carries the end-to-end
metrics, with --trace 1 the per-layer metrics from a traced run. Earlier
lines are a readable report. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("batch", "olap", "refresh")
# Per-layer metrics taken from counts the traced run records, with units.
COUNTS = {
    "datagen.wire_rows": "count", "datagen.bytes": "B",
    "sources.rows_read": "count", "sources.rows_rejected": "count",
    "preprocess.rows_in": "count", "preprocess.rows_out": "count",
    "preprocess.duplicates_removed": "count", "preprocess.values_normalized": "count",
    "preprocess.values_filled": "count",
    "warehouse.fact_rows": "count", "warehouse.bytes_written": "B",
    "warehouse.members_appended": "count",
    "bench.scan_p50_ms": "ms", "bench.numpy_scan_p50_ms": "ms",
    "bench.speedup": "x", "bench.fair_speedup": "x",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one set-up or the row-scan answer pass in a child process
    parser.add_argument("--phase", choices=("measure", "setup", "expect"),
                        default="measure", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child(args: argparse.Namespace, phase: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--phase", phase,
         "--workload", args.workload, "--seed", str(args.seed),
         "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{phase} phase exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p50(values) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(samples: dict, setups: list[float]) -> dict:
    return {
        "setup_s": (p50(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_p50_ms": (p50(samples.get("op")) * 1e3, "ms"),
        "cycle_p50_s": (p50(samples.get("cycle")), "s"),
    }


# Report lines per workload: (label, sample key, unit, scale).
REPORT_LINES = {
    "batch": (("batch_rows_per_s", "rows_per_s", "rows/s", 1.0),
              ("batch_pass_s", "op", "s", 1.0)),
    "olap": (("cold_query_s", "cold", "s", 1.0),
             ("query_ms", "aggregate", "ms", 1e3),
             ("navigate_ms", "navigate", "ms", 1e3),
             ("  rollup_ms", "rollup", "ms", 1e3),
             ("  drilldown_ms", "drilldown", "ms", 1e3),
             ("  slice_ms", "slice", "ms", 1e3),
             ("  dice_ms", "dice", "ms", 1e3),
             ("report_ms", "report", "ms", 1e3),
             ("cycle_s", "cycle", "s", 1.0)),
    "refresh": (("refresh_write_s", "write", "s", 1.0),
                ("refresh_read_s", "read", "s", 1.0),
                ("round_s", "cycle", "s", 1.0)),
}


def report_lines(workload: str, samples: dict, setups: list[float], tally) -> list[str]:
    from measure import describe
    lines = [describe("setup_s", setups, "s")]
    for label, key, unit, scale in REPORT_LINES[workload]:
        lines.append(describe(label, samples.get(key, []), unit, scale))
    lines.append(f"peak_rss_mb: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    lines.append(f"error_rate: {tally.error_rate:.6f} ({tally.failed}/{tally.attempted})")
    return lines


def per_layer(tr, samples: dict) -> dict:
    """Per-layer metrics from the spans and counts of a traced run."""
    def span(name: str, scale: float = 1.0) -> float:
        return p50(tr.durations(name)) * scale

    m: dict[str, tuple[float, str]] = {
        "datagen.generate_s": (span("datagen.generate"), "s"),
        "sources.ingest_s": (span("sources.ingest"), "s"),
    }
    for fmt in ("dbf", "fixed_width", "delimited"):
        m[f"sources.parse_{fmt}_s"] = (span(f"sources.parse_{fmt}"), "s")
    m["sources.map_s"] = (m["sources.ingest_s"][0] - sum(
        m[f"sources.parse_{fmt}_s"][0] for fmt in ("dbf", "fixed_width", "delimited")), "s")
    for step in ("write_staging", "read_staging", "write_clean", "read_clean"):
        m[f"records.{step}_s"] = (span(f"records.{step}"), "s")
    for step in ("normalize", "fill", "dedup", "generalize", "reduce"):
        m[f"preprocess.{step}_s"] = (span(f"preprocess.{step}"), "s")
    for step in ("build_schema", "check_integrity", "persist", "refresh", "load_schema"):
        m[f"warehouse.{step}_s"] = (span(f"warehouse.{step}"), "s")
    m["cube.build_s"] = (span("cube.build_cube"), "s")
    m["cube.first_aggregate_ms"] = (span("cube.first_aggregate", 1e3), "ms")
    for op in ("aggregate", "rollup", "drilldown", "slice", "dice"):
        m[f"cube.{op}_p50_ms"] = (span(f"cube.{op}", 1e3), "ms")
    m["reporting.run_report_p50_ms"] = (span("reporting.run_report", 1e3), "ms")
    m["cli.import_s"] = (span("cli.import"), "s")
    for name, unit in COUNTS.items():
        m[name] = (tr.counts.get(name, float("nan")), unit)
    for layer, seconds in tr.self_times().items():
        m[f"{layer}.self_s"] = (seconds, "s")
    # even cycles ran untraced, odd ones traced
    cycles = samples.get("cycle", [])
    overhead = (p50(cycles[1::2]) / p50(cycles[0::2]) - 1.0) * 100.0 if len(cycles) > 1 \
        else float("nan")
    m["trace.overhead_pct"] = (overhead, "%")
    return m


def measure_main(args: argparse.Namespace, src: Path) -> int:
    import workloads
    from measure import Tally, Tracer

    work = Path.cwd() / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(args.workload, args.seed, work, src)
    tally = Tally()
    tr = Tracer(bool(args.trace))

    setups = []
    for _ in range(1 if args.trace else workloads.SETUP_RUNS):
        out = child(args, "setup")
        setups.append(out["setup_s"])
        tally.expect(out["problems"], "set-up")
        tr.absorb(out.get("spans", []), out.get("counts", {}), "setup")
    if args.workload == "olap":
        (work / "expected.json").write_text(json.dumps(child(args, "expect")),
                                            encoding="utf-8")

    def guarded(fn, *fn_args):
        # an exception from the program is a failed operation, not a crash
        try:
            return fn(*fn_args)
        except Exception as exc:
            tally.record(False, f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return {}

    measure = workloads.MEASURE[args.workload]
    if args.trace:
        samples = guarded(measure, run, tr, args.seconds, tally)
        guarded(workloads.traced_tail, run, tr, tally)
        metrics = per_layer(tr, samples)
        tr.write(work / "spans.jsonl")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"{name}: {value:.6g} {unit}")
        print(f"error_rate: {tally.error_rate:.6f} ({tally.failed}/{tally.attempted})")
    else:
        samples = guarded(measure, run, tr, args.seconds, tally)
        metrics = end_to_end(samples, setups)
        for line in report_lines(args.workload, samples, setups, tally):
            print(line)
    for problem in tally.problems[:20]:
        print(f"FAILED: {problem}")

    for sub in ("data", "warehouse", "base_warehouse"):
        shutil.rmtree(work / sub, ignore_errors=True)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "jobcube" / "__init__.py").is_file():
        print(f"perfbench: no jobcube sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.phase == "measure":
        return measure_main(args, src)

    import workloads
    from measure import Tracer
    run = workloads.Run(args.workload, args.seed,
                        Path.cwd() / ".perfbench_work" / args.workload, src)
    if args.phase == "expect":
        print(json.dumps(workloads.olap_expected(run)))
        return 0
    tr = Tracer(bool(args.trace))
    out = workloads.setup(run, tr)
    out.update(spans=tr.spans, counts=tr.counts)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Measurement helpers: percentiles, a pass/fail tally and a span tracer.

Spans are kept in memory and written out once, when the run ends. A span's
layer is the part of its name before the first dot; names whose prefix is
not a jobcube module (``cycle``, ``epoch``, ``gate.*``) group work without
being a layer.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

LAYERS = ("datagen", "sources", "records", "preprocess", "warehouse", "cube",
          "reporting", "bench", "cli")

# Candidate tail percentiles, highest first; a run reports the highest one
# that still has at least ten samples beyond it.
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def nearest_rank(ordered: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(samples: list[float]) -> dict:
    """Median plus the highest tail percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    out = {"n": len(ordered), "p50": statistics.median(ordered) if ordered else float("nan"),
           "tail_pct": None, "tail": None}
    for pct in TAILS:
        if len(ordered) - math.ceil(pct / 100.0 * len(ordered)) >= 10:
            out["tail_pct"] = pct
            out["tail"] = nearest_rank(ordered, pct)
            break
    return out


def describe(name: str, samples: list[float], unit: str, scale: float = 1.0) -> str:
    s = summarize(samples)
    text = f"{name}: p50={s['p50'] * scale:.4f} {unit}"
    if s["tail_pct"] is not None:
        text += f", p{s['tail_pct']:g}={s['tail'] * scale:.4f} {unit}"
    return text + f" (n={s['n']})"


class Tally:
    """Operations attempted and failed; a failed check counts as a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def expect(self, problems: list[str], what: str) -> bool:
        """One attempted check that holds when `problems` is empty."""
        return self.record(not problems, f"{what}: {'; '.join(problems[:3])}")

    @property
    def error_rate(self) -> float:
        return self.failed / max(self.attempted, 1)


class Tracer:
    """Records (trace, id, parent, name, start, end) spans when enabled.

    Disabled, span() is a no-op context so the same code runs untraced.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.trace = "run"
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        record = {"trace": self.trace, "id": len(self.spans),
                  "parent": self._open[-1] if self._open else None,
                  "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = value

    def absorb(self, spans: list[dict], counts: dict, trace: str) -> None:
        """Add spans recorded by another process under their own trace id."""
        offset = len(self.spans)
        for s in spans:
            self.spans.append({**s, "trace": trace, "id": s["id"] + offset,
                               "parent": None if s["parent"] is None else s["parent"] + offset})
        self.counts.update(counts)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by the layer's child spans."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        totals = {layer: 0.0 for layer in LAYERS}
        for s, child in zip(self.spans, covered):
            layer = s["name"].split(".", 1)[0]
            if layer in totals:
                totals[layer] += (s["end"] - s["start"]) - child
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

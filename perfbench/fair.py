"""Fair baseline: the seekers-by-sector query as a columnar numpy group-by.

The row scan in ``jobcube.bench`` walks Python objects one record at a time,
so the cube's speedup over it mixes pre-aggregation with interpreter cost.
This tier keeps the records un-aggregated but stores them as columns, as a
vectorised engine would, which isolates what pre-aggregation itself buys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from jobcube import ResultTable
from jobcube.records import STATUS_SEEKER


@dataclass(frozen=True)
class SectorColumns:
    labels: np.ndarray      # distinct sector labels, sorted
    codes: np.ndarray       # per record: index into labels
    seeker: np.ndarray      # per record: 1.0 for a seeker, else 0.0


def sector_columns(records) -> SectorColumns:
    sectors = np.array([r.sector for r in records], dtype=object)
    labels, codes = np.unique(sectors, return_inverse=True)
    seeker = np.array([r.status == STATUS_SEEKER for r in records], dtype=np.float64)
    return SectorColumns(labels, codes, seeker)


def seekers_by_sector(cols: SectorColumns) -> ResultTable:
    sums = np.bincount(cols.codes, weights=cols.seeker, minlength=len(cols.labels))
    rows = tuple((str(label), int(total)) for label, total in zip(cols.labels, sums))
    return ResultTable(("sector", "seekers"), rows)

"""Record cleaning, transformation, and reduction.

Stage order is fixed: normalize_codes, fill_missing, deduplicate, generalize,
dimension_reduce. Code normalization must run before deduplication so that
variant spellings cannot hide duplicate keys; generalization runs late so it
sees filled, deduplicated records.

Every rewrite depends only on a field's value, so each rule is worked out
once per distinct value of the field and counted by the value's count. The
rules work on columns: `_rewrite` normalizes and fills, `_survivors`
deduplicates, ranking records only within a key that occurs more than once,
and `_finish` generalizes (and projects). `run_columns`, the ETL `jobcube etl`
runs, calls the three in turn; the public record steps and `run_pipeline`
transpose records to columns and back around them (`deduplicate` hands
`_survivors` its records by row).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import attrgetter, ne
from typing import Callable, Iterable, Mapping, Sequence

from .config import DEFAULT_FILL, CleaningPolicy
from .errors import (
    BadHierarchy,
    BadLevelPair,
    ConfigError,
    MissingRequiredField,
)
from .records import (
    ALL_FIELDS,
    QUARTERS,
    WAREHOUSE_REQUIRED_FIELDS,
    CanonicalApplicant,
    as_columns,
    as_records,
    bulk,
)


@dataclass(frozen=True)
class ConceptHierarchy:
    """Child-to-parent maps over ordered levels, lowest first; checked when made.

    parent_of is keyed by (level, value) and yields the value one level up;
    because every edge climbs exactly one level, chains cannot cycle.
    """

    levels: tuple[str, ...]
    parent_of: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise BadHierarchy("need at least two levels")
        if len(set(self.levels)) != len(self.levels):
            raise BadHierarchy(f"duplicate level names in {self.levels}")
        below_top = set(self.levels[:-1])
        for (level, value), parent in self.parent_of.items():
            if level not in below_top:
                raise BadHierarchy(f"parent entry at level {level!r} (not below top)")
            if not value or not parent:
                raise BadHierarchy(f"empty value in entry ({level!r}, {value!r}) -> {parent!r}")

    def ancestors(self, from_level: str, to_level: str) -> dict[str, str]:
        """Each from_level value with a full path up to to_level, mapped to
        its to_level ancestor."""
        for level in (from_level, to_level):
            if level not in self.levels:
                raise BadLevelPair(f"unknown level {level!r}; have {self.levels}")
        lo, hi = self.levels.index(from_level), self.levels.index(to_level)
        if lo >= hi:
            raise BadLevelPair(f"{from_level!r} is not below {to_level!r}")
        out = {value: parent for (level, value), parent in self.parent_of.items()
               if level == from_level}
        for up in self.levels[lo + 1:hi]:
            out = {value: self.parent_of[up, above] for value, above in out.items()
                   if (up, above) in self.parent_of}
        return out

    @classmethod
    def from_tree(cls, levels: Sequence[str], tree: Mapping) -> "ConceptHierarchy":
        """Build from a nested mapping keyed top level outward.

        {city: {congress: [district, ...]}} with levels [district, congress, city].
        """
        levels = tuple(levels)
        parent_of: dict[tuple[str, str], str] = {}

        def walk(parent_value: str, node, level_idx: int) -> None:
            # level_idx is the level of node's entries; below 0 there is none
            if level_idx < 0:
                if node not in ([], {}):
                    raise BadHierarchy(f"{parent_value!r}: nested deeper than the levels "
                                       f"{levels}, got {node!r}")
                return
            child_level = levels[level_idx]
            if not isinstance(node, (Mapping, list)):
                raise BadHierarchy(f"{parent_value!r}: expected a list or mapping of "
                                   f"{child_level!r} values, got {node!r}")
            children = node.keys() if isinstance(node, Mapping) else node
            for child in children:
                key = (child_level, str(child))
                if key in parent_of and parent_of[key] != parent_value:
                    raise BadHierarchy(f"{child!r} has two parents at level {child_level!r}")
                parent_of[key] = parent_value
            if isinstance(node, Mapping):
                for child, sub in node.items():
                    walk(str(child), sub, level_idx - 1)

        top = len(levels) - 1
        for value, sub in tree.items():
            walk(str(value), sub, top - 1)
        return cls(levels=levels, parent_of=parent_of)


@dataclass
class PreprocessReport:
    duplicates_removed: int = 0
    values_filled: dict[str, int] = field(default_factory=dict)
    values_normalized: dict[str, int] = field(default_factory=dict)
    values_unmatched: int = 0
    records_generalized: int = 0
    unknown_hierarchy_values: int = 0
    fields_dropped: list[str] = field(default_factory=list)
    rejected: list[CanonicalApplicant] = field(default_factory=list)

    def filled_total(self) -> int:
        return sum(self.values_filled.values())

    def normalized_total(self) -> int:
        return sum(self.values_normalized.values())

    def summary_lines(self) -> list[str]:
        return [
            f"duplicates_removed={self.duplicates_removed}",
            f"values_filled={self.filled_total()}",
            f"values_normalized={self.normalized_total()}",
            f"values_unmatched={self.values_unmatched}",
            f"records_generalized={self.records_generalized}",
            f"unknown_hierarchy_values={self.unknown_hierarchy_values}",
            f"rejected_empty_key={len(self.rejected)}",
            f"fields_dropped={','.join(self.fields_dropped) or '-'}",
        ]


# Q1..Q4 -> 1..4; a non-canonical quarter ranks 0, below Q1, so ordering stays total
_QUARTER_RANK = {quarter: rank for rank, quarter in enumerate(QUARTERS, 1)}
_NATIONAL_ID = ALL_FIELDS.index("national_id")


def _compile_codebooks(codebooks: Mapping[str, Mapping[str, str]],
                       ) -> dict[str, dict[str, str]]:
    """Fold variants per field: trimmed, casefolded variant -> canonical.

    Every canonical value maps to itself so a second pass is a no-op.
    """
    compiled: dict[str, dict[str, str]] = {}
    for field_name, book in codebooks.items():
        if field_name not in ALL_FIELDS:
            raise ConfigError(f"codebook for unknown field {field_name!r}")
        if not isinstance(CanonicalApplicant._field_defaults[field_name], str):
            raise ConfigError(f"codebook for non-text field {field_name!r}")
        if field_name == "status":     # ingest derives it from sector
            raise ConfigError(f"codebook for derived field {field_name!r}")
        lookup: dict[str, str] = {}
        for variant, canonical in book.items():
            for key in (variant.strip().casefold(), canonical.strip().casefold()):
                if lookup.get(key, canonical) != canonical:
                    raise ConfigError(
                        f"{field_name}: {key!r} maps to both {lookup[key]!r} and {canonical!r}")
                lookup[key] = canonical
        compiled[field_name] = lookup
    return compiled


def _rewrite(columns: list[list], codebooks: Mapping[str, Mapping[str, str]],
             fill_constants: Mapping[str, str], report: PreprocessReport) -> list[list]:
    """The rule before dedup, on columns in ALL_FIELDS order (rewritten in
    place and returned). Per coded or fillable field, by name: the codebook
    rewrite and then the fill, worked out once per distinct value and counted
    into report by the value's count, then the column mapped through it."""
    compiled = _compile_codebooks(codebooks)
    normalized, filled = report.values_normalized, report.values_filled
    for name in sorted(compiled.keys() | fill_constants.keys()):
        i, lookup, fill = ALL_FIELDS.index(name), compiled.get(name), fill_constants.get(name)
        rewrite = {}
        for value, count in Counter(columns[i]).items():
            new = value
            if lookup is not None and value != "":
                canonical = lookup.get(value.strip().casefold())
                if canonical is None:
                    report.values_unmatched += count
                elif canonical != value:
                    normalized[name] = normalized.get(name, 0) + count
                    new = canonical
            if fill is not None and new.strip() == "":
                filled[name] = filled.get(name, 0) + count
                new = fill
            if new != value:
                rewrite[value] = new
        if rewrite:
            columns[i] = list(map(rewrite.get, columns[i], columns[i]))
    return columns


def _survivors(national_ids: Iterable[str], record: Callable[[int], CanonicalApplicant],
               policy: CleaningPolicy, report: PreprocessReport) -> list[int]:
    """The rows deduplicate keeps, in key order, given each row's national_id
    and its record by row. Rows with a blank key are quarantined into report
    in row order; only the rows of a key that occurs more than once are ranked."""
    keys = list(map(str.strip, national_ids))
    n = len(keys)
    last = dict(zip(keys, range(n)))            # each key's last row
    last.pop("", None)
    latest = policy.keep_rule == "latest_application"

    def rank(i: int) -> tuple:
        r = record(i)
        if latest:
            return (-r.year, -_QUARTER_RANK.get(r.quarter, 0), r.city, r.source_id, r)
        return (r.year, _QUARTER_RANK.get(r.quarter, 0), r.city, r.source_id, r)

    groups: dict[str, list[int]] = {}
    # the rows with a blank key, or not their key's last
    for i in compress(range(n), map(ne, map(last.get, keys, repeat(-1)), range(n))):
        if keys[i] == "":
            report.rejected.append(record(i))
        else:
            groups.setdefault(keys[i], [last[keys[i]]]).append(i)
    for key, rows in groups.items():
        last[key] = min(rows, key=rank)
    report.duplicates_removed = n - len(report.rejected) - len(last)
    return list(map(last.__getitem__, sorted(last)))


def _finish(columns: Sequence[Sequence], rows: Sequence[int] | None, keep: Iterable[str],
            report: PreprocessReport | None = None,
            lift: tuple[ConceptHierarchy, str, str, str] | None = None) -> list[list]:
    """The rule after dedup, on the columns of the given rows (all of them,
    if None): the lift (hierarchy, from_level, to_level, fill), worked out
    once per distinct from_level value and counted into report by its count,
    then the projection onto keep (other fields blank, year 0)."""
    keep = frozenset(keep)
    if lift is not None:
        hierarchy, from_level, to_level, fill = lift
        ancestors = hierarchy.ancestors(from_level, to_level)
        if from_level not in ALL_FIELDS or to_level not in ALL_FIELDS:
            raise BadLevelPair(f"levels must name record fields: {from_level!r}, {to_level!r}")
    n = len(columns[0]) if rows is None else len(rows)
    if rows is not None:
        needed = keep | {lift[1]} if lift else keep
        columns = [list(map(column.__getitem__, rows)) if name in needed else column
                   for name, column in zip(ALL_FIELDS, columns)]
    blank, zeros = [""] * n, [0] * n         # shared by every dropped field
    out = [column if name in keep else zeros if name == "year" else blank
           for name, column in zip(ALL_FIELDS, columns)]
    if lift is not None:
        values = columns[ALL_FIELDS.index(from_level)]
        ancestor_of = {}
        for value, count in Counter(values).items():
            ancestor = ancestors.get(value)
            if ancestor is None:
                report.unknown_hierarchy_values += count
                ancestor = fill
            else:
                report.records_generalized += count
            ancestor_of[value] = ancestor
        out[ALL_FIELDS.index(to_level)] = list(map(ancestor_of.__getitem__, values))
    return out


@bulk()
def deduplicate(records: Iterable[CanonicalApplicant], policy: CleaningPolicy,
                ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """Keep one record per national_id. Records with a blank national_id are
    quarantined into the report, never silently dropped.

    Survivor under latest_application: greatest (year, quarter), ties to the
    lexicographically smallest city, then smallest source_id. first_seen is
    the mirror image on (year, quarter). The record itself, compared as its
    field tuple in ALL_FIELDS order, is the final tie-break, which makes the
    result independent of input order.
    """
    report = PreprocessReport()
    records = list(records)
    rows = _survivors(map(attrgetter("national_id"), records), records.__getitem__, policy,
                      report)
    return list(map(records.__getitem__, rows)), report


@bulk()
def normalize_codes(records: Iterable[CanonicalApplicant],
                    codebooks: Mapping[str, Mapping[str, str]],
                    ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """Rewrite variant spellings to canonical codes.

    Matching is exact after trimming and case-folding. Unmatched non-empty
    values pass through unchanged and are counted.
    """
    report = PreprocessReport()
    return as_records(_rewrite(as_columns(records), codebooks, {}, report)), report


@bulk()
def fill_missing(records: Iterable[CanonicalApplicant], policy: CleaningPolicy,
                 ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """Replace blank nullable values with the policy's constants."""
    report = PreprocessReport()
    return as_records(_rewrite(as_columns(records), {}, policy.fill_constants, report)), report


@bulk()
def generalize(records: Iterable[CanonicalApplicant], hierarchy: ConceptHierarchy,
               from_level: str, to_level: str, fill: str = DEFAULT_FILL,
               ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """Write each record's to_level ancestor (walked up from its from_level
    value) into the record field named after to_level.

    Values with no path through the hierarchy get the fill constant and are
    counted as unknown.
    """
    report = PreprocessReport()
    lift = (hierarchy, from_level, to_level, fill)
    return as_records(_finish(as_columns(records), None, ALL_FIELDS, report, lift)), report


@bulk()
def dimension_reduce(records: Iterable[CanonicalApplicant],
                     keep_fields: Iterable[str]) -> list[CanonicalApplicant]:
    """Project records onto keep_fields (other fields blanked, year 0).

    keep_fields must cover everything the warehouse needs: the six dimension
    attributes, status, and the record identity.
    """
    keep = frozenset(keep_fields)
    unknown = keep - set(ALL_FIELDS)
    if unknown:
        raise ConfigError(f"keep_fields names unknown fields: {sorted(unknown)}")
    missing = WAREHOUSE_REQUIRED_FIELDS - keep
    if missing:
        raise MissingRequiredField(f"keep_fields must include {sorted(missing)}")
    return as_records(_finish(as_columns(records), None, keep))


@bulk()
def run_columns(columns: list[list], *, codebooks: Mapping[str, Mapping[str, str]],
                policy: CleaningPolicy, hierarchy: ConceptHierarchy,
                ) -> tuple[list[list], PreprocessReport]:
    """The fixed-order ETL on staged columns (one list per field, in
    ALL_FIELDS order; rewritten in place), counted into one report: normalize
    and fill, deduplicate, then generalize district to congress and reduce to
    WAREHOUSE_REQUIRED_FIELDS, as the clean columns. A district with no
    congress gets the district fill (or DEFAULT_FILL)."""
    report = PreprocessReport(
        fields_dropped=[f for f in ALL_FIELDS if f not in WAREHOUSE_REQUIRED_FIELDS])
    _rewrite(columns, codebooks, policy.fill_constants, report)
    make = CanonicalApplicant._make
    rows = _survivors(columns[_NATIONAL_ID], lambda i: make([c[i] for c in columns]),
                      policy, report)
    fill = policy.fill_constants.get("district") or DEFAULT_FILL
    return _finish(columns, rows, WAREHOUSE_REQUIRED_FIELDS, report,
                   (hierarchy, "district", "congress", fill)), report


def run_pipeline(records: Iterable[CanonicalApplicant], *,
                 codebooks: Mapping[str, Mapping[str, str]],
                 policy: CleaningPolicy,
                 hierarchy: ConceptHierarchy,
                 ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """`run_columns` on records."""
    columns, report = run_columns(as_columns(records), codebooks=codebooks, policy=policy,
                                  hierarchy=hierarchy)
    return as_records(columns), report

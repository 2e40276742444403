"""Record cleaning, transformation, and reduction.

Stage order is fixed: normalize_codes, fill_missing, deduplicate, generalize,
dimension_reduce. Code normalization must run before deduplication so that
variant spellings cannot hide duplicate keys; generalization runs late so it
sees filled, deduplicated records.

Each rule is compiled once into a row function: `_cleaner` normalizes and
fills, `_finisher` generalizes and projects. run_pipeline makes one pass with
each around deduplicate, the only step that needs every record; the public
steps loop over the same row functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
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


def _cleaner(compiled: Mapping[str, Mapping[str, str]], fill_constants: Mapping[str, str],
             report: PreprocessReport) -> Callable[[CanonicalApplicant], CanonicalApplicant]:
    """The row function before dedup: per coded or fillable field, by name,
    the codebook rewrite and then the fill, counted into report. A record
    with nothing to change is returned as it is."""
    steps = [(ALL_FIELDS.index(name), name, compiled.get(name), fill_constants.get(name))
             for name in sorted(compiled.keys() | fill_constants.keys())]
    normalized, filled = report.values_normalized, report.values_filled
    make = CanonicalApplicant._make

    def clean(r: CanonicalApplicant) -> CanonicalApplicant:
        values = None
        for i, name, lookup, fill in steps:
            value = r[i]
            if lookup is not None and value != "":
                canonical = lookup.get(value.strip().casefold())
                if canonical is None:
                    report.values_unmatched += 1
                elif canonical != value:
                    normalized[name] = normalized.get(name, 0) + 1
                    if values is None:
                        values = list(r)
                    values[i] = value = canonical
            if fill is not None and value.strip() == "":
                filled[name] = filled.get(name, 0) + 1
                if values is None:
                    values = list(r)
                values[i] = fill
        return r if values is None else make(values)
    return clean


def _finisher(keep: Iterable[str], report: PreprocessReport | None = None,
              lift: tuple[ConceptHierarchy, str, str, str] | None = None,
              ) -> Callable[[CanonicalApplicant], CanonicalApplicant]:
    """The row function after dedup: the lift (hierarchy, from_level,
    to_level, fill), counted into report, then the projection onto keep
    (other fields blank, year 0), in one _make per record."""
    keep = frozenset(keep)
    # slots past the record's own: the lifted value, a blank text, a blank year
    n = len(ALL_FIELDS)
    slots = [i if name in keep else n + 1 + (name == "year")
             for i, name in enumerate(ALL_FIELDS)]
    make = CanonicalApplicant._make
    if lift is None:
        pick = itemgetter(*slots)
        return lambda r: make(pick(r + (None, "", 0)))
    hierarchy, from_level, to_level, fill = lift
    ancestors = hierarchy.ancestors(from_level, to_level)
    if from_level not in ALL_FIELDS or to_level not in ALL_FIELDS:
        raise BadLevelPair(f"levels must name record fields: {from_level!r}, {to_level!r}")
    source = ALL_FIELDS.index(from_level)
    slots[ALL_FIELDS.index(to_level)] = n
    pick = itemgetter(*slots)

    def finish(r: CanonicalApplicant) -> CanonicalApplicant:
        ancestor = ancestors.get(r[source])
        if ancestor is None:
            report.unknown_hierarchy_values += 1
            ancestor = fill
        else:
            report.records_generalized += 1
        return make(pick(r + (ancestor, "", 0)))
    return finish


def _deduplicate(records: Iterable[CanonicalApplicant], policy: CleaningPolicy,
                 report: PreprocessReport) -> list[CanonicalApplicant]:
    groups: dict[str, CanonicalApplicant] = {}
    latest = policy.keep_rule == "latest_application"

    def rank(r: CanonicalApplicant) -> tuple:
        if latest:
            return (-r.year, -_QUARTER_RANK.get(r.quarter, 0), r.city, r.source_id, r)
        return (r.year, _QUARTER_RANK.get(r.quarter, 0), r.city, r.source_id, r)

    kept = 0
    for r in records:
        key = r.national_id.strip()
        if key == "":
            report.rejected.append(r)
            continue
        kept += 1
        best = groups.get(key)
        if best is None or rank(r) < rank(best):
            groups[key] = r
    out = [groups[k] for k in sorted(groups)]
    report.duplicates_removed = kept - len(out)
    return out


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
    return _deduplicate(records, policy, report), report


def normalize_codes(records: Iterable[CanonicalApplicant],
                    codebooks: Mapping[str, Mapping[str, str]],
                    ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """Rewrite variant spellings to canonical codes.

    Matching is exact after trimming and case-folding. Unmatched non-empty
    values pass through unchanged and are counted.
    """
    report = PreprocessReport()
    clean = _cleaner(_compile_codebooks(codebooks), {}, report)
    return [clean(r) for r in records], report


def fill_missing(records: Iterable[CanonicalApplicant], policy: CleaningPolicy,
                 ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """Replace blank nullable values with the policy's constants."""
    report = PreprocessReport()
    clean = _cleaner({}, policy.fill_constants, report)
    return [clean(r) for r in records], report


def generalize(records: Iterable[CanonicalApplicant], hierarchy: ConceptHierarchy,
               from_level: str, to_level: str, fill: str = DEFAULT_FILL,
               ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """Write each record's to_level ancestor (walked up from its from_level
    value) into the record field named after to_level.

    Values with no path through the hierarchy get the fill constant and are
    counted as unknown.
    """
    report = PreprocessReport()
    finish = _finisher(ALL_FIELDS, report, (hierarchy, from_level, to_level, fill))
    return [finish(r) for r in records], report


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
    finish = _finisher(keep)
    return [finish(r) for r in records]


def run_pipeline(records: Iterable[CanonicalApplicant], *,
                 codebooks: Mapping[str, Mapping[str, str]],
                 policy: CleaningPolicy,
                 hierarchy: ConceptHierarchy,
                 ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """The fixed-order ETL, counted into one report: one row pass normalizing
    and filling, deduplicate, and one row pass generalizing district to
    congress and reducing to WAREHOUSE_REQUIRED_FIELDS. A district with no
    congress gets the district fill (or DEFAULT_FILL)."""
    report = PreprocessReport(
        fields_dropped=[f for f in ALL_FIELDS if f not in WAREHOUSE_REQUIRED_FIELDS])
    compiled = _compile_codebooks(codebooks)
    clean = _cleaner(compiled, policy.fill_constants, report)
    deduped = _deduplicate(map(clean, records), policy, report)
    fill = policy.fill_constants.get("district") or DEFAULT_FILL
    finish = _finisher(WAREHOUSE_REQUIRED_FIELDS, report, (hierarchy, "district", "congress", fill))
    return [finish(r) for r in deduped], report

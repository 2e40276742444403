"""Record cleaning, transformation, and reduction.

Stage order is fixed: normalize_codes, fill_missing, deduplicate, generalize,
dimension_reduce. Code normalization must run before deduplication so that
variant spellings cannot hide duplicate keys; generalization runs late so it
sees filled, deduplicated records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadHierarchy,
    BadLevelPair,
    BadPolicy,
    ConfigError,
    MissingRequiredField,
)
from .records import (
    ALL_FIELDS,
    NULLABLE_FIELDS,
    QUARTERS,
    WAREHOUSE_REQUIRED_FIELDS,
    CanonicalApplicant,
    quarter_index,
    project,
)

DEFAULT_FILL = "UNKNOWN"


@dataclass(frozen=True)
class ConceptHierarchy:
    """Child-to-parent maps over ordered levels, lowest level first.

    parent_of is keyed by (level, value) and yields the value one level up;
    because every edge climbs exactly one level, chains cannot cycle.
    """

    levels: tuple[str, ...]
    parent_of: dict[tuple[str, str], str]

    def validate(self) -> None:
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

    def level_index(self, level: str) -> int:
        try:
            return self.levels.index(level)
        except ValueError:
            raise BadLevelPair(f"unknown level {level!r}; have {self.levels}") from None

    def parent(self, level: str, value: str) -> str | None:
        return self.parent_of.get((level, value))

    def ancestor(self, value: str, from_level: str, to_level: str) -> str | None:
        """Walk value up from from_level to to_level; None if a link is missing."""
        lo, hi = self.level_index(from_level), self.level_index(to_level)
        if lo >= hi:
            raise BadLevelPair(f"{from_level!r} is not below {to_level!r}")
        current: str | None = value
        for i in range(lo, hi):
            if current is None:
                return None
            current = self.parent_of.get((self.levels[i], current))
        return current

    @classmethod
    def from_tree(cls, levels: Sequence[str], tree: Mapping) -> "ConceptHierarchy":
        """Build from a nested mapping keyed top level outward.

        {city: {congress: [district, ...]}} with levels [district, congress, city].
        """
        levels = tuple(levels)
        parent_of: dict[tuple[str, str], str] = {}

        def walk(parent_value: str, node, level_idx: int) -> None:
            # level_idx is the level of node's entries
            child_level = levels[level_idx]
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
        h = cls(levels=levels, parent_of=parent_of)
        h.validate()
        return h


@dataclass(frozen=True)
class CleaningPolicy:
    """Fill constants for nullable fields plus the duplicate-survivor rule.
    Records are deduplicated on national_id, which is never filled."""

    fill_constants: dict[str, str] = field(
        default_factory=lambda: {f: DEFAULT_FILL for f in sorted(NULLABLE_FIELDS)})
    keep_rule: str = "latest_application"   # or "first_seen"

    def validate(self) -> None:
        if self.keep_rule not in ("latest_application", "first_seen"):
            raise BadPolicy(f"unknown keep_rule {self.keep_rule!r}")
        bad = set(self.fill_constants) - NULLABLE_FIELDS
        if bad:
            raise BadPolicy(f"fill constants for non-fillable fields: {sorted(bad)}")


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


def _quarter_rank(quarter: str) -> int:
    # non-canonical quarters rank below Q1 so ordering stays total
    return quarter_index(quarter) if quarter in QUARTERS else 0


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
    policy.validate()
    report = PreprocessReport()
    groups: dict[str, CanonicalApplicant] = {}
    latest = policy.keep_rule == "latest_application"

    def rank(r: CanonicalApplicant) -> tuple:
        if latest:
            return (-r.year, -_quarter_rank(r.quarter), r.city, r.source_id, r)
        return (r.year, _quarter_rank(r.quarter), r.city, r.source_id, r)

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
    return out, report


def fill_missing(records: Iterable[CanonicalApplicant], policy: CleaningPolicy,
                 ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """Replace blank nullable values with the policy's constants."""
    policy.validate()
    report = PreprocessReport()
    fields_sorted = sorted(policy.fill_constants)
    out: list[CanonicalApplicant] = []
    for r in records:
        updates: dict[str, str] = {}
        for name in fields_sorted:
            if getattr(r, name).strip() == "":
                updates[name] = policy.fill_constants[name]
                report.values_filled[name] = report.values_filled.get(name, 0) + 1
        out.append(r._replace(**updates) if updates else r)
    return out, report


def generalize(records: Iterable[CanonicalApplicant], hierarchy: ConceptHierarchy,
               from_level: str, to_level: str, fill: str = DEFAULT_FILL,
               ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """Write each record's to_level ancestor (walked up from its from_level
    value) into the record field named after to_level.

    Values with no path through the hierarchy get the fill constant and are
    counted as unknown.
    """
    lo = hierarchy.level_index(from_level)
    hi = hierarchy.level_index(to_level)
    if lo >= hi:
        raise BadLevelPair(f"{from_level!r} must be strictly below {to_level!r}")
    if from_level not in ALL_FIELDS or to_level not in ALL_FIELDS:
        raise BadLevelPair(f"levels must name record fields: {from_level!r}, {to_level!r}")
    report = PreprocessReport()
    out: list[CanonicalApplicant] = []
    cache: dict[str, str | None] = {}
    for r in records:
        value = getattr(r, from_level)
        if value in cache:
            ancestor = cache[value]
        else:
            ancestor = hierarchy.ancestor(value, from_level, to_level)
            cache[value] = ancestor
        if ancestor is None:
            report.unknown_hierarchy_values += 1
            out.append(r._replace(**{to_level: fill}))
        else:
            report.records_generalized += 1
            out.append(r._replace(**{to_level: ancestor}))
    return out, report


def _compile_codebooks(codebooks: Mapping[str, Mapping[str, str]],
                       ) -> dict[str, dict[str, str]]:
    """Fold variants per field: trimmed, casefolded variant -> canonical.

    Every canonical value maps to itself so a second pass is a no-op.
    """
    compiled: dict[str, dict[str, str]] = {}
    for field_name, book in codebooks.items():
        if field_name not in ALL_FIELDS:
            raise ConfigError(f"codebook for unknown field {field_name!r}")
        lookup: dict[str, str] = {}
        for variant, canonical in book.items():
            for key in (variant.strip().casefold(), canonical.strip().casefold()):
                if lookup.get(key, canonical) != canonical:
                    raise ConfigError(
                        f"{field_name}: {key!r} maps to both {lookup[key]!r} and {canonical!r}")
                lookup[key] = canonical
        compiled[field_name] = lookup
    return compiled


def normalize_codes(records: Iterable[CanonicalApplicant],
                    codebooks: Mapping[str, Mapping[str, str]],
                    ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """Rewrite variant spellings to canonical codes.

    Matching is exact after trimming and case-folding. Unmatched non-empty
    values pass through unchanged and are counted.
    """
    compiled = _compile_codebooks(codebooks)
    report = PreprocessReport()
    fields_sorted = sorted(compiled)
    out: list[CanonicalApplicant] = []
    for r in records:
        updates: dict[str, str] = {}
        for name in fields_sorted:
            value = getattr(r, name)
            if value == "":
                continue
            canonical = compiled[name].get(value.strip().casefold())
            if canonical is None:
                report.values_unmatched += 1
            elif canonical != value:
                updates[name] = canonical
                report.values_normalized[name] = report.values_normalized.get(name, 0) + 1
        out.append(r._replace(**updates) if updates else r)
    return out, report


def dimension_reduce(records: Iterable[CanonicalApplicant],
                     keep_fields: Iterable[str]) -> list[CanonicalApplicant]:
    """Project records onto keep_fields (other fields blanked).

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
    return [project(r, keep) for r in records]


def run_pipeline(records: Iterable[CanonicalApplicant], *,
                 codebooks: Mapping[str, Mapping[str, str]],
                 policy: CleaningPolicy,
                 hierarchy: ConceptHierarchy,
                 ) -> tuple[list[CanonicalApplicant], PreprocessReport]:
    """The full fixed-order pass: normalize, fill, dedup, generalize district
    to congress, and reduce to WAREHOUSE_REQUIRED_FIELDS.

    A district with no congress gets the district fill (or DEFAULT_FILL).
    """
    recs, normalized = normalize_codes(records, codebooks)
    recs, filled = fill_missing(recs, policy)
    recs, deduped = deduplicate(recs, policy)
    fill = policy.fill_constants.get("district") or DEFAULT_FILL
    recs, generalized = generalize(recs, hierarchy, "district", "congress", fill=fill)
    recs = dimension_reduce(recs, WAREHOUSE_REQUIRED_FIELDS)
    return recs, PreprocessReport(
        duplicates_removed=deduped.duplicates_removed, rejected=deduped.rejected,
        values_filled=filled.values_filled,
        values_normalized=normalized.values_normalized,
        values_unmatched=normalized.values_unmatched,
        records_generalized=generalized.records_generalized,
        unknown_hierarchy_values=generalized.unknown_hierarchy_values,
        fields_dropped=[f for f in ALL_FIELDS if f not in WAREHOUSE_REQUIRED_FIELDS])

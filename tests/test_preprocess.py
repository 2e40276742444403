"""Cleaning stages: dedup, fill, normalize, generalize, reduce."""

import random
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jobcube.errors import (
    BadHierarchy,
    BadLevelPair,
    BadPolicy,
    ConfigError,
    MissingRequiredField,
)
from jobcube.preprocess import (
    DEFAULT_FILL,
    CleaningPolicy,
    ConceptHierarchy,
    PreprocessReport,
    deduplicate,
    dimension_reduce,
    fill_missing,
    generalize,
    normalize_codes,
    run_columns,
    run_pipeline,
)
from jobcube.records import ALL_FIELDS, CanonicalApplicant, WAREHOUSE_REQUIRED_FIELDS

from oracle import make_hierarchy, oracle_etl

POLICY = CleaningPolicy()


def rec(**kw) -> CanonicalApplicant:
    base = dict(national_id="N1", name="SOMEONE", sex="male",
                district="DA11", city="CityA", congress="CGA1",
                specialty="SP1", job_group="JG1", sector="", moahel="Q1",
                education_level="edu1", service_status="svc1",
                year=2003, quarter="Q2")
    base.update(kw)
    return CanonicalApplicant(**base)


class TestHierarchy:
    def test_from_tree_and_ancestor(self):
        h = make_hierarchy()
        assert h.levels == ("district", "congress", "city")
        assert h.ancestors("district", "congress")["DA12"] == "CGA1"
        assert h.ancestors("district", "city")["DA12"] == "CityA"
        assert h.ancestors("congress", "city")["CGB2"] == "CityB"
        assert "nowhere" not in h.ancestors("district", "city")

    def test_level_order_enforced(self):
        h = make_hierarchy()
        with pytest.raises(BadLevelPair):
            h.ancestors("city", "district")
        with pytest.raises(BadLevelPair):
            h.ancestors("district", "district")

    def test_two_parent_conflict(self):
        tree = {"CityA": {"CG1": ["D1"]}, "CityB": {"CG1": ["D2"]}}
        with pytest.raises(BadHierarchy):
            ConceptHierarchy.from_tree(("district", "congress", "city"), tree)

    def test_needs_two_levels(self):
        with pytest.raises(BadHierarchy):
            ConceptHierarchy(levels=("solo",), parent_of={})


class TestPolicy:
    def test_defaults_are_valid(self):
        CleaningPolicy()

    def test_unknown_keep_rule(self):
        with pytest.raises(BadPolicy):
            CleaningPolicy(keep_rule="newest")

    def test_non_fillable_field(self):
        with pytest.raises(BadPolicy):
            CleaningPolicy(fill_constants={"national_id": "X"})


class TestDeduplicate:
    def test_keeps_latest_application(self):
        older = rec(year=2002, quarter="Q4", city="CityB")
        newer = rec(year=2003, quarter="Q1", city="CityA")
        out, report = deduplicate([older, newer], POLICY)
        assert out == [newer]
        assert report.duplicates_removed == 1

    def test_quarter_breaks_same_year(self):
        q2 = rec(quarter="Q2")
        q3 = rec(quarter="Q3")
        out, _ = deduplicate([q3, q2], POLICY)
        assert out == [q3]

    def test_city_breaks_time_tie(self):
        a = rec(city="CityA")
        b = rec(city="CityB")
        out, _ = deduplicate([b, a], POLICY)
        assert out == [a]

    def test_distinct_keys_survive(self):
        records = [rec(national_id=f"N{i}") for i in range(5)]
        out, report = deduplicate(records, POLICY)
        assert len(out) == 5
        assert report.duplicates_removed == 0

    def test_output_sorted_by_key(self):
        records = [rec(national_id="N9"), rec(national_id="N1"),
                   rec(national_id="N5")]
        out, _ = deduplicate(records, POLICY)
        assert [r.national_id for r in out] == ["N1", "N5", "N9"]

    def test_blank_key_quarantined(self):
        good = rec()
        bad = rec(national_id="  ")
        out, report = deduplicate([good, bad], POLICY)
        assert out == [good]
        assert report.rejected == [bad]
        assert report.duplicates_removed == 0

    def test_idempotent(self):
        records = [rec(national_id=f"N{i % 3}", year=2000 + i % 4)
                   for i in range(12)]
        once, _ = deduplicate(records, POLICY)
        twice, report = deduplicate(once, POLICY)
        assert twice == once
        assert report.duplicates_removed == 0

    @pytest.mark.parametrize("keep_rule", ["latest_application", "first_seen"])
    def test_equal_rank_ties_break_on_field_tuple(self, keep_rule):
        # sex precedes district in ALL_FIELDS; alphabetical field order would
        # decide on district instead and keep the other record.
        a = rec(sex="female", district="DZ99")
        b = rec(sex="male", district="DA11")
        policy = CleaningPolicy(keep_rule=keep_rule)
        for batch in ([a, b], [b, a]):
            out, report = deduplicate(batch, policy)
            assert out == [a]
            assert report.duplicates_removed == 1

    def test_first_seen_rule(self):
        first = rec(year=2001, sector="S1", status="directed")
        later = rec(year=2004)
        policy = CleaningPolicy(keep_rule="first_seen")
        out, _ = deduplicate([later, first], policy)
        assert out == [first]

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 2 ** 30))
    def test_order_independent(self, shuffler, seed):
        rnd = random.Random(seed)
        records = [rec(national_id=f"N{rnd.randrange(6)}",
                       year=rnd.choice([2001, 2002]),
                       quarter=rnd.choice(["Q1", "Q3"]),
                       city=rnd.choice(["CityA", "CityB"]),
                       sector=rnd.choice(["", "S1"]))
                   for _ in range(rnd.randrange(1, 40))]
        baseline, base_report = deduplicate(records, POLICY)
        shuffled = list(records)
        shuffler.shuffle(shuffled)
        out, report = deduplicate(shuffled, POLICY)
        assert out == baseline
        assert report.duplicates_removed == base_report.duplicates_removed


class TestFillMissing:
    def test_fills_blank_and_whitespace(self):
        records = [rec(sex=""), rec(sex="  "), rec(sex="male")]
        out, report = fill_missing(records, POLICY)
        assert [r.sex for r in out] == ["UNKNOWN", "UNKNOWN", "male"]
        assert report.values_filled == {"sex": 2}

    def test_only_policy_fields_touched(self):
        records = [rec(sector="")]       # sector is not fillable
        out, report = fill_missing(records, POLICY)
        assert out[0].sector == ""
        assert report.values_filled == {}

    def test_custom_constant(self):
        policy = CleaningPolicy(fill_constants={"moahel": "N/A"})
        out, _ = fill_missing([rec(moahel="")], policy)
        assert out[0].moahel == "N/A"


class TestNormalizeCodes:
    BOOKS = {"sex": {"M": "male", "F": "female"},
             "education_level": {"e1": "edu1"}}

    def test_rewrites_variants(self):
        out, report = normalize_codes([rec(sex="M")], self.BOOKS)
        assert out[0].sex == "male"
        assert report.values_normalized == {"sex": 1}

    def test_trim_and_case_insensitive_match(self):
        out, report = normalize_codes([rec(sex=" m "), rec(sex="f")], self.BOOKS)
        assert [r.sex for r in out] == ["male", "female"]
        assert report.values_normalized == {"sex": 2}

    def test_canonical_value_untouched(self):
        out, report = normalize_codes([rec(sex="male")], self.BOOKS)
        assert out[0].sex == "male"
        assert report.values_normalized == {}
        assert report.values_unmatched == 0

    def test_unmatched_counted_not_rewritten(self):
        out, report = normalize_codes([rec(sex="yes")], self.BOOKS)
        assert out[0].sex == "yes"
        assert report.values_unmatched == 1

    def test_blank_skipped(self):
        out, report = normalize_codes([rec(sex="")], self.BOOKS)
        assert report.values_unmatched == 0
        assert report.values_normalized == {}

    def test_conflicting_variants_rejected(self):
        books = {"sex": {"m": "male", "M ": "female"}}
        with pytest.raises(ConfigError):
            normalize_codes([rec()], books)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            normalize_codes([rec()], {"shoe_size": {"9": "nine"}})

    def test_non_text_field_rejected(self):
        # year is the one integer field; a codebook cannot fold it
        with pytest.raises(ConfigError, match="non-text field 'year'"):
            normalize_codes([rec()], {"year": {"2003": "2004"}})

    def test_derived_status_field_rejected(self):
        # status follows from sector; a codebook would contradict that rule
        with pytest.raises(ConfigError, match="derived field 'status'"):
            normalize_codes([rec()], {"status": {"seeker": "directed"}})


class TestGeneralize:
    def test_writes_ancestor_into_target_field(self):
        h = make_hierarchy()
        out, report = generalize([rec(district="DA12", congress="")],
                                 h, "district", "congress")
        assert out[0].congress == "CGA1"
        assert report.records_generalized == 1
        assert report.unknown_hierarchy_values == 0

    def test_two_step_climb(self):
        h = make_hierarchy()
        out, _ = generalize([rec(district="DB21", city="")], h,
                            "district", "city")
        assert out[0].city == "CityB"

    def test_unknown_value_gets_fill(self):
        h = make_hierarchy()
        out, report = generalize([rec(district="DX99")], h,
                                 "district", "congress", fill="UNKNOWN")
        assert out[0].congress == "UNKNOWN"
        assert report.unknown_hierarchy_values == 1
        assert report.records_generalized == 0

    def test_level_pair_must_ascend(self):
        h = make_hierarchy()
        with pytest.raises(BadLevelPair):
            generalize([rec()], h, "congress", "district")


class TestDimensionReduce:
    def test_projects_to_kept_fields(self):
        full = rec(name="SOMEONE", district="DA11", source_id="x")
        [out] = dimension_reduce([full], WAREHOUSE_REQUIRED_FIELDS)
        assert out.name == ""
        assert out.district == ""
        assert out.source_id == ""
        assert out.national_id == full.national_id
        assert out.year == full.year

    def test_required_fields_cannot_be_dropped(self):
        with pytest.raises(MissingRequiredField):
            dimension_reduce([rec()], {"national_id", "year"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            dimension_reduce([rec()], WAREHOUSE_REQUIRED_FIELDS | {"zodiac"})


class TestPipeline:
    def test_stage_order_normalize_before_dedup(self):
        # same person entered twice; the older entry wins only if variant
        # codes were normalized before comparison keys are built
        h = make_hierarchy()
        books = {"sex": {"M": "male"}}
        older = rec(sex="M", year=2002, district="DA11")
        newer = rec(sex="male", year=2003, district="DA11")
        out, report = run_pipeline([older, newer], codebooks=books,
                                   policy=POLICY, hierarchy=h)
        assert len(out) == 1
        assert out[0].year == 2003
        assert report.duplicates_removed == 1
        assert report.values_normalized == {"sex": 1}

    def test_generalize_runs_after_dedup(self):
        # the duplicate's unknown district must not inflate the counter
        h = make_hierarchy()
        keeper = rec(year=2003, district="DA11")
        loser = rec(year=2002, district="DX99")
        _, report = run_pipeline([keeper, loser], codebooks={},
                                 policy=POLICY, hierarchy=h)
        assert report.duplicates_removed == 1
        assert report.unknown_hierarchy_values == 0
        assert report.records_generalized == 1

    def test_blank_district_generalizes_to_fill(self):
        h = make_hierarchy()
        out, report = run_pipeline([rec(district="")], codebooks={},
                                   policy=POLICY, hierarchy=h)
        assert out[0].congress == "UNKNOWN"
        assert report.values_filled == {"district": 1}
        assert report.unknown_hierarchy_values == 1

    def test_policy_checked_before_any_record(self):
        with pytest.raises(BadPolicy):
            run_pipeline([rec()], codebooks={}, hierarchy=make_hierarchy(),
                         policy=CleaningPolicy(fill_constants={"zodiac": "X"}))

    def test_dropped_fields_reported(self):
        h = make_hierarchy()
        _, report = run_pipeline([rec()], codebooks={}, policy=POLICY,
                                 hierarchy=h)
        assert "name" in report.fields_dropped
        assert "national_id" not in report.fields_dropped


# Values that exercise every rule before dedup: codebook variants in case and
# padding, whitespace-only and empty values, unmatched codes, blank and padded
# national ids, and districts the hierarchy does not know.
PIPELINE_BOOKS = {"sex": {"M": "male", "F": "female"},
                  "education_level": {"e1": "edu1", "E2": "edu2"},
                  "city": {"city a": "CityA"}}
staged_records = st.lists(st.builds(
    CanonicalApplicant,
    national_id=st.sampled_from(["N1", "N2", "N3", " N1", "", "  "]),
    name=st.sampled_from(["SOMEONE", "", " "]),
    sex=st.sampled_from(["male", "MALE", " m ", "f", "", "  ", "yes"]),
    district=st.sampled_from(["DA11", "DA12", "DB21", "DX99", "", "  "]),
    congress=st.sampled_from(["", "CGA1"]),
    city=st.sampled_from(["CityA", "City A ", "CityB"]),
    specialty=st.sampled_from(["SP1", ""]),
    sector=st.sampled_from(["", "S1"]),
    education_level=st.sampled_from(["edu1", " E1", "e2", "\t", "", "edu9"]),
    service_status=st.sampled_from(["svc1", " "]),
    year=st.sampled_from([2001, 2002]),
    quarter=st.sampled_from(["Q1", "Q3", "Q9"]),
    source_id=st.sampled_from(["a", "b"]),
), max_size=25)


def stepwise(records, policy, hierarchy):
    """The five public steps one after another, each handed a one-shot iterator
    of its input and checked to return records, and their counters in one report."""
    def step(run, rows, *args, **kwargs):
        out = run(iter(rows), *args, **kwargs)
        rows = out[0] if isinstance(out, tuple) else out
        assert all(type(r) is CanonicalApplicant for r in rows), run.__name__
        return out

    normalized, norm = step(normalize_codes, records, PIPELINE_BOOKS)
    filled, fill = step(fill_missing, normalized, policy)
    deduped, dedup = step(deduplicate, filled, policy)
    district_fill = policy.fill_constants.get("district") or DEFAULT_FILL
    lifted, gen = step(generalize, deduped, hierarchy, "district", "congress", fill=district_fill)
    return step(dimension_reduce, lifted, WAREHOUSE_REQUIRED_FIELDS), PreprocessReport(
        duplicates_removed=dedup.duplicates_removed, rejected=dedup.rejected,
        values_filled=fill.values_filled, values_normalized=norm.values_normalized,
        values_unmatched=norm.values_unmatched,
        records_generalized=gen.records_generalized,
        unknown_hierarchy_values=gen.unknown_hierarchy_values,
        fields_dropped=[f for f in ALL_FIELDS if f not in WAREHOUSE_REQUIRED_FIELDS])


@pytest.mark.parametrize("keep_rule", ["latest_application", "first_seen"])
@settings(max_examples=60, deadline=None)
@given(records=staged_records, district_fill=st.sampled_from(["UNKNOWN", "N/A"]))
@example(records=[rec(sex="  ")], district_fill="UNKNOWN")   # unmatched, then filled
def test_run_pipeline_equals_the_steps(keep_rule, records, district_fill):
    fills = dict(CleaningPolicy().fill_constants, district=district_fill)
    policy = CleaningPolicy(fill_constants=fills, keep_rule=keep_rule)
    hierarchy = make_hierarchy()
    out, report = run_pipeline(records, codebooks=PIPELINE_BOOKS, policy=policy,
                               hierarchy=hierarchy)
    want, want_report = stepwise(records, policy, hierarchy)
    assert out == want
    assert [type(r) for r in out] == [CanonicalApplicant] * len(want)
    for f in fields(PreprocessReport):
        assert getattr(report, f.name) == getattr(want_report, f.name), f.name
    if records == [rec(sex="  ")]:
        assert (report.values_unmatched, report.values_filled) == (1, {"sex": 1})


def counters(report):
    return (report.duplicates_removed, report.values_filled, report.values_normalized,
            report.values_unmatched, report.records_generalized,
            report.unknown_hierarchy_values, report.rejected)


@pytest.mark.parametrize("keep_rule", ["latest_application", "first_seen"])
@settings(max_examples=100, deadline=None)
@given(records=staged_records, district_fill=st.sampled_from(["UNKNOWN", "N/A"]))
def test_column_etl_is_the_record_at_a_time_etl(keep_rule, records, district_fill):
    """The column ETL `jobcube etl` runs, each rule once per distinct value and
    ranks compared only within a repeated key, gives the clean records and
    counters of the ETL one record at a time, and of the five public steps."""
    fills = dict(CleaningPolicy().fill_constants, district=district_fill)
    policy = CleaningPolicy(fill_constants=fills, keep_rule=keep_rule)
    hierarchy = make_hierarchy()
    columns = [list(column) for column in zip(*records)] or [[] for _ in ALL_FIELDS]
    clean, report = run_columns(columns, codebooks=PIPELINE_BOOKS, policy=policy,
                                hierarchy=hierarchy)
    clean = [CanonicalApplicant._make(row) for row in zip(*clean)]
    want, want_counters = oracle_etl(records, PIPELINE_BOOKS, policy, hierarchy, district_fill)
    assert (clean, counters(report)) == (want, want_counters)
    steps, steps_report = stepwise(records, policy, hierarchy)
    assert (steps, counters(steps_report)) == (want, want_counters)

"""Synthetic source generator: the block stream, the column-built tables and
the whole generator against the one-draw-at-a-time oracle, determinism,
planted-corruption accounting, format writers, byte-size targeting."""

import gc
import hashlib
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jobcube import datagen
from jobcube.config import load_hierarchy, load_sources
from jobcube.datagen import (
    CITY_ORDER,
    FieldDescriptor,
    GenConfig,
    Rng,
    generate,
    read_gen_manifest,
)
from jobcube.errors import ConfigError, FieldOverflow, InvalidFieldValue, UnsatisfiableSize
from jobcube.records import ALL_FIELDS, bulk
from jobcube.sources import render_dbf, render_fixed_width
from jobcube.warehouse import build_schema, check_integrity

import oracle
from conftest import SMALL_COUNTS, run_etl
from oracle import (MASK64, ScalarRng, columns_of, oracle_copies, oracle_generate, oracle_persons,
                    oracle_planting)

MULTIPLIER = 0x2545F4914F6CDD1D


class SmallRng(Rng):
    """The block stream with blocks of 32 draws in 4 lanes, so that short
    runs cross many lane and block edges."""

    LANES, STEPS = 4, 8


def unstep(x: int) -> int:
    """The xorshift step run backwards, each shift-xor undone in turn: x ^= x >> s
    is undone by x ^= x >> s, then >> 2s, >> 4s, .. while the shift is below 64."""
    for shift in (27, 54):
        x ^= x >> shift
    for shift in (25, 50):
        x ^= (x << shift) & MASK64
    for shift in (12, 24, 48):
        x ^= x >> shift
    return x


def state_before_max(draws: int) -> int:
    """A state whose draws-th next output is 2**64 - 1: the state that output
    is made from (the multiply is odd, so it inverts mod 2**64), stepped back
    draws times."""
    x = (MASK64 * pow(MULTIPLIER, -1, 1 << 64)) & MASK64
    for _ in range(draws):
        x = unstep(x)
    return x


class TestRng:
    def test_unstep_inverts_the_step(self):
        for seed in range(20):
            rng = ScalarRng(seed)
            before = rng.state
            rng.next_u64()
            assert unstep(rng.state) == before

    def test_pinned_recurrence(self):
        # hand-evaluated xorshift64* step from the seeded splitmix64 state:
        # x ^= x>>12; x ^= (x<<25) mask 64; x ^= x>>27; out = x * 0x2545F4914F6CDD1D
        mask = (1 << 64) - 1
        state = Rng(1).state
        x = state
        x ^= x >> 12
        x ^= (x << 25) & mask
        x ^= x >> 27
        want = (x * 0x2545F4914F6CDD1D) & mask
        rng = Rng(1)
        assert rng.block(1).tolist() == [want]
        assert rng.state == state           # drawn, not yet served
        rng.skip(1)
        assert rng.state == x

    def test_stream_is_stable_for_a_seed(self):
        assert Rng(1).block(10).tolist() == Rng(1).block(10).tolist()

    def test_seeds_disagree(self):
        assert Rng(1).block(4).tolist() != Rng(2).block(4).tolist()

    def test_skip_serves_only_drawn_draws(self):
        rng = Rng(1)
        with pytest.raises(ValueError):
            rng.skip(1)                     # nothing drawn yet
        rng.block(3)                        # draws one fill of LANES * STEPS
        rng.skip(3)
        with pytest.raises(ValueError):
            rng.skip(Rng.LANES * Rng.STEPS)
        ref = ScalarRng(1)
        for _ in range(3):
            ref.next_u64()
        assert rng.state == ref.state

    def test_randrange_bounds(self):
        values = Rng(9).randranges(np.full(500, 7, np.uint64))
        assert values.dtype == np.uint64 and set(values.tolist()) == set(range(7))

    @pytest.mark.parametrize("bounds", [[0], [3, 0, 5]])
    def test_randranges_refuses_a_bound_below_1(self, bounds):
        rng = Rng(9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # not a divide-by-zero warning
            with pytest.raises(ValueError, match="bound >= 1"):
                rng.randranges(np.array(bounds, np.uint64))
        assert rng.state == Rng(9).state        # and no draw served

    def test_sample_distinct(self):
        rng = Rng(4)
        picked = rng.sample(100, 30)
        assert len(picked) == 30
        assert len(set(picked)) == 30

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           pieces=st.lists(st.tuples(st.sampled_from(("block", "skip", "randranges", "shuffle",
                                                      "sample", "state")),
                                     st.integers(1, 80)), max_size=12),
           small=st.booleans())
    @example(seed=1, pieces=[("block", 31), ("skip", 31), ("randranges", 1), ("block", 33),
                             ("skip", 20), ("block", 64), ("skip", 64)], small=True)
    @example(seed=7, pieces=[("block", 70_000), ("skip", 69_999), ("randranges", 3),
                             ("shuffle", 5)], small=False)
    def test_block_stream_is_the_scalar_stream(self, seed, pieces, small):
        """Any mix of Rng's calls serves the draws the scalar stream makes one
        at a time. randranges's bounds mix 2**63 + 1, which rejects about half
        of all draws, with small ones."""
        rng, ref = (SmallRng if small else Rng)(seed), ScalarRng(seed)
        drawn = 0           # draws the last block call showed, not yet served
        for kind, n in pieces:
            if kind == "block":
                peek = ScalarRng(0)
                peek.state = ref.state
                assert rng.block(n).tolist() == [peek.next_u64() for _ in range(n)]
                drawn = n
                continue
            if kind == "skip":
                rng.skip(min(n, drawn))
                for _ in range(min(n, drawn)):
                    ref.next_u64()
                drawn -= min(n, drawn)
                continue
            if kind == "randranges":
                bounds = [2 ** 63 + 1 if i % 3 == 0 else i + 1 for i in range(n)]
                assert rng.randranges(np.array(bounds, np.uint64)).tolist() == \
                       [ref.randrange(b) for b in bounds]
            elif kind == "shuffle":
                items, want = list(range(n)), list(range(n))
                rng.shuffle(items)
                ref.shuffle(want)
                assert items == want
            elif kind == "sample":
                assert rng.sample(n, n // 2) == ref.sample(n, n // 2)
            else:           # restart both streams from a state one of them reached
                rng.state = ref.state = ref.state ^ n
            drawn = 0
            assert rng.state == ref.state
        assert rng.state == ref.state

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(0, 90), k=st.integers(0, 90))
    def test_shuffle_and_sample_match_the_scalar_stream(self, seed, n, k):
        rng, ref = SmallRng(seed), ScalarRng(seed)
        items, want = list(range(n)), list(range(n))
        rng.shuffle(items)
        ref.shuffle(want)
        assert items == want
        assert rng.sample(n, min(k, n)) == ref.sample(n, min(k, n))
        assert rng.state == ref.state

    def test_randrange_passes_over_a_rejected_draw(self):
        # 2**64 - 1 is not below 2**64 - 2**64 % 3, so a draw below 3 takes the next draw
        rng, ref = Rng(0), ScalarRng(0)
        rng.state = ref.state = state_before_max(1)
        assert rng.block(1).tolist() == [MASK64]
        assert rng.randranges(np.array([3], np.uint64)).tolist() == [ref.randrange(3)]
        two = ScalarRng(0)
        two.state = state_before_max(1)
        two.next_u64()
        two.next_u64()
        assert rng.state == ref.state == two.state     # the rejected draw and the next

    @pytest.mark.parametrize("rng_class", [Rng, SmallRng])
    def test_randrange_rejects_about_half_of_a_bound_just_past_2_63(self, rng_class):
        n, draws = 2 ** 63 + 1, 2000
        rng, ref, counter = rng_class(5), ScalarRng(5), ScalarRng(5)
        assert rng.randranges(np.full(draws, n, np.uint64)).tolist() == \
               [ref.randrange(n) for _ in range(draws)]
        assert rng.state == ref.state
        taken = 0
        while counter.state != ref.state:
            counter.next_u64()
            taken += 1
        rejected = taken - draws
        assert 0.4 < rejected / taken < 0.6, (rejected, taken)

    def test_randrange_refuses_a_bound_past_2_64(self):
        # a bound that is no uint64 is refused, not wrapped
        for n in (2 ** 64, 2 ** 64 + 1):
            with pytest.raises(OverflowError):
                Rng(1).randranges([n])


def _gen_config(seed, sectors, congresses, year_from, span):
    return GenConfig(seed=seed, sectors=sectors, congresses_per_city=congresses,
                     year_from=year_from, year_to=year_from + span - 1)


class TestColumnRecords:
    """The persons and copies built by column from the block stream are the
    columns of the ones the one-draw-at-a-time oracle makes, and leave the
    stream where it leaves it."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), sectors=st.integers(1, 60),
           congresses=st.integers(1, 20), span=st.integers(1, 40),
           counts=st.tuples(*[st.integers(1, 40)] * 3), chunk=st.sampled_from((1, 3, 8192)),
           copies=st.integers(0, 30), year_from=st.sampled_from((2000, -7, 10 ** 20)))
    @example(seed=31, sectors=12, congresses=4, span=1, counts=(5, 5, 5), chunk=3, copies=8,
             year_from=2000)
    @example(seed=47, sectors=48, congresses=12, span=16, counts=(20, 9, 4), chunk=8192,
             copies=20, year_from=2000)
    @example(seed=2, sectors=1, congresses=1, span=7, counts=(1, 1, 1), chunk=1, copies=3,
             year_from=2000)
    def test_match_the_scalar_oracle(self, seed, sectors, congresses, span, counts, chunk,
                                     copies, year_from):
        config = _gen_config(seed, sectors, congresses, year_from, span)
        counts = dict(zip(CITY_ORDER, counts))
        rng, ref = SmallRng(seed), ScalarRng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datagen, "CHUNK", chunk)
            persons = datagen._make_persons(rng, config, counts)
            records = oracle_persons(ref, config, counts)
            assert persons == columns_of(records)
            assert rng.state == ref.state
            donors, made = datagen._make_copies(rng, config, persons, range(len(records)), copies)
        pairs = oracle_copies(ref, config, records, copies)
        assert [records[row] for row in donors] == [donor for donor, _ in pairs]
        assert made == columns_of([copy for _, copy in pairs])
        assert rng.state == ref.state

    @pytest.mark.parametrize("chunk", [1, 2, 8192])
    @pytest.mark.parametrize("draws", range(1, 40))
    def test_a_rejected_draw_anywhere_in_the_first_persons(self, chunk, draws):
        # the draws-th draw is 2**64 - 1, which every bound here but the powers
        # of two rejects: the congress draw of the first person, one of the
        # draws after it, or a draw of the second or third person
        config = _gen_config(0, 12, 3, 2000, 7)
        counts = {"tripoli": 4, "misurata": 1, "sirte": 1}
        rng, ref = Rng(0), ScalarRng(0)
        rng.state = ref.state = state_before_max(draws)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datagen, "CHUNK", chunk)
            persons = datagen._make_persons(rng, config, counts)
        assert persons == columns_of(oracle_persons(ref, config, counts))
        assert rng.state == ref.state

    @pytest.mark.parametrize("draws", range(1, 12))
    def test_a_rejected_draw_in_a_copy(self, draws):
        config = _gen_config(0, 12, 3, 2000, 7)
        donors = oracle_persons(ScalarRng(3), config, {"tripoli": 5, "misurata": 3, "sirte": 3})
        rng, ref = Rng(0), ScalarRng(0)
        rng.state = ref.state = state_before_max(draws)
        rows, made = datagen._make_copies(rng, config, columns_of(donors), range(len(donors)), 2)
        pairs = oracle_copies(ref, config, donors, 2)
        assert [donors[row] for row in rows] == [donor for donor, _ in pairs]
        assert made == columns_of([copy for _, copy in pairs])
        assert rng.state == ref.state

    @pytest.mark.parametrize("chunk", [1, 8192])
    @pytest.mark.parametrize("draws", [1, 13])
    def test_a_draw_only_other_columns_reject_takes_the_column_path(self, chunk, draws,
                                                                    monkeypatch):
        # with 4 congresses the first draw of a person, its congress draw, is one
        # that bound 4 accepts and bound 3 rejects when it is 2**64 - 1: the first
        # person's (draws=1), or the second's when the first is directed (draws=13)
        config = _gen_config(0, 12, 4, 2000, 7)
        counts = {"tripoli": 3, "misurata": 1, "sirte": 1}
        rng, ref = Rng(0), ScalarRng(0)
        rng.state = ref.state = state_before_max(draws)
        calls, randranges = [], Rng.randranges

        def counted(self, bounds):
            calls.append(len(bounds))
            return randranges(self, bounds)

        monkeypatch.setattr(Rng, "randranges", counted)
        monkeypatch.setattr(datagen, "CHUNK", chunk)
        persons = datagen._make_persons(rng, config, counts)
        assert persons == columns_of(oracle_persons(ref, config, counts))
        assert rng.state == ref.state
        # one person drawn column by column: congress and district, then the
        # eight draws after the directed draw (it is a seeker: no sector draw)
        assert calls == [2, 8]
        congresses = persons[ALL_FIELDS.index("congress")]
        assert congresses[(draws - 1) // 12] == "TRI-CG04"     # 2**64 - 1 taken, mod 4


class TestPlanting:
    def test_every_variant_pool_of_a_source_has_one_length(self):
        for source, pools in datagen.VARIANT_POOLS.items():
            lengths = {len(pool) for field_pools in pools.values()
                       for pool in field_pools.values()}
            assert len(lengths) == 1, (source, lengths)
            assert set(pools) == set(datagen.DISCREPANCY_FIELDS)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), counts=st.tuples(*[st.integers(1, 30)] * 3),
           blank_rate=st.floats(0, 1), discrepancy_rate=st.floats(0, 1),
           small=st.booleans(), fields=st.permutations(datagen.DISCREPANCY_FIELDS))
    @example(seed=3, counts=(30, 30, 30), blank_rate=1.0, discrepancy_rate=1.0, small=True,
             fields=("sex", "education_level", "service_status"))
    def test_matches_the_row_at_a_time_oracle(self, seed, counts, blank_rate,
                                              discrepancy_rate, small, fields):
        """The wire columns hold the oracle's overlays laid over its records.
        Also with the discrepancy fields in another order, so that the one a
        blank can take (sex) is not always the last of them."""
        config = GenConfig(seed=seed, blank_rate=blank_rate, discrepancy_rate=discrepancy_rate)
        flat = oracle_persons(ScalarRng(seed), config, dict(zip(CITY_ORDER, counts)))
        wire = columns_of(flat)
        rng, ref = (SmallRng if small else Rng)(seed), ScalarRng(seed)
        with pytest.MonkeyPatch.context() as mp:
            for module in (datagen, oracle):
                mp.setattr(module, "DISCREPANCY_FIELDS", tuple(fields))
            planted = datagen._plant(rng, config, wire)
            blanks, discrepancies, overlays = oracle_planting(ref, config, flat)
        assert planted == (blanks, discrepancies)
        assert wire == columns_of([record._replace(**overlays.get(row, {}))
                                   for row, record in enumerate(flat)])
        assert rng.state == ref.state


class TestOracleGenerate:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), counts=st.tuples(*[st.integers(1, 40)] * 3),
           rates=st.tuples(*[st.sampled_from((0.0, 1.0)) | st.floats(0, 1)] * 3),
           wide=st.booleans())
    @example(seed=31, counts=(40, 40, 40), rates=(1.0, 1.0, 1.0), wide=True)
    @example(seed=5, counts=(1, 1, 1), rates=(0.0, 0.0, 0.0), wide=False)
    def test_matches_the_record_at_a_time_oracle(self, seed, counts, rates, wide):
        """Every file's bytes, and the planted duplicates, blanks,
        discrepancies and expectations, are the ones the oracle makes one
        record at a time."""
        shape = {"sectors": 48, "congresses_per_city": 12} if wide else {}
        config = GenConfig(seed=seed, counts=dict(zip(CITY_ORDER, counts)),
                           duplicate_rate=rates[0], blank_rate=rates[1],
                           discrepancy_rate=rates[2], **shape)
        with tempfile.TemporaryDirectory() as tmp:
            got = generate(config, Path(tmp) / "gen")
            want = oracle_generate(config, Path(tmp) / "oracle")
            assert sorted(got.files) == sorted(want.files)
            for name, path in got.files.items():
                assert path.read_bytes() == want.files[name].read_bytes(), name
        assert (got.duplicates, got.blanks, got.discrepancies, got.expect) == \
            (want.duplicates, want.blanks, want.discrepancies, want.expect)


class TestCollector:
    def test_generate_pauses_the_collector_and_restores_it(self, tmp_path, monkeypatch):
        seen = []
        make = datagen._make_persons
        monkeypatch.setattr(datagen, "_make_persons",
                            lambda *args: seen.append(gc.isenabled()) or make(*args))
        assert gc.isenabled()
        generate(GenConfig(seed=1, counts={"tripoli": 5, "misurata": 5, "sirte": 5}), tmp_path)
        assert seen == [False]
        assert gc.isenabled()

    def test_bulk_restores_the_state_it_found_on_an_exception(self):
        with pytest.raises(RuntimeError), bulk():
            assert not gc.isenabled()
            raise RuntimeError("stop")
        assert gc.isenabled()
        gc.disable()
        try:
            with bulk():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()


PINNED_COUNTS = {"tripoli": 300, "misurata": 200, "sirte": 120}
PINNED_CONFIGS = {
    "counts": GenConfig(seed=31, counts=PINNED_COUNTS),
    "target_bytes": GenConfig(seed=19, target_bytes={
        "tripoli": 60_000, "misurata": 40_000, "sirte": 20_000}),
    "wide": GenConfig(seed=47, counts=PINNED_COUNTS, sectors=48,
                      congresses_per_city=12),
}
_SHARED_SHA256 = {
    "codebooks.yaml": "6856a801661f7090b7ea6e06e58ae7d9596c54d6758b96035b58949af153d8e0",
    "sources.yaml": "83f421dc5db286d00883d1137125d55c07ecbfab00e8a4b1a8d2682ae915f1ca",
}
_DEFAULT_HIERARCHY_SHA256 = "60c4c7a2ffec5e6440f8558b4c6916bed03eef6857751c6a1d14d8de1a205b96"
# sha256 of every file generate() writes, recorded before the wire encoder
# was derived from the source specs; the generator's bytes must not move.
PINNED_SHA256 = {
    "counts": {
        **_SHARED_SHA256,
        "hierarchy.yaml": _DEFAULT_HIERARCHY_SHA256,
        "gen_manifest.txt": "625a99acfb300f05676d597d004329876b4013cadada6eb30b349a0336eacdff",
        "misurata.csv": "59bdf86336a9337e29983d8e22e39306a6143b146dae891f9bf5e46dccb24f9c",
        "sirte.dbf": "9d1018c2cb0696d5da71d8cc6c4d51dc1c1faed2783a36e29665414f8e0d5676",
        "tripoli.dat": "12af1ecc627cf8da7ee939612a45c469f60d2135cfaf4186ad76ad7dd76a5b4e",
        "truth.csv": "95b80a1aba8094830f302b97332eb0960523cf8668df38ed9ac1fa3b1197ab0b",
    },
    "target_bytes": {
        **_SHARED_SHA256,
        "hierarchy.yaml": _DEFAULT_HIERARCHY_SHA256,
        "gen_manifest.txt": "f77f69eb3edbfa9afe4728ad4bf6ed8b927370fccfbe4dc0e02afe430527848f",
        "misurata.csv": "549fb08b6d04ad5dfbb2aa63534a52897214b2869e36d35b1947845d84252432",
        "sirte.dbf": "8b4c79ee3ac3cd7c4845badceb0c4f70224ee8a45a21521d27facfeeb199e00d",
        "tripoli.dat": "4d15acc567d98d844e4fb63aee1723cd08464ae671c23221e2d600542512af29",
        "truth.csv": "7e1d2749bf1b835161f4f7944e547affd81e9411fe6d115b6add303b294009b2",
    },
    "wide": {
        **_SHARED_SHA256,
        "hierarchy.yaml": "cf5d50a6d008018330fd8635bc00f24d6633aa7b5abf9cd95d17ba6ae1c77e91",
        "gen_manifest.txt": "daab06867bb73392bc5399fce16bf1926c0207582543f160ac6f82de6e4e34c5",
        "misurata.csv": "33d5ef262a41a1894c5cb4993017d0db76ac1cf612bf3eff6d133b469a0d11d7",
        "sirte.dbf": "2c37c432f5898c9be9f50af87f8dbcfe1984d888dfbf104c6acfe5b93aa710f0",
        "tripoli.dat": "a3ee9bbe60bead0b3a83e7be53c3a43f68e65ab91bdb1858643e0489a2bad3d2",
        "truth.csv": "d7277427fc24060d0a91474fbb4cf9387263c825033354c8d24d1ebcde5ca758",
    },
}


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        config = GenConfig(seed=777, counts={"tripoli": 80, "misurata": 60,
                                             "sirte": 40})
        a = generate(config, tmp_path / "a")
        b = generate(config, tmp_path / "b")
        for name, path in a.files.items():
            assert path.read_bytes() == b.files[name].read_bytes(), name

    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_pinned_bytes(self, tmp_path, name):
        generate(PINNED_CONFIGS[name], tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        assert digests == PINNED_SHA256[name]

    def test_different_seed_different_bytes(self, tmp_path):
        counts = {"tripoli": 80, "misurata": 60, "sirte": 40}
        a = generate(GenConfig(seed=1, counts=counts), tmp_path / "a")
        b = generate(GenConfig(seed=2, counts=counts), tmp_path / "b")
        assert a.files["tripoli"].read_bytes() != b.files["tripoli"].read_bytes()


class TestPlantedTruth:
    def test_counters_match_pipeline_exactly(self, gen_small, etl_small):
        expect = gen_small.expect
        _, cleaned, _, report = etl_small
        assert report.duplicates_removed == expect.duplicates
        assert report.values_filled == expect.filled
        assert report.values_normalized == expect.normalized
        assert report.values_unmatched == 0
        assert report.unknown_hierarchy_values == expect.unknown_hierarchy
        assert report.records_generalized == expect.generalized
        assert report.rejected == []
        assert len(cleaned) == expect.persons

    def test_pipeline_reconstructs_truth(self, gen_small, etl_small):
        assert etl_small[1] == gen_small.truth

    def test_source_catalog_reads_back_as_gen_holds_it(self, gen_small):
        """sources.yaml is the catalog document, and ingest's loader reads it as
        CITY_SPECS, which is that document read by the same function."""
        assert yaml.safe_load(gen_small.files["sources"].read_text(encoding="utf-8")) == \
            datagen.SOURCE_CATALOG
        assert load_sources(gen_small.files["sources"]) == list(datagen.CITY_SPECS)

    def test_manifest_readback(self, gen_small):
        manifest = read_gen_manifest(gen_small.files["gen_manifest"])
        expect = gen_small.expect
        assert manifest["persons"] == expect.persons
        assert manifest["duplicates_planted"] == expect.duplicates
        assert manifest["expected_duplicates_removed"] == expect.duplicates
        assert manifest["expected_filled"] == expect.filled
        assert manifest["expected_normalized"] == expect.normalized
        assert manifest["expected_unknown_hierarchy"] == expect.unknown_hierarchy
        assert manifest["expected_generalized"] == expect.generalized
        assert manifest["expected_unmatched"] == 0
        assert manifest["bytes"] == {
            c: gen_small.files[c].stat().st_size for c in CITY_ORDER}

    @pytest.mark.parametrize("line, key", [
        ("persons=\u0661\u0662", "persons"),
        ("expected_filled.sex=+3", "expected_filled.sex"),
        ("bytes.tripoli=1_000", "bytes.tripoli"),
    ])
    def test_manifest_counts_are_read_by_parse_int(self, tmp_path, line, key):
        """int() reads each of these counts; the manifest reader refuses it,
        naming the file and the key."""
        path = tmp_path / "gen_manifest.txt"
        lines = ["seed=7", "persons=12", "expected_filled.sex=3", "bytes.tripoli=1000",
                 "[duplicates]", "NID000000001 donor=tripoli copy=sirte copy_time=2000Q1"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_gen_manifest(path) == {"seed": 7, "persons": 12, "expected_filled": {"sex": 3},
                                           "expected_normalized": {}, "bytes": {"tripoli": 1000}}
        lines[[entry.partition("=")[0] for entry in lines].index(key)] = line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InvalidFieldValue) as info:
            read_gen_manifest(path)
        assert str(info.value) == f"{path}: {key}: not an integer: {line.partition('=')[2]!r}"

    def test_rates_compute_from_wire_rows(self, gen_small):
        config = GenConfig(seed=4242, counts=SMALL_COUNTS)
        expect = gen_small.expect
        assert expect.duplicates == int(config.duplicate_rate * expect.persons)
        assert expect.wire_rows == expect.persons + expect.duplicates
        assert sum(expect.filled.values()) == int(
            config.blank_rate * expect.wire_rows)
        assert sum(expect.normalized.values()) == int(
            config.discrepancy_rate * expect.wire_rows)

    def test_education_levels_survive_blanking(self, etl_small):
        # blanks are never planted on the education column, so the clean set
        # always exercises all six levels
        _, cleaned, _, _ = etl_small
        assert len({r.education_level for r in cleaned}) == 6

    def test_zero_rates_mean_identity_pipeline(self, tmp_path):
        config = GenConfig(seed=5, counts={"tripoli": 60, "misurata": 40,
                                           "sirte": 30},
                           duplicate_rate=0.0, blank_rate=0.0,
                           discrepancy_rate=0.0)
        result = generate(config, tmp_path)
        staged, cleaned, ingest_report, report = run_etl(result)
        assert len(staged) == 130
        assert cleaned == result.truth
        assert report.duplicates_removed == 0
        assert report.values_filled == {}
        assert report.values_normalized == {}
        schema = build_schema(cleaned, (config.year_from, config.year_to),
                              load_hierarchy(tmp_path / "hierarchy.yaml"))
        assert check_integrity(schema) == []
        assert sum(schema.facts[:, 6].tolist()) == 130


class TestYearWidths:
    def test_years_a_layout_cannot_hold_are_refused_before_anything_is_written(self, tmp_path):
        config = GenConfig(seed=1, counts=SMALL_COUNTS, year_from=9998, year_to=10001)
        with pytest.raises(ConfigError) as info:
            generate(config, tmp_path / "out")
        assert str(info.value) == "tripoli: year 10001 does not fit APP_YEAR, which is 4 bytes wide"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape, message", [
        ({"sectors": 10000},
         "tripoli: sector SEC-10000 does not fit SECTOR, which is 8 bytes wide"),
        ({"congresses_per_city": 10000},
         "tripoli: district TRI-CG10000-D03 does not fit DISTRICT, which is 14 bytes wide"),
    ])
    def test_codes_a_layout_cannot_hold_are_refused_before_anything_is_written(
            self, tmp_path, shape, message):
        with pytest.raises(ConfigError) as info:
            generate(GenConfig(seed=1, counts=SMALL_COUNTS, **shape), tmp_path / "out")
        assert str(info.value) == message
        assert not (tmp_path / "out").exists()

    def test_the_widest_codes_that_fit_pass_the_check(self):
        """SEC-9999 fills SECTOR's 8 bytes, TRI-CG9999-D03 DISTRICT's 14."""
        datagen._check_widths(GenConfig(sectors=9999, congresses_per_city=9999))

    def test_the_dbase_year_column_is_checked_too(self, tmp_path, monkeypatch):
        narrow = tuple(fd if fd.name != "YEAR" else FieldDescriptor("YEAR", "N", 3, fd.offset)
                       for fd in datagen.SIRTE_LAYOUT)
        monkeypatch.setattr(datagen, "SIRTE_LAYOUT", narrow)
        with pytest.raises(ConfigError, match="^sirte: year 2000 does not fit YEAR, which is "
                                              "3 bytes wide$"):
            generate(GenConfig(seed=1, counts=SMALL_COUNTS), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_negative_years_that_fit_generate_and_reconstruct(self, tmp_path):
        counts = {"tripoli": 40, "misurata": 30, "sirte": 20}
        result = generate(GenConfig(seed=3, counts=counts, year_from=-3, year_to=2), tmp_path)
        assert {r.year for r in result.truth} <= set(range(-3, 3))
        assert run_etl(result)[1] == result.truth


class TestWriters:
    def test_fixed_width_overflow(self):
        layout = (FieldDescriptor("A", "C", 3, 0),)
        with pytest.raises(FieldOverflow):
            render_fixed_width([("WIDE",)], layout)

    def test_dbf_overflow(self):
        layout = (FieldDescriptor("A", "C", 3),)
        with pytest.raises(FieldOverflow):
            render_dbf([("WIDE",)], layout)

    def test_dbf_rejects_long_field_names(self):
        with pytest.raises(ConfigError):
            render_dbf([], (FieldDescriptor("WAYTOOLONGNAME", "C", 3),))

    def test_numeric_fields_right_justified(self):
        layout = (FieldDescriptor("N", "N", 5, 0),)
        assert render_fixed_width([("42",)], layout) == b"   42\n"


class TestSizing:
    def test_target_bytes_within_five_percent(self, tmp_path):
        targets = {"tripoli": 300_000, "misurata": 180_000, "sirte": 90_000}
        config = GenConfig(seed=11, target_bytes=targets)
        result = generate(config, tmp_path)
        for city, target in targets.items():
            size = result.files[city].stat().st_size
            assert abs(size - target) / target <= 0.05, (city, size, target)

    def test_unsatisfiable_target(self, tmp_path):
        with pytest.raises(UnsatisfiableSize):
            generate(GenConfig(seed=1, target_bytes={
                "tripoli": 50, "misurata": 180_000, "sirte": 90_000}), tmp_path)

    def test_counts_and_targets_exclusive(self):
        with pytest.raises(ConfigError):
            GenConfig(counts={"tripoli": 1, "misurata": 1, "sirte": 1},
                      target_bytes={"tripoli": 10 ** 6, "misurata": 10 ** 6,
                                    "sirte": 10 ** 6})

    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            GenConfig(duplicate_rate=1.5)
        with pytest.raises(ConfigError):
            GenConfig(year_from=2006, year_to=2000)

import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    dedupe_oracle,
    iter_records,
    largest_remainder_oracle,
    mean_std_oracle,
    permutations_oracle,
    record,
    stratified_split_oracle,
)
from chids.errors import DataError, InfeasibleSplit, SchemaMismatch, UnknownFeatureName
from chids.kdd import AttackClass, Dataset, FeatureSchema, load_dataset
from chids.pcg64 import Permuter
from chids.preprocess import (
    NormalizationStats,
    SplitSpec,
    apply_normalizer,
    dedupe,
    fit_normalizer,
    prune_features,
    select_features,
    stratified_split,
)
from chids.sections import DEFAULT_PRUNE
import synthdata
from test_kdd import make_line


def mini_dataset(lines) -> Dataset:
    from chids.kdd import parse_record

    schema = FeatureSchema.default()
    return Dataset.from_records([parse_record(ln, schema) for ln in lines], schema)


def random_records(rng, n, n_labels=3):
    """Small random corpus with plenty of collisions for dedupe exercises."""
    labels = ["normal", "smurf", "satan"][:n_labels]
    lines = []
    for _ in range(n):
        lines.append(
            make_line(
                service=rng.choice(["http", "smtp"]),
                src_bytes=str(rng.randrange(3)),
                label=rng.choice(labels) + ".",
            )
        )
    return lines


class TestDedupe:
    def test_first_occurrence_kept(self):
        a, b = make_line(src_bytes="1"), make_line(src_bytes="2")
        ds = mini_dataset([a, b, a, a, b])
        res = dedupe(ds)
        assert res.n_input == 5 and res.n_output == 2
        assert [r.values[4] for r in iter_records(res.dataset)] == [1.0, 2.0]

    def test_no_duplicates_identity(self):
        ds = mini_dataset([make_line(src_bytes=str(i)) for i in range(4)])
        res = dedupe(ds)
        assert res.n_output == 4
        assert res.reduction_rate == 0.0
        assert res.dataset is ds  # nothing to drop: no copy

    def test_same_features_different_label_kept(self):
        a = make_line(label="normal.")
        b = make_line(label="smurf.")
        ds = mini_dataset([a, b])
        assert dedupe(ds).n_output == 2

    def test_idempotent(self):
        rng = random.Random(3)
        ds = mini_dataset(random_records(rng, 60))
        once = dedupe(ds).dataset
        twice = dedupe(once).dataset
        assert len(once) == len(twice)
        assert np.array_equal(once.numeric, twice.numeric)
        assert list(once.labels) == list(twice.labels)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_set_oracle(self, seed):
        rng = random.Random(seed)
        ds = mini_dataset(random_records(rng, 80))
        res = dedupe(ds)
        expected = dedupe_oracle(list(iter_records(ds)))
        assert res.n_output == len(expected)
        assert list(iter_records(res.dataset)) == expected

    @pytest.mark.parametrize("first, second", [("0", "-0"), ("-0", "0")])
    def test_negative_zero_equals_zero(self, tmp_path, first, second):
        # two lines that differ only in 0 -> -0 in field 4 are two line
        # texts but one row by value; the first occurrence is kept
        p = tmp_path / "zeros.kdd"
        p.write_text(make_line(src_bytes=first) + "\n" + make_line(src_bytes=second) + "\n")
        ds = load_dataset(p)
        assert len(ds) == 2
        res = dedupe(ds)
        assert res.n_output == len(dedupe_oracle(list(iter_records(ds)))) == 1
        kept = res.dataset.column("src_bytes")[0]
        assert math.copysign(1.0, kept) == math.copysign(1.0, float(first))

    def test_temporary_memory_below_its_input(self, synth_corpus_path):
        # sorting row indices over the dataset's own columns costs a few
        # index arrays, less than one copy of the numeric matrix
        ds = load_dataset(synth_corpus_path)
        tracemalloc.start()
        try:
            res = dedupe(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_output == len(ds)  # every line text read parses to a distinct row
        assert peak < ds.numeric.nbytes

    def test_repeated_lines_cost_no_rows(self, tmp_path):
        """load_dataset + dedupe on a file where each distinct line appears
        ten times peaks within 1.5x of the same on each line once."""
        lines = list(dict.fromkeys(synthdata.synth_lines(300, seed=3, dup_rate=0.0)))
        once, tenfold = tmp_path / "once.kdd", tmp_path / "tenfold.kdd"
        once.write_text("\n".join(lines) + "\n")
        repeated = lines * 10
        random.Random(1).shuffle(repeated)
        tenfold.write_text("\n".join(repeated) + "\n")

        def peak(path):
            tracemalloc.start()
            try:
                res = dedupe(load_dataset(path))
                return res, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (res1, peak1), (res10, peak10) = peak(once), peak(tenfold)
        assert (res1.n_input, res10.n_input) == (len(lines), 10 * len(lines))
        assert res1.n_output == res10.n_output == len(lines)
        assert peak10 < 1.5 * peak1


class TestStratifiedSplit:
    def classful_dataset(self, counts: dict, seed=0) -> Dataset:
        rng = random.Random(seed)
        lines = []
        by_class = {
            AttackClass.NORMAL: "normal.",
            AttackClass.DOS: "neptune.",
            AttackClass.PROBE: "satan.",
            AttackClass.R2L: "phf.",
            AttackClass.U2R: "perl.",
        }
        k = 0
        for cls, n in counts.items():
            for _ in range(n):
                lines.append(make_line(src_bytes=str(k), label=by_class[cls]))
                k += 1
        rng.shuffle(lines)
        return mini_dataset(lines)

    def test_minority_rounding(self):
        # round-half-up(2n/3): 2130 -> 1420, 999 -> 666, 52 -> 35
        ds = self.classful_dataset(
            {
                AttackClass.NORMAL: 900,
                AttackClass.DOS: 600,
                AttackClass.PROBE: 90,
                AttackClass.R2L: 45,
                AttackClass.U2R: 10,
            }
        )
        res = stratified_split(ds, SplitSpec(train_size=700, test_size=300, seed=1))
        pc = res.manifest["per_class"]
        assert pc["probe"]["train"] == 60 and pc["probe"]["test"] == 30
        assert pc["r2l"]["train"] == 30 and pc["r2l"]["test"] == 15
        assert pc["u2r"]["train"] == 7 and pc["u2r"]["test"] == 3
        assert len(res.train) == 700 and len(res.test) == 300

    def test_disjoint_and_from_source(self):
        ds = self.classful_dataset(
            {AttackClass.NORMAL: 300, AttackClass.DOS: 200, AttackClass.PROBE: 30,
             AttackClass.R2L: 15, AttackClass.U2R: 6}
        )
        res = stratified_split(ds, SplitSpec(train_size=200, test_size=100, seed=9))
        train_rows = set(iter_records(res.train))
        test_rows = set(iter_records(res.test))
        all_rows = set(iter_records(ds))
        assert not (train_rows & test_rows)
        assert train_rows <= all_rows and test_rows <= all_rows

    def test_seed_determinism(self):
        ds = self.classful_dataset(
            {AttackClass.NORMAL: 300, AttackClass.DOS: 200, AttackClass.PROBE: 30,
             AttackClass.R2L: 15, AttackClass.U2R: 6}
        )
        a = stratified_split(ds, SplitSpec(train_size=200, test_size=100, seed=5))
        b = stratified_split(ds, SplitSpec(train_size=200, test_size=100, seed=5))
        assert np.array_equal(a.train.numeric, b.train.numeric)
        assert np.array_equal(a.test.numeric, b.test.numeric)
        c = stratified_split(ds, SplitSpec(train_size=200, test_size=100, seed=6))
        assert not np.array_equal(a.train.numeric, c.train.numeric)

    def test_full_train_empty_test(self):
        ds = self.classful_dataset(
            {AttackClass.NORMAL: 50, AttackClass.DOS: 30, AttackClass.PROBE: 12,
             AttackClass.R2L: 9, AttackClass.U2R: 4}
        )
        res = stratified_split(ds, SplitSpec(train_size=len(ds), test_size=0, seed=2))
        assert len(res.test) == 0
        assert Counter(iter_records(res.train)) == Counter(iter_records(ds))

    def test_proportional_allocation_matches_oracle(self):
        # two majority classes, no minority records
        ds = self.classful_dataset({AttackClass.NORMAL: 64, AttackClass.DOS: 36})
        res = stratified_split(ds, SplitSpec(train_size=50, test_size=25, seed=0))
        pc = res.manifest["per_class"]
        train_alloc = largest_remainder_oracle(50, {0: 64, 1: 36})
        test_alloc = largest_remainder_oracle(25, {0: 64, 1: 36})
        assert pc["normal"]["train"] == train_alloc[0]
        assert pc["dos"]["train"] == train_alloc[1]
        assert pc["normal"]["test"] == test_alloc[0]
        assert pc["dos"]["test"] == test_alloc[1]

    def test_infeasible_sizes(self):
        ds = self.classful_dataset({AttackClass.NORMAL: 20, AttackClass.DOS: 10})
        with pytest.raises(InfeasibleSplit):
            stratified_split(ds, SplitSpec(train_size=25, test_size=10, seed=0))

    def test_minority_exceeds_budget(self):
        ds = self.classful_dataset({AttackClass.PROBE: 90, AttackClass.NORMAL: 10})
        with pytest.raises(InfeasibleSplit):
            stratified_split(ds, SplitSpec(train_size=10, test_size=5, seed=0))


# Seeds at the SeedSequence word boundaries, and of random widths up to 256
# bits, so that entropy words past the four-word pool are mixed in too.
_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]),
                   st.integers(1, 256).flatmap(lambda bits: st.integers(0, 2**bits - 1)))


class TestSeededPermutation:
    """The split's permutations are numpy's `Generator(PCG64(seed))`
    permutations, bit for bit, without loading numpy.random."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=_SEEDS, sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=6))
    def test_chained_permutations_match_numpy(self, seed, sizes):
        # one generator for every pool: a pool's draws continue the last
        # one's stream, buffered 32-bit half included
        rng = Permuter(seed)
        for n, want in zip(sizes, permutations_oracle(seed, sizes)):
            got = rng.permutation(n)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=_SEEDS, counts=st.lists(st.integers(0, 400), min_size=5, max_size=5),
           train=st.floats(0, 1), test=st.floats(0, 1), data=st.data())
    def test_split_rows_match_numpy_split(self, seed, counts, train, test, data):
        codes = np.repeat(np.arange(5, dtype=np.int32), counts)
        codes = codes[data.draw(st.permutations(range(codes.size)))] if codes.size else codes
        n = codes.size
        schema = FeatureSchema.default()
        numeric = np.zeros((n, len(schema.numeric_names)))
        numeric[:, 0] = np.arange(n)  # each row's own index
        ds = Dataset(schema, numeric, np.zeros((n, len(schema.nominal_names)), dtype=np.int32),
                     np.array([AttackClass(c).tag for c in codes], dtype=object), codes)
        minority = SplitSpec().minority_classes
        m_train = sum((4 * counts[c] + 3) // 6 for c in minority)
        m_test = sum(counts[c] for c in minority) - m_train
        spare = n - m_train - m_test
        a = int(train * spare)
        spec = SplitSpec(train_size=m_train + a, test_size=m_test + int(test * (spare - a)), seed=seed)
        try:
            res = stratified_split(ds, spec)
        except InfeasibleSplit:  # the two rounded fills overrun a class
            assume(False)
        want_train, want_test = stratified_split_oracle(codes, seed, res.manifest["per_class"])
        assert res.train.numeric[:, 0].astype(int).tolist() == want_train
        assert res.test.numeric[:, 0].astype(int).tolist() == want_test


class TestPrune:
    def test_default_prune_to_35(self):
        ds = mini_dataset([make_line()])
        out = prune_features(ds, DEFAULT_PRUNE)
        assert len(out.schema.features) == 35
        assert "is_host_login" not in out.schema.names
        assert len(out) == len(ds)
        assert list(out.labels) == list(ds.labels)

    def test_empty_prune_identity(self):
        ds = mini_dataset([make_line()])
        out = prune_features(ds, [])
        assert out.schema.names == ds.schema.names
        assert np.array_equal(out.numeric, ds.numeric)

    def test_unknown_name(self):
        ds = mini_dataset([make_line()])
        with pytest.raises(UnknownFeatureName):
            prune_features(ds, ["no_such_feature"])

    def test_values_reindexed_consistently(self):
        ds = mini_dataset([make_line(src_bytes="777")])
        out = prune_features(ds, DEFAULT_PRUNE)
        rec = record(out, 0)
        pos = out.schema.names.index("src_bytes")
        assert rec.values[pos] == 777.0


class TestNormalizer:
    def one_feature_ds(self, values):
        lines = [make_line(src_bytes=repr(float(v))) for v in values]
        return select_features(mini_dataset(lines), ["src_bytes"])

    def test_small_exact(self):
        ds = self.one_feature_ds([1, 2, 3])
        stats = fit_normalizer(ds)
        assert stats.mu[0] == pytest.approx(2.0, abs=1e-15)
        assert stats.sigma[0] == pytest.approx((2.0 / 3.0) ** 0.5, rel=1e-15)

    def test_constant_feature(self):
        ds = self.one_feature_ds([5, 5, 5])
        stats = fit_normalizer(ds)
        assert stats.mu[0] == 5.0 and stats.sigma[0] == 0.0
        out = apply_normalizer(ds, stats)
        assert np.all(out.numeric == 0.0)

    @pytest.mark.parametrize("values", [[1e200, -1e200], [1e308, 1e308]], ids=["sigma", "mu"])
    def test_overflowing_stats_are_a_data_error(self, values):
        with pytest.raises(DataError, match=r"\['src_bytes'\]: values too large to normalize"):
            fit_normalizer(self.one_feature_ds(values))

    @pytest.mark.parametrize("mu, sigma", [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan),
                                           (0.0, math.inf), (0.0, -1.0)])
    def test_stats_reject_what_fit_never_writes(self, mu, sigma):
        with pytest.raises(ValueError):
            NormalizationStats(["src_bytes"], [mu], [sigma], 3)

    def test_value_transform(self):
        ds = self.one_feature_ds([1, 2, 3])
        stats = fit_normalizer(ds)
        probe = self.one_feature_ds([4])
        out = apply_normalizer(probe, stats)
        assert out.numeric[0, 0] == pytest.approx((4 - 2.0) / (2.0 / 3.0) ** 0.5, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_two_pass_oracle(self, seed):
        rng = random.Random(seed)
        values = [rng.uniform(-1e3, 1e3) for _ in range(1000)]
        ds = self.one_feature_ds(values)
        stats = fit_normalizer(ds)
        mu, sigma = mean_std_oracle(values)
        assert stats.mu[0] == pytest.approx(mu, rel=1e-12, abs=1e-12)
        assert stats.sigma[0] == pytest.approx(sigma, rel=1e-12, abs=1e-12)

    def test_self_normalization_mean_zero_std_one(self):
        rng = random.Random(1)
        values = [rng.uniform(0, 50) for _ in range(400)]
        ds = self.one_feature_ds(values)
        out = apply_normalizer(ds, fit_normalizer(ds))
        col = out.numeric[:, 0]
        assert abs(col.mean()) < 1e-9
        assert abs(np.sqrt((col**2).mean() - col.mean() ** 2) - 1.0) < 1e-9

    def test_schema_mismatch(self):
        ds = self.one_feature_ds([1, 2])
        other = select_features(mini_dataset([make_line()]), ["dst_bytes"])
        with pytest.raises(SchemaMismatch):
            apply_normalizer(other, fit_normalizer(ds))

    def test_nominal_passthrough(self):
        ds = select_features(mini_dataset([make_line()]), ["service", "src_bytes"])
        out = apply_normalizer(ds, fit_normalizer(ds))
        assert np.array_equal(out.nominal, ds.nominal)

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    best_numeric_split_oracle,
    chi2_oracle,
    igr_oracle,
    mdl_accepts_oracle,
    mdl_cuts_oracle,
)
from chids import preprocess
from chids.kdd import N_CLASSES, Dataset, FeatureSchema, KddRecord, load_dataset
from chids.ranking import (
    CHI2,
    IGR,
    Discretization,
    FeatureScore,
    chi_squared_score,
    discretize,
    info_gain_ratio_score,
    score_features,
    select_top_k,
)

LABELS = ("normal", "neptune", "satan", "phf", "perl")  # one per class


def two_feature_ds(xs, ys_nominal, classes) -> Dataset:
    """Dataset with one numeric feature `x` and one nominal feature `s`."""
    defs = [("x", "numeric"), ("s", "nominal")]
    from chids.kdd import FeatureDef

    schema = FeatureSchema([FeatureDef(i, n, k) for i, (n, k) in enumerate(defs)])
    records = [
        KddRecord((float(x), str(s)), LABELS[c])
        for x, s, c in zip(xs, ys_nominal, classes)
    ]
    return Dataset.from_records(records, schema)


def numeric_ds(xs, classes) -> Dataset:
    return two_feature_ds(xs, ["k"] * len(xs), classes)


class TestDiscretize:
    def test_perfect_boundary_single_cut(self):
        xs = [1, 2, 3, 4, 9, 10, 11, 12]
        classes = [0, 0, 0, 0, 1, 1, 1, 1]
        disc = discretize(numeric_ds(xs, classes))
        assert list(disc.cuts["x"]) == [(4 + 9) / 2]

    def test_constant_feature_no_cut(self):
        disc = discretize(numeric_ds([5] * 20, [0, 1] * 10))
        assert len(disc.cuts["x"]) == 0

    def test_pure_noise_rejected_and_oracle_agrees(self):
        rng = random.Random(11)
        xs = [rng.uniform(0, 1) for _ in range(50)]
        classes = [rng.randrange(2) for _ in range(50)]
        disc = discretize(numeric_ds(xs, classes))
        if len(disc.cuts["x"]) == 0:
            # brute force: every candidate cut must fail the coding-cost test
            distinct = sorted(set(xs))
            for a, b in zip(distinct, distinct[1:]):
                assert not mdl_accepts_oracle(xs, classes, (a + b) / 2)
        else:
            # if a cut was kept, the oracle must accept it too
            for cut in disc.cuts["x"]:
                assert mdl_accepts_oracle(xs, classes, cut)

    def test_accepted_cut_matches_oracle_choice(self):
        xs = [1, 1, 2, 2, 3, 3, 10, 10, 11, 11, 12, 12]
        classes = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
        disc = discretize(numeric_ds(xs, classes))
        assert mdl_accepts_oracle(xs, classes, disc.cuts["x"][0])
        gain, thr = best_numeric_split_oracle(xs, classes)
        assert disc.cuts["x"][0] == pytest.approx(thr)

    def test_cut_points_strictly_increasing(self):
        rng = random.Random(5)
        xs = [rng.uniform(0, 100) for _ in range(200)]
        classes = [0 if x < 30 else (1 if x < 70 else 2) for x in xs]
        disc = discretize(numeric_ds(xs, classes))
        cuts = list(disc.cuts["x"])
        assert len(cuts) >= 2
        assert all(a < b for a, b in zip(cuts, cuts[1:]))

    def test_bin_codes_boundaries(self):
        disc = Discretization({"x": np.array([1.5, 3.5])}, ("s",))
        ds = numeric_ds([1.0, 1.5, 2.0, 3.5, 4.0], [0, 0, 0, 0, 0])
        codes, n_bins = disc.bin_codes(ds, "x")
        assert n_bins == 3
        assert list(codes) == [0, 0, 1, 1, 2]  # value == cut stays left


# value pools with repeats, negatives and both zeros, so values tie
_POOLS = (
    (0.0,),
    (0.0, 1.0),
    (-2.5, -0.0, 0.0, 1.0, 3.25),
    tuple(float(v) for v in range(12)),
    (1e-3, 0.5, 1e6),
)


class TestDiscretizeMatchesMdlOracle:
    """`discretize` runs the MDL recursion on the block kernel; its cuts
    equal, bit for bit, those of the recursion on the per-column kernels."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_columns(self, data):
        n = data.draw(st.integers(1, 80), label="n")
        pool = data.draw(st.sampled_from(_POOLS), label="pool")
        xs = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label="xs")
        n_present = data.draw(st.integers(1, 5), label="classes present")
        classes = data.draw(st.lists(st.integers(0, n_present - 1), min_size=n, max_size=n))
        got = discretize(numeric_ds(xs, classes)).cuts["x"]
        assert got.tobytes() == mdl_cuts_oracle(xs, classes, N_CLASSES).tobytes()

    # the calls of the MDL test closest to its threshold in a search of 100k
    # small random columns: gain - threshold = -2.7e-5 (rejected), 6.6e-4
    @pytest.mark.parametrize("xs, classes", [
        ([6, 0, 4, 2, 0, 6, 5, 0, 6, 1, 0, 0, 0, 6, 3, 5, 0, 4, 2, 1, 1, 4, 3, 6, 6, 3],
         [0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0]),
        ([2, 1, 0, 0, 1, 1, 0, 2, 1, 0, 0, 0, 0, 0, 1, 0, 2, 2, 1, 1, 1, 0, 2, 1],
         [1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1]),
    ], ids=["just-rejected", "just-accepted"])
    def test_near_the_threshold(self, xs, classes):
        got = discretize(numeric_ds(xs, classes)).cuts["x"]
        assert got.tobytes() == mdl_cuts_oracle(xs, classes, N_CLASSES).tobytes()

    def test_synthetic_training_split(self, synth_corpus_path):
        ds = preprocess.dedupe(load_dataset(synth_corpus_path)).dataset
        train = preprocess.stratified_split(ds, preprocess.SplitSpec(1200, 600)).train
        disc = discretize(train)
        assert len(train.schema.numeric_names) == 34
        for name in train.schema.numeric_names:
            want = mdl_cuts_oracle(train.column(name), train.class_codes, N_CLASSES)
            assert disc.cuts[name].tobytes() == want.tobytes(), name
        assert sum(c.size for c in disc.cuts.values()) > 0


class TestChiSquared:
    def test_independent_table_scores_zero(self):
        # 2x2 uniform: observed equals expected everywhere
        xs = [0, 0, 10, 10]
        classes = [0, 1, 0, 1]
        ds = numeric_ds(xs, classes)
        disc = Discretization({"x": np.array([5.0])}, ("s",))
        assert chi_squared_score(ds, disc, "x").score == pytest.approx(0.0, abs=1e-12)

    def test_perfect_2x2_table(self):
        # [[10, 0], [0, 10]] -> chi2 = 20
        xs = [0] * 10 + [10] * 10
        classes = [0] * 10 + [1] * 10
        ds = numeric_ds(xs, classes)
        disc = Discretization({"x": np.array([5.0])}, ("s",))
        assert chi_squared_score(ds, disc, "x").score == pytest.approx(20.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle_random(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(20, 200)
        xs = [rng.randrange(6) for _ in range(n)]
        classes = [rng.randrange(4) for _ in range(n)]
        ds = numeric_ds(xs, classes)
        disc = Discretization({"x": np.array([0.5, 1.5, 2.5, 3.5, 4.5])}, ("s",))
        codes, _ = disc.bin_codes(ds, "x")
        got = chi_squared_score(ds, disc, "x").score
        assert got == pytest.approx(chi2_oracle(codes, classes), rel=1e-9, abs=1e-9)

    def test_invariant_under_shuffle(self):
        rng = random.Random(2)
        xs = [rng.randrange(4) for _ in range(100)]
        classes = [rng.randrange(3) for _ in range(100)]
        disc = Discretization({"x": np.array([0.5, 1.5, 2.5])}, ("s",))
        a = chi_squared_score(numeric_ds(xs, classes), disc, "x").score
        order = list(range(100))
        rng.shuffle(order)
        b = chi_squared_score(
            numeric_ds([xs[i] for i in order], [classes[i] for i in order]), disc, "x"
        ).score
        assert a == pytest.approx(b, rel=1e-12)

    def test_invariant_under_bin_relabeling(self):
        # permuting rows of the contingency table leaves the statistic alone
        rng = random.Random(4)
        xs = [rng.randrange(3) for _ in range(90)]
        classes = [rng.randrange(3) for _ in range(90)]
        disc = Discretization({"x": np.array([0.5, 1.5])}, ("s",))
        a = chi_squared_score(numeric_ds(xs, classes), disc, "x").score
        perm = {0: 2, 1: 0, 2: 1}
        b = chi_squared_score(numeric_ds([perm[x] for x in xs], classes), disc, "x").score
        assert a == pytest.approx(b, rel=1e-12)


class TestInfoGainRatio:
    def test_single_bin_is_zero(self):
        ds = numeric_ds([7] * 30, [0, 1, 2] * 10)
        disc = Discretization({"x": np.array([])}, ("s",))
        assert info_gain_ratio_score(ds, disc, "x").score == 0.0

    def test_perfect_binary_predictor_is_one(self):
        xs = [0] * 12 + [1] * 8
        classes = [0] * 12 + [1] * 8
        ds = numeric_ds(xs, classes)
        disc = Discretization({"x": np.array([0.5])}, ("s",))
        assert info_gain_ratio_score(ds, disc, "x").score == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle_random(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randrange(20, 200)
        xs = [rng.randrange(5) for _ in range(n)]
        classes = [rng.randrange(5) for _ in range(n)]
        ds = numeric_ds(xs, classes)
        disc = Discretization({"x": np.array([0.5, 1.5, 2.5, 3.5])}, ("s",))
        codes, _ = disc.bin_codes(ds, "x")
        got = info_gain_ratio_score(ds, disc, "x").score
        assert got == pytest.approx(igr_oracle(codes, classes), rel=1e-9, abs=1e-9)

    def test_nominal_feature_scored_over_domain(self):
        ds = two_feature_ds([0, 0, 0, 0], ["a", "a", "b", "b"], [0, 0, 1, 1])
        disc = discretize(ds)
        assert info_gain_ratio_score(ds, disc, "s").score == pytest.approx(1.0, rel=1e-12)


class TestSelectTopK:
    def scores(self, pairs):
        return [FeatureScore(n, i, s, CHI2) for i, (n, s) in enumerate(pairs)]

    def test_k_zero(self):
        assert select_top_k(self.scores([("a", 3.0), ("b", 1.0)]), 0) == []

    def test_tie_breaks_by_index(self):
        sc = self.scores([("a", 3.0), ("b", 1.0), ("c", 3.0)])
        assert set(select_top_k(sc, 2)) == {"a", "c"}
        assert select_top_k(sc, 1) == ["a"]

    def test_monotone_growth(self):
        rng = random.Random(9)
        sc = self.scores([(f"f{i}", rng.choice([0.0, 1.0, 2.0])) for i in range(12)])
        prev: list[str] = []
        for k in range(13):
            cur = select_top_k(sc, k)
            assert cur[: len(prev)] == prev
            prev = cur

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            select_top_k(self.scores([("a", 1.0)]), 2)


class TestScoreFeatures:
    def test_threaded_equals_serial(self):
        rng = random.Random(6)
        xs = [rng.uniform(0, 10) for _ in range(150)]
        ss = [rng.choice(["a", "b", "c"]) for _ in range(150)]
        classes = [rng.randrange(3) for _ in range(150)]
        ds = two_feature_ds(xs, ss, classes)
        disc = discretize(ds)
        serial = score_features(ds, disc, IGR, threads=1)
        threaded = score_features(ds, disc, IGR, threads=4)
        assert serial == threaded


class TestClassicToyAnchor:
    """The 14-record weather toy with textbook information-gain values
    anchors the entropy code against an external reference."""

    def weather_ds(self):
        from chids.kdd import FeatureDef

        # (outlook, temperature, humidity, windy) -> play?
        rows = [
            ("sunny", "hot", "high", "false", 0),
            ("sunny", "hot", "high", "true", 0),
            ("overcast", "hot", "high", "false", 1),
            ("rainy", "mild", "high", "false", 1),
            ("rainy", "cool", "normal", "false", 1),
            ("rainy", "cool", "normal", "true", 0),
            ("overcast", "cool", "normal", "true", 1),
            ("sunny", "mild", "high", "false", 0),
            ("sunny", "cool", "normal", "false", 1),
            ("rainy", "mild", "normal", "false", 1),
            ("sunny", "mild", "normal", "true", 1),
            ("overcast", "mild", "high", "true", 1),
            ("overcast", "hot", "normal", "false", 1),
            ("rainy", "mild", "high", "true", 0),
        ]
        schema = FeatureSchema(
            [FeatureDef(i, n, "nominal") for i, n in enumerate(("outlook", "temperature", "humidity", "windy"))]
        )
        records = [KddRecord(tuple(r[:4]), LABELS[r[4]]) for r in rows]
        return Dataset.from_records(records, schema)

    def test_info_gains_match_textbook_values(self):
        ds = self.weather_ds()
        disc = Discretization({}, ds.schema.nominal_names)
        textbook = {
            "outlook": 0.2467,
            "temperature": 0.0292,
            "humidity": 0.1518,
            "windy": 0.0481,
        }
        from oracles import entropy_oracle

        for feature, want_gain in textbook.items():
            igr = info_gain_ratio_score(ds, disc, feature).score
            codes = [ds.schema.code(feature, str(v)) for v in
                     (ds.record(i).values[ds.schema.names.index(feature)] for i in range(14))]
            split_info = entropy_oracle(codes)
            assert igr * split_info == pytest.approx(want_gain, abs=5e-4), feature

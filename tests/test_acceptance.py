"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 1-4 reproduce published-corpus numbers and need the public 10%
file (skipped otherwise; set CHIDS_KDD10=/path/to/kddcup.data_10_percent.gz).
Criteria 5-8 are dataset-free and always run.
"""

import random
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from chids.anomaly import RuleConfig, SCENARIOS, evaluate_stream, generate_stream
from chids.cli import main as cli_main
from chids.evaluate import ConfusionMatrix, evaluate, metrics_from_confusion
from chids.kdd import AttackClass, Dataset, FeatureSchema, KddRecord, load_dataset
from chids.learner import TreeParams, _Grower, train_part
from chids.pipeline import CLASSIFIED_ATTACK, OUTCOMES, PASSED_NORMAL, run_pipeline
from chids.preprocess import (
    SplitSpec,
    apply_normalizer,
    dedupe,
    fit_normalizer,
    prune_features,
    select_features,
    stratified_split,
)
from chids.ranking import (
    CHI2,
    IGR,
    Discretization,
    chi_squared_score,
    discretize,
    info_gain_ratio_score,
    score_features,
    select_top_k,
)
from chids.sections import DEFAULT_PRUNE
from test_anomaly import pairs, random_stream
from test_cli import SPLIT_OVERRIDES, _hash_artifacts

REFERENCE_TOP_FEATURES = {"service", "src_bytes", "diff_srv_rate", "dst_host_diff_srv_rate"}

EXPECTED_DEDUP = {
    AttackClass.NORMAL: 87832,
    AttackClass.DOS: 54572,
    AttackClass.PROBE: 2130,
    AttackClass.R2L: 999,
    AttackClass.U2R: 52,
}


def ok(cid: str, msg: str) -> None:
    print(f"ACCEPTANCE {cid} PASS: {msg}")


@pytest.fixture(scope="module")
def kdd10_dedup(kdd10):
    t0 = time.perf_counter()
    ds = load_dataset(kdd10)
    res = dedupe(ds)
    elapsed = time.perf_counter() - t0
    return ds, res, elapsed


def test_c1_dedup_exactness(kdd10_dedup):
    ds, res, elapsed = kdd10_dedup
    assert len(ds.line_rows) == 494021
    assert res.n_output == 145585
    hist = res.dataset.class_histogram()
    for cls, want in EXPECTED_DEDUP.items():
        assert hist[cls] == want, (cls, hist[cls], want)
    assert abs(res.reduction_rate * 100 - 70.53) <= 0.01
    assert elapsed <= 60.0
    # full scan: the two famously dead features really are constant zero
    assert (ds.column("num_outbound_cmds") == 0.0).all()
    assert set(np.unique(ds.column("is_host_login"))) == {ds.schema.code("is_host_login", "0")}
    ok("C1", f"145585 records, reduction {res.reduction_rate * 100:.2f}%, {elapsed:.1f}s")


def test_c2_split_fidelity(kdd10_dedup):
    _, res, _ = kdd10_dedup
    split = stratified_split(res.dataset, SplitSpec(seed=0))
    pc = split.manifest["per_class"]
    assert len(split.train) == 20000 and len(split.test) == 10000
    for tag, train_ref, test_ref in (("probe", 1421, 709), ("r2l", 667, 332), ("u2r", 35, 17)):
        assert abs(pc[tag]["train"] - train_ref) <= 1
        assert abs(pc[tag]["test"] - test_ref) <= 1
    for tag, train_ref, test_ref in (("normal", 11079, 5549), ("dos", 6798, 3393)):
        assert abs(pc[tag]["train"] - train_ref) <= train_ref * 0.01
        assert abs(pc[tag]["test"] - test_ref) <= test_ref * 0.01
    ok("C2", "; ".join(f"{t}={pc[t]['train']}/{pc[t]['test']}" for t in pc))


def test_c3_feature_ranking(kdd10_dedup):
    _, res, _ = kdd10_dedup
    split = stratified_split(res.dataset, SplitSpec(seed=0))
    disc_full = discretize(split.train)
    igr = score_features(split.train, disc_full, IGR)
    mean_igr = sum(s.score for s in igr) / len(igr)
    assert 0.26 <= mean_igr <= 0.32, mean_igr

    pruned = prune_features(split.train, DEFAULT_PRUNE)
    disc_p = discretize(pruned)
    chi = score_features(pruned, disc_p, CHI2)
    top6 = set(select_top_k(chi, 6))
    overlap = len(top6 & REFERENCE_TOP_FEATURES)
    assert overlap >= 3, (top6, overlap)
    ok("C3", f"mean IGR {mean_igr:.3f}; chi2 top-6 overlap {overlap}/4 ({sorted(top6)})")


def test_c4_headline_numbers(kdd10_dedup):
    _, res, _ = kdd10_dedup
    drs, fars, train_times, test_times = [], [], [], []
    for seed in range(10):
        split = stratified_split(res.dataset, SplitSpec(seed=seed))
        train_p = prune_features(split.train, DEFAULT_PRUNE)
        test_p = prune_features(split.test, DEFAULT_PRUNE)
        disc = discretize(train_p)
        chi = score_features(train_p, disc, CHI2)
        selected = select_top_k(chi, 4)
        train_s = select_features(train_p, selected)
        test_s = select_features(test_p, selected)
        stats = fit_normalizer(train_s)
        train_n = apply_normalizer(train_s, stats)
        test_n = apply_normalizer(test_s, stats)
        t0 = time.perf_counter()
        model = train_part(train_n)
        train_times.append(time.perf_counter() - t0)
        cm, test_s = evaluate(model, test_n)
        report = metrics_from_confusion(cm)
        drs.append(report["detection_rate_pct"])
        fars.append(report["false_alarm_rate_pct"])
        test_times.append(test_s)
    mean_dr = sum(drs) / len(drs)
    mean_far = sum(fars) / len(fars)
    mean_train = sum(train_times) / len(train_times)
    mean_test = sum(test_times) / len(test_times)
    assert mean_dr >= 99.0, (mean_dr, drs)
    assert mean_far <= 0.8, (mean_far, fars)
    assert mean_train <= 30.0, train_times
    assert mean_test <= 1.0, test_times
    ok(
        "C4",
        f"10-seed mean DR {mean_dr:.2f}% FAR {mean_far:.2f}% "
        f"train {mean_train:.2f}s predict {mean_test:.3f}s",
    )


# --- criterion 5: dataset-free oracle equivalence (>=100 trials each) -----

LABELS = ("normal", "neptune", "satan", "phf", "perl")


def _single_feature_ds(values, classes) -> Dataset:
    schema = FeatureSchema([("x", "numeric")])
    return Dataset.from_records(
        [KddRecord((float(v),), LABELS[c]) for v, c in zip(values, classes)], schema
    )


def test_c5_chi_squared_oracle_equivalence():
    for seed in range(120):
        rng = random.Random(1000 + seed)
        n = rng.randrange(10, 200)
        xs = [rng.randrange(7) for _ in range(n)]
        classes = [rng.randrange(5) for _ in range(n)]
        ds = _single_feature_ds(xs, classes)
        disc = Discretization({"x": np.array([0.5, 1.5, 2.5, 3.5, 4.5, 5.5])})
        codes, _ = disc.bin_codes(ds, "x")
        got = chi_squared_score(ds, disc, "x").score
        want = oracles.chi2_oracle(codes, classes)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    ok("C5.chi2", "120 random fixtures within 1e-9")


def test_c5_igr_oracle_equivalence():
    for seed in range(120):
        rng = random.Random(2000 + seed)
        n = rng.randrange(10, 200)
        xs = [rng.randrange(6) for _ in range(n)]
        classes = [rng.randrange(5) for _ in range(n)]
        ds = _single_feature_ds(xs, classes)
        disc = Discretization({"x": np.array([0.5, 1.5, 2.5, 3.5, 4.5])})
        codes, _ = disc.bin_codes(ds, "x")
        got = info_gain_ratio_score(ds, disc, "x").score
        want = oracles.igr_oracle(codes, classes)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    ok("C5.igr", "120 random fixtures within 1e-9")


def test_c5_gain_ratio_split_oracle_equivalence():
    checked = 0
    for seed in range(110):
        rng = random.Random(3000 + seed)
        n = rng.randrange(10, 120)
        xs = [rng.uniform(0, 6) for _ in range(n)]
        classes = [rng.randrange(4) for _ in range(n)]
        ds = _single_feature_ds(xs, classes)
        g = _Grower(ds, TreeParams(min_leaf=1))
        cands = g._candidates(
            np.arange(n), np.bincount(ds.class_codes, minlength=5), frozenset()
        )
        for cand in cands:
            want_gain = oracles.gain_for_threshold_oracle(xs, classes, cand.threshold)
            assert abs(cand.gain - want_gain) <= 1e-9
            n_l = sum(1 for v in xs if v <= cand.threshold)
            want_si = oracles.entropy_oracle([0] * n_l + [1] * (n - n_l))
            assert abs(cand.split_info - want_si) <= 1e-9
            checked += 1
        # the chosen threshold must be gain-optimal among ALL midpoints
        best = oracles.best_numeric_split_oracle(xs, classes)
        if cands and best is not None:
            assert cands[0].gain >= best[0] - 1e-9
    assert checked >= 100
    ok("C5.gain_ratio", f"{checked} candidate splits within 1e-9")


def test_c5_normalization_oracle_equivalence():
    for seed in range(110):
        rng = random.Random(4000 + seed)
        n = rng.randrange(2, 200)
        xs = [rng.uniform(-1e4, 1e4) for _ in range(n)]
        ds = _single_feature_ds(xs, [0] * n)
        stats = fit_normalizer(ds)
        mu, sigma = oracles.mean_std_oracle(xs)
        assert abs(stats.mu[0] - mu) <= 1e-9 * max(1.0, abs(mu))
        assert abs(stats.sigma[0] - sigma) <= 1e-9 * max(1.0, abs(sigma))
    ok("C5.normalization", "110 random fixtures within 1e-9 relative")


def test_c5_dedupe_oracle_equivalence():
    from test_kdd import make_line
    from chids.kdd import parse_record

    for seed in range(110):
        rng = random.Random(5000 + seed)
        n = rng.randrange(5, 200)
        schema = FeatureSchema.default()
        lines = [
            make_line(
                service=rng.choice(["http", "smtp"]),
                src_bytes=str(rng.randrange(4)),
                label=rng.choice(["normal.", "smurf."]),
            )
            for _ in range(n)
        ]
        ds = Dataset.from_records([parse_record(l, schema) for l in lines], schema)
        got = dedupe(ds)
        want = oracles.dedupe_oracle(list(oracles.iter_records(ds)))
        assert got.n_output == len(want)
        assert list(oracles.iter_records(got.dataset)) == want
    ok("C5.dedupe", "110 random fixtures match the set-based oracle exactly")


def test_c5_metrics_oracle_equivalence():
    for seed in range(120):
        rng = random.Random(6000 + seed)
        n = rng.randrange(5, 200)
        actual = [rng.randrange(5) for _ in range(n)]
        predicted = [rng.randrange(5) for _ in range(n)]
        m = metrics_from_confusion(ConfusionMatrix.from_predictions(actual, predicted))
        dr, far, det, fa = oracles.binary_rates_oracle(actual, predicted)
        assert abs(m["detection_rate_pct"] - dr) <= 1e-9
        assert abs(m["false_alarm_rate_pct"] - far) <= 1e-9
        assert (m["n_detected_attacks"], m["n_false_alarms"]) == (det, fa)
    ok("C5.metrics", "120 random confusion matrices within 1e-9")


def test_c6_anomaly_soundness_completeness():
    cfg = RuleConfig()
    for seed in range(3):
        assert evaluate_stream(generate_stream("benign", seed, cfg), cfg) == []
    for scenario in SCENARIOS:
        if scenario == "benign":
            continue
        fired = {v.rule for v in evaluate_stream(generate_stream(scenario, 0, cfg), cfg)}
        assert oracles.SCENARIO_RULE[scenario] in fired, (scenario, fired)
    mismatches = 0
    for seed in range(1000):
        events = random_stream(seed, n_events=40)
        if pairs(evaluate_stream(events, cfg)) != oracles.replay_verdicts(events, cfg):
            mismatches += 1
    assert mismatches == 0
    ok("C6", "7 scenarios complete, benign sound, 1000 random streams match the replayer")


def test_c7_pipeline_contract():
    rng = random.Random(99)
    schema = FeatureSchema([("x", "numeric")])
    classes = [rng.choice([0, 0, 1, 2]) for _ in range(300)]
    xs = [rng.uniform(0, 9) if c == 0 else rng.uniform(10 + 5 * c, 14 + 5 * c) for c in classes]
    ds = Dataset.from_records(
        [KddRecord((float(x),), LABELS[c]) for x, c in zip(xs, classes)], schema
    )
    model = train_part(ds)

    class Counting:
        def __init__(self, inner):
            self.inner, self.n = inner, 0

        def predict_dataset(self, d):
            self.n += len(d)
            return self.inner.predict_dataset(d)

    flagged = np.array([rng.random() < 0.3 for _ in range(300)])
    counting = Counting(model)
    run = run_pipeline(ds, flagged, counting)
    assert counting.n == int(flagged.sum()) == run.misuse_invocations
    assert len(run.outcome) == 300
    assert ((run.outcome != OUTCOMES.index(PASSED_NORMAL)) == flagged).all()

    # composition identity under a perfect anomaly stage
    attacks = np.array(classes) != 0
    run2 = run_pipeline(ds, attacks, model)
    end_to_end = int((run2.outcome == OUTCOMES.index(CLASSIFIED_ATTACK)).sum())
    direct = model.predict_dataset(ds.take(np.flatnonzero(attacks)))
    assert end_to_end == int((direct != 0).sum())
    ok("C7", f"invocations == flagged ({flagged.sum()}), partition exact, composition identity holds")


def test_c8_determinism(synth_corpus_path, tmp_path, capsys):
    def full_run(out: Path, threads: str):
        for args in (
            ["preprocess", "--dataset", str(synth_corpus_path), "--out", str(out),
             "--seed", "3", "--threads", threads] + SPLIT_OVERRIDES,
            ["train", "--out", str(out), "--seed", "3", "--threads", threads],
            ["evaluate", "--out", str(out), "--seed", "3", "--threads", threads],
        ):
            assert cli_main(args) == 0

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    full_run(a, "1")
    full_run(b, "1")
    full_run(c, "8")
    capsys.readouterr()
    ha, hb, hc = _hash_artifacts(a), _hash_artifacts(b), _hash_artifacts(c)
    assert ha == hb, "same-seed runs differ"
    assert ha == hc, "threads=1 vs threads=8 differ"
    ok("C8", f"{len(ha)} artifacts hash-identical across reruns and thread counts")

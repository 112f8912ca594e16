import io
import random

import pytest

from chids.kdd import AttackClass, Dataset, FeatureDef, FeatureSchema, KddRecord
from chids.learner import train_part
from chids.pipeline import (
    CLASSIFIED_ATTACK,
    CLASSIFIED_NORMAL,
    PASSED_NORMAL,
    POLICY_TRUST_MISUSE,
    STAGE_ANOMALY,
    STAGE_DECISION,
    STAGE_MISUSE,
    UNRESOLVED_ALERT,
    PipelineConfig,
    emit_alerts,
    run_pipeline,
)

LABELS = ("normal", "neptune", "satan", "phf", "perl")


class CountingModel:
    """Wraps a model and counts how many records it is asked to classify."""

    def __init__(self, inner):
        self.inner = inner
        self.records_seen = 0

    def predict_dataset(self, ds):
        self.records_seen += len(ds)
        return self.inner.predict_dataset(ds)


def labeled_ds(classes, xs=None) -> Dataset:
    schema = FeatureSchema([FeatureDef(0, "x", "numeric")])
    xs = xs if xs is not None else list(range(len(classes)))
    records = [KddRecord((float(x),), LABELS[c]) for x, c in zip(xs, classes)]
    return Dataset.from_records(records, schema)


def separable_model():
    # x < 10 -> normal, x >= 10 -> dos
    classes = [0] * 10 + [1] * 10
    return train_part(labeled_ds(classes))


class TestRunPipeline:
    def test_zero_flagged_never_invokes_model(self):
        ds = labeled_ds([0] * 8)
        counting = CountingModel(separable_model())
        run = run_pipeline(ds, set(), counting)
        assert counting.records_seen == 0
        assert run.misuse_invocations == 0
        assert all(d.outcome == PASSED_NORMAL and d.stage == STAGE_ANOMALY for d in run.dispositions)

    def test_flagged_attack_classified(self):
        ds = labeled_ds([1], xs=[15])
        run = run_pipeline(ds, {0}, separable_model())
        d = run.dispositions[0]
        assert d.outcome == CLASSIFIED_ATTACK
        assert d.stage == STAGE_MISUSE
        assert d.attack_class is AttackClass.DOS

    def test_flagged_normal_default_policy_alerts(self):
        ds = labeled_ds([0], xs=[2])
        run = run_pipeline(ds, {0}, separable_model())
        d = run.dispositions[0]
        assert d.outcome == UNRESOLVED_ALERT and d.stage == STAGE_DECISION

    def test_flagged_normal_trust_policy_clears(self):
        ds = labeled_ds([0], xs=[2])
        run = run_pipeline(ds, {0}, separable_model(), PipelineConfig(POLICY_TRUST_MISUSE))
        d = run.dispositions[0]
        assert d.outcome == CLASSIFIED_NORMAL and d.stage == STAGE_DECISION

    def test_invocations_equal_flagged_count(self):
        rng = random.Random(5)
        classes = [rng.choice([0, 1]) for _ in range(100)]
        xs = [rng.uniform(0, 9) if c == 0 else rng.uniform(10, 20) for c in classes]
        ds = labeled_ds(classes, xs)
        flagged = {i for i in range(100) if rng.random() < 0.25}
        counting = CountingModel(separable_model())
        run = run_pipeline(ds, flagged, counting)
        assert counting.records_seen == len(flagged)
        assert run.misuse_invocations == len(flagged)

    def test_partition_exhaustive_disjoint(self):
        rng = random.Random(6)
        classes = [rng.choice([0, 1]) for _ in range(60)]
        ds = labeled_ds(classes)
        flagged = {i for i in range(60) if rng.random() < 0.5}
        run = run_pipeline(ds, flagged, separable_model())
        assert len(run.dispositions) == 60
        assert sorted(d.record_index for d in run.dispositions) == list(range(60))
        for d in run.dispositions:
            if d.record_index in flagged:
                assert d.outcome in (CLASSIFIED_ATTACK, UNRESOLVED_ALERT, CLASSIFIED_NORMAL)
            else:
                assert d.outcome == PASSED_NORMAL

    def test_perfect_filter_composition_identity(self):
        # flagging exactly the true attacks makes end-to-end detection equal
        # the classifier's detection rate on attacks
        rng = random.Random(7)
        classes = [rng.choice([0, 1]) for _ in range(200)]
        xs = [rng.uniform(0, 9) if c == 0 else rng.uniform(10, 20) for c in classes]
        ds = labeled_ds(classes, xs)
        model = separable_model()
        attacks = {i for i, c in enumerate(classes) if c != 0}
        run = run_pipeline(ds, attacks, model)
        end_to_end_detected = sum(1 for d in run.dispositions if d.outcome == CLASSIFIED_ATTACK)
        direct = model.predict_dataset(ds.take(sorted(attacks)))
        assert end_to_end_detected == int((direct != 0).sum())

    def test_out_of_range_flag_rejected(self):
        ds = labeled_ds([0, 0])
        with pytest.raises(ValueError):
            run_pipeline(ds, {5}, separable_model())


class TestEmitAlerts:
    def run_mixed(self):
        ds = labeled_ds([0, 1, 1, 0, 1], xs=[2, 15, 16, 3, 17])
        return run_pipeline(ds, {0, 1, 2, 4}, separable_model())

    def test_all_passed_empty_log(self):
        ds = labeled_ds([0] * 4)
        run = run_pipeline(ds, set(), separable_model())
        sink = io.StringIO()
        assert emit_alerts(run, sink) == 0
        assert sink.getvalue() == ""

    def test_alert_count_matches_recount(self):
        run = self.run_mixed()
        sink = io.StringIO()
        n = emit_alerts(run, sink)
        recount = sum(
            1 for d in run.dispositions if d.outcome in (CLASSIFIED_ATTACK, UNRESOLVED_ALERT)
        )
        assert n == recount == 4  # 3 attacks + 1 unresolved (record 0 is normal)
        assert len(sink.getvalue().splitlines()) == n

    def test_alert_lines_carry_stage_and_class(self):
        run = self.run_mixed()
        sink = io.StringIO()
        emit_alerts(run, sink)
        lines = sink.getvalue().splitlines()
        assert any("class=dos" in ln and "stage=misuse" in ln for ln in lines)
        assert any("outcome=unresolved_alert" in ln for ln in lines)

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import binary_rates_oracle
from chids.errors import EmptyTestSet
from chids.evaluate import (
    ConfusionMatrix,
    _pct,
    emit_report,
    evaluate,
    metrics_from_confusion,
    render_split_table,
)
from chids.kdd import AttackClass, Dataset, FeatureSchema, KddRecord
from chids.learner import MajorityModel, train_part

LABELS = ("normal", "neptune", "satan", "phf", "perl")


def majority_baseline(ds) -> MajorityModel:
    """The constant predictor of the most frequent training class."""
    klass = AttackClass(int(np.argmax(np.bincount(ds.class_codes, minlength=5))))
    return MajorityModel(klass, ds.schema.features)


def labeled_ds(classes, xs=None) -> Dataset:
    schema = FeatureSchema([("x", "numeric")])
    xs = xs if xs is not None else list(range(len(classes)))
    records = [KddRecord((float(x),), LABELS[c]) for x, c in zip(xs, classes)]
    return Dataset.from_records(records, schema)


def cm_from(actual, predicted) -> ConfusionMatrix:
    return ConfusionMatrix.from_predictions(actual, predicted)


class TestMetrics:
    def test_detection_rate_simple(self):
        # 10 attacks, 9 predicted as some attack class
        actual = [1] * 10
        predicted = [1] * 6 + [2] * 3 + [0]
        m = metrics_from_confusion(cm_from(actual, predicted))
        assert m["detection_rate_pct"] == pytest.approx(90.0)

    def test_false_alarm_simple(self):
        actual = [0] * 200
        predicted = [0] * 199 + [3]
        m = metrics_from_confusion(cm_from(actual, predicted))
        assert m["false_alarm_rate_pct"] == pytest.approx(0.5)

    def test_cross_class_confusion_counts_as_detected(self):
        # actual probe predicted dos is still a detected attack
        actual = [2, 2, 2, 0]
        predicted = [1, 1, 2, 0]
        m = metrics_from_confusion(cm_from(actual, predicted))
        assert m["detection_rate_pct"] == pytest.approx(100.0)
        assert m["multiclass_accuracy_pct"] == pytest.approx(50.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_rates_match_recount_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(20, 200)
        actual = [rng.randrange(5) for _ in range(n)]
        predicted = [rng.randrange(5) for _ in range(n)]
        m = metrics_from_confusion(cm_from(actual, predicted))
        dr, far, det, fa = binary_rates_oracle(actual, predicted)
        assert m["detection_rate_pct"] == pytest.approx(dr, abs=1e-9)
        assert m["false_alarm_rate_pct"] == pytest.approx(far, abs=1e-9)
        assert m["n_detected_attacks"] == det
        assert m["n_false_alarms"] == fa

    def test_rates_bounded(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randrange(1, 60)
            actual = [rng.randrange(5) for _ in range(n)]
            predicted = [rng.randrange(5) for _ in range(n)]
            m = metrics_from_confusion(cm_from(actual, predicted))
            assert 0.0 <= m["detection_rate_pct"] <= 100.0
            assert 0.0 <= m["false_alarm_rate_pct"] <= 100.0
            assert 0.0 <= m["multiclass_accuracy_pct"] <= 100.0

    def test_percentage_is_the_exact_one_rounded_once(self):
        # int true division is correctly rounded, as the exact rational is
        for den in range(301):
            for num in range(den + 1):
                assert _pct(num, den) == (float(Fraction(num, den) * 100) if den else 0.0)

    def test_majority_baseline_analytic_recalls(self):
        classes = [0] * 12 + [1, 1, 2, 3, 4]
        ds = labeled_ds(classes)
        model = majority_baseline(ds)
        cm, _ = evaluate(model, ds)
        m = metrics_from_confusion(cm)
        assert m["per_class_recall_pct"]["normal"] == pytest.approx(100.0)
        for tag in ("dos", "probe", "r2l", "u2r"):
            assert m["per_class_recall_pct"][tag] == pytest.approx(0.0)
        assert m["detection_rate_pct"] == pytest.approx(0.0)

    def test_confusion_total_and_counts(self):
        actual = [0, 1, 2, 3, 4, 0]
        predicted = [0, 1, 2, 3, 4, 1]
        cm = cm_from(actual, predicted)
        assert cm.counts.sum() == 6
        assert cm.counts[0, 1] == 1

    def test_empty_test_set(self):
        ds = labeled_ds([0, 1])
        model = majority_baseline(ds)
        with pytest.raises(EmptyTestSet):
            evaluate(model, labeled_ds([]))

    def test_evaluate_records_test_time(self):
        ds = labeled_ds([0, 1] * 20)
        model = majority_baseline(ds)
        _, test_s = evaluate(model, ds)
        assert test_s >= 0.0


class TestEmitReport:
    def test_full_bundle_and_determinism(self, tmp_path):
        classes = [0] * 30 + [1] * 10 + [2] * 5
        xs = [random.Random(1).uniform(0, 9)] * 30 + [15.0] * 10 + [3.0] * 5
        ds = labeled_ds(classes, xs)
        model = train_part(ds)
        cm, test_s = evaluate(model, ds)
        split = {
            "normal": {"available": 100, "train": 30, "test": 10},
            "dos": {"available": 50, "train": 10, "test": 5},
        }
        _, w1 = emit_report(tmp_path / "a", confusion=cm, split_per_class=split, test_s=test_s)
        _, w2 = emit_report(tmp_path / "b", confusion=cm, split_per_class=split, test_s=test_s)
        for p1, p2 in zip(w1, w2):
            n1, n2 = p1.rsplit("/", 1)[1], p2.rsplit("/", 1)[1]
            assert n1 == n2
            if n1 != "timings.txt":
                assert open(p1, "rb").read() == open(p2, "rb").read(), n1

    def test_metrics_json_excludes_timings(self, tmp_path):
        ds = labeled_ds([0, 1] * 10)
        model = majority_baseline(ds)
        cm, test_s = evaluate(model, ds)
        emit_report(tmp_path / "rep", confusion=cm, train_s=1.23, test_s=test_s)
        obj = json.loads((tmp_path / "rep" / "metrics.json").read_text())
        assert "n_records" in obj
        assert not any("time" in k for k in obj)
        timings = (tmp_path / "rep" / "timings.txt").read_text()
        assert "train_s" in timings and "test_s" in timings

    def test_comparison_files_label_sources(self, tmp_path):
        ds = labeled_ds([0, 1] * 10)
        model = majority_baseline(ds)
        cm, test_s = evaluate(model, ds)
        emit_report(tmp_path / "rep", confusion=cm, test_s=test_s)
        text = (tmp_path / "rep" / "detection_rate_bars.tsv").read_text()
        assert "published" in text and "measured" in text

    def test_split_table_shape(self):
        table = render_split_table(
            {"normal": {"available": 10, "train": 6, "test": 3},
             "dos": {"available": 4, "train": 2, "test": 1}}
        )
        lines = table.splitlines()
        assert lines[1].startswith("category")
        assert lines[-1].startswith("total\t-\t8")


"""Evaluation: five-class confusion matrices, the binary detection/false-alarm
rates derived from them, timing capture, and deterministic report emission
(text tables, JSON metrics, tab-separated plot data).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import artifact, ranking
from .errors import DataError, EmptyTestSet
from .kdd import AttackClass, Dataset, N_CLASSES

CLASS_TAGS = tuple(c.tag for c in AttackClass)


class ConfusionMatrix:
    """counts[actual, predicted] over the five classes."""

    def __init__(self, counts=None):
        self.counts = (
            np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
            if counts is None
            else np.asarray(counts, dtype=np.int64).reshape(N_CLASSES, N_CLASSES)
        )
        if (self.counts < 0).any():
            raise ValueError("negative confusion counts")

    @classmethod
    def from_predictions(cls, actual, predicted) -> "ConfusionMatrix":
        actual = np.asarray(actual, dtype=np.int64)
        predicted = np.asarray(predicted, dtype=np.int64)
        m = cls()
        np.add.at(m.counts, (actual, predicted), 1)
        return m

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other):
        return isinstance(other, ConfusionMatrix) and np.array_equal(self.counts, other.counts)

    def to_tsv(self) -> str:
        lines = ["actual\\predicted\t" + "\t".join(CLASS_TAGS)]
        for c in AttackClass:
            row = "\t".join(str(int(v)) for v in self.counts[int(c)])
            lines.append(f"{c.tag}\t{row}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tsv(cls, text: str) -> "ConfusionMatrix":
        """Parse `to_tsv` output: a header line, then one row per class of
        a label and N_CLASSES integer counts."""
        rows = []
        for lineno, ln in enumerate(text.splitlines()[1:], 2):
            cells = ln.split("\t")[1:]
            if len(cells) != N_CLASSES:
                raise DataError(f"line {lineno}: want a label and {N_CLASSES} counts, got {ln!r}")
            try:
                rows.append([int(v) for v in cells])
            except ValueError:
                raise DataError(f"line {lineno}: non-integer count in {ln!r}") from None
        if len(rows) != N_CLASSES:
            raise DataError(f"want {N_CLASSES} rows of counts, got {len(rows)}")
        return cls(np.array(rows, dtype=np.int64))


# MetricsReport field -> metrics.json key; the timings stay out of the file
_METRICS_KEYS = {
    "detection_rate": "detection_rate_pct",
    "false_alarm_rate": "false_alarm_rate_pct",
    "multiclass_accuracy": "multiclass_accuracy_pct",
    "n_records": "n_records",
    "n_attacks": "n_attacks",
    "n_normals": "n_normals",
    "n_detected_attacks": "n_detected_attacks",
    "n_false_alarms": "n_false_alarms",
    "per_class_recall": "per_class_recall_pct",
    "per_class_precision": "per_class_precision_pct",
}


@dataclass
class MetricsReport:
    """Binary attack-vs-normal rates plus the five-class view.

    detection_rate counts an attack as detected whenever it is predicted as
    ANY non-normal class, even the wrong one; multiclass_accuracy is the
    stricter diagonal rate. Both are percentages in [0, 100].
    """

    detection_rate: float
    false_alarm_rate: float
    multiclass_accuracy: float
    n_records: int
    n_attacks: int
    n_normals: int
    n_detected_attacks: int
    n_false_alarms: int
    per_class_recall: dict[str, float] = field(default_factory=dict)
    per_class_precision: dict[str, float] = field(default_factory=dict)
    train_time_s: float | None = None
    test_time_s: float | None = None

    def to_json_obj(self) -> dict:
        return {key: getattr(self, name) for name, key in _METRICS_KEYS.items()}

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        """Parse the metrics.json that `emit_report` writes."""
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise DataError(f"not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise DataError("not a JSON object")
        values = {}
        for name, key in _METRICS_KEYS.items():
            if key not in obj:
                raise DataError(f"missing key {key!r}")
            value = obj[key]
            if name.startswith("per_class_"):
                if not (isinstance(value, dict) and all(_is_number(value.get(t)) for t in CLASS_TAGS)):
                    raise DataError(f"key {key!r} needs a number for each class")
            elif not _is_number(value):
                raise DataError(f"key {key!r} is not a number")
            values[name] = value
        return cls(**values)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _pct(num: int, den: int) -> float:
    # exact rational first, formatted once
    return float(Fraction(num, den) * 100) if den else 0.0


def metrics_from_confusion(cm: ConfusionMatrix) -> MetricsReport:
    """All rates recomputed from the matrix alone (integer arithmetic)."""
    c = cm.counts
    normal = int(AttackClass.NORMAL)
    n_records = int(c.sum())
    n_normals = int(c[normal].sum())
    n_attacks = n_records - n_normals
    detected = int(c.sum()) - int(c[normal].sum()) - int(c[:, normal].sum()) + int(c[normal, normal])
    # detected = attack rows predicted anything but normal
    false_alarms = n_normals - int(c[normal, normal])
    correct = int(np.trace(c))
    recall = {}
    precision = {}
    for k in AttackClass:
        kk = int(k)
        recall[k.tag] = _pct(int(c[kk, kk]), int(c[kk].sum()))
        precision[k.tag] = _pct(int(c[kk, kk]), int(c[:, kk].sum()))
    return MetricsReport(
        detection_rate=_pct(detected, n_attacks),
        false_alarm_rate=_pct(false_alarms, n_normals),
        multiclass_accuracy=_pct(correct, n_records),
        n_records=n_records,
        n_attacks=n_attacks,
        n_normals=n_normals,
        n_detected_attacks=detected,
        n_false_alarms=false_alarms,
        per_class_recall=recall,
        per_class_precision=precision,
    )


def evaluate(model, test: Dataset) -> tuple[ConfusionMatrix, MetricsReport]:
    """Predict the test split and derive the metrics; wall clock covers only
    the prediction loop."""
    if len(test) == 0:
        raise EmptyTestSet("test split has no records")
    if (test.class_codes < 0).any():
        raise EmptyTestSet("test split contains unlabeled records")
    t0 = time.perf_counter()
    predicted = model.predict_dataset(test)
    elapsed = time.perf_counter() - t0
    cm = ConfusionMatrix.from_predictions(test.class_codes, predicted)
    report = metrics_from_confusion(cm)
    report.test_time_s = elapsed
    return cm, report


# Published reference results for context in comparison reports. These are
# quoted numbers from the cited systems, not measurements of this toolkit.
REFERENCE_SYSTEMS = (
    # (system, features, detection rate %, false alarm %, train s, test s)
    ("IIDS", 24, 90.96, 2.06, 135.37, 0.29),
    ("GHIDS", 41, 97.65, 3.85, 1229.0, 73.45),
    ("NHIDS", 4, 95.37, 2.24, 0.09, 0.01),
    ("ACO-SVM", 25, 98.38, 0.004, 28.01, 1.44),
    ("GA-SVM", 10, 97.3, 0.02, 68.84, 11.69),
    ("IWD-IDS", 9, 99.41, 1.41, 69.21, 2.76),
    ("MCFA", 19, 94.74, 2.52, 0.84, 1.74),
    ("FCL-IDS", 25, 99.16, 0.74, 58.55, 0.08),
    ("I-NSGA-III", 20, 99.37, 0.06, 30.2, 1.06),
    ("KBIDS", 13, 97.85, 1.87, 84.3, 3.83),
)


def render_metrics_table(report: MetricsReport, title: str = "evaluation") -> str:
    lines = [f"== {title} =="]
    lines.append(f"records            {report.n_records}")
    lines.append(f"attacks            {report.n_attacks}")
    lines.append(f"normals            {report.n_normals}")
    lines.append(f"detection rate     {report.detection_rate:.2f}%")
    lines.append(f"false alarm rate   {report.false_alarm_rate:.2f}%")
    lines.append(f"multiclass acc     {report.multiclass_accuracy:.2f}%")
    for tag in CLASS_TAGS:
        lines.append(
            f"class {tag:<8} recall {report.per_class_recall[tag]:6.2f}%  "
            f"precision {report.per_class_precision[tag]:6.2f}%"
        )
    return "\n".join(lines) + "\n"


def render_split_table(manifest_per_class: dict, title: str = "split") -> str:
    """Category/samples/ratio table in the shape of the preprocessing census."""
    lines = [f"== {title} ==", "category\tavailable\ttrain\ttrain_pct\ttest\ttest_pct"]
    tot_train = sum(r["train"] for r in manifest_per_class.values())
    tot_test = sum(r["test"] for r in manifest_per_class.values())
    for tag, row in manifest_per_class.items():
        tr_pct = 100.0 * row["train"] / tot_train if tot_train else 0.0
        te_pct = 100.0 * row["test"] / tot_test if tot_test else 0.0
        lines.append(
            f"{tag}\t{row['available']}\t{row['train']}\t{tr_pct:.2f}\t{row['test']}\t{te_pct:.2f}"
        )
    lines.append(f"total\t-\t{tot_train}\t100.00\t{tot_test}\t100.00")
    return "\n".join(lines) + "\n"


def emit_report(
    outdir,
    report: MetricsReport | None = None,
    confusion: ConfusionMatrix | None = None,
    split_per_class: dict | None = None,
    rank_scores=None,
    system_label: str = "this-run",
) -> list[str]:
    """Write the report bundle into `outdir`; returns the written paths.

    Deterministic content and timings are kept apart: metrics.json and the
    plot files never contain wall-clock numbers, timings go to timings.txt.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def put(name: str, text: str):
        p = outdir / name
        artifact.write_text(p, text)
        written.append(str(p))

    sections = []
    if split_per_class:
        sections.append(render_split_table(split_per_class))
    if report is not None:
        sections.append(render_metrics_table(report))
    if confusion is not None:
        sections.append("== confusion ==\n" + confusion.to_tsv())
    put("report.txt", "\n".join(sections) if sections else "== empty ==\n")

    if report is not None:
        put("metrics.json", artifact.json_text(report.to_json_obj()))
        timing_lines = []
        if report.train_time_s is not None:
            timing_lines.append(f"timing train_s {report.train_time_s:.6f}")
        if report.test_time_s is not None:
            timing_lines.append(f"timing test_s {report.test_time_s:.6f}")
        if timing_lines:  # a report re-rendered from metrics.json has no times
            put("timings.txt", "".join(ln + "\n" for ln in timing_lines))

        def bars(value_of):
            rows = ["system\tfeatures\tvalue\tsource"]
            for name, feats, dr, far, tr, te in REFERENCE_SYSTEMS:
                rows.append(f"{name}\t{feats}\t{value_of(dr, far, tr, te)!r}\tpublished")
            return rows

        dr_rows = bars(lambda dr, far, tr, te: dr)
        dr_rows.append(f"{system_label}\t-\t{report.detection_rate!r}\tmeasured")
        put("detection_rate_bars.tsv", "\n".join(dr_rows) + "\n")
        far_rows = bars(lambda dr, far, tr, te: far)
        far_rows.append(f"{system_label}\t-\t{report.false_alarm_rate!r}\tmeasured")
        put("false_alarm_bars.tsv", "\n".join(far_rows) + "\n")
        te_rows = bars(lambda dr, far, tr, te: te)
        # measured test time lives in timings.txt; the plot file stays deterministic
        put("test_time_bars.tsv", "\n".join(te_rows) + "\n")

    if rank_scores is not None:
        put("rank_curve.tsv", ranking.rank_table(rank_scores))

    if confusion is not None:
        put("confusion.tsv", confusion.to_tsv())
    return written

"""Evaluation: five-class confusion matrices, the binary detection/false-alarm
rates derived from them, timing capture, and deterministic report emission
(text tables, JSON metrics, tab-separated plot data). The report is built
from the model's predictions on the test split alone.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from . import artifact
from .errors import EmptyTestSet
from .kdd import AttackClass, Dataset, N_CLASSES

CLASS_TAGS = tuple(c.tag for c in AttackClass)
CONFUSION_HEADER = "actual\\predicted\t" + "\t".join(CLASS_TAGS)
BARS_HEADER = "system\tfeatures\tvalue\tsource"


class ConfusionMatrix:
    """counts[actual, predicted] over the five classes."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts

    @classmethod
    def from_predictions(cls, actual, predicted) -> "ConfusionMatrix":
        actual = np.asarray(actual, dtype=np.int64)
        predicted = np.asarray(predicted, dtype=np.int64)
        counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
        np.add.at(counts, (actual, predicted), 1)
        return cls(counts)

    def to_tsv(self) -> str:
        rows = ([tag, *map(str, counts)] for tag, counts in zip(CLASS_TAGS, self.counts.tolist()))
        return "".join(artifact.table_text(CONFUSION_HEADER, rows))


def _pct(num: int, den: int) -> float:
    # int / int is correctly rounded: the float nearest the exact percentage
    return 100 * num / den if den else 0.0


def metrics_from_confusion(cm: ConfusionMatrix) -> dict:
    """The metrics.json of the matrix: binary attack-vs-normal rates plus the
    five-class view, all recomputed from the matrix alone (integer
    arithmetic).

    The detection rate counts an attack as detected whenever it is predicted
    as ANY non-normal class, even the wrong one; the multiclass accuracy is
    the stricter diagonal rate. Both are percentages in [0, 100].
    """
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
    return {
        "detection_rate_pct": _pct(detected, n_attacks),
        "false_alarm_rate_pct": _pct(false_alarms, n_normals),
        "multiclass_accuracy_pct": _pct(correct, n_records),
        "n_records": n_records,
        "n_attacks": n_attacks,
        "n_normals": n_normals,
        "n_detected_attacks": detected,
        "n_false_alarms": false_alarms,
        "per_class_recall_pct": recall,
        "per_class_precision_pct": precision,
    }


def evaluate(model, test: Dataset) -> tuple[ConfusionMatrix, float]:
    """The confusion table of the model on the test split, and the seconds
    its predictions took."""
    if len(test) == 0:
        raise EmptyTestSet("test split has no records")
    if (test.class_codes < 0).any():
        raise EmptyTestSet("test split contains unlabeled records")
    t0 = time.perf_counter()
    predicted = model.predict_dataset(test)
    elapsed = time.perf_counter() - t0
    return ConfusionMatrix.from_predictions(test.class_codes, predicted), elapsed


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


def render_metrics_table(metrics: dict) -> str:
    lines = ["== evaluation =="]
    lines.append(f"records            {metrics['n_records']}")
    lines.append(f"attacks            {metrics['n_attacks']}")
    lines.append(f"normals            {metrics['n_normals']}")
    lines.append(f"detection rate     {metrics['detection_rate_pct']:.2f}%")
    lines.append(f"false alarm rate   {metrics['false_alarm_rate_pct']:.2f}%")
    lines.append(f"multiclass acc     {metrics['multiclass_accuracy_pct']:.2f}%")
    for tag in CLASS_TAGS:
        lines.append(
            f"class {tag:<8} recall {metrics['per_class_recall_pct'][tag]:6.2f}%  "
            f"precision {metrics['per_class_precision_pct'][tag]:6.2f}%"
        )
    return "\n".join(lines) + "\n"


def emit_report(outdir, confusion: ConfusionMatrix, test_s: float) -> tuple[dict, list[str]]:
    """Write the report bundle into `outdir`; returns the metrics.json dict
    and the written paths.

    Every metric is derived from `confusion`, so the files cannot disagree;
    no other run record is read. Deterministic content and timings are kept
    apart: report.txt, metrics.json and the plot files never contain
    wall-clock numbers, and the measured `test_s` goes to timings.txt.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def put(name: str, text):
        p = outdir / name
        artifact.write_text(p, text)
        written.append(str(p))

    metrics = metrics_from_confusion(confusion)
    table = confusion.to_tsv()
    put("report.txt", render_metrics_table(metrics) + "\n== confusion ==\n" + table)
    put("metrics.json", artifact.json_text(metrics))
    put("timings.txt", f"timing test_s {test_s:.6f}\n")

    def bars(name: str, column: int, measured=()):
        rows = [(system, str(feats), repr(values[column]), "published")
                for system, feats, *values in REFERENCE_SYSTEMS]
        rows += [("this-run", "-", repr(value), "measured") for value in measured]
        put(name, artifact.table_text(BARS_HEADER, rows))

    bars("detection_rate_bars.tsv", 0, [metrics["detection_rate_pct"]])
    bars("false_alarm_bars.tsv", 1, [metrics["false_alarm_rate_pct"]])
    # measured test time lives in timings.txt; the plot file stays deterministic
    bars("test_time_bars.tsv", 3)
    put("confusion.tsv", table)
    return metrics, written

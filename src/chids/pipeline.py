"""Two-stage composition: anomaly verdicts gate which records reach the
misuse classifier; a decision policy settles flagged records the classifier
calls normal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anomaly import filter_packets
from . import artifact
from .kdd import AttackClass, Dataset

STAGE_ANOMALY = "anomaly"
STAGE_MISUSE = "misuse"
STAGE_DECISION = "decision"

PASSED_NORMAL = "passed_normal"
CLASSIFIED_ATTACK = "classified_attack"
CLASSIFIED_NORMAL = "classified_normal"
UNRESOLVED_ALERT = "unresolved_alert"

POLICY_ALERT_UNRESOLVED = "alert_unresolved"
POLICY_TRUST_MISUSE = "trust_misuse"
POLICIES = (POLICY_ALERT_UNRESOLVED, POLICY_TRUST_MISUSE)


@dataclass(frozen=True)
class Disposition:
    record_index: int
    outcome: str
    stage: str
    attack_class: AttackClass | None = None


@dataclass(frozen=True)
class PipelineConfig:
    policy: str = POLICY_ALERT_UNRESOLVED
    alert_sink: str = "alerts.log"  # file name (or path) emit_alerts writes to

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")


@dataclass(frozen=True)
class PipelineRun:
    dispositions: tuple[Disposition, ...]
    misuse_invocations: int


def run_pipeline(
    records: Dataset,
    flagged,
    model,
    cfg: PipelineConfig | None = None,
) -> PipelineRun:
    """Dispose of every record exactly once.

    Unflagged records pass at the anomaly stage without touching the model.
    Flagged records are classified; a non-normal prediction is an attributed
    attack, a normal prediction falls to the decision policy (alert by
    default, clear under trust_misuse). `misuse_invocations` counts records
    actually classified.
    """
    cfg = cfg or PipelineConfig()
    n = len(records)
    flagged = {int(i) for i in flagged}
    if flagged and (min(flagged) < 0 or max(flagged) >= n):
        raise ValueError("flagged index out of range")
    passed, flagged_idx = filter_packets(range(n), flagged)
    dispositions: list[Disposition | None] = [None] * n

    for i in passed:
        dispositions[i] = Disposition(i, PASSED_NORMAL, STAGE_ANOMALY)

    if flagged_idx:
        subset = records.take(np.array(flagged_idx, dtype=np.int64))
        predicted = model.predict_dataset(subset)
        for j, i in enumerate(flagged_idx):
            klass = AttackClass(int(predicted[j]))
            if klass != AttackClass.NORMAL:
                dispositions[i] = Disposition(i, CLASSIFIED_ATTACK, STAGE_MISUSE, klass)
            elif cfg.policy == POLICY_TRUST_MISUSE:
                dispositions[i] = Disposition(i, CLASSIFIED_NORMAL, STAGE_DECISION)
            else:
                dispositions[i] = Disposition(i, UNRESOLVED_ALERT, STAGE_DECISION)

    return PipelineRun(tuple(dispositions), len(flagged_idx))


def emit_alerts(dispositions, sink) -> int:
    """Write one structured line per attack or unresolved alert; returns the
    alert count. `sink` is a path or a writable file object."""
    lines = []
    for d in dispositions:
        if d.outcome == CLASSIFIED_ATTACK:
            lines.append(
                f"alert\trecord={d.record_index}\tstage={d.stage}\t"
                f"outcome={d.outcome}\tclass={d.attack_class.tag}"
            )
        elif d.outcome == UNRESOLVED_ALERT:
            lines.append(
                f"alert\trecord={d.record_index}\tstage={d.stage}\toutcome={d.outcome}\tclass=-"
            )
    text = "".join(ln + "\n" for ln in lines)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        artifact.write_text(sink, text)
    return len(lines)


def write_dispositions(dispositions, path) -> None:
    with artifact.open_text(path, "w") as fh:
        fh.write("#chids-dispositions v1\n")
        fh.write("record\toutcome\tstage\tclass\n")
        for d in dispositions:
            tag = d.attack_class.tag if d.attack_class is not None else "-"
            fh.write(f"{d.record_index}\t{d.outcome}\t{d.stage}\t{tag}\n")

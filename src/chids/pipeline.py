"""Two-stage composition: anomaly verdicts gate which records reach the
misuse classifier; a decision policy settles flagged records the classifier
calls normal.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import artifact
from .kdd import AttackClass, Dataset
from .sections import POLICY_TRUST_MISUSE, PipelineConfig

STAGE_ANOMALY = "anomaly"
STAGE_MISUSE = "misuse"
STAGE_DECISION = "decision"

PASSED_NORMAL = "passed_normal"
CLASSIFIED_ATTACK = "classified_attack"
CLASSIFIED_NORMAL = "classified_normal"
UNRESOLVED_ALERT = "unresolved_alert"

# Each outcome belongs to exactly one stage.
OUTCOMES = (PASSED_NORMAL, CLASSIFIED_ATTACK, CLASSIFIED_NORMAL, UNRESOLVED_ALERT)
OUTCOME_STAGE = (STAGE_ANOMALY, STAGE_MISUSE, STAGE_DECISION, STAGE_DECISION)
_ALERTS = (OUTCOMES.index(CLASSIFIED_ATTACK), OUTCOMES.index(UNRESOLVED_ALERT))
# class tag by AttackClass value; -1 (no class) picks the last entry
_CLASS_TAG = tuple(c.tag for c in AttackClass) + ("-",)
DISPOSITIONS_MAGIC = "#chids-dispositions v1"
DISPOSITIONS_HEADER = "record\toutcome\tstage\tclass"


class PipelineRun(NamedTuple):
    """Every record's disposition as columns: `outcome` indexes OUTCOMES,
    `attack_class` is the AttackClass of a classified attack and -1 for
    every other record."""

    outcome: np.ndarray
    attack_class: np.ndarray
    misuse_invocations: int


def run_pipeline(
    records: Dataset,
    flagged: np.ndarray,
    model,
    cfg: PipelineConfig | None = None,
    rows: np.ndarray | None = None,
) -> PipelineRun:
    """Dispose of every record exactly once.

    `flagged` is the anomaly stage's verdict: one bool per record. Unflagged
    records pass at the anomaly stage without touching the model. Flagged
    records are classified; a non-normal prediction is an attributed attack,
    a normal prediction falls to the decision policy (alert by default, clear
    under trust_misuse). `misuse_invocations` counts the flagged records.

    `rows`, for records read from raw lines, gives each line's row of
    `records`, which then holds one row per distinct line text: the lines
    are the records, and the model sees each row a flagged line names once.
    """
    cfg = cfg or PipelineConfig()
    n = len(records) if rows is None else len(rows)
    flagged = np.asarray(flagged)
    if flagged.dtype != bool or flagged.shape != (n,):
        raise ValueError(f"flagged must be {n} bools, got {flagged.dtype} {flagged.shape}")
    idx = np.flatnonzero(flagged)
    outcome = np.full(n, OUTCOMES.index(PASSED_NORMAL), dtype=np.int8)
    attack_class = np.full(n, -1, dtype=np.int8)

    if idx.size:
        flagged_rows = idx if rows is None else rows[idx]
        used = np.zeros(len(records), dtype=bool)
        used[flagged_rows] = True
        if used.all():  # every row flagged (detect.mode=all): predict the records without a copy
            by_row = model.predict_dataset(records)
        else:
            by_row = np.full(len(records), -1, dtype=np.int8)
            by_row[used] = model.predict_dataset(records.take(np.flatnonzero(used)))
        predicted = by_row[flagged_rows]
        attack = predicted != AttackClass.NORMAL
        cleared = CLASSIFIED_NORMAL if cfg.policy == POLICY_TRUST_MISUSE else UNRESOLVED_ALERT
        outcome[idx] = np.where(attack, OUTCOMES.index(CLASSIFIED_ATTACK), OUTCOMES.index(cleared))
        attack_class[idx[attack]] = predicted[attack]

    return PipelineRun(outcome, attack_class, idx.size)


def _blocks(run: PipelineRun, idx: np.ndarray):
    """The record, outcome, stage and class tag columns of the records `idx`,
    artifact.BLOCK_ROWS records at a time."""
    for start in range(0, len(idx), artifact.BLOCK_ROWS):
        part = idx[start:start + artifact.BLOCK_ROWS]
        outcome, classes = run.outcome[part].tolist(), run.attack_class[part].tolist()
        yield (list(map(str, part.tolist())), [OUTCOMES[o] for o in outcome],
               [OUTCOME_STAGE[o] for o in outcome], [_CLASS_TAG[c] for c in classes])


def emit_alerts(run: PipelineRun, path) -> int:
    """Write one structured line per attack or unresolved alert to `path`,
    a block of records at a time; returns the alert count."""
    alerts = np.flatnonzero(np.isin(run.outcome, _ALERTS))
    artifact.write_text(path, (
        "".join([f"alert\trecord={i}\tstage={stage}\toutcome={outcome}\tclass={tag}\n"
                 for i, outcome, stage, tag in zip(*columns)])
        for columns in _blocks(run, alerts)
    ))
    return len(alerts)


def write_dispositions(run: PipelineRun, path) -> None:
    """Write every record's disposition to `path`, a block of records at a
    time."""
    rows = (row for columns in _blocks(run, np.arange(len(run.outcome))) for row in zip(*columns))
    artifact.write_text(path, artifact.table_text(DISPOSITIONS_HEADER, rows, DISPOSITIONS_MAGIC))

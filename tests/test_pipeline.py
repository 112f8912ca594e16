import random
import tracemalloc

import numpy as np
import pytest

from oracles import alerts_text_oracle, dispositions_text_oracle
from chids.artifact import BLOCK_ROWS
from chids.kdd import AttackClass, Dataset, FeatureSchema, KddRecord
from chids.learner import MajorityModel, train_part
from chids.pipeline import (
    CLASSIFIED_ATTACK,
    CLASSIFIED_NORMAL,
    OUTCOME_STAGE,
    OUTCOMES,
    PASSED_NORMAL,
    POLICY_TRUST_MISUSE,
    STAGE_ANOMALY,
    STAGE_DECISION,
    STAGE_MISUSE,
    UNRESOLVED_ALERT,
    PipelineConfig,
    PipelineRun,
    emit_alerts,
    run_pipeline,
    write_dispositions,
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
    schema = FeatureSchema([("x", "numeric")])
    xs = xs if xs is not None else list(range(len(classes)))
    records = [KddRecord((float(x),), LABELS[c]) for x, c in zip(xs, classes)]
    return Dataset.from_records(records, schema)


def mask(n, flagged) -> np.ndarray:
    m = np.zeros(n, dtype=bool)
    m[list(flagged)] = True
    return m


def outcomes(run) -> list[str]:
    return [OUTCOMES[o] for o in run.outcome]


def stages(run) -> list[str]:
    return [OUTCOME_STAGE[o] for o in run.outcome]


def separable_model():
    # x < 10 -> normal, x >= 10 -> dos
    classes = [0] * 10 + [1] * 10
    return train_part(labeled_ds(classes))


class TestRunPipeline:
    def test_every_record_flagged_is_predicted_without_a_copy(self):
        # detect.mode=all flags every record: the model reads the records as
        # they are, and the pipeline allocates its own columns only
        n = 20_000
        schema = FeatureSchema.default()
        ds = Dataset(schema, np.zeros((n, len(schema.numeric_names))),
                     np.zeros((n, len(schema.nominal_names)), dtype=np.int32),
                     np.array(["normal"] * n, dtype=object), np.zeros(n, dtype=np.int32))
        tracemalloc.start()
        try:
            run = run_pipeline(ds, np.ones(n, dtype=bool), MajorityModel(AttackClass.DOS, schema.features))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.misuse_invocations == n
        assert peak < (ds.numeric.nbytes + ds.nominal.nbytes) / 4

    def test_zero_flagged_never_invokes_model(self):
        ds = labeled_ds([0] * 8)
        counting = CountingModel(separable_model())
        run = run_pipeline(ds, np.zeros(8, dtype=bool), counting)
        assert counting.records_seen == 0
        assert run.misuse_invocations == 0
        assert outcomes(run) == [PASSED_NORMAL] * 8 and stages(run) == [STAGE_ANOMALY] * 8
        assert run.attack_class.tolist() == [-1] * 8

    def test_flagged_attack_classified(self):
        ds = labeled_ds([1], xs=[15])
        run = run_pipeline(ds, mask(1, {0}), separable_model())
        assert outcomes(run) == [CLASSIFIED_ATTACK]
        assert stages(run) == [STAGE_MISUSE]
        assert run.attack_class.tolist() == [AttackClass.DOS]

    def test_flagged_normal_default_policy_alerts(self):
        ds = labeled_ds([0], xs=[2])
        run = run_pipeline(ds, mask(1, {0}), separable_model())
        assert outcomes(run) == [UNRESOLVED_ALERT] and stages(run) == [STAGE_DECISION]
        assert run.attack_class.tolist() == [-1]

    def test_flagged_normal_trust_policy_clears(self):
        ds = labeled_ds([0], xs=[2])
        run = run_pipeline(ds, mask(1, {0}), separable_model(), PipelineConfig(POLICY_TRUST_MISUSE))
        assert outcomes(run) == [CLASSIFIED_NORMAL] and stages(run) == [STAGE_DECISION]
        assert run.attack_class.tolist() == [-1]

    def test_invocations_equal_flagged_count(self):
        rng = random.Random(5)
        classes = [rng.choice([0, 1]) for _ in range(100)]
        xs = [rng.uniform(0, 9) if c == 0 else rng.uniform(10, 20) for c in classes]
        ds = labeled_ds(classes, xs)
        flagged = {i for i in range(100) if rng.random() < 0.25}
        counting = CountingModel(separable_model())
        run = run_pipeline(ds, mask(100, flagged), counting)
        assert counting.records_seen == len(flagged)
        assert run.misuse_invocations == len(flagged)

    def test_partition_exhaustive_disjoint(self):
        rng = random.Random(6)
        classes = [rng.choice([0, 1]) for _ in range(60)]
        ds = labeled_ds(classes)
        flagged = {i for i in range(60) if rng.random() < 0.5}
        run = run_pipeline(ds, mask(60, flagged), separable_model())
        assert len(run.outcome) == len(run.attack_class) == 60
        for i, outcome in enumerate(outcomes(run)):
            if i in flagged:
                assert outcome in (CLASSIFIED_ATTACK, UNRESOLVED_ALERT)
            else:
                assert outcome == PASSED_NORMAL

    def test_perfect_filter_composition_identity(self):
        # flagging exactly the true attacks makes end-to-end detection equal
        # the classifier's detection rate on attacks
        rng = random.Random(7)
        classes = [rng.choice([0, 1]) for _ in range(200)]
        xs = [rng.uniform(0, 9) if c == 0 else rng.uniform(10, 20) for c in classes]
        ds = labeled_ds(classes, xs)
        model = separable_model()
        attacks = {i for i, c in enumerate(classes) if c != 0}
        run = run_pipeline(ds, mask(200, attacks), model)
        end_to_end_detected = outcomes(run).count(CLASSIFIED_ATTACK)
        direct = model.predict_dataset(ds.take(sorted(attacks)))
        assert end_to_end_detected == int((direct != 0).sum())

    def test_out_of_range_flag_rejected(self):
        # the mask holds one bool per record; indices are not a mask
        ds = labeled_ds([0, 0])
        for flagged in ({5}, [True], [True, False, False], np.array([0, 1]), np.ones((2, 1), bool)):
            with pytest.raises(ValueError):
                run_pipeline(ds, flagged, separable_model())


class TestEmitAlerts:
    def run_mixed(self):
        ds = labeled_ds([0, 1, 1, 0, 1], xs=[2, 15, 16, 3, 17])
        return run_pipeline(ds, mask(5, {0, 1, 2, 4}), separable_model())

    def test_all_passed_empty_log(self, tmp_path):
        ds = labeled_ds([0] * 4)
        run = run_pipeline(ds, np.zeros(4, dtype=bool), separable_model())
        sink = tmp_path / "alerts.log"
        assert emit_alerts(run, sink) == 0
        assert sink.read_text() == ""

    def test_alert_count_matches_recount(self, tmp_path):
        run = self.run_mixed()
        sink = tmp_path / "alerts.log"
        n = emit_alerts(run, sink)
        recount = sum(1 for o in outcomes(run) if o in (CLASSIFIED_ATTACK, UNRESOLVED_ALERT))
        assert n == recount == 4  # 3 attacks + 1 unresolved (record 0 is normal)
        assert len(sink.read_text().splitlines()) == n

    def test_alert_lines_carry_stage_and_class(self, tmp_path):
        run = self.run_mixed()
        sink = tmp_path / "alerts.log"
        emit_alerts(run, sink)
        lines = sink.read_text().splitlines()
        assert any("class=dos" in ln and "stage=misuse" in ln for ln in lines)
        assert any("outcome=unresolved_alert" in ln for ln in lines)


def random_run(n, seed, kinds=OUTCOMES) -> PipelineRun:
    """A run of `n` records with outcomes drawn from `kinds`; each classified
    attack gets a random attack class."""
    rng = np.random.default_rng(seed)
    outcome = np.array([OUTCOMES.index(k) for k in kinds], dtype=np.int8)[rng.integers(0, len(kinds), n)]
    attack = outcome == OUTCOMES.index(CLASSIFIED_ATTACK)
    attack_class = np.where(attack, rng.integers(1, len(AttackClass), n), -1).astype(np.int8)
    return PipelineRun(outcome, attack_class, int(attack.sum()))


class TestBlockWriters:
    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    def test_bytes_match_the_whole_file_reference(self, tmp_path, n):
        # every record of the alert run is an alert, so the alert log has
        # exactly n lines
        alert_run = random_run(n, seed=n, kinds=(CLASSIFIED_ATTACK, UNRESOLVED_ALERT))
        assert emit_alerts(alert_run, tmp_path / "alerts.log") == n
        assert (tmp_path / "alerts.log").read_bytes() == alerts_text_oracle(alert_run).encode()
        run = random_run(n, seed=n + 1)
        write_dispositions(run, tmp_path / "dispositions.tsv")
        assert (tmp_path / "dispositions.tsv").read_bytes() == dispositions_text_oracle(run).encode()

    @pytest.mark.parametrize("write", [emit_alerts, write_dispositions])
    def test_memory_stays_flat_in_the_record_count(self, tmp_path, write):
        # 100k records, half of them alerts: the whole file as one string
        # would take about 4 MB
        run = random_run(100_000, seed=1)
        tracemalloc.start()
        try:
            write(run, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

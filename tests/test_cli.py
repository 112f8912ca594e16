import gzip
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from chids.cli import main

SPLIT_OVERRIDES = [
    "--set", "split.train_size=1200",
    "--set", "split.test_size=600",
]


def run_cli(args, capsys) -> tuple[int, str, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, synth_corpus_path):
    """One preprocessed+trained artifact directory shared by the read-only tests."""
    out = tmp_path_factory.mktemp("run")
    code = main(
        ["preprocess", "--dataset", str(synth_corpus_path), "--out", str(out), "--seed", "3"]
        + SPLIT_OVERRIDES
    )
    assert code == 0
    code = main(["train", "--out", str(out), "--seed", "3"])
    assert code == 0
    return out


class TestPreprocess:
    def test_artifacts_exist(self, workdir):
        for name in (
            "train.cache", "test.cache", "train_full.cache", "test_full.cache",
            "manifest.txt", "manifest.json", "transform.json",
            "rank_igr_full.tsv", "rank_selected.tsv",
        ):
            assert (workdir / name).exists(), name

    def test_manifest_reports_counts(self, workdir):
        text = (workdir / "manifest.txt").read_text()
        assert "dedupe.input" in text and "split.seed = 3" in text
        obj = json.loads((workdir / "manifest.json").read_text())
        per_class = obj["split"]["per_class"]
        assert sum(r["train"] for r in per_class.values()) == 1200
        assert sum(r["test"] for r in per_class.values()) == 600

    def test_transform_lists_selected_features(self, workdir):
        obj = json.loads((workdir / "transform.json").read_text())
        assert len(obj["selected"]) == 4
        assert len(obj["prune"]) == 6

    def test_missing_dataset_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["preprocess", "--dataset", str(tmp_path / "nope.kdd"), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 3
        assert "nope.kdd" in err

    def test_no_dataset_config_error(self, tmp_path, capsys):
        code, _, _ = run_cli(["preprocess", "--out", str(tmp_path / "o")], capsys)
        assert code == 2


class TestTrainEvaluate:
    def test_model_written(self, workdir):
        assert (workdir / "model.txt").exists()
        assert (workdir / "model.txt").read_text().startswith("#chids-model v1")

    def test_evaluate_reports(self, workdir, capsys):
        code, out, err = run_cli(["evaluate", "--out", str(workdir)], capsys)
        assert code == 0
        rep = workdir / "report"
        assert (rep / "metrics.json").exists()
        obj = json.loads((rep / "metrics.json").read_text())
        # the synthetic classes are nearly separable on the selected features
        assert obj["detection_rate_pct"] > 95.0
        assert obj["false_alarm_rate_pct"] < 5.0

    def test_train_without_cache_is_missing_artifact(self, tmp_path, capsys):
        code, _, err = run_cli(["train", "--out", str(tmp_path / "fresh")], capsys)
        assert code == 5
        assert "chids preprocess" in err

    def test_evaluate_without_model_hints_train(self, tmp_path, capsys):
        code, _, err = run_cli(["evaluate", "--out", str(tmp_path / "fresh2")], capsys)
        assert code == 5
        assert "chids train" in err


class TestSimulateDetect:
    def test_simulate_benign_zero_verdicts(self, workdir, capsys):
        code, out, _ = run_cli(["simulate", "--scenario", "benign", "--out", str(workdir)], capsys)
        assert code == 0
        verdicts = (workdir / "verdicts_benign.tsv").read_text().splitlines()
        assert len(verdicts) == 2  # magic + header only

    def test_simulate_attack_has_verdicts(self, workdir, capsys):
        code, _, _ = run_cli(["simulate", "--scenario", "jamming", "--out", str(workdir)], capsys)
        assert code == 0
        verdicts = (workdir / "verdicts_jamming.tsv").read_text().splitlines()
        assert len(verdicts) > 2

    def test_detect_flag_all_and_none(self, workdir, synth_corpus_path, capsys):
        sample = workdir / "sample.kdd"
        lines = Path(synth_corpus_path).read_text().splitlines()[:100]
        sample.write_text("\n".join(lines) + "\n")
        code, _, _ = run_cli(["detect", "--input", str(sample), "--out", str(workdir)], capsys)
        assert code == 0
        summary = (workdir / "detect_summary.txt").read_text()
        assert "flagged = 100" in summary and "misuse_invocations = 100" in summary
        code, _, _ = run_cli(
            ["detect", "--input", str(sample), "--out", str(workdir), "--set", "detect.mode=none"],
            capsys,
        )
        summary = (workdir / "detect_summary.txt").read_text()
        assert "flagged = 0" in summary and "misuse_invocations = 0" in summary
        assert "verdicts." not in summary  # per-rule counts are stream-mode only
        assert (workdir / "alerts.log").read_text() == ""

    def test_detect_stream_flags_only_verdict_records(self, workdir, synth_corpus_path, capsys):
        # stream whose events align 1:1 with the first 100 records; one
        # hello-flood burst yields a handful of flagged positions
        from chids.anomaly import RULE_IDS, AnomalyEvent, RuleConfig, evaluate_stream, write_stream

        events = []
        t = 0.0
        for k in range(100):
            t += 2.0 if k % 10 else 0.05  # every 10th event arrives too fast
            events.append(AnomalyEvent(t, "s1", "n1", "reception", f"m{k}", "d", -60.0))
        stream_path = workdir / "aligned.tsv"
        write_stream(events, stream_path)
        verdicts = evaluate_stream(events, RuleConfig())
        expect_flagged = {v.event_index for v in verdicts}
        assert 0 < len(expect_flagged) < 100
        per_rule = [sum(v.rule == r for v in verdicts) for r in RULE_IDS]
        assert per_rule[RULE_IDS.index("interval")] > 0 and 0 in per_rule

        sample = workdir / "sample.kdd"
        lines = Path(synth_corpus_path).read_text().splitlines()[:100]
        sample.write_text("\n".join(lines) + "\n")
        code, _, _ = run_cli(
            ["detect", "--input", str(sample), "--events", str(stream_path), "--out", str(workdir)],
            capsys,
        )
        assert code == 0
        summary = (workdir / "detect_summary.txt").read_text()
        assert f"flagged = {len(expect_flagged)}" in summary
        assert f"misuse_invocations = {len(expect_flagged)}" in summary
        # all seven rules in RULE_IDS order, zeros included, at the end
        expect_lines = [f"verdicts.{r} = {n}" for r, n in zip(RULE_IDS, per_rule)]
        assert summary.splitlines()[-len(RULE_IDS):] == expect_lines

    # Seed-0 verdict files pinned byte for byte: expired forwards must keep
    # their (ts, event index) order, which set-based checks cannot see.
    SIMULATE_SEED0_SHA256 = {
        "benign": "adc33e43f605d5affe6e7cdddda06077d896ec7c36989ebbc8d8f95069ad5f8f",
        "hello-flood": "cb714738e6ec67e5088d785f0318bdeaaab6a46792f0f2a6edfc0c1f3c5cdd19",
        "selective-forwarding": "b216cb4d92d46123baed47187b7e32c7d30a6233931fe0023b136192243f6050",
        "sinkhole": "beaeb85aa4277f1707873b4b2f06f9bb918f205f2ea22a725c07478669ead00b",
        "modification": "b06505335e2d5df84330f1ae13a3cd2b24ee6e9932a5380e72d8d688ce2bbe0c",
        "replay": "1152bf465feea8c50e801f1a0370fa6b1faf7109925945dfdab46bc6aa6b5c00",
        "sybil": "6937d52bfa29c96afd74a520e8c606fe66ffe3165f03f5d18d3254a8f82a04f6",
        "jamming": "4d4537e7a73b7b1e2172c136d8cc7286c5e8cbb8bc8cc69b1dbd9e1d2c4e1bcb",
    }

    def test_simulate_verdict_bytes_stable(self, tmp_path, capsys):
        from chids.anomaly import SCENARIOS

        assert set(self.SIMULATE_SEED0_SHA256) == set(SCENARIOS)
        for scenario, expect in self.SIMULATE_SEED0_SHA256.items():
            code, _, _ = run_cli(
                ["simulate", "--scenario", scenario, "--seed", "0", "--out", str(tmp_path)], capsys
            )
            assert code == 0
            got = hashlib.sha256((tmp_path / f"verdicts_{scenario}.tsv").read_bytes()).hexdigest()
            assert got == expect, scenario

    @pytest.mark.parametrize(
        "row",
        [
            "nan\ts1\tn1\treception\tm1\td\t-60.0",
            "3.0\ts1\tn1\treception\tm1\td\tnan",
            "3.0\ts1\tn1\treception\tm1\td",
            "3.0\ts1\tn1\treception\tm1\td\t-60.0\textra",
            "soon\ts1\tn1\treception\tm1\td\t-60.0",
            "3.0\ts1\tn1\treception\tm1\td\tloud",
            "# 2.0\ts1\tn1\treception\tm1\td\t-60.0",
        ],
        ids=["nan-ts", "nan-rssi", "6-columns", "8-columns", "text-ts", "text-rssi",
             "commented-out"],
    )
    def test_detect_malformed_stream_exit_4(
        self, workdir, synth_corpus_path, tmp_path, row, capsys
    ):
        from chids.anomaly import STREAM_MAGIC

        stream_path = tmp_path / "bad.tsv"
        stream_path.write_text(
            f"{STREAM_MAGIC}\nts\tsource\tneighbor\tkind\tmsg_id\tdigest\trssi\n"
            f"1.0\ts0\tn0\treception\tm0\td\t-60.0\n{row}\n"
        )
        sample = tmp_path / "sample.kdd"
        sample.write_text("\n".join(Path(synth_corpus_path).read_text().splitlines()[:10]) + "\n")
        code, _, err = run_cli(
            ["detect", "--input", str(sample), "--events", str(stream_path), "--out", str(workdir)],
            capsys,
        )
        assert code == 4
        assert "Traceback" not in err and len(err.splitlines()) == 1


    def test_detect_stream_without_header_row_exit_4(self, workdir, tmp_path, capsys):
        from chids.anomaly import STREAM_MAGIC

        stream_path = tmp_path / "headless.tsv"
        stream_path.write_text(
            f"{STREAM_MAGIC}\n1.0\ts0\tn0\treception\tm0\td\t-60.0\n"
            "2.0\ts0\tn0\treception\tm1\td\t-60.0\n"
        )
        code, _, err = run_cli(
            ["detect", "--input", str(workdir / "test.cache"), "--events", str(stream_path),
             "--out", str(workdir)],
            capsys,
        )
        assert code == 4
        assert "line 2" in err and len(err.splitlines()) == 1


def _detect_dir(workdir: Path, tmp_path: Path) -> Path:
    """A fresh output directory holding only what detect needs."""
    out = tmp_path / "det"
    out.mkdir()
    for name in ("model.txt", "transform.json"):
        shutil.copy(workdir / name, out / name)
    return out


def _summary(out: Path) -> dict:
    lines = (out / "detect_summary.txt").read_text().splitlines()[1:]
    return {k: int(v) for k, v in (ln.split(" = ") for ln in lines)}


class TestDetectInput:
    def test_gzipped_raw_input(self, workdir, synth_corpus_path, tmp_path, capsys):
        plain = _detect_dir(workdir, tmp_path)
        assert main(["detect", "--input", str(synth_corpus_path), "--out", str(plain)]) == 0
        packed = tmp_path / "synth.kdd.gz"
        with gzip.open(packed, "wb") as fh:
            fh.write(Path(synth_corpus_path).read_bytes())
        zipped = tmp_path / "zipped"
        shutil.copytree(plain, zipped)
        code, _, _ = run_cli(["detect", "--input", str(packed), "--out", str(zipped)], capsys)
        assert code == 0
        for name in ("detect_summary.txt", "dispositions.tsv", "alerts.log"):
            assert (zipped / name).read_bytes() == (plain / name).read_bytes(), name

    def test_unlabeled_and_unknown_label_lines(self, workdir, synth_corpus_path, tmp_path, capsys):
        out = _detect_dir(workdir, tmp_path)
        lines = Path(synth_corpus_path).read_text().splitlines()[:30]
        sample = tmp_path / "sample.kdd"
        sample.write_text("\n".join(lines) + "\n")
        assert main(["detect", "--input", str(sample), "--out", str(out)]) == 0
        labeled = (out / "dispositions.tsv").read_bytes()
        unlabeled = [ln.rsplit(",", 1)[0] for ln in lines[:10]]
        unknown = [ln.rsplit(",", 1)[0] + ",quantum_worm." for ln in lines[10:20]]
        sample.write_text("\n".join(unlabeled + unknown + lines[20:]) + "\n")
        code, _, _ = run_cli(["detect", "--input", str(sample), "--out", str(out)], capsys)
        assert code == 0
        assert _summary(out)["records"] == 30
        # labels play no part in the verdicts
        assert (out / "dispositions.tsv").read_bytes() == labeled
        # ... but oracle mode needs them, so these records did load unlabeled
        code, _, err = run_cli(
            ["detect", "--input", str(sample), "--out", str(out), "--set", "detect.mode=oracle"],
            capsys,
        )
        assert code == 2 and "labeled" in err

    @pytest.mark.parametrize(
        "bad",
        ["0,tcp", "{line},extra", "{numeric}", "{nan}"],
        ids=["short", "43-fields", "text-number", "nan-number"],
    )
    def test_malformed_line_exit_4(self, workdir, synth_corpus_path, tmp_path, bad, capsys):
        out = _detect_dir(workdir, tmp_path)
        lines = Path(synth_corpus_path).read_text().splitlines()[:10]
        fields = lines[0].split(",")
        bad = bad.format(
            line=lines[0],
            numeric=",".join(fields[:4] + ["many"] + fields[5:]),
            nan=",".join(fields[:4] + ["nan"] + fields[5:]),
        )
        sample = tmp_path / "sample.kdd"
        sample.write_text("\n".join(lines[:5] + [bad] + lines[5:]) + "\n")
        code, _, err = run_cli(["detect", "--input", str(sample), "--out", str(out)], capsys)
        assert code == 4
        assert "line 6" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_repeated_bad_line_names_first_occurrence(self, workdir, synth_corpus_path, tmp_path,
                                                      capsys):
        out = _detect_dir(workdir, tmp_path)
        lines = Path(synth_corpus_path).read_text().splitlines()[:8]
        fields = lines[0].split(",")
        bad = ",".join(fields[:4] + ["oops"] + fields[5:])
        sample = tmp_path / "sample.kdd"
        sample.write_text("\n".join(lines[:3] + [bad] + lines[3:6] + [bad] + lines[6:] + [bad]) + "\n")
        code, _, err = run_cli(["detect", "--input", str(sample), "--out", str(out)], capsys)
        assert code == 4
        assert err == f"chids: {sample}: 1 bad line(s): line 4: feature 4: not a number: 'oops'\n"


def _gzip_damage(kind: str, raw: bytes) -> bytes:
    """A gzip file's bytes damaged one way."""
    if kind == "truncated":
        return raw[: len(raw) // 2]
    if kind == "crc":  # first byte of the CRC-32 trailer
        return raw[:-8] + bytes([raw[-8] ^ 0xFF]) + raw[-7:]
    if kind == "method":  # compression method byte; only 8 (deflate) exists
        return raw[:2] + b"\x07" + raw[3:]
    # the first deflate block's type bits set to the reserved value 3
    return raw[:10] + bytes([raw[10] | 0b110]) + raw[11:]


class TestDamagedGzip:
    """A damaged gzip record file exits 4 with one error line naming the
    file, never with a traceback."""

    @pytest.mark.parametrize("damage", ["truncated", "crc", "method", "deflate"])
    @pytest.mark.parametrize("command", ["preprocess", "detect"])
    def test_exit_4_names_file(self, workdir, synth_corpus_path, tmp_path, damage, command,
                               capsys):
        out = _detect_dir(workdir, tmp_path)
        lines = Path(synth_corpus_path).read_text().splitlines(True)[:300]
        packed = tmp_path / "records.kdd.gz"
        packed.write_bytes(_gzip_damage(damage, gzip.compress("".join(lines).encode("ascii"))))
        args = {"preprocess": ["preprocess", "--dataset"], "detect": ["detect", "--input"]}[command]
        code, _, err = run_cli(args + [str(packed), "--out", str(out)], capsys)
        *progress, last = err.splitlines()
        assert code == 4
        assert last.startswith(f"chids: {packed}: line ") and "damaged gzip data" in last
        assert progress == ([f"chids: loading {packed}"] if command == "preprocess" else [])


class TestPinnedOutputs:
    # Taken before caches were written column by column and detect input
    # went through the chunked reader; both must keep these bytes. The
    # summary, and the run below, were taken before raw lines were parsed
    # once per distinct text and dispositions were held as columns. The rank
    # files and transform were taken before discretization ran on the block
    # split kernel.
    SHA256 = {
        "rank_igr_full.tsv": "23974843e19782029a49206b68b567cae31c5842ef52d43d657ffd2b087863d5",
        "rank_selected.tsv": "3a6bb259edac7c3050b56365177ffb8cb94d5b46af9a4814695eb7044c2c284f",
        "transform.json": "96807279acbd4ea512d9a09f5ba638be5299a02093860d683bac8d1a7b755c1d",
        "train_full.cache": "a8a12dffd0d156302e1ac51bad5b3329a5a9fb025e6d6ebc2c303389b6dcf972",
        "test_full.cache": "73a655e8fd0d8f32a2e86d967829c5f86ef983be914d7d8ad2c9b6586a8f77d3",
        "train.cache": "c76e80f09d7adf7b00edd90b1f7cf6108c1546ae0e0d6e98d7cc8cc1c5251e1c",
        "test.cache": "43b3654c20ad9a358ad8b28644478fd37dbea7bb9b16cec87bd9837fdb616842",
        "dispositions.tsv": "c73b343348e591472245fc6a42e416c78e74a84f60e2fcdbac37b36212affff3",
        "alerts.log": "cc903754924e5e072de5225a066bc513fdd11693739dfaafdce6a7b4f974cb8b",
        "detect_summary.txt": "ad8b90f503874de1a33c7fcf885e88764eb4986532628002b222d9762bcacc3a",
    }
    DETECT_OUTPUTS = ("dispositions.tsv", "alerts.log", "detect_summary.txt")
    # detect.mode=oracle with pipeline.policy=trust_misuse on the corpus with
    # swapped labels: the swapped records are flagged normals that pass and
    # attacks the model calls normal, so every outcome but unresolved_alert
    # occurs.
    ORACLE_TRUST_SHA256 = {
        "dispositions.tsv": "819406cb377ef8c6e268ea034cde803599a8f4d8c98eb0c6d339f141254676e8",
        "alerts.log": "06a499d37a34c1f173859dca90680b1fccb5f30d56220e55eb36fe6becb3fcfa",
        "detect_summary.txt": "49ac2a4f06643042ccc1a5370453acc7f2647cd8dc2d25c863b6b4ec92db0ba9",
    }

    def test_caches_and_detect_outputs(self, workdir, synth_corpus_path, tmp_path, capsys):
        out = _detect_dir(workdir, tmp_path)
        assert main(["detect", "--input", str(synth_corpus_path), "--out", str(out)]) == 0
        capsys.readouterr()
        for name, expect in self.SHA256.items():
            path = (out if name in self.DETECT_OUTPUTS else workdir) / name
            assert hashlib.sha256(path.read_bytes()).hexdigest() == expect, name

    def test_oracle_trust_misuse_outputs(self, workdir, noisy_run, tmp_path, capsys):
        out = _detect_dir(workdir, tmp_path)
        assert main(["detect", "--input", str(noisy_run / "noisy.kdd"), "--out", str(out),
                     "--set", "detect.mode=oracle", "--set", "pipeline.policy=trust_misuse"]) == 0
        capsys.readouterr()
        outcomes = {k for k in _summary(out) if k.startswith("outcome.")}
        assert outcomes == {"outcome.passed_normal", "outcome.classified_attack",
                            "outcome.classified_normal"}
        for name, expect in self.ORACLE_TRUST_SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expect, name


class TestAlertSink:
    """pipeline.alert_sink may not name detect's input, the out directory, a
    file any chids command writes there, or a path under report/; detect
    then exits 2 before it writes anything."""

    @pytest.fixture
    def sink_run(self, workdir, synth_corpus_path, tmp_path, capsys):
        """A fresh out directory and a function that runs stream-mode detect
        on a 50-record sample with a given sink."""
        out = _detect_dir(workdir, tmp_path)
        sample = tmp_path / "sample.kdd"
        sample.write_text("\n".join(Path(synth_corpus_path).read_text().splitlines()[:50]) + "\n")
        assert main(["simulate", "--scenario", "hello-flood", "--out", str(tmp_path)]) == 0
        events = tmp_path / "stream_hello-flood.tsv"
        capsys.readouterr()

        def detect(sink):
            sink = sink.format(input=sample, events=events)
            return run_cli(["detect", "--input", str(sample), "--events", str(events),
                            "--out", str(out), "--set", f"pipeline.alert_sink={sink}"], capsys)
        return out, detect

    @pytest.mark.parametrize("sink", [
        "", ".", "model.txt", "../det/model.txt", "transform.json", "dispositions.tsv",
        "detect_summary.txt", "{input}", "{events}", "train.cache", "test_full.cache",
        "manifest.json", "../det/manifest.json", "rank_igr_full.tsv", "report",
        "report/metrics.json",
    ], ids=["empty", "out-dir", "model", "model-other-spelling", "transform", "dispositions",
            "summary", "input", "events", "train-cache", "test-full-cache", "manifest",
            "manifest-other-spelling", "rank-file", "report-dir", "report-file"])
    def test_own_file_exit_2(self, sink_run, sink):
        out, detect = sink_run
        before = _tree_bytes(out)
        code, stdout, err = detect(sink)
        assert code == 2 and stdout == ""
        assert err.startswith("chids: pipeline.alert_sink ") and len(err.splitlines()) == 1
        assert _tree_bytes(out) == before  # model.txt and the caches included

    def test_other_file_is_written(self, sink_run):
        out, detect = sink_run
        code, _, _ = detect("flagged.log")
        assert code == 0 and (out / "flagged.log").exists() and not (out / "alerts.log").exists()


@pytest.fixture(scope="module")
def noisy_run(tmp_path_factory, synth_corpus_path):
    """The session corpus with every 25th line's label swapped between
    normal and neptune, preprocessed like `workdir`."""
    out = tmp_path_factory.mktemp("noisy")
    lines = Path(synth_corpus_path).read_text().splitlines(True)
    swap = {",normal.\n": ",neptune.\n", ",neptune.\n": ",normal.\n"}
    for i in range(24, len(lines), 25):
        for old, new in swap.items():
            if lines[i].endswith(old):
                lines[i] = lines[i][: -len(old)] + new
                break
    corpus = out / "noisy.kdd"
    corpus.write_text("".join(lines))
    code = main(["preprocess", "--dataset", str(corpus), "--out", str(out), "--seed", "3"]
                + SPLIT_OVERRIDES)
    assert code == 0
    return out


class TestPinnedModels:
    # Taken before the full tree and PART's partial trees were grown by one
    # recursion; every model kind must keep these bytes.
    SHA256 = {
        "part": "82b65ec9c18fa84cb068b92cc609ee2003e6401385c6f1fa6d330cf49fe44b00",
        "tree": "415ec4a2f7d2b56d8c0b161ec6b510415499d1a747a42b96e58249a14166c0b9",
        "tree-unpruned": "d178d8b11b2f8055917e27b543937ff3beaca3f14365c1bd272ac4582ccd1699",
        "majority": "1efc9d265d93fe16694322c985d57f371037889e6e7350826ff836526d7635d8",
    }
    SETTINGS = {
        "part": [],
        "tree": ["model.kind=tree"],
        "tree-unpruned": ["model.kind=tree", "part.prune=false"],
        "majority": ["model.kind=majority"],
    }

    def model_bytes(self, run: Path, tmp_path: Path, name: str) -> bytes:
        out = tmp_path / name
        shutil.copytree(run, out)
        args = ["train", "--out", str(out), "--seed", "3"]
        for setting in self.SETTINGS[name]:
            args += ["--set", setting]
        assert main(args) == 0
        return (out / "model.txt").read_bytes()

    @pytest.mark.parametrize("name", list(SHA256))
    def test_model_bytes(self, noisy_run, tmp_path, name, capsys):
        raw = self.model_bytes(noisy_run, tmp_path, name)
        capsys.readouterr()
        assert hashlib.sha256(raw).hexdigest() == self.SHA256[name]

    def test_prune_changes_the_tree(self, noisy_run, tmp_path, capsys):
        pruned = self.model_bytes(noisy_run, tmp_path, "tree")
        unpruned = self.model_bytes(noisy_run, tmp_path, "tree-unpruned")
        capsys.readouterr()
        assert pruned != unpruned


class TestModelFileHardening:
    TREE = (
        "#chids-model v1\nkind tree\nfeatures count:numeric\n"
        "split numeric count {threshold} majority=0 dist={dist}\n"
        " leaf normal dist=3,0,0,0,0\n leaf dos dist=0,2,0,0,0\n"
    )

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text[:16],
            lambda text: text[:30],
            lambda text: text[:60],
            lambda text: text[:100],
            lambda text: "".join(text.splitlines(True)[:3]),
            lambda text: re.sub(r"count (<=|>) \S+", "count <= abc", text, count=1),
            lambda text: text.replace("THEN dos", "THEN worm", 1),
            lambda text: TestModelFileHardening.TREE.format(threshold="abc", dist="3,2,0,0,0"),
            lambda text: TestModelFileHardening.TREE.format(threshold="1.5", dist="3,x,0,0,0"),
            lambda text: TestModelFileHardening.TREE.format(threshold="1.5", dist="3,2,0,0,0")
            .rsplit("\n", 2)[0],
            lambda text: re.sub(r"count (<=|>)", r"nosuch \1", text, count=1),
            lambda text: re.sub(r"count (<=|>) \S+", "count == 5", text, count=1),
            lambda text: re.sub(r"service == \S+", "service <= 3", text, count=1),
            lambda text: TestModelFileHardening.TREE.format(threshold="1.5", dist="3,2,0,0,0")
            .replace("split numeric count", "split numeric nosuch"),
            lambda text: TestModelFileHardening.TREE.format(threshold="1.5", dist="3,2,0,0,0")
            .replace("count:numeric", "count:nominal"),
        ],
        ids=["cut16", "cut30", "cut60", "cut100", "three-lines", "text-threshold",
             "unknown-class", "tree-threshold", "tree-dist", "tree-missing-child",
             "unknown-feature", "eq-on-numeric", "le-on-nominal", "tree-unknown-feature",
             "tree-kind-mismatch"],
    )
    def test_evaluate_exit_4(self, workdir, tmp_path, corrupt, capsys):
        out = tmp_path / "run"
        out.mkdir()
        shutil.copy(workdir / "test.cache", out / "test.cache")
        text = (workdir / "model.txt").read_text()
        (out / "model.txt").write_text(corrupt(text))
        code, _, err = run_cli(["evaluate", "--out", str(out)], capsys)
        assert code == 4
        assert "model.txt" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1


class TestRankFileHardening:
    @pytest.mark.parametrize("command", ["evaluate", "report"])
    @pytest.mark.parametrize(
        "row", ["1\tcount", "1\tcount\tigr\tzz"], ids=["two-fields", "text-score"]
    )
    def test_bad_row_exit_4(self, workdir, tmp_path, command, row, capsys):
        out = tmp_path / "run"
        out.mkdir()
        for name in ("model.txt", "test.cache", "manifest.json"):
            shutil.copy(workdir / name, out / name)
        lines = (workdir / "rank_igr_full.tsv").read_text().splitlines(True)
        lines[2] = row + "\n"
        (out / "rank_igr_full.tsv").write_text("".join(lines))
        code, _, err = run_cli([command, "--out", str(out)], capsys)
        assert code == 4
        assert "rank_igr_full.tsv" in err and "line 3" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1


class TestReportCommand:
    def test_report_rerenders(self, workdir, capsys):
        code, _, _ = run_cli(["evaluate", "--out", str(workdir)], capsys)
        assert code == 0
        code, out, _ = run_cli(["report", "--out", str(workdir)], capsys)
        assert code == 0
        assert (workdir / "report" / "rank_curve.tsv").exists()

    def test_report_keeps_the_timings(self, evaluated, capsys):
        timings = evaluated / "report" / "timings.txt"
        before = timings.read_bytes()
        assert before.startswith(b"timing test_s ")
        assert run_cli(["report", "--out", str(evaluated)], capsys)[0] == 0
        assert timings.read_bytes() == before


@pytest.fixture
def evaluated(workdir, tmp_path, capsys):
    """A private copy of the trained directory with a fresh report/."""
    out = tmp_path / "run"
    out.mkdir()
    for name in ("model.txt", "test.cache", "manifest.json", "rank_igr_full.tsv"):
        shutil.copy(workdir / name, out / name)
    assert run_cli(["evaluate", "--out", str(out)], capsys)[0] == 0
    return out


def _without(key):
    def edit(obj):
        del obj[key]
        return json.dumps(obj)
    return edit


def _with(key, value):
    def edit(obj):
        obj[key] = value
        return json.dumps(obj)
    return edit


def _drop_class_recall(obj):
    del obj["per_class_recall_pct"]["u2r"]
    return json.dumps(obj)


class TestReportHardening:
    @pytest.mark.parametrize("edit, needle", [
        (lambda obj: "{}", "'detection_rate_pct'"),
        (_without("n_false_alarms"), "'n_false_alarms'"),
        (_with("n_records", "many"), "'n_records'"),
        (_with("false_alarm_rate_pct", True), "'false_alarm_rate_pct'"),
        (_drop_class_recall, "'per_class_recall_pct'"),
        (lambda obj: "[1, 2]", "not a JSON object"),
        (lambda obj: '{"detection_rate_pct": ', "not valid JSON"),
    ], ids=["empty", "missing-key", "text-count", "bool-rate", "missing-class", "array",
            "truncated"])
    def test_bad_metrics_exit_4(self, evaluated, edit, needle, capsys):
        path = evaluated / "report" / "metrics.json"
        path.write_text(edit(json.loads(path.read_text())))
        code, _, err = run_cli(["report", "--out", str(evaluated)], capsys)
        assert code == 4
        assert "metrics.json" in err and needle in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("edit, needle", [
        (lambda lines: ["x\ty"], "want 5 rows"),
        (lambda lines: lines[:-1], "want 5 rows"),
        (lambda lines: lines + lines[-1:], "want 5 rows"),
        (lambda lines: lines[:3] + [lines[3].rsplit("\t", 1)[0]] + lines[4:], "line 4"),
        (lambda lines: lines[:2] + [lines[2] + "\t0"] + lines[3:], "line 3"),
        (lambda lines: lines[:5] + [lines[5].rsplit("\t", 1)[0] + "\t1.5"], "line 6"),
    ], ids=["header-only", "four-rows", "six-rows", "four-counts", "six-counts", "float-cell"])
    def test_bad_confusion_exit_4(self, evaluated, edit, needle, capsys):
        path = evaluated / "report" / "confusion.tsv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        code, _, err = run_cli(["report", "--out", str(evaluated)], capsys)
        assert code == 4
        assert "confusion.tsv" in err and needle in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_rerender_keeps_metrics_bytes(self, evaluated, capsys):
        path = evaluated / "report" / "metrics.json"
        before = path.read_bytes()
        assert run_cli(["report", "--out", str(evaluated)], capsys)[0] == 0
        assert path.read_bytes() == before


def _set_normalization_n(value):
    """An edit of transform.json that sets `normalization.n`, or drops it for None."""
    def edit(raw: bytes) -> bytes:
        obj = json.loads(raw)
        del obj["normalization"]["n"]
        if value is not None:
            obj["normalization"]["n"] = value
        return json.dumps(obj).encode("ascii")
    return edit


class TestDamagedArtifacts:
    """A damaged chids file exits with its documented code and one line
    naming the file, never with a traceback."""

    @pytest.mark.parametrize("name, damage, command, want", [
        ("manifest.json", lambda raw: b"{}", "report", 4),
        ("manifest.json", lambda raw: b"{}", "evaluate", 4),
        ("manifest.json", lambda raw: b"[1]", "report", 4),
        ("manifest.json", lambda raw: b"{", "report", 4),
        ("manifest.json", lambda raw: b'{"split": {"per_class": {"normal": 5}}}', "report", 4),
        ("manifest.json", lambda raw: b'{"split": {"per_class": [1]}}', "report", 4),
        ("manifest.json", lambda raw: raw[:10] + b"\xe9" + raw[10:], "report", 4),
        ("transform.json", lambda raw: b"{}", "detect", 4),
        ("transform.json", lambda raw: b"[1]", "detect", 4),
        ("transform.json", lambda raw: b"xx", "detect", 4),
        ("transform.json", _set_normalization_n(None), "detect", 4),
        ("transform.json", _set_normalization_n(float("inf")), "detect", 4),
        ("train_timing.txt", lambda raw: b"timing train_s abc\n", "evaluate", 4),
        ("train_timing.txt", lambda raw: b"timing train_s 0.5\xe9\n", "evaluate", 4),
        ("rank_igr_full.tsv", lambda raw: raw[:10] + b"\xe9" + raw[10:], "evaluate", 4),
        ("run.conf", lambda raw: b"seed = 3\xe9\n", "config", 2),
        ("run.conf", lambda raw: b"\x89PNG\r\n\x1a\n\x00\x00\xff", "config", 2),
    ], ids=["manifest-empty-report", "manifest-empty-evaluate", "manifest-array",
            "manifest-truncated", "manifest-int-row", "manifest-array-rows", "manifest-non-ascii",
            "transform-empty", "transform-array", "transform-not-json", "transform-no-n",
            "transform-infinite-n", "timing-text", "timing-non-ascii", "rank-non-ascii",
            "config-non-ascii", "config-binary"])
    def test_exit_code_names_file(
        self, workdir, synth_corpus_path, tmp_path, name, damage, command, want, capsys
    ):
        out = tmp_path / "run"
        out.mkdir()
        for f in ("model.txt", "test.cache", "manifest.json", "transform.json",
                  "rank_igr_full.tsv", "train_timing.txt"):
            shutil.copy(workdir / f, out / f)
        sample = tmp_path / "sample.kdd"
        sample.write_text("\n".join(Path(synth_corpus_path).read_text().splitlines()[:10]) + "\n")
        target = out / name
        target.write_bytes(damage(target.read_bytes() if target.exists() else b""))
        args = {
            "report": ["report"],
            "evaluate": ["evaluate"],
            "detect": ["detect", "--input", str(sample)],
            "config": ["config", "--config", str(target)],
        }[command]
        code, _, err = run_cli(args + ["--out", str(out)], capsys)
        assert code == want
        assert name in err
        assert "Traceback" not in err and len(err.splitlines()) == 1


def _damage_line(no, edit):
    """An edit of a file's bytes that rewrites its line `no` (from 1)."""
    def damage(raw: bytes) -> bytes:
        lines = raw.split(b"\n")
        lines[no - 1] = edit(lines[no - 1])
        return b"\n".join(lines)
    return damage


class TestRecordErrorsNameTheFile:
    """A bad record line in a dataset cache or in raw record input exits 4
    with one line naming the file and the line."""

    @pytest.mark.parametrize("name, damage, command, needle", [
        ("test.cache", _damage_line(6, lambda ln: ln + b",x"), "evaluate", "line 6: expected"),
        ("test.cache", _damage_line(5, lambda ln: re.sub(rb",[a-z_0-9]+,", b",zzz,", ln, count=1)),
         "evaluate", "line 5: feature service: unknown symbol 'zzz'"),
        ("sample.kdd", _damage_line(6, lambda ln: b"0,tcp"), "detect", "line 6: expected"),
        ("sample.kdd", _damage_line(2, lambda ln: ln + b"\xe9"), "detect", "not ASCII"),
    ], ids=["cache-extra-field", "cache-unknown-symbol", "raw-short-line", "raw-non-ascii"])
    def test_exit_4_names_file(
        self, workdir, synth_corpus_path, tmp_path, name, damage, command, needle, capsys
    ):
        out = _detect_dir(workdir, tmp_path)
        shutil.copy(workdir / "test.cache", out / "test.cache")
        sample = out / "sample.kdd"
        sample.write_text("\n".join(Path(synth_corpus_path).read_text().splitlines()[:10]) + "\n")
        target = out / name
        target.write_bytes(damage(target.read_bytes()))
        args = {"evaluate": ["evaluate"], "detect": ["detect", "--input", str(sample)]}[command]
        code, _, err = run_cli(args + ["--out", str(out)], capsys)
        assert code == 4
        assert err.startswith(f"chids: {target}: ") and needle in err
        assert len(err.splitlines()) == 1


# `chids config` with default settings, taken before keys, parsers and
# defaults were derived from the RunConfig fields (note the space after
# `dataset =`).
DEFAULT_CONFIG = """\
# chids run configuration (key = value; `#` starts a comment)
dataset = 
seed = 0
threads = 1
out = out
split.train_size = 20000
split.test_size = 10000
split.minority = probe,r2l,u2r
prune = is_host_login,num_outbound_cmds,urgent,su_attempted,land,num_failed_logins
select.method = chi2
select.k = 4
model.kind = part
part.min_leaf = 2
part.confidence = 0.25
part.prune = true
rules.interval_lower = 0.5
rules.interval_upper = 30.0
rules.retransmission_deadline = 2.0
rules.delay_window = 1.0
rules.repetition_limit = 3
rules.rssi_min = -95.0
rules.rssi_max = -20.0
rules.collision_limit = 5
rules.window = 10.0
rules.max_sources_per_message = 1
pipeline.policy = alert_unresolved
pipeline.alert_sink = alerts.log
detect.mode = all
"""


class TestConfigCommand:
    def test_config_round_trip(self, tmp_path, capsys):
        code, out, _ = run_cli(["config", "--seed", "11"], capsys)
        assert code == 0
        conf = tmp_path / "run.conf"
        conf.write_text(out)
        code2, out2, _ = run_cli(["config", "--config", str(conf)], capsys)
        assert code2 == 0
        assert out2 == out

    def test_bad_set_key(self, capsys):
        code, _, err = run_cli(["config", "--set", "bogus.key=1"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "setting",
        ["rules.window=-1", "rules.window=nan", "rules.retransmission_deadline=0",
         "rules.repetition_limit=0", "rules.interval_lower=31", "rules.rssi_max=-100",
         "part.confidence=0", "part.confidence=0.51", "part.confidence=nan", "part.min_leaf=0"],
    )
    def test_out_of_range_value_exit_2(self, setting, capsys):
        code, out, err = run_cli(["config", "--set", setting], capsys)
        assert code == 2
        assert out == "" and err.startswith("chids: " + setting.split(".")[0] + ".")

    @pytest.mark.parametrize("command", ["preprocess", "simulate", "config"])
    def test_negative_seed_exit_2(self, synth_corpus_path, tmp_path, command, capsys):
        args = {
            "preprocess": ["preprocess", "--dataset", str(synth_corpus_path)],
            "simulate": ["simulate", "--scenario", "benign"],
            "config": ["config"],
        }[command]
        code, out, err = run_cli(args + ["--out", str(tmp_path), "--seed", "-1"], capsys)
        assert code == 2
        assert out == "" and err == "chids: seed must be >= 0\n"

    def test_range_edges_accepted(self, capsys):
        code, _, _ = run_cli(
            ["config", "--set", "part.confidence=0.5", "--set", "part.min_leaf=1",
             "--set", "select.k=35"], capsys
        )
        assert code == 0

    @pytest.mark.parametrize("settings", [
        ["select.k=0"], ["select.k=36"], ["prune=land", "select.k=41"],
    ], ids=["zero", "above-kept", "above-kept-after-prune"])
    def test_select_k_outside_kept_features_exit_2(self, synth_corpus_path, tmp_path, settings,
                                                   capsys):
        args = ["preprocess", "--dataset", str(synth_corpus_path), "--out", str(tmp_path)]
        for setting in settings:
            args += ["--set", setting]
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert err.startswith("chids: select.k ") and len(err.splitlines()) == 1

    def test_default_output_bytes(self, capsys):
        code, out, _ = run_cli(["config"], capsys)
        assert code == 0 and out == DEFAULT_CONFIG

    def test_readme_lists_every_key(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Config keys\n", 1)[1].split("\n#", 1)[0]
        listed = set(re.findall(r"`([a-z_.*]+)`", section))
        code, out, _ = run_cli(["config"], capsys)
        keys = [ln.split(" = ")[0] for ln in out.splitlines()[1:]]
        unlisted = [k for k in keys if k not in listed and k.split(".")[0] + ".*" not in listed]
        assert code == 0 and unlisted == []

    def test_stdout_carries_only_data(self, workdir, capsys):
        code, out, err = run_cli(["evaluate", "--out", str(workdir)], capsys)
        assert code == 0
        for line in out.splitlines():
            assert os.path.exists(line), f"stdout line is not a path: {line!r}"


def _tree_bytes(root: Path) -> dict:
    """The bytes of every file under `root`, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _hash_artifacts(out: Path) -> dict:
    skip = {"timings.txt", "train_timing.txt"}
    hashes = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name not in skip:
            hashes[str(p.relative_to(out))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return hashes


class TestDeterminism:
    def full_run(self, corpus, out: Path, threads: str):
        for args in (
            ["preprocess", "--dataset", str(corpus), "--out", str(out), "--seed", "3",
             "--threads", threads] + SPLIT_OVERRIDES,
            ["train", "--out", str(out), "--seed", "3", "--threads", threads],
            ["evaluate", "--out", str(out), "--seed", "3", "--threads", threads],
        ):
            assert main(args) == 0

    def test_hash_identical_runs_and_thread_invariance(self, synth_corpus_path, tmp_path, capsys):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        self.full_run(synth_corpus_path, a, "1")
        self.full_run(synth_corpus_path, b, "1")
        self.full_run(synth_corpus_path, c, "8")
        capsys.readouterr()
        ha, hb, hc = _hash_artifacts(a), _hash_artifacts(b), _hash_artifacts(c)
        assert ha == hb
        assert ha == hc


class TestEntryPoint:
    def test_installed_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chids.cli", "config"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "seed = 0" in proc.stdout


class TestDetectOnCache:
    def test_detect_accepts_preprocessed_cache(self, workdir, capsys):
        # a cache already in model space must not be re-transformed
        code, _, _ = run_cli(
            ["detect", "--input", str(workdir / "test.cache"), "--out", str(workdir),
             "--set", "detect.mode=oracle"],
            capsys,
        )
        assert code == 0
        summary = (workdir / "detect_summary.txt").read_text()
        # oracle mode flags exactly the labeled attacks
        import json as _json
        per_class = _json.loads((workdir / "manifest.json").read_text())["split"]["per_class"]
        n_attacks = sum(v["test"] for k, v in per_class.items() if k != "normal")
        assert f"flagged = {n_attacks}" in summary
        # with a near-separable corpus nearly all flagged records are attributed
        n_alerts = int(summary.split("alerts = ")[1].splitlines()[0])
        assert n_alerts >= n_attacks * 0.95


class TestReportPreservesConfusion:
    def test_rerendered_report_keeps_confusion_section(self, workdir, capsys):
        assert main(["evaluate", "--out", str(workdir)]) == 0
        before = (workdir / "report" / "report.txt").read_text()
        assert main(["report", "--out", str(workdir)]) == 0
        capsys.readouterr()
        after = (workdir / "report" / "report.txt").read_text()
        assert "== confusion ==" in after
        assert after == before

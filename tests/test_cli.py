import gzip
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
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
            "manifest.json", "transform.json", "rank_igr_full.tsv", "rank_selected.tsv",
        ):
            assert (workdir / name).exists(), name

    def test_manifest_reports_counts(self, workdir):
        obj = json.loads((workdir / "manifest.json").read_text())
        assert "input" in obj["dedupe"] and obj["split"]["seed"] == 3
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

    @pytest.mark.parametrize("lines, exit_code", [(None, 3), (["not,a,record"] * 3, 6)],
                             ids=["missing", "no-records"])
    def test_a_failed_run_makes_no_out_directory(self, tmp_path, lines, exit_code, capsys):
        dataset = tmp_path / "in.kdd"
        if lines is not None:
            dataset.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o" / "deeper"
        code, _, _ = run_cli(["preprocess", "--dataset", str(dataset), "--out", str(out)], capsys)
        assert code == exit_code
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["preprocess", "--dataset", "CORPUS"],
                                         ["simulate", "--scenario", "sybil"],
                                         ["train"], ["evaluate"], ["detect", "--input", "CORPUS"]],
                             ids=["preprocess", "simulate", "train", "evaluate", "detect"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_an_out_that_is_a_file_exits_3_first(self, synth_corpus_path, tmp_path, command,
                                                 under, capsys):
        """An --out that names a file, or a path under one, exits 3 naming
        it as the out directory, before any input is read. Train, evaluate
        and detect, which read artifacts from it, do not send the operator
        back to an earlier command."""
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "run" if under else afile
        argv = [str(synth_corpus_path) if arg == "CORPUS" else arg for arg in command]
        code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 3 and stdout == ""
        assert err == f"chids: out directory {out} cannot be made: {afile} is not a directory\n"
        assert afile.read_text() == "kept\n"

    def test_no_dataset_config_error(self, tmp_path, capsys):
        code, _, _ = run_cli(["preprocess", "--out", str(tmp_path / "o")], capsys)
        assert code == 2

    def test_dedupe_matches_the_set_oracle_over_every_line(self, tmp_path, capsys):
        """Exact-text repeats, duplicates written in other text and a
        repeated bad line: the manifest's dedupe counts and the rows of
        train_full.cache are the set-based dedupe of every good line."""
        from oracles import dedupe_oracle, iter_records
        from test_kdd import make_line
        from chids.errors import DataError
        from chids.kdd import FeatureSchema, load_cache, parse_record

        base = [make_line(service=s, src_bytes=b, label=lab)
                for s in ("http", "smtp", "ftp") for b in ("0.1", "7", "250")
                for lab in ("normal.", "smurf.", "satan.")]
        other_text = [
            make_line(src_bytes="0.10"),
            make_line(src_bytes="7", label="NORMAL"),
            make_line(service=" smtp ", src_bytes="250", label="smurf."),
            base[0].replace(",tcp,", ", tcp ,"),
        ]
        bad = make_line(src_bytes="oops")
        lines = base + other_text + base[::2] + other_text + [bad] * 3
        random.Random(2).shuffle(lines)
        (tmp_path / "mixed.kdd").write_text("\n".join(lines) + "\n")

        schema, records = FeatureSchema.default(), []
        for line in lines:
            try:
                records.append(parse_record(line, schema))
            except DataError:
                pass
        want = dedupe_oracle(records)
        assert len(records) == len(lines) - 3 and len(want) == len(base)
        out = tmp_path / "run"
        code, _, _ = run_cli(["preprocess", "--dataset", str(tmp_path / "mixed.kdd"),
                              "--out", str(out), "--set", f"split.train_size={len(want)}",
                              "--set", "split.test_size=0"], capsys)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dedupe"] == {"input": len(records), "output": len(want)}
        assert list(iter_records(load_cache(out / "train_full.cache"))) == want

    def test_values_too_large_to_normalize_leave_no_file(self, tmp_path, capsys):
        from synthdata import synth_lines

        lines = synth_lines(3000, seed=7, dup_rate=0.0)
        for k in range(0, len(lines), 50):
            fields = lines[k].split(",")
            fields[4] = "1e200" if k % 100 else "-1e200"  # src_bytes
            lines[k] = ",".join(fields)
        (tmp_path / "huge.kdd").write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code, _, err = run_cli(["preprocess", "--dataset", str(tmp_path / "huge.kdd"),
                                "--out", str(out), "--set", "prune=", "--set", "select.k=41"]
                               + SPLIT_OVERRIDES, capsys)
        assert code == 4 and "values too large to normalize" in err
        assert not out.exists()

    def test_skipped_lines_are_named(self, synth_corpus_path, tmp_path, capsys):
        from test_kdd import make_line

        corpus = Path(synth_corpus_path).read_text()
        n = corpus.count("\n")
        bad = ["not,a,record", make_line(src_bytes="oops"), make_line(label="quantum_worm."),
               make_line(service=""), "1,2", "x", "y"]
        (tmp_path / "bad.kdd").write_text(corpus + "\n".join(bad) + "\n")
        code, _, err = run_cli(["preprocess", "--dataset", str(tmp_path / "bad.kdd"),
                                "--out", str(tmp_path / "run")] + SPLIT_OVERRIDES, capsys)
        assert code == 0
        assert f"chids: {tmp_path / 'bad.kdd'}: skipped 7 bad line(s): " + "; ".join([
            f"line {n + 1}: expected 42 fields, got 3",
            f"line {n + 2}: feature 4: not a number: 'oops'",
            f"line {n + 3}: unknown label 'quantum_worm'",
            f"line {n + 4}: feature 2: symbol '' is empty or has whitespace in it",
            f"line {n + 5}: expected 42 fields, got 2",
        ]) + " (+2 more)\n" in err

    def test_unwritable_symbols_stay_out_of_the_caches(self, synth_corpus_path, tmp_path, capsys):
        # a model file cannot hold an empty symbol or one with whitespace in
        # it, so `train` would refuse a cache whose domains held one
        from chids.kdd import load_cache

        lines = Path(synth_corpus_path).read_text().splitlines()
        bad = range(0, len(lines), 60)  # preprocess skips at most 100 bad lines
        for k in bad:
            fields = lines[k].split(",")
            fields[2] = "" if k % 120 else "ht\x1ctp"
            lines[k] = ",".join(fields)
        (tmp_path / "sym.kdd").write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code, _, err = run_cli(["preprocess", "--dataset", str(tmp_path / "sym.kdd"),
                                "--out", str(out), "--set", "prune=", "--set", "select.k=41"]
                               + SPLIT_OVERRIDES, capsys)
        assert code == 0 and f"skipped {len(bad)} bad line(s): line 1: " in err
        for name in ("train.cache", "test.cache", "train_full.cache", "test_full.cache"):
            services = load_cache(out / name).schema.domains["service"]
            assert "" not in services and "ht\x1ctp" not in services, name
        assert run_cli(["train", "--out", str(out)], capsys)[0] == 0


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

    @pytest.mark.parametrize("defect", ["empty", "unlabeled"])
    def test_training_set_without_records_or_labels_exit_6(self, workdir, tmp_path, defect, capsys):
        from chids import kdd

        ds = kdd.load_cache(workdir / "train.cache")
        if defect == "empty":
            ds = ds.take([])
        else:  # the first record loses its label
            ds.labels[0], ds.class_codes[0] = None, -1
        kdd.save_cache(ds, tmp_path / "train.cache")
        code, out, err = run_cli(["train", "--out", str(tmp_path)], capsys)
        assert code == 6 and out == "" and len(err.splitlines()) == 2  # progress, then the error
        assert not (tmp_path / "model.txt").exists()

    def test_evaluate_without_model_hints_train(self, tmp_path, capsys):
        code, _, err = run_cli(["evaluate", "--out", str(tmp_path / "fresh2")], capsys)
        assert code == 5
        assert "chids train" in err

    @pytest.mark.parametrize("command", [["train"], ["evaluate"], ["detect", "--input", "CORPUS"]],
                             ids=["train", "evaluate", "detect"])
    def test_missing_out_dir_is_not_made(self, synth_corpus_path, tmp_path, command, capsys):
        # only preprocess and simulate, which read nothing there, make it
        out = tmp_path / "missing"
        argv = [str(synth_corpus_path) if a == "CORPUS" else a for a in command]
        code, _, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 5 and "missing artifact" in err
        assert not out.exists()


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
        assert "verdicts." not in summary  # per-rule counts come only with --events
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

    @pytest.mark.parametrize("n_lines", [10, 85, 87], ids=["probe", "one-short", "one-over"])
    def test_detect_refuses_a_stream_of_another_length(self, workdir, synth_corpus_path,
                                                       tmp_path, n_lines, capsys):
        """A stream whose event count is not the input's line count exits 6,
        naming both files and both counts, before detect writes anything."""
        out = _detect_dir(workdir, tmp_path)
        assert main(["simulate", "--scenario", "sinkhole", "--out", str(tmp_path)]) == 0
        stream = tmp_path / "stream_sinkhole.tsv"  # 86 events
        sample = tmp_path / "sample.kdd"
        sample.write_text("\n".join(Path(synth_corpus_path).read_text().splitlines()[:n_lines]) + "\n")
        capsys.readouterr()
        before = _tree_bytes(out)
        code, stdout, err = run_cli(["detect", "--input", str(sample), "--events", str(stream),
                                     "--out", str(out)], capsys)
        assert code == 6 and stdout == ""
        assert err == (f"chids: {stream}: 86 events, but {sample} holds {n_lines} records; "
                       "event k flags record k\n")
        assert _tree_bytes(out) == before

    def test_detect_counts_a_cache_by_its_records(self, workdir, tmp_path, capsys):
        from chids import kdd
        from chids.anomaly import generate_stream, write_stream

        out = _detect_dir(workdir, tmp_path)
        events = generate_stream("sinkhole", 0)
        n = len(kdd.load_cache(workdir / "test.cache"))
        write_stream(events, tmp_path / "short.tsv")
        code, _, err = run_cli(["detect", "--input", str(workdir / "test.cache"), "--events",
                                str(tmp_path / "short.tsv"), "--out", str(out)], capsys)
        assert code == 6 and f"{len(events)} events, but {workdir / 'test.cache'} holds {n} " in err
        _pad_stream(tmp_path / "short.tsv", n)
        code, _, _ = run_cli(["detect", "--input", str(workdir / "test.cache"), "--events",
                              str(tmp_path / "short.tsv"), "--out", str(out)], capsys)
        assert code == 0 and _summary(out)["records"] == n

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

    # The event files of the same runs, taken before every chids table was
    # formatted by artifact.table_text.
    SIMULATE_SEED0_STREAM_SHA256 = {
        "benign": "ba98f7c9b1c456e77afc4f09294b8bcf153901487c25e4928c1fb68cfa7f4926",
        "hello-flood": "d4f644dbedf907d1577e7f0f5a66d2c87db660d9211b053a5b8bae70e3823172",
        "selective-forwarding": "bee683fc054e2163da990965146b6647643f62ab33f989dab310685ee8ea93c2",
        "sinkhole": "a61580472d746efb808619f8f2d7c2257730995c5c03b3016113a21f886a5c01",
        "modification": "5966395d9f91e4c6c6922a88e526187a5e2c48ff567c1dc3bd16d2a49cf83340",
        "replay": "65ae8fba32fa42d5f80bb92c3f18979ea6d8ca40747d067275c77a361d515a32",
        "sybil": "3e5017ab7ae8308051a72676d4a899e2e5e890c3eb8ec69b6de3ab638e0bff1b",
        "jamming": "d300068ad7c2d1dbaac76bc863670d4a0e5d19142d36e9b638f52e25b745e950",
    }

    def test_simulate_stream_bytes_stable(self, tmp_path, capsys):
        from chids.anomaly import SCENARIOS

        assert set(self.SIMULATE_SEED0_STREAM_SHA256) == set(SCENARIOS)
        for scenario, expect in self.SIMULATE_SEED0_STREAM_SHA256.items():
            code, _, _ = run_cli(
                ["simulate", "--scenario", scenario, "--seed", "0", "--out", str(tmp_path)], capsys
            )
            assert code == 0
            got = hashlib.sha256((tmp_path / f"stream_{scenario}.tsv").read_bytes()).hexdigest()
            assert got == expect, scenario

    @pytest.mark.parametrize(
        "row, want",
        [
            ("nan\ts1\tn1\treception\tm1\td\t-60.0", 4),
            ("3.0\ts1\tn1\treception\tm1\td\tnan", 4),
            ("3.0\ts1\tn1\treception\tm1\td", 4),
            ("3.0\ts1\tn1\treception\tm1\td\t-60.0\textra", 4),
            ("soon\ts1\tn1\treception\tm1\td\t-60.0", 4),
            ("3.0\ts1\tn1\treception\tm1\td\tloud", 4),
            ("# 2.0\ts1\tn1\treception\tm1\td\t-60.0", 4),
            ("3.0\ts1\tn1\tzap\tm1\td\t-60.0", 4),
            ("0.5\ts1\tn1\treception\tm1\td\t-60.0", 6),  # 0.5 s is before the first event
        ],
        ids=["nan-ts", "nan-rssi", "6-columns", "8-columns", "text-ts", "text-rssi",
             "commented-out", "unknown-kind", "ts-goes-back"],
    )
    def test_detect_malformed_stream_exit_4(
        self, workdir, synth_corpus_path, tmp_path, row, want, capsys
    ):
        from chids.anomaly import STREAM_MAGIC

        stream_path = tmp_path / "bad.tsv"
        stream_path.write_text(
            f"{STREAM_MAGIC}\nts\tsource\tneighbor\tkind\tmsg_id\tdigest\trssi\n"
            f"1.0\ts0\tn0\treception\tm0\td\t-60.0\n{row}\n"
        )
        sample = tmp_path / "sample.kdd"  # one record per event, had the row been well formed
        sample.write_text("\n".join(Path(synth_corpus_path).read_text().splitlines()[:2]) + "\n")
        code, _, err = run_cli(
            ["detect", "--input", str(sample), "--events", str(stream_path), "--out", str(workdir)],
            capsys,
        )
        assert code == want
        assert err.startswith(f"chids: {stream_path}: ") and len(err.splitlines()) == 1


def _detect_dir(workdir: Path, tmp_path: Path) -> Path:
    """A fresh output directory holding only what detect needs."""
    out = tmp_path / "det"
    out.mkdir()
    for name in ("model.txt", "transform.json"):
        shutil.copy(workdir / name, out / name)
    return out


def _pad_stream(path: Path, n: int) -> None:
    """Append events to the stream at `path` until it holds `n`: forwards of
    messages never seen, at its last event's time, on which no rule fires."""
    from chids.anomaly import FORWARD, AnomalyEvent, read_stream, write_stream

    events = read_stream(path)
    ts = events[-1].ts
    write_stream(events + [AnomalyEvent(ts, "pad", "pad", FORWARD, f"pad-{k}", "d", -60.0)
                           for k in range(n - len(events))], path)


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

    def test_repeated_lines_are_classified_once(self, workdir, synth_corpus_path, tmp_path,
                                                monkeypatch):
        """Three distinct lines, each repeated: the model sees each once,
        and every output is that of the same records given as a cache."""
        from chids import kdd, learner
        from chids.anomaly import AnomalyEvent, write_stream

        lines = Path(synth_corpus_path).read_text().splitlines()
        normal = next(ln for ln in lines if ln.endswith(",normal."))
        attacks = [ln for ln in dict.fromkeys(lines) if not ln.endswith(",normal.")][:2]
        rng = random.Random(5)
        sample = tmp_path / "sample.kdd"
        sample.write_text("".join(rng.choice([normal, *attacks]) + "\n" for _ in range(150)))
        raw = kdd.load_dataset(sample, labels_optional=True)
        assert len(raw) == 3
        kdd.save_cache(raw.take(raw.line_rows), tmp_path / "lines.cache")
        events, t = [], 0.0
        for k in range(150):
            t += 2.0 if k % 10 else 0.05  # every 10th event arrives too fast
            events.append(AnomalyEvent(t, "s1", "n1", "reception", f"m{k}", "d", -60.0))
        write_stream(events, tmp_path / "events.tsv")

        model_type = type(learner.load_model(workdir / "model.txt"))
        predict, seen = model_type.predict_dataset, []
        monkeypatch.setattr(model_type, "predict_dataset",
                            lambda self, ds: seen.append(len(ds)) or predict(self, ds))
        modes = {"all": ["--set", "detect.mode=all"], "none": ["--set", "detect.mode=none"],
                 "oracle": ["--set", "detect.mode=oracle"],
                 "events": ["--events", str(tmp_path / "events.tsv")]}
        rows_seen = {"all": 3, "none": 0, "oracle": 2, "events": 3}
        for mode, extra in modes.items():
            got = {}
            for name, path in (("raw", sample), ("cache", tmp_path / "lines.cache")):
                (tmp_path / mode / name).mkdir(parents=True)
                det = _detect_dir(workdir, tmp_path / mode / name)
                seen.clear()
                assert main(["detect", "--input", str(path), "--out", str(det), *extra]) == 0
                got[name] = [(det / f).read_bytes()
                             for f in ("alerts.log", "dispositions.tsv", "detect_summary.txt")]
                if name == "raw":
                    assert sum(seen) == rows_seen[mode], mode
            assert got["raw"] == got["cache"], mode
            summary = _summary(det)
            assert summary["records"] == 150
            assert summary["misuse_invocations"] == summary["flagged"]


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


class TestGzippedCache:
    """A gzipped dataset cache reads as the cache it holds; damaged, it
    exits 4 with one error line naming the file."""

    def test_detect_input_reads_as_the_plain_cache(self, workdir, tmp_path, capsys):
        plain = _detect_dir(workdir, tmp_path)
        assert main(["detect", "--input", str(workdir / "test.cache"), "--out", str(plain)]) == 0
        packed = tmp_path / "test.cache.gz"
        packed.write_bytes(gzip.compress((workdir / "test.cache").read_bytes()))
        zipped = tmp_path / "zipped"
        shutil.copytree(plain, zipped)
        code, _, _ = run_cli(["detect", "--input", str(packed), "--out", str(zipped)], capsys)
        assert code == 0
        for name in ("detect_summary.txt", "dispositions.tsv", "alerts.log"):
            assert (zipped / name).read_bytes() == (plain / name).read_bytes(), name

    @pytest.mark.parametrize("damage", ["truncated", "crc", "method", "deflate"])
    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    def test_damaged_exit_4_names_file(self, workdir, tmp_path, damage, command, capsys):
        out = _detect_dir(workdir, tmp_path)
        packed = out / "test.cache"  # evaluate's input; detect reads it by --input
        packed.write_bytes(_gzip_damage(damage, gzip.compress((workdir / "test.cache").read_bytes())))
        args = {"detect": ["detect", "--input", str(packed)], "evaluate": ["evaluate"]}[command]
        code, _, err = run_cli(args + ["--out", str(out)], capsys)
        assert code == 4
        assert err.startswith(f"chids: {packed}: ") and "damaged gzip data" in err
        assert len(err.splitlines()) == 1


class TestPinnedOutputs:
    # Taken before caches were written column by column and detect input
    # went through the chunked reader; both must keep these bytes. The four
    # cache pins were taken again when caches became binary (v2). The
    # summary, and the run below, were taken before raw lines were parsed
    # once per distinct text and dispositions were held as columns. The rank
    # files and transform were taken before discretization ran on the block
    # split kernel.
    SHA256 = {
        "rank_igr_full.tsv": "23974843e19782029a49206b68b567cae31c5842ef52d43d657ffd2b087863d5",
        "rank_selected.tsv": "3a6bb259edac7c3050b56365177ffb8cb94d5b46af9a4814695eb7044c2c284f",
        "transform.json": "96807279acbd4ea512d9a09f5ba638be5299a02093860d683bac8d1a7b755c1d",
        "train_full.cache": "0f1244f799b62d7c4c2f5d11ae9cb3ff4cc98fe42272f6176debc7949bf057ae",
        "test_full.cache": "4dd98d14b22d5921ff119c2343d8bedf040973bedf0b5c5556b9e9e82515c956",
        "train.cache": "84cf744a00eedf867ed75eeca570276b4e12a42c26255efe75d0e50c7198cdfb",
        "test.cache": "2898b9bcce560fbcff817c85a7e84afd133dcfa551c710f4c2e152505ac19ecd",
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
    # detect --events with the seed-0 hello-flood stream: event k flags
    # record k. Taken before the anomaly stage handed run_pipeline a mask.
    EVENTS_SHA256 = {
        "dispositions.tsv": "72353b6945e135da0240d7a4ad4994f33a8c68ebfc07a73fd22b7a9c818a80f8",
        "alerts.log": "77e4d9d8b05592138b6ef8e5fee3af5e9fd785b57ccf4b9f6d85c0cf94be3b9c",
        "detect_summary.txt": "a924fe8326c72180cf60f8a61d22d5b138d3daca0a7703ed2c4532c7268dd759",
    }

    # The report bundle, taken before every chids table was formatted by
    # artifact.table_text.
    REPORT_SHA256 = {
        "report/confusion.tsv": "7ea5c281771f69ff5ab98952f7a8003c449f27b0910297a0e8b6288a56f4ad26",
        "report/rank_curve.tsv": "58b8819b11fab4dce6b41a3e881be5aa9c0e380eae4775a134dbee0fc8113791",
        "report/detection_rate_bars.tsv":
            "d14c41e16d0c087524fdd8833c61ee9e49fe138c777b1d7127bbf43225aa59ac",
        "report/false_alarm_bars.tsv":
            "c1b7e0ab3b2d4d753f4ea305b8487dca71bed11dcc74bcef967fd14f9dd436e6",
        "report/test_time_bars.tsv":
            "e31d30f581d41d51cbeb8dfd8162422b53c864406dace062cf26ccc06917fb5d",
        "report/report.txt": "a6558ae5298ce38d274d8da16335a0d173b69586dec9ecdbfa6398c43695c109",
    }

    def test_manifest_and_report(self, evaluated):
        got = {name: hashlib.sha256((evaluated / name).read_bytes()).hexdigest()
               for name in self.REPORT_SHA256}
        assert got == self.REPORT_SHA256

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

    def test_events_outputs(self, workdir, synth_corpus_path, tmp_path, capsys):
        out = _detect_dir(workdir, tmp_path)
        assert main(["simulate", "--scenario", "hello-flood", "--out", str(tmp_path)]) == 0
        stream = tmp_path / "stream_hello-flood.tsv"
        _pad_stream(stream, len(Path(synth_corpus_path).read_text().splitlines()))
        assert main(["detect", "--input", str(synth_corpus_path), "--out", str(out),
                     "--events", str(stream)]) == 0
        capsys.readouterr()
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in self.EVENTS_SHA256}
        assert got == self.EVENTS_SHA256


class TestAlertSink:
    """pipeline.alert_sink may not name detect's input, the out directory, a
    file any chids command writes there, or a path under report/; detect
    then exits 2 before it writes anything."""

    @pytest.fixture
    def sink_run(self, workdir, synth_corpus_path, tmp_path, capsys):
        """A fresh out directory and a function that runs detect --events
        on the hello-flood stream and as many records, with a given sink."""
        from chids.anomaly import read_stream

        out = _detect_dir(workdir, tmp_path)
        assert main(["simulate", "--scenario", "hello-flood", "--out", str(tmp_path)]) == 0
        events = tmp_path / "stream_hello-flood.tsv"
        sample = tmp_path / "sample.kdd"
        n = len(read_stream(events))
        sample.write_text("\n".join(Path(synth_corpus_path).read_text().splitlines()[:n]) + "\n")
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
    # recursion; PART must keep these bytes.
    SHA256 = {"part": "82b65ec9c18fa84cb068b92cc609ee2003e6401385c6f1fa6d330cf49fe44b00"}

    @pytest.mark.parametrize("name", list(SHA256))
    def test_model_bytes(self, noisy_run, tmp_path, name, capsys):
        out = tmp_path / name
        shutil.copytree(noisy_run, out)
        assert main(["train", "--out", str(out), "--seed", "3"]) == 0
        capsys.readouterr()
        assert hashlib.sha256((out / "model.txt").read_bytes()).hexdigest() == self.SHA256[name]


class TestModelFileHardening:
    @pytest.mark.parametrize("kind", ["tree", "majority"])
    def test_removed_model_kind_exit_4(self, workdir, synth_corpus_path, tmp_path, kind,
                                       capsys):
        # model files of the two learners PART replaced; the body does not matter
        out = tmp_path / "run"
        out.mkdir()
        for name in ("test.cache", "transform.json"):
            shutil.copy(workdir / name, out / name)
        text = (workdir / "model.txt").read_text()
        (out / "model.txt").write_text(text.replace("kind part\n", f"kind {kind}\n", 1))
        sample = tmp_path / "sample.kdd"
        sample.write_text("".join(Path(synth_corpus_path).read_text().splitlines(True)[:20]))
        for args in (["evaluate"], ["detect", "--input", str(sample)]):
            code, _, err = run_cli(args + ["--out", str(out)], capsys)
            assert code == 4, args
            assert "model.txt" in err and "chids train" in err and "line 2" in err
            assert "Traceback" not in err and len(err.splitlines()) == 1


class TestRankFileHardening:
    @pytest.mark.parametrize("command", ["evaluate"])
    def test_missing_header_exit_4(self, workdir, tmp_path, command, capsys):
        # without the check the best-ranked feature was read as the header
        out = tmp_path / "run"
        out.mkdir()
        for name in ("model.txt", "test.cache", "manifest.json"):
            shutil.copy(workdir / name, out / name)
        lines = (workdir / "rank_igr_full.tsv").read_text().splitlines(True)
        (out / "rank_igr_full.tsv").write_text("".join(lines[1:]))
        code, _, err = run_cli([command, "--out", str(out)], capsys)
        assert code == 4
        assert "rank_igr_full.tsv: line 1: expected 'rank\\tfeature\\tmethod\\tscore'" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.fixture
def evaluated(workdir, tmp_path, capsys):
    """A private copy of the trained directory with a fresh report/."""
    out = tmp_path / "run"
    out.mkdir()
    for name in ("model.txt", "test.cache", "manifest.json", "rank_igr_full.tsv"):
        shutil.copy(workdir / name, out / name)
    assert run_cli(["evaluate", "--out", str(out)], capsys)[0] == 0
    return out


def test_evaluate_without_ranking_drops_an_old_rank_curve(evaluated, capsys):
    # the curve comes from rank_igr_full.tsv: with that file gone, a rerun
    # leaves no earlier run's curve beside its fresh report
    assert (evaluated / "report" / "rank_curve.tsv").exists()
    (evaluated / "rank_igr_full.tsv").unlink()
    code, out, _ = run_cli(["evaluate", "--out", str(evaluated)], capsys)
    assert code == 0
    assert not (evaluated / "report" / "rank_curve.tsv").exists()
    assert "rank_curve.tsv" not in out and "confusion.tsv" in out


def _edit_cache(edit):
    """An edit of a dataset cache's bytes: `edit(header, numeric, nominal,
    label_index)` changes the parsed header line or copies of the arrays in
    place, and the cache is written back from them."""
    def damage(raw: bytes) -> bytes:
        magic, header, payload = raw.split(b"\n", 2)
        header = json.loads(header)
        n = header["rows"]
        kinds = [kind for _, kind in header["schema"]["features"]]
        arrays, at = [], 0
        for dtype, width in (("<f8", kinds.count("numeric")), ("<i4", kinds.count("nominal")),
                             ("<i4", None)):
            shape = (n,) if width is None else (n, width)
            arrays.append(np.frombuffer(payload, dtype, int(np.prod(shape)), at).reshape(shape).copy())
            at += arrays[-1].nbytes
        edit(header, *arrays)
        return b"\n".join([magic, json.dumps(header).encode()]) + b"\n" + b"".join(
            a.tobytes() for a in arrays)
    return damage


def _set(array, at, value):
    array[at] = value


def _damage_line(no, edit):
    """An edit of a file's bytes that rewrites its line `no` (from 1)."""
    def damage(raw: bytes) -> bytes:
        lines = raw.split(b"\n")
        lines[no - 1] = edit(lines[no - 1])
        return b"\n".join(lines)
    return damage


class TestRecordErrorsNameTheFile:
    """A bad record in a dataset cache, or a bad line in raw record input,
    exits 4 with one line naming the file and the record or line."""

    @pytest.mark.parametrize("name, damage, command, needle", [
        ("test.cache", lambda raw: raw + b"\0", "evaluate", "bytes after the header, not"),
        ("test.cache", _edit_cache(lambda h, num, nom, idx: _set(nom, (3, 0), 99)),
         "evaluate", "record 3: feature service: code 99 is outside its domain"),
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


def _rename_feature(header, *_):
    features = header["schema"]["features"]
    features[1] = features[0]


# damage to test.cache -> what its one error line must say
DAMAGED_CACHES = {
    "v1-magic": (lambda raw: raw.replace(b" v2\n", b" v1\n", 1),
                 "line 1: a version 1 dataset cache: `chids preprocess` rewrites it"),
    "not-json": (lambda raw: raw.replace(b"\n{", b"\n{{", 1), "line 2: malformed file (JSONDecodeError"),
    "nested-too-deep": (lambda raw: raw.replace(b"\n{", b"\n" + b"[" * 100_000, 1),
                        "line 2: malformed file (RecursionError"),
    "missing-key": (_edit_cache(lambda h, *_: h.pop("labels")),
                    "line 2: the header is not an object with the keys"),
    "repeated-feature": (_edit_cache(_rename_feature), "line 2: malformed file (ValueError: duplicate"),
    "name-not-string": (_edit_cache(lambda h, *_: h["schema"]["features"][0].__setitem__(0, 5)),
                        "line 2: malformed file (ValueError: feature names must be strings)"),
    "symbol-not-string": (_edit_cache(lambda h, *_: h["schema"]["domains"]["service"].append(None)),
                          "line 2: malformed file (ValueError: feature service: domain is not a list"),
    "rows-negative": (_edit_cache(lambda h, *_: h.update(rows=-1)), "line 2: rows -1 is not a count"),
    "rows-huge": (_edit_cache(lambda h, *_: h.update(rows=10**15)),
                  "1000000000000000 rows take 32000000000000000 bytes after the header, not"),
    "short": (lambda raw: raw[:-1], "bytes after the header, not"),
    "extra": (lambda raw: raw + b"\0", "bytes after the header, not"),
    "nan": (_edit_cache(lambda h, num, nom, idx: _set(num, (3, 0), np.nan)),
            "record 3: feature duration: nan is not a finite number"),
    "inf": (_edit_cache(lambda h, num, nom, idx: _set(num, (5, 2), -np.inf)),
            "record 5: feature count: -inf is not a finite number"),
    "code-negative": (_edit_cache(lambda h, num, nom, idx: _set(nom, (0, 0), -1)),
                      "record 0: feature service: code -1 is outside its domain"),
    "code-domain-size": (_edit_cache(lambda h, num, nom, idx: _set(
        nom, (7, 0), len(h["schema"]["domains"]["service"]))), "record 7: feature service: code"),
    "label-index": (_edit_cache(lambda h, num, nom, idx: _set(idx, 4, len(h["labels"]))),
                    "record 4: label index"),
    "label-unknown": (_edit_cache(lambda h, *_: h["labels"].__setitem__(0, "quantum_worm.")),
                      "line 2: unknown label 'quantum_worm'"),
}


class TestDamagedCache:
    """A dataset cache that save_cache would not have written exits 4 with
    one line naming the file, and no array is sized from an unchecked
    header. Its schema is duration, service, src_bytes and count."""

    @pytest.mark.parametrize("command", ["evaluate", "detect"])
    @pytest.mark.parametrize("case", sorted(DAMAGED_CACHES))
    def test_exit_4_names_file(self, workdir, tmp_path, case, command, capsys):
        out = _detect_dir(workdir, tmp_path)
        target = out / "test.cache"
        damage, needle = DAMAGED_CACHES[case]
        raw = (workdir / "test.cache").read_bytes()
        assert raw.split(b"\n", 2)[1].startswith(
            b'{"schema":{"features":[["duration","numeric"],["service","nominal"],'
            b'["src_bytes","numeric"],["count","numeric"]]')
        target.write_bytes(damage(raw))
        args = {"evaluate": ["evaluate"], "detect": ["detect", "--input", str(target)]}[command]
        code, _, err = run_cli(args + ["--out", str(out)], capsys)
        assert code == 4, err
        assert err.startswith(f"chids: {target}: ") and needle in err, err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
    def test_a_huge_row_count_allocates_nothing(self, workdir, tmp_path, packed):
        import tracemalloc

        from chids.errors import DataError
        from chids.kdd import load_cache

        damage, needle = DAMAGED_CACHES["rows-huge"]
        raw = damage((workdir / "test.cache").read_bytes())
        target = tmp_path / "huge.cache"
        target.write_bytes(gzip.compress(raw) if packed else raw)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=needle):
                load_cache(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestOnlyLineEndsEndALine:
    """Only `\\n`, `\\r\\n` and `\\r` end a line of a chids file. `\\f` and
    `\\x1c`, at which `str.splitlines` would also break, stay inside their
    line, so the line named in an error is the line of the file."""

    @pytest.mark.parametrize("name, damage, command, needle", [
        ("model.txt", _damage_line(5, lambda ln: b"\x1c" + ln), "evaluate", "line 5: bad rule line"),
        ("model.txt", _damage_line(5, lambda ln: ln + b"\x0c"), "evaluate", "line 5: bad rule line"),
        ("rank_igr_full.tsv", _damage_line(3, lambda ln: ln.replace(b"\t", b"\t\x0c", 1)),
         "evaluate", "line 3: feature '\\x0c"),
        ("train_timing.txt", lambda raw: b"timing train_s 1.5\x0c\n", "evaluate",
         "line 1: '1.5\\x0c' is not a finite number"),
    ], ids=["model-x1c", "model-trailing-ff", "rank-ff-in-feature", "timing-ff"])
    def test_error_names_the_line(self, workdir, evaluated, name, damage, command, needle, capsys):
        shutil.copy(workdir / "train_timing.txt", evaluated / "train_timing.txt")
        path = evaluated / name
        path.write_bytes(damage(path.read_bytes()))
        code, _, err = run_cli([command, "--out", str(evaluated)], capsys)
        assert code == 4
        assert err.startswith(f"chids: {path}: ") and needle in err
        assert len(err.splitlines()) == 1


class TestModelSymbolOutsideTheDomain:
    """A model's nominal test may name a symbol that the data lacks:
    `detect` grows the domains of raw input from that input alone, so a
    symbol seen in training may be missing from new traffic. Such a test
    matches no record, and evaluate and detect exit 0."""

    def test_rule_on_an_unseen_symbol_covers_no_record(
        self, workdir, synth_corpus_path, tmp_path, capsys
    ):
        head = (workdir / "model.txt").read_text().splitlines()[:3]  # magic, kind, features
        assert "service:nominal" in head[2]
        plain = "\n".join(head + ["default normal"]) + "\n"
        models = {"plain": plain, "zzz": plain + "rule IF service == zzz THEN dos cov=1 err=0\n"}
        sample = tmp_path / "sample.kdd"
        sample.write_text("\n".join(Path(synth_corpus_path).read_text().splitlines()[:200]) + "\n")
        outputs = {}
        for name, text in models.items():
            out = tmp_path / name
            out.mkdir()
            for f in ("test.cache", "transform.json"):
                shutil.copy(workdir / f, out / f)
            (out / "model.txt").write_text(text)
            assert run_cli(["evaluate", "--out", str(out)], capsys)[0] == 0
            assert run_cli(["detect", "--input", str(sample), "--out", str(out)], capsys)[0] == 0
            outputs[name] = [(out / f).read_bytes() for f in ("report/confusion.tsv", "dispositions.tsv")]
        # with the rule first and `dos` its class, one covered record would change both files
        assert outputs["zzz"] == outputs["plain"]


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
part.min_leaf = 2
part.confidence = 0.25
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

    def test_control_characters_round_trip(self, tmp_path, capsys):
        # `\f` and `\x1c` stay inside their line; str.splitlines would break it
        code, out, _ = run_cli(["config", "--set", "dataset=runs/a\x0cb\x1cc.kdd"], capsys)
        assert code == 0 and "\ndataset = runs/a\x0cb\x1cc.kdd\n" in out
        conf = tmp_path / "run.conf"
        conf.write_text(out)
        assert run_cli(["config", "--config", str(conf)], capsys) == (0, out, "")

    def test_bad_set_key(self, capsys):
        code, _, err = run_cli(["config", "--set", "bogus.key=1"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "setting",
        ["rules.window=-1", "rules.window=nan", "rules.window=inf", "rules.delay_window=inf",
         "rules.retransmission_deadline=0", "rules.retransmission_deadline=inf",
         "rules.repetition_limit=0", "rules.interval_lower=31", "rules.rssi_max=-100",
         "rules.interval_lower=-inf", "rules.interval_upper=inf", "rules.rssi_min=-inf",
         "rules.rssi_max=inf",
         "part.confidence=0", "part.confidence=0.51", "part.confidence=nan", "part.confidence=1e-17",
         "part.confidence=1e-300", "part.min_leaf=0"],
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

    @pytest.mark.parametrize("command", ["preprocess", "config"])
    def test_prune_naming_an_unknown_feature_exit_2(self, synth_corpus_path, tmp_path, command,
                                                    capsys):
        args = {
            "preprocess": ["preprocess", "--dataset", str(synth_corpus_path)],
            "config": ["config"],
        }[command]
        code, out, err = run_cli(args + ["--out", str(tmp_path), "--set", "prune=land,nosuch"],
                                 capsys)
        assert code == 2
        assert out == "" and err == "chids: prune: unknown features ['nosuch']\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["preprocess", "config"])
    @pytest.mark.parametrize("setting, message", [
        ("split.train_size=0", "split.train_size must be >= 1"),
        ("split.train_size=-5", "split.train_size must be >= 1"),
        ("split.test_size=-1", "split.test_size must be >= 0"),
        ("prune=urgent,land,urgent", "prune: names ['urgent'] more than once"),
        ("split.minority=u2r,r2l,u2r", "split.minority: names ['u2r'] more than once"),
    ], ids=["train-zero", "train-negative", "test-negative", "prune-twice", "minority-twice"])
    def test_split_size_or_repeated_name_exit_2(self, synth_corpus_path, tmp_path, command,
                                                setting, message, capsys):
        args = {
            "preprocess": ["preprocess", "--dataset", str(synth_corpus_path)],
            "config": ["config"],
        }[command]
        code, out, err = run_cli(args + ["--out", str(tmp_path), "--set", setting], capsys)
        assert (code, out, err) == (2, "", f"chids: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_default_output_bytes(self, capsys):
        code, out, _ = run_cli(["config"], capsys)
        assert code == 0 and out == DEFAULT_CONFIG

    def test_readme_layout_lists_every_command(self):
        import argparse

        from chids.cli import build_parser

        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        layout = (Path(__file__).parents[1] / "README.md").read_text().split("\n## Layout\n", 1)[1]
        rows = re.findall(r"^\| `([a-z]+)` \|", layout, re.M)
        listed = re.search(r"cli\.py +subcommands: ([a-z ]+);", layout).group(1).split()
        assert sorted(rows) == sorted(listed) == sorted(sub.choices)

    def test_report_is_not_a_command(self, tmp_path, capsys):
        # evaluate writes the report bundle; nothing re-renders it
        with pytest.raises(SystemExit) as exc:
            main(["report", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2 and "invalid choice: 'report'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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


# runs one command, then prints its exit code and the watched modules it loaded
_RUN_AND_LIST_MODULES = """
import sys
from chids.cli import main
code = main(sys.argv[1:])
print(code, *sys.modules)
"""


class TestEachCommandLoadsOnlyItsStages:
    """A command imports the stage modules it runs and no others: on a
    cluster head, every module a command loads is start-up time."""

    # no command loads these: the settings and result records are built
    # without `dataclasses`
    NO_COMMAND_LOADS = {"dataclasses"}

    @pytest.mark.parametrize("command, absent", [
        (["config"], {"numpy"}),
        (["simulate", "--scenario", "sybil"], {"numpy"}),
        # the split's seeded permutation is chids's own, so numpy.random stays unloaded
        (["preprocess", "--dataset", "CORPUS", *SPLIT_OVERRIDES], {"numpy.random", "chids.anomaly",
                                                                   "chids.pipeline"}),
        # PART's pessimistic pruning computes its normal quantile itself
        (["train"], {"chids.anomaly", "chids.preprocess", "chids.pipeline", "logging",
                     "concurrent.futures", "numpy.random", "statistics", "fractions", "decimal"}),
        (["evaluate"], {"chids.anomaly", "chids.preprocess", "fractions", "numpy.random"}),
        # a skipped line is reported by cli._err, as every diagnostic is
        (["preprocess", "--dataset", "CORPUS_AND_BAD_LINE", *SPLIT_OVERRIDES], {"logging"}),
        # the anomaly stage loads only with an event stream
        (["detect", "--input", "CORPUS"], {"chids.anomaly", "chids.ranking", "chids.evaluate",
                                           "numpy.random", "logging", "concurrent.futures"}),
        (["detect", "--input", "SAMPLE", "--events", "STREAM"],
         {"chids.ranking", "chids.evaluate", "numpy.random", "logging", "concurrent.futures"}),
    ], ids=["config", "simulate", "preprocess", "train", "evaluate", "preprocess-bad-line",
            "detect-input", "detect-events"])
    def test_fresh_interpreter(self, workdir, synth_corpus_path, tmp_path, command, absent):
        from chids.anomaly import generate_stream, write_stream

        out = tmp_path / "run"
        shutil.copytree(workdir, out)
        lines = Path(synth_corpus_path).read_text().splitlines(True)
        bad = tmp_path / "bad.kdd"
        bad.write_text("".join(lines) + "not,a,record\n")
        events = generate_stream("sybil", 0)
        write_stream(events, tmp_path / "stream.tsv")
        (tmp_path / "sample.kdd").write_text("".join(lines[:len(events)]))
        inputs = {"CORPUS": str(synth_corpus_path), "CORPUS_AND_BAD_LINE": str(bad),
                  "SAMPLE": str(tmp_path / "sample.kdd"), "STREAM": str(tmp_path / "stream.tsv")}
        command = [inputs.get(arg, arg) for arg in command]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_AND_LIST_MODULES, *command, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.splitlines()[-1].split()
        assert code == "0"
        assert sorted((absent | self.NO_COMMAND_LOADS).intersection(loaded)) == []


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


class TestDetectNormalizesRawInput:
    def test_raw_lines_match_their_normalized_cache(self, tmp_path):
        # the model keeps all 41 features, so raw input has the model's
        # feature names; it is still selected and normalized
        from synthdata import write_corpus
        from chids import preprocess
        from chids.kdd import load_dataset, save_cache

        corpus = tmp_path / "c.kdd"
        write_corpus(corpus, n=4000, seed=5)
        out = tmp_path / "run"
        for args in (["preprocess", "--dataset", str(corpus), "--set", "prune=",
                      "--set", "select.k=41", "--set", "split.train_size=2000",
                      "--set", "split.test_size=1000"], ["train"]):
            assert main(args + ["--out", str(out)]) == 0
        transform = json.loads((out / "transform.json").read_text())
        stats = preprocess.NormalizationStats.from_json_obj(transform["normalization"])
        raw = load_dataset(corpus)
        lines = preprocess.apply_normalizer(
            preprocess.select_features(raw, transform["selected"]), stats).take(raw.line_rows)
        save_cache(lines, tmp_path / "lines.cache")

        got = {}
        for name, path in (("raw", corpus), ("cache", tmp_path / "lines.cache")):
            (tmp_path / name).mkdir()
            det = _detect_dir(out, tmp_path / name)
            assert main(["detect", "--input", str(path), "--out", str(det)]) == 0
            got[name] = (det / "dispositions.tsv").read_text()
        assert got["raw"] == got["cache"]
        classes = Counter(ln.split("\t")[3] for ln in got["raw"].splitlines()[2:])
        assert sum(classes.values()) == 5800 and classes["dos"] < 5800 / 2

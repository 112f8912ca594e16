"""Command-line front end.

Subcommands mirror the pipeline stages so each can be driven and audited
independently: preprocess -> train -> evaluate (which writes the report
bundle), plus detect (end-to-end hybrid run on a record stream) and
simulate (synthetic event scenarios).

stdout carries only data and artifact paths; diagnostics go to stderr.
Exit codes: 0 ok, 1 internal, 2 usage/config, 3 I/O, 4 malformed data,
5 missing prerequisite artifact, 6 invalid operation.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
import time
from collections import Counter
from pathlib import Path

from . import artifact
from .config import RunConfig, apply_setting, load_config, render_config
from .errors import (ChidsError, ConfigError, DataError, IoError, MissingArtifact, UnpairedStream,
                     bad_lines)
from .rule_config import SCENARIOS
from .sections import FEATURE_TABLE, AttackClass

# Each cmd_* imports the stage modules it runs when it starts, so a command
# compiles and loads only those: `config` and `simulate` load no numpy, and
# `train` no anomaly engine or preprocessing. A stage function is looked up
# on its module at call time, so a wrapper set on the module applies.

TRAIN_FULL = "train_full.cache"
TEST_FULL = "test_full.cache"
TRAIN_CACHE = "train.cache"
TEST_CACHE = "test.cache"
MANIFEST_JSON = "manifest.json"
TRANSFORM_JSON = "transform.json"
MODEL_FILE = "model.txt"
TRAIN_TIMING = "train_timing.txt"
RANK_FULL = "rank_igr_full.tsv"
RANK_SELECTED = "rank_selected.tsv"
DISPOSITIONS = "dispositions.tsv"
DETECT_SUMMARY = "detect_summary.txt"
STREAM_TSV = "stream_{}.tsv"
VERDICTS_TSV = "verdicts_{}.tsv"
REPORT_DIR = "report"
# every file a command writes in the out directory, besides detect's alerts
OUT_FILES = (
    TRAIN_FULL, TEST_FULL, TRAIN_CACHE, TEST_CACHE, MANIFEST_JSON, TRANSFORM_JSON,
    MODEL_FILE, TRAIN_TIMING, RANK_FULL, RANK_SELECTED, DISPOSITIONS, DETECT_SUMMARY, REPORT_DIR,
    *(name.format(s) for name in (STREAM_TSV, VERDICTS_TSV) for s in SCENARIOS),
)


def _err(msg: str) -> None:
    print(f"chids: {msg}", file=sys.stderr)


def _out(path) -> None:
    print(str(path))


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, cfg)
    for kv in getattr(args, "set", None) or []:
        if "=" not in kv:
            raise ConfigError(f"--set expects key=value, got {kv!r}")
        key, raw = kv.split("=", 1)
        cfg = apply_setting(cfg, key.strip(), raw)
    for key in ("dataset", "seed", "threads", "out"):
        value = getattr(args, key, None)
        if value not in (None, ""):
            cfg = apply_setting(cfg, key, str(value))
    cfg.validate()
    return cfg


def _outdir(cfg: RunConfig) -> Path:
    """The out directory of a command, checked before any input is read: it,
    or its nearest existing ancestor, is a directory. Preprocess and
    simulate make it just before their first write; train, evaluate and
    detect read the earlier commands' artifacts from it."""
    p = Path(cfg.out)
    there = next(q for q in (p, *p.parents) if q.exists())
    if not there.is_dir():
        raise IoError(f"out directory {p} cannot be made: {there} is not a directory")
    return p


def _need(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifact(path, hint)
    return path


def cmd_preprocess(cfg: RunConfig) -> int:
    from . import kdd, preprocess, ranking

    if not cfg.dataset:
        raise ConfigError("no dataset path (set `dataset` in the config or pass --dataset)")
    out = _outdir(cfg)
    _err(f"loading {cfg.dataset}")
    ds = kdd.load_dataset(cfg.dataset)
    if ds.parse_errors:
        _err(f"{cfg.dataset}: skipped {bad_lines(ds.parse_errors)}")
    dres = preprocess.dedupe(ds)
    _err(
        f"dedupe: {dres.n_input} -> {dres.n_output} "
        f"(reduction {dres.reduction_rate * 100:.2f}%)"
    )
    split = preprocess.stratified_split(dres.dataset, cfg.split_spec())
    dedupe = {"input": dres.n_input, "output": dres.n_output}
    del ds, dres  # the split holds every record it needs; keep only the dedupe counts

    # Rank the full feature set for the descending-curve report. Pruning
    # only drops columns, so the same cut points score the pruned set.
    disc = ranking.discretize(split.train)
    igr_scores = ranking.score_features(split.train, disc, ranking.IGR, threads=cfg.threads)
    train_p = preprocess.prune_features(split.train, cfg.prune)
    scores = ranking.score_features(train_p, disc, cfg.select_method, threads=cfg.threads)
    selected = ranking.select_top_k(scores, cfg.select_k)
    _err(f"selected features ({cfg.select_method}, k={cfg.select_k}): {', '.join(selected)}")

    # fitting the normalization is the last check of the data: no file,
    # nor the out directory, is made before it passes
    train_s = preprocess.select_features(train_p, selected)
    stats = preprocess.fit_normalizer(train_s)
    out.mkdir(parents=True, exist_ok=True)
    kdd.save_cache(split.train, out / TRAIN_FULL)
    kdd.save_cache(split.test, out / TEST_FULL)
    ranking.write_rank_report(igr_scores, out / RANK_FULL)
    ranking.write_rank_report(scores, out / RANK_SELECTED)
    test_s = preprocess.select_features(split.test, selected)
    kdd.save_cache(preprocess.apply_normalizer(train_s, stats), out / TRAIN_CACHE)
    kdd.save_cache(preprocess.apply_normalizer(test_s, stats), out / TEST_CACHE)

    transform = {
        "version": 1,
        "prune": list(cfg.prune),
        "selected": list(selected),
        "normalization": stats.to_json_obj(),
    }
    artifact.write_text(out / TRANSFORM_JSON, artifact.json_text(transform))
    artifact.write_text(out / MANIFEST_JSON, artifact.json_text({"dedupe": dedupe, "split": split.manifest}))
    for name in (TRAIN_CACHE, TEST_CACHE, TRAIN_FULL, TEST_FULL, MANIFEST_JSON, TRANSFORM_JSON):
        _out(out / name)
    return 0


def cmd_train(cfg: RunConfig) -> int:
    from . import kdd, learner

    out = _outdir(cfg)
    train_path = _need(out / TRAIN_CACHE, "chids preprocess")
    train = kdd.load_cache(train_path)
    with artifact.parsing(train_path, 2):  # the header, whose domains a rule may name
        learner.check_symbols(train.schema)
    _err(f"training part on {len(train)} records")
    t0 = time.perf_counter()
    model = learner.train_part(train, cfg.tree_params())
    elapsed = time.perf_counter() - t0
    learner.save_model(model, out / MODEL_FILE)
    artifact.write_text(out / TRAIN_TIMING, f"timing train_s {elapsed:.6f}\n")
    _err(f"trained in {elapsed:.3f}s")
    _out(out / MODEL_FILE)
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    from . import evaluate as ev, kdd, learner, ranking

    out = _outdir(cfg)
    model = learner.load_model(_need(out / MODEL_FILE, "chids train"))
    test = kdd.load_cache(_need(out / TEST_CACHE, "chids preprocess"))
    cm, test_s = ev.evaluate(model, test)
    metrics, written = ev.emit_report(
        out / REPORT_DIR,
        cm,
        test_s,
        split_per_class=_read_if_present(
            out / MANIFEST_JSON, artifact.read_parsed, _split_per_class),
        rank_scores=_read_if_present(out / RANK_FULL, ranking.read_rank_report),
        train_s=_read_if_present(out / TRAIN_TIMING, artifact.read_lines, _train_seconds),
    )
    _err(
        f"detection rate {metrics['detection_rate_pct']:.2f}%  "
        f"false alarms {metrics['false_alarm_rate_pct']:.2f}%  "
        f"test time {test_s:.3f}s"
    )
    for p in written:
        _out(p)
    return 0


def _train_seconds(lines) -> float:
    """The training time in a train_timing.txt: its one line is
    `timing train_s <v>`, with v a finite number of seconds >= 0."""
    head, _, text = next(lines, "").rpartition(" ")
    if head != "timing train_s":
        raise DataError("expected one line `timing train_s <seconds>`")
    seconds = artifact.finite(text)
    if seconds < 0 or next(lines, None) is not None:
        raise DataError("expected one line `timing train_s <seconds>`, seconds >= 0")
    return seconds


def _split_per_class(text: str) -> dict:
    """The per-class split census of a manifest.json: one row for each of
    the five class tags, whose counts are >= 0 and whose train and test
    together take no more than the class has available."""
    per_class = json.loads(text)["split"]["per_class"]
    tags = sorted(c.tag for c in AttackClass)
    if sorted(per_class) != tags:
        raise DataError(f"split classes {sorted(per_class)}, expected {tags}")
    census = {}
    for tag, row in per_class.items():
        n = census[tag] = {k: operator.index(row[k]) for k in ("available", "train", "test")}
        if min(n.values()) < 0:
            raise DataError(f"class {tag}: negative count in {n}")
        if n["train"] + n["test"] > n["available"]:
            raise DataError(f"class {tag}: train + test exceeds available in {n}")
    return census


def _read_if_present(path: Path, read, *args):
    return read(path, *args) if path.exists() else None


def cmd_simulate(cfg: RunConfig, scenario: str) -> int:
    from . import anomaly

    out = _outdir(cfg)
    events = anomaly.generate_stream(scenario, cfg.seed, cfg.rule_config())
    verdicts = anomaly.evaluate_stream(events, cfg.rule_config())
    out.mkdir(parents=True, exist_ok=True)
    stream_path = out / STREAM_TSV.format(scenario)
    verdict_path = out / VERDICTS_TSV.format(scenario)
    anomaly.write_stream(events, stream_path)
    anomaly.write_verdicts(verdicts, verdict_path)
    _err(f"{scenario}: {len(events)} events, {len(verdicts)} verdicts")
    _out(stream_path)
    _out(verdict_path)
    return 0


def _transform(text: str):
    """The selected features and normalization of a version 1
    transform.json, whose `selected` lists distinct schema features."""
    from . import preprocess

    obj = json.loads(text)
    if obj["version"] != 1:
        raise DataError(f"version {obj['version']!r}, expected 1: `chids preprocess` rewrites it")
    selected, names = obj["selected"], {name for name, _ in FEATURE_TABLE}
    if not (isinstance(selected, list) and all(isinstance(n, str) and n in names for n in selected)
            and len(set(selected)) == len(selected)):
        raise DataError(f"selected {selected!r}: expected a list of distinct schema features")
    return selected, preprocess.NormalizationStats.from_json_obj(obj["normalization"])


def _alert_sink(cfg: RunConfig, input_path: str, events_path: str | None) -> Path:
    """Where detect writes its alerts: `pipeline.alert_sink`, relative to the
    out directory. It may not be detect's input, the out directory, a file
    any command writes there, or a path under `report/`."""
    out = Path(cfg.out)
    sink = out / cfg.pipeline_alert_sink
    own = [out, Path(input_path), *(out / name for name in OUT_FILES)]
    own += [Path(events_path)] if events_path is not None else []
    where = sink.resolve()
    if where in {p.resolve() for p in own} or (out / REPORT_DIR).resolve() in where.parents:
        raise ConfigError(f"pipeline.alert_sink must not name a chids input or artifact: {sink}")
    return sink


def cmd_detect(cfg: RunConfig, input_path: str, events_path: str | None) -> int:
    import numpy as np

    from . import kdd, learner, pipeline, preprocess

    alerts_path = _alert_sink(cfg, input_path, events_path)
    out = _outdir(cfg)
    model = learner.load_model(_need(out / MODEL_FILE, "chids train"))
    selected, stats = artifact.read_parsed(
        _need(out / TRANSFORM_JSON, "chids preprocess"), _transform
    )
    raw = kdd.load_records(input_path)
    if raw.line_rows is None and raw.schema.names == tuple(name for name, _ in model.features):
        ds = raw  # a cache with the model's features is taken as normalized already
    else:
        ds = preprocess.apply_normalizer(preprocess.select_features(raw, selected), stats)
    rows = raw.line_rows  # raw lines: one row per distinct text, classified once
    n = len(ds) if rows is None else len(rows)
    verdict_lines: list[str] = []
    if events_path is not None:  # event k is associated with record k
        from . import anomaly  # the anomaly stage runs only on an event stream

        events = anomaly.read_stream(events_path)
        if len(events) != n:
            raise UnpairedStream(events_path, len(events), input_path, n)
        with artifact.naming(events_path):  # the engine names the event it rejects
            verdicts = anomaly.evaluate_stream(events, cfg.rule_config())
        del events  # the pipeline reads only the verdicts
        flagged = np.zeros(n, dtype=bool)
        flagged[[v.event_index for v in verdicts]] = True
        per_rule = Counter(v.rule for v in verdicts)
        verdict_lines = [f"verdicts.{r} = {per_rule[r]}" for r in anomaly.RULE_IDS]
    elif cfg.detect_mode == "oracle":
        codes = ds.class_codes if rows is None else ds.class_codes[rows]
        if (codes < 0).any():
            raise ConfigError("detect.mode=oracle requires labeled input records")
        flagged = codes != AttackClass.NORMAL
    else:
        flagged = np.full(n, cfg.detect_mode == "all")
    n_flagged = int(flagged.sum())

    run = pipeline.run_pipeline(ds, flagged, model, cfg.pipeline_config(), rows)
    n_alerts = pipeline.emit_alerts(run, alerts_path)
    disp_path = out / DISPOSITIONS
    pipeline.write_dispositions(run, disp_path)
    outcome_counts = np.bincount(run.outcome, minlength=len(pipeline.OUTCOMES)).tolist()
    summary = [
        "#chids-detect v1",
        f"records = {n}",
        f"flagged = {n_flagged}",
        f"misuse_invocations = {run.misuse_invocations}",
        f"alerts = {n_alerts}",
    ]
    summary += [f"outcome.{k} = {v}" for k, v in sorted(zip(pipeline.OUTCOMES, outcome_counts)) if v]
    summary += verdict_lines
    artifact.write_text(out / DETECT_SUMMARY, "".join(s + "\n" for s in summary))
    _err(f"flagged {n_flagged}/{n}; {run.misuse_invocations} misuse invocations; {n_alerts} alerts")
    _out(alerts_path)
    _out(disp_path)
    _out(out / DETECT_SUMMARY)
    return 0


def cmd_config(cfg: RunConfig) -> int:
    sys.stdout.write(render_config(cfg))
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--threads", type=int, help="cap internal parallelism")
    p.add_argument("--out", help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chids", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="dedupe, split, prune, rank, select, normalize")
    p.add_argument("--dataset", help="KDD-format input file (plain or gzip)")
    _add_common(p)

    p = sub.add_parser("train", help="fit the configured classifier on the train cache")
    _add_common(p)

    p = sub.add_parser("evaluate", help="score the model on the test cache and emit reports")
    _add_common(p)

    p = sub.add_parser("detect", help="run the hybrid pipeline over a record stream")
    p.add_argument("--input", required=True, help="records: raw lines or a cache, plain or gzip")
    p.add_argument("--events", help="event stream aligning event k with record k")
    _add_common(p)

    p = sub.add_parser("simulate", help="generate a synthetic event scenario and its verdicts")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    _add_common(p)

    p = sub.add_parser("config", help="print the effective configuration")
    _add_common(p)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "preprocess":
            return cmd_preprocess(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "detect":
            return cmd_detect(cfg, args.input, args.events)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.scenario)
        if args.command == "config":
            return cmd_config(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ChidsError as exc:
        _err(str(exc))
        return exc.exit_code
    except OSError as exc:
        _err(str(exc))
        return IoError.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands mirror the pipeline stages so each can be driven and audited
independently: preprocess -> train -> evaluate, plus detect (end-to-end
hybrid run on a record stream), simulate (synthetic event scenarios) and
report (re-render the report bundle from stored artifacts).

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

import numpy as np

from . import anomaly, artifact, evaluate as ev, learner, pipeline, preprocess, ranking
from .config import RunConfig, apply_setting, load_config, render_config
from .errors import ChidsError, ConfigError, IoError, MissingArtifact
from .kdd import AttackClass, CACHE_MAGIC, Dataset, load_cache, load_dataset, save_cache

TRAIN_FULL = "train_full.cache"
TEST_FULL = "test_full.cache"
TRAIN_CACHE = "train.cache"
TEST_CACHE = "test.cache"
MANIFEST_TXT = "manifest.txt"
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
    TRAIN_FULL, TEST_FULL, TRAIN_CACHE, TEST_CACHE, MANIFEST_TXT, MANIFEST_JSON, TRANSFORM_JSON,
    MODEL_FILE, TRAIN_TIMING, RANK_FULL, RANK_SELECTED, DISPOSITIONS, DETECT_SUMMARY, REPORT_DIR,
    *(name.format(s) for name in (STREAM_TSV, VERDICTS_TSV) for s in anomaly.SCENARIOS),
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
    p = Path(cfg.out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _need(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifact(path, hint)
    return path


def cmd_preprocess(cfg: RunConfig) -> int:
    if not cfg.dataset:
        raise ConfigError("no dataset path (set `dataset` in the config or pass --dataset)")
    out = _outdir(cfg)
    _err(f"loading {cfg.dataset}")
    ds = load_dataset(cfg.dataset)
    dres = preprocess.dedupe(ds)
    _err(
        f"dedupe: {dres.n_input} -> {dres.n_output} "
        f"(reduction {dres.reduction_rate * 100:.2f}%)"
    )
    split = preprocess.stratified_split(dres.dataset, cfg.split_spec())
    save_cache(split.train, out / TRAIN_FULL)
    save_cache(split.test, out / TEST_FULL)

    # Rank the full feature set for the descending-curve report.
    disc_full = ranking.discretize(split.train)
    igr_scores = ranking.score_features(
        split.train, disc_full, ranking.IGR, threads=cfg.threads
    )
    ranking.write_rank_report(igr_scores, out / RANK_FULL)

    train_p = preprocess.prune_features(split.train, cfg.prune)
    test_p = preprocess.prune_features(split.test, cfg.prune)
    disc_p = ranking.discretize(train_p)
    scores = ranking.score_features(train_p, disc_p, cfg.select_method, threads=cfg.threads)
    ranking.write_rank_report(scores, out / RANK_SELECTED)
    selected = ranking.select_top_k(scores, cfg.select_k)
    _err(f"selected features ({cfg.select_method}, k={cfg.select_k}): {', '.join(selected)}")

    train_s = preprocess.select_features(train_p, selected)
    test_s = preprocess.select_features(test_p, selected)
    stats = preprocess.fit_normalizer(train_s)
    train_n = preprocess.apply_normalizer(train_s, stats)
    test_n = preprocess.apply_normalizer(test_s, stats)
    save_cache(train_n, out / TRAIN_CACHE)
    save_cache(test_n, out / TEST_CACHE)

    transform = {
        "version": 1,
        "prune": list(cfg.prune),
        "selected": list(selected),
        "normalization": stats.to_json_obj(),
    }
    artifact.write_text(out / TRANSFORM_JSON, artifact.json_text(transform))
    extra = {
        "features.pruned": ",".join(cfg.prune),
        "features.selected": ",".join(selected),
        "select.method": cfg.select_method,
        "select.k": cfg.select_k,
    }
    artifact.write_text(out / MANIFEST_TXT, preprocess.render_manifest(split.manifest, dres, extra))
    artifact.write_text(out / MANIFEST_JSON, artifact.json_text({
        "dedupe": {"input": dres.n_input, "output": dres.n_output},
        "split": split.manifest.to_json_obj(),
        "selected": list(selected),
    }))
    for name in (TRAIN_CACHE, TEST_CACHE, TRAIN_FULL, TEST_FULL, MANIFEST_TXT, TRANSFORM_JSON):
        _out(out / name)
    return 0


_TRAINERS = {
    "part": lambda ds, cfg: learner.train_part(ds, cfg.tree_params()),
    "tree": lambda ds, cfg: learner.build_tree(ds, cfg.tree_params()),
    "majority": lambda ds, cfg: learner.train_majority_baseline(ds),
}


def cmd_train(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    train = load_cache(_need(out / TRAIN_CACHE, "chids preprocess"))
    _err(f"training {cfg.model_kind} on {len(train)} records")
    t0 = time.perf_counter()
    model = _TRAINERS[cfg.model_kind](train, cfg)
    elapsed = time.perf_counter() - t0
    learner.save_model(model, out / MODEL_FILE)
    artifact.write_text(out / TRAIN_TIMING, f"timing train_s {elapsed:.6f}\n")
    _err(f"trained in {elapsed:.3f}s")
    _out(out / MODEL_FILE)
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    model = learner.load_model(_need(out / MODEL_FILE, "chids train"))
    test = load_cache(_need(out / TEST_CACHE, "chids preprocess"))
    cm, report = ev.evaluate(model, test)
    report.train_time_s = _read_if_present(out / TRAIN_TIMING, _train_seconds)
    written = ev.emit_report(
        out / REPORT_DIR,
        report=report,
        confusion=cm,
        split_per_class=_read_if_present(out / MANIFEST_JSON, _split_per_class),
        rank_scores=_load_rank_scores(out / RANK_FULL),
    )
    _err(
        f"detection rate {report.detection_rate:.2f}%  "
        f"false alarms {report.false_alarm_rate:.2f}%  "
        f"test time {report.test_time_s:.3f}s"
    )
    for p in written:
        _out(p)
    return 0


def _train_seconds(text: str) -> float | None:
    """The training time recorded in a train_timing.txt."""
    for ln in text.splitlines():
        parts = ln.split()
        if len(parts) == 3 and parts[1] == "train_s":
            return float(parts[2])
    return None


def _split_per_class(text: str) -> dict:
    """The per-class split census of a manifest.json."""
    per_class = json.loads(text)["split"]["per_class"]
    return {tag: {k: operator.index(row[k]) for k in ("available", "train", "test")}
            for tag, row in per_class.items()}


def _read_if_present(path: Path, parse):
    return artifact.read_parsed(path, parse) if path.exists() else None


def _load_rank_scores(path: Path):
    """The rows of a rank file; its `#` lines are comments."""
    if not path.exists():
        return None
    scores = []
    for lineno, ln in enumerate(artifact.read_text(path).splitlines()[1:], 2):
        if ln.startswith("#") or not ln.strip():
            continue
        with artifact.parsing(path, lineno):
            _, feature, method, score = ln.split("\t")
            scores.append(ranking.FeatureScore(feature, lineno, float(score), method))
    return scores


def cmd_simulate(cfg: RunConfig, scenario: str) -> int:
    out = _outdir(cfg)
    events = anomaly.generate_stream(scenario, cfg.seed, cfg.rule_config())
    verdicts = anomaly.evaluate_stream(events, cfg.rule_config())
    stream_path = out / STREAM_TSV.format(scenario)
    verdict_path = out / VERDICTS_TSV.format(scenario)
    anomaly.write_stream(events, stream_path)
    anomaly.write_verdicts(verdicts, verdict_path)
    _err(f"{scenario}: {len(events)} events, {len(verdicts)} verdicts")
    _out(stream_path)
    _out(verdict_path)
    return 0


def _load_records_for_detect(path: Path) -> Dataset:
    """Accept either a dataset cache or raw record lines, plain or gzip.
    Labels are optional on raw input; ones outside the taxonomy are treated
    as absent. The first bad line is fatal."""
    with open(path, "rb") as fh:
        first = fh.readline().rstrip(b"\r\n")
    if first == CACHE_MAGIC.encode("ascii"):
        return load_cache(path)
    return load_dataset(path, error_budget=0, labels_optional=True)


def _transform(text: str):
    """The selected features and normalization of a transform.json."""
    obj = json.loads(text)
    return list(obj["selected"]), preprocess.NormalizationStats.from_json_obj(obj["normalization"])


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
    alerts_path = _alert_sink(cfg, input_path, events_path)
    out = _outdir(cfg)
    model = learner.load_model(_need(out / MODEL_FILE, "chids train"))
    selected, stats = artifact.read_parsed(
        _need(out / TRANSFORM_JSON, "chids preprocess"), _transform
    )
    raw = _load_records_for_detect(Path(input_path))
    if tuple(raw.schema.names) == model.feature_names:
        ds = raw  # input is already in model space (e.g. a preprocessed cache)
    else:
        ds = preprocess.apply_normalizer(preprocess.select_features(raw, selected), stats)

    mode = cfg.detect_mode
    verdict_lines: list[str] = []
    if events_path is not None:
        mode = "stream"
    if mode == "all":
        flagged = set(range(len(ds)))
    elif mode == "none":
        flagged = set()
    elif mode == "oracle":
        if (raw.class_codes < 0).any():
            raise ConfigError("detect.mode=oracle requires labeled input records")
        flagged = set(int(i) for i in (raw.class_codes != int(AttackClass.NORMAL)).nonzero()[0])
    else:  # stream: event k is associated with record k
        if events_path is None:
            raise ConfigError("detect.mode=stream requires --events")
        events = anomaly.read_stream(events_path)
        verdicts = anomaly.evaluate_stream(events, cfg.rule_config())
        flagged = {v.event_index for v in verdicts if v.event_index < len(ds)}
        per_rule = Counter(v.rule for v in verdicts)
        verdict_lines = [f"verdicts.{r} = {per_rule[r]}" for r in anomaly.RULE_IDS]

    run = pipeline.run_pipeline(ds, flagged, model, cfg.pipeline_config())
    n_alerts = pipeline.emit_alerts(run, alerts_path)
    disp_path = out / DISPOSITIONS
    pipeline.write_dispositions(run, disp_path)
    outcome_counts = np.bincount(run.outcome, minlength=len(pipeline.OUTCOMES)).tolist()
    summary = [
        "#chids-detect v1",
        f"records = {len(ds)}",
        f"flagged = {len(flagged)}",
        f"misuse_invocations = {run.misuse_invocations}",
        f"alerts = {n_alerts}",
    ]
    summary += [f"outcome.{k} = {v}" for k, v in sorted(zip(pipeline.OUTCOMES, outcome_counts)) if v]
    summary += verdict_lines
    artifact.write_text(out / DETECT_SUMMARY, "".join(s + "\n" for s in summary))
    _err(f"flagged {len(flagged)}/{len(ds)}; {run.misuse_invocations} misuse invocations; {n_alerts} alerts")
    _out(alerts_path)
    _out(disp_path)
    _out(out / DETECT_SUMMARY)
    return 0


def cmd_report(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    manifest_file = _need(out / MANIFEST_JSON, "chids preprocess")
    written = ev.emit_report(
        out / REPORT_DIR,
        split_per_class=artifact.read_parsed(manifest_file, _split_per_class),
        confusion=_read_if_present(out / REPORT_DIR / "confusion.tsv", ev.ConfusionMatrix.from_tsv),
        report=_read_if_present(out / REPORT_DIR / "metrics.json", ev.MetricsReport.from_json),
        rank_scores=_load_rank_scores(out / RANK_FULL),
    )
    for p in written:
        _out(p)
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
    p.add_argument("--input", required=True, help="records: raw lines or a dataset cache")
    p.add_argument("--events", help="event stream aligning event k with record k")
    _add_common(p)

    p = sub.add_parser("simulate", help="generate a synthetic event scenario and its verdicts")
    p.add_argument("--scenario", required=True, choices=anomaly.SCENARIOS)
    _add_common(p)

    p = sub.add_parser("report", help="re-render the report bundle from stored artifacts")
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
        if args.command == "report":
            return cmd_report(cfg)
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

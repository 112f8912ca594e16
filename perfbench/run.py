#!/usr/bin/env python3
"""chids benchmark: the real CLI stages and the anomaly engine on seeded
synthetic inputs, end to end and layer by layer.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  corpus      KDD-shaped corpus (33k lines, 70% duplicates): chids
              preprocess, train, evaluate, detect
  part_noisy  PART on five training splits with 5% flipped labels: train,
              evaluate
  stream      seeded cluster traffic at 100/1k/3k/10k events per second of
              stream time, one StreamEngine per density

Every step runs in a fresh child process, one at a time, on one CPU; its
wall time is taken around the child and its CPU time and peak RSS from its
own rusage. Each child also reports its speed-adjusted time
(perfbench/speed.py), which the end-to-end times are made of. Timed passes
repeat while they end within --seconds (at least one). With --trace 1 one
more pass runs with every public chids function wrapped
(perfbench/tracer.py) and the per-layer metrics are printed instead of the
end-to-end ones. The last stdout line is the JSON result; the line before
it holds the run metadata and every stage-level number. Outputs are checked
after every pass; a failed check prints "correct": false, no metrics, and
exits 1. Every input, and the split seed given to `chids preprocess`, is
made from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench"
ALL_CPUS = frozenset(os.sched_getaffinity(0))

RUN_BUDGET_S = 170.0  # the whole run, set-up and traced pass included
SETUP_REPEATS = 3

SIZES = {
    "full": {
        "corpus": {"n": 10000, "dup_rate": 2.3, "train": 4000, "test": 2000},
        # "train" records per variant
        "part_noisy": {"n": 12000, "dup_rate": 0.2, "train": 2000, "test": 1000,
                       "noise": 0.05, "select_k": 35, "variants": 5},
        # density name -> (events per second of stream time, seconds of stream time)
        "stream": {"d100": (100, 30.0), "d1k": (1000, 30.0), "d3k": (3000, 15.0),
                   "d10k": (10000, 12.0)},
    },
    "smoke": {
        "corpus": {"n": 3000, "dup_rate": 2.3, "train": 1000, "test": 500},
        "part_noisy": {"n": 2000, "dup_rate": 0.2, "train": 400, "test": 400,
                       "noise": 0.05, "select_k": 35, "variants": 2},
        "stream": {"d100": (100, 8.0), "d1k": (1000, 3.0), "d3k": (3000, 2.5),
                   "d10k": (10000, 1.0)},
    },
}
DENSITIES = tuple(SIZES["full"]["stream"])
CLI_COMMANDS = ("preprocess", "train", "evaluate", "detect")

RECONCILE_NOTE = (
    "ROADMAP item 1 re-anchor figures: preprocess 23.8 s / 1.19 GB and detect 20 s / 1.15 GB on "
    "495k lines, PART 36.7 s / 340 rules, anomaly 40k -> 870 events/s. Here corpus is "
    "write_corpus(n=10000, dup_rate=2.3), 33k lines with the same duplicate share, so per-line "
    "costs are about 1/15 of those times plus start-up; part_noisy trains five 2k-record parts, "
    "not one 20k split; stream uses this benchmark's own traffic. The ROADMAP's PART and stream generators "
    "were not specified. Sizes were cut so that every step is repeated within a run; times are "
    "speed-adjusted (perfbench/speed.py, perfbench/README.md)."
)

END_TO_END = {
    "setup_s": "s",
    "ok_frac": "frac",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Step:
    name: str
    wall_s: float  # around the child, as the launcher saw it
    cpu_s: float
    rss_mb: float
    adjusted_s: float  # the child's speed-adjusted time (perfbench/speed.py)


class Runner:
    """Runs one child at a time, through perfbench/launcher.py, and counts
    every one against the operations attempted. Create it before this
    process grows: the launcher starts from this process's memory.
    While `sampler` is set (a timed set-up), it is paused during each
    child, which shares this process's CPU, and given the child's own
    speed-adjusted time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.sampler: Sampler | None = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self._n = 0
        self._launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True)

    def close(self) -> None:
        """Stop the launcher and any child it still runs, and wait for them."""
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self._launcher.pid, signal.SIGKILL)
            self._launcher.wait()

    def child(self, name: str, argv: list[str], result: Path) -> tuple[Step, dict]:
        """Run `argv`, which writes a JSON result holding a "speed" record
        to `result`; the step and that result."""
        self.attempted += 1
        self._n += 1
        log = self.work / f"{self._n:03d}-{name}.log"
        request = {"argv": argv, "env": self.env, "cwd": str(ROOT), "log": str(log),
                   "timeout": max(1.0, self.deadline - time.monotonic())}
        result.unlink(missing_ok=True)
        if self.sampler:
            self.sampler.pause()
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise CheckFailed(f"{name}: the launcher exited")
        res = json.loads(reply)
        if res["code"] != 0:
            self.failed += 1
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            raise CheckFailed(f"{name} exited {res['code']}: {' | '.join(tail)}")
        out = json.loads(result.read_text())
        speed = out["speed"]
        if self.sampler:
            self.sampler.add(speed)
            self.sampler.resume()
        return Step(name, res["wall_s"], res["cpu_s"], res["rss_mb"], speed["adjusted_s"]), out

    def cli(self, args: list, trace: bool = False, tag: str = "") -> tuple[Step, dict]:
        """One chids command under the speed sampler (perfbench/speed.py);
        the step is named after the command, plus `tag`."""
        args = [str(a) for a in args]
        result = self.work / "cli.json"
        argv = [sys.executable, str(HERE / "speed.py"), str(result),
                *(["--trace"] if trace else []), *args]
        return self.child(args[0] + tag, argv, result)


def merge_traces(traces) -> dict:
    """Sum the recorders of several child processes (their "trace" records)."""
    merged = {"calls": {}, "total_s": {}, "self_s": {}, "counters": {}}
    for out in traces:
        for part, values in out["trace"].items():
            for k, v in values.items():
                merged[part][k] = merged[part].get(k, 0) + v
    return merged


# --- workloads -------------------------------------------------------------


class Corpus:
    """chids preprocess, train, evaluate and detect on a KDD-shaped corpus."""

    def __init__(self, runner: Runner, sizes: dict, seed: int):
        self.r, self.z, self.seed = runner, sizes, seed
        self.corpus = runner.work / "corpus.kdd"
        self.out = runner.work / "corpus_out"

    def setup(self) -> None:
        import synthdata

        synthdata.write_corpus(self.corpus, n=self.z["n"], seed=self.seed,
                               dup_rate=self.z["dup_rate"])

    def run_pass(self, trace: bool) -> list[tuple[Step, dict]]:
        z, out = self.z, self.out
        split = ["--set", f"split.train_size={z['train']}", "--set", f"split.test_size={z['test']}"]
        commands = [
            ["preprocess", "--dataset", self.corpus, "--out", out, "--seed", self.seed, *split],
            ["train", "--out", out],
            ["evaluate", "--out", out],
            ["detect", "--input", self.corpus, "--out", out],
        ]
        steps = [self.r.cli(c, trace) for c in commands]
        self.check()
        return steps

    def check(self) -> None:
        if not hasattr(self, "n_lines"):
            lines = self.corpus.read_text(encoding="ascii").splitlines()
            self.n_lines, self.n_distinct = len(lines), len(set(lines))
        man = json.loads((self.out / "manifest.json").read_text())
        expect(man["dedupe"]["input"] == self.n_lines,
               f"dedupe input {man['dedupe']['input']} != {self.n_lines} corpus lines")
        expect(man["dedupe"]["output"] == self.n_distinct,
               f"dedupe output {man['dedupe']['output']} != {self.n_distinct} distinct lines")
        per = man["split"]["per_class"].values()
        split = (sum(c["train"] for c in per), sum(c["test"] for c in per))
        expect(split == (self.z["train"], self.z["test"]), f"split {split}")
        summary = {}
        for ln in (self.out / "detect_summary.txt").read_text().splitlines()[1:]:
            key, value = ln.split(" = ")
            summary[key] = int(value)
        outcomes = sum(v for k, v in summary.items() if k.startswith("outcome."))
        expect(summary["records"] == self.n_lines,
               f"detect records {summary['records']} != {self.n_lines}")
        expect(outcomes == summary["records"], f"outcomes sum to {outcomes}")

    def extra_layers(self, untraced: dict) -> dict:
        """The `threads` knob measured from outside: score_features on the
        train split with threads=1 and threads=2, as shares of preprocess.
        Both CPUs are allowed for it."""
        from chids import kdd, ranking

        train = kdd.load_cache(self.out / "train_full.cache")
        disc = ranking.discretize(train)
        pre = untraced["steps"]["preprocess"]["wall_s"]
        res = {}
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, ALL_CPUS)
        try:
            for threads in (1, 2):
                times = []
                for _ in range(5):
                    t0 = time.perf_counter()
                    ranking.score_features(train, disc, ranking.IGR, threads=threads)
                    times.append(time.perf_counter() - t0)
                score_s = min(times)
                res[f"ranking.score_s.t{threads}"] = score_s
                res[f"ranking.score_t{threads}.preprocess_share"] = score_s / pre
        finally:
            os.sched_setaffinity(0, pinned)
        return res


class PartNoisy:
    """chids train and evaluate on training splits with flipped labels.

    How long PART takes depends on which records the noise hits: one noisy
    2000-record part trains in 0.9-1.5 s. So the workload deals one
    preprocessed training split into `variants` disjoint parts with the
    same class mix, flips exactly `noise` of each class in each part, and
    trains every part in its own output directory; a run's figure is
    their sum."""

    def __init__(self, runner: Runner, sizes: dict, seed: int):
        self.r, self.z, self.seed = runner, sizes, seed
        self.corpus = runner.work / "small.kdd"
        self.base = runner.work / "noisy_base"
        self.outs = [runner.work / f"noisy_{v}" for v in range(sizes["variants"])]

    def setup(self) -> None:
        import synthdata
        from chids import kdd

        z = self.z
        synthdata.write_corpus(self.corpus, n=z["n"], seed=self.seed, dup_rate=z["dup_rate"])
        self.r.cli(["preprocess", "--dataset", self.corpus, "--out", self.base,
                    "--seed", self.seed, "--set", f"select.k={z['select_k']}",
                    "--set", f"split.train_size={z['train'] * len(self.outs)}",
                    "--set", f"split.test_size={z['test']}"])
        ds = kdd.load_cache(self.base / "train.cache")
        rng = random.Random(f"noise-{self.seed}")
        parts = [[] for _ in self.outs]
        k = 0
        for members in _by_class(ds.class_codes):
            rng.shuffle(members)
            for i in members:
                parts[k % len(parts)].append(i)
                k += 1
        for out, rows in zip(self.outs, parts):
            part = ds.take(sorted(rows))
            labels, codes = part.labels.copy(), part.class_codes.copy()
            flips = [i for members in _by_class(part.class_codes)
                     for i in rng.sample(members, round(z["noise"] * len(members)))]
            for j, i in enumerate(flips):
                old = kdd.AttackClass(int(codes[i])).tag
                new = [c for c in synthdata.LABELS if c != old][j % (len(synthdata.LABELS) - 1)]
                labels[i] = rng.choice(synthdata.LABELS[new])
                codes[i] = int(kdd.classify_label(labels[i]))
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(self.base, out)
            kdd.save_cache(kdd.Dataset(part.schema, part.numeric, part.nominal, labels, codes,
                                       part.taxonomy), out / "train.cache")

    def run_pass(self, trace: bool) -> list[tuple[Step, dict]]:
        steps = [self.r.cli([c, "--out", out], trace, tag=f".{v}")
                 for v, out in enumerate(self.outs) for c in ("train", "evaluate")]
        for out in self.outs:
            self.check(out)
        return steps

    def check(self, out: Path) -> None:
        from chids import learner

        model = learner.load_model(out / "model.txt")
        expect(len(model.rules) >= 1, f"{out.name}: model has no rules")
        metrics = json.loads((out / "report" / "metrics.json").read_text())
        rate = metrics["detection_rate_pct"]
        expect(rate >= 95.0, f"{out.name}: detection rate {rate:.2f}% on the clean test split")

    def extra_layers(self, untraced: dict) -> dict:
        return {}


def _by_class(class_codes) -> list[list[int]]:
    """Row indices of each class present, in class order."""
    return [[int(i) for i in (class_codes == c).nonzero()[0]]
            for c in sorted(set(class_codes.tolist()))]


class Stream:
    """One fresh StreamEngine per traffic density, one process() per event."""

    def __init__(self, runner: Runner, sizes: dict, seed: int):
        self.r, self.z, self.seed = runner, sizes, seed

    def setup(self) -> None:
        import stream

        self.expected = {
            name: stream.generate(density, duration, self.seed, self.r.work / f"{name}.tsv")
            for name, (density, duration) in self.z.items()
        }

    def run_pass(self, trace: bool) -> list[tuple[Step, dict]]:
        steps = []
        for name in self.z:
            result = self.r.work / f"{name}.json"
            argv = [sys.executable, str(HERE / "stream.py"), str(self.r.work / f"{name}.tsv"),
                    str(result)] + (["--trace"] if trace else [])
            step, res = self.r.child(name, argv, result)
            self.r.attempted += res["events"]
            self.r.failed += res["failed"]
            expect(res["failed"] == 0, f"{name}: {res['failed']} process() calls raised")
            rules = {rule for _, rule in res["verdicts"]}
            expect(rules <= {"retransmission"}, f"{name}: unexpected rules {sorted(rules)}")
            got = sorted(i for i, _ in res["verdicts"])
            expect(got == self.expected[name],
                   f"{name}: {len(got)} retransmission verdicts, "
                   f"{len(self.expected[name])} planted drops expired")
            res["retransmissions"] = len(res.pop("verdicts"))
            steps.append((step, res))
        return steps

    def extra_layers(self, untraced: dict) -> dict:
        return {}


WORKLOADS = {"corpus": Corpus, "part_noisy": PartNoisy, "stream": Stream}


# --- metrics ---------------------------------------------------------------


def summarize(passes: list[list[tuple[Step, dict]]]) -> dict:
    """End-to-end figures of the untraced passes. Per step, the fastest
    speed-adjusted time of all passes: what is left of the machine's
    drift after the adjustment only ever slows a step down."""
    steps = {}
    for i, (first, _) in enumerate(passes[0]):
        runs = [p[i][0] for p in passes]
        adjusted = [s.adjusted_s for s in runs]
        steps[first.name] = {
            "adjusted_s": min(adjusted),
            "adjusted_median_s": statistics.median(adjusted),
            "wall_s": statistics.median(s.wall_s for s in runs),
            "cpu_s": statistics.median(s.cpu_s for s in runs),
            "rss_mb": max(s.rss_mb for s in runs),
        }
    summary = {
        "pass_s": sum(st["adjusted_s"] for st in steps.values()),
        "peak_rss_mb": max(st["rss_mb"] for st in steps.values()),
        "steps": steps,
        "passes": len(passes),
    }
    if "events" in passes[0][0][1]:  # stream: per density, the fastest replay
        summary["stream"] = {}
        for i, (first, _) in enumerate(passes[0]):
            best = min((p[i][1] for p in passes), key=lambda res: res["replay_adjusted_s"])
            summary["stream"][first.name] = {
                k: best[k] for k in ("events", "replay_s", "replay_adjusted_s", "eps",
                                     "p50_us", "p99_us")}
    return summary


# name -> (unit, better); every workload reports every one, 0 where its
# layer is bypassed. Times are shares of the traced pass, so a bypassed
# layer reads as an unused share rather than as a time.
PER_LAYER: dict[str, tuple[str, str]] = {
    "trace.pass_s": ("s", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
    "kdd.load_dataset.share": ("frac", "lower"),
    "kdd.load_dataset.records": ("count", "lower"),
    "kdd.parse_errors": ("count", "lower"),
    "kdd.parse_record.calls": ("count", "lower"),
    "kdd.parse_record.share": ("frac", "lower"),
    "kdd.from_records.share": ("frac", "lower"),
    "kdd.save_cache.share": ("frac", "lower"),
    "kdd.save_cache.bytes": ("bytes", "lower"),
    "kdd.load_cache.share": ("frac", "lower"),
    "kdd.self.share": ("frac", "lower"),
    "preprocess.dedupe.share": ("frac", "lower"),
    "preprocess.dedupe.in": ("count", "lower"),
    "preprocess.dedupe.out": ("count", "lower"),
    "preprocess.split.share": ("frac", "lower"),
    "preprocess.normalize.share": ("frac", "lower"),
    "preprocess.select.share": ("frac", "lower"),
    "ranking.discretize.share": ("frac", "lower"),
    "ranking.score.share": ("frac", "lower"),
    "ranking.score_t1.preprocess_share": ("frac", "lower"),
    "ranking.score_t2.preprocess_share": ("frac", "lower"),
    "kernels.group_counts.calls": ("count", "lower"),
    "kernels.group_counts.share": ("frac", "lower"),
    "kernels.best_group_cut.calls": ("count", "lower"),
    "kernels.best_group_cut.share": ("frac", "lower"),
    "learner.train_part.share": ("frac", "lower"),
    "learner.train_self.share": ("frac", "lower"),
    "learner.rules": ("count", "lower"),
    "learner.predict_dataset.share": ("frac", "lower"),
    "learner.save_model.share": ("frac", "lower"),
    "learner.load_model.share": ("frac", "lower"),
    "pipeline.run_pipeline.share": ("frac", "lower"),
    "pipeline.misuse_invocations": ("count", "lower"),
    "pipeline.emit_alerts.share": ("frac", "lower"),
    "pipeline.write_dispositions.share": ("frac", "lower"),
    "evaluate.evaluate.share": ("frac", "lower"),
    "evaluate.emit_report.share": ("frac", "lower"),
    **{f"cli.{c}.self_share": ("frac", "lower") for c in CLI_COMMANDS},
    **{f"cli.{c}.rss_mb": ("MB", "lower") for c in CLI_COMMANDS},
    "anomaly.sustained_density": ("1/s", "higher"),
}
for _d in DENSITIES:
    PER_LAYER[f"anomaly.{_d}.eps"] = ("1/s", "higher")
    PER_LAYER[f"anomaly.{_d}.process_calls"] = ("count", "lower")
    PER_LAYER[f"anomaly.{_d}.process.step_share"] = ("frac", "lower")
    PER_LAYER[f"anomaly.{_d}.peak_state"] = ("count", "lower")
    # the stream check fails the run if any other rule fires
    PER_LAYER[f"anomaly.{_d}.verdicts.retransmission"] = ("count", "lower")

# recorder spans whose total time is reported as "<span>.share"
SHARED_SPANS = (
    "kdd.load_dataset", "kdd.parse_record", "kdd.from_records", "kdd.save_cache",
    "kdd.load_cache", "preprocess.dedupe", "preprocess.split", "preprocess.normalize",
    "preprocess.select", "ranking.discretize", "ranking.score", "kernels.group_counts",
    "kernels.best_group_cut", "learner.train_part", "learner.predict_dataset",
    "learner.save_model", "learner.load_model", "pipeline.run_pipeline",
    "pipeline.emit_alerts", "pipeline.write_dispositions", "evaluate.evaluate",
    "evaluate.emit_report",
)
COUNTERS = ("kdd.load_dataset.records", "kdd.parse_errors", "kdd.save_cache.bytes",
            "preprocess.dedupe.in", "preprocess.dedupe.out", "learner.rules",
            "pipeline.misuse_invocations")


def layer_metrics(traced: list[tuple[Step, dict]], untraced: dict, extra: dict) -> dict:
    steps = [s for s, _ in traced]
    trace = merge_traces(out for _, out in traced)
    pass_s = sum(s.wall_s for s in steps)
    total, self_s = trace["total_s"], trace["self_s"]
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["trace.pass_s"] = pass_s
    # like with like: one traced pass against the untraced passes' medians
    m["trace_overhead_frac"] = (sum(s.adjusted_s for s in steps) / sum(
        st["adjusted_median_s"] for st in untraced["steps"].values()) - 1.0)
    for span in SHARED_SPANS:
        m[f"{span}.share"] = total.get(span, 0.0) / pass_s
    for key in COUNTERS:
        m[key] = trace["counters"].get(key, 0)
    for span in ("kdd.parse_record", "kernels.group_counts", "kernels.best_group_cut"):
        m[f"{span}.calls"] = trace["calls"].get(span, 0)
    m["kdd.self.share"] = sum(v for k, v in self_s.items() if k.startswith("kdd.")) / pass_s
    m["learner.train_self.share"] = self_s.get("learner.train_part", 0.0) / pass_s
    for c in CLI_COMMANDS:
        m[f"cli.{c}.self_share"] = self_s.get(f"cli.{c}", 0.0) / pass_s
        m[f"cli.{c}.rss_mb"] = max((st["rss_mb"] for name, st in untraced["steps"].items()
                                    if name.split(".")[0] == c), default=0.0)
    for k in ("ranking.score_t1.preprocess_share", "ranking.score_t2.preprocess_share"):
        m[k] = extra.get(k, 0.0)
    if "stream" in untraced:
        for step, res in traced:
            d = step.name
            m[f"anomaly.{d}.eps"] = untraced["stream"][d]["eps"]
            m[f"anomaly.{d}.process_calls"] = res["trace"]["calls"].get("anomaly.process", 0)
            m[f"anomaly.{d}.process.step_share"] = (
                res["trace"]["total_s"].get("anomaly.process", 0.0) / step.wall_s)
            m[f"anomaly.{d}.peak_state"] = res["peak_state"]
            m[f"anomaly.{d}.verdicts.retransmission"] = res["retransmissions"]
        dens = SIZES["full"]["stream"]
        ok = [dens[d][0] for d in DENSITIES if untraced["stream"][d]["eps"] >= dens[d][0]]
        m["anomaly.sustained_density"] = max(ok, default=0)
    return m


# --- run -------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search the directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for ln in (git / "packed-refs").read_text().splitlines():
            if ln.endswith(" " + ref):
                return ln.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, sizes: dict) -> dict:
    import numpy
    from chids import kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "backend": kernels.backend_name(),
        "nproc": len(ALL_CPUS),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "note": RECONCILE_NOTE,
    }


def run(args, runner: Runner, sizes: dict) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload](runner, sizes, args.seed)

    def timed_setup() -> float:
        runner.sampler = Sampler()
        runner.sampler.start()
        try:
            wl.setup()
        finally:
            runner.sampler.stop()
        adjusted_s, runner.sampler = runner.sampler.adjusted_s, None
        return adjusted_s

    setup_times = [timed_setup()]
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(False))
        last = time.perf_counter() - t0
        # stop before a pass that would end after --seconds, and leave room
        # for the remaining set-ups and the traced pass
        room = last * (2.2 if args.trace else 1.1) + (SETUP_REPEATS - 1) * setup_times[0]
        if (time.perf_counter() - start + last > args.seconds
                or time.monotonic() + room > runner.deadline):
            break
    # The repeats are spread over the run rather than taken back to back;
    # they rebuild identical inputs.
    setup_times += [timed_setup() for _ in range(SETUP_REPEATS - 1)]
    untraced = summarize(passes)
    detail = {"setup_s": setup_times, **untraced}
    ok_frac = 1.0 - runner.failed / max(1, runner.attempted)
    if not args.trace:
        e2e = {
            "setup_s": statistics.median(setup_times),
            "ok_frac": ok_frac,
            "pass_s": untraced["pass_s"],
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
        return {k: e2e[k] for k in END_TO_END}, detail

    traced = wl.run_pass(True)
    extra = wl.extra_layers(untraced)
    detail["trace"] = merge_traces(out for _, out in traced)
    detail["extra"] = extra
    return layer_metrics(traced, untraced, extra), detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "chids" / "cli.py").is_file() or not (TESTS / "synthdata.py").is_file():
        print(f"chids sources not found under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS), str(HERE)]
    # let `finally` stop the launcher and its child when the run is terminated
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process, the launcher and every child, so that the
    # speed sampler's reference blocks run where the program runs.
    os.sched_setaffinity(0, {max(ALL_CPUS)})

    deadline = time.monotonic() + RUN_BUDGET_S
    sizes = SIZES["smoke" if args.smoke else "full"][args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, deadline)
    try:
        meta = metadata(args, sizes)
        metrics, detail = run(args, runner, sizes)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, runner.attempted),
                          "failed": runner.failed, "metrics": {}}))
        return 1
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    units = {k: v[0] for k, v in PER_LAYER.items()} if args.trace else END_TO_END
    result = {
        "correct": True,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"meta": meta, "detail": detail}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n", encoding="ascii")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

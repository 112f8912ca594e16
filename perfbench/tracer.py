"""Aggregating call recorder for the benchmark's traced pass.

The program is measured from outside: `instrument` replaces chids' public
functions by wrappers, through their module and class attributes, so a
traced run differs from an untraced one only by the wrappers. Hot functions
(`parse_record`, the kernels, `StreamEngine.process`) run hundreds of
thousands of times, so nothing is logged per call: each wrapped name keeps
a call count, its total time and its self time (total minus the time spent
in wrapped callees). Everything stays in memory until the run ends.

`python3 perfbench/speed.py RESULT_JSON --trace CLI_ARGS...` runs a CLI
command with every wrapper in place.
"""

from __future__ import annotations

import functools
import os
import time


class Recorder:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._open: list[float] = []  # time spent in wrapped callees, per open call

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def wrap(self, name: str, fn, after=None):
        """`fn` timed under `name`; `after(recorder, result, args)` may add
        counters once the call has returned."""
        clock = time.perf_counter
        open_ = self._open
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = open_.pop()
                if open_:
                    open_[-1] += dt
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + dt
                self_time[name] = self_time.get(name, 0.0) + dt - inner
            if after is not None:
                after(self, result, args)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "counters": self.counters,
        }


def _patch(rec: Recorder, name: str, owners, attr: str, after=None, static=False) -> None:
    """Replace `attr` on every owner by one shared wrapper of the first
    owner's attribute (the CLI imports some kdd functions by name)."""
    wrapper = rec.wrap(name, getattr(owners[0], attr), after)
    for owner in owners:
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def instrument(rec: Recorder) -> None:
    from chids import cli, evaluate, kdd, kernels, learner, pipeline, preprocess, ranking

    def loaded(r, ds, args):
        r.count("kdd.load_dataset.records", len(ds))
        r.count("kdd.parse_errors", len(ds.parse_errors))

    def saved(r, _, args):
        r.count("kdd.save_cache.bytes", os.path.getsize(args[1]))

    def deduped(r, res, args):
        r.count("preprocess.dedupe.in", res.n_input)
        r.count("preprocess.dedupe.out", res.n_output)

    _patch(rec, "kdd.load_dataset", (kdd, cli), "load_dataset", loaded)
    _patch(rec, "kdd.parse_record", (kdd, cli), "parse_record")
    _patch(rec, "kdd.save_cache", (kdd, cli), "save_cache", saved)
    _patch(rec, "kdd.load_cache", (kdd, cli), "load_cache")
    _patch(rec, "kdd.from_records", (kdd.Dataset,), "from_records", static=True)

    _patch(rec, "preprocess.dedupe", (preprocess,), "dedupe", deduped)
    _patch(rec, "preprocess.split", (preprocess,), "stratified_split")
    _patch(rec, "preprocess.select", (preprocess,), "prune_features")
    _patch(rec, "preprocess.select", (preprocess,), "select_features")
    _patch(rec, "preprocess.normalize", (preprocess,), "fit_normalizer")
    _patch(rec, "preprocess.normalize", (preprocess,), "apply_normalizer")

    _patch(rec, "ranking.discretize", (ranking,), "discretize")
    _patch(rec, "ranking.score", (ranking,), "score_features")

    # learner and ranking call the kernels through the module attribute
    _patch(rec, "kernels.group_counts", (kernels,), "group_counts")
    _patch(rec, "kernels.best_group_cut", (kernels,), "best_group_cut")

    # cli._TRAINERS looks learner.train_part up at call time
    _patch(rec, "learner.train_part", (learner,), "train_part",
           lambda r, model, args: r.count("learner.rules", len(model.rules)))
    for cls in (learner.RuleSet, learner.DecisionTree, learner.MajorityModel):
        _patch(rec, "learner.predict_dataset", (cls,), "predict_dataset")
    _patch(rec, "learner.save_model", (learner,), "save_model")
    _patch(rec, "learner.load_model", (learner,), "load_model")

    _patch(rec, "pipeline.run_pipeline", (pipeline,), "run_pipeline",
           lambda r, run, args: r.count("pipeline.misuse_invocations", run.misuse_invocations))
    _patch(rec, "pipeline.emit_alerts", (pipeline,), "emit_alerts")
    _patch(rec, "pipeline.write_dispositions", (pipeline,), "write_dispositions")

    _patch(rec, "evaluate.evaluate", (evaluate,), "evaluate")
    _patch(rec, "evaluate.emit_report", (evaluate,), "emit_report")

    for command in ("preprocess", "train", "evaluate", "detect"):
        _patch(rec, f"cli.{command}", (cli,), f"cmd_{command}")

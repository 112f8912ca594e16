"""Benchmark: compiled entropy-scan kernel vs the pure-Python fallback.

Run `python benchmarks/bench_kernels.py`; it re-executes itself once per
backend (CHIDS_PURE_PYTHON=1 forces the fallback) and prints a comparison
table covering the raw kernel and an end-to-end PART training run. When the
compiled extension is not built, it measures the pure kernel once and prints
no speedup column.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np


def measure() -> dict:
    from chids import kernels
    from chids.kdd import Dataset, FeatureDef, FeatureSchema, KddRecord
    from chids.learner import train_part

    rng = np.random.default_rng(1)
    results = {"backend": kernels.backend_name()}

    # raw kernel: group-count matrices of growing size
    for g in (100, 1000, 10000):
        counts = rng.integers(0, 6, size=(g, 5)).astype(np.int64)
        counts[counts.sum(axis=1) == 0, 0] = 1
        n_iter = max(3, 3000 // g)
        t0 = time.perf_counter()
        for _ in range(n_iter):
            kernels.best_group_cut(counts, 2)
        results[f"kernel_g{g}_us"] = (time.perf_counter() - t0) / n_iter * 1e6

    # end-to-end: PART on a 4-feature synthetic training set
    n = 8000
    schema = FeatureSchema([FeatureDef(i, f"f{i}", "numeric") for i in range(4)])
    X = rng.lognormal(5.0, 2.0, size=(n, 4)).round(1)
    labels = ("normal", "neptune", "satan", "phf", "perl")
    y = np.clip((np.log(X[:, 0] + 1.0) / 4.0).astype(int), 0, 4)
    ds = Dataset.from_records(
        [KddRecord(tuple(map(float, X[i])), labels[y[i]]) for i in range(n)], schema
    )
    t0 = time.perf_counter()
    model = train_part(ds)
    results["part_train_s"] = time.perf_counter() - t0
    results["part_rules"] = len(model.rules)
    return results


def measure_in_child(pure: bool) -> dict:
    env = dict(os.environ)
    env.pop("CHIDS_PURE_PYTHON", None)
    if pure:
        env["CHIDS_PURE_PYTHON"] = "1"
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--measure":
        print(json.dumps(measure()))
        return 0

    rows = [measure_in_child(pure=False)]
    # Without the compiled extension the default run already used the pure
    # kernel; a second pure run would only time noise against itself.
    if rows[0]["backend"] != "pure-python":
        rows.append(measure_in_child(pure=True))

    keys = [k for k in rows[0] if k not in ("backend", "part_rules")]
    name_w = max(len(k) for k in keys) + 2
    header = f"{'metric':<{name_w}}" + "".join(f"{r['backend']:>16}" for r in rows)
    print(header + (f"{'speedup':>10}" if len(rows) == 2 else ""))
    for k in keys:
        unit = "us" if k.endswith("_us") else "s"
        line = f"{k:<{name_w}}" + "".join(f"{r[k]:>14.2f}{unit:>2}" for r in rows)
        if len(rows) == 2:
            line += f"{rows[1][k] / rows[0][k]:>9.1f}x"
        print(line)
    if len(rows) == 1:
        print(f"(compiled extension not built: pure kernel only, {rows[0]['part_rules']} rules)")
        return 0
    if rows[0]["part_rules"] != rows[1]["part_rules"]:
        print("WARNING: backends produced different rule counts")
        return 1
    print(f"(identical models: {rows[0]['part_rules']} rules from both backends)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

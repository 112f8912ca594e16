"""Benchmark: the entropy-scan kernel and an end-to-end PART training run.

Run `PYTHONPATH=src python benchmarks/bench_kernels.py`; it times
`kernels.best_group_cut` on group-count matrices of growing size, the
split search of one 2000-record node with 30 numeric columns (the block
kernel `best_numeric_cuts` that PART calls, next to the per-column
`group_counts` + `best_group_cut` loop that `ranking` uses), and PART on an
8000-record synthetic training set, in this process, and prints one line
per measurement.
"""

import sys
import time

import numpy as np


def measure() -> dict:
    from chids import kernels
    from chids.kdd import Dataset, FeatureDef, FeatureSchema, KddRecord
    from chids.learner import train_part

    rng = np.random.default_rng(1)
    results = {}

    # raw kernel: group-count matrices of growing size
    for g in (100, 1000, 10000):
        counts = rng.integers(0, 6, size=(g, 5)).astype(np.int64)
        counts[counts.sum(axis=1) == 0, 0] = 1
        n_iter = max(3, 3000 // g)
        t0 = time.perf_counter()
        for _ in range(n_iter):
            kernels.best_group_cut(counts, 2)
        results[f"kernel_g{g}_us"] = (time.perf_counter() - t0) / n_iter * 1e6

    # one node's split search: every numeric column at once, and column by column
    block = rng.lognormal(3.0, 2.0, size=(2000, 30)).round(0)
    classes = rng.integers(0, 5, size=2000).astype(np.int8)
    n_iter = 20
    t0 = time.perf_counter()
    for _ in range(n_iter):
        kernels.best_numeric_cuts(block, classes, 5, 2)
    results["node_2000x30_block_us"] = (time.perf_counter() - t0) / n_iter * 1e6
    t0 = time.perf_counter()
    for _ in range(n_iter):
        for j in range(block.shape[1]):
            _, counts = kernels.group_counts(block[:, j], classes, 5)
            kernels.best_group_cut(counts, 2)
    results["node_2000x30_per_column_us"] = (time.perf_counter() - t0) / n_iter * 1e6

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


def main() -> int:
    results = measure()
    rules = results.pop("part_rules")
    name_w = max(len(k) for k in results) + 2
    for k, v in results.items():
        unit = "us" if k.endswith("_us") else "s"
        print(f"{k:<{name_w}}{v:>14.2f}{unit:>3}")
    print(f"(PART learned {rules} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

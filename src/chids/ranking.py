"""Supervised feature scoring: entropy/MDL discretization of numeric
features, Pearson chi-squared and information-gain-ratio scores over the
binned feature vs class contingency table, and deterministic top-k selection.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import artifact, kernels
from .kdd import NUMERIC, Dataset, N_CLASSES

CHI2 = "chi2"
IGR = "igr"


class Discretization:
    """Per-numeric-feature ascending cut points; value v lands in the bin of
    the first cut >= v (so bins are (prev, cut] intervals). Nominal features
    use their symbol domains as bins."""

    def __init__(self, cuts: dict[str, np.ndarray], nominal_names: tuple[str, ...]):
        self.cuts = {n: np.asarray(c, dtype=np.float64) for n, c in cuts.items()}
        self.nominal_names = tuple(nominal_names)
        for name, c in self.cuts.items():
            if c.size > 1 and not (np.diff(c) > 0).all():
                raise ValueError(f"{name}: cut points must be strictly increasing")

    def bin_codes(self, ds: Dataset, feature: str) -> tuple[np.ndarray, int]:
        kind = ds.schema.kind_of[feature]
        if kind == NUMERIC:
            codes = np.searchsorted(self.cuts[feature], ds.column(feature), side="left")
            return codes.astype(np.int64), len(self.cuts[feature]) + 1
        return ds.column(feature).astype(np.int64), max(len(ds.schema.domains[feature]), 1)


def _mdl_cuts(v: np.ndarray, y: np.ndarray) -> list[float]:
    """Cut points of ascending values `v` with class codes `y`: recursive
    binary splitting, where a cut survives only if its information gain
    beats the minimum-description-length coding cost of announcing it."""
    res = kernels.best_numeric_cuts(v[:, None], y, N_CLASSES, 1)[0]
    if res is None:
        return []
    cut, gain, n_left = res
    n = v.size
    total = np.bincount(y, minlength=N_CLASSES)
    left = np.bincount(y[:n_left], minlength=N_CLASSES)
    right = total - left
    k, k1, k2 = (int((c > 0).sum()) for c in (total, left, right))
    h = kernels._entropy(total.tolist(), n)
    h1 = kernels._entropy(left.tolist(), n_left)
    h2 = kernels._entropy(right.tolist(), n - n_left)
    delta = math.log2(3**k - 2) - (k * h - k1 * h1 - k2 * h2)
    if gain <= (math.log2(n - 1) + delta) / n:
        return []
    return _mdl_cuts(v[:n_left], y[:n_left]) + [cut] + _mdl_cuts(v[n_left:], y[n_left:])


def discretize(train: Dataset) -> Discretization:
    """Fit entropy/MDL cut points for every numeric feature on raw training
    values. Features where no cut pays for itself get a single bin."""
    if len(train) == 0:
        raise ValueError("cannot discretize an empty dataset")
    if (train.class_codes < 0).any():
        raise ValueError("discretization requires labeled records")
    cuts = {}
    for name in train.schema.numeric_names:
        order = np.argsort(train.column(name), kind="stable")
        cuts[name] = _mdl_cuts(train.column(name)[order], train.class_codes[order])
    return Discretization(cuts, train.schema.nominal_names)


@dataclass(frozen=True)
class FeatureScore:
    feature: str
    index: int
    score: float
    method: str


def chi_squared_score(ds: Dataset, disc: Discretization, feature: str) -> FeatureScore:
    """Pearson chi-squared statistic of the bin x class table; cells with
    zero expected count contribute nothing."""
    codes, n_bins = disc.bin_codes(ds, feature)
    y = ds.class_codes.astype(np.int64)
    table = np.bincount(codes * N_CLASSES + y, minlength=n_bins * N_CLASSES)
    table = table.reshape(n_bins, N_CLASSES).astype(np.float64)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    total = table.sum()
    score = 0.0
    if total > 0:
        expected = row @ col / total
        mask = expected > 0
        score = float((((table - expected) ** 2)[mask] / expected[mask]).sum())
    return FeatureScore(feature, ds.schema.names.index(feature), score, CHI2)


def info_gain_ratio_score(ds: Dataset, disc: Discretization, feature: str) -> FeatureScore:
    """Information gain of the class given the binned feature, divided by the
    split information of the binning; defined as 0 when the split information
    vanishes (single-bin feature)."""
    codes, n_bins = disc.bin_codes(ds, feature)
    y = ds.class_codes.astype(np.int64)
    h_class = kernels.entropy_vec(np.bincount(y, minlength=N_CLASSES))
    res = kernels.table_gain(codes, y, n_bins, N_CLASSES, h_class, 1)
    score = 0.0 if res is None else max(0.0, float(res[0] / res[1]))
    return FeatureScore(feature, ds.schema.names.index(feature), score, IGR)


SCORERS = {CHI2: chi_squared_score, IGR: info_gain_ratio_score}


def score_features(
    ds: Dataset,
    disc: Discretization,
    method: str,
    features=None,
    threads: int = 1,
) -> list[FeatureScore]:
    """Score every feature (or the named subset) with the given method.

    Per-feature work is independent; with threads > 1 it runs on a thread
    pool and results are reassembled in schema order, so the output is
    identical to the serial path.
    """
    scorer = SCORERS[method]
    names = list(features) if features is not None else list(ds.schema.names)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda n: scorer(ds, disc, n), names))
    return [scorer(ds, disc, n) for n in names]


def rank(scores) -> list[FeatureScore]:
    """The scores best first; ties broken by ascending schema index."""
    return sorted(scores, key=lambda s: (-s.score, s.index))


def select_top_k(scores, k: int) -> list[str]:
    """Names of the k best-ranked features. Growing k only ever appends to
    the selection."""
    ranked = rank(scores)
    if k > len(ranked):
        raise ValueError(f"k={k} exceeds {len(ranked)} scored features")
    return [s.feature for s in ranked[:k]]


def rank_table(scores) -> str:
    """Plot-ready descending rank table: rank, feature, method, score."""
    rows = ["rank\tfeature\tmethod\tscore"]
    rows += [f"{r}\t{s.feature}\t{s.method}\t{s.score!r}" for r, s in enumerate(rank(scores), 1)]
    return "\n".join(rows) + "\n"


def write_rank_report(scores, path) -> None:
    """The rank table of `scores`, closed by a `# mean` comment line."""
    ranked = rank(scores)
    mean = sum(s.score for s in ranked) / len(ranked) if ranked else 0.0
    artifact.write_text(path, rank_table(ranked) + f"# mean\t{mean!r}\n")

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

    def n_bins(self, ds: Dataset, feature: str) -> int:
        if feature in self.cuts:
            return len(self.cuts[feature]) + 1
        return max(len(ds.schema.domains[feature]), 1)

    def bin_codes(self, ds: Dataset, feature: str) -> tuple[np.ndarray, int]:
        kind = ds.schema.kind_of[feature]
        if kind == NUMERIC:
            codes = np.searchsorted(self.cuts[feature], ds.column(feature), side="left")
            return codes.astype(np.int64), len(self.cuts[feature]) + 1
        return ds.column(feature).astype(np.int64), self.n_bins(ds, feature)


def _mdl_cut_positions(group_values: np.ndarray, counts: np.ndarray) -> list[float]:
    """Recursive binary splitting; a cut survives only if its information gain
    beats the minimum-description-length coding cost of announcing it."""
    res = kernels.best_group_cut(counts, 1)
    if res is None:
        return []
    pos, gain, _n_left, h_parent, h_left, h_right = res
    totals = counts.sum(axis=0)
    left_tot = counts[:pos].sum(axis=0)
    right_tot = totals - left_tot
    n = int(totals.sum())
    k = int((totals > 0).sum())
    k1 = int((left_tot > 0).sum())
    k2 = int((right_tot > 0).sum())
    delta = math.log2(3**k - 2) - (k * h_parent - k1 * h_left - k2 * h_right)
    threshold = (math.log2(n - 1) + delta) / n
    if gain <= threshold:
        return []
    cut = (float(group_values[pos - 1]) + float(group_values[pos])) / 2.0
    left = _mdl_cut_positions(group_values[:pos], counts[:pos])
    right = _mdl_cut_positions(group_values[pos:], counts[pos:])
    return left + [cut] + right


def discretize(train: Dataset) -> Discretization:
    """Fit entropy/MDL cut points for every numeric feature on raw training
    values. Features where no cut pays for itself get a single bin."""
    if len(train) == 0:
        raise ValueError("cannot discretize an empty dataset")
    if (train.class_codes < 0).any():
        raise ValueError("discretization requires labeled records")
    cuts = {}
    for name in train.schema.numeric_names:
        gv, counts = kernels.group_counts(train.column(name), train.class_codes, N_CLASSES)
        cuts[name] = np.asarray(_mdl_cut_positions(gv, counts), dtype=np.float64)
    return Discretization(cuts, train.schema.nominal_names)


@dataclass(frozen=True)
class FeatureScore:
    feature: str
    index: int
    score: float
    method: str


def _contingency(ds: Dataset, disc: Discretization, feature: str) -> np.ndarray:
    codes, n_bins = disc.bin_codes(ds, feature)
    y = ds.class_codes.astype(np.int64)
    table = np.bincount(codes * N_CLASSES + y, minlength=n_bins * N_CLASSES)
    return table.reshape(n_bins, N_CLASSES)


def chi_squared_score(ds: Dataset, disc: Discretization, feature: str) -> FeatureScore:
    """Pearson chi-squared statistic of the bin x class table; cells with
    zero expected count contribute nothing."""
    table = _contingency(ds, disc, feature).astype(np.float64)
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
    table = _contingency(ds, disc, feature)
    n = table.sum()
    score = 0.0
    if n > 0:
        h_class = kernels.entropy_vec(table.sum(axis=0))
        row = table.sum(axis=1)
        cond = sum(row[b] / n * kernels.entropy_vec(table[b]) for b in range(len(row)) if row[b] > 0)
        split_info = kernels.entropy_vec(row)
        if split_info > 0.0:
            score = max(0.0, float((h_class - cond) / split_info))
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

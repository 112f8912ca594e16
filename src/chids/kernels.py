"""Entropy-scan kernels for numeric split search.

`group_counts` folds a column into per-value class histograms and
`best_group_cut` scans those histograms for the information-gain-maximal
binary cut. Both are integer-exact up to the entropy sums, which are
evaluated in a fixed order, so a given training set always yields the same
cuts, bit for bit.
"""

from __future__ import annotations

from math import log2

import numpy as np


def backend_name() -> str:
    return "pure-python"


def group_counts(values: np.ndarray, classes: np.ndarray, n_classes: int):
    """Aggregate records into distinct-value groups, sorted ascending.

    Returns (group_values, counts) where counts[i, c] is the number of
    records with value group_values[i] and class c. Integer-exact.
    """
    values = np.asarray(values)
    classes = np.asarray(classes, dtype=np.int64)
    # counts are aggregated per distinct value, so sort stability is irrelevant
    order = np.argsort(values)
    v = values[order]
    y = classes[order]
    n = v.size
    if n == 0:
        return v, np.zeros((0, n_classes), dtype=np.int64)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(v[1:], v[:-1], out=is_start[1:])
    gidx = np.cumsum(is_start) - 1
    g = int(gidx[-1]) + 1
    group_values = v[is_start]
    counts = np.bincount(gidx * n_classes + y, minlength=g * n_classes).reshape(g, n_classes)
    return group_values, counts


def best_group_cut(counts, min_each_side):
    """Best binary cut of value-groups by information gain.

    `counts` is a (g, C) int array-like: per distinct value (ascending),
    the class histogram of the records holding that value. A cut at
    position b separates groups [0, b) from [b, g). Only class-boundary
    cuts are candidates: a boundary between two groups that are pure in
    the same class can never be optimal and is skipped. Sides smaller
    than `min_each_side` records are inadmissible.

    Returns (pos, gain, n_left, h_parent, h_left, h_right) for the best
    cut (first maximum wins, i.e. the smallest cut value), or None when
    no admissible candidate exists.
    """
    if hasattr(counts, "tolist"):  # ndarray: native ints are much faster here
        counts = counts.tolist()
    g = len(counts)
    c_dim = len(counts[0]) if g else 0
    total = [0] * c_dim
    for b in range(g):
        row = counts[b]
        for c in range(c_dim):
            total[c] += row[c]
    n_total = sum(total)
    if g < 2 or n_total == 0:
        return None

    h_parent = 0.0
    for c in range(c_dim):
        v = total[c]
        if v > 0:
            p = v / n_total
            h_parent -= p * log2(p)

    left = [0] * c_dim
    n_left = 0
    best = None
    best_gain = -1.0
    for b in range(1, g):
        prev = counts[b - 1]
        for c in range(c_dim):
            left[c] += prev[c]
            n_left += prev[c]
        if _pure_same_class(prev, counts[b], c_dim):
            continue
        n_right = n_total - n_left
        if n_left < min_each_side or n_right < min_each_side:
            continue
        h_left = 0.0
        h_right = 0.0
        for c in range(c_dim):
            v = left[c]
            if v > 0:
                p = v / n_left
                h_left -= p * log2(p)
            w = total[c] - v
            if w > 0:
                q = w / n_right
                h_right -= q * log2(q)
        gain = h_parent - (n_left / n_total) * h_left - (n_right / n_total) * h_right
        if gain > best_gain:
            best_gain = gain
            best = (b, gain, n_left, h_parent, h_left, h_right)
    return best


def _pure_same_class(row_a, row_b, c_dim):
    """True when both group histograms are pure in the same single class."""
    cls_a = -1
    for c in range(c_dim):
        if row_a[c] > 0:
            if cls_a >= 0:
                return False
            cls_a = c
    cls_b = -1
    for c in range(c_dim):
        if row_b[c] > 0:
            if cls_b >= 0:
                return False
            cls_b = c
    return cls_a == cls_b

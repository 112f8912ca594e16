"""Entropy-scan split kernels.

- `best_numeric_cuts` finds the information-gain-maximal binary cut of
  every column of a numeric block at once: a vectorized screen, then an
  exact confirm of each column's near-best cuts. `learner` calls it once
  per tree node, `ranking`'s MDL discretization once per range it splits.
- `table_gain` scores a split of records into the branches of a code
  column: `learner` calls it for nominal splits, `ranking` for IGR scores.
- `group_counts` + `best_group_cut` find the numeric cut one column at a
  time. No chids code calls them: the tests use them as the reference and
  the benchmark wraps them by name, until it reads an in-program trace and
  they move into the tests.

Cut gains use scalar arithmetic (`_entropy`, `_cut_gain`) summed in class
order, so a training set always yields the same cuts, bit for bit.
"""

from __future__ import annotations

from math import log2

import numpy as np

# Screened gains (np.log2, vector sums) may differ from the exact ones in the
# last bits; every cut this close to its column's screened best is confirmed.
_SCREEN_SLACK = 1e-9


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

    h_parent = _entropy(total, n_total)
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
        gain, h_left, h_right = _cut_gain(left, total, n_left, n_total, h_parent)
        if gain > best_gain:
            best_gain = gain
            best = (b, gain, n_left, h_parent, h_left, h_right)
    return best


def best_numeric_cuts(block, classes, n_classes, min_each_side):
    """Best binary cut of every column of a node's numeric block.

    `block` is (n, F): the node's n records by its F numeric columns;
    `classes` holds the n class codes, each below `n_classes`, which is at
    most 127 because the codes are kept as int8. Per column, the
    result is what `group_counts` + `best_group_cut` give: the cut between
    the distinct values a < b with the highest gain (first maximum wins),
    skipping boundaries between two groups pure in the same class and
    sides under `min_each_side` records, as (threshold, gain, n_left) with
    threshold (a + b) / 2; or None when the column has no admissible cut.
    """
    n, n_cols = block.shape
    out = [None] * n_cols
    if n < 2:
        return out
    order = np.argsort(block, axis=0)
    v = np.take_along_axis(block, order, axis=0)
    y = np.asarray(classes, dtype=np.int8)[order]
    del order
    is_start = np.empty((n, n_cols), dtype=bool)
    is_start[0] = True
    np.not_equal(v[1:], v[:-1], out=is_start[1:])
    # group starts, column by column: each column's first group starts at row 0
    cols, rows = np.nonzero(is_start.T)
    del is_start
    nxt = np.full(rows.size, n, dtype=np.int64)  # the next group's start row
    nxt[:-1] = rows[1:]
    nxt[nxt == 0] = n
    k = np.flatnonzero(rows)  # boundaries: every group start but a column's first
    f, i, s, e = cols[k], rows[k], rows[k - 1], nxt[k]
    del cols, rows, nxt, k
    keep = (i >= min_each_side) & (n - i >= min_each_side)
    # q[r] counts class changes between sorted rows 1..r-1, so rows [s, e),
    # the two groups around a boundary, hold one class iff q[e] == q[s + 1]
    q = np.zeros((n + 1, n_cols), dtype=np.int32)
    np.cumsum(y[1:] != y[:-1], axis=0, dtype=np.int32, out=q[2:])
    keep &= q[e, f] != q[s + 1, f]
    del q, e
    f, i, s = f[keep], i[keep], s[keep]
    if not f.size:
        return out

    # screen: every admissible cut's gain, vectorized
    total = np.bincount(y[:, 0], minlength=n_classes)
    present = np.flatnonzero(total)
    left = np.zeros((f.size, n_classes), dtype=np.int32)
    prefix = np.zeros((n + 1, n_cols), dtype=np.int32)
    for c in present[:-1]:
        np.cumsum(y == c, axis=0, dtype=np.int32, out=prefix[1:])
        left[:, c] = prefix[i, f]
    del prefix, y
    left[:, present[-1]] = i - left.sum(axis=1)
    totals = total.tolist()
    h_parent = _entropy(totals, n)
    n_left = i.astype(np.float64)
    n_right = n - n_left
    gain = (h_parent - n_left / n * _entropy_rows(left, n_left)
            - n_right / n * _entropy_rows(total - left, n_right))
    top = np.full(n_cols, -np.inf)
    np.maximum.at(top, f, gain)
    near = np.flatnonzero(gain >= top[f] - _SCREEN_SLACK)

    # confirm: exact gains of the near-best cuts, in ascending cut order
    best_gain = [-1.0] * n_cols
    for col, nl, row0, lft in zip(
        f[near].tolist(), i[near].tolist(), s[near].tolist(), left[near].tolist()
    ):
        g = _cut_gain(lft, totals, nl, n, h_parent)[0]
        if g > best_gain[col]:
            best_gain[col] = g
            out[col] = ((float(v[row0, col]) + float(v[nl, col])) / 2.0, g, nl)
    return out


def table_gain(codes, classes, n_branches, n_classes, h_parent, min_branch):
    """(gain, split_info) of splitting records into the branches their
    `codes` (each below `n_branches`) name, or None when fewer than two
    branches hold `min_branch` records. `h_parent` is the class entropy of
    all the records; branches are summed in code order, empty ones skipped."""
    n = codes.size
    table = np.bincount(
        codes * n_classes + classes, minlength=n_branches * n_classes
    ).reshape(n_branches, n_classes)
    sizes = table.sum(axis=1)
    if int((sizes >= min_branch).sum()) < 2:
        return None
    cond = 0.0
    for b in range(n_branches):
        if sizes[b] > 0:
            cond += (sizes[b] / n) * entropy_vec(table[b])
    return h_parent - cond, entropy_vec(sizes)


def _entropy(counts, n):
    """Class entropy of a histogram with n records, summed in class order."""
    h = 0.0
    for v in counts:
        if v > 0:
            p = v / n
            h -= p * log2(p)
    return h


def _cut_gain(left, total, n_left, n_total, h_parent):
    """(gain, h_left, h_right) of the cut putting the `left` histogram
    (n_left records) on one side of a node with histogram `total`."""
    n_right = n_total - n_left
    h_left = 0.0
    h_right = 0.0
    for c in range(len(total)):
        v = left[c]
        if v > 0:
            p = v / n_left
            h_left -= p * log2(p)
        w = total[c] - v
        if w > 0:
            q = w / n_right
            h_right -= q * log2(q)
    gain =h_parent - (n_left / n_total) * h_left - (n_right / n_total) * h_right
    return gain, h_left, h_right


def _entropy_rows(counts, n):
    """Class entropy of each row of `counts`, row r holding n[r] records."""
    p = counts / n[:, None]
    t = np.log2(p, out=np.zeros_like(p), where=counts > 0)
    t *= p
    return -t.sum(axis=1)


def entropy_vec(counts: np.ndarray) -> float:
    """Class entropy of one histogram, summed by numpy, for feature scores
    and PART's nominal splits. It may differ from `_entropy`'s class-order
    sum in the last bits, so each caller keeps the one its outputs use."""
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


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

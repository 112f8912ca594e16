"""Independent brute-force reference implementations.

Everything here is deliberately naive (explicit loops, whole-stream rescans,
exhaustive enumeration, high-precision summation) and shares no code with
the package paths it checks. Two exceptions: `read_records_oracle` checks
how the record reader combines lines, not how it parses one, and
`mdl_cuts_oracle` runs on `kernels.group_counts` + `best_group_cut`, which
no package path calls.
"""

import io
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from chids import kernels
from chids.anomaly import COLLISION, RECEPTION
from chids.kdd import DEFAULT_TAXONOMY, Dataset, _read_records


def entropy_oracle(labels) -> float:
    labels = list(labels)
    n = len(labels)
    if n == 0:
        return 0.0
    h = 0.0
    for c in Counter(labels).values():
        p = c / n
        h -= p * math.log2(p)
    return h


def chi2_oracle(bin_codes, class_codes) -> float:
    """Pearson statistic by explicit contingency-table construction."""
    pairs = list(zip(bin_codes, class_codes))
    total = len(pairs)
    if total == 0:
        return 0.0
    bins = sorted(set(b for b, _ in pairs))
    classes = sorted(set(c for _, c in pairs))
    observed = {(b, c): 0 for b in bins for c in classes}
    for b, c in pairs:
        observed[(b, c)] += 1
    row = {b: sum(observed[(b, c)] for c in classes) for b in bins}
    col = {c: sum(observed[(b, c)] for b in bins) for c in classes}
    score = 0.0
    for b in bins:
        for c in classes:
            expected = row[b] * col[c] / total
            if expected > 0:
                score += (observed[(b, c)] - expected) ** 2 / expected
    return score


def igr_oracle(bin_codes, class_codes) -> float:
    bin_codes = list(bin_codes)
    class_codes = list(class_codes)
    n = len(bin_codes)
    if n == 0:
        return 0.0
    h_class = entropy_oracle(class_codes)
    cond = 0.0
    for b in sorted(set(bin_codes)):
        members = [c for bb, c in zip(bin_codes, class_codes) if bb == b]
        cond += (len(members) / n) * entropy_oracle(members)
    split_info = entropy_oracle(bin_codes)
    if split_info <= 0.0:
        return 0.0
    return max(0.0, (h_class - cond) / split_info)


def info_gain_oracle(bin_codes, class_codes) -> float:
    n = len(list(bin_codes))
    if n == 0:
        return 0.0
    h_class = entropy_oracle(class_codes)
    cond = 0.0
    for b in sorted(set(bin_codes)):
        members = [c for bb, c in zip(bin_codes, class_codes) if bb == b]
        cond += (len(members) / n) * entropy_oracle(members)
    return h_class - cond


def gain_for_threshold_oracle(values, classes, thr) -> float:
    left = [c for v, c in zip(values, classes) if v <= thr]
    right = [c for v, c in zip(values, classes) if v > thr]
    n = len(left) + len(right)
    return (
        entropy_oracle(classes)
        - (len(left) / n) * entropy_oracle(left)
        - (len(right) / n) * entropy_oracle(right)
    )


def best_numeric_split_oracle(values, classes, min_each=1):
    """Exhaustive scan of ALL midpoints between adjacent distinct values
    (no boundary-point shortcut). Returns (gain, threshold) of the best, or
    None; first maximum wins so the smallest threshold is kept."""
    distinct = sorted(set(values))
    best = None
    for a, b in zip(distinct, distinct[1:]):
        thr = (a + b) / 2.0
        n_left = sum(1 for v in values if v <= thr)
        n_right = len(list(values)) - n_left
        if n_left < min_each or n_right < min_each:
            continue
        gain = gain_for_threshold_oracle(values, classes, thr)
        if best is None or gain > best[0] + 1e-15:
            best = (gain, thr)
    return best


def mean_std_oracle(values):
    """Two-pass population statistics with compensated summation."""
    values = [float(v) for v in values]
    n = len(values)
    mu = math.fsum(values) / n
    var = math.fsum((v - mu) ** 2 for v in values) / n
    return mu, math.sqrt(var)


def dedupe_oracle(keyed_records):
    """First-occurrence filter by exact (values, label) equality."""
    seen = set()
    out = []
    for r in keyed_records:
        key = (tuple(r.values), r.label)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def largest_remainder_oracle(slots: int, weights: dict) -> dict:
    """Exact-rational proportional apportionment, remainders largest-first
    then key order."""
    total = sum(weights.values())
    shares = {k: Fraction(slots * weights[k], total) for k in weights}
    alloc = {k: int(shares[k]) for k in weights}
    left = slots - sum(alloc.values())
    order = sorted(weights, key=lambda k: (-(shares[k] - alloc[k]), k))
    for k in order[:left]:
        alloc[k] += 1
    return alloc


def binary_rates_oracle(actual, predicted, normal=0):
    """Detection / false-alarm percentages by direct recount."""
    actual = list(actual)
    predicted = list(predicted)
    attacks = sum(1 for a in actual if a != normal)
    normals = len(actual) - attacks
    detected = sum(1 for a, p in zip(actual, predicted) if a != normal and p != normal)
    false_alarms = sum(1 for a, p in zip(actual, predicted) if a == normal and p != normal)
    dr = 100.0 * detected / attacks if attacks else 0.0
    far = 100.0 * false_alarms / normals if normals else 0.0
    return dr, far, detected, false_alarms


def first_match_oracle(rules, default, record_values, name_to_pos):
    """Naive decision-list replay over one record's raw values.

    `rules` is a sequence of (tests, klass) with tests (feature, op, value).
    """
    for tests, klass in rules:
        ok = True
        for feature, op, value in tests:
            v = record_values[name_to_pos[feature]]
            if op == "==":
                ok = str(v) == str(value)
            elif op == "<=":
                ok = float(v) <= float(value)
            elif op == ">":
                ok = float(v) > float(value)
            else:
                raise ValueError(op)
            if not ok:
                break
        if ok:
            return klass
    return default


def tree_walk_oracle(root, record_values, name_to_pos):
    """Walk one record's raw values down a decision tree, node by node.

    A numeric split sends `value <= threshold` to its first child; a nominal
    split follows the branch of the record's symbol, or its majority child
    for a symbol it has no branch for. Returns the reached leaf's class.
    """
    node = root
    while hasattr(node, "children"):
        v = record_values[name_to_pos[node.feature]]
        if node.kind == "numeric":
            node = node.children[0] if float(v) <= node.threshold else node.children[1]
        elif str(v) in node.symbols:
            node = node.children[node.symbols.index(str(v))]
        else:
            node = node.children[node.majority_child]
    return node.klass


def mdl_accepts_oracle(values, classes, thr) -> bool:
    """Direct evaluation of the description-length acceptance test for a
    candidate cut at `thr`."""
    left = [c for v, c in zip(values, classes) if v <= thr]
    right = [c for v, c in zip(values, classes) if v > thr]
    n = len(left) + len(right)
    gain = gain_for_threshold_oracle(values, classes, thr)
    k = len(set(classes))
    k1 = len(set(left))
    k2 = len(set(right))
    delta = math.log2(3**k - 2) - (
        k * entropy_oracle(classes) - k1 * entropy_oracle(left) - k2 * entropy_oracle(right)
    )
    return gain > (math.log2(n - 1) + delta) / n


def mdl_cuts_oracle(values, classes, n_classes) -> np.ndarray:
    """Fayyad & Irani's recursive MDL discretization of one column on the
    per-column kernels: `group_counts` folds the values into distinct-value
    class histograms once, and `best_group_cut` splits each range of them."""
    group_values, counts = kernels.group_counts(
        np.asarray(values), np.asarray(classes), n_classes
    )

    def cut_positions(gv, counts):
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
        if gain <= (math.log2(n - 1) + delta) / n:
            return []
        cut = (float(gv[pos - 1]) + float(gv[pos])) / 2.0
        return cut_positions(gv[:pos], counts[:pos]) + [cut] + cut_positions(gv[pos:], counts[pos:])

    return np.asarray(cut_positions(group_values, counts), dtype=np.float64)


# --- quadratic anomaly-stream replayer ------------------------------------

def replay_verdicts(events, cfg):
    """Re-derive every rule verdict by whole-stream rescans; returns a sorted
    list of (event_index, rule_id) pairs."""
    out = []
    events = list(events)

    # interval: compare with the latest earlier reception from the same source
    for i, e in enumerate(events):
        if e.kind != RECEPTION:
            continue
        prev = None
        for j in range(i):
            if events[j].kind == RECEPTION and events[j].source == e.source:
                prev = events[j]
        if prev is not None:
            dt = e.ts - prev.ts
            if dt < cfg.interval_lower or dt > cfg.interval_upper:
                out.append((i, "interval"))

    # retransmission + delay: per (neighbor, msg) timeline against the global clock
    keys = []
    for e in events:
        if e.kind != COLLISION and (e.neighbor, e.msg_id) not in keys:
            keys.append((e.neighbor, e.msg_id))
    for key in keys:
        armed = None  # (ts, index)
        for i, e in enumerate(events):
            if armed is not None and e.ts > armed[0] + cfg.retransmission_deadline:
                out.append((armed[1], "retransmission"))
                armed = None
            if e.kind == COLLISION or (e.neighbor, e.msg_id) != key:
                continue
            if e.kind == RECEPTION:
                if armed is None:
                    armed = (e.ts, i)
            else:
                if armed is not None:
                    if e.ts - armed[0] > cfg.delay_window:
                        out.append((i, "delay"))
                    armed = None

    # integrity: any same-message sighting in the window with a different digest
    for i, e in enumerate(events):
        if e.kind == COLLISION:
            continue
        for j in range(i):
            ej = events[j]
            if ej.kind == COLLISION or ej.msg_id != e.msg_id:
                continue
            if ej.ts <= e.ts - cfg.window:
                continue
            if ej.digest != e.digest:
                out.append((i, "integrity"))
                break

    # repetition: windowed count of receptions of the same (source, msg)
    for i, e in enumerate(events):
        if e.kind != RECEPTION:
            continue
        repeats = 1 + sum(
            1
            for j in range(i)
            if events[j].kind == RECEPTION
            and events[j].source == e.source
            and events[j].msg_id == e.msg_id
            and events[j].ts > e.ts - cfg.window
        )
        if repeats > cfg.repetition_limit:
            out.append((i, "repetition"))

    # radio range: implausible rssi, or a new source pushing the per-message
    # distinct-source count over the limit
    for i, e in enumerate(events):
        if e.kind == COLLISION:
            continue
        rssi_bad = e.rssi < cfg.rssi_min or e.rssi > cfg.rssi_max
        count_bad = False
        if e.kind == RECEPTION:
            prev_sources = {
                events[j].source
                for j in range(i)
                if events[j].kind == RECEPTION
                and events[j].msg_id == e.msg_id
                and events[j].ts > e.ts - cfg.window
            }
            count_bad = (
                e.source not in prev_sources
                and len(prev_sources) + 1 > cfg.max_sources_per_message
            )
        if rssi_bad or count_bad:
            out.append((i, "radio_range"))

    # jamming: windowed collision count
    for i, e in enumerate(events):
        if e.kind != COLLISION:
            continue
        n = 1 + sum(
            1
            for j in range(i)
            if events[j].kind == COLLISION and events[j].ts > e.ts - cfg.window
        )
        if n > cfg.collision_limit:
            out.append((i, "jamming"))

    return sorted(out)


def read_records_oracle(lines, schema, **options) -> Dataset:
    """What the record reader makes of `lines` when no line can see another:
    each line is read alone, under its own line number, on the one shared
    `schema` (so domains still grow in line order), with no error budget;
    the rows and errors are concatenated in line order."""
    parts = [
        _read_records(io.StringIO(line), schema, DEFAULT_TAXONOMY, line_no=k,
                      error_budget=len(lines), **options)
        for k, line in enumerate(lines)
    ]
    ds = Dataset(
        schema,
        np.concatenate([p.numeric for p in parts] + [np.empty((0, schema.n_numeric))]),
        np.concatenate([p.nominal for p in parts] + [np.empty((0, schema.n_nominal), np.int32)]),
        [lab for p in parts for lab in p.labels],
        [c for p in parts for c in p.class_codes],
    )
    ds.parse_errors = [e for p in parts for e in p.parse_errors]
    return ds

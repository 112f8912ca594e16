"""Independent brute-force reference implementations.

Everything here is deliberately naive (explicit loops, whole-stream rescans,
exhaustive enumeration, high-precision summation) and shares no code with
the package paths it checks. Three exceptions: `read_records_oracle` checks
how the record reader combines lines, not how it parses one;
`read_stream_oracle` reads its lines through `artifact.read_lines`, which
opens the file and names it in an error, and checks how the stream reader
parses and numbers rows; and `mdl_cuts_oracle` runs on
`kernels.group_counts` + `best_group_cut`, which no package path calls. `SCENARIO_RULE` names the rule each generated
attack scenario must fire. `record`, `iter_records` and `serialize_record`
read a dataset back as per-record values and lines, for the tests to
compare.
`permutations_oracle` and `stratified_split_oracle` draw with numpy's own
`Generator(PCG64(seed))`, the draw the split made before chids had a port
of it.
The `*_text_oracle` formatters build a whole file as one string, the way the
block-wise writers did before they wrote a block at a time, and
`cache_bytes_oracle` builds a dataset cache one value at a time.
`StreamEngineOracle` is the rule engine as it was before it kept a record
per message: a list of each message's retained sightings, scanned whole
for every new sighting. `non_finite_numbers` scans the files a command
wrote for a number that is not finite.
"""

import io
import json
import math
import re
import struct
from collections import Counter, deque
from fractions import Fraction
from sys import intern

import numpy as np

from chids import artifact, kernels
from chids.anomaly import (
    COLLISION,
    FORWARD,
    RECEPTION,
    STREAM_HEADER,
    STREAM_MAGIC,
    AnomalyEvent,
    RULE_DELAY,
    RULE_INTEGRITY,
    RULE_INTERVAL,
    RULE_JAMMING,
    RULE_RADIO_RANGE,
    RULE_REPETITION,
    RULE_RETRANSMISSION,
    RULE_TAGS,
    RuleVerdict,
)
from chids.errors import DataError
from chids.kdd import CACHE_MAGIC, NOMINAL, NUMERIC, AttackClass, Dataset, KddRecord, _read_records
from chids.pipeline import OUTCOMES

# The rule each attack scenario of `anomaly.generate_stream` is built to violate.
SCENARIO_RULE = {
    "hello-flood": RULE_INTERVAL,
    "selective-forwarding": RULE_RETRANSMISSION,
    "sinkhole": RULE_RETRANSMISSION,
    "modification": RULE_INTEGRITY,
    "replay": RULE_REPETITION,
    "sybil": RULE_RADIO_RANGE,
    "jamming": RULE_JAMMING,
}


def record(ds: Dataset, i: int) -> KddRecord:
    """Row `i` of `ds`: numeric values as floats, nominal ones as their
    symbols, in schema order, and the label."""
    values = []
    for name in ds.schema.names:
        kind, j = ds.schema.slot[name]
        if kind == NUMERIC:
            values.append(float(ds.numeric[i, j]))
        else:
            values.append(ds.schema.domains[name][int(ds.nominal[i, j])])
    label = ds.labels[i]
    return KddRecord(tuple(values), None if label is None else str(label))


def iter_records(ds: Dataset):
    return (record(ds, i) for i in range(len(ds)))


def serialize_record(r: KddRecord) -> str:
    """The line `parse_record` reads back as `r` (floats via repr, so the
    round trip is exact)."""
    parts = [repr(v) if isinstance(v, float) else str(v) for v in r.values]
    if r.label is not None:
        parts.append(r.label)
    return ",".join(parts)


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


def permutations_oracle(seed: int, sizes) -> list:
    """numpy's `permutation(n)` for each n in `sizes`, drawn in turn from
    one `Generator(PCG64(seed))`."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [rng.permutation(n) for n in sizes]


def stratified_split_oracle(class_codes, seed: int, per_class: dict):
    """The sorted train and test row indices of a split with the manifest's
    per-class quotas: each class pool, in class order, is permuted by
    `permutations_oracle` and cut into its train and test quotas."""
    pools = [np.flatnonzero(np.asarray(class_codes) == int(c)) for c in AttackClass]
    perms = permutations_oracle(seed, [pool.size for pool in pools])
    train, test = [], []
    for c, pool, perm in zip(AttackClass, pools, perms):
        quota = per_class[c.tag]
        train += pool[perm][:quota["train"]].tolist()
        test += pool[perm][quota["train"]:quota["train"] + quota["test"]].tolist()
    return sorted(train), sorted(test)


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


class StreamEngineOracle:
    """The rule engine as it was before per-message records: each message's
    retained sightings are a plain list, and every new sighting scans the
    whole list, for the integrity rule and, for a reception, again for the
    repetition and source-count rules. The armed forwards are scanned for
    expiry at every event. Events must be valid; this engine does not check
    them."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._index = -1
        self._last_rx = {}
        self._pending = {}
        self._sightings = {}
        self._touch = deque()
        self._collisions = deque()

    def state_size(self):
        return (len(self._last_rx) + len(self._pending) + len(self._touch)
                + sum(map(len, self._sightings.values())) + len(self._collisions))

    def process(self, event):
        self._index = i = self._index + 1
        ts, source, neighbor, kind, msg_id, digest, rssi = event
        cfg = self.cfg
        out = []

        def verdict(index, at, rule, detail):
            out.append(RuleVerdict(index, at, rule, RULE_TAGS[rule], detail))

        pending = self._pending
        for key, (armed_ts, armed_i) in list(pending.items()):
            if not ts > armed_ts + cfg.retransmission_deadline:
                break
            verdict(armed_i, armed_ts, RULE_RETRANSMISSION, f"{key[0]}:{key[1]}")
            del pending[key]

        horizon = ts - cfg.window
        while self._touch and self._touch[0].ts <= horizon:
            msg = self._touch.popleft().msg_id
            del self._sightings[msg][0]
            if not self._sightings[msg]:
                del self._sightings[msg]

        if kind == RECEPTION:
            prev = self._last_rx.get(source)
            if prev is not None:
                dt = ts - prev
                if dt < cfg.interval_lower or dt > cfg.interval_upper:
                    verdict(i, ts, RULE_INTERVAL, f"dt={dt:.6g}")
            self._last_rx[source] = ts
            pending.setdefault((neighbor, msg_id), (ts, i))
        elif kind == FORWARD:
            armed = pending.pop((neighbor, msg_id), None)
            if armed is not None and ts - armed[0] > cfg.delay_window:
                verdict(i, ts, RULE_DELAY, f"lag={ts - armed[0]:.6g}")
        else:
            collisions = self._collisions
            collisions.append(ts)
            while collisions and collisions[0] <= horizon:
                collisions.popleft()
            if len(collisions) > cfg.collision_limit:
                verdict(i, ts, RULE_JAMMING, f"n={len(collisions)}")
            return out

        seen = self._sightings.setdefault(msg_id, [])
        if any(e.digest != digest for e in seen):
            verdict(i, ts, RULE_INTEGRITY, msg_id)
        repeats = 1
        other_sources = set()
        if kind == RECEPTION:
            for e in seen:
                if e.kind == RECEPTION:
                    if e.source == source:
                        repeats += 1
                    else:
                        other_sources.add(e.source)
        seen.append(event)
        self._touch.append(event)
        rssi_bad = rssi < cfg.rssi_min or rssi > cfg.rssi_max
        if kind == RECEPTION:
            if repeats > cfg.repetition_limit:
                verdict(i, ts, RULE_REPETITION, f"n={repeats}")
            if rssi_bad or (repeats == 1 and len(other_sources) + 1 > cfg.max_sources_per_message):
                verdict(i, ts, RULE_RADIO_RANGE, "rssi" if rssi_bad else "sources")
        elif rssi_bad:
            verdict(i, ts, RULE_RADIO_RANGE, "rssi")
        return out


def read_stream_oracle(path) -> list:
    """The events of a stream file, read one line at a time: the magic line
    and the header row, then an event of each non-blank row, in line order.
    A row with the wrong field count, or whose event cannot be built, names
    its own line."""

    def rows(lines):
        for want in (STREAM_MAGIC, STREAM_HEADER):
            if next(lines, None) != want:
                raise DataError(f"expected {want!r}")
        out = []
        for ln in lines:
            if ln.strip():
                fields = ln.split("\t")
                if len(fields) != 7:
                    raise DataError(f"expected 7 fields, got {len(fields)}")
                ts, source, neighbor, kind, msg_id, digest, rssi = fields
                out.append(AnomalyEvent(float(ts), intern(source), intern(neighbor), intern(kind),
                                        msg_id, digest, float(rssi)))
        return out

    return artifact.read_lines(path, rows)


def read_records_oracle(lines, schema, **options) -> Dataset:
    """What the record reader makes of `lines` when no line can see another:
    each line is read alone, under its own line number (after as many blank
    lines as precede it), on the one shared `schema` (so domains still grow
    in line order), with no error budget; the rows and errors are
    concatenated in line order."""
    parts = [
        _read_records(io.StringIO("\n" * k + line), schema,
                      error_budget=len(lines), **options)
        for k, line in enumerate(lines)
    ]
    ds = Dataset(
        schema,
        np.concatenate([p.numeric for p in parts] + [np.empty((0, len(schema.numeric_names)))]),
        np.concatenate([p.nominal for p in parts] + [np.empty((0, len(schema.nominal_names)), np.int32)]),
        [lab for p in parts for lab in p.labels],
        [c for p in parts for c in p.class_codes],
    )
    ds.parse_errors = [e for p in parts for e in p.parse_errors]
    return ds


def table_text_oracle(header, rows, magic=None) -> str:
    """A whole tab-separated table: the magic line when given, the header,
    then each row's fields joined by tabs, every line ending in a newline."""
    text = "" if magic is None else magic + "\n"
    text += header + "\n"
    for row in rows:
        text += "\t".join(row) + "\n"
    return text


def cache_bytes_oracle(ds: Dataset) -> bytes:
    """A whole dataset cache, each value packed on its own: the magic line,
    the JSON header line (schema, row count, distinct labels in first
    appearance), then every numeric value as a little-endian double, row
    by row, every nominal code as a little-endian int32, and every row's
    label index, -1 for an unlabeled row."""
    schema = ds.schema
    table = []
    for label in ds.labels:
        if label is not None and label not in table:
            table.append(label)
    header = {"schema": {"features": [list(f) for f in schema.features],
                         "domains": schema.domains},
              "rows": len(ds), "labels": table}
    out = bytearray(CACHE_MAGIC + json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n")
    for kind, fmt in ((NUMERIC, "<d"), (NOMINAL, "<i")):
        for i in range(len(ds)):
            for name in schema.names:
                k, j = schema.slot[name]
                if k == kind:
                    cell = ds.numeric[i, j] if kind == NUMERIC else ds.nominal[i, j]
                    out += struct.pack(fmt, cell.item())
    for label in ds.labels:
        out += struct.pack("<i", -1 if label is None else table.index(label))
    return bytes(out)


_STAGE_OF_OUTCOME = {"passed_normal": "anomaly", "classified_attack": "misuse",
                     "classified_normal": "decision", "unresolved_alert": "decision"}


def disposition_rows_oracle(run):
    """(record, outcome, stage, class tag) of each record of a pipeline run,
    one record at a time."""
    rows = []
    for i in range(len(run.outcome)):
        outcome = OUTCOMES[int(run.outcome[i])]
        c = int(run.attack_class[i])
        rows.append((str(i), outcome, _STAGE_OF_OUTCOME[outcome], "-" if c < 0 else AttackClass(c).tag))
    return rows


def dispositions_text_oracle(run) -> str:
    return table_text_oracle("record\toutcome\tstage\tclass", disposition_rows_oracle(run),
                             "#chids-dispositions v1")


def alerts_text_oracle(run) -> str:
    return "".join(f"alert\trecord={i}\tstage={stage}\toutcome={outcome}\tclass={tag}\n"
                   for i, outcome, stage, tag in disposition_rows_oracle(run)
                   if outcome in ("classified_attack", "unresolved_alert"))


# a `nan` or `inf` standing alone
NON_FINITE = re.compile(r"(?<![\w.])[-+]?(nan|inf|infinity)(?![\w.])", re.IGNORECASE)
# where chids writes a name, not a number: a rank row's feature, and a
# model's feature entries, rule features and nominal symbols
_NAMES = re.compile(r"^\d+\t[^\t\n]*(?=\t(?:chi2|igr)\t)|\b(?:IF|AND) \S+|== \S+"
                    r"|[^\s,:]+:(?:numeric|nominal)", re.MULTILINE)


def non_finite_numbers(paths):
    """(file, token) of each `nan` or `inf` number in the files among
    `paths`: in a text file's fields that are not names, or in the numeric
    block of a dataset cache."""
    found = []
    for p in sorted(paths):
        if not p.is_file():
            continue
        raw = p.read_bytes()
        if raw.startswith(CACHE_MAGIC):
            _, header, payload = raw.split(b"\n", 2)
            header = json.loads(header)
            width = [kind for _, kind in header["schema"]["features"]].count(NUMERIC)
            values = np.frombuffer(payload, "<f8", header["rows"] * width)
            found += [(p.name, repr(v)) for v in values[~np.isfinite(values)].tolist()]
        else:
            found += [(p.name, m.group()) for m in NON_FINITE.finditer(_NAMES.sub("", raw.decode()))]
    return found

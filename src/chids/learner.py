"""Misuse classifiers: a gain-ratio decision-tree builder, a PART-style
decision-list learner that repeatedly grows partial pruned trees and keeps
the best-coverage leaf as the next rule, a majority baseline, and versioned
text serialization for all three.

All training is deterministic: candidate splits are examined in schema
order, split ties break on feature index then threshold, leaf ties break on
total training frequency then class order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from . import artifact, kernels
from .errors import DataError, SchemaMismatch
from .kdd import NOMINAL, NUMERIC, AttackClass, Dataset, N_CLASSES


@dataclass(frozen=True)
class TreeParams:
    min_leaf: int = 2          # smallest admissible branch size
    confidence: float = 0.25   # pessimistic-error confidence factor
    prune: bool = True         # full trees only: PART partial trees always prune

    def __post_init__(self):
        if not self.min_leaf >= 1:
            raise ValueError("min_leaf must be >= 1")
        if not 0 < self.confidence <= 0.5:
            raise ValueError("confidence must be in (0, 0.5]")


class Leaf:
    __slots__ = ("dist", "klass")

    def __init__(self, dist: np.ndarray, klass: AttackClass):
        self.dist = np.asarray(dist, dtype=np.int64)
        self.klass = klass


class Split:
    __slots__ = ("feature", "kind", "threshold", "symbols", "children", "majority_child", "dist")

    def __init__(self, feature, kind, threshold, symbols, children, majority_child, dist):
        self.feature = feature
        self.kind = kind                    # numeric | nominal
        self.threshold = threshold          # numeric only
        self.symbols = symbols              # nominal only: tuple of branch symbols
        self.children = children
        self.majority_child = majority_child
        self.dist = np.asarray(dist, dtype=np.int64)


@dataclass(frozen=True)
class RuleTest:
    feature: str
    op: str          # "==" (nominal), "<=" or ">" (numeric)
    value: object    # symbol string or float


@dataclass(frozen=True)
class Rule:
    tests: tuple[RuleTest, ...]
    klass: AttackClass
    coverage: int
    errors: int


class _ModelBase:
    def __init__(self, feature_names, feature_kinds):
        self.feature_names = tuple(feature_names)
        self.feature_kinds = tuple(feature_kinds)

    def _check(self, ds: Dataset) -> None:
        if tuple(ds.schema.names) != self.feature_names or tuple(
            f.kind for f in ds.schema.features
        ) != self.feature_kinds:
            raise SchemaMismatch("dataset schema differs from the model's training schema")


class MajorityModel(_ModelBase):
    """Predicts the majority training class unconditionally."""

    kind = "majority"

    def __init__(self, klass: AttackClass, feature_names, feature_kinds):
        super().__init__(feature_names, feature_kinds)
        self.klass = klass

    def predict_dataset(self, ds: Dataset) -> np.ndarray:
        self._check(ds)
        return np.full(len(ds), int(self.klass), dtype=np.int32)


class DecisionTree(_ModelBase):
    kind = "tree"

    def __init__(self, root, feature_names, feature_kinds):
        super().__init__(feature_names, feature_kinds)
        self.root = root

    def predict_dataset(self, ds: Dataset) -> np.ndarray:
        self._check(ds)
        out = np.zeros(len(ds), dtype=np.int32)
        self._route(self.root, ds, np.arange(len(ds)), out)
        return out

    def _route(self, node, ds, idx, out):
        if idx.size == 0:
            return
        if isinstance(node, Leaf):
            out[idx] = int(node.klass)
            return
        if node.kind == NUMERIC:
            col = ds.column(node.feature)[idx]
            mask = col <= node.threshold
            self._route(node.children[0], ds, idx[mask], out)
            self._route(node.children[1], ds, idx[~mask], out)
        else:
            # unseen symbols (codes outside the training branches) route to
            # the majority child
            domain_size = max(len(ds.schema.domains[node.feature]), 1)
            lut = np.full(domain_size, node.majority_child, dtype=np.int64)
            for ci, sym in enumerate(node.symbols):
                code = ds.schema.code(node.feature, sym)
                if 0 <= code < domain_size:
                    lut[code] = ci
            codes = ds.column(node.feature)[idx]
            assign = lut[codes]
            for ci, child in enumerate(node.children):
                self._route(child, ds, idx[assign == ci], out)


class RuleSet(_ModelBase):
    """Ordered decision list; the first matching rule wins, otherwise the
    default class applies."""

    kind = "part"

    def __init__(self, rules, default: AttackClass, feature_names, feature_kinds):
        super().__init__(feature_names, feature_kinds)
        self.rules = tuple(rules)
        self.default = default

    def predict_dataset(self, ds: Dataset) -> np.ndarray:
        self._check(ds)
        out = np.full(len(ds), int(self.default), dtype=np.int32)
        idx = np.arange(len(ds))  # rows no earlier rule matched
        for rule in self.rules:
            if not idx.size:
                break
            m = _rule_mask(ds, idx, rule)
            out[idx[m]] = int(rule.klass)
            idx = idx[~m]
        return out


# --- pessimistic error estimate (upper confidence bound on leaf errors) ---

@lru_cache(maxsize=None)
def _z_quantile(confidence: float) -> float:
    return NormalDist().inv_cdf(1.0 - confidence)


def added_errors(n: float, e: float, confidence: float = TreeParams.confidence) -> float:
    """Extra errors to charge a leaf with n records and e observed mistakes,
    at the given one-sided confidence."""
    if n <= 0:
        return 0.0
    if e < 1:
        base = n * (1.0 - confidence ** (1.0 / n))
        if e == 0:
            return base
        return base + e * (added_errors(n, 1, confidence) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = _z_quantile(confidence)
    f = (e + 0.5) / n
    r = (f + z * z / (2 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (
        1 + z * z / n
    )
    return r * n - e


@dataclass(frozen=True)
class _Candidate:
    findex: int
    feature: str
    kind: str
    gain: float
    split_info: float
    threshold: float | None

    @property
    def ratio(self) -> float:
        return self.gain / self.split_info


class _Grower:
    """Shared machinery for full trees and PART partial trees over one
    training dataset."""

    def __init__(self, ds: Dataset, params: TreeParams):
        self.ds = ds
        self.params = params
        if (ds.class_codes < 0).any():
            raise ValueError("training requires labeled records")
        self.y = ds.class_codes.astype(np.int8)
        self.class_totals = np.bincount(self.y, minlength=N_CLASSES)
        self._order = 0

    def leaf_class(self, counts: np.ndarray) -> AttackClass:
        top = counts.max()
        cands = [c for c in range(N_CLASSES) if counts[c] == top]
        best = min(cands, key=lambda c: (-self.class_totals[c], c))
        return AttackClass(best)

    def _node_counts(self, idx) -> np.ndarray:
        return np.bincount(self.y[idx], minlength=N_CLASSES)

    def _pessimistic(self, counts: np.ndarray, klass: AttackClass) -> float:
        n = int(counts.sum())
        e = n - int(counts[int(klass)])
        return e + added_errors(n, e, self.params.confidence)

    def _candidates(self, idx, counts, used_nominal) -> list[_Candidate]:
        n = idx.size
        h_node = kernels.entropy_vec(counts)
        # the numeric matrix holds its columns in schema order: cut j is slot j's
        cuts = kernels.best_numeric_cuts(
            self.ds.numeric[idx], self.y[idx], N_CLASSES, self.params.min_leaf
        )
        out = []
        for f in self.ds.schema.features:
            kind, j = self.ds.schema.slot[f.name]
            if kind == NUMERIC:
                res = cuts[j]
                if res is None:
                    continue
                thr, gain, n_left = res
                p_l = n_left / n
                p_r = (n - n_left) / n
                si = -(p_l * math.log2(p_l)) - (p_r * math.log2(p_r))
                out.append(_Candidate(f.index, f.name, NUMERIC, gain, si, thr))
            else:
                if f.name in used_nominal:
                    continue
                dom = len(self.ds.schema.domains[f.name])
                if dom < 2:
                    continue
                res = kernels.table_gain(self.ds.nominal[idx, j].astype(np.int64), self.y[idx],
                                         dom, N_CLASSES, h_node, self.params.min_leaf)
                if res is not None:
                    out.append(_Candidate(f.index, f.name, NOMINAL, *res, None))
        return out

    def _choose(self, cands: list[_Candidate]) -> _Candidate | None:
        if not cands:
            return None
        mean_gain = sum(c.gain for c in cands) / len(cands)
        eligible = [c for c in cands if c.gain >= mean_gain - 1e-12]
        return min(eligible, key=lambda c: (-c.ratio, c.findex))

    def _partition(self, idx, cand: _Candidate):
        """Child index arrays plus the branch descriptors for `cand`."""
        kind, j = self.ds.schema.slot[cand.feature]
        if kind == NUMERIC:
            col = self.ds.numeric[idx, j]
            mask = col <= cand.threshold
            return [idx[mask], idx[~mask]], None
        symbols = tuple(self.ds.schema.domains[cand.feature])
        codes = self.ds.nominal[idx, j]
        return [idx[codes == c] for c in range(len(symbols))], symbols

    def _subtree_errors(self, node) -> float:
        if isinstance(node, Leaf):
            return self._pessimistic(node.dist, node.klass)
        return sum(self._subtree_errors(ch) for ch in node.children)

    def expand(self, idx, used_nominal, path, partial):
        """Grow the node over `idx`; returns (node, leaves) where leaves are
        (path, leaf, order) for every leaf made in this subtree.

        A full tree (`partial` false) expands every child in branch order.
        A PART partial tree expands children lowest class-entropy first and
        stops at the first child that does not settle into a leaf. Once all
        children are expanded, the node collapses into a leaf when its
        pessimistic error is no worse than its subtree's (subtree
        replacement). Partial trees always collapse this way; full trees
        only when `params.prune` is on."""
        counts = self._node_counts(idx)
        klass = self.leaf_class(counts)
        if (counts > 0).sum() <= 1 or idx.size < 2 * self.params.min_leaf:
            return self._make_leaf(counts, klass, path)
        cand = self._choose(self._candidates(idx, counts, used_nominal))
        if cand is None:
            return self._make_leaf(counts, klass, path)
        subsets, symbols = self._partition(idx, cand)
        used = used_nominal | {cand.feature} if cand.kind == NOMINAL else used_nominal
        order = range(len(subsets))
        if partial:  # lowest class entropy first
            entropy = [kernels.entropy_vec(self._node_counts(s)) if s.size else 0.0 for s in subsets]
            order = sorted(order, key=lambda i: (entropy[i], i))
        children: list = [None] * len(subsets)
        leaves: list = []
        for i in order:
            sub = subsets[i]
            if sub.size == 0:
                children[i] = Leaf(np.zeros(N_CLASSES, dtype=np.int64), klass)
                continue
            children[i], sub_leaves = self.expand(
                sub, used, path + [self._branch_test(cand, symbols, i)], partial)
            leaves.extend(sub_leaves)
            if partial and not isinstance(children[i], Leaf):
                break
        else:  # every child was expanded
            if (partial or self.params.prune) and (
                self._pessimistic(counts, klass)
                <= sum(self._subtree_errors(ch) for ch in children) + 0.1
            ):
                return self._make_leaf(counts, klass, path)
        for i, ch in enumerate(children):
            if ch is None:  # unexpanded stub; never a rule candidate
                sub_counts = self._node_counts(subsets[i])
                children[i] = Leaf(sub_counts, self.leaf_class(sub_counts))
        majority = int(np.argmax([s.size for s in subsets]))
        node = Split(cand.feature, cand.kind, cand.threshold, symbols, children, majority, counts)
        return node, leaves

    def _make_leaf(self, counts, klass, path):
        leaf = Leaf(counts, klass)
        self._order += 1
        return leaf, [(tuple(path), leaf, self._order)]

    def _branch_test(self, cand: _Candidate, symbols, i):
        if cand.kind == NUMERIC:
            return RuleTest(cand.feature, "<=" if i == 0 else ">", cand.threshold)
        return RuleTest(cand.feature, "==", symbols[i])

    def extract_rule(self, idx) -> Rule:
        """Best-coverage leaf of one partial tree over `idx`, as a rule."""
        _, leaves = self.expand(idx, frozenset(), [], partial=True)
        viable = [(p, l, o) for p, l, o in leaves if int(l.dist.sum()) > 0]
        path, leaf, _ = min(viable, key=lambda t: (-int(t[1].dist.sum()), t[2]))
        cov = int(leaf.dist.sum())
        err = cov - int(leaf.dist[int(leaf.klass)])
        return Rule(_merge_tests(path), leaf.klass, cov, err)


def _merge_tests(path) -> tuple[RuleTest, ...]:
    """Collapse repeated numeric tests on one feature into the tightest
    bounds, preserving first-appearance feature order."""
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}
    eq: dict[str, str] = {}
    order: list[str] = []
    for t in path:
        if t.feature not in order:
            order.append(t.feature)
        if t.op == "==":
            eq[t.feature] = t.value
        elif t.op == "<=":
            hi[t.feature] = min(hi.get(t.feature, math.inf), t.value)
        else:
            lo[t.feature] = max(lo.get(t.feature, -math.inf), t.value)
    tests = []
    for f in order:
        if f in eq:
            tests.append(RuleTest(f, "==", eq[f]))
        if f in lo:
            tests.append(RuleTest(f, ">", lo[f]))
        if f in hi:
            tests.append(RuleTest(f, "<=", hi[f]))
    return tuple(tests)


def build_tree(train: Dataset, params: TreeParams | None = None) -> DecisionTree:
    """Gain-ratio decision tree over the whole training set (pruned by
    pessimistic error unless params.prune is off)."""
    params = params or TreeParams()
    root = _Grower(train, params).expand(np.arange(len(train)), frozenset(), [], partial=False)[0]
    return DecisionTree(root, train.schema.names, [f.kind for f in train.schema.features])


def build_partial_tree_rule(residual: Dataset, params: TreeParams | None = None) -> Rule:
    """One partial-tree iteration over `residual`: grow, prune on the fly,
    return the rule of the best-coverage leaf."""
    if len(residual) == 0:
        raise ValueError("residual is empty")
    params = params or TreeParams()
    return _Grower(residual, params).extract_rule(np.arange(len(residual)))


def _rule_mask(ds: Dataset, idx: np.ndarray, rule: Rule) -> np.ndarray:
    """Which rows of `idx` pass every test of `rule`."""
    m = np.ones(idx.size, dtype=bool)
    for t in rule.tests:
        col = ds.column(t.feature)[idx]
        if t.op == "==":
            m &= col == ds.schema.code(t.feature, str(t.value))
        elif t.op == "<=":
            m &= col <= float(t.value)
        else:
            m &= col > float(t.value)
    return m


def train_part(train: Dataset, params: TreeParams | None = None) -> RuleSet:
    """Separate-and-conquer loop: extract the best partial-tree rule, drop
    the records it covers, repeat until nothing is left."""
    if len(train) == 0:
        raise ValueError("training set is empty")
    params = params or TreeParams()
    g = _Grower(train, params)
    residual = np.arange(len(train))
    rules = []
    while residual.size:
        rule = g.extract_rule(residual)
        covered = _rule_mask(train, residual, rule)
        if not covered.any():
            raise AssertionError("extracted rule covers nothing; learner invariant broken")
        rules.append(rule)
        residual = residual[~covered]
    default = g.leaf_class(g.class_totals)
    return RuleSet(rules, default, train.schema.names, [f.kind for f in train.schema.features])


def train_majority_baseline(train: Dataset) -> MajorityModel:
    if len(train) == 0:
        raise ValueError("training set is empty")
    counts = np.bincount(train.class_codes[train.class_codes >= 0], minlength=N_CLASSES)
    return MajorityModel(
        AttackClass(int(np.argmax(counts))), train.schema.names,
        [f.kind for f in train.schema.features],
    )


# --- serialization -------------------------------------------------------

MODEL_MAGIC = "#chids-model v1"
_SYMBOL_RE = re.compile(r"^[^\s,]+$")


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    s = str(v)
    if not _SYMBOL_RE.match(s):
        raise DataError(f"symbol {s!r} is not serializable (whitespace or comma)")
    return s


def _fmt_rule(rule: Rule) -> str:
    if rule.tests:
        cond = " AND ".join(f"{t.feature} {t.op} {_fmt_value(t.value)}" for t in rule.tests)
    else:
        cond = "TRUE"
    return f"rule IF {cond} THEN {rule.klass.tag} cov={rule.coverage} err={rule.errors}"


_RULE_RE = re.compile(r"^rule IF (.+) THEN (\w+) cov=(\d+) err=(\d+)$")
_OPS = {NOMINAL: ("==",), NUMERIC: ("<=", ">")}


def _feature_kind(feat: str, kinds: dict[str, str]) -> str:
    if feat not in kinds:
        raise DataError(f"feature {feat!r} is not on the features line")
    return kinds[feat]


def _parse_rule(line: str, kinds: dict[str, str]) -> Rule:
    m = _RULE_RE.match(line)
    if not m:
        raise DataError(f"bad rule line: {line!r}")
    cond, tag, cov, err = m.groups()
    tests = []
    if cond != "TRUE":
        for part in cond.split(" AND "):
            feat, op, val = part.split(" ", 2)
            kind = _feature_kind(feat, kinds)
            if op not in _OPS.get(kind, ()):
                raise DataError(f"bad operator for {kind} feature in rule: {part!r}")
            value = val if kind == NOMINAL else float(val)
            tests.append(RuleTest(feat, op, value))
    return Rule(tuple(tests), AttackClass.from_tag(tag), int(cov), int(err))


def _write_node(fh, node, depth: int) -> None:
    pad = " " * depth
    dist = ",".join(str(int(v)) for v in node.dist)
    if isinstance(node, Leaf):
        fh.write(f"{pad}leaf {node.klass.tag} dist={dist}\n")
        return
    if node.kind == NUMERIC:
        fh.write(
            f"{pad}split numeric {node.feature} {node.threshold!r} "
            f"majority={node.majority_child} dist={dist}\n"
        )
    else:
        syms = ",".join(_fmt_value(s) for s in node.symbols)
        fh.write(
            f"{pad}split nominal {node.feature} {syms} "
            f"majority={node.majority_child} dist={dist}\n"
        )
    for child in node.children:
        _write_node(fh, child, depth + 1)


def _parse_nodes(lines: list[tuple[int, str]], pos: int, depth: int, kinds: dict[str, str]):
    """Parse the node at `lines[pos]`, a (file line number, text) pair, and
    its subtree; returns the node and the position after it."""
    lineno, line = lines[pos]
    body = line[depth:]
    if line[:depth] != " " * depth or body.startswith(" "):
        raise DataError(f"bad tree indentation at line {lineno}: {line!r}")
    parts = body.split(" ")
    dist = np.array([int(v) for v in parts[-1].split("=", 1)[1].split(",")], dtype=np.int64)
    if parts[0] == "leaf":
        return Leaf(dist, AttackClass.from_tag(parts[1])), pos + 1
    _, kind, feature = parts[0], parts[1], parts[2]
    if _feature_kind(feature, kinds) != kind:
        raise DataError(f"{kind} split on {kinds[feature]} feature: {line!r}")
    majority = int(parts[-2].split("=", 1)[1])
    if kind == NUMERIC:
        threshold = float(parts[3])
        n_children, symbols = 2, None
    else:
        symbols = tuple(parts[3].split(","))
        threshold = None
        n_children = len(symbols)
    children = []
    nxt = pos + 1
    for _ in range(n_children):
        child, nxt = _parse_nodes(lines, nxt, depth + 1, kinds)
        children.append(child)
    return Split(feature, kind, threshold, symbols, children, majority, dist), nxt


def save_model(model, path) -> None:
    """Versioned structured-text model file (round-trippable)."""
    with artifact.open_text(path, "w") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(f"kind {model.kind}\n")
        feats = ",".join(
            f"{n}:{k}" for n, k in zip(model.feature_names, model.feature_kinds)
        )
        fh.write(f"features {feats}\n")
        if isinstance(model, MajorityModel):
            fh.write(f"default {model.klass.tag}\n")
        elif isinstance(model, RuleSet):
            fh.write(f"default {model.default.tag}\n")
            for rule in model.rules:
                fh.write(_fmt_rule(rule) + "\n")
        elif isinstance(model, DecisionTree):
            _write_node(fh, model.root, 0)
        else:
            raise DataError(f"unknown model type {type(model).__name__}")


def load_model(path):
    return artifact.read_parsed(path, _parse_model)


def _parse_model(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise DataError("not a chids model file")
    kind = lines[1].split(" ", 1)[1]
    pairs = [p.split(":") for p in lines[2].split(" ", 1)[1].split(",")]
    names = tuple(p[0] for p in pairs)
    kinds = tuple(p[1] for p in pairs)
    kind_of = dict(pairs)
    body = [(i, ln) for i, ln in enumerate(lines[3:], 4) if ln.strip()]
    if kind == "majority":
        return MajorityModel(AttackClass.from_tag(body[0][1].split(" ", 1)[1]), names, kinds)
    if kind == "part":
        default = AttackClass.from_tag(body[0][1].split(" ", 1)[1])
        rules = [_parse_rule(ln, kind_of) for _, ln in body[1:]]
        return RuleSet(rules, default, names, kinds)
    if kind == "tree":
        root, _ = _parse_nodes(body, 0, 0, kind_of)
        return DecisionTree(root, names, kinds)
    raise DataError(f"unknown model kind {kind!r}")

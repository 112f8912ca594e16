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
from typing import NamedTuple

import numpy as np

from . import artifact, kernels
from .errors import DataError, InvalidOperation, SchemaMismatch
from .kdd import NOMINAL, NUMERIC, AttackClass, Dataset, FeatureSchema, N_CLASSES
from .sections import TreeParams


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
    def __init__(self, features):
        self.features = tuple(features)  # the training schema's (name, kind) pairs

    def _check(self, ds: Dataset) -> None:
        if ds.schema.features != self.features:
            raise SchemaMismatch("dataset schema differs from the model's training schema")


class MajorityModel(_ModelBase):
    """Predicts the majority training class unconditionally."""

    kind = "majority"

    def __init__(self, klass: AttackClass, features):
        super().__init__(features)
        self.klass = klass

    def predict_dataset(self, ds: Dataset) -> np.ndarray:
        self._check(ds)
        return np.full(len(ds), int(self.klass), dtype=np.int32)


class DecisionTree(_ModelBase):
    kind = "tree"

    def __init__(self, root, features):
        super().__init__(features)
        self.root = root

    def predict_dataset(self, ds: Dataset) -> np.ndarray:
        self._check(ds)
        out = np.zeros(len(ds), dtype=np.int32)
        todo = [(self.root, np.arange(len(ds)))]  # each node still to visit, and its rows
        while todo:
            node, idx = todo.pop()
            if idx.size == 0:
                continue
            if isinstance(node, Leaf):
                out[idx] = int(node.klass)
            elif node.kind == NUMERIC:
                mask = ds.column(node.feature)[idx] <= node.threshold
                todo += [(node.children[0], idx[mask]), (node.children[1], idx[~mask])]
            else:
                # unseen symbols (codes outside the training branches) route to
                # the majority child
                domain_size = max(len(ds.schema.domains[node.feature]), 1)
                lut = np.full(domain_size, node.majority_child, dtype=np.int64)
                for ci, sym in enumerate(node.symbols):
                    code = ds.schema.code(node.feature, sym)
                    if 0 <= code < domain_size:
                        lut[code] = ci
                assign = lut[ds.column(node.feature)[idx]]
                todo += [(child, idx[assign == ci]) for ci, child in enumerate(node.children)]
        return out


class RuleSet(_ModelBase):
    """Ordered decision list; the first matching rule wins, otherwise the
    default class applies."""

    kind = "part"

    def __init__(self, rules, default: AttackClass, features):
        super().__init__(features)
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
    from statistics import NormalDist  # on first use: loading the learner loads no statistics

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


class _Candidate(NamedTuple):
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
        self.y = ds.class_codes.astype(np.int8)
        self.class_totals = np.bincount(self.y, minlength=N_CLASSES)
        self._order = 0
        # A numeric column with one value over the whole training set never
        # has a cut, so the split search skips it. Per feature, in schema
        # order: (findex, name, kind, column of `_numeric` or `ds.nominal`,
        # nominal domain size); the other columns are left out.
        numeric = ds.numeric
        live = np.flatnonzero((numeric != numeric[:1]).any(axis=0)).tolist()
        self._numeric = numeric[:, live]
        column = {j: k for k, j in enumerate(live)}
        self._features = []
        for findex, (name, kind) in enumerate(ds.schema.features):
            _, j = ds.schema.slot[name]
            if kind == NUMERIC and j in column:
                self._features.append((findex, name, NUMERIC, column[j], 0))
            elif kind == NOMINAL and len(ds.schema.domains[name]) >= 2:
                self._features.append((findex, name, NOMINAL, j, len(ds.schema.domains[name])))
        # PART grows one partial tree per rule over the residual records, and
        # a node's choice of split depends only on its rows and the nominal
        # features its path used: (row bytes, used nominals) -> _Candidate or
        # None. `forget` drops the row sets a rule's records leave for good.
        self._splits: dict = {}

    def leaf_class(self, counts: np.ndarray) -> AttackClass:
        counts = counts.tolist()
        top = max(counts)
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
        y = self.y[idx]
        h_node = kernels.entropy_vec(counts)
        cuts = kernels.best_numeric_cuts(self._numeric[idx], y, N_CLASSES, self.params.min_leaf)
        out = []
        for findex, name, kind, j, dom in self._features:
            if kind == NUMERIC:
                res = cuts[j]
                if res is None:
                    continue
                thr, gain, n_left = res
                p_l = n_left / n
                p_r = (n - n_left) / n
                si = -(p_l * math.log2(p_l)) - (p_r * math.log2(p_r))
                out.append(_Candidate(findex, name, NUMERIC, gain, si, thr))
            elif name not in used_nominal:
                res = kernels.table_gain(self.ds.nominal[idx, j], y, dom, N_CLASSES, h_node,
                                         self.params.min_leaf)
                if res is not None:
                    out.append(_Candidate(findex, name, NOMINAL, *res, None))
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
        if np.count_nonzero(counts) <= 1 or idx.size < 2 * self.params.min_leaf:
            return self._make_leaf(counts, klass, path)
        key = (idx.tobytes(), used_nominal)
        if key in self._splits:
            cand = self._splits[key]
        else:
            cand = self._choose(self._candidates(idx, counts, used_nominal))
            if partial:  # a full tree meets each row set once
                self._splits[key] = cand
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

    def forget(self, rows) -> None:
        """Drop every split choice whose rows meet `rows`, the records a
        rule just covered: PART never sees those rows again, so such a row
        set cannot recur and no hit is lost."""
        gone = np.zeros(len(self.y), dtype=bool)
        gone[rows] = True
        stale = [k for k in self._splits if gone[np.frombuffer(k[0], dtype=np.intp)].any()]
        for key in stale:
            del self._splits[key]

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


def _check_training_set(train: Dataset) -> None:
    """Every trainer needs at least one record, and every record labeled."""
    if len(train) == 0:
        raise InvalidOperation("training set has no records")
    if (train.class_codes < 0).any():
        raise InvalidOperation("training set contains unlabeled records")


def build_tree(train: Dataset, params: TreeParams | None = None) -> DecisionTree:
    """Gain-ratio decision tree over the whole training set (pruned by
    pessimistic error unless params.prune is off)."""
    _check_training_set(train)
    params = params or TreeParams()
    root = _Grower(train, params).expand(np.arange(len(train)), frozenset(), [], partial=False)[0]
    return DecisionTree(root, train.schema.features)


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
    _check_training_set(train)
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
        g.forget(residual[covered])
        residual = residual[~covered]
    default = g.leaf_class(g.class_totals)
    return RuleSet(rules, default, train.schema.features)


def train_majority_baseline(train: Dataset) -> MajorityModel:
    _check_training_set(train)
    counts = np.bincount(train.class_codes, minlength=N_CLASSES)
    return MajorityModel(AttackClass(int(np.argmax(counts))), train.schema.features)


# --- serialization -------------------------------------------------------

MODEL_MAGIC = "#chids-model v1"
_SYMBOL_RE = re.compile(r"[^\s,]+")


def _symbol(text: str) -> str:
    """`text`, a nominal symbol as a model file holds it: neither written
    nor read if it has whitespace or a comma."""
    if not _SYMBOL_RE.fullmatch(text):
        raise DataError(f"symbol {text!r} is not serializable (whitespace or comma)")
    return text


def _fmt_value(v) -> str:
    return repr(v) if isinstance(v, float) else _symbol(str(v))


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
    cov, err = artifact.count(cov), artifact.count(err)
    if err > cov:
        raise DataError(f"err={err} above cov={cov}: {line!r}")
    tests = []
    if cond != "TRUE":
        for part in cond.split(" AND "):
            feat, op, val = part.split(" ", 2)
            kind = _feature_kind(feat, kinds)
            if op not in _OPS.get(kind, ()):
                raise DataError(f"bad operator for {kind} feature in rule: {part!r}")
            value = _symbol(val) if kind == NOMINAL else artifact.finite(val)
            tests.append(RuleTest(feat, op, value))
    return Rule(tuple(tests), AttackClass.from_tag(tag), cov, err)


def _tree_lines(root):
    """The lines of a tree, depth first, each node one space deeper than its parent."""
    todo = [(root, 0)]
    while todo:
        node, depth = todo.pop()
        pad = " " * depth
        dist = ",".join(str(int(v)) for v in node.dist)
        if isinstance(node, Leaf):
            yield f"{pad}leaf {node.klass.tag} dist={dist}"
            continue
        if node.kind == NUMERIC:
            test = f"numeric {node.feature} {node.threshold!r}"
        else:
            test = f"nominal {node.feature} {','.join(_fmt_value(s) for s in node.symbols)}"
        yield f"{pad}split {test} majority={node.majority_child} dist={dist}"
        todo += [(child, depth + 1) for child in reversed(node.children)]


# fields of a tree line, its head included
_NODE_FIELDS = {"leaf": 3, "split": 6}


def _after(text: str, head: str, sep: str) -> str:
    """What follows `head` and `sep` in `text`, such as `kind part` or `dist=1,0,0,0,0`."""
    name, found, value = text.partition(sep)
    if name != head or not found:
        raise DataError(f"expected {head + sep!r}, got {text!r}")
    return value


def _parse_node(line: str, depth: int, kinds: dict[str, str]):
    """The node on `line`, written at `depth`, and the number of its
    children; a split's children are left for the caller to add."""
    if not line:
        raise DataError("expected a tree node, got the end of the file")
    body = line[depth:]
    if line[:depth] != " " * depth or body.startswith(" "):
        raise DataError(f"bad tree indentation: {line!r}")
    parts = body.split(" ")
    if len(parts) != _NODE_FIELDS.get(parts[0]):
        raise DataError(f"expected `leaf` and 2 fields or `split` and 5: {line!r}")
    dist = [artifact.count(v) for v in _after(parts[-1], "dist", "=").split(",")]
    if len(dist) != N_CLASSES:
        raise DataError(f"dist= must be {N_CLASSES} counts: {line!r}")
    if parts[0] == "leaf":
        return Leaf(dist, AttackClass.from_tag(parts[1])), 0
    _, kind, feature = parts[0], parts[1], parts[2]
    if _feature_kind(feature, kinds) != kind:
        raise DataError(f"{kind} split on {kinds[feature]} feature: {line!r}")
    majority = artifact.count(_after(parts[-2], "majority", "="))
    if kind == NUMERIC:
        threshold = artifact.finite(parts[3])
        n_children, symbols = 2, None
    else:
        symbols = tuple(map(_symbol, parts[3].split(",")))
        threshold = None
        n_children = len(symbols)
    if majority >= n_children:
        raise DataError(f"majority={majority} is not one of the {n_children} children: {line!r}")
    return Split(feature, kind, threshold, symbols, [], majority, dist), n_children


# Levels a model tree may nest: `_Grower.expand` recurses once per level, so
# under Python's default recursion limit of 1000 it grows no deeper tree.
_MAX_TREE_DEPTH = 1000


def _parse_tree(lines, kinds: dict[str, str]):
    """Parse the tree on `lines`, written depth first, each node one space
    deeper than its parent."""
    open_splits = []  # (split, children it takes) of each split whose children are being read
    while True:
        if len(open_splits) > _MAX_TREE_DEPTH:
            raise DataError(f"tree nested deeper than {_MAX_TREE_DEPTH} levels")
        node, n_children = _parse_node(next(lines, ""), len(open_splits), kinds)
        if n_children:
            open_splits.append((node, n_children))
            continue
        while open_splits:  # hang the node, and each split it completes, on its parent
            parent, n_children = open_splits[-1]
            parent.children.append(node)
            if len(parent.children) < n_children:
                break
            node = open_splits.pop()[0]
        else:
            return node


def save_model(model, path) -> None:
    """Versioned structured-text model file (round-trippable)."""
    if isinstance(model, MajorityModel):
        body = [f"default {model.klass.tag}"]
    elif isinstance(model, RuleSet):
        body = [f"default {model.default.tag}"] + [_fmt_rule(rule) for rule in model.rules]
    elif isinstance(model, DecisionTree):
        body = _tree_lines(model.root)
    else:
        raise DataError(f"unknown model type {type(model).__name__}")
    head = [MODEL_MAGIC, f"kind {model.kind}",
            f"features {','.join(f'{n}:{k}' for n, k in model.features)}"]
    artifact.write_text(path, (line + "\n" for part in (head, body) for line in part))


def load_model(path):
    return artifact.read_lines(path, _parse_model)


def _parse_model(lines):
    if next(lines, None) != MODEL_MAGIC:
        raise DataError("not a chids model file")
    kind = _after(next(lines, ""), "kind", " ")
    pairs = [p.split(":") for p in _after(next(lines, ""), "features", " ").split(",")]
    features = FeatureSchema(pairs).features  # each a known kind, no name twice
    kinds = dict(features)
    body = (line for line in lines if line.strip())
    if kind == "tree":
        model = DecisionTree(_parse_tree(body, kinds), features)
    elif kind in ("majority", "part"):
        default = AttackClass.from_tag(_after(next(body, ""), "default", " "))
        if kind == "majority":
            model = MajorityModel(default, features)
        else:
            model = RuleSet([_parse_rule(line, kinds) for line in body], default, features)
    else:
        raise DataError(f"unknown model kind {kind!r}")
    for line in body:
        raise DataError(f"{line!r} after the end of the model")
    return model

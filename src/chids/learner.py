"""The misuse classifier: a PART decision-list learner (Frank and Witten,
ICML 1998) that repeatedly grows a partial pruned gain-ratio tree and keeps
its best-coverage leaf as the next rule, and the versioned text file of the
rule list it learns.

All training is deterministic: candidate splits are examined in schema
order, split ties break on feature index then threshold, leaf ties break on
total training frequency then class order.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from . import artifact, kernels
from .errors import DataError, InvalidOperation, SchemaMismatch
from .kdd import NOMINAL, NUMERIC, SYMBOL_RE, AttackClass, Dataset, FeatureSchema, N_CLASSES
from .sections import TreeParams


class Leaf:
    __slots__ = ("dist", "klass")

    def __init__(self, dist: np.ndarray, klass: AttackClass):
        self.dist = np.asarray(dist, dtype=np.int64)
        self.klass = klass


class Split:
    """An inner node of a `DecisionTree`; it goes with that class."""

    __slots__ = ("feature", "kind", "threshold", "symbols", "children", "majority_child", "dist")

    def __init__(self, feature, kind, threshold, symbols, children, majority_child, dist):
        self.feature = feature
        self.kind = kind                    # numeric | nominal
        self.threshold = threshold          # numeric only
        self.symbols = symbols              # nominal only: tuple of branch symbols
        self.children = children
        self.majority_child = majority_child
        self.dist = np.asarray(dist, dtype=np.int64)


class RuleTest(NamedTuple):
    feature: str
    op: str          # "==" (nominal), "<=" or ">" (numeric)
    value: object    # symbol string or float


class Rule(NamedTuple):
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
    """Predicts one class unconditionally. No chids code builds one: the
    benchmark wraps `predict_dataset` here by name, until it reads an
    in-program trace and this class moves into the tests."""

    def __init__(self, klass: AttackClass, features):
        super().__init__(features)
        self.klass = klass

    def predict_dataset(self, ds: Dataset) -> np.ndarray:
        self._check(ds)
        return np.full(len(ds), int(self.klass), dtype=np.int32)


class DecisionTree(_ModelBase):
    """A tree of `Split` and `Leaf` nodes. No chids code builds one: the
    benchmark wraps `predict_dataset` here by name, until it reads an
    in-program trace and this class moves into the tests."""

    def __init__(self, root: Split | Leaf, features):
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

# Wichura's AS241 (Applied Statistics 37, 1988, 477-484): numerator and
# denominator coefficients, highest power first, of the rational function
# for the central region |p - 0.5| <= 0.425 and of the two tails.
_AS241 = (
    ((2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
      4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
      1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
     (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
      2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
      4.23133_30701_60091_1252e+1, 1.0)),
    ((7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
      1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
      4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
     (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
      1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
      2.05319_16266_37758_82187e+0, 1.0)),
    ((2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
      2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
      5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
     (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
      7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
      5.99832_20655_58879_37690e-1, 1.0)),
)


def _horner(coefficients, x: float) -> float:
    return reduce(lambda acc, c: acc * x + c, coefficients)


@lru_cache(maxsize=None)
def _z_quantile(confidence: float) -> float:
    """The standard normal quantile at 1 - confidence, for a confidence in
    (0, 0.5] with 1 - confidence below 1: AS241 in the order of operations
    of `statistics.NormalDist().inv_cdf`, so the same float, without
    loading `statistics` (and through it `fractions` and `decimal`)."""
    p = 1.0 - confidence
    q = p - 0.5
    if q <= 0.425:
        r = 0.180625 - q * q
        num, den = _AS241[0]
        return _horner(num, r) * q / _horner(den, r)
    r = math.sqrt(-math.log(1.0 - p))
    if r <= 5.0:
        num, den = _AS241[1]
        r -= 1.6
    else:
        num, den = _AS241[2]
        r -= 5.0
    return _horner(num, r) / _horner(den, r)


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
    """PART's partial trees over one training dataset."""

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

    def expand(self, idx, used_nominal, path):
        """Grow the partial tree below the node over `idx`. Returns the
        node's leaf, or None if it stays a split, and (path, leaf, order)
        for every leaf made in this subtree.

        Children are expanded lowest class entropy first, up to the first
        one that stays a split. Once every child is a leaf, the node
        collapses into a leaf when its pessimistic error is no worse than
        theirs (subtree replacement)."""
        counts = self._node_counts(idx)
        klass = self.leaf_class(counts)
        if np.count_nonzero(counts) <= 1 or idx.size < 2 * self.params.min_leaf:
            return self._make_leaf(counts, klass, path)
        key = (idx.tobytes(), used_nominal)
        if key not in self._splits:
            self._splits[key] = self._choose(self._candidates(idx, counts, used_nominal))
        cand = self._splits[key]
        if cand is None:
            return self._make_leaf(counts, klass, path)
        subsets, symbols = self._partition(idx, cand)
        used = used_nominal | {cand.feature} if cand.kind == NOMINAL else used_nominal
        entropy = [kernels.entropy_vec(self._node_counts(s)) if s.size else 0.0 for s in subsets]
        errors = [0.0] * len(subsets)  # each child leaf's pessimistic error, 0 if empty
        leaves: list = []
        for i in sorted(range(len(subsets)), key=lambda i: (entropy[i], i)):
            if subsets[i].size == 0:
                continue
            leaf, sub_leaves = self.expand(
                subsets[i], used, path + [self._branch_test(cand, symbols, i)])
            leaves.extend(sub_leaves)
            if leaf is None:
                return None, leaves
            errors[i] = self._pessimistic(leaf.dist, leaf.klass)
        if self._pessimistic(counts, klass) <= sum(errors) + 0.1:
            return self._make_leaf(counts, klass, path)
        return None, leaves

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
        _, leaves = self.expand(idx, frozenset(), [])
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
        raise InvalidOperation("training set has no records")
    if (train.class_codes < 0).any():
        raise InvalidOperation("training set contains unlabeled records")
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


# --- serialization -------------------------------------------------------

MODEL_MAGIC = "#chids-model v1"


def _symbol(text: str) -> str:
    """`text`, a nominal symbol as a model file holds it: neither written
    nor read if it has whitespace or a comma."""
    if not SYMBOL_RE.fullmatch(text):
        raise DataError(f"symbol {text!r} is not serializable (whitespace or comma)")
    return text


def check_symbols(schema: FeatureSchema) -> None:
    """Raise DataError for a nominal symbol of `schema` no model file can hold."""
    for symbols in schema.domains.values():
        for text in symbols:
            _symbol(text)


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
            if feat not in kinds:
                raise DataError(f"feature {feat!r} is not on the features line")
            kind = kinds[feat]
            if op not in _OPS.get(kind, ()):
                raise DataError(f"bad operator for {kind} feature in rule: {part!r}")
            value = _symbol(val) if kind == NOMINAL else artifact.finite(val)
            tests.append(RuleTest(feat, op, value))
    return Rule(tuple(tests), AttackClass.from_tag(tag), cov, err)


def _after(text: str, head: str, sep: str) -> str:
    """What follows `head` and `sep` in `text`, such as `kind part` or `default dos`."""
    name, found, value = text.partition(sep)
    if name != head or not found:
        raise DataError(f"expected {head + sep!r}, got {text!r}")
    return value


def save_model(model: RuleSet, path) -> None:
    """Versioned structured-text model file (round-trippable)."""
    lines = [MODEL_MAGIC, f"kind {model.kind}",
             f"features {','.join(f'{n}:{k}' for n, k in model.features)}",
             f"default {model.default.tag}"] + [_fmt_rule(rule) for rule in model.rules]
    artifact.write_text(path, (line + "\n" for line in lines))


def load_model(path) -> RuleSet:
    return artifact.read_lines(path, _parse_model)


def _parse_model(lines) -> RuleSet:
    if next(lines, None) != MODEL_MAGIC:
        raise DataError("not a chids model file")
    kind = _after(next(lines, ""), "kind", " ")
    if kind != RuleSet.kind:
        raise DataError(f"unknown model kind {kind!r}: `chids train` rewrites the file")
    pairs = [p.split(":") for p in _after(next(lines, ""), "features", " ").split(",")]
    features = FeatureSchema(pairs).features  # each a known kind, no name twice
    kinds = dict(features)
    body = (line for line in lines if line.strip())
    default = AttackClass.from_tag(_after(next(body, ""), "default", " "))
    return RuleSet([_parse_rule(line, kinds) for line in body], default, features)

import math
import random

import numpy as np
import pytest

from oracles import (
    entropy_oracle,
    first_match_oracle,
    gain_for_threshold_oracle,
    info_gain_oracle,
    record,
    tree_walk_oracle,
)
from chids.errors import DataError, SchemaMismatch
from chids.kdd import AttackClass, Dataset, FeatureSchema, KddRecord
from chids.learner import (
    DecisionTree,
    Leaf,
    MajorityModel,
    Rule,
    RuleSet,
    RuleTest,
    Split,
    TreeParams,
    _Grower,
    load_model,
    save_model,
    train_part,
)

LABELS = ("normal", "neptune", "satan", "phf", "perl")


def xy_dataset(points, classes, nominal_col=None) -> Dataset:
    """Two numeric features (x, y) and optionally one nominal feature (s)."""
    defs = [("x", "numeric"), ("y", "numeric")]
    if nominal_col is not None:
        defs.append(("s", "nominal"))
    schema = FeatureSchema(defs)
    records = []
    for i, ((x, y), c) in enumerate(zip(points, classes)):
        vals = (float(x), float(y)) + ((str(nominal_col[i]),) if nominal_col is not None else ())
        records.append(KddRecord(vals, LABELS[c]))
    return Dataset.from_records(records, schema)


def accuracy(model, ds) -> float:
    return float((model.predict_dataset(ds) == ds.class_codes).mean())


def majority_baseline(ds) -> MajorityModel:
    """The constant predictor of the most frequent training class."""
    klass = AttackClass(int(np.argmax(np.bincount(ds.class_codes, minlength=5))))
    return MajorityModel(klass, ds.schema.features)


def hand_built_tree(features) -> DecisionTree:
    """x <= 5 -> normal; else by s: a -> dos, b -> (y <= 2 -> probe, else r2l);
    a symbol no branch names takes the majority branch, b."""
    def leaf(klass):
        return Leaf(np.zeros(5), klass)

    by_y = Split("y", "numeric", 2.0, None, [leaf(AttackClass.PROBE), leaf(AttackClass.R2L)],
                 0, np.zeros(5))
    by_s = Split("s", "nominal", None, ("a", "b"), [leaf(AttackClass.DOS), by_y], 1, np.zeros(5))
    return DecisionTree(Split("x", "numeric", 5.0, None, [leaf(AttackClass.NORMAL), by_s], 1,
                              np.zeros(5)), features)


class TestBuildTree:
    def test_leaf_tie_breaks_on_global_frequency(self):
        # node ties 1:1 between classes 0 and 1; class 1 dominates globally
        points = [(0, 0), (1, 0)] + [(10 + i, 0) for i in range(4)]
        classes = [0, 1, 1, 1, 1, 1]
        ds = xy_dataset(points, classes)
        g = _Grower(ds, TreeParams())
        counts = np.array([1, 1, 0, 0, 0])
        assert g.leaf_class(counts) is AttackClass.DOS  # class 1 wins on frequency
        counts = np.array([2, 2, 0, 0, 0])
        g2 = _Grower(xy_dataset([(0, 0)] * 4, [0, 0, 1, 1]), TreeParams())
        assert g2.leaf_class(counts) is AttackClass.NORMAL  # equal totals: class order

    def test_gain_ratio_matches_entropy_oracle(self):
        rng = random.Random(0)
        for trial in range(30):
            n = rng.randrange(10, 100)
            points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
            classes = [rng.randrange(3) for _ in range(n)]
            ds = xy_dataset(points, classes)
            g = _Grower(ds, TreeParams(min_leaf=1))
            idx = np.arange(n)
            counts = np.bincount(ds.class_codes, minlength=5)
            for cand in g._candidates(idx, counts, frozenset()):
                xs = [p[0 if cand.feature == "x" else 1] for p in points]
                want_gain = gain_for_threshold_oracle(xs, classes, cand.threshold)
                assert cand.gain == pytest.approx(want_gain, abs=1e-9)
                n_l = sum(1 for v in xs if v <= cand.threshold)
                want_si = entropy_oracle([0] * n_l + [1] * (n - n_l))
                assert cand.split_info == pytest.approx(want_si, abs=1e-9)

    def test_nominal_gain_matches_oracle(self):
        rng = random.Random(1)
        for trial in range(20):
            n = rng.randrange(10, 80)
            points = [(0.0, 0.0)] * n
            syms = [rng.choice("abc") for _ in range(n)]
            classes = [rng.randrange(3) for _ in range(n)]
            ds = xy_dataset(points, classes, nominal_col=syms)
            g = _Grower(ds, TreeParams(min_leaf=1))
            cands = g._candidates(np.arange(n), np.bincount(ds.class_codes, minlength=5), frozenset())
            nomc = [c for c in cands if c.kind == "nominal"]
            if not nomc:
                continue
            codes = [ds.schema.code("s", s) for s in syms]
            assert nomc[0].gain == pytest.approx(info_gain_oracle(codes, classes), abs=1e-9)
            assert nomc[0].split_info == pytest.approx(entropy_oracle(codes), abs=1e-9)

    def test_unseen_symbol_routes_to_majority_child(self):
        # the dataset codes "b" as 0, "zzz" as 1 and "a" as 2; "zzz" has no
        # branch and takes the majority branch, b
        new = xy_dataset([(9.0, 1.0), (9.0, 1.0), (9.0, 3.0), (9.0, 1.0)], [0] * 4,
                         nominal_col=["b", "zzz", "zzz", "a"])
        tree = hand_built_tree(new.schema.features)
        assert tree.predict_dataset(new).tolist() == [
            int(AttackClass.PROBE), int(AttackClass.PROBE), int(AttackClass.R2L),
            int(AttackClass.DOS)]

    def test_schema_mismatch_raises(self):
        ds = xy_dataset([(0, 0), (1, 1), (2, 2), (3, 3)], [0, 0, 1, 1])
        model = train_part(ds)
        other = xy_dataset([(0, 0)], [0], nominal_col=["a"])
        with pytest.raises(SchemaMismatch):
            model.predict_dataset(other)


class TestPartialTreeRule:
    def test_single_class_residual_empty_antecedent(self):
        ds = xy_dataset([(i, i) for i in range(5)], [2] * 5)
        rule = _Grower(ds, TreeParams()).extract_rule(np.arange(len(ds)))
        assert rule.tests == ()
        assert rule.klass is AttackClass.PROBE
        assert rule.coverage == 5 and rule.errors == 0

    def test_isolating_value_yields_single_test(self):
        rng = random.Random(3)
        syms = ["iso"] * 90 + ["other"] * 10
        classes = [1] * 90 + [rng.randrange(3) for _ in range(10)]
        points = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(100)]
        ds = xy_dataset(points, classes, nominal_col=syms)
        rule = _Grower(ds, TreeParams()).extract_rule(np.arange(len(ds)))
        assert rule.tests == (RuleTest("s", "==", "iso"),)
        assert rule.klass is AttackClass.DOS
        assert rule.coverage == 90
        # oracle: among all single-test rules, s == iso has maximal coverage
        # at full purity
        best = ("", 0)
        for sym in ("iso", "other"):
            members = [c for s, c in zip(syms, classes) if s == sym]
            if len(set(members)) == 1:
                if len(members) > best[1]:
                    best = (sym, len(members))
        assert best == ("iso", 90)

    def test_extracted_leaf_has_max_coverage(self):
        rng = random.Random(7)
        for trial in range(10):
            n = rng.randrange(20, 120)
            points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
            classes = [rng.randrange(3) for _ in range(n)]
            ds = xy_dataset(points, classes)
            g = _Grower(ds, TreeParams())
            _, leaves = g.expand(np.arange(n), frozenset(), [])
            covs = [int(l.dist.sum()) for _, l, _ in leaves]
            rule = g.extract_rule(np.arange(n))
            assert rule.coverage == max(c for c in covs if c > 0)


class TestTrainPart:
    def test_single_class_training(self):
        ds = xy_dataset([(i, 0) for i in range(6)], [3] * 6)
        model = train_part(ds)
        assert len(model.rules) == 1
        assert model.rules[0].tests == ()
        assert model.rules[0].klass is AttackClass.R2L

    def test_linearly_separable_two_rules_no_errors(self):
        points = [(i, 0) for i in range(20)]
        classes = [0 if i < 12 else 1 for i in range(20)]
        # oracle: some single-threshold decision list of length <= 2 is exact
        found = any(
            all((p[0] <= t) == (c == 0) for p, c in zip(points, classes))
            for t in [(a + b) / 2 for a, b in zip(range(20), range(1, 20))]
        )
        assert found
        ds = xy_dataset(points, classes)
        model = train_part(ds)
        assert len(model.rules) <= 2
        assert accuracy(model, ds) == 1.0

    def test_residual_strictly_shrinks_and_covers_all(self):
        rng = random.Random(13)
        n = 150
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        classes = [0 if p[0] < 4 else rng.randrange(3) for p in points]
        ds = xy_dataset(points, classes)
        model = train_part(ds)
        assert sum(r.coverage for r in model.rules) == n

    def test_determinism(self):
        rng = random.Random(17)
        n = 120
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        classes = [rng.randrange(3) for _ in range(n)]
        ds = xy_dataset(points, classes)
        a, b = train_part(ds), train_part(ds)
        assert a.rules == b.rules and a.default == b.default

    def test_split_memo_keeps_no_row_set_a_rule_covered(self, monkeypatch):
        # PART reuses a node's split choice in the trees of later rules. After
        # each rule, no remembered row set holds a record that this rule or
        # an earlier one covered: every entry kept can still recur.
        rng = random.Random(29)
        n = 300
        points = [(rng.randrange(12), rng.uniform(0, 10)) for _ in range(n)]
        classes = [int(x // 4) if rng.random() < 0.85 else rng.randrange(3) for x, _ in points]
        ds = xy_dataset(points, classes, nominal_col=[rng.choice("abc") for _ in range(n)])
        covered, kept = set(), []
        forget = _Grower.forget

        def checked(self, rows):
            forget(self, rows)
            covered.update(rows.tolist())
            for rows_bytes, _ in self._splits:
                assert covered.isdisjoint(np.frombuffer(rows_bytes, dtype=np.intp).tolist())
            kept.append(len(self._splits))

        monkeypatch.setattr(_Grower, "forget", checked)
        model = train_part(ds)
        assert len(kept) == len(model.rules) > 10 and len(covered) == n
        assert max(kept) > 0  # some choices outlive the rule after them

    def test_beats_majority_baseline(self):
        rng = random.Random(23)
        for trial in range(5):
            n = 100
            points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
            classes = [0 if p[0] < 5 else 1 for p in points]
            ds = xy_dataset(points, classes)
            assert accuracy(train_part(ds), ds) >= accuracy(majority_baseline(ds), ds)


class TestPredict:
    def test_first_match_order(self):
        rules = (
            Rule((RuleTest("x", "<=", 5.0),), AttackClass.DOS, 3, 0),
            Rule((RuleTest("y", "<=", 100.0),), AttackClass.PROBE, 3, 0),
        )
        model = RuleSet(rules, AttackClass.NORMAL, (("x", "numeric"), ("y", "numeric")))

        def one(x, y):
            return AttackClass(int(model.predict_dataset(xy_dataset([(x, y)], [0]))[0]))

        # record matches rule 1 AND rule 2 -> rule 1 wins
        assert one(1.0, 1.0) is AttackClass.DOS
        # record matching nothing -> default
        assert one(9.0, 200.0) is AttackClass.NORMAL

    def test_against_naive_first_match_oracle(self):
        rng = random.Random(29)
        n = 130
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        classes = [rng.randrange(4) for _ in range(n)]
        ds = xy_dataset(points, classes)
        model = train_part(ds)
        plain_rules = [
            ([(t.feature, t.op, t.value) for t in r.tests], int(r.klass)) for r in model.rules
        ]
        name_to_pos = {n_: i for i, (n_, _) in enumerate(model.features)}
        got = model.predict_dataset(ds)
        for i in range(n):
            want = first_match_oracle(
                plain_rules, int(model.default), record(ds, i).values, name_to_pos
            )
            assert int(got[i]) == want

    def test_batch_equals_record_prediction(self):
        rng = random.Random(31)
        n = 80
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        syms = [rng.choice(["a", "b", "zzz"]) for _ in range(n)]  # no branch names zzz
        classes = [rng.randrange(3) for _ in range(n)]
        ds = xy_dataset(points, classes, nominal_col=syms)
        part, majority = train_part(ds), majority_baseline(ds)
        tree = hand_built_tree(ds.schema.features)
        name_to_pos = {name: i for i, name in enumerate(ds.schema.names)}
        plain_rules = [
            ([(t.feature, t.op, t.value) for t in r.tests], int(r.klass)) for r in part.rules
        ]
        references = {
            part: lambda values: first_match_oracle(
                plain_rules, int(part.default), values, name_to_pos
            ),
            tree: lambda values: tree_walk_oracle(tree.root, values, name_to_pos),
            majority: lambda values: majority.klass,
        }
        for model, reference in references.items():
            batch = model.predict_dataset(ds)
            for i in range(n):
                assert int(batch[i]) == int(reference(record(ds, i).values))


class TestMajorityBaseline:
    def test_majority_of_training(self):
        ds = xy_dataset([(i, 0) for i in range(10)], [0] * 6 + [1] * 4)
        model = majority_baseline(ds)
        assert model.klass is AttackClass.NORMAL
        assert set(model.predict_dataset(ds).tolist()) == {0}

    def test_never_detects_attacks(self):
        ds = xy_dataset([(i, 0) for i in range(10)], [0] * 6 + [1] * 4)
        model = majority_baseline(ds)
        attacks = xy_dataset([(0, 0)], [2])
        assert model.predict_dataset(attacks).tolist() == [0]


class TestSerialization:
    def roundtrip(self, model, tmp_path, ds):
        p = tmp_path / "model.txt"
        save_model(model, p)
        loaded = load_model(p)
        assert loaded.features == model.features == ds.schema.features
        assert np.array_equal(loaded.predict_dataset(ds), model.predict_dataset(ds))
        p2 = tmp_path / "model2.txt"
        save_model(loaded, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_all_kinds_round_trip(self, tmp_path):
        rng = random.Random(37)
        n = 90
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        syms = [rng.choice(["tcp", "udp", "icmp"]) for _ in range(n)]
        classes = [rng.randrange(4) for _ in range(n)]
        ds = xy_dataset(points, classes, nominal_col=syms)
        self.roundtrip(train_part(ds), tmp_path, ds)

    def test_rule_text_shape(self, tmp_path):
        rules = (
            Rule(
                (RuleTest("s", "==", "http"), RuleTest("x", "<=", 512.0)),
                AttackClass.NORMAL,
                12,
                1,
            ),
        )
        model = RuleSet(
            rules, AttackClass.DOS, (("x", "numeric"), ("y", "numeric"), ("s", "nominal"))
        )
        p = tmp_path / "m.txt"
        save_model(model, p)
        text = p.read_text()
        assert "rule IF s == http AND x <= 512.0 THEN normal cov=12 err=1" in text
        assert "default dos" in text


_PART_FILE = [
    "#chids-model v1",
    "kind part",
    "features x:numeric,y:numeric",
    "default dos",
    "rule IF x <= 0.5 THEN normal cov=2 err=0",
]


def _edited(lines, i, text):
    """`lines` with line i (from 0) replaced by `text`, or with `text`
    appended when i is past the end."""
    return lines[:i] + [text] + lines[i + 1:]


class TestModelFileChecks:
    # each file reads without error unless its keywords and its length are checked
    @pytest.mark.parametrize("lines, lineno", [
        (_edited(_PART_FILE, 1, "kinds part"), 2),
        (_edited(_PART_FILE, 1, "kind tree"), 2),
        (_edited(_PART_FILE, 1, "kind majority"), 2),
        (_edited(_PART_FILE, 2, "feature x:numeric,y:numeric"), 3),
        (_edited(_PART_FILE, 3, "fallback dos"), 4),
        (_edited(_PART_FILE, 3, "default xyz"), 4),
        (_edited(_PART_FILE, 4, "rule IF x <= 0.5 THEN xyz cov=2 err=0"), 5),
        (_edited(_PART_FILE, 4, "rule IF x <= nan THEN normal cov=2 err=0"), 5),
        (_edited(_PART_FILE, 4, "rule IF x > inf THEN normal cov=2 err=0"), 5),
        (_edited(_PART_FILE, 4, "rule IF x <= -inf THEN normal cov=2 err=0"), 5),
        (_edited(_PART_FILE, 2, "features x:numeric,y:bogus"), 3),
        (_edited(_PART_FILE, 2, "features x:numeric,x:numeric"), 3),
        (_edited(_PART_FILE, 2, "features x:numeric:nominal,y:numeric"), 3),
        (_edited(_PART_FILE, 4, "rule IF x <= 0.5 THEN normal cov=1 err=5"), 5),
        (_edited(_edited(_PART_FILE, 2, "features x:numeric,s:nominal"), 4,
                 "rule IF s == a\x1cb THEN normal cov=2 err=0"), 5),
    ], ids=["kind", "kind-tree", "kind-majority", "features", "default-part",
            "class-default-part", "class-rule", "nan-rule", "inf-rule", "minus-inf-rule",
            "feature-kind", "feature-twice", "feature-three-parts", "err-above-cov",
            "rule-symbol-x1c"])
    def test_malformed_model_names_the_file_line(self, tmp_path, lines, lineno):
        path = tmp_path / "m.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as caught:
            load_model(path)
        assert str(caught.value).startswith(f"{path}: line {lineno}: ")
        assert caught.value.exit_code == 4


class TestPessimisticErrors:
    def test_z_quantile_is_the_standard_library_quantile_to_the_bit(self):
        from statistics import NormalDist

        from chids.learner import _z_quantile

        # the central region ends where 1 - c - 0.5 passes 0.425, at c = 0.075;
        # the tail's two pieces meet where sqrt(-log c) passes 5, near
        # c = exp(-25); the smallest c with 1 - c < 1 is a little above 2**-54
        edge = 0.075
        grid = [0.5, 0.25, edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0),
                *(math.exp(-25) * (1 + k / 1000) for k in range(-50, 51)),
                2.0 ** -53, math.nextafter(2.0 ** -54, 1.0), 1e-16,
                *(i / 4096 for i in range(1, 2049)), *(10.0 ** (-k / 8) for k in range(3, 129))]
        grid = [c for c in grid if 0 < c <= 0.5 and 1.0 - c < 1.0]
        assert min(grid) < 2.0 ** -53 and len(grid) > 2200
        for c in grid:
            assert _z_quantile(c) == NormalDist().inv_cdf(1.0 - c), c

    def test_zero_error_case_exact_binomial_bound(self):
        from chids.learner import added_errors

        # e=0: N * (1 - CF^(1/N)), the exact binomial upper bound
        assert added_errors(6, 0, 0.25) == pytest.approx(6 * (1 - 0.25 ** (1 / 6)), rel=1e-12)
        assert added_errors(0, 0) == 0.0

    def test_bounds_and_monotonicity(self):
        from chids.learner import added_errors

        for n in (2, 5, 20, 100):
            prev = -1.0
            for e in range(n + 1):
                extra = added_errors(n, e, 0.25)
                assert 0.0 <= extra <= n
                total = e + extra
                assert total >= prev - 1e-9  # estimated totals grow with e
                prev = total

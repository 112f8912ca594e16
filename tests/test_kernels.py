import contextlib
import hashlib
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthdata
from oracles import best_numeric_split_oracle, gain_for_threshold_oracle
from chids import kernels
from chids.cli import main
from chids.kdd import N_CLASSES, Dataset, load_cache, load_dataset
from chids.learner import save_model, train_part


class TestPureKernel:
    def test_no_candidate_on_single_group(self):
        assert kernels.best_group_cut(np.array([[3, 2]], dtype=np.int64), 1) is None

    def test_pure_same_class_boundary_skipped(self):
        # both groups pure in class 0: the only boundary is not a candidate
        counts = np.array([[3, 0], [2, 0]], dtype=np.int64)
        assert kernels.best_group_cut(counts, 1) is None

    def test_min_each_side_respected(self):
        counts = np.array([[1, 0], [0, 9]], dtype=np.int64)
        assert kernels.best_group_cut(counts, 2) is None
        assert kernels.best_group_cut(counts, 1) is not None

    def test_best_cut_matches_exhaustive_oracle(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randrange(4, 60)
            values = [float(rng.randrange(8)) for _ in range(n)]
            classes = [rng.randrange(3) for _ in range(n)]
            gv, counts = kernels.group_counts(
                np.array(values), np.array(classes), 3
            )
            res = kernels.best_group_cut(counts, 1)
            want = best_numeric_split_oracle(values, classes)
            if want is None:
                assert res is None or res[1] <= 1e-12
                continue
            want_gain, want_thr = want
            if res is None:
                assert want_gain <= 1e-12
                continue
            pos, gain = res[0], res[1]
            thr = (gv[pos - 1] + gv[pos]) / 2.0
            assert gain == pytest.approx(want_gain, abs=1e-9)
            # the boundary-point shortcut must not lose the optimum
            got_direct = gain_for_threshold_oracle(values, classes, thr)
            assert got_direct == pytest.approx(want_gain, abs=1e-9)


class TestGroupCounts:
    def test_grouping_exact(self):
        values = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
        classes = np.array([0, 1, 1, 0, 1])
        gv, counts = kernels.group_counts(values, classes, 2)
        assert list(gv) == [1.0, 2.0, 3.0]
        assert counts.tolist() == [[0, 2], [1, 0], [1, 1]]

    def test_empty(self):
        gv, counts = kernels.group_counts(np.array([]), np.array([], dtype=int), 3)
        assert gv.size == 0 and counts.shape == (0, 3)


def per_column_cuts(block, classes, n_classes, min_each_side):
    """The reference: group_counts + best_group_cut on each column alone."""
    out = []
    for j in range(block.shape[1]):
        gv, counts = kernels.group_counts(block[:, j], classes, n_classes)
        res = kernels.best_group_cut(counts, min_each_side)
        if res is None:
            out.append(None)
            continue
        pos, gain, n_left = res[:3]
        out.append(((float(gv[pos - 1]) + float(gv[pos])) / 2.0, gain, n_left))
    return out


def assert_same_cuts(block, classes, min_each_side, n_classes=5):
    block = np.asarray(block, dtype=np.float64)
    classes = np.asarray(classes, dtype=np.int8)
    got = kernels.best_numeric_cuts(block, classes, n_classes, min_each_side)
    want = per_column_cuts(block, classes, n_classes, min_each_side)
    assert got == want  # bit for bit: threshold, gain, n_left, or None
    return got


# value pools with repeats, negatives and both zeros, so columns have ties
_POOLS = (
    (0.0,),
    (0.0, 1.0),
    (-2.5, -0.0, 0.0, 1.0, 3.25),
    tuple(float(v) for v in range(12)),
    (1e-3, 0.5, 1e6),
)


class TestEntropyVec:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3000), min_size=1, max_size=12))
    def test_memo_returns_the_numpy_float(self, counts):
        # the first call computes, the second is a memo hit: both are the
        # float numpy's own sum over the nonzero counts gives
        arr = np.array(counts, dtype=np.int64)
        want = 0.0
        if arr.sum():
            p = arr[arr > 0] / arr.sum()
            want = float(-(p * np.log2(p)).sum())
        assert kernels.entropy_vec(arr) == want
        assert kernels.entropy_vec(arr) == want


class TestBestNumericCuts:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_per_column_reference(self, data):
        n = data.draw(st.integers(0, 40), label="n")
        n_cols = data.draw(st.integers(1, 6), label="n_cols")
        cols = []
        for _ in range(n_cols):
            pool = data.draw(st.sampled_from(_POOLS))
            cols.append(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        n_present = data.draw(st.integers(1, 5), label="classes present")
        classes = data.draw(st.lists(st.integers(0, n_present - 1), min_size=n, max_size=n))
        min_each_side = data.draw(st.integers(1, max(1, n // 2 + 2)), label="min_each_side")
        block = np.array(cols, dtype=np.float64).T.reshape(n, n_cols)
        assert_same_cuts(block, classes, min_each_side)

    def test_constant_columns_have_no_cut(self):
        block = np.column_stack([np.full(8, 3.0), np.arange(8.0), np.zeros(8)])
        got = assert_same_cuts(block, [0, 0, 1, 1, 0, 1, 0, 1], 1)
        assert got[0] is None and got[2] is None and got[1] is not None

    def test_single_class_node_has_no_cut(self):
        assert assert_same_cuts(np.arange(12.0).reshape(6, 2), [3] * 6, 1) == [None, None]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_nodes(self, n):
        assert_same_cuts(np.arange(float(2 * n)).reshape(n, 2), [0, 1][:n], 1)

    def test_min_each_side_over_half_the_node(self):
        block = np.arange(10.0).reshape(10, 1)
        assert assert_same_cuts(block, [0] * 5 + [1] * 5, 6) == [None]
        assert assert_same_cuts(block, [0] * 5 + [1] * 5, 5) == [(4.5, 1.0, 5)]

    def test_gain_is_exact_where_the_vector_screen_is_not(self):
        # the one cut (1 record left, 9 + 65 right) screens at 0.002476649331205172,
        # not the exact 0.002476649331205283: the reported gain is re-scored
        block = np.ones((75, 1))
        block[0] = 0.0
        classes = np.ones(75, dtype=np.int8)
        classes[1:10] = 0
        got = assert_same_cuts(block, classes, 1)
        assert got == [(0.5, 0.002476649331205283, 1)]

    @pytest.mark.parametrize("pattern", [
        [0, 0, 1, 1, 0, 0],              # cuts at 2 and 4 tie
        [0, 1, 1, 0, 0, 1, 1, 0],        # mirrored cuts tie
        [0, 0, 1, 1, 0, 0, 1, 1, 0, 0],  # ties at 2, 4, 6 and 8
        [2, 2, 0, 0, 1, 1, 0, 0, 2, 2],
    ])
    def test_equal_gain_ties_take_the_first_cut(self, pattern):
        n = len(pattern)
        block = np.column_stack([np.arange(float(n)), np.arange(float(n))[::-1]])
        got = assert_same_cuts(block, pattern, 1)
        # the reversed column meets the same cuts from the other end
        assert got[0][1] == got[1][1]


def _relabel_share(lines, share, rng):
    """Give exactly round(share * size) lines of each class, chosen by `rng`,
    a label of another class, the other classes taken in turn."""
    klass_of = {lab: k for k, labs in synthdata.LABELS.items() for lab in labs}
    members = {k: [] for k in synthdata.LABELS}
    for i, ln in enumerate(lines):
        members[klass_of[ln.rsplit(",", 1)[1].rstrip(".")]].append(i)
    lines = list(lines)
    for klass, rows in members.items():
        others = [k for k in synthdata.LABELS if k != klass]
        for j, i in enumerate(rng.sample(rows, round(share * len(rows)))):
            label = rng.choice(synthdata.LABELS[others[j % len(others)]])
            lines[i] = f"{lines[i].rsplit(',', 1)[0]},{label}."
    return lines


def test_part_model_on_noisy_records_is_pinned(tmp_path):
    """PART on synthetic records with 5% of each class relabelled: the
    model file is byte-identical to the one the per-column kernels gave."""
    rng = random.Random(11)
    lines = _relabel_share(synthdata.synth_lines(1000, seed=11, dup_rate=0.0), 0.05, rng)
    corpus = tmp_path / "noisy.kdd"
    corpus.write_text("\n".join(lines) + "\n", encoding="ascii")
    ds = load_dataset(corpus)
    model = train_part(ds.take(ds.line_rows))
    save_model(model, tmp_path / "model.txt")
    digest = hashlib.sha256((tmp_path / "model.txt").read_bytes()).hexdigest()
    assert digest == "e5259bc619311fc42560bab37a5620e556dde1f3ff11d704646990cde4d0bfc2"


def test_part_model_on_a_noisy_selected_part_is_pinned(tmp_path):
    """PART on a part_noisy-shaped training set: `preprocess` with
    select.k=35, so selected and normalized, a 2000-record training split,
    then exactly 5% of each class given another class, the other classes
    taken in turn. The model file is pinned byte for byte."""
    corpus = tmp_path / "noisy.kdd"
    synthdata.write_corpus(corpus, n=4000, seed=13, dup_rate=0.2)
    out = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["preprocess", "--dataset", str(corpus), "--out", str(out), "--seed", "13",
                     "--set", "select.k=35", "--set", "split.train_size=2000",
                     "--set", "split.test_size=500"]) == 0
    ds = load_cache(out / "train.cache")
    assert len(ds) == 2000 and len(ds.schema.names) == 35
    rng = random.Random(13)
    codes = ds.class_codes.copy()
    for klass in range(N_CLASSES):
        rows = np.flatnonzero(ds.class_codes == klass).tolist()
        others = [k for k in range(N_CLASSES) if k != klass]
        for j, i in enumerate(rng.sample(rows, round(0.05 * len(rows)))):
            codes[i] = others[j % len(others)]
    model = train_part(Dataset(ds.schema, ds.numeric, ds.nominal, ds.labels, codes))
    save_model(model, tmp_path / "model.txt")
    digest = hashlib.sha256((tmp_path / "model.txt").read_bytes()).hexdigest()
    assert digest == "407e1b0b2153fe629463f421d859422c7632ab2a2143ce92f71cc6a0179e751d"

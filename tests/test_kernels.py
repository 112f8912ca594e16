import random

import numpy as np
import pytest

from oracles import best_numeric_split_oracle, gain_for_threshold_oracle
from chids import kernels


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

"""AUROC oracles, histogram invariants, and trial aggregation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infmix.metrics import (ENTROPY_BIN_EDGES, VARIANCE_BIN_EDGES,
                            auroc_balanced, auroc_scores, mean_std,
                            uncertainty_histograms)
from infmix.tensor import Rng


def brute_force_auroc(pos, neg):
    """All-pairs oracle: (wins + 0.5 * ties) / total."""
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc_scores([2.0, 3.0], [1.0]) == 1.0

    def test_all_ties_is_half(self):
        assert auroc_scores([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_with_ties(self, seed):
        rng = Rng(seed)
        # Coarse integer grid forces plenty of exact ties.
        pos = rng.integers(0, 12, size=50).astype(float)
        neg = rng.integers(0, 12, size=50).astype(float)
        fast = auroc_scores(pos, neg)
        assert abs(fast - brute_force_auroc(pos, neg)) < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = Rng(seed)
        pos = rng.uniform(0, 1, 30)
        neg = rng.uniform(0, 1, 40)
        base = auroc_scores(pos, neg)
        warped = auroc_scores(np.exp(3.0 * pos), np.exp(3.0 * neg))
        assert abs(base - warped) < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_midrank_symmetry(self, seed):
        rng = Rng(seed)
        pos = rng.integers(0, 6, size=20).astype(float)
        neg = rng.integers(0, 6, size=25).astype(float)
        assert auroc_scores(pos, neg) + auroc_scores(neg, pos) == pytest.approx(
            1.0, abs=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc_scores([1.0], [])


class TestBalancedAuroc:
    def make_scores(self, n_pos, n_neg, seed=0):
        rng = Rng(seed)
        return rng.uniform(0.5, 1.0, n_pos), rng.uniform(0.0, 0.6, n_neg)

    def test_equal_classes_identical_to_plain(self):
        pos, neg = self.make_scores(40, 40)
        balanced = auroc_balanced(pos, neg, seed=0)
        assert balanced.value == auroc_scores(pos, neg)
        assert balanced.n_per_class == 40

    def test_subsamples_larger_class(self):
        pos, neg = self.make_scores(100, 30)
        balanced = auroc_balanced(pos, neg, seed=1)
        assert balanced.n_per_class == 30

    def test_seeded_subsampling_reproducible(self):
        pos, neg = self.make_scores(80, 30, seed=3)
        a = auroc_balanced(pos, neg, seed=5)
        b = auroc_balanced(pos, neg, seed=5)
        assert a.value == b.value

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="successful attacks"):
            auroc_balanced([], [0.0])


class TestHistograms:
    def groups(self, n_correct=30, n_wrong=10, seed=0):
        rng = Rng(seed)
        make = lambda n: {"max_variance": rng.uniform(0, 0.25, n),
                          "entropy": rng.uniform(0, np.log(10), n)}
        return {"correct": make(n_correct), "wrong": make(n_wrong)}

    def test_counts_conserved(self):
        hists = uncertainty_histograms(self.groups())
        for metric in ("max_variance", "entropy"):
            assert sum(hists[metric]["counts"]["correct"]) == 30
            assert sum(hists[metric]["counts"]["wrong"]) == 10

    def test_bin_edges_fixed(self):
        hists = uncertainty_histograms(self.groups())
        assert np.array_equal(hists["max_variance"]["bin_edges"],
                              VARIANCE_BIN_EDGES)
        assert np.array_equal(hists["entropy"]["bin_edges"], ENTROPY_BIN_EDGES)
        assert len(VARIANCE_BIN_EDGES) == 26  # 25 bins

    def test_degenerate_all_correct(self):
        groups = self.groups(n_wrong=0)
        hists = uncertainty_histograms(groups)
        assert sum(hists["entropy"]["counts"]["wrong"]) == 0

    def test_permutation_invariant(self):
        groups = self.groups()
        perm = Rng(1).permutation(30)
        shuffled = {
            "correct": {k: v[perm] for k, v in groups["correct"].items()},
            "wrong": groups["wrong"],
        }
        a = uncertainty_histograms(groups)
        b = uncertainty_histograms(shuffled)
        assert a["entropy"]["counts"]["correct"] == (
            b["entropy"]["counts"]["correct"])

    def test_boundary_values_counted(self):
        groups = {"g": {"max_variance": np.array([0.0, 0.25]),
                        "entropy": np.array([0.0, np.log(10.0)])}}
        hists = uncertainty_histograms(groups)
        assert sum(hists["max_variance"]["counts"]["g"]) == 2
        assert sum(hists["entropy"]["counts"]["g"]) == 2

    def test_one_group_is_json_ready(self):
        rng = Rng(0)
        groups = {"test": {"max_variance": rng.uniform(0, 0.25, 40),
                           "entropy": rng.uniform(0, np.log(10), 40)}}
        hists = uncertainty_histograms(groups)
        assert json.loads(json.dumps(hists)) == hists
        assert sorted(hists) == ["entropy", "max_variance"]
        for metric in hists:
            assert list(hists[metric]["counts"]) == ["test"]
            assert len(hists[metric]["counts"]["test"]) == 25
            assert len(hists[metric]["bin_edges"]) == 26
        assert sum(hists["entropy"]["counts"]["test"]) == 40


class TestMeanStd:
    def test_single_trial_has_zero_std(self):
        assert mean_std([0.7]) == (0.7, 0.0)

    def test_matches_sample_std(self):
        values = [0.9, 1.1, 1.3]
        assert mean_std(values) == (float(np.mean(values)),
                                    float(np.std(values, ddof=1)))

    def test_axis_gives_per_column_lists(self):
        rows = [[1.0, 2.0, 3.0], [3.0, 2.0, 0.0]]
        mean, std = mean_std(rows, axis=0)
        assert mean == [2.0, 2.0, 1.5]
        np.testing.assert_allclose(std, np.std(rows, axis=0, ddof=1),
                                   rtol=0.0, atol=0.0)
        assert mean_std([[1.0, 2.0]], axis=0) == ([1.0, 2.0], [0.0, 0.0])

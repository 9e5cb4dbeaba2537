"""Greedy grid fitting: candidates, argmax splits, MAD scale, thresholding."""

import math

import numpy as np
import pytest

from uhwt import (
    GridFitParams,
    candidate_splits,
    collect_deep_coefficients,
    denoise,
    estimate_sigma_mad,
    fit_uhwt,
    greedy_split,
    grid_dataset,
    soft_threshold,
    tree_fit_values,
)
from uhwt.core import root_cell_grid
from uhwt.errors import EmptyInputError, NoInternalNodesError
from uhwt.signals import blocks_1d
from uhwt.verify import delta_cart


def line_dataset(values, locs=None):
    values = np.asarray(values, dtype=np.float64)
    if locs is None:
        locs = np.arange(values.size, dtype=np.float64)
    return grid_dataset(np.asarray(locs, dtype=np.float64)[:, None], values)


class TestCandidateSplits:
    def test_single_point_cell(self):
        ds = line_dataset([1.0])
        assert candidate_splits(root_cell_grid(ds), ds) == []

    def test_midpoints_of_consecutive_values(self):
        ds = line_dataset([0.0, 0.0, 0.0], locs=[1 / 3, 2 / 3, 1.0])
        got = candidate_splits(root_cell_grid(ds), ds)
        assert [(d, pytest.approx(loc)) for d, loc in got] == [(0, pytest.approx(0.5)), (0, pytest.approx(5 / 6))]

    def test_min_leaf_blocks_small_children(self):
        ds = line_dataset([0.0, 1.0, 2.0])
        assert candidate_splits(root_cell_grid(ds), ds, n_min=2) == []

    def test_median_only_most_balanced(self):
        ds = line_dataset(np.zeros(8))
        got = candidate_splits(root_cell_grid(ds), ds, median_only=True)
        assert got == [(0, 3.5)]


class TestGreedySplit:
    def test_prefers_larger_contrast(self):
        ds = line_dataset([0.0, 0.0, 10.0], locs=[1 / 3, 2 / 3, 1.0])
        dim, loc, w = greedy_split(root_cell_grid(ds), ds, ds.responses)
        assert dim == 0
        assert loc == pytest.approx(5 / 6)
        assert abs(w) == pytest.approx(math.sqrt(2 / 3) * 10.0, rel=1e-12)

    def test_constant_ties_break_to_first(self):
        ds = line_dataset(np.zeros(5))
        dim, loc, w = greedy_split(root_cell_grid(ds), ds, ds.responses)
        assert (dim, loc, w) == (0, 0.5, 0.0)

    def test_gain_equals_w_squared(self):
        rng = np.random.default_rng(2)
        from uhwt.core import make_axis_split

        for _ in range(40):
            n = int(rng.integers(4, 40))
            ds = line_dataset(rng.normal(size=n))
            root = root_cell_grid(ds)
            dim, loc, w = greedy_split(root, ds, ds.responses)
            split = make_axis_split(root, ds.locations, dim, loc)
            assert delta_cart(root, split, ds.responses) == pytest.approx(w * w, rel=1e-9)


class TestFitUhwt:
    def test_depth_zero_root_only(self):
        ds = line_dataset([1.0, 2.0, 3.0])
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=0))
        assert tree.node_count() == 1

    def test_full_depth_singleton_leaves(self):
        rng = np.random.default_rng(4)
        ds = line_dataset(rng.normal(size=21))
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=10))
        assert all(leaf.cell.mass == 1 for leaf in tree.leaves())

    def test_step_signal_first_split_at_step(self):
        values = np.where(np.arange(16) < 9, -1.0, 2.5)
        ds = line_dataset(values)
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=1))
        assert tree.root.split.loc == pytest.approx(8.5)

    def test_depth_and_min_leaf_guards(self):
        rng = np.random.default_rng(5)
        ds = line_dataset(rng.normal(size=40))
        params = GridFitParams(max_depth=3, min_leaf=4)
        tree = fit_uhwt(ds, ds.responses, params)
        assert all(nd.cell.depth <= 3 for nd in tree.nodes)
        assert all(leaf.cell.mass >= 4 for leaf in tree.leaves())

    @pytest.mark.parametrize("locs", [
        [1.0, float(np.nextafter(1.0, 2.0))],  # the midpoint rounds onto the lower one
        [1.7e308, 1.79e308],  # their sum overflows
    ], ids=["adjacent_doubles", "huge"])
    def test_cut_between_any_two_distinct_coordinates(self, locs):
        ds = line_dataset([0.0, 1.0], locs=locs)
        (dim, loc), = candidate_splits(root_cell_grid(ds), ds)
        assert locs[0] < loc <= locs[1]
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=5))
        assert tree.root.split.loc == loc
        assert [leaf.cell.mass for leaf in tree.leaves()] == [1, 1]
        np.testing.assert_allclose(tree_fit_values(tree), ds.responses, rtol=0, atol=1e-12)

    def test_early_stop_prunes_weak_splits(self):
        rng = np.random.default_rng(6)
        noise = 0.1 * rng.standard_normal(64)
        ds = line_dataset(blocks_1d(64) + noise)
        full = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=10))
        stopped = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=10, early_stop_b=3.0))
        assert 1 < stopped.node_count() < full.node_count()


class TestSigmaMad:
    def test_constant_coefficients(self):
        assert estimate_sigma_mad([2.0, 2.0, 2.0]) == 0.0

    def test_hand_computed_order_statistics(self):
        assert estimate_sigma_mad([-3.0, -1.0, 0.0, 1.0, 3.0]) == pytest.approx(1 / 0.6745, rel=1e-12)

    def test_gaussian_consistency(self):
        draws = np.random.default_rng(7).standard_normal(100_000)
        assert 0.97 <= estimate_sigma_mad(draws) <= 1.03

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            estimate_sigma_mad([])


class TestCollectDeep:
    def test_single_split_fallback(self):
        ds = line_dataset([0.0, 1.0])
        tree = fit_uhwt(ds, ds.responses, GridFitParams())
        assert collect_deep_coefficients(tree) == [tree.root.w]

    def test_two_deepest_levels_of_perfect_tree(self):
        rng = np.random.default_rng(8)
        ds = line_dataset(rng.normal(size=32))
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=4, median_splits_only=True))
        # internal depths 0..3 -> depths {2, 3} hold 4 + 8 = 12 >= 10 coefficients
        deep = collect_deep_coefficients(tree)
        assert len(deep) == 12

    def test_small_tree_falls_back_to_all(self):
        rng = np.random.default_rng(9)
        ds = line_dataset(rng.normal(size=8))
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=3, median_splits_only=True))
        # 7 internal nodes, deepest two levels hold 6 < 10 -> all 7
        assert len(collect_deep_coefficients(tree)) == 7

    def test_no_internal_nodes(self):
        ds = line_dataset([1.0])
        tree = fit_uhwt(ds, ds.responses, GridFitParams())
        with pytest.raises(NoInternalNodesError):
            collect_deep_coefficients(tree)

    def test_shallow_split_keeps_deep_set(self):
        rng = np.random.default_rng(10)
        ds = line_dataset(rng.normal(size=32))
        partial = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=4, median_splits_only=True))
        deep = set(collect_deep_coefficients(partial))
        full = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=5, median_splits_only=True))
        deeper = set(collect_deep_coefficients(full))
        # growing one level moves the window down, never resurfacing the root
        assert partial.root.w not in deep
        assert full.root.w not in deeper


class TestSoftThreshold:
    def test_examples(self):
        assert soft_threshold(5.0, 2.0) == 3.0
        assert soft_threshold(-1.5, 2.0) == 0.0
        assert soft_threshold(-5.0, 2.0) == -3.0

    def test_vectorized(self):
        np.testing.assert_allclose(
            soft_threshold(np.array([5.0, -1.5, -5.0]), 2.0), [3.0, 0.0, -3.0],
        )


class TestDenoise:
    def test_identity_when_unregularized(self):
        rng = np.random.default_rng(11)
        ds = line_dataset(rng.normal(size=32))
        tree = denoise(ds, ds.responses, GridFitParams(max_depth=10, soft_a=0.0))
        np.testing.assert_allclose(tree_fit_values(tree, shrunk=True), ds.responses, atol=1e-12)

    def test_huge_threshold_gives_constant(self):
        rng = np.random.default_rng(12)
        ds = line_dataset(rng.normal(size=32))
        tree = denoise(ds, ds.responses, GridFitParams(max_depth=10, soft_a=1e6))
        np.testing.assert_allclose(
            tree_fit_values(tree, shrunk=True), np.full(32, ds.responses.mean()), atol=1e-9,
        )

    def test_blocks_signal_monte_carlo(self):
        clean = blocks_1d(64)
        wins = 0
        for rep in range(100):
            rng = np.random.default_rng(1000 + rep)
            noisy = clean + 0.5 * rng.standard_normal(64)
            ds = line_dataset(noisy)
            tree = denoise(ds, noisy, GridFitParams(max_depth=10, soft_a=0.8))
            fitted = tree_fit_values(tree, shrunk=True)
            wins += np.mean((fitted - clean) ** 2) < np.mean((noisy - clean) ** 2)
        assert wins >= 95

    def test_training_sse_nondecreasing_in_a(self):
        rng = np.random.default_rng(13)
        ds = line_dataset(blocks_1d(64) + 0.4 * rng.standard_normal(64))
        sses = []
        for a in (0.0, 0.3, 0.6, 1.0, 2.0):
            tree = denoise(ds, ds.responses, GridFitParams(max_depth=10, soft_a=a))
            fitted = tree_fit_values(tree, shrunk=True)
            sses.append(float(((fitted - ds.responses) ** 2).sum()))
        assert all(b >= a - 1e-9 for a, b in zip(sses, sses[1:]))

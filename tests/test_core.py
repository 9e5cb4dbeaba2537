"""Atoms, coefficients, trees, reconstruction, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uhwt import (
    GridFitParams,
    cell_mass,
    fit_uhwt,
    gram_matrix,
    grid_dataset,
    reconstruct,
    sphere_dataset,
    tree_fit_values,
    tree_from_dict,
    tree_to_dict,
    uh_atom,
    uh_coefficient,
)
from uhwt.core import Cell, batch_reconstruct, make_axis_split, root_cell_grid
from uhwt.errors import EmptyChildError, NonFiniteDataError, OutOfDomainError
from uhwt.signals import image_dataset


def line_dataset(values, locs=None):
    values = np.asarray(values, dtype=np.float64)
    if locs is None:
        locs = np.arange(values.size, dtype=np.float64)
    return grid_dataset(np.asarray(locs, dtype=np.float64)[:, None], values)


def split_at(dataset, cell, loc, dim=0):
    return make_axis_split(cell, dataset.locations, dim, loc)


class TestDatasetChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_responses_rejected(self, bad):
        with pytest.raises(NonFiniteDataError):
            grid_dataset(np.arange(4.0)[:, None], [1.0, bad, 2.0, 3.0])

    def test_non_finite_locations_rejected(self):
        with pytest.raises(NonFiniteDataError):
            grid_dataset(np.array([[0.0], [np.inf], [2.0]]), np.zeros(3))
        with pytest.raises(NonFiniteDataError):
            sphere_dataset(np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 1.0]]), np.zeros(2))

    def test_error_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            line_dataset([0.0, np.nan])


class TestCellMass:
    def test_root_holds_all_points(self):
        ds = line_dataset([1.0, 2.0, 3.0, 4.0])
        assert cell_mass(root_cell_grid(ds)) == 4

    def test_empty_region(self):
        cell = Cell(np.empty(0, dtype=np.intp), 0, box=np.array([[0.0, 1.0]]))
        assert cell_mass(cell) == 0

    def test_children_sum_to_parent(self):
        ds = line_dataset(np.arange(7.0))
        root = root_cell_grid(ds)
        split = split_at(ds, root, 2.5)
        masses = [cell_mass(c) for c in split.children]
        assert sum(masses) == cell_mass(root)
        assert all(m >= 1 for m in masses)


class TestUhAtom:
    def test_even_split_values(self):
        ds = line_dataset([0.0, 1.0])
        split = split_at(ds, root_cell_grid(ds), 0.5)
        atom = uh_atom(split, root_cell_grid(ds))
        assert atom.value_plus == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert atom.value_minus == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)

    def test_unbalanced_values_and_zero_mean(self):
        ds = line_dataset(np.zeros(4))
        split = split_at(ds, root_cell_grid(ds), 2.5)  # 3 | 1
        atom = uh_atom(split, root_cell_grid(ds))
        assert atom.value_plus == pytest.approx(math.sqrt(0.75) / 3.0, abs=1e-12)
        assert atom.value_minus == pytest.approx(-math.sqrt(0.75), abs=1e-12)
        assert 3 * atom.value_plus + atom.value_minus == pytest.approx(0.0, abs=1e-12)

    def test_outside_support_is_zero(self):
        ds = line_dataset(np.zeros(6))
        root = root_cell_grid(ds)
        sub = Cell(np.arange(3), 1, box=np.array([[0.0, 2.5]]))
        split = split_at(ds, sub, 1.5)
        atom = uh_atom(split, sub)
        dense = atom.values_at_members(6)
        assert np.all(dense[3:] == 0.0)

    def test_empty_group_raises(self):
        ds = line_dataset(np.zeros(3))
        root = root_cell_grid(ds)
        split = split_at(ds, root, -0.5)  # everything on one side
        with pytest.raises(EmptyChildError):
            uh_atom(split, root)

    @given(st.integers(2, 40), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_zero_mean_unit_norm(self, n, seed):
        rng = np.random.default_rng(seed)
        ds = line_dataset(rng.normal(size=n))
        root = root_cell_grid(ds)
        cut = rng.uniform(0.5, n - 1.5) if n > 2 else 0.5
        split = split_at(ds, root, cut)
        if min(c.mass for c in split.children) == 0:
            return
        dense = uh_atom(split, root).values_at_members(n)
        assert abs(dense.sum()) / n < 1e-12
        assert (dense ** 2).sum() == pytest.approx(1.0, abs=1e-10)


class TestUhCoefficient:
    def test_constant_responses(self):
        ds = line_dataset([3.0] * 6)
        split = split_at(ds, root_cell_grid(ds), 1.5)
        assert uh_coefficient(split, root_cell_grid(ds), ds.responses) == pytest.approx(0.0)

    def test_two_block_example(self):
        ds = line_dataset([0.0, 0.0, 2.0, 2.0])
        split = split_at(ds, root_cell_grid(ds), 1.5)
        assert uh_coefficient(split, root_cell_grid(ds), ds.responses) == pytest.approx(-2.0)

    def test_matches_brute_force_inner_product(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(3, 30)
            ds = line_dataset(rng.normal(size=n))
            root = root_cell_grid(ds)
            split = split_at(ds, root, rng.uniform(0.5, n - 1.5))
            if min(c.mass for c in split.children) == 0:
                continue
            w = uh_coefficient(split, root, ds.responses)
            dense = uh_atom(split, root).values_at_members(n)
            assert w == pytest.approx(float(dense @ ds.responses), rel=1e-12, abs=1e-12)


def random_grid_tree(rng, n=None, ndim=1, max_nodes=200):
    """Tree grown by random admissible splits (not greedy)."""
    if n is None:
        n = int(rng.integers(4, 60))
    if ndim == 1:
        locs = np.arange(n, dtype=np.float64)[:, None]
    else:
        side = max(2, int(round(n ** (1 / ndim))))
        coords = np.indices((side,) * ndim).reshape(ndim, -1).T.astype(np.float64)
        locs = coords
        n = locs.shape[0]
    ds = grid_dataset(locs, rng.normal(size=n))
    from uhwt.grid import candidate_splits
    from uhwt.core import UHTree

    tree = UHTree(root_cell_grid(ds), ds.responses.mean())
    frontier = [0]
    while frontier and tree.node_count() < max_nodes:
        nid = frontier.pop(int(rng.integers(len(frontier))))
        cell = tree.nodes[nid].cell
        options = candidate_splits(cell, ds)
        if not options or rng.uniform() < 0.25:
            continue
        dim, loc = options[int(rng.integers(len(options)))]
        split = make_axis_split(cell, ds.locations, dim, loc)
        frontier.extend(tree.split_node(nid, split, ds.responses))
    return ds, tree


class TestReconstruct:
    def test_depth_zero_returns_mean(self):
        ds = line_dataset([1.0, 5.0, 6.0])
        from uhwt.core import UHTree

        tree = UHTree(root_cell_grid(ds), ds.responses.mean())
        for x in ds.locations:
            assert reconstruct(tree, x) == pytest.approx(4.0)

    def test_full_depth_exact(self):
        rng = np.random.default_rng(3)
        ds = line_dataset(rng.normal(size=17))
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=30))
        for i in range(ds.n):
            assert reconstruct(tree, ds.locations[i]) == pytest.approx(
                ds.responses[i], rel=1e-10, abs=1e-12,
            )

    def test_out_of_domain(self):
        ds = line_dataset([1.0, 2.0])
        tree = fit_uhwt(ds, ds.responses, GridFitParams())
        with pytest.raises(OutOfDomainError):
            reconstruct(tree, np.array([55.0]))

    def test_label_contribution_identity(self):
        # u * w / c is invariant under relabeling: flipping which group is
        # "plus" negates w and swaps the c exponent, leaving u*w/c fixed.
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_plus, n_minus = rng.integers(1, 20, size=2)
            mean_plus, mean_minus = rng.normal(size=2)
            n_a = n_plus + n_minus
            w = math.sqrt(n_plus * n_minus / n_a) * (mean_plus - mean_minus)
            c_plus = math.sqrt(n_a) * math.sqrt(n_plus / n_minus)
            # after the swap the point sits in the minus group: u=-1, the
            # coefficient negates, and c(-1) of the swapped labeling equals
            # c(+1) of the original
            w_swap = -w
            c_swap_minus = math.sqrt(n_a) * (n_minus / n_plus) ** -0.5
            assert -w_swap / c_swap_minus == pytest.approx(w / c_plus, rel=1e-12)

    def test_edge_label_swap_invariance(self):
        # honest relabeling on sphere trees, written into the node arrays:
        # negate the cut normal, swap the children, recompute w;
        # reconstructions must not move
        from uhwt import fit_sphere, predict_sphere
        from uhwt.core import uh_coefficient as coef
        from uhwt.signals import generate_sphere_synthetic

        ds = generate_sphere_synthetic("fig5", 120, 0.1, seed=5)
        model = fit_sphere(ds, ds.responses, "adapt", GridFitParams(max_depth=5))
        queries = ds.locations[:40]
        before = predict_sphere(model, queries)
        swapped = 0
        for tree in model.face_trees:
            edges = [nd.id for nd in tree.nodes if nd.split is not None and nd.split.kind == "edge"]
            if edges:
                i = edges[0]
                tree.cut_normal[i] = -tree.cut_normal[i]
                tree.children[i] = tree.children[i][::-1].copy()
                node = tree.nodes[i]
                tree.w[i] = coef(node.split, node.cell, ds.responses)
                swapped += 1
        assert swapped > 0
        after = predict_sphere(model, queries)
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)


class TestTreeFitValues:
    def test_full_depth_equals_responses(self):
        rng = np.random.default_rng(5)
        ds = line_dataset(rng.normal(size=33))
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=30))
        np.testing.assert_allclose(tree_fit_values(tree), ds.responses, atol=1e-12)

    def test_zeroed_coefficients_give_mean(self):
        rng = np.random.default_rng(6)
        ds = line_dataset(rng.normal(size=16))
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=30))
        tree.set_shrunk(lambda w: 0.0)
        np.testing.assert_allclose(
            tree_fit_values(tree, shrunk=True), np.full(16, ds.responses.mean()), atol=1e-12,
        )

    def test_partial_tree_equals_leaf_means(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ds, tree = random_grid_tree(rng)
            values = tree_fit_values(tree)
            for leaf in tree.leaves():
                members = leaf.cell.members
                np.testing.assert_allclose(
                    values[members], ds.responses[members].mean(), atol=1e-10,
                )

    def test_matches_pointwise_reconstruct(self):
        rng = np.random.default_rng(9)
        ds, tree = random_grid_tree(rng)
        values = tree_fit_values(tree)
        for i in range(ds.n):
            assert values[i] == reconstruct(tree, ds.locations[i])


class TestOrthonormality:
    def test_gram_identity_random_trees(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            ds, tree = random_grid_tree(rng, ndim=int(rng.integers(1, 3)))
            gram = gram_matrix(tree, ds.n)
            assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-10

    def test_partition_property(self):
        rng = np.random.default_rng(12)
        ds, tree = random_grid_tree(rng)
        for node in tree.nodes:
            if node.is_leaf:
                continue
            kids = [tree.nodes[c].cell.members for c in node.children]
            merged = np.sort(np.concatenate(kids))
            np.testing.assert_array_equal(merged, node.cell.members)
            assert set(kids[0]).isdisjoint(kids[1])


class TestSerialization:
    def test_round_trip_bit_faithful(self):
        rng = np.random.default_rng(13)
        ds, tree = random_grid_tree(rng)
        payload = tree_to_dict(tree)
        text = json.dumps(payload)
        rebuilt = tree_from_dict(json.loads(text))
        assert json.dumps(tree_to_dict(rebuilt)) == text

    def test_loaded_tree_predicts_identically(self):
        rng = np.random.default_rng(14)
        img = rng.normal(size=(6, 6))
        ds = image_dataset(img)
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=10))
        tree.set_shrunk(lambda w: 0.5 * w)
        rebuilt = tree_from_dict(json.loads(json.dumps(tree_to_dict(tree))))
        for shrunk in (False, True):
            want, _ = batch_reconstruct(tree, ds.locations, shrunk=shrunk)
            got, _ = batch_reconstruct(rebuilt, ds.locations, shrunk=shrunk)
            np.testing.assert_array_equal(want, got)

    def test_sphere_tree_round_trip(self):
        from uhwt import fit_sphere
        from uhwt.signals import generate_sphere_synthetic

        ds = generate_sphere_synthetic("fig5", 150, 0.1, seed=2)
        for rule in ("adapt", "balance4"):
            model = fit_sphere(ds, ds.responses, rule, GridFitParams(max_depth=4))
            for tree in model.face_trees:
                payload = json.dumps(tree_to_dict(tree))
                rebuilt = tree_from_dict(json.loads(payload))
                assert json.dumps(tree_to_dict(rebuilt)) == payload
                pts = ds.locations[tree.root.cell.members]
                if pts.shape[0] == 0:
                    continue
                want, _ = batch_reconstruct(tree, pts)
                got, _ = batch_reconstruct(rebuilt, pts)
                np.testing.assert_array_equal(want, got)

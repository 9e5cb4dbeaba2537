"""Level-synchronous grid growth against the node-by-node grower it replaced.

fit_uhwt grows a whole depth level at once from presorted point orders.
The trees must be exactly those of the breadth-first loop that called
greedy_split, make_axis_split and split_node once per node, whose split
search re-sorted every node's members; that loop and its per-node search
are kept here as the reference.  The kernel tests check the two rules the
level scan rests on with np.array_equal: zero-padded rows accumulate to
each segment's own np.cumsum, and cut_coefficients with per-cut counts
and totals gives the single-scan doubles.
"""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uhwt import GridFitParams, candidate_splits, fit_uhwt, greedy_split, grid_dataset
from uhwt.core import UHTree, cut_coefficients, make_axis_split, root_cell_grid
from uhwt.grid import _segment_rows, pilot_sigma
from uhwt.signals import image_dataset


def reference_greedy_split(cell, dataset, responses, n_min=1, median_only=False):
    """The per-node split search: one stable argsort per dimension and node."""
    best = None
    for dim in range(dataset.ndim):
        coords = dataset.locations[cell.members, dim]
        order = np.argsort(coords, kind="stable")
        xs = coords[order]
        gaps = np.nonzero(xs[1:] > xs[:-1])[0]
        m = gaps + 1
        gaps = gaps[(m >= n_min) & (xs.size - m >= n_min)]
        if median_only and gaps.size:
            j = int(np.argmin(np.abs(2 * (gaps + 1) - xs.size)))
            gaps = gaps[j:j + 1]
        if gaps.size == 0:
            continue
        w = cut_coefficients(np.cumsum(responses[cell.members][order]), gaps)
        j = int(np.argmax(np.abs(w)))
        cand = (float(np.abs(w[j])), float(0.5 * (xs[gaps[j]] + xs[gaps[j] + 1])), float(w[j]))
        if best is None or cand[0] > best[0]:
            best = (cand[0], dim, cand[1], cand[2])
    return None if best is None else best[1:]


def reference_fit(dataset, responses, params):
    """The breadth-first node-by-node grower."""
    threshold = 0.0
    if params.early_stop_b > 0:
        threshold = params.early_stop_b * pilot_sigma(dataset, responses, params)
    tree = UHTree(root_cell_grid(dataset), responses.mean())
    frontier = deque([0])
    while frontier:
        nid = frontier.popleft()
        cell = tree.nodes[nid].cell
        if cell.depth >= params.max_depth or cell.mass < 2:
            continue
        if responses[cell.members].min() == responses[cell.members].max():
            continue
        best = reference_greedy_split(
            cell, dataset, responses, params.min_leaf, params.median_splits_only)
        assert greedy_split(
            cell, dataset, responses, params.min_leaf, params.median_splits_only) == best
        if best is None:
            continue
        dim, loc, w = best
        assert (dim, loc) in candidate_splits(
            cell, dataset, params.min_leaf, params.median_splits_only)
        if threshold > 0.0 and abs(w) < threshold:
            continue
        split = make_axis_split(cell, dataset.locations, dim, loc)
        frontier.extend(tree.split_node(nid, split, responses))
    return tree


def node_records(tree):
    return [
        (nd.id, nd.parent, nd.cell.depth, nd.cell.members.tolist(), nd.cell.box.tobytes(),
         nd.children, None if nd.split is None else (nd.split.dim, nd.split.loc), nd.w)
        for nd in tree.nodes
    ]


@st.composite
def tied_datasets(draw):
    ndim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few distinct coordinates per axis, so cells hold tied coordinates
    levels = draw(st.integers(2, 6))
    coords = np.unique(rng.integers(0, levels, size=(n, ndim)), axis=0).astype(np.float64)
    coords = coords[rng.permutation(coords.shape[0])] * draw(st.sampled_from([1.0, 0.1, 1e6]))
    if draw(st.booleans()):
        values = rng.integers(-2, 3, size=coords.shape[0]).astype(np.float64)  # tied responses
    else:
        values = rng.standard_normal(coords.shape[0]) * 10.0 ** rng.uniform(-3, 3)
    return grid_dataset(coords, values)


@settings(max_examples=150, deadline=None)
@given(
    ds=tied_datasets(),
    min_leaf=st.integers(1, 4),
    median=st.booleans(),
    max_depth=st.integers(0, 8),
    early_stop_b=st.sampled_from([0.0, 0.2, 1.0]),
)
def test_level_growth_equals_node_by_node(ds, min_leaf, median, max_depth, early_stop_b):
    params = GridFitParams(max_depth=max_depth, min_leaf=min_leaf,
                           median_splits_only=median, early_stop_b=early_stop_b)
    got = fit_uhwt(ds, ds.responses, params)
    assert node_records(got) == node_records(reference_fit(ds, ds.responses, params))


def test_segment_running_sums_equal_each_segments_cumsum():
    rng = np.random.default_rng(8)
    for _ in range(300):
        total = int(rng.integers(2, 300))
        responses = rng.standard_normal(total) * 10.0 ** rng.uniform(-8, 8, size=total)
        orders = np.stack([rng.permutation(total) for _ in range(int(rng.integers(1, 4)))])
        cuts = np.sort(rng.choice(np.arange(1, total), size=int(rng.integers(0, total // 2 + 1)),
                                  replace=False))
        bounds = np.concatenate([[0], cuts, [total]])
        starts, sizes = bounds[:-1], np.diff(bounds)
        width = int(sizes.max()) + int(rng.integers(0, 5))
        ids, csum = _segment_rows(orders, starts, sizes, width, responses)
        for d, order in enumerate(orders):
            for i, (a, size) in enumerate(zip(starts, sizes)):
                assert np.array_equal(ids[d, i, :size], order[a:a + size])
                want = np.cumsum(responses[order[a:a + size]])
                assert np.array_equal(csum[d, i, :size], want)
                assert np.array_equal(csum[d, i, size:], np.full(width - size, want[-1]))


def test_per_cut_counts_and_totals_match_single_scans():
    rng = np.random.default_rng(9)
    for _ in range(500):
        sizes = rng.integers(2, 40, size=int(rng.integers(1, 6)))
        width = int(sizes.max())
        csum = np.zeros((sizes.size, width))
        want, lanes, ks = [], [], []
        for i, n in enumerate(sizes):
            csum[i, :n] = np.cumsum(rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3))
            csum[i, n:] = csum[i, n - 1]
            gaps = np.flatnonzero(rng.uniform(size=n - 1) < 0.7)
            want.append(cut_coefficients(csum[i, :n], gaps))
            lanes += [i] * gaps.size
            ks += gaps.tolist()
        lane, k = np.array(lanes, dtype=np.intp), np.array(ks, dtype=np.intp)
        n = sizes[lane]
        got = cut_coefficients(csum.ravel(), lane * width + k, (k + 1, n), csum[lane, n - 1])
        assert np.array_equal(got, np.concatenate(want))


class TestTies:
    # a symmetric 2x2 image: both axes scan the values 1, 0, 0, -1 in that order
    SYMMETRIC = np.array([[1.0, 0.0], [0.0, -1.0]])

    def test_equal_w_in_two_dimensions_picks_dimension_zero(self):
        ds = image_dataset(self.SYMMETRIC)
        assert greedy_split(root_cell_grid(ds), ds, ds.responses)[:2] == (0, 0.5)
        root = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=1)).root
        assert (root.split.dim, root.split.loc) == (0, 0.5)

    def test_larger_w_in_dimension_one_wins(self):
        ds = image_dataset(np.array([[1.0, 0.0], [0.5, -1.0]]))
        assert greedy_split(root_cell_grid(ds), ds, ds.responses)[:2] == (1, 0.5)
        assert fit_uhwt(ds, ds.responses, GridFitParams(max_depth=1)).root.split.dim == 1

    def test_equal_w_at_two_cuts_picks_the_smaller_threshold(self):
        # cuts after the first and the third point have w of equal size, opposite sign
        ds = grid_dataset(np.arange(4.0)[:, None], [1.0, 0.0, 0.0, 1.0])
        csum = np.cumsum(ds.responses)
        w = cut_coefficients(csum, np.array([0, 2]))
        assert abs(w[0]) == abs(w[1]) and w[0] == -w[1]
        assert greedy_split(root_cell_grid(ds), ds, ds.responses) == (0, 0.5, w[0])
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=1))
        assert tree.root.split.loc == 0.5


"""Greedy tree fitting on grids and tensors.

The weak-learner recipe: scan admissible thresholds (midpoints between
consecutive distinct member coordinates), split at the argmax of the
absolute detail coefficient, optionally stop early when the best
coefficient falls below b * sigma_hat, then soft-threshold the stored
coefficients at a * sigma_hat * sqrt(2 log n) before reconstructing.
sigma_hat is a MAD estimate computed from the deepest coefficients of a
throwaway pilot tree.

Trees grow one depth level at a time.  The points are sorted once per
dimension at the root; every frontier cell is a segment of those orders,
and one scan (_best_cuts) scores the cuts of all frontier cells of a
level together.  A stable partition of each order then yields the child
segments, so no node sorts its members again, and each level's children
are written into the tree's node arrays at once
(UHTree._split_axis_level).  Node ids, splits, members and coefficients
are those of a node-by-node breadth-first grower.

Fitting a single tree is single-threaded; many trees may be fit
concurrently against a shared read-only dataset.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import UHTree, cut_coefficients, root_cell_grid
from .errors import EmptyInputError, NoInternalNodesError

MAD_TO_SIGMA = 0.6745  # MAD of a Gaussian = 0.6745 sigma


@dataclass(frozen=True)
class GridFitParams:
    """Growth and shrinkage knobs for a single greedy tree.

    max_depth          : depth cap L_max.
    min_leaf           : minimum member count per child.
    early_stop_b       : stop splitting when max |w| < early_stop_b * sigma_hat
                         (skipped when 0).
    soft_a             : reconstruction threshold factor; tau = soft_a *
                         sigma_hat * sqrt(2 log n).
    sigma              : optional override of the MAD noise estimate.
    median_splits_only : restrict candidates to the most balanced threshold
                         per dimension (balanced-Haar behaviour).
    """

    max_depth: int = 40
    min_leaf: int = 1
    early_stop_b: float = 0.0
    soft_a: float = 0.0
    sigma: float = None
    median_splits_only: bool = False

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.early_stop_b < 0 or self.soft_a < 0:
            raise ValueError("early_stop_b and soft_a must be >= 0")
        if self.sigma is not None and self.sigma < 0:
            raise ValueError("sigma must be >= 0")


def _admissible_cuts(xs, sizes, n_min, median_only):
    """Mask of the admissible cuts of sorted coordinate rows.

    Row i holds a segment's sorted coordinates in xs[..., i, :sizes[i]]
    (anything may pad it); entry k is the cut between positions k and
    k + 1.  A cut is admissible when the two coordinates differ and each
    side keeps at least n_min members; with median_only only the first
    most balanced one, argmin |2(k + 1) - size|, remains.
    """
    m = np.arange(1, xs.shape[-1])
    sizes = np.asarray(sizes)[..., None]
    ok = (xs[..., 1:] > xs[..., :-1]) & (m >= n_min) & (m <= sizes - n_min)
    if median_only and m.size:
        balance = np.where(ok, np.abs(2 * m - sizes), xs.shape[-1])
        first = np.zeros_like(ok)
        np.put_along_axis(first, np.argmin(balance, axis=-1)[..., None], True, axis=-1)
        ok &= first
    return ok


def _midpoint(a, b):
    """Threshold of the cut between sorted coordinates a < b: a < t <= b.

    0.5 * a + 0.5 * b, which never overflows and equals 0.5 * (a + b)
    unless that sum overflows or the halves are subnormal; b itself when
    the midpoint rounds onto a (adjacent doubles), so the cut never leaves
    a side empty.  The grid grower and the Bayesian split law both cut
    here.
    """
    mid = 0.5 * a + 0.5 * b
    return np.where(mid <= a, b, mid)


def candidate_splits(cell, dataset, n_min=1, median_only=False):
    """Admissible (dim, threshold) pairs for a box cell.

    Thresholds are the _midpoint of consecutive distinct member
    coordinates whose cut leaves at least n_min members on both sides.
    """
    out = []
    for dim in range(dataset.ndim):
        xs = np.sort(dataset.locations[cell.members, dim])
        for k in np.flatnonzero(_admissible_cuts(xs, xs.size, n_min, median_only)):
            out.append((dim, float(_midpoint(xs[k], xs[k + 1]))))
    return out


def _segment_rows(orders, starts, sizes, width, responses):
    """Segments of the orders as rows of a fixed width, with running sums.

    Returns ids (rows of orders, segments, width), each row padded by
    repeating its last id, and the running sums of the ids' responses with
    zeros in place of the padding.  Accumulation is sequential and the
    zeros come after the data, so row i's first sizes[i] sums are exactly
    np.cumsum of its segment alone.
    """
    offs = np.arange(width)
    ids = orders[:, starts[:, None] + np.minimum(offs, sizes[:, None] - 1)]
    return ids, np.cumsum(np.where(offs < sizes[:, None], responses[ids], 0.0), axis=-1)


def _best_cuts(orders, starts, sizes, locations, responses, n_min, median_only):
    """Best admissible cut of every segment of presorted point orders.

    orders[d] lists point ids by (coordinate d, id), and segment i,
    orders[:, starts[i]:starts[i] + sizes[i]], holds one cell of at least
    two members.  Segments are scanned as rows padded to a power-of-two
    width (_segment_rows), so each segment's running sums are exactly
    np.cumsum of its own responses; a global cumsum minus each segment's
    offset would cancel digits.  Within a dimension the first
    max of |w|, the smallest threshold, wins; across dimensions only a
    strictly larger |w| replaces the best, so the smallest dimension wins
    ties.  Returns (dim, loc, w) arrays; dim is -1 where no cut is
    admissible.
    """
    ndim = orders.shape[0]
    best_dim = np.full(sizes.size, -1)
    best_loc = np.zeros(sizes.size)
    best_w = np.zeros(sizes.size)
    axes = np.arange(ndim)[:, None, None]
    widths = np.frexp(sizes - 1)[1]  # log2 of the padded width
    for e in np.unique(widths).tolist():
        rows = np.flatnonzero(widths == e)
        width, count = 1 << e, rows.size
        sz = sizes[rows]
        ids, csum = _segment_rows(orders, starts[rows], sz, width, responses)
        xs = locations[ids, axes].reshape(ndim * count, width)
        csum = csum.reshape(ndim * count, width)
        lane_sizes = np.tile(sz, ndim)
        ok = _admissible_cuts(xs, lane_sizes, n_min, median_only)
        lane, k = np.nonzero(ok)
        n = lane_sizes[lane]
        score = np.full(ok.shape, -1.0)
        score[lane, k] = np.abs(
            cut_coefficients(csum.ravel(), lane * width + k, (k + 1, n), csum[lane, n - 1]))
        j = np.argmax(score, axis=1)  # first max = smallest threshold on ties
        lanes = np.arange(ok.shape[0])
        # w again at the winning cut (the same doubles); j + 1 < size in every lane
        w = cut_coefficients(csum.ravel(), lanes * width + j, (j + 1, lane_sizes),
                             csum[lanes, lane_sizes - 1]).reshape(ndim, count)
        found = ok.any(axis=1).reshape(ndim, count)
        locs = _midpoint(xs[lanes, j], xs[lanes, j + 1]).reshape(ndim, count)
        dim = np.full(count, -1)
        top = np.zeros(count)
        for d in range(ndim):
            take = found[d] & ((dim < 0) | (np.abs(w[d]) > top))
            dim[take] = d
            top[take] = np.abs(w[d, take])
            best_loc[rows[take]] = locs[d, take]
            best_w[rows[take]] = w[d, take]
        best_dim[rows] = dim
    return best_dim, best_loc, best_w


def _presorted(locations, members):
    """members ordered by (coordinate d, id), one row per dimension."""
    return members[np.argsort(locations[members], axis=0, kind="stable").T]


def greedy_split(cell, dataset, responses, n_min=1, median_only=False):
    """Admissible (dim, loc, w) maximizing |w|; ties to smaller dim, then loc.

    Returns None when no admissible split exists.
    """
    if cell.mass < 2:
        return None
    responses = np.asarray(responses, dtype=np.float64)
    dim, loc, w = _best_cuts(
        _presorted(dataset.locations, cell.members), np.array([0]), np.array([cell.mass]),
        dataset.locations, responses, n_min, median_only,
    )
    if dim[0] < 0:
        return None
    return int(dim[0]), float(loc[0]), float(w[0])


def estimate_sigma_mad(coefficients):
    """MAD(coefficients) / 0.6745; the Gaussian-calibrated robust scale."""
    coefficients = np.asarray(coefficients, dtype=np.float64).ravel()
    if coefficients.size == 0:
        raise EmptyInputError("need at least one coefficient")
    med = np.median(coefficients)
    return float(np.median(np.abs(coefficients - med)) / MAD_TO_SIGMA)


def collect_deep_coefficients(tree):
    """Coefficients at the deepest two internal depth levels.

    Falls back to all internal coefficients when fewer than 10 live that
    deep.
    """
    internal = tree.children[:, 0] >= 0
    if not internal.any():
        raise NoInternalNodesError("tree has no internal nodes")
    depths, w = tree.depth[internal], tree.w[internal]
    deep = w[depths >= np.unique(depths)[-2:][0]]  # the two deepest levels
    return (deep if deep.size >= 10 else w).tolist()


def soft_threshold(w, tau):
    """sign(w) * (|w| - tau)_+ elementwise."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    shrunk = np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
    return float(shrunk) if np.isscalar(w) else shrunk


def _partition(perms, sizes, split, dims, locs, locations):
    """Child segments of the split cells, in cell order, left before right.

    Every row of perms is stably partitioned, so the dimension orders stay
    sorted and the last row, the ids in ascending order, gives each child
    its sorted members; cells that did not split are dropped.  Returns
    (perms, child sizes).
    """
    kept = perms[:, np.repeat(split, sizes)]
    sizes = sizes[split]
    starts = np.cumsum(sizes) - sizes
    ids = kept[-1]
    side = np.zeros(locations.shape[0], dtype=bool)
    side[ids] = locations[ids, np.repeat(dims[split], sizes)] < np.repeat(locs[split], sizes)
    left = side[kept]
    before = np.cumsum(left, axis=1) - left  # left entries ahead in the row
    lefts_ahead = before[-1, starts]  # in earlier segments
    ends = starts + sizes - 1
    n_left = before[-1, ends] + left[-1, ends] - lefts_ahead
    seg = np.repeat(np.arange(sizes.size), sizes)
    # a left entry passes the right entries of earlier segments, a right
    # entry the left entries of its own and earlier segments
    dest = np.where(
        left,
        before + (starts - lefts_ahead)[seg],
        np.arange(ids.size) - before + (lefts_ahead + n_left)[seg],
    )
    out = np.empty_like(kept)
    np.put_along_axis(out, dest, kept, axis=1)
    return out, np.stack([n_left, sizes - n_left], axis=1).ravel()


def fit_uhwt(dataset, responses, params, sigma_hat=None):
    """Grow a tree level by level with the greedy argmax-|w| rule.

    A node becomes a leaf at depth max_depth, when no admissible split
    exists, or when max |w| < early_stop_b * sigma_hat (the estimate is
    taken from params.sigma, the sigma_hat argument, or a fresh pilot
    tree, in that order).  Node ids are breadth-first, as a node-by-node
    queue would assign them.
    """
    responses = np.asarray(responses, dtype=np.float64)
    threshold = 0.0
    if params.early_stop_b > 0:
        if params.sigma is not None:
            scale = params.sigma
        elif sigma_hat is not None:
            scale = sigma_hat
        else:
            scale = pilot_sigma(dataset, responses, params)
        threshold = params.early_stop_b * scale
    tree = UHTree(root_cell_grid(dataset), responses.mean())
    locations = dataset.locations
    # one row per dimension, then the ids in ascending order; each
    # frontier cell is the same segment of every row
    perms = np.vstack([_presorted(locations, np.arange(dataset.n)), np.arange(dataset.n)])
    frontier = np.array([0])
    sizes = np.array([dataset.n])
    for _ in range(params.max_depth):
        starts = np.cumsum(sizes) - sizes
        vals = responses[perms[-1]]
        # a degenerate parent (min == max) has every coefficient zero
        live = np.flatnonzero(
            (sizes >= 2) & (np.minimum.reduceat(vals, starts) != np.maximum.reduceat(vals, starts)))
        dims = np.full(sizes.size, -1)
        locs = np.zeros(sizes.size)
        ws = np.zeros(sizes.size)
        dims[live], locs[live], ws[live] = _best_cuts(
            perms[:-1], starts[live], sizes[live], locations, responses,
            params.min_leaf, params.median_splits_only,
        )
        split = dims >= 0
        if threshold > 0.0:
            split &= ~(np.abs(ws) < threshold)
        if not split.any():
            break
        perms, sizes = _partition(perms, sizes, split, dims, locs, locations)
        frontier = tree._split_axis_level(frontier[split], dims[split], locs[split], perms[-1], sizes, responses)
    return tree


def pilot_depth(params, n):
    """Depth of a pilot tree: min(max_depth, ceil(log2 n)), at least 1."""
    return min(params.max_depth, max(1, math.ceil(math.log2(max(2, n)))))


def pilot_sigma(dataset, responses, params):
    """Noise scale from a throwaway pilot tree.

    The pilot grows greedily with no early stopping, min_leaf 1 and depth
    min(max_depth, ceil(log2 n)); its deepest coefficients feed the MAD
    estimate and the pilot is discarded.
    """
    pilot_params = replace(
        params, early_stop_b=0.0, min_leaf=1, max_depth=pilot_depth(params, dataset.n),
        sigma=None, soft_a=0.0,
    )
    pilot = fit_uhwt(dataset, responses, pilot_params)
    try:
        coefficients = collect_deep_coefficients(pilot)
    except NoInternalNodesError:
        return 0.0
    return estimate_sigma_mad(coefficients)


def universal_tau(a, sigma_hat, n):
    """Threshold a * sigma_hat * sqrt(2 log n); 0 when a <= 0, sigma_hat is None or n <= 1."""
    if a <= 0 or sigma_hat is None or n <= 1:
        return 0.0
    return a * sigma_hat * math.sqrt(2.0 * math.log(n))


def fit_shrunk(dataset, responses, params):
    """Pilot sigma, greedy fit and soft thresholding; returns (tree, tau).

    sigma_hat is params.sigma, else a pilot estimate when soft_a or
    early_stop_b needs one; every internal node gets w_tilde =
    soft_threshold(w, tau) with tau = soft_a * sigma_hat * sqrt(2 log n).
    This is the grid learner of denoise and of the ensembles.
    """
    responses = np.asarray(responses, dtype=np.float64)
    sigma_hat = params.sigma
    if sigma_hat is None and (params.soft_a > 0 or params.early_stop_b > 0):
        sigma_hat = pilot_sigma(dataset, responses, params)
    tree = fit_uhwt(dataset, responses, params, sigma_hat=sigma_hat)
    tau = universal_tau(params.soft_a, sigma_hat, dataset.n)
    tree.set_shrunk(lambda w: soft_threshold(w, tau))
    return tree, tau


def denoise(dataset, responses, params):
    """Full pipeline: pilot sigma, greedy fit, soft-thresholded coefficients.

    Returns the fitted tree of fit_shrunk; predictions come from
    reconstruct/tree_fit_values with shrunk=True.
    """
    return fit_shrunk(dataset, responses, params)[0]

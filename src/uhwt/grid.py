"""Greedy tree fitting on grids and tensors.

The weak-learner recipe: scan admissible thresholds (midpoints between
consecutive distinct member coordinates), split at the argmax of the
absolute detail coefficient, optionally stop early when the best
coefficient falls below b * sigma_hat, then soft-threshold the stored
coefficients at a * sigma_hat * sqrt(2 log n) before reconstructing.
sigma_hat is a MAD estimate computed from the deepest coefficients of a
throwaway pilot tree.

Fitting a single tree is single-threaded; many trees may be fit
concurrently against a shared read-only dataset.
"""

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .core import UHTree, make_axis_split, root_cell_grid
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


def _admissible_boundaries(xs, n_min, median_only):
    """Sorted-coordinate boundary positions k (cut between xs[k], xs[k+1])."""
    n = xs.size
    gaps = np.nonzero(xs[1:] > xs[:-1])[0]
    if gaps.size == 0:
        return gaps
    m = gaps + 1
    ok = (m >= n_min) & (n - m >= n_min)
    gaps = gaps[ok]
    if median_only and gaps.size:
        j = int(np.argmin(np.abs(2 * (gaps + 1) - n)))
        gaps = gaps[j:j + 1]
    return gaps


def candidate_splits(cell, dataset, n_min=1, median_only=False):
    """Admissible (dim, threshold) pairs for a box cell.

    Thresholds are midpoints between consecutive distinct member
    coordinates whose cut leaves at least n_min members on both sides.
    """
    out = []
    for dim in range(dataset.ndim):
        xs = np.sort(dataset.locations[cell.members, dim])
        for k in _admissible_boundaries(xs, n_min, median_only):
            out.append((dim, float(0.5 * (xs[k] + xs[k + 1]))))
    return out


def _best_in_dim(coords, responses, n_min, median_only):
    order = np.argsort(coords, kind="stable")
    xs = coords[order]
    gaps = _admissible_boundaries(xs, n_min, median_only)
    if gaps.size == 0:
        return None
    ys = responses[order]
    n = xs.size
    m = gaps + 1
    csum = np.cumsum(ys)
    left = csum[gaps]
    w = np.sqrt(m * (n - m) / n) * (left / m - (csum[-1] - left) / (n - m))
    j = int(np.argmax(np.abs(w)))  # first max = smallest threshold on ties
    loc = 0.5 * (xs[gaps[j]] + xs[gaps[j] + 1])
    return float(np.abs(w[j])), float(loc), float(w[j])


def greedy_split(cell, dataset, responses, n_min=1, median_only=False):
    """Admissible (dim, loc, w) maximizing |w|; ties to smaller dim, then loc.

    Returns None when no admissible split exists.
    """
    responses = np.asarray(responses, dtype=np.float64)
    best = None
    for dim in range(dataset.ndim):
        coords = dataset.locations[cell.members, dim]
        cand = _best_in_dim(coords, responses[cell.members], n_min, median_only)
        if cand is None:
            continue
        if best is None or cand[0] > best[0]:
            best = (cand[0], dim, cand[1], cand[2])
    if best is None:
        return None
    return best[1], best[2], best[3]


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
    internal = tree.internal_nodes()
    if not internal:
        raise NoInternalNodesError("tree has no internal nodes")
    depths = sorted({nd.cell.depth for nd in internal})
    keep = set(depths[-2:])
    deep = [nd.w for nd in internal if nd.cell.depth in keep]
    if len(deep) < 10:
        deep = [nd.w for nd in internal]
    return deep


def soft_threshold(w, tau):
    """sign(w) * (|w| - tau)_+ elementwise."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    shrunk = np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
    return float(shrunk) if np.isscalar(w) else shrunk


def fit_uhwt(dataset, responses, params, sigma_hat=None):
    """Grow a tree breadth-first with the greedy argmax-|w| rule.

    A node becomes a leaf at depth max_depth, when no admissible split
    exists, or when max |w| < early_stop_b * sigma_hat (the estimate is
    taken from params.sigma, the sigma_hat argument, or a fresh pilot
    tree, in that order).
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
    frontier = deque([0])
    while frontier:
        nid = frontier.popleft()
        cell = tree.nodes[nid].cell
        if cell.depth >= params.max_depth or cell.mass < 2:
            continue
        cell_resp = responses[cell.members]
        if cell_resp.min() == cell_resp.max():
            continue  # degenerate parent: every coefficient is zero
        best = greedy_split(
            cell, dataset, responses,
            n_min=params.min_leaf, median_only=params.median_splits_only,
        )
        if best is None:
            continue
        dim, loc, w = best
        if threshold > 0.0 and abs(w) < threshold:
            continue
        split = make_axis_split(cell, dataset.locations, dim, loc)
        frontier.extend(tree.split_node(nid, split, responses))
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

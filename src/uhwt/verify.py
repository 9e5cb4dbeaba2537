"""Independent oracles and Monte Carlo harnesses for the core identities.

Contents: the leafwise (recursive-partition mean) estimator, the direct
sum-of-squares split gain, the deterministic soft-threshold inequality,
fixed-partition risk-bound trials for the thresholded and leafwise
estimators, and exhaustive posterior enumeration for tiny datasets.

Replicates are independent (one named noise stream per replicate) and may
run in parallel; reports merge by summing counts.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._streams import NOISE, stream_rng
from .bayes import admissible_thresholds, coefficient_density, valid_dimensions
from .core import Cell, batch_reconstruct, grid_dataset, haar_coefficient, reconstruct, sse, system_matrix
from .errors import PreconditionViolatedError, TooLargeError
from .grid import GridFitParams, fit_uhwt, soft_threshold


def leafwise_fit(tree, dataset, responses, query):
    """Mean response of the query's leaf (recursive-partition estimator)."""
    responses = np.asarray(responses, dtype=np.float64)
    reconstruct(tree, query)  # domain check (raises OutOfDomainError)
    _, leaf_ids = batch_reconstruct(tree, np.asarray(query, dtype=np.float64)[None, :])
    members = tree.nodes[leaf_ids[0]].cell.members
    return float(responses[members].mean())


def delta_cart(cell, split, responses):
    """Sum-of-squares drop of the split, from direct SSE computations."""
    responses = np.asarray(responses, dtype=np.float64)
    plus = split.group_members(+1)
    minus = split.group_members(-1)
    return sse(responses, cell.members) - sse(responses, plus) - sse(responses, minus)


def soft_threshold_lemma_check(theta, z, tau):
    """True iff sum (eta_tau(theta+z) - theta)^2 <= 4 sum min(theta^2, tau^2).

    Requires the coordinatewise bound max|z| <= tau.
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    z = np.asarray(z, dtype=np.float64).ravel()
    if np.max(np.abs(z)) > tau:
        raise PreconditionViolatedError("need max |z| <= tau")
    lhs = float(((soft_threshold(theta + z, tau) - theta) ** 2).sum())
    rhs = 4.0 * float(np.minimum(theta ** 2, tau ** 2).sum())
    return lhs <= rhs


# ---------------------------------------------------------------------------
# fixed-partition bound trials
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Violation counts for one bound over independent replicates."""

    replicates: int
    violations: int
    config: dict

    @property
    def empirical_coverage(self):
        return 1.0 - self.violations / self.replicates


@dataclass
class FixedPartition:
    """A data-independent balanced tree with precomputed atom geometry.

    detail_matrix holds the averaged-inner-product-normalized atoms (the
    counting atoms scaled by sqrt(n)), so coefficients are detail_matrix.T
    @ y / n and squared errors are mean squared differences.
    """

    tree: object
    dataset: object
    detail_matrix: np.ndarray
    leaf_index: np.ndarray
    leaf_counts: np.ndarray

    @property
    def n(self):
        return self.dataset.n

    @property
    def n_atoms(self):
        return self.detail_matrix.shape[1]

    @property
    def n_leaves(self):
        return self.leaf_counts.size

    def coefficients(self, values):
        return self.detail_matrix.T @ values / self.n

    def expand(self, coefs, intercept):
        return intercept + self.detail_matrix @ coefs

    def leaf_means(self, values):
        sums = np.bincount(self.leaf_index, weights=values, minlength=self.n_leaves)
        return (sums / self.leaf_counts)[self.leaf_index]


def balanced_partition(n, depth):
    """Median-split balanced tree on a 1-D lattice of n points.

    Grown by fit_uhwt with median splits only.  The responses it is grown
    on are strictly increasing, so no cell is skipped as constant, and the
    splits do not depend on them otherwise: the partition is
    data-independent and can serve as the fixed partition of the bound
    trials.
    """
    dataset = grid_dataset(np.arange(n, dtype=np.float64)[:, None], np.zeros(n))
    tree = fit_uhwt(dataset, np.arange(n, dtype=np.float64),
                    GridFitParams(max_depth=depth, median_splits_only=True))
    detail = system_matrix(tree, n)[:, 1:] * math.sqrt(n)
    leaves = tree.leaves()
    leaf_index = np.empty(n, dtype=np.intp)
    counts = np.empty(len(leaves))
    for j, leaf in enumerate(leaves):
        leaf_index[leaf.cell.members] = j
        counts[j] = leaf.cell.mass
    return FixedPartition(tree, dataset, detail, leaf_index, counts)


def bound_tau(sigma, n_atoms, delta, n):
    """Threshold sigma * sqrt(2 log(2M/delta) / n) of the risk bound."""
    return sigma * math.sqrt(2.0 * math.log(2.0 * n_atoms / delta) / n)


def oracle_bound_trial(partition, f_values, sigma, delta, rng):
    """One replicate: draw noise, run both estimators, evaluate both bounds.

    Coefficients use the averaged empirical inner product; the threshold is
    bound_tau with the true sigma.  The oracle right-hand side is evaluated
    in closed form: 4 * (sum_j min(theta_j^2, tau^2) + residual^2 outside
    the span of the constant and the atoms).
    """
    n = partition.n
    f_values = np.asarray(f_values, dtype=np.float64)
    theta = partition.coefficients(f_values)
    f_bar = f_values.mean()
    resid_sq = float(((f_values - partition.expand(theta, f_bar)) ** 2).mean())
    tau = bound_tau(sigma, partition.n_atoms, delta, n)

    y = f_values + sigma * rng.standard_normal(n)
    w = partition.coefficients(y)
    uh_fit = partition.expand(soft_threshold(w, tau), y.mean())
    uh_error = float(((uh_fit - f_values) ** 2).mean())
    uh_rhs = 4.0 * (float(np.minimum(theta ** 2, tau ** 2).sum()) + resid_sq)

    leaf_fit = partition.leaf_means(y)
    leaf_error = float(((leaf_fit - f_values) ** 2).mean())
    f_proj = partition.leaf_means(f_values)
    m_min = float(partition.leaf_counts.min())
    leaf_rhs = float(((f_values - f_proj) ** 2).mean()) + \
        4.0 * sigma ** 2 / m_min * math.log(2.0 * partition.n_leaves / delta)
    return {
        "uh_error": uh_error,
        "uh_rhs": uh_rhs,
        "uh_violation": uh_error > uh_rhs,
        "leaf_error": leaf_error,
        "leaf_rhs": leaf_rhs,
        "leaf_violation": leaf_error > leaf_rhs,
    }


def default_bound_signal(partition, tau):
    """Piecewise-constant signal on the partition with mixed-size details.

    A third of the atoms carry strong details (4 tau), a third weak ones
    (0.5 tau), the rest are silent, cycling deterministically.
    """
    theta = np.zeros(partition.n_atoms)
    theta[0::3] = 4.0 * tau
    theta[1::3] = 0.5 * tau
    return partition.expand(theta, 1.0)


def run_oracle_bounds(n=64, sigma=0.5, delta=0.1, replicates=200, seed=0,
                      f_values=None):
    """Coverage of both fixed-partition bounds on the full balanced tree."""
    depth = int(round(math.log2(n)))
    partition = balanced_partition(n, depth)
    tau = bound_tau(sigma, partition.n_atoms, delta, n)
    if f_values is None:
        f_values = default_bound_signal(partition, tau)
    uh_viol = leaf_viol = 0
    uh_errors, leaf_errors = [], []
    for r in range(replicates):
        entry = oracle_bound_trial(partition, f_values, sigma, delta,
                                   stream_rng(seed, NOISE, r))
        uh_viol += entry["uh_violation"]
        leaf_viol += entry["leaf_violation"]
        uh_errors.append(entry["uh_error"])
        leaf_errors.append(entry["leaf_error"])
    config = {"n": n, "M": partition.n_atoms, "delta": delta, "sigma": sigma, "seed": seed}
    return (
        BoundReport(replicates, uh_viol, {**config, "bound": "uh"}),
        BoundReport(replicates, leaf_viol, {**config, "bound": "leafwise"}),
        {"uh_median": float(np.median(uh_errors)), "leaf_median": float(np.median(leaf_errors))},
    )


def sparse_comparison(n=1024, n_leaves=32, s=3, sigma=1.0, delta=0.5,
                      replicates=100, seed=0, amplitude=None):
    """Median error of thresholded vs leafwise fits for an s-sparse signal.

    The signal is exactly supported on s atoms of a balanced partition,
    with threshold-scale amplitudes (default tau) so the thresholded
    estimator pays for s coefficients while leafwise means pay for every
    leaf.
    """
    depth = int(round(math.log2(n_leaves)))
    partition = balanced_partition(n, depth)
    tau = bound_tau(sigma, partition.n_atoms, delta, n)
    if amplitude is None:
        amplitude = tau
    theta = np.zeros(partition.n_atoms)
    active = np.linspace(0, partition.n_atoms - 1, s).astype(int)
    theta[active] = amplitude
    f_values = partition.expand(theta, 0.0)
    uh_errors, leaf_errors = [], []
    for r in range(replicates):
        entry = oracle_bound_trial(partition, f_values, sigma, delta,
                                   stream_rng(seed, NOISE, r))
        uh_errors.append(entry["uh_error"])
        leaf_errors.append(entry["leaf_error"])
    return {
        "config": {"n": n, "leaves": n_leaves, "s": s, "sigma": sigma,
                   "delta": delta, "amplitude": amplitude, "seed": seed},
        "uh_median": float(np.median(uh_errors)),
        "leaf_median": float(np.median(leaf_errors)),
        "uh_quartiles": [float(q) for q in np.percentile(uh_errors, [25, 75])],
        "leaf_quartiles": [float(q) for q in np.percentile(leaf_errors, [25, 75])],
    }


# ---------------------------------------------------------------------------
# exhaustive posterior enumeration
# ---------------------------------------------------------------------------

def enumerate_posterior(dataset, prior, model, no_stop=False, max_points=5):
    """All trees with their posterior probabilities, by brute recursion.

    Returns (entries, total): entries maps a nested split signature
    (dim, loc, left, right | None for leaves) to its normalized posterior
    probability; total is the unnormalized marginal likelihood, which
    must equal phi at the root.
    """
    if dataset.n > max_points:
        raise TooLargeError(f"enumeration capped at n <= {max_points}")
    responses = dataset.responses
    two_sigma_sq = 2.0 * model.sigma ** 2

    def rec(members, depth):
        if members.size == 1:
            return [(None, 1.0)]
        dims = valid_dimensions(members, dataset)
        leaf_lik = math.exp(-sse(responses, members) / two_sigma_sq)
        if no_stop:
            entries = []
        else:
            if not dims or depth >= prior.max_depth:
                return [(None, leaf_lik)]
            p = prior.split_prob(depth)
            entries = [(None, (1.0 - p) * leaf_lik)]
        cell = Cell(members, depth)
        lam = prior.dim_weights(cell, dataset, dims)
        for lam_d, dim in zip(lam, dims):
            thresholds = admissible_thresholds(members, dataset, dim)
            bw = prior.loc_weights(cell, dataset, dim, thresholds)
            for b, loc in zip(bw, thresholds):
                below = dataset.locations[members, dim] < loc
                left, right = members[below], members[~below]
                m_factor = coefficient_density(haar_coefficient(responses, left, right), model)
                base = (1.0 if no_stop else prior.split_prob(depth)) * lam_d * b * m_factor
                for left_sig, left_w in rec(left, depth + 1):
                    for right_sig, right_w in rec(right, depth + 1):
                        sig = (dim, round(float(loc), 12), left_sig, right_sig)
                        entries.append((sig, base * left_w * right_w))
        merged = {}
        for sig, weight in entries:
            merged[sig] = merged.get(sig, 0.0) + weight
        return list(merged.items())

    entries = rec(np.arange(dataset.n), 0)
    total = sum(weight for _, weight in entries)
    return {sig: weight / total for sig, weight in entries}, total

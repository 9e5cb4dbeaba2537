"""Random-tree prior, exact posterior recursion, single-tree MCMC, backfitting.

The generative prior: a non-atomic node at depth j splits with probability
p_split(j) (default 0.99 * 0.499**j); given a split, the dimension comes
from dim_probs (uniform over valid dimensions by default) and the location
from loc_dist (uniform over admissible thresholds, which for n_min = 1 are
the midpoints between consecutive distinct member coordinates).  Atomic
cells are forced leaves.

The likelihood of a tree multiplies the coefficient density M(w) over
internal nodes and exp(-SSE/(2 sigma^2)) over leaves, so an atomic leaf
contributes 1 and the bottom-up recursion

    Phi(A) = (1 - p) exp(-SSE(A)/(2 sigma^2))
             + p * sum_d lambda_d sum_l B(l) M(w_{d,l}) Phi(A_l) Phi(A_r)

with Phi(atomic) = 1 integrates the likelihood over all trees rooted at A.
A ``no_stop`` variant drops the stop branch entirely (trees split until
atomic and leaves carry no likelihood factor).

One chain runs on one thread; independent chains with different seeds may
run concurrently.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Cell, UHTree, haar_coefficient, make_axis_split, root_cell_grid, sse
from .errors import ExplosionGuardError, TooFewDrawsError
from ._streams import CHAIN, stream_rng

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# prior and coefficient models
# ---------------------------------------------------------------------------

def default_split_prob(depth):
    return 0.99 * 0.499 ** depth


@dataclass(frozen=True)
class RuhwtPrior:
    """Split-probability, dimension and location rules for random trees.

    p_split      : callable depth -> probability in [0, 1); defaults to
                   0.99 * 0.499**depth.
    max_depth    : hard depth cap (atomic cells always stop).
    dim_probs    : optional callable (cell, dataset, valid_dims) -> weights.
    loc_dist     : optional callable (cell, dataset, dim, thresholds) ->
                   probabilities over the admissible thresholds.
    """

    p_split: object = None
    max_depth: int = 25
    dim_probs: object = None
    loc_dist: object = None

    def split_prob(self, depth):
        p = (self.p_split or default_split_prob)(depth)
        if not 0.0 <= p < 1.0:
            raise ValueError("p_split must map into [0, 1)")
        return p

    def dim_weights(self, cell, dataset, dims):
        if self.dim_probs is None:
            return np.full(len(dims), 1.0 / len(dims))
        w = np.asarray(self.dim_probs(cell, dataset, dims), dtype=np.float64)
        return w / w.sum()

    def loc_weights(self, cell, dataset, dim, thresholds):
        if self.loc_dist is None:
            return np.full(len(thresholds), 1.0 / len(thresholds))
        w = np.asarray(self.loc_dist(cell, dataset, dim, thresholds), dtype=np.float64)
        return w / w.sum()


@dataclass(frozen=True)
class CoefficientModel:
    """Distribution of an observed detail coefficient, latents integrated out.

    gaussian   : N(0, sigma_w^2).
    laplace    : Laplace(scale).
    spike_slab : pi_incl * N(0, sigma_slab^2 + sigma^2)
                 + (1 - pi_incl) * N(0, sigma^2).
    sigma is the observation noise scale shared with the leaf likelihood.
    """

    kind: str
    sigma: float
    sigma_w: float = 1.0
    scale: float = 1.0
    pi_incl: float = 0.5
    sigma_slab: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "laplace", "spike_slab"):
            raise ValueError(f"unknown coefficient model {self.kind!r}")
        if min(self.sigma, self.sigma_w, self.scale, self.sigma_slab) < 0:
            raise ValueError("scales must be nonnegative")
        if not 0.0 <= self.pi_incl <= 1.0:
            raise ValueError("pi_incl must lie in [0, 1]")


def _norm_pdf(x, var):
    return math.exp(-0.5 * x * x / var) / (_SQRT_2PI * math.sqrt(var))


def coefficient_density(w, model):
    """Density of an observed coefficient under the model (z integrated out)."""
    if model.kind == "gaussian":
        return _norm_pdf(w, model.sigma_w ** 2)
    if model.kind == "laplace":
        return math.exp(-abs(w) / model.scale) / (2.0 * model.scale)
    slab = _norm_pdf(w, model.sigma_slab ** 2 + model.sigma ** 2)
    spike = _norm_pdf(w, model.sigma ** 2)
    return model.pi_incl * slab + (1.0 - model.pi_incl) * spike


@dataclass(frozen=True)
class LatentMarkov:
    """Top-down Markov latent states with per-state coefficient models.

    kernels[j] (or kernels(j)) is the row-stochastic K x K transition
    matrix used at depth j; state_models[s] scores coefficients of nodes
    in state s.
    """

    kernels: object
    state_models: tuple
    root_state: int = 0

    def kernel(self, depth):
        k = self.kernels(depth) if callable(self.kernels) else self.kernels[min(depth, len(self.kernels) - 1)]
        k = np.asarray(k, dtype=np.float64)
        if np.max(np.abs(k.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("transition kernel rows must sum to 1")
        return k

    @property
    def n_states(self):
        return len(self.state_models)


# ---------------------------------------------------------------------------
# admissible splits (n_min = 1: both children nonempty)
# ---------------------------------------------------------------------------

def admissible_thresholds(members, dataset, dim):
    """Midpoints between consecutive distinct member coordinates along dim."""
    xs = np.unique(dataset.locations[members, dim])
    return 0.5 * (xs[:-1] + xs[1:])


def valid_dimensions(members, dataset):
    return [
        d for d in range(dataset.ndim)
        if np.unique(dataset.locations[members, d]).size > 1
    ]


def _split_law(cell, prior, dataset):
    """The prior's split law at a cell: (dims, lam, thresholds, B).

    dims are the valid dimensions and lam their weights; thresholds[j] and
    B[j] are the admissible thresholds along dims[j] and their location
    weights.  np.unique runs once per dimension; every list is empty when
    no dimension is valid.
    """
    xs = [np.unique(dataset.locations[cell.members, d]) for d in range(dataset.ndim)]
    dims = [d for d in range(dataset.ndim) if xs[d].size > 1]
    if not dims:
        return [], [], [], []
    lam = prior.dim_weights(cell, dataset, dims)
    thresholds = [0.5 * (xs[d][:-1] + xs[d][1:]) for d in dims]
    bws = [prior.loc_weights(cell, dataset, d, t) for d, t in zip(dims, thresholds)]
    return dims, lam, thresholds, bws


def _split_members(members, dataset, dim, loc):
    mask = dataset.locations[members, dim] < loc
    return members[mask], members[~mask]


def marginal_M(cell, dim, loc, model, dataset, responses):
    """Density of the cell's coefficient at split (dim, loc) under the model."""
    responses = np.asarray(responses, dtype=np.float64)
    left, right = _split_members(cell.members, dataset, dim, loc)
    w = haar_coefficient(responses, left, right)
    return coefficient_density(w, model)


# ---------------------------------------------------------------------------
# exact marginal likelihood recursion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Chain:
    """What the exact recursion holds fixed: prior, data, models, the cell cache.

    The plain chain (latent None) scores every split with ``model`` and may
    stop unless ``no_stop``; the latent chain scores the splits of a node in
    state s with latent.state_models[s] and never stops.
    """

    prior: RuhwtPrior
    model: CoefficientModel
    dataset: object
    responses: np.ndarray
    no_stop: bool
    latent: LatentMarkov
    cache: dict
    cap: int


def phi(cell, prior, model, dataset, responses, no_stop=False,
        latent=None, state=None, cache=None, cell_cap=10 ** 6):
    """Bottom-up marginal likelihood of all trees rooted at the cell.

    With ``latent``, computes the state-conditional recursion: the parent
    state ``state`` mixes over child states through the depth-j kernel and
    each state scores coefficients with its own model; this variant always
    splits non-atomic cells (the latent states carry any stopping).
    """
    responses = np.asarray(responses, dtype=np.float64)
    chain = _Chain(prior, model, dataset, responses, no_stop, latent,
                   {} if cache is None else cache, cell_cap)
    if latent is None:
        state = None
    elif state is None:
        state = latent.root_state
    return _phi_rec(cell.members, cell.depth, state, chain)


def _stop_and_branches(members, depth, state, chain):
    """Stop mass of a non-atomic cell and its (weight, model, child state) branches.

    The plain chain has one branch of weight p_split (1 under no_stop); the
    latent chain has one per next state s', of weight K[state, s'].
    """
    if chain.latent is not None:
        kernel = chain.latent.kernel(depth)
        return 0.0, [(kernel[state, s], chain.latent.state_models[s], s)
                     for s in range(chain.latent.n_states) if kernel[state, s] != 0.0]
    if chain.no_stop:
        return 0.0, [(1.0, chain.model, None)]
    leaf = math.exp(-sse(chain.responses, members) / (2.0 * chain.model.sigma ** 2))
    if depth >= chain.prior.max_depth:
        return leaf, []
    p = chain.prior.split_prob(depth)
    return (1.0 - p) * leaf, [(p, chain.model, None)]


def _cell_splits(members, depth, chain):
    """The cell's splits by dimension: [(dim, lam_d, [(loc, left, right, B(loc), w), ...])]."""
    dims, lam, thresholds, bws = _split_law(Cell(members, depth), chain.prior, chain.dataset)
    groups = []
    for dim, lam_d, locs, bw in zip(dims, lam, thresholds, bws):
        group = []
        for b, loc in zip(bw, locs):
            left, right = _split_members(members, chain.dataset, dim, loc)
            group.append((loc, left, right, b, haar_coefficient(chain.responses, left, right)))
        groups.append((dim, lam_d, group))
    return groups


def _phi_rec(members, depth, state, chain):
    key = (members.tobytes(), depth, state)
    hit = chain.cache.get(key)
    if hit is not None:
        return hit
    if len(chain.cache) > chain.cap:
        raise ExplosionGuardError(f"more than {chain.cap} distinct cells reached")
    value = 1.0
    if members.size > 1:
        value, branches = _stop_and_branches(members, depth, state, chain)
        splits = _cell_splits(members, depth, chain) if branches else []
        total = 0.0
        for weight, model, s_next in branches:
            acc = 0.0
            for _, lam_d, group in splits:
                inner = 0.0
                for _, left, right, b, w in group:
                    inner += b * coefficient_density(w, model) \
                        * _phi_rec(left, depth + 1, s_next, chain) \
                        * _phi_rec(right, depth + 1, s_next, chain)
                acc += lam_d * inner
            total += weight * acc
        value += total
    chain.cache[key] = value
    return value


def posterior_split_distribution(cell, prior, model, dataset, responses,
                                 no_stop=False, cache=None):
    """Exact stop probability and per-(dim, loc) split probabilities.

    Splits are weighted by lambda_d * B(loc) * M(w) * Phi(left) * Phi(right);
    the stop branch carries (1 - p_split) times the leaf likelihood.  A
    cache filled by phi with the same arguments is reused as is.
    """
    responses = np.asarray(responses, dtype=np.float64)
    chain = _Chain(prior, model, dataset, responses, no_stop, None,
                   {} if cache is None else cache, 10 ** 6)
    members, depth = cell.members, cell.depth
    if members.size == 1:
        return 1.0, []
    stop_mass, branches = _stop_and_branches(members, depth, None, chain)
    if not branches:
        return 1.0, []
    ((p, _, _),) = branches
    entries = []
    for dim, lam_d, group in _cell_splits(members, depth, chain):
        for loc, left, right, b, w in group:
            weight = lam_d * b * coefficient_density(w, model) \
                * _phi_rec(left, depth + 1, None, chain) \
                * _phi_rec(right, depth + 1, None, chain)
            entries.append((dim, float(loc), weight))
    split_mass = p * sum(e[2] for e in entries)
    total = stop_mass + split_mass
    probs = [(d, loc, p * w / total) for d, loc, w in entries]
    return stop_mass / total, probs


def posterior_split_sample(cell, prior, model, dataset, responses, rng,
                           no_stop=False, cache=None):
    """Draw "stop" or a (dim, loc) pair from the exact posterior at the cell."""
    stop_prob, entries = posterior_split_distribution(
        cell, prior, model, dataset, responses, no_stop=no_stop, cache=cache,
    )
    u = rng.uniform()
    if u < stop_prob:
        return "stop"
    u -= stop_prob
    for dim, loc, prob in entries:
        if u < prob:
            return dim, loc
        u -= prob
    return entries[-1][0], entries[-1][1]


def sample_prior_tree(prior, dataset, rng):
    """Ancestral draw: stop with 1 - p_split(depth), else dim ~ lambda, loc ~ B."""
    responses = dataset.responses
    tree = UHTree(root_cell_grid(dataset), responses.mean())
    frontier = [0]
    while frontier:
        nid = frontier.pop(0)
        cell = tree.nodes[nid].cell
        if cell.mass < 2 or cell.depth >= prior.max_depth:
            continue
        dims, lam, thresholds, bws = _split_law(cell, prior, dataset)
        if not dims:
            continue
        if rng.uniform() >= prior.split_prob(cell.depth):
            continue
        j = rng.choice(len(dims), p=lam)
        loc = thresholds[j][rng.choice(len(thresholds[j]), p=bws[j])]
        split = make_axis_split(cell, dataset.locations, dims[j], float(loc))
        frontier.extend(tree.split_node(nid, split, responses))
    return tree


# ---------------------------------------------------------------------------
# single-tree Metropolis-Hastings
# ---------------------------------------------------------------------------

def _preorder(root):
    """Nodes of the subtree at root, parents before children, left before right."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.extend((node.right, node.left))


def _bottom_up(root, build):
    """build(node, left result, right result) at every node, children first.

    A loop over the reversed preorder instead of a recursion, so deep
    trees do not reach the interpreter's recursion limit.  Leaves get
    None for both results.
    """
    done = {}
    for node in reversed(list(_preorder(root))):
        kids = (None, None) if node.is_leaf else (done.pop(id(node.left)), done.pop(id(node.right)))
        done[id(node)] = build(node, *kids)
    return done[id(root)]


class BNode:
    """Lightweight mutable node for the sampler."""

    __slots__ = ("members", "depth", "dim", "loc", "left", "right", "coef")

    def __init__(self, members, depth):
        self.members = members
        self.depth = depth
        self.dim = None
        self.loc = None
        self.left = None
        self.right = None
        self.coef = 0.0

    @property
    def is_leaf(self):
        return self.dim is None


class McmcTree:
    """Sampler state: a recursive partition over one dataset."""

    def __init__(self, dataset):
        self.dataset = dataset
        self.root = BNode(np.arange(dataset.n), 0)

    def walk(self):
        return _preorder(self.root)

    def leaves(self):
        return [nd for nd in self.walk() if nd.is_leaf]

    def internal(self):
        return [nd for nd in self.walk() if not nd.is_leaf]

    def grow_candidates(self, prior):
        return [
            nd for nd in self.walk()
            if nd.is_leaf and nd.members.size >= 2 and nd.depth < prior.max_depth
        ]

    def prune_candidates(self):
        return [
            nd for nd in self.walk()
            if not nd.is_leaf and nd.left.is_leaf and nd.right.is_leaf
        ]

    def signature(self):
        """Canonical nested description of the split structure."""
        return _bottom_up(self.root, lambda node, left, right: None if node.is_leaf else (
            node.dim, round(node.loc, 12), left, right))


def _leaf_prior_term(members, depth, prior):
    """log(1 - p_split) for leaves that could have split, else 0."""
    if members.size >= 2 and depth < prior.max_depth:
        return math.log(1.0 - prior.split_prob(depth))
    return 0.0


def log_tree_target(tree, prior, responses, model, include_location_prior=True):
    """Unnormalized log posterior: depth/dimension/location prior + likelihood."""
    responses = np.asarray(responses, dtype=np.float64)
    dataset = tree.dataset
    total = 0.0
    for node in tree.walk():
        if node.is_leaf:
            total += _leaf_prior_term(node.members, node.depth, prior)
            total += -sse(responses, node.members) / (2.0 * model.sigma ** 2)
        else:
            total += math.log(prior.split_prob(node.depth))
            if include_location_prior:
                dims, lam, thresholds, bws = _split_law(
                    Cell(node.members, node.depth), prior, dataset)
                j = dims.index(node.dim)
                total += math.log(lam[j])
                k = int(np.argmin(np.abs(thresholds[j] - node.loc)))
                total += math.log(bws[j][k])
            w = haar_coefficient(responses, node.left.members, node.right.members)
            total += math.log(coefficient_density(w, model))
    return total


def _draw_prior_split(node, prior, dataset, rng):
    dims, lam, thresholds, bws = _split_law(Cell(node.members, node.depth), prior, dataset)
    j = rng.choice(len(dims), p=lam)
    return dims[j], float(thresholds[j][rng.choice(len(thresholds[j]), p=bws[j])])


def _attach(node, dataset, dim, loc):
    left, right = _split_members(node.members, dataset, dim, loc)
    node.dim, node.loc = dim, loc
    node.left = BNode(left, node.depth + 1)
    node.right = BNode(right, node.depth + 1)


def _detach(node):
    node.dim = node.loc = node.left = node.right = None


def _move_probs(n_grow, n_prune, include_swap):
    """Selection probability of each executed move under the switching rule.

    A uniformly chosen move with an empty candidate set switches to its
    opposite (a SWAP with no target becomes a no-op).
    """
    share = 1.0 / (3.0 if include_swap else 2.0)
    probs = {"grow": 0.0, "prune": 0.0, "swap": 0.0}
    if n_grow:
        probs["grow"] += share
    elif n_prune:
        probs["prune"] += share
    if n_prune:
        probs["prune"] += share
    elif n_grow:
        probs["grow"] += share
    if include_swap and n_prune:
        probs["swap"] = share
    return probs


def mcmc_step(tree, dataset, prior, sigma, rng, responses=None, model=None,
              include_swap=False):
    """One GROW/PRUNE (optionally SWAP) Metropolis-Hastings update in place.

    Move type is uniform over the enabled moves, switching when the chosen
    candidate set is empty.  GROW proposes the split from the prior's own
    dimension/location rule, so the acceptance log-ratio reduces to the
    depth-prior change, the likelihood change (coefficient density at the
    new internal node, leaf SSE terms), and the proposal correction built
    from the candidate counts and the move-selection probabilities before
    and after the change (mirrored for PRUNE).

    Returns True when the proposal was accepted.
    """
    if responses is None:
        responses = dataset.responses
    responses = np.asarray(responses, dtype=np.float64)
    if model is None:
        model = CoefficientModel("gaussian", sigma, sigma_w=sigma)
    two_sigma_sq = 2.0 * sigma ** 2

    moves = ["grow", "prune"] + (["swap"] if include_swap else [])
    move = moves[rng.integers(len(moves))]
    grow = tree.grow_candidates(prior)
    prune = tree.prune_candidates()
    if move == "grow" and not grow:
        move = "prune"
    if move == "prune" and not prune:
        move = "grow" if grow else None
    if move == "swap" and not prune:
        move = None
    if move is None:
        return False
    forward = _move_probs(len(grow), len(prune), include_swap)

    def leaf_ll(node):
        return -sse(responses, node.members) / two_sigma_sq

    def split_ll(left, right):
        w = haar_coefficient(responses, left.members, right.members)
        return math.log(coefficient_density(w, model)) + leaf_ll(left) + leaf_ll(right)

    if move == "grow":
        node = grow[rng.integers(len(grow))]
        dim, loc = _draw_prior_split(node, prior, dataset, rng)
        p_here = prior.split_prob(node.depth)
        before = leaf_ll(node) + math.log(1.0 - p_here)
        _attach(node, dataset, dim, loc)
        after = math.log(p_here) + split_ll(node.left, node.right) \
            + _leaf_prior_term(node.left.members, node.left.depth, prior) \
            + _leaf_prior_term(node.right.members, node.right.depth, prior)
        backward = _move_probs(len(tree.grow_candidates(prior)),
                               len(tree.prune_candidates()), include_swap)
        hastings = math.log(backward["prune"]) - math.log(forward["grow"]) \
            + math.log(len(grow)) - math.log(len(tree.prune_candidates()))
        if math.log(rng.uniform()) < after - before + hastings:
            return True
        _detach(node)
        return False

    if move == "prune":
        node = prune[rng.integers(len(prune))]
        p_here = prior.split_prob(node.depth)
        before = math.log(p_here) + split_ll(node.left, node.right) \
            + _leaf_prior_term(node.left.members, node.left.depth, prior) \
            + _leaf_prior_term(node.right.members, node.right.depth, prior)
        after = leaf_ll(node) + math.log(1.0 - p_here)
        saved = (node.dim, node.loc, node.left, node.right)
        _detach(node)
        backward = _move_probs(len(tree.grow_candidates(prior)),
                               len(tree.prune_candidates()), include_swap)
        hastings = math.log(backward["grow"]) - math.log(forward["prune"]) \
            + math.log(len(prune)) - math.log(len(tree.grow_candidates(prior)))
        if math.log(rng.uniform()) < after - before + hastings:
            return True
        node.dim, node.loc, node.left, node.right = saved
        return False

    # swap: redraw the split of an internal node whose children are leaves
    node = prune[rng.integers(len(prune))]
    saved = (node.dim, node.loc, node.left, node.right)
    before = split_ll(node.left, node.right) \
        + _leaf_prior_term(node.left.members, node.left.depth, prior) \
        + _leaf_prior_term(node.right.members, node.right.depth, prior)
    dim, loc = _draw_prior_split(node, prior, dataset, rng)
    _detach(node)
    _attach(node, dataset, dim, loc)
    after = split_ll(node.left, node.right) \
        + _leaf_prior_term(node.left.members, node.left.depth, prior) \
        + _leaf_prior_term(node.right.members, node.right.depth, prior)
    if math.log(rng.uniform()) < after - before:
        return True
    node.dim, node.loc, node.left, node.right = saved
    return False


# ---------------------------------------------------------------------------
# backfitting ensemble
# ---------------------------------------------------------------------------

@dataclass
class PosteriorDraws:
    """Stored sweeps: fitted values per draw plus serializable ensembles."""

    fitted: np.ndarray
    mus: np.ndarray
    sweeps: list
    ensembles: list = field(default_factory=list)

    @property
    def n_draws(self):
        return self.fitted.shape[0]


def _refresh_coefficients(tree, residual, sigma, coef_scale, rng):
    """Conjugate Gaussian draw per internal node.

    Posterior variance (1/coef_scale^2 + 1/sigma^2)^-1 and mean =
    variance * <residual, atom> / sigma^2, with the counting-convention
    empirical coefficient as the inner product.
    """
    var = 1.0 / (1.0 / coef_scale ** 2 + 1.0 / sigma ** 2)
    sd = math.sqrt(var)
    for node in tree.internal():
        c_hat = haar_coefficient(residual, node.left.members, node.right.members)
        node.coef = var * c_hat / sigma ** 2 + sd * rng.standard_normal()


def tree_component_values(tree, n):
    """Sum of coef_j * atom_j over the tree's internal nodes, at all points."""
    out = np.zeros(n)
    for node in tree.internal():
        nl, nr = node.left.members.size, node.right.members.size
        scale = math.sqrt(nl * nr / (nl + nr))
        out[node.left.members] += node.coef * scale / nl
        out[node.right.members] -= node.coef * scale / nr
    return out


def bnode_record(node):
    """Nested JSON-ready description of one sampled tree."""
    def build(nd, left, right):
        if nd.is_leaf:
            return {"n": int(nd.members.size)}
        return {"dim": int(nd.dim), "loc": float(nd.loc), "coef": float(nd.coef),
                "left": left, "right": right}
    return _bottom_up(node, build)


def backfit(dataset, responses, m, sweeps, prior, model, seed=0,
            store_every=1, burn_in=None, coef_scale=1.0, include_swap=False):
    """Gibbs over additive tree components.

    Each sweep updates every component against its partial residual: one
    Metropolis structure step (coefficient densities marginalized over the
    conjugate N(0, coef_scale^2) prior), then a conjugate Gaussian draw of
    every coefficient; the intercept is reset to the residual mean.  Draws
    are stored every store_every sweeps after burn_in (default sweeps // 2).
    """
    if m < 1 or sweeps < 1:
        raise ValueError("need m >= 1 and sweeps >= 1")
    responses = np.asarray(responses, dtype=np.float64)
    n = dataset.n
    if burn_in is None:
        burn_in = sweeps // 2
    rng = stream_rng(seed, CHAIN, 0)
    sigma = model.sigma
    if model.kind == "gaussian":
        struct_model = CoefficientModel(
            "gaussian", sigma, sigma_w=math.sqrt(coef_scale ** 2 + sigma ** 2),
        )
    else:
        struct_model = model
    trees = [McmcTree(dataset) for _ in range(m)]
    values = np.zeros((m, n))
    mu = float(responses.mean())

    stored_fitted, stored_mus, stored_sweeps, stored_ens = [], [], [], []
    for sweep in range(sweeps):
        total = values.sum(axis=0)
        for t in range(m):
            partial = responses - mu - (total - values[t])
            mcmc_step(trees[t], dataset, prior, sigma, rng,
                      responses=partial, model=struct_model, include_swap=include_swap)
            _refresh_coefficients(trees[t], partial, sigma, coef_scale, rng)
            new_vals = tree_component_values(trees[t], n)
            total += new_vals - values[t]
            values[t] = new_vals
        mu = float((responses - total).mean())
        if sweep >= burn_in and (sweep - burn_in) % store_every == 0:
            stored_fitted.append(mu + total)
            stored_mus.append(mu)
            stored_sweeps.append(sweep)
            stored_ens.append([bnode_record(tree.root) for tree in trees])
    return PosteriorDraws(
        np.asarray(stored_fitted), np.asarray(stored_mus), stored_sweeps, stored_ens,
    )


def posterior_summary(draws):
    """Pointwise mean, sample sd, and central 95% width over stored draws."""
    fitted = draws.fitted if isinstance(draws, PosteriorDraws) else np.asarray(draws, dtype=np.float64)
    if fitted.ndim == 1:
        fitted = fitted[:, None]
    if fitted.shape[0] < 2:
        raise TooFewDrawsError("need at least two stored draws")
    mean = fitted.mean(axis=0)
    sd = fitted.std(axis=0, ddof=1)
    lo, hi = np.percentile(fitted, [2.5, 97.5], axis=0)
    return mean, sd, hi - lo

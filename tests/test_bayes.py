"""Prior sampling, marginal likelihood recursion, MCMC, backfitting."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from uhwt import (
    CoefficientModel,
    LatentMarkov,
    McmcTree,
    RuhwtPrior,
    backfit,
    coefficient_density,
    enumerate_posterior,
    grid_dataset,
    marginal_M,
    mcmc_step,
    phi,
    posterior_split_sample,
    posterior_summary,
    sample_prior_tree,
)
from uhwt.bayes import (
    BNode,
    _refresh_coefficients,
    bnode_record,
    log_tree_target,
    posterior_split_distribution,
    tree_component_values,
)
from uhwt.core import Cell, root_cell_grid
from uhwt.errors import ExplosionGuardError, TooFewDrawsError, TooLargeError


def line_dataset(values, locs=None):
    values = np.asarray(values, dtype=np.float64)
    if locs is None:
        locs = np.arange(values.size, dtype=np.float64)
    return grid_dataset(np.asarray(locs, dtype=np.float64)[:, None], values)


MODEL = CoefficientModel("gaussian", sigma=1.0, sigma_w=1.0)


class TestSamplePriorTree:
    def test_never_split(self):
        prior = RuhwtPrior(p_split=lambda depth: 0.0)
        ds = line_dataset([1.0, 2.0, 3.0])
        for seed in range(5):
            tree = sample_prior_tree(prior, ds, np.random.default_rng(seed))
            assert tree.node_count() == 1

    def test_atomic_root(self):
        ds = line_dataset([4.0])
        tree = sample_prior_tree(RuhwtPrior(), ds, np.random.default_rng(0))
        assert tree.node_count() == 1

    def test_root_split_frequency(self):
        ds = line_dataset([0.0, 1.0])
        prior = RuhwtPrior()
        rng = np.random.default_rng(1)
        splits = sum(
            sample_prior_tree(prior, ds, rng).node_count() > 1 for _ in range(30_000)
        )
        assert abs(splits / 30_000 - 0.99) < 0.01


class TestMarginalM:
    def test_gaussian_at_zero(self):
        ds = line_dataset([1.0, 1.0])  # w = 0
        cell = root_cell_grid(ds)
        got = marginal_M(cell, 0, 0.5, MODEL, ds, ds.responses)
        assert got == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_spike_slab_pi_zero_is_pure_spike(self):
        model = CoefficientModel("spike_slab", sigma=0.7, pi_incl=0.0, sigma_slab=2.0)
        for w in (-1.2, 0.0, 0.4):
            assert coefficient_density(w, model) == pytest.approx(
                stats.norm.pdf(w, scale=0.7), rel=1e-12,
            )

    def test_quadrature_matches_closed_forms(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            sigma = rng.uniform(0.3, 2.0)
            slab = rng.uniform(0.3, 2.0)
            pi_incl = rng.uniform(0.0, 1.0)
            w = rng.normal(scale=2.0)
            model = CoefficientModel("spike_slab", sigma=sigma, pi_incl=pi_incl, sigma_slab=slab)
            # latent mean theta ~ pi N(0, slab^2) + (1-pi) delta_0; w | theta ~ N(theta, sigma^2)
            smooth, _ = integrate.quad(
                lambda t: stats.norm.pdf(w, loc=t, scale=sigma) * stats.norm.pdf(t, scale=slab),
                -np.inf, np.inf,
            )
            want = pi_incl * smooth + (1 - pi_incl) * stats.norm.pdf(w, scale=sigma)
            assert coefficient_density(w, model) == pytest.approx(want, abs=1e-8)

    def test_laplace_density(self):
        model = CoefficientModel("laplace", sigma=1.0, scale=0.8)
        assert coefficient_density(-0.5, model) == pytest.approx(
            stats.laplace.pdf(-0.5, scale=0.8), rel=1e-12,
        )


class TestPhi:
    def test_atomic_cell_is_one(self):
        ds = line_dataset([2.0])
        assert phi(root_cell_grid(ds), RuhwtPrior(), MODEL, ds, ds.responses) == 1.0

    def test_forced_split_two_points(self):
        ds = line_dataset([0.0, 3.0])
        prior = RuhwtPrior(p_split=lambda depth: 1.0 - 1e-12)
        got = phi(root_cell_grid(ds), prior, MODEL, ds, ds.responses)
        w = math.sqrt(0.5) * (0.0 - 3.0)
        assert got == pytest.approx(coefficient_density(w, MODEL), rel=1e-6)
        got_ns = phi(root_cell_grid(ds), RuhwtPrior(), MODEL, ds, ds.responses, no_stop=True)
        assert got_ns == pytest.approx(coefficient_density(w, MODEL), rel=1e-12)

    @pytest.mark.parametrize("no_stop", [False, True])
    def test_matches_enumeration(self, no_stop):
        rng = np.random.default_rng(3)
        prior = RuhwtPrior(max_depth=6)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            ds = line_dataset(rng.normal(size=n))
            _, total = enumerate_posterior(ds, prior, MODEL, no_stop=no_stop)
            got = phi(root_cell_grid(ds), prior, MODEL, ds, ds.responses, no_stop=no_stop)
            assert got == pytest.approx(total, rel=1e-9)

    def test_explosion_guard(self):
        rng = np.random.default_rng(4)
        ds = line_dataset(rng.normal(size=64))
        with pytest.raises(ExplosionGuardError):
            phi(root_cell_grid(ds), RuhwtPrior(), MODEL, ds, ds.responses, cell_cap=50)


class TestPosteriorSplitSample:
    def test_single_split_taken_with_probability_one(self):
        ds = line_dataset([0.0, 5.0])
        prior = RuhwtPrior(p_split=lambda depth: 1.0 - 1e-15)
        rng = np.random.default_rng(5)
        for _ in range(10):
            got = posterior_split_sample(root_cell_grid(ds), prior, MODEL, ds, ds.responses, rng)
            assert got == (0, 0.5)

    def test_weighted_two_way_example(self):
        # two admissible splits; scale responses so one weight doubles the other
        ds = line_dataset([0.0, 0.0, 1.53816], locs=[0.0, 1.0, 2.0])
        prior = RuhwtPrior(p_split=lambda depth: 1.0 - 1e-15)
        stop_prob, entries = posterior_split_distribution(
            root_cell_grid(ds), prior, MODEL, ds, ds.responses,
        )
        assert stop_prob < 1e-9
        probs = {loc: p for _, loc, p in entries}
        ratio = probs[0.5] / probs[1.5]
        rng = np.random.default_rng(6)
        counts = {0.5: 0, 1.5: 0}
        for _ in range(20_000):
            _, loc = posterior_split_sample(root_cell_grid(ds), prior, MODEL, ds, ds.responses, rng)
            counts[loc] += 1
        for _, loc, p in entries:
            se = math.sqrt(p * (1 - p) / 20_000)
            assert abs(counts[loc] / 20_000 - p) < 3 * se + 1e-9
        assert ratio > 0

    def test_matches_enumeration_root_marginals(self):
        rng = np.random.default_rng(7)
        ds = line_dataset(rng.normal(size=4))
        prior = RuhwtPrior()
        stop_prob, entries = posterior_split_distribution(
            root_cell_grid(ds), prior, MODEL, ds, ds.responses,
        )
        table, _ = enumerate_posterior(ds, prior, MODEL)
        stop_mass = sum(p for sig, p in table.items() if sig is None)
        assert stop_prob == pytest.approx(stop_mass, rel=1e-9)
        for dim, loc, p in entries:
            mass = sum(
                prob for sig, prob in table.items()
                if sig is not None and sig[0] == dim and sig[1] == pytest.approx(loc)
            )
            assert p == pytest.approx(mass, rel=1e-9)


class _ScriptedRng:
    """Deterministic stand-in driving one specific MCMC proposal."""

    def __init__(self, integers=(), uniform=0.5):
        self._integers = list(integers)
        self._uniform = uniform

    def integers(self, *_args, **_kwargs):
        return self._integers.pop(0)

    def uniform(self):
        return self._uniform

    def choice(self, n, p=None):
        return 0

    def standard_normal(self, *args):
        return 0.0 if not args else np.zeros(args[0])


class TestMcmcStep:
    def test_swap_to_same_split_always_accepts(self):
        ds = line_dataset([0.0, 1.0])  # single admissible split
        prior = RuhwtPrior(max_depth=3)
        tree = McmcTree(ds)
        from uhwt.bayes import _attach

        _attach(tree.root, ds, 0, 0.5)
        rng = _ScriptedRng(integers=[2, 0], uniform=1.0 - 1e-12)
        accepted = mcmc_step(tree, ds, prior, 1.0, rng, include_swap=True)
        assert accepted
        assert tree.signature() == (0, 0.5, None, None)

    def test_detailed_balance_on_grow_pair(self):
        ds = line_dataset([0.4, -1.2, 0.7, 2.0])
        prior = RuhwtPrior(max_depth=4)
        model = CoefficientModel("gaussian", sigma=1.0, sigma_w=1.0)
        base = McmcTree(ds)
        grown = McmcTree(ds)
        from uhwt.bayes import _attach, admissible_thresholds, valid_dimensions

        _attach(grown.root, ds, 0, 1.5)
        # pi * q * alpha in both directions
        log_pi_t = log_tree_target(base, prior, ds.responses, model)
        log_pi_tp = log_tree_target(grown, prior, ds.responses, model)
        n_locs = len(admissible_thresholds(base.root.members, ds, 0))
        n_dims = len(valid_dimensions(base.root.members, ds))
        q_fwd = 0.5 * (1.0 / len(base.grow_candidates(prior))) * (1.0 / n_dims) * (1.0 / n_locs)
        q_bwd = 0.5 * (1.0 / len(grown.prune_candidates()))
        log_ratio = (log_pi_tp + math.log(q_bwd)) - (log_pi_t + math.log(q_fwd))
        alpha_fwd = min(1.0, math.exp(log_ratio))
        alpha_bwd = min(1.0, math.exp(-log_ratio))
        lhs = math.exp(log_pi_t) * q_fwd * alpha_fwd
        rhs = math.exp(log_pi_tp) * q_bwd * alpha_bwd
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_chain_matches_enumeration(self):
        rng_data = np.random.default_rng(8)
        ds = line_dataset(rng_data.normal(size=4))
        prior = RuhwtPrior(max_depth=4)
        model = CoefficientModel("gaussian", sigma=1.0, sigma_w=1.0)
        table, _ = enumerate_posterior(ds, prior, model)
        tree = McmcTree(ds)
        rng = np.random.default_rng(9)
        counts = {}
        steps = 40_000
        for step in range(steps):
            mcmc_step(tree, ds, prior, 1.0, rng, model=model)
            if step >= steps // 5:
                sig = tree.signature()
                counts[sig] = counts.get(sig, 0) + 1
        kept = sum(counts.values())
        tv = 0.5 * sum(
            abs(counts.get(sig, 0) / kept - prob) for sig, prob in table.items()
        )
        tv += 0.5 * sum(
            counts[sig] / kept for sig in counts if sig not in table
        )
        assert tv < 0.05


class TestDeepTrees:
    DEPTH = 5000  # far beyond the interpreter's default recursion limit of 1000

    def _chain(self):
        """A hand-built chain: every right child splits again, every left child is a leaf."""
        tree = McmcTree(line_dataset([0.0, 1.0]))
        node = tree.root
        for d in range(self.DEPTH):
            node.dim, node.loc, node.coef = 0, d + 0.5, float(d)
            node.left, node.right = BNode(np.arange(1), d + 1), BNode(np.arange(2), d + 1)
            node = node.right
        return tree

    def test_signature_and_record_of_a_deep_chain(self):
        tree = self._chain()
        sig, rec = tree.signature(), bnode_record(tree.root)
        for d in range(self.DEPTH):
            assert sig[:3] == (0, d + 0.5, None)
            assert (rec["dim"], rec["loc"], rec["coef"], rec["left"]) == (0, d + 0.5, float(d), {"n": 1})
            sig, rec = sig[3], rec["right"]
        assert sig is None and rec == {"n": 2}


class TestBackfit:
    def test_flat_prior_coefficient_limit(self):
        # coefficient prior variance -> infinity: posterior mean -> empirical coefficient
        ds = line_dataset([1.0, -2.0, 0.5, 3.0])
        tree = McmcTree(ds)
        from uhwt.bayes import _attach
        from uhwt.core import haar_coefficient as _coef

        _attach(tree.root, ds, 0, 1.5)
        residual = ds.responses
        _refresh_coefficients(tree, residual, sigma=1.0, coef_scale=1e9, rng=_ScriptedRng())
        want = _coef(residual, tree.root.left.members, tree.root.right.members)
        assert tree.root.coef == pytest.approx(want, rel=1e-9)

    def test_conjugate_update_against_quadrature(self):
        # posterior over one coefficient w given c_hat ~ N(w, sigma^2), prior N(0, tau^2)
        rng = np.random.default_rng(10)
        for _ in range(10):
            sigma = rng.uniform(0.3, 1.5)
            tau = rng.uniform(0.3, 1.5)
            c_hat = rng.normal(scale=2.0)
            grid = np.linspace(-12, 12, 20_001)
            dens = stats.norm.pdf(c_hat, loc=grid, scale=sigma) * stats.norm.pdf(grid, scale=tau)
            dens /= np.trapezoid(dens, grid)
            mean_quad = np.trapezoid(grid * dens, grid)
            var_quad = np.trapezoid((grid - mean_quad) ** 2 * dens, grid)
            var = 1.0 / (1.0 / tau ** 2 + 1.0 / sigma ** 2)
            mean = var * c_hat / sigma ** 2
            assert mean == pytest.approx(mean_quad, abs=1e-6)
            assert var == pytest.approx(var_quad, abs=1e-6)

    def test_posterior_sd_concentrates_on_edges(self):
        from uhwt.signals import diamond_edge_band, diamond_image, image_dataset

        size = 16
        clean = diamond_image(size)
        rng = np.random.default_rng(11)
        noisy = clean + 0.2 * rng.standard_normal(clean.shape)
        ds = image_dataset(noisy)
        model = CoefficientModel("gaussian", sigma=0.2)
        draws = backfit(
            ds, ds.responses, m=12, sweeps=120, prior=RuhwtPrior(max_depth=10),
            model=model, seed=12, store_every=2, coef_scale=0.5,
        )
        _, sd, width = posterior_summary(draws)
        assert draws.n_draws >= 10
        assert np.all(sd >= 0) and np.all(width >= 0)
        band = diamond_edge_band(size).ravel()
        assert sd[band].mean() > sd[~band].mean()

    def test_component_values_are_zero_mean_atoms(self):
        ds = line_dataset([1.0, -1.0, 2.0, 0.0])
        tree = McmcTree(ds)
        from uhwt.bayes import _attach

        _attach(tree.root, ds, 0, 1.5)
        tree.root.coef = 2.0
        values = tree_component_values(tree, ds.n)
        assert values.sum() == pytest.approx(0.0, abs=1e-12)


class TestPosteriorSummary:
    def test_identical_draws(self):
        draws = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
        mean, sd, width = posterior_summary(draws)
        np.testing.assert_allclose(mean, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(sd, 0.0)
        np.testing.assert_allclose(width, 0.0)

    def test_two_draws_mean(self):
        mean, _, _ = posterior_summary(np.array([[1.0], [3.0]]))
        assert mean[0] == pytest.approx(2.0)

    def test_normal_width(self):
        draws = np.random.default_rng(13).standard_normal((10_000, 1))
        _, _, width = posterior_summary(draws)
        assert width[0] == pytest.approx(3.92, abs=0.1)

    def test_too_few(self):
        with pytest.raises(TooFewDrawsError):
            posterior_summary(np.array([[1.0, 2.0]]))


class TestLatent:
    def test_single_state_reduces_to_no_stop(self):
        rng = np.random.default_rng(14)
        ds = line_dataset(rng.normal(size=4))
        prior = RuhwtPrior()
        latent = LatentMarkov(kernels=[np.array([[1.0]])], state_models=(MODEL,))
        cell = root_cell_grid(ds)
        with_latent = phi(cell, prior, None, ds, ds.responses, latent=latent, state=0)
        plain = phi(cell, prior, MODEL, ds, ds.responses, no_stop=True)
        assert with_latent == pytest.approx(plain, rel=1e-12)

    def test_kernel_rows_validated(self):
        latent = LatentMarkov(kernels=[np.array([[0.5, 0.4], [0.5, 0.5]])],
                              state_models=(MODEL, MODEL))
        with pytest.raises(ValueError):
            latent.kernel(0)

    def test_two_state_spike_slab_mixture(self):
        # hand-expand: forced split of two points, states chosen by the kernel
        ds = line_dataset([0.0, 2.0])
        prior = RuhwtPrior()
        w = math.sqrt(0.5) * (0.0 - 2.0)
        slab = CoefficientModel("gaussian", sigma=1.0, sigma_w=3.0)
        spike = CoefficientModel("gaussian", sigma=1.0, sigma_w=0.1)
        kernel = np.array([[0.3, 0.7], [0.6, 0.4]])
        latent = LatentMarkov(kernels=[kernel], state_models=(spike, slab))
        cell = root_cell_grid(ds)
        for state in (0, 1):
            got = phi(cell, prior, None, ds, ds.responses, latent=latent, state=state)
            want = kernel[state, 0] * coefficient_density(w, spike) \
                + kernel[state, 1] * coefficient_density(w, slab)
            assert got == pytest.approx(want, rel=1e-12)


class TestEnumerate:
    def test_single_point(self):
        ds = line_dataset([1.0])
        table, total = enumerate_posterior(ds, RuhwtPrior(), MODEL)
        assert table == {None: 1.0}
        assert total == pytest.approx(1.0)

    def test_symmetric_three_points(self):
        ds = line_dataset([1.0, 0.0, 1.0])
        prior = RuhwtPrior()
        table, _ = enumerate_posterior(ds, prior, MODEL)
        left = {sig: p for sig, p in table.items() if sig is not None and sig[1] == 0.5}
        right = {sig: p for sig, p in table.items() if sig is not None and sig[1] == 1.5}
        assert sum(left.values()) == pytest.approx(sum(right.values()), rel=1e-9)

    def test_too_large(self):
        rng = np.random.default_rng(15)
        ds = line_dataset(rng.normal(size=9))
        with pytest.raises(TooLargeError):
            enumerate_posterior(ds, RuhwtPrior(), MODEL)

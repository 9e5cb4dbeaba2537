"""The four benchmark workloads, driven through uhwt's public API.

Each workload is a class with
  setup(seed)          -> builds the inputs (counted in setup_s),
  phases               -> ordered (name, method) pairs, each timed alone,
  checks()             -> [(name, ok)] correctness checks on the outputs,
  reference_values()   -> values pinned for the default seed in reference.json.

Sizes are class attributes; ``Workload(workdir, smoke=True)`` swaps in the
small sizes the benchmark's own tests use.  ``workdir`` is a directory the
io phases of workloads that save files may write to.  Library modules are
used through their module objects (``core.tree_to_dict``), never bound by
name, so the tracer's patched functions are the ones called.
"""

import json
import os

import numpy as np

from uhwt import bayes, core, ensembles, grid, signals
from uhwt import io as uio


def input_rng(seed, purpose):
    """Benchmark-owned random stream for the inputs of one seed."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(purpose)]))


def mse(a, b):
    return float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))


def json_round_trip(payload):
    """In-memory JSON text round trip; returns (parsed payload, text length)."""
    text = json.dumps(payload)
    return json.loads(text), len(text)


def count_nodes(trees):
    return int(sum(tree.node_count() for tree in trees))


def record_nodes(record):
    """Node count of one nested tree record as bayes.bnode_record writes it."""
    if "left" not in record:
        return 1
    return 1 + record_nodes(record["left"]) + record_nodes(record["right"])


class Workload:
    name = None
    phases = ()
    smoke_sizes = {}

    def __init__(self, workdir, smoke=False):
        if smoke:
            for key, value in self.smoke_sizes.items():
                setattr(self, key, value)
        self.workdir = workdir
        self.io_bytes = 0

    def checks(self):
        raise NotImplementedError

    def reference_values(self):
        raise NotImplementedError

    def stats(self):
        """Deterministic work counts the traced run reports."""
        return {"serialization.bytes": self.io_bytes}


class GridDenoise(Workload):
    """One large early-stopped, soft-thresholded grid tree (criterion 10 at 4x pixels).

    Like criterion 10, the clean image is fixed and the seed draws only the
    noise, so every seed denoises the same picture.
    """

    name = "grid_denoise"
    size = 256
    image_seed = 7  # criterion 10's image
    params = grid.GridFitParams(max_depth=30, early_stop_b=0.3, soft_a=0.8)
    smoke_sizes = {"size": 48}

    def setup(self, seed):
        self.clean = signals.piecewise_image(self.size, n_blocks=6, seed=self.image_seed)
        noise = self.clean.std() * input_rng(seed, 1).standard_normal(self.clean.shape)
        self.noisy = self.clean + noise
        self.dataset = signals.image_dataset(self.noisy)

    def fit(self):
        self.tree = grid.denoise(self.dataset, self.dataset.responses, self.params)

    def predict(self):
        self.fitted = core.tree_fit_values(self.tree, shrunk=True)
        self.reconstructed, _ = core.batch_reconstruct(
            self.tree, self.dataset.locations, shrunk=True)

    def io(self):
        payload, self.io_bytes = json_round_trip(core.tree_to_dict(self.tree))
        self.loaded = core.tree_from_dict(payload)

    phases = (("fit", fit), ("predict", predict), ("io", io))

    def checks(self):
        again, _ = core.batch_reconstruct(self.loaded, self.dataset.locations, shrunk=True)
        clean = self.clean.ravel()
        return [
            ("reconstruct_matches_fit_values",
             float(np.max(np.abs(self.reconstructed - self.fitted))) <= 1e-10),
            ("round_trip_node_count", self.loaded.node_count() == self.tree.node_count()),
            ("round_trip_bit_identical", np.array_equal(again, self.reconstructed)),
            ("denoised_beats_noisy", mse(self.fitted, clean) < mse(self.noisy.ravel(), clean)),
        ]

    def reference_values(self):
        return {
            "node_count": self.tree.node_count(),
            "denoised_mse": mse(self.fitted, self.clean.ravel()),
        }


class SphereBoost(Workload):
    """Rotation boosting on fig5 (criterion 7 at 100 stages instead of 1,500)."""

    name = "sphere_boost"
    n_train = 300
    n_test = 15300
    stages = 100
    checkpoints = (50, 100)
    params = grid.GridFitParams(max_depth=200)
    smoke_sizes = {"n_train": 80, "n_test": 400, "stages": 6, "checkpoints": (3, 6)}

    def setup(self, seed):
        self.seed = seed
        self.train = signals.generate_sphere_synthetic("fig5", self.n_train, 0.1, seed)
        self.test_points, self.test_clean = signals.sphere_test_grid("fig5", self.n_test, seed)

    def fit(self):
        self.ensemble = ensembles.boost_fit(
            self.train, self.train.responses, self.stages, 0.05, self.params,
            soft_c=0.2, rule="adapt", seed=self.seed,
        )

    def predict(self):
        self.trace = ensembles.boost_predict_trace(
            self.ensemble, self.test_points, self.checkpoints)

    def io(self):
        payload, self.io_bytes = json_round_trip(ensembles.boost_to_dict(self.ensemble))
        self.loaded = ensembles.boost_from_dict(payload)

    phases = (("fit", fit), ("predict", predict), ("io", io))

    def test_mse(self, stage):
        return mse(self.trace[stage], self.test_clean)

    def checks(self):
        first, last = self.checkpoints
        again = ensembles.boost_predict_trace(self.loaded, self.test_points, self.checkpoints)
        return [
            ("round_trip_bit_identical",
             all(np.array_equal(again[stage], self.trace[stage]) for stage in self.checkpoints)),
            ("mse_not_worse_with_stages", self.test_mse(last) <= self.test_mse(first)),
        ]

    def reference_values(self):
        first, last = self.checkpoints
        return {
            "node_count": count_nodes(
                tree for stage in self.ensemble.stages for tree in stage.model.face_trees),
            "test_mse_mid": self.test_mse(first),
            "test_mse_final": self.test_mse(last),
        }


class SphereForest(Workload):
    """Random-rotation forest with quantile bands (criterion 11 at 60 members)."""

    name = "sphere_forest"
    n_train = 300
    n_query = 6000
    members = 60
    q_levels = (0.05, 0.95)
    params = grid.GridFitParams(max_depth=200)
    smoke_sizes = {"n_query": 2000, "members": 16}

    def setup(self, seed):
        self.seed = seed
        self.train = signals.generate_sphere_synthetic("fig5", self.n_train, 0.1, seed)
        self.held_out = signals.generate_sphere_synthetic("fig5", self.n_query, 0.1, seed + 100)

    def fit(self):
        self.forest = ensembles.rre_fit(
            self.train, self.train.responses, self.members, self.params,
            rule="adapt", seed=self.seed,
        )

    def predict(self):
        self.bands = ensembles.quantile_predict_batch(
            self.forest, self.held_out.locations, self.q_levels)
        self.mean = ensembles.ensemble_predict(self.forest, self.held_out.locations)

    def io(self):
        # the library has no forest file format; its sphere CSV is how the
        # `uhwt quantiles --queries` command reads query points
        path = os.path.join(self.workdir, "queries.csv")
        uio.save_sphere_csv(path, self.held_out.locations, self.held_out.responses)
        self.loaded = uio.load_sphere_csv(path)
        self.io_bytes = os.path.getsize(path)

    phases = (("fit", fit), ("predict", predict), ("io", io))

    def coverage(self):
        y = self.held_out.responses
        return float(np.mean((y >= self.bands[:, 0]) & (y <= self.bands[:, -1])))

    def checks(self):
        return [
            ("bands_ordered", bool(np.all(self.bands[:, 0] <= self.bands[:, -1]))),
            ("coverage_in_window", 0.80 <= self.coverage() <= 0.95),
            # load_sphere_csv renormalizes each point, which may move its last bit
            ("csv_round_trip",
             np.array_equal(self.loaded.responses, self.held_out.responses)
             and np.allclose(self.loaded.locations, self.held_out.locations, rtol=0, atol=1e-15)),
        ]

    def reference_values(self):
        return {
            "node_count": count_nodes(
                tree for member in self.forest.members for tree in member.face_trees),
            "coverage": self.coverage(),
            "mean_mse": mse(self.mean, self.held_out.responses),
        }


class BayesBackfit(Workload):
    """Backfitted Bayesian tree sum on a diamond, plus the exact phi recursion.

    The workload has no query on new points; its predict phase is the
    exact-posterior computation: phi on a small lattice, then top-down
    posterior split draws that share phi's cache.
    """

    name = "bayes_backfit"
    size = 32
    trees = 20
    sweeps = 1000
    store_every = 5
    exact_size = 8
    exact_draws = 200
    noise_sd = 0.2
    prior = bayes.RuhwtPrior(max_depth=12)
    model = bayes.CoefficientModel("gaussian", 0.2)
    smoke_sizes = {"size": 16, "trees": 8, "sweeps": 300, "exact_size": 4, "exact_draws": 20}

    def setup(self, seed):
        self.seed = seed
        self.clean = signals.diamond_image(self.size)
        noise = self.noise_sd * input_rng(seed, 2).standard_normal(self.clean.shape)
        self.noisy = self.clean + noise
        self.dataset = signals.image_dataset(self.noisy)
        small = signals.diamond_image(self.exact_size)
        small = small + self.noise_sd * input_rng(seed, 3).standard_normal(small.shape)
        self.exact_dataset = signals.image_dataset(small)

    def fit(self):
        self.draws = bayes.backfit(
            self.dataset, self.dataset.responses, self.trees, self.sweeps, self.prior,
            self.model, seed=self.seed, store_every=self.store_every, coef_scale=0.5,
        )
        self.post_mean, self.post_sd, self.post_width = bayes.posterior_summary(self.draws)

    def predict(self):
        ds = self.exact_dataset
        self.cache = {}
        root = core.root_cell_grid(ds)
        self.phi = bayes.phi(root, self.prior, self.model, ds, ds.responses, cache=self.cache)
        rng = input_rng(self.seed, 4)
        queue = []
        self.split_draws = 0
        while self.split_draws < self.exact_draws:
            cell = queue.pop() if queue else root
            draw = bayes.posterior_split_sample(
                cell, self.prior, self.model, ds, ds.responses, rng, cache=self.cache)
            self.split_draws += 1
            if draw == "stop":
                continue
            dim, loc = draw
            left = ds.locations[cell.members, dim] < loc
            queue.append(core.Cell(cell.members[left], cell.depth + 1))
            queue.append(core.Cell(cell.members[~left], cell.depth + 1))

    def io(self):
        # the library's files on the `uhwt backfit` path: the noisy image as
        # a tensor input, the posterior summary grid as output
        image = os.path.join(self.workdir, "noisy.tensor")
        summary = os.path.join(self.workdir, "summary.grid")
        uio.save_tensor(image, self.noisy)
        self.loaded_dataset = uio.load_grid(image)
        uio.save_summary_grid(summary, self.post_mean, self.post_sd, self.post_width,
                              self.dataset.axis_sizes)
        self.loaded_summary = uio.load_summary_grid(summary)
        self.io_bytes = os.path.getsize(image) + os.path.getsize(summary)

    phases = (("fit", fit), ("predict", predict), ("io", io))

    def expected_draws(self):
        burn_in = self.sweeps // 2
        return len(range(burn_in, self.sweeps, self.store_every))

    def checks(self):
        clean = self.clean.ravel()
        return [
            ("stored_draw_count", self.draws.n_draws == self.expected_draws()),
            ("sd_nonnegative", bool(np.all(self.post_sd >= 0))),
            ("posterior_mean_beats_noisy",
             mse(self.post_mean, clean) < mse(self.noisy.ravel(), clean)),
            ("phi_finite_positive", bool(np.isfinite(self.phi) and self.phi > 0)),
            ("files_round_trip",
             np.array_equal(self.loaded_dataset.responses, self.dataset.responses)
             and all(np.array_equal(got.ravel(), want) for got, want in zip(
                 self.loaded_summary, (self.post_mean, self.post_sd, self.post_width)))),
        ]

    def stats(self):
        return {**super().stats(), "bayes.phi.cache_entries": len(self.cache)}

    def reference_values(self):
        return {
            "last_draw_node_count": sum(record_nodes(tree) for tree in self.draws.ensembles[-1]),
            "posterior_mean_mse": mse(self.post_mean, self.clean.ravel()),
            "phi": float(self.phi),
        }


WORKLOADS = {cls.name: cls for cls in (GridDenoise, SphereBoost, SphereForest, BayesBackfit)}

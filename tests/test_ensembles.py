"""Boosting, forests, quantile machinery, model files."""

import numpy as np
import pytest

from uhwt import (
    GridFitParams,
    boost_fit,
    boost_predict_trace,
    ensemble_predict,
    fit_sphere,
    grid_dataset,
    load_boost,
    predict_sphere,
    quantile_predict,
    quantile_weights,
    rre_fit,
    save_boost,
)
from uhwt.core import tree_fit_values
from uhwt.ensembles import ForestEnsemble, boost_to_dict, boost_from_dict
from uhwt.errors import InvalidQuantileError
from uhwt.signals import generate_sphere_synthetic, uniform_sphere_points

PARAMS = GridFitParams(max_depth=40)


def small_sphere(n=80, seed=0, noise=0.1):
    return generate_sphere_synthetic("fig5", n, noise, seed=seed)


class TestBoostFit:
    def test_zero_stages_constant(self):
        ds = small_sphere()
        ens = boost_fit(ds, ds.responses, 0, 0.1, PARAMS, seed=1)
        queries = uniform_sphere_points(10, np.random.default_rng(0))
        np.testing.assert_allclose(
            ensemble_predict(ens, queries), np.full(10, ds.responses.mean()), atol=1e-12,
        )

    def test_single_full_stage_interpolates(self):
        ds = small_sphere()
        ens = boost_fit(ds, ds.responses, 1, 1.0, PARAMS, soft_c=0.0, seed=1)
        np.testing.assert_allclose(
            ensemble_predict(ens, ds.locations), ds.responses, atol=1e-10,
        )

    def test_training_sse_nonincreasing(self):
        ds = small_sphere(n=60, seed=2)
        params = GridFitParams(max_depth=2)
        ens = boost_fit(ds, ds.responses, 100, 0.1, params, soft_c=0.0, seed=2)
        fitted = np.full(ds.n, ens.intercept)
        sses = []
        for stage in ens.stages:
            fitted += ens.eta * predict_sphere(stage.model, ds.locations, shrunk=True)
            sses.append(float(((ds.responses - fitted) ** 2).sum()))
        assert all(b <= a + 1e-9 for a, b in zip(sses, sses[1:]))

    def test_grid_boosting_runs(self):
        rng = np.random.default_rng(3)
        ds = grid_dataset(np.arange(32.0)[:, None], rng.normal(size=32))
        ens = boost_fit(ds, ds.responses, 5, 0.5, GridFitParams(max_depth=3), seed=3)
        assert ens.kind == "grid"
        fitted = ensemble_predict(ens, ds.locations)
        base = float(((ds.responses - ds.responses.mean()) ** 2).sum())
        assert float(((ds.responses - fitted) ** 2).sum()) < base

    def test_eta_validated(self):
        ds = small_sphere()
        with pytest.raises(ValueError):
            boost_fit(ds, ds.responses, 1, 0.0, PARAMS, seed=1)
        with pytest.raises(ValueError):
            boost_fit(ds, ds.responses, 1, 1.5, PARAMS, seed=1)


class TestEnsemblePredict:
    def test_all_zero_coefficients_give_intercept(self):
        ds = small_sphere(seed=4)
        ens = boost_fit(ds, ds.responses, 3, 0.2, PARAMS, seed=4)
        for stage in ens.stages:
            for tree in stage.model.face_trees:
                tree.set_shrunk(lambda w: 0.0)
        queries = uniform_sphere_points(20, np.random.default_rng(5))
        got = ensemble_predict(ens, queries)
        # only the per-face intercepts remain in each stage
        want = np.full(20, ens.intercept)
        for stage in ens.stages:
            want += ens.eta * predict_sphere(stage.model, queries, shrunk=True)
        np.testing.assert_array_equal(got, want)

    def test_dropping_last_stage_is_linear(self):
        ds = small_sphere(seed=6)
        ens = boost_fit(ds, ds.responses, 4, 0.3, PARAMS, seed=6)
        queries = uniform_sphere_points(15, np.random.default_rng(7))
        full = ensemble_predict(ens, queries)
        trace = boost_predict_trace(ens, queries, [3, 4])
        last = predict_sphere(ens.stages[-1].model, queries, shrunk=True)
        np.testing.assert_allclose(full - trace[3], ens.eta * last, atol=1e-12)
        np.testing.assert_allclose(trace[4], full, atol=0)

    def test_training_point_prediction_matches_fit_values(self):
        # stored rotations replayed at prediction time reproduce the
        # training-time fit values exactly
        ds = small_sphere(seed=8)
        ens = boost_fit(ds, ds.responses, 5, 0.4, PARAMS, soft_c=0.1, seed=8)
        fitted = np.full(ds.n, ens.intercept)
        for stage in ens.stages:
            stage_vals = np.empty(ds.n)
            for tree in stage.model.face_trees:
                members = tree.root.cell.members
                if members.size:
                    stage_vals[members] = tree_fit_values(tree, shrunk=True)
            np.testing.assert_array_equal(
                predict_sphere(stage.model, ds.locations, shrunk=True), stage_vals,
            )
            fitted += ens.eta * stage_vals
        np.testing.assert_array_equal(ensemble_predict(ens, ds.locations), fitted)


class TestForest:
    def test_single_identity_member_equals_single_fit(self):
        ds = small_sphere(seed=9)
        forest = rre_fit(ds, ds.responses, 1, PARAMS, seed=9, rotate=False)
        single = fit_sphere(ds, ds.responses, "adapt", PARAMS)
        queries = uniform_sphere_points(30, np.random.default_rng(10))
        np.testing.assert_allclose(
            ensemble_predict(forest, queries), predict_sphere(single, queries), atol=1e-12,
        )

    def test_mean_aggregation_pointwise(self):
        ds = small_sphere(seed=11)
        forest = rre_fit(ds, ds.responses, 5, PARAMS, seed=11)
        queries = uniform_sphere_points(12, np.random.default_rng(12))
        member_preds = np.stack([predict_sphere(m, queries, shrunk=True) for m in forest.members])
        np.testing.assert_allclose(ensemble_predict(forest, queries), member_preds.mean(axis=0), atol=1e-12)

    def test_members_disagree_under_rotations(self):
        ds = small_sphere(n=120, seed=13)
        forest = rre_fit(ds, ds.responses, 6, PARAMS, seed=13)
        queries = uniform_sphere_points(40, np.random.default_rng(14))
        member_preds = np.stack([predict_sphere(m, queries) for m in forest.members])
        assert member_preds.var(axis=0).mean() > 0

    def test_permutation_invariance(self):
        ds = small_sphere(seed=15)
        forest = rre_fit(ds, ds.responses, 4, PARAMS, seed=15)
        shuffled = ForestEnsemble(forest.members[::-1], forest.kind, forest.responses, forest.rule)
        queries = uniform_sphere_points(10, np.random.default_rng(16))
        np.testing.assert_allclose(
            ensemble_predict(forest, queries), ensemble_predict(shuffled, queries), atol=1e-12,
        )


class TestQuantiles:
    def test_weights_sum_to_one(self):
        ds = small_sphere(n=90, seed=17)
        forest = rre_fit(ds, ds.responses, 7, PARAMS, seed=17)
        queries = uniform_sphere_points(25, np.random.default_rng(18))
        for q in queries:
            weights = quantile_weights(forest, q)
            assert weights.min() >= 0
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_tree_leaf_weights(self):
        ds = small_sphere(n=40, seed=19)
        forest = rre_fit(ds, ds.responses, 1, GridFitParams(max_depth=2), seed=19, rotate=False)
        query = uniform_sphere_points(1, np.random.default_rng(20))[0]
        from uhwt.sphere import model_leaf_members

        members = model_leaf_members(forest.members[0], query[None, :])[0]
        weights = quantile_weights(forest, query)
        np.testing.assert_allclose(weights[members], 1.0 / members.size, atol=1e-15)
        others = np.setdiff1d(np.arange(ds.n), members)
        np.testing.assert_allclose(weights[others], 0.0, atol=0)

    def test_root_only_trees_give_uniform_weights_per_face(self):
        ds = small_sphere(n=50, seed=21)
        forest = rre_fit(ds, ds.responses, 3, GridFitParams(max_depth=0), seed=21, rotate=False)
        # identity rotations, root-only trees: the leaf is the whole face
        query = ds.locations[0]
        from uhwt.sphere import model_leaf_members

        members = model_leaf_members(forest.members[0], query[None, :])[0]
        weights = quantile_weights(forest, query)
        np.testing.assert_allclose(weights[members], 1.0 / members.size, atol=1e-15)

    def test_quantile_inversion_median_and_max(self):
        rng = np.random.default_rng(22)
        n = 31
        ds = small_sphere(n=n, seed=23)
        forest = rre_fit(ds, ds.responses, 2, GridFitParams(max_depth=0), seed=23, rotate=False)
        # force uniform weights by querying with root-only trees replaced
        query = ds.locations[5]
        weights = quantile_weights(forest, query)
        if np.allclose(weights, 1.0 / n):
            assert quantile_predict(forest, query, 0.5) == float(np.median(ds.responses))
        top = quantile_predict(forest, query, 0.999)
        assert top == float(ds.responses[weights > 0].max())

    def test_invalid_quantile(self):
        ds = small_sphere(n=20, seed=24)
        forest = rre_fit(ds, ds.responses, 1, PARAMS, seed=24)
        with pytest.raises(InvalidQuantileError):
            quantile_predict(forest, ds.locations[0], 1.0)


class TestModelFiles:
    def test_round_trip_predictions(self, tmp_path):
        ds = small_sphere(seed=25)
        ens = boost_fit(ds, ds.responses, 3, 0.25, GridFitParams(max_depth=3),
                        soft_c=0.15, seed=25)
        path = tmp_path / "model.json"
        save_boost(ens, path)
        loaded = load_boost(path)
        queries = uniform_sphere_points(40, np.random.default_rng(26))
        np.testing.assert_array_equal(
            ensemble_predict(ens, queries), ensemble_predict(loaded, queries),
        )

    def test_stage_record_schema(self):
        ds = small_sphere(seed=27)
        ens = boost_fit(ds, ds.responses, 2, 0.5, GridFitParams(max_depth=2), seed=27)
        payload = boost_to_dict(ens)
        assert payload["format"] == "uhwt-boost"
        for rec in payload["stages"]:
            assert len(rec["rotation"]) == 9
            assert len(rec["face_trees"]) == 20
            assert set(rec) >= {"rotation", "face_trees", "tau_t", "eta"}

    def test_grid_ensemble_round_trip(self):
        rng = np.random.default_rng(28)
        ds = grid_dataset(np.arange(16.0)[:, None], rng.normal(size=16))
        ens = boost_fit(ds, ds.responses, 3, 0.5, GridFitParams(max_depth=3), seed=28)
        loaded = boost_from_dict(boost_to_dict(ens))
        np.testing.assert_array_equal(
            ensemble_predict(ens, ds.locations), ensemble_predict(loaded, ds.locations),
        )


def test_negative_soft_c_is_rejected():
    data = generate_sphere_synthetic("fig5", 30, 0.1, seed=1)
    with pytest.raises(ValueError, match="soft_c"):
        boost_fit(data, data.responses, 1, 0.5, GridFitParams(max_depth=4), soft_c=-0.1)
    with pytest.raises(ValueError, match="soft_c"):
        rre_fit(data, data.responses, 1, GridFitParams(max_depth=4), soft_c=-0.1)


def test_forest_members_fit_on_the_calling_thread(monkeypatch):
    import threading

    import uhwt.ensembles as ens

    threads = []
    real = ens.fit_sphere
    monkeypatch.setattr(ens, "fit_sphere",
                        lambda *a, **k: threads.append(threading.get_ident()) or real(*a, **k))
    data = generate_sphere_synthetic("fig5", 30, 0.1, seed=1)
    rre_fit(data, data.responses, 3, GridFitParams(max_depth=4), seed=1)
    assert threads == [threading.get_ident()] * 3

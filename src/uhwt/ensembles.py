"""Boosted and averaged tree ensembles, with quantile-forest intervals.

Boosting is forward stagewise: f_0 = ybar, then f_t = f_{t-1} + eta * g_t
where g_t is a tree (or sphere model) fit to the current residuals, its
coefficients soft-thresholded at tau_t = soft_c * sigma_t * sqrt(2 log n)
with sigma_t the MAD estimate on that stage's own residual coefficients.
On the sphere each stage draws a fresh Haar rotation and the learner is
evaluated at R_t x (rotate=False reuses the identity).

Forests fit every member independently on the full responses and predict
by the mean; quantile prediction inverts the weighted empirical CDF with
the classic leaf-sharing weights.

Every stage and every member is one call of fit_learner, the shared
weak learner: a rotated sphere model or the grid denoise pipeline, with
its threshold tau.  Stage rotations and member rotations draw from named
streams keyed by (seed, stream, index), so results are independent of
evaluation order.  Members and stages are fit one after another on the
calling thread: the work is GIL-bound Python, so worker threads would
only contend for the interpreter lock.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from ._streams import MEMBER, STAGE, stream_rng
from .core import (
    SPHERE,
    batch_reconstruct,
    leaf_member_values,
    run_descent,
    tree_from_dict,
    tree_to_dict,
)
from .errors import InvalidQuantileError
from .grid import fit_shrunk, universal_tau
from .sphere import (
    SphereModel,
    fit_sphere,
    haar_rotation,
    model_descent,
    predict_sphere,
    sphere_shrink,
)


@dataclass
class BoostStage:
    rotation: np.ndarray
    model: object  # SphereModel or UHTree
    tau: float


@dataclass
class BoostEnsemble:
    intercept: float
    eta: float
    stages: list
    kind: str
    rule: str = None

    @property
    def stage_count(self):
        return len(self.stages)


@dataclass
class ForestEnsemble:
    members: list
    kind: str
    responses: np.ndarray = None  # training responses, for quantile inversion
    rule: str = None


def fit_learner(dataset, responses, params, rule, rotation, soft_c):
    """One weak learner fit to responses, soft-thresholded; returns (model, tau).

    On the sphere: a SphereModel grown with `rule` on the rotated locations,
    thresholded at tau = soft_c * sigma_hat * sqrt(2 log n) with its pooled
    MAD sigma_hat.  On a grid: grid.fit_shrunk with soft_a = soft_c
    (`rule` and `rotation` are unused).
    """
    if soft_c < 0:
        raise ValueError("soft_c must be >= 0")
    if dataset.kind != SPHERE:
        return fit_shrunk(dataset, responses, replace(params, soft_a=soft_c))
    model = fit_sphere(dataset, responses, rule, params, rotation=rotation,
                       compute_sigma=soft_c > 0)
    tau = universal_tau(soft_c, model.sigma_hat, dataset.n)
    sphere_shrink(model, tau)
    return model, tau


def _rotation(dataset, rotate, seed, stream, index):
    """Haar rotation of one stage or member on the sphere; None on grids."""
    if dataset.kind != SPHERE:
        return None
    return haar_rotation(stream_rng(seed, stream, index)) if rotate else np.eye(3)


def boost_fit(dataset, responses, n_stages, eta, params, rotate=True,
              soft_c=0.0, rule="adapt", seed=0):
    """Forward stagewise ensemble of residual-fitted learners."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if n_stages < 0:
        raise ValueError("n_stages must be >= 0")
    responses = np.asarray(responses, dtype=np.float64)
    intercept = float(responses.mean())
    fitted = np.full(dataset.n, intercept)
    stages = []
    for t in range(n_stages):
        rotation = _rotation(dataset, rotate, seed, STAGE, t)
        model, tau = fit_learner(dataset, responses - fitted, params, rule, rotation, soft_c)
        # the learner's fitted values at its own training points
        ids, values = leaf_member_values(model.face_trees if dataset.kind == SPHERE else [model], shrunk=True)
        fitted[ids] += eta * values
        stages.append(BoostStage(rotation, model, tau))
    return BoostEnsemble(intercept, eta, stages, dataset.kind, rule)


def _predict(model, queries, kind):
    """Shrunk prediction of one learner, a boosting stage's or a forest member."""
    if kind == SPHERE:
        return predict_sphere(model, queries, shrunk=True)
    return batch_reconstruct(model, queries, shrunk=True)[0]


def boost_predict_trace(ensemble, queries, checkpoints):
    """Predictions after each requested stage count; returns {G: values}."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    todo = sorted(set(int(c) for c in checkpoints))
    acc = np.full(queries.shape[0], ensemble.intercept)
    out = {}
    if 0 in todo:
        out[0] = acc.copy()
    for t, stage in enumerate(ensemble.stages, start=1):
        acc += ensemble.eta * _predict(stage.model, queries, ensemble.kind)
        if t in todo:
            out[t] = acc.copy()
    return out


def ensemble_predict(ensemble, queries):
    """Boosting: ybar + eta * sum of stages; forest: mean over members."""
    queries = np.asarray(queries, dtype=np.float64)
    single = queries.ndim == 1
    pts = np.atleast_2d(queries)
    if isinstance(ensemble, BoostEnsemble):
        out = np.full(pts.shape[0], ensemble.intercept)
        for stage in ensemble.stages:
            out += ensemble.eta * _predict(stage.model, pts, ensemble.kind)
    else:
        out = np.zeros(pts.shape[0])
        for member in ensemble.members:
            out += _predict(member, pts, ensemble.kind)
        out /= len(ensemble.members)
    return float(out[0]) if single else out


def rre_fit(dataset, responses, n_members, params, rule="adapt", seed=0,
            rotate=True, soft_c=0.0):
    """Random-rotation ensemble: independent members on the full responses."""
    if n_members < 1:
        raise ValueError("need at least one member")
    responses = np.asarray(responses, dtype=np.float64)

    members = [
        fit_learner(dataset, responses, params, rule,
                    _rotation(dataset, rotate, seed, MEMBER, i), soft_c)[0]
        for i in range(n_members)
    ]
    return ForestEnsemble(members, dataset.kind, responses.copy(), rule)


# ---------------------------------------------------------------------------
# quantile forests
# ---------------------------------------------------------------------------

def quantile_weights_batch(forest, queries):
    """(m, n) leaf-sharing weights: w_i(x) = mean_b 1{x_i in leaf_b(x)} / |leaf_b(x)|.

    A member whose containing leaf holds no training points spreads its
    1/B mass uniformly; every row sums to one.  Each member adds
    1/(B |leaf|) to the cells of its leaves' member slices (flat.perm) in
    one step.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    m = queries.shape[0]
    n = forest.responses.shape[0]
    weights = np.zeros((m, n))
    b = len(forest.members)
    for member in forest.members:
        flat, _, leaves = (model_descent(member, queries) if forest.kind == SPHERE else
                           run_descent([member], queries, np.zeros(m, dtype=np.intp)))
        size = flat.count[leaves]
        weights[size == 0] += 1.0 / (b * n)
        first = np.cumsum(size) - size  # each row's offset among the repeated cells
        cells = np.arange(size.sum()) + np.repeat(flat.start[leaves] - first, size)
        weights[np.repeat(np.arange(m), size), flat.perm[cells]] += np.repeat(
            1.0 / (b * np.maximum(size, 1)), size)
    return weights


def quantile_weights(forest, query):
    """Weight vector over training indices for one query point."""
    return quantile_weights_batch(forest, np.asarray(query)[None, :])[0]


def quantile_predict(forest, query, q):
    """Generalized inverse of the weighted empirical CDF at level q."""
    return float(quantile_predict_batch(forest, np.asarray(query)[None, :], [q])[0, 0])


def quantile_predict_batch(forest, queries, q_levels):
    """(m, len(q_levels)) quantiles sharing one weights pass per query."""
    for q in q_levels:
        if not 0.0 < q < 1.0:
            raise InvalidQuantileError("q must lie strictly inside (0, 1)")
    weights = quantile_weights_batch(forest, queries)
    order = np.argsort(forest.responses, kind="stable")
    sorted_y = forest.responses[order]
    cumulative = np.cumsum(weights[:, order], axis=1)
    out = np.empty((weights.shape[0], len(q_levels)))
    for j, q in enumerate(q_levels):
        ks = (cumulative < q).sum(axis=1)  # searchsorted(row, q) on the non-decreasing rows
        out[:, j] = sorted_y[np.minimum(ks, order.size - 1)]
    return out


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def _identity9():
    return [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


def _stage_record(stage, eta, kind):
    if kind == SPHERE:
        rotation = [float(v) for v in stage.rotation.ravel()]
        face_trees = [tree_to_dict(tree) for tree in stage.model.face_trees]
        global_mean = stage.model.global_mean
    else:
        rotation = _identity9()
        face_trees = [tree_to_dict(stage.model)]
        global_mean = stage.model.intercept
    return {
        "rotation": rotation,
        "face_trees": face_trees,
        "tau_t": float(stage.tau),
        "eta": float(eta),
        "global_mean": float(global_mean),
    }


def boost_to_dict(ensemble):
    return {
        "format": "uhwt-boost",
        "kind": ensemble.kind,
        "intercept": float(ensemble.intercept),
        "eta": float(ensemble.eta),
        "rule": ensemble.rule,
        "stages": [_stage_record(s, ensemble.eta, ensemble.kind) for s in ensemble.stages],
    }


def boost_from_dict(payload):
    if payload.get("format") != "uhwt-boost":
        raise ValueError("not a serialized boost ensemble")
    kind = payload["kind"]
    stages = []
    for rec in payload["stages"]:
        rotation = np.asarray(rec["rotation"], dtype=np.float64).reshape(3, 3)
        trees = [tree_from_dict(td) for td in rec["face_trees"]]
        if kind == SPHERE:
            model = SphereModel(rotation, trees, rec["global_mean"], payload.get("rule"), None)
        else:
            model = trees[0]
        stages.append(BoostStage(rotation, model, rec["tau_t"]))
    return BoostEnsemble(payload["intercept"], payload["eta"], stages, kind, payload.get("rule"))


def save_boost(ensemble, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(boost_to_dict(ensemble), fh)


def load_boost(path):
    with open(path, "r", encoding="utf-8") as fh:
        return boost_from_dict(json.load(fh))

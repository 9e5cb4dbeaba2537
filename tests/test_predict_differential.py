"""Differential test of every read path against recorded outputs.

The reference file holds, for seeded grid trees, sphere models, a
quantile forest and a boosting run, the outputs of batch_reconstruct
(values and leaf ids), tree_fit_values, predict_sphere,
model_leaf_members, quantile_weights_batch, quantile_predict_batch and
boost_predict_trace.  They were recorded with the per-node descent that
walked a stack of index subsets; the flat level-by-level descent must
reproduce every array exactly (np.array_equal, not a tolerance).

The sphere queries are fig5 samples and the training points.  Points
exactly on a cut, such as the icosahedron's vertices, are left out: the
per-node walk decided their side with a BLAS product whose rounding
depended on how many queries shared the node, so the recorded side was
noise.  test_boundary_queries_do_not_depend_on_the_batch covers them.

Arrays are stored as zlib-compressed little-endian bytes in base64.
Regenerate (only for a deliberate change of the predictions) with

    PYTHONPATH=src python tests/test_predict_differential.py --write
"""

import base64
import json
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from uhwt import GridFitParams, boost_fit, fit_sphere, haar_rotation, rre_fit
from uhwt._streams import FACE, NOISE, stream_rng
from uhwt.core import batch_reconstruct, sphere_dataset, tree_fit_values, tree_from_dict, tree_to_dict
from uhwt.ensembles import boost_predict_trace, quantile_predict_batch, quantile_weights_batch
from uhwt.grid import denoise, fit_uhwt
from uhwt.signals import generate_sphere_synthetic, image_dataset, piecewise_image
from uhwt.sphere import BASE, model_leaf_members, predict_sphere, sphere_shrink

REFERENCE = Path(__file__).with_name("data") / "predict_reference.json"
SEED = 13
RULES = ("balance", "balance4", "adapt", "adapt_vertex")
N_QUERIES = 2000


def _pack(array):
    array = np.ascontiguousarray(array)
    array = array.astype("<i8" if array.dtype.kind in "iu" else "<f8")
    data = base64.b64encode(zlib.compress(array.tobytes(), 9)).decode("ascii")
    return {"dtype": array.dtype.str, "shape": list(array.shape), "data": data}


def _unpack(record):
    raw = zlib.decompress(base64.b64decode(record["data"]))
    return np.frombuffer(raw, dtype=record["dtype"]).reshape(record["shape"])


def _ragged(arrays):
    """A list of index arrays as (concatenation, lengths)."""
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    flat = np.concatenate(arrays).astype(np.int64) if arrays else np.empty(0, dtype=np.int64)
    return {"members": flat, "lengths": lengths}


def _grid_queries(dataset, count):
    """The training locations plus uniform points in their bounding box."""
    lo, hi = dataset.locations.min(axis=0), dataset.locations.max(axis=0)
    extra = lo + (hi - lo) * stream_rng(SEED, NOISE, 1).random((count, dataset.ndim))
    return np.concatenate([dataset.locations, extra])


def _noisy_image(size, sd):
    img = piecewise_image(size, n_blocks=5, seed=SEED)
    return image_dataset(img + sd * stream_rng(SEED, NOISE, size).standard_normal(img.shape))


def _tree_outputs(tree, queries, shrunk, fit_values=True):
    values, leaves = batch_reconstruct(tree, queries, shrunk=shrunk)
    out = {"values": values, "leaves": leaves}
    if fit_values:
        out["fit"] = tree_fit_values(tree, shrunk=shrunk)
    return out


def _grid_case(name):
    if name == "grid_full":
        data = _noisy_image(16, 0.2)
        tree = fit_uhwt(data, data.responses, GridFitParams(max_depth=200))
        return _tree_outputs(tree, _grid_queries(data, 300), False)
    data = _noisy_image(48, 0.5)
    tree = denoise(data, data.responses, GridFitParams(max_depth=30, early_stop_b=0.3, soft_a=0.8))
    queries = _grid_queries(data, 500)
    if name == "grid_loaded":
        copy = tree_from_dict(json.loads(json.dumps(tree_to_dict(tree))))
        return _tree_outputs(copy, queries, True, fit_values=False)
    return _tree_outputs(tree, queries, name == "grid_denoise_shrunk")


def _boundary_points():
    """The base vertices and edge midpoints: on face boundaries and on cuts through vertices."""
    edges = BASE.vertices[BASE.faces[:, [0, 1, 2]]] + BASE.vertices[BASE.faces[:, [1, 2, 0]]]
    mids = edges.reshape(-1, 3)
    return np.concatenate([BASE.vertices, mids / np.linalg.norm(mids, axis=1, keepdims=True)])


def _sphere_case(rule):
    index = RULES.index(rule)
    data = generate_sphere_synthetic("fig5", 300, 0.1, seed=SEED)
    rotation = haar_rotation(stream_rng(SEED, FACE, index))
    model = fit_sphere(data, data.responses, rule, GridFitParams(max_depth=200),
                       rotation=rotation, compute_sigma=True)
    sphere_shrink(model, 0.5 * model.sigma_hat)
    cloud = generate_sphere_synthetic("fig5", N_QUERIES, 0.1, seed=SEED + 1).locations
    queries = np.concatenate([cloud, data.locations])
    return {
        "raw": predict_sphere(model, queries),
        "shrunk": predict_sphere(model, queries, shrunk=True),
        **_ragged(model_leaf_members(model, queries)),
    }


def _hemisphere_forest():
    """A 4-member forest on northern points only, so every member has empty faces."""
    full = generate_sphere_synthetic("fig5", 240, 0.1, seed=SEED)
    north = full.locations[:, 2] > 0.2
    data = sphere_dataset(full.locations[north], full.responses[north])
    forest = rre_fit(data, data.responses, 4, GridFitParams(max_depth=200), rule="adapt", seed=SEED)
    cloud = generate_sphere_synthetic("fig5", 300, 0.1, seed=SEED + 2).locations
    return forest, np.concatenate([cloud, [[0.0, 0.0, -1.0]]])


def _forest_case():
    forest, queries = _hemisphere_forest()
    return {
        "weights": quantile_weights_batch(forest, queries),
        "quantiles": quantile_predict_batch(forest, queries, [0.05, 0.5, 0.95]),
    }


def _boost_case():
    data = generate_sphere_synthetic("fig5", 120, 0.1, seed=SEED)
    ens = boost_fit(data, data.responses, 5, 0.2, GridFitParams(max_depth=200),
                    soft_c=0.2, rule="adapt", seed=SEED)
    queries = generate_sphere_synthetic("fig5", N_QUERIES, 0.1, seed=SEED + 3).locations
    trace = boost_predict_trace(ens, queries, range(6))
    return {f"stage_{t}": values for t, values in trace.items()}


CASES = {
    "grid_full": lambda: _grid_case("grid_full"),
    "grid_denoise_raw": lambda: _grid_case("grid_denoise_raw"),
    "grid_denoise_shrunk": lambda: _grid_case("grid_denoise_shrunk"),
    "grid_loaded": lambda: _grid_case("grid_loaded"),
    **{f"sphere_{rule}": (lambda rule=rule: _sphere_case(rule)) for rule in RULES},
    "quantile_forest": _forest_case,
    "boost_trace": _boost_case,
}


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_reference(name):
    want = _load_reference()[name]
    got = CASES[name]()
    assert set(got) == set(want)
    for key, record in want.items():
        expected = _unpack(record)
        actual = np.asarray(got[key])
        assert actual.shape == expected.shape, f"{name}.{key}: shape"
        assert np.array_equal(actual, expected), (
            f"{name}.{key}: {int(np.sum(actual != expected))} entries differ")


def test_reference_covers_quad_nodes_and_empty_faces():
    model_rules = {}
    data = generate_sphere_synthetic("fig5", 300, 0.1, seed=SEED)
    for index, rule in enumerate(RULES):
        model = fit_sphere(data, data.responses, rule, GridFitParams(max_depth=200),
                           rotation=haar_rotation(stream_rng(SEED, FACE, index)))
        model_rules[rule] = {nd.split.kind for t in model.face_trees for nd in t.nodes if nd.split}
    assert {"quad", "pair"} <= model_rules["balance4"]
    assert "edge" in model_rules["adapt"]
    forest, queries = _hemisphere_forest()
    assert all(members.size == 0
               for members in (model_leaf_members(m, queries[-1:])[0] for m in forest.members))


@pytest.mark.parametrize("rule,rotate", [
    pytest.param(rule, rotate, id=rule + ("-rotated" if rotate else "")) for rotate in (False, True) for rule in RULES])
def test_boundary_queries_do_not_depend_on_the_batch(rule, rotate):
    # A point exactly on a cut has no well-defined side: its determinant is
    # rounding noise.  The answer may be either side, but the same one
    # whether the point is queried alone or among others.  The identity
    # rotation keeps the rotated coordinates exact, so only the face
    # assignment and the descent decide; under a Haar rotation the
    # boundary points are mapped back through it, and the rotation itself
    # must round each query the same way alone and in a batch.
    data = generate_sphere_synthetic("fig5", 300, 0.1, seed=SEED)
    rotation = haar_rotation(stream_rng(SEED, FACE, RULES.index(rule))) if rotate else np.eye(3)
    model = fit_sphere(data, data.responses, rule, GridFitParams(max_depth=200), rotation=rotation)
    cloud = generate_sphere_synthetic("fig5", 200, 0.1, seed=SEED + 1).locations
    boundary = _boundary_points() @ rotation if rotate else _boundary_points()
    queries = np.concatenate([cloud, boundary])
    alone = np.array([predict_sphere(model, q) for q in queries])
    assert np.array_equal(predict_sphere(model, queries), alone)
    in_batch = model_leaf_members(model, queries)
    assert all(np.array_equal(model_leaf_members(model, q[None])[0], members)
               for q, members in zip(queries, in_batch))


def _write():
    out = {name: {key: _pack(value) for key, value in build().items()}
           for name, build in CASES.items()}
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_predict_differential.py --write")
    _write()

"""Differential test of the sphere fit against recorded face trees.

The reference file holds, for six seeded fit_sphere configurations, every
face tree's node sequence (split kind and edge per node, member counts)
and detail coefficients.  The values were recorded before the per-node
geometry moved off numpy's small-array calls; any change to the geometry
kernels must reproduce them: identical splits, and w within 1e-12.

Regenerate (only for a deliberate change of the fitted trees) with

    PYTHONPATH=src python tests/test_sphere_differential.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import uhwt.sphere as sphere_mod
from uhwt import GridFitParams, fit_sphere, haar_rotation
from uhwt._streams import FACE, stream_rng
from uhwt.signals import generate_sphere_synthetic

REFERENCE = Path(__file__).with_name("data") / "sphere_fit_reference.json"
SEED = 11
N = 200

# (name, rule, GridFitParams kwargs); "adapt_pilot" takes the pooled pilot
# sigma path (early_stop_b > 0, no sigma override)
CONFIGS = (
    ("balance", "balance", {"max_depth": 200}),
    ("balance4", "balance4", {"max_depth": 200}),
    ("adapt", "adapt", {"max_depth": 200}),
    ("adapt_vertex", "adapt_vertex", {"max_depth": 200}),
    ("adapt_pilot", "adapt", {"max_depth": 200, "early_stop_b": 0.5}),
    ("adapt_min_leaf", "adapt", {"max_depth": 8, "min_leaf": 3}),
)


def _fit(index, rule, kwargs):
    data = generate_sphere_synthetic("fig5", N, 0.1, seed=SEED)
    rotation = haar_rotation(stream_rng(SEED, FACE, index))
    return fit_sphere(data, data.responses, rule, GridFitParams(**kwargs), rotation=rotation)


def _split_code(node):
    if node.split is None:
        return "L"
    if node.split.kind == "edge":
        return f"E{node.split.edge}"
    return {"quad": "Q", "pair": "P"}[node.split.kind]


def model_record(model):
    faces = []
    for tree in model.face_trees:
        faces.append({
            "splits": " ".join(_split_code(nd) for nd in tree.nodes),
            "counts": [nd.cell.mass for nd in tree.nodes],
            "w": [float(nd.w) for nd in tree.nodes if nd.w is not None],
        })
    return {"sigma_hat": model.sigma_hat, "faces": faces}


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("index", range(len(CONFIGS)), ids=[c[0] for c in CONFIGS])
def test_face_trees_match_reference(index):
    name, rule, kwargs = CONFIGS[index]
    want = _load_reference()[name]
    got = model_record(_fit(index, rule, kwargs))
    if want["sigma_hat"] is None:
        assert got["sigma_hat"] is None
    else:
        assert abs(got["sigma_hat"] - want["sigma_hat"]) <= 1e-12
    assert len(got["faces"]) == len(want["faces"]) == 20
    for j, (g, w) in enumerate(zip(got["faces"], want["faces"])):
        assert g["splits"] == w["splits"], f"face {j}: split sequence differs"
        assert g["counts"] == w["counts"], f"face {j}: member counts differ"
        np.testing.assert_allclose(g["w"], w["w"], rtol=0, atol=1e-12, err_msg=f"face {j}")


def test_configurations_reach_the_fallback_and_the_pilot(monkeypatch):
    calls = []
    real = sphere_mod.fan_split
    monkeypatch.setattr(sphere_mod, "fan_split", lambda *a, **k: calls.append(1) or real(*a, **k))
    index = [c[0] for c in CONFIGS].index("adapt")
    _fit(index, *CONFIGS[index][1:])
    assert calls, "the adapt configuration no longer reaches fan_split"
    assert _load_reference()["adapt_pilot"]["sigma_hat"] > 0.0


def _write():
    out = {name: model_record(_fit(i, rule, kwargs)) for i, (name, rule, kwargs) in enumerate(CONFIGS)}
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_sphere_differential.py --write")
    _write()

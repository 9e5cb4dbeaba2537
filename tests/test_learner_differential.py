"""Differential test of the ensemble learner path against recorded values.

The reference file holds, for seeded grid and sphere boosting runs and a
three-member sphere forest, every learner's threshold tau (boosting),
node counts and the detail coefficients w and w_tilde, plus the forest's
quantile bands.  The values were recorded before boosting and forests
shared one learner builder; any change to that path must reproduce them
within 1e-12.

Regenerate (only for a deliberate change of the fitted learners) with

    PYTHONPATH=src python tests/test_learner_differential.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from uhwt import GridFitParams, boost_fit, rre_fit
from uhwt._streams import NOISE, stream_rng
from uhwt.ensembles import quantile_predict_batch
from uhwt.signals import generate_sphere_synthetic, image_dataset, piecewise_image, sphere_test_grid

REFERENCE = Path(__file__).with_name("data") / "learner_reference.json"
SEED = 5
TOL = 1e-12

# (name, soft_c, GridFitParams kwargs) for 4-stage grid boosting on 16x16
GRID_CASES = (
    ("grid_plain", 0.0, {"max_depth": 8}),
    ("grid_soft", 0.5, {"max_depth": 8}),
    ("grid_early_stop", 0.5, {"max_depth": 8, "early_stop_b": 0.3}),
    ("grid_sigma", 0.5, {"max_depth": 8, "sigma": 0.2}),
)
CASES = tuple(name for name, *_ in GRID_CASES) + ("sphere_boost", "sphere_forest")


def _grid_data():
    img = piecewise_image(16, n_blocks=5, seed=SEED)
    noisy = img + 0.2 * stream_rng(SEED, NOISE, 0).standard_normal(img.shape)
    return image_dataset(noisy)


def _sphere_data():
    return generate_sphere_synthetic("fig5", 120, 0.1, seed=SEED)


def _trees(model):
    return getattr(model, "face_trees", None) or [model]


def learner_record(model):
    trees = _trees(model)
    internal = [nd for tree in trees for nd in tree.nodes if nd.w is not None]
    return {
        "nodes": [tree.node_count() for tree in trees],
        "w": [float(nd.w) for nd in internal],
        "w_tilde": [float(nd.w_tilde) for nd in internal],
    }


def case_record(name):
    if name.startswith("grid_"):
        _, soft_c, kwargs = next(case for case in GRID_CASES if case[0] == name)
        data = _grid_data()
        ens = boost_fit(data, data.responses, 4, 0.3, GridFitParams(**kwargs),
                        soft_c=soft_c, seed=SEED)
    elif name == "sphere_boost":
        data = _sphere_data()
        ens = boost_fit(data, data.responses, 3, 0.2, GridFitParams(max_depth=200),
                        soft_c=0.2, rule="adapt", seed=SEED)
    else:
        data = _sphere_data()
        forest = rre_fit(data, data.responses, 3, GridFitParams(max_depth=200),
                         rule="adapt", seed=SEED)
        queries, _ = sphere_test_grid("fig5", 40, SEED)
        bands = quantile_predict_batch(forest, queries, [0.1, 0.5, 0.9])
        return {
            "members": [learner_record(m) for m in forest.members],
            "bands": bands.tolist(),
        }
    return {
        "stages": [{"tau": float(s.tau), **learner_record(s.model)} for s in ens.stages],
    }


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _assert_learner(got, want, where):
    assert got["nodes"] == want["nodes"], f"{where}: node counts differ"
    np.testing.assert_allclose(got["w"], want["w"], rtol=0, atol=TOL, err_msg=f"{where} w")
    np.testing.assert_allclose(got["w_tilde"], want["w_tilde"], rtol=0, atol=TOL,
                               err_msg=f"{where} w_tilde")


@pytest.mark.parametrize("name", CASES)
def test_learners_match_reference(name):
    want = _load_reference()[name]
    got = case_record(name)
    if "stages" in want:
        assert len(got["stages"]) == len(want["stages"])
        for t, (g, w) in enumerate(zip(got["stages"], want["stages"])):
            assert abs(g["tau"] - w["tau"]) <= TOL, f"stage {t}: tau differs"
            _assert_learner(g, w, f"stage {t}")
    else:
        assert len(got["members"]) == len(want["members"]) == 3
        for i, (g, w) in enumerate(zip(got["members"], want["members"])):
            _assert_learner(g, w, f"member {i}")
        np.testing.assert_allclose(got["bands"], want["bands"], rtol=0, atol=TOL)


def test_reference_exercises_shrinkage_and_early_stopping():
    ref = _load_reference()
    assert all(s["tau"] == 0.0 for s in ref["grid_plain"]["stages"])
    for name in ("grid_soft", "grid_early_stop", "grid_sigma", "sphere_boost"):
        assert all(s["tau"] > 0.0 for s in ref[name]["stages"]), name
    plain = sum(sum(s["nodes"]) for s in ref["grid_soft"]["stages"])
    stopped = sum(sum(s["nodes"]) for s in ref["grid_early_stop"]["stages"])
    assert stopped < plain


def _write():
    out = {name: case_record(name) for name in CASES}
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_learner_differential.py --write")
    _write()

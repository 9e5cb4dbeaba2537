"""The tree and ensemble file formats, pinned byte for byte.

The reference file holds the sha256 and length of json.dumps of
tree_to_dict for a seeded grid.denoise tree and for the face trees of
every sphere rule at the identity rotation, and of boost_to_dict for a
three-stage rotated adapt ensemble.  They were recorded before the trees
became flat node arrays.  A freshly fit model must dump to those bytes,
and loading the bytes and dumping again must give them back.

The ensemble's stages then rotated their points with the BLAS product
points @ rotation.T.  The rotation now sums in a fixed elementwise order,
so a point's rotated coordinates no longer depend on its batch, and that
moves the data-dependent fan cut points (xi, cut_normal) of a rotated fit
by an ulp or so.  The ensemble is therefore fit with the recording's
rotation arithmetic: the pin checks the file format, not the rotation.

Regenerate (only for a deliberate change of the file format) with

    PYTHONPATH=src python tests/test_format_pin.py --write
"""

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from uhwt import GridFitParams, boost_fit, fit_sphere, sphere
from uhwt._streams import NOISE, stream_rng
from uhwt.core import tree_from_dict, tree_to_dict
from uhwt.ensembles import boost_from_dict, boost_to_dict
from uhwt.grid import denoise
from uhwt.signals import generate_sphere_synthetic, image_dataset, piecewise_image
from uhwt.sphere import sphere_shrink
from uhwt.sphere_geom import RULES

REFERENCE = Path(__file__).with_name("data") / "format_pin.json"
SEED = 17


def _grid_text():
    img = piecewise_image(24, n_blocks=5, seed=SEED)
    data = image_dataset(img + 0.4 * stream_rng(SEED, NOISE, 0).standard_normal(img.shape))
    tree = denoise(data, data.responses, GridFitParams(max_depth=30, early_stop_b=0.3, soft_a=0.8))
    return json.dumps(tree_to_dict(tree))


def _sphere_text(rule):
    data = generate_sphere_synthetic("fig5", 200, 0.1, seed=SEED)
    model = fit_sphere(data, data.responses, rule, GridFitParams(max_depth=200), compute_sigma=True)
    sphere_shrink(model, 0.5 * model.sigma_hat)
    return json.dumps([tree_to_dict(tree) for tree in model.face_trees])


def _boost_text():
    data = generate_sphere_synthetic("fig5", 120, 0.1, seed=SEED)
    with mock.patch.object(sphere, "_rotate", lambda points, rotation: points @ rotation.T):
        ens = boost_fit(data, data.responses, 3, 0.2, GridFitParams(max_depth=200),
                        soft_c=0.2, rule="adapt", seed=SEED)
    return json.dumps(boost_to_dict(ens))


def _reload_tree_list(text):
    return json.dumps([tree_to_dict(tree_from_dict(rec)) for rec in json.loads(text)])


CASES = {
    "grid_denoise": (_grid_text, lambda text: json.dumps(tree_to_dict(tree_from_dict(json.loads(text))))),
    **{f"sphere_{rule}": (lambda rule=rule: _sphere_text(rule), _reload_tree_list) for rule in RULES},
    "boost_adapt": (_boost_text, lambda text: json.dumps(boost_to_dict(boost_from_dict(json.loads(text))))),
}


def _digest(text):
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), "length": len(text)}


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(CASES))
def test_fit_and_reload_dump_the_pinned_bytes(name):
    fit, reload = CASES[name]
    want = _load_reference()[name]
    text = fit()
    assert _digest(text) == want
    assert reload(text) == text


def _write():
    out = {name: _digest(fit()) for name, (fit, _) in CASES.items()}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_format_pin.py --write")
    _write()

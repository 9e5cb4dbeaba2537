"""Differential test of the greedy grid fit against recorded trees.

The reference file holds, for seeded fit_uhwt runs on criterion 01's
shape kinds (a line, a square and a cube of standard normal values) and
on three growth variants (min_leaf, median splits only, early stopping
through the pilot sigma), every node's split (dim, loc) in node order and
every detail coefficient.  A second file holds growth cases recorded
with the node-by-node grower before level-synchronous growth replaced
it: a depth cap that stops growth mid-tree, scattered non-lattice
points, an image with a constant block (degenerate parents), median
splits with min_leaf, and a small denoise with pilot sigma, early
stopping and soft thresholding, whose shrunk coefficients are recorded
as well.  Any change to the grid split search must reproduce them:
identical splits, and w (and w_tilde) within 1e-12.

Regenerate (only for a deliberate change of the fitted trees) with

    PYTHONPATH=src python tests/test_grid_differential.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from uhwt import GridFitParams, denoise, fit_uhwt, grid_dataset
from uhwt._streams import DATA, stream_rng
from uhwt.signals import image_dataset, piecewise_image

REFERENCE = Path(__file__).with_name("data") / "grid_fit_reference.json"
GROWTH_REFERENCE = REFERENCE.with_name("grid_growth_reference.json")
SEED = 13
TOL = 1e-12

# (name, shape, GridFitParams kwargs); max_depth 5000 is full depth
CASES = (
    ("line", (256,), {"max_depth": 5000}),
    ("square", (16, 16), {"max_depth": 5000}),
    ("cube", (6, 6, 6), {"max_depth": 5000}),
    ("square_min_leaf", (16, 16), {"max_depth": 5000, "min_leaf": 3}),
    ("square_median", (16, 16), {"max_depth": 5000, "median_splits_only": True}),
    ("square_pilot", (16, 16), {"max_depth": 5000, "early_stop_b": 1.0}),
)


def _fit(index, shape, kwargs):
    values = stream_rng(SEED, DATA, index).standard_normal(shape)
    ds = image_dataset(values)
    return fit_uhwt(ds, ds.responses, GridFitParams(**kwargs))


def _square(rng):
    return image_dataset(rng.standard_normal((16, 16)))


def _scattered(rng):
    return grid_dataset(rng.uniform(size=(300, 2)), rng.standard_normal(300))


def _constant_block(rng):
    values = rng.standard_normal((16, 16))
    values[4:12, 2:10] = 0.5
    return image_dataset(values)


def _noisy_blocks(rng):
    clean = piecewise_image(48, n_blocks=6, seed=7)
    return image_dataset(clean + clean.std() * rng.standard_normal(clean.shape))


# (name, dataset builder, GridFitParams kwargs, fit through denoise)
GROWTH_CASES = (
    ("square_depth_cap", _square, {"max_depth": 4}, False),
    ("scattered", _scattered, {"max_depth": 5000}, False),
    ("constant_block", _constant_block, {"max_depth": 5000}, False),
    ("square_median_min_leaf", _square,
     {"max_depth": 5000, "median_splits_only": True, "min_leaf": 3}, False),
    ("denoise_48", _noisy_blocks, {"max_depth": 30, "early_stop_b": 0.3, "soft_a": 0.8}, True),
)


def _fit_growth(index):
    _, build, kwargs, shrunk = GROWTH_CASES[index]
    ds = build(stream_rng(SEED, DATA, len(CASES) + index))
    fit = denoise if shrunk else fit_uhwt
    return fit(ds, ds.responses, GridFitParams(**kwargs))


def tree_record(tree, shrunk=False):
    record = {
        "splits": [None if nd.split is None else [int(nd.split.dim), float(nd.split.loc)]
                   for nd in tree.nodes],
        "w": [float(nd.w) for nd in tree.nodes if nd.w is not None],
    }
    if shrunk:
        record["w_tilde"] = [float(nd.w_tilde) for nd in tree.nodes if nd.w is not None]
    return record


def _load_reference(path=REFERENCE):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("index", range(len(CASES)), ids=[c[0] for c in CASES])
def test_trees_match_reference(index):
    name, shape, kwargs = CASES[index]
    want = _load_reference()[name]
    got = tree_record(_fit(index, shape, kwargs))
    assert got["splits"] == want["splits"]
    np.testing.assert_allclose(got["w"], want["w"], rtol=0, atol=TOL)


@pytest.mark.parametrize("index", range(len(GROWTH_CASES)), ids=[c[0] for c in GROWTH_CASES])
def test_growth_cases_match_reference(index):
    name, _, _, shrunk = GROWTH_CASES[index]
    want = _load_reference(GROWTH_REFERENCE)[name]
    got = tree_record(_fit_growth(index), shrunk)
    assert got["splits"] == want["splits"]
    for key in ("w", "w_tilde") if shrunk else ("w",):
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=TOL)


def test_reference_exercises_every_variant():
    ref = _load_reference()
    full = len(ref["square"]["splits"])
    assert full == 2 * 16 * 16 - 1  # full depth reaches singleton leaves
    for name in ("square_min_leaf", "square_median", "square_pilot"):
        assert ref[name]["splits"] != ref["square"]["splits"], name
    assert len(ref["square_pilot"]["splits"]) < full


def test_growth_reference_exercises_every_variant():
    ref = _load_reference(GROWTH_REFERENCE)
    capped = ref["square_depth_cap"]["splits"]
    assert len(capped) == 2 ** 5 - 1 and capped.count(None) == 16  # the cap stops growth
    assert len(ref["scattered"]["splits"]) == 2 * 300 - 1
    # the constant block's 64 pixels share leaves: fewer than 2n - 1 nodes
    assert len(ref["constant_block"]["splits"]) < 2 * 16 * 16 - 1
    assert len(ref["square_median_min_leaf"]["splits"]) < 2 * 16 * 16 - 1  # min_leaf 3 stops early
    denoised = ref["denoise_48"]
    assert 0 < sum(wt == 0.0 for wt in denoised["w_tilde"]) < len(denoised["w_tilde"])


def _dump(path, out):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")


def _write():
    _dump(REFERENCE, {name: tree_record(_fit(i, shape, kwargs))
                      for i, (name, shape, kwargs) in enumerate(CASES)})
    _dump(GROWTH_REFERENCE, {case[0]: tree_record(_fit_growth(i), case[3])
                             for i, case in enumerate(GROWTH_CASES)})


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_grid_differential.py --write")
    _write()

"""Differential test of the greedy grid fit against recorded trees.

The reference file holds, for seeded fit_uhwt runs on criterion 01's
shape kinds (a line, a square and a cube of standard normal values) and
on three growth variants (min_leaf, median splits only, early stopping
through the pilot sigma), every node's split (dim, loc) in node order and
every detail coefficient.  Any change to the grid split search must
reproduce them: identical splits, and w within 1e-12.

Regenerate (only for a deliberate change of the fitted trees) with

    PYTHONPATH=src python tests/test_grid_differential.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from uhwt import GridFitParams, fit_uhwt
from uhwt._streams import DATA, stream_rng
from uhwt.signals import image_dataset

REFERENCE = Path(__file__).with_name("data") / "grid_fit_reference.json"
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


def tree_record(tree):
    return {
        "splits": [None if nd.split is None else [int(nd.split.dim), float(nd.split.loc)]
                   for nd in tree.nodes],
        "w": [float(nd.w) for nd in tree.nodes if nd.w is not None],
    }


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("index", range(len(CASES)), ids=[c[0] for c in CASES])
def test_trees_match_reference(index):
    name, shape, kwargs = CASES[index]
    want = _load_reference()[name]
    got = tree_record(_fit(index, shape, kwargs))
    assert got["splits"] == want["splits"]
    np.testing.assert_allclose(got["w"], want["w"], rtol=0, atol=TOL)


def test_reference_exercises_every_variant():
    ref = _load_reference()
    full = len(ref["square"]["splits"])
    assert full == 2 * 16 * 16 - 1  # full depth reaches singleton leaves
    for name in ("square_min_leaf", "square_median", "square_pilot"):
        assert ref[name]["splits"] != ref["square"]["splits"], name
    assert len(ref["square_pilot"]["splits"]) < full


def _write():
    out = {name: tree_record(_fit(i, shape, kwargs)) for i, (name, shape, kwargs) in enumerate(CASES)}
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_grid_differential.py --write")
    _write()

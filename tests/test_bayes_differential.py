"""Differential test of the Bayesian layer against recorded values.

The reference file holds, on seeded small lattices, the exact marginal
likelihood phi (default prior, ``no_stop`` and a two-state latent chain),
the root's exact posterior split distribution, a seeded prior tree, the
log target of an MCMC-grown tree (with and without the location prior)
and a 40-sweep backfit (fitted draws and the sampled tree records).  Any
change to the recursion, the split law or the chain's use of the random
stream must reproduce them: identical tree structures, and numbers
within 1e-12 (relative for phi, whose scale is arbitrary).

Regenerate (only for a deliberate change of the posterior) with

    PYTHONPATH=src python tests/test_bayes_differential.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from uhwt import (
    CoefficientModel,
    LatentMarkov,
    McmcTree,
    RuhwtPrior,
    backfit,
    mcmc_step,
    phi,
    sample_prior_tree,
)
from uhwt._streams import DATA, NOISE, stream_rng
from uhwt.bayes import log_tree_target, posterior_split_distribution
from uhwt.core import root_cell_grid
from uhwt.signals import diamond_image, image_dataset

REFERENCE = Path(__file__).with_name("data") / "bayes_reference.json"
SEED = 17
TOL = 1e-12

PRIOR = RuhwtPrior(max_depth=8)
MODEL = CoefficientModel("gaussian", 0.3)
LATENT = LatentMarkov(
    kernels=[[[0.7, 0.3], [0.2, 0.8]]],
    state_models=(CoefficientModel("gaussian", 0.3, sigma_w=0.1),
                  CoefficientModel("gaussian", 0.3, sigma_w=2.0)),
)


def _lattice(size, stream):
    img = diamond_image(size) + 0.3 * stream_rng(SEED, NOISE, stream).standard_normal((size, size))
    return image_dataset(img)


def _phi_cases():
    ds = _lattice(4, 0)
    root = root_cell_grid(ds)
    small = _lattice(3, 1)
    return {
        "default": phi(root, PRIOR, MODEL, ds, ds.responses),
        "no_stop": phi(root, PRIOR, MODEL, ds, ds.responses, no_stop=True),
        "latent": phi(root_cell_grid(small), PRIOR, None, small, small.responses, latent=LATENT),
    }


def _root_distribution():
    ds = _lattice(4, 0)
    stop, entries = posterior_split_distribution(root_cell_grid(ds), PRIOR, MODEL, ds, ds.responses)
    return {"stop": stop, "entries": [[int(d), float(loc), float(p)] for d, loc, p in entries]}


def _prior_tree():
    ds = _lattice(6, 2)
    tree = sample_prior_tree(PRIOR, ds, stream_rng(SEED, DATA, 0))
    return [None if nd.split is None else [int(nd.split.dim), float(nd.split.loc)]
            for nd in tree.nodes]


def _grown_tree():
    ds = _lattice(6, 2)
    tree = McmcTree(ds)
    rng = stream_rng(SEED, DATA, 1)
    accepted = [bool(mcmc_step(tree, ds, PRIOR, 0.3, rng, model=MODEL, include_swap=True))
                for _ in range(300)]
    return {
        "accepted": accepted,
        "signature": json.loads(json.dumps(tree.signature())),
        "log_target": log_tree_target(tree, PRIOR, ds.responses, MODEL),
        "log_target_no_location": log_tree_target(tree, PRIOR, ds.responses, MODEL,
                                                  include_location_prior=False),
    }


def _backfit():
    ds = _lattice(8, 3)
    draws = backfit(ds, ds.responses, 4, 40, PRIOR, CoefficientModel("gaussian", 0.3),
                    seed=SEED, store_every=4, coef_scale=0.5)
    return {
        "fitted": draws.fitted.tolist(),
        "mus": draws.mus.tolist(),
        "sweeps": list(draws.sweeps),
        "ensembles": draws.ensembles,
    }


def reference_record():
    return {
        "phi": _phi_cases(),
        "root_distribution": _root_distribution(),
        "prior_tree": _prior_tree(),
        "grown_tree": _grown_tree(),
        "backfit": _backfit(),
    }


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _assert_records_close(got, want, where):
    """Equal nested tree records: identical structure, coef within TOL."""
    assert got.keys() == want.keys(), where
    for key, value in want.items():
        if key == "coef":
            assert abs(got[key] - value) <= TOL, where
        elif isinstance(value, dict):
            _assert_records_close(got[key], value, where)
        else:
            assert got[key] == value, f"{where}: {key}"


@pytest.mark.parametrize("case", ["default", "no_stop", "latent"])
def test_phi_matches_reference(case):
    want = _load_reference()["phi"][case]
    got = _phi_cases()[case]
    assert got > 0.0
    np.testing.assert_allclose(got, want, rtol=TOL, atol=0)


def test_root_split_distribution_matches_reference():
    want = _load_reference()["root_distribution"]
    got = _root_distribution()
    assert abs(got["stop"] - want["stop"]) <= TOL
    assert [e[:2] for e in got["entries"]] == [e[:2] for e in want["entries"]]
    np.testing.assert_allclose([e[2] for e in got["entries"]], [e[2] for e in want["entries"]],
                               rtol=0, atol=TOL)


def test_prior_tree_matches_reference():
    assert _prior_tree() == _load_reference()["prior_tree"]


def test_grown_tree_target_matches_reference():
    want = _load_reference()["grown_tree"]
    got = _grown_tree()
    assert got["accepted"] == want["accepted"]
    assert got["signature"] == want["signature"]
    assert abs(got["log_target"] - want["log_target"]) <= TOL
    assert abs(got["log_target_no_location"] - want["log_target_no_location"]) <= TOL


def test_backfit_matches_reference():
    want = _load_reference()["backfit"]
    got = _backfit()
    assert got["sweeps"] == want["sweeps"]
    np.testing.assert_allclose(got["fitted"], want["fitted"], rtol=0, atol=TOL)
    np.testing.assert_allclose(got["mus"], want["mus"], rtol=0, atol=TOL)
    assert len(got["ensembles"]) == len(want["ensembles"])
    for k, (g_ens, w_ens) in enumerate(zip(got["ensembles"], want["ensembles"])):
        assert len(g_ens) == len(w_ens)
        for t, (g, w) in enumerate(zip(g_ens, w_ens)):
            _assert_records_close(g, w, f"draw {k} tree {t}")


def test_reference_exercises_the_chain():
    ref = _load_reference()
    grown = ref["grown_tree"]
    assert 0 < sum(grown["accepted"]) < len(grown["accepted"])
    assert grown["signature"] is not None
    assert any(rec is not None for rec in ref["prior_tree"])
    assert any("dim" in tree for ens in ref["backfit"]["ensembles"] for tree in ens)


def _write():
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference_record(), fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_bayes_differential.py --write")
    _write()

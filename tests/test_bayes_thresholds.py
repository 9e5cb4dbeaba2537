"""The Bayesian split law cuts between any two distinct coordinates.

Adjacent doubles put 0.5 * (a + b) onto the lower coordinate and huge
coordinates overflow it; either way a child would be empty.  The split law
takes grid._midpoint's threshold, so phi, prior draws and the chain see two
nonempty children and no floating-point warning.
"""

import math
import warnings

import numpy as np
import pytest

from uhwt import (
    CoefficientModel,
    McmcTree,
    RuhwtPrior,
    enumerate_posterior,
    grid_dataset,
    mcmc_step,
    phi,
    sample_prior_tree,
)
from uhwt.core import root_cell_grid

MODEL = CoefficientModel("gaussian", sigma=1.0, sigma_w=1.0)


@pytest.mark.parametrize("locs", [
    [1.0, float(np.nextafter(1.0, 2.0))],  # the midpoint rounds onto the lower one
    [1.7e308, 1.79e308],  # their sum overflows
], ids=["adjacent_doubles", "huge"])
def test_two_point_split_law(locs):
    ds = grid_dataset(np.array(locs)[:, None], np.array([0.0, 1.0]))
    prior = RuhwtPrior(p_split=lambda depth: 1.0 - 1e-9, max_depth=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        total = phi(root_cell_grid(ds), prior, MODEL, ds, ds.responses)
        assert math.isfinite(total)
        assert total == pytest.approx(enumerate_posterior(ds, prior, MODEL)[1], rel=1e-12)

        tree = sample_prior_tree(prior, ds, np.random.default_rng(0))
        assert [leaf.cell.mass for leaf in tree.leaves()] == [1, 1]

        chain = McmcTree(ds)
        rng = np.random.default_rng(1)
        for _ in range(20):
            mcmc_step(chain, ds, prior, 1.0, rng, model=MODEL, include_swap=True)
            assert all(leaf.members.size for leaf in chain.leaves())

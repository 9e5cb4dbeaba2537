"""The library names and behaviour the benchmark relies on.

benchmark/spans.py hooks public uhwt functions by module and attribute
path, and benchmark/rep.py records ``uhwt._streams.thread_count()``.  A
hook that no longer resolves is reported as an absent span and a missing
function fails every repetition, so a rename must fail here first.  The
same holds for what benchmark/workloads.py calls (node_count(),
core.Cell(members, depth), the file round trips): each workload runs here
at its smoke size and every one of its checks must pass.
bayes_backfit's exact phase draws posterior splits against the cache phi
filled; if the two stopped sharing cache keys, every draw would recompute
phi below the cell.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from uhwt import CoefficientModel, RuhwtPrior, _streams, phi, posterior_split_sample
from uhwt.core import Cell, root_cell_grid
from uhwt.signals import diamond_image, image_dataset

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_hook_resolves(spans):
    missing = [name for name, module, attr, _ in spans.HOOKS if spans.resolve(module, attr) is None]
    assert missing == []


@pytest.mark.parametrize("name", ["grid_denoise", "sphere_boost", "sphere_forest", "bayes_backfit"])
def test_workload_checks_pass_at_smoke_size(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path), smoke=True)
    workload.setup(1)
    for _, method in workload.phases:
        method(workload)
    assert [check for check, ok in workload.checks() if not ok] == []


def test_forest_worker_count_is_one():
    assert _streams.thread_count() == 1


def test_posterior_draws_reuse_the_phi_cache():
    rng = np.random.default_rng(0)
    ds = image_dataset(diamond_image(4) + 0.2 * rng.standard_normal((4, 4)))
    prior, model = RuhwtPrior(max_depth=12), CoefficientModel("gaussian", 0.2)
    cache = {}
    root = root_cell_grid(ds)
    phi(root, prior, model, ds, ds.responses, cache=cache)
    filled = len(cache)
    cells = [root]
    for _ in range(20):
        cell = cells.pop() if cells else root
        draw = posterior_split_sample(cell, prior, model, ds, ds.responses, rng, cache=cache)
        if draw != "stop":
            dim, loc = draw
            left = ds.locations[cell.members, dim] < loc
            cells += [Cell(cell.members[left], cell.depth + 1), Cell(cell.members[~left], cell.depth + 1)]
    assert len(cache) == filled

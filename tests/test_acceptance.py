"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Heavy ensembles are
shared through session fixtures.  Criterion 9 is split in two: the
soft-threshold ordering (passes) and the published value windows, which
fail for reasons analyzed in the test output (the cited table's first two
rows carry each other's numbers; this implementation reproduces both
magnitudes with the labels exchanged).
"""

import json
import math
import time

import numpy as np
import pytest

from uhwt import (
    CoefficientModel,
    GridFitParams,
    McmcTree,
    RuhwtPrior,
    boost_fit,
    boost_predict_trace,
    enumerate_posterior,
    ensemble_predict,
    fit_sphere,
    fit_uhwt,
    gram_matrix,
    grid_dataset,
    mcmc_step,
    phi,
    predict_sphere,
    rre_fit,
    soft_threshold_lemma_check,
    sparse_comparison,
    run_oracle_bounds,
    tree_fit_values,
    uh_coefficient,
)
from uhwt.core import make_axis_split, root_cell_grid, triangle_cell
from uhwt.ensembles import quantile_predict_batch
from uhwt.grid import candidate_splits
from uhwt.signals import generate_sphere_synthetic, image_dataset, sphere_test_grid
from uhwt.sphere_geom import icosahedron, split_triangle
from uhwt.verify import delta_cart, leafwise_fit
from uhwt._streams import DATA, NOISE, stream_rng

SEED = 1
BASE = icosahedron()


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def scale_relative_error(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def random_grid(seed):
    rng = stream_rng(seed, DATA, 10)
    ndim = int(rng.integers(1, 4))
    if ndim == 1:
        shape = (int(rng.integers(16, 1500)),)
    elif ndim == 2:
        side = int(rng.integers(4, 48))
        shape = (side, side)
    else:
        side = int(rng.integers(3, 13))
        shape = (side,) * 3
    values = rng.standard_normal(shape)
    return image_dataset(values)


def random_grid_tree(rng, max_nodes=200, full_random=True):
    n = int(rng.integers(4, 80))
    ds = grid_dataset(np.arange(n, dtype=np.float64)[:, None], rng.normal(size=n))
    from uhwt.core import UHTree

    tree = UHTree(root_cell_grid(ds), ds.responses.mean())
    frontier = [0]
    while frontier and tree.node_count() < max_nodes:
        nid = frontier.pop(int(rng.integers(len(frontier))))
        cell = tree.nodes[nid].cell
        options = candidate_splits(cell, ds)
        if not options or (full_random and rng.uniform() < 0.3):
            continue
        dim, loc = options[int(rng.integers(len(options)))]
        split = make_axis_split(cell, ds.locations, dim, loc)
        frontier.extend(tree.split_node(nid, split, ds.responses))
    return ds, tree


RULES = ("balance", "balance4", "adapt", "adapt_vertex")


def test_criterion_01_exact_reconstruction():
    started = time.perf_counter()
    worst = 0.0
    # pinned maximal shapes plus 47 random ones; depth effectively uncapped
    # (greedy chains can run deeper than log2 n)
    pinned = [(4096,), (64, 64), (16, 16, 16)]
    for idx in range(50):
        if idx < len(pinned):
            rng = stream_rng(SEED, DATA, 100 + idx)
            ds = image_dataset(rng.standard_normal(pinned[idx]))
        else:
            ds = random_grid(1000 + idx)
        tree = fit_uhwt(ds, ds.responses, GridFitParams(max_depth=5000))
        worst = max(worst, scale_relative_error(tree_fit_values(tree), ds.responses))
    sphere_worst = 0.0
    for idx in range(20):
        rng = stream_rng(SEED, DATA, 200 + idx)
        n = int(rng.integers(50, 501))
        ds = generate_sphere_synthetic("fig5", n, 0.1, seed=3000 + idx)
        rule = RULES[idx % 4]
        model = fit_sphere(ds, ds.responses, rule, GridFitParams(max_depth=600))
        pred = predict_sphere(model, ds.locations)
        sphere_worst = max(sphere_worst, scale_relative_error(pred, ds.responses))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and sphere_worst <= 1e-10 and elapsed < 60
    report(1, ok, f"grid rel err {worst:.2e}, sphere rel err {sphere_worst:.2e} "
                  f"(each rule), {elapsed:.1f}s")
    assert worst <= 1e-10
    assert sphere_worst <= 1e-10
    assert elapsed < 60


def test_criterion_02_orthonormality():
    started = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        ds, tree = random_grid_tree(rng)
        gram = gram_matrix(tree, ds.n)
        worst = max(worst, float(np.abs(gram - np.eye(gram.shape[0])).max()))
    sphere_worst = 0.0
    trees_checked = 0
    idx = 0
    while trees_checked < 100:
        ds = generate_sphere_synthetic("fig5", int(rng.integers(60, 240)), 0.2, seed=4000 + idx)
        rule = RULES[idx % 4]
        depth = int(rng.integers(1, 5))
        model = fit_sphere(ds, ds.responses, rule, GridFitParams(max_depth=depth))
        for tree in model.face_trees:
            if tree.node_count() > 1 and trees_checked < 100:
                gram = gram_matrix(tree, ds.n)
                sphere_worst = max(sphere_worst, float(np.abs(gram - np.eye(gram.shape[0])).max()))
                trees_checked += 1
        idx += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and sphere_worst <= 1e-10 and elapsed < 30
    report(2, ok, f"grid gram dev {worst:.2e}, sphere gram dev {sphere_worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert sphere_worst <= 1e-10
    assert elapsed < 30


def test_criterion_03_cart_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst_rel = 0.0
    checked = 0
    # axis splits on random 1-D/2-D cells
    while checked < 8000:
        n = int(rng.integers(3, 60))
        ds = grid_dataset(
            np.column_stack([np.arange(n, dtype=float), rng.permutation(n).astype(float)]),
            rng.normal(size=n),
        )
        root = root_cell_grid(ds)
        dim = int(rng.integers(2))
        split = make_axis_split(root, ds.locations, dim, float(rng.uniform(0.5, n - 1.5)))
        if min(c.mass for c in split.children) == 0:
            continue
        w = uh_coefficient(split, root, ds.responses)
        gain = delta_cart(root, split, ds.responses)
        from uhwt.core import sse as _sse

        # relative to the computation's scale: the difference of sums of
        # squares carries rounding of order eps * SSE(parent)
        scale = max(abs(w * w), _sse(ds.responses, root.members))
        worst_rel = max(worst_rel, abs(gain - w * w) / scale)
        checked += 1
    # edge and quad splits on sphere cells
    sphere_checked = 0
    idx = 0
    while sphere_checked < 2000:
        ds = generate_sphere_synthetic("fig5", 200, 0.3, seed=5000 + idx)
        face_idx = int(rng.integers(20))
        verts = BASE.face_vertices(face_idx)
        from uhwt.sphere_geom import assign_faces

        members = np.flatnonzero(assign_faces(BASE, ds.locations) == face_idx)
        if members.size < 8:
            idx += 1
            continue
        cell = triangle_cell(verts, members, 0)
        rule = RULES[int(rng.integers(4))]
        split = split_triangle(cell, rule, ds, ds.responses)
        if split is None:
            idx += 1
            continue
        w = uh_coefficient(split, cell, ds.responses)
        gain = delta_cart(cell, split, ds.responses)
        from uhwt.core import sse as _sse

        scale = max(abs(w * w), _sse(ds.responses, cell.members))
        worst_rel = max(worst_rel, abs(gain - w * w) / scale)
        sphere_checked += 1
        idx += 1
    # leafwise equality on 100 random grid trees
    worst_leaf = 0.0
    for _ in range(100):
        ds, tree = random_grid_tree(rng)
        values = tree_fit_values(tree)
        for leaf in tree.leaves():
            members = leaf.cell.members
            leaf_mean = ds.responses[members].mean()
            worst_leaf = max(worst_leaf, float(np.abs(values[members] - leaf_mean).max()))
        probe = ds.locations[int(rng.integers(ds.n))]
        direct = leafwise_fit(tree, ds, ds.responses, probe)
        from uhwt import reconstruct

        worst_leaf = max(worst_leaf, abs(direct - reconstruct(tree, probe)))
    elapsed = time.perf_counter() - started
    ok = worst_rel <= 1e-9 and worst_leaf <= 1e-10 and elapsed < 30
    report(3, ok, f"gain identity rel dev {worst_rel:.2e} on 10^4 splits, "
                  f"leafwise dev {worst_leaf:.2e}, {elapsed:.1f}s")
    assert worst_rel <= 1e-9
    assert worst_leaf <= 1e-10
    assert elapsed < 30


def test_criterion_04_soft_threshold_inequality():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    violations = 0
    for _ in range(10_000):
        dim = int(rng.integers(1, 513))
        theta = rng.normal(scale=float(rng.uniform(0.05, 5.0)), size=dim)
        tau = float(rng.uniform(1e-4, 4.0))
        z = rng.uniform(-tau, tau, size=dim)
        violations += not soft_threshold_lemma_check(theta, z, tau)
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 10
    report(4, ok, f"{violations} violations in 10^4 instances, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 10


@pytest.mark.slow
def test_criterion_05_oracle_bounds():
    started = time.perf_counter()
    delta = 0.1
    uh_rep, leaf_rep, _ = run_oracle_bounds(
        n=64, sigma=0.5, delta=delta, replicates=200, seed=SEED,
    )
    floor = 1.0 - delta - 0.07
    sparse = sparse_comparison(n=1024, n_leaves=32, s=3, replicates=100, seed=SEED)
    elapsed = time.perf_counter() - started
    ok = (uh_rep.empirical_coverage >= floor and leaf_rep.empirical_coverage >= floor
          and sparse["uh_median"] < sparse["leaf_median"] and elapsed < 300)
    report(5, ok, f"coverage uh {uh_rep.empirical_coverage:.3f}, "
                  f"leafwise {leaf_rep.empirical_coverage:.3f} (floor {floor}), sparse medians "
                  f"{sparse['uh_median']:.4f} < {sparse['leaf_median']:.4f}, {elapsed:.1f}s")
    assert uh_rep.empirical_coverage >= floor
    assert leaf_rep.empirical_coverage >= floor
    assert sparse["uh_median"] < sparse["leaf_median"]
    assert elapsed < 300


@pytest.mark.slow
def test_criterion_06_bayesian_correctness():
    started = time.perf_counter()
    prior = RuhwtPrior(max_depth=6)
    model = CoefficientModel("gaussian", sigma=1.0, sigma_w=1.0)
    worst = 0.0
    for idx in range(50):
        rng = stream_rng(SEED, DATA, 300 + idx)
        n = int(rng.integers(2, 6))
        if idx % 3 == 0 and n >= 3:
            locs = np.indices((2, 3)).reshape(2, -1).T.astype(float)[:n]
            ds = grid_dataset(locs, rng.normal(size=n))
        else:
            ds = grid_dataset(np.arange(n, dtype=float)[:, None], rng.normal(size=n))
        _, total = enumerate_posterior(ds, prior, model)
        value = phi(root_cell_grid(ds), prior, model, ds, ds.responses)
        worst = max(worst, abs(value - total) / abs(total))
    # chain vs enumeration on n = 4
    rng = stream_rng(SEED, DATA, 400)
    ds = grid_dataset(np.arange(4.0)[:, None], rng.normal(size=4))
    prior4 = RuhwtPrior(max_depth=4)
    table, _ = enumerate_posterior(ds, prior4, model)
    tree = McmcTree(ds)
    chain_rng = stream_rng(SEED, DATA, 401)
    counts = {}
    steps = 100_000
    for step in range(steps):
        mcmc_step(tree, ds, prior4, 1.0, chain_rng, model=model)
        if step >= steps // 5:
            sig = tree.signature()
            counts[sig] = counts.get(sig, 0) + 1
    kept = sum(counts.values())
    tv = 0.5 * sum(abs(counts.get(sig, 0) / kept - prob) for sig, prob in table.items())
    tv += 0.5 * sum(counts[sig] / kept for sig in counts if sig not in table)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and tv <= 0.05 and elapsed < 300
    report(6, ok, f"phi vs enumeration rel dev {worst:.2e} on 50 datasets, "
                  f"chain TV {tv:.4f} at 1e5 steps, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert tv <= 0.05
    assert elapsed < 300


# ---------------------------------------------------------------------------
# sphere boosting reproduction (shared heavy fixtures)
# ---------------------------------------------------------------------------

FIG5_PARAMS = GridFitParams(max_depth=200)
BENCH_SOFT_C = 0.2


@pytest.fixture(scope="session")
def fig5_train():
    return generate_sphere_synthetic("fig5", 300, 0.1, seed=SEED)


@pytest.fixture(scope="session")
def fig5_test():
    return sphere_test_grid("fig5", 15300, SEED)


@pytest.fixture(scope="session")
def rrb_trace(fig5_train, fig5_test):
    """Rotation-boosting test MSEs at G = 500/1000/1500 (one 1500-stage fit)."""
    started = time.perf_counter()
    ensemble = boost_fit(
        fig5_train, fig5_train.responses, 1500, 0.05, FIG5_PARAMS,
        soft_c=BENCH_SOFT_C, rule="adapt", seed=SEED,
    )
    points, clean = fig5_test
    trace = boost_predict_trace(ensemble, points, [500, 1000, 1500])
    mses = {g: float(np.mean((v - clean) ** 2)) for g, v in trace.items()}
    mses["elapsed"] = time.perf_counter() - started
    return mses


@pytest.mark.slow
def test_criterion_07_sphere_boosting_reproduction(rrb_trace):
    paper = {500: 0.134, 1000: 0.129, 1500: 0.128}
    in_window = {
        g: abs(rrb_trace[g] - paper[g]) <= 0.25 * paper[g] for g in paper
    }
    mono = (rrb_trace[1000] <= rrb_trace[500] + 1e-9
            and rrb_trace[1500] <= rrb_trace[1000] + 1e-9)
    elapsed = rrb_trace["elapsed"]
    ok = all(in_window.values()) and mono and elapsed < 1200
    report(7, ok, "test MSE " + ", ".join(
        f"G={g}: {rrb_trace[g]:.4f} (paper {paper[g]})" for g in paper)
        + f", monotone={mono}, {elapsed:.0f}s")
    for g in paper:
        assert in_window[g], f"G={g}: {rrb_trace[g]} outside +-25% of {paper[g]}"
    assert mono
    assert elapsed < 1200


@pytest.mark.slow
def test_criterion_08_rotation_benefit(fig5_train, fig5_test, rrb_trace):
    started = time.perf_counter()
    points, clean = fig5_test
    fixed = boost_fit(
        fig5_train, fig5_train.responses, 500, 0.05, FIG5_PARAMS,
        rotate=False, soft_c=BENCH_SOFT_C, rule="adapt", seed=SEED,
    )
    fixed_mse = float(np.mean((ensemble_predict(fixed, points) - clean) ** 2))
    forest = rre_fit(
        fig5_train, fig5_train.responses, 500, FIG5_PARAMS, rule="adapt", seed=SEED,
    )
    forest_mse = float(np.mean((ensemble_predict(forest, points) - clean) ** 2))
    rrb = rrb_trace[500]
    elapsed = time.perf_counter() - started
    ok = rrb < fixed_mse and rrb < forest_mse and elapsed < 1200
    report(8, ok, f"RRB {rrb:.4f} < identity-boost {fixed_mse:.4f} and "
                  f"< forest {forest_mse:.4f} at G=M=500, {elapsed:.0f}s")
    assert rrb < fixed_mse
    assert rrb < forest_mse
    assert elapsed < 1200


@pytest.fixture(scope="session")
def soft_sweep():
    """fig5, n=1000, noise 0.3 sd(f): test MSE at soft_c in {0, 0.2, 0.4}.

    Weak learners are depth-capped at 2 (at most four leaves per face),
    the size at which the boosted test-MSE curve bottoms in the source's
    own split-rule study; full-depth learners keep refitting noise and the
    sweep stays monotone decreasing.
    """
    started = time.perf_counter()
    train = generate_sphere_synthetic("fig5", 1000, 0.3, seed=SEED)
    points, clean = sphere_test_grid("fig5", 15300, SEED)
    params = GridFitParams(max_depth=2)
    out = {}
    for soft_c in (0.0, 0.2, 0.4):
        ensemble = boost_fit(train, train.responses, 500, 0.05, params,
                             soft_c=soft_c, rule="adapt", seed=SEED)
        values = boost_predict_trace(ensemble, points, [500])[500]
        out[soft_c] = float(np.mean((values - clean) ** 2))
    out["elapsed"] = time.perf_counter() - started
    return out


@pytest.mark.slow
def test_criterion_09_soft_threshold_ordering(soft_sweep):
    ordering = (soft_sweep[0.2] <= soft_sweep[0.0]
                and soft_sweep[0.4] >= soft_sweep[0.2])
    elapsed = soft_sweep["elapsed"]
    ok = ordering and elapsed < 900
    report("9a", ok, f"MSE soft 0/0.2/0.4 = {soft_sweep[0.0]:.4f}/"
                     f"{soft_sweep[0.2]:.4f}/{soft_sweep[0.4]:.4f}; modest "
                     f"thresholding helps, heavy hurts; {elapsed:.0f}s")
    assert ordering
    assert elapsed < 900


@pytest.mark.slow
def test_criterion_09_paper_value_window(soft_sweep):
    """Value windows pinned to the published table; see the printed analysis."""
    paper = {0.0: 0.0227, 0.2: 0.0217, 0.4: 0.0239}
    in_window = {c: abs(soft_sweep[c] - paper[c]) <= 0.30 * paper[c] for c in paper}
    ok = all(in_window.values())
    report("9b", ok, "values vs published windows: " + ", ".join(
        f"soft {c}: {soft_sweep[c]:.4f} vs {paper[c]}+-30%" for c in paper))
    if not ok:
        print(
            "  analysis: the published n=1000 numbers are inconsistent with the\n"
            "  same table's n=300 anchor (matched by criterion 7 within 6%): 9x\n"
            "  the noise variance cannot cut the MSE 6-fold.  Swapping the first\n"
            "  two rows of that table resolves it; at this exact configuration\n"
            "  the three-great-circles signal lands inside these windows (see\n"
            "  below) while the fig5 signal reproduces the other row's 0.098-0.103\n"
            "  at full depth.  Full analysis in the reviewer notes."
        )
        train = generate_sphere_synthetic("planes", 1000, 0.3, seed=SEED)
        points, clean = sphere_test_grid("planes", 5000, SEED)
        ensemble = boost_fit(train, train.responses, 500, 0.05,
                             GridFitParams(max_depth=60),
                             soft_c=0.2, rule="adapt", seed=SEED)
        values = boost_predict_trace(ensemble, points, [500])[500]
        swapped = float(np.mean((values - clean) ** 2))
        inside = abs(swapped - paper[0.2]) <= 0.30 * paper[0.2]
        print(f"  three-circles signal at soft 0.2: {swapped:.4f} "
              f"(window {paper[0.2]}+-30%: {'inside' if inside else 'outside'})")
    for c in paper:
        assert in_window[c], f"soft {c}: {soft_sweep[c]} outside +-30% of {paper[c]}"


@pytest.mark.slow
def test_criterion_10_grid_boosting_vs_single():
    started = time.perf_counter()
    from uhwt.signals import piecewise_image

    size = 128
    clean = piecewise_image(size, n_blocks=6, seed=7)
    noise_sd = clean.std()  # matched noise: sd equals the clean image's sd
    noisy = clean + noise_sd * stream_rng(SEED, NOISE, 500).standard_normal(clean.shape)
    ds = image_dataset(noisy)
    flat = clean.ravel()

    def mse(values):
        return float(np.mean((values - flat) ** 2))

    b_grid = (0.1, 0.2, 0.3, 0.4, 0.5)
    boost_bs = (0.25, 0.3)
    results = {}
    for median in (True, False):
        family = "median" if median else "unbalanced"
        singles = {}
        for b in b_grid:
            params = GridFitParams(max_depth=30, early_stop_b=b, median_splits_only=median)
            singles[b] = mse(tree_fit_values(fit_uhwt(ds, ds.responses, params)))
        boosts = {}
        for b in boost_bs:
            params = GridFitParams(max_depth=30, early_stop_b=b, median_splits_only=median)
            ensemble = boost_fit(ds, ds.responses, 8, 0.1, params, seed=SEED)
            boosts[b] = mse(ensemble_predict(ensemble, ds.locations))
        results[family] = {"single": singles, "boost": boosts}
    best_single_median = min(results["median"]["single"].values())
    best_boost_median = min(results["median"]["boost"].values())
    best_single_unbal = min(results["unbalanced"]["single"].values())
    best_boost_unbal = min(results["unbalanced"]["boost"].values())
    part_a = best_boost_median >= best_single_median
    part_b = best_boost_unbal < best_single_unbal
    elapsed = time.perf_counter() - started
    ok = part_a and part_b and elapsed < 900
    report(10, ok, f"median-only: boost {best_boost_median:.4f} >= best single "
                   f"{best_single_median:.4f} ({part_a}); unbalanced: boost "
                   f"{best_boost_unbal:.4f} < best single {best_single_unbal:.4f} "
                   f"({part_b}); {elapsed:.0f}s")
    assert part_a, f"median-split boosting beat the best single tree: {results['median']}"
    assert part_b, f"unbalanced boosting failed to beat the best single tree: {results['unbalanced']}"
    assert elapsed < 900


@pytest.mark.slow
def test_criterion_11_quantile_coverage(fig5_train):
    started = time.perf_counter()
    held_out = generate_sphere_synthetic("fig5", 800, 0.1, seed=SEED + 100)
    forest = rre_fit(fig5_train, fig5_train.responses, 500, FIG5_PARAMS,
                     rule="adapt", seed=SEED)
    bands = quantile_predict_batch(forest, held_out.locations, [0.05, 0.95])
    covered = (held_out.responses >= bands[:, 0]) & (held_out.responses <= bands[:, 1])
    coverage = float(covered.mean())
    elapsed = time.perf_counter() - started
    ok = 0.80 <= coverage <= 0.95 and elapsed < 600
    report(11, ok, f"90% interval coverage {coverage:.3f} on 800 held-out points "
                   f"(target [0.80, 0.95], source observed 0.877), {elapsed:.0f}s")
    assert 0.80 <= coverage <= 0.95
    assert elapsed < 600


def test_criterion_12_determinism(tmp_path):
    from uhwt.cli import main
    from uhwt.io import save_pgm

    started = time.perf_counter()
    rng = stream_rng(SEED, DATA, 600)
    img = np.clip(0.5 + 0.25 * rng.standard_normal((16, 16)), 0, 1)
    pgm = tmp_path / "img.pgm"
    save_pgm(pgm, img)
    commands = {
        "denoise": ["denoise", "--input", str(pgm), "--a", "0.8", "--b", "0.3",
                    "--max-depth", "12", "--seed", str(SEED)],
        "bench": ["bench", "--signal", "fig5", "--n", "80", "--stages", "5",
                  "--lr", "0.1", "--soft-c", "0.2", "--seed", str(SEED),
                  "--test-n", "200"],
        "verify": ["verify", "--replicates", "25", "--seed", str(SEED)],
        "rre": ["rre", "--signal", "fig5", "--n", "60", "--members", "4",
                "--seed", str(SEED), "--test-n", "50"],
        "backfit": ["backfit", "--input", str(pgm), "--trees", "3", "--sweeps", "6",
                    "--burn-in", "2", "--seed", str(SEED), "--max-depth", "5"],
    }
    all_ok = True
    for name, args in commands.items():
        blobs = []
        for run in range(2):
            out = tmp_path / f"{name}_{run}.json"
            code = main(args + ["--output", str(out)])
            assert code == 0
            record = json.loads(out.read_text())
            record["metrics"].pop("runtime_s", None)
            blobs.append(json.dumps(record, sort_keys=True).encode())
        same = blobs[0] == blobs[1]
        all_ok = all_ok and same
        assert same, f"{name} not byte-identical across repeats"
    elapsed = time.perf_counter() - started
    report(12, all_ok, f"byte-identical metric records across repeats for "
                       f"{len(commands)} commands, {elapsed:.0f}s")

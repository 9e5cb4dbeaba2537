"""Command-line interface.

Every command writes one JSON record {command, config, metrics} (metrics
include runtime_s, which is excluded from determinism comparisons) and
optional prediction dumps: CSV for sphere data, the raw tensor container
for grids.  All stochastic commands require --seed, and every random
draw derives from it through named streams, so identical configurations
produce byte-identical metric records.

Exit codes: 0 success, 1 runtime failure, 2 configuration/usage error.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import io as uio
from .bayes import CoefficientModel, McmcTree, RuhwtPrior, backfit, mcmc_step, posterior_summary
from .core import GRID, SPHERE, batch_reconstruct, tree_fit_values
from .ensembles import (
    boost_fit,
    boost_predict_trace,
    ensemble_predict,
    quantile_predict_batch,
    rre_fit,
    save_boost,
)
from .errors import NonFiniteDataError, UhwtError
from .grid import GridFitParams, denoise, estimate_sigma_mad, fit_uhwt, pilot_sigma
from .signals import (
    generate_sphere_synthetic,
    get_signal,
    signal_sd,
    sphere_test_grid,
)
from .sphere import fit_sphere, predict_sphere
from .verify import run_oracle_bounds, sparse_comparison


class ConfigError(UhwtError):
    pass


def _load_input(args):
    path = args.input
    if path.endswith(".csv"):
        return uio.load_sphere_csv(path)
    return uio.load_grid(path)


def _dataset(args):
    if getattr(args, "input", None):
        return _load_input(args)
    if getattr(args, "signal", None):
        if args.n is None:
            raise ConfigError("--n is required with --signal")
        return generate_sphere_synthetic(args.signal, args.n, args.noise_frac, args.seed)
    raise ConfigError("provide --input or --signal")


def _fit_params(args):
    return GridFitParams(
        max_depth=args.max_depth,
        min_leaf=args.min_leaf,
        early_stop_b=getattr(args, "b", 0.0),
        soft_a=getattr(args, "a", 0.0),
        sigma=getattr(args, "sigma", None),
        median_splits_only=getattr(args, "median_splits", False),
    )


def _mse(a, b):
    return float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))


def _dump_grid(path, dataset, values):
    uio.save_tensor(path, np.asarray(values).reshape(dataset.axis_sizes))


def _dump_sphere(path, points, values):
    uio.save_sphere_csv(path, points, values, value_name="pred")


# ---------------------------------------------------------------------------
# command handlers: each returns (config, metrics)
# ---------------------------------------------------------------------------

def _cmd_fit(args):
    dataset = _dataset(args)
    params = _fit_params(args)
    if dataset.kind == SPHERE:
        model = fit_sphere(dataset, dataset.responses, args.rule, params)
        fitted = predict_sphere(model, dataset.locations)
        size = sum(t.node_count() for t in model.face_trees)
    else:
        tree = fit_uhwt(dataset, dataset.responses, params)
        fitted = tree_fit_values(tree)
        size = tree.node_count()
        if args.dump_prediction:
            _dump_grid(args.dump_prediction, dataset, fitted)
    if dataset.kind == SPHERE and args.dump_prediction:
        _dump_sphere(args.dump_prediction, dataset.locations, fitted)
    return {"train_mse": _mse(fitted, dataset.responses), "nodes": size}


def _cmd_denoise(args):
    dataset = _dataset(args)
    if dataset.kind != GRID:
        raise ConfigError("denoise expects grid input")
    tree = denoise(dataset, dataset.responses, _fit_params(args))
    fitted = tree_fit_values(tree, shrunk=True)
    if args.dump_prediction:
        _dump_grid(args.dump_prediction, dataset, fitted)
    return {"train_mse": _mse(fitted, dataset.responses), "nodes": tree.node_count()}


def _checkpoints(args):
    if args.checkpoints:
        points = sorted({int(tok) for tok in args.checkpoints.split(",")})
        if points[-1] != args.stages:
            raise ConfigError("largest checkpoint must equal --stages")
        return points
    return [args.stages]


def _test_metrics(args, predict_at):
    """Clean-signal test MSE on held-out uniform points (synthetic only)."""
    if not getattr(args, "signal", None) or not args.test_n:
        return {}
    points, clean = sphere_test_grid(args.signal, args.test_n, args.seed)
    preds = predict_at(points)
    if isinstance(preds, dict):
        return {f"test_mse_{g}": _mse(v, clean) for g, v in preds.items()}
    return {"test_mse": _mse(preds, clean)}


def _cmd_boost(args):
    dataset = _dataset(args)
    ensemble = boost_fit(
        dataset, dataset.responses, args.stages, args.lr, _fit_params(args),
        rotate=not args.no_rotate, soft_c=args.soft_c, rule=args.rule, seed=args.seed,
    )
    fitted = ensemble_predict(ensemble, dataset.locations)
    metrics = {"train_mse": _mse(fitted, dataset.responses)}
    checkpoints = _checkpoints(args)
    metrics.update(_test_metrics(
        args, lambda pts: boost_predict_trace(ensemble, pts, checkpoints),
    ))
    if args.model_out:
        save_boost(ensemble, args.model_out)
    if args.dump_prediction and dataset.kind == SPHERE:
        _dump_sphere(args.dump_prediction, dataset.locations, fitted)
    elif args.dump_prediction:
        _dump_grid(args.dump_prediction, dataset, fitted)
    return metrics


def _cmd_rre(args):
    dataset = _dataset(args)
    forest = rre_fit(
        dataset, dataset.responses, args.members, _fit_params(args),
        rule=args.rule, seed=args.seed, rotate=not args.no_rotate, soft_c=args.soft_c,
    )
    fitted = ensemble_predict(forest, dataset.locations)
    metrics = {"train_mse": _mse(fitted, dataset.responses)}
    metrics.update(_test_metrics(args, lambda pts: ensemble_predict(forest, pts)))
    return metrics


def _cmd_mcmc(args):
    dataset = _dataset(args)
    if dataset.kind != GRID:
        raise ConfigError("mcmc expects grid input")
    sigma = args.sigma
    if sigma is None:
        sigma = pilot_sigma(dataset, dataset.responses, GridFitParams(max_depth=args.max_depth))
        sigma = max(sigma, 1e-6)
    prior = RuhwtPrior(max_depth=args.max_depth)
    tree = McmcTree(dataset)
    rng = np.random.default_rng(args.seed)
    accepted = sum(
        mcmc_step(tree, dataset, prior, sigma, rng) for _ in range(args.steps)
    )
    leaf_means = np.empty(dataset.n)
    for leaf in tree.leaves():
        leaf_means[leaf.members] = dataset.responses[leaf.members].mean()
    return {
        "train_mse": _mse(leaf_means, dataset.responses),
        "accept_rate": accepted / max(1, args.steps),
        "leaves": len(tree.leaves()),
        "sigma": float(sigma),
    }


def _cmd_backfit(args):
    dataset = _dataset(args)
    if dataset.kind != GRID:
        raise ConfigError("backfit expects grid input")
    sigma = args.sigma
    if sigma is None:
        sigma = max(pilot_sigma(dataset, dataset.responses, GridFitParams()), 1e-6)
    model = CoefficientModel("gaussian", sigma, sigma_w=sigma)
    prior = RuhwtPrior(max_depth=args.max_depth)
    draws = backfit(
        dataset, dataset.responses, args.trees, args.sweeps, prior, model,
        seed=args.seed, store_every=args.store_every, burn_in=args.burn_in,
        coef_scale=args.coef_scale,
    )
    mean, sd, width = posterior_summary(draws)
    if args.draws_out:
        with open(args.draws_out, "w", encoding="utf-8") as fh:
            for sweep, mu, trees in zip(draws.sweeps, draws.mus, draws.ensembles):
                fh.write(json.dumps({"sweep": int(sweep), "mu": float(mu), "trees": trees}))
                fh.write("\n")
    if args.summary_out:
        uio.save_summary_grid(args.summary_out, mean, sd, width, dataset.axis_sizes)
    return {
        "train_mse": _mse(mean, dataset.responses),
        "mean_sd": float(sd.mean()),
        "mean_width95": float(width.mean()),
        "draws": draws.n_draws,
        "sigma": float(sigma),
    }


def _cmd_quantiles(args):
    dataset = _dataset(args)
    if dataset.kind != SPHERE:
        raise ConfigError("quantiles expects sphere data")
    q_levels = [float(tok) for tok in args.q.split(",")]
    forest = rre_fit(
        dataset, dataset.responses, args.members, _fit_params(args),
        rule=args.rule, seed=args.seed,
    )
    if args.queries:
        queries = uio.load_sphere_csv(args.queries).locations
        noisy = None
    elif getattr(args, "signal", None) and args.test_n:
        held_out = generate_sphere_synthetic(args.signal, args.test_n, args.noise_frac, args.seed + 1)
        queries, noisy = held_out.locations, held_out.responses
    else:
        raise ConfigError("provide --queries or --signal with --test-n")
    bands = quantile_predict_batch(forest, queries, q_levels)
    metrics = {"queries": int(queries.shape[0])}
    if noisy is not None and len(q_levels) >= 2:
        lo, hi = bands[:, 0], bands[:, -1]
        metrics["coverage"] = float(np.mean((noisy >= lo) & (noisy <= hi)))
    if args.dump_prediction:
        with open(args.dump_prediction, "w", encoding="ascii") as fh:
            names = ",".join(f"q{q:g}" for q in q_levels)
            fh.write(f"x,y,z,{names}\n")
            for point, row in zip(queries, bands):
                cells = ",".join(repr(float(v)) for v in (*point, *row))
                fh.write(cells + "\n")
    return metrics


def _cmd_verify(args):
    uh_report, leaf_report, medians = run_oracle_bounds(
        n=args.n, sigma=args.sigma, delta=args.delta,
        replicates=args.replicates, seed=args.seed,
    )
    sparse = sparse_comparison(seed=args.seed)
    return {
        "coverage": {
            "uh": uh_report.empirical_coverage,
            "leafwise": leaf_report.empirical_coverage,
        },
        "medians": medians,
        "quantiles": {
            "sparse_uh": sparse["uh_quartiles"],
            "sparse_leafwise": sparse["leaf_quartiles"],
        },
        "sparse_medians": {"uh": sparse["uh_median"], "leafwise": sparse["leaf_median"]},
    }


def _cmd_bench(args):
    dataset = generate_sphere_synthetic(args.signal, args.n, args.noise_frac, args.seed)
    ensemble = boost_fit(
        dataset, dataset.responses, args.stages, args.lr, _fit_params(args),
        rotate=not args.no_rotate, soft_c=args.soft_c, rule=args.rule, seed=args.seed,
    )
    fitted = ensemble_predict(ensemble, dataset.locations)
    metrics = {"train_mse": _mse(fitted, dataset.responses), "signal_sd": signal_sd(args.signal)}
    checkpoints = _checkpoints(args)
    metrics.update(_test_metrics(
        args, lambda pts: boost_predict_trace(ensemble, pts, checkpoints),
    ))
    return metrics


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, seed_required=True, fit_knobs=True):
    sub.add_argument("--seed", type=int, required=seed_required, default=None if seed_required else 0,
                     help="master seed; all randomness derives from it")
    sub.add_argument("--output", help="write the JSON record here instead of stdout")
    sub.add_argument("--dump-prediction", help="optional prediction dump path")
    if fit_knobs:
        sub.add_argument("--max-depth", type=int, default=40)
        sub.add_argument("--min-leaf", type=int, default=1)
        sub.add_argument("--b", type=float, default=0.0, help="early-stop factor")
        sub.add_argument("--sigma", type=float, default=None, help="noise-scale override")
        sub.add_argument("--median-splits", action="store_true",
                         help="restrict grid candidates to balanced thresholds")


def _add_data_source(sub):
    sub.add_argument("--input", help="PGM/tensor grid file or x,y,z,value CSV")
    sub.add_argument("--signal", help="synthetic sphere signal id (fig5, planes)")
    sub.add_argument("--n", type=int, help="synthetic training size")
    sub.add_argument("--noise-frac", type=float, default=0.1,
                     help="noise sd as a fraction of the signal sd")
    sub.add_argument("--test-n", type=int, default=0, help="held-out size for test MSE")


def _add_ensemble_knobs(sub):
    sub.add_argument("--rule", default="adapt",
                     choices=["balance", "balance4", "adapt", "adapt_vertex"])
    sub.add_argument("--soft-c", type=float, default=0.0, help="per-stage threshold factor")
    sub.add_argument("--no-rotate", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uhwt",
        description="Unbalanced Haar wavelet tree regression on grids and spheres",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="single greedy tree")
    _add_data_source(fit)
    _add_common(fit, seed_required=False)
    fit.add_argument("--rule", default="adapt",
                     choices=["balance", "balance4", "adapt", "adapt_vertex"])
    fit.set_defaults(handler=_cmd_fit)

    den = commands.add_parser("denoise", help="pilot sigma, greedy fit, soft threshold")
    _add_data_source(den)
    _add_common(den, seed_required=False)
    den.add_argument("--a", type=float, default=0.0, help="soft-threshold factor")
    den.set_defaults(handler=_cmd_denoise)

    boost = commands.add_parser("boost", help="stagewise boosted ensemble")
    _add_data_source(boost)
    _add_common(boost)
    _add_ensemble_knobs(boost)
    boost.add_argument("--stages", type=int, required=True)
    boost.add_argument("--lr", type=float, default=0.05)
    boost.add_argument("--checkpoints", help="comma-separated stage counts for test MSE")
    boost.add_argument("--model-out", help="write the ensemble JSON here")
    boost.set_defaults(handler=_cmd_boost)

    rre = commands.add_parser("rre", help="random-rotation forest")
    _add_data_source(rre)
    _add_common(rre)
    _add_ensemble_knobs(rre)
    rre.add_argument("--members", type=int, required=True)
    rre.set_defaults(handler=_cmd_rre)

    mcmc = commands.add_parser("mcmc", help="single-tree Metropolis chain")
    _add_data_source(mcmc)
    _add_common(mcmc)
    mcmc.add_argument("--steps", type=int, default=1000)
    mcmc.set_defaults(handler=_cmd_mcmc)

    back = commands.add_parser("backfit", help="Bayesian additive ensemble")
    _add_data_source(back)
    _add_common(back)
    back.add_argument("--trees", type=int, default=20)
    back.add_argument("--sweeps", type=int, default=100)
    back.add_argument("--burn-in", type=int, default=None)
    back.add_argument("--store-every", type=int, default=1)
    back.add_argument("--coef-scale", type=float, default=1.0)
    back.add_argument("--draws-out", help="JSON-lines draws file")
    back.add_argument("--summary-out", help="binary mean/sd/width grid")
    back.set_defaults(handler=_cmd_backfit)

    quant = commands.add_parser("quantiles", help="forest prediction intervals")
    _add_data_source(quant)
    _add_common(quant)
    quant.add_argument("--members", type=int, default=500)
    quant.add_argument("--rule", default="adapt",
                       choices=["balance", "balance4", "adapt", "adapt_vertex"])
    quant.add_argument("--q", default="0.05,0.95", help="comma-separated levels")
    quant.add_argument("--queries", help="CSV of query points")
    quant.set_defaults(handler=_cmd_quantiles)

    ver = commands.add_parser("verify", help="risk-bound and identity harness")
    _add_common(ver, fit_knobs=False)
    ver.add_argument("--n", type=int, default=64)
    ver.add_argument("--sigma", type=float, default=0.5)
    ver.add_argument("--delta", type=float, default=0.1)
    ver.add_argument("--replicates", type=int, default=200)
    ver.set_defaults(handler=_cmd_verify)

    bench = commands.add_parser("bench", help="sphere boosting benchmark")
    _add_data_source(bench)
    _add_common(bench)
    _add_ensemble_knobs(bench)
    bench.add_argument("--stages", type=int, required=True)
    bench.add_argument("--lr", type=float, default=0.05)
    bench.add_argument("--checkpoints", help="comma-separated stage counts")
    bench.set_defaults(handler=_cmd_bench)

    return parser


def _config_dict(args):
    skip = {"handler", "command", "output"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()
    try:
        metrics = args.handler(args)
    except (ConfigError, UhwtError, FileNotFoundError, ValueError) as exc:
        kind = 2 if isinstance(exc, (ConfigError, NonFiniteDataError)) else 1
        print(f"error: {exc}", file=sys.stderr)
        if kind == 2:
            parser.print_usage(sys.stderr)
        return kind
    metrics["runtime_s"] = time.perf_counter() - started
    record = {"command": args.command, "config": _config_dict(args), "metrics": metrics}
    text = json.dumps(record, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

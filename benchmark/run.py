"""uhwt benchmark: one workload, repeated in fresh processes for a time budget.

    python3 benchmark/run.py --workload grid_denoise --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; uhwt is imported from src/.  Each
repetition is a new process (rep.py) that builds the seeded inputs, runs
the workload's phases once with no warm-up and checks the outputs.  With
--trace 0 the last stdout line reports the median of every end-to-end
metric over the repetitions; with --trace 1 untraced and traced
repetitions alternate and the last line reports the per-layer metrics.
Earlier lines give the environment and one summary line per repetition.
See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import SPAN_NAMES, SPLIT_SEARCH  # noqa: E402

WORKLOADS = ("grid_denoise", "sphere_boost", "sphere_forest", "bayes_backfit")
DEFAULT_SEED = 1
MIN_REPS = {False: 3, True: 2}
RUN_LIMIT_S = 170.0  # the whole run ends within this, whatever --seconds says
REFERENCE_RTOL = 1e-9

END_TO_END = (
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("predict_s", "s"),
    ("io_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)

COUNTS = (
    ("grid.members_scanned", "count"),
    ("sphere_geom.members_scanned", "count"),
    ("split_used_ratio", "ratio"),
    ("sphere_geom.assign_faces.points", "count"),
    ("core.batch_reconstruct.points", "count"),
    ("serialization.bytes", "bytes"),
    ("learners.workers", "count"),
    ("learners.busy_s", "s"),
    ("learners.busy_per_wall", "ratio"),
    ("bayes.mcmc_step.accept_ratio", "ratio"),
    ("bayes.phi.cache_entries", "count"),
    ("nodes_grown", "count"),
    ("trace_overhead_ratio", "ratio"),
    ("trace.unhooked_s", "s"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.absent_spans", "count"),
    ("trace.counter_errors", "count"),
)

PER_LAYER = tuple(
    metric
    for name in SPAN_NAMES
    for metric in ((f"{name}.calls", "count"), (f"{name}.self_s", "s"))
) + COUNTS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root):
    """HEAD of the checkout, without searching directories above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_environment(root):
    """Environment for repetitions, and the environment record to print.

    Forest worker threads default to os.cpu_count(); when that exceeds
    the CPUs this process may run on, UHWT_THREADS caps them at nproc.
    """
    nproc = len(os.sched_getaffinity(0))
    cpu_count = os.cpu_count() or 1
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if cpu_count > nproc and not env.get("UHWT_THREADS"):
        env["UHWT_THREADS"] = str(nproc)
    record = {
        "commit": git_commit(root),
        "nproc": nproc,
        "os_cpu_count": cpu_count,
        "uhwt_threads": env.get("UHWT_THREADS"),
        "python": platform.python_version(),
    }
    return env, record


def run_rep(root, env, workload, seed, mode, timeout):
    """One repetition in a fresh process; returns (record, wall seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed), mode]
    began = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        record = {"error": f"repetition exceeded {timeout:.0f} s", "mode": mode}
        return record, time.perf_counter() - began
    wall = time.perf_counter() - began
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                  "mode": mode}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return record, wall


def run_reps(root, env, args):
    """Repetitions while the next one is expected to fit the budget.

    An untraced run makes at least MIN_REPS[False] repetitions; a traced
    run alternates untraced and traced ones, at least MIN_REPS[True].
    """
    traced_mode = bool(args.trace)
    budget = min(args.seconds, RUN_LIMIT_S)
    began = time.perf_counter()
    records = []
    reps, longest = 0, 0.0
    while True:
        elapsed = time.perf_counter() - began
        if reps >= MIN_REPS[traced_mode] and elapsed + longest > budget:
            break
        remaining = RUN_LIMIT_S - elapsed
        if remaining <= 0:
            break
        mode = "traced" if traced_mode and reps % 2 == 1 else "plain"
        record, wall = run_rep(root, env, args.workload, args.seed, mode, remaining)
        records.append(record)
        reps += 1
        longest = max(longest, wall)
        print(rep_line(record, wall), flush=True)
    return records


def rep_line(record, wall):
    if record.get("error"):
        return f"# rep failed (mode {record['mode']}): {record['error'].strip().splitlines()[-1]}"
    phases = " ".join(f"{k}={v:.4f}s" for k, v in record["phases"].items())
    failed = sum(1 for _, ok in record["checks"] if not ok)
    return (f"# rep {record['mode']}: "
            f"setup={record['setup_s']:.4f}s {phases} total={record['total_s']:.4f}s "
            f"rss={record['peak_rss_mb']:.1f}MB checks={len(record['checks']) - failed}/"
            f"{len(record['checks'])} wall={wall:.2f}s")


def load_reference(workload):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def reference_mismatches(reference, got):
    """Names of reference values not reproduced (exact ints, 1e-9 relative floats)."""
    bad = []
    for key, want in reference.items():
        value = got.get(key)
        if value is None:
            bad.append(key)
        elif isinstance(want, int):
            if value != want:
                bad.append(key)
        elif abs(value - want) > REFERENCE_RTOL * abs(want):
            bad.append(key)
    return bad


def score(records, workload, seed):
    """(attempted, failed): every check of every repetition is one operation.

    On the default seed each reference value is one more check.  A
    repetition that raised or timed out is one failed operation.
    """
    attempted = failed = 0
    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    for record in records:
        if record.get("error"):
            attempted += 1
            failed += 1
            continue
        attempted += len(record["checks"]) + (len(reference) if reference else 0)
        failed += sum(1 for _, ok in record["checks"] if not ok)
        if reference:
            bad = reference_mismatches(reference, record["reference"])
            for key in bad:
                print(f"# reference mismatch: {key} = {record['reference'].get(key)!r}, "
                      f"expected {reference[key]!r}")
            failed += len(bad)
    return attempted, failed


def end_to_end_metrics(ok):
    values = {f"{phase}_s": median([r["phases"][phase] for r in ok])
              for phase in ("fit", "predict", "io")}
    values["setup_s"] = median([r["setup_s"] for r in ok])
    values["total_s"] = median([r["total_s"] for r in ok])
    values["peak_rss_mb"] = median([r["peak_rss_mb"] for r in ok])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(ok):
    plain = [r for r in ok if r["mode"] == "plain"]
    traced = [r for r in ok if r["mode"] == "traced"]
    if not plain or not traced:
        return None
    first = traced[0]["trace"]
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = first["calls"].get(name, 0)
        values[f"{name}.self_s"] = median([r["trace"]["self_s"].get(name, 0.0) for r in traced])
    counts = dict(first["counts"])
    counts.update(traced[0]["stats"])
    for name in ("grid.members_scanned", "sphere_geom.members_scanned",
                 "sphere_geom.assign_faces.points", "core.batch_reconstruct.points",
                 "serialization.bytes", "bayes.phi.cache_entries", "nodes_grown",
                 "trace.counter_errors"):
        values[name] = counts.get(name, 0)
    searches = sum(first["calls"].get(name, 0) for name in SPLIT_SEARCH)
    splits = first["calls"].get("core.UHTree.split_node", 0)
    values["split_used_ratio"] = splits / searches if searches else 0.0
    steps = first["calls"].get("bayes.mcmc_step", 0)
    values["bayes.mcmc_step.accept_ratio"] = \
        counts.get("bayes.mcmc_step.accepted", 0) / steps if steps else 0.0
    busy = median([r["trace"]["learner_busy_s"] for r in traced])
    fit_wall = median([r["phases"]["fit"] for r in traced])
    values["learners.workers"] = first["learner_threads"]
    values["learners.busy_s"] = busy
    values["learners.busy_per_wall"] = busy / fit_wall if fit_wall else 0.0
    traced_total = median([r["total_s"] for r in traced])
    values["trace_overhead_ratio"] = traced_total / median([r["total_s"] for r in plain])
    values["trace.unhooked_s"] = median(
        [sum(r["trace"]["self_s"].get(f"phase.{p}", 0.0) for p in r["phases"]) for r in traced])
    values["trace.accounted_ratio"] = median(
        [r["trace"]["main_self_s"] / r["total_s"] for r in traced])
    values["trace.absent_spans"] = len(first["absent"])
    for name in first["absent"]:
        print(f"# span absent: {name}")
    assert {name for name, _ in PER_LAYER} == set(values)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "uhwt", "__init__.py")):
        sys.stderr.write("run.py: no src/uhwt here; run it from the root of a uhwt checkout\n")
        return 2
    env, environment = child_environment(root)
    environment["seed"] = args.seed
    records = run_reps(root, env, args)
    ok = [r for r in records if not r.get("error")]
    if ok:
        environment["numpy"] = ok[0]["numpy"]
        environment["forest_workers"] = ok[0]["forest_workers"]
    print("# environment " + json.dumps(environment), flush=True)
    attempted, failed = score(records, args.workload, args.seed)
    if args.trace:
        metrics = per_layer_metrics(ok)
    else:
        metrics = end_to_end_metrics(ok) if ok else None
    if metrics is None:
        sys.stderr.write("run.py: too few successful repetitions to report\n")
        return 1
    n_plain = sum(1 for r in ok if r["mode"] == "plain")
    print(f"# {args.workload}: medians over {n_plain} untraced and {len(ok) - n_plain} "
          f"traced repetitions; {failed} of {attempted} checked operations failed", flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of one workload in a fresh process.

    python3 benchmark/rep.py <workload> <seed> <mode: plain | traced>

run.py starts this with PYTHONPATH pointing at the checkout's src/ and the
checkout as working directory.  It prints one JSON record on its last
stdout line: setup and phase times, peak RSS, check results, reference
values, the forest worker count and, when traced, the span summary.
setup_s runs from this process's first statement to inputs ready, so it
includes ``import uhwt`` and the Dataset construction.  Files the io phase
saves go to a temporary directory under the working directory, removed
when the repetition ends.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402


def run(name, seed, mode, workdir):
    import numpy as np
    from uhwt import _streams

    import spans
    import workloads

    workload = workloads.WORKLOADS[name](workdir)
    workload.setup(seed)
    setup_s = time.perf_counter() - START

    phases = {}
    tracer = spans.Tracer() if mode == "traced" else None
    with tracer or contextlib.nullcontext():
        for phase, method in workload.phases:
            # GC stays on, but each phase starts with no collection debt left
            # by the one before, so a phase pays only for its own garbage
            gc.collect()
            with tracer.span(f"phase.{phase}") if tracer else contextlib.nullcontext():
                began = time.perf_counter()
                method(workload)
                phases[phase] = time.perf_counter() - began

    checks = [[check, bool(ok)] for check, ok in workload.checks()]
    return {
        "setup_s": setup_s,
        "phases": phases,
        "total_s": sum(phases.values()),
        "checks": checks,
        "reference": workload.reference_values(),
        "stats": workload.stats(),
        "numpy": np.__version__,
        "forest_workers": min(_streams.thread_count(), workloads.SphereForest.members),
        "trace": tracer.summary(threading.main_thread().ident) if tracer else None,
    }


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    record = {"workload": name, "seed": seed, "mode": mode, "error": None}
    try:
        with tempfile.TemporaryDirectory(prefix=".uhwt-bench-", dir=os.getcwd()) as workdir:
            record.update(run(name, seed, mode, workdir))
    except Exception:  # noqa: BLE001 - a failed rep is reported, not raised
        record["error"] = traceback.format_exc()
        sys.stderr.write(record["error"])
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

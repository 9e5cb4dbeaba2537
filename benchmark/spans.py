"""Span recorder for the traced run, hooked onto uhwt's public functions.

Every hook in HOOKS names a public function (or method) of a uhwt module.
Installing the tracer replaces that function, in every ``uhwt`` module
namespace that bound it, by a wrapper that records a span.  Patching
each binding matters: ``uhwt.sphere`` calls its own imported copy of
``split_triangle`` and ``uhwt.ensembles`` its copy of ``predict_sphere``.

Spans nest per thread (forest members are fit on worker threads), and
each closed span adds its duration to its parent's child time, so

    self time = duration - time covered by child spans.

Spans are aggregated in memory as they close and reported only when the
run ends; nothing is written while the workload runs.  A hook whose
target no longer exists is reported as absent instead of failing.
"""

import contextlib
import functools
import sys
import threading
import time
import types

import numpy as np


def _members_scanned_grid(args):
    cell, dataset = args[0], args[1]
    return "grid.members_scanned", cell.mass * dataset.ndim


def _members_scanned_sphere(args):
    return "sphere_geom.members_scanned", args[0].mass


def _points(counter):
    def count(args):
        return counter, int(np.atleast_2d(np.asarray(args[1])).shape[0])
    return count


# (span name, uhwt module, attribute path, argument counter or None)
HOOKS = (
    # split search
    ("grid.greedy_split", "grid", "greedy_split", _members_scanned_grid),
    ("sphere_geom.split_triangle", "sphere_geom", "split_triangle", _members_scanned_sphere),
    ("sphere_geom.fan_split", "sphere_geom", "fan_split", _members_scanned_sphere),
    # partition bookkeeping
    ("core.make_axis_split", "core", "make_axis_split", None),
    ("core.make_edge_split", "core", "make_edge_split", None),
    ("core.make_quad_split", "core", "make_quad_split", None),
    ("core.UHTree.split_node", "core", "UHTree.split_node", None),
    # coefficients and shrinkage
    ("core.uh_coefficient", "core", "uh_coefficient", None),
    ("grid.pilot_sigma", "grid", "pilot_sigma", None),
    ("grid.estimate_sigma_mad", "grid", "estimate_sigma_mad", None),
    ("core.UHTree.set_shrunk", "core", "UHTree.set_shrunk", None),
    ("sphere.sphere_shrink", "sphere", "sphere_shrink", None),
    # face assignment
    ("sphere_geom.assign_faces", "sphere_geom", "assign_faces",
     _points("sphere_geom.assign_faces.points")),
    # reconstruction and prediction
    ("core.batch_reconstruct", "core", "batch_reconstruct",
     _points("core.batch_reconstruct.points")),
    ("core.tree_fit_values", "core", "tree_fit_values", None),
    ("sphere.predict_sphere", "sphere", "predict_sphere", None),
    ("sphere.model_leaf_members", "sphere", "model_leaf_members", None),
    ("ensembles.quantile_weights_batch", "ensembles", "quantile_weights_batch", None),
    # serialization
    ("core.tree_to_dict", "core", "tree_to_dict", None),
    ("core.tree_from_dict", "core", "tree_from_dict", None),
    ("ensembles.boost_to_dict", "ensembles", "boost_to_dict", None),
    ("ensembles.boost_from_dict", "ensembles", "boost_from_dict", None),
    # learners
    ("grid.fit_uhwt", "grid", "fit_uhwt", None),
    ("sphere.fit_sphere", "sphere", "fit_sphere", None),
    # bayes
    ("bayes.mcmc_step", "bayes", "mcmc_step", None),
    ("bayes.tree_component_values", "bayes", "tree_component_values", None),
    ("bayes.bnode_record", "bayes", "bnode_record", None),
    ("bayes.phi", "bayes", "phi", None),
    ("bayes.posterior_split_sample", "bayes", "posterior_split_sample", None),
)

SPAN_NAMES = tuple(name for name, *_ in HOOKS)
SPLIT_SEARCH = ("grid.greedy_split", "sphere_geom.split_triangle", "sphere_geom.fan_split")
LEARNERS = ("grid.fit_uhwt", "sphere.fit_sphere")


def resolve(module_name, attr_path):
    """(owner, attribute name, function) for a hook, or None when absent."""
    module = sys.modules.get(f"uhwt.{module_name}")
    if module is None:
        try:
            __import__(f"uhwt.{module_name}")
        except ImportError:
            return None
        module = sys.modules[f"uhwt.{module_name}"]
    owner = module
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    func = getattr(owner, parts[-1], None)
    if not callable(func):
        return None
    return owner, parts[-1], func


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0


class _ThreadLog:
    """Span stack and per-name totals of one thread."""

    def __init__(self):
        self.stack = []
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.busy_s = 0.0  # time inside outermost learner spans


class Tracer:
    """Installs the hooks on enter and restores the originals on exit."""

    def __init__(self):
        self._local = threading.local()
        self._logs = {}
        self._lock = threading.Lock()
        self._patches = []
        self.absent = []

    # -- recording ---------------------------------------------------------

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs[threading.get_ident()] = log
        return log

    def open(self, name):
        log = self._log()
        log.stack.append(_Frame(name, time.perf_counter()))
        return log

    def close(self, log):
        end = time.perf_counter()
        frame = log.stack.pop()
        duration = end - frame.start
        name = frame.name
        log.calls[name] = log.calls.get(name, 0) + 1
        log.self_s[name] = log.self_s.get(name, 0.0) + duration - frame.child
        if log.stack:
            log.stack[-1].child += duration
        if name in LEARNERS and not any(f.name in LEARNERS for f in log.stack):
            log.busy_s += duration

    def count(self, name, amount):
        log = self._log()
        log.counts[name] = log.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        log = self.open(name)
        try:
            yield
        finally:
            self.close(log)

    def _wrap(self, name, func, counter):
        tracer = self
        grows = name == "core.UHTree.split_node"
        accepts = name == "bayes.mcmc_step"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if counter is not None:
                tracer.count_args(counter, args)
            if grows:
                before = tracer.node_total(args)
            log = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(log)
            if grows and before is not None:
                tracer.count("nodes_grown", tracer.node_total(args) - before)
            if accepts and result:
                tracer.count("bayes.mcmc_step.accepted", 1)
            return result

        return traced

    def count_args(self, counter, args):
        # a refactor may change the arguments a counter reads; lose the
        # count, not the run
        try:
            key, amount = counter(args)
        except (AttributeError, IndexError, TypeError, ValueError):
            self.count("trace.counter_errors", 1)
            return
        self.count(key, amount)

    def node_total(self, args):
        try:
            return len(args[0].nodes)
        except (AttributeError, IndexError, TypeError):
            self.count("trace.counter_errors", 1)
            return None

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for name, module_name, attr_path, counter in HOOKS:
            found = resolve(module_name, attr_path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, func = found
            wrapper = self._wrap(name, func, counter)
            targets = [(owner, attr)]
            if isinstance(owner, types.ModuleType):
                targets = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod is not None and (mod_name == "uhwt" or mod_name.startswith("uhwt."))
                    for key, value in list(vars(mod).items())
                    if value is func
                ]
            for target, key in targets:
                self._patches.append((target, key, func))
                setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc):
        for target, key, func in reversed(self._patches):
            setattr(target, key, func)
        self._patches.clear()
        return False

    # -- results -----------------------------------------------------------

    def summary(self, main_thread):
        """Calls and self time per span, counts, and learner thread data."""
        calls, self_s, counts = {}, {}, {}
        for log in self._logs.values():
            for key, value in log.calls.items():
                calls[key] = calls.get(key, 0) + value
            for key, value in log.self_s.items():
                self_s[key] = self_s.get(key, 0.0) + value
            for key, value in log.counts.items():
                counts[key] = counts.get(key, 0) + value
        main = self._logs.get(main_thread)
        return {
            "calls": calls,
            "self_s": self_s,
            "counts": counts,
            "main_self_s": sum(main.self_s.values()) if main else 0.0,
            "learner_threads": sum(1 for log in self._logs.values() if log.busy_s > 0),
            "learner_busy_s": sum(log.busy_s for log in self._logs.values()),
            "absent": list(self.absent),
        }


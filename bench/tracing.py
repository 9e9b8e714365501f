"""Spans and counters around the public functions of each clusterexp module.

The wrappers are installed on module attributes, including the names other
modules bound at import time (``ursell.connected_masks``,
``mayer.ursell_graph_sum``, ...), so every call path into a layer is seen.
Nothing in ``src/`` is changed: ``uninstall`` puts the original objects back.

Coarse calls become spans (name, parent, phase, start, duration).  Calls
that happen tens of thousands of times per pass (a Kruskal closure per tree,
an energy per descent step, one tree per generator step) are aggregated as
leaves: a call count and a total time per phase, charged to the enclosing
span so its self time stays correct.  A span's self time is its duration
minus the time its child spans and leaves cover.

Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import time

perf_counter = time.perf_counter

PHASES = ("setup", "pass")


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans: list[list] = []  # [name, parent index, phase, start, duration, child time]
        self.stack: list[int] = []
        self.leaves = {p: {} for p in PHASES}    # name -> [count, seconds]
        self.counters = {p: {} for p in PHASES}  # name -> number
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount=1) -> None:
        c = self.counters[self.phase]
        c[name] = c.get(name, 0) + amount

    def _leaf(self, name: str, seconds: float, amount: int) -> None:
        agg = self.leaves[self.phase].setdefault(name, [0, 0.0])
        agg[0] += amount
        agg[1] += seconds
        if self.stack:
            self.spans[self.stack[-1]][5] += seconds

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.phase, perf_counter(), 0.0, 0.0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        span = self.spans[idx]
        span[4] = perf_counter() - span[3]
        self.stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][5] += span[4]
        return span[4]

    # -- wrapper factories -----------------------------------------------

    def span(self, name, fn, after=None):
        """``name`` may be a callable of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def cached_span(self, name: str, fn):
        """Span around an ``lru_cache`` function; a call that raised the
        cache's miss count is charged to ``<name>.misses`` and ``.cold_s``."""
        if not hasattr(fn, "cache_info"):
            return self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = fn.cache_info().misses
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = self._close(idx)
                missed = fn.cache_info().misses - before
                if missed:
                    self.count(name + ".misses", missed)
                    self.count(name + ".cold_s", seconds)

        return wrapper

    def leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf(name, perf_counter() - t0, 1)

        return wrapper

    def leaf_generator(self, name: str, fn):
        """Times each step of a generator; the count is the items yielded."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._leaf(name, perf_counter() - t0, 0)
                    return
                self._leaf(name, perf_counter() - t0, 1)
                yield item

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        """Wrap ``module.attr`` if it exists; a layer that a later version
        renames or removes then reads as zero instead of failing the run."""
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        if self._saved:
            return
        m = {name: importlib.import_module("clusterexp." + name)
             for name in ("graphs", "ursell", "mayer", "polymer", "ising", "potentials", "hardsphere")}
        graphs, ursell, mayer, polymer = m["graphs"], m["ursell"], m["mayer"], m["polymer"]
        ising, potentials, hardsphere = m["ising"], m["potentials"], m["hardsphere"]

        # graphs, under every name the functions are reachable by
        for mod in (graphs, ursell):
            self._patch(mod, "connected_masks",
                        lambda f: self.cached_span("graphs.connected_masks", f))
            self._patch(mod, "enumerate_trees",
                        lambda f: self.leaf_generator("graphs.enumerate_trees", f))
            self._patch(mod, "kruskal_closure", lambda f: self.leaf("graphs.kruskal_closure", f))

        # ursell, including the routes as mayer and polymer import them (today
        # the graph sum; a consumer that switches to the partition route shows
        # as graph-sum calls moving to partition calls)
        def phi_counter(prefix):
            def after(tracer, result):
                tracer.count(prefix + ".phi_calls")
                if not result:
                    tracer.count(prefix + ".phi_zeros")
            return after

        for attr, name in (("ursell_graph_sum", "ursell.graph_sum"),
                           ("ursell_partition_formula", "ursell.partition")):
            self._patch(ursell, attr, lambda f, n=name: self.span(n, f))
            for consumer, prefix in ((mayer, "mayer"), (polymer, "polymer")):
                self._patch(consumer, attr,
                            lambda f, n=name, p=prefix: self.span(n, f, phi_counter(p)))
        self._patch(ursell, "ursell_tree_identity", lambda f: self.span(_tree_route_name, f))
        self._patch(ursell, "_penrose_tree_table",
                    lambda f: self.cached_span("ursell.penrose_table", f))

        # the Phi consumers
        self._patch(mayer, "mayer_coefficients", lambda f: self.span("mayer.coefficients", f))
        for attr, name in (("pinned_series", "pinned_series"),
                           ("cluster_log_truncated", "cluster_log"),
                           ("optimize_constant_mu", "criteria"),
                           ("subset_gas_check", "subset_gas")):
            self._patch(polymer, attr, lambda f, n=name: self.span("polymer." + n, f))

        # ising sweeps: every call below enumerates all 2^(L^2) configurations
        for attr in ("brute_force_Z", "low_T_contour_Z", "magnetization"):
            self._patch(ising, attr, lambda f, a=attr: self.span(
                "ising." + a, _sweep_counter(self, f)))
        self._patch(ising, "high_T_polymer_Z", lambda f: self.span("ising.high_T", f))

        self._patch(potentials, "stability_estimate", lambda f: self.span(
            "potentials.stability_estimate", f,
            lambda t, rep: t.count("potentials.stability_estimate.iters", rep.iterations)))
        self._patch(potentials, "configuration_energy",
                    lambda f: self.leaf("potentials.configuration_energy", f))
        self._patch(hardsphere, "gtilde", lambda f: self.span(
            "hardsphere.gtilde", f, lambda t, est: t.count("hardsphere.gtilde.samples", est.samples)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- export ----------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": [{"name": s[0], "parent": s[1], "phase": s[2], "start": s[3],
                       "dur": s[4], "self": s[4] - s[5]} for s in self.spans],
            "leaves": self.leaves,
            "counters": self.counters,
        }

    def merge(self, other: dict, phase: str) -> None:
        """Fold a dump from a traced child process into ``phase``."""
        base = len(self.spans)
        for s in other["spans"]:
            parent = s["parent"] + base if s["parent"] >= 0 else -1
            self.spans.append([s["name"], parent, phase, s["start"], s["dur"], s["dur"] - s["self"]])
        for p in PHASES:
            for name, (n, sec) in other["leaves"][p].items():
                agg = self.leaves[phase].setdefault(name, [0, 0.0])
                agg[0] += n
                agg[1] += sec
            for name, v in other["counters"][p].items():
                self.counters[phase][name] = self.counters[phase].get(name, 0) + v


def _tree_route_name(V, scheme="penrose", *args, **kwargs):
    return "ursell.tree_kruskal" if scheme == "kruskal" else "ursell.tree_penrose"


def _sweep_counter(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(L, *args, **kwargs):
        result = fn(L, *args, **kwargs)
        tracer.count("ising.configs_swept", 1 << (L * L))
        return result

    return counted

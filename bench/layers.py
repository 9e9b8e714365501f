"""Per-layer metrics of a traced run, and the end-to-end metric each should move.

Layers are clusterexp's modules.  Times and counts marked "per pass" are
totals over the traced passes divided by their number; ``misses`` and
``cold_s`` are cache misses and the time of the calls that missed, over the
set-up plus one pass (a steady pass misses nothing).  A ratio is given with
its base: ``phi_zero_frac`` is the share of ``phi_calls`` that returned 0.

Each row is (name, unit, better, what it should move).  ``BENCHMARK.json``
lists the same names, units and directions.
"""

from __future__ import annotations

from workloads import README_COMMANDS

_U7 = "setup_s and wall_s on ursell-n7; no other workload"
_LAT = "wall_s on lattice-series"
_ISING = "wall_s on ising-box (a cached histogram: also its setup_s and peak_rss_mib)"
_CLI = "wall_s on readme-cli"

LAYER_METRICS = [
    ("graphs.connected_masks.misses", "count", "lower", _U7),
    ("graphs.connected_masks.cold_s", "s", "lower", _U7),
    ("graphs.enumerate_trees.trees", "count", "lower", _U7),
    ("graphs.enumerate_trees.s", "s", "lower", _U7),
    ("graphs.kruskal_closure.calls", "count", "lower", _U7),
    ("graphs.kruskal_closure.s", "s", "lower", _U7),
    ("ursell.graph_sum.calls", "count", "lower", "wall_s on ursell-n7 and lattice-series"),
    ("ursell.graph_sum.self_s", "s", "lower", "wall_s on ursell-n7 and lattice-series"),
    ("ursell.partition.calls", "count", "lower",
     "wall_s on ursell-n7; a route switch moves graph-sum calls here"),
    ("ursell.partition.self_s", "s", "lower", "wall_s on ursell-n7"),
    ("ursell.tree_penrose.self_s", "s", "lower", "wall_s on ursell-n7"),
    ("ursell.tree_kruskal.self_s", "s", "lower", "wall_s on ursell-n7"),
    ("ursell.penrose_table.misses", "count", "lower", "setup_s on ursell-n7"),
    ("ursell.penrose_table.cold_s", "s", "lower", "setup_s on ursell-n7"),
    ("mayer.coefficients.self_s", "s", "lower", _LAT),
    ("mayer.phi_calls", "count", "lower", _LAT),
    ("mayer.phi_zero_frac", "fraction", "lower", _LAT),
    ("polymer.pinned_series.self_s", "s", "lower", _LAT),
    ("polymer.cluster_log.self_s", "s", "lower", _LAT),
    ("polymer.criteria.self_s", "s", "lower", _LAT),
    ("polymer.subset_gas.self_s", "s", "lower", _LAT),
    ("polymer.phi_calls", "count", "lower", _LAT),
    ("polymer.phi_zero_frac", "fraction", "lower", _LAT),
    ("ising.brute_force_Z.s", "s", "lower", _ISING),
    ("ising.low_T_contour_Z.s", "s", "lower", _ISING),
    ("ising.magnetization.s", "s", "lower", _ISING),
    ("ising.high_T.s", "s", "lower", _ISING),
    ("ising.configs_swept", "count", "lower", _ISING),
    ("ising.configs_per_s", "1/s", "higher", _ISING),
    ("cli.startup_s", "s", "lower", "setup_s and wall_s on readme-cli; import is in every setup_s"),
    *((f"cli.{key}.s", "s", "lower", "wall_s on readme-cli") for key, _, _ in README_COMMANDS),
    ("potentials.stability_estimate.s", "s", "lower", _CLI),
    ("potentials.stability_estimate.iters", "count", "lower", _CLI),
    ("potentials.configuration_energy.calls", "count", "lower", _CLI),
    ("hardsphere.gtilde.s", "s", "lower", _CLI),
    ("hardsphere.gtilde.samples_per_s", "1/s", "higher", _CLI),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s per pass"),
    ("trace.passes", "count", "higher", "none: traced passes the per-pass figures average"),
]

_SPAN_SELF = {
    "ursell.graph_sum.self_s": "ursell.graph_sum",
    "ursell.partition.self_s": "ursell.partition",
    "ursell.tree_penrose.self_s": "ursell.tree_penrose",
    "ursell.tree_kruskal.self_s": "ursell.tree_kruskal",
    "mayer.coefficients.self_s": "mayer.coefficients",
    "polymer.pinned_series.self_s": "polymer.pinned_series",
    "polymer.cluster_log.self_s": "polymer.cluster_log",
    "polymer.criteria.self_s": "polymer.criteria",
    "polymer.subset_gas.self_s": "polymer.subset_gas",
}
_SPAN_TOTAL = {
    "ising.brute_force_Z.s": "ising.brute_force_Z",
    "ising.low_T_contour_Z.s": "ising.low_T_contour_Z",
    "ising.magnetization.s": "ising.magnetization",
    "ising.high_T.s": "ising.high_T",
    "potentials.stability_estimate.s": "potentials.stability_estimate",
    "hardsphere.gtilde.s": "hardsphere.gtilde",
}
_SPAN_CALLS = {
    "ursell.graph_sum.calls": "ursell.graph_sum",
    "ursell.partition.calls": "ursell.partition",
}
_LEAVES = {
    "graphs.enumerate_trees.trees": ("graphs.enumerate_trees", 0),
    "graphs.enumerate_trees.s": ("graphs.enumerate_trees", 1),
    "graphs.kruskal_closure.calls": ("graphs.kruskal_closure", 0),
    "graphs.kruskal_closure.s": ("graphs.kruskal_closure", 1),
    "potentials.configuration_energy.calls": ("potentials.configuration_energy", 0),
}
_PASS_COUNTERS = {
    "mayer.phi_calls": "mayer.phi_calls",
    "polymer.phi_calls": "polymer.phi_calls",
    "ising.configs_swept": "ising.configs_swept",
    "potentials.stability_estimate.iters": "potentials.stability_estimate.iters",
}
_CACHE_COUNTERS = ("graphs.connected_masks.misses", "graphs.connected_masks.cold_s",
                   "ursell.penrose_table.misses", "ursell.penrose_table.cold_s")


def layer_values(tracer, passes: int, overhead: float, extras: dict) -> dict:
    """name -> (value, unit) for every row of LAYER_METRICS."""
    per = 1.0 / passes
    selfs: dict = {}
    totals: dict = {}
    calls: dict = {}
    for name, _parent, phase, _start, dur, child in tracer.spans:
        if phase != "pass":
            continue
        selfs[name] = selfs.get(name, 0.0) + dur - child
        totals[name] = totals.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
    leaves = tracer.leaves["pass"]
    setup_ctr, pass_ctr = tracer.counters["setup"], tracer.counters["pass"]

    v: dict = {}
    for metric, span in _SPAN_SELF.items():
        v[metric] = selfs.get(span, 0.0) * per
    for metric, span in _SPAN_TOTAL.items():
        v[metric] = totals.get(span, 0.0) * per
    for metric, span in _SPAN_CALLS.items():
        v[metric] = calls.get(span, 0) * per
    for metric, (leaf, field) in _LEAVES.items():
        v[metric] = leaves.get(leaf, (0, 0.0))[field] * per
    for metric, ctr in _PASS_COUNTERS.items():
        v[metric] = pass_ctr.get(ctr, 0) * per
    for metric in _CACHE_COUNTERS:
        v[metric] = setup_ctr.get(metric, 0) + pass_ctr.get(metric, 0) * per
    for prefix in ("mayer", "polymer"):
        n = pass_ctr.get(prefix + ".phi_calls", 0)
        v[prefix + ".phi_zero_frac"] = pass_ctr.get(prefix + ".phi_zeros", 0) / n if n else 0.0
    sweep_s = sum(totals.get(s, 0.0) for s in
                  ("ising.brute_force_Z", "ising.low_T_contour_Z", "ising.magnetization"))
    v["ising.configs_per_s"] = pass_ctr.get("ising.configs_swept", 0) / sweep_s if sweep_s else 0.0
    gt = totals.get("hardsphere.gtilde", 0.0)
    v["hardsphere.gtilde.samples_per_s"] = pass_ctr.get("hardsphere.gtilde.samples", 0) / gt if gt else 0.0
    v["trace.overhead_s"] = overhead
    v["trace.passes"] = passes
    for name, _, _, _ in LAYER_METRICS:
        if name.startswith("cli."):
            v[name] = extras.get(name, 0.0)
    return {name: (v[name], unit) for name, unit, _, _ in LAYER_METRICS}

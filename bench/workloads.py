"""The four workloads: inputs from the seed, a set-up, a timed pass, checks.

A workload's ``load`` imports clusterexp and ``warm_up`` fills the caches the
pass relies on by making the pass's own calls on fixed warm-up inputs; both
are set-up time.  ``ops(k, tracer)`` lists pass ``k`` as ``(kind, call)``
pairs; every pass has the same kinds in the same order, and each call is timed
on its own.  ``check(k, outputs)`` takes the ``(kind, result)`` pairs of a
pass, compares them with an independent route or an exact value and returns
``(name, ok, detail)`` per check.  Module functions are looked up at call
time (``U.ursell_graph_sum``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys

import oracles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REL_TOL = 1e-10  # float routes of one coefficient, as the identity suite uses
ISING_TOL = 1e-12


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _close(a, b, tol=REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), 1e-30)


def _equal(a, b) -> bool:
    return a == b


class Workload:
    name = ""
    why = ""
    in_process = True  # False: the work runs in child processes

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def load(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def ops(self, k: int, tracer) -> list:
        raise NotImplementedError

    def check(self, k: int, outputs: list) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def layer_extras(self, setup_samples: list[float], traced_op_s: dict) -> dict:
        """Per-layer metrics the benchmark measures itself, from the set-up
        samples and the median traced time of each op kind."""
        return {}


# ---------------------------------------------------------------------------


class UrsellN7(Workload):
    name = "ursell-n7"
    why = ("graphs and ursell dominate: connected-graph and Penrose tables at n=7, "
           "then four routes per matrix")

    def load(self):
        from clusterexp import ursell
        self.U = ursell
        # (n, float matrices, hard-core matrices) per pass
        self.plan = [(5, 1, 1), (4, 1, 1)] if self.tiny else [(7, 1, 1), (6, 3, 3)]

    def _matrix(self, shape_rng, rng, n: int, hard: bool):
        """A matrix whose cost does not depend on the seed.

        The routes' work depends on which pairs are +inf (40% for hard core,
        20% for floats) and, through the Kruskal order, on the ranks of the
        values.  ``shape_rng`` fixes both; ``rng`` (the seed) relabels the
        vertices, which maps trees and closures onto isomorphic ones, and
        draws the finite values, which are placed in the fixed rank order.
        """
        m = n * (n - 1) // 2
        n_inf = round((0.4 if hard else 0.2) * m)
        by_rank = shape_rng.sample(range(m), m)
        finite = [0.0] * (m - n_inf) if hard else sorted(rng.uniform(-0.5, 2.0)
                                                          for _ in range(m - n_inf))
        base = dict(zip(by_rank, finite + [math.inf] * n_inf))
        label = rng.sample(range(n), n)
        vals = {}
        for p, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
            a, b = sorted((label[i], label[j]))
            vals[(a, b)] = base[p]
        return self.U.InteractionMatrix(n, vals)

    def warm_up(self):
        # Through the routes, not connected_masks(n) directly: the graph sum
        # calls connected_masks(n, GRAPH_CAP), which lru_cache keys apart from
        # connected_masks(n), so a direct warm-up would miss and rebuild.
        rng = _rng("warm-up")
        for n, _, _ in self.plan:
            V = self._matrix(rng, rng, n, hard=True)
            self.U.ursell_graph_sum(V)
            self.U.ursell_partition_formula(V)
            self.U.ursell_tree_identity(V, "penrose")

    def _routes(self, V):
        U = self.U
        return (U.ursell_graph_sum(V), U.ursell_partition_formula(V),
                U.ursell_tree_identity(V, "penrose"), U.ursell_tree_identity(V, "kruskal"))

    def ops(self, k, tracer):
        """New matrices in every pass, so a run covers more inputs."""
        shape_rng, rng = _rng(self.name, k), _rng(self.name, self.seed, k)
        out = []
        for n, n_float, n_hard in self.plan:
            for hard in [False] * n_float + [True] * n_hard:
                V = self._matrix(shape_rng, rng, n, hard)
                out.append((f"n{n}-{'hard' if hard else 'float'}", lambda V=V: self._routes(V)))
        return out

    def check(self, k, outputs):
        res = []
        for kind, (graph, *routes) in outputs:
            for route, value in zip(("partition", "penrose", "kruskal"), routes):
                ok = (type(value) is int and value == graph) if "hard" in kind else _close(value, graph)
                res.append((f"{kind}-{route}", ok, f"graph sum {graph!r}, {route} {value!r}"))
        return res


# ---------------------------------------------------------------------------


class LatticeSeries(Workload):
    name = "lattice-series"
    why = ("the Phi consumers: Mayer coefficients on lattices and the polymer "
           "series, criteria and subset-gas induction")

    def load(self):
        from clusterexp import mayer, polymer, potentials
        self.M, self.PL, self.P = mayer, polymer, potentials
        rng = _rng(self.name, self.seed)
        tiny = self.tiny
        self.n_max = 4 if tiny else 6
        self.hc_grid = self.M.DiscreteVolume.grid(4, 4)
        self.step_grid = self.M.DiscreteVolume.grid(2, 2) if tiny else self.M.DiscreteVolume.grid(3, 3)
        self.step_spec = potentials.step_table([0.5, 1.0], [math.inf, -0.3])
        self.step_beta = rng.uniform(0.5, 1.5)
        self.domino = polymer.domino_system(5, 5)
        self.center = polymer.domino_center(self.domino)
        self.pinned_order = 2 if tiny else 4
        self.pinned_rho = rng.uniform(0.02, 0.08)
        tri = polymer.triangular_window(2)
        by_distance = sorted(tri.polymers, key=lambda p: (abs(p[0]) + abs(p[1]), p))
        self.tri, self.tri_region = tri, by_distance[:6 if tiny else 12]
        self.log_order = 3 if tiny else 5
        self.subset_sys = polymer.random_subset_gas(
            list(range(8 if tiny else 12)), 10 if tiny else 16, 3, rng)
        self.first = None

    def warm_up(self):
        small = self.M.DiscreteVolume.grid(2, 2)
        self.M.mayer_coefficients(small, self.P.hard_core(1.0), 1.0, self.n_max)
        self.M.mayer_coefficients(small, self.step_spec, self.step_beta, self.n_max)

    def _subset_gas(self):
        rep = self.PL.subset_gas_check(self.subset_sys)
        return bool(rep.condition.satisfied), rep.verified, rep.max_pinned_sum

    def ops(self, k, tracer):
        M, PL = self.M, self.PL
        return [
            ("mayer_hard_core", lambda: [r.value for r in M.mayer_coefficients(
                self.hc_grid, self.P.hard_core(1.0), 1.0, self.n_max)]),
            ("mayer_step", lambda: [r.value for r in M.mayer_coefficients(
                self.step_grid, self.step_spec, self.step_beta, self.n_max)]),
            ("pinned", lambda: PL.pinned_series(self.domino, self.center, self.pinned_order,
                                                self.pinned_rho).partials),
            ("cluster_log", lambda: PL.cluster_log_truncated(self.tri, self.tri_region,
                                                             self.log_order)),
            *((f"criteria_{w}", lambda w=w: PL.optimize_constant_mu(self.domino, self.center, w)[1])
              for w in ("kp", "dob", "fp")),
            ("subset_gas", self._subset_gas),
        ]

    def check(self, k, outputs):
        out = dict(outputs)
        if k > 0:
            # same inputs every pass: the outputs must repeat bit for bit
            return [(f"repeat-{key}", out[key] == self.first[key], "") for key in out]
        self.first = out
        res = []
        step = oracles.mayer_coefficients(self.step_grid.sites, self.step_spec, self.step_beta,
                                          self.n_max)
        for key, want, same in (("mayer_hard_core", oracles.MAYER_4X4_HARD_CORE, _equal),
                                ("mayer_step", step, _close)):
            got = out[key]
            res.append((f"{key}-count", len(got) == self.n_max, f"{len(got)} coefficients"))
            for n, (g, w) in enumerate(zip(got, want), 1):
                res.append((f"{key}-C{n}", same(g, w), f"{g!r} vs {w!r}"))
        want = oracles.pinned_partials(self.domino, self.center, self.pinned_order, self.pinned_rho)
        res.append(("pinned-partials", len(want) == len(out["pinned"]) and all(
            _close(g, w, 1e-12) for g, w in zip(out["pinned"], want)), f"{out['pinned']} vs {want}"))
        bad = oracles.cluster_log_mismatches(self.tri, self.tri_region, self.log_order,
                                             out["cluster_log"])
        res.append(("cluster-log", bad == 0, f"{bad} coefficients differ from the partition route"))
        for w, want in oracles.DOMINO_RADII.items():
            r = out[f"criteria_{w}"]
            res.append((f"criteria-{w}", _close(r, want, 1e-8), f"{r!r} vs {want!r}"))
        satisfied, verified, worst = out["subset_gas"]
        want = oracles.subset_gas_max_pinned(self.subset_sys)
        res.append(("subset-gas-verified", satisfied and verified, ""))
        res.append(("subset-gas-max-pinned", _close(worst, want, 1e-9), f"{worst!r} vs {want!r}"))
        return res


# ---------------------------------------------------------------------------


class IsingBox(Workload):
    name = "ising-box"
    why = "ising's full 2^(L^2) sweeps at L=4, free and plus boundaries, over many beta"

    def load(self):
        from clusterexp import ising
        self.I = ising
        self.L = 3 if self.tiny else 4
        self.n_beta = 3 if self.tiny else 12

    def _row(self, beta):
        """The computations of one ``clusterexp ising z`` row."""
        I, L = self.I, self.L
        return (beta, I.brute_force_Z(L, beta), I.high_T_polymer_Z(L, beta),
                I.low_T_contour_Z(L, beta), I.brute_force_Z(L, beta, boundary="plus"),
                I.magnetization(L, beta), I.magnetization(L, beta, boundary="plus"))

    def warm_up(self):
        self._row(0.4)

    def ops(self, k, tracer):
        """One op per beta; the betas are stratified over [0.05, 1.5], since
        the exactly rounded sums cost more at large beta."""
        rng = _rng(self.name, self.seed, k)
        width = 1.45 / self.n_beta
        return [("beta", lambda b=0.05 + (i + rng.random()) * width: self._row(b))
                for i in range(self.n_beta)]

    def check(self, k, outputs):
        res = []
        for _, (beta, zb, (_, z_high), low, zb_plus, m_free, m_plus) in outputs:
            b = f"beta={beta:.6f}"
            res.append((f"high-T {b}", abs(z_high - zb) <= ISING_TOL * zb, f"{z_high!r} vs {zb!r}"))
            res.append((f"low-T {b}", abs(low.z_reconstructed - zb_plus) <= ISING_TOL * zb_plus,
                        f"{low.z_reconstructed!r} vs {zb_plus!r}"))
            res.append((f"M-free {b}", m_free.mean == 0.0, repr(m_free.mean)))
            res.append((f"M-plus-bounds {b}", m_plus.low_t_bound_ok is not False
                        and m_plus.high_t_site_bounds_ok is not False and 0.0 < m_plus.mean <= 1.0,
                        repr(m_plus.mean)))
        return res


# ---------------------------------------------------------------------------


def _table(text: str) -> dict:
    """``key = value`` lines of the CLI's table format."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and not line.startswith(" "):
            out[key] = value
    return out


def _csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_graphs_count(out, wl):
    t = _table(out)
    return [("connected", t.get("connected") == "26704", t.get("connected")),
            ("alternating", t.get("alternating_sum") == "-120", t.get("alternating_sum"))]


def _check_verify_scheme(out, wl):
    t = _table(out)
    # the intervals [tree, closure] hold 728 graphs: every connected graph on 5 vertices once
    return [("ok", t.get("ok") == "True" and t.get("intervals") == "728", out.strip()[-80:])]


def _check_ursell(out, wl):
    t = _table(out)
    keys = ("graph_sum", "partition_formula", "tree_identity_penrose", "tree_identity_kruskal")
    return [(k, t.get(k) == "2", t.get(k)) for k in keys]


def _check_stability(out, wl):
    t = _table(out)
    pts = ast.literal_eval(t["witness"])
    want = -oracles.square_well_energy(pts, 5.0, 1.0, 0.5) / len(pts)
    got = float(t["estimate"])
    return [("estimate", len(pts) == 6 and got > 0 and _close(got, want, 1e-9),
             f"{got!r} vs witness energy {want!r}")]


def _check_fcc(out, wl):
    t = _table(out)
    n, bonds = oracles.fcc_cluster(10)
    return [("sites", t.get("n") == str(n), f"{t.get('n')} vs {n}"),
            ("bonds", t.get("bond_count") == str(bonds), f"{t.get('bond_count')} vs {bonds}")]


def _check_mayer(out, wl):
    from clusterexp import mayer, potentials

    rows = _csv(out)
    want = oracles.mayer_coefficients(mayer.DiscreteVolume.grid(3, 3).sites,
                                      potentials.hard_core(1.0), 1.0, 4)
    return [(f"C{n}", len(rows) == 4 and float(rows[n - 1]["C_n"]) == float(w),
             f"{rows[n - 1]['C_n'] if len(rows) == 4 else rows} vs {w}")
            for n, w in enumerate(want, 1)]


def _check_virial(out, wl):
    got = float(_table(out)["max_value"])
    return [("max_value", _close(got, oracles.virial_max(), 1e-9), repr(got))]


def _check_criteria(out, wl):
    doc = json.loads(out)
    return [(w, _close(doc[w]["radius"], r, 1e-8), repr(doc[w]["radius"]))
            for w, r in oracles.DOMINO_RADII.items()]


def _check_subset(out, wl):
    from clusterexp import polymer

    t = _table(out)
    sys_ = polymer.random_subset_gas(list(range(8)), 10, 3, random.Random(wl.command_seed("subset")),
                                     a=math.log(2.0))
    want = oracles.subset_gas_max_pinned(sys_)
    got = float(t["max_pinned_sum"])
    return [("verified", t.get("condition_satisfied") == "True"
             and t.get("induction_verified") == "True", ""),
            ("max_pinned_sum", _close(got, want, 1e-9), f"{got!r} vs {want!r}")]


def _check_ising_z(out, wl):
    rows = _csv(out)
    res = [("rows", len(rows) == 3, str(len(rows)))]
    for r in rows:
        res.append((f"beta={r['beta']}", float(r["highT_rel_err"]) <= ISING_TOL
                    and float(r["lowT_rel_err"]) <= ISING_TOL and float(r["M"]) == 0.0, str(r)))
    return res


def _check_duality(out, wl):
    t = _table(out)
    beta_c = math.log(1.0 + math.sqrt(2.0)) / 2.0
    return [("xi_equal", t.get("xi_equal") == "True", t.get("xi_equal")),
            ("beta_c", _close(float(t["beta_c"]), beta_c, 1e-12), t.get("beta_c"))]


def _check_gtilde(out, wl):
    doc = json.loads(out)
    slack = 5.0 * doc["std_error"] + 1e-4  # reference is rounded to 3 figures
    return [("estimate", abs(doc["estimate"] - oracles.G23_REFERENCE) <= slack,
             f"{doc['estimate']!r} +- {doc['std_error']!r}")]


def _check_verify(out, wl):
    t = _table(out)
    rows = [line.split("\t") for line in out.splitlines() if "\t" in line]
    return [("ok", t.get("ok") == "True" and len(rows) > 1
             and all(r[1] == "True" for r in rows[1:]), f"{len(rows) - 1} rows")]


# (metric key, arguments, checker); where the README line passes a seed,
# "{name}" takes one derived from the benchmark seed.
README_COMMANDS = [
    ("graphs_count", "graphs count --n 6", _check_graphs_count),
    ("graphs_verify_scheme", "graphs verify-scheme --n 5 --scheme kruskal --seed {scheme}",
     _check_verify_scheme),
    ("ursell", ["ursell", "--matrix", "3; 0 1 inf; 0 2 inf; 1 2 inf"], _check_ursell),
    ("potentials_stability",
     "potentials stability --family square_well --params A=5 R=1 delta=0.5 --n 6", _check_stability),
    ("potentials_fcc", "potentials fcc --shells 10", _check_fcc),
    ("mayer_coefficients",
     "mayer coefficients --grid 3x3 --family hard_core --params a=1.0 --n-max 4 --format csv",
     _check_mayer),
    ("mayer_virial", "mayer virial --beta 1 --Bbar 0.5 --Ctilde 0.3", _check_virial),
    ("polymer_criteria", "polymer criteria --model domino --format json", _check_criteria),
    ("polymer_subset_check", "polymer subset-check --vertices 8 --seed {subset}", _check_subset),
    ("ising_z", "ising z --L 3 --beta 0.1 0.3 0.7 --format csv", _check_ising_z),
    ("ising_duality", "ising duality --L 5 --beta 0.3", _check_duality),
    ("hardsphere_gtilde",
     "hardsphere gtilde --d 2 --k 3 --samples 1000000 --seed {gtilde} --format json",
     _check_gtilde),
    ("verify", "verify --suite all --max-n 5", _check_verify),
]
TINY_COMMANDS = ("graphs_count", "ursell", "mayer_virial")


class ReadmeCli(Workload):
    name = "readme-cli"
    why = "the README commands as fresh processes, so start-up and import are paid each time"
    in_process = False

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        seeds = {name: self.command_seed(name) for name in ("scheme", "subset", "gtilde")}
        self.commands = []
        for key, args, checker in README_COMMANDS:
            if self.tiny and key not in TINY_COMMANDS:
                continue
            if isinstance(args, str):
                args = [a.format(**seeds) for a in args.split()]
            self.commands.append((key, args, checker))
        self.out_dir = os.path.join(os.getcwd(), ".bench_out")

    def command_seed(self, name: str) -> int:
        return _rng(self.name, self.seed, name).randrange(1000)

    def warm_up(self):
        code, stdout, stderr = self._command(["--version"], None)
        if code != 0 or not stdout.strip():
            raise RuntimeError(f"clusterexp --version failed: {stderr.strip()}")

    def _command(self, args, tracer):
        if tracer is None:
            proc = subprocess.run([sys.executable, "-m", "clusterexp.cli", *args],
                                  capture_output=True, text=True, timeout=120)
        else:
            os.makedirs(self.out_dir, exist_ok=True)
            spans_path = os.path.join(self.out_dir, f"child-{os.getpid()}.json")
            proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"),
                                   spans_path, *args], capture_output=True, text=True, timeout=120)
            if os.path.exists(spans_path):
                with open(spans_path) as fh:
                    tracer.merge(json.load(fh), "pass")
                os.remove(spans_path)
        return proc.returncode, proc.stdout, proc.stderr

    def ops(self, k, tracer):
        return [(key, lambda args=args: self._command(args, tracer)) for key, args, _ in self.commands]

    def check(self, k, outputs):
        checkers = {key: checker for key, _, checker in self.commands}
        res = []
        for key, (code, stdout, stderr) in outputs:
            res.append((f"{key}-exit", code == 0, stderr.strip()[-200:]))
            try:
                res.extend((f"{key}-{name}", ok, detail)
                           for name, ok, detail in checkers[key](stdout, self))
            except (KeyError, ValueError, IndexError, SyntaxError) as exc:
                res.append((f"{key}-parse", False, f"{type(exc).__name__}: {exc}"))
        return res

    def layer_extras(self, setup_samples, traced_op_s):
        extras = {f"cli.{key}.s": seconds for key, seconds in traced_op_s.items()}
        extras["cli.startup_s"] = statistics.median(setup_samples)
        return extras


WORKLOADS = {w.name: w for w in (UrsellN7, LatticeSeries, IsingBox, ReadmeCli)}

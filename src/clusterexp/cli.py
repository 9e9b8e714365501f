"""Command-line entry point.

Subcommands mirror the library modules: graphs, ursell, potentials, mayer,
polymer, ising, hardsphere, plus a verify mode running the identity suites.
Every artifact echoes its full input configuration (seed included) so a run
can be reproduced from its own output; floats are emitted with 17 significant
digits.  Exit status: 0 on success, 1 when a verify-mode invariant fails,
2 on usage errors.

Each handler imports the module it runs, and this module imports neither
numpy nor any computation module at the top, so a fresh process compiles
only what its subcommand needs (``--version`` loads none of them).

``main`` runs numpy's OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS``
is already set: its idle worker thread costs about 0.1 s of CPU per command,
and no command makes a BLAS call large enough to use it.  The setting belongs
to the command-line process; ``import clusterexp`` sets nothing.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import __version__

SCHEMA = "clusterexp/1"


def _fmt_float(x) -> str:
    return format(float(x), ".17g")


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, float):
        return float(_fmt_float(obj)) if math.isfinite(obj) else repr(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted((str(v) for v in obj))
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def _emit(args, payload: dict, rows: list[dict] | None = None, columns: tuple = ()) -> None:
    """``columns`` heads the csv form when ``rows`` is empty."""
    if args.format == "csv" and rows is None:
        raise ValueError("this subcommand has no tabular form; use --format json")
    payload = {"schema": SCHEMA, "version": __version__, **payload}
    out = _open(args.output, "w") if args.output else sys.stdout
    try:
        if args.format == "json":
            json.dump(_jsonable(payload), out, indent=2)
            out.write("\n")
        elif args.format == "csv":
            writer = csv.DictWriter(out, fieldnames=list(rows[0]) if rows else list(columns))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: (_fmt_float(v) if isinstance(v, float) else v)
                                 for k, v in row.items()})
        else:  # table
            _print_table(out, payload, rows)
    finally:
        if out is not sys.stdout:
            out.close()


def _print_table(out, payload: dict, rows) -> None:
    for k, v in payload.items():
        if k in ("schema", "version", "rows"):
            continue
        if isinstance(v, dict):
            out.write(f"{k}:\n")
            for kk, vv in v.items():
                out.write(f"  {kk} = {_fmt_float(vv) if isinstance(vv, float) else vv}\n")
        else:
            out.write(f"{k} = {_fmt_float(v) if isinstance(v, float) else v}\n")
    if rows:
        cols = list(rows[0].keys())
        out.write("\t".join(cols) + "\n")
        for row in rows:
            out.write("\t".join(
                _fmt_float(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols
            ) + "\n")


def _read(path: str) -> str:
    with _open(path, "r") as fh:
        return fh.read()


def _open(path: str, mode: str):
    """``open``, with a missing or unreadable path refused as a usage error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValueError(f"cannot open {path!r}: {exc.strerror}") from None


def _pairs(items: list[str] | None) -> dict[str, float]:
    from . import potentials

    return {k: float(v) for k, v in potentials.parse_pairs(items or []).items()}


def _spec_from_args(args):
    from . import potentials

    if args.spec_file:
        given = [f"--{k}" for k in ("family", "params", "dimension") if getattr(args, k) is not None]
        if given:
            raise ValueError(f"--spec-file excludes {', '.join(given)}: the file gives the whole spec")
        return potentials.spec_from_text(_read(args.spec_file))
    return potentials.build_spec(args.family or "hard_core", _pairs(args.params),
                                 3 if args.dimension is None else args.dimension)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_graphs(args) -> int:
    from . import graphs

    n = args.n
    payload: dict = {"command": "graphs", "n": n}
    if args.action == "count":
        payload.update(
            graphs=2 ** graphs.num_pairs(n),
            connected=graphs.count_connected(n),
            trees=n ** max(n - 2, 0),
            alternating_sum=graphs.alternating_connected_sum(n),
        )
    elif args.action == "verify-scheme":
        graphs.connected_masks(n)  # refuses n beyond the cap before any tree table
        if args.scheme == "penrose":
            added = graphs.penrose_added(n)
        else:
            import random as _random

            rng = _random.Random(args.seed)
            w = {p: rng.random() for p in graphs.vertex_pairs(n)}
            added = graphs.kruskal_added(graphs.EdgeOrder.from_weights(n, w))
        rep = graphs.verify_partition_scheme(n, added)
        payload.update(scheme=args.scheme, seed=args.seed, ok=bool(rep), reason=rep.reason,
                       intervals=rep.interval_count)
        if rep.counterexample is not None:
            payload["counterexample"] = rep.counterexample.to_text()
        _emit(args, payload)
        return 0 if rep else 1
    _emit(args, payload)
    return 0


def _cmd_ursell(args) -> int:
    import numpy as np

    from . import ursell

    if args.matrix_file:
        V = ursell.InteractionMatrix.from_text(_read(args.matrix_file))
    elif args.matrix:
        V = ursell.InteractionMatrix.from_text(args.matrix)
    else:
        raise ValueError("need --matrix or --matrix-file")
    if V.n < 1:
        raise ValueError("need n >= 1")
    overflow = ValueError(f"the Ursell coefficient overflows a float at n = {V.n}: "
                          "Boltzmann weights this large have no finite sum")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            a = ursell.ursell_graph_sum(V)
            b = ursell.ursell_partition_formula(V)
            c = ursell.ursell_tree_identity(V, "penrose")
            d = ursell.ursell_tree_identity(V, "kruskal")
    except OverflowError as exc:  # e^(-V) - 1 past the float range
        raise overflow from exc
    except ValueError as exc:  # fsum meets the terms +inf and -inf
        if str(exc) != "-inf + inf in fsum":
            raise
        raise overflow from exc
    if not all(math.isfinite(x) for x in map(float, (a, b, c, d))):
        raise overflow
    scale = max(abs(float(a)), 1e-30)
    payload = {
        "command": "ursell",
        "n": V.n,
        "hard_core": V.is_hard_core,
        "graph_sum": float(a),
        "partition_formula": float(b),
        "tree_identity_penrose": float(c),
        "tree_identity_kruskal": float(d),
        "max_relative_spread": max(abs(float(a - b)), abs(float(a - c)), abs(float(a - d))) / scale,
    }
    _emit(args, payload)
    return 0


def _cmd_potentials(args) -> int:
    from . import potentials

    spec = _spec_from_args(args)
    payload: dict = {
        "command": "potentials", "action": args.action,
        "spec": {"family": spec.family, "dimension": spec.dimension,
                 **spec.p},
    }
    if args.action == "eval":
        payload.update(r=args.r, value=potentials.potential_eval(spec, args.r))
    elif args.action == "stability":
        rep = potentials.stability_estimate(spec, args.n, budget=args.budget, seed=args.seed)
        payload.update(n=rep.n, estimate=rep.estimate, seed=rep.seed, budget=rep.budget,
                       iterations=rep.iterations,
                       witness=None if rep.witness is None else rep.witness.tolist())
    elif args.action == "integrals":
        ri = potentials.regularity_integrals(spec, args.beta)
        payload.update(beta=args.beta, c=ri.c, c_tilde=ri.c_tilde)
    elif args.action == "classify":
        cls = potentials.basuev_classify(spec, args.a)
        payload.update(a=args.a, verdict=cls.verdict, v_a=cls.v_a, mu_hat=cls.mu_hat,
                       kissing_used=cls.kissing_used, degenerate=cls.degenerate, sound=cls.sound())
    elif args.action == "fcc":
        w = potentials.fcc_witness(args.shells)
        payload.update(shells=args.shells, n=w.n, bond_count=w.bond_count,
                       ratio=w.bond_count / max(w.n, 1),
                       exceeds_11n_over_2=2 * w.bond_count > 11 * w.n)
    elif args.action == "ruelle-ratios":
        div = potentials.ruelle_divergence_witness(args.lam, args.beta, args.n,
                                                   s_max=args.s_max, eps=args.eps)
        payload.update(lam=args.lam, beta=args.beta, n=div.n, eps=div.eps,
                       s_max=args.s_max, last_ratio=div.last_ratio,
                       growing=div.ratios[-1] > div.ratios[-2] > div.ratios[-3])
    _emit(args, payload)
    return 0


def _cmd_mayer(args) -> int:
    from . import mayer

    if args.action == "coefficients":
        if args.grid:
            w, _, h = args.grid.partition("x")
            if not (w.isdecimal() and h.isdecimal()):
                raise ValueError(f"--grid {args.grid!r} is not of the form WxH")
            vol = mayer.DiscreteVolume.grid(int(w), int(h))
        else:
            vol = mayer.DiscreteVolume.path(args.path)
        spec = _spec_from_args(args)
        recs = mayer.mayer_coefficients(vol, spec, args.beta, args.n_max, B=args.B, Bbar=args.Bbar)
        rows = [
            {"n": r.n, "C_n": float(r.value),
             "PR": "" if r.bound_pr is None else float(r.bound_pr),
             "PY": "" if r.bound_py is None else float(r.bound_py),
             "Basuev": "" if r.bound_basuev is None else float(r.bound_basuev)}
            for r in recs
        ]
        payload = {"command": "mayer", "action": "coefficients", "volume_size": vol.size,
                   "beta": args.beta, "inputs": recs[0].inputs, "rows": rows}
        _emit(args, payload, rows=rows)
        return 0
    if args.action == "ks":
        table = mayer.ks_recursion(args.m_max, args.beta, args.B or 0.0, args.C)
        exact = {(n, l): mayer.ks_closed_form(n, l, args.beta, args.B or 0.0, args.C)
                 for n, l in table}
        worst = max(abs(v - exact[key]) / abs(exact[key]) for key, v in table.items())
        payload = {"command": "mayer", "action": "ks", "m_max": args.m_max, "beta": args.beta,
                   "B": args.B or 0.0, "C": args.C, "entries": len(table),
                   "worst_relative_error_vs_closed_form": worst}
        _emit(args, payload)
        return 0
    if args.action == "radii":
        rb = mayer.radius_bounds(args.beta, args.B or 0.0, args.C, args.Ctilde)
        payload = {"command": "mayer", "action": "radii", "beta": args.beta, "B": args.B or 0.0,
                   "C": args.C, "Ctilde": args.Ctilde, "r_pr": rb.r_pr, "r_star": rb.r_star,
                   "ratio": rb.ratio, "log_ratio": rb.log_ratio}
        _emit(args, payload)
        return 0
    radius = mayer.virial_radius(args.beta, args.Bbar or 0.0, args.Ctilde)
    w, val = mayer.virial_max_golden()
    payload = {"command": "mayer", "action": "virial", "beta": args.beta,
               "Bbar": args.Bbar or 0.0, "Ctilde": args.Ctilde,
               "virial_radius": radius, "max_w": w, "max_value": val}
    _emit(args, payload)
    return 0


def _build_model(name: str, rho: float) -> tuple:
    from . import polymer

    if name == "domino":
        sys_ = polymer.domino_system(5, 5, rho)
        return sys_, polymer.domino_center(sys_)
    if name == "triangular":
        sys_ = polymer.triangular_window(2, rho)
        return sys_, (0, 0)
    if name.startswith("delta:"):
        delta = int(name.split(":", 1)[1])
        sys_ = polymer.delta_regular_system(delta, rho)
        return sys_, "c"
    raise ValueError(f"unknown model {name!r} (domino, triangular, delta:<k>)")


def _cmd_polymer(args) -> int:
    from . import polymer

    if args.action == "criteria":
        sys_, center = _build_model(args.model, 1.0)
        out = {}
        for which in ("kp", "dob", "fp"):
            mu, val = polymer.optimize_constant_mu(sys_, center, which)
            out[which] = {"radius": val, "mu": mu}
        payload = {"command": "polymer", "action": "criteria", "model": args.model,
                   "kp": out["kp"], "dob": out["dob"], "fp": out["fp"]}
        _emit(args, payload)
        return 0
    if args.action == "partition":
        if not args.system_file:
            raise ValueError("need --system-file")
        sys_ = polymer.system_from_adjacency_text(_read(args.system_file))
        xi = polymer.partition_function(sys_)
        payload = {"command": "polymer", "action": "partition",
                   "polymers": len(sys_), "xi": float(abs(xi)) if isinstance(xi, complex) else float(xi)}
        _emit(args, payload)
        return 0
    if args.action == "subset-check":
        import random as _random

        if args.vertices < 1:
            raise ValueError("--vertices must be at least 1")
        if args.max_size < 1:
            raise ValueError("--max-size must be at least 1")
        rng = _random.Random(args.seed)
        sys_ = polymer.random_subset_gas(list(range(args.vertices)), args.polymers,
                                         args.max_size, rng, a=args.a)
        rep = polymer.subset_gas_check(sys_, a=args.a)
        payload = {"command": "polymer", "action": "subset-check", "seed": args.seed,
                   "vertices": args.vertices, "a": args.a,
                   "condition_value": rep.condition.value,
                   "condition_threshold": rep.condition.threshold,
                   "condition_satisfied": rep.condition.satisfied,
                   "induction_verified": rep.verified,
                   "max_pinned_sum": rep.max_pinned_sum}
        _emit(args, payload)
        return 0 if rep else 1
    params = _pairs(args.params)
    if "d" in params:
        params["d"] = int(params["d"])
    rep = polymer.bounds_catalog(args.which, **params)
    payload = {"command": "polymer", "action": "catalog", "which": args.which,
               "formula": rep.formula, "inputs": rep.inputs, "threshold": rep.threshold,
               "value": rep.value, "satisfied": rep.satisfied, "margin": rep.margin}
    _emit(args, payload)
    return 0


def _refuse_past_float_range(L: int, beta: float, contour: bool = False) -> None:
    """Refuse, before any table is built, a beta whose sums pass the largest
    float: the all-aligned (all-opposite for beta < 0) + boundary term of Z
    alone weighs up to e^(|beta| 2L(L+1)), and for beta < 0 the top term
    e^(-2 beta k) of the contour sum up to e^(2|beta| 2L(L+1))."""
    pairs = 2 * L * (L + 1)
    checks = [("Z", "|beta|", abs(beta))]
    if contour and beta < 0:
        checks.append(("the contour sum Xi", "2|beta|", -2 * beta))
    for what, rate, x in checks:
        try:
            past = math.exp(x * pairs) == math.inf  # an infinite beta gives inf, not an error
        except OverflowError:
            past = True
        if past:
            raise ValueError(f"{what} is past the largest float at L = {L}, beta = {beta}: "
                             f"e^({rate} 2L(L+1)) overflows")


ISING_Z_COLUMNS = ("beta", "Z_brute", "Z_highT", "Xi_highT", "Z_lowT", "Xi_lowT", "Z_brute_plus",
                   "M", "highT_rel_err", "lowT_rel_err", "M_plus_bound_margin")


def _cmd_ising(args) -> int:
    from . import ising

    if args.action == "z":
        rows = []
        # before the loops, so that an empty --beta list is refused too
        ising.check_z_side(args.L)
        for beta in args.beta:
            _refuse_past_float_range(args.L, beta, contour=True)
        for beta in args.beta:
            xi_h, z_h = ising.high_T_polymer_Z(args.L, beta)
            zb = ising.brute_force_Z(args.L, beta, boundary=args.boundary)
            low = ising.low_T_contour_Z(args.L, beta)
            zbp = ising.brute_force_Z(args.L, beta, boundary="plus")
            mag = ising.magnetization(args.L, beta, boundary=args.boundary)
            mplus = ising.magnetization(args.L, beta, boundary="plus")
            rows.append(dict(zip(ISING_Z_COLUMNS, (
                beta, zb, z_h, xi_h, low.z_reconstructed, low.xi_contour, zbp, mag.mean,
                abs(z_h - zb) / zb, abs(low.z_reconstructed - zbp) / zbp,
                "" if mplus.low_t_bound is None else mplus.mean - mplus.low_t_bound))))
        payload = {"command": "ising", "action": "z", "L": args.L,
                   "boundary": args.boundary, "rows": rows}
        _emit(args, payload, rows=rows, columns=ISING_Z_COLUMNS)
        return 0
    if args.action == "duality":
        rep = ising.duality_check(args.L, args.beta[0] if args.beta else 0.3)
        payload = {"command": "ising", "action": "duality", "L": args.L, **_jsonable(rep)}
        payload.pop("xi_high", None)
        payload.update(xi_high=rep.xi_high, xi_low_at_dual=rep.xi_low_at_dual,
                       xi_equal=abs(rep.xi_high - rep.xi_low_at_dual) <= 1e-12 * rep.xi_high)
        _emit(args, payload)
        return 0
    if args.action == "magnetization":
        beta = args.beta[0] if args.beta else 2.0
        _refuse_past_float_range(args.L, beta)
        rep = ising.magnetization(args.L, beta, boundary=args.boundary)
        payload = {"command": "ising", "action": "magnetization", "L": args.L, "beta": beta,
                   "boundary": args.boundary, "M": rep.mean,
                   "low_t_bound": rep.low_t_bound, "low_t_bound_ok": rep.low_t_bound_ok,
                   "high_t_site_bounds_ok": rep.high_t_site_bounds_ok,
                   "per_site": rep.per_site.tolist()}
        _emit(args, payload)
        return 0
    rep = ising.animal_counts_and_thresholds()
    payload = {"command": "ising", "action": "thresholds", "a": rep.a,
               "activity_root": rep.activity_root,
               "beta0": rep.beta0, "beta1": rep.beta1,
               "beta0_prime": rep.beta0_prime, "beta1_prime": rep.beta1_prime,
               "g_root_x": rep.g_root_x,
               "animal_counts": {str(k): v for k, v in sorted(rep.counts.items())}}
    _emit(args, payload)
    return 0


def _cmd_hardsphere(args) -> int:
    from . import hardsphere

    if args.action == "gtilde":
        est = hardsphere.gtilde(args.d, args.k, samples=args.samples, seed=args.seed)
        payload = {"command": "hardsphere", "action": "gtilde", **_jsonable(est)}
        cf = hardsphere.gtilde_closed_form(args.d, args.k)
        if cf is not None:
            payload["closed_form"] = cf
        _emit(args, payload)
        return 0
    if args.action == "radius":
        r = hardsphere.improved_radius()
        payload = {"command": "hardsphere", "action": "radius", "mu_star": r.mu_star,
                   "coefficient": r.coefficient, "classical": r.classical, "gain": r.gain,
                   "gtable": list(r.gtable)}
        _emit(args, payload)
        return 0
    from .potentials import sphere_volume

    payload = {"command": "hardsphere", "action": "volume", "n": args.n, "r": args.r,
               "value": sphere_volume(args.n, args.r)}
    _emit(args, payload)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    results = verify.run_suite(args.suite, max_n=args.max_n, trials=args.trials,
                               seed=args.seed, jobs=args.jobs)
    rows = [{"check": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    ok = all(r.ok for r in results)
    payload = {"command": "verify", "suite": args.suite, "max_n": args.max_n,
               "trials": args.trials, "seed": args.seed, "jobs": args.jobs, "ok": ok,
               "rows": rows}
    _emit(args, payload, rows=rows, columns=("check", "ok", "detail"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--output", default=None, help="write the artifact to this path")


def _family(name: str) -> str:
    """An argparse type: ``name`` if it is a family ``--family`` takes, read
    from ``potentials`` only when the option is given.  step_table takes
    lists, which --params cannot give; --spec-file can."""
    from . import potentials

    choices = [f for f in potentials.FAMILIES if f != "step_table"]
    if name not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(map(repr, choices))})")
    return name


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default=None, type=_family,
                   help="a pair-potential family (default hard_core); step_table only by --spec-file")
    p.add_argument("--params", nargs="*", metavar="k=v")
    p.add_argument("--dimension", type=int, default=None)
    p.add_argument("--spec-file", default=None, help="excludes --family, --params and --dimension")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="clusterexp",
                                 description="cluster-expansion toolbox with brute-force cross-checks")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graphs", help="counts and partition-scheme verification")
    p.add_argument("action", choices=("count", "verify-scheme"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scheme", choices=("penrose", "kruskal"), default="penrose")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=_cmd_graphs)

    p = sub.add_parser("ursell", help="three-way coefficient evaluation")
    p.add_argument("--matrix", default=None, help='text form "n; i j v; ..."')
    p.add_argument("--matrix-file", default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_ursell)

    p = sub.add_parser("potentials", help="pair potentials and stability")
    p.add_argument("action", choices=("eval", "stability", "integrals", "classify",
                                      "fcc", "ruelle-ratios"))
    _add_spec_args(p)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--budget", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--shells", type=int, default=1)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--s-max", type=int, default=200)
    _add_common(p)
    p.set_defaults(fn=_cmd_potentials)

    p = sub.add_parser("mayer", help="coefficients, bounds, recursion, virial")
    p.add_argument("action", choices=("coefficients", "ks", "radii", "virial"))
    _add_spec_args(p)
    p.add_argument("--grid", default=None, help="WxH site grid")
    p.add_argument("--path", type=int, default=4, help="path volume length")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--B", type=float, default=None)
    p.add_argument("--Bbar", type=float, default=None)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--Ctilde", type=float, default=1.0)
    p.add_argument("--m-max", type=int, default=20)
    _add_common(p)
    p.set_defaults(fn=_cmd_mayer)

    p = sub.add_parser("polymer", help="polymer-gas criteria and bound catalog")
    p.add_argument("action", choices=("criteria", "partition", "subset-check", "catalog"))
    p.add_argument("--model", default="domino")
    p.add_argument("--system-file", default=None)
    p.add_argument("--vertices", type=int, default=8)
    p.add_argument("--polymers", type=int, default=10)
    p.add_argument("--max-size", type=int, default=3)
    p.add_argument("--a", type=float, default=math.log(2.0))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--which", default="bounded_spin")
    p.add_argument("--params", nargs="*", metavar="k=v")
    _add_common(p)
    p.set_defaults(fn=_cmd_polymer)

    p = sub.add_parser("ising", help="exact 2D sums, expansions, duality, thresholds")
    p.add_argument("action", choices=("z", "duality", "magnetization", "thresholds"))
    p.add_argument("--L", type=int, default=3)
    p.add_argument("--beta", type=float, nargs="*", default=[0.3])
    p.add_argument("--boundary", choices=("free", "plus", "minus"), default="free")
    _add_common(p)
    p.set_defaults(fn=_cmd_ising)

    p = sub.add_parser("hardsphere", help="overlap factors and the d=2 radius")
    p.add_argument("action", choices=("gtilde", "radius", "volume"))
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--r", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(fn=_cmd_hardsphere)

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument("--suite", choices=("identities", "combinatorics", "all"), default="all")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p)
    p.set_defaults(fn=_cmd_verify)

    return ap


def _refuse_nan(args) -> None:
    """``float`` reads "nan", which no option means: refuse it by name."""
    for name, value in vars(args).items():
        if any(isinstance(v, float) and math.isnan(v)
               for v in (value if isinstance(value, list) else [value])):
            raise ValueError(f"--{name.replace('_', '-')} must be a number, got nan")


def main(argv=None) -> int:
    # Before any handler imports numpy, whose OpenBLAS reads this once on
    # load: a worker thread it would start spins CPU and is never used.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        _refuse_nan(args)
        return args.fn(args)
    except ValueError as exc:  # invalid input or a refused cap is a usage error
        print(f"clusterexp {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError:  # an input whose result no float holds: overflow, or underflow to 0
        print(f"clusterexp {args.command}: error: a value is past the float range", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

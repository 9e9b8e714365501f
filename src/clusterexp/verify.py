"""Identity suites runnable from the command line: every deep identity in the
package checked against its independent brute-force oracle at desk scale.

Each check returns a (name, ok, detail) triple; the CLI turns failures into a
nonzero exit status.  Random inputs are drawn from a seeded generator so any
reported failure is replayable from the echoed configuration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import graphs as G
from . import ursell as U


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _random_matrix(n: int, rng: random.Random, p_inf: float = 0.2) -> U.InteractionMatrix:
    vals = {}
    for p in G.vertex_pairs(n):
        r = rng.random()
        vals[p] = U.INF if r < p_inf else rng.uniform(-1.5, 3.0)
    return U.InteractionMatrix(n, vals)


def _random_hardcore(n: int, rng: random.Random) -> U.InteractionMatrix:
    vals = {p: (U.INF if rng.random() < 0.5 else 0.0) for p in G.vertex_pairs(n)}
    return U.InteractionMatrix(n, vals)


def _identity_trial(args: tuple[int, int, int, int, int]) -> tuple:
    """Trial ``t`` at size ``n``: (relative spread of the three routes,
    hard-core bit-exactness, tree-bound dominance), each None where the trial
    index is beyond that check's count.  The matrices come from a generator
    seeded by (seed, n, t) alone, so the result does not depend on how the
    trials are split across workers."""
    n, seed, t, trials, bound_trials = args
    rng = random.Random(f"{seed}:{n}:{t}")
    V, H = _random_matrix(n, rng), _random_hardcore(n, rng)
    vals = {p: rng.uniform(-0.4, 2.0) for p in G.vertex_pairs(n)}
    spread = exact = bound_ok = None
    if t < trials:
        a = U.ursell_graph_sum(V)
        b = U.ursell_partition_formula(V)
        c = U.ursell_tree_identity(V, "penrose")
        d = U.ursell_tree_identity(V, "kruskal")
        scale = max(abs(a), 1e-30)
        spread = max(abs(a - b) / scale, abs(a - c) / scale, abs(a - d) / scale)
        a = U.ursell_graph_sum(H)
        exact = (a == U.ursell_partition_formula(H) == U.ursell_tree_identity(H)
                 == U.ursell_tree_identity(H, "kruskal"))
    if t < bound_trials:
        W = U.InteractionMatrix(n, vals)
        b_vec = [max(0.0, -min(vals.values())) * n] * n  # crude but valid certificate
        try:
            bound = U.tree_graph_bound(W, b_vec)
        except U.StabilityCertificateError:
            pass
        else:
            bound_ok = abs(U.ursell_graph_sum(W)) <= bound * (1 + 1e-12)
    return spread, exact, bound_ok


def identity_suite(max_n: int = 5, trials: int = 40, seed: int = 0,
                   jobs: int = 1) -> list[CheckResult]:
    """Agreement of the three Ursell routes on random matrices to 1e-10
    relative, exact in the hard-core case, plus the tree-bound dominance
    property.  ``jobs`` > 1 spreads the trials over worker processes with
    identical results."""
    bound_trials = max(trials // 4, 5)
    span = max(trials, bound_trials)
    tasks = [(n, seed, t, trials, bound_trials) for n in range(2, max_n + 1) for t in range(span)]
    if jobs <= 1:
        outcomes = list(map(_identity_trial, tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor  # its import costs every command

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_identity_trial, tasks,
                                     chunksize=max(1, len(tasks) // (4 * jobs))))
    results = []
    for n in range(2, max_n + 1):
        spreads, exact, bounds = ([v for v in column if v is not None]
                                  for column in zip(*outcomes[(n - 2) * span:(n - 1) * span]))
        worst = max(spreads, default=0.0)
        results.append(CheckResult(
            f"ursell-identities-n{n}", worst <= 1e-10,
            f"worst relative spread {worst:.3e} over {len(spreads)} random matrices",
        ))
        results.append(CheckResult(
            f"ursell-hardcore-exact-n{n}", all(exact),
            f"{len(exact)} random 0/inf matrices, bit-exact",
        ))
        results.append(CheckResult(
            f"tree-bound-dominance-n{n}", all(bounds),
            f"{len(bounds)} of {bound_trials} random matrices certified stable",
        ))
    return results


def combinatorics_suite(max_n: int = 5, seed: int = 0) -> list[CheckResult]:
    """Tree counts, the alternating connected sum, and both partition schemes
    (the Kruskal one under five random weightings per n)."""
    rng = random.Random(seed)
    results = []
    for n in range(2, max_n + 1):
        masks = G.tree_table(n).mask
        distinct = len(set(masks.tolist()))
        spanning = bool((np.bitwise_count(masks) == n - 1).all()
                        and np.isin(masks, G.connected_masks(n)).all())
        results.append(CheckResult(
            f"cayley-count-n{n}", spanning and distinct == n ** (n - 2),
            f"{distinct} distinct masks; all spanning trees: {spanning}",
        ))
        s = G.alternating_connected_sum(n)
        expect = (-1) ** (n - 1) * math.factorial(n - 1)
        results.append(CheckResult(f"alternating-sum-n{n}", s == expect, f"{s}"))
        rep = G.verify_partition_scheme(n, G.penrose_added(n))
        results.append(CheckResult(f"penrose-scheme-n{n}", bool(rep), rep.reason))
        ok = True
        for _ in range(5):
            w = {p: rng.random() for p in G.vertex_pairs(n)}
            if not G.verify_partition_scheme(n, G.kruskal_added(G.EdgeOrder.from_weights(n, w))):
                ok = False
        results.append(CheckResult(f"kruskal-scheme-n{n}", ok, "5 random weightings"))
    return results


def run_suite(which: str, max_n: int = 5, trials: int = 40, seed: int = 0,
              jobs: int = 1) -> list[CheckResult]:
    """Run a named suite; ``jobs`` > 1 spreads the random trials over workers."""
    if which == "all":
        out = []
        for name in ("identities", "combinatorics"):
            out.extend(run_suite(name, max_n=max_n, trials=trials, seed=seed, jobs=jobs))
        return out
    if which == "identities":
        return identity_suite(max_n=max_n, trials=trials, seed=seed, jobs=jobs)
    if which == "combinatorics":
        return combinatorics_suite(max_n=max_n, seed=seed)
    raise ValueError(f"unknown suite {which!r}; known: identities, combinatorics, all")

"""Independent routes the benchmark checks clusterexp's outputs against.

Each oracle recomputes a number by a different method than the program:
the Ursell coefficients of the Mayer and polymer sums through the signed
partition formula (the program uses the graph sum), the subset-gas pinned
sums through a zeta transform over compatible families (the program uses a
vertex recursion), close-packed bond counts in exact integer coordinates
(the program uses a k-d tree in floats), and so on.  They run outside the
timed passes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

INF = math.inf

# Exact C_1..C_6 of the hard-core (a = 1) lattice gas on the 4 x 4 grid.
MAYER_4X4_HARD_CORE = (Fraction(1), Fraction(-2), Fraction(79, 12), Fraction(-427, 16),
                       Fraction(606, 5), Fraction(-14161, 24))

# Optimised constant-mu radii on the domino model: 1/(7e), (1/6)/(7/6)^7, 1/13.
DOMINO_RADII = {"kp": 1.0 / (7.0 * math.e), "dob": (1.0 / 6.0) / (7.0 / 6.0) ** 7, "fp": 1.0 / 13.0}

# Reference g(2, 3): planar three-point packing probability, to 3 figures.
G23_REFERENCE = 0.0589


def _multiplicity_factorial(combo) -> int:
    out = 1
    run = 1
    for a in range(1, len(combo)):
        run = run + 1 if combo[a] == combo[a - 1] else 1
        out *= run
    return out


def mayer_coefficients(sites, spec, beta: float, n_max: int) -> list:
    """C_1..C_n_max = (1/|sites|) sum over site multisets of Phi / prod(mult!),
    with Phi from the partition formula; exact Fractions for hard-core values."""
    from clusterexp import potentials, ursell

    m = len(sites)
    vals = [[INF] * m for _ in range(m)]
    for i, j in combinations(range(m), 2):
        v = potentials.potential_eval(spec, math.dist(sites[i], sites[j]))
        vals[i][j] = vals[j][i] = v if v == INF else beta * v
    hard = all(v in (0.0, INF) for row in vals for v in row)
    out = [Fraction(1) if hard else 1.0]
    for n in range(2, n_max + 1):
        phis: dict = {}
        total = Fraction(0) if hard else 0.0
        for combo in combinations_with_replacement(range(m), n):
            key = tuple(vals[combo[a]][combo[b]] for a, b in combinations(range(n), 2))
            phi = phis.get(key)
            if phi is None:
                phi = phis[key] = ursell.ursell_partition_formula(ursell.InteractionMatrix(n, key))
            if phi:
                total += Fraction(phi, _multiplicity_factorial(combo)) if hard \
                    else phi / _multiplicity_factorial(combo)
        out.append(total / m)
    return out


def pinned_partials(sys, gamma0, order: int, rho: float) -> list[float]:
    """Partial sums of sum_n (1/n!) |Phi(g0, g_1..g_n)| rho^n over ordered
    tuples, grouped by multiset, with Phi from the partition formula."""
    from clusterexp import ursell

    polymers = sorted(sys.polymers, key=repr)
    phis: dict = {}
    partials = [1.0]
    for n in range(1, order + 1):
        term = 0.0
        for combo in combinations_with_replacement(polymers, n):
            gammas = (gamma0,) + combo
            key = tuple(sys.incompatible(a, b) for a, b in combinations(gammas, 2))
            phi = phis.get(key)
            if phi is None:
                vals = [INF if inc else 0.0 for inc in key]
                phi = phis[key] = ursell.ursell_partition_formula(
                    ursell.InteractionMatrix(n + 1, vals))
            if phi:
                term += abs(phi) / _multiplicity_factorial(combo) * rho ** n
        partials.append(partials[-1] + term)
    return partials


def cluster_log_mismatches(sys, region, order: int, poly) -> int:
    """Coefficients of the truncated log Xi that differ from Phi / prod(mult!),
    with Phi from the partition formula; a term the oracle lacks counts too."""
    from clusterexp import ursell

    region = sorted(region, key=repr)
    phis: dict = {}
    expected = 0
    bad = 0
    for n in range(1, order + 1):
        for combo in combinations_with_replacement(region, n):
            key = tuple(sys.incompatible(a, b) for a, b in combinations(combo, 2))
            phi = phis.get(key)
            if phi is None:
                phi = phis[key] = ursell.ursell_partition_formula(
                    ursell.InteractionMatrix(n, [INF if inc else 0.0 for inc in key]))
            want = Fraction(phi, _multiplicity_factorial(combo))
            expected += bool(want)
            bad += poly.coefficient(combo) != want
    return bad + abs(len(poly.terms) - expected)


def subset_gas_max_pinned(sys) -> float:
    """max over sub-volumes L and x in L of log Xi_(L-x)(-rho) - log Xi_L(-rho).

    Xi_L(-rho) is a sum over pairwise-disjoint polymer families inside L:
    tabulate each family by its union, then sum over sub-unions with a
    subset-sum (zeta) transform.
    """
    polymers = list(sys.polymers)
    vertices = sorted({x for g in polymers for x in g}, key=repr)
    vidx = {x: k for k, x in enumerate(vertices)}
    masks = [sum(1 << vidx[x] for x in g) for g in polymers]
    rho = [float(sys.activity[g]) for g in polymers]
    nv = len(vertices)
    xi = [0.0] * (1 << nv)

    def families(start: int, union: int, weight: float) -> None:
        xi[union] += weight
        for k in range(start, len(polymers)):
            if not masks[k] & union:
                families(k + 1, union | masks[k], -weight * rho[k])

    families(0, 0, 1.0)
    for bit in range(nv):
        b = 1 << bit
        for mask in range(1 << nv):
            if mask & b:
                xi[mask] += xi[mask ^ b]
    worst = 0.0
    for mask in range(1, 1 << nv):
        for bit in range(nv):
            if mask >> bit & 1:
                worst = max(worst, math.log(xi[mask ^ (1 << bit)]) - math.log(xi[mask]))
    return worst


def fcc_cluster(shells: int) -> tuple[int, int]:
    """(sites, unit-distance bonds) of the fcc ball of radius ``shells``.

    Sites are integer triples with even coordinate sum scaled by 1/sqrt(2),
    so |x| <= shells reads i^2 + j^2 + k^2 <= 2 shells^2 and a bond is a
    difference of squared length 2, all in integers.
    """
    r2 = 2 * shells * shells
    m = math.isqrt(r2)
    rng = range(-m, m + 1)
    sites = {(i, j, k) for i in rng for j in rng for k in rng
             if (i + j + k) % 2 == 0 and i * i + j * j + k * k <= r2}
    steps = [d for d in product((-1, 0, 1), repeat=3) if d[0] ** 2 + d[1] ** 2 + d[2] ** 2 == 2]
    bonds = sum((i + di, j + dj, k + dk) in sites
                for i, j, k in sites for di, dj, dk in steps) // 2
    return len(sites), bonds


def square_well_energy(points, A: float, R: float, delta: float) -> float:
    """Pair energy with V = A on [0, R], -1 on (R, R + delta], 0 beyond."""
    total = 0.0
    for p, q in combinations(points, 2):
        r = math.dist(p, q)
        total += A if r <= R else (-1.0 if r <= R + delta else 0.0)
    return total


def virial_max() -> float:
    """max over w of w (2 e^(-w) - 1), at the root of 2 e^(-w)(1 - w) = 1."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * math.exp(-mid) * (1.0 - mid) > 1.0:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    return w * (2.0 * math.exp(-w) - 1.0)


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)

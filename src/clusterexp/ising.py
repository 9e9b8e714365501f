"""2D Ising model at zero field: exact sums and both polymer expansions.

Everything is desk scale and cross-checked three ways.  A transfer over the
sites of the L x L box in row-major order, with the last row of spins as its
state, gives per boundary the exact integer density of states of all 2^(L^2)
spin configurations; its oracle, a plain sweep over the configurations,
lives in ``oracles``.  At any beta the partition function and the
magnetization are exactly rounded sums over its bins, so the spin-flip
symmetries hold bit for bit.  The partition function is reproduced at high
temperature from the even subgraphs of the box (spanned by the plaquette
cycle basis, 2^((L-1)^2) elements) and at low temperature from the contour
representation under + boundary, by reweighting the + boundary density of
states: the opposite pairs of a configuration are the dual edges of its
contours, so H = -2L(L+1) + 2 (total contour perimeter).  Every
configuration maps to a family of dual-lattice contours and back
(``spins_to_contours``, ``contours_to_spins``), and the tests check the
contour-energy identity configuration by configuration.  The duality map
phi(beta) = -ln(tanh beta)/2 exchanges the two activities on the same animal
family; its fixed point is the critical coupling ln(1 + sqrt 2)/2.

The box side is capped by module constants, read when a table is built:
``TRANSFER_CAP`` for the transfer behind the partition function, the contour
sum and the magnetization, ``HIGH_T_CAP`` for the even subgraphs.  J = 1
by convention throughout: beta carries the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import CapExceededError
from .numerics import bisect_root

TRANSFER_CAP = 7  # the density-of-states transfer places L^2 sites over 2^L frontier states
HIGH_T_CAP = 6  # the even-subgraph walk visits 2^((L-1)^2) cycle-space elements
ANIMAL_A = 0.21  # the weight e^(a|g|) of the animal counting conditions


def _site(r: int, c: int, L: int) -> int:
    return r * L + c


def internal_bonds(L: int) -> list[tuple[int, int]]:
    """Nearest-neighbour site pairs inside the L x L box; 2L(L-1) of them."""
    bonds = []
    for r in range(L):
        for c in range(L):
            if c + 1 < L:
                bonds.append((_site(r, c, L), _site(r, c + 1, L)))
            if r + 1 < L:
                bonds.append((_site(r, c, L), _site(r + 1, c, L)))
    return bonds


def boundary_multiplicity(L: int) -> list[int]:
    """Number of outside neighbours per site (0 in the bulk, up to 2 at corners)."""
    mult = [0] * (L * L)
    for r in range(L):
        for c in range(L):
            k = (r == 0) + (r == L - 1) + (c == 0) + (c == L - 1)
            mult[_site(r, c, L)] = k
    return mult


def _outside_bit(boundary: str) -> int | None:
    """Down-bit of the fixed outside spins; None for a free boundary."""
    if boundary not in ("free", "plus", "minus"):
        raise ValueError("boundary must be free, plus or minus")
    return {"free": None, "plus": 0, "minus": 1}[boundary]


def _check_side(L: int, cap: int, what: str) -> None:
    if L < 1:
        raise ValueError("need L >= 1")
    if L > cap:
        raise CapExceededError(f"{what} capped at L={cap}")


def check_z_side(L: int) -> None:
    """Refuse an L that the even-subgraph walk or the transfer would refuse,
    before either runs."""
    _check_side(L, HIGH_T_CAP, "even-subgraph enumeration")
    _check_side(L, TRANSFER_CAP, "transfer")


def _bins(L: int, boundary: str) -> int:
    """One bin per possible count of opposite pairs: 2L(L-1) internal pairs,
    plus 4L pairs against the outside unless the boundary is free."""
    return 2 * L * (L - 1) + (4 * L if boundary != "free" else 0) + 1


@lru_cache(maxsize=None)
def _density_of_states(L: int, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Exact histograms over all 2^(L^2) configurations by the number k of
    opposite-spin pairs: N[k] configurations, and M[x, k] the sum of the spin
    sigma_x over them.  Read-only int64; one transfer per (L, boundary),
    refused beyond TRANSFER_CAP.

    The sites are placed in row-major order.  The state is the L-bit frontier
    whose bit c is the down-bit of the last placed site of column c, so
    placing site (r, c) with down-bit b meets its upper neighbour in bit c,
    its left neighbour in bit c-1 and its outside neighbours, adds the
    opposite pairs among them to k, and sets bit c to b.  Layer 0 of the
    (L^2 + 1, 2^L, bins) table counts configurations; layer 1 + x, started
    as +-layer 0 when x is placed, carries the sigma_x-signed count, so one
    pass gives N and M.  Every count is at most 2^(L^2) <= 2^49, so int64
    stays exact.
    """
    _check_side(L, TRANSFER_CAP, "transfer")
    outside = _outside_bit(boundary)
    bins = _bins(L, boundary)
    n = L * L
    mult = boundary_multiplicity(L)
    states = np.arange(1 << L)
    table = np.zeros((n + 1, 1 << L, bins), dtype=np.int64)
    table[0, 0, 0] = 1
    for x in range(n):
        r, c = divmod(x, L)
        live = table[:x + 1]  # the layers of the unplaced sites are still zero
        nxt = np.zeros_like(table)
        for b in (0, 1):
            shift = ((states >> c & 1) ^ b) * (r > 0)
            if c > 0:
                shift += (states >> (c - 1) & 1) ^ b
            if outside is not None:
                shift += mult[x] * (b ^ outside)
            to = states & ~(1 << c) | b << c
            for d in set(shift.tolist()):
                src = np.flatnonzero(shift == d)
                # the two sources of a target differ in bit c: one per half
                for half in (src[src >> c & 1 == 0], src[src >> c & 1 == 1]):
                    nxt[:x + 1, to[half], d:] += live[:, half, :bins - d]
            placed = states[states >> c & 1 == b]  # the targets of this b, now complete
            nxt[1 + x, placed] = nxt[0, placed] * (1 - 2 * b)
        table = nxt
    N, M = table[0].sum(axis=0), table[1:].sum(axis=1)
    N.flags.writeable = False
    M.flags.writeable = False
    return N, M


def _boltzmann_sum(N: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """The weight e^(-beta H) per occupied bin k, aligned minus opposite
    pairs times beta, and the exactly rounded Z = sum N[k] w[k] (inf past
    the largest float)."""
    return _weighed_sum(N, beta * (N.size - 1 - 2 * np.arange(N.size)))


def _weighed_sum(N: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, float]:
    """The weight e^exponent[k] per occupied bin k and the exactly rounded
    sum N[k] w[k] (inf past the largest float)."""
    # an empty bin is weighed e^0, so that an inf weight past the float range
    # never meets a zero count (its terms are 0.0 either way)
    with np.errstate(over="ignore"):
        w = np.exp(exponent * (N != 0))
        terms = N * w
    try:
        return w, math.fsum(terms.tolist())
    except OverflowError:  # finite terms whose sum is past the largest float
        return w, math.inf


def brute_force_Z(L: int, beta: float, boundary: str = "free") -> float:
    """Exact partition function by summation over all 2^(L^2) configurations
    (inf past the largest float)."""
    N, _ = _density_of_states(L, boundary)
    # exactly-rounded accumulation over exact integer counts: the plus and
    # minus boundaries share N, so their sums match bit for bit
    return _boltzmann_sum(N, beta)[1]


# ---------------------------------------------------------------------------
# High-temperature expansion: even subgraphs from the plaquette cycle basis


def _edge_index(L: int) -> dict[tuple[int, int], int]:
    return {b: k for k, b in enumerate(internal_bonds(L))}


@lru_cache(maxsize=None)
def even_subgraph_size_counts(L: int) -> tuple[int, ...]:
    """count[m] = number of even-degree edge subsets of the L x L box with m
    edges, generated as the span of the (L-1)^2 plaquette cycles; computed
    once per L."""
    _check_side(L, HIGH_T_CAP, "even-subgraph enumeration")
    eidx = _edge_index(L)
    plaquettes = []
    for r in range(L - 1):
        for c in range(L - 1):
            mask = 0
            mask |= 1 << eidx[(_site(r, c, L), _site(r, c + 1, L))]
            mask |= 1 << eidx[(_site(r + 1, c, L), _site(r + 1, c + 1, L))]
            mask |= 1 << eidx[(_site(r, c, L), _site(r + 1, c, L))]
            mask |= 1 << eidx[(_site(r, c + 1, L), _site(r + 1, c + 1, L))]
            plaquettes.append(mask)
    k = len(plaquettes)
    counts = [0] * (2 * L * (L - 1) + 1)
    current = 0
    counts[0] += 1
    # Gray-code walk over the cycle space: one XOR per subset
    for t in range(1, 1 << k):
        current ^= plaquettes[(t & -t).bit_length() - 1]
        counts[current.bit_count()] += 1
    return tuple(counts)


def high_T_polymer_Z(L: int, beta: float) -> tuple[float, float]:
    """(Xi, Z) from the even-subgraph expansion with free boundary:
    Xi = sum over even subsets of tanh(beta)^(edges) and
    Z = cosh(beta)^(2L(L-1)) 2^(L^2) Xi (inf past the largest float)."""
    counts = even_subgraph_size_counts(L)
    t = math.tanh(beta)
    xi = math.fsum(c * t**m for m, c in enumerate(counts) if c)
    try:
        z = math.cosh(beta) ** (2 * L * (L - 1)) * 2.0 ** (L * L) * xi
    except OverflowError:  # cosh(beta)^(2L(L-1)) is past the largest float
        z = math.inf
    return xi, z


# ---------------------------------------------------------------------------
# Low-temperature expansion: contours on the dual lattice, + boundary


def _dual_edge_of_bond(r1: int, c1: int, r2: int, c2: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Dual segment crossing the primal bond; dual points carry doubled
    half-integer coordinates, so the dual vertex (r+1/2, c+1/2) is (2r+1, 2c+1)."""
    if r1 == r2:  # horizontal bond -> vertical dual segment
        c = max(c1, c2)
        return ((2 * r1 - 1, 2 * c - 1), (2 * r1 + 1, 2 * c - 1))
    c = c1
    r = max(r1, r2)
    return ((2 * r - 1, 2 * c - 1), (2 * r - 1, 2 * c + 1))


def spins_to_contours(spins: np.ndarray, L: int) -> list[frozenset]:
    """Contour decomposition of a +/-1 spin array under + boundary.

    A dual edge is drawn across every opposite-spin pair (boundary pairs read
    the outside as +1); connected components share dual vertices.
    """
    spins = np.asarray(spins).reshape(L, L)

    def spin_at(r: int, c: int) -> int:
        if 0 <= r < L and 0 <= c < L:
            return int(spins[r, c])
        return 1

    edges = []
    for r in range(L + 1):
        for c in range(L):
            if spin_at(r - 1, c) != spin_at(r, c):  # vertical primal bond (r-1,c)-(r,c)
                edges.append(_dual_edge_of_bond(r - 1, c, r, c))
    for r in range(L):
        for c in range(L + 1):
            if spin_at(r, c - 1) != spin_at(r, c):
                edges.append(_dual_edge_of_bond(r, c - 1, r, c))
    # union-find over shared dual vertices
    parent = list(range(len(edges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_vertex: dict[tuple[int, int], int] = {}
    for k, (a, b) in enumerate(edges):
        for v in (a, b):
            if v in by_vertex:
                ra, rb = find(by_vertex[v]), find(k)
                if ra != rb:
                    parent[ra] = rb
            else:
                by_vertex[v] = k
    groups: dict[int, list] = {}
    for k, e in enumerate(edges):
        groups.setdefault(find(k), []).append(e)
    return [frozenset(g) for g in groups.values()]


def contours_to_spins(contours, L: int) -> np.ndarray:
    """Invert the contour map under + boundary: the spin at a site is +1 if a
    path from outside crosses an even number of contour edges."""
    crossing = set()
    for g in contours:
        crossing.update(g)
    spins = np.ones((L, L), dtype=np.int64)
    for r in range(L):
        sign = 1
        for c in range(L):
            if _dual_edge_of_bond(r, c - 1, r, c) in crossing:
                sign = -sign
            spins[r, c] = sign
    return spins


@dataclass
class ContourReport:
    xi_contour: float
    z_reconstructed: float


def low_T_contour_Z(L: int, beta: float) -> ContourReport:
    """Contour partition function under + boundary.

    Reweights the + boundary density of states: its bin k counts the
    configurations whose contours have total perimeter k (the dual edges
    across the k opposite pairs), so by the energy identity
    H = -Btilde + 2k with Btilde = 2L(L+1) the sum Xi of e^(-2 beta k) over
    the bins is the contour sum, and the reconstruction e^(beta Btilde) Xi
    equals the brute-force + boundary sum (inf past the largest float).
    The tests check the identity configuration by configuration on the
    geometric contours of ``spins_to_contours``.
    """
    btilde = 2 * L * (L + 1)
    N, _ = _density_of_states(L, "plus")
    _, xi = _weighed_sum(N, -2.0 * beta * np.arange(N.size))
    try:
        # an inf Xi stays inf where e^(beta Btilde) underflows to 0
        z = math.exp(beta * btilde) * xi if xi < math.inf else math.inf
    except OverflowError:  # e^(beta Btilde) is past the largest float
        z = math.inf
    return ContourReport(xi, z)


# ---------------------------------------------------------------------------
# Duality


def dual_coupling(beta: float) -> float:
    """phi(beta) = -ln(tanh beta) / 2; e^(-2 phi) = tanh(beta) identically."""
    t = math.tanh(beta)
    if not 0.0 < t < 1.0:
        raise ValueError("need tanh(beta) in (0, 1)")
    return -0.5 * math.log(t)


@dataclass
class DualityReport:
    beta: float
    phi_beta: float
    xi_high: float
    xi_low_at_dual: float
    identity_residual: float    # max |e^(-2 phi) - tanh beta| over the probe betas
    involution_residual: float  # max |phi(phi(b)) - b| over the probe betas
    beta_c: float
    fixed_point_residual: float


def duality_check(L: int, beta: float) -> DualityReport:
    """Exchange of the two expansions on the closed even subgraphs of the box.

    The same animal family is summed twice: with high-temperature activity
    tanh(beta)^|g| and with low-temperature activity e^(-2 phi(beta) |g|).
    Since e^(-2 phi) = tanh identically the two sums coincide term by term;
    the identity and the involution phi(phi(b)) = b are probed at b = 0.2,
    0.5 and 1.0.
    """
    counts = even_subgraph_size_counts(L)
    u = math.exp(-2.0 * dual_coupling(beta))
    xi_high, _ = high_T_polymer_Z(L, beta)
    xi_low = math.fsum(c * u**m for m, c in enumerate(counts) if c)
    probes = (0.2, 0.5, 1.0)
    ident = max(abs(math.exp(-2.0 * dual_coupling(b)) - math.tanh(b)) for b in probes)
    invol = max(abs(dual_coupling(dual_coupling(b)) - b) for b in probes)
    beta_c = bisect_root(lambda b: dual_coupling(b) - b, 0.2, 1.0)
    return DualityReport(
        beta=beta,
        phi_beta=dual_coupling(beta),
        xi_high=xi_high,
        xi_low_at_dual=xi_low,
        identity_residual=ident,
        involution_residual=invol,
        beta_c=beta_c,
        fixed_point_residual=abs(dual_coupling(beta_c) - beta_c),
    )


# ---------------------------------------------------------------------------
# Magnetization


def peierls_g(beta: float) -> float:
    """Contour-probability bound g = x^4 (4 - 3x) / (1 - x)^2, x = 3 e^(-2 beta).

    Valid on x < 1; the + boundary site magnetization obeys <s> >= 1 - 2g."""
    x = 3.0 * math.exp(-2.0 * beta)
    if x >= 1.0:
        raise ValueError("bound needs 3 e^(-2 beta) < 1")
    return x**4 * (4.0 - 3.0 * x) / (1.0 - x) ** 2


@dataclass
class MagnetizationReport:
    L: int
    beta: float
    boundary: str
    per_site: np.ndarray
    mean: float
    low_t_bound: float | None       # 1 - 2 g(beta) when x < 0.4795
    low_t_bound_ok: bool | None
    high_t_site_bounds_ok: bool | None  # interior decay bound when 3 tanh(beta) < 1


def _site_boundary_distance(r: int, c: int, L: int) -> int:
    return 1 + min(r, c, L - 1 - r, L - 1 - c)


def magnetization(L: int, beta: float, boundary: str = "free") -> MagnetizationReport:
    """Exact per-site expectations from the density of states, with the two
    rigorous bound checks attached.

    The spin sums are exact integers per bin and are accumulated with exact
    rounding (fsum), so the symmetries hold exactly at every L: free boundary
    gives 0.0 and the minus boundary gives the exact negation of the plus
    boundary.  A beta whose Z is past the largest float is refused
    (ValueError), since every expectation would then read inf / inf.
    """
    n = L * L
    N, M = _density_of_states(L, boundary)
    w, z = _boltzmann_sum(N, beta)
    if z == math.inf:
        raise ValueError(f"Z is past the largest float at L = {L}, beta = {beta}: "
                         "the magnetization is inf / inf")
    per_site = np.array([math.fsum(row) for row in (M * w).tolist()]) / z
    mean = math.fsum(per_site.tolist()) / n

    low_bound = low_ok = None
    # x = 3 e^(-2 beta) < 0.4795 needs beta > 0, and e^(-2 beta) can overflow below 0
    if boundary == "plus" and beta > 0 and 3.0 * math.exp(-2.0 * beta) < 0.4795:
        g = peierls_g(beta)
        low_bound = 1.0 - 2.0 * g
        low_ok = bool(mean >= low_bound - 1e-12)

    high_ok = None
    t3 = 3.0 * math.tanh(beta)
    if boundary == "plus" and t3 < 1.0:
        high_ok = True
        for r in range(L):
            for c in range(L):
                d = _site_boundary_distance(r, c, L)
                bound = (100.0 / 3.0) * t3**d / (1.0 - t3) ** 3
                if per_site[_site(r, c, L)] > bound + 1e-12:
                    high_ok = False
    return MagnetizationReport(L, beta, boundary, per_site, mean, low_bound, low_ok, high_ok)


# ---------------------------------------------------------------------------
# Animal counts and coupling thresholds


def closed_animals_through_origin() -> dict[int, int]:
    """Exact counts of connected even-degree edge sets through the origin.

    Enumerates closed non-edge-repeating walks from the origin (every such
    edge set carries an Eulerian circuit based at any of its vertices) and
    deduplicates by edge set.  Counts are per size in {4, 6, 8}.
    """
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    found: set[frozenset] = set()
    origin = (0, 0)

    def rec(v, used: frozenset, depth: int):
        if v == origin and used:
            found.add(used)
        if depth == 8:
            return
        for dx, dy in steps:
            w = (v[0] + dx, v[1] + dy)
            e = frozenset((v, w))
            if e in used:
                continue
            rec(w, used | {e}, depth + 1)

    rec(origin, frozenset(), 0)
    counts: dict[int, int] = {}
    for g in found:
        counts[len(g)] = counts.get(len(g), 0) + 1
    return counts


def _animal_quartic_root() -> float:
    """Root of e^(4a) y^4 + (e^(2a) - e^a) y - (e^a - 1) = 0 on (0, 1) at
    a = ANIMAL_A: the largest admissible value of 3*(activity) in the high-
    and low-temperature counting conditions."""
    a = ANIMAL_A
    f = lambda y: math.exp(4 * a) * y**4 + (math.exp(2 * a) - math.exp(a)) * y - (math.exp(a) - 1.0)
    return bisect_root(f, 1e-9, 1.0)


@dataclass
class ThresholdReport:
    a: float
    activity_root: float   # root y of the quartic, ~0.4576
    beta0: float           # high-T free energy: atanh(root/3)
    beta1: float           # low-T free energy: ln(3/root)/2
    beta0_prime: float     # high-T magnetization decay: atanh(1/3)
    beta1_prime: float     # low-T magnetization: g(beta) = 1/2
    g_root_x: float        # x with x^4 (4-3x)/(1-x)^2 = 1/2, ~0.4795
    counts: dict[int, int]


def animal_counts_and_thresholds() -> ThresholdReport:
    """Exact small-animal counts plus the four coupling thresholds, all by
    root-solving the scalar counting inequalities with C_n <= 3^n."""
    counts = closed_animals_through_origin()
    for m, c in counts.items():
        if c > 3**m:
            raise AssertionError(f"count {c} at size {m} violates the 3^m walk bound")
    y = _animal_quartic_root()
    beta0 = math.atanh(y / 3.0)
    beta1 = 0.5 * math.log(3.0 / y)
    beta0p = math.atanh(1.0 / 3.0)
    g_root = bisect_root(lambda x: x**4 * (4.0 - 3.0 * x) / (1.0 - x) ** 2 - 0.5, 1e-6, 0.9)
    beta1p = 0.5 * math.log(3.0 / g_root)
    return ThresholdReport(ANIMAL_A, y, beta0, beta1, beta0p, beta1p, g_root, counts)

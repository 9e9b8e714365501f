"""Abstract polymer gas: exact partition functions and convergence criteria.

Polymers interact only through a symmetric incompatibility relation (a pure
hard core), so the grand-canonical sum over a finite volume is the
independence polynomial of the incompatibility graph.  One memoised deletion
recursion computes it for numbers, activity monomials and exact series
(``numerics.Series``, for the pinned absolute series).  On top sit the
truncated cluster series, the monotone fixed-point iteration, and the three
classical sufficient conditions for convergence -- exponential
(Kotecky-Preiss), product (Dobrushin) and neighborhood-partition-function
(Fernandez-Procacci) -- each with its optimised constant on regular models.

The truncated cluster series reads each hard-core Ursell coefficient from one
table over all graphs on n <= CLUSTER_ORDER_CAP vertices (``_phi_table``, 2 ms
cold), by the pair masks of all multisets of an order at once: it calls no
Ursell route.  The subset-gas check fills Xi over all 2^V sub-volumes as one
array.  On a 2-core host the 12-polymer triangular region to order 5 takes
about 5 ms (75 ms by a graph sum per multiset) and 12 vertices about 2 ms.

Every polymer is incompatible with itself: it excludes a second copy of
itself, so it belongs to its own neighborhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .graphs import CapExceededError, connected_masks, num_pairs, vertex_pairs
from .numerics import Series, bisect_root, grid_max
from .potentials import call_checked

VOLUME_CAP = 128  # polymers per region; also bounds the recursion depth
STATE_CAP = 1 << 16  # memo states of the deletion recursion
CLUSTER_ORDER_CAP = 6
CLUSTER_VOLUME_CAP = 12  # polymers in a truncated cluster expansion
POLYNOMIAL_CAP = 20  # polymers in the polynomial form, which can hold 2^20 monomials
PINNED_ORDER_CAP = 16
SUBSET_VERTEX_CAP = 12

Polymer = Hashable


class PolymerSystem:
    """Finite polymer set with incompatibility relation and activities."""

    def __init__(self, activities: Mapping[Polymer, complex],
                 incompatible_pairs: Iterable[tuple[Polymer, Polymer]]):
        self.polymers = tuple(activities.keys())
        self.activity = dict(activities)
        index = {g: k for k, g in enumerate(self.polymers)}
        nbrs: dict[Polymer, set] = {g: set() for g in self.polymers}
        for a, b in incompatible_pairs:
            if a not in index or b not in index:
                raise ValueError(f"incompatible pair ({a!r}, {b!r}) uses unknown polymers")
            nbrs[a].add(b)
            nbrs[b].add(a)
        for g in self.polymers:
            nbrs[g].add(g)
        self._nbrs = {g: frozenset(s) for g, s in nbrs.items()}
        # in ``polymers`` order, so that float sums over a neighborhood do not follow the hash seed
        self._nbr_order = {g: tuple(sorted(s, key=index.__getitem__)) for g, s in nbrs.items()}
        self._index = index
        self._nbr_masks = [sum(1 << index[h] for h in nbrs[g]) for g in self.polymers]

    def incompatible(self, a: Polymer, b: Polymer) -> bool:
        return b in self._nbrs[a]

    def neighborhood(self, g: Polymer) -> frozenset:
        """All polymers incompatible with g, g itself included."""
        return self._nbrs[g]

    def __len__(self):
        return len(self.polymers)


def system_from_adjacency_text(text: str) -> PolymerSystem:
    """Parse lines of the form "id ; neighbor neighbor ... ; activity"."""
    activities: dict[str, complex] = {}
    pairs: list[tuple[str, str]] = []
    entries = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            ident, nbrs, act = (part.strip() for part in line.split(";"))
            entries.append((ident, nbrs.split(), float(act)))
        except ValueError:
            raise ValueError(f"{line!r} is not of the form id ; neighbors ; activity") from None
    for ident, _, act in entries:
        activities[ident] = act
    for ident, nbrs, _ in entries:
        for other in nbrs:
            if other not in activities:
                raise ValueError(f"neighbor {other!r} of {ident!r} was never declared")
            pairs.append((ident, other))
    return PolymerSystem(activities, pairs)


def _known(sys: PolymerSystem, polymers: Iterable[Polymer]) -> frozenset:
    """The polymers as a set; one that is not in the system is refused."""
    got = frozenset(polymers)
    for g in got:
        if g not in sys._index:
            raise ValueError(f"polymer {g!r} is not in the system")
    return got


def _region_mask(sys: PolymerSystem, region: Iterable[Polymer] | None) -> int:
    """The region as a bitmask over ``sys.polymers`` (all of them for None)."""
    if region is None:
        return (1 << len(sys.polymers)) - 1
    return sum(1 << sys._index[g] for g in _known(sys, region))


def _independence(sys: PolymerSystem, regions: Sequence[int], z: Sequence, one) -> list:
    """Xi of each region (a bitmask over ``sys.polymers``) by the memoised
    deletion recursion Xi(R) = Xi(R - g) + z_g Xi(R - N[g]), g the lowest
    polymer of R, with Xi(empty) = ``one``.  The values need only ``+`` and
    ``z_g * value``; one memo serves all the regions."""
    if any(r.bit_count() > VOLUME_CAP for r in regions):
        raise CapExceededError(f"region capped at {VOLUME_CAP} polymers")
    nbr = sys._nbr_masks
    memo = {0: one}

    def xi(r: int):
        got = memo.get(r)
        if got is not None:
            return got
        k = (r & -r).bit_length() - 1
        val = xi(r & (r - 1)) + z[k] * xi(r & ~nbr[k])
        if len(memo) > STATE_CAP:
            raise CapExceededError(f"independence recursion capped at {STATE_CAP} memo states")
        memo[r] = val
        return val

    return [xi(r) for r in regions]


def partition_function(sys: PolymerSystem, region: Iterable[Polymer] | None = None,
                       activities: Mapping[Polymer, complex] | None = None) -> complex:
    """Exact grand-canonical sum over the region: the weighted independence
    polynomial of the incompatibility graph, via the deletion recursion
    Xi(R) = Xi(R - g) + z_g Xi(R - N[g])."""
    acts = sys.activity if activities is None else activities
    mask = _region_mask(sys, region)
    z = [acts[g] if mask >> k & 1 else None for k, g in enumerate(sys.polymers)]
    return _independence(sys, [mask], z, 1.0)[0]


# ---------------------------------------------------------------------------
# Polynomials in the activities


def _monomial_key(powers: Iterable[tuple[Polymer, int]]) -> tuple:
    """The key of prod z_g^k from (g, k) pairs: repeated g merged, sorted by
    repr(g)."""
    key: dict = {}
    for g, k in powers:
        key[g] = key.get(g, 0) + k
    return tuple(sorted(key.items(), key=lambda kv: repr(kv[0])))


class ActivityPolynomial:
    """Sparse polynomial with monomials prod z_g^k, keyed by ((g, k), ...)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = dict(terms or {})

    @classmethod
    def constant(cls, c) -> "ActivityPolynomial":
        return cls({(): c} if c else {})

    @classmethod
    def monomial(cls, polymers: Sequence[Polymer], coeff) -> "ActivityPolynomial":
        return cls({_monomial_key((g, 1) for g in polymers): coeff})

    def add_monomial(self, polymers: Sequence[Polymer], coeff) -> None:
        mono = _monomial_key((g, 1) for g in polymers)
        self.terms[mono] = self.terms.get(mono, 0) + coeff
        if not self.terms[mono]:
            del self.terms[mono]

    def __add__(self, other: "ActivityPolynomial") -> "ActivityPolynomial":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
            if not out[mono]:
                del out[mono]
        return ActivityPolynomial(out)

    def __mul__(self, other: "ActivityPolynomial") -> "ActivityPolynomial":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _monomial_key(m1 + m2)
                out[mono] = out.get(mono, 0) + c1 * c2
                if not out[mono]:
                    del out[mono]
        return ActivityPolynomial(out)

    def scaled(self, c) -> "ActivityPolynomial":
        return ActivityPolynomial({m: c * v for m, v in self.terms.items()})

    def truncated(self, max_degree: int) -> "ActivityPolynomial":
        return ActivityPolynomial(
            {m: c for m, c in self.terms.items() if sum(k for _, k in m) <= max_degree}
        )

    def degree(self) -> int:
        return max((sum(k for _, k in m) for m in self.terms), default=0)

    def evaluate(self, activities: Mapping[Polymer, complex]) -> complex:
        total = 0.0
        for mono, c in self.terms.items():
            val = c
            for g, k in mono:
                val = val * activities[g] ** k
            total += val
        return total

    def coefficient(self, polymers: Sequence[Polymer]):
        return self.terms.get(_monomial_key((g, 1) for g in polymers), 0)

    def __eq__(self, other):
        return isinstance(other, ActivityPolynomial) and self.terms == other.terms

    def __repr__(self):
        return f"ActivityPolynomial({len(self.terms)} terms, degree {self.degree()})"


def xi_polynomial(sys: PolymerSystem, region: Iterable[Polymer] | None = None) -> ActivityPolynomial:
    """The exact partition function as a multilinear polynomial: one monomial
    per pairwise-compatible family."""
    mask = _region_mask(sys, region)
    if mask.bit_count() > POLYNOMIAL_CAP:
        raise CapExceededError(f"polynomial form capped at {POLYNOMIAL_CAP} polymers")
    z = [ActivityPolynomial.monomial([g], 1) for g in sys.polymers]
    return _independence(sys, [mask], z, ActivityPolynomial.constant(1))[0]


@lru_cache(maxsize=None)
def _phi_table(n: int) -> np.ndarray:
    """The hard-core Ursell coefficient of every graph G on [n], indexed by
    its mask in the pair order of ``vertex_pairs(n)``: a read-only int64
    array.  Every incompatible pair has f = -1, so phi(G) is the sum of
    (-1)^|H| over the connected spanning subgraphs H of G, one zeta
    (subset-sum) transform over the C(n, 2) pair bits."""
    masks = connected_masks(n)
    phi = np.zeros(1 << num_pairs(n), dtype=np.int64)
    phi[masks] = np.where(np.bitwise_count(masks) & 1, -1, 1)
    for bit in range(num_pairs(n)):
        halves = phi.reshape(-1, 2, 1 << bit)
        halves[:, 1] += halves[:, 0]
    phi.flags.writeable = False
    return phi


def _multiplicity_factorial(combo: Sequence) -> int:
    """Product of mult! over the runs of equal neighbours in a sorted tuple:
    the ordered tuples a multiset stands for are n! / this."""
    denom = 1
    run = 1
    for a in range(1, len(combo)):
        run = run + 1 if combo[a] == combo[a - 1] else 1
        denom *= run
    return denom


def cluster_log_truncated(sys: PolymerSystem, region: Iterable[Polymer] | None = None,
                          order: int = 4) -> ActivityPolynomial:
    """Truncation of log Xi as a polynomial in the activities.

    Sums (1/n!) phi(g_1..g_n) z_{g_1}...z_{g_n} over ordered tuples from the
    region up to length ``order``, grouped by multiset.  The exponential of
    the result matches the exact Xi polynomial through total degree ``order``.
    """
    if order > CLUSTER_ORDER_CAP:
        raise CapExceededError(f"order capped at {CLUSTER_ORDER_CAP}")
    region = sorted(frozenset(sys.polymers) if region is None else _known(sys, region), key=repr)
    if len(region) > CLUSTER_VOLUME_CAP:
        raise CapExceededError(f"cluster truncation capped at {CLUSTER_VOLUME_CAP} polymers")
    index = [sys._index[g] for g in region]
    incompatible = np.array([[sys._nbr_masks[a] >> b & 1 for b in index] for a in index],
                            dtype=np.int64).reshape(len(region), len(region))
    terms: dict = {}
    for n, rows in enumerate(_multisets(len(region), order), 1):
        key = np.zeros(len(rows), dtype=np.int64)
        for bit, (i, j) in enumerate(vertex_pairs(n)):
            key |= incompatible[rows[:, i], rows[:, j]] << bit
        phi = _phi_table(n)[key]
        hit = np.flatnonzero(phi)
        terms.update(_monomials(region, rows[hit], phi[hit].tolist()))
    return ActivityPolynomial(terms)


def _multisets(size: int, order: int) -> Iterator[np.ndarray]:
    """The n-multisets of range(size) for n = 1..order, each as ascending
    rows in the order of ``combinations_with_replacement``: a row is
    followed in the next order by its extensions l, l+1, ..., size-1, l its
    last entry.  The entries take the smallest unsigned dtype that holds
    them, which keeps the largest order's rows small."""
    dtype = np.min_scalar_type(size)
    rows = np.arange(size, dtype=dtype).reshape(-1, 1)
    for n in range(1, order + 1):
        if n > 1:
            last = rows[:, -1]
            count = size - last
            first = np.cumsum(count) - count  # where each row's extensions start
            tail = np.arange(count.sum()) - np.repeat(first - last, count)
            rows = np.column_stack([np.repeat(rows, count, axis=0), tail.astype(dtype)])
        yield rows


def _monomials(region: Sequence[Polymer], rows: np.ndarray, phi: Sequence[int]) -> dict:
    """{monomial: phi / prod(mult!)} of ascending rows of indices into the
    repr-sorted region, in row order.  The runs of equal indices in a row are
    the powers of its monomial, in the order ``_monomial_key`` gives; rows
    are grouped by where their runs start, which fixes the powers and the
    denominator."""
    n = rows.shape[1]
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    shape = starts @ (1 << np.arange(n))
    monos: list = [None] * len(rows)
    coeffs: list = [None] * len(rows)
    for s in set(shape.tolist()):  # not np.unique, which imports numpy.ma (about 1 MiB)
        at = [k for k in range(n) if s >> k & 1]
        powers = [b - a for a, b in zip(at, at[1:] + [n])]
        group = np.flatnonzero(shape == s)
        denom = _multiplicity_factorial(rows[group[0]].tolist())
        fractions: dict = {}  # few distinct phi per shape
        for r, heads in zip(group.tolist(), rows[group][:, at].tolist()):
            monos[r] = tuple(zip(map(region.__getitem__, heads), powers))
            coeffs[r] = fractions.get(phi[r])
            if coeffs[r] is None:
                coeffs[r] = fractions[phi[r]] = Fraction(phi[r], denom)
    return dict(zip(monos, coeffs))


@dataclass
class PinnedSeries:
    polymer: Polymer
    partials: list[float]  # cumulative sums through order 0, 1, ..., N

    @property
    def value(self) -> float:
        return self.partials[-1]


def pinned_series(sys: PolymerSystem, gamma0: Polymer, order: int,
                  rho: Mapping[Polymer, float] | float) -> PinnedSeries:
    """Truncated pinned absolute series sum (1/n!) |phi(g0, g_1..g_n)| rho...

    Hard-core Ursell coefficients alternate in sign, so this is the
    t-expansion of Xi_(L - N[g0])(-t rho) / Xi_L(-t rho) at t = 1.  Over one
    common denominator D of the rho_g, both are integer series in s = t / D,
    the division is exact, and each partial is rounded once.

    Partial sums are nondecreasing in the order; for activities inside a
    certified region, rho_g0 times the limit stays below the trial weight.
    """
    if order > PINNED_ORDER_CAP:
        raise CapExceededError(f"order capped at {PINNED_ORDER_CAP}")
    _known(sys, (gamma0,))
    rho_map = rho if isinstance(rho, Mapping) else {g: rho for g in sys.polymers}
    fracs = [Fraction(rho_map[g]) for g in sys.polymers]
    D = math.lcm(*(f.denominator for f in fracs))
    z = [-f.numerator * (D // f.denominator) for f in fracs]
    one = Series((1,) + (0,) * order)  # an int activity c stands for the term c s
    full = _region_mask(sys, None)
    outside = full & ~_region_mask(sys, sys.neighborhood(gamma0))
    den, num = _independence(sys, [full, outside], z, one)
    partials, acc = [], 0
    for n, q in enumerate(num / den):  # den[0] = 1
        acc = acc * D + q  # the partial through order n, times D^n
        partials.append(acc / D**n)
    return PinnedSeries(gamma0, partials)


@dataclass
class FixedPointResult:
    values: dict
    iterations: int
    converged: bool
    diverged: bool
    exceeded_mu: bool


def fixed_point_iterate(sys: PolymerSystem, rho: Mapping[Polymer, float] | float,
                        k: int, mu: Mapping[Polymer, float] | None = None) -> FixedPointResult:
    """Iterate u <- rho * Xi_neighborhood(u) from u = rho, at most k times.

    Coordinates are monotone nondecreasing.  When the activities sit below a
    certified radius the iteration converges to the pinned-series fixed
    point (a step moving no coordinate by 1e-12 stops it); otherwise
    coordinates grow past 1e12 (or past mu, when given), which is reported
    as a criterion violation.
    """
    rho_map = dict(rho) if isinstance(rho, Mapping) else {g: rho for g in sys.polymers}
    u = dict(rho_map)
    if k == 0:
        return FixedPointResult(u, 0, False, False, False)
    exceeded = False
    diverged = False
    converged = False
    for it in range(1, k + 1):
        new = {}
        for g in sys.polymers:
            nbh = sys.neighborhood(g)
            new[g] = rho_map[g] * abs(partition_function(sys, nbh, activities=u))
        delta = max(abs(new[g] - u[g]) for g in sys.polymers)
        u = new
        if mu is not None and any(u[g] > mu[g] + 1e-15 for g in sys.polymers):
            exceeded = True
            break
        if max(u.values()) > 1e12:
            diverged = True
            break
        if delta < 1e-12:
            converged = True
            break
    return FixedPointResult(u, it, converged, diverged, exceeded)


# ---------------------------------------------------------------------------
# Convergence criteria


@dataclass
class CriterionInput:
    """Trial weights mu > 0 plus the neighborhood structure they are tried on."""

    system: PolymerSystem
    mu: Mapping[Polymer, float]

    def __post_init__(self):
        for g in self.system.polymers:
            if self.mu[g] <= 0:
                raise ValueError("trial weights must be positive")


@dataclass
class CriterionRadii:
    r_kp: float
    r_dob: float
    r_fp: float
    fp_exact: bool


def criteria(inp: CriterionInput) -> dict[Polymer, CriterionRadii]:
    """Per-polymer activity radii mu / phi(mu) for the three conditions.

    phi is exp(sum mu) over the neighborhood (exponential form), the product
    of (1 + mu) (product form), or the neighborhood partition function
    (the strongest).  Pointwise r_fp >= r_dob >= r_kp.
    """
    sys = inp.system
    return {
        g: CriterionRadii(criterion_radius(sys, g, inp.mu, "kp"),
                          criterion_radius(sys, g, inp.mu, "dob"),
                          *_fp_radius(sys, g, inp.mu))
        for g in sys.polymers
    }


def criterion_radius(sys: PolymerSystem, g: Polymer, mu: Mapping[Polymer, float],
                     which: str) -> float:
    """One polymer's radius mu_g / phi(mu) for one condition: "kp"
    (exponential), "dob" (product) or "fp" (neighborhood partition function,
    bounded from above where the exact recursion refuses the neighborhood)."""
    nbh = sys._nbr_order[g]
    if which == "kp":
        try:
            return mu[g] / math.exp(sum(mu[h] for h in nbh))
        except OverflowError:  # e^(sum mu) is past the largest float
            return 0.0
    if which == "dob":
        prod = 1.0
        for h in nbh:
            prod *= 1.0 + mu[h]
        return mu[g] / prod
    if which == "fp":
        return _fp_radius(sys, g, mu)[0]
    raise ValueError(f"unknown criterion {which!r}; known: kp, dob, fp")


def _fp_radius(sys: PolymerSystem, g: Polymer, mu: Mapping[Polymer, float]) -> tuple[float, bool]:
    """(fp radius, whether it used the exact neighborhood partition function)."""
    nbh = sys._nbr_order[g]
    try:
        return mu[g] / abs(partition_function(sys, nbh, activities=mu)), True
    except CapExceededError:
        pass
    # oversized neighborhood: bound its partition function from above, by the
    # binomial bound when polymers are vertex subsets, the product bound otherwise
    if not isinstance(g, frozenset):
        return criterion_radius(sys, g, mu, "dob"), False
    per_vertex = 0.0
    for x in g:
        per_vertex = max(per_vertex, sum(mu[h] for h in nbh if isinstance(h, frozenset) and x in h))
    return mu[g] / (1.0 + per_vertex) ** len(g), False


def constant_mu_radius(sys: PolymerSystem, polymer: Polymer, which: str, mu: float) -> float:
    """The chosen radius of one polymer under the constant trial weight mu."""
    inp = CriterionInput(sys, dict.fromkeys(sys.polymers, mu))
    return criterion_radius(sys, polymer, inp.mu, which)


def optimize_constant_mu(sys: PolymerSystem, polymer: Polymer, which: str) -> tuple[float, float]:
    """Golden-section maximisation of the chosen radius over a constant mu
    in [1e-6, 30], bracketed on a log grid first."""
    return grid_max(lambda m: constant_mu_radius(sys, polymer, which, m),
                    np.geomspace(1e-6, 30.0, 220))


def regular_graph_thresholds(Delta: int) -> tuple[float, float, float]:
    """Optimised constants on a degree-Delta graph whose neighbor sites are
    pairwise compatible (tree-like worst case):

    kp  = 1 / ((Delta + 1) e)
    dob = Delta^Delta / (Delta + 1)^(Delta + 1)
    fp  = 1 / (1 + Delta^Delta / (Delta - 1)^(Delta - 1))
    """
    if Delta < 2:
        raise ValueError("need Delta >= 2")
    kp = 1.0 / ((Delta + 1) * math.e)
    dob = Delta**Delta / float((Delta + 1) ** (Delta + 1))
    fp = 1.0 / (1.0 + Delta**Delta / float((Delta - 1) ** (Delta - 1)))
    return kp, dob, fp


# ---------------------------------------------------------------------------
# Built-in models


def domino_system(width: int = 5, height: int = 5, rho: float = 1.0) -> PolymerSystem:
    """Nearest-neighbour bonds of a grid window; bonds sharing a vertex are
    incompatible.  In the bulk each bond excludes itself and six others."""
    bonds = []
    for r in range(height):
        for c in range(width):
            if c + 1 < width:
                bonds.append(((r, c), (r, c + 1)))
            if r + 1 < height:
                bonds.append(((r, c), (r + 1, c)))
    pairs = [
        (b1, b2)
        for i, b1 in enumerate(bonds)
        for b2 in bonds[i + 1:]
        if set(b1) & set(b2)
    ]
    return PolymerSystem({b: rho for b in bonds}, pairs)


def domino_center(sys: PolymerSystem) -> Polymer:
    """A bond with the full bulk neighborhood (7 incompatible polymers)."""
    for b in sys.polymers:
        if len(sys.neighborhood(b)) == 7:
            return b
    raise ValueError("window too small: no bulk bond present")


def delta_regular_system(Delta: int, rho: float = 1.0) -> PolymerSystem:
    """Star neighborhood of the tree-like worst case: a center polymer with
    Delta pairwise-compatible incompatible neighbors."""
    polymers: dict = {"c": rho}
    pairs = []
    for k in range(Delta):
        polymers[f"n{k}"] = rho
        pairs.append(("c", f"n{k}"))
    return PolymerSystem(polymers, pairs)


def triangular_window(radius: int = 2, rho: float = 1.0) -> PolymerSystem:
    """Sites of the triangular lattice (square lattice plus one diagonal);
    a site excludes itself and its six neighbors."""
    sites = [(x, y) for x in range(-radius, radius + 1) for y in range(-radius, radius + 1)]
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
    site_set = set(sites)
    pairs = []
    for x, y in sites:
        for dx, dy in offsets:
            other = (x + dx, y + dy)
            if other in site_set and (x, y) < other:
                pairs.append(((x, y), other))
    return PolymerSystem({s: rho for s in sites}, pairs)


def subset_gas_system(vertices: Sequence[Hashable],
                      activities: Mapping[frozenset, float]) -> PolymerSystem:
    """Polymers are finite vertex subsets; overlap means incompatibility."""
    polys = list(activities.keys())
    vset = set(vertices)
    for g in polys:
        if not isinstance(g, frozenset) or not g or not g <= vset:
            raise ValueError(f"polymer {g!r} is not a nonempty subset of the vertex set")
    pairs = [
        (g1, g2)
        for i, g1 in enumerate(polys)
        for g2 in polys[i + 1:]
        if g1 & g2
    ]
    return PolymerSystem(dict(activities), pairs)


def random_subset_gas(vertices: Sequence[Hashable], n_polymers: int, max_size: int,
                      rng, a: float = math.log(2.0)) -> PolymerSystem:
    """Random subset system scaled so sup_x sum_{g: x in g} rho(g) e^(a|g|)
    equals 0.9 times e^a - 1."""
    vertices = list(vertices)
    if not vertices:
        raise ValueError("need at least 1 vertex, got an empty vertex list")
    distinct = sum(math.comb(len(vertices), s) for s in range(1, max_size + 1))
    if not 1 <= n_polymers <= distinct:  # the sampling below draws distinct subsets
        raise ValueError(f"need 1 <= n_polymers <= {distinct}, the subsets of size <= {max_size}")
    polymers: dict[frozenset, float] = {}
    while len(polymers) < n_polymers:
        size = rng.randint(1, max_size)
        g = frozenset(rng.sample(vertices, size))
        if g not in polymers:
            polymers[g] = rng.uniform(0.2, 1.0)
    sup = max(
        sum(w * math.exp(a * len(g)) for g, w in polymers.items() if x in g)
        for x in vertices
    )
    scale = 0.9 * (math.exp(a) - 1.0) / sup
    return subset_gas_system(vertices, {g: w * scale for g, w in polymers.items()})


# ---------------------------------------------------------------------------
# Subset-gas condition with exhaustive inductive verification


@dataclass
class BoundReport:
    """Named threshold: the formula, its inputs, the value, and the verdict."""

    name: str
    formula: str
    inputs: dict
    threshold: float
    value: float | None = None
    satisfied: bool | None = None
    margin: float | None = None

    def __bool__(self):
        return bool(self.satisfied)


@dataclass
class SubsetGasReport:
    condition: BoundReport
    verified: bool
    checked_volumes: int
    max_pinned_sum: float
    zero_crossing: frozenset | None

    def __bool__(self):
        return bool(self.condition.satisfied) and self.verified


def subset_gas_check(sys: PolymerSystem, a: float = math.log(2.0)) -> SubsetGasReport:
    """Check sup_x sum_{g: x in g} rho(g) e^(a|g|) <= e^a - 1 and, when it
    holds, verify on every sub-volume L and pinned vertex x that
    -log Xi_L(-rho) + log Xi_(L-x)(-rho) <= a (to 1e-9) with Xi_L(-rho) > 0
    throughout.
    """
    polymers = list(sys.polymers)
    vertices = sorted({x for g in polymers for x in g}, key=repr)
    if len(vertices) > SUBSET_VERTEX_CAP:
        raise CapExceededError(f"vertex set capped at {SUBSET_VERTEX_CAP}")
    rho = {g: float(sys.activity[g]) for g in polymers}
    if any(r < 0 for r in rho.values()):
        raise ValueError("the inductive verification needs nonnegative activities")
    vidx = {x: k for k, x in enumerate(vertices)}
    gmask = {g: sum(1 << vidx[x] for x in g) for g in polymers}
    sup = max(
        sum(rho[g] * math.exp(a * len(g)) for g in polymers if x in g)
        for x in vertices
    ) if vertices else 0.0
    threshold = math.exp(a) - 1.0
    condition = BoundReport(
        name="subset_gas",
        formula="sup_x sum_{g: x in g} rho(g) e^(a|g|) <= e^a - 1",
        inputs={"a": a, "vertices": len(vertices), "polymers": len(polymers)},
        threshold=threshold,
        value=sup,
        satisfied=sup <= threshold + 1e-15,
        margin=threshold - sup,
    )
    if not condition.satisfied:
        return SubsetGasReport(condition, False, 0, math.nan, None)

    by_vertex: list[list] = [[] for _ in vertices]
    for g in polymers:
        by_vertex[min(vidx[x] for x in g)].append((gmask[g], rho[g]))
    verified, checked, worst, zero = _subset_gas_induction(by_vertex, a)
    crossing = None if zero is None else frozenset(
        vertices[k] for k in range(len(vertices)) if zero >> k & 1)
    return SubsetGasReport(condition, verified, checked, worst, crossing)


def _subset_gas_induction(by_vertex: Sequence[Sequence[tuple[int, float]]],
                          a: float) -> tuple[bool, int, float, int | None]:
    """The induction of ``subset_gas_check`` on V vertices, where
    ``by_vertex[v]`` lists (mask, rho) of the polymers whose lowest vertex
    is v: (verified, checked volumes, max pinned sum, the mask where Xi
    first fails to be positive or None).

    Xi_L(-rho) = Xi_(L-v)(-rho) - sum_g rho_g Xi_(L-g)(-rho) over the
    polymers g of L with lowest vertex v, the lowest vertex of L.  All 2^V
    sub-volumes are filled by lowest vertex, from V-1 down to 0, with the
    terms subtracted in polymer order.  The volumes are then read in
    ascending order: the first L with Xi_L <= 0, or the first (L, x in L)
    in (mask, bit) order whose pinned sum log Xi_(L-x) - log Xi_L passes
    a + 1e-9, stops the check, and the max pinned sum runs up to there.
    """
    size = 1 << len(by_vertex)
    volumes = np.arange(size)
    xi = np.empty(size)
    xi[0] = 1.0
    for v in range(len(by_vertex) - 1, -1, -1):
        low = volumes[1 << v::2 << v]  # the volumes whose lowest vertex is v
        val = xi[low ^ (1 << v)]
        for gm, r in by_vertex[v]:
            inside = (low & gm) == gm
            val[inside] -= r * xi[low[inside] & ~gm]
        xi[low] = val
    bad = np.flatnonzero(xi <= 0.0)
    stop = int(bad[0]) if bad.size else size  # the volumes below stop have Xi > 0
    logs = np.fromiter(map(math.log, xi[:stop].tolist()), float, stop)
    limit = a + 1e-9
    worst, first = 0.0, None  # first: the (L, x) of the first pinned sum past the limit
    for x in range(len(by_vertex)):
        hold, pinned = _pinned_sums(logs, stop, x)
        worst = float(np.fmax.reduce(pinned, initial=worst))
        over = np.flatnonzero(pinned > limit)
        if over.size:
            at = (int(hold[over[0]]), x)
            first = at if first is None else min(first, at)
    if first is not None:
        mask, bit = first
        worst = 0.0
        for x in range(len(by_vertex)):
            worst = float(np.fmax.reduce(_pinned_sums(logs, mask + (x <= bit), x)[1],
                                         initial=worst))
        return False, mask, worst, None
    if stop < size:
        return False, stop, math.nan, stop
    return True, size - 1, worst, None


def _pinned_sums(logs: np.ndarray, end: int, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The volumes L < end that hold vertex x, ascending, and their pinned
    sums log Xi_(L-x) - log Xi_L."""
    hold = np.arange(1 << x, end)
    hold = hold[hold >> x & 1 == 1]
    return hold, logs[hold ^ (1 << x)] - logs[hold]


# ---------------------------------------------------------------------------
# Closed-form bound catalog


def _report(name, formula, inputs, threshold, value=None, satisfied=None):
    margin = None if value is None else threshold - value
    if satisfied is None and value is not None:
        satisfied = value < threshold
    return BoundReport(name, formula, inputs, threshold, value, satisfied, margin)


def _catalog_lattice_gas_direct(beta: float, J: float, lam: float | None = None) -> BoundReport:
    thr = math.exp(-(beta * J / 2.0 + 1.0)) / (1.0 + beta * J)
    return _report(
        "lattice_gas_direct",
        "|lam| e^(beta J/2 + 1) (1 + beta J) < 1",
        {"beta": beta, "J": J, "lam": lam},
        thr,
        value=abs(lam) if lam is not None else None,
    )


def _catalog_lattice_gas_polymer(beta: float, J: float, lam_tilde: float | None = None) -> BoundReport:
    rhs = (1.0 / (beta * J)) / (1.0 + math.sqrt(1.0 + 4.0 / (math.e * beta * J)))
    thr = rhs * math.exp(-(beta * J / 2.0 + 1.0))
    return _report(
        "lattice_gas_polymer",
        "|lam/(1+lam)| e^(beta J/2 + 1) <= (1/(beta J)) / (1 + sqrt(1 + 4/(e beta J)))",
        {"beta": beta, "J": J, "lam_tilde": lam_tilde},
        thr,
        value=abs(lam_tilde) if lam_tilde is not None else None,
    )


def _catalog_beg_disordered(d: int, X: float, Y: float) -> BoundReport:
    D = X - d * (1.0 + abs(Y))
    if D <= 0:
        raise ValueError("need X > d (1 + |Y|): the zero configuration must be the ground state")
    beta_star = math.log(d * 2.0 ** (3 * d + 4)) / D
    return _report(
        "beg_disordered",
        "beta >= ln(d 2^(3d+4)) / (X - d(1+|Y|))",
        {"d": d, "X": X, "Y": Y, "D": D},
        beta_star,
    )


def _catalog_bounded_spin(c: float, J: float, beta: float | None = None) -> BoundReport:
    thr = 0.058 / (c * c * J)
    return _report(
        "bounded_spin",
        "beta <= 0.058 / (c^2 J)",
        {"c": c, "J": J, "beta": beta},
        thr,
        value=beta,
        satisfied=None if beta is None else beta <= thr,
    )


def _catalog_unbounded_spin(x: float | None = None) -> BoundReport:
    closed = (math.e - 1.0) / (4.0 * math.e**2)
    # largest x with -ln(1 - 4 e x) <= 1, root-solved
    root = bisect_root(lambda t: -math.log1p(-4.0 * math.e * t) - 1.0, 1e-12, 1.0 / (4.0 * math.e) - 1e-12)
    assert abs(root - closed) < 1e-12
    return _report(
        "unbounded_spin",
        "beta J C^2(beta J) <= (e - 1) / (4 e^2)",
        {"x": x, "root_solved": root},
        closed,
        value=x,
        satisfied=None if x is None else x <= closed,
    )


def _catalog_many_body_hierarchy(K: float, sigma_bar: float) -> BoundReport:
    if not 0 < sigma_bar < 1:
        raise ValueError("need 0 < sigma_bar < 1")
    thr = abs(math.log(sigma_bar)) / 4.0
    return _report(
        "many_body_hierarchy",
        "K < |log sigma_bar| / 4",
        {"K": K, "sigma_bar": sigma_bar},
        thr,
        value=K,
    )


def _catalog_many_body_refined(K: float, sigma_bar: float, a: float) -> BoundReport:
    sigma = sigma_bar * math.exp(a)
    if not 0 < sigma < 1:
        raise ValueError("need sigma_bar e^a < 1")
    if abs(math.log(sigma)) <= K:
        raise ValueError("need K < |log sigma|")
    value = K * (sigma + K / (abs(math.log(sigma)) - K))
    return _report(
        "many_body_refined",
        "K (sigma + K / (|log sigma| - K)) < e^a - 1, sigma = sigma_bar e^a",
        {"K": K, "sigma_bar": sigma_bar, "a": a},
        math.exp(a) - 1.0,
        value=value,
    )


def _catalog_israel(I_a: float, I_bar: float, a: float) -> BoundReport:
    thr = math.exp(-I_bar) * a / 4.0
    return _report(
        "israel",
        "I(a) < e^(-I_bar) a / 4",
        {"I_a": I_a, "I_bar": I_bar, "a": a},
        thr,
        value=I_a,
    )


def _catalog_nbody_lattice_gas(z: float, beta: float, J: float) -> BoundReport:
    value = z * math.expm1(4.0 * beta * J * math.exp(beta * J))
    return _report(
        "nbody_lattice_gas",
        "z (exp(4 beta J e^(beta J)) - 1) < 1",
        {"z": z, "beta": beta, "J": J},
        1.0,
        value=value,
    )


def _catalog_ising_high_t_crude(beta: float, J: float, d: int) -> BoundReport:
    x = beta * J
    if not 0 < x < 1:
        raise ValueError("need 0 < beta J < 1")
    value = x ** (1.0 / 3.0) / abs(math.log(x))
    return _report(
        "ising_high_t_crude",
        "(beta J)^(1/3) / |log(beta J)| < 1 / (48 d)",
        {"beta": beta, "J": J, "d": d},
        1.0 / (48.0 * d),
        value=value,
    )


_CATALOG: dict[str, Callable[..., BoundReport]] = {
    "lattice_gas_direct": _catalog_lattice_gas_direct,
    "lattice_gas_polymer": _catalog_lattice_gas_polymer,
    "beg_disordered": _catalog_beg_disordered,
    "bounded_spin": _catalog_bounded_spin,
    "unbounded_spin": _catalog_unbounded_spin,
    "many_body_hierarchy": _catalog_many_body_hierarchy,
    "many_body_refined": _catalog_many_body_refined,
    "israel": _catalog_israel,
    "nbody_lattice_gas": _catalog_nbody_lattice_gas,
    "ising_high_t_crude": _catalog_ising_high_t_crude,
}


def bounds_catalog(which: str, **params) -> BoundReport:
    """Evaluate one of the named closed-form thresholds; see _CATALOG keys."""
    try:
        fn = _CATALOG[which]
    except KeyError:
        raise ValueError(f"unknown bound {which!r}; known: {', '.join(sorted(_CATALOG))}") from None
    return call_checked(fn, params, f"bound {which}")

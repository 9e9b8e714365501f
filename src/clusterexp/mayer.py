"""Mayer coefficients on finite discrete volumes and the classical bounds.

The n-th coefficient of the log of the grand-canonical sum, per site, is
defined by

    log Xi_volume(z) = |volume| * sum_n C_n z^n,

where Xi sums z^|S| e^(-beta U(S)) over the occupied site sets S.  Xi is
built truncated at z^n_max by a site-by-site transfer: the state is the
occupancy of the processed sites that still interact with a later site (the
frontier), so a sweep keeps at most sum_(k <= n_max) binom(w, k) states for
a frontier of width w, and costs |volume| times that many polynomial steps.
The power-series log is ``numerics.Series.log``.  Both steps run in exact
rationals (each Boltzmann weight is the exact value of its float), so the
coefficients are rounded once: exact rationals when the site interactions
are all 0 or +inf, floats otherwise.

Alongside the coefficients: the three closed-form bounds (double-stability,
tree-graph, and the (n-1)-normalised variant), the coefficient recursion
K(n, l) with its closed-form solution, and the Lagrange-inversion toolbox for
the virial radius (the w e^(-w) solver, the rooted-tree series check, and the
maximisation of w(2 e^(-w) - 1) over (0, ln 2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import CapExceededError
from .numerics import Series, bisect_root, grid_max
from .potentials import PairPotentialSpec, is_nonnegative, potential_eval

INF = math.inf

N_MAX_CAP = 16
VOLUME_CAP = 64
STATE_CAP = 1 << 16  # live frontier states of the transfer
KS_CAP = 40

VIRIAL_NUMERATOR = 0.14477  # published constant; the true supremum is 0.144766998...


@dataclass(frozen=True)
class DiscreteVolume:
    """Finite list of distinct sites embedded in R^d."""

    sites: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("sites must be distinct")

    @classmethod
    def path(cls, k: int, spacing: float = 1.0) -> "DiscreteVolume":
        return cls(tuple((i * spacing,) for i in range(k)))

    @classmethod
    def grid(cls, w: int, h: int, spacing: float = 1.0) -> "DiscreteVolume":
        return cls(tuple((i * spacing, j * spacing) for i in range(w) for j in range(h)))

    @property
    def size(self) -> int:
        return len(self.sites)

    def distance(self, i: int, j: int) -> float:
        return math.dist(self.sites[i], self.sites[j])


@dataclass
class MayerCoefficientRecord:
    n: int
    value: float | Fraction
    bound_pr: float | None
    bound_py: float | None
    bound_basuev: float | None
    inputs: dict

    def within_bounds(self) -> bool:
        v = abs(float(self.value))
        for b in (self.bound_pr, self.bound_py, self.bound_basuev):
            if b is not None and v > b * (1 + 1e-12) + 1e-15:
                return False
        return True


def _site_matrix(volume: DiscreteVolume, spec: PairPotentialSpec, beta: float) -> list[list[float]]:
    m = volume.size
    vals = [[0.0] * m for _ in range(m)]
    for i in range(m):
        vals[i][i] = INF  # on-site hard core, checked by the caller
        for j in range(i + 1, m):
            v = potential_eval(spec, volume.distance(i, j))
            v = v if v == INF else beta * v
            vals[i][j] = vals[j][i] = v
    return vals


def lattice_integrals(vals: list[list[float]]) -> tuple[float, float]:
    """Discrete analogues of the two f-function integrals on a volume, from
    its site matrix beta V(x-y): max over sites x of sum over sites y
    (including y = x) of |e^(-beta V(x-y)) - 1| and of 1 - e^(-beta |V(x-y)|)."""
    m = len(vals)
    c = ct = 0.0
    for i in range(m):
        try:
            si = sum(1.0 if vals[i][j] == INF else abs(math.expm1(-vals[i][j])) for j in range(m))
        except OverflowError:
            raise ValueError("a Boltzmann factor overflows a float in the lattice integrals") from None
        ti = sum(1.0 if vals[i][j] == INF else -math.expm1(-abs(vals[i][j])) for j in range(m))
        c, ct = max(c, si), max(ct, ti)
    return c, ct


def _last_partner(vals: list[list[float]], order: list[int]) -> list[int]:
    """Per position p in the order: the last position of a site interacting
    with order[p], or p itself when no later site does."""
    pos = {site: p for p, site in enumerate(order)}
    return [
        max([p] + [pos[j] for j in range(len(order)) if j != i and vals[i][j] != 0.0])
        for p, i in enumerate(order)
    ]


def _site_order(volume: DiscreteVolume, vals: list[list[float]]) -> tuple[list[int], int]:
    """The site order with the narrowest frontier among the given order and
    the coordinate sorts (each axis first in turn), with that width: the
    most processed sites that still interact with a later one."""
    m = volume.size
    orders = [list(range(m))] + [
        sorted(range(m), key=lambda i, a=a: volume.sites[i][a:] + volume.sites[i][:a])
        for a in range(len(volume.sites[0]))
    ]
    best: tuple[list[int], int] | None = None
    for order in orders:
        last = _last_partner(vals, order)
        width = max(sum(1 for q in range(p + 1) if last[q] > p) for p in range(m))
        if best is None or width < best[1]:
            best = (order, width)
    return best


def _grand_partition(vals: list[list[float]], order: list[int], n_max: int) -> Series:
    """Coefficients a_0..a_n_max of Xi(z) = sum_S z^|S| e^(-U(S)) by the
    site-by-site transfer.

    Each state maps the occupied frontier sites (a bitmask) to the series of
    its configurations' weights by particle number.  Weights are Python ints
    while every energy is 0, exact Fractions of the float Boltzmann weights after.
    """
    retire = [0] * len(order)  # frontier bits dropped after position p
    for i, last in zip(order, _last_partner(vals, order)):
        retire[last] |= 1 << i
    states: dict[int, Series] = {0: Series((1,) + (0,) * n_max)}
    for p, i in enumerate(order):
        blocked = 0
        soft = []
        for j in order[:p]:
            if vals[i][j] == INF:
                blocked |= 1 << j
            elif vals[i][j] != 0.0:
                soft.append((1 << j, vals[i][j]))
        keep = ~retire[p]
        nxt: dict[int, Series] = {}

        def add(key: int, poly: Series) -> None:
            got = nxt.get(key & keep)
            nxt[key & keep] = poly if got is None else got + poly

        for mask, poly in states.items():
            add(mask, poly)
            if mask & blocked or not any(poly[:-1]):
                continue  # site i is excluded, or every configuration is full
            e = sum(v for b, v in soft if mask & b)
            try:
                w = 1 if e == 0.0 else Fraction(math.exp(-e))
            except OverflowError:
                raise ValueError(f"Boltzmann weight e^{-e:.6g} overflows a float") from None
            add(mask | 1 << i, w * poly)
        states = nxt
    (poly,) = states.values()  # every site has left the frontier
    return poly


def mayer_coefficients(
    volume: DiscreteVolume,
    spec: PairPotentialSpec,
    beta: float,
    n_max: int,
    B: float | None = None,
    Bbar: float | None = None,
) -> list[MayerCoefficientRecord]:
    """Exact coefficients C_1..C_n_max on a discrete volume.

    Requires an on-site hard core (V(0) = +inf) so multiple occupation of a
    site is forbidden.  Matrices with all values in {0, +inf} give exact
    Fractions; the rest are exact rationals rounded once to floats.  The
    transfer is refused when its frontier could hold more than STATE_CAP
    states.
    """
    if n_max > N_MAX_CAP:
        raise CapExceededError(f"n_max capped at {N_MAX_CAP}")
    if not 0 < volume.size <= VOLUME_CAP:
        refusal = CapExceededError if volume.size else ValueError
        raise refusal(f"volume must hold 1 to {VOLUME_CAP} sites")
    if potential_eval(spec, 0.0) != INF:
        raise ValueError("spec must carry an on-site hard core: V(0) = +inf")
    if B is None and is_nonnegative(spec):
        B = 0.0
    vals = _site_matrix(volume, spec, beta)
    m = volume.size
    top = max(n_max, 1)  # C_1 is always reported
    order, width = _site_order(volume, vals)
    bound = sum(math.comb(width, k) for k in range(min(top, width) + 1))
    if bound > STATE_CAP:
        raise CapExceededError(
            f"Mayer transfer capped at {STATE_CAP} frontier states: a frontier of {width} "
            f"sites could hold {bound} at n_max = {top}"
        )
    hard = all(v == 0.0 or v == INF for row in vals for v in row)
    c_lat, ct_lat = lattice_integrals(vals)
    h = _grand_partition(vals, order, top).log()
    try:
        values = [h[n] / m if hard else float(h[n] / m) for n in range(1, top + 1)]
    except OverflowError:
        raise ValueError("a Mayer coefficient overflows a float") from None
    inputs = {"beta": beta, "B": B, "Bbar": Bbar, "C": c_lat, "Ctilde": ct_lat}
    records = [MayerCoefficientRecord(1, values[0], None, None, None, dict(inputs))]
    for n in range(2, n_max + 1):
        pr, py, bas = mayer_bounds(n, beta, B, Bbar, c_lat, ct_lat)
        records.append(MayerCoefficientRecord(n, values[n - 1], pr, py, bas, dict(inputs)))
    return records


def mayer_bounds(
    n: int,
    beta: float,
    B: float | None,
    Bbar: float | None,
    C: float,
    Ctilde: float,
) -> tuple[float | None, float | None, float | None]:
    """The three closed-form coefficient bounds.

    bound_pr      = e^(2 beta B (n-2)) n^(n-2) C^(n-1) / n!
    bound_py      = e^(beta B n)       n^(n-2) Ctilde^(n-1) / n!
    bound_basuev  = e^(beta Bbar (n-1)) n^(n-2) Ctilde^(n-1) / n!
    """
    if n < 2 or beta < 0:
        raise ValueError("need n >= 2 and beta >= 0")

    def safe(log_value: float) -> float:
        return math.exp(log_value) if log_value < 700 else INF

    log_tail_c = (n - 2) * math.log(n) - math.lgamma(n + 1) + (n - 1) * (math.log(C) if C > 0 else -INF)
    log_tail_ct = (n - 2) * math.log(n) - math.lgamma(n + 1) + (n - 1) * (math.log(Ctilde) if Ctilde > 0 else -INF)
    pr = safe(2 * beta * B * (n - 2) + log_tail_c) if B is not None else None
    py = safe(beta * B * n + log_tail_ct) if B is not None else None
    bas = safe(beta * Bbar * (n - 1) + log_tail_ct) if Bbar is not None else None
    return pr, py, bas


@dataclass
class RadiusBounds:
    r_pr: float       # 1 / (e^(2 beta B + 1) C)
    r_star: float     # 1 / (e^(beta B + 1) Ctilde)
    ratio: float      # r_star / r_pr = e^(beta B) C / Ctilde, >= 1
    log_ratio: float


def _check_beta_B(beta: float, B: float) -> None:
    """Refuse an infinite or NaN beta B (inf * 0 is NaN) by name."""
    if not math.isfinite(beta * B):
        raise ValueError(f"beta B = {beta * B!r} is not a finite float")


def radius_bounds(beta: float, B: float, C: float, Ctilde: float) -> RadiusBounds:
    """Classical and tree-graph convergence radii with their improvement ratio."""
    if C <= 0 or Ctilde <= 0:
        raise ValueError("need C, Ctilde > 0")
    _check_beta_B(beta, B)
    log_ratio = beta * B + math.log(C) - math.log(Ctilde)
    r_pr = math.exp(-(2 * beta * B + 1)) / C
    r_star = math.exp(-(beta * B + 1)) / Ctilde
    ratio = math.exp(log_ratio) if log_ratio < 700 else INF
    return RadiusBounds(r_pr=r_pr, r_star=r_star, ratio=ratio, log_ratio=log_ratio)


def ks_closed_form(n: int, l: int, beta: float, B: float, C: float) -> float:
    """e^(2 beta B (n + l - 1)) n (n + l)^(l - 1) C^l / l!"""
    return math.exp(2 * beta * B * (n + l - 1)) * n * (n + l) ** (l - 1) * C**l / math.factorial(l)


def ks_recursion(M_max: int, beta: float, B: float, C: float) -> dict[tuple[int, int], float]:
    """Coefficient table K(n, l) for n >= 1, n + l <= M_max, filled by the
    recursion K(n, M-n) = e^(2 beta B) sum_s C^s / s! K(n-1+s, M-n-s) from
    K(1, 0) = 1, with the boundary convention K(0, l) = [l == 0]."""
    if M_max > KS_CAP:
        raise CapExceededError(f"M_max capped at {KS_CAP}")
    _check_beta_B(beta, B)
    K: dict[tuple[int, int], float] = {(1, 0): 1.0}

    def get(n: int, l: int) -> float:
        if n == 0:
            return 1.0 if l == 0 else 0.0
        return K[(n, l)]

    pref = math.exp(2 * beta * B)
    for M in range(2, M_max + 1):
        for n in range(1, M + 1):
            l = M - n
            acc = 0.0
            cs = 1.0
            for s in range(l + 1):
                acc += cs * get(n - 1 + s, l - s)
                cs = cs * C / (s + 1)
            K[(n, l)] = pref * acc
    return K


# ---------------------------------------------------------------------------
# Virial toolbox


def solve_w(x: float) -> float:
    """First solution in [0, 1] of w e^(-w) = x, for 0 <= x <= 1/e, by
    ``bisect_root``; 1.0 where w e^(-w) - x <= 0 already at w = 1 (the
    branch point x = 1/e and the float slack just past it)."""
    if x < 0 or x > 1.0 / math.e + 1e-15:
        raise ValueError("out of branch: need 0 <= x <= 1/e")
    if math.exp(-1.0) - x <= 0.0:
        return 1.0
    return bisect_root(lambda w: w * math.exp(-w) - x, 0.0, 1.0)


def euler_partial_sums(x: float, n_terms: int) -> list[float]:
    """Partial sums of the rooted-tree series sum n^(n-1)/n! x^n, which
    converges to the solution w of w e^(-w) = x for x <= 1/e."""
    out = []
    s = 0.0
    for n in range(1, n_terms + 1):
        s += math.exp((n - 1) * math.log(n) - math.lgamma(n + 1) + n * math.log(x))
        out.append(s)
    return out


def virial_objective(w: float) -> float:
    return w * (2.0 * math.exp(-w) - 1.0)


def virial_max_golden() -> tuple[float, float]:
    """Maximise w(2 e^(-w) - 1) on (0, ln 2): dense grid then golden section."""
    return grid_max(virial_objective, np.linspace(1e-12, math.log(2.0) - 1e-12, 20001))


def virial_max_newton() -> tuple[float, float]:
    """Same maximum through the stationarity condition 2 e^(-w) (1 - w) = 1."""
    w = bisect_root(lambda w: 2.0 * math.exp(-w) * (1.0 - w) - 1.0, 1e-9, math.log(2.0))
    return w, virial_objective(w)


def virial_radius(beta: float, Bbar: float, Ctilde: float) -> float:
    """The published lower bound 0.14477 / (Ctilde e^(beta Bbar))."""
    if not Ctilde > 0:  # a NaN too
        raise ValueError("need Ctilde > 0")
    try:
        radius = VIRIAL_NUMERATOR / (Ctilde * math.exp(beta * Bbar))
    except (OverflowError, ZeroDivisionError):  # e^(beta Bbar) past either end of the floats
        radius = math.nan
    if not math.isfinite(radius):
        raise ValueError(f"the virial radius at beta Bbar = {beta * Bbar!r} is not a finite float")
    return radius

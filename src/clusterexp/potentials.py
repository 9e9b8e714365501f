"""Radial pair-potential families and their stability analysis.

Families cover the standard shapes: a pure hard core, a square barrier with a
shallow well, the barrier-11 / well-(-1) step potential whose close-packed
clusters break stability, a power-law core-plus-tail class, the classical
12-6 potential, and user-supplied step tables.  Each family constructor is
the only way to build its spec; ``build_spec`` looks a family up by name, so
spec files and the command line share the constructors' checks and defaults.
The four piecewise-constant families share one step profile,
``PairPotentialSpec.steps``, which every shape query reads; only the two
power-law families are evaluated by formula.

Stability is probed, never proved: ``stability_estimate`` reports a certified
lower bound on B_n together with the witness configuration that achieves it.
The classification routines certify the opposite direction through the
computable envelope bound mu_hat(a) = C_d / a^d (cube packing) and, for thin
negative shells in d = 3, the 12-point kissing bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from inspect import Parameter, signature
from typing import Callable, Iterable, Sequence

import numpy as np

INF = math.inf

DESCENT_SWEEPS = 40  # coordinate-descent sweeps per start of the stability search
KISSING_SHELL_TOL = 0.05  # relative width of a well shell that the kissing bound covers


class DivergentTailError(ValueError):
    """The potential tail is not absolutely integrable in this dimension."""


@dataclass(frozen=True)
class PairPotentialSpec:
    """A radial pair potential: family tag, parameters, space dimension."""

    family: str
    params: tuple[tuple[str, object], ...]
    dimension: int = 3

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")

    @property
    def p(self) -> dict:
        return dict(self.params)

    @cached_property
    def steps(self) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
        """The step profile (radii, values) of a piecewise-constant family:
        V = values[k] on the first bin with r <= radii[k], 0 beyond the last
        radius.  None for the power-law families ``lj_type`` and
        ``lennard_jones``."""
        p = self.p
        if self.family == "hard_core":
            return (p["a"],), (INF,)
        if self.family == "square_well":
            return (p["R"], p["R"] + p["delta"]), (p["A"], -1.0)
        if self.family == "ruelle":
            # the barrier bin [0, R - delta) is open: its last float lies one below R - delta
            return (math.nextafter(p["R"] - p["delta"], 0.0), p["R"] + p["delta"]), (11.0, -1.0)
        if self.family == "step_table":
            return p["radii"], p["values"]
        return None

    def to_text(self) -> str:
        lines = [f"family = {self.family}", f"dimension = {self.dimension}"]
        for k, v in self.params:
            if self.family == "step_table":
                lines.append(f"{k} = {','.join(repr(float(x)) for x in v)}")
            else:
                lines.append(f"{k} = {v!r}")
        return "\n".join(lines)


def spec_from_text(text: str) -> PairPotentialSpec:
    """Parse ``key = value`` lines (``#`` starts a comment) through ``build_spec``;
    step-table radii and values are comma-separated lists."""
    lines = (line.split("#", 1)[0] for line in text.splitlines())
    fields = parse_pairs(line for line in lines if line.strip())
    if "family" not in fields:
        raise ValueError("spec has no 'family' line")
    family = fields.pop("family")
    dimension = int(fields.pop("dimension", "3"))
    if family == "step_table":  # the constructor converts each list entry
        params = {k: v.split(",") for k, v in fields.items()}
    else:
        params = {k: float(v) for k, v in fields.items()}
    return build_spec(family, params, dimension)


def parse_pairs(items: Iterable[str]) -> dict[str, str]:
    """``key = value`` items as stripped strings; an item without a key and
    an ``=`` is refused by name."""
    pairs = {}
    for item in items:
        k, eq, v = item.partition("=")
        if not (k.strip() and eq):
            raise ValueError(f"{item.strip()!r} is not of the form key = value")
        pairs[k.strip()] = v.strip()
    return pairs


def _check_lengths(**lengths: float) -> None:
    """Refuse, by name, each length that is not a positive finite number."""
    for name, value in lengths.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a positive finite length, got {value!r}")


def _check_energies(**energies: float) -> None:
    """Refuse, by name, each energy that is NaN; +inf is a hard core."""
    for name, value in energies.items():
        if math.isnan(value):
            raise ValueError(f"{name} must be a number, got {value!r}")


def hard_core(a: float = 1.0, dimension: int = 3) -> PairPotentialSpec:
    """V = +inf for r <= a, 0 beyond."""
    _check_lengths(a=a)
    return PairPotentialSpec("hard_core", (("a", a),), dimension)


def square_well(A: float = 2.0, R: float = 1.0, delta: float = 0.25,
                dimension: int = 3) -> PairPotentialSpec:
    """V = A on [0, R], -1 on (R, R+delta], 0 beyond."""
    _check_lengths(R=R, delta=delta)
    _check_energies(A=A)
    return PairPotentialSpec("square_well", (("A", A), ("R", R), ("delta", delta)), dimension)


def ruelle(R: float = 1.0, delta: float = 0.5, dimension: int = 3) -> PairPotentialSpec:
    """V = 11 on [0, R-delta), -1 on [R-delta, R+delta], 0 beyond.

    Finite range and bounded, yet unstable: close-packed clusters with
    nearest-neighbour spacing R have more than 11n/2 bonds once n is large.
    """
    _check_lengths(R=R, delta=delta)
    if not delta < R:
        raise ValueError("need 0 < delta < R")
    return PairPotentialSpec("ruelle", (("R", R), ("delta", delta)), dimension)


def lj_type(c1: float = 1.0, c2: float = 1.0, eps: float = 1.0, a: float = 1.0,
            dimension: int = 3) -> PairPotentialSpec:
    """Power-law core and tail: V = c1 r^-(d+eps) for r <= a, -c2 r^-(d+eps) beyond.

    The hardest member of the core/tail class: the core grows like
    xi(r) = c1 r^-(d+eps) with xi(r) r^d -> inf, the tail is integrable.
    """
    if not eps > 0:
        raise ValueError("need eps > 0 for an integrable tail")
    _check_lengths(a=a)
    _check_energies(c1=c1, c2=c2)
    return PairPotentialSpec("lj_type", (("a", a), ("c1", c1), ("c2", c2), ("eps", eps)), dimension)


def lennard_jones(epsilon: float = 1.0, sigma: float = 1.0, dimension: int = 3) -> PairPotentialSpec:
    """Classical 12-6 potential eps*((sigma/r)^12 - 2 (sigma/r)^6), minimum -eps at sigma."""
    _check_lengths(sigma=sigma)
    _check_energies(epsilon=epsilon)
    return PairPotentialSpec("lennard_jones", (("epsilon", epsilon), ("sigma", sigma)), dimension)


def step_table(radii: Sequence[float], values: Sequence[float], dimension: int = 3) -> PairPotentialSpec:
    """Piecewise-constant radial table: V = values[k] on the first bin with
    r <= radii[k]; 0 beyond the last radius.  Radii must be increasing."""
    radii = tuple(float(r) for r in radii)
    values = tuple(float(v) for v in values)
    if len(radii) != len(values) or not radii:
        raise ValueError("radii and values must be equal-length and nonempty")
    _check_lengths(**{f"radii[{k}]": r for k, r in enumerate(radii)})
    _check_energies(**{f"values[{k}]": v for k, v in enumerate(values)})
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    return PairPotentialSpec("step_table", (("radii", radii), ("values", values)), dimension)


def attractive_well(b: float, delta: float, dimension: int = 3) -> PairPotentialSpec:
    """V = -b for r <= delta, 0 beyond: bounded, tempered, unstable for b > 0."""
    return step_table((delta,), (-b,), dimension)


_CONSTRUCTORS = {make.__name__: make for make in
                 (hard_core, square_well, ruelle, lj_type, lennard_jones, step_table)}
FAMILIES = tuple(_CONSTRUCTORS)


def build_spec(family: str, params: dict, dimension: int = 3) -> PairPotentialSpec:
    """The spec of ``family`` from its constructor, called with ``params``;
    unknown families and parameter names are refused by name."""
    if family not in _CONSTRUCTORS:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    return call_checked(_CONSTRUCTORS[family], params, f"family {family}", dimension=dimension)


def call_checked(fn: Callable, params: dict, what: str, **fixed):
    """``fn(**params, **fixed)``, refusing by name each parameter that ``fn``
    does not take (the ``fixed`` ones included) and each required one missing."""
    takes = {k: v for k, v in signature(fn).parameters.items() if k not in fixed}
    problems = ([f"unknown parameter {k!r}" for k in sorted(set(params) - set(takes))]
                + [f"missing parameter {k!r}" for k, v in takes.items()
                   if v.default is Parameter.empty and k not in params])
    if problems:
        raise ValueError(f"{what}: {', '.join(problems)} (it takes {', '.join(takes)})")
    return fn(**params, **fixed)


def potential_eval(spec: PairPotentialSpec, r: float) -> float:
    """Radial value at separation r >= 0; +inf inside a hard core."""
    if r < 0:
        raise ValueError("separation must be nonnegative")
    steps = spec.steps
    if steps is not None:
        for rk, vk in zip(*steps):
            if r <= rk:
                return vk
        return 0.0
    if r == 0.0:
        return INF
    p = spec.p
    if spec.family == "lj_type":
        power = spec.dimension + p["eps"]
        if r <= p["a"]:
            return p["c1"] / r**power
        return -p["c2"] / r**power
    x = (p["sigma"] / r) ** 6
    return p["epsilon"] * (x * x - 2.0 * x)


def is_nonnegative(spec: PairPotentialSpec) -> bool:
    """V >= 0 everywhere: for ``lj_type`` a repulsive core (c1 >= 0) and a
    tail -c2 r^-(d+eps) that is not attractive (c2 <= 0)."""
    steps = spec.steps
    if steps is not None:
        return all(v >= 0 for v in steps[1])
    p = spec.p
    if spec.family == "lj_type":
        return p["c1"] >= 0 and p["c2"] <= 0
    return p["epsilon"] == 0


def _unbounded_below(spec: PairPotentialSpec) -> bool:
    """V -> -inf at the origin: an attractive power-law core (``lj_type``
    with c1 < 0, ``lennard_jones`` with epsilon < 0)."""
    if spec.steps is not None:
        return False
    p = spec.p
    return (p["c1"] if spec.family == "lj_type" else p["epsilon"]) < 0


def length_scale(spec: PairPotentialSpec) -> float:
    if spec.steps is not None:
        return spec.steps[0][-1]
    p = spec.p
    return p["a"] if spec.family == "lj_type" else p["sigma"]


def _breakpoints(spec: PairPotentialSpec) -> list[float]:
    if spec.steps is not None:
        return list(spec.steps[0])
    p = spec.p
    if spec.family == "lj_type":
        return [p["a"]]
    s = p["sigma"]
    return [s * 2 ** (-1 / 6), s, 2 * s]


def _tail(spec: PairPotentialSpec) -> tuple[float, float] | None:
    """(decay power, coefficient) of |V| ~ coeff * r^-power, coeff >= 0, or
    None if the potential vanishes beyond the last breakpoint."""
    if spec.steps is not None:
        return None
    p = spec.p
    if spec.family == "lj_type":
        return (spec.dimension + p["eps"], abs(p["c2"]))
    return (6.0, 2.0 * abs(p["epsilon"]) * p["sigma"] ** 6)


def sphere_surface(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


def configuration_energy(spec: PairPotentialSpec, points: np.ndarray) -> float:
    """Total pair energy sum V(|x_i - x_j|) of a configuration."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            v = potential_eval(spec, float(np.linalg.norm(pts[i] - pts[j])))
            if v == INF:
                return INF
            total += v
    return total


@dataclass
class StabilityReport:
    """Certified lower bound on B_n with the witness that achieves it."""

    n: int
    estimate: float
    witness: np.ndarray | None
    iterations: int
    seed: int
    budget: int

    @property
    def bbar_estimate(self) -> float:
        """The (n-1)-normalised variant n/(n-1) * B_n, never below B_n."""
        return self.n / (self.n - 1) * self.estimate

    def recomputed(self, spec: PairPotentialSpec) -> float:
        if self.witness is None:
            return 0.0
        return -configuration_energy(spec, self.witness) / self.n


def _pair_distances(diff: np.ndarray) -> np.ndarray:
    """|diff| over the last axis, as ``np.linalg.norm`` rounds it: each
    squared length is one BLAS dot, as in the norm of a single vector."""
    return np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])


def _pair_value_function(spec: PairPotentialSpec) -> Callable[[np.ndarray], np.ndarray]:
    """V over an array of separations, value for value equal to ``potential_eval``."""
    steps = spec.steps
    if steps is not None:
        radii = np.asarray(steps[0])
        table = np.asarray(steps[1] + (0.0,))
        return lambda r: table[np.searchsorted(radii, r, side="left")]  # first bin with r <= radii[k]

    def power_law(r: np.ndarray) -> np.ndarray:
        return np.array([potential_eval(spec, x) for x in r.ravel().tolist()]).reshape(r.shape)

    return power_law


def _sequential_totals(rows: np.ndarray) -> np.ndarray:
    """Row sums of pair energies added left to right from 0.0, as
    ``configuration_energy`` adds them (``np.sum`` adds pairwise); a row with
    a +inf pair totals +inf, as that loop returns early."""
    with np.errstate(invalid="ignore"):  # +inf and -inf pairs sum to NaN
        totals = 0.0 + np.cumsum(rows, axis=-1)[..., -1]
    return np.where((rows == INF).any(axis=-1), INF, totals)


def stability_estimate(spec: PairPotentialSpec, n: int, budget: int = 40,
                       seed: int = 0) -> StabilityReport:
    """Lower bound on B_n = sup over configurations of -U/n.

    Multistart random placement in a box of side four length scales followed
    by coordinate descent; never more than a lower bound.  For nonnegative
    potentials the exact value 0 is returned.

    The descent keeps the n(n-1)/2 pair energies in ``configuration_energy``'s
    pair order; a trial move of particle i recomputes the n-1 pairs touching
    i, and the 14 trial steps along one axis are evaluated in one batch.
    Totals round as ``configuration_energy`` does, so the search takes the
    same path as the scalar loop it replaces.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if is_nonnegative(spec):
        return StabilityReport(n, 0.0, None, 0, seed, budget)
    d = spec.dimension
    scale = length_scale(spec)
    side = 4.0 * scale
    children = np.random.SeedSequence(seed).spawn(budget)
    best = -INF
    best_pts = None
    total_iters = 0
    pair_values = _pair_value_function(spec)
    first, second = np.triu_indices(n, 1)  # the pair order of configuration_energy
    touching = [np.flatnonzero((first == i) | (second == i)) for i in range(n)]
    partners = [np.where(first[t] == i, second[t], first[t]) for i, t in enumerate(touching)]

    def pair_energies(pts: np.ndarray) -> np.ndarray:
        return pair_values(_pair_distances(pts[first] - pts[second]))

    steps = [scale * f for f in (0.6, 0.25, 0.1, 0.04, 0.015, 0.005, 0.002)]
    moves = np.array([sgn * step for step in steps for sgn in (+1.0, -1.0)])
    for k in range(budget):
        rng = np.random.default_rng(children[k])
        pts = rng.uniform(0.0, side, size=(n, d))
        energies = pair_energies(pts)
        u = float(_sequential_totals(energies))
        tries = 0
        while u == INF and tries < 50:
            pts = rng.uniform(0.0, side, size=(n, d))
            energies = pair_energies(pts)
            u = float(_sequential_totals(energies))
            tries += 1
        if u == INF:
            continue
        # greedy global contraction toward the centroid; cheap and decisive
        # for collapse-type minima, harmless otherwise
        for f in (0.85, 0.7, 0.55, 0.4, 0.3, 0.2, 0.12, 0.06, 0.03):
            center = pts.mean(axis=0)
            trial = center + (pts - center) * f
            trial_energies = pair_energies(trial)
            ut = float(_sequential_totals(trial_energies))
            if ut < u:
                pts, u, energies = trial, ut, trial_energies
        for sweep in range(DESCENT_SWEEPS):
            improved = False
            for i in range(n):
                touch, others = touching[i], pts[partners[i]]
                for axis in range(d):
                    # the greedy loop over the moves, in order: the first move
                    # that lowers the energy is taken, and the moves after it
                    # start from the new position
                    start = 0
                    while start < len(moves):
                        cands = np.repeat(pts[i][None, :], len(moves) - start, axis=0)
                        cands[:, axis] += moves[start:]
                        rows = np.repeat(energies[None, :], len(cands), axis=0)
                        rows[:, touch] = pair_values(_pair_distances(cands[:, None, :] - others))
                        totals = _sequential_totals(rows)
                        lower = np.flatnonzero(totals < u)
                        if not len(lower):
                            break
                        m = lower[0]
                        pts[i] = cands[m]
                        energies, u = rows[m], float(totals[m])
                        improved = True
                        start += m + 1
            total_iters += 1
            if not improved:
                break
        val = -u / n
        if val > best:
            best, best_pts = val, pts
    best = max(best, 0.0)
    if best == 0.0:
        best_pts = None
    return StabilityReport(n, best, best_pts, total_iters, seed, budget)


# ---------------------------------------------------------------------------
# Close-packed witness and the divergence it drives


@dataclass
class FccWitness:
    points: np.ndarray
    bond_count: int
    n: int
    shells: int


# the 6 nearest-neighbour vectors (1, +-1, 0) and their permutations, one of each +-pair
_FCC_HALF_BONDS = np.array([(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)])


def _fcc_integer_sites(shells: int) -> np.ndarray:
    """The integer triples with an even coordinate sum and i^2 + j^2 + k^2
    <= 2 shells^2: the fcc ball of ``fcc_points`` scaled by sqrt(2)."""
    m = math.isqrt(2 * shells * shells)
    axis = np.arange(-m, m + 1)
    I, J, K = np.meshgrid(axis, axis, axis, indexing="ij")
    sites = np.stack([I.ravel(), J.ravel(), K.ravel()], axis=1)
    sites = sites[(sites.sum(axis=1) % 2) == 0]
    return sites[(sites * sites).sum(axis=1) <= 2 * shells * shells]


def fcc_points(shells: int) -> np.ndarray:
    """Face-centred-cubic sites with nearest-neighbour distance 1 inside a
    ball of radius ``shells``."""
    return _fcc_integer_sites(shells) / math.sqrt(2.0)


def fcc_witness(shells: int) -> FccWitness:
    """Close-packed cluster and its count of distance-1 bonds.

    bond_count / n tends to 6 from below as the ball grows; a cluster with
    bond_count > 11 n / 2 witnesses the instability of the barrier-11 step
    potential.  A bond is an integer difference in +-_FCC_HALF_BONDS between
    two sites of ``_fcc_integer_sites``, so the count is exact.
    """
    if shells < 0:
        raise ValueError("need shells >= 0")
    sites = _fcc_integer_sites(shells)
    base = 2 * math.isqrt(2 * shells * shells) + 3  # digits of a coordinate shifted into [0, base)

    def encode(x: np.ndarray) -> np.ndarray:
        return (x + base // 2) @ np.array([base * base, base, 1])

    keys = encode(sites)
    bonds = sum(int(np.isin(encode(sites + h), keys).sum()) for h in _FCC_HALF_BONDS)
    return FccWitness(sites / math.sqrt(2.0), bonds, len(sites), shells)


def fcc_instability_sweep(max_shells: int = 14) -> tuple[list[FccWitness], FccWitness | None]:
    """Witnesses for shells 1..max_shells and the first with bond_count > 11n/2."""
    records = []
    first = None
    for s in range(1, max_shells + 1):
        w = fcc_witness(s)
        records.append(w)
        if first is None and 2 * w.bond_count > 11 * w.n:
            first = w
    return records, first


def ruelle_certificate(max_shells: int = 14) -> tuple[int, float]:
    """(n, eps) with a close-packed n-cluster holding more than 11n/2 + eps bonds."""
    _, first = fcc_instability_sweep(max_shells)
    if first is None:
        raise RuntimeError(
            f"no instability certificate up to {max_shells} shells: "
            "no cluster with bond_count > 11 n / 2"
        )
    return first.n, first.bond_count - 5.5 * first.n


@dataclass
class RuelleDivergence:
    ratios: list[float]
    log_terms: list[float]
    n: int
    eps: float

    @property
    def last_ratio(self) -> float:
        return self.ratios[-1]


def ruelle_divergence_witness(lam: float, beta: float, n_fixed: int | None = None,
                              s_max: int = 200, eps: float | None = None) -> RuelleDivergence:
    """Consecutive ratios of the divergent minorant of the step-potential
    partition function.

    The s-th term is a_s = [lam V_delta e^(11 beta / 2)]^(s n) / (s n)! times
    e^(beta eps s^2), evaluated in log space; V_delta is the volume of the
    ball of radius delta/2 at delta = 0.5.  With eps > 0 the ratios
    eventually grow without bound; with eps = 0 the factorial wins and they
    decay to zero.

    If ``eps`` (and ``n_fixed``) are omitted they are derived from the
    close-packed sweep to 14 shells; failure to certify raises.
    """
    if eps is None or n_fixed is None:
        n_cert, eps_cert = ruelle_certificate()
        n_fixed = n_cert if n_fixed is None else n_fixed
        eps = eps_cert if eps is None else eps
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if lam <= 0 or beta <= 0 or n_fixed < 1 or s_max < 4:
        raise ValueError("need lam > 0, beta > 0, n >= 1, s_max >= 4 (three ratios)")
    v_delta = sphere_volume(3, 0.25)
    base = math.log(lam * v_delta) + 11.0 * beta / 2.0
    log_terms = []
    for s in range(1, s_max + 1):
        log_terms.append(s * n_fixed * base - math.lgamma(s * n_fixed + 1) + beta * eps * s * s)
    ratios = [math.exp(min(log_terms[k + 1] - log_terms[k], 700.0))
              for k in range(len(log_terms) - 1)]
    return RuelleDivergence(ratios, log_terms, n_fixed, eps)


def sphere_volume(n: int, R: float) -> float:
    """Volume of the n-ball of radius R: pi^(n/2) / Gamma(n/2 + 1) * R^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if R < 0:
        raise ValueError("need R >= 0")
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * R**n


# ---------------------------------------------------------------------------
# Regularity integrals


@dataclass
class RegularityIntegrals:
    c: float        # integral of |e^(-beta V) - 1|
    c_tilde: float  # integral of |e^(-beta |V|) - 1|
    beta: float
    dimension: int


def regularity_integrals(spec: PairPotentialSpec, beta: float,
                         abs_tol: float = 1e-8) -> RegularityIntegrals:
    """The two f-function integrals over R^d, d = ``spec.dimension``, by radial
    adaptive quadrature.

    c_tilde <= c always, with equality exactly for nonnegative potentials.
    c is +inf where V is unbounded below at the origin (e^(-beta V) is not
    integrable there); any other overflow of e^(-beta V) is a ValueError.
    Raises DivergentTailError when the tail is not absolutely integrable.
    """
    d = spec.dimension
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    surf = sphere_surface(d)
    tail = _tail(spec)
    pts = sorted(set(b for b in _breakpoints(spec) if b and b > 0))
    if tail is None:
        segments = [0.0] + pts
        infinite_tail = False
    else:
        power, coeff = tail
        if power <= d:
            raise DivergentTailError(
                f"tail decay r^-{power} is not absolutely integrable in d={d}"
            )
        last = pts[-1] if pts else 1.0
        # cut where the linearised tail contribution drops below target
        r_cut = max(last, (4.0 * beta * coeff * surf / ((power - d) * 1e-12)) ** (1.0 / (power - d)))
        # one quad segment per decade past the last breakpoint: over a single
        # segment of many decades quad misses the tail
        edges = [10.0 * last]
        while 10.0 * edges[-1] < r_cut:
            edges.append(10.0 * edges[-1])
        segments = sorted(set([0.0] + pts + edges + [r_cut]))
        infinite_tail = True

    from scipy.integrate import quad

    def integrate(f) -> float:
        total = 0.0
        for a, b in zip(segments[:-1], segments[1:]):
            val, _ = quad(f, a, b, limit=400, epsabs=abs_tol * 1e-3, epsrel=1e-12)
            total += val
        if infinite_tail:
            val, _ = quad(f, segments[-1], np.inf, limit=400, epsabs=abs_tol * 1e-3)
            total += val
        return total

    def f_c(r: float) -> float:
        v = beta * potential_eval(spec, r)
        base = 1.0 if v == INF else abs(math.expm1(-v))
        return base * r ** (d - 1)

    def f_ct(r: float) -> float:
        v = beta * potential_eval(spec, r)
        base = 1.0 if v == INF else -math.expm1(-abs(v))
        return base * r ** (d - 1)

    if _unbounded_below(spec):
        c = INF
    else:
        try:
            c = surf * integrate(f_c)
        except OverflowError:
            raise ValueError(f"a Boltzmann factor overflows a float in the regularity integrals "
                             f"at beta = {beta!r}") from None
    ct = surf * integrate(f_ct)
    return RegularityIntegrals(c=c, c_tilde=min(ct, c), beta=beta, dimension=d)


# ---------------------------------------------------------------------------
# Basuev-style classification


@dataclass
class BasuevClassification:
    verdict: str  # "strongly_basuev" | "basuev" | "not_basuev"
    a: float
    v_a: float
    mu_hat: float
    c_d: float | None
    kissing_used: bool
    degenerate: bool = False
    note: str = ""

    def sound(self) -> bool:
        """Positive verdicts are certified (mu_hat >= mu); the negative one
        is only advisory."""
        return self.verdict in ("strongly_basuev", "basuev")


def negative_part_envelope_integral(spec: PairPotentialSpec) -> float:
    """Integral over R^d of the monotone decreasing envelope of V^- = max(-V, 0)."""
    d = spec.dimension
    if is_nonnegative(spec):
        return 0.0
    if _unbounded_below(spec):
        return INF  # an attractive power-law core is not integrable at 0
    if spec.steps is not None:
        # envelope on bin k: the greatest depth at radii >= radii[k]
        radii, values = spec.steps
        depth_beyond = [0.0] * (len(radii) + 1)
        for k in range(len(radii) - 1, -1, -1):
            depth_beyond[k] = max(depth_beyond[k + 1], max(-values[k], 0.0))
        env = 0.0
        prev = 0.0
        for k, rk in enumerate(radii):
            env += depth_beyond[k] * (sphere_volume(d, rk) - sphere_volume(d, prev))
            prev = rk
        return env
    surf = sphere_surface(d)
    p = spec.p
    if spec.family == "lj_type":
        a0, c2, eps = p["a"], p["c2"], p["eps"]
        head = c2 / a0 ** (d + eps) * sphere_volume(d, a0)
        return head + surf * c2 * a0**-eps / eps  # the tail integral of c2 r^-(d+eps) r^(d-1)
    from scipy.integrate import quad

    epsv, s = p["epsilon"], p["sigma"]
    head = epsv * sphere_volume(d, s)  # depth is eps, attained at sigma
    tail_int, _ = quad(
        lambda r: abs(min(potential_eval(spec, r), 0.0)) * r ** (d - 1),
        s, np.inf, limit=400,
    )
    return head + surf * tail_int


def basuev_classify(spec: PairPotentialSpec, a: float) -> BasuevClassification:
    """Classify by comparing V(a) with the computable bound mu_hat(a).

    mu_hat(a) = C_d / a^d with C_d = (4d)^(d/2) * integral of the monotone
    envelope of the negative part (cube packing of points at mutual distance
    > a).  For d = 3 wells supported in a thin shell [a, a(1 + KISSING_SHELL_TOL)] the
    12-point kissing bound mu_hat = 12 * depth is used when smaller.
    V(a) >= 2 mu_hat certifies "strongly_basuev", V(a) >= mu_hat certifies
    "basuev"; "not_basuev" is advisory only since mu_hat >= mu.
    """
    if a <= 0:
        raise ValueError("need a > 0")
    d = spec.dimension
    v_a = potential_eval(spec, a)
    # Monotonicity precondition: V(r) >= V(a) on (0, a]
    for r in np.linspace(a * 1e-3, a, 64):
        if potential_eval(spec, float(r)) < v_a - 1e-12:
            raise ValueError(f"V({r}) < V({a}): 'a' is outside the monotone core region")
    if is_nonnegative(spec):
        return BasuevClassification("strongly_basuev", a, v_a, 0.0, None, False,
                                    note="nonnegative potential: mu = 0")
    if v_a == INF:
        return BasuevClassification("strongly_basuev", a, v_a, 0.0, None, False,
                                    degenerate=True, note="hard core at a: trivially satisfied")
    if v_a <= 0:
        raise ValueError("need V(a) > 0 for the classification")
    c_d = (4 * d) ** (d / 2) * negative_part_envelope_integral(spec)
    mu_hat = c_d / a**d
    kissing = False
    if d == 3 and spec.family in ("square_well", "ruelle"):
        inner, outer = _breakpoints(spec)  # the well shell, of depth 1 in both families
        if inner >= a - 1e-12 and outer <= a * (1.0 + KISSING_SHELL_TOL) + 1e-12:
            kiss = 12.0  # at most 12 neighbours touch at distance a
            if kiss < mu_hat:
                mu_hat, kissing = kiss, True
    if v_a >= 2.0 * mu_hat:
        verdict = "strongly_basuev"
    elif v_a >= mu_hat:
        verdict = "basuev"
    else:
        verdict = "not_basuev"
    return BasuevClassification(verdict, a, v_a, mu_hat, c_d, kissing)


def strongly_basuev_core_radius(spec: PairPotentialSpec) -> float:
    """For the power-law family: the radius a* where the core value crosses
    2 mu_hat(a); any a below it classifies strongly_basuev."""
    if spec.family != "lj_type":
        raise ValueError("closed-form core radius is defined for the lj_type family")
    p = spec.p
    if not p["c1"] > 0:
        raise ValueError("the core radius needs a repulsive core, c1 > 0")
    d = spec.dimension
    c_d = (4 * d) ** (d / 2) * negative_part_envelope_integral(spec)
    # c1 a^-(d+eps) = 2 c_d / a^d  =>  a = (c1 / (2 c_d))^(1/eps); no crossing if c_d = 0
    a_star = (p["c1"] / (2.0 * c_d)) ** (1.0 / p["eps"]) if c_d else INF
    return min(a_star, p["a"])


@dataclass
class BasuevSplit:
    v_a: Callable[[float], float]
    k_a: Callable[[float], float]
    a: float
    degenerate: bool


def basuev_decompose(spec: PairPotentialSpec, a: float) -> BasuevSplit:
    """Split V = V_a + K_a: V_a clamps the core to V(a); K_a >= 0 lives on [0, a].

    A hard core at a (V(a) = +inf) is degenerate: the split returns (V, 0)
    with the flag set, avoiding inf - inf.
    """
    if a <= 0:
        raise ValueError("need a > 0")
    va_val = potential_eval(spec, a)
    if va_val == INF:
        return BasuevSplit(lambda r: potential_eval(spec, r), lambda r: 0.0, a, True)

    def v_clamped(r: float) -> float:
        return va_val if r <= a else potential_eval(spec, r)

    def k_core(r: float) -> float:
        if r > a:
            return 0.0
        v = potential_eval(spec, r)
        return v - va_val if v != INF else INF

    return BasuevSplit(v_clamped, k_core, a, False)

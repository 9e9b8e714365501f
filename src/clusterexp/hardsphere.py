"""Hard-sphere overlap integrals and the improved d=2 convergence radius.

The normalised overlap factor g(d, k) is the probability that k points drawn
uniformly in the unit d-ball are pairwise more than unit distance apart.  It
enters the coefficient bound through the degree polynomial

    C_d(mu) = sum over s of g(d, s) mu^s / s!

and the radius bound max over mu of mu / C_d(mu); in the plane the
five-term table pushes the bound coefficient from the classical 1/e = 0.368
up past 0.51.

Monte Carlo estimates use a counter-based generator (Philox), so every
estimate is reproducible bit for bit from (seed, samples).  Each batch
draws standard normals of shape (samples, k, d), then uniforms of shape
(samples, k) for the radii.  The arithmetic runs on contiguous coordinate
planes of shape (d, k, samples) and sums squares coordinate by coordinate,
(x0^2 + x1^2) + x2^2, the order numpy's norm and sum take over a length-d
axis: the stream and every estimate are unchanged from the (samples, k, d)
form of the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import grid_max

MC_BATCH = 1 << 17  # samples drawn per step; the stream, hence the estimate, depends on it

#: Reference values of g(2, s) used by the d=2 radius bound; s = 5 is an
#: upper estimate (the true value is below 1e-4).
G2_REFERENCE = (1.0, 1.0, 3.0 * math.sqrt(3.0) / (4.0 * math.pi), 0.0589, 0.0013, 0.0001)


@dataclass
class OverlapEstimate:
    d: int
    k: int
    estimate: float
    std_error: float
    samples: int
    seed: int
    exact: bool

    def within(self, value: float) -> bool:
        """Whether ``value`` lies within three standard errors of the estimate."""
        slack = max(self.std_error * 3.0, 1e-15)
        return abs(self.estimate - value) <= slack


def gtilde_closed_form(d: int, k: int) -> float | None:
    """Known exact values: k in {0, 1} for any d, and the planar pair overlap
    g(2, 2) = 3 sqrt(3) / (4 pi)."""
    if k in (0, 1):
        return 1.0
    if d == 2 and k == 2:
        return 3.0 * math.sqrt(3.0) / (4.0 * math.pi)
    return None


def _batch_hits(rng: np.random.Generator, n: int, k: int, d: int) -> int:
    """How many of n draws of k points uniform in the unit d-ball are
    pairwise more than unit distance apart."""
    pts = rng.standard_normal((n, k, d)).T.copy()  # coordinate planes, shape (d, k, n)
    radii = rng.random((n, k)).T ** (1.0 / d)
    sq = np.empty((k, n))
    norms = pts[0] * pts[0]
    for c in range(1, d):
        norms += np.multiply(pts[c], pts[c], out=sq)
    np.sqrt(norms, out=norms)
    pts /= norms
    pts *= radii
    ok = np.ones(n, dtype=bool)
    dist, diff, far = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for a in range(k):
        for b in range(a + 1, k):
            np.subtract(pts[0, a], pts[0, b], out=dist)
            dist *= dist
            for c in range(1, d):
                np.subtract(pts[c, a], pts[c, b], out=diff)
                diff *= diff
                dist += diff
            ok &= np.greater(dist, 1.0, out=far)
    return int(np.count_nonzero(ok))


def gtilde(d: int, k: int, samples: int = 1_000_000, seed: int = 0) -> OverlapEstimate:
    """Estimate of g(d, k): acceptance rate of k uniform points in the unit
    d-ball under the pairwise-distance-greater-than-one constraint.

    Closed forms are returned exactly where available (k <= 1; d=2, k=2 only
    through ``gtilde_closed_form``; the Monte Carlo path is kept for it so the
    estimate can be tested against the exact value).
    """
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if k < 0:
        raise ValueError("need k >= 0")
    if samples < 1:
        raise ValueError("need samples >= 1")
    if not 0 <= seed < 1 << 128:  # the Philox key
        raise ValueError(f"need 0 <= seed < 2**128, got seed {seed}")
    if k <= 1:
        return OverlapEstimate(d, k, 1.0, 0.0, 0, seed, exact=True)
    rng = np.random.Generator(np.random.Philox(key=seed))
    hits = 0
    done = 0
    while done < samples:
        n = min(MC_BATCH, samples - done)
        hits += _batch_hits(rng, n, k, d)
        done += n
    p = hits / samples
    se = math.sqrt(max(p * (1.0 - p), 1e-30) / samples)
    return OverlapEstimate(d, k, p, se, samples, seed, exact=False)


def cd_polynomial(mu: float, gtable) -> float:
    """C_d(mu) = sum over s of g(d, s) mu^s / s! for the table g(d, .) of one
    dimension d, a polynomial since the table vanishes beyond the packing
    cutoff."""
    if mu < 0:
        raise ValueError("need mu >= 0")
    total = 0.0
    fact = 1.0
    for s, g in enumerate(gtable):
        if s:
            fact *= s
        total += g * mu**s / fact
    return total


def classical_radius_coefficient() -> float:
    """The plain tree-count bound: coefficient 1/e in units of the sphere volume."""
    return 1.0 / math.e


@dataclass
class ImprovedRadius:
    mu_star: float
    coefficient: float       # max of mu / C_2(mu), in units of 1/S_d(a)
    classical: float         # 1/e
    gtable: tuple[float, ...]

    @property
    def gain(self) -> float:
        return self.coefficient / self.classical


def improved_radius(gtable=None) -> ImprovedRadius:
    """Maximise mu / C_2(mu) by golden section after a coarse grid pass."""
    gtable = G2_REFERENCE if gtable is None else tuple(gtable)
    m, value = grid_max(lambda m: m / cd_polynomial(m, gtable), np.linspace(1e-6, 10.0, 4001))
    return ImprovedRadius(m, value, classical_radius_coefficient(), gtable)


def reference_mu_trial() -> float:
    """The near-optimal closed-form trial value sqrt(8 pi / (3 sqrt 3)) = sqrt(2/g(2,2))."""
    return math.sqrt(8.0 * math.pi / (3.0 * math.sqrt(3.0)))

"""Numerics the models share: exact truncated power series, bisection, golden section.
A leaf: it imports no other ``clusterexp`` module, so importing it loads no model."""

from __future__ import annotations

import math
from operator import add
from typing import Callable, Sequence


class Series(tuple):
    """Power series c_0 + c_1 t + ... + c_N t^N truncated at order N, exact over
    ints (kept ints by ``+``, ``c *`` and ``/``) or Fractions.  ``c * s`` for a number
    c is the monomial c t times s, truncated; ``s / t`` needs t[0] = 1, ``log`` s[0] = 1."""

    def __add__(self, other: "Series") -> "Series":
        return Series(map(add, self, other))

    def __rmul__(self, c) -> "Series":
        return Series((0, *(self[:-1] if c == 1 else [c * a for a in self[:-1]])))

    def __truediv__(self, other: "Series") -> "Series":
        q: list = []
        for n, a in enumerate(self):
            q.append(a - sum(other[j] * q[n - j] for j in range(1, n + 1)))
        return Series(q)

    def log(self) -> "Series":
        """h_0..h_N of log(s), by k h_k = k s_k - sum_(j<k) j h_j s_(k-j)."""
        from fractions import Fraction  # here, so users of bisect_root alone load no decimal
        h = [Fraction(0)] * len(self)
        for k in range(1, len(self)):
            h[k] = (k * self[k] - sum(j * h[j] * self[k - j] for j in range(1, k))) / Fraction(k)
        return Series(h)


def grid_max(f: Callable[[float], float], grid: Sequence[float]) -> tuple[float, float]:
    """(x, f(x)) at the maximum of f: the best point of ``grid`` (the first on
    ties) and its two neighbours bracket it, and golden-section search shrinks
    the bracket [a, b] until b - a <= 1e-12 * max(1, a); x is its midpoint."""
    vals = [f(x) for x in grid]
    k = max(range(len(vals)), key=vals.__getitem__)
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12 * max(1.0, a):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of f in [lo, hi] by bisection, which needs f(lo) and f(hi) of
    opposite signs (or one of them zero); it halves the bracket until the
    midpoint equals an endpoint, so the result is within one float of a sign
    change of f."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"f({lo!r}) and f({hi!r}) have the same sign")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid

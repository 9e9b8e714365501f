#!/usr/bin/env python3
"""Packing probabilities and the improved planar radius.

For free hard spheres the tree-graph machinery reduces every coefficient
bound to a handful of geometric numbers: the probability that k points in a
unit ball stay pairwise farther than one apart.  In the plane those numbers
die out at k = 6 and the convergence-radius coefficient rises from the
classical 1/e to above 0.51.
"""

from clusterexp import hardsphere as H
from clusterexp.potentials import sphere_volume

print("=" * 72)
print("1. Overlap factors g(2, k): exact where possible, Monte Carlo beyond")
print("=" * 72)
cf = H.gtilde_closed_form(2, 2)
print(f"  g(2,0) = g(2,1) = 1 exactly")
print(f"  g(2,2) = 3 sqrt(3)/(4 pi) = {cf:.9f}")
for k in (2, 3, 4, 5):
    est = H.gtilde(2, k, samples=1_000_000, seed=11)
    note = f"   (closed form {cf:.6f})" if k == 2 else ""
    print(f"  g(2,{k}) ~ {est.estimate:.6f} +- {est.std_error:.6f}{note}")
probe = H.gtilde(2, 6, samples=2_000_000, seed=11)
print(f"  g(2,6) probe: {probe.estimate} (six pairwise-far points never fit)")

print()
print("=" * 72)
print("2. The degree polynomial and the radius coefficient")
print("=" * 72)
print(f"  reference table: {tuple(round(g, 6) for g in H.G2_REFERENCE)}")
r = H.improved_radius()
mu0 = H.reference_mu_trial()
print(f"  closed-form trial mu = sqrt(8 pi/(3 sqrt 3)) = {mu0:.6f}"
      f" gives {mu0 / H.cd_polynomial(mu0, H.G2_REFERENCE):.6f}")
print(f"  optimised:   mu* = {r.mu_star:.6f} gives {r.coefficient:.6f}")
print(f"  classical:   1/e = {r.classical:.6f}")
print(f"  gain: {r.gain:.3f}x")

print()
print("=" * 72)
print("3. Reproducibility: counter-based streams")
print("=" * 72)
a = H.gtilde(2, 3, samples=300_000, seed=123)
b = H.gtilde(2, 3, samples=300_000, seed=123)
print(f"  same (seed, samples) twice: {a.estimate} == {b.estimate}: {a.estimate == b.estimate}")

print()
print("=" * 72)
print("4. Ball volumes, the only continuum input the bounds need")
print("=" * 72)
for n in (1, 2, 3, 4, 5):
    print(f"  V_{n}(1) = {sphere_volume(n, 1.0):.9f}")

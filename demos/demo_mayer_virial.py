#!/usr/bin/env python3
"""Coefficients on a lattice, the bounds that tame them, and the virial radius.

On a finite set of sites the pressure coefficients are exact rational
numbers, so identities can be checked with no tolerance at all.  The same
coefficients obey three closed-form bounds; their growth rates set the
convergence radii, and Lagrange inversion turns the activity radius into a
density (virial) radius through the function w e^(-w).
"""

from clusterexp import mayer as M
from clusterexp import potentials as P

print("=" * 72)
print("1. On-site exclusion: the per-site pressure is log(1 + activity)")
print("=" * 72)
vol = M.DiscreteVolume.path(6, spacing=10.0)
recs = M.mayer_coefficients(vol, P.hard_core(0.5), beta=1.0, n_max=5)
for r in recs:
    print(f"  C_{r.n} = {r.value}   (series of log(1+x): {'+' if r.n % 2 else '-'}1/{r.n})")

print()
print("=" * 72)
print("2. Nearest-neighbour exclusion on a 4-site path")
print("=" * 72)
vol = M.DiscreteVolume.path(4)
recs = M.mayer_coefficients(vol, P.hard_core(1.0), beta=1.0, n_max=4)
print("  independence polynomial is 1 + 4x + 3x^2, so C_2 = (3 - 8)/4 = -5/4")
for r in recs:
    ok = "|C| <= bound" if r.within_bounds() else "VIOLATION"
    print(f"  C_{r.n} = {str(r.value):>10}   tree-graph bound {float(r.bound_py or 0):.4f}  {ok}")

print()
print("=" * 72)
print("3. The coefficient recursion and its closed form")
print("=" * 72)
beta, B, C = 1.0, 0.5, 0.3
table = M.ks_recursion(40, beta, B, C)
worst = max(abs(v - M.ks_closed_form(n, l, beta, B, C)) / M.ks_closed_form(n, l, beta, B, C)
            for (n, l), v in table.items())
print(f"  {len(table)} entries to total order 40: worst relative gap {worst:.2e}")
print(f"  K(1,0) = {table[(1, 0)]}, K(2,0) = e^(2 beta B) = {table[(2, 0)]:.6f}")

print()
print("=" * 72)
print("4. Radii: the tree-graph route beats the double-stability route")
print("=" * 72)
ri = P.regularity_integrals(P.lennard_jones(), beta=1.0)
rb = M.radius_bounds(1.0, 8.61, ri.c, ri.c_tilde)
print(f"  12-6 potential at beta=1, B=8.61: R_PR = {rb.r_pr:.3e}, R* = {rb.r_star:.3e}")
print(f"  improvement ratio e^(beta B) C/C~ = {rb.ratio:.4g}")

print()
print("=" * 72)
print("5. The virial radius through w e^(-w)")
print("=" * 72)
wg, vg = M.virial_max_golden()
wn, vn = M.virial_max_newton()
print(f"  max over (0, ln 2) of w(2e^-w - 1): {vg:.10f} (golden) vs {vn:.10f} (stationarity)")
print(f"  virial radius with C~=0.3, Bbar=0.5: {M.virial_radius(1.0, 0.5, 0.3):.6f}")
for x in (0.1, 0.3):
    w, partials = M.solve_w(x), M.euler_partial_sums(x, 70)
    print(f"  rooted-tree series at x={x}: 70-term partial sum {partials[-1]:.12f} -> w = {w:.12f}")

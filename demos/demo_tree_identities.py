#!/usr/bin/env python3
"""Three roads to the same number.

The connected-graph sum that sits inside every cluster expansion can be
evaluated by brute force over all connected graphs, by a signed sum over set
partitions, or by a sum over trees weighted through a partition scheme.  This
script computes all three on random interaction matrices and watches them
agree -- to double precision for generic values, bit for bit when every value
is 0 or +inf.
"""

import random

from clusterexp import graphs as G
from clusterexp import ursell as U

rng = random.Random(0)

print("=" * 72)
print("Random matrices, n = 5: graph sum vs partition sum vs tree identities")
print("=" * 72)
for trial in range(5):
    vals = {}
    for p in G.vertex_pairs(5):
        r = rng.random()
        vals[p] = U.INF if r < 0.25 else rng.uniform(-1.5, 3.0)
    V = U.InteractionMatrix(5, vals)
    a = U.ursell_graph_sum(V)
    b = U.ursell_partition_formula(V)
    c = U.ursell_tree_identity(V, "penrose")
    d = U.ursell_tree_identity(V, "kruskal")
    spread = max(abs(a - b), abs(a - c), abs(a - d)) / max(abs(a), 1e-30)
    print(f"  trial {trial}: graph sum = {a:+.12e}   relative spread {spread:.2e}")

print()
print("Hard-core matrices are exact: the identity becomes a tree count.")
inc = [[False] * 5 for _ in range(5)]
for i, j in G.vertex_pairs(5):
    inc[i][j] = inc[j][i] = rng.random() < 0.6
V = U.InteractionMatrix(5, {(i, j): (U.INF if inc[i][j] else 0.0) for i, j in G.vertex_pairs(5)})
phi = U.ursell_graph_sum(V)
families = U.tree_family_counts(inc, 5)
print(f"  graph sum            = {phi}")
print(f"  depth-rule tree count = {families['penrose']}  (equals |graph sum|)")
print(f"  nested families: {families['penrose']} <= {families['weak']}"
      f" <= {families['dobrushin']} <= {families['kp']}")

print()
print("Why trees suffice: both closures are partition schemes.")
for n in (3, 4, 5):
    rep = G.verify_partition_scheme(n, G.penrose_added(n))
    w = {p: rng.random() for p in G.vertex_pairs(n)}
    rep2 = G.verify_partition_scheme(n, G.kruskal_added(G.EdgeOrder.from_weights(n, w)))
    print(f"  n={n}: depth-rule intervals partition G_n: {bool(rep)};"
          f" spanning-tree intervals: {bool(rep2)} ({rep.interval_count} graphs)")

print()
print("The alternating sum over connected graphs collapses to the linear trees:")
for n in (2, 3, 4, 5, 6):
    print(f"  n={n}: sum (-1)^edges over connected graphs = {G.alternating_connected_sum(n):+d}"
          f"  [(n-1)! = {1 if n == 1 else __import__('math').factorial(n - 1)}]")

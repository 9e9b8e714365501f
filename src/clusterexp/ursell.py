"""Ursell coefficients of a finite interaction matrix, three independent ways.

Given symmetric values V_ij in R union {+inf} on the pairs of [n], the
coefficient is

    Phi(V) = sum over connected graphs g of prod over edges (e^(-V_ij) - 1)

with the conventions e^(-inf) = 0 and e^(-inf) - 1 = -1.  The same number is
produced by a signed sum over set partitions and by a sum over trees weighted
through any partition scheme; agreement of the three routes is the main
correctness check of this package.

Matrices whose values are all 0 or +inf ("hard core") are evaluated in exact
integer arithmetic, so the identities can be checked bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Sequence

import numpy as np

from .graphs import (
    GRAPH_CAP,
    MASK_CHUNK,
    EdgeOrder,
    connected_masks,
    enumerate_trees,
    kruskal_closure,
    mask_bits,
    num_pairs,
    pair_index,
    pair_index_map,
    penrose_closure,
    vertex_pairs,
)

INF = math.inf

PARTITION_CAP = 10  # Bell(10) = 115975 partitions
NEIGHBOR_CAP = 25


class StabilityCertificateError(ValueError):
    """The supplied per-vertex constants fail the subset-energy inequality."""


class InteractionMatrix:
    """Symmetric pair values V_ij in R union {+inf}, diagonal absent."""

    __slots__ = ("n", "_values")

    def __init__(self, n: int, values):
        """``values`` is a mapping from pairs (i, j) with i < j, or a flat
        sequence over the lexicographic pair order; missing pairs default 0."""
        self.n = n
        m = num_pairs(n)
        if isinstance(values, dict):
            vals = [0.0] * m
            for (i, j), v in values.items():
                if i == j:
                    raise ValueError("diagonal entries are not part of the matrix")
                vals[pair_index(n, i, j)] = v
        else:
            vals = list(values)
            if len(vals) != m:
                raise ValueError(f"expected {m} pair values, got {len(vals)}")
        for v in vals:
            if v != v:
                raise ValueError("NaN is not a valid interaction value")
        self._values = tuple(vals)

    @classmethod
    def from_function(cls, n: int, f: Callable[[int, int], float]) -> "InteractionMatrix":
        return cls(n, [f(i, j) for i, j in vertex_pairs(n)])

    def value(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("diagonal entries are not part of the matrix")
        return self._values[pair_index(self.n, i, j)]

    @property
    def pair_values(self) -> tuple[float, ...]:
        return self._values

    @property
    def is_hard_core(self) -> bool:
        """All values 0 or +inf, so e^(-V) is exactly 0 or 1."""
        return all(v == 0 or v == INF for v in self._values)

    def mayer_weights(self) -> list:
        """e^(-V_ij) - 1 per pair; exact ints -1/0 in the hard-core case."""
        if self.is_hard_core:
            return [-1 if v == INF else 0 for v in self._values]
        return [math.expm1(-v) if v != INF else -1.0 for v in self._values]

    def subset_energy(self, subset_mask: int) -> float:
        """Sum of V_ij over the pairs inside the vertex subset."""
        total = 0.0
        verts = mask_bits(subset_mask)
        for a in range(len(verts)):
            for b in range(a + 1, len(verts)):
                v = self.value(verts[a], verts[b])
                if v == INF:
                    return INF
                total += v
        return total

    def to_text(self) -> str:
        lines = [str(self.n)]
        for (i, j), v in zip(vertex_pairs(self.n), self._values):
            lines.append(f"{i} {j} {'inf' if v == INF else repr(v)}")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "InteractionMatrix":
        """Parse the "n; i j v" triplet form; "inf" is accepted for +inf."""
        tokens = text.replace(";", "\n").split("\n")
        tokens = [t.strip() for t in tokens if t.strip()]
        n = int(tokens[0])
        values = {}
        for line in tokens[1:]:
            i_s, j_s, v_s = line.split()
            v = INF if v_s.lower() in ("inf", "+inf", "infinity") else float(v_s)
            values[(int(i_s), int(j_s))] = v
        return cls(n, values)

    def __repr__(self):
        return f"InteractionMatrix(n={self.n})"


def ursell_graph_sum(V: InteractionMatrix, cap: int = GRAPH_CAP):
    """Brute-force route: sum over all connected graphs on [n].

    The edge product of every mask is tabulated by doubling over the pairs
    and gathered at the connected masks.  Returns 1 for n = 1.  Hard-core
    matrices give an exact int; others the exactly rounded float sum.
    """
    masks = connected_masks(V.n, cap)
    hard = V.is_hard_core
    w = V.mayer_weights()
    prods = np.empty(1 << len(w), dtype=np.int8 if hard else np.float64)
    prods[0] = 1
    for k, wk in enumerate(w):
        np.multiply(prods[:1 << k], wk, out=prods[1 << k:2 << k])
    chunks = (prods[masks[lo:lo + MASK_CHUNK]] for lo in range(0, len(masks), MASK_CHUNK))
    if hard:
        return sum(int(c.sum(dtype=np.int64)) for c in chunks)
    return math.fsum(chain.from_iterable(c.tolist() for c in chunks))


def _gibbs_subsets(V: InteractionMatrix):
    """e^(-U(S)) for every vertex subset S, where U sums V_ij inside S."""
    n = V.n
    pidx = pair_index_map(n)
    hard = V.is_hard_core
    gibbs_pair = [(0 if v == INF else 1) if hard else (0.0 if v == INF else math.exp(-v))
                  for v in V.pair_values]
    out = [None] * (1 << n)
    out[0] = 1 if hard else 1.0
    for mask in range(1, 1 << n):
        low = mask & -mask
        t = low.bit_length() - 1
        rest = mask ^ low
        acc = out[rest]
        r = rest
        while r and acc:
            lo = r & -r
            j = lo.bit_length() - 1
            acc = acc * gibbs_pair[pidx[(t, j)]]
            r ^= lo
        out[mask] = acc if rest else (1 if hard else 1.0)
    return out


def ursell_partition_formula(V: InteractionMatrix, cap: int = PARTITION_CAP):
    """Partition route: signed sum over set partitions of [n].

    Phi = sum over k of (-1)^(k-1) (k-1)! sum over partitions into k blocks
    of the product of the blocks' Gibbs factors e^(-U(block)).
    """
    n = V.n
    if n > cap:
        raise ValueError(f"partition formula refused for n={n}: cap is {cap} (Bell growth)")
    if n == 1:
        return 1
    gibbs = _gibbs_subsets(V)
    hard = V.is_hard_core
    total = 0 if hard else 0.0
    sign_fact = [0] * (n + 1)
    for k in range(1, n + 1):
        sign_fact[k] = (-1) ** (k - 1) * math.factorial(k - 1)

    full = (1 << n) - 1

    def rec(remaining: int, k: int, prod):
        nonlocal total
        if not remaining:
            total += sign_fact[k] * prod
            return
        low = remaining & -remaining
        rest = remaining ^ low
        # iterate blocks containing the lowest remaining vertex;
        # a vanished Gibbs factor kills every refinement below it
        sub = rest
        while True:
            block = low | sub
            p = prod * gibbs[block]
            if p:
                rec(remaining ^ block, k + 1, p)
            if sub == 0:
                break
            sub = (sub - 1) & rest

    rec(full, 0, 1 if hard else 1.0)
    return total


@lru_cache(maxsize=None)
def _penrose_tree_table(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Per tree on [n]: (tree mask, closure-minus-tree mask, tree pair indices)."""
    table = []
    for tree in enumerate_trees(n):
        closed = penrose_closure(tree)
        tree_pairs = mask_bits(tree.mask)
        table.append((tree.mask, closed.mask ^ tree.mask, tree_pairs))
    return tuple(table)


def ursell_tree_identity(V: InteractionMatrix, scheme="penrose"):
    """Tree route: sum over trees weighted through a partition scheme.

    ``scheme`` is "penrose" (depth-rule closure), "kruskal" (closure under the
    edge order built from the matrix values with lexicographic tie-break), or
    a callable mapping a RootedTree to its closure graph.
    """
    n = V.n
    if n == 1:
        return 1
    w = V.mayer_weights()
    vals = V.pair_values
    hard = V.is_hard_core
    total = 0 if hard else 0.0

    if scheme == "penrose":
        for tree_mask, extra_mask, tree_pairs in _penrose_tree_table(n):
            total += _tree_term(vals, w, tree_pairs, extra_mask, hard)
        return total

    if scheme == "kruskal":
        order = EdgeOrder.from_weights(n, lambda i, j: V.value(i, j))
        closure = lambda t: kruskal_closure(t, order)
    elif callable(scheme):
        closure = scheme
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    for tree in enumerate_trees(n):
        closed = closure(tree)
        extra_mask = closed.mask ^ tree.mask
        total += _tree_term(vals, w, mask_bits(tree.mask), extra_mask, hard)
    return total


def _tree_term(vals, w, tree_pairs, extra_mask, hard: bool):
    prod = 1 if hard else 1.0
    for k in tree_pairs:
        prod *= w[k]
        if not prod:
            return prod
    exponent = 0.0
    m = extra_mask
    while m:
        low = m & -m
        v = vals[low.bit_length() - 1]
        if v == INF:
            return 0 if hard else 0.0
        exponent += v
        m ^= low
    if hard:
        return prod  # all extra values are 0 here
    return prod * math.exp(-exponent)


def check_stability_vector(V: InteractionMatrix, B: Sequence[float], tol: float = 1e-12) -> None:
    """Brute-force subset check of sum of V_ij over pairs in S >= -sum B_i in S."""
    n = V.n
    if len(B) != n:
        raise ValueError(f"need {n} per-vertex constants, got {len(B)}")
    if any(b < 0 for b in B):
        raise ValueError("stability constants must be nonnegative")
    for mask in range(1 << n):
        if mask.bit_count() < 2:
            continue
        u = V.subset_energy(mask)
        if u == INF:
            continue
        bound = -sum(B[v] for v in mask_bits(mask))
        if u < bound - tol:
            raise StabilityCertificateError(
                f"subset {sorted(mask_bits(mask))} has energy {u} < {bound}"
            )


def tree_graph_bound(V: InteractionMatrix, B: Sequence[float]) -> float:
    """Stability-aware tree bound dominating |Phi(V)|.

    Requires the certificate sum_{pairs in S} V_ij >= -sum_{i in S} B_i for
    every subset S (checked by brute force); returns
    e^(sum B_i) * sum over trees of prod over tree edges (1 - e^(-|V_ij|)).
    """
    check_stability_vector(V, B)
    n = V.n
    vals = V.pair_values
    factors = [1.0 if v == INF else -math.expm1(-abs(v)) for v in vals]
    total = 0.0
    for tree in enumerate_trees(n):
        prod = 1.0
        for k in mask_bits(tree.mask):
            prod *= factors[k]
            if prod == 0.0:
                break
        total += prod
    return math.exp(math.fsum(B)) * total


# ---------------------------------------------------------------------------
# Tree families for hard-core systems


def _iter_incompatible(relation, a: int, b: int) -> bool:
    if callable(relation):
        return bool(relation(a, b))
    return bool(relation[a][b])


def tree_family_counts(incompatible, n_vertices: int, root: int = 0) -> dict[str, int]:
    """Count the nested tree families of a hard-core system on {0..n_vertices-1}.

    ``incompatible`` is a symmetric boolean matrix or callable over vertex
    indices (reflexive entries allowed).  All trees are rooted at ``root``
    (internally relabelled to 0).  Families, from smallest to largest:

    - "penrose": tree edges incompatible; same-generation pairs compatible;
      pairs with depth(j) = depth(i) - 1 and j > parent(i) compatible.
    - "weak": tree edges incompatible; siblings compatible.
    - "dobrushin": tree edges incompatible; siblings carry distinct objects
      (always true here since vertices are distinct polymers).
    - "kp": tree edges incompatible.
    """
    n = n_vertices

    def relabel(v: int) -> int:
        if v == 0:
            return root
        if v == root:
            return 0
        return v

    def inc(a: int, b: int) -> bool:
        return _iter_incompatible(incompatible, relabel(a), relabel(b))

    pairs = vertex_pairs(n)
    counts = {"penrose": 0, "weak": 0, "dobrushin": 0, "kp": 0}
    for tree in enumerate_trees(n):
        ok_edges = all(inc(i, j) for i, j in tree.edges)
        if not ok_edges:
            continue
        counts["kp"] += 1
        counts["dobrushin"] += 1  # distinct vertices are distinct polymers
        counts["weak"] += not any(inc(i, j) for kids in tree.children
                                  for i, j in combinations(kids, 2))
        added = penrose_closure(tree).mask ^ tree.mask
        counts["penrose"] += not any(inc(*pairs[k]) for k in mask_bits(added))
    return counts


def hardcore_penrose_count(incompatible, n_vertices: int, root: int = 0) -> int:
    """Number of depth-rule trees certifying |Phi| for a pure hard-core system.

    Counts trees rooted at ``root`` whose edges join incompatible pairs and
    whose closure-added pairs are compatible; equals |Phi(V)| for the matrix
    with V_ij = +inf on incompatible pairs and 0 elsewhere.
    """
    return tree_family_counts(incompatible, n_vertices, root)["penrose"]


def penrose_exponent_minimum(V: InteractionMatrix) -> float:
    """Smallest closure-exponent sum over all depth-rule trees.

    Search harness for the open question whether the depth-rule closure
    admits a stability bound: returns min over trees of
    sum of V_ij over closure-minus-tree pairs (ignoring +inf, which only
    helps).  Nothing is asserted about boundedness; callers can watch the
    minimum as n grows.
    """
    n = V.n
    vals = V.pair_values
    best = INF
    for _, extra_mask, _ in _penrose_tree_table(n):
        s = 0.0
        for k in mask_bits(extra_mask):
            if vals[k] != INF:
                s += vals[k]
        best = min(best, s)
    return best

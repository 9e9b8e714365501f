"""Scalar reference implementations that the fast routes are checked against.

Each oracle is naive on purpose: one graph, tree or spin configuration at a
time, by the textbook method.  It may use the value types, constants and
lattice helpers of ``graphs`` and ``ising`` but no fast-route table, so that
a bug in a table cannot cancel out against the same bug in its check.  Only
the tests import this module.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import (GRAPH_CAP, MASK_CHUNK, CapExceededError, EdgeOrder, LabeledGraph, mask_bits,
                     num_pairs, vertex_pairs)
from .ising import _bins, _outside_bit, boundary_multiplicity, internal_bonds

BRUTE_CAP = 5   # the oracle sweep visits 2^(L^2) configurations


def _adjacency_bitsets(n: int, mask: int) -> list[int]:
    adj = [0] * n
    ps = vertex_pairs(n)
    for k in mask_bits(mask):
        i, j = ps[k]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _mask_connected(n: int, mask: int) -> bool:
    if n <= 1:
        return True
    if mask.bit_count() < n - 1:
        return False
    adj = _adjacency_bitsets(n, mask)
    seen = 1
    frontier = 1
    full = (1 << n) - 1
    while frontier:
        nxt = 0
        for v in mask_bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
        if seen == full:
            return True
    return False


def is_connected(g: LabeledGraph) -> bool:
    """Single connected component spanning all n vertices."""
    return _mask_connected(g.n, g.mask)


def enumerate_graphs(n: int) -> Iterator[LabeledGraph]:
    """All 2^(n(n-1)/2) graphs on [n], each once, in bitmask order."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > GRAPH_CAP:
        raise CapExceededError(f"graph enumeration refused for n={n}: cap is {GRAPH_CAP}")
    for mask in range(1 << num_pairs(n)):
        yield LabeledGraph(n, mask)


class RootedTree:
    """Tree on [n] rooted at 0, with parent/depth/children derived maps."""

    __slots__ = ("n", "mask", "parent", "depth", "children")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | None = None, mask: int | None = None):
        self.n = n
        if mask is None:
            mask = LabeledGraph.from_edges(n, edges or []).mask
        self.mask = mask
        if mask.bit_count() != n - 1:
            raise ValueError(f"a tree on [{n}] must have exactly {n - 1} edges")
        adj = _adjacency_bitsets(n, mask)
        parent = [-1] * n
        depth = [-1] * n
        depth[0] = 0
        order = [0]
        seen = 1
        for v in order:
            nbrs = adj[v] & ~seen
            seen |= nbrs
            for w in mask_bits(nbrs):
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
        if len(order) != n:
            raise ValueError("edge set is not connected, hence not a tree")
        self.parent = tuple(parent)
        self.depth = tuple(depth)
        kids: list[list[int]] = [[] for _ in range(n)]
        for v in range(1, n):
            kids[parent[v]].append(v)
        self.children = tuple(tuple(k) for k in kids)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return LabeledGraph(self.n, self.mask).edges

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg)

    def as_graph(self) -> LabeledGraph:
        return LabeledGraph(self.n, self.mask)

    def path_pairs(self, i: int, j: int) -> list[tuple[int, int]]:
        """Edges of the unique tree path between i and j."""
        pi, pj = [], []
        di, dj = self.depth[i], self.depth[j]
        while di > dj:
            pi.append((i, self.parent[i]))
            i = self.parent[i]
            di -= 1
        while dj > di:
            pj.append((j, self.parent[j]))
            j = self.parent[j]
            dj -= 1
        while i != j:
            pi.append((i, self.parent[i]))
            pj.append((j, self.parent[j]))
            i, j = self.parent[i], self.parent[j]
        return pi + pj[::-1]


def prufer_to_tree(n: int, seq: Sequence[int]) -> RootedTree:
    """Decode a Pruefer sequence over [n]^(n-2) into the corresponding tree.

    Linear-time decode: repeatedly attach the smallest remaining leaf to the
    next sequence value.
    """
    if n == 1:
        return RootedTree(1, mask=0)
    if len(seq) != n - 2:
        raise ValueError(f"sequence length must be n-2 = {n - 2}")
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
        # a vertex the scan already passed must be reused at once
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    u, w = (v for v in range(n) if degree[v] == 1)
    edges.append((min(u, w), max(u, w)))
    return RootedTree(n, edges)


@lru_cache(maxsize=None)
def prufer_trees(n: int) -> tuple[RootedTree, ...]:
    """Every tree on [n] by ``prufer_to_tree`` over the Pruefer sequences in
    lexicographic order: the rows of ``graphs.tree_table(n)``, one at a time."""
    return tuple(prufer_to_tree(n, seq) for seq in product(range(n), repeat=max(n - 2, 0)))


def tree_count_by_degrees(degrees: Sequence[int]) -> int:
    """Number of labelled trees with the given degree sequence.

    Exact arbitrary-precision value (n-2)! / prod (d_i - 1)!.
    """
    n = len(degrees)
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if any(d < 1 for d in degrees):
        raise ValueError("every degree must be >= 1")
    if sum(degrees) != 2 * n - 2:
        raise ValueError(f"degree sum must be 2n-2 = {2 * n - 2}, got {sum(degrees)}")
    denom = 1
    for d in degrees:
        denom *= math.factorial(d - 1)
    return math.factorial(n - 2) // denom


def penrose_closure(tree: RootedTree) -> LabeledGraph:
    """Depth-rule closure of a rooted tree: add every pair {i,j} with equal
    depths, or with depth(j) = depth(i) - 1 and j greater than i's parent."""
    n = tree.n
    depth = tree.depth
    parent = tree.parent
    mask = tree.mask
    for k, (i, j) in enumerate(vertex_pairs(n)):
        bit = 1 << k
        if mask & bit:
            continue
        di, dj = depth[i], depth[j]
        if di == dj:
            mask |= bit
        elif di == dj + 1 and j > parent[i]:
            mask |= bit
        elif dj == di + 1 and i > parent[j]:
            mask |= bit
    return LabeledGraph(n, mask)


def kruskal_tree(g: LabeledGraph, order: EdgeOrder) -> RootedTree:
    """Minimum spanning tree of a connected graph under the total edge order,
    built greedily: always take the lowest edge not creating a cycle."""
    n = g.n
    edges = sorted(g.edges, key=lambda e: order.rank(*e))
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append((i, j))
            if len(chosen) == n - 1:
                break
    if len(chosen) != n - 1:
        raise ValueError("graph is disconnected: no spanning tree exists")
    return RootedTree(n, chosen)


def kruskal_closure(tree: RootedTree, order: EdgeOrder) -> LabeledGraph:
    """Closure of a tree under the order: the tree plus every pair strictly
    above all edges of the tree path joining its endpoints."""
    n = tree.n
    mask = tree.mask
    for k, (i, j) in enumerate(vertex_pairs(n)):
        bit = 1 << k
        if mask & bit:
            continue
        r = order.rank(i, j)
        if all(r > order.rank(*e) for e in tree.path_pairs(i, j)):
            mask |= bit
    return LabeledGraph(n, mask)


# ---------------------------------------------------------------------------
# Ising: the sweep over all 2^(L^2) configurations


def _config_chunks(L: int):
    total = 1 << (L * L)
    for lo in range(0, total, MASK_CHUNK):
        yield np.arange(lo, min(lo + MASK_CHUNK, total), dtype=np.uint64)


def _opposite_bond_counts(configs: np.ndarray, L: int, boundary: str) -> np.ndarray:
    """Per configuration: the number of opposite-spin nearest-neighbour pairs,
    counting the 4L boundary pairs against fixed outside spins for +/-."""
    outside = _outside_bit(boundary)
    opp = np.zeros(configs.shape, dtype=np.int64)
    for i, j in internal_bonds(L):
        opp += ((configs >> np.uint64(i)) ^ (configs >> np.uint64(j))).astype(np.int64) & 1
    if outside is not None:
        for x, k in enumerate(boundary_multiplicity(L)):
            if k:
                bit = (configs >> np.uint64(x)).astype(np.int64) & 1
                opp += k * (bit ^ outside)
    return opp


def _sweep_density_of_states(L: int, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """The oracle of ``ising._density_of_states``: the same histograms by one
    sweep over all 2^(L^2) configurations, MASK_CHUNK at a time; refused
    beyond BRUTE_CAP."""
    if L < 1:
        raise ValueError("need L >= 1")
    if L > BRUTE_CAP:
        raise CapExceededError(f"configuration sweep capped at L={BRUTE_CAP}")
    bins = _bins(L, boundary)
    N = np.zeros(bins, dtype=np.int64)
    down = np.zeros((L * L, bins), dtype=np.int64)  # configurations with sigma_x = -1
    for configs in _config_chunks(L):
        opp = _opposite_bond_counts(configs, L, boundary)
        N += np.bincount(opp, minlength=bins)
        for x in range(L * L):
            bit = (configs >> np.uint64(x)).astype(np.int64) & 1
            down[x] += np.bincount(opp[bit == 1], minlength=bins)
    return N, N - 2 * down

"""Labelled graphs, trees and partition schemes on the vertex set {0, ..., n-1}.

A graph on [n] is an edge subset of the n(n-1)/2 vertex pairs, encoded as a
bitmask over the pairs in lexicographic order.  The connected masks are
built from the graphs on one vertex fewer: a star at vertex 0 joins a graph
on {1..n-1} exactly when it meets each of its components, and
``connected_bits`` packs their membership into one bit per mask.  Trees are
produced through the Pruefer bijection, which guarantees exactly n^(n-2) of
them: ``tree_table`` decodes every sequence at once into numpy columns
(mask, parent, depth, pair indices).  Two maps from rooted trees to
connected graphs are provided -- the depth-rule closure of a rooted tree and
the minimum-spanning-tree closure induced by a total edge order -- as
boolean closure-minus-tree arrays over the rows of the table
(``penrose_added``, ``kruskal_added``).  The depth-rule array is cached per
n; the Kruskal array is read, per order, from a per-n table of every
vertex's path to the root as a pair bitset (``tree_paths``): by the cycle
property, a pair is added when its tree path ranks below it.  Such an array
is a partition scheme; ``verify_partition_scheme`` checks that its boolean
intervals [tree, closure(tree)] partition the connected graphs.  Their
scalar oracles live in ``oracles``.

Vertices are 0-indexed and rooted trees are rooted at vertex 0.  The sizes
are capped by the module constants ``GRAPH_CAP`` and ``TREE_CAP``, read when
a table is built: a session may raise them, after clearing the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

GRAPH_CAP = 7  # enumeration over 2^(n(n-1)/2) bitmasks; n=7 is 2^21
TREE_CAP = 9   # n^(n-2) trees; n=9 is 4782969
# tree_paths(n) holds n^(n-2) * n pair bitsets: 0.45 MiB at n=7, 8 MiB at n=8
# (uint32) and about 344 MB at n=9 (uint64), twice penrose_added(9)
MASK_CHUNK = 1 << 20  # masks per vectorised step; bounds the working memory for every n


class CapExceededError(ValueError):
    """Requested size is beyond the enumeration cap."""


@lru_cache(maxsize=None)
def vertex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Unordered pairs of [n] in lexicographic order; tuple index = bit index."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def pair_index_map(n: int) -> dict[tuple[int, int], int]:
    return {p: k for k, p in enumerate(vertex_pairs(n))}


def pair_index(n: int, i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    try:
        return pair_index_map(n)[(i, j)]
    except KeyError:
        raise ValueError(f"({i}, {j}) is not a pair of distinct vertices of [{n}]") from None


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def mask_bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class LabeledGraph:
    """Edge set over [n] as a bitmask over the lexicographic pair order."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.mask >> num_pairs(self.n):
            raise ValueError(f"mask has bits beyond the {num_pairs(self.n)} pairs of [{self.n}]")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LabeledGraph":
        mask = 0
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            bit = 1 << pair_index(n, i, j)
            if mask & bit:
                raise ValueError(f"duplicate edge {{{i},{j}}}")
            mask |= bit
        return cls(n, mask)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        ps = vertex_pairs(self.n)
        return tuple([ps[k] for k in mask_bits(self.mask)])

    @property
    def edge_count(self) -> int:
        return self.mask.bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.mask >> pair_index(self.n, i, j) & 1)

    def contains(self, other: "LabeledGraph") -> bool:
        return self.n == other.n and other.mask & ~self.mask == 0

    def to_text(self) -> str:
        return f"{self.n};" + ",".join(f"{i}-{j}" for i, j in self.edges)


def _components(m: int, masks: np.ndarray) -> np.ndarray:
    """comp[v, g]: the component of vertex v in the graph ``masks[g]`` on [m],
    as an m-bit set, by a bitset BFS from every vertex at once."""
    bitset = np.min_scalar_type((1 << m) - 1)
    adj = np.zeros((m, masks.size), dtype=bitset)
    for k, (i, j) in enumerate(vertex_pairs(m)):
        bit = (masks >> k & 1).astype(bitset)
        adj[i] |= bit << j
        adj[j] |= bit << i
    seen = np.repeat(np.left_shift(1, np.arange(m, dtype=bitset))[:, None], masks.size, axis=1)
    while True:
        grown = seen.copy()
        for v in range(m):
            grown |= adj[v] & -(grown >> v & 1)
        if np.array_equal(grown, seen):
            return seen
        seen = grown


@lru_cache(maxsize=None)
def connected_masks(n: int) -> np.ndarray:
    """Bitmasks of all connected graphs on [n]: a read-only, ascending int64
    array, built once per n from the graphs on the n-1 vertices {1..n-1}.

    In the pair order the n-1 pairs of vertex 0 are the low bits, so a mask
    is ``(H << (n-1)) | S``: a graph H on {1..n-1} in the pair order of
    [n-1] and a star S of edges at vertex 0.  H + S is connected exactly when
    S meets every component of H.  The (H, S) table of that test is
    row-major in the mask, so its true cells, in order, are the connected
    masks; it is built MASK_CHUNK cells at a time.  Component bitsets use the
    smallest unsigned dtype that holds n-1 bits, so a raised ``GRAPH_CAP``
    cannot overflow them.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > GRAPH_CAP:
        raise CapExceededError(f"graph enumeration refused for n={n}: cap is {GRAPH_CAP}")
    m = n - 1
    graphs = 1 << num_pairs(m)
    stars = np.arange(1 << m, dtype=np.min_scalar_type((1 << m) - 1))
    meets = (stars[:, None] & stars) != 0  # meets[c, S]: the star S meets the set c
    step = max(1, MASK_CHUNK >> m)
    # sized for every mask; pages past the final fill are never touched
    table = np.empty(graphs << m, dtype=np.int64)
    filled = 0
    for lo in range(0, graphs, step):
        comp = _components(m, np.arange(lo, min(lo + step, graphs), dtype=np.int64))
        ok = np.ones((comp.shape[1], stars.size), dtype=bool)
        for c in comp:
            ok &= meets[c]
        hit = np.flatnonzero(ok) + (lo << m)
        table[filled:filled + hit.size] = hit
        filled += hit.size
    table.resize(filled, refcheck=False)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def connected_bits(n: int) -> np.ndarray:
    """Membership of ``connected_masks(n)`` as a packed bitset: bit g & 7 of
    byte g >> 3 is set when the graph with mask g is connected.  A read-only
    uint8 array of 2^(n(n-1)/2) bits (256 KiB at n=7), derived once per n,
    MASK_CHUNK / 8 masks at a time, so that no int64 temporary outgrows
    MASK_CHUNK bytes."""
    masks = connected_masks(n)
    size = 1 << num_pairs(n)
    step = max(8, (MASK_CHUNK >> 3) & -8)  # whole bytes per step
    bits = np.empty(-(-size // 8), dtype=np.uint8)
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        a, b = np.searchsorted(masks, (lo, hi))
        flags = np.zeros(hi - lo, dtype=bool)
        flags[masks[a:b] - lo] = True
        bits[lo >> 3:(hi + 7) >> 3] = np.packbits(flags, bitorder="little")
    bits.flags.writeable = False
    return bits


def count_connected(n: int) -> int:
    """Exact number of connected graphs on [n], the length of ``connected_masks(n)``."""
    if n < 2:
        raise ValueError("need n >= 2")
    return len(connected_masks(n))


def alternating_connected_sum(n: int) -> int:
    """Signed sum over connected graphs of (-1)^(edge count).

    Equals (-1)^(n-1) * (n-1)!: the surviving terms are the linear trees.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    masks = connected_masks(n)
    odd = int(np.count_nonzero(np.bitwise_count(masks) & 1))
    return len(masks) - 2 * odd


@dataclass(frozen=True, eq=False)
class TreeTable:
    """Every labelled tree on [n], one row each, in Pruefer-sequence order.

    Read-only arrays: ``mask`` (int64), ``parent`` and ``depth`` per vertex
    (int8, rooted at 0, the root's parent is -1) and ``pairs``, the tree's
    n-1 pair indices ascending (int8).
    """

    n: int
    mask: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    pairs: np.ndarray

    def __len__(self) -> int:
        return len(self.mask)

    def chunks(self) -> Iterator[slice]:
        """Row slices covering at most MASK_CHUNK (tree, pair) cells each, so
        per-pair work over the table stays bounded at every n."""
        step = max(1, MASK_CHUNK // max(num_pairs(self.n), 1))
        return (slice(lo, lo + step) for lo in range(0, len(self), step))


@lru_cache(maxsize=None)
def pair_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint columns (i, j) of the pairs of [n], in pair-index order."""
    ends = np.array(vertex_pairs(n), dtype=np.intp).reshape(-1, 2)
    ends.flags.writeable = False
    return ends[:, 0], ends[:, 1]


def _prufer_decode(n: int, codes: np.ndarray) -> np.ndarray:
    """Parent of every vertex towards n-1 (-1 at n-1 itself) in the tree of
    each Pruefer code; the code's base-n digits, leading digit first, are the
    sequence.  Each step attaches the smallest leaf to the next digit."""
    m = codes.size
    rows = np.arange(m)
    seq = [codes // n ** (n - 3 - k) % n for k in range(n - 2)]
    degree = np.ones((m, n), dtype=np.int8)
    for s in seq:
        degree[rows, s] += 1
    up = np.full((m, n), -1, dtype=np.int8)
    for s in seq:
        leaf = np.argmax(degree == 1, axis=1)
        up[rows, leaf] = s
        degree[rows, leaf] = 0
        degree[rows, s] -= 1
    # the two vertices left are n-1, never removed, and the smaller one
    up[rows, np.argmax(degree == 1, axis=1)] = n - 1
    return up


@lru_cache(maxsize=None)
def tree_table(n: int) -> TreeTable:
    """All n^(n-2) trees on [n] in Pruefer-sequence order (the order of
    ``oracles.prufer_trees``: the sequences in lexicographic order), built once
    per n by a vectorised Pruefer decode, MASK_CHUNK codes at a time."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > TREE_CAP:
        raise CapExceededError(f"tree enumeration refused for n={n}: cap is {TREE_CAP}")
    total = n ** max(n - 2, 0)
    mask = np.zeros(total, dtype=np.int64)
    parent = np.full((total, n), -1, dtype=np.int8)
    depth = np.zeros((total, n), dtype=np.int8)
    pairs = np.empty((total, n - 1), dtype=np.int8)
    if n > 1:
        index = np.zeros((n, n), dtype=np.int8)
        i, j = pair_ends(n)
        index[i, j] = index[j, i] = np.arange(len(i))
        for lo in range(0, total, MASK_CHUNK):
            hi = min(lo + MASK_CHUNK, total)
            rows = np.arange(hi - lo)
            up = _prufer_decode(n, np.arange(lo, hi))
            # re-root at 0: reverse the pointers on the path from 0 to n-1
            par = up.copy()
            par[:, 0] = -1
            at = np.zeros(hi - lo, dtype=np.intp)
            for _ in range(n - 1):
                nxt = up[rows, at]
                live = nxt >= 0
                par[rows[live], nxt[live]] = at[live]
                at = np.where(live, nxt, at)
            parent[lo:hi] = par
            pairs[lo:hi] = np.sort(index[np.arange(1, n), par[:, 1:]], axis=1)
            mask[lo:hi] = np.left_shift(1, pairs[lo:hi], dtype=np.int64).sum(axis=1)
            # n-1 rounds of depth(v) = depth(parent(v)) + 1 from vertex 0
            above = (np.maximum(par, 0) + (rows * n)[:, None]).ravel()
            dep = depth[lo:hi].reshape(-1)
            for _ in range(n - 1):
                dep[:] = dep[above] + 1
                dep[::n] = 0
    for col in (mask, parent, depth, pairs):
        col.flags.writeable = False
    return TreeTable(n, mask, parent, depth, pairs)


@dataclass(frozen=True)
class EdgeOrder:
    """Strict total order on the pairs of [n]; rank 0 is the lowest edge."""

    n: int
    ranks: tuple[int, ...]  # rank per pair index

    @classmethod
    def from_weights(cls, n: int, weights) -> "EdgeOrder":
        """Order with weight(i,j) ascending, ties by lexicographic pair order.

        ``weights`` is a callable (i, j) -> value or a mapping from pairs.
        The resulting order satisfies: e above f implies weight(e) >= weight(f).
        """
        ps = vertex_pairs(n)
        if callable(weights):
            w = [weights(i, j) for i, j in ps]
        else:
            w = [weights[(i, j)] for i, j in ps]
        order = sorted(range(len(ps)), key=lambda k: (w[k], ps[k]))
        ranks = [0] * len(ps)
        for r, k in enumerate(order):
            ranks[k] = r
        return cls(n, tuple(ranks))

    @classmethod
    def lexicographic(cls, n: int) -> "EdgeOrder":
        return cls(n, tuple(range(num_pairs(n))))

    def rank(self, i: int, j: int) -> int:
        return self.ranks[pair_index(self.n, i, j)]


@lru_cache(maxsize=None)
def penrose_added(n: int) -> np.ndarray:
    """Closure-minus-tree pairs of the depth rule for every row of
    ``tree_table(n)``: a read-only bool array, one column per pair.

    The rule never picks a tree edge, whose endpoints are parent and child.
    """
    t = tree_table(n)
    i, j = pair_ends(n)
    added = np.empty((len(t), len(i)), dtype=bool)
    for rows in t.chunks():
        d, p = t.depth[rows], t.parent[rows]
        di, dj = d[:, i], d[:, j]
        added[rows] = ((di == dj) | ((di == dj + 1) & (j > p[:, i]))
                       | ((dj == di + 1) & (i > p[:, j])))
    added.flags.writeable = False
    return added


@lru_cache(maxsize=None)
def tree_paths(n: int) -> np.ndarray:
    """root[r, v]: the pairs on the path from v up to vertex 0 in row r of
    ``tree_table(n)``, as a pair bitset (uint32 up to 32 pairs, n <= 8;
    uint64 beyond); a read-only array of shape (rows, n).

    Built by n-1 rounds of root(v) = root(parent(v)) | bit(pair(v, parent(v)))
    from root(0) = 0, as ``tree_table`` builds the depth.  The path between
    i and j is root(i) ^ root(j): the pairs above their meeting point cancel.
    """
    t = tree_table(n)
    bitset = np.uint32 if num_pairs(n) <= 32 else np.uint64
    root = np.zeros((len(t), n), dtype=bitset)
    if n > 1:
        index = np.zeros((n, n), dtype=bitset)
        i, j = pair_ends(n)
        index[i, j] = index[j, i] = np.arange(len(i))
        for rows in t.chunks():
            up = np.maximum(t.parent[rows], 0)
            edge = np.left_shift(1, index[np.arange(n), up], dtype=bitset)
            edge[:, 0] = 0
            above = (up + np.arange(0, up.size, n)[:, None]).ravel()
            path = root[rows].reshape(-1)
            for _ in range(n - 1):
                path[:] = path[above] | edge.ravel()
    root.flags.writeable = False
    return root


def kruskal_added(order: EdgeOrder, rows: slice | np.ndarray = slice(None)) -> np.ndarray:
    """Closure-minus-tree pairs under ``order`` for ``tree_table(n)[rows]``,
    where ``rows`` is a slice or an index array of table rows: a pair is
    added when its rank is above every rank on its tree path.

    By the cycle property of minimum spanning trees, that is the Kruskal
    closure.  The tree path of pair (i, j) is root(i) ^ root(j) from
    ``tree_paths(n)``, so a pair is added exactly when that path has no pair
    outside ``below``, the pairs ranked below it.  A tree edge's path is its
    own bit, never below itself, so a tree edge is never added.
    """
    n = order.n
    root = tree_paths(n)[rows]
    i, j = pair_ends(n)
    below = np.zeros(len(i), dtype=root.dtype)
    acc = 0
    for k in np.argsort(order.ranks).tolist():
        below[k] = acc
        acc |= 1 << k
    # in place: fewer fresh temporaries, so fewer page faults per call
    path = root[:, i]
    path ^= root[:, j]
    path &= ~below
    return path == 0


@dataclass
class PartitionSchemeReport:
    """Outcome of the interval-partition check; falsy when it fails."""

    ok: bool
    n: int
    reason: str = ""
    counterexample: LabeledGraph | None = None
    interval_count: int = 0

    def __bool__(self) -> bool:
        return self.ok


def _interval_members(mask: np.ndarray, added: np.ndarray, sizes: np.ndarray) -> Iterator[np.ndarray]:
    """Every graph of every interval [mask, mask + added pairs], at most
    MASK_CHUNK graphs at a time.  Rows are grouped by their number s of added
    pairs; a block of rows doubles its intervals out over the first
    log2(MASK_CHUNK) added pairs at once and loops over the subsets of the
    rest."""
    bits = np.left_shift(1, np.arange(added.shape[1], dtype=np.int64))
    for s in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == s)
        low = min(s, MASK_CHUNK.bit_length() - 1)
        for lo in range(0, group.size, MASK_CHUNK >> low):
            rows = group[lo:lo + (MASK_CHUNK >> low)]
            pairs = bits[np.nonzero(added[rows])[1].reshape(rows.size, s)]
            members = mask[rows, None]
            for b in range(low):
                members = np.concatenate((members, members | pairs[:, b, None]), axis=1)
            rest = pairs[:, low:]
            for k in range(1 << (s - low)):
                yield (members | (rest @ (k >> np.arange(s - low) & 1))[:, None]).ravel()


def verify_partition_scheme(n: int, added: np.ndarray) -> PartitionSchemeReport:
    """Check that the intervals [tree, tree + added pairs], one per row of
    ``tree_table(n)``, partition the connected graphs on [n].

    ``added`` is a closure-minus-tree bool array such as ``penrose_added(n)``
    or ``kruskal_added(order)``.  No added pair may be a tree edge.  Every
    interval member then contains a spanning tree, so the intervals partition
    the connected graphs exactly when they cover each one and their sizes
    2^|added| add up to the connected count.
    """
    table = connected_masks(n)  # refuses n beyond GRAPH_CAP before the coverage array
    if n < 2:
        raise ValueError("need n >= 2")
    t = tree_table(n)
    shape = (len(t), num_pairs(n))
    if not (isinstance(added, np.ndarray) and added.dtype == bool and added.shape == shape):
        raise ValueError(f"a partition scheme on [{n}] is a bool array of shape {shape}")
    bits = np.left_shift(1, np.arange(shape[1], dtype=np.int64))
    extra = np.concatenate([added[rows] @ bits for rows in t.chunks()])
    clash = np.flatnonzero(extra & t.mask)
    if clash.size:
        return PartitionSchemeReport(
            False, n, reason="an added pair is an edge of its tree",
            counterexample=LabeledGraph(n, int(t.mask[clash[0]])),
        )
    sizes = np.bitwise_count(extra)
    count = int(np.left_shift(1, sizes, dtype=np.int64).sum())
    covered = np.zeros(1 << shape[1], dtype=bool)
    for members in _interval_members(t.mask, added, sizes):
        covered[members] = True
    uncovered = np.flatnonzero(~covered[table])
    if uncovered.size:
        return PartitionSchemeReport(
            False, n, reason="a connected graph is uncovered",
            counterexample=LabeledGraph(n, int(table[uncovered[0]])), interval_count=count,
        )
    if count != len(table):
        return PartitionSchemeReport(False, n, reason="intervals overlap", interval_count=count)
    return PartitionSchemeReport(True, n, interval_count=count)

"""Ursell coefficients of a finite interaction matrix, three independent ways.

Given symmetric values V_ij in R union {+inf} on the pairs of [n], the
coefficient is

    Phi(V) = sum over connected graphs g of prod over edges (e^(-V_ij) - 1)

with the conventions e^(-inf) = 0 and e^(-inf) - 1 = -1.  The same number is
produced by a signed sum over set partitions and by a sum over trees weighted
through any partition scheme; agreement of the three routes is the main
correctness check of this package.

The tree route runs over ``graphs.tree_table(n)``: one vectorised term
evaluator takes the closure-minus-tree pairs of every tree as a boolean array,
from the depth rule (``penrose_added``) or from the edge order of the matrix
values (``kruskal_added``, one bitmask test per tree and pair against the
cached tree paths of ``tree_paths``).

Matrices whose values are all 0 or +inf ("hard core") are evaluated in exact
integer arithmetic, so the identities can be checked bit for bit.  Their
Mayer weight is -1 on the +inf pairs and 0 elsewhere, so only the subgraphs
of the +inf graph F carry a term: the graph sum enumerates the subsets of F
and looks each up in the membership bitset ``connected_bits``, and the tree
routes test the closure only on the trees inside F.  The float routes add
their terms with ``exact_fsum``, the value of ``math.fsum`` from vectorised
integer limbs of LIMB_BITS bits.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import Callable, Iterable, Sequence

import numpy as np

from . import graphs
from .graphs import (
    CapExceededError,
    EdgeOrder,
    connected_bits,
    connected_masks,
    kruskal_added,
    mask_bits,
    num_pairs,
    pair_ends,
    pair_index,
    penrose_added,
    tree_table,
    vertex_pairs,
)

INF = math.inf

PARTITION_CAP = 10  # Bell(10) = 115975 partitions

SUM_PIECE = 1 << 15  # floats per exact_fsum step: 256 KiB stays in cache
# bits per fixed-point limb of exact_fsum (38): SUM_PIECE limbs below
# 2^LIMB_BITS add up below 2^53, so a piece's float sum of a limb is exact
LIMB_BITS = 53 - (SUM_PIECE.bit_length() - 1)
TOP_EXP = 960  # fewer than 2^60 floats below 2^960 cannot add up near the float range
FSUM_BELOW = 512  # values below which math.fsum beats the limbs' numpy calls


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
            if v == -INF:
                raise ValueError("-inf is not a valid interaction value: values lie in R or +inf")
        self._values = tuple(vals)

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
        """Parse the "n; i j v" triplet form ("inf" is +inf); a bad item is refused by name."""
        tokens = text.replace(";", "\n").split("\n")
        tokens = [t.strip() for t in tokens if t.strip()]
        head = tokens[0] if tokens else ""
        if not head.isdecimal():
            raise ValueError(f'{head!r} is not a vertex count: expected "n; i j v; ..."')
        n = int(head)
        values = {}
        for line in tokens[1:]:
            try:
                i_s, j_s, v_s = line.split()
                v = INF if v_s.lower() in ("inf", "+inf", "infinity") else float(v_s)
                values[(int(i_s), int(j_s))] = v
            except ValueError:
                raise ValueError(f"{line!r} is not of the form i j v") from None
        return cls(n, values)

    def __repr__(self):
        return f"InteractionMatrix(n={self.n})"


def ursell_graph_sum(V: InteractionMatrix):
    """Brute-force route: sum over all connected graphs on [n].

    Returns 1 for n = 1.  A hard-core matrix gives an exact int: its weights
    are -1 on the +inf pairs F and 0 elsewhere, so Phi is the sum of
    (-1)^|H| over the subgraphs H of F that connect [n], looked up in
    ``connected_bits(n)``.  Pairs 0-2 are the bit within a byte of that
    bitset, so only the subsets of F's other pairs are enumerated, by
    doubling, at most MASK_CHUNK at a time; each byte they address is read
    once for every subset of F's pairs 0-2.  Other matrices tabulate the
    edge product of every mask by doubling over the pairs, gather it at
    ``connected_masks(n)`` and give the exactly rounded float sum.
    """
    w = V.mayer_weights()
    if V.is_hard_core:
        hard = [k for k, wk in enumerate(w) if wk]
        # H = Y + X: X holds F's pairs 0-2, which are the bit of H within a
        # byte of the bitset, and Y the others, which address the byte
        low = sum(1 << k for k in hard if k < 3)
        within = [(1 << x, (-1) ** x.bit_count()) for x in range(8) if not x & ~low]
        # the Y of even and of odd size, over the first `step` pairs by
        # doubling; the other pairs are added one offset at a time
        rest = [k - 3 for k in hard if k >= 3]
        step = min(len(rest), graphs.MASK_CHUNK.bit_length() - 1)
        even, odd = np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp)
        for k in rest[:step]:
            even, odd = np.concatenate((even, odd | 1 << k)), np.concatenate((odd, even | 1 << k))
        bits = connected_bits(V.n)
        total = 0
        for top in range(1 << (len(rest) - step)):
            offset = sum(1 << k for t, k in enumerate(rest[step:]) if top >> t & 1)
            sign = -1 if top.bit_count() & 1 else 1
            for ys, y_sign in ((even, sign), (odd, -sign)):
                byte = bits[ys | offset]
                total += y_sign * sum(x_sign * int(np.count_nonzero(byte & x)) for x, x_sign in within)
        return total
    masks = connected_masks(V.n)
    prods = np.empty(1 << len(w), dtype=np.float64)
    prods[0] = 1
    for k, wk in enumerate(w):
        np.multiply(prods[:1 << k], wk, out=prods[1 << k:2 << k])
    return exact_fsum(lambda: (prods[masks[lo:lo + SUM_PIECE]]
                               for lo in range(0, len(masks), SUM_PIECE)))


def _piece_limbs(x: np.ndarray) -> tuple[int, int] | None:
    """(acc, exp) with sum(x) = acc * 2^exp exactly, for at most SUM_PIECE
    floats; None when a value is an inf or a NaN, too close to the float
    range, or too small to scale exactly.

    x is scaled by a power of two until its largest value lies below
    2^LIMB_BITS, then split into limbs: the integer part of the scaled values
    (truncated, so the signed remainder is exact) is one limb, whose float
    sum is exact, and the remainder times 2^LIMB_BITS gives the next, until
    the lowest set bit of every value is reached.
    """
    a = np.abs(x)
    top = float(a.max())
    if not top < INF:  # an inf or a NaN
        return None
    if top == 0.0:
        return 0, 0
    low = float(a.min())
    if low == 0.0:
        low = float(a.min(where=a > 0, initial=INF))
    e = math.frexp(top)[1]
    # scaling down by 2^(e - LIMB_BITS) is exact while the smallest value stays normal
    if e > TOP_EXP or (e > LIMB_BITS and low < math.ldexp(1.0, e - LIMB_BITS - 1022)):
        return None
    # every value is a multiple of 2^(e_low - 53), reached after `limbs` limbs
    limbs = -(-(e - math.frexp(low)[1] + 53) // LIMB_BITS)
    frac = np.ldexp(x, LIMB_BITS - e)
    whole = np.empty_like(frac)
    acc = 0
    for k in range(limbs):
        if k:
            frac -= whole
            frac *= 1 << LIMB_BITS
        np.trunc(frac, out=whole)
        acc = (acc << LIMB_BITS) + int(whole.sum())
    return acc, e - LIMB_BITS * limbs


def exact_fsum(chunks: Callable[[], Iterable[np.ndarray]]) -> float:
    """``math.fsum`` over the values of the float64 arrays that ``chunks()``
    yields, from integer limbs.

    The pieces' exact sums meet in one Python int over a power of two, and
    int / int is correctly rounded.  ``math.fsum`` itself adds a single chunk
    of fewer than FSUM_BELOW values, where the fixed cost of the numpy calls
    would dominate.  When a piece cannot be split into limbs, ``chunks()`` is
    called again and ``math.fsum`` adds it all, with its values and errors.
    """
    parts = iter(chunks())
    head = list(islice(parts, 2))
    if len(head) < 2 and sum(map(len, head)) < FSUM_BELOW:
        return math.fsum(chain.from_iterable(c.tolist() for c in head))
    total, base = 0, 0
    for c in chain(head, parts):
        for lo in range(0, len(c), SUM_PIECE):
            piece = _piece_limbs(c[lo:lo + SUM_PIECE])
            if piece is None:
                return math.fsum(chain.from_iterable(c.tolist() for c in chunks()))
            acc, exp = piece
            if exp < base:
                total, base = total << (base - exp), exp
            total += acc << (exp - base)
    return total / (1 << -base) if base < 0 else float(total << base)


def _gibbs_subsets(V: InteractionMatrix):
    """e^(-U(S)) for every vertex subset S, where U sums V_ij inside S.

    The subset with lowest vertex t is the rest times the pair factors
    (t, j) over the rest's vertices j ascending, stopping at a zero."""
    n = V.n
    hard = V.is_hard_core
    factor = [[None] * n for _ in range(n)]
    for (i, j), v in zip(vertex_pairs(n), V.pair_values):
        factor[i][j] = (0 if v == INF else 1) if hard else (0.0 if v == INF else math.exp(-v))
    out = [None] * (1 << n)
    out[0] = 1 if hard else 1.0
    for mask in range(1, 1 << n):
        low = mask & -mask
        row = factor[low.bit_length() - 1]
        rest = mask ^ low
        acc = out[rest]
        while rest and acc:
            bit = rest & -rest
            acc = acc * row[bit.bit_length() - 1]
            rest ^= bit
        out[mask] = acc
    return out


def ursell_partition_formula(V: InteractionMatrix):
    """Partition route: signed sum over set partitions of [n].

    Phi = sum over k of (-1)^(k-1) (k-1)! sum over partitions into k blocks
    of the product of the blocks' Gibbs factors e^(-U(block)).
    """
    n = V.n
    if n > PARTITION_CAP:
        raise CapExceededError(f"partition formula refused for n={n}: cap is {PARTITION_CAP} (Bell growth)")
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


# the depth-rule array under the name bench/tracing.py wraps to count its
# cache misses as ``ursell.penrose_table``
_penrose_tree_table = penrose_added


def ursell_tree_identity(V: InteractionMatrix, scheme: str = "penrose"):
    """Tree route: sum over trees weighted through a partition scheme.

    ``scheme`` is "penrose" (depth-rule closure) or "kruskal" (closure under
    the edge order built from the matrix values with lexicographic
    tie-break).  Either is evaluated over the rows of ``tree_table(n)`` from
    its closure-minus-tree pairs as an array.
    """
    if scheme not in ("penrose", "kruskal"):
        raise ValueError(f"unknown scheme {scheme!r}")
    n = V.n
    if n == 1:
        return 1
    if scheme == "penrose":
        penrose = _penrose_tree_table(n)
        added = lambda rows: penrose[rows]
    else:
        order = EdgeOrder.from_weights(n, V.value)
        added = lambda rows: kruskal_added(order, rows)
    return _tree_sum(V, added)


def _tree_sum(V: InteractionMatrix, added: Callable[[slice | np.ndarray], np.ndarray]):
    """Sum over the trees of [n] of prod over tree pairs w_ij times
    exp(-sum of V_ij over the added pairs), 0 when an added pair is +inf.

    ``added(rows)`` gives the closure-minus-tree pairs of those table rows, a
    slice or an index array.  A hard-core matrix has w = 0 off its +inf
    pairs F, so only the trees inside F can survive: it keeps those rows of
    each chunk, counts the ones whose added pairs avoid F, each worth
    (-1)^(n-1), and returns an exact int.  Others take the exactly rounded
    sum of the float terms, whose tree-pair weights are multiplied one
    column of ``t.pairs`` at a time, in the order of ``prod(axis=1)``.
    """
    t = tree_table(V.n)
    vals = np.array(V.pair_values, dtype=np.float64)
    hard_cols = np.flatnonzero(vals == INF)
    if V.is_hard_core:
        outside = ~sum(1 << k for k in hard_cols.tolist())
        count = 0
        for rows in t.chunks():
            inside = np.flatnonzero((t.mask[rows] & outside) == 0) + rows.start
            count += inside.size - int(np.count_nonzero(added(inside)[:, hard_cols].any(axis=1)))
        return (-1) ** (V.n - 1) * count
    finite = np.where(vals == INF, 0.0, vals)
    w = np.array(V.mayer_weights(), dtype=np.float64)

    def terms(rows: slice) -> np.ndarray:
        extra = added(rows)
        first, *others = t.pairs[rows].T
        term = w[first]
        for col in others:
            term *= w[col]
        term *= np.exp(-(extra @ finite))
        term[extra[:, hard_cols].any(axis=1)] = 0.0
        return term

    return exact_fsum(lambda: map(terms, t.chunks()))


def check_stability_vector(V: InteractionMatrix, B: Sequence[float]) -> None:
    """Brute-force subset check of sum of V_ij over pairs in S >= -sum B_i in S,
    to 1e-12."""
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
        if u < bound - 1e-12:
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
    factors = np.array([1.0 if v == INF else -math.expm1(-abs(v)) for v in V.pair_values])
    t = tree_table(V.n)
    total = exact_fsum(lambda: (factors[t.pairs[rows]].prod(axis=1) for rows in t.chunks()))
    return math.exp(math.fsum(B)) * total


# ---------------------------------------------------------------------------
# Tree families for hard-core systems


def tree_family_counts(incompatible, n_vertices: int, root: int = 0) -> dict[str, int]:
    """Count the nested tree families of a hard-core system on {0..n_vertices-1}.

    ``incompatible`` is a symmetric boolean matrix or callable over vertex
    indices (diagonal entries allowed).  All trees are rooted at ``root``
    (internally relabelled to 0).  Families, from smallest to largest:

    - "penrose": tree edges incompatible; same-generation pairs compatible;
      pairs with depth(j) = depth(i) - 1 and j > parent(i) compatible.
    - "weak": tree edges incompatible; siblings compatible.
    - "dobrushin": tree edges incompatible; siblings carry distinct objects
      (always true here since vertices are distinct polymers).
    - "kp": tree edges incompatible.
    """
    n = n_vertices
    t = tree_table(n)
    if not 0 <= root < n:
        raise ValueError(f"root {root} is not a vertex of [{n}]")
    relabel = list(range(n))
    relabel[0], relabel[root] = root, 0
    relation = incompatible if callable(incompatible) else lambda a, b: incompatible[a][b]
    inc = np.array([bool(relation(relabel[i], relabel[j])) for i, j in vertex_pairs(n)],
                   dtype=bool)
    i, j = pair_ends(n)
    penrose = _penrose_tree_table(n)
    kp = weak = pen = 0
    for rows in t.chunks():
        ok = inc[t.pairs[rows]].all(axis=1)
        parent = t.parent[rows]
        siblings = parent[:, i] == parent[:, j]
        kp += int(np.count_nonzero(ok))
        weak += int(np.count_nonzero(ok & ~(siblings & inc).any(axis=1)))
        pen += int(np.count_nonzero(ok & ~(penrose[rows] & inc).any(axis=1)))
    # distinct vertices are distinct polymers, so dobrushin equals kp
    return {"penrose": pen, "weak": weak, "dobrushin": kp, "kp": kp}

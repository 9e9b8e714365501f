import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterexp import graphs as G
from clusterexp import oracles as O
from clusterexp.oracles import prufer_trees


def connected_count_recurrence(n: int) -> int:
    """Independent oracle: c_n = 2^C(n,2) - sum_k C(n-1,k-1) c_k 2^C(n-k,2)."""
    c = {1: 1}
    for m in range(2, n + 1):
        total = 2 ** (m * (m - 1) // 2)
        for k in range(1, m):
            total -= math.comb(m - 1, k - 1) * c[k] * 2 ** ((m - k) * (m - k - 1) // 2)
        c[m] = total
    return c[n]


def connected_edge_polynomials(n: int) -> dict[int, list[int]]:
    """Independent oracle: C_m(y) = (1+y)^C(m,2) - sum_k C(m-1,k-1) C_k(y)
    (1+y)^C(m-k,2), the connected graphs on [m] by edge count, as exact
    integer coefficient lists."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def one_plus_y(e):
        return [math.comb(e, k) for k in range(e + 1)]

    c = {1: [1]}
    for m in range(2, n + 1):
        total = one_plus_y(m * (m - 1) // 2)
        for k in range(1, m):
            term = mul(c[k], one_plus_y((m - k) * (m - k - 1) // 2))
            for d, x in enumerate(term):
                total[d] -= math.comb(m - 1, k - 1) * x
        c[m] = total
    return c


class TestEnumeration:
    def test_graph_counts(self):
        assert sum(1 for _ in O.enumerate_graphs(2)) == 2
        assert sum(1 for _ in O.enumerate_graphs(3)) == 8
        assert sum(1 for _ in O.enumerate_graphs(4)) == 64

    def test_bitmask_order_and_distinct(self):
        masks = [g.mask for g in O.enumerate_graphs(3)]
        assert masks == sorted(masks) == list(range(8))

    def test_cap_refused(self):
        with pytest.raises(G.CapExceededError, match="cap"):
            list(O.enumerate_graphs(9))
        with pytest.raises(G.CapExceededError):
            G.count_connected(8)


class TestConnectivity:
    def test_path_connected(self):
        g = G.LabeledGraph.from_edges(3, [(0, 1), (1, 2)])
        assert O.is_connected(g)

    def test_isolated_vertex(self):
        g = G.LabeledGraph.from_edges(3, [(0, 1)])
        assert not O.is_connected(g)

    def test_two_components(self):
        g = G.LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        assert not O.is_connected(g)

    def test_connected_counts(self):
        assert G.count_connected(2) == 1
        assert G.count_connected(3) == 4
        assert G.count_connected(4) == 38

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_count_matches_recurrence(self, n):
        assert G.count_connected(n) == connected_count_recurrence(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_count_lower_bound(self, n):
        assert G.count_connected(n) >= 2 ** ((n - 1) * (n - 2) // 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_table_matches_scalar_filter(self, n):
        table = G.connected_masks(n)
        assert table.dtype == np.int64 and not table.flags.writeable
        scalar = [m for m in range(1 << G.num_pairs(n)) if O._mask_connected(n, m)]
        assert table.tolist() == scalar

    def test_edge_histogram_matches_polynomial_recurrence(self):
        hist = np.bincount(np.bitwise_count(G.connected_masks(7)), minlength=22)
        expect = connected_edge_polynomials(7)[7]
        assert hist.tolist() == expect
        assert expect[6] == 7 ** 5 == 16807 and sum(expect) == 1866256

    @pytest.mark.parametrize("n", [5, 6])
    def test_table_is_the_same_in_chunks(self, monkeypatch, n):
        G.connected_masks.cache_clear()
        whole = G.connected_masks(n)
        G.connected_masks.cache_clear()
        monkeypatch.setattr(G, "MASK_CHUNK", 300)  # a few graphs on n-1 vertices per step
        try:
            assert np.array_equal(G.connected_masks(n), whole)
        finally:
            G.connected_masks.cache_clear()

    def test_one_cache_entry_per_n(self):
        G.connected_masks.cache_clear()
        table = G.connected_masks(5)
        assert G.connected_masks(5) is table
        G.count_connected(5)
        G.alternating_connected_sum(5)
        assert G.verify_partition_scheme(5, G.penrose_added(5))
        assert G.connected_masks.cache_info().misses == 1


class TestTrees:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)])
    def test_cayley_counts_distinct(self, n, count):
        masks = set(G.tree_table(n).mask.tolist())
        assert len(masks) == count

    def test_cap(self):
        assert issubclass(G.CapExceededError, ValueError)
        with pytest.raises(G.CapExceededError):
            G.tree_table(G.TREE_CAP + 1)

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_prufer_decode_is_a_tree(self, n, data):
        seq = data.draw(st.tuples(*[st.integers(0, n - 1)] * (n - 2)))
        t = O.prufer_to_tree(n, seq)
        g = t.as_graph()
        assert g.edge_count == n - 1
        assert O.is_connected(g)
        assert sum(t.degrees()) == 2 * n - 2
        assert all(1 <= d <= n - 1 for d in t.degrees())

    def test_degree_formula_examples(self):
        assert O.tree_count_by_degrees((1, 1, 1, 3)) == 1
        assert O.tree_count_by_degrees((1, 1, 2, 2)) == 2
        assert O.tree_count_by_degrees((1, 1, 2)) == 1

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_degree_formula_vs_filter(self, n):
        by_deg = Counter(t.degrees() for t in prufer_trees(n))
        for degs, cnt in by_deg.items():
            assert O.tree_count_by_degrees(degs) == cnt
        # the formula also sums back to the total
        assert sum(by_deg.values()) == n ** (n - 2)

    def test_degree_formula_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="degree sum"):
            O.tree_count_by_degrees((1, 1, 1, 1))
        with pytest.raises(ValueError, match=">= 1"):
            O.tree_count_by_degrees((0, 2, 2, 2))


def pair_flags(n, mask):
    return [bool(mask >> k & 1) for k in range(G.num_pairs(n))]


def random_order(n, rng):
    """Ties among the finite values and several +inf pairs."""
    w = {p: rng.choice([0.0, 0.5, 0.5, 1.0, 2.0, math.inf]) for p in G.vertex_pairs(n)}
    return G.EdgeOrder.from_weights(n, w)


class TestTreeTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_rows_match_scalar_decode(self, n):
        t = G.tree_table(n)
        ref = prufer_trees(n)
        assert t.mask.tolist() == [r.mask for r in ref]
        assert [tuple(p) for p in t.parent.tolist()] == [r.parent for r in ref]
        assert [tuple(d) for d in t.depth.tolist()] == [r.depth for r in ref]
        assert [tuple(k) for k in t.pairs.tolist()] == [G.mask_bits(r.mask) for r in ref]
        assert t.mask.dtype == np.int64
        assert t.parent.dtype == t.depth.dtype == t.pairs.dtype == np.int8
        assert t.parent.shape == t.depth.shape == (n ** max(n - 2, 0), n)
        assert t.pairs.shape == (len(t), n - 1)
        assert not any(a.flags.writeable for a in (t.mask, t.parent, t.depth, t.pairs))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_penrose_added_matches_closure(self, n):
        added = G.penrose_added(n)
        assert added.dtype == bool and not added.flags.writeable
        expect = [pair_flags(n, O.penrose_closure(r).mask ^ r.mask) for r in prufer_trees(n)]
        assert added.tolist() == expect

    @pytest.mark.parametrize("n,orders", [(1, 1), (2, 2), (3, 4), (4, 4), (5, 4), (6, 3), (7, 2)])
    def test_kruskal_added_matches_closure(self, n, orders):
        rng = random.Random(700 + n)
        ref = prufer_trees(n)
        for order in [G.EdgeOrder.lexicographic(n)] + [random_order(n, rng) for _ in range(orders)]:
            expect = [pair_flags(n, O.kruskal_closure(r, order).mask ^ r.mask) for r in ref]
            added = G.kruskal_added(order)
            assert added.dtype == bool and added.shape == (len(ref), G.num_pairs(n))
            assert added.tolist() == expect

    def test_kruskal_added_rows_are_a_slice(self):
        order = random_order(6, random.Random(6))
        full = G.kruskal_added(order)
        assert np.array_equal(G.kruskal_added(order, slice(100, 700)), full[100:700])
        order = random_order(7, random.Random(7))
        full = G.kruskal_added(order)
        assert np.array_equal(G.kruskal_added(order, slice(5000, 12001)), full[5000:12001])

    @pytest.mark.parametrize("n", [6, 7])
    def test_kruskal_added_hard_core_ties(self, n):
        # two values only, so the order is mostly the lexicographic tie-break
        rng = random.Random(1600 + n)
        ref = prufer_trees(n)
        for p_inf in (0.3, 0.7):
            w = {p: math.inf if rng.random() < p_inf else 0.0 for p in G.vertex_pairs(n)}
            order = G.EdgeOrder.from_weights(n, w)
            expect = [pair_flags(n, O.kruskal_closure(r, order).mask ^ r.mask) for r in ref]
            assert G.kruskal_added(order).tolist() == expect

    def test_kruskal_added_n8_sample(self):
        # n = 8 is beyond the full oracle lists: the sampled rows are decoded
        # from their Pruefer codes, the base-8 digits of the row number
        n = 8
        rng = random.Random(800)
        t = G.tree_table(n)
        sample = sorted(rng.sample(range(len(t)), 2000))
        ref = [O.prufer_to_tree(n, [r // n ** (n - 3 - k) % n for k in range(n - 2)])
               for r in sample]
        assert [r.mask for r in ref] == t.mask[sample].tolist()
        w = {p: math.inf if rng.random() < 0.4 else 0.0 for p in G.vertex_pairs(n)}
        for order in (G.EdgeOrder.lexicographic(n), G.EdgeOrder.from_weights(n, w)):
            expect = [pair_flags(n, O.kruskal_closure(r, order).mask ^ r.mask) for r in ref]
            added = G.kruskal_added(order)
            assert added.shape == (len(t), G.num_pairs(n))
            assert added[sample].tolist() == expect

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_tree_paths(self, n):
        t = G.tree_table(n)
        root = G.tree_paths(n)
        assert root.dtype == np.uint32 and root.shape == (len(t), n)
        assert not root.flags.writeable
        # one pair per step up to the root
        assert np.array_equal(np.bitwise_count(root), t.depth)
        # the path of each tree edge is that edge's own bit
        i, j = G.pair_ends(n)
        pairs = t.pairs.astype(np.intp)
        paths = (np.take_along_axis(root, i[pairs], axis=1)
                 ^ np.take_along_axis(root, j[pairs], axis=1))
        assert np.array_equal(paths, np.left_shift(1, pairs).astype(np.uint32))

    def test_cap_and_size(self):
        with pytest.raises(G.CapExceededError, match="cap is 9"):
            G.tree_table(10)
        with pytest.raises(ValueError, match="n >= 1"):
            G.tree_table(0)


class TestPenroseClosure:
    def test_two_vertices_fixed(self):
        t = O.RootedTree(2, [(0, 1)])
        assert O.penrose_closure(t).mask == t.mask

    def test_star_adds_same_generation_edge(self):
        t = O.RootedTree(3, [(0, 1), (0, 2)])
        assert O.penrose_closure(t).edges == ((0, 1), (0, 2), (1, 2))

    def test_rooted_path_is_fixed(self):
        t = O.RootedTree(4, [(0, 1), (1, 2), (2, 3)])
        assert O.penrose_closure(t).mask == t.mask

    def test_parent_rule(self):
        # 0 - 1, 0 - 2, 2 - 3: vertex 3 has depth 2, vertex 1 depth 1;
        # parent(3) = 2 > 1, so {1,3} is not added; {1,2} is (same depth)
        t = O.RootedTree(4, [(0, 1), (0, 2), (2, 3)])
        closed = O.penrose_closure(t)
        assert closed.has_edge(1, 2)
        assert not closed.has_edge(1, 3)
        assert not closed.has_edge(0, 3)


class TestKruskal:
    def test_triangle_drops_heaviest(self):
        g = G.LabeledGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        order = G.EdgeOrder.from_weights(3, {(0, 1): 0.1, (0, 2): 0.5, (1, 2): 0.9})
        t = O.kruskal_tree(g, order)
        assert set(t.edges) == {(0, 1), (0, 2)}

    def test_tree_is_its_own_mst(self):
        t = O.RootedTree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        order = G.EdgeOrder.lexicographic(5)
        assert O.kruskal_tree(t.as_graph(), order).mask == t.mask

    def test_disconnected_rejected(self):
        g = G.LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="disconnected"):
            O.kruskal_tree(g, G.EdgeOrder.lexicographic(4))

    def test_mst_vs_exhaustive_minimum(self):
        # oracle: the spanning tree whose sorted rank sequence is
        # lexicographically smallest
        rng = random.Random(3)
        n = 5
        for _ in range(10):
            w = {p: rng.random() for p in G.vertex_pairs(n)}
            order = G.EdgeOrder.from_weights(n, w)
            mask = rng.randrange(1 << G.num_pairs(n))
            g = G.LabeledGraph(n, mask)
            if not O.is_connected(g):
                continue
            spanning = []
            for sub in O.enumerate_graphs(n):
                if sub.edge_count == n - 1 and sub.mask & ~g.mask == 0 and O.is_connected(sub):
                    spanning.append(sub)
            best = min(spanning, key=lambda s: sorted((order.rank(*e) for e in s.edges), reverse=True))
            assert O.kruskal_tree(g, order).mask == best.mask

    def test_closure_direct_rule(self):
        t = O.RootedTree(3, [(0, 1), (1, 2)])
        order = G.EdgeOrder.from_weights(3, {(0, 1): 0.2, (1, 2): 0.4, (0, 2): 0.9})
        assert O.kruskal_closure(t, order).has_edge(0, 2)
        order = G.EdgeOrder.from_weights(3, {(0, 1): 0.2, (1, 2): 0.9, (0, 2): 0.4})
        assert not O.kruskal_closure(t, order).has_edge(0, 2)

    def test_interval_property_brute_force(self):
        # every connected g lies between its mst and the mst's closure
        rng = random.Random(11)
        n = 5
        w = {p: rng.random() for p in G.vertex_pairs(n)}
        order = G.EdgeOrder.from_weights(n, w)
        for mask in G.connected_masks(n).tolist():
            g = G.LabeledGraph(n, mask)
            t = O.kruskal_tree(g, order)
            closed = O.kruskal_closure(t, order)
            assert g.contains(t.as_graph())
            assert closed.contains(g)

    def test_closure_fixed_point(self):
        rng = random.Random(4)
        for n in (4, 5):
            w = {p: rng.random() for p in G.vertex_pairs(n)}
            order = G.EdgeOrder.from_weights(n, w)
            for t in prufer_trees(n):
                closed = O.kruskal_closure(t, order)
                assert O.kruskal_tree(closed, order).mask == t.mask


class TestPartitionSchemes:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_penrose_scheme(self, n):
        rep = G.verify_partition_scheme(n, G.penrose_added(n))
        assert rep and rep.interval_count == G.count_connected(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_kruskal_scheme_random_weights(self, n):
        rng = random.Random(100 + n)
        orders = [G.EdgeOrder.lexicographic(n)] + [random_order(n, rng) for _ in range(3)]
        orders += [G.EdgeOrder.from_weights(n, {p: rng.random() for p in G.vertex_pairs(n)})
                   for _ in range(10)]
        for order in orders:
            rep = G.verify_partition_scheme(n, G.kruskal_added(order))
            assert rep and rep.interval_count == G.count_connected(n)

    def test_identity_closure_fails_with_counterexample(self):
        rep = G.verify_partition_scheme(3, np.zeros((3, 3), dtype=bool))
        assert not rep
        assert rep.reason == "a connected graph is uncovered"
        assert rep.counterexample.mask == 0b111  # the triangle is uncovered
        assert rep.interval_count == 3

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_tree_pair_marked_added_fails(self, n):
        t = G.tree_table(n)
        added = G.penrose_added(n).copy()
        row = len(t) // 2
        added[row, t.pairs[row, -1]] = True
        rep = G.verify_partition_scheme(n, added)
        assert not rep and rep.reason == "an added pair is an edge of its tree"
        assert rep.counterexample.mask == t.mask[row]

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_cleared_added_pair_fails(self, n):
        t = G.tree_table(n)
        added = G.penrose_added(n).copy()
        cells = np.argwhere(added)
        row, pair = cells[len(cells) // 2]
        size = int(added[row].sum())
        added[row, pair] = False
        rep = G.verify_partition_scheme(n, added)
        assert not rep and rep.reason == "a connected graph is uncovered"
        # only the members of that row's interval holding the pair are lost
        lost = rep.counterexample.mask
        assert lost >> pair & 1 and lost & int(t.mask[row]) == t.mask[row]
        assert rep.interval_count == G.count_connected(n) - 2 ** (size - 1)

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_added_pair_moved_to_another_row_fails(self, n):
        t = G.tree_table(n)
        added = G.penrose_added(n).copy()
        src, pair = np.argwhere(added)[0]
        dst = next(r for r in range(len(t)) if not added[r, pair] and not t.mask[r] >> pair & 1)
        added[src, pair], added[dst, pair] = False, True
        rep = G.verify_partition_scheme(n, added)
        # the smallest lost member, tree(src) + pair, has n edges, so no
        # other interval can hold it
        assert not rep and rep.reason == "a connected graph is uncovered"
        assert O.is_connected(rep.counterexample)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_extra_added_pair_overlaps(self, n):
        t = G.tree_table(n)
        added = G.penrose_added(n).copy()
        row = int(np.flatnonzero(~added.any(axis=1))[-1])
        pair = next(k for k in range(G.num_pairs(n)) if not t.mask[row] >> k & 1)
        added[row, pair] = True
        rep = G.verify_partition_scheme(n, added)
        assert not rep and rep.reason == "intervals overlap"
        assert rep.interval_count == G.count_connected(n) + 1

    def test_malformed_scheme_refused(self):
        good = G.penrose_added(4)
        for bad in (good[1:], good[:, :-1], good.T, good.astype(np.int8), good.tolist()):
            with pytest.raises(ValueError, match="bool array of shape"):
                G.verify_partition_scheme(4, bad)
        with pytest.raises(ValueError, match="n >= 2"):
            G.verify_partition_scheme(1, np.zeros((1, 0), dtype=bool))
        with pytest.raises(G.CapExceededError):
            G.verify_partition_scheme(8, good)

    @pytest.mark.parametrize("chunk", [1, 16, 512])
    def test_verdict_and_step_size_follow_the_chunk(self, monkeypatch, chunk):
        schemes = {n: [G.penrose_added(n), G.kruskal_added(random_order(n, random.Random(n)))]
                   for n in (5, 6)}
        counts = {n: G.count_connected(n) for n in schemes}  # tables built before the patch
        monkeypatch.setattr(G, "MASK_CHUNK", chunk)
        for n, arrays in schemes.items():
            for added in arrays:
                rep = G.verify_partition_scheme(n, added)
                assert rep and rep.interval_count == counts[n]
                steps = list(G._interval_members(G.tree_table(n).mask, added, added.sum(axis=1)))
                assert max(s.size for s in steps) <= chunk
                assert sum(s.size for s in steps) == counts[n]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_alternating_sum(self, n):
        assert G.alternating_connected_sum(n) == (-1) ** (n - 1) * math.factorial(n - 1)


class TestSerialization:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="self-loop"):
            G.LabeledGraph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            G.LabeledGraph.from_edges(3, [(0, 1), (1, 0)])

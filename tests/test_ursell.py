import math
import random
from itertools import combinations

import numpy as np
import pytest

from clusterexp import graphs as G
from clusterexp import oracles as O
from clusterexp.oracles import prufer_trees
from clusterexp.ursell import (
    INF,
    LIMB_BITS,
    SUM_PIECE,
    InteractionMatrix,
    StabilityCertificateError,
    _gibbs_subsets,
    exact_fsum,
    tree_family_counts,
    tree_graph_bound,
    ursell_graph_sum,
    ursell_partition_formula,
    ursell_tree_identity,
)


def random_matrix(n, rng, p_inf=0.25, lo=-1.5, hi=3.0):
    vals = {}
    for p in G.vertex_pairs(n):
        vals[p] = INF if rng.random() < p_inf else rng.uniform(lo, hi)
    return InteractionMatrix(n, vals)


def random_hardcore(n, rng, p_inf=0.5):
    return InteractionMatrix(
        n, {p: (INF if rng.random() < p_inf else 0.0) for p in G.vertex_pairs(n)}
    )


class TestSingleValues:
    def test_n1_is_one(self):
        assert ursell_graph_sum(InteractionMatrix(1, {})) == 1
        assert ursell_partition_formula(InteractionMatrix(1, {})) == 1

    def test_single_edge(self):
        v = 0.7
        V = InteractionMatrix(2, {(0, 1): v})
        expect = math.expm1(-v)
        for value in (ursell_graph_sum(V), ursell_partition_formula(V),
                      ursell_tree_identity(V), ursell_tree_identity(V, "kruskal")):
            assert value == pytest.approx(expect, abs=1e-15)

    def test_triangle_all_incompatible(self):
        V = InteractionMatrix(3, {p: INF for p in G.vertex_pairs(3)})
        assert ursell_graph_sum(V) == 2
        assert ursell_partition_formula(V) == 2
        assert ursell_tree_identity(V) == 2

    def test_noninteracting_triple_vanishes(self):
        V = InteractionMatrix(3, {})
        assert ursell_graph_sum(V) == 0.0
        assert ursell_partition_formula(V) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_graph_sum_returns_python_numbers(self, n):
        rng = random.Random(70 + n)
        V = random_hardcore(n, rng)
        phi = ursell_graph_sum(V)
        assert type(phi) is int and phi == ursell_partition_formula(V)
        if n > 1:
            V = random_matrix(n, rng)
            phi = ursell_graph_sum(V)
            assert type(phi) is float
            assert phi == pytest.approx(ursell_partition_formula(V), rel=1e-10)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_float_matrices(self, n):
        rng = random.Random(10 + n)
        for _ in range(30):
            V = random_matrix(n, rng)
            a = ursell_graph_sum(V)
            b = ursell_partition_formula(V)
            c = ursell_tree_identity(V, "penrose")
            d = ursell_tree_identity(V, "kruskal")
            scale = max(abs(a), 1e-30)
            assert abs(a - b) <= 1e-10 * scale
            assert abs(a - c) <= 1e-10 * scale
            assert abs(a - d) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_hardcore_bit_exact(self, n):
        rng = random.Random(20 + n)
        for _ in range(25):
            V = random_hardcore(n, rng)
            a = ursell_graph_sum(V)
            assert isinstance(a, int)
            assert a == ursell_partition_formula(V)
            assert a == ursell_tree_identity(V, "penrose")
            assert a == ursell_tree_identity(V, "kruskal")

    def test_custom_closure_callable(self):
        # a closure callable is no scheme of the tree route; the scalar
        # per-tree sum through it still reproduces the graph sum
        rng = random.Random(7)
        V = random_matrix(4, rng)
        with pytest.raises(ValueError, match="unknown scheme"):
            ursell_tree_identity(V, O.penrose_closure)
        a = ursell_graph_sum(V)
        c = scalar_tree_sum(V, O.penrose_closure)
        assert abs(a - c) <= 1e-12 * max(abs(a), 1e-30)


class TestGibbsSubsets:
    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_hard_core_entries_are_exact(self, n):
        rng = random.Random(900 + n)
        for p_inf in (0.2, 0.5):
            V = random_hardcore(n, rng, p_inf)
            gibbs = _gibbs_subsets(V)
            assert len(gibbs) == 1 << n
            for S, g in enumerate(gibbs):
                assert type(g) is int and g == (1 if V.subset_energy(S) < INF else 0)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_float_entries_are_boltzmann_factors(self, n):
        rng = random.Random(950 + n)
        for _ in range(3):
            V = random_matrix(n, rng)
            gibbs = _gibbs_subsets(V)
            assert len(gibbs) == 1 << n
            for S, g in enumerate(gibbs):
                assert type(g) is (int if V.is_hard_core else float)
                assert math.isclose(g, math.exp(-V.subset_energy(S)), rel_tol=1e-12, abs_tol=0.0)


class TestAlternatingSigns:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_nonnegative_matrix_sign(self, n):
        rng = random.Random(30 + n)
        for _ in range(15):
            vals = {p: rng.uniform(0.0, 2.0) for p in G.vertex_pairs(n)}
            phi = ursell_graph_sum(InteractionMatrix(n, vals))
            assert phi == 0 or (phi > 0) == (n % 2 == 1)


class TestTreeBound:
    def test_equality_at_n2(self):
        v = 0.9
        V = InteractionMatrix(2, {(0, 1): v})
        bound = tree_graph_bound(V, [0.0, 0.0])
        assert bound == pytest.approx(-math.expm1(-v), abs=1e-15)
        assert bound >= abs(ursell_graph_sum(V))

    def test_three_hardcore_trees(self):
        V = InteractionMatrix(3, {p: INF for p in G.vertex_pairs(3)})
        assert tree_graph_bound(V, [0.0] * 3) == 3.0

    def test_certificate_failure(self):
        V = InteractionMatrix(3, {(0, 1): -5.0})
        with pytest.raises(StabilityCertificateError):
            tree_graph_bound(V, [0.0] * 3)

    def test_dominance_on_stable_random_matrices(self):
        rng = random.Random(44)
        for _ in range(40):
            n = rng.choice([3, 4, 5])
            vals = {p: rng.uniform(-0.3, 2.0) for p in G.vertex_pairs(n)}
            V = InteractionMatrix(n, vals)
            b_each = n * max(0.0, -min(vals.values())) / 2.0 + 1e-12
            bound = tree_graph_bound(V, [b_each] * n)
            assert abs(ursell_graph_sum(V)) <= bound * (1 + 1e-12)


class TestPenroseTreeCount:
    def test_single_incompatible_pair(self):
        inc = [[True, True], [True, True]]
        assert tree_family_counts(inc, 2)["penrose"] == 1

    def test_complete_incompatibility_three(self):
        inc = [[True] * 3 for _ in range(3)]
        assert tree_family_counts(inc, 3)["penrose"] == 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_graph_sum_magnitude(self, n):
        rng = random.Random(50 + n)
        for _ in range(20):
            inc = [[False] * n for _ in range(n)]
            for i, j in G.vertex_pairs(n):
                inc[i][j] = inc[j][i] = rng.random() < 0.6
            for i in range(n):
                inc[i][i] = True
            V = InteractionMatrix(
                n, {(i, j): (INF if inc[i][j] else 0.0) for i, j in G.vertex_pairs(n)}
            )
            assert tree_family_counts(inc, n)["penrose"] == abs(ursell_graph_sum(V))

    def test_root_relabelling_keeps_magnitude(self):
        rng = random.Random(9)
        n = 5
        inc = [[False] * n for _ in range(n)]
        for i, j in G.vertex_pairs(n):
            inc[i][j] = inc[j][i] = rng.random() < 0.6
        counts = {root: tree_family_counts(inc, n, root=root)["penrose"] for root in range(n)}
        assert len(set(counts.values())) == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_family_chain(self, n):
        rng = random.Random(60 + n)
        for _ in range(15):
            inc = [[False] * n for _ in range(n)]
            for i, j in G.vertex_pairs(n):
                inc[i][j] = inc[j][i] = rng.random() < 0.5
            c = tree_family_counts(inc, n)
            assert c["penrose"] <= c["weak"] <= c["dobrushin"] <= c["kp"]


def scalar_tree_sum(V, closure):
    """The tree identity written out tree by tree through a scalar closure:
    prod over tree pairs of w_ij times exp(-sum of V_ij over the added
    pairs), 0 when an added pair is +inf; an exact int for hard-core V."""
    vals, w = V.pair_values, V.mayer_weights()
    terms = []
    for tree in prufer_trees(V.n):
        extra = G.mask_bits(closure(tree).mask ^ tree.mask)
        if any(vals[k] == INF for k in extra):
            continue
        term = math.prod(w[k] for k in G.mask_bits(tree.mask))
        terms.append(term if V.is_hard_core else term * math.exp(-sum(vals[k] for k in extra)))
    return sum(terms) if V.is_hard_core else math.fsum(terms)


def random_relation(n, rng, p=0.55):
    inc = [[True] * n for _ in range(n)]
    for i, j in G.vertex_pairs(n):
        inc[i][j] = inc[j][i] = rng.random() < p
    return inc


class TestTreeTableRoutes:
    @pytest.mark.parametrize("n,trials", [(2, 6), (3, 6), (4, 6), (5, 4), (6, 2), (7, 1)])
    def test_table_equals_callable_closures(self, n, trials):
        rng = random.Random(800 + n)
        for _ in range(trials):
            for V in (random_hardcore(n, rng, p_inf=0.6),
                      random_matrix(n, rng, p_inf=0.3, lo=-0.5, hi=2.0)):
                order = G.EdgeOrder.from_weights(n, V.value)
                pairs = (("penrose", O.penrose_closure),
                         ("kruskal", lambda t: O.kruskal_closure(t, order)))
                for name, closure in pairs:
                    table, scalar = ursell_tree_identity(V, name), scalar_tree_sum(V, closure)
                    if V.is_hard_core:
                        assert type(table) is type(scalar) is int and table == scalar
                    else:
                        assert table == pytest.approx(scalar, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_float_route_equals_scalar_tree_sum(self, n):
        # per-tree terms written out over the scalar trees and closures
        rng = random.Random(900 + n)
        for _ in range(5):
            V = random_matrix(n, rng, p_inf=0.3)
            order = G.EdgeOrder.from_weights(n, V.value)
            for name, closure in (("penrose", O.penrose_closure),
                                  ("kruskal", lambda t: O.kruskal_closure(t, order))):
                assert ursell_tree_identity(V, name) == pytest.approx(scalar_tree_sum(V, closure),
                                                                      rel=1e-12)

    def test_unknown_scheme_refused_at_every_n(self):
        for n in (1, 2, 3):
            for scheme in ("bogus", O.penrose_closure, lambda t: t.as_graph()):
                with pytest.raises(ValueError, match="unknown scheme"):
                    ursell_tree_identity(InteractionMatrix(n, {}), scheme)

    @pytest.mark.parametrize("n,root", [(2, 5), (3, -1), (3, 3), (1, 1)])
    def test_root_outside_vertices_refused(self, n, root):
        inc = [[True] * n for _ in range(n)]
        with pytest.raises(ValueError, match="not a vertex"):
            tree_family_counts(inc, n, root=root)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_family_counts_equal_scalar_counts(self, n):
        rng = random.Random(1000 + n)
        for _ in range(4):
            inc = random_relation(n, rng)
            root = rng.randrange(n)
            swap = list(range(n))
            swap[0], swap[root] = root, 0
            bad = lambda a, b: inc[swap[a]][swap[b]]
            expect = {"penrose": 0, "weak": 0, "dobrushin": 0, "kp": 0}
            for tree in prufer_trees(n):
                if not all(bad(i, j) for i, j in tree.edges):
                    continue
                expect["kp"] += 1
                expect["dobrushin"] += 1
                expect["weak"] += not any(bad(i, j) for kids in tree.children
                                          for i, j in combinations(kids, 2))
                added = O.penrose_closure(tree).mask ^ tree.mask
                expect["penrose"] += not any(bad(*G.vertex_pairs(n)[k]) for k in G.mask_bits(added))
            assert tree_family_counts(inc, n, root=root) == expect

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_tree_bound_and_exponent_minimum_equal_scalar_loops(self, n):
        rng = random.Random(1100 + n)
        vals = {p: rng.choice([INF, rng.uniform(0.0, 2.0)]) for p in G.vertex_pairs(n)}
        V = InteractionMatrix(n, vals)
        trees = prufer_trees(n)
        factors = [1.0 if v == INF else -math.expm1(-abs(v)) for v in V.pair_values]
        bound = math.fsum(math.prod(factors[k] for k in G.mask_bits(t.mask)) for t in trees)
        assert tree_graph_bound(V, [0.0] * n) == pytest.approx(bound, rel=1e-12)


def fsum_outcome(f):
    """repr of the sum, or the type of the error it raised."""
    try:
        return repr(f())
    except (ValueError, OverflowError) as exc:
        return type(exc)


TINY = 5e-324
MAX = 1.7976931348622157e308


class TestExactFsum:
    @pytest.mark.parametrize("xs", [
        [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [-2.5],
        [1e16, 1.0, -1e16], [1e100, 1.0, -1e100, 1e-100],
        [1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -106], [1.0, 2.0 ** -53, -(2.0 ** -106)],
        [1.0 + 2.0 ** -52, 2.0 ** -53], [-1.0, -(2.0 ** -53), -(2.0 ** -106)],
        # the sticky bit that breaks the tie sits 125 bits below the top, past three limbs
        [2.0 ** 19, -(2.0 ** 19), 1.0, 2.0 ** -53 + 2.0 ** -105],
        [1.0, 0.0, 2.0 ** -53, 2.0 ** -100],
        [TINY], [TINY, -TINY, TINY], [2.0 ** -1022, -TINY], [1.0, TINY], [1e20, 1e-300],
        [1e280, -1e280, 1e-280], [1e300, 1.0, -1e300], [MAX, -MAX, 1.0],
        [MAX, 2.0 ** 969], [MAX, 2.0 ** 970], [1e308, 1e308], [1e308, 1e308, -1e308],
        [INF], [-INF, 1.0], [INF, -INF], [INF, INF, 1e308, 1e308], [math.nan, 1.0],
        [math.nan, INF, -INF], [INF, 1.0, math.nan],
    ])
    def test_special_values_match_fsum(self, xs):
        a = np.array(xs, dtype=np.float64)
        want = fsum_outcome(lambda: math.fsum(xs))
        assert fsum_outcome(lambda: exact_fsum(lambda: [a])) == want
        for cut in range(len(xs) + 1):
            assert fsum_outcome(lambda: exact_fsum(lambda: [a[:cut], a[cut:]])) == want

    @pytest.mark.parametrize("kind", ["uniform", "cancel", "subnormal", "wide", "huge"])
    def test_random_arrays_match_fsum(self, kind):
        rng = random.Random(kind)
        for trial in range(40):
            size = rng.choice([1, 2, 3, 17, 300, SUM_PIECE - 1, SUM_PIECE + 3] if trial % 8 == 0
                              else [1, 2, 3, 17, 300])
            if kind == "uniform":
                xs = [rng.uniform(-1.0, 1.0) for _ in range(size)]
            elif kind == "cancel":
                half = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 30) for _ in range(size)]
                xs = half + [-x for x in half] + [rng.uniform(-1e-40, 1e-40)]
                rng.shuffle(xs)
            elif kind == "subnormal":
                xs = [rng.choice([-1, 1]) * TINY * rng.randrange(2 ** 60) for _ in range(size)]
            elif kind == "wide":
                xs = [rng.choice([-1, 1]) * 10.0 ** rng.uniform(-323, 300) for _ in range(size)]
            else:
                xs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.choice([250, 300, 307]) for _ in range(size)]
            a = np.array(xs, dtype=np.float64)
            cuts = sorted(rng.randrange(len(xs) + 1) for _ in range(2))
            chunks = [a[:cuts[0]], a[cuts[0]:cuts[1]], a[cuts[1]:]]
            assert fsum_outcome(lambda: exact_fsum(lambda: chunks)) == fsum_outcome(
                lambda: math.fsum(xs))

    def test_limb_sums_of_a_piece_are_exact(self):
        assert SUM_PIECE << LIMB_BITS <= 1 << 53

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_full_piece_of_largest_limbs_matches_fsum(self, sign):
        # every value scales to 2^LIMB_BITS - 1 plus a distinct fraction, so
        # the first limb sum is the largest one a piece can reach
        ones = (1 << LIMB_BITS) - 1
        xs = [sign * (ones + k / SUM_PIECE) for k in range(SUM_PIECE)]
        a = np.array(xs)
        assert np.all(np.trunc(np.abs(a)) == ones)
        want = repr(math.fsum(xs))
        assert repr(exact_fsum(lambda: [a])) == want
        assert repr(exact_fsum(lambda: [a[:1000], a[1000:]])) == want

    # spans of 2, 3, 3 and 4 limbs: the piece's lowest bit is the last bit of
    # a limb or the first of the next one (a 53-bit value never fits in one limb)
    @pytest.mark.parametrize("span", [2 * LIMB_BITS, 2 * LIMB_BITS + 1,
                                      3 * LIMB_BITS, 3 * LIMB_BITS + 1])
    def test_sticky_bit_at_a_limb_edge_matches_fsum(self, span):
        # the sum is 2^L plus half its ulp, a tie, plus 2^q, the piece's lowest
        # bit, which breaks it; the values below 2^(L-17) carry 53-bit
        # mantissas down to 2^q, so no value has a set bit the limbs skip
        L, q = LIMB_BITS, LIMB_BITS - span
        xs = [2.0 ** L - 2.0 ** (L - 18), 2.0 ** (L - 18) + 2.0 ** (L - 53),
              math.ldexp((1 << 52) + 1, q), -math.ldexp(1.0, q + 52)]
        rng = random.Random(2300 + span)
        while len(xs) < SUM_PIECE:  # pairs that cancel, with bits from 2^q up
            v = math.ldexp(rng.getrandbits(52) | 1 << 52, rng.randrange(q, L - 53))
            xs += [v, -v]
        rng.shuffle(xs)
        for scale in (1.0, -1.0, 2.0 ** -600, -(2.0 ** 600)):
            a = np.array(xs) * scale
            want = repr(math.fsum(a.tolist()))
            assert repr(exact_fsum(lambda: [a])) == want
            assert repr(exact_fsum(lambda: [a[:777], a[777:]])) == want

    def test_empty_chunks(self):
        a = np.array([0.25, -3.0, 1e-20])
        assert exact_fsum(lambda: []) == 0.0
        assert repr(exact_fsum(lambda: [a[:0], a, a[:0]])) == repr(math.fsum(a.tolist()))


def mask_products(n, w):
    """Edge product of every connected mask, pair by pair in ascending order."""
    masks = G.connected_masks(n)
    prods = np.ones(masks.size)
    for k, wk in enumerate(w):
        prods *= np.where(masks >> k & 1, wk, 1.0)
    return prods


class TestGraphSumIsFsum:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_float_graph_sum_equals_fsum_of_terms(self, n):
        rng = random.Random(1700 + n)
        mats = [random_matrix(n, rng, p_inf=0.2, lo=-0.5, hi=2.0),
                random_matrix(n, rng, p_inf=0.0, lo=-3.0, hi=3.0),
                InteractionMatrix(n, {p: rng.choice([0.0, 1e-12, -0.25, 4.0, INF])
                                      for p in G.vertex_pairs(n)})]
        for V in mats:
            if V.is_hard_core:
                continue
            terms = mask_products(n, V.mayer_weights())
            assert repr(ursell_graph_sum(V)) == repr(math.fsum(terms.tolist()))


def scalar_hard_core_sum(V):
    """Phi of a hard-core V written out: (-1)^|H| summed over the edge sets
    H of the +inf pairs that connect [n], each tested by the scalar oracle."""
    hard = [k for k, v in enumerate(V.pair_values) if v == INF]
    total = 0
    for sub in range(1 << len(hard)):
        mask = sum(1 << k for t, k in enumerate(hard) if sub >> t & 1)
        if O._mask_connected(V.n, mask):
            total += (-1) ** mask.bit_count()
    return total


# +inf graphs at the density extremes: none, every pair, every pair off
# vertex n-1 (so nothing spans), and the workload's 40% of the pairs
INF_GRAPHS = {
    "empty": lambda n: [],
    "complete": lambda n: G.vertex_pairs(n),
    "not-spanning": lambda n: [(i, j) for i, j in G.vertex_pairs(n) if j < n - 1],
    "sparse": lambda n: random.Random(2400 + n).sample(G.vertex_pairs(n), round(0.4 * G.num_pairs(n))),
}


class TestHardCoreRoutes:
    # the complete graph at n = 7 would take 2^21 scalar tests: the closed form below covers it
    @pytest.mark.parametrize("shape,n", [(shape, n) for shape in sorted(INF_GRAPHS)
                                         for n in range(1, 8) if (shape, n) != ("complete", 7)])
    def test_graph_sum_equals_scalar_subgraph_sum(self, shape, n):
        V = InteractionMatrix(n, {p: INF for p in INF_GRAPHS[shape](n)})
        phi = ursell_graph_sum(V)
        assert type(phi) is int and phi == scalar_hard_core_sum(V)
        for scheme in ("penrose", "kruskal"):
            tree = ursell_tree_identity(V, scheme)
            assert type(tree) is int and tree == phi

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_complete_inf_graph_is_the_linear_tree_count(self, n):
        # every pair +inf: the alternating connected-graph sum (-1)^(n-1) (n-1)!
        V = InteractionMatrix(n, {p: INF for p in G.vertex_pairs(n)})
        expect = (-1) ** (n - 1) * math.factorial(n - 1)
        for value in (ursell_graph_sum(V), ursell_tree_identity(V, "penrose"),
                      ursell_tree_identity(V, "kruskal")):
            assert type(value) is int and value == expect

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_routes_are_the_same_in_chunks(self, monkeypatch, n):
        rng = random.Random(2500 + n)
        mats = [random_hardcore(n, rng, p_inf=p) for p in (0.5, 0.8, 1.0)]

        def routes():
            return [(ursell_graph_sum(V), ursell_tree_identity(V, "penrose"),
                     ursell_tree_identity(V, "kruskal")) for V in mats]

        whole = routes()
        G.connected_bits.cache_clear()
        # 2^6 subsets, 6 trees and 100 / 8 bitset masks, not whole bytes, per step
        monkeypatch.setattr(G, "MASK_CHUNK", 100)
        try:
            assert routes() == whole
        finally:
            G.connected_bits.cache_clear()
        assert all(a == b == c == ursell_partition_formula(V) for (a, b, c), V in zip(whole, mats))


def parent_tree_sum(V, scheme):
    """The float tree route as one product over each row of tree pairs:
    prod(axis=1) of w over the tree's pairs times exp(-(added @ finite)),
    0 where an added pair is +inf, per chunk of rows, then math.fsum."""
    n = V.n
    t = G.tree_table(n)
    vals = np.array(V.pair_values)
    forbidden = vals == INF
    finite = np.where(forbidden, 0.0, vals)
    w = np.array(V.mayer_weights())
    added = (G.penrose_added(n) if scheme == "penrose"
             else G.kruskal_added(G.EdgeOrder.from_weights(n, V.value)))
    terms = []
    for rows in t.chunks():
        extra = added[rows]
        term = w[t.pairs[rows]].prod(axis=1) * np.exp(-(extra @ finite))
        term[(extra & forbidden).any(axis=1)] = 0.0
        terms.extend(term.tolist())
    return math.fsum(terms)


class TestTreeSumIsFsum:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_float_tree_routes_equal_fsum_of_row_products(self, n):
        rng = random.Random(2600 + n)
        mats = [random_matrix(n, rng, p_inf=0.2, lo=-0.5, hi=2.0),
                random_matrix(n, rng, p_inf=0.0, lo=-3.0, hi=3.0),
                InteractionMatrix(n, {p: rng.choice([0.0, 1e-12, -0.25, 4.0, INF])
                                      for p in G.vertex_pairs(n)})]
        for V in mats:
            if V.is_hard_core:
                continue
            for scheme in ("penrose", "kruskal"):
                assert repr(ursell_tree_identity(V, scheme)) == repr(parent_tree_sum(V, scheme))


class TestTextForm:
    def test_round_trip_with_inf(self):
        V = InteractionMatrix(3, {(0, 1): INF, (1, 2): 0.25})
        V2 = InteractionMatrix.from_text(V.to_text())
        assert V2.pair_values == V.pair_values

    @pytest.mark.parametrize("text", ["2; 0 1 -inf", "3; 0 1 -inf; 0 2 1; 1 2 1"])
    def test_minus_inf_refused(self, text):
        with pytest.raises(ValueError, match="-inf"):
            InteractionMatrix.from_text(text)

    def test_semicolon_form(self):
        V = InteractionMatrix.from_text("2; 0 1 inf")
        assert V.value(0, 1) == INF

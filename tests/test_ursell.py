import math
import random

import pytest

from clusterexp import graphs as G
from clusterexp.ursell import (
    INF,
    InteractionMatrix,
    StabilityCertificateError,
    hardcore_penrose_count,
    penrose_exponent_minimum,
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
        rng = random.Random(7)
        V = random_matrix(4, rng)
        a = ursell_graph_sum(V)
        c = ursell_tree_identity(V, G.penrose_closure)
        assert abs(a - c) <= 1e-12 * max(abs(a), 1e-30)


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
        assert hardcore_penrose_count(inc, 2) == 1

    def test_complete_incompatibility_three(self):
        inc = [[True] * 3 for _ in range(3)]
        assert hardcore_penrose_count(inc, 3) == 2

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
            assert hardcore_penrose_count(inc, n) == abs(ursell_graph_sum(V))

    def test_root_relabelling_keeps_magnitude(self):
        rng = random.Random(9)
        n = 5
        inc = [[False] * n for _ in range(n)]
        for i, j in G.vertex_pairs(n):
            inc[i][j] = inc[j][i] = rng.random() < 0.6
        counts = {root: hardcore_penrose_count(inc, n, root=root) for root in range(n)}
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


class TestClosureExponentSearch:
    def test_zero_for_nonnegative(self):
        rng = random.Random(5)
        vals = {p: rng.uniform(0.0, 1.0) for p in G.vertex_pairs(4)}
        assert penrose_exponent_minimum(InteractionMatrix(4, vals)) >= 0.0

    def test_picks_up_negative_pairs(self):
        V = InteractionMatrix(3, {(0, 1): 0.0, (0, 2): 0.0, (1, 2): -2.0})
        assert penrose_exponent_minimum(V) <= 0.0


class TestTextForm:
    def test_round_trip_with_inf(self):
        V = InteractionMatrix(3, {(0, 1): INF, (1, 2): 0.25})
        V2 = InteractionMatrix.from_text(V.to_text())
        assert V2.pair_values == V.pair_values

    def test_semicolon_form(self):
        V = InteractionMatrix.from_text("2; 0 1 inf")
        assert V.value(0, 1) == INF

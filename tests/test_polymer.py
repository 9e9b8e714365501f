import ast
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from clusterexp import polymer as PL
from clusterexp import ursell as U
from clusterexp.graphs import CapExceededError


def brute_force_xi(sys: PL.PolymerSystem, activities=None) -> float:
    """Oracle: direct sum over all pairwise-compatible subsets."""
    z = sys.activity if activities is None else activities
    ids = list(sys.polymers)
    total = 0.0
    for mask in range(1 << len(ids)):
        chosen = [g for k, g in enumerate(ids) if mask >> k & 1]
        if all(not sys.incompatible(a, b)
               for i, a in enumerate(chosen) for b in chosen[i + 1:]):
            p = 1.0
            for g in chosen:
                p *= z[g]
            total += p
    return total


def exp_series(poly: PL.ActivityPolynomial, order: int) -> PL.ActivityPolynomial:
    """Oracle-side exponential: sum of poly^k / k! truncated by total degree."""
    out = PL.ActivityPolynomial.constant(1)
    power = PL.ActivityPolynomial.constant(1)
    fact = 1
    for k in range(1, order + 1):
        power = (power * poly).truncated(order)
        fact *= k
        out = out + power.scaled(Fraction(1, fact))
    return out


def pinned_oracle(sys: PL.PolymerSystem, gamma0, order: int, rho) -> list[float]:
    """Oracle: partial sums of sum_n (1/n!) |Phi(g0, g_1..g_n)| rho^n over
    ordered tuples, grouped by multiset, with Phi the Ursell graph sum of the
    0/inf interaction matrix."""
    rho_map = rho if isinstance(rho, dict) else dict.fromkeys(sys.polymers, rho)
    phis: dict = {}
    partials = [1.0]
    for n in range(1, order + 1):
        term = 0.0
        for combo in combinations_with_replacement(sys.polymers, n):
            gammas = (gamma0,) + combo
            key = tuple(sys.incompatible(a, b) for a, b in combinations(gammas, 2))
            if key not in phis:
                phis[key] = U.ursell_graph_sum(
                    U.InteractionMatrix(n + 1, [U.INF if inc else 0.0 for inc in key]))
            weight = 1.0
            for g in combo:
                weight *= rho_map[g]
            mults = 1
            for c in Counter(combo).values():
                mults *= math.factorial(c)
            term += abs(phis[key]) / mults * weight
        partials.append(partials[-1] + term)
    return partials


def compatible_families(sys: PL.PolymerSystem) -> list[list]:
    """Oracle: every pairwise-compatible family of distinct polymers."""
    ids = list(sys.polymers)
    out = []
    for mask in range(1 << len(ids)):
        chosen = [g for k, g in enumerate(ids) if mask >> k & 1]
        if all(not sys.incompatible(a, b) for a, b in combinations(chosen, 2)):
            out.append(chosen)
    return out


def partition_phi(n: int, incompatible) -> int:
    """Oracle: the hard-core Ursell coefficient by the partition formula,
    from the incompatibility of each pair in lexicographic order."""
    return U.ursell_partition_formula(U.InteractionMatrix(n, [U.INF if inc else 0.0
                                                              for inc in incompatible]))


def cluster_log_oracle(sys: PL.PolymerSystem, region, order: int) -> dict:
    """Oracle: {monomial: phi / prod(mult!)} by a loop over the multisets of
    the region, phi from the partition formula."""
    phis: dict = {}
    out = {}
    for n in range(1, order + 1):
        for combo in combinations_with_replacement(sorted(region, key=repr), n):
            key = tuple(sys.incompatible(a, b) for a, b in combinations(combo, 2))
            if key not in phis:
                phis[key] = partition_phi(n, key)
            if phis[key]:
                mults = Counter(combo)
                denom = math.prod(math.factorial(c) for c in mults.values())
                out[tuple(sorted(mults.items(), key=lambda kv: repr(kv[0])))] = \
                    Fraction(phis[key], denom)
    return out


def induction_oracle(by_vertex, a: float) -> tuple:
    """Oracle: the subset-gas induction as a memo recursion over sub-volumes,
    then a scan of (mask, bit) in ascending order; ``by_vertex[v]`` lists
    (mask, rho) of the polymers whose lowest vertex is v."""
    memo = {0: 1.0}

    def xi_neg(mask: int) -> float:
        got = memo.get(mask)
        if got is not None:
            return got
        v = (mask & -mask).bit_length() - 1
        val = xi_neg(mask & (mask - 1))
        for gm, r in by_vertex[v]:
            if gm & mask == gm:
                val -= r * xi_neg(mask & ~gm)
        memo[mask] = val
        return val

    full = (1 << len(by_vertex)) - 1
    worst = 0.0
    for mask in range(1, full + 1):
        val = xi_neg(mask)
        if val <= 0.0:
            return False, mask, math.nan, mask
        m = mask
        while m:
            low = m & -m
            pinned = math.log(xi_neg(mask & ~low)) - math.log(val)
            worst = max(worst, pinned)
            if pinned > a + 1e-9:
                return False, mask, worst, None
            m ^= low
    return True, full, worst, None


def random_system(rng: random.Random, m: int, p: float = 0.4) -> PL.PolymerSystem:
    ids = list(range(m))
    acts = {i: rng.uniform(0.05, 0.8) for i in ids}
    pairs = [(i, j) for i in ids for j in ids if i < j and rng.random() < p]
    return PL.PolymerSystem(acts, pairs)


class TestPartitionFunction:
    def test_single_polymer(self):
        s = PL.PolymerSystem({"a": 0.5}, [])
        assert PL.partition_function(s) == pytest.approx(1.5, abs=1e-15)

    def test_incompatible_pair(self):
        s = PL.PolymerSystem({"a": 0.5, "b": 0.25}, [("a", "b")])
        assert PL.partition_function(s) == pytest.approx(1.75, abs=1e-15)

    def test_compatible_pair(self):
        s = PL.PolymerSystem({"a": 0.5, "b": 0.25}, [])
        assert PL.partition_function(s) == pytest.approx(1.875, abs=1e-15)

    def test_against_brute_force(self):
        rng = random.Random(5)
        for _ in range(12):
            s = random_system(rng, rng.randint(2, 9))
            assert PL.partition_function(s) == pytest.approx(brute_force_xi(s), rel=1e-12)

    def test_sub_region(self):
        s = PL.PolymerSystem({"a": 0.5, "b": 0.25, "c": 1.0}, [("a", "b")])
        assert PL.partition_function(s, region={"a", "b"}) == pytest.approx(1.75, abs=1e-15)

    def test_complex_activities(self):
        s = PL.PolymerSystem({"a": 0.5j, "b": 0.25}, [])
        assert PL.partition_function(s) == pytest.approx((1 + 0.5j) * 1.25)


class TestClusterExpansion:
    def test_order_one_is_activity_sum(self):
        s = PL.PolymerSystem({"a": 1.0, "b": 1.0}, [("a", "b")])
        lg = PL.cluster_log_truncated(s, order=1)
        assert lg.coefficient(["a"]) == 1 and lg.coefficient(["b"]) == 1

    def test_self_repulsion_log_series(self):
        s = PL.PolymerSystem({"g": 1.0}, [])
        lg = PL.cluster_log_truncated(s, order=3)
        assert lg.coefficient(["g"]) == 1
        assert lg.coefficient(["g", "g"]) == Fraction(-1, 2)
        assert lg.coefficient(["g", "g", "g"]) == Fraction(1, 3)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_exp_matches_xi_on_domino_block(self, order):
        s = PL.domino_system(2, 2)
        lg = PL.cluster_log_truncated(s, order=order)
        xi = PL.xi_polynomial(s).truncated(order)
        assert exp_series(lg, order).truncated(order) == xi

    def test_exp_matches_xi_random(self):
        rng = random.Random(9)
        for _ in range(6):
            s = random_system(rng, rng.randint(2, 6))
            lg = PL.cluster_log_truncated(s, order=4)
            xi = PL.xi_polynomial(s).truncated(4)
            assert exp_series(lg, 4).truncated(4) == xi


class TestPhiTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_graph_matches_the_partition_formula(self, n):
        table = PL._phi_table(n)
        pairs = n * (n - 1) // 2
        assert table.dtype == np.int64 and not table.flags.writeable
        assert table.tolist() == [partition_phi(n, [mask >> k & 1 for k in range(pairs)])
                                  for mask in range(1 << pairs)]

    def test_sampled_graphs_at_six(self):
        rng = random.Random(6)
        table = PL._phi_table(6)
        for mask in [0, (1 << 15) - 1] + [rng.getrandbits(15) for _ in range(150)]:
            assert table[mask] == partition_phi(6, [mask >> k & 1 for k in range(15)]), mask


class TestClusterSeriesOracle:
    def test_random_systems(self):
        rng = random.Random(19)
        for trial in range(60):
            m = 1 + trial % 9
            s = random_system(rng, m, p=rng.choice([0.2, 0.5, 0.8]))
            order = rng.randint(1, 6 if m <= 7 else 5)
            got = PL.cluster_log_truncated(s, order=order)
            assert got.terms == cluster_log_oracle(s, s.polymers, order), (m, order)

    @pytest.mark.parametrize("order", [1, 4, 6])
    def test_domino_block(self, order):
        s = PL.domino_system(2, 2)
        assert PL.cluster_log_truncated(s, order=order).terms == \
            cluster_log_oracle(s, s.polymers, order)

    def test_triangular_region_at_order_five(self):
        s = PL.triangular_window(2)
        region = sorted(s.polymers, key=lambda p: (abs(p[0]) + abs(p[1]), p))[:12]
        got = PL.cluster_log_truncated(s, region, 5)
        assert len(got.terms) == 1390
        assert got.terms == cluster_log_oracle(s, region, 5)


class TestUnknownPolymers:
    """A polymer that is not in the system is named in one ValueError."""

    SYS = PL.PolymerSystem({"a": 0.5, "b": 0.25}, [("a", "b")])

    def test_partition_function(self):
        with pytest.raises(ValueError, match="polymer 'zz' is not in the system"):
            PL.partition_function(self.SYS, ["a", "zz"])

    def test_xi_polynomial(self):
        with pytest.raises(ValueError, match="polymer 'zz' is not in the system"):
            PL.xi_polynomial(self.SYS, ["zz"])

    def test_cluster_log_truncated(self):
        with pytest.raises(ValueError, match="polymer 'zz' is not in the system"):
            PL.cluster_log_truncated(self.SYS, ["b", "zz"], order=2)

    def test_pinned_series(self):
        with pytest.raises(ValueError, match="polymer 'zz' is not in the system"):
            PL.pinned_series(self.SYS, "zz", 2, 0.1)


def test_polymer_imports_nothing_from_ursell():
    # the cluster series rests on no Ursell route, so the partition formula
    # stays an independent check of it
    tree = ast.parse(Path(PL.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        else:
            continue
        assert "ursell" not in names, ast.dump(node)


class TestPinnedSeries:
    def test_order_zero_is_one(self):
        s = PL.PolymerSystem({"g": 1.0}, [])
        assert PL.pinned_series(s, "g", 0, 0.3).partials == [1.0]

    def test_single_polymer_geometric(self):
        s = PL.PolymerSystem({"g": 1.0}, [])
        ps = PL.pinned_series(s, "g", 4, 0.25)
        assert ps.partials == pytest.approx([sum(0.25**k for k in range(n + 1)) for n in range(5)])

    def test_certified_activity_keeps_pinned_sum_below_mu(self):
        # at rho equal to the strongest radius, rho * pinned series <= mu
        for s, center, mu in ((PL.domino_system(3, 3), None, 1 / 3),
                              (PL.triangular_window(1), (0, 0), 1 / 3)):
            center = center or PL.domino_center(PL.domino_system(5, 5))
            if center not in s.polymers:
                center = s.polymers[0]
            r = PL.criteria(PL.CriterionInput(s, {g: mu for g in s.polymers}))[center].r_fp
            ps = PL.pinned_series(s, center, 4, r)
            assert r * ps.value <= mu + 1e-12

    def test_partials_monotone_and_below_closed_form(self):
        rng = random.Random(21)
        for _ in range(8):
            s = random_system(rng, rng.randint(2, 6), p=0.5)
            rho = {g: 0.3 * s.activity[g] for g in s.polymers}
            g0 = s.polymers[0]
            ps = PL.pinned_series(s, g0, 4, rho)
            assert all(b >= a - 1e-15 for a, b in zip(ps.partials, ps.partials[1:]))
            # closed-form oracle: d(-log Xi(-rho))/d rho_g0 = Xi_{L-N[g0]}/Xi_L at -rho
            neg = {g: -rho[g] for g in s.polymers}
            num = PL.partition_function(s, frozenset(s.polymers) - s.neighborhood(g0),
                                        activities=neg)
            den = PL.partition_function(s, activities=neg)
            assert den > 0
            assert ps.value <= num / den + 1e-10


class TestDeletionRecursion:
    """The one independence-polynomial recursion, through each value type."""

    @pytest.mark.parametrize("seed", range(6))
    def test_pinned_matches_oracle_random(self, seed):
        rng = random.Random(100 + seed)
        s = random_system(rng, rng.randint(2, 8), p=0.5)
        g0 = rng.choice(s.polymers)
        for rho in (rng.uniform(0.01, 0.3), {g: rng.uniform(0.01, 0.3) for g in s.polymers}):
            got = PL.pinned_series(s, g0, 4, rho).partials
            want = pinned_oracle(s, g0, 4, rho)
            assert len(got) == len(want) == 5
            assert all(math.isclose(g, w, rel_tol=1e-13) for g, w in zip(got, want)), (got, want)

    @pytest.mark.parametrize("width,order", [(3, 4), (5, 4)])
    def test_pinned_matches_oracle_domino(self, width, order):
        s = PL.domino_system(width, width)
        g0 = PL.domino_center(PL.domino_system(5, 5))
        for rho in (0.05, 0.0371):
            got = PL.pinned_series(s, g0, order, rho).partials
            want = pinned_oracle(s, g0, order, rho)
            assert all(math.isclose(g, w, rel_tol=1e-13) for g, w in zip(got, want)), (got, want)

    @pytest.mark.parametrize("rho,want", [
        (0.05, ["0x1.0000000000000p+0", "0x1.599999999999ap+0", "0x1.7cccccccccccdp+0",
                "0x1.8b4bc6a7ef9dbp+0", "0x1.916dc5d638866p+0", "0x1.94126e978d4fep+0",
                "0x1.953a209aaa3adp+0", "0x1.95bcb960087e5p+0", "0x1.95f6e1e537d2bp+0"]),
        (0.0371, ["0x1.0000000000000p+0", "0x1.427bb2fec56d6p+0", "0x1.55dcf1073eb8ap+0",
                  "0x1.5bc8f19e46391p+0", "0x1.5da4d7a622389p+0", "0x1.5e3d0898109a4p+0",
                  "0x1.5e6e61a2919c4p+0", "0x1.5e7e8da1076dfp+0", "0x1.5e83e59e5a41ap+0"]),
    ])
    def test_pinned_domino_bit_for_bit(self, rho, want):
        # each partial is an exact integer quotient rounded once, so any change
        # to the series division or the common-denominator rounding shows here
        s = PL.domino_system(5, 5)
        got = PL.pinned_series(s, PL.domino_center(s), 8, rho).partials
        assert [float.hex(p) for p in got] == want

    def test_pinned_exact_fraction_activities(self):
        # denominators 3, 5 and 7: the common denominator is their lcm, not
        # any one of them
        s = PL.PolymerSystem({"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b"), ("b", "c")])
        rho = {"a": Fraction(1, 3), "b": Fraction(2, 5), "c": Fraction(1, 7)}
        got = PL.pinned_series(s, "b", 6, rho).partials
        want = pinned_oracle(s, "b", 6, rho)
        assert all(math.isclose(g, w, rel_tol=1e-13) for g, w in zip(got, want)), (got, want)

    def test_pinned_order_sixteen_approaches_ratio(self):
        s = PL.domino_system(5, 5)
        g0 = PL.domino_center(s)
        rho = 0.05
        partials = PL.pinned_series(s, g0, PL.PINNED_ORDER_CAP, rho).partials
        assert len(partials) == 17
        assert all(b >= a for a, b in zip(partials, partials[1:]))
        neg = {g: -rho for g in s.polymers}
        ratio = (PL.partition_function(s, frozenset(s.polymers) - s.neighborhood(g0), activities=neg)
                 / PL.partition_function(s, activities=neg))
        assert partials[-1] < ratio < partials[-1] + 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_xi_polynomial_matches_family_enumeration(self, seed):
        rng = random.Random(200 + seed)
        s = random_system(rng, rng.randint(6, 13), p=rng.choice([0.2, 0.4, 0.6]))
        want = PL.ActivityPolynomial()
        for family in compatible_families(s):
            want.add_monomial(family, 1)
        got = PL.xi_polynomial(s)
        assert got == want
        assert got.evaluate(s.activity) == pytest.approx(brute_force_xi(s), rel=1e-12)

    def test_xi_polynomial_domino_and_region(self):
        s = PL.domino_system(3, 3)
        families = compatible_families(s)
        got = PL.xi_polynomial(s)
        assert len(got.terms) == len(families)
        assert all(got.coefficient(f) == 1 for f in families)
        region = s.polymers[:5]
        sub = PL.PolymerSystem({g: 1.0 for g in region},
                               [(a, b) for a, b in combinations(region, 2) if s.incompatible(a, b)])
        want = PL.ActivityPolynomial()
        for family in compatible_families(sub):
            want.add_monomial(family, 1)
        assert PL.xi_polynomial(s, region) == want

    def test_largest_region(self):
        n = PL.VOLUME_CAP
        s = PL.PolymerSystem({k: 0.01 for k in range(n)}, [])
        assert PL.partition_function(s) == pytest.approx(1.01 ** n, rel=1e-12)
        assert PL.pinned_series(s, 0, 3, 0.01).partials == pytest.approx([1.0, 1.01, 1.0101, 1.010101])

    def test_refuses_volume_cap(self):
        s = PL.PolymerSystem({k: 0.01 for k in range(PL.VOLUME_CAP + 1)}, [])
        for call in (lambda: PL.partition_function(s), lambda: PL.pinned_series(s, 0, 2, 0.01)):
            with pytest.raises(ValueError, match=f"capped at {PL.VOLUME_CAP} polymers"):
                call()

    def test_refuses_state_cap(self, monkeypatch):
        s = PL.domino_system(3, 3)
        assert PL.partition_function(s) > 1
        monkeypatch.setattr(PL, "STATE_CAP", 10)
        for call in (lambda: PL.partition_function(s), lambda: PL.xi_polynomial(s),
                     lambda: PL.pinned_series(s, s.polymers[0], 3, 0.1)):
            with pytest.raises(CapExceededError, match="capped at 10 memo states"):
                call()

    def test_refuses_pinned_order_cap(self):
        s = PL.PolymerSystem({"g": 1.0}, [])
        assert len(PL.pinned_series(s, "g", PL.PINNED_ORDER_CAP, 0.5).partials) == 17
        with pytest.raises(ValueError, match=f"order capped at {PL.PINNED_ORDER_CAP}"):
            PL.pinned_series(s, "g", PL.PINNED_ORDER_CAP + 1, 0.5)



class TestFixedPoint:
    def test_zero_iterations_returns_rho(self):
        s = PL.PolymerSystem({"g": 1.0}, [])
        assert PL.fixed_point_iterate(s, 0.25, 0).values["g"] == 0.25

    def test_single_polymer_fixed_point(self):
        s = PL.PolymerSystem({"g": 1.0}, [])
        fp = PL.fixed_point_iterate(s, 0.25, 300)
        assert fp.converged
        assert fp.values["g"] == pytest.approx(1 / 3, abs=1e-10)

    def test_monotone_coordinates(self):
        s = PL.domino_system(3, 3)
        prev = None
        for k in (1, 2, 4, 8):
            vals = PL.fixed_point_iterate(s, 0.05, k).values
            if prev is not None:
                assert all(vals[g] >= prev[g] - 1e-15 for g in s.polymers)
            prev = vals

    def test_domino_converges_below_threshold(self):
        s = PL.domino_system(5, 5)
        fp = PL.fixed_point_iterate(s, 0.05, 400)
        assert fp.converged and not fp.diverged

    def test_domino_diverges_above_threshold(self):
        s = PL.domino_system(5, 5)
        fp = PL.fixed_point_iterate(s, 0.2, 400)
        assert fp.diverged

    def test_mu_violation_flag(self):
        # rho = 0.6 sits above the radius mu/(1+mu) = 1/2, so the iterates
        # climb past mu = 1
        s = PL.PolymerSystem({"g": 1.0}, [])
        fp = PL.fixed_point_iterate(s, 0.6, 100, mu={"g": 1.0})
        assert fp.exceeded_mu


class TestCriteria:
    def test_isolated_polymer_closed_forms(self):
        s = PL.PolymerSystem({"g": 1.0}, [])
        r = PL.criteria(PL.CriterionInput(s, {"g": 0.7}))["g"]
        assert r.r_kp == pytest.approx(0.7 * math.exp(-0.7), abs=1e-15)
        assert r.r_dob == pytest.approx(0.7 / 1.7, abs=1e-15)
        assert r.r_fp == pytest.approx(0.7 / 1.7, abs=1e-15)

    def test_chain_ordering_random(self):
        rng = random.Random(31)
        for _ in range(10):
            s = random_system(rng, rng.randint(2, 8))
            mu = {g: rng.uniform(0.05, 1.5) for g in s.polymers}
            for r in PL.criteria(PL.CriterionInput(s, mu)).values():
                assert r.r_fp >= r.r_dob - 1e-15
                assert r.r_dob >= r.r_kp - 1e-15

    def test_domino_optimised_thresholds(self):
        s = PL.domino_system(5, 5)
        center = PL.domino_center(s)
        _, rkp = PL.optimize_constant_mu(s, center, "kp")
        _, rdb = PL.optimize_constant_mu(s, center, "dob")
        _, rfp = PL.optimize_constant_mu(s, center, "fp")
        assert rkp == pytest.approx(1 / (7 * math.e), rel=1e-8)
        assert rdb == pytest.approx((1 / 6) / (7 / 6) ** 7, rel=1e-8)
        assert rfp == pytest.approx(1 / 13, rel=1e-8)

    def test_triangular_lattice_values(self):
        s = PL.triangular_window(2)
        r = PL.constant_mu_radius(s, (0, 0), "fp", 1 / 3)
        assert r == pytest.approx((1 / 3) / (1 + 7 / 3 + 1 + 2 / 27), rel=1e-12)
        # the neighborhood partition function is 1 + 7c + 9c^2 + 2c^3
        c = 0.21
        xi = PL.partition_function(s, s.neighborhood((0, 0)),
                                   activities={g: c for g in s.polymers})
        assert xi == pytest.approx(1 + 7 * c + 9 * c**2 + 2 * c**3, rel=1e-12)

    @pytest.mark.parametrize("model", ["domino", "triangular", "star30"])
    def test_one_polymer_radius_matches_criteria(self, model):
        s = {"domino": lambda: PL.domino_system(5, 5),
             "triangular": lambda: PL.triangular_window(2),
             "star30": lambda: PL.delta_regular_system(30)}[model]()
        for c in (1e-3, 0.05, 1 / 3, 2.5):
            full = PL.criteria(PL.CriterionInput(s, {g: c for g in s.polymers}))
            for g in s.polymers:
                r = full[g]
                assert r.fp_exact
                for which, field in (("kp", r.r_kp), ("dob", r.r_dob), ("fp", r.r_fp)):
                    assert PL.constant_mu_radius(s, g, which, c) == field  # bit for bit
            if model == "star30":  # the centre's neighborhood partition function is c + (1 + c)^30
                assert full["c"].r_fp == pytest.approx(c / (c + (1 + c) ** 30), rel=1e-12)
                assert full["c"].r_fp > full["c"].r_dob

    def test_fp_falls_back_where_the_recursion_refuses(self, monkeypatch):
        s = PL.delta_regular_system(30)
        mu = {g: 0.05 for g in s.polymers}
        monkeypatch.setattr(PL, "VOLUME_CAP", 30)
        full = PL.criteria(PL.CriterionInput(s, mu))
        centre, leaf = full["c"], next(r for g, r in full.items() if g != "c")
        assert not centre.fp_exact and leaf.fp_exact
        assert centre.r_fp == pytest.approx(0.05 / 1.05**31, rel=1e-12)  # the product bound
        assert PL.constant_mu_radius(s, "c", "fp", 0.05) == centre.r_fp

    def test_one_polymer_radius_refusals(self):
        s = PL.triangular_window(1)
        with pytest.raises(ValueError, match="unknown criterion"):
            PL.constant_mu_radius(s, (0, 0), "shearer", 0.1)
        with pytest.raises(ValueError, match="positive"):
            PL.constant_mu_radius(s, (0, 0), "kp", 0.0)

    def test_regular_graph_closed_forms(self):
        assert PL.regular_graph_thresholds(2)[0] == pytest.approx(1 / (3 * math.e), abs=1e-15)
        assert PL.regular_graph_thresholds(4)[2] == pytest.approx(27 / 283, abs=1e-15)
        kp, dob, fp = PL.regular_graph_thresholds(6)
        assert fp == pytest.approx(1 / (1 + 6**6 / 5**5), abs=1e-15)
        assert dob == pytest.approx(6**6 / 7**7, abs=1e-15)
        assert kp <= dob <= fp

    def test_regular_graph_vs_numeric_optimum(self):
        for delta in (3, 6, 23, 40):  # from 23 on, e^(sum mu) overflows on the mu grid
            s = PL.delta_regular_system(delta)
            _, rfp = PL.optimize_constant_mu(s, "c", "fp")
            assert rfp == pytest.approx(PL.regular_graph_thresholds(delta)[2], rel=1e-10)
            _, rkp = PL.optimize_constant_mu(s, "c", "kp")
            assert rkp == pytest.approx(PL.regular_graph_thresholds(delta)[0], rel=1e-8)

    def test_radii_do_not_follow_the_hash_seed(self):
        # str polymers hash differently under each seed; the float sums must not
        script = ("from clusterexp import polymer as PL\n"
                  "s = PL.delta_regular_system(130)\n"
                  "mu = {g: 0.01 * (1 + k % 7) for k, g in enumerate(s.polymers)}\n"
                  "print(repr(PL.criteria(PL.CriterionInput(s, mu))))\n")
        path = [str(Path(PL.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        pythonpath = os.pathsep.join(p for p in path if p)
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestSubsetGas:
    def test_singleton_tight(self):
        a = math.log(2.0)
        s = PL.subset_gas_system(["x"], {frozenset({"x"}): 1 - math.exp(-a)})
        rep = PL.subset_gas_check(s, a)
        assert rep.condition.satisfied and rep.verified
        assert rep.max_pinned_sum == pytest.approx(a, abs=1e-12)

    def test_zero_activities(self):
        s = PL.subset_gas_system(["x", "y"], {frozenset({"x"}): 0.0, frozenset({"x", "y"}): 0.0})
        rep = PL.subset_gas_check(s)
        assert rep.condition.satisfied and rep.verified and rep.condition.value == 0.0

    def test_random_passing_systems_verify(self):
        rng = random.Random(11)
        for _ in range(6):
            s = PL.random_subset_gas(list(range(8)), 10, 3, rng)
            rep = PL.subset_gas_check(s)
            assert rep.condition.satisfied
            assert rep.verified
            assert rep.max_pinned_sum <= math.log(2.0) + 1e-9

    def test_random_gas_refuses_more_polymers_than_subsets(self):
        rng = random.Random(0)
        assert len(PL.random_subset_gas(list(range(8)), 92, 3, rng)) == 92  # C(8,1..3) = 8+28+56
        for count in (0, 93, 300):
            with pytest.raises(ValueError, match="n_polymers <= 92"):
                PL.random_subset_gas(list(range(8)), count, 3, rng)
        with pytest.raises(ValueError, match="empty vertex list"):
            PL.random_subset_gas([], 1, 3, rng)

    def test_violated_condition_reported(self):
        s = PL.subset_gas_system(["x", "y"], {frozenset({"x"}): 3.0, frozenset({"y"}): 3.0})
        rep = PL.subset_gas_check(s)
        assert not rep.condition.satisfied and not rep

    def test_random_gases_match_the_memo_recursion(self):
        rng = random.Random(1913)
        for trial in range(240):
            nv = 1 + trial % 12
            size = rng.randint(1, min(3, nv))
            count = rng.randint(1, min(16, sum(math.comb(nv, k) for k in range(1, size + 1))))
            a = rng.choice([0.05, 0.3, math.log(2.0), 1.0])
            s = PL.random_subset_gas(list(range(nv)), count, size, rng, a=a)
            rep = PL.subset_gas_check(s, a)
            vertices = sorted({x for g in s.polymers for x in g}, key=repr)
            by_vertex = [[] for _ in vertices]
            for g in s.polymers:
                by_vertex[min(vertices.index(x) for x in g)].append(
                    (sum(1 << vertices.index(x) for x in g), s.activity[g]))
            verified, checked, worst, zero = induction_oracle(by_vertex, a)
            crossing = None if zero is None else frozenset(
                x for k, x in enumerate(vertices) if zero >> k & 1)
            assert repr((rep.verified, rep.checked_volumes, rep.max_pinned_sum,
                         rep.zero_crossing)) == repr((verified, checked, worst, crossing))

    def test_failure_branches_match_the_memo_recursion(self):
        # activities past the condition, fed to the induction directly: each
        # kind of outcome must occur and repeat the recursion's report
        rng = random.Random(1917)
        kinds = Counter()
        for trial in range(300):
            nv = 1 + trial % 10
            a = rng.choice([0.05, 0.3, math.log(2.0), 1.0])
            by_vertex = [[] for _ in range(nv)]
            for _ in range(rng.randint(1, 2 * nv)):
                mask = rng.randint(1, (1 << nv) - 1)
                by_vertex[(mask & -mask).bit_length() - 1].append(
                    (mask, rng.uniform(0.0, rng.choice([0.2, 0.6, 1.2]))))
            got = PL._subset_gas_induction(by_vertex, a)
            want = induction_oracle(by_vertex, a)
            assert repr(got) == repr(want), (trial, got, want)
            kinds["verified" if got[0] else "pinned" if got[3] is None else "zero"] += 1
        assert min(kinds[k] for k in ("verified", "pinned", "zero")) >= 20, kinds

    @pytest.mark.parametrize("by_vertex, a, want", [
        ([[(1, 1.0)]], 0.3, (False, 1, math.nan, 1)),  # Xi({x}) = 0
        ([[(1, 0.6)]], 0.3, (False, 1, -math.log(0.4), None)),  # pinned sum 0.916 > a
        ([[(1, 0.1), (3, 0.85)], [(2, 0.1)]], 0.3,  # Xi({x, y}) = 0.9 - 0.09 - 0.85 < 0
         (False, 3, math.nan, 3)),
        ([[(1, 0.1)], [(2, 0.5)]], 0.3,  # the first pass is at {y}; {x} stays below it
         (False, 2, -math.log(0.5), None)),
    ])
    def test_crafted_failures(self, by_vertex, a, want):
        assert repr(PL._subset_gas_induction(by_vertex, a)) == repr(want)
        assert repr(induction_oracle(by_vertex, a)) == repr(want)


class TestBoundsCatalog:
    def test_bounded_spin_threshold(self):
        rep = PL.bounds_catalog("bounded_spin", c=1.0, J=1.0)
        assert rep.threshold == pytest.approx(0.058, abs=1e-15)

    def test_beg_example(self):
        rep = PL.bounds_catalog("beg_disordered", d=3, X=10.0, Y=1.0)
        assert rep.inputs["D"] == pytest.approx(4.0)
        assert rep.threshold == pytest.approx(math.log(3 * 2**13) / 4, rel=1e-14)

    def test_beg_requires_disordered_phase(self):
        with pytest.raises(ValueError):
            PL.bounds_catalog("beg_disordered", d=3, X=1.0, Y=1.0)

    def test_unbounded_spin_root_matches_closed_form(self):
        rep = PL.bounds_catalog("unbounded_spin")
        assert rep.threshold == pytest.approx((math.e - 1) / (4 * math.e**2), abs=1e-14)
        assert rep.inputs["root_solved"] == pytest.approx(rep.threshold, abs=1e-12)

    def test_lattice_gas_conditions(self):
        direct = PL.bounds_catalog("lattice_gas_direct", beta=0.1, J=1.0, lam=0.05)
        assert direct.satisfied is True
        poly = PL.bounds_catalog("lattice_gas_polymer", beta=0.1, J=1.0)
        assert poly.threshold > direct.threshold

    def test_nbody_and_israel(self):
        assert PL.bounds_catalog("nbody_lattice_gas", z=0.001, beta=0.1, J=1.0).satisfied
        assert not PL.bounds_catalog("nbody_lattice_gas", z=10.0, beta=1.0, J=1.0).satisfied
        rep = PL.bounds_catalog("israel", I_a=0.01, I_bar=0.5, a=1.0)
        assert rep.satisfied == (0.01 < math.exp(-0.5) / 4)

    def test_many_body_conditions(self):
        rep = PL.bounds_catalog("many_body_hierarchy", K=0.05, sigma_bar=0.5)
        assert rep.satisfied == (0.05 < math.log(2) / 4)
        rep = PL.bounds_catalog("many_body_refined", K=0.05, sigma_bar=0.3, a=0.3)
        assert rep.satisfied is not None

    def test_ising_crude(self):
        assert PL.bounds_catalog("ising_high_t_crude", beta=4e-5, J=1.0, d=2).satisfied

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown bound"):
            PL.bounds_catalog("nope")

    def test_missing_and_unknown_parameters_named(self):
        with pytest.raises(ValueError, match="missing parameter 'I_a', missing parameter 'I_bar'"):
            PL.bounds_catalog("israel", a=1.0)
        with pytest.raises(ValueError, match="unknown parameter 'zz'"):
            PL.bounds_catalog("israel", I_a=0.01, I_bar=0.5, a=1.0, zz=2.0)


class TestAdjacencyText:
    def test_parse_and_evaluate(self):
        text = """
        # three polymers, one incompatible pair
        a ; b ; 0.5
        b ; a ; 0.25
        c ; ; 0.1
        """
        s = PL.system_from_adjacency_text(text)
        assert PL.partition_function(s) == pytest.approx(1.75 * 1.1, rel=1e-12)

    def test_unknown_neighbor_rejected(self):
        with pytest.raises(ValueError, match="never declared"):
            PL.system_from_adjacency_text("a ; zz ; 0.5")

    @pytest.mark.parametrize("line", ["b ; a", "a ; b ; 0.5 ; 1", "a ; b ; x"])
    def test_malformed_line_rejected_by_name(self, line):
        with pytest.raises(ValueError, match=f"'{line}' is not of the form id ; neighbors ; activity"):
            PL.system_from_adjacency_text(f"c ; ; 0.1\n{line}\n")

import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from clusterexp import mayer as M
from clusterexp import potentials as P
from clusterexp.graphs import CapExceededError
from clusterexp.numerics import bisect_root
from clusterexp.polymer import _multiplicity_factorial
from clusterexp.ursell import INF, InteractionMatrix, ursell_graph_sum

STEP = P.step_table([0.5, 1.0], [math.inf, -0.3])
CORED_WELL = P.square_well(math.inf, 0.5, 1.0)  # on-site core, -1 out to the diagonal


def multiset_oracle(volume, spec, beta: float, n_max: int) -> list:
    """Oracle: C_n = (1 / (n! |volume|)) sum over n-tuples of sites of Phi,
    grouped by multiset, with Phi from the Ursell graph sum; exact Fractions
    when every pair value is 0 or +inf."""
    m = volume.size
    vals = [[INF] * m for _ in range(m)]
    for i, j in combinations(range(m), 2):
        v = P.potential_eval(spec, volume.distance(i, j))
        vals[i][j] = vals[j][i] = v if v == INF else beta * v
    hard = all(v in (0.0, INF) for row in vals for v in row)
    out = [Fraction(1) if hard else 1.0]
    for n in range(2, n_max + 1):
        total = Fraction(0) if hard else 0.0
        phis: dict = {}
        for combo in combinations_with_replacement(range(m), n):
            key = tuple(vals[combo[a]][combo[b]] for a, b in combinations(range(n), 2))
            phi = phis.get(key)
            if phi is None:
                phi = phis[key] = ursell_graph_sum(InteractionMatrix(n, key))
            if phi:
                denom = _multiplicity_factorial(combo)
                total += Fraction(phi, denom) if hard else phi / denom
        out.append(total / m)
    return out


def random_volumes(count: int = 8, sites: int = 6, seed: int = 17):
    rng = random.Random(seed)
    for _ in range(count):
        pts = set()
        while len(pts) < sites:
            pts.add((rng.randrange(4), rng.randrange(4)))
        yield M.DiscreteVolume(tuple((float(x), float(y)) for x, y in pts))


def independent_set_polynomial(adjacency: dict[int, set[int]], m: int) -> list[Fraction]:
    """Oracle: coefficients of sum over independent sets of lambda^|S|."""
    coeffs = [Fraction(0)] * (m + 1)

    def rec(start: int, chosen: list[int]):
        coeffs[len(chosen)] += 1
        for v in range(start, m):
            if all(v not in adjacency[u] for u in chosen):
                chosen.append(v)
                rec(v + 1, chosen)
                chosen.pop()

    rec(0, [])
    return coeffs


def log_series_per_site(poly: list[Fraction], order: int, sites: int) -> list[Fraction]:
    """Oracle: coefficients of log(poly)/sites through the given order."""
    assert poly[0] == 1
    u = [c for c in poly[1:order + 1]] + [Fraction(0)] * max(0, order - len(poly) + 1)
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order  # u^k accumulator
    for k in range(1, order + 1):
        new = [Fraction(0)] * (order + 1)
        for d1, c1 in enumerate(power):
            if not c1:
                continue
            for d2, c2 in enumerate(u, start=1):
                if d1 + d2 <= order and c2:
                    new[d1 + d2] += c1 * c2
        power = new
        sign = Fraction((-1) ** (k - 1), k)
        for d in range(order + 1):
            out[d] += sign * power[d]
    return [c / sites for c in out]


class TestCoefficients:
    def test_on_site_exclusion(self):
        # pure on-site exclusion: pressure per site is log(1 + lam)
        vol = M.DiscreteVolume.path(6, spacing=10.0)
        recs = M.mayer_coefficients(vol, P.hard_core(0.5), 1.0, 5)
        for r in recs:
            assert r.value == Fraction((-1) ** (r.n - 1), r.n)

    def test_path_lattice_against_polynomial_oracle(self):
        # nearest-neighbour exclusion on a 4-site path
        vol = M.DiscreteVolume.path(4, spacing=1.0)
        recs = M.mayer_coefficients(vol, P.hard_core(1.0), 1.0, 3)
        adjacency = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        xi = independent_set_polynomial(adjacency, 4)
        assert xi[:3] == [1, 4, 3]  # sanity: path independent sets
        series = log_series_per_site(xi, 3, 4)
        assert recs[1].value == series[2] == Fraction(-5, 4)
        assert recs[2].value == series[3]

    def test_grid_against_polynomial_oracle(self):
        vol = M.DiscreteVolume.grid(2, 3, spacing=1.0)
        recs = M.mayer_coefficients(vol, P.hard_core(1.0), 1.0, 4)
        adjacency = {i: set() for i in range(6)}
        for i in range(6):
            for j in range(6):
                if i != j and vol.distance(i, j) <= 1.0:
                    adjacency[i].add(j)
        series = log_series_per_site(independent_set_polynomial(adjacency, 6), 4, 6)
        for r in recs:
            assert r.value == series[r.n]

    def test_bounds_dominate_on_random_volumes(self):
        for vol in random_volumes():
            recs = M.mayer_coefficients(vol, P.hard_core(1.0), 1.0, 4)
            for r in recs[1:]:
                assert r.within_bounds(), r

    def test_requires_on_site_core(self):
        with pytest.raises(ValueError, match="on-site"):
            M.mayer_coefficients(M.DiscreteVolume.path(3), P.square_well(1.0, 0.5, 0.1), 1.0, 2)

    def test_alternating_signs_nonnegative(self):
        vol = M.DiscreteVolume.grid(2, 2)
        recs = M.mayer_coefficients(vol, P.hard_core(1.0), 1.0, 4)
        for r in recs:
            assert (-1) ** (r.n - 1) * r.value >= 0


class TestTransfer:
    """The grand-partition transfer against the multiset graph-sum oracle."""

    @pytest.mark.parametrize("vol,n_max", [
        (M.DiscreteVolume.path(2), 6),
        (M.DiscreteVolume.path(7), 6),
        (M.DiscreteVolume.grid(2, 3), 6),
        (M.DiscreteVolume.grid(3, 3), 6),
        (M.DiscreteVolume.grid(3, 4, spacing=0.8), 5),
        (M.DiscreteVolume.grid(4, 4), 6),
    ])
    def test_hard_core_identical_fractions(self, vol, n_max):
        got = [r.value for r in M.mayer_coefficients(vol, P.hard_core(1.0), 1.0, n_max)]
        assert got == multiset_oracle(vol, P.hard_core(1.0), 1.0, n_max)
        assert all(type(v) is Fraction for v in got)

    def test_hard_core_random_volumes(self):
        for vol in random_volumes():
            got = [r.value for r in M.mayer_coefficients(vol, P.hard_core(1.0), 1.0, 6)]
            assert got == multiset_oracle(vol, P.hard_core(1.0), 1.0, 6)

    def test_published_grids(self):
        # 4x4 as in the benchmark; 5x5 agreed with the multiset oracle exactly
        # (too slow for this suite)
        recs = M.mayer_coefficients(M.DiscreteVolume.grid(4, 4), P.hard_core(1.0), 1.0, 6)
        assert [r.value for r in recs] == [Fraction(1), Fraction(-2), Fraction(79, 12),
                                           Fraction(-427, 16), Fraction(606, 5),
                                           Fraction(-14161, 24)]
        recs = M.mayer_coefficients(M.DiscreteVolume.grid(5, 5), P.hard_core(1.0), 1.0, 6)
        assert [r.value for r in recs] == [Fraction(1), Fraction(-21, 10), Fraction(547, 75),
                                           Fraction(-3129, 100), Fraction(3776, 25),
                                           Fraction(-39281, 50)]

    @pytest.mark.parametrize("spec,beta,n_max", [(STEP, 1.1, 6), (CORED_WELL, 0.7, 5)])
    def test_soft_tables_close(self, spec, beta, n_max):
        vol = M.DiscreteVolume.grid(3, 3)
        got = [r.value for r in M.mayer_coefficients(vol, spec, beta, n_max)]
        want = multiset_oracle(vol, spec, beta, n_max)
        assert all(type(v) is float for v in got)
        for g, w in zip(got, want, strict=True):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-300)
        again = [r.value for r in M.mayer_coefficients(vol, spec, beta, n_max)]
        assert again == got  # bit for bit

    @pytest.mark.parametrize("beta,want", [
        (0.77, ["0x1.0000000000000p+0", "-0x1.3a6939b55b1e0p-3", "-0x1.8e74fc1004217p-3",
                "0x1.702b3430f4e6ap-3", "0x1.9a74e34140438p-6", "-0x1.d4afee8f77ba5p-4"]),
        (1.4, ["0x1.0000000000000p+0", "0x1.914d92cc47dcbp-3", "-0x1.92032e03c5b34p-2",
               "-0x1.bae7563daf565p-3", "0x1.565daf8770e9ap-3", "0x1.063b1b47620fep+0"]),
    ])
    def test_step_table_pinned_bit_for_bit(self, beta, want):
        # each C_n is one exact rational rounded once, so any change to the
        # arithmetic of the transfer or of Series.log shows in these bits
        recs = M.mayer_coefficients(M.DiscreteVolume.grid(3, 3), STEP, beta, 6)
        assert [float.hex(r.value) for r in recs] == want

    def test_site_order_does_not_matter(self):
        vol = M.DiscreteVolume.grid(3, 4)
        shuffled = list(vol.sites)
        random.Random(5).shuffle(shuffled)
        for spec in (P.hard_core(1.5), CORED_WELL):
            a = [r.value for r in M.mayer_coefficients(vol, spec, 0.9, 6)]
            b = [r.value for r in M.mayer_coefficients(M.DiscreteVolume(tuple(shuffled)), spec, 0.9, 6)]
            assert b == pytest.approx(a, rel=1e-13)

    def test_one_site_volume(self):
        vol = M.DiscreteVolume(((0.0, 0.0),))
        recs = M.mayer_coefficients(vol, CORED_WELL, 1.0, 6)
        assert [r.value for r in recs] == [Fraction((-1) ** (n - 1), n) for n in range(1, 7)]

    @pytest.mark.parametrize("spec,want", [(P.hard_core(1.0), Fraction(1)), (STEP, 1.0)])
    def test_n_max_one(self, spec, want):
        recs = M.mayer_coefficients(M.DiscreteVolume.grid(3, 3), spec, 1.0, 1)
        assert len(recs) == 1 and recs[0].n == 1
        assert recs[0].value == want and type(recs[0].value) is type(want)
        assert (recs[0].bound_pr, recs[0].bound_py, recs[0].bound_basuev) == (None, None, None)

    def test_empty_volume_refused(self):
        with pytest.raises(ValueError, match="1 to 64 sites"):
            M.mayer_coefficients(M.DiscreteVolume(()), P.hard_core(1.0), 1.0, 2)

    def test_overflowing_weight_refused(self):
        # each pair weight e^400 is finite; three mutual neighbours are not
        deep = P.step_table([0.5, 2.5], [math.inf, -400.0])
        M.mayer_coefficients(M.DiscreteVolume.path(3), deep, 1.0, 2)
        with pytest.raises(ValueError, match="overflows a float"):
            M.mayer_coefficients(M.DiscreteVolume.path(3), deep, 1.0, 3)


class TestCaps:
    def test_bounds_hold_to_order_twelve(self):
        recs = M.mayer_coefficients(M.DiscreteVolume.grid(6, 6), P.hard_core(1.0), 1.0, 12)
        assert len(recs) == 12
        for r in recs[1:]:
            assert r.within_bounds(), r
        # the bounds bite: the largest ratio to the tightest bound is 13/15
        ratio = max(abs(r.value) / min(b for b in (r.bound_pr, r.bound_py) if b is not None)
                    for r in recs[1:])
        assert 0.8 < ratio < 1

    def test_n_max_cap(self):
        assert M.N_MAX_CAP == 16
        M.mayer_coefficients(M.DiscreteVolume.grid(3, 3), P.hard_core(1.0), 1.0, 16)
        with pytest.raises(ValueError, match="n_max capped at 16"):
            M.mayer_coefficients(M.DiscreteVolume.grid(3, 3), P.hard_core(1.0), 1.0, 17)

    def test_state_cap_refuses_long_range(self):
        # every pair interacts: the frontier grows to 63 sites
        with pytest.raises(CapExceededError, match="capped at 65536 frontier states") as exc:
            M.mayer_coefficients(M.DiscreteVolume.grid(8, 8), P.hard_core(20.0), 1.0, 16)
        assert "frontier of 63 sites" in str(exc.value)
        assert isinstance(exc.value, ValueError)


class TestBounds:
    def test_n2_collapse(self):
        pr, py, bas = M.mayer_bounds(2, 1.0, 0.0, None, 3.0, 2.0)
        assert pr == pytest.approx(1.5, abs=1e-15)
        assert py == pytest.approx(1.0, abs=1e-15)
        assert bas is None

    def test_n3_arithmetic(self):
        pr, _, _ = M.mayer_bounds(3, 1.0, 1.0, None, 1.0, 1.0)
        assert pr == pytest.approx(math.e**2 / 2, rel=1e-13)

    def test_py_below_pr(self):
        # ratio PY/PR = e^(beta B (4-n)) (Ctilde/C)^(n-1): dominance holds for
        # every n when B = 0 and from n = 4 on otherwise
        for n in (2, 3, 5, 8):
            pr, py, _ = M.mayer_bounds(n, 1.0, 0.0, None, 2.0, 1.5)
            assert py <= pr
        for n in (4, 5, 8):
            pr, py, _ = M.mayer_bounds(n, 1.0, 0.7, None, 2.0, 1.5)
            assert py <= pr

    def test_log_space_large_n(self):
        pr, py, bas = M.mayer_bounds(60, 1.0, 1.0, 1.0, 2.0, 1.5)
        assert all(math.isfinite(b) or b == math.inf for b in (pr, py, bas))


class TestRadii:
    def test_ratio_one_for_repulsive(self):
        rb = M.radius_bounds(1.0, 0.0, 2.0, 2.0)
        assert rb.ratio == pytest.approx(1.0, abs=1e-15)

    def test_ratio_always_at_least_one(self):
        rng = random.Random(2)
        for _ in range(20):
            c = rng.uniform(0.5, 5.0)
            ct = rng.uniform(0.1, 1.0) * c
            rb = M.radius_bounds(rng.uniform(0.1, 5.0), rng.uniform(0.0, 3.0), c, ct)
            assert rb.ratio >= 1.0 - 1e-12
            assert rb.r_star >= rb.r_pr * (1 - 1e-12)


class TestKSRecursion:
    def test_seed_value(self):
        K = M.ks_recursion(6, 1.0, 0.5, 0.3)
        assert K[(1, 0)] == 1.0

    def test_first_diagonal(self):
        beta, B, C = 1.0, 0.5, 0.3
        K = M.ks_recursion(6, beta, B, C)
        assert K[(2, 0)] == pytest.approx(math.exp(2 * beta * B), rel=1e-14)
        assert K[(1, 1)] == pytest.approx(C * math.exp(2 * beta * B), rel=1e-14)

    @pytest.mark.parametrize("beta,B,C", [(1.0, 0.5, 0.3), (0.5, 0.0, 1.0), (2.0, 0.2, 0.7)])
    def test_matches_closed_form(self, beta, B, C):
        K = M.ks_recursion(12, beta, B, C)
        for (n, l), v in K.items():
            c = M.ks_closed_form(n, l, beta, B, C)
            assert v == pytest.approx(c, rel=1e-9)

    def test_cap(self):
        with pytest.raises(ValueError):
            M.ks_recursion(41, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("beta,B", [(math.inf, 0.0), (1.0, math.inf), (-math.inf, 2.0)])
    def test_nonfinite_beta_B_refused_by_name(self, beta, B):
        with pytest.raises(ValueError, match="beta B = .* is not a finite float"):
            M.ks_recursion(6, beta, B, 0.3)
        with pytest.raises(ValueError, match="beta B = .* is not a finite float"):
            M.radius_bounds(beta, B, 2.0, 1.0)


class TestVirialTools:
    def test_boundary_identity(self):
        w = M.solve_w(1 / math.e)
        assert abs(w * math.exp(-w) - 1 / math.e) < 1e-15
        assert abs(w - 1.0) < 1e-7  # double root: sqrt(eps) is the float limit

    def test_interior_inversion(self):
        for x in (0.01, 0.1, 0.25, 0.35):
            w = M.solve_w(x)
            assert abs(w * math.exp(-w) - x) < 1e-12

    def test_out_of_branch(self):
        with pytest.raises(ValueError, match="branch"):
            M.solve_w(0.5)

    def test_euler_series_converges(self):
        for x in (0.1, 0.2, 0.3):
            w = M.solve_w(x)
            partials = M.euler_partial_sums(x, 80)
            assert all(b >= a for a, b in zip(partials, partials[1:]))
            assert abs(partials[-1] - w) < 1e-9

    def test_two_optimizers_agree(self):
        wg, vg = M.virial_max_golden()
        wn, vn = M.virial_max_newton()
        assert abs(vg - vn) < 1e-12
        assert abs(wg - wn) < 1e-6
        assert vg >= 0.144766
        assert round(vg, 5) == 0.14477

    def test_radius_formula(self):
        assert M.virial_radius(1.0, 0.5, 0.3) == pytest.approx(
            0.14477 / (0.3 * math.exp(0.5)), rel=1e-14)

    def test_radius_refuses_a_nonpositive_ctilde(self):
        assert M.virial_radius(2.0, 0.0, 1.0) == 0.14477
        for ctilde in (0.0, -0.3, math.nan):
            with pytest.raises(ValueError, match="Ctilde > 0"):
                M.virial_radius(1.0, 0.5, ctilde)

    @pytest.mark.parametrize("beta,Bbar", [(1000.0, 1.0), (-1000.0, 1.0), (math.inf, 0.0),
                                           (math.nan, 0.5)])
    def test_radius_refuses_a_radius_past_the_floats(self, beta, Bbar):
        with pytest.raises(ValueError, match="not a finite float"):
            M.virial_radius(beta, Bbar, 0.3)

    def test_branch_edges(self):
        assert M.solve_w(0.0) == 0.0
        assert M.solve_w(1 / math.e) == 1.0
        assert M.solve_w(1 / math.e + 1e-15) == 1.0
        with pytest.raises(ValueError, match="branch"):
            M.solve_w(-1e-300)

    def test_inversion_is_within_one_float_of_a_sign_change(self):
        for x in (1e-300, 1e-9, 0.01, 0.2, 0.3678):
            def f(w):
                return w * math.exp(-w) - x

            w = M.solve_w(x)
            assert 0.0 < w < 1.0
            below, above = math.nextafter(w, 0.0), math.nextafter(w, 1.0)
            assert f(below) <= 0.0 <= f(w) or f(w) <= 0.0 <= f(above)


class TestBisectRoot:
    def test_refuses_a_bracket_without_a_sign_change(self):
        with pytest.raises(ValueError, match="same sign"):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="same sign"):
            bisect_root(lambda x: x - 2.0, 0.0, 1.0)

    def test_a_zero_endpoint_is_the_root(self):
        assert bisect_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert bisect_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_self_dual_coupling_within_one_ulp(self):
        from clusterexp.ising import dual_coupling

        root = bisect_root(lambda b: dual_coupling(b) - b, 0.2, 1.0)
        exact = math.log(1.0 + math.sqrt(2.0)) / 2.0
        assert abs(root - exact) <= math.ulp(exact)

    def test_unbounded_spin_threshold_within_one_ulp(self):
        root = bisect_root(lambda t: -math.log1p(-4.0 * math.e * t) - 1.0,
                           1e-12, 1.0 / (4.0 * math.e) - 1e-12)
        exact = (math.e - 1.0) / (4.0 * math.e**2)
        assert abs(root - exact) <= math.ulp(exact)

    def test_decreasing_function(self):
        root = bisect_root(lambda x: 2.0 - x * x, 0.0, 2.0)
        assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))

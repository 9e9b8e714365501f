import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from clusterexp import ising as I
from clusterexp import oracles as O

BETAS = (0.1, 0.3, 0.7, 1.2)


class TestBruteForce:
    def test_single_site(self):
        assert I.brute_force_Z(1, 0.7) == 2.0

    @pytest.mark.parametrize("bj", BETAS)
    def test_two_by_two_closed_form(self, bj):
        z = I.brute_force_Z(2, bj)
        expect = 2**4 * math.cosh(bj) ** 4 * (1 + math.tanh(bj) ** 4)
        assert z == pytest.approx(expect, rel=1e-12)

    def test_plus_minus_symmetry_exact(self):
        zp = I.brute_force_Z(3, 0.4, boundary="plus")
        zm = I.brute_force_Z(3, 0.4, boundary="minus")
        assert zp == zm

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            I.brute_force_Z(I.TRANSFER_CAP + 1, 0.1)
        with pytest.raises(ValueError, match="capped"):
            O._sweep_density_of_states(O.BRUTE_CAP + 1, "free")

    def test_past_the_float_range(self):
        # e^(30 * 24) is past the largest float: Z is inf, and the
        # magnetization, inf / inf, is refused rather than nan
        assert I.brute_force_Z(4, 30.0) == math.inf
        with pytest.raises(ValueError, match="past the largest float"):
            I.magnetization(4, 30.0)

    @pytest.mark.parametrize("L, beta, boundary", [
        (3, 0.4, "free"), (4, -1.3, "plus"), (4, 17.5, "plus"), (4, -17.5, "minus"),
    ])
    def test_sum_is_the_plain_sum(self, L, beta, boundary):
        # bit for bit the sum over every bin, up to e^(17.5 * 40) near the
        # float range, where an empty bin's weight is already past 1e300
        N, M = I._density_of_states(L, boundary)
        w = np.exp(beta * (N.size - 1 - 2 * np.arange(N.size)))
        z = math.fsum((N * w).tolist())
        assert I.brute_force_Z(L, beta, boundary=boundary) == z
        rep = I.magnetization(L, beta, boundary=boundary)
        assert rep.per_site.tolist() == [math.fsum((m * w).tolist()) / z for m in M]


class TestDensityOfStates:
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_counts_are_the_contour_perimeter_histogram(self, L):
        # geometric route: the opposite pairs under + boundary are the dual
        # edges of the contours, whatever counted them in the table
        N, M = I._density_of_states(L, "plus")
        hist = [0] * N.size
        for cfg in range(1 << (L * L)):
            spins = np.array([1 - 2 * (cfg >> k & 1) for k in range(L * L)])
            hist[sum(len(g) for g in I.spins_to_contours(spins, L))] += 1
        assert N.tolist() == hist
        assert N.dtype == M.dtype == np.int64
        assert not N.flags.writeable and not M.flags.writeable

    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("boundary,h", [("free", 0), ("plus", 1), ("minus", -1)])
    def test_magnetization_matches_scalar_sum(self, L, boundary, h):
        bj = 0.45
        z_terms, m_terms = [], [[] for _ in range(L * L)]
        for cfg in range(1 << (L * L)):
            s = [[1 - 2 * (cfg >> (r * L + c) & 1) for c in range(L)] for r in range(L)]
            e = 0  # -H / J; the outside spin is h, and h = 0 leaves the box free
            for r in range(L):
                for c in range(L):
                    e += s[r][c] * (s[r][c + 1] if c + 1 < L else h)  # right
                    e += s[r][c] * (s[r + 1][c] if r + 1 < L else h)  # below
                    e += s[r][c] * h * ((r == 0) + (c == 0))          # above, left
            w = math.exp(bj * e)
            z_terms.append(w)
            for x in range(L * L):
                m_terms[x].append(s[x // L][x % L] * w)
        z = math.fsum(z_terms)
        expect = [math.fsum(t) / z for t in m_terms]
        rep = I.magnetization(L, bj, boundary=boundary)
        assert rep.per_site.tolist() == pytest.approx(expect, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("boundary", ["free", "plus", "minus"])
    def test_transfer_matches_sweep(self, L, boundary):
        N, M = I._density_of_states(L, boundary)
        N0, M0 = O._sweep_density_of_states(L, boundary)
        assert N.dtype == N0.dtype and M.dtype == M0.dtype
        assert np.array_equal(N, N0) and np.array_equal(M, M0)

    @pytest.mark.parametrize("L", [5, 6])
    def test_van_der_waerden_identity(self, L):
        # sum_k N[k] (1+t)^(E-k) (1-t)^k = 2^(L^2) sum_m c_m t^m in exact
        # integers: the free-boundary histogram against the even subgraphs
        N, _ = I._density_of_states(L, "free")
        E = N.size - 1
        plus = [[math.comb(e, i) for i in range(e + 1)] for e in range(E + 1)]
        minus = [[(-1) ** i * math.comb(e, i) for i in range(e + 1)] for e in range(E + 1)]
        poly = [0] * (E + 1)
        for k, count in enumerate(N.tolist()):
            for i, a in enumerate(plus[E - k]):
                for j, b in enumerate(minus[k]):
                    poly[i + j] += count * a * b
        assert poly == [2 ** (L * L) * c for c in I.even_subgraph_size_counts(L)]

    def test_largest_box(self):
        L = I.TRANSFER_CAP
        assert L == 7
        N, M = I._density_of_states(L, "free")
        assert int(N.sum()) == 2 ** 49 and N[:4].tolist() == [2, 0, 8, 56]
        assert not M.any()
        Np, Mp = I._density_of_states(L, "plus")
        Nm, Mm = I._density_of_states(L, "minus")
        assert int(Np.sum()) == 2 ** 49 and np.array_equal(Np, Nm)
        assert np.array_equal(Mm, -Mp) and Mp.shape == (L * L, 2 * L * (L + 1) + 1)


class TestHighTemperature:
    def test_two_by_two_cycle_space(self):
        xi, _ = I.high_T_polymer_Z(2, 0.37)
        assert xi == pytest.approx(1 + math.tanh(0.37) ** 4, abs=1e-15)

    def test_infinite_temperature(self):
        xi, z = I.high_T_polymer_Z(3, 0.0)
        assert xi == 1.0 and z == 2.0**9

    @pytest.mark.parametrize("L", [2, 3, 4])
    @pytest.mark.parametrize("bj", BETAS)
    def test_reconstruction_matches_brute_force(self, L, bj):
        _, z = I.high_T_polymer_Z(L, bj)
        zb = I.brute_force_Z(L, bj)
        assert z == pytest.approx(zb, rel=1e-12)

    def test_size_counts_are_even_and_start_at_four(self):
        counts = I.even_subgraph_size_counts(4)
        assert counts[0] == 1
        assert all(c == 0 for m, c in enumerate(counts) if m % 2 == 1)
        assert counts[2] == 0 and counts[4] > 0
        assert sum(counts) == 2 ** (3 * 3)

    def test_counts_cached_by_L_alone(self):
        I.even_subgraph_size_counts.cache_clear()
        first = I.even_subgraph_size_counts(4)
        assert I.even_subgraph_size_counts(4) is first
        I.high_T_polymer_Z(4, 0.3)
        I.duality_check(4, 0.3)
        assert I.even_subgraph_size_counts.cache_info().misses == 1

    @pytest.mark.parametrize("L", [0, -2, -3])
    def test_empty_box_refused(self, L):
        with pytest.raises(ValueError, match="need L >= 1"):
            I.even_subgraph_size_counts(L)
        with pytest.raises(ValueError, match="need L >= 1"):
            I.high_T_polymer_Z(L, 0.3)


def identity_configurations(L: int):
    """Every configuration for L <= 3; beyond, 512 seeded samples."""
    if L <= 3:
        return range(1 << (L * L))
    return np.random.default_rng(0).integers(0, 1 << (L * L), size=512).tolist()


def contour_energy_identity(L: int, contours_of) -> tuple[bool, list[int]]:
    """Whether, on every configuration of ``identity_configurations`` under
    + boundary, the pair sum from the neighbours of each site (outside the
    box reads +1) equals 2L(L+1) - 2 (total perimeter of ``contours_of``),
    and the contour sizes seen."""
    ok, sizes = True, []
    for cfg in identity_configurations(L):
        spins = np.array([1 - 2 * (cfg >> k & 1) for k in range(L * L)]).reshape(L, L)
        pair_sum = 0
        for r in range(L):
            for c in range(L):
                s = spins[r, c]
                if c + 1 < L:
                    pair_sum += s * spins[r, c + 1]
                if r + 1 < L:
                    pair_sum += s * spins[r + 1, c]
                pair_sum += s * ((r == 0) + (r == L - 1) + (c == 0) + (c == L - 1))
        contours = contours_of(spins.ravel(), L)
        ok &= pair_sum == 2 * L * (L + 1) - 2 * sum(len(g) for g in contours)
        sizes.extend(len(g) for g in contours)
    return ok, sizes


class TestLowTemperature:
    @pytest.mark.parametrize("L", [2, 3, 4])
    @pytest.mark.parametrize("bj", BETAS)
    def test_reconstruction_matches_brute_force(self, L, bj):
        rep = I.low_T_contour_Z(L, bj)
        zb = I.brute_force_Z(L, bj, boundary="plus")
        assert rep.z_reconstructed == pytest.approx(zb, rel=1e-12)

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_cached_identity_matches_per_configuration_loop(self, L):
        # H = -2L(L+1) + 2 (total contour perimeter), which the contour route
        # reweights, on the geometric contours; the smallest is one flipped site
        ok, sizes = contour_energy_identity(L, I.spins_to_contours)
        assert ok and min(sizes) == 4

    def test_identity_loop_reports_a_dropped_edge(self):
        def drop_one_edge(spins, L):
            return [frozenset(sorted(g)[1:]) for g in I.spins_to_contours(spins, L)]

        ok, _ = contour_energy_identity(3, drop_one_edge)
        assert not ok

    def test_contour_route_extracts_no_contours(self):
        # a fresh process, so that no cache filled by another test hides a call
        script = ("from clusterexp import ising\n"
                  "def refuse(spins, L):\n"
                  "    raise AssertionError('the contour route extracted contours')\n"
                  "ising.spins_to_contours = refuse\n"
                  "print([ising.low_T_contour_Z(L, 0.5).xi_contour > 1 for L in range(1, 6)])\n")
        path = [str(Path(I.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[True, True, True, True, True]\n"

    def test_all_plus_has_no_contours(self):
        spins = np.ones(9, dtype=int)
        assert I.spins_to_contours(spins, 3) == []

    def test_single_flip_center(self):
        spins = np.ones(9, dtype=int)
        spins[4] = -1
        contours = I.spins_to_contours(spins, 3)
        assert len(contours) == 1 and len(contours[0]) == 4

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_round_trip_exhaustive(self, L):
        for cfg in range(1 << (L * L)):
            spins = np.array([1 - 2 * (cfg >> k & 1) for k in range(L * L)])
            back = I.contours_to_spins(I.spins_to_contours(spins, L), L).ravel()
            assert np.array_equal(back, spins)

    def test_round_trip_sampled_L5(self):
        rng = np.random.default_rng(3)
        L = 5
        for cfg in rng.integers(0, 1 << (L * L), size=50).tolist():
            spins = np.array([1 - 2 * (int(cfg) >> k & 1) for k in range(L * L)])
            back = I.contours_to_spins(I.spins_to_contours(spins, L), L).ravel()
            assert np.array_equal(back, spins)


class TestDuality:
    def test_identity_and_involution(self):
        rep = I.duality_check(3, 0.3)
        assert rep.identity_residual < 1e-15
        assert rep.involution_residual < 1e-12

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_xi_equality(self, L):
        rep = I.duality_check(L, 0.3)
        assert rep.xi_high == pytest.approx(rep.xi_low_at_dual, rel=1e-12)

    def test_critical_point(self):
        rep = I.duality_check(3, 0.3)
        assert rep.beta_c == pytest.approx(0.5 * math.log(1 + math.sqrt(2)), abs=1e-10)
        assert rep.fixed_point_residual < 1e-12

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            I.dual_coupling(0.0)

    def test_xi_high_is_the_high_temperature_sum(self):
        rep = I.duality_check(4, 0.3)
        assert rep.xi_high == I.high_T_polymer_Z(4, 0.3)[0]

    def test_large_beta_past_the_float_range_of_z(self):
        # cosh(13)^60 is past the largest float; Xi and the duality are not
        xi, z = I.high_T_polymer_Z(6, 13.0)
        assert z == math.inf and xi == pytest.approx(2.0 ** 25, rel=1e-8)
        rep = I.duality_check(6, 13.0)
        assert rep.xi_high == xi
        assert rep.xi_low_at_dual == pytest.approx(xi, rel=1e-12)

    def test_low_temperature_z_past_the_float_range(self):
        # e^(30 * 40) is past the largest float; the contour sum Xi is not
        rep = I.low_T_contour_Z(4, 30.0)
        assert rep.z_reconstructed == math.inf and rep.xi_contour == 1.0

    @pytest.mark.parametrize("beta", [-17.7, -100.0])
    def test_contour_sum_past_the_float_range_below_zero(self, beta):
        # e^(-2 beta k) passes the largest float at bins no configuration
        # fills; an inf weight must not meet a zero count (nan, with a warning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = I.low_T_contour_Z(4, beta)
        assert rep.xi_contour == math.inf and rep.z_reconstructed == math.inf

    @pytest.mark.parametrize("beta", [-8.8, 0.3, 17.5])
    def test_contour_sum_is_the_plain_sum(self, beta):
        # bit for bit the sum over every bin, where no weight passes the float range
        N, _ = I._density_of_states(4, "plus")
        xi = math.fsum((N * np.exp(-2.0 * beta * np.arange(N.size))).tolist())
        rep = I.low_T_contour_Z(4, beta)
        assert rep.xi_contour == xi
        assert rep.z_reconstructed == math.exp(beta * 40) * xi


class TestMagnetization:
    def test_free_boundary_exactly_zero(self):
        rep = I.magnetization(3, 0.5, boundary="free")
        assert rep.mean == 0.0
        assert np.all(rep.per_site == 0.0)

    def test_minus_is_exact_negation(self):
        rp = I.magnetization(3, 2.0, boundary="plus")
        rm = I.magnetization(3, 2.0, boundary="minus")
        assert rm.mean == -rp.mean
        assert np.array_equal(rm.per_site, -rp.per_site)

    def test_low_temperature_bound(self):
        rep = I.magnetization(4, 2.0, boundary="plus")
        assert rep.low_t_bound is not None
        assert rep.mean >= rep.low_t_bound
        assert rep.low_t_bound_ok

    def test_high_temperature_decay_bound(self):
        rep = I.magnetization(4, 0.05, boundary="plus")
        assert rep.high_t_site_bounds_ok

    def test_finite_z_below_zero_beta(self):
        # Z = 2 at L = 1 for every beta; e^(-2 beta) of the Peierls gate is not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = I.magnetization(1, -400.0)
            assert rep.mean == 0.0 and rep.low_t_bound is None
            with pytest.raises(ValueError, match="Z is past the largest float"):
                I.magnetization(1, -400.0, boundary="plus")

    def test_g_monotone_to_zero(self):
        betas = np.linspace(0.75, 4.0, 20)
        gs = [I.peierls_g(b) for b in betas]
        assert all(b < a for a, b in zip(gs, gs[1:]))
        assert gs[-1] < 1e-6

    def test_g_domain(self):
        with pytest.raises(ValueError):
            I.peierls_g(0.1)


class TestAnimalsAndThresholds:
    def test_counts_small_sizes(self):
        counts = I.closed_animals_through_origin()
        assert counts[4] == 4
        assert counts[6] == 12
        assert counts[8] == 70

    def test_count_eight_geometric_oracle(self):
        # 8-edge closed animals through the origin, built constructively:
        # boundaries of the perimeter-8 polyominoes (1x3, L-tromino, 2x2)
        # plus the two figure-eight pairs of unit squares sharing one corner
        def cell_boundary(cells):
            edges = set()
            for (x, y) in cells:
                for e in (frozenset({(x, y), (x + 1, y)}),
                          frozenset({(x, y + 1), (x + 1, y + 1)}),
                          frozenset({(x, y), (x, y + 1)}),
                          frozenset({(x + 1, y), (x + 1, y + 1)})):
                    edges ^= {e}
            return frozenset(edges)

        shapes = []
        shapes += [[(0, 0), (1, 0), (2, 0)], [(0, 0), (0, 1), (0, 2)]]  # straight trominoes
        shapes += [[(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (1, 1)],
                   [(0, 1), (1, 1), (0, 0)], [(0, 1), (1, 1), (1, 0)]]  # the four L shapes
        shapes += [[(0, 0), (1, 0), (0, 1), (1, 1)]]  # square tetromino
        found = set()
        for shape in shapes:
            base = cell_boundary(shape)
            for dx in range(-4, 5):
                for dy in range(-4, 5):
                    shifted = frozenset(
                        frozenset((a + dx, b + dy) for a, b in e) for e in base
                    )
                    if any((0, 0) in e for e in shifted):
                        found.add(shifted)
        # figure-eights: two diagonal unit cells sharing exactly one corner
        for diag in ((1, 1), (1, -1)):
            for dx in range(-4, 5):
                for dy in range(-4, 5):
                    fig = cell_boundary([(dx, dy)]) | cell_boundary([(dx + diag[0], dy + diag[1])])
                    verts = {v for e in fig for v in e}
                    assert len(fig) == 8 and len(verts) == 7
                    if (0, 0) in verts:
                        found.add(frozenset(fig))
        assert len(found) == 70

    def test_counts_below_walk_bound(self):
        for m, c in I.closed_animals_through_origin().items():
            assert c <= 3**m

    def test_threshold_values(self):
        rep = I.animal_counts_and_thresholds()
        # dual routes: the quartic root against direct evaluation
        y = rep.activity_root
        a = rep.a
        assert abs(math.exp(4 * a) * y**4 + (math.exp(2 * a) - math.exp(a)) * y
                   - (math.exp(a) - 1)) < 1e-10
        assert rep.beta0 == pytest.approx(math.atanh(y / 3), abs=1e-12)
        assert rep.beta1 == pytest.approx(0.5 * math.log(3 / y), abs=1e-12)
        assert rep.beta0_prime == pytest.approx(math.atanh(1 / 3), abs=1e-14)
        g = rep.g_root_x
        assert abs(g**4 * (4 - 3 * g) / (1 - g) ** 2 - 0.5) < 1e-10
        assert rep.beta1_prime == pytest.approx(0.5 * math.log(3 / g), abs=1e-12)

    def test_threshold_frozen_values(self):
        rep = I.animal_counts_and_thresholds()
        assert rep.activity_root == pytest.approx(0.45776387, abs=2e-8)
        assert rep.beta0 == pytest.approx(0.15378902, abs=2e-8)
        assert rep.beta1 == pytest.approx(0.94000704, abs=2e-8)
        assert rep.beta0_prime == pytest.approx(0.34657359, abs=2e-8)
        assert rep.beta1_prime == pytest.approx(0.91677637, abs=2e-8)
        assert rep.g_root_x == pytest.approx(0.47953401, abs=2e-8)

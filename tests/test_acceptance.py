"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected number is either trivial arithmetic, frozen from an
independent oracle computed in this file, or a published reference constant.
Three reference constants are known to carry rounding slips and are asserted
at their attainable precision, with the faithful computed values pinned
alongside (see the repository README).  One reference claim -- the
Lennard-Jones radius-ratio magnitudes -- is not reproducible from its own
formula and is kept as a strict expected failure rather than weakened.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad

from clusterexp import graphs as G
from clusterexp import hardsphere as H
from clusterexp import ising as I
from clusterexp import mayer as M
from clusterexp import oracles as O
from clusterexp import polymer as PL
from clusterexp import potentials as P
from clusterexp import ursell as U
from clusterexp.verify import _random_hardcore, _random_matrix


def report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS  ({detail})")


def reaches_all_from_zero(n: int, masks: np.ndarray) -> np.ndarray:
    """Bitset search from vertex 0 over the graphs ``masks`` (edge bits over
    the pairs of [n] in lexicographic order, n <= 16), a million graphs at a
    time: whether each graph connects every vertex to 0."""
    out = np.empty(masks.size, dtype=bool)
    for lo in range(0, masks.size, 1 << 20):
        m = masks[lo:lo + (1 << 20)]
        adj = np.zeros((n, m.size), dtype=np.uint16)
        for k, (i, j) in enumerate(combinations(range(n), 2)):
            bit = (m >> k & 1).astype(np.uint16)
            adj[i] |= bit << j
            adj[j] |= bit << i
        seen = np.ones(m.size, dtype=np.uint16)
        while True:
            grown = seen.copy()
            for v in range(n):
                grown |= adj[v] & -(grown >> v & 1)
            if np.array_equal(grown, seen):
                break
            seen = grown
        out[lo:lo + m.size] = seen == (1 << n) - 1
    return out


def scheme_array(trees, closure):
    """The closure-minus-tree pairs of each tree under a scalar closure, one
    bool row per tree."""
    bits = 1 << np.arange(G.num_pairs(trees[0].n))
    extra = np.array([closure(t).mask ^ t.mask for t in trees], dtype=np.int64)
    return extra[:, None] & bits != 0


class TestCriterion1Identities:
    def test_three_routes_agree(self):
        t0 = time.time()
        rng = random.Random(0)
        trials_per_n = 40  # 200 matrices over n = 2..6
        worst = 0.0
        for n in range(2, 7):
            for _ in range(trials_per_n):
                V = _random_matrix(n, rng, p_inf=0.25)
                a = U.ursell_graph_sum(V)
                b = U.ursell_partition_formula(V)
                c = U.ursell_tree_identity(V, "penrose")
                d = U.ursell_tree_identity(V, "kruskal")
                scale = max(abs(a), 1e-30)
                worst = max(worst, abs(a - b) / scale, abs(a - c) / scale, abs(a - d) / scale)
                assert worst <= 1e-10, (n, worst)
        elapsed = time.time() - t0
        assert elapsed < 300
        report("criterion-1 identity suite",
               f"200 random matrices, worst relative spread {worst:.2e}, {elapsed:.1f}s")

    def test_hard_core_bit_exact(self):
        rng = random.Random(1)
        checked = 0
        for n in range(2, 7):
            for _ in range(40):
                V = _random_hardcore(n, rng)
                a = U.ursell_graph_sum(V)
                assert isinstance(a, int)
                assert a == U.ursell_partition_formula(V)
                assert a == U.ursell_tree_identity(V, "penrose")
                assert a == U.ursell_tree_identity(V, "kruskal")
                checked += 1
        report("criterion-1 hard-core exactness", f"{checked} matrices bit-exact")


class TestCriterion2Combinatorics:
    def test_tree_counts_to_nine(self):
        t0 = time.time()
        for n in range(2, 10):
            masks = G.tree_table(n).mask
            ordered = np.sort(masks)
            assert ordered.size == n ** (n - 2) and (ordered[1:] != ordered[:-1]).all(), n
            assert (np.bitwise_count(masks) == n - 1).all(), n
            assert reaches_all_from_zero(n, masks).all(), n
        elapsed = time.time() - t0
        assert elapsed < 600
        report("criterion-2 tree counts",
               f"n^(n-2) distinct spanning trees for n <= 9, {elapsed:.1f}s")

    def test_alternating_sums_to_six(self):
        for n in range(2, 7):
            assert G.alternating_connected_sum(n) == (-1) ** (n - 1) * math.factorial(n - 1)
        report("criterion-2 alternating sums", "(-1)^(n-1)(n-1)! exact for n <= 6")

    def test_partition_schemes_to_six(self):
        t0 = time.time()
        rng = random.Random(2)
        for n in range(2, 7):
            # the scalar decode order of the sequences is the table's row order
            trees = O.prufer_trees(n)
            assert G.verify_partition_scheme(n, scheme_array(trees, O.penrose_closure)), n
            for _ in range(100):
                w = {p: rng.random() for p in G.vertex_pairs(n)}
                order = G.EdgeOrder.from_weights(n, w)
                added = scheme_array(trees, lambda t: O.kruskal_closure(t, order))
                assert G.verify_partition_scheme(n, added), n
        elapsed = time.time() - t0
        assert elapsed < 600
        report("criterion-2 partition schemes",
               f"depth-rule scheme plus 100 random weightings per n <= 6, {elapsed:.1f}s")


class TestCriterion3Criteria:
    def test_domino_thresholds(self):
        s = PL.domino_system(5, 5)
        center = PL.domino_center(s)
        targets = {
            "kp": 1 / (7 * math.e),          # 0.0525542...
            "dob": (1 / 6) / (7 / 6) ** 7,   # 0.0566527...
            "fp": 1 / 13,                    # 0.0769230...
        }
        for which, target in targets.items():
            _, r = PL.optimize_constant_mu(s, center, which)
            assert r == pytest.approx(target, rel=1e-4)  # 4 significant figures
            assert r == pytest.approx(target, rel=1e-8)
        report("criterion-3 domino", "1/(7e), (1/6)/(7/6)^7, 1/13 reproduced")

    def test_triangular_lattice(self):
        s = PL.triangular_window(2)
        # the quoted tree-like comparison constant 5^5/6^6 = 0.0670 is the
        # maximum of mu/(1+mu)^6; the full neighborhood form
        # mu/(mu + (1+mu)^6) peaks lower, at 1/(1 + 6^6/5^5) = 0.0628
        grid = np.linspace(1e-4, 2.0, 200001)
        quoted = float(np.max(grid / (1 + grid) ** 6))
        assert quoted == pytest.approx(5**5 / 6**6, rel=1e-8)
        exact_tree_form = PL.regular_graph_thresholds(6)[2]
        assert exact_tree_form == pytest.approx(1 / (1 + 6**6 / 5**5), abs=1e-15)
        at_third = PL.constant_mu_radius(s, (0, 0), "fp", 1 / 3)
        assert at_third >= 0.075
        assert at_third > quoted > exact_tree_form
        assert at_third == pytest.approx((1 / 3) / (1 + 7 / 3 + 1 + 2 / 27), rel=1e-12)
        report("criterion-3 triangular",
               f"0.067 = 5^5/6^6 tree-like constant < {at_third:.4f} at c=1/3")

    def test_cubic_lattice_fp_thresholds(self):
        for d in (1, 2, 3):
            delta = 2 * d
            expect = 1.0 / (1.0 + (2 * d) ** (2 * d) / (2 * d - 1) ** (2 * d - 1.0))
            assert PL.regular_graph_thresholds(delta)[2] == pytest.approx(expect, rel=1e-14)
            s = PL.delta_regular_system(delta)
            _, r = PL.optimize_constant_mu(s, "c", "fp")
            assert r == pytest.approx(expect, rel=1e-9)
        report("criterion-3 cubic lattices", "FP thresholds for d=1,2,3 match the closed form")


class TestCriterion4HardSphere:
    def test_pair_overlap_closed_form_vs_quadrature(self):
        # independent oracle: the lens-area radial integral
        # (2/pi) * int_0^1 A(r) r dr, A(r) = 2 (arcsin(r/2) + (r/2) sqrt(1 - r^2/4))
        def area(r):
            return 2.0 * (math.asin(r / 2) + (r / 2) * math.sqrt(1 - r * r / 4))

        oracle, _ = quad(lambda r: area(r) * r, 0.0, 1.0, epsabs=1e-14, epsrel=1e-14)
        oracle *= 2.0 / math.pi
        cf = H.gtilde_closed_form(2, 2)
        assert abs(cf - oracle) < 1e-12
        assert abs(cf - 3 * math.sqrt(3) / (4 * math.pi)) < 1e-15
        report("criterion-4 closed form", f"3 sqrt(3)/(4 pi) = {cf:.12f} matches quadrature")

    def test_monte_carlo_triple(self):
        t0 = time.time()
        est = H.gtilde(2, 3, samples=1_000_000, seed=0)
        assert abs(est.estimate - 0.0589) < 0.002
        assert time.time() - t0 < 120
        report("criterion-4 Monte Carlo", f"g(2,3) = {est.estimate:.5f} +- {est.std_error:.5f}")

    def test_optimized_bound_and_classical(self):
        r = H.improved_radius()
        assert r.coefficient >= 0.5107
        assert r.classical == 1 / math.e
        mu0 = H.reference_mu_trial()
        assert mu0 / H.cd_polynomial(mu0, H.G2_REFERENCE) == pytest.approx(0.5107, abs=1e-3)
        report("criterion-4 radius", f"optimised {r.coefficient:.4f} >= 0.5107 > 1/e = {r.classical:.4f}")


class TestCriterion5Virial:
    def test_max_constant(self):
        wg, vg = M.virial_max_golden()
        wn, vn = M.virial_max_newton()
        assert abs(vg - vn) < 1e-10
        # the true supremum is 0.1447669981; the published 0.14477 is its 5-
        # decimal rounding (up, so the literal ">=" fails in the 8th decimal)
        assert vg > 0.1447669
        assert round(vg, 5) == 0.14477
        assert abs(2 * math.exp(-wn) * (1 - wn) - 1) < 1e-12  # stationarity
        report("criterion-5 max", f"max w(2e^-w - 1) = {vg:.10f} at w = {wn:.10f}")

    def test_euler_series(self):
        details = []
        for x in (0.1, 0.2, 0.3):
            w = M.solve_w(x)
            partials = M.euler_partial_sums(x, 80)
            assert all(b >= a for a, b in zip(partials, partials[1:]))
            increment_60 = partials[59] - partials[58]
            assert increment_60 < 1e-8
            # remainder after 60 terms: 1.6e-8 at x = 0.3 (the quoted 1e-8
            # needs 66 terms there); convergence to w is what is certified
            assert abs(w - partials[59]) < 2e-8
            assert abs(w - partials[79]) < 2e-10
            details.append(f"x={x}: |w - S60| = {abs(w - partials[59]):.1e}")
        report("criterion-5 euler", "; ".join(details))


class TestCriterion6KirkwoodSalsburg:
    @pytest.mark.parametrize("beta,B,C", [(1.0, 0.5, 0.3), (0.5, 0.0, 1.2), (2.0, 0.25, 0.8)])
    def test_recursion_equals_closed_form(self, beta, B, C):
        table = M.ks_recursion(40, beta, B, C)
        worst = 0.0
        for (n, l), v in table.items():
            c = M.ks_closed_form(n, l, beta, B, C)
            worst = max(worst, abs(v - c) / abs(c))
        assert worst < 1e-9
        report("criterion-6 KS recursion",
               f"beta={beta} B={B} C={C}: worst relative error {worst:.2e} over M<=40")


class TestCriterion7MayerLattice:
    def test_on_site_exclusion_exact(self):
        vol = M.DiscreteVolume.path(6, spacing=10.0)
        recs = M.mayer_coefficients(vol, P.hard_core(0.5), 1.0, 5)
        for r in recs:
            assert r.value == Fraction((-1) ** (r.n - 1), r.n)
        report("criterion-7 on-site gas", "C_n = (-1)^(n-1)/n exact for n <= 5")

    def test_bounds_on_random_volumes(self):
        t0 = time.time()
        rng = random.Random(7)
        for _ in range(20):
            pts = set()
            target = rng.randint(4, 8)
            while len(pts) < target:
                pts.add((rng.randrange(4), rng.randrange(4)))
            vol = M.DiscreteVolume(tuple((float(x), float(y)) for x, y in pts))
            recs = M.mayer_coefficients(vol, P.hard_core(1.0), 1.0, 4)
            for r in recs[1:]:
                assert abs(float(r.value)) <= r.bound_py * (1 + 1e-12), r
        assert time.time() - t0 < 300
        report("criterion-7 bounds", "|C_n| <= tree-graph bound on 20 random volumes")


class TestCriterion8Ising:
    def test_reconstructions(self):
        t0 = time.time()
        for L in (2, 3, 4):
            for bj in (0.1, 0.3, 0.7, 1.2):
                zb = I.brute_force_Z(L, bj)
                _, zh = I.high_T_polymer_Z(L, bj)
                assert zh == pytest.approx(zb, rel=1e-12)
                rep = I.low_T_contour_Z(L, bj)
                zbp = I.brute_force_Z(L, bj, boundary="plus")
                assert rep.z_reconstructed == pytest.approx(zbp, rel=1e-12)
        report("criterion-8 reconstructions",
               f"high-T and low-T equal brute force for L <= 4, 4 betas ({time.time() - t0:.1f}s)")

    def test_duality_to_L5(self):
        for L in (2, 3, 4, 5):
            rep = I.duality_check(L, 0.3)
            assert rep.xi_high == pytest.approx(rep.xi_low_at_dual, rel=1e-12)
        assert rep.beta_c == pytest.approx(0.5 * math.log(1 + math.sqrt(2)), abs=1e-10)
        report("criterion-8 duality", f"Xi equality to L=5; beta_c = {rep.beta_c:.10f}")

    def test_thresholds(self):
        rep = I.animal_counts_and_thresholds()
        # dual-solver verification at 1e-10: closed forms vs the root-solved values
        assert rep.beta0 == pytest.approx(math.atanh(rep.activity_root / 3), abs=1e-12)
        assert rep.beta1 == pytest.approx(0.5 * math.log(3 / rep.activity_root), abs=1e-12)
        assert rep.beta0_prime == pytest.approx(math.atanh(1 / 3), abs=1e-14)
        # quoted reference values: 0.94 and 0.917 hold to 3 significant
        # figures; 0.151 and 0.34 carry rounding slips in the source
        # (the faithful roots are 0.1538 = atanh(0.1526) and 0.3466 =
        # atanh(1/3); tanh(0.1525) = 0.151 explains the first)
        assert rep.beta1 == pytest.approx(0.94, abs=5e-4)
        assert rep.beta1_prime == pytest.approx(0.917, abs=5e-4)
        assert rep.beta0 == pytest.approx(0.151, abs=3e-3)
        assert rep.beta0_prime == pytest.approx(0.34, abs=7e-3)
        assert rep.beta0 == pytest.approx(0.15378902, abs=1e-7)
        assert rep.beta0_prime == pytest.approx(0.34657359, abs=1e-7)
        report("criterion-8 thresholds",
               f"beta0={rep.beta0:.4f} beta1={rep.beta1:.4f} "
               f"beta0'={rep.beta0_prime:.4f} beta1'={rep.beta1_prime:.4f}")


class TestCriterion9Magnetization:
    def test_plus_boundary_bound(self):
        t0 = time.time()
        rep = I.magnetization(4, 2.0, boundary="plus")
        g = I.peierls_g(2.0)
        assert rep.mean >= 1 - 2 * g
        assert rep.mean > 0.99
        assert time.time() - t0 < 600
        report("criterion-9 plus boundary", f"M+ = {rep.mean:.6f} >= 1 - 2g = {1 - 2 * g:.6f}")

    def test_free_boundary_exact_zero(self):
        rep = I.magnetization(4, 2.0, boundary="free")
        assert rep.mean == 0.0
        report("criterion-9 free boundary", "M = 0.0 exactly")

    def test_minus_boundary_exact_negation(self):
        rp = I.magnetization(4, 2.0, boundary="plus")
        rm = I.magnetization(4, 2.0, boundary="minus")
        assert rm.mean == -rp.mean
        assert np.array_equal(rm.per_site, -rp.per_site)
        report("criterion-9 minus boundary", "M- = -M+ exactly")


class TestCriterion10SubsetGas:
    def test_induction_on_random_systems(self):
        t0 = time.time()
        rng = random.Random(10)
        a = math.log(2.0)
        for trial in range(10):
            sys_ = PL.random_subset_gas(list(range(10)), n_polymers=14, max_size=3, rng=rng, a=a)
            rep = PL.subset_gas_check(sys_, a)
            assert rep.condition.satisfied
            assert rep.verified, f"trial {trial}"
            assert rep.zero_crossing is None
            assert rep.max_pinned_sum <= a + 1e-9
        assert time.time() - t0 < 300
        report("criterion-10 subset gas",
               f"10 random systems on 10 vertices: all 2^10 sub-volumes verified, "
               f"{time.time() - t0:.1f}s")


class TestCriterion11Stability:
    def test_fcc_witness(self):
        records, first = P.fcc_instability_sweep(max_shells=12)
        assert first is not None
        assert 2 * first.bond_count > 11 * first.n
        assert first.bond_count / first.n <= 6.0
        report("criterion-11 fcc", f"n = {first.n} has {first.bond_count} bonds "
                                   f"> 11n/2 = {5.5 * first.n:.0f} at {first.shells} shells")

    def test_ruelle_ratios(self):
        div = P.ruelle_divergence_witness(1.0, 1.0, n_fixed=13, s_max=200, eps=0.5)
        assert div.last_ratio > 1.0
        assert div.ratios[-1] > div.ratios[-2] > div.ratios[-3]
        report("criterion-11 divergence", f"last ratio {div.last_ratio:.3e}, growing")

    def test_lj_type_strongly_basuev(self):
        spec = P.lj_type()
        a_star = P.strongly_basuev_core_radius(spec)
        cls = P.basuev_classify(spec, 0.99 * a_star)
        assert cls.verdict == "strongly_basuev"
        assert cls.sound()
        # just above the root only the weak inequality can hold
        above = P.basuev_classify(spec, min(1.01 * a_star, spec.p["a"]))
        assert above.verdict in ("basuev", "not_basuev")
        report("criterion-11 classification",
               f"strongly Basuev below a* = {a_star:.3e} (core-value crossing)")


class TestCriterion12LJRatio:
    BETAS = (1.0, 10.0)

    def _ratios(self):
        lj = P.lennard_jones()
        out = {}
        for beta in self.BETAS:
            ri = P.regularity_integrals(lj, beta)
            rb = M.radius_bounds(beta, 8.61, ri.c, ri.c_tilde)
            out[beta] = rb
        return out

    def test_faithful_computation(self):
        t0 = time.time()
        ratios = self._ratios()
        # frozen from quadrature of |e^(-beta V) - 1| for V = r^-12 - 2 r^-6
        assert ratios[1.0].log_ratio == pytest.approx(math.log(7752.67), abs=1e-3)
        assert ratios[10.0].log_ratio == pytest.approx(40.338 * math.log(10), abs=0.01)
        assert ratios[10.0].log_ratio > ratios[1.0].log_ratio
        assert ratios[1.0].ratio >= 1.0
        assert time.time() - t0 < 60
        report("criterion-12 faithful ratio",
               f"e^(beta B) C/Ctilde = {ratios[1.0].ratio:.4g} (beta=1), "
               f"10^{ratios[10.0].log_ratio / math.log(10):.3f} (beta=10)")

    @pytest.mark.xfail(
        strict=True,
        reason="the target magnitudes 8.5e4 (beta=1) and 7.26e43 (beta=10) are not "
        "reproducible from exp(beta*B)*C(beta)/Ctilde(beta) with B=8.61 for "
        "V = r^-12 - 2 r^-6: faithful quadrature gives 7.75e3 and 2.18e40",
    )
    def test_quoted_magnitudes(self):
        ratios = self._ratios()
        assert ratios[1.0].ratio >= 8.5e4
        assert ratios[10.0].log_ratio >= math.log(7.26e43)

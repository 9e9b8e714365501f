import math
from itertools import combinations

import numpy as np
import pytest

from clusterexp import potentials as P

INF = math.inf


class TestEvaluation:
    def test_ruelle_regions(self):
        ru = P.ruelle(1.0, 0.3)
        assert P.potential_eval(ru, 0.3) == 11.0
        assert P.potential_eval(ru, 0.7) == -1.0
        assert P.potential_eval(ru, math.nextafter(0.7, 0.0)) == 11.0  # the barrier bin is open
        assert P.potential_eval(ru, 1.3) == -1.0
        assert P.potential_eval(ru, 1.31) == 0.0

    def test_hard_core_inside(self):
        hc = P.hard_core(1.0)
        assert P.potential_eval(hc, 0.5) == INF
        assert P.potential_eval(hc, 1.0) == INF
        assert P.potential_eval(hc, 1.5) == 0.0

    def test_square_well_pieces(self):
        sw = P.square_well(2.0, 1.0, 0.25)
        assert P.potential_eval(sw, 0.5) == 2.0
        assert P.potential_eval(sw, 1.1) == -1.0
        assert P.potential_eval(sw, 1.3) == 0.0

    def test_lennard_jones_minimum(self):
        lj = P.lennard_jones()
        assert P.potential_eval(lj, 1.0) == pytest.approx(-1.0)
        assert P.potential_eval(lj, 2 ** (-1 / 6) / 1.0001) > 0

    def test_step_profile_reproduces_each_family(self):
        for spec in (P.hard_core(0.7), P.square_well(3.0, 1.1, 0.2), P.ruelle(1.0, 0.4),
                     P.step_table((0.5, 1.0), (-2.0, 1.0))):
            table = P.step_table(*spec.steps)
            for r in (0.0, 0.3, 0.6, 0.7, 0.9, 1.0, 1.1, 1.3, 1.4, 3.0):
                assert P.potential_eval(table, r) == P.potential_eval(spec, r)
        assert P.lj_type().steps is None and P.lennard_jones().steps is None

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            P.potential_eval(P.hard_core(1.0), -0.1)

    def test_text_round_trip(self):
        for spec in (P.hard_core(0.7), P.square_well(3.0, 1.1, 0.2),
                     P.ruelle(1.0, 0.4), P.lj_type(1.0, 2.0, 0.5, 0.9),
                     P.lennard_jones(), P.step_table((0.5, 1.0), (-2.0, 1.0))):
            back = P.spec_from_text(spec.to_text())
            assert back == spec
            for r in (0.1, 0.6, 0.9, 1.4, 3.0):
                assert P.potential_eval(back, r) == P.potential_eval(spec, r)

    @pytest.mark.parametrize("make,name", [
        (lambda: P.hard_core(a=math.nan), "a"),
        (lambda: P.hard_core(a=INF), "a"),
        (lambda: P.lennard_jones(sigma=-1.0), "sigma"),
        (lambda: P.square_well(R=-1.0, delta=-1.0), "R"),
        (lambda: P.square_well(delta=0.0), "delta"),
        (lambda: P.ruelle(R=math.nan), "R"),
        (lambda: P.lj_type(a=-1.0), "a"),
        (lambda: P.lj_type(a=math.nan), "a"),
        (lambda: P.step_table([math.nan], [1.0]), r"radii\[0\]"),
        (lambda: P.step_table([0.5, INF], [1.0, 2.0]), r"radii\[1\]"),
    ], ids=["hard-core-nan", "hard-core-inf", "lj-sigma", "well-R", "well-delta", "ruelle-nan",
            "lj-type-negative", "lj-type-nan", "step-nan", "step-inf"])
    def test_lengths_must_be_positive_and_finite(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be a positive finite length"):
            make()

    @pytest.mark.parametrize("make,name", [
        (lambda: P.square_well(A=math.nan), "A"),
        (lambda: P.lennard_jones(epsilon=math.nan), "epsilon"),
        (lambda: P.lj_type(c1=math.nan), "c1"),
        (lambda: P.lj_type(c2=math.nan), "c2"),
        (lambda: P.step_table([0.5, 1.0], [1.0, math.nan]), r"values\[1\]"),
    ], ids=["well-A", "lj-epsilon", "lj-type-c1", "lj-type-c2", "step-value"])
    def test_energies_must_not_be_nan(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got nan"):
            make()

    def test_an_infinite_energy_is_a_hard_core(self):
        spec = P.step_table([0.5, 1.0], [INF, -0.3])
        assert P.potential_eval(spec, 0.4) == INF
        assert P.potential_eval(P.square_well(A=INF), 0.5) == INF

    def test_lj_type_refuses_a_nan_exponent(self):
        with pytest.raises(ValueError, match="need eps > 0"):
            P.lj_type(eps=math.nan)


def scalar_descent(spec, n, budget=40, seed=0):
    """The stability search as one scalar loop over ``configuration_energy``:
    the reference the batched descent of ``stability_estimate`` must follow."""
    if n < 2:
        raise ValueError("need n >= 2")
    if P.is_nonnegative(spec):
        return P.StabilityReport(n, 0.0, None, 0, seed, budget)
    d = spec.dimension
    scale = P.length_scale(spec)
    side = 4.0 * scale
    children = np.random.SeedSequence(seed).spawn(budget)
    best = -P.INF
    best_pts = None
    total_iters = 0

    steps = [scale * f for f in (0.6, 0.25, 0.1, 0.04, 0.015, 0.005, 0.002)]
    for k in range(budget):
        rng = np.random.default_rng(children[k])
        pts = rng.uniform(0.0, side, size=(n, d))
        u = P.configuration_energy(spec, pts)
        tries = 0
        while u == P.INF and tries < 50:
            pts = rng.uniform(0.0, side, size=(n, d))
            u = P.configuration_energy(spec, pts)
            tries += 1
        if u == P.INF:
            continue
        for f in (0.85, 0.7, 0.55, 0.4, 0.3, 0.2, 0.12, 0.06, 0.03):
            center = pts.mean(axis=0)
            trial = center + (pts - center) * f
            ut = P.configuration_energy(spec, trial)
            if ut < u:
                pts, u = trial, ut
        for sweep in range(P.DESCENT_SWEEPS):
            improved = False
            for i in range(n):
                for axis in range(d):
                    for step in steps:
                        for sgn in (+1.0, -1.0):
                            trial = pts.copy()
                            trial[i, axis] += sgn * step
                            ut = P.configuration_energy(spec, trial)
                            if ut < u:
                                pts, u = trial, ut
                                improved = True
            total_iters += 1
            if not improved:
                break
        val = -u / n
        if val > best:
            best, best_pts = val, pts
    best = max(best, 0.0)
    if best == 0.0:
        best_pts = None
    return P.StabilityReport(n, best, best_pts, total_iters, seed, budget)


# (spec, n, budget, seed) of the step families; the first is the README command
STEP_DESCENTS = {
    "readme": (P.square_well(5.0, 1.0, 0.5), 6, 40, 0),
    "square_well": (P.square_well(2.0, 1.0, 0.25), 4, 10, 3),
    "square_well_soft_core": (P.square_well(-0.5, 1.0, 0.4), 7, 6, 5),
    "attractive_well": (P.attractive_well(1.0, 0.5), 6, 8, 3),
    "attractive_well_n12": (P.attractive_well(0.3, 0.7), 12, 2, 9),
    "ruelle": (P.ruelle(1.0, 0.5), 8, 3, 1),
    "ruelle_2d": (P.ruelle(1.0, 0.3, dimension=2), 9, 3, 2),
    "step_table": (P.step_table((0.37, 0.81, 1.33), (3.3, -0.7, -0.15)), 5, 8, 4),
    "step_table_1d": (P.step_table((0.5, 1.1), (7.0, -1.3), dimension=1), 6, 6, 7),
    "hard_core_well": (P.step_table((0.9, 1.2), (math.inf, -1.0)), 5, 6, 11),
    "bottomless_well": (P.step_table((0.5, 1.0), (math.inf, -math.inf)), 4, 3, 1),
}
POWER_LAW_DESCENTS = {
    "lj_type": (P.lj_type(), 5, 4, 1),
    "lj_type_attractive_core": (P.lj_type(c1=-1.0, c2=0.0), 4, 2, 0),
    "lennard_jones": (P.lennard_jones(0.7, 1.2), 4, 3, 6),
}


class TestStabilitySearch:
    @pytest.mark.parametrize("spec", [P.hard_core(0.8), P.square_well(3.0, 1.2, 0.3), P.ruelle(1.5, 0.2),
                                      P.step_table((0.37, 0.81, 1.33), (3.3, -0.7, -0.15)),
                                      P.lj_type(2.0, 0.5, 0.7, 0.9), P.lennard_jones(1.5, 0.8)],
                             ids=lambda spec: spec.family)
    def test_batched_pair_values_equal_potential_eval(self, spec):
        cuts = P._breakpoints(spec)
        r = sorted({0.0, *cuts, *(math.nextafter(c, 0.0) for c in cuts),
                    *(math.nextafter(c, math.inf) for c in cuts),
                    *np.random.default_rng(5).uniform(0.0, 2.0 * max(cuts), 200).tolist()})
        got = P._pair_value_function(spec)(np.array(r))
        assert got.tolist() == [P.potential_eval(spec, x) for x in r]

    def test_nonnegative_exact_zero(self):
        assert P.stability_estimate(P.hard_core(1.0), 6).estimate == 0.0

    def test_repulsive_lj_type_tail_is_exact_zero(self):
        rep = P.stability_estimate(P.lj_type(c1=1.0, c2=-1.0), 4)
        assert rep.estimate == 0.0 and rep.iterations == 0

    @pytest.mark.parametrize("c1,c2,nonnegative", [
        (1.0, 0.0, True), (1.0, -1.0, True), (0.0, -2.0, True), (0.0, 0.0, True),
        (1.0, 1.0, False), (-1.0, 0.0, False), (-1.0, -1.0, False),
    ])
    def test_lj_type_nonnegativity(self, c1, c2, nonnegative):
        spec = P.lj_type(c1=c1, c2=c2)
        assert P.is_nonnegative(spec) is nonnegative
        r = np.linspace(0.05, 3.0, 60).tolist()
        assert (min(P.potential_eval(spec, x) for x in r) >= 0) is nonnegative

    def test_negative_lj_type_core_is_unstable(self):
        spec = P.lj_type(c1=-1.0, c2=0.0)
        assert P.potential_eval(spec, 0.5) == -16.0
        assert not P.is_nonnegative(spec)
        assert P.stability_estimate(spec, 4, budget=2).estimate > 0

    def test_collapse_well(self):
        b = 2.0
        rep = P.stability_estimate(P.attractive_well(b, 0.5), 6, budget=8, seed=3)
        assert rep.estimate >= b * 5 / 2 - 1e-9
        dists = [np.linalg.norm(a - c) for a, c in combinations(np.asarray(rep.witness), 2)]
        assert max(dists) <= 0.5


    def test_an_infinite_pair_makes_the_total_infinite(self):
        # the pairs (0, 1), (0, 2), (1, 2) at 0.55, 0.9, 0.35: -inf, 0, +inf
        spec = P.step_table((0.5, 0.6), (math.inf, -math.inf), dimension=1)
        pts = np.array([[0.0], [0.55], [0.9]])
        rows = P._pair_value_function(spec)(np.array([0.55, 0.9, 0.35]))
        assert P._sequential_totals(rows) == P.configuration_energy(spec, pts) == math.inf

    @pytest.mark.parametrize("case", STEP_DESCENTS)
    def test_step_families_follow_the_scalar_descent(self, case):
        spec, n, budget, seed = STEP_DESCENTS[case]
        got = P.stability_estimate(spec, n, budget, seed)
        want = scalar_descent(spec, n, budget, seed)
        assert (got.estimate, got.iterations) == (want.estimate, want.iterations)
        assert type(got.estimate) is float
        assert got.witness.tobytes() == want.witness.tobytes()

    @pytest.mark.parametrize("case", POWER_LAW_DESCENTS)
    def test_power_laws_follow_the_scalar_descent(self, case):
        spec, n, budget, seed = POWER_LAW_DESCENTS[case]
        got = P.stability_estimate(spec, n, budget, seed).estimate
        want = scalar_descent(spec, n, budget, seed).estimate
        assert abs(got - want) <= 4 * math.ulp(want)

    def test_readme_command_values(self):
        rep = P.stability_estimate(*STEP_DESCENTS["readme"])
        assert (rep.estimate, rep.iterations) == (1.8333333333333333, 87)

    def test_witness_recomputes(self):
        spec = P.attractive_well(1.0, 0.5)
        rep = P.stability_estimate(spec, 5, budget=4, seed=1)
        assert abs(rep.recomputed(spec) - rep.estimate) < 1e-9

    def test_monotone_in_budget(self):
        spec = P.square_well(5.0, 1.0, 0.5)
        vals = [P.stability_estimate(spec, 4, budget=b, seed=2).estimate for b in (2, 5, 9)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_fcc_configuration_has_positive_energy_density(self):
        # close-packed cluster scaled to the shell of the step potential
        ru = P.ruelle(1.0, 0.3)
        pts = P.fcc_points(2)
        u = P.configuration_energy(ru, pts)
        assert -u / len(pts) > 0

    def test_bbar_dominates_b_on_sweep(self):
        spec = P.attractive_well(1.0, 0.5)
        for n in (3, 4, 5, 6):
            rep = P.stability_estimate(spec, n, budget=4, seed=0)
            assert rep.bbar_estimate >= rep.estimate
            assert rep.bbar_estimate == pytest.approx(n / (n - 1) * rep.estimate, rel=1e-14)

    def test_strongly_basuev_caps_stability_estimate(self):
        # certified direction: the true constant is at most mu_hat(a)/2, so
        # any search lower bound must stay below it
        spec = P.lj_type()
        a_star = P.strongly_basuev_core_radius(spec)
        cls = P.basuev_classify(spec, 0.9 * a_star)
        assert cls.verdict == "strongly_basuev"
        for n in (4, 6, 8):
            rep = P.stability_estimate(spec, n, budget=6, seed=1)
            assert rep.estimate <= cls.mu_hat / 2 + 1e-6


class TestFccWitness:
    def test_first_shell(self):
        w = P.fcc_witness(1)
        assert (w.n, w.bond_count) == (13, 36)

    def test_single_site(self):
        assert P.fcc_witness(0).bond_count == 0


    @pytest.mark.parametrize("shells", range(5))
    def test_bonds_match_a_pairwise_count(self, shells):
        pts = P.fcc_points(shells)
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        pairs = np.triu(np.abs(dist - 1.0) <= 1e-9, k=1)
        w = P.fcc_witness(shells)
        assert (w.n, w.bond_count) == (len(pts), int(pairs.sum()))
        assert w.points.tobytes() == pts.tobytes()

    def test_ratio_monotone_toward_six(self):
        ratios = [P.fcc_witness(s).bond_count / P.fcc_witness(s).n for s in (1, 3, 5, 7)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 6.0

    def test_certificate_exists(self):
        n, eps = P.ruelle_certificate(max_shells=12)
        w = None
        assert eps > 0 and n > 100

    def test_certificate_failure_raises(self):
        with pytest.raises(RuntimeError, match="certificate"):
            P.ruelle_certificate(max_shells=3)


class TestRuelleDivergence:
    def test_eps_zero_decays(self):
        div = P.ruelle_divergence_witness(1.0, 1.0, n_fixed=13, s_max=60, eps=0.0)
        assert div.ratios[-1] < 1e-3

    def test_default_parameters_grow(self):
        div = P.ruelle_divergence_witness(1.0, 1.0, n_fixed=13, s_max=200, eps=0.5)
        assert div.last_ratio > 10
        assert div.ratios[-1] > div.ratios[-2] > div.ratios[-3]

    def test_log_space_no_overflow(self):
        div = P.ruelle_divergence_witness(1.0, 1.0, n_fixed=13, s_max=10_000, eps=0.5)
        assert all(map(math.isfinite, div.log_terms))

    def test_derived_certificate(self):
        div = P.ruelle_divergence_witness(1.0, 1.0, s_max=50)
        assert div.eps > 0 and div.n > 100


class TestSphereVolume:
    def test_known_values(self):
        assert P.sphere_volume(2, 1.0) == pytest.approx(math.pi, abs=1e-15)
        assert P.sphere_volume(3, 1.0) == pytest.approx(4 * math.pi / 3, abs=1e-15)
        assert P.sphere_volume(4, 2.0) == pytest.approx(math.pi**2 / 2 * 16, rel=1e-14)


class TestRegularityIntegrals:
    def test_hard_core_closed_form(self):
        for d, expect in ((1, 2.0), (2, math.pi), (3, 4 * math.pi / 3)):
            ri = P.regularity_integrals(P.hard_core(1.0, dimension=d), 2.5)
            assert ri.c == pytest.approx(expect, abs=1e-8)
            assert ri.c_tilde == pytest.approx(expect, abs=1e-8)

    def test_square_well_closed_form(self):
        A, R, delta, beta = 2.0, 1.0, 0.25, 1.0
        ri = P.regularity_integrals(P.square_well(A, R, delta), beta)
        v_in = P.sphere_volume(3, R)
        v_shell = P.sphere_volume(3, R + delta) - v_in
        assert ri.c == pytest.approx(v_in * -math.expm1(-beta * A) + v_shell * math.expm1(beta), abs=1e-8)
        assert ri.c_tilde == pytest.approx(v_in * -math.expm1(-beta * A) + v_shell * -math.expm1(-beta), abs=1e-8)

    def test_strict_inequality_with_negative_region(self):
        ri = P.regularity_integrals(P.ruelle(1.0, 0.3), 0.7)
        assert ri.c_tilde < ri.c

    def test_nonintegrable_tail_rejected(self):
        bad = P.PairPotentialSpec("lj_type", (("a", 1.0), ("c1", 1.0), ("c2", 1.0), ("eps", -0.5)), 3)
        with pytest.raises(P.DivergentTailError):
            P.regularity_integrals(bad, 1.0)


    @pytest.mark.parametrize("params", [{}, {"eps": 2.0}, {"c2": 0.1},
                                        {"c1": 2.0, "c2": 0.5, "eps": 0.7, "a": 0.9}])
    def test_lj_type_against_its_tail_series(self, params):
        # beyond a: the integral of (e^(s x) - 1) r^2 with x = beta c2 r^-p, s = +-1, is
        # sum_k s^(k+1) (beta c2)^k a^(3 - kp) / (k! (kp - 3)); the core is one finite quad
        from scipy.integrate import quad

        beta = 0.7
        spec = P.lj_type(**params)
        p = spec.p
        a, power = p["a"], 3 + p["eps"]
        x = beta * p["c2"] * a**-power
        terms = [x**k / (math.factorial(k) * (k * power - 3)) for k in range(1, 80)]
        tail_c = a**3 * math.fsum(terms)
        tail_ct = a**3 * math.fsum(t if k % 2 else -t for k, t in enumerate(terms, start=1))
        core, _ = quad(lambda r: -math.expm1(-beta * p["c1"] * r**-power) * r * r, 0.0, a,
                       epsabs=1e-14, epsrel=1e-13, limit=200)
        ri = P.regularity_integrals(spec, beta)
        assert ri.c == pytest.approx(4 * math.pi * (core + tail_c), rel=1e-9)
        assert ri.c_tilde == pytest.approx(4 * math.pi * (core + tail_ct), rel=1e-9)

    def test_tail_coefficient_is_a_magnitude(self):
        assert P._tail(P.lj_type(c1=1.0, c2=-1.0, eps=2.0)) == (5.0, 1.0)
        assert P._tail(P.lj_type(c2=0.5, eps=0.7)) == (3.7, 0.5)
        assert P._tail(P.lennard_jones(epsilon=-1.0, sigma=2.0)) == (6.0, 128.0)
        assert P._tail(P.lennard_jones(epsilon=1.0, sigma=2.0)) == (6.0, 128.0)
        assert P._tail(P.square_well()) is None

    def test_nonnegative_lj_type_has_equal_integrals(self):
        # |V| is the same with either sign of the tail, and c = c_tilde when V >= 0
        ri = P.regularity_integrals(P.lj_type(c1=1.0, c2=-1.0, eps=2.0), 0.7)
        mirror = P.regularity_integrals(P.lj_type(c1=1.0, c2=1.0, eps=2.0), 0.7)
        assert ri.c == ri.c_tilde == mirror.c_tilde
        assert mirror.c_tilde < mirror.c

    @pytest.mark.parametrize("spec,mirror", [
        (P.lj_type(c1=-1.0, c2=1.0), P.lj_type(c1=1.0, c2=1.0)),
        (P.lennard_jones(epsilon=-1.0), P.lennard_jones(epsilon=1.0)),
    ], ids=["lj_type", "lennard_jones"])
    def test_core_unbounded_below_has_infinite_c(self, spec, mirror):
        ri = P.regularity_integrals(spec, 0.7)
        assert ri.c == INF
        assert ri.c_tilde == P.regularity_integrals(mirror, 0.7).c_tilde
        assert math.isfinite(ri.c_tilde) and ri.c_tilde > 0

    def test_overflowing_boltzmann_factor_is_refused(self):
        with pytest.raises(ValueError, match="overflows a float in the regularity integrals"):
            P.regularity_integrals(P.lj_type(c2=5.0, eps=3.0, a=0.5), 3.0)

    def test_lj_values_stable_under_tolerance(self):
        r1 = P.regularity_integrals(P.lennard_jones(), 1.0)
        r2 = P.regularity_integrals(P.lennard_jones(), 1.0, abs_tol=1e-10)
        assert r1.c == pytest.approx(r2.c, abs=1e-8)
        assert r1.c_tilde == pytest.approx(r2.c_tilde, abs=1e-8)


class TestEnvelope:
    def test_square_well_core_deeper_than_its_well(self):
        # the envelope is 5 on [0, 1] and 1 on (1, 1.25]
        env = P.negative_part_envelope_integral(P.square_well(-5.0, 1.0, 0.25))
        v1, v2 = P.sphere_volume(3, 1.0), P.sphere_volume(3, 1.25)
        assert env == pytest.approx(5.0 * v1 + v2 - v1, rel=1e-14)

    def test_shallow_well_envelope_is_the_ball(self):
        for spec in (P.square_well(2.0, 1.0, 0.25), P.ruelle(1.0, 0.25)):
            env = P.negative_part_envelope_integral(spec)
            assert env == pytest.approx(P.sphere_volume(3, 1.25), rel=1e-14)


    def test_attractive_lj_type_core_is_not_integrable(self):
        assert P.negative_part_envelope_integral(P.lj_type(c1=-1.0, c2=1.0)) == math.inf

    def test_attractive_lennard_jones_core_is_not_integrable(self):
        assert P.negative_part_envelope_integral(P.lennard_jones(epsilon=-1.0)) == math.inf

    def test_repulsive_lj_type_tail_has_no_negative_part(self):
        assert P.negative_part_envelope_integral(P.lj_type(c1=1.0, c2=-1.0)) == 0.0

    def test_lj_type_tail_closed_form(self):
        from scipy.integrate import quad

        for spec in (P.lj_type(), P.lj_type(c1=2.0, c2=0.5, eps=0.7, a=0.9),
                     P.lj_type(c2=3.0, eps=2.0, a=1.5, dimension=2)):
            p, d = spec.p, spec.dimension
            power = d + p["eps"]
            tail, _ = quad(lambda r: p["c2"] * r ** (d - 1 - power), p["a"], np.inf,
                           epsabs=0.0, epsrel=1e-13)
            head = p["c2"] * p["a"] ** -power * P.sphere_volume(d, p["a"])
            env = P.negative_part_envelope_integral(spec)
            assert env == pytest.approx(head + P.sphere_surface(d) * tail, rel=1e-12)


class TestBasuev:
    def test_nonnegative_is_strong(self):
        cls = P.basuev_classify(P.hard_core(1.0), 0.5)
        assert cls.verdict == "strongly_basuev" and cls.mu_hat == 0.0

    def test_power_law_root(self):
        spec = P.lj_type()
        a_star = P.strongly_basuev_core_radius(spec)
        assert 0 < a_star < 1
        assert P.basuev_classify(spec, 0.9 * a_star).verdict == "strongly_basuev"
        weaker = P.basuev_classify(spec, min(3.0 * a_star, 0.99))
        assert weaker.verdict in ("basuev", "not_basuev")


    def test_nonnegative_lj_type_classifies_with_mu_zero(self):
        spec = P.lj_type(c1=1.0, c2=-1.0)
        cls = P.basuev_classify(spec, 0.5)
        assert cls.verdict == "strongly_basuev" and cls.mu_hat == 0.0
        assert P.strongly_basuev_core_radius(spec) == 1.0  # no crossing: the whole core

    def test_core_radius_needs_a_repulsive_core(self):
        for c1 in (-1.0, 0.0):
            with pytest.raises(ValueError, match="repulsive core"):
                P.strongly_basuev_core_radius(P.lj_type(c1=c1, c2=1.0))

    def test_square_well_kissing(self):
        cls = P.basuev_classify(P.square_well(12.0, 1.0, 0.01), 1.0)
        assert cls.verdict == "basuev"
        assert cls.kissing_used and cls.mu_hat == 12.0
        strong = P.basuev_classify(P.square_well(24.0, 1.0, 0.01), 1.0)
        assert strong.verdict == "strongly_basuev"

    def test_wide_shell_skips_kissing(self):
        cls = P.basuev_classify(P.square_well(12.0, 1.0, 0.5), 1.0)
        assert not cls.kissing_used

    def test_monotonicity_precondition(self):
        lj = P.lennard_jones()
        with pytest.raises(ValueError, match="monotone"):
            P.basuev_classify(lj, 1.5)  # beyond the minimum: V not >= V(a) inside


class TestDecomposition:
    def test_pointwise_identity(self):
        spec = P.square_well(2.0, 1.0, 0.25)
        split = P.basuev_decompose(spec, 0.5)
        for r in (0.05, 0.3, 0.5, 0.8, 1.1, 2.0):
            assert split.v_a(r) + split.k_a(r) == pytest.approx(P.potential_eval(spec, r), abs=1e-15)
            assert split.k_a(r) >= 0.0
            if r > 0.5:
                assert split.k_a(r) == 0.0

    def test_core_clamp(self):
        spec = P.lj_type()
        split = P.basuev_decompose(spec, 0.5)
        assert split.v_a(0.1) == P.potential_eval(spec, 0.5)

    def test_hard_core_degenerate(self):
        split = P.basuev_decompose(P.hard_core(1.0), 0.5)
        assert split.degenerate
        assert split.k_a(0.2) == 0.0
        assert split.v_a(0.2) == INF

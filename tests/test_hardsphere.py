import math

import pytest

from clusterexp import hardsphere as H


# estimate.hex() of gtilde(d, k, samples=300_001, seed).  300_001 is not a
# multiple of MC_BATCH, so a short last batch is drawn too.  The seed, the
# batch size and the order of the arithmetic fix every bit of these values.
PINNED_ESTIMATES = {
    (1, 2, 0): "0x1.fff3546a6c890p-3", (1, 2, 7): "0x1.016de87a22af4p-2",
    (1, 3, 0): "0x0.0p+0", (1, 3, 7): "0x0.0p+0",
    (1, 5, 0): "0x0.0p+0", (1, 5, 7): "0x0.0p+0",
    (2, 2, 0): "0x1.a6a79349235abp-2", (2, 2, 7): "0x1.a6eadbd63271ap-2",
    (2, 3, 0): "0x1.e3847d2b807edp-5", (2, 3, 7): "0x1.e4e2035b647e1p-5",
    (2, 5, 0): "0x0.0p+0", (2, 5, 7): "0x1.bf641457094acp-19",
    (3, 2, 0): "0x1.10738c3af8d2ap-1", (3, 2, 7): "0x1.0f8feb8f9f8a2p-1",
    (3, 3, 0): "0x1.2716a8927036fp-3", (3, 3, 7): "0x1.25398ed8bf661p-3",
    (3, 5, 0): "0x1.c661a4a8656fep-11", (3, 5, 7): "0x1.b168f3b451006p-11",
}


class TestClosedForms:
    def test_trivial_factors(self):
        for d in (1, 2, 3):
            assert H.gtilde(d, 0).estimate == 1.0
            assert H.gtilde(d, 1).estimate == 1.0

    def test_planar_pair_value(self):
        assert H.gtilde_closed_form(2, 2) == pytest.approx(3 * math.sqrt(3) / (4 * math.pi), abs=1e-16)

    def test_no_closed_form_beyond(self):
        assert H.gtilde_closed_form(2, 3) is None


class TestMonteCarlo:
    def test_pair_overlap_matches_closed_form(self):
        est = H.gtilde(2, 2, samples=200_000, seed=42)
        assert est.within(H.gtilde_closed_form(2, 2))

    def test_triple_overlap_near_reference(self):
        est = H.gtilde(2, 3, samples=200_000, seed=42)
        assert abs(est.estimate - 0.0589) < 0.004

    def test_reproducible_bit_exact(self):
        a = H.gtilde(2, 3, samples=100_000, seed=7)
        b = H.gtilde(2, 3, samples=100_000, seed=7)
        assert a.estimate == b.estimate and a.std_error == b.std_error

    def test_estimate_fixed_by_seed_and_samples(self):
        # the batch size is a module constant, so (seed, samples) replays a run
        assert H.MC_BATCH == 1 << 17
        assert H.gtilde(2, 3, samples=300_000, seed=1).estimate == 0.058646666666666666
        with pytest.raises(TypeError):
            H.gtilde(2, 3, samples=1000, seed=1, batch=1 << 16)

    @pytest.mark.parametrize("d,k,seed", sorted(PINNED_ESTIMATES))
    def test_estimate_pinned_bit_for_bit(self, d, k, seed):
        est = H.gtilde(d, k, samples=300_001, seed=seed)
        assert est.estimate.hex() == PINNED_ESTIMATES[d, k, seed]

    def test_seed_outside_the_philox_key_range_is_refused(self):
        for seed in (-1, 1 << 128):
            with pytest.raises(ValueError, match=f"got seed {seed}"):
                H.gtilde(2, 3, samples=10, seed=seed)

    def test_seed_changes_stream(self):
        a = H.gtilde(2, 3, samples=100_000, seed=7)
        b = H.gtilde(2, 3, samples=100_000, seed=8)
        assert a.estimate != b.estimate

    def test_monotone_in_k(self):
        ests = [H.gtilde(2, k, samples=150_000, seed=5).estimate for k in (2, 3, 4)]
        slack = 3 * math.sqrt(0.25 / 150_000)
        assert ests[0] >= ests[1] - slack
        assert ests[1] >= ests[2] - slack

    def test_three_dimensional_pairs(self):
        est = H.gtilde(3, 2, samples=100_000, seed=1)
        assert 0 < est.estimate < 1

    def test_six_points_never_fit(self):
        # the table truncates at s = 6: the probe must record zero hits
        est = H.gtilde(2, 6, samples=10_000_000, seed=0)
        assert est.estimate == 0.0


class TestPolynomial:
    def test_value_at_zero(self):
        assert H.cd_polynomial(0.0, H.G2_REFERENCE) == 1.0

    def test_derivative_at_zero(self):
        h = 1e-7
        deriv = (H.cd_polynomial(h, H.G2_REFERENCE) - 1.0) / h
        assert deriv == pytest.approx(1.0, abs=1e-6)

    def test_reference_table_heads(self):
        assert H.G2_REFERENCE[0] == H.G2_REFERENCE[1] == 1.0
        assert H.G2_REFERENCE[2] == pytest.approx(0.413497, abs=1e-6)


class TestImprovedRadius:
    def test_beats_threshold(self):
        r = H.improved_radius()
        assert r.coefficient >= 0.5107

    def test_reference_trial_close_to_optimum(self):
        mu0 = H.reference_mu_trial()
        val0 = mu0 / H.cd_polynomial(mu0, H.G2_REFERENCE)
        assert val0 == pytest.approx(0.5107, abs=1e-3)
        r = H.improved_radius()
        assert r.coefficient >= val0 - 1e-12

    def test_classical_coefficient(self):
        assert H.classical_radius_coefficient() == 1 / math.e
        r = H.improved_radius()
        assert r.gain == pytest.approx(r.coefficient * math.e, rel=1e-12)
        assert r.gain > 1.35

    def test_mc_table_feeds_radius(self):
        table = (1.0, 1.0, H.gtilde_closed_form(2, 2),
                 *(H.gtilde(2, s, samples=150_000, seed=3 + s).estimate for s in (3, 4, 5)))
        r = H.improved_radius(gtable=table)
        assert r.coefficient == pytest.approx(0.512, abs=5e-3)


class TestSphereVolumeReexport:
    def test_values(self):
        from clusterexp.potentials import sphere_volume

        assert sphere_volume(2, 1.0) == pytest.approx(math.pi)
        assert sphere_volume(3, 1.0) == pytest.approx(4 * math.pi / 3)

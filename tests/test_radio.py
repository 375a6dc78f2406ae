import math

import numpy as np
import pytest

from mmwcache import geometry as G
from mmwcache import radio as R


@pytest.fixture
def table_budget():
    return R.LinkBudget.from_table(tx_power_dbm=30.0)


class TestInstantaneousRate:
    def test_vanishes_at_distance(self, table_budget):
        params = R.ChannelParams.los_mmw()
        assert R.instantaneous_rate(1e9, table_budget, params) < 1.0

    def test_noise_scales_with_bandwidth(self, table_budget):
        params = R.ChannelParams.los_mmw()
        base = R.instantaneous_rate(20.0, table_budget, params)
        wide = R.LinkBudget(tx_power=table_budget.tx_power,
                            combined_gain=table_budget.combined_gain,
                            bandwidth=2 * table_budget.bandwidth,
                            noise_psd=table_budget.noise_psd)
        assert R.instantaneous_rate(20.0, wide, params) < 2 * base

    def test_strictly_decreasing(self, table_budget):
        params = R.ChannelParams.los_mmw()
        rates = [R.instantaneous_rate(r, table_budget, params)
                 for r in (5.0, 10.0, 20.0, 40.0)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_matches_integrand_form(self, table_budget):
        # same point evaluated through the quadrature integrand's algebra
        params = R.ChannelParams.los_mmw()
        r = 20.0
        direct = R.instantaneous_rate(r, table_budget, params)
        snr = (R.beta_constant(params) * table_budget.tx_power
               * table_budget.combined_gain * r ** -2.0
               / (table_budget.bandwidth * table_budget.noise_psd))
        again = table_budget.bandwidth * math.log2(1.0 + snr)
        assert direct == pytest.approx(again, rel=1e-12)


def _crossing(theta_hat_deg, distance=20.0, beamwidth_deg=10.0, speed=60 / 3.6):
    beam = G.BeamGeometry(n_beams=3, beamwidth=math.radians(beamwidth_deg),
                          anchor_angle=math.radians(beamwidth_deg))
    pose = G.entry_pose(beam, distance, heading=math.radians(theta_hat_deg),
                        speed=speed)
    return pose, beam


class TestAverageCachingRate:
    def test_closed_form_matches_quadrature(self, table_budget):
        params = R.ChannelParams.los_mmw()
        rng = np.random.default_rng(11)
        for _ in range(50):
            tk = rng.uniform(math.radians(2), math.radians(25))
            beam = G.BeamGeometry(n_beams=3, beamwidth=tk, anchor_angle=tk)
            theta_hat = rng.uniform(tk + 0.05, 0.5 * (math.pi + tk) - 0.05)
            pose = G.entry_pose(beam, rng.uniform(5, 60), heading=theta_hat,
                                speed=10.0)
            closed = R.average_caching_rate(pose, beam, table_budget, params)
            quad = R.quadrature_rate(pose, beam, table_budget, params)
            assert closed == pytest.approx(quad, rel=1e-6)

    def test_degenerate_beam_tends_to_point_rate(self, table_budget):
        # vanishing beamwidth and a near-radial crossing: the averaging
        # window collapses onto the entry point (the crossing average is a
        # radial-distance average, so obliquity would add a cosine factor)
        params = R.ChannelParams.los_mmw()
        tk = 1e-4
        beam = G.BeamGeometry(n_beams=3, beamwidth=tk, anchor_angle=tk)
        pose = G.entry_pose(beam, 20.0, heading=0.01, speed=10.0)
        coverage = G.beam_coverage_probability(3, tk)
        expected = coverage * R.instantaneous_rate(20.0, table_budget, params)
        value = R.average_caching_rate(pose, beam, table_budget, params)
        assert value == pytest.approx(expected, rel=1e-3)

    def test_los_exceeds_10gbps_at_20m(self, table_budget):
        params = R.ChannelParams.los_mmw()
        for deg in (20.0, 30.0, 50.0, 70.0):
            pose, beam = _crossing(deg)
            rate = R.average_caching_rate(pose, beam, table_budget, params)
            assert rate > 10e9

    def test_nlos_bracket_at_20m(self, table_budget):
        # grazing crossing: the published two-gigabit non-line-of-sight point
        los = R.ChannelParams.los_mmw()
        nlos = R.ChannelParams(pathloss_exponent=3.5)
        pose, beam = _crossing(10.5)
        assert R.average_caching_rate(pose, beam, table_budget, los) > 10e9
        nlos_rate = R.average_caching_rate(pose, beam, table_budget, nlos)
        assert 1e9 < nlos_rate < 4e9

    def test_nlos_below_los_at_same_geometry(self, table_budget):
        los = R.ChannelParams.los_mmw()
        nlos = R.ChannelParams(pathloss_exponent=3.5)
        pose, beam = _crossing(50.0)
        assert (R.quadrature_rate(pose, beam, table_budget, nlos)
                < R.average_caching_rate(pose, beam, table_budget, los))

    def test_nonincreasing_in_entry_distance(self, table_budget):
        params = R.ChannelParams.los_mmw()
        rates = []
        for d in (10.0, 20.0, 40.0):
            pose, beam = _crossing(50.0, distance=d)
            rates.append(R.average_caching_rate(pose, beam, table_budget,
                                                params))
        assert rates[0] >= rates[1] >= rates[2]

    def test_scales_linearly_with_coverage(self, table_budget):
        params = R.ChannelParams.los_mmw()
        tk = math.radians(10)
        rate3 = R.average_caching_rate(*_crossing(50.0), table_budget, params)
        beam6 = G.BeamGeometry(n_beams=6, beamwidth=tk, anchor_angle=tk)
        pose6 = G.entry_pose(beam6, 20.0, heading=math.radians(50.0),
                             speed=60 / 3.6)
        rate6 = R.average_caching_rate(pose6, beam6, table_budget, params)
        ratio = (G.beam_coverage_probability(6, tk)
                 / G.beam_coverage_probability(3, tk))
        assert rate6 == pytest.approx(rate3 * ratio, rel=1e-9)

    @pytest.mark.parametrize("carrier_frequency", [1e3, 1e-20])
    def test_closed_form_holds_at_large_snr(self, table_budget,
                                            carrier_frequency):
        # SNR at 1 m of about 1e23 and 1e69: both arctans of the
        # antiderivative sit at pi/2 to the last digit
        los = R.ChannelParams(carrier_frequency, pathloss_exponent=2.0)
        nlos = R.ChannelParams(carrier_frequency, pathloss_exponent=3.5)
        for deg in (10.5, 20.0, 50.0, 70.0):
            for distance in (5.0, 20.0, 60.0):
                pose, beam = _crossing(deg, distance=distance)
                closed = R.average_caching_rate(pose, beam, table_budget, los)
                quad = R.quadrature_rate(pose, beam, table_budget, los)
                assert closed == pytest.approx(quad, rel=1e-6)
                nlos_rate = R.average_caching_rate(pose, beam, table_budget,
                                                   nlos)
                assert closed >= nlos_rate > 0.0

    def test_invalid_heading_raises(self, table_budget):
        params = R.ChannelParams.los_mmw()
        beam = G.BeamGeometry(n_beams=3, beamwidth=math.radians(10),
                              anchor_angle=math.radians(10))
        pose = G.entry_pose(beam, 20.0, heading=math.radians(5), speed=10.0)
        with pytest.raises(ValueError):
            R.average_caching_rate(pose, beam, table_budget, params)

    def test_quadrature_tolerance_validation(self, table_budget):
        pose, beam = _crossing(50.0)
        with pytest.raises(ValueError):
            R.quadrature_rate(pose, beam, table_budget,
                              R.ChannelParams.los_mmw(), tolerance=0.0)


class TestLinkBudget:
    def test_beta_consistency(self):
        params = R.ChannelParams.los_mmw()
        beta = R.beta_constant(params)
        lam = params.wavelength
        assert beta == pytest.approx((lam / (4 * math.pi)) ** 2, rel=1e-9)

    def test_table_budget_values(self):
        budget = R.LinkBudget.from_table(tx_power_dbm=30.0)
        assert budget.tx_power == pytest.approx(1.0)
        assert budget.combined_gain == pytest.approx(10 ** 3.6)
        assert budget.bandwidth == 5e9
        assert budget.noise_psd == pytest.approx(10 ** -20.4)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            R.LinkBudget(tx_power=0.0)

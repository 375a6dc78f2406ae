import math
import warnings

import numpy as np
import pytest

from mmwcache import geometry as G


class TestBeamCoverage:
    def test_full_cover_anchor(self):
        assert G.beam_coverage_probability(3, 2 * math.pi / 3) == 1.0

    def test_two_beams_zero_width_limit(self):
        assert G.beam_coverage_probability(2, 1e-12) == pytest.approx(0.25, abs=1e-9)

    def test_hand_value(self):
        assert G.beam_coverage_probability(4, math.pi / 6) == pytest.approx(
            0.6111, abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            G.beam_coverage_probability(1, 0.1)
        with pytest.raises(ValueError):
            G.beam_coverage_probability(3, 0.0)
        with pytest.raises(ValueError):
            G.beam_coverage_probability(3, math.nan)
        with pytest.raises(ValueError):
            G.beam_coverage_probability(4, 2.0)   # 4*2 > 2*pi

    def test_monotone_in_beamwidth_and_unit_range(self):
        for n in range(2, 7):
            prev = 0.0
            for frac in np.linspace(0.05, 1.0, 12):
                p = G.beam_coverage_probability(n, frac * 2 * math.pi / n)
                assert 0.0 <= p <= 1.0
                assert p >= prev - 1e-12
                prev = p
        assert G.beam_coverage_probability(5, 2 * math.pi / 5) == pytest.approx(1.0)


class TestExitDistances:
    def test_perpendicular_to_horizontal_edge(self):
        pose = G.Pose(3.0, 4.0, heading=0.0, speed=1.0)
        beam = G.BeamGeometry(anchor_angle=0.0, beamwidth=0.2)
        assert G.min_exit_distance(pose, beam) == pytest.approx(4.0)

    def test_point_on_edge(self):
        pose = G.Pose(5.0, 5.0 * math.tan(0.7), heading=0.0, speed=1.0)
        beam = G.BeamGeometry(anchor_angle=0.7, beamwidth=0.2)
        assert G.min_exit_distance(pose, beam) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        pose = G.Pose(10.0, 2.0, heading=0.0, speed=1.0)
        beam = G.BeamGeometry(anchor_angle=math.pi / 4, beamwidth=0.2)
        assert G.min_exit_distance(pose, beam) == pytest.approx(8 / math.sqrt(2),
                                                                abs=1e-9)

    def test_vertical_edge_uses_line_form(self):
        pose = G.Pose(-7.0, 3.0, heading=0.0, speed=1.0)
        beam = G.BeamGeometry(anchor_angle=math.pi / 2, beamwidth=0.2)
        assert G.min_exit_distance(pose, beam) == pytest.approx(7.0)


class TestTraverseDistance:
    def test_straight_drop(self):
        pose = G.Pose(0.0, 5.0, heading=-math.pi / 2, speed=1.0)
        beam = G.BeamGeometry(anchor_angle=0.0, beamwidth=0.2)
        assert G.beam_traverse_distance(pose, beam) == pytest.approx(5.0)

    def test_parallel_heading_raises(self):
        pose = G.Pose(1.0, 5.0, heading=0.3, speed=1.0)
        beam = G.BeamGeometry(anchor_angle=0.3, beamwidth=0.2)
        with pytest.raises(G.NoBeamCrossing):
            G.beam_traverse_distance(pose, beam)

    def test_hand_value(self):
        pose = G.Pose(2.0, 6.0, heading=3 * math.pi / 2, speed=1.0)
        beam = G.BeamGeometry(anchor_angle=math.pi / 3, beamwidth=0.2)
        expected = (6.0 - 2.0 * math.tan(math.pi / 3))
        assert G.beam_traverse_distance(pose, beam) == pytest.approx(expected,
                                                                     abs=1e-4)

    def test_behind_raises(self):
        pose = G.Pose(0.0, 5.0, heading=math.pi / 2, speed=1.0)
        beam = G.BeamGeometry(anchor_angle=0.0, beamwidth=0.2)
        with pytest.raises(G.NoBeamCrossing):
            G.beam_traverse_distance(pose, beam)


class TestCachingDurationCdf:
    def setup_method(self):
        self.beam = G.BeamGeometry(n_beams=3, beamwidth=math.radians(10),
                                   anchor_angle=math.radians(10))
        self.pose = G.entry_pose(self.beam, 20.0,
                                 heading=self.beam.anchor_angle + 1.0,
                                 speed=10.0)

    def test_zero_below_min_distance(self):
        r_min = G.min_exit_distance(self.pose, self.beam)
        assert G.caching_duration_cdf(self.pose, self.beam,
                                      0.5 * r_min / 10.0) == 0.0

    def test_boundary_continuity(self):
        r_min = G.min_exit_distance(self.pose, self.beam)
        assert G.caching_duration_cdf(self.pose, self.beam,
                                      r_min / 10.0) == pytest.approx(0.0, abs=1e-6)

    def test_negative_t_raises(self):
        with pytest.raises(ValueError):
            G.caching_duration_cdf(self.pose, self.beam, -1.0)

    def test_off_edge_pose_rejected(self):
        bad = G.Pose(20.0, 9.0, heading=1.0, speed=10.0)
        with pytest.raises(ValueError):
            G.caching_duration_cdf(bad, self.beam, 1.0)

    def test_monotone_and_saturates(self):
        grid = np.linspace(0.0, 60.0, 500)
        values = [G.caching_duration_cdf(self.pose, self.beam, t) for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] <= 1.0
        assert G.caching_duration_cdf(self.pose, self.beam, 1e9) == pytest.approx(
            1.0, abs=1e-4)


class TestHofProbability:
    def test_saturation(self):
        # at v*t_mts >= 2a no chord is longer than v*t_mts: exactly 1,
        # and no warning, since nothing was clamped
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert G.hof_probability(60.0, 1.0, 30.0) == 1.0
            assert G.hof_probability(61.0, 1.0, 30.0) == 1.0
            assert G.hof_probability(1e6, 1.0, 30.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            G.hof_probability(-1.0, 1.0, 30.0)
        with pytest.raises(ValueError):
            G.hof_probability(1.0, -1.0, 30.0)
        with pytest.raises(ValueError):
            G.hof_probability(1.0, 1.0, 0.0)

    def test_zero_speed(self):
        assert G.hof_probability(0.0, 1.0, 30.0) == 0.0

    def test_hand_value(self):
        assert G.hof_probability(16.0, 1.0, 30.0) == pytest.approx(0.1718,
                                                                   abs=1e-4)

    def test_monotonicity(self):
        speeds = np.linspace(1.0, 16.0, 8)
        probs = [G.hof_probability(v, 1.0, 30.0) for v in speeds]
        assert all(b > a for a, b in zip(probs, probs[1:]))
        radii = np.linspace(10.0, 60.0, 8)
        probs = [G.hof_probability(8.0, 1.0, a) for a in radii]
        assert all(b < a for a, b in zip(probs, probs[1:]))


class TestPose:
    def test_heading_normalized(self):
        pose = G.Pose(0.0, 0.0, heading=-math.pi / 2, speed=1.0)
        assert pose.heading == pytest.approx(1.5 * math.pi)

    def test_speed_positive(self):
        with pytest.raises(ValueError):
            G.Pose(0.0, 0.0, heading=0.0, speed=0.0)

    def test_beam_invariants(self):
        with pytest.raises(ValueError):
            G.BeamGeometry(n_beams=5, beamwidth=2.0)
        with pytest.raises(ValueError):
            G.BeamGeometry(beamwidth=math.nan)

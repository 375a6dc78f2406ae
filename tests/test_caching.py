import math

import numpy as np
import pytest

from mmwcache import caching as C


class TestCacheFill:
    def test_simple_burst(self):
        state = C.CacheState(segments=0)
        out = C.cache_fill(2e9, 1.0, state)
        assert out.segments == 2000

    def test_clamps_to_capacity(self):
        state = C.CacheState(segments=0)
        out = C.cache_fill(1e12, 100.0, state)
        assert out.segments == state.capacity

    def test_additive_merge(self):
        state = C.CacheState(segments=9500)
        out = C.cache_fill(2e9, 1.0, state)
        assert out.segments == state.capacity

    def test_pipeline_fills_completely(self):
        # crossing at >10 Gbps for a second dwarfs the segment budget
        from mmwcache.geometry import BeamGeometry, entry_pose, \
            beam_traverse_distance
        from mmwcache.radio import ChannelParams, LinkBudget, \
            average_caching_rate
        beam = BeamGeometry(n_beams=3, beamwidth=math.radians(10),
                            anchor_angle=math.radians(10))
        pose = entry_pose(beam, 20.0, heading=math.radians(30), speed=60 / 3.6)
        rate = average_caching_rate(pose, beam, LinkBudget.from_table(),
                                    ChannelParams.los_mmw())
        t_c = beam_traverse_distance(pose, beam) / pose.speed
        out = C.cache_fill(rate, t_c, C.CacheState(segments=0))
        assert out.segments == out.capacity

    def test_negative_inputs_raise(self):
        with pytest.raises(ValueError):
            C.cache_fill(-1.0, 1.0, C.CacheState())


class TestConservation:
    def test_cache_never_negative_or_over_capacity(self):
        rng = np.random.default_rng(4)
        state = C.CacheState(segments=0, capacity=1e4)
        fills = drains = 0.0
        for _ in range(500):
            if rng.uniform() < 0.5:
                add = rng.uniform(0, 3e9)
                fills += min(math.floor(add * 0.5 / state.segment_size_bits),
                             state.capacity)
                state = C.cache_fill(add, 0.5, state)
            else:
                dt = rng.uniform(0, 3)
                drains += state.play_rate * dt
                state = C.cache_drain(state, dt)
            assert 0.0 <= state.segments <= state.capacity

    def test_interval_conservation(self):
        state = C.CacheState(segments=1000)
        out = C.cache_fill(1e9, 1.0, state)      # +1000
        out = C.cache_drain(out, 0.5)            # -500
        assert out.segments == pytest.approx(
            min(1000 + 1000, out.capacity) - 500)


class TestValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            C.CacheState(segments=-1)
        with pytest.raises(ValueError):
            C.CacheState(segments=20001, capacity=2e4 - 1e4 * 2)

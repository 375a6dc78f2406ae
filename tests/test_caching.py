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

    def test_infinite_burst_clamps_to_capacity(self):
        # 1e10 bits over a 1e-320 bit segment overflow to inf segments
        state = C.CacheState(segments=0, segment_size_bits=1e-320)
        assert C.cache_fill(1e10, 1.0, state).segments == state.capacity
        assert C.cache_fill(math.inf, 1.0, C.CacheState()).segments == \
            state.capacity
        # finite bursts keep floor(rate * duration / B), clamped
        for rate, duration in ((2e9, 1.0), (1.5e6, 3.0), (1e300, 1e8)):
            assert C.cache_fill(rate, duration, C.CacheState()).segments == \
                min(math.floor(rate * duration / 1e6), 1e4)

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

    def test_nan_constants_refused(self):
        with pytest.raises(ValueError, match="play_rate must be positive"):
            C.CacheState(play_rate=math.nan)
        with pytest.raises(ValueError,
                           match="segment_size_bits must be positive"):
            C.CacheState(segment_size_bits=math.nan)
        with pytest.raises(ValueError, match="capacity must be nonnegative"):
            C.CacheState(capacity=math.nan)

    def test_infinite_play_rate_or_capacity_refused(self):
        # a drain could reach inf * 0 or inf - inf from either
        for kwargs in ({"play_rate": math.inf}, {"capacity": math.inf},
                       {"segments": math.inf, "capacity": math.inf}):
            with pytest.raises(ValueError, match="must be finite"):
                C.CacheState(**kwargs)

    def test_nan_play_time_refused_as_such(self):
        state = C.CacheState(segments=10.0)
        with pytest.raises(ValueError, match="play_time must be nonnegative"):
            C.cache_drain(state, math.nan)

    def test_nan_fill_arguments_refused_as_such(self):
        state = C.CacheState(segments=10.0)
        for rate, duration in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError,
                               match="avg_rate and duration must be "
                                     "nonnegative"):
                C.cache_fill(rate, duration, state)

    def test_undefined_burst_refused(self):
        # inf * 0 and inf / inf are NaN bursts, not "no segments"
        with pytest.raises(ValueError, match="is undefined"):
            C.cache_fill(math.inf, 0.0, C.CacheState())
        with pytest.raises(ValueError, match="is undefined"):
            C.cache_fill(math.inf, 1.0,
                         C.CacheState(segment_size_bits=math.inf))


class TestValueType:
    def test_make_and_replace_validate(self):
        state = C.CacheState(segments=5.0, capacity=10.0)
        with pytest.raises(ValueError, match="segments must lie"):
            state._replace(segments=11.0)
        with pytest.raises(ValueError, match="segments must lie"):
            state._replace(segments=-1.0)
        with pytest.raises(ValueError, match="segments must lie"):
            C.CacheState._make((11.0, 1e6, 1e3, 10.0))
        with pytest.raises(TypeError):
            C.CacheState._make((1.0, 1e6))
        assert type(state._replace(segments=7.0)) is C.CacheState
        assert C.CacheState._make(state) == state

    def test_fields_cannot_be_assigned(self):
        state = C.CacheState()
        for name in ("segments", "segment_size_bits", "play_rate",
                     "capacity"):
            with pytest.raises(AttributeError):
                setattr(state, name, 1.0)
        with pytest.raises(AttributeError):
            state.extra = 1.0

    def test_keyword_and_positional_construction_agree(self):
        state = C.CacheState(segments=3.0, segment_size_bits=2.0,
                             play_rate=4.0, capacity=5.0)
        assert state == C.CacheState(3.0, 2.0, 4.0, 5.0) == (3.0, 2.0, 4.0,
                                                            5.0)
        assert C.CacheState() == (0.0, 1e6, 1e3, 1e4)
        assert state.playback_seconds == 0.75

    def test_random_successors_are_valid_states(self):
        # every fill and drain result must pass the full constructor
        rng = np.random.default_rng(33)
        sizes = (1e-320, 1e-3, 1.0, 1e6, 1e300, math.inf)
        play_rates = (1e-300, 1e-3, 1.0, 1e3, 1e300)
        capacities = (0.0, 1.0, 1e4, 1e300)
        rates = (0.0, 1.0, 2e9, 1e300, math.inf)
        durations = (0.0, 1e-9, 0.5, 3.0, 1e8, 1e300)
        steps = 0
        for _ in range(300):
            capacity = capacities[rng.integers(len(capacities))]
            state = C.CacheState(
                segments=capacity * rng.uniform(),
                segment_size_bits=sizes[rng.integers(len(sizes))],
                play_rate=play_rates[rng.integers(len(play_rates))],
                capacity=capacity)
            for _ in range(20):
                duration = durations[rng.integers(len(durations))]
                if rng.uniform() < 0.5:
                    rate = rates[rng.integers(len(rates))]
                    if rng.uniform() < 0.5:
                        rate *= rng.uniform()
                    burst = rate * duration / state.segment_size_bits
                    if math.isnan(burst):
                        with pytest.raises(ValueError, match="undefined"):
                            C.cache_fill(rate, duration, state)
                        continue
                    expected = capacity if math.isinf(burst) else min(
                        state.segments + min(math.floor(burst), capacity),
                        capacity)
                    state = C.cache_fill(rate, duration, state)
                else:
                    expected = max(state.segments
                                   - state.play_rate * duration, 0.0)
                    state = C.cache_drain(state, duration)
                steps += 1
                assert type(state) is C.CacheState
                assert C.CacheState(*state) == state
                assert state.segments == expected
        assert steps > 5000

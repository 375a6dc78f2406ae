"""Device-side cache accounting.

CacheState is a value type: every operation returns a new state, so a single
simulation worker owns each MUE's state with no shared mutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CacheState:
    """Cached video segments plus the constants governing fill and drain."""

    segments: float = 0.0            # currently cached segments
    segment_size_bits: float = 1e6   # B
    play_rate: float = 1e3           # Q, segments per second
    capacity: float = 1e4            # maximum segments

    def __post_init__(self):
        if self.segment_size_bits <= 0.0:
            raise ValueError("segment_size_bits must be positive")
        if self.play_rate <= 0.0:
            raise ValueError("play_rate must be positive")
        if self.capacity < 0.0:
            raise ValueError("capacity must be nonnegative")
        if not 0.0 <= self.segments <= self.capacity:
            raise ValueError("segments must lie in [0, capacity]")

    @property
    def playback_seconds(self) -> float:
        """Seconds of playback the cache sustains at the play rate."""
        return self.segments / self.play_rate


def cache_fill(avg_rate: float, duration: float, state: CacheState) -> CacheState:
    """Add segments cached from a burst of avg_rate lasting duration.

    The burst contributes floor(rate*duration/B) segments, itself clamped to
    capacity, then merges additively with the existing content and is
    re-clamped (multi-cell trajectories accumulate fills). A burst that
    overflows to inf (a tiny B, an infinite rate) is clamped the same way.
    """
    if avg_rate < 0.0 or duration < 0.0:
        raise ValueError("avg_rate and duration must be nonnegative")
    segments = avg_rate * duration / state.segment_size_bits
    burst = (state.capacity if segments == math.inf
             else min(math.floor(segments), state.capacity))
    return CacheState(min(state.segments + burst, state.capacity),
                      state.segment_size_bits, state.play_rate, state.capacity)


def cache_drain(state: CacheState, play_time: float) -> CacheState:
    """Drain continuously at the play rate for play_time seconds."""
    if play_time < 0.0:
        raise ValueError("play_time must be nonnegative")
    return CacheState(max(state.segments - state.play_rate * play_time, 0.0),
                      state.segment_size_bits, state.play_rate, state.capacity)

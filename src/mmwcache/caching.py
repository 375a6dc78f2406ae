"""Device-side cache accounting.

CacheState is a value type, an immutable named tuple of the cached segments
and the constants that govern fill and drain. Every operation returns a new
state, so a single simulation worker owns each MUE's state with no shared
mutation. A state is validated when it is built, by keyword or position,
`_make` or `_replace`. The successors that `cache_fill` and `cache_drain`
return are valid by construction: each checks its own arguments, and its
arithmetic keeps the segments in [0, capacity], so they are built without
validating again. Being a tuple, a state compares equal to a plain tuple of
its fields.
"""

from __future__ import annotations

import math
from typing import NamedTuple

_INF = math.inf
_new = tuple.__new__


class _Fields(NamedTuple):
    segments: float = 0.0            # currently cached segments
    segment_size_bits: float = 1e6   # B
    play_rate: float = 1e3           # Q, segments per second
    capacity: float = 1e4            # maximum segments


class CacheState(_Fields):
    """Cached video segments plus the constants governing fill and drain.

    The play rate and the capacity are finite: an infinite one would let a
    drain reach inf * 0 or inf - inf, and no state could hold the result.
    """

    __slots__ = ()

    def __new__(cls, segments: float = 0.0, segment_size_bits: float = 1e6,
                play_rate: float = 1e3, capacity: float = 1e4):
        if not segment_size_bits > 0.0:
            raise ValueError("segment_size_bits must be positive")
        if not play_rate > 0.0:
            raise ValueError("play_rate must be positive")
        if not capacity >= 0.0:
            raise ValueError("capacity must be nonnegative")
        if play_rate == _INF or capacity == _INF:
            raise ValueError("play_rate and capacity must be finite")
        if not 0.0 <= segments <= capacity:
            raise ValueError("segments must lie in [0, capacity]")
        return _new(cls, (segments, segment_size_bits, play_rate, capacity))

    @classmethod
    def _make(cls, iterable) -> "CacheState":
        # the named tuple's own _make (and so _replace) skips __new__
        return cls(*_Fields._make(iterable))

    @property
    def playback_seconds(self) -> float:
        """Seconds of playback the cache sustains at the play rate."""
        return self.segments / self.play_rate


def cache_fill(avg_rate: float, duration: float, state: CacheState) -> CacheState:
    """Add segments cached from a burst of avg_rate lasting duration.

    The burst contributes floor(rate*duration/B) segments, itself clamped to
    capacity, then merges additively with the existing content and is
    re-clamped (multi-cell trajectories accumulate fills). A burst that
    overflows to inf (a tiny B, an infinite rate) is clamped the same way;
    an undefined one (inf * 0, inf / inf) is refused.

    The result is valid by construction: with 0 <= burst <= capacity and
    the state's 0 <= segments <= capacity, min(segments + burst, capacity)
    lies in [0, capacity].
    """
    if not (avg_rate >= 0.0 and duration >= 0.0):
        raise ValueError("avg_rate and duration must be nonnegative")
    cached, size, play_rate, capacity = state
    segments = avg_rate * duration / size
    if segments == _INF:
        burst = capacity
    elif segments == segments:
        burst = min(math.floor(segments), capacity)
    else:
        raise ValueError(f"a burst of {avg_rate!r} b/s for {duration!r} s "
                         f"over {size!r}-bit segments is undefined")
    return _new(CacheState, (min(cached + burst, capacity), size, play_rate,
                             capacity))


def cache_drain(state: CacheState, play_time: float) -> CacheState:
    """Drain continuously at the play rate for play_time seconds.

    The result is valid by construction: with a finite play rate > 0 and
    play_time >= 0, max(segments - rate*play_time, 0.0) lies in
    [0, segments].
    """
    if not play_time >= 0.0:
        raise ValueError("play_time must be nonnegative")
    cached, size, play_rate, capacity = state
    return _new(CacheState, (max(cached - play_rate * play_time, 0.0), size,
                             play_rate, capacity))

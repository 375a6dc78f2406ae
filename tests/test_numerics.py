import math
import signal

import pytest

from mmwcache import numerics as N

TWO_PI = 2.0 * math.pi


def _hang(signum, frame):
    raise TimeoutError("adaptive_simpson ran past its alarm")


class TestWrapAngle:
    @pytest.mark.parametrize("angle", [
        0.0, 1.0, TWO_PI, -TWO_PI, 7.0, -7.0, 1e6, -1e6, 1e300, -1e300,
        -1e-18, -1e-300, -5e-324, -1e-15, math.nextafter(TWO_PI, 0.0)])
    def test_in_range(self, angle):
        assert 0.0 <= N.wrap_angle(angle) < TWO_PI

    def test_tiny_negative_angle_wraps_to_zero(self):
        assert N.wrap_angle(-1e-18) == 0.0

    def test_values(self):
        assert N.wrap_angle(1.0) == 1.0
        assert N.wrap_angle(-1.0) == pytest.approx(TWO_PI - 1.0)
        assert N.wrap_angle(1.0 + 3 * TWO_PI) == pytest.approx(1.0)


class TestClampUnit:
    @pytest.mark.parametrize("x", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_inside_is_unchanged(self, x):
        assert N.clamp_unit(x) == x

    @pytest.mark.parametrize("x,snapped", [
        (1.0 + 1e-13, 1.0), (1.0 + N.CLAMP_EPS, 1.0),
        (-1.0 - 1e-13, -1.0), (-1.0 - N.CLAMP_EPS, -1.0)])
    def test_snap_band(self, x, snapped):
        assert N.clamp_unit(x) == snapped

    @pytest.mark.parametrize("x", [1.0 + 1e-11, -1.0 - 1e-11, 2.0, -2.0])
    def test_beyond_band_raises(self, x):
        with pytest.raises(ValueError, match="beyond tolerance"):
            N.clamp_unit(x)

    def test_band_width_is_a_parameter(self):
        assert N.clamp_unit(1.05, eps=0.1) == 1.0
        with pytest.raises(ValueError):
            N.clamp_unit(1.05, eps=0.01)


class TestAdaptiveSimpson:
    def test_exact_on_a_cubic(self):
        # Simpson's rule integrates cubics exactly: the integral is 2
        value = N.adaptive_simpson(lambda x: x ** 3 - 2.0 * x + 1.0,
                                   0.0, 2.0)
        assert value == pytest.approx(2.0, rel=1e-15)

    def test_empty_interval(self):
        assert N.adaptive_simpson(math.exp, 1.5, 1.5) == 0.0

    def test_smooth_integrand(self):
        assert N.adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12) == \
            pytest.approx(2.0, abs=1e-11)

    def test_unreachable_tolerance_raises_with_estimate(self):
        # sqrt's unbounded slope at 0 keeps the local error estimate above
        # the halved tolerance down to max_depth
        with pytest.raises(N.QuadratureError) as info:
            N.adaptive_simpson(math.sqrt, 0.0, 1.0, tol=1e-16)
        assert info.value.value == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert info.value.achieved > 0.0
        assert "1e-16" in str(info.value)

    def test_evaluations_are_bounded(self):
        # sin(1/x) oscillates without end near 0: bisection would go on to
        # max_depth everywhere there, 2**60 intervals deep
        calls = [0]

        def f(x):
            calls[0] += 1
            return math.sin(1.0 / x) if x else 0.0

        # a hang fails the test instead of stalling the suite
        previous = signal.signal(signal.SIGALRM, _hang)
        signal.alarm(20)
        try:
            with pytest.raises(N.QuadratureError) as info:
                N.adaptive_simpson(f, 0.0, 1.0, tol=1e-10)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        # past the budget each interval still on the stack (at most one
        # per depth) evaluates its two midpoints once more
        assert N.MAX_EVALS <= calls[0] <= N.MAX_EVALS + 2 * 60 + 2
        # the integral is sin(1) - Ci(1) = 0.50407; the estimate comes with
        # its achieved error
        assert info.value.value == pytest.approx(0.50407, abs=0.05)
        assert info.value.achieved > 0.0

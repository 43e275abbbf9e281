import numpy as np
import pytest

from vlpnav.attitude import quat_identity
from vlpnav.blockage import (
    BlockageState,
    DrdConfig,
    DrdDetector,
    UndefinedRatioError,
    annotate_epochs,
    drd_step,
    rate_ratio,
    static_threshold_3d,
    threshold_2d,
)
from vlpnav.channel import LedBeacon, ReceiverConfig, RssSample, SampleFlag, predict_rss

from _synthetic import detect_stream, threshold_3d

RX = ReceiverConfig(area=1e-4, fov_half_angle=np.pi / 2)
LED = LedBeacon(led_id=0, position=np.array([0.0, 0.0, 2.0]), power=10.0)


class TestRateRatio:
    def test_constant(self):
        assert rate_ratio(1.0, 1.0, 1 / 120) == 0.0

    def test_descent(self):
        assert rate_ratio(1.0, 0.2, 1 / 120) == pytest.approx(-96.0)

    def test_rise(self):
        assert rate_ratio(0.2, 1.0, 1 / 120) == pytest.approx(480.0)

    def test_floor_raises(self):
        with pytest.raises(UndefinedRatioError):
            rate_ratio(0.0, 1.0, 1 / 120)
        with pytest.raises(UndefinedRatioError):
            rate_ratio(1e-13, 1.0, 1 / 120)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            rate_ratio(1.0, 1.0, 0.0)


class TestThreshold3d:
    def test_nadir_value(self):
        # Bracket at nadir, m = 1, D = 2: |4/2 - 1/2 - 1/2| = 1, so the
        # threshold is exactly v_max when omega_max = 0.
        thr = threshold_3d([0, 0, 0], quat_identity(), LED, RX, v_max=1.0, omega_max=0.0)
        assert thr == pytest.approx(1.0)

    def test_monotone_in_bounds(self):
        pd = [0.5, 0.2, 0.0]
        t00 = threshold_3d(pd, quat_identity(), LED, RX, 0.5, 0.0)
        t10 = threshold_3d(pd, quat_identity(), LED, RX, 1.0, 0.0)
        t11 = threshold_3d(pd, quat_identity(), LED, RX, 1.0, 0.5)
        assert t00 < t10 < t11

    def test_matches_2d_when_level(self):
        for s in (0.5, 1.0, 2.0):
            pd = [s, 0.0, 0.0]
            thr3 = threshold_3d(pd, quat_identity(), LED, RX, v_max=0.7, omega_max=0.0)
            thr2 = threshold_2d(s, 2.0, LED.order, v_max=0.7)
            # The 3-D bound also includes vertical-motion terms, so it
            # dominates the planar bound and matches its planar component.
            assert thr3 >= thr2 - 1e-12

    def test_planar_slice_agreement(self):
        # Restrict the position gradient to the plane: the norm of the
        # planar components reproduces the closed planar bound.
        from vlpnav.channel import rss_jacobian

        s, h, v_max = 1.3, 2.0, 0.9
        dp_dr, _ = rss_jacobian([s, 0, 0], quat_identity(), LED, RX)
        p = predict_rss([s, 0, 0], quat_identity(), LED, RX)
        planar = np.linalg.norm(dp_dr[:2] / p) * v_max
        assert planar == pytest.approx(threshold_2d(s, h, LED.order, v_max), rel=1e-12)


class TestThreshold2d:
    def test_under_led(self):
        assert threshold_2d(0.0, 2.0, 1.0, 1.0) == 0.0

    def test_value(self):
        assert threshold_2d(1.0, 2.0, 1.0, 1.0) == pytest.approx(0.8)

    def test_maximized_at_s_equals_h(self):
        # Calculus oracle: d/ds [s/(s^2+h^2)] = 0 at s = h.
        h = 1.7
        s_grid = np.linspace(0.0, 10.0, 20001)
        vals = [threshold_2d(s, h, 1.0, 1.0) for s in s_grid]
        assert abs(s_grid[int(np.argmax(vals))] - h) < 1e-3


class TestDrdStep:
    def test_constant_stream_never_blocks(self):
        state = BlockageState(reference=1.0)
        for _ in range(100):
            state = drd_step(state, 1.0, 1.0, 1 / 120, threshold=1.0)
        assert not state.blocked and state.transitions == 0

    def test_step_down_then_up(self):
        dt = 1 / 120
        values = [1.0] * 10 + [0.0] * 10 + [1.0] * 10
        tags, transitions = detect_stream(np.arange(30) * dt, values, 1.0,
                                          DrdConfig(v_max=1.0))
        assert transitions == 2
        np.testing.assert_array_equal(tags[10:20], True)
        np.testing.assert_array_equal(tags[:10], False)
        np.testing.assert_array_equal(tags[20:], False)

    def test_counter_parity_matches_tag(self):
        dt = 1 / 120
        rng = np.random.default_rng(0)
        state = BlockageState(reference=1.0)
        values = [1.0] * 5 + [0.0] * 5 + [1.0] * 5 + [0.02] * 5 + [1.0] * 5
        for i in range(len(values) - 1):
            state = drd_step(state, values[i], values[i + 1], dt, threshold=2.0)
            assert state.blocked == bool(state.transitions % 2)
        del rng

    def test_undefined_while_unblocked_blocks(self):
        state = drd_step(BlockageState(reference=1.0), 0.0, 0.0, 1 / 120, threshold=1.0)
        assert state.blocked and state.transitions == 1

    def test_floor_rise_uses_los_reference(self):
        dt = 1 / 120
        state = BlockageState(blocked=True, transitions=1, reference=2.0)
        # Noise wiggle at the floor stays blocked...
        state = drd_step(state, 0.0, 0.002, dt, threshold=1.0)
        assert state.blocked
        # ...but the true rise back toward the LOS level clears it.
        state = drd_step(state, 0.002, 1.9, dt, threshold=1.0)
        assert not state.blocked and state.transitions == 2

    def test_partial_shade_rise(self):
        dt = 1 / 120
        state = BlockageState(blocked=True, transitions=1, reference=2.0)
        state = drd_step(state, 1.0, 2.0, dt, threshold=5.0)
        assert not state.blocked

    def test_deterministic_pure_fold(self):
        dt = 1 / 120
        values = [1.0, 0.9, 0.0, 0.0, 1.0, 1.0]
        t = np.arange(len(values)) * dt
        out1 = detect_stream(t, values, 2.0, DrdConfig(v_max=1.0))
        out2 = detect_stream(t, values, 2.0, DrdConfig(v_max=1.0))
        np.testing.assert_array_equal(out1[0], out2[0])
        assert out1[1] == out2[1]


class TestMotionNoFalseAlarms:
    def test_slow_motion_below_threshold(self):
        """A vehicle moving within (v_max, omega_max) never trips the detector."""
        dt = 1 / 120.0
        duration = 20.0
        t = np.arange(0.0, duration, dt)
        v = 0.4
        # Straight pass under the LED, worst case for the changing rate.
        x = -4.0 + v * t
        values = np.array([predict_rss([xi, 0.3, 0.0], quat_identity(), LED, RX) for xi in x])
        thr = static_threshold_3d([-4, -1, 0], [4, 1, 1], LED, RX,
                                  DrdConfig(v_max=0.5, omega_max=0.0))
        tags, transitions = detect_stream(t, values, thr, DrdConfig(v_max=0.5))
        assert transitions == 0
        assert not tags.any()


class TestStaticThreshold:
    def test_dominates_pointwise(self):
        cfg = DrdConfig(v_max=0.5, omega_max=0.2, max_tilt=0.2)
        thr = static_threshold_3d([-2, -2, 0], [2, 2, 1], LED, RX, cfg)
        rng = np.random.default_rng(1)
        for _ in range(50):
            pd = rng.uniform([-2, -2, 0], [2, 2, 1])
            try:
                local = threshold_3d(pd, quat_identity(), LED, RX, cfg.v_max, cfg.omega_max)
            except ValueError:
                continue
            assert local <= thr * 1.25  # grid max with modest safety slack


class TestAnnotateEpochs:
    def make_epoch(self, t, value=1.0):
        return RssSample(timestamp=t, led_id=0, value=value, variance=0.01)

    def test_clean_window_is_los(self):
        raw_t = np.arange(0.0, 2.0, 1 / 120)
        tags = np.zeros(raw_t.shape, dtype=bool)
        out = annotate_epochs([self.make_epoch(0.5)], raw_t, tags, window=1.0)
        assert out[0].flag is SampleFlag.LOS

    def test_half_blocked_window_flagged(self):
        raw_t = np.arange(0.0, 2.0, 1 / 120)
        tags = (raw_t >= 0.5) & (raw_t < 1.0)
        out = annotate_epochs([self.make_epoch(0.5, value=0.5)], raw_t, tags, window=1.0)
        assert out[0].flag is SampleFlag.BLOCKED

    def test_blockage_spanning_two_windows(self):
        raw_t = np.arange(0.0, 3.0, 1 / 120)
        tags = (raw_t >= 0.8) & (raw_t < 1.2)
        out = annotate_epochs([self.make_epoch(0.5), self.make_epoch(1.5)], raw_t, tags, 1.0)
        assert out[0].flag is SampleFlag.BLOCKED
        assert out[1].flag is SampleFlag.BLOCKED

    def test_missing_coverage_invalid(self):
        raw_t = np.arange(0.0, 1.0, 1 / 120)
        tags = np.zeros(raw_t.shape, dtype=bool)
        out = annotate_epochs([self.make_epoch(5.0)], raw_t, tags, window=1.0)
        assert out[0].flag is SampleFlag.OUT_OF_FOV


class TestDetectorScene:
    def test_planar_mode_requires_hints(self):
        cfg = DrdConfig(v_max=0.5, mode="planar")
        with pytest.raises(ValueError):
            DrdDetector.for_scene(cfg, [LED], RX)

    def test_multi_led_streams_independent(self):
        cfg = DrdConfig(v_max=0.5, mode="planar", planar_hints={0: (1.0, 2.0), 1: (1.0, 2.0)})
        led1 = LedBeacon(led_id=1, position=np.array([1.0, 0.0, 2.0]), power=10.0)
        det = DrdDetector.for_scene(cfg, [LED, led1], RX)
        dt = 1 / 120
        n = 30
        t = np.repeat(np.arange(n) * dt, 2)
        ids = np.tile([0, 1], n)
        v0 = np.array([1.0] * 10 + [0.0] * 10 + [1.0] * 10)
        v1 = np.ones(n)
        values = np.empty(2 * n)
        values[0::2] = v0
        values[1::2] = v1
        out = det.run(t, ids, values)
        assert out[0][1].any() and not out[1][1].any()
        # Odd counter = blocked, even = unblocked.
        assert out[0][2][15] % 2 == 1
        assert out[0][2][-1] % 2 == 0


class TestConfigValidation:
    def test_sample_rate_floor(self):
        with pytest.raises(ValueError):
            DrdConfig(v_max=1.0, sample_rate=50.0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            DrdConfig(v_max=0.0)
        with pytest.raises(ValueError):
            DrdConfig(v_max=1.0, omega_max=-0.1)

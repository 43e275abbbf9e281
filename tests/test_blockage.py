import numpy as np
import pytest

from vlpnav.attitude import quat_identity
from vlpnav.blockage import DetectionSpec, DrdDetector, annotate_epochs, static_threshold_3d
from vlpnav.channel import LedBeacon, ReceiverConfig, SampleFlag, predict_rss

from _synthetic import (
    BlockageState,
    UndefinedRatioError,
    detect_stream,
    drd_step,
    loop_static_threshold_3d,
    rate_ratio,
    threshold_2d,
    threshold_3d,
)

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
        tags, counters = detect_stream(np.arange(30) * dt, values, 1.0,
                                       DetectionSpec(v_max=1.0, omega_max=0.0,
                                                     value_floor=1e-12))
        assert counters[-1] == 2
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
        cfg = DetectionSpec(v_max=1.0, omega_max=0.0, value_floor=1e-12)
        out1 = detect_stream(t, values, 2.0, cfg)
        out2 = detect_stream(t, values, 2.0, cfg)
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(out1[1], out2[1])


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
        cfg = DetectionSpec(v_max=0.5, omega_max=0.0, value_floor=1e-12, max_tilt_deg=0.0)
        thr = static_threshold_3d([-4, -1, 0], [4, 1, 1], LED, cfg)
        tags, counters = detect_stream(t, values, thr, cfg)
        assert counters[-1] == 0
        assert not tags.any()


class TestStaticThreshold:
    def test_dominates_pointwise(self):
        cfg = DetectionSpec(v_max=0.5, omega_max=0.2, value_floor=1e-12,
                            max_tilt_deg=float(np.rad2deg(0.2)))
        thr = static_threshold_3d([-2, -2, 0], [2, 2, 1], LED, cfg)
        rng = np.random.default_rng(1)
        for _ in range(50):
            pd = rng.uniform([-2, -2, 0], [2, 2, 1])
            try:
                local = threshold_3d(pd, quat_identity(), LED, RX, cfg.v_max, cfg.omega_max)
            except ValueError:
                continue
            assert local <= thr * 1.25  # grid max with modest safety slack

    def test_matches_loop_bit_for_bit(self):
        rng = np.random.default_rng(4)
        boxes = [([-2, -2, 0], [2, 2, 1]), ([0, 0, 0], [5, 5, 0.6]),
                 ([0, 0, 0.3], [3.8, 6.3, 0.3])]
        for room_min, room_max in boxes:
            for _ in range(8):
                normal = rng.normal(size=3) * [0.3, 0.3, 0.0] + [0.0, 0.0, 1.0]
                led = LedBeacon(led_id=0, position=rng.uniform([-1, -1, 1.5], [5, 5, 5]),
                                power=10.0, order=rng.uniform(1.0, 3.0),
                                normal=normal / np.linalg.norm(normal))
                cfg = DetectionSpec(v_max=rng.uniform(0.2, 1.0), omega_max=rng.uniform(0.0, 1.0),
                                    max_tilt_deg=rng.uniform(0.0, 40.0))
                assert (static_threshold_3d(room_min, room_max, led, cfg)
                        == loop_static_threshold_3d(room_min, room_max, led, cfg))


class TestAnnotateEpochs:
    def test_clean_window_is_los(self):
        raw_t = np.arange(0.0, 2.0, 1 / 120)
        tags = np.zeros(raw_t.shape, dtype=bool)
        assert list(annotate_epochs([0.5], raw_t, tags, window=1.0)) == [SampleFlag.LOS]

    def test_half_blocked_window_flagged(self):
        raw_t = np.arange(0.0, 2.0, 1 / 120)
        tags = (raw_t >= 0.5) & (raw_t < 1.0)
        assert list(annotate_epochs([0.5], raw_t, tags, window=1.0)) == [SampleFlag.BLOCKED]

    def test_blockage_spanning_two_windows(self):
        raw_t = np.arange(0.0, 3.0, 1 / 120)
        tags = (raw_t >= 0.8) & (raw_t < 1.2)
        out = annotate_epochs([0.5, 1.5, 2.5], raw_t, tags, 1.0)
        assert list(out) == [SampleFlag.BLOCKED, SampleFlag.BLOCKED, SampleFlag.LOS]

    def test_window_edges(self):
        # An epoch at t covers [t - 1/2, t + 1/2): its first raw sample
        # counts, the one at its end belongs to the next epoch.
        raw_t = np.arange(240) / 120
        blocked, los = SampleFlag.BLOCKED, SampleFlag.LOS
        for i, expected in ((0, [blocked, los]), (119, [blocked, los]), (120, [los, blocked])):
            tags = np.zeros(raw_t.shape, dtype=bool)
            tags[i] = True
            assert list(annotate_epochs([0.5, 1.5], raw_t, tags, window=1.0)) == expected

    def test_missing_coverage_invalid(self):
        raw_t = np.arange(0.0, 1.0, 1 / 120)
        tags = np.zeros(raw_t.shape, dtype=bool)
        assert list(annotate_epochs([5.0], raw_t, tags, window=1.0)) == [SampleFlag.OUT_OF_FOV]


class TestDetectorScene:
    def test_multi_led_streams_independent(self):
        cfg = DetectionSpec(v_max=0.5, omega_max=0.0, value_floor=1e-12)
        led1 = LedBeacon(led_id=1, position=np.array([1.0, 0.0, 2.0]), power=10.0)
        det = DrdDetector(cfg, {led.led_id: threshold_2d(1.0, 2.0, led.order, cfg.v_max)
                                for led in (LED, led1)})
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


def _drd_stream(rng, n):
    """A random raw stream over LOS levels, partial shade and samples at,
    near and below the floor (0.05), switching often enough that blocks
    start and clear back to back."""
    levels = np.array([2.0, 1.0, 0.98, 0.3, 0.06, 0.05, 0.02, 0.0])
    state = rng.integers(levels.size)
    v = np.empty(n)
    for i in range(n):
        if rng.random() < 0.3:
            state = rng.integers(levels.size)
        v[i] = levels[state] * (1.0 + 0.01 * rng.standard_normal()) if rng.random() < 0.5 \
            else levels[state]
    return v


class TestEventDrd:
    """``DrdDetector.run`` jumps from transition to transition; its tags and
    counters equal the per-sample :func:`drd_step` loop's, bit for bit."""

    CFG = DetectionSpec(value_floor=0.05)
    #: Streams that start each path: a block at the first sample by descent
    #: and by the floor, a stream that starts blocked (at the floor), back-
    #: to-back transitions, a block that never clears (by descent and at
    #: the floor), a floor sample that rises on its LOS reference, and the
    #: one- and two-sample streams.
    CASES = (
        [1.0, 0.1, 0.1, 1.0, 1.0],
        [0.0, 1.0, 1.0, 1.0],
        [0.02, 0.01, 0.03, 1.0, 1.0, 0.9],
        [1.0, 0.1, 1.0, 0.1, 1.0, 0.1, 1.0],
        [1.0, 1.0, 0.2, 0.2, 0.2, 0.21],
        [1.0, 1.0, 0.0, 0.0, 0.04, 0.05],
        [1.0, 0.0, 0.05, 0.9, 0.9],
        [1.0],
        [0.0],
        [1.0, 0.0],
        [0.0, 1.0],
    )

    @staticmethod
    def _check(detector, streams):
        """Interleave ``streams`` as LEDs 0, 1, ... and compare each LED's
        output with the loop over its own stream."""
        rows = [(t, led_id, x) for led_id, (times, values) in enumerate(streams)
                for t, x in zip(times, values)]
        rows.sort(key=lambda r: r[0])
        t, ids, v = (np.array(c, dtype=float) for c in zip(*rows))
        out = detector.run(t, ids, v)
        for led_id, (times, values) in enumerate(streams):
            tags, counters = detect_stream(times, values, detector.thresholds[led_id],
                                           detector.cfg)
            np.testing.assert_array_equal(out[led_id][0], times)
            np.testing.assert_array_equal(out[led_id][1], tags)
            np.testing.assert_array_equal(out[led_id][2], counters)

    def test_edge_cases_match_loop(self):
        dt = 1 / 120
        streams = [(np.arange(len(v)) * dt + 0.001 * i, np.array(v))
                   for i, v in enumerate(self.CASES)]
        detector = DrdDetector(self.CFG, {i: 20.0 for i in range(len(streams))})
        self._check(detector, streams)
        # Back to back: block, clear and block again on consecutive samples.
        assert list(detect_stream(*streams[3], 20.0, self.CFG)[1]) == [0, 1, 2, 3, 4, 5, 6]

    def test_random_streams_match_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n_leds = int(rng.integers(1, 4))
            streams = []
            for _ in range(n_leds):
                n = int(rng.integers(1, 120))
                # Irregular spacing, median below 10 ms.
                times = np.cumsum(rng.uniform(0.004, 0.0095, n))
                streams.append((times, _drd_stream(rng, n)))
            thresholds = {i: float(rng.uniform(1.0, 300.0)) for i in range(n_leds)}
            floor = float(rng.choice([1e-12, 0.05]))
            self._check(DrdDetector(DetectionSpec(value_floor=floor), thresholds), streams)


class TestConfigValidation:
    DETECTOR = DrdDetector(DetectionSpec(), {0: 1.0})

    def test_sample_rate_floor(self):
        t = np.arange(0.0, 5.0, 1 / 50)
        with pytest.raises(ValueError, match="below 100 Hz"):
            self.DETECTOR.run(t, np.zeros(t.shape), np.ones(t.shape))

    @pytest.mark.parametrize("start,duration", [(0.0, 5.0), (0.0, 30.0), (100.0, 5.0)])
    def test_nominal_rate_passes(self, start, duration):
        # Round-off puts the median spacing of these grids just above or
        # just below 10 ms.
        t = np.arange(start, start + duration, 0.01)
        out = self.DETECTOR.run(t, np.zeros(t.shape), np.ones(t.shape))
        assert not out[0][1].any()

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            DetectionSpec(v_max=0.0)
        with pytest.raises(ValueError):
            DetectionSpec(v_max=1.0, omega_max=-0.1)

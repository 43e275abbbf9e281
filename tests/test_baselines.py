import numpy as np
import pytest

from vlpnav.attitude import quat_from_euler, quat_multiply, quat_to_dcm
from vlpnav.baselines import (
    initial_state,
    lc_propagate,
    run_loosely_coupled,
    solve_pose_tilt,
    solve_position_rss,
    static_leveling,
)
from vlpnav.channel import SampleFlag, predict_rss
from vlpnav.dataio import load_dataset

from _synthetic import NavState, exact_rss, make_leds, make_rx, rss_rows

LEDS = make_leds()
LED_MAP = {led.led_id: led for led in LEDS}
RX = make_rx()
BOUNDS = (np.array([0.0, 0.0, 0.0]), np.array([3.0, 3.0, 3.0]))


class TestStaticLeveling:
    @pytest.mark.parametrize("roll,pitch", [(0.0, 0.0), (0.05, -0.1), (-0.12, 0.08)])
    def test_recovers_tilt(self, roll, pitch):
        q = quat_from_euler(roll, pitch, 0.7)
        g = np.array([0.0, 0.0, -9.80665])
        f_v = quat_to_dcm(q).T @ (-g)
        r, p = static_leveling(np.tile(f_v, (50, 1)))
        assert r == pytest.approx(roll, abs=1e-9)
        assert p == pytest.approx(pitch, abs=1e-9)


class TestSolvePositionRss:
    def test_recovers_position_from_exact_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pd = np.array([rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5),
                           rng.uniform(0.0, 0.5)])
            state = NavState(0.0, position=pd)
            samples = exact_rss(state, LEDS, RX, variance=1e-6)
            fix = solve_position_rss(samples, LED_MAP, RX, state.attitude,
                                     np.array([1.5, 1.5, 0.3]), bounds=BOUNDS)
            assert fix.ok
            assert np.linalg.norm(fix.position - pd) < 1e-6

    def test_insufficient_samples(self):
        state = NavState(0.0, position=np.array([1.0, 1.0, 0.0]))
        samples = exact_rss(state, LEDS[:2], RX)
        fix = solve_position_rss(samples, LED_MAP, RX, state.attitude,
                                 np.array([1.5, 1.5, 0.3]), bounds=BOUNDS)
        assert not fix.ok

    def test_planar_mode_fixes_height(self):
        pd = np.array([1.2, 0.9, 0.4])
        state = NavState(0.0, position=pd)
        samples = exact_rss(state, LEDS, RX, variance=1e-6)
        fix = solve_position_rss(samples, LED_MAP, RX, state.attitude,
                                 np.array([1.5, 1.5, 0.0]), fix_height=0.4,
                                 bounds=BOUNDS)
        assert fix.ok
        assert fix.position[2] == pytest.approx(0.4)
        assert np.linalg.norm(fix.position[:2] - pd[:2]) < 1e-6

    def test_degenerate_noise_rejected_by_bounds(self):
        # Absurd measurements push the solution out of the room.
        samples = rss_rows((0.0, led.led_id, 1e-9, 1e-6) for led in LEDS)
        fix = solve_position_rss(samples, LED_MAP, RX, np.array([1.0, 0, 0, 0]),
                                 np.array([1.5, 1.5, 0.3]), bounds=BOUNDS)
        assert not fix.ok or np.all(fix.position < BOUNDS[1] + 0.5)


class TestSolvePoseTilt:
    def test_recovers_planar_pose_and_pitch(self):
        # Five beacons: four unknowns need redundancy for a unique snapshot.
        from vlpnav.channel import LedBeacon

        leds5 = LEDS + [LedBeacon(led_id=9, position=np.array([1.5, 1.5, 3.0]),
                                  power=LEDS[0].power)]
        led_map5 = {led.led_id: led for led in leds5}
        pitch_true = 0.12
        pd = np.array([1.4, 1.1, 0.3])
        state = NavState(0.0, position=pd, attitude=quat_from_euler(0.0, pitch_true, 0.9))
        samples = exact_rss(state, leds5, RX, variance=1e-8)
        fix = solve_pose_tilt(samples, led_map5, RX, height=0.3,
                              init_xy=np.array([1.5, 1.5]), init_pitch=0.0,
                              init_yaw=0.9, bounds=BOUNDS)
        assert fix.ok
        assert np.linalg.norm(fix.position[:2] - pd[:2]) < 5e-3
        # The receiver normal (inclination) is recovered; the (pitch, yaw)
        # split is gauge: (-pitch, yaw - pi) gives the same normal, and RSS
        # cannot tell them apart.
        from vlpnav.metrics import normal_angle_deg

        assert normal_angle_deg(fix.attitude, state.attitude) < 0.5

    def test_needs_four_samples(self):
        state = NavState(0.0, position=np.array([1.4, 1.1, 0.3]))
        samples = exact_rss(state, LEDS[:3], RX)
        fix = solve_pose_tilt(samples, LED_MAP, RX, 0.3, np.array([1.5, 1.5]),
                              bounds=BOUNDS)
        assert not fix.ok


class TestOutOfFovStart:
    def test_both_solvers_converge(self):
        """A sample out of the FOV at the start guess drops out, then rejoins."""
        from vlpnav.channel import LedBeacon

        rx = make_rx(fov_deg=40.0)
        leds5 = LEDS + [LedBeacon(led_id=9, position=np.array([1.5, 1.5, 3.0]),
                                  power=LEDS[0].power)]
        pd = np.array([1.4, 1.1, 0.3])
        start = np.array([2.0, 0.6, 0.3])
        level = NavState(0.0, position=pd)
        samples = exact_rss(level, LEDS, rx, variance=1e-6)
        assert len(samples) == 4
        assert sum(predict_rss(start, level.attitude, led, rx) is None for led in LEDS) == 1
        # A LOS-flagged sample of a LED outside the FOV everywhere near the
        # room has no prediction: it must stay out of the fit and the RMS.
        far = LedBeacon(led_id=7, position=np.array([6.0, 6.0, 3.0]), power=LEDS[0].power)
        fix = solve_position_rss(np.concatenate([samples, rss_rows([(0.0, 7, 0.5, 1e-6)])]),
                                 {**LED_MAP, 7: far}, rx, level.attitude, start, bounds=BOUNDS)
        assert fix.ok
        assert np.linalg.norm(fix.position - pd) < 1e-6
        assert fix.resid_rms < 1e-3

        tilted = NavState(0.0, position=pd, attitude=quat_from_euler(0.0, 0.12, 0.9))
        samples = exact_rss(tilted, leds5, rx, variance=1e-8)
        assert len(samples) == 5
        q0 = quat_from_euler(0.0, 0.0, 0.9)
        assert sum(predict_rss(start, q0, led, rx) is None for led in leds5) == 1
        fix = solve_pose_tilt(samples, {led.led_id: led for led in leds5}, rx, height=0.3,
                              init_xy=start[:2], init_pitch=0.0, init_yaw=0.9,
                              bounds=BOUNDS)
        assert fix.ok
        assert np.linalg.norm(fix.position[:2] - pd[:2]) < 5e-3
        from vlpnav.metrics import normal_angle_deg

        assert normal_angle_deg(fix.attitude, tilted.attitude) < 0.5


class TestInitialState:
    def test_near_truth_on_mini_dataset(self, mini_dataset):
        ds = load_dataset(mini_dataset)
        x0 = initial_state(ds, np.full(len(ds.epoch_samples), SampleFlag.LOS))
        t0 = x0.timestamps
        k = int(np.argmin(np.abs(ds.truth.timestamps - t0)))
        # The corner start has weak vertical geometry; the initialization
        # only needs to land inside the estimator's position prior.
        assert np.linalg.norm(x0.position - ds.truth.position[k]) < 0.25
        from vlpnav.metrics import normal_angle_deg

        assert normal_angle_deg(x0.attitude, ds.truth.attitude[k]) < 1.0

    def test_ignores_ground_truth_labels(self, mini_dataset):
        """The first fix uses the flags it is given, never the dataset's labels."""
        ds = load_dataset(mini_dataset)
        los = np.full(len(ds.epoch_samples), SampleFlag.LOS)
        x0 = initial_state(ds, los)
        t0 = x0.timestamps
        ds.epoch_samples["flag"][ds.epoch_samples["timestamp"] == t0] = SampleFlag.BLOCKED
        x1 = initial_state(ds, los)
        np.testing.assert_array_equal(x1.position, x0.position)
        np.testing.assert_array_equal(x1.attitude, x0.attitude)


class TestLooselyCoupled:
    def test_attitude_is_the_gyro_loop(self, mini_dataset):
        """Each epoch's INS attitude is a per-sample ``quat_multiply`` loop
        from the initial alignment, bit for bit."""
        ds = load_dataset(mini_dataset)
        los = np.full(len(ds.epoch_samples), SampleFlag.LOS)
        traj = run_loosely_coupled(ds, los)
        ts = ds.imu.timestamps
        R_bv = ds.receiver.dcm_body_to_vlp
        q = initial_state(ds, los).attitude
        chain = [q]
        for i in range(ts.size - 1):
            dt = float(ts[i + 1] - ts[i])
            q = quat_multiply(q, np.concatenate(([1.0], 0.5 * (R_bv @ ds.imu.gyro[i]) * dt)))
            chain.append(q)
        # An epoch is output after the first sample that reaches its time.
        idx = np.maximum(np.searchsorted(ts, traj.timestamps), 1)
        assert len(traj.timestamps) == len(ds.epochs_by_time(los))
        np.testing.assert_array_equal(traj.attitude, np.array(chain)[idx])


class TestLcPropagate:
    """One epoch interval of the LC filter against the per-sample loop it
    replaced."""

    @staticmethod
    def _interval(seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 250))
        A = rng.normal(size=(6, 6))
        # A full covariance, as a Kalman update leaves it.
        P = A @ A.T + 0.1 * np.eye(6)
        return (rng.normal(size=3), rng.normal(size=3), P, rng.normal(0.0, 0.5, (m, 3)),
                rng.uniform(0.001, 0.03, m), float(rng.uniform(0.01, 2.0)))

    def test_covariance_matches_per_sample_recursion(self):
        for seed in range(30):
            p, v, P, acc, dts, q = self._interval(seed)
            F, Q, P_loop = np.eye(6), np.zeros((6, 6)), P.copy()
            for dt in dts.tolist():
                F[0, 3] = F[1, 4] = F[2, 5] = dt
                Q[3, 3] = Q[4, 4] = Q[5, 5] = q * dt
                Q[0, 0] = Q[1, 1] = Q[2, 2] = q * dt**3 / 3.0
                P_loop = F @ P_loop @ F.T + Q
            np.testing.assert_allclose(lc_propagate(p, v, P, acc, dts, q)[2], P_loop,
                                       rtol=1e-12)

    def test_position_velocity_match_sequential_loop(self):
        for seed in range(30):
            p, v, P, acc, dts, q = self._interval(seed)
            p_new, v_new, _ = lc_propagate(p, v, P, acc, dts, q)
            for a, dt in zip(acc, dts.tolist()):
                p = p + v * dt + 0.5 * a * dt**2
                v = v + a * dt
            np.testing.assert_array_equal(p_new, p)
            np.testing.assert_array_equal(v_new, v)

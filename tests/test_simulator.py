import warnings
from dataclasses import replace

import numpy as np
import pytest

from _synthetic import loop_kinematics
from vlpnav.attitude import quat_from_euler, quat_multiply, quat_to_dcm
from vlpnav.channel import SampleFlag
from vlpnav.simulator import (
    DetectionSpec,
    ImuSpec,
    RssSpec,
    Scenario,
    TrajectorySpec,
    _kinematics,
    generate_trajectory,
    glide,
    ideal_imu_from_kinematics,
    reference_scenarios,
    synthesize_imu,
    synthesize_rss,
)

GRAVITY = np.array([0.0, 0.0, -9.80665])


def quiet_imu(**kw):
    defaults = dict(
        rate_hz=200.0,
        accel_noise_density=1e-9,
        gyro_noise_density=1e-9,
        accel_bias_instability=1e-12,
        gyro_bias_instability=1e-12,
    )
    defaults.update(kw)
    return ImuSpec(**defaults)


def scenario_for(waypoints, speeds, *, imu=None, rss=None, blockages=(),
                 gimbal=(), initial_dwell=2.0, seed=1):
    base = reference_scenarios()["sim3d"]
    trajectory = TrajectorySpec(waypoints=waypoints, speeds=speeds, turn_rate=0.35,
                                initial_dwell=initial_dwell, gimbal_pitch_deg=gimbal)
    return Scenario(
        name="test", seed=seed, room_min=(0, 0, 0), room_max=(6, 6, 6),
        leds=base.leds, receiver=base.receiver, trajectory=trajectory,
        imu=imu or quiet_imu(), rss=rss or RssSpec(),
        blockages=blockages, detection=DetectionSpec(v_max=0.8, omega_max=0.8),
    )


class TestGlide:
    KNOTS = ((1.0, 0.5), (2.0, 2.0), (2.5, 2.0), (4.0, -1.0))

    def test_rate_is_the_slope_of_the_value(self):
        t = np.linspace(0.0, 5.0, 2001)
        h = 1e-6
        value, rate, _ = glide(self.KNOTS, t)
        up, _, _ = glide(self.KNOTS, t + h)
        down, _, _ = glide(self.KNOTS, t - h)
        np.testing.assert_allclose(rate, (up - down) / (2.0 * h), atol=1e-6)
        assert np.abs(rate).max() > 1.0

    def test_integral_matches_quadrature(self):
        t = np.linspace(0.0, 5.0, 500_001)
        value, _, integral = glide(self.KNOTS, t)
        steps = 0.5 * (value[1:] + value[:-1]) * np.diff(t)
        trapezoid = np.concatenate([[0.0], np.cumsum(steps)])
        # The running integral starts at the first knot: before it, the
        # held first level counts negative.
        np.testing.assert_allclose(integral, trapezoid - 0.5, atol=1e-9)

    def test_holds_outside_the_knots(self):
        t = np.array([-3.0, 0.0, 0.999, 4.0, 4.5, 10.0])
        value, rate, integral = glide(self.KNOTS, t)
        np.testing.assert_array_equal(value, [0.5, 0.5, 0.5, -1.0, -1.0, -1.0])
        np.testing.assert_array_equal(rate, 0.0)
        total = 1.25 + 1.0 + 0.75
        np.testing.assert_allclose(integral, [-2.0, -0.5, -0.0005, total, total - 0.5,
                                              total - 6.0], atol=1e-12)

    def test_zero_and_one_knot(self):
        t = np.linspace(-1.0, 3.0, 9)
        for out in glide((), t):
            np.testing.assert_array_equal(out, 0.0)
        value, rate, integral = glide(((1.0, 2.0),), t)
        np.testing.assert_array_equal(value, 2.0)
        np.testing.assert_array_equal(rate, 0.0)
        np.testing.assert_allclose(integral, 2.0 * (t - 1.0), atol=1e-15)

    def test_duplicate_knot_times_step_without_warnings(self):
        t = np.linspace(0.0, 5.0, 501)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, rate, integral = glide(((1.0, 0.0), (3.0, 0.0), (3.0, 1.0), (3.0, 4.0),
                                           (4.0, 4.0)), t)
        # Knots at one time keep their order; the last of them starts the level.
        np.testing.assert_array_equal(value[t < 3.0], 0.0)
        np.testing.assert_array_equal(value[t >= 3.0], 4.0)
        np.testing.assert_array_equal(rate, 0.0)
        np.testing.assert_allclose(integral, np.where(t < 3.0, 0.0, 4.0 * (t - 3.0)),
                                   atol=1e-12)

    @pytest.mark.parametrize("knots, level", [
        (((0.0, 0.0), (3.0, 30.0), (3.0, 0.0), (5.0, 0.0)), 0.0),
        (((0.0, 0.0), (3.0, 0.0), (3.0, 30.0), (5.0, 30.0)), 30.0)])
    def test_knots_at_one_time_keep_the_order_given(self, knots, level):
        value, rate, _ = glide(knots, np.array([4.0]))
        assert value[0] == level
        assert rate[0] == 0.0


def kinematics_cases():
    fixtures = reference_scenarios()
    return {
        "sim3d": fixtures["sim3d"],
        "expA": fixtures["expA"],
        "mini": fixtures["mini"],
        "coincident": scenario_for(((2.0, 2.0, 0.0), (2.0, 2.0, 0.0)), (0.3,)),
        "uphill": scenario_for(((1.0, 1.0, 0.0), (3.0, 1.0, 0.5)), (0.3,), initial_dwell=0.5),
        "zero-dwell": scenario_for(((0.5, 0.5, 0.0), (5.5, 0.5, 0.0)), (0.5,),
                                   initial_dwell=0.0),
        "coincident-start": scenario_for(((2.0, 2.0, 0.0), (2.0, 2.0, 0.0), (2.0, 4.0, 0.0)),
                                         (0.3, 0.3)),
        "stop-mid-path": scenario_for(((1.0, 1.0, 0.0), (3.0, 1.0, 0.0), (3.0, 1.0, 0.0),
                                       (3.0, 3.0, 0.4)), (0.3, 0.3, 0.3)),
    }


class TestKinematics:
    @pytest.mark.parametrize("name", list(kinematics_cases()))
    def test_matches_the_phase_loop(self, name):
        sc = kinematics_cases()[name]
        fields = ("t", "position", "velocity", "acceleration", "yaw", "yaw rate", "pitch",
                  "pitch rate")
        for field_name, new, old in zip(fields, _kinematics(sc), loop_kinematics(sc)):
            assert new.shape == old.shape, field_name
            np.testing.assert_allclose(new, old, rtol=0.0, atol=1e-12, err_msg=field_name)

    def test_body_rate_past_omega_max_rejected(self):
        sc = reference_scenarios()["mini"]
        fast = replace(sc.trajectory, gimbal_pitch_deg=((0.0, 0.0), (3.0, 0.0), (3.2, 30.0)))
        with pytest.raises(ValueError, match="body rate 4.9.. rad/s exceeds omega_max 0.6"):
            generate_trajectory(replace(sc, trajectory=fast))


class TestGenerateTrajectory:
    def test_coincident_waypoints_stationary(self):
        sc = scenario_for(((2.0, 2.0, 0.0), (2.0, 2.0, 0.0)), (0.3,))
        truth = generate_trajectory(sc)
        assert np.abs(truth.position - truth.position[0]).max() < 1e-9
        assert np.abs(truth.velocity).max() < 1e-9

    def test_straight_segment_duration_and_cruise(self):
        sc = scenario_for(((0.5, 0.5, 0.0), (5.5, 0.5, 0.0)), (0.5,), initial_dwell=0.0)
        truth = generate_trajectory(sc)
        # 5 m at 0.5 m/s average: 10 s, constant velocity mid-segment.
        assert truth.duration == pytest.approx(10.0, abs=0.02)
        mid = (truth.timestamps > 4.0) & (truth.timestamps < 6.0)
        speeds = np.linalg.norm(truth.velocity[mid], axis=1)
        assert np.ptp(speeds) < 1e-6
        assert speeds.mean() > 0.5  # cruise runs above the average speed

    def test_uphill_monotone_z_and_slope_pitch(self):
        sc = scenario_for(((1.0, 1.0, 0.0), (3.0, 1.0, 0.5)), (0.3,), initial_dwell=0.5)
        truth = generate_trajectory(sc)
        moving = np.linalg.norm(truth.velocity, axis=1) > 0.05
        z = truth.position[moving, 2]
        assert np.all(np.diff(z) >= -1e-9)
        # Mid-segment the body x-axis aligns with the slope direction.
        k = np.nonzero(moving)[0][moving.sum() // 2]
        R = quat_to_dcm(truth.attitude[k])
        slope_dir = np.array([2.0, 0.0, 0.5]) / np.linalg.norm([2.0, 0.0, 0.5])
        np.testing.assert_allclose(R[:, 0], slope_dir, atol=1e-6)

    def test_speed_limit_enforced(self):
        sc = scenario_for(((0.5, 0.5, 0.0), (1.3, 0.5, 0.0)), (0.75,))
        with pytest.raises(ValueError, match="cruise speed"):
            generate_trajectory(sc)

    def test_out_of_bounds_rejected(self):
        sc = scenario_for(((1.0, 1.0, 0.0), (9.0, 1.0, 0.0)), (0.3,))
        with pytest.raises(ValueError, match="bounds"):
            generate_trajectory(sc)

    def test_noiseless_imu_reintegrates_to_truth(self):
        sc = reference_scenarios()["mini"]
        truth = generate_trajectory(sc)
        dt = 1.0 / sc.imu.rate_hz
        p = truth.position[0].copy()
        v = truth.velocity[0].copy()
        q = truth.attitude[0].copy()
        R_vb = sc.receiver.dcm_body_to_vlp
        worst = 0.0
        for i in range(truth.timestamps.size - 1):
            R = quat_to_dcm(q)
            a_u = R @ (R_vb @ truth.specific_force_b[i]) + truth.gravity
            p = p + v * dt + 0.5 * a_u * dt**2
            v = v + a_u * dt
            q = quat_multiply(q, np.concatenate(([1.0], 0.5 * truth.gyro_v[i] * dt)))
            worst = max(worst, float(np.linalg.norm(p - truth.position[i + 1])))
        assert worst < 1e-4

    def test_gyro_consistent_with_attitude_sequence(self):
        sc = reference_scenarios()["mini"]
        truth = generate_trajectory(sc)
        dt = 1.0 / sc.imu.rate_hz
        q = truth.attitude[0].copy()
        expected = [q]
        for i in range(truth.timestamps.size - 1):
            q = quat_multiply(q, np.concatenate(([1.0], 0.5 * truth.gyro_v[i] * dt)))
            expected.append(q)
        np.testing.assert_array_equal(truth.attitude, np.array(expected))


class TestSynthesizeImu:
    def test_stationary_gravity_reaction(self):
        sc = scenario_for(((2.0, 2.0, 0.0), (2.0, 2.0, 0.0)), (0.3,))
        truth = generate_trajectory(sc)
        imu = synthesize_imu(truth, sc)
        R = quat_to_dcm(truth.attitude[0])
        expected = -(R.T @ GRAVITY)
        np.testing.assert_allclose(imu.accel.mean(axis=0), expected, atol=1e-6)
        np.testing.assert_allclose(imu.gyro.mean(axis=0), 0.0, atol=1e-6)

    def test_circular_motion_centripetal(self):
        # Kinematics oracle: uniform circle of radius r at speed v has a
        # horizontal specific-force component of magnitude v^2 / r.
        r, vmag = 2.0, 0.5
        omega = vmag / r
        t = np.arange(0.0, 20.0, 0.005)
        ang = omega * t
        acc = -(vmag**2 / r) * np.stack([np.cos(ang), np.sin(ang), 0 * ang], axis=1)
        yaw = ang + np.pi / 2
        quats = np.array([quat_from_euler(0.0, 0.0, y) for y in yaw])
        gyro_v = np.tile([0.0, 0.0, omega], (t.size, 1))
        f_b, w_b = ideal_imu_from_kinematics(quats, acc, gyro_v, GRAVITY, np.eye(3))
        horizontal = np.linalg.norm(f_b[:, :2], axis=1)
        np.testing.assert_allclose(horizontal, vmag**2 / r, rtol=1e-9)
        np.testing.assert_allclose(f_b[:, 2], 9.80665, atol=1e-9)
        np.testing.assert_allclose(w_b, gyro_v, atol=1e-12)

    def test_white_noise_level_matches_spec(self):
        spec = quiet_imu(accel_noise_density=2.5e-3, gyro_noise_density=3.6e-4)
        sc = scenario_for(((2.0, 2.0, 0.0), (2.0, 2.0, 0.0)), (0.3,),
                          imu=spec, initial_dwell=100.0)
        truth = generate_trajectory(sc)
        imu = synthesize_imu(truth, sc)
        dt = 1.0 / spec.rate_hz
        resid_a = imu.accel - truth.specific_force_b
        resid_g = imu.gyro - truth.gyro_b
        est_a = resid_a.std(axis=0) * np.sqrt(dt)
        est_g = resid_g.std(axis=0) * np.sqrt(dt)
        np.testing.assert_allclose(est_a, spec.accel_noise_density, rtol=0.1)
        np.testing.assert_allclose(est_g, spec.gyro_noise_density, rtol=0.1)

    def test_initial_bias_applied(self):
        spec = quiet_imu(initial_accel_bias=(0.01, -0.02, 0.03))
        sc = scenario_for(((2.0, 2.0, 0.0), (2.0, 2.0, 0.0)), (0.3,), imu=spec)
        truth = generate_trajectory(sc)
        imu = synthesize_imu(truth, sc)
        resid = (imu.accel - truth.specific_force_b).mean(axis=0)
        np.testing.assert_allclose(resid, [0.01, -0.02, 0.03], atol=1e-5)


class TestSynthesizeRss:
    def test_static_pose_constant_raw_value(self):
        sc = scenario_for(((2.5, 2.5, 0.0), (2.5, 2.5, 0.0)), (0.3,),
                          rss=RssSpec(raw_sigma=1e-12, epoch_sigma=1e-6))
        truth = generate_trajectory(sc)
        raw, _ = synthesize_rss(truth, sc)
        from vlpnav.channel import predict_rss

        lever = sc.receiver.lever_arm_vlp
        pd = truth.position[0] + quat_to_dcm(truth.attitude[0]) @ lever
        for led in sc.leds:
            vals = raw[raw[:, 1] == led.led_id, 2]
            expected = predict_rss(pd, truth.attitude[0], led, sc.receiver)
            np.testing.assert_allclose(vals, expected, rtol=1e-6)

    def test_half_window_blockage_halves_epoch_value(self):
        # The epoch centered at t = 2.5 summarizes [2.0, 3.0); blocking
        # [2.0, 2.5) removes exactly half of it.
        sc = scenario_for(((2.5, 2.5, 0.0), (2.5, 2.5, 0.0)), (0.3,),
                          rss=RssSpec(raw_sigma=1e-12, epoch_sigma=1e-9),
                          blockages=((5, 2.0, 2.5),), initial_dwell=6.0)
        truth = generate_trajectory(sc)
        _, epoch = synthesize_rss(truth, sc)
        led5 = epoch[epoch["led_id"] == 5]
        los = led5[led5["flag"] == SampleFlag.LOS]
        half = led5[np.isclose(led5["timestamp"], 2.5)]
        assert half["flag"][0] == SampleFlag.BLOCKED
        assert half["value"][0] == pytest.approx(0.5 * los["value"][0], rel=2e-2)

    def test_epoch_labels_exact_overlap_rule(self):
        sc = scenario_for(((2.5, 2.5, 0.0), (2.5, 2.5, 0.0)), (0.3,),
                          blockages=((5, 2.6, 3.1),), initial_dwell=8.0)
        truth = generate_trajectory(sc)
        _, epoch = synthesize_rss(truth, sc)
        for s in epoch:
            if s["led_id"] != 5:
                assert s["flag"] == SampleFlag.LOS
                continue
            overlaps = (s["timestamp"] - 0.5) < 3.1 and (s["timestamp"] + 0.5) > 2.6
            assert (s["flag"] == SampleFlag.BLOCKED) == overlaps

    def test_determinism_bit_identical(self):
        sc = reference_scenarios()["mini"]
        t1 = generate_trajectory(sc)
        t2 = generate_trajectory(sc)
        np.testing.assert_array_equal(t1.position, t2.position)
        i1, i2 = synthesize_imu(t1, sc), synthesize_imu(t2, sc)
        np.testing.assert_array_equal(i1.accel, i2.accel)
        np.testing.assert_array_equal(i1.gyro, i2.gyro)
        r1, e1 = synthesize_rss(t1, sc)
        r2, e2 = synthesize_rss(t2, sc)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(e1, e2)

    def test_different_seed_differs(self):
        sc1 = reference_scenarios(seed=1)["mini"]
        sc2 = reference_scenarios(seed=2)["mini"]
        t1, t2 = generate_trajectory(sc1), generate_trajectory(sc2)
        i1, i2 = synthesize_imu(t1, sc1), synthesize_imu(t2, sc2)
        assert not np.array_equal(i1.accel, i2.accel)


class TestReferenceScenarios:
    def test_sim3d_facts(self):
        sc = reference_scenarios()["sim3d"]
        assert sc.trajectory.waypoints[0] == (5.0, 0.0, 0.0)
        assert sc.room_max == (5.0, 5.0, 5.0)
        assert len(sc.leds) == 5
        assert len(sc.blockages) >= 3
        # 5x the tabulated i300 characteristics.
        assert sc.imu.accel_noise_density == pytest.approx(5 * 0.03 / 60.0)
        assert sc.imu.gyro_noise_density == pytest.approx(
            5 * 0.25 * np.pi / 180.0 / 60.0)
        assert sc.imu.accel_bias_instability == pytest.approx(5 * 0.03e-3 * 9.80665)
        assert sc.imu.gyro_bias_instability == pytest.approx(
            5 * 5.0 * np.pi / 180.0 / 3600.0)
        assert sc.rss.epoch_sigma == 0.1
        # An uphill stretch exists.
        zs = [w[2] for w in sc.trajectory.waypoints]
        assert max(zs) > 0.0

    def test_expa_facts(self):
        sc = reference_scenarios()["expA"]
        assert sc.room_max == (3.8, 6.3, 2.8)
        xy = [(round(l.position[0], 2), round(l.position[1], 2)) for l in sc.leds]
        assert xy == [(0.35, 1.34), (3.56, 1.15), (1.71, 3.31), (3.50, 6.25), (0.35, 5.97)]
        assert reference_scenarios()["expA_clean"].blockages == ()

    def test_json_round_trip(self, tmp_path):
        sc = reference_scenarios()["sim3d"]
        path = tmp_path / "scenario.json"
        sc.to_json(path)
        back = Scenario.from_json(path)
        assert back.to_dict() == sc.to_dict()

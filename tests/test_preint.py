import numpy as np
import pytest

from vlpnav.attitude import (
    quat_conjugate,
    quat_identity,
    quat_multiply,
    quat_from_euler,
    quat_normalize,
    quat_to_dcm,
)
from vlpnav.preint import ImuNoise, ImuStream, mechanize, preintegrate

from _synthetic import (
    NavState,
    bias_corrected,
    dead_reckon,
    imu_residual,
    imu_residual_jacobians,
    loop_preintegrate,
    stack_states,
)

GRAVITY = np.array([0.0, 0.0, -9.80665])
NOISE = ImuNoise(accel_density=2.5e-3, gyro_density=3.6e-4,
                 accel_bias_walk=2e-4, gyro_bias_walk=2e-5)
R_BV = np.eye(3)


def make_stream(n=200, rate=200.0, accel=None, gyro=None, t0=0.0):
    t = t0 + np.arange(n) / rate
    a = np.zeros((n, 3)) if accel is None else np.broadcast_to(accel, (n, 3)).copy()
    g = np.zeros((n, 3)) if gyro is None else np.broadcast_to(gyro, (n, 3)).copy()
    return ImuStream(t, a, g)


def random_motion_stream(rng, n=200, rate=200.0):
    """Smooth random specific-force / angular-rate profile."""
    t = np.arange(n) / rate
    a = np.stack([0.8 * np.sin(2 * np.pi * f * t + p) for f, p in
                  zip(rng.uniform(0.2, 0.8, 3), rng.uniform(0, 2 * np.pi, 3))], axis=1)
    w = np.stack([0.4 * np.sin(2 * np.pi * f * t + p) for f, p in
                  zip(rng.uniform(0.1, 0.5, 3), rng.uniform(0, 2 * np.pi, 3))], axis=1)
    return ImuStream(t, a, w)


def integrate_states(stream, t_end, x0, gravity, bias_acc=None, bias_gyro=None):
    """Ground-truth propagation oracle: first-order strapdown recursion."""
    ba = np.zeros(3) if bias_acc is None else np.asarray(bias_acc)
    bg = np.zeros(3) if bias_gyro is None else np.asarray(bias_gyro)
    p, v, q = x0.position.copy(), x0.velocity.copy(), x0.attitude.copy()
    t = stream.timestamps
    dts = np.empty(t.size)
    dts[:-1] = np.diff(t)
    dts[-1] = t_end - t[-1]
    for i in range(t.size):
        dt = dts[i]
        R = quat_to_dcm(q)
        acc_u = R @ (stream.accel[i] - ba) + gravity
        p = p + v * dt + 0.5 * acc_u * dt**2
        v = v + acc_u * dt
        q = quat_multiply(q, np.concatenate(([1.0], 0.5 * (stream.gyro[i] - bg) * dt)))
    return NavState(timestamp=t_end, position=p, velocity=v, attitude=q,
                    bias_acc=x0.bias_acc, bias_gyro=x0.bias_gyro)


class TestPreintegrate:
    def test_null_motion(self):
        pre = preintegrate(make_stream(), np.zeros(3), np.zeros(3), R_BV, NOISE, t_end=1.0)[0]
        np.testing.assert_allclose(pre.alpha, 0.0, atol=1e-15)
        np.testing.assert_allclose(pre.beta, 0.0, atol=1e-15)
        np.testing.assert_allclose(pre.gamma, quat_identity(), atol=1e-15)
        assert pre.dt == pytest.approx(1.0)
        # Covariance grows by noise accumulation only and stays PSD.
        assert np.all(np.linalg.eigvalsh(pre.cov) >= -1e-12)
        assert np.trace(pre.cov) > 0.0

    def test_bias_cancellation(self):
        ba = np.array([0.3, -0.2, 0.1])
        pre = preintegrate(make_stream(accel=ba), ba, np.zeros(3), R_BV, NOISE, t_end=1.0)[0]
        np.testing.assert_allclose(pre.alpha, 0.0, atol=1e-12)
        np.testing.assert_allclose(pre.beta, 0.0, atol=1e-12)

    def test_constant_acceleration_closed_form(self):
        pre = preintegrate(make_stream(accel=[1.0, 0, 0]), np.zeros(3), np.zeros(3),
                           R_BV, NOISE, t_end=1.0)[0]
        np.testing.assert_allclose(pre.beta, [1.0, 0, 0], atol=1e-9)
        np.testing.assert_allclose(pre.alpha, [0.5, 0, 0], atol=1e-9)

    def test_gamma_matches_direct_gyro_integration(self):
        rng = np.random.default_rng(0)
        stream = random_motion_stream(rng)
        pre = preintegrate(stream, np.zeros(3), np.zeros(3), R_BV, NOISE, t_end=1.0)[0]
        q = quat_identity()
        dts = np.diff(np.append(stream.timestamps, 1.0))
        for i in range(stream.timestamps.size):
            q = quat_multiply(q, np.concatenate(([1.0], 0.5 * stream.gyro[i] * dts[i])))
        assert min(np.linalg.norm(pre.gamma - q), np.linalg.norm(pre.gamma + q)) < 1e-9

    def test_mounting_rotation_applied(self):
        # Body x maps to VLP y: a body-frame x acceleration integrates as y.
        R_bv = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        pre = preintegrate(make_stream(accel=[1.0, 0, 0]), np.zeros(3), np.zeros(3),
                           R_bv, NOISE, t_end=1.0)[0]
        np.testing.assert_allclose(pre.beta, [0.0, 1.0, 0.0], atol=1e-9)

    def test_cov_psd_along_the_way(self):
        rng = np.random.default_rng(1)
        stream = random_motion_stream(rng, n=400, rate=200.0)
        pre = preintegrate(stream, np.zeros(3), np.zeros(3), R_BV, NOISE, t_end=2.0)[0]
        eig = np.linalg.eigvalsh(pre.cov)
        assert np.all(eig >= -1e-12)
        np.testing.assert_allclose(pre.cov, pre.cov.T, atol=1e-18)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ImuStream(np.array([]), np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            ImuStream(np.array([0.0, 0.0]), np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            preintegrate(make_stream(n=10), np.zeros(3), np.zeros(3), R_BV, NOISE, t_end=0.0)


class TestStackedMatchesLoop:
    """The stacked pre-integration against the per-sample loop it replaced.

    The covariance is a sum over samples that the loop and the scan add in
    different orders, so it is compared to 1e-13 of its largest entry: an
    entry 1e-7 of the largest (the theta_x-theta_y one of seed 20) moves by
    7e-12 of itself, the whole matrix by 2e-15 of its largest entry.
    """

    RTOL = 1e-12
    COV_ATOL = 1e-13  # of max |cov|
    FIELDS = ("alpha", "beta", "gamma", "dt", "bias_jac")

    def assert_matches(self, stream, bias_acc, bias_gyro, R_bv, t_end):
        pre = preintegrate(stream, bias_acc, bias_gyro, R_bv, NOISE, t_end=t_end)[0]
        ref = loop_preintegrate(stream, bias_acc, bias_gyro, R_bv, NOISE, t_end=t_end)
        for name in self.FIELDS:
            np.testing.assert_allclose(getattr(pre, name), getattr(ref, name),
                                       rtol=self.RTOL, atol=0, err_msg=name)
        np.testing.assert_allclose(pre.cov, ref.cov, rtol=self.RTOL,
                                   atol=self.COV_ATOL * np.abs(ref.cov).max(), err_msg="cov")
        np.testing.assert_array_equal(pre.bias_acc, ref.bias_acc)
        np.testing.assert_array_equal(pre.bias_gyro, ref.bias_gyro)
        assert pre.stream is stream
        return pre

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_random_motion_mounted_irregular_biased(self, seed):
        rng = np.random.default_rng(seed)
        n = 150
        t = 3.0 + np.cumsum(rng.uniform(2e-3, 8e-3, n))
        stream = ImuStream(t, rng.normal(size=(n, 3)) + [0.0, 0.0, 9.8],
                           0.5 * rng.normal(size=(n, 3)))
        R_bv = quat_to_dcm(quat_from_euler(*rng.uniform(-1.0, 1.0, 3)))
        self.assert_matches(stream, rng.normal(scale=0.05, size=3),
                            rng.normal(scale=5e-3, size=3), R_bv, t[-1] + 4e-3)

    def test_long_interval(self):
        rng = np.random.default_rng(23)
        n = 2000
        t = np.cumsum(rng.uniform(2e-3, 8e-3, n))
        stream = ImuStream(t, rng.normal(size=(n, 3)) + [0.0, 0.0, 9.8],
                           0.5 * rng.normal(size=(n, 3)))
        R_bv = quat_to_dcm(quat_from_euler(*rng.uniform(-1.0, 1.0, 3)))
        self.assert_matches(stream, rng.normal(scale=0.05, size=3),
                            rng.normal(scale=5e-3, size=3), R_bv, t[-1] + 4e-3)

    def test_single_sample(self):
        stream = ImuStream(np.array([0.25]), np.array([[0.3, -0.1, 9.7]]),
                           np.array([[0.2, 0.1, -0.4]]))
        R_bv = quat_to_dcm(quat_from_euler(0.1, -0.2, 0.3))
        pre = self.assert_matches(stream, [0.01, 0.0, -0.02], [1e-3, 0.0, 2e-3], R_bv, 0.26)
        assert pre.t_end == 0.26
        assert pre.dt == pytest.approx(0.01)


class TestBiasCorrected:
    def test_identity_at_linearization(self):
        rng = np.random.default_rng(2)
        pre = preintegrate(random_motion_stream(rng), np.zeros(3), np.zeros(3),
                           R_BV, NOISE, t_end=1.0)[0]
        out = bias_corrected(pre, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(out.alpha, pre.alpha, atol=1e-15)
        np.testing.assert_allclose(out.beta, pre.beta, atol=1e-15)
        np.testing.assert_allclose(out.gamma, pre.gamma, atol=1e-15)

    @pytest.mark.parametrize("delta", [1e-3, 5e-3])
    def test_accel_correction_matches_reintegration(self, delta):
        rng = np.random.default_rng(3)
        stream = random_motion_stream(rng)
        pre = preintegrate(stream, np.zeros(3), np.zeros(3), R_BV, NOISE, t_end=1.0)[0]
        dba = delta * np.array([1.0, -0.5, 0.3])
        corrected = bias_corrected(pre, dba, np.zeros(3))
        exact = preintegrate(stream, dba, np.zeros(3), R_BV, NOISE, t_end=1.0)[0]
        assert np.linalg.norm(corrected.alpha - exact.alpha) < 10 * delta**2
        assert np.linalg.norm(corrected.beta - exact.beta) < 10 * delta**2

    @pytest.mark.parametrize("delta", [1e-3, 5e-3])
    def test_gyro_correction_matches_reintegration(self, delta):
        rng = np.random.default_rng(4)
        stream = random_motion_stream(rng)
        pre = preintegrate(stream, np.zeros(3), np.zeros(3), R_BV, NOISE, t_end=1.0)[0]
        dbg = delta * np.array([0.4, 1.0, -0.7])
        corrected = bias_corrected(pre, np.zeros(3), dbg)
        exact = preintegrate(stream, np.zeros(3), dbg, R_BV, NOISE, t_end=1.0)[0]
        dq = quat_multiply(quat_conjugate(exact.gamma), corrected.gamma)
        assert 2 * np.linalg.norm(dq[1:]) < 20 * delta**2
        assert np.linalg.norm(corrected.alpha - exact.alpha) < 20 * delta**2

    def test_warns_on_large_move(self):
        rng = np.random.default_rng(5)
        pre = preintegrate(random_motion_stream(rng), np.zeros(3), np.zeros(3),
                           R_BV, NOISE, t_end=1.0)[0]
        with pytest.warns(UserWarning):
            bias_corrected(pre, np.array([0.2, 0, 0]), np.zeros(3))


def random_state(rng, t=0.0):
    return NavState(
        timestamp=t,
        position=rng.uniform(-2, 2, 3),
        velocity=rng.uniform(-0.5, 0.5, 3),
        attitude=quat_normalize(rng.normal(size=4)),
        bias_acc=rng.uniform(-0.01, 0.01, 3),
        bias_gyro=rng.uniform(-0.001, 0.001, 3),
    )


class TestImuResidual:
    def test_zero_for_exactly_integrated_states(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            stream = random_motion_stream(rng)
            x0 = random_state(rng)
            ba, bg = x0.bias_acc, x0.bias_gyro
            biased = ImuStream(stream.timestamps, stream.accel + ba, stream.gyro + bg)
            x1 = integrate_states(biased, 1.0, x0, GRAVITY, ba, bg)
            pre = preintegrate(biased, ba, bg, R_BV, NOISE, t_end=1.0)[0]
            r = imu_residual(pre, x0, x1, GRAVITY)
            assert np.max(np.abs(r)) < 1e-9

    def test_position_perturbation_maps_through_rotation(self):
        rng = np.random.default_rng(7)
        stream = random_motion_stream(rng)
        x0 = random_state(rng)
        x1 = integrate_states(stream, 1.0, x0, GRAVITY)
        pre = preintegrate(stream, np.zeros(3), np.zeros(3), R_BV, NOISE, t_end=1.0)[0]
        x0 = NavState(0.0, x0.position, x0.velocity, x0.attitude)  # zero biases
        delta = 0.01
        x1p = x1.copy()
        x1p.position = x1.position + np.array([delta, 0, 0])
        dr = imu_residual(pre, x0, x1p, GRAVITY) - imu_residual(pre, x0, x1, GRAVITY)
        expected = quat_to_dcm(x0.attitude).T @ np.array([delta, 0, 0])
        np.testing.assert_allclose(dr[0:3], expected, atol=1e-12)
        np.testing.assert_allclose(dr[3:], 0.0, atol=1e-12)

    def test_identical_biases_zero_bias_blocks(self):
        rng = np.random.default_rng(8)
        x0, x1 = random_state(rng), random_state(rng, t=1.0)
        x1.bias_acc = x0.bias_acc.copy()
        x1.bias_gyro = x0.bias_gyro.copy()
        pre = preintegrate(random_motion_stream(rng), np.zeros(3), np.zeros(3),
                           R_BV, NOISE, t_end=1.0)[0]
        r = imu_residual(pre, x0, x1, GRAVITY)
        np.testing.assert_allclose(r[9:15], 0.0, atol=1e-15)

    def test_mechanize_closes_residual(self):
        rng = np.random.default_rng(9)
        x0 = random_state(rng)
        pre = preintegrate(random_motion_stream(rng), x0.bias_acc, x0.bias_gyro,
                           R_BV, NOISE, t_end=1.0)
        x1 = mechanize(pre, stack_states([x0]), GRAVITY, [1.0])[0]
        assert np.max(np.abs(imu_residual(pre[0], x0, x1, GRAVITY))) < 1e-12

    def test_mechanize_at_bias_offsets_matches_dead_reckoning(self):
        # Three intervals, each from a state whose biases are off its
        # linearization: the batched correction against the one-interval one.
        rng = np.random.default_rng(10)
        x0s = [random_state(rng) for _ in range(3)]
        lin = [(x.bias_acc + rng.uniform(-0.05, 0.05, 3),
                x.bias_gyro + rng.uniform(-0.02, 0.02, 3)) for x in x0s]
        pres = preintegrate(random_motion_stream(rng), *lin[0], R_BV, NOISE, t_end=1.0)
        for ba, bg in lin[1:]:
            pres = pres.append(preintegrate(random_motion_stream(rng), ba, bg, R_BV, NOISE,
                                            t_end=1.0))
        x1 = mechanize(pres, stack_states(x0s), GRAVITY, [1.0, 1.5, 2.0])
        for k, t in enumerate([1.0, 1.5, 2.0]):
            ref = dead_reckon(pres[k], x0s[k], GRAVITY, t)
            assert x1[k].timestamps == t
            for name in ("position", "velocity", "attitude", "bias_acc", "bias_gyro"):
                np.testing.assert_allclose(getattr(x1[k], name), getattr(ref, name),
                                           rtol=1e-14, atol=1e-15, err_msg=name)
        # The offsets move the result, so the correction is exercised.
        x_lin = stack_states([NavState(0.0, x.position, x.velocity, x.attitude, ba, bg)
                              for x, (ba, bg) in zip(x0s, lin)])
        moved = mechanize(pres, x_lin, GRAVITY, [1.0, 1.5, 2.0]).position - x1.position
        assert np.all(np.linalg.norm(moved, axis=1) > 1e-4)


class TestImuResidualJacobians:
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        stream = random_motion_stream(rng)
        lin_ba, lin_bg = rng.uniform(-0.005, 0.005, 3), rng.uniform(-5e-4, 5e-4, 3)
        pre = preintegrate(stream, lin_ba, lin_bg, R_BV, NOISE, t_end=1.0)[0]
        x0, x1 = random_state(rng), random_state(rng, t=1.0)
        # Bias offsets from the linearization exercise the correction path.
        x0.bias_acc = lin_ba + rng.uniform(-2e-3, 2e-3, 3)
        x0.bias_gyro = lin_bg + rng.uniform(-2e-4, 2e-4, 3)

        Jk, Jk1 = imu_residual_jacobians(pre, x0, x1, GRAVITY)
        h = 1e-6
        for J, which in ((Jk, 0), (Jk1, 1)):
            fd = np.zeros((15, 15))
            for i in range(15):
                e = np.zeros(15)
                e[i] = h
                if which == 0:
                    rp = imu_residual(pre, x0.perturb(e), x1, GRAVITY)
                    rm = imu_residual(pre, x0.perturb(-e), x1, GRAVITY)
                else:
                    rp = imu_residual(pre, x0, x1.perturb(e), GRAVITY)
                    rm = imu_residual(pre, x0, x1.perturb(-e), GRAVITY)
                fd[:, i] = (rp - rm) / (2 * h)
            scale = max(np.max(np.abs(fd)), 1.0)
            assert np.max(np.abs(J - fd)) / scale < 1e-5


class TestCovarianceConsistency:
    def test_monte_carlo_trace(self):
        """Propagated covariance tracks the sampled pre-integration error."""
        rng = np.random.default_rng(13)
        base = random_motion_stream(rng, n=200, rate=200.0)
        dt = 1.0 / 200.0
        pre_ref = preintegrate(base, np.zeros(3), np.zeros(3), R_BV, NOISE, t_end=1.0)[0]

        trials = 300
        errors = np.zeros((trials, 15))
        for k in range(trials):
            wn_a = rng.normal(size=(200, 3)) * NOISE.accel_density / np.sqrt(dt)
            wn_g = rng.normal(size=(200, 3)) * NOISE.gyro_density / np.sqrt(dt)
            rw_a = np.cumsum(rng.normal(size=(200, 3)) * NOISE.accel_bias_walk * np.sqrt(dt),
                             axis=0)
            rw_g = np.cumsum(rng.normal(size=(200, 3)) * NOISE.gyro_bias_walk * np.sqrt(dt),
                             axis=0)
            noisy = ImuStream(base.timestamps, base.accel + wn_a + rw_a,
                              base.gyro + wn_g + rw_g)
            pre = preintegrate(noisy, np.zeros(3), np.zeros(3), R_BV, NOISE, t_end=1.0)[0]
            dq = quat_multiply(quat_conjugate(pre_ref.gamma), pre.gamma)
            if dq[0] < 0:
                dq = -dq
            errors[k] = np.concatenate([
                pre.alpha - pre_ref.alpha,
                pre.beta - pre_ref.beta,
                2.0 * dq[1:],
                rw_a[-1],
                rw_g[-1],
            ])
        sample_trace = np.trace(np.cov(errors.T))
        model_trace = np.trace(pre_ref.cov)
        assert sample_trace == pytest.approx(model_trace, rel=0.2)

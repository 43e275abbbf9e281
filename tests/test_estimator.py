import logging
from dataclasses import replace

import numpy as np
import pytest

from vlpnav import estimator
from vlpnav.attitude import quat_from_euler, quat_to_dcm
from vlpnav.channel import DegenerateGeometryError, LedBeacon, RssSample, SampleFlag
from vlpnav.estimator import (
    ConstraintConfig,
    EstimatorConfig,
    MarginalPrior,
    SlidingWindow,
    TightlyCoupledEstimator,
    _marginalize_oldest,
    assemble_cost,
    dop,
    estimate_unknown_leds,
    normal_equations,
    schur_marginalize,
    solve_lm,
    vlp_jacobian_row,
    vlp_residual,
)
from vlpnav.preint import ImuStream, preintegrate
from vlpnav.state import ERROR_DIM, NavState

from _synthetic import (
    GRAVITY,
    NOISE,
    build_chain,
    constraint_residuals,
    exact_rss,
    loop_assemble_cost,
    loop_marginal_prior,
    make_leds,
    make_rx,
    preintegrate_chain,
)

LEDS = make_leds()
RX = make_rx()


def make_config(**kw):
    defaults = dict(
        imu_noise=NOISE,
        window_size=8,
        constraints=ConstraintConfig(use_nhc=False),
        gravity=tuple(GRAVITY),
    )
    defaults.update(kw)
    return EstimatorConfig(**defaults)


def fresh_window(config=None, leds=LEDS, rx=RX, led_init=None):
    return SlidingWindow(config or make_config(), leds, rx, led_init)


def sample_for(state, led, rx, variance=0.01):
    return exact_rss(state, [led], rx, variance)[0]


class TestVlpResidual:
    def test_zero_when_measurement_matches(self):
        state = NavState(0.0, position=np.array([1.0, 1.2, 0.0]))
        s = sample_for(state, LEDS[0], RX)
        assert vlp_residual(state, s, LEDS[0], RX) == pytest.approx(0.0, abs=1e-15)

    def test_zero_lever_arm_equals_channel_residual(self):
        from vlpnav.channel import predict_rss

        state = NavState(0.0, position=np.array([0.8, 0.9, 0.1]),
                         attitude=quat_from_euler(0.05, -0.04, 0.7))
        s = RssSample(0.0, LEDS[0].led_id, 0.5, 0.01)
        r = vlp_residual(state, s, LEDS[0], RX)
        expected = predict_rss(state.position, state.attitude, LEDS[0], RX) - 0.5
        assert r == pytest.approx(expected, abs=1e-15)

    def test_lever_arm_rotates_with_attitude(self):
        from vlpnav.channel import predict_rss

        rx = make_rx(lever_arm=(0.2, 0.0, 0.1))
        state = NavState(0.0, position=np.array([1.0, 1.0, 0.0]),
                         attitude=quat_from_euler(0.0, 0.0, np.pi / 2))
        s = RssSample(0.0, LEDS[1].led_id, 0.3, 0.01)
        r = vlp_residual(state, s, LEDS[1], rx)
        # Geometry oracle: rotate the lever arm explicitly.
        pd = state.position + quat_to_dcm(state.attitude) @ rx.dcm_body_to_vlp @ rx.lever_arm
        expected = predict_rss(pd, state.attitude, LEDS[1], rx) - 0.3
        assert r == pytest.approx(expected, abs=1e-15)
        # And the correction differs from the unrotated PD position.
        naive = predict_rss(state.position, state.attitude, LEDS[1], rx) - 0.3
        assert abs(r - naive) > 1e-6

    def test_out_of_fov_marker(self):
        rx = make_rx(fov_deg=20.0)
        state = NavState(0.0, position=np.array([3.0, 0.2, 0.0]))
        s = RssSample(0.0, LEDS[2].led_id, 0.1, 0.01)
        assert vlp_residual(state, s, LEDS[2], rx) is None


class TestVlpJacobianRow:
    @pytest.mark.parametrize("lever", [(0.0, 0.0, 0.0), (0.15, -0.05, 0.08)])
    def test_matches_finite_differences(self, lever):
        rx = make_rx(lever_arm=lever)
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = NavState(
                0.0,
                position=np.array([rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5),
                                   rng.uniform(0.0, 0.5)]),
                velocity=rng.normal(size=3),
                attitude=quat_from_euler(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                                         rng.uniform(-np.pi, np.pi)),
            )
            led = LEDS[int(rng.integers(len(LEDS)))]
            s = sample_for(state, led, rx)
            row, _ = vlp_jacobian_row(state, led, rx)
            h = 1e-6
            fd = np.zeros(ERROR_DIM)
            for i in range(ERROR_DIM):
                e = np.zeros(ERROR_DIM)
                e[i] = h
                rp = vlp_residual(state.perturb(e), s, led, rx)
                rm = vlp_residual(state.perturb(-e), s, led, rx)
                fd[i] = (rp - rm) / (2 * h)
            scale = max(np.max(np.abs(fd)), 1e-9)
            assert np.max(np.abs(row - fd)) / scale < 1e-5

    def test_velocity_and_bias_blocks_zero(self):
        state = NavState(0.0, position=np.array([1.1, 0.9, 0.2]))
        row, _ = vlp_jacobian_row(state, LEDS[0], make_rx(lever_arm=(0.1, 0, 0)))
        np.testing.assert_array_equal(row[3:6], 0.0)
        np.testing.assert_array_equal(row[9:15], 0.0)

    def test_zero_lever_attitude_block(self):
        from vlpnav.channel import rss_jacobian

        state = NavState(0.0, position=np.array([0.7, 1.3, 0.1]),
                         attitude=quat_from_euler(0.1, -0.05, 0.4))
        row, _ = vlp_jacobian_row(state, LEDS[3], RX)
        _, dp_dphi = rss_jacobian(state.position, state.attitude, LEDS[3], RX)
        R = quat_to_dcm(state.attitude)
        np.testing.assert_allclose(row[6:9], -(R.T @ dp_dphi), rtol=1e-12)

    def test_unknown_led_block_present(self):
        state = NavState(0.0, position=np.array([1.0, 1.0, 0.0]))
        row, block = vlp_jacobian_row(state, LEDS[0], RX, led_xy=LEDS[0].position[:2])
        assert block is not None and block.shape == (2,)
        # FD against the LED planar position.
        s = sample_for(state, LEDS[0], RX)
        h = 1e-6
        for i in range(2):
            xy_p = LEDS[0].position[:2].copy()
            xy_p[i] += h
            xy_m = LEDS[0].position[:2].copy()
            xy_m[i] -= h
            fd = (vlp_residual(state, s, LEDS[0], RX, xy_p)
                  - vlp_residual(state, s, LEDS[0], RX, xy_m)) / (2 * h)
            assert block[i] == pytest.approx(fd, rel=1e-5)


class TestConstraints:
    def test_height_zero_at_reference(self):
        cfg = ConstraintConfig(use_nhc=False, use_height=True, pd_height=0.3)
        state = NavState(0.0, position=np.array([1.0, 1.0, 0.3]))
        np.testing.assert_allclose(constraint_residuals(state, cfg), [0.0], atol=1e-15)

    def test_nhc_zero_for_forward_motion(self):
        cfg = ConstraintConfig(use_nhc=True)
        yaw = 0.8
        state = NavState(0.0, velocity=0.4 * np.array([np.cos(yaw), np.sin(yaw), 0.0]),
                         attitude=quat_from_euler(0.0, 0.0, yaw))
        np.testing.assert_allclose(constraint_residuals(state, cfg), 0.0, atol=1e-12)

    def test_nhc_lateral_slide(self):
        cfg = ConstraintConfig(use_nhc=True)
        state = NavState(0.0, velocity=np.array([0.0, 0.1, 0.0]))  # pure +y at yaw 0
        r = constraint_residuals(state, cfg)
        np.testing.assert_allclose(r, [0.1, 0.0], atol=1e-15)


def build_exact_window(n=4, lever=(0.0, 0.0, 0.0), config=None):
    rx = make_rx(lever_arm=lever)
    states, streams = build_chain(n)
    pres = preintegrate_chain(streams, states, rx)
    window = fresh_window(config or make_config(), rx=rx)
    window.append(0, states[0].copy(), None, exact_rss(states[0], LEDS, rx))
    for k in range(1, n):
        window.append(k, states[k].copy(), pres[k - 1], exact_rss(states[k], LEDS, rx))
    return window, states


class TestAssemble:

    def test_zero_residuals_zero_cost_and_gradient(self):
        window, _ = build_exact_window()
        H, g, cost = assemble_cost(window)
        assert cost < 1e-12
        assert np.max(np.abs(g)) < 1e-7

    def test_single_vlp_factor_outer_product(self):
        window = fresh_window()
        state = NavState(0.0, position=np.array([1.2, 0.8, 0.0]))
        s = RssSample(0.0, LEDS[0].led_id, 0.4, variance=0.02)
        window.append(0, state, None, [s])
        H, g, cost = assemble_cost(window)
        row, _ = vlp_jacobian_row(state, LEDS[0], RX)
        expected = np.outer(row, row) / 0.02
        np.testing.assert_allclose(H, expected, atol=1e-18)
        r = vlp_residual(state, s, LEDS[0], RX)
        assert cost == pytest.approx(0.5 * r * r / 0.02)

    def test_blocked_flag_downweights_cost(self):
        var_los = 0.01
        state = NavState(0.0, position=np.array([1.2, 0.8, 0.0]))
        costs = {}
        for flag in (SampleFlag.LOS, SampleFlag.BLOCKED):
            window = fresh_window()
            s = RssSample(0.0, LEDS[0].led_id, 0.4, variance=var_los, flag=flag)
            window.append(0, state.copy(), None, [s])
            _, _, costs[flag] = assemble_cost(window)
        ratio = costs[SampleFlag.LOS] / costs[SampleFlag.BLOCKED]
        assert ratio == pytest.approx(99.0 / var_los, rel=1e-12)

    def test_heading_direction_information_free(self):
        """Single-epoch RSS-only information: rotation about the PD normal."""
        rng = np.random.default_rng(1)
        for _ in range(10):
            window = fresh_window()
            state = NavState(
                0.0,
                position=np.array([rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5), 0.0]),
                attitude=quat_from_euler(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                                         rng.uniform(-np.pi, np.pi)),
            )
            window.append(0, state, None, exact_rss(state, LEDS, RX))
            H, _, _ = assemble_cost(window)
            e = np.zeros(ERROR_DIM)
            e[8] = 1.0  # attitude error about the PD normal
            assert e @ H @ e < 1e-12


class TestSolveLm:
    def test_already_optimal_no_motion(self):
        window, states = build_exact_window()
        before = window.states
        report = solve_lm(window)
        assert report.converged
        assert report.n_accepted <= 1
        for k in range(window.n_states):
            assert np.max(np.abs(window.states.state(k).boxminus(before.state(k)))) < 1e-10

    def test_pure_quadratic_one_undamped_step(self):
        # Position-only quadratic: prior plus a height factor; attitude at
        # linearization so no retraction nonlinearity enters.
        config = make_config(constraints=ConstraintConfig(
            use_nhc=False, use_height=True, height_sigma=0.02, pd_height=0.5))
        window = fresh_window(config, leds=[])
        x_lin = NavState(0.0, position=np.array([1.0, 1.0, 0.2]))
        window.append(0, x_lin.copy(), None, [])
        window.prior = MarginalPrior(np.diag(np.full(ERROR_DIM, 25.0)), np.zeros(ERROR_DIM),
                                     x_lin.copy(), np.zeros((0, 2)))
        report = solve_lm(window)
        # Linear least-squares oracle for the z component:
        # min 25 dz^2/2 + (z - 0.5)^2 / (2 * 4e-4), z = 0.2 + dz
        w_prior, w_h = 25.0, 1.0 / 0.02**2
        z_expected = (w_prior * 0.2 + w_h * 0.5) / (w_prior + w_h)
        assert report.iterations[0].accepted
        assert window.states[0].position[2] == pytest.approx(z_expected, abs=1e-12)

    def test_recovers_truth_from_perturbed_init(self):
        window, truth = build_exact_window(n=5)
        rng = np.random.default_rng(2)
        dx = np.zeros((window.n_states, ERROR_DIM))
        for row in dx:
            row[0:3] = rng.uniform(-0.05, 0.05, 3)
            row[6:9] = rng.uniform(-0.035, 0.035, 3)  # ~2 deg
        window.states = window.states.perturb(dx)
        report = solve_lm(window)
        assert report.converged
        for k, tru in enumerate(truth):
            est = window.states.state(k)
            assert np.linalg.norm(est.position - tru.position) < 1e-6
            assert np.linalg.norm(est.boxminus(tru)[6:9]) < 1e-6

    def test_one_normal_equations_pass_per_iteration(self, monkeypatch):
        # Each trial point is evaluated once, and an accepted one's
        # equations give the next step: no second pass on the same values.
        window = build_rich_window()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return normal_equations(*args, **kwargs)

        monkeypatch.setattr(estimator, "normal_equations", counted)
        report = solve_lm(window)
        monkeypatch.undo()
        assert len(calls) == len(report.iterations) + 1
        assert report.final_cost == normal_equations(window).cost

    def test_cost_non_increasing(self):
        window, _ = build_exact_window(n=5)
        rng = np.random.default_rng(3)
        window.states = window.states.perturb(rng.uniform(-0.03, 0.03,
                                                          (window.n_states, ERROR_DIM)))
        report = solve_lm(window)
        costs = [it.cost for it in report.iterations if it.accepted]
        assert all(c1 <= c0 + 1e-15 for c0, c1 in zip(costs, costs[1:]))


class TestSchurMarginalize:
    def test_linear_gaussian_chain_matches_batch(self):
        """Sliding a scalar linear chain reproduces the batch solution."""
        rng = np.random.default_rng(4)
        n = 12
        truth = np.cumsum(rng.normal(size=n))
        odo = np.diff(truth) + 0.1 * rng.normal(size=n - 1)
        meas = truth + 0.5 * rng.normal(size=n)
        w_odo, w_meas, w_prior = 1 / 0.1**2, 1 / 0.5**2, 1.0

        # Batch normal equations over all n states.
        H = np.zeros((n, n))
        g = np.zeros(n)
        H[0, 0] += w_prior
        for i in range(n):
            H[i, i] += w_meas
            g[i] += w_meas * (0.0 - meas[i])
        for i in range(n - 1):
            J = np.zeros(n)
            J[i], J[i + 1] = -1.0, 1.0
            H += w_odo * np.outer(J, J)
            g += w_odo * J * (0.0 - odo[i])
        batch = -np.linalg.solve(H, g)

        # Sliding window of width 3 over the same factors (linear case:
        # states stay at 0; the prior tracks (H, g) information exactly).
        width = 3
        Hp = np.array([[w_prior]])
        gp = np.array([0.0])
        keys = [0]
        est = None
        for k in range(n):
            keys_new = keys + [k] if k not in keys else keys
            m = len(keys_new)
            Hw = np.zeros((m, m))
            gw = np.zeros(m)
            idx = {s: i for i, s in enumerate(keys_new)}
            Hw[np.ix_(range(len(keys)), range(len(keys)))] += Hp
            gw[: len(keys)] += gp
            Hw[idx[k], idx[k]] += w_meas
            gw[idx[k]] += w_meas * (0.0 - meas[k])
            if k > 0:
                J = np.zeros(m)
                J[idx[k - 1]], J[idx[k]] = -1.0, 1.0
                Hw += w_odo * np.outer(J, J)
                gw += w_odo * J * (0.0 - odo[k - 1])
            keys = keys_new
            if len(keys) > width:
                out = schur_marginalize(Hw, gw, 1)
                assert out is not None
                Hw, gw = out
                keys = keys[1:]
            Hp, gp = Hw, gw
            est = -np.linalg.solve(Hw, gw)
        np.testing.assert_allclose(est, batch[-width:], atol=1e-9)

    def test_indefinite_returns_none(self):
        H = np.array([[-1.0, 0.0], [0.0, 1.0]])
        assert schur_marginalize(H, np.zeros(2), 1) is None


class TestSlideAndMarginalize:
    def test_indefinite_block_keeps_led_prior(self, caplog):
        # A prior state block with a large negative eigenvalue makes the
        # marginal block indefinite: the oldest state's factors are
        # dropped, the LED part of the old prior carries over.
        window = build_rich_window()
        old = window.prior
        old.hessian[0, 0] = -1e12
        e = ERROR_DIM
        with caplog.at_level(logging.WARNING, logger="vlpnav.estimator"):
            prior = _marginalize_oldest(window)
        assert "indefinite marginal block" in caplog.text
        np.testing.assert_array_equal(prior.hessian[:e], 0.0)
        np.testing.assert_array_equal(prior.hessian[:, :e], 0.0)
        np.testing.assert_array_equal(prior.gradient[:e], 0.0)
        np.testing.assert_array_equal(prior.hessian[e:, e:], old.hessian[e:, e:])
        np.testing.assert_array_equal(prior.gradient[e:], old.gradient[e:])
        np.testing.assert_array_equal(prior.led_lin, old.led_lin)
        assert np.abs(old.hessian[e:, e:]).min() > 0.0  # the LED block is not trivially zero

    def test_window_length_constant_over_100_slides(self):
        n = 104
        config = make_config(window_size=4)
        rx = RX
        states, streams = build_chain(n)
        pres = preintegrate_chain(streams, states, rx)
        window = fresh_window(config)
        window.append(0, states[0].copy(), None, exact_rss(states[0], LEDS, rx))
        window.prior = MarginalPrior(np.diag(config.prior.sqrt_info_diag()), np.zeros(ERROR_DIM),
                                     states[0].copy(), np.zeros((0, 2)))
        from vlpnav.estimator import slide_and_marginalize

        for k in range(1, n):
            slide_and_marginalize(window, k, states[k].copy(), pres[k - 1],
                                  exact_rss(states[k], LEDS, rx))
            assert window.n_states <= 4
        assert window.n_states == 4
        assert len(window.imu_factors) == 3
        assert window.prior is not None

    def test_windowed_matches_batch_on_mildly_nonlinear_run(self):
        """Fixed-lag estimates stay within 1% of the full batch solve."""
        n = 10
        rng = np.random.default_rng(5)
        states, streams = build_chain(n)
        pres = preintegrate_chain(streams, states, RX)
        rss = []
        for s in states:
            epoch = []
            for smp in exact_rss(s, LEDS, RX):
                noisy = max(smp.value + 0.003 * rng.normal(), 1e-6)
                epoch.append(RssSample(smp.timestamp, smp.led_id, noisy, 0.003**2))
            rss.append(epoch)

        def run(window_size):
            config = make_config(window_size=window_size)
            est = TightlyCoupledEstimator(config, LEDS, RX)
            x0 = states[0].perturb(0.01 * rng.standard_normal(ERROR_DIM) * 0)
            est.start(x0, rss[0])
            for k in range(1, n):
                est.step(pres[k - 1], rss[k], states[k].timestamp)
            return est.finalize()

        smoothed_batch = run(window_size=n + 1)
        smoothed_win = run(window_size=4)
        for a, b in zip(smoothed_win, smoothed_batch):
            denom = max(np.linalg.norm(b.position), 1.0)
            assert np.linalg.norm(a.position - b.position) / denom < 0.01


class TestDop:
    def test_circle_is_minimal(self):
        rng = np.random.default_rng(6)
        led = np.array([1.0, 2.0])
        ang = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        circle = led + np.stack([np.cos(ang), np.sin(ang)], axis=1)
        base = dop(circle, led)
        assert base == pytest.approx(2.0 / np.sqrt(12), rel=1e-9)
        for _ in range(20):
            squeezed = led + np.stack(
                [np.cos(ang * rng.uniform(0.2, 0.8)), np.sin(ang * rng.uniform(0.2, 0.8))],
                axis=1)
            assert dop(squeezed, led) >= base - 1e-12

    def test_collinear_is_infinite(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert dop(pts, np.array([3.0, 0.0])) == np.inf

    def test_cluster_worse_than_spread(self):
        led = np.array([0.0, 0.0])
        spread = np.array([[3.0, 0.0], [0.0, 3.0], [-3.0, 0.0], [0.0, -3.0]])
        cluster = np.array([[10.0, 0.0], [10.2, 0.1], [10.1, -0.1], [10.3, 0.0]])
        assert dop(cluster, led) > dop(spread, led)


class TestUnknownLeds:
    def test_recovery_from_offset_guess(self):
        # Well-spread trajectory: the vehicle translates diagonally through
        # the room so the bearing to the unknown LED sweeps a wide arc.
        n = 25
        x0 = NavState(timestamp=0.0, position=np.array([0.3, 0.6, 0.0]),
                      velocity=np.array([0.22, 0.14, 0.0]))
        states, streams = build_chain(n, x0=x0)
        pres = preintegrate_chain(streams, states, RX)
        unknown_id = LEDS[0].led_id
        # Window shorter than the run: unknown-LED information must
        # survive marginalization through the prior.
        config = make_config(window_size=12, unknown_led_ids=(unknown_id,))
        init = {unknown_id: LEDS[0].position[:2] + np.array([0.35, -0.35])}
        est = TightlyCoupledEstimator(config, LEDS, RX, led_init=init)
        est.start(states[0].copy(), exact_rss(states[0], LEDS, RX, variance=1e-4))
        report = None
        for k in range(1, n):
            report = est.step(pres[k - 1], exact_rss(states[k], LEDS, RX, variance=1e-4),
                              states[k].timestamp)
        result = estimate_unknown_leds(est.window, report)[unknown_id]
        assert not result.diverged
        assert np.linalg.norm(result.xy - LEDS[0].position[:2]) < 0.01

    def test_stationary_geometry_flagged(self):
        # All observations from one spot: the LED direction never changes,
        # so its planar block keeps the weak prior covariance (>> 1 m^2).
        unknown_id = LEDS[0].led_id
        config = make_config(window_size=10, unknown_led_ids=(unknown_id,))
        window = fresh_window(config, led_init={unknown_id: LEDS[0].position[:2] + 0.3})
        state = NavState(0.0, position=np.array([1.5, 1.5, 0.0]))
        window.append(0, state, None, exact_rss(state, LEDS, RX))
        report = solve_lm(window)
        result = estimate_unknown_leds(window, report)[unknown_id]
        assert result.diverged or result.cov_trace > 1.0


def build_rich_window(unseen_led=False):
    """A window with every special case the RSS and prior code paths have.

    Unknown LED 1 (0.2 m off), a blocked sample, an out-of-FOV LED, a LED
    sitting at one epoch's photodiode (degenerate), a lever arm, NHC and
    height constraints, and a marginal prior on the oldest state and the
    unknown LED.  States sit off the truth and measurements carry noise,
    so no residual vanishes.  With ``unseen_led``, LED 3 is unknown too
    (0.14 m off) and in the prior, but missing from epoch 0's samples: no
    factor of the oldest state reaches it.
    """
    rng = np.random.default_rng(11)
    rx = make_rx(lever_arm=(0.15, -0.05, 0.08), fov_deg=60.0)
    states, streams = build_chain(5, bias_acc=[0.01, -0.02, 0.005],
                                  bias_gyro=[1e-3, 2e-3, -1e-3])
    pres = preintegrate_chain(streams, states, rx)
    start = [s.perturb(0.02 * rng.normal(size=ERROR_DIM)) for s in states]
    pd2 = start[2].position + quat_to_dcm(start[2].attitude) @ rx.lever_arm_vlp
    leds = LEDS + [
        LedBeacon(led_id=8, position=np.array([12.0, 1.5, 3.0]), power=2e5),  # outside FOV
        LedBeacon(led_id=9, position=pd2, power=2e5),  # at epoch 2's photodiode
    ]
    config = make_config(constraints=ConstraintConfig(use_nhc=True, use_height=True,
                                                      pd_height=0.05),
                         unknown_led_ids=(1, 3) if unseen_led else (1,))
    window = fresh_window(config, leds=leds, rx=rx, led_init={
        1: LEDS[0].position[:2] + np.array([0.2, -0.15]),
        3: LEDS[2].position[:2] + np.array([-0.1, 0.1])})
    for k, s in enumerate(states):
        epoch = [RssSample(x.timestamp, x.led_id, x.value * (1.0 + 0.05 * rng.normal()),
                           x.variance) for x in exact_rss(s, LEDS, rx)]
        epoch += [RssSample(s.timestamp, 8, 0.1, 0.01), RssSample(s.timestamp, 9, 0.5, 0.01)]
        if k == 1:
            epoch[2] = replace(epoch[2], flag=SampleFlag.BLOCKED)
        if k == 0 and unseen_led:
            epoch = [x for x in epoch if x.led_id != 3]
        window.append(k, start[k], pres[k - 1] if k else None, epoch)
    n = ERROR_DIM + 2 * len(window.led_ids)
    A = rng.normal(size=(n, n))
    led_lin = np.array([LEDS[0].position[:2], LEDS[2].position[:2]])[:len(window.led_ids)]
    window.prior = MarginalPrior(A @ A.T + np.eye(n), rng.normal(size=n), states[0].copy(),
                                 led_lin)
    return window


class TestBatchedLinearization:
    """The stacked linearization against the per-factor loop it replaced."""

    RTOL = 1e-12

    def test_rich_window_has_every_case(self):
        window = build_rich_window()
        rx, s2 = window.rx, window.states.state(2)
        epoch1, epoch2 = (window.rss[window.rss["state"] == k] for k in (1, 2))
        assert epoch1["variance"][2] == window.config.blocked_variance  # flagged
        assert list(epoch2["led"][-2:]) == [window.led_table.row[8], window.led_table.row[9]]
        assert vlp_residual(s2, RssSample(0.0, 8, 0.1, 0.01), window.led_map[8], rx) is None
        with pytest.raises(DegenerateGeometryError):
            vlp_residual(s2, RssSample(0.0, 9, 0.5, 0.01), window.led_map[9], rx)

    def test_assemble_matches_loop(self):
        for window in (build_rich_window(), build_rich_window(unseen_led=True)):
            H, g, cost = assemble_cost(window)
            H_ref, g_ref, cost_ref = loop_assemble_cost(window)
            np.testing.assert_allclose(H, H_ref, rtol=self.RTOL, atol=0)
            np.testing.assert_allclose(g, g_ref, rtol=self.RTOL, atol=0)
            assert cost == pytest.approx(cost_ref, rel=self.RTOL)

    def test_marginal_prior_matches_loop(self):
        for window in (build_rich_window(), build_rich_window(unseen_led=True)):
            H_ref, g_ref = loop_marginal_prior(window)
            prior = _marginalize_oldest(window)
            np.testing.assert_allclose(prior.hessian, H_ref, rtol=self.RTOL, atol=0)
            np.testing.assert_allclose(prior.gradient, g_ref, rtol=self.RTOL, atol=0)
            np.testing.assert_array_equal(prior.led_lin, window.led_xy)

    def test_grazing_sample_left_out_of_cost(self):
        # A LED level with the photodiode: cos(psi) = 0 is inside a 90 deg
        # FOV but grazing, so the sample must not count.
        leds = LEDS + [LedBeacon(led_id=7, position=np.array([3.0, 1.5, 0.0]), power=2e5)]
        state = NavState(0.0, position=np.array([1.2, 1.5, 0.0]))
        samples = exact_rss(state, LEDS, RX)
        samples = [RssSample(x.timestamp, x.led_id, 1.1 * x.value, x.variance) for x in samples]
        costs = []
        for extra in ([], [RssSample(0.0, 7, 0.3, 0.01)]):
            window = fresh_window(leds=leds)
            window.append(0, state.copy(), None, samples + extra)
            costs.append(assemble_cost(window)[2])
        assert costs[1] == costs[0]


def build_single_state_window():
    """One state, unknown LED 1 and a marginal prior over both."""
    rng = np.random.default_rng(5)
    window = fresh_window(make_config(unknown_led_ids=(1,)),
                          led_init={1: LEDS[0].position[:2] + np.array([0.1, -0.2])})
    state = NavState(0.0, position=np.array([1.2, 0.9, 0.1]),
                     attitude=quat_from_euler(0.05, -0.03, 0.4))
    window.append(0, state, None, [
        RssSample(x.timestamp, x.led_id, x.value * (1.0 + 0.05 * rng.normal()), x.variance)
        for x in exact_rss(state, LEDS, RX)])
    A = rng.normal(size=(ERROR_DIM + 2, ERROR_DIM + 2))
    window.prior = MarginalPrior(A @ A.T + np.eye(ERROR_DIM + 2), rng.normal(size=ERROR_DIM + 2),
                                 state.perturb(0.01 * rng.normal(size=ERROR_DIM)),
                                 LEDS[0].position[None, :2].copy())
    return window


class TestBlockSolve:
    """Block elimination against a dense solve of the same normal equations."""

    WINDOWS = {"rich": build_rich_window, "single": build_single_state_window,
               "unseen": lambda: build_rich_window(unseen_led=True)}

    @pytest.mark.parametrize("name,lam", [("rich", 0.1), ("rich", 10.0), ("single", 0.0),
                                          ("single", 1e-3), ("unseen", 0.1)])
    def test_matches_dense_solve(self, name, lam):
        window = self.WINDOWS[name]()
        ne = normal_equations(window)
        shift = lam * np.clip(ne.diagonal(), 1e-12, None)
        dx, schur = ne.solve(shift)
        np.testing.assert_array_equal(ne.diagonal(), np.diag(ne.dense()))
        A = ne.dense() + np.diag(shift)
        np.testing.assert_allclose(dx, np.linalg.solve(A, -ne.g), rtol=1e-10, atol=0)
        led = slice(ERROR_DIM * window.n_states, None)
        np.testing.assert_allclose(np.linalg.inv(schur), np.linalg.inv(A)[led, led],
                                   rtol=1e-10, atol=0)

    def test_undamped_window_solved_to_rounding(self):
        # The rich window's H has a condition number near 1e9 even after
        # Jacobi scaling: the bias random walk ties consecutive gyro biases
        # tightly while the bias all states share is weakly observed.  No
        # two solvers agree to 1e-10 there undamped; the block solve must
        # leave a residual at rounding level.
        ne = normal_equations(build_rich_window())
        H = ne.dense()

        def backward_error(x):
            return np.linalg.norm(H @ x + ne.g) / (np.linalg.norm(H, 2) * np.linalg.norm(x))

        dx, _ = ne.solve()
        assert backward_error(dx) < 1e-15
        np.testing.assert_allclose(dx, np.linalg.solve(H, -ne.g), rtol=1e-6, atol=0)

    def test_singular_pivot_raises(self):
        ne = normal_equations(build_single_state_window())
        ne.diag[0, 3:6, :] = 0.0
        ne.diag[0, :, 3:6] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            ne.solve()

    @pytest.mark.parametrize("name", ["rich", "single", "unseen"])
    def test_led_covariance_is_inverse_block(self, name):
        window = self.WINDOWS[name]()
        H, _, _ = assemble_cost(window)
        estimates = estimate_unknown_leds(window)
        for j, led_id in enumerate(window.led_ids):
            i0 = ERROR_DIM * window.n_states + 2 * j
            block = np.linalg.inv(H)[i0:i0 + 2, i0:i0 + 2]
            np.testing.assert_allclose(estimates[led_id].cov, block, rtol=1e-8, atol=0)


class TestReintegration:
    """An IMU factor is re-preintegrated once its start state's bias leaves
    the first-order region around the factor's linearization bias."""

    FIELDS = ("alpha", "beta", "gamma", "cov", "dt", "bias_acc", "bias_gyro", "d_alpha_d_ba",
              "d_alpha_d_bg", "d_beta_d_ba", "d_beta_d_bg", "d_gamma_d_bg")

    def run_with_bias_move(self, field, move):
        """Three epochs; before the last, state 0's bias ``field`` moves by ``move``.

        The first interval loses its last sample, so its end time is not the
        default one sample spacing past the final timestamp.
        """
        states, streams = build_chain(3)
        s0 = streams[0]
        streams[0] = ImuStream(s0.timestamps[:-1], s0.accel[:-1], s0.gyro[:-1])
        pres = preintegrate_chain(streams, states, RX)
        est = TightlyCoupledEstimator(make_config(), LEDS, RX)
        est.start(states[0].copy(), exact_rss(states[0], LEDS, RX))
        est.step(pres[0], exact_rss(states[1], LEDS, RX), states[1].timestamp)
        getattr(est.window.states, field)[0] += move
        x0 = est.window.states[0]
        bias = (x0.bias_acc.copy(), x0.bias_gyro.copy())
        est.step(pres[1], exact_rss(states[2], LEDS, RX), states[2].timestamp)
        fresh = preintegrate(streams[0], *bias, RX.dcm_body_to_vlp, NOISE,
                             t_end=states[1].timestamp)
        return est, pres, fresh

    @pytest.mark.parametrize("field, move", [("bias_acc", [0.18, -0.24, 0.0]),
                                             ("bias_gyro", [0.0, 0.048, 0.036])])
    def test_large_bias_move_reintegrates(self, field, move):
        est, pres, fresh = self.run_with_bias_move(field, np.array(move))
        pre = est.window.imu_factors[0]
        assert pre is not pres[0]
        for name in self.FIELDS:
            np.testing.assert_allclose(getattr(pre, name), getattr(fresh, name), rtol=1e-12,
                                       atol=0, err_msg=name)
        assert est.window.imu_factors[1] is pres[1]
        assert [d.reintegrations for d in est.diagnostics] == [0, 0, 1]

    def test_small_bias_move_keeps_factor(self):
        est, pres, _ = self.run_with_bias_move("bias_acc", np.array([0.05, 0.05, 0.0]))
        assert est.window.imu_factors[0] is pres[0]
        assert est.window.imu_factors[1] is pres[1]
        assert [d.reintegrations for d in est.diagnostics] == [0, 0, 0]

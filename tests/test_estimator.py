import logging
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from vlpnav import estimator
from vlpnav.attitude import quat_from_euler, quat_to_dcm
from vlpnav.channel import DegenerateGeometryError, LedBeacon, LedTable, SampleFlag
from vlpnav.estimator import (
    BLOCKED_VARIANCE,
    HEIGHT_SIGMA,
    INITIAL_PRIOR_INFORMATION,
    NHC_SIGMA,
    UNKNOWN_LED_PRIOR_SIGMA,
    EstimatorConfig,
    MarginalPrior,
    SlidingWindow,
    TightlyCoupledEstimator,
    _marginalize_oldest,
    assemble_cost,
    dop,
    estimate_unknown_leds,
    normal_equations,
    slide_and_marginalize,
    solve_lm,
)
from vlpnav.preint import ImuStream, preintegrate
from vlpnav.state import ERROR_DIM, StateArrays, boxminus

from _synthetic import (
    GRAVITY,
    NOISE,
    NavState,
    build_chain,
    constraint_residuals,
    exact_rss,
    loop_assemble_cost,
    loop_marginal_prior,
    make_leds,
    make_rx,
    preintegrate_chain,
    rss_rows,
    schur_marginalize,
    stack_states,
    vlp_jacobian_row,
    vlp_residual,
)

LEDS = make_leds()
RX = make_rx()


def make_config(**kw):
    defaults = dict(
        imu_noise=NOISE,
        window_size=8,
        gravity=tuple(GRAVITY),
    )
    defaults.update(kw)
    return EstimatorConfig(**defaults)


def fresh_window(config=None, leds=LEDS, rx=RX, led_init=None):
    return SlidingWindow(config or make_config(), LedTable.of(leds, rx), rx, led_init)


def value_for(state, led, rx):
    return exact_rss(state, [led], rx)["value"][0]


class TestVlpResidual:
    def test_zero_when_measurement_matches(self):
        state = NavState(0.0, position=np.array([1.0, 1.2, 0.0]))
        value = value_for(state, LEDS[0], RX)
        assert vlp_residual(state, value, LEDS[0], RX) == pytest.approx(0.0, abs=1e-15)

    def test_zero_lever_arm_equals_channel_residual(self):
        from vlpnav.channel import predict_rss

        state = NavState(0.0, position=np.array([0.8, 0.9, 0.1]),
                         attitude=quat_from_euler(0.05, -0.04, 0.7))
        r = vlp_residual(state, 0.5, LEDS[0], RX)
        expected = predict_rss(state.position, state.attitude, LEDS[0], RX) - 0.5
        assert r == pytest.approx(expected, abs=1e-15)

    def test_lever_arm_rotates_with_attitude(self):
        from vlpnav.channel import predict_rss

        rx = make_rx(lever_arm=(0.2, 0.0, 0.1))
        state = NavState(0.0, position=np.array([1.0, 1.0, 0.0]),
                         attitude=quat_from_euler(0.0, 0.0, np.pi / 2))
        r = vlp_residual(state, 0.3, LEDS[1], rx)
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
        assert vlp_residual(state, 0.1, LEDS[2], rx) is None


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
            value = value_for(state, led, rx)
            row, _ = vlp_jacobian_row(state, led, rx)
            h = 1e-6
            fd = np.zeros(ERROR_DIM)
            for i in range(ERROR_DIM):
                e = np.zeros(ERROR_DIM)
                e[i] = h
                rp = vlp_residual(state.perturb(e), value, led, rx)
                rm = vlp_residual(state.perturb(-e), value, led, rx)
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
        value = value_for(state, LEDS[0], RX)
        h = 1e-6
        for i in range(2):
            xy_p = LEDS[0].position[:2].copy()
            xy_p[i] += h
            xy_m = LEDS[0].position[:2].copy()
            xy_m[i] -= h
            fd = (vlp_residual(state, value, LEDS[0], RX, xy_p)
                  - vlp_residual(state, value, LEDS[0], RX, xy_m)) / (2 * h)
            assert block[i] == pytest.approx(fd, rel=1e-5)


class TestConstraints:
    def test_height_zero_at_reference(self):
        # The height row comes first, then the NHC's two; at rest all vanish.
        state = NavState(0.0, position=np.array([1.0, 1.0, 0.3]))
        np.testing.assert_allclose(constraint_residuals(state, True, pd_height=0.3),
                                   [0.0, 0.0, 0.0], atol=1e-15)
        state.position[2] = 0.5
        np.testing.assert_allclose(constraint_residuals(state, True, pd_height=0.3),
                                   [0.2, 0.0, 0.0], atol=1e-15)

    def test_nhc_zero_for_forward_motion(self):
        yaw = 0.8
        state = NavState(0.0, velocity=0.4 * np.array([np.cos(yaw), np.sin(yaw), 0.0]),
                         attitude=quat_from_euler(0.0, 0.0, yaw))
        np.testing.assert_allclose(constraint_residuals(state), 0.0, atol=1e-12)

    def test_nhc_lateral_slide(self):
        state = NavState(0.0, velocity=np.array([0.0, 0.1, 0.0]))  # pure +y at yaw 0
        np.testing.assert_allclose(constraint_residuals(state), [0.1, 0.0], atol=1e-15)

    def test_synthetic_chain_obeys_nhc(self):
        # The windows of these tests drive along the body x axis, so the
        # NHC rows every window holds vanish at the truth.
        states, _ = build_chain(25)
        for s in states:
            np.testing.assert_allclose(constraint_residuals(s), 0.0, atol=1e-14)
        assert np.linalg.norm(states[-1].position - states[0].position) > 1.0

    @pytest.mark.parametrize("use_height", [False, True])
    def test_rows_match_finite_differences(self, use_height):
        # The rows the estimator runs, on moving states with nonzero roll,
        # pitch and yaw whose velocities leave the body x axis, against
        # central differences over the position, velocity and attitude dims.
        rng = np.random.default_rng(8)
        states = stack_states([
            NavState(float(k), position=rng.uniform(0.5, 2.5, 3),
                     velocity=rng.normal(0.0, 0.3, 3),
                     attitude=quat_from_euler(*rng.uniform(-0.4, 0.4, 2),
                                              rng.uniform(-np.pi, np.pi)))
            for k in range(4)])
        window = fresh_window(make_config(use_height=use_height), rx=make_rx(pd_height=0.1))

        def rows(X):
            return estimator._constraint_rows(window, X, quat_to_dcm(X.attitude))

        at = rows(states)
        n_rows = 3 if use_height else 2
        np.testing.assert_array_equal(at.states[0], np.repeat(np.arange(4), n_rows))
        assert np.abs(at.r[n_rows - 2::n_rows]).min() > 0.01  # the NHC rows do not vanish
        # atol: residuals of O(1) rounded, then differenced over 2h, where
        # an entry of the Jacobian is exactly zero.
        h = 1e-6
        for dim in range(estimator.NAV_DIM):
            dx = np.zeros((len(states), ERROR_DIM))
            dx[:, dim] = h
            fd = (rows(states.perturb(dx)).r - rows(states.perturb(-dx)).r) / (2 * h)
            np.testing.assert_allclose(at.jac[0][:, :, dim], fd, rtol=1e-6, atol=1e-9,
                                       err_msg=f"dim {dim}")


def build_exact_window(n=4, lever=(0.0, 0.0, 0.0), config=None):
    rx = make_rx(lever_arm=lever)
    states, streams = build_chain(n)
    pres = preintegrate_chain(streams, states, rx)
    window = fresh_window(config or make_config(), rx=rx)
    window.append(0, states[0].row(), None, exact_rss(states[0], LEDS, rx))
    for k in range(1, n):
        window.append(k, states[k].row(), pres[k - 1], exact_rss(states[k], LEDS, rx))
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
        window.append(0, state.row(), None, rss_rows([(0.0, LEDS[0].led_id, 0.4, 0.02)]))
        H, g, cost = assemble_cost(window)
        row, _ = vlp_jacobian_row(state, LEDS[0], RX)
        # At rest and level, the NHC rows add the information of the
        # lateral and vertical velocity and nothing else.
        nhc = np.zeros((ERROR_DIM, ERROR_DIM))
        nhc[4, 4] = nhc[5, 5] = 1.0 / NHC_SIGMA**2
        expected = np.outer(row, row) / 0.02 + nhc
        np.testing.assert_allclose(H, expected, atol=1e-18)
        r = vlp_residual(state, 0.4, LEDS[0], RX)
        assert cost == pytest.approx(0.5 * r * r / 0.02)

    def test_blocked_flag_downweights_cost(self):
        var_los = 0.01
        state = NavState(0.0, position=np.array([1.2, 0.8, 0.0]))
        costs = {}
        for flag in (SampleFlag.LOS, SampleFlag.BLOCKED):
            window = fresh_window()
            window.append(0, state.row(), None,
                          rss_rows([(0.0, LEDS[0].led_id, 0.4, var_los, flag)]))
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
            window.append(0, state.row(), None, exact_rss(state, LEDS, RX))
            H, _, _ = assemble_cost(window)
            e = np.zeros(ERROR_DIM)
            e[8] = 1.0  # attitude error about the PD normal
            assert e @ H @ e < 1e-12


def count_calls(monkeypatch):
    """Record every ``normal_equations`` pass and block solve from now on."""
    passes, solves = [], []
    solve = estimator.NormalEquations.solve

    def counted_pass(window):
        passes.append(window)
        return normal_equations(window)

    def counted_solve(ne, *args):
        solves.append(ne)
        return solve(ne, *args)

    monkeypatch.setattr(estimator, "normal_equations", counted_pass)
    monkeypatch.setattr(estimator.NormalEquations, "solve", counted_solve)
    return passes, solves


class TestSolveLm:
    def test_already_optimal_no_motion(self):
        window, states = build_exact_window()
        before = window.states
        report = solve_lm(window)
        assert report.converged
        assert report.n_accepted <= 1
        for k in range(window.n_states):
            assert np.max(np.abs(boxminus(window.states[k], before[k]))) < 1e-10

    def test_pure_quadratic_one_undamped_step(self, monkeypatch):
        # Position-only quadratic: prior plus a height factor; attitude at
        # linearization so no retraction nonlinearity enters.  The state is
        # at rest, so the NHC rows' residuals are zero and stay zero.
        config = make_config(use_height=True)
        window = fresh_window(config, leds=[], rx=make_rx(pd_height=0.5))
        x_lin = NavState(0.0, position=np.array([1.0, 1.0, 0.2]))
        window.append(0, x_lin.row(), None, rss_rows([]))
        window.prior = MarginalPrior(np.diag(np.full(ERROR_DIM, 25.0)), np.zeros(ERROR_DIM),
                                     x_lin.row(), np.zeros((0, 2)))
        passes, solves = count_calls(monkeypatch)
        report = solve_lm(window)
        # Linear least-squares oracle for the z component:
        # min 25 dz^2/2 + (z - 0.5)^2 / (2 HEIGHT_SIGMA^2), z = 0.2 + dz
        w_prior, w_h = 25.0, 1.0 / HEIGHT_SIGMA**2
        z_expected = (w_prior * 0.2 + w_h * 0.5) / (w_prior + w_h)
        assert window.states[0].position[2] == pytest.approx(z_expected, abs=1e-12)
        # The second solve's model predicts nothing left to gain, so its
        # step is never evaluated.
        assert [it.accepted for it in report.iterations] == [True]
        assert report.iterations[0].rho == pytest.approx(1.0, rel=1e-9)
        assert (len(passes), len(solves)) == (2, 2)
        assert report.converged and report.stop == "model"

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
            est = window.states[k]
            assert np.linalg.norm(est.position - tru.position) < 1e-6
            assert np.linalg.norm(boxminus(est, tru.row())[6:9]) < 1e-6

    def test_one_normal_equations_pass_per_iteration(self, monkeypatch):
        # Each trial point is evaluated once, and an accepted one's
        # equations give the next step: no second pass on the same values.
        window = build_rich_window()[0]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return normal_equations(*args, **kwargs)

        monkeypatch.setattr(estimator, "normal_equations", counted)
        report = solve_lm(window)
        monkeypatch.undo()
        assert len(calls) == len(report.iterations) + 1
        assert report.final_cost == normal_equations(window).cost

    def test_damping_follows_nielsen(self, monkeypatch):
        # The first two trial points and the fourth are spoiled (infinite
        # cost), so their steps are rejected.
        window, _ = build_exact_window(n=5)
        rng = np.random.default_rng(2)
        window.states = window.states.perturb(0.02 * rng.normal(size=(window.n_states, ERROR_DIM)))
        calls = []

        def spoiled(w):
            ne = normal_equations(w)
            calls.append(ne)
            if len(calls) in (2, 3, 5):
                ne.cost = math.inf
            return ne

        monkeypatch.setattr(estimator, "normal_equations", spoiled)
        its = solve_lm(window).iterations
        assert [it.accepted for it in its[:5]] == [False, False, True, False, True]
        # A rejection sets lambda to max(lambda nu, 1e-6) and doubles nu (2, 4).
        assert [its[0].lam, its[1].lam, its[2].lam] == [0.0, 1e-6, 4e-6]
        assert its[0].rho == -math.inf and its[0].predicted > 0.0
        # An acceptance scales lambda by max(1/3, 1 - (2 rho - 1)^3) and
        # resets nu to 2.
        rho = its[2].rho
        assert rho == (its[1].cost - its[2].cost) / its[2].predicted
        assert its[3].lam == its[2].lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        assert its[4].lam == max(its[3].lam * 2.0, 1e-6)

    def test_damping_on_a_window_that_rejects_steps(self):
        # Unspoiled: the unseen-LED rich window, moved far off its truth,
        # rejects an undamped step (rho near -1), and LM then accepts damped
        # ones, most with rho well below 1, where Nielsen's factor is above
        # 1/3.  The lambda of every trial point follows from the report's
        # own gain ratios, bit for bit.
        window = build_rich_window(unseen_led=True)[0]
        rng = np.random.default_rng(27)
        window.states = window.states.perturb(0.3 * rng.normal(size=(window.n_states, ERROR_DIM)))
        report = solve_lm(window)
        its = report.iterations
        assert (report.stop, len(its)) == ("model", 19)
        assert [it.accepted for it in its] == [True] * 3 + [False] + [True] * 15
        lam, nu = 0.0, 2.0
        for it in its:
            assert it.lam == lam
            if it.accepted:
                lam, nu = lam * max(1.0 / 3.0, 1.0 - (2.0 * it.rho - 1.0) ** 3), 2.0
            else:
                lam, nu = max(lam * nu, 1e-6), 2.0 * nu
        assert its[3].rho == pytest.approx(-0.971223, rel=1e-5)
        assert [it.lam for it in its[3:8]] == pytest.approx(
            [0.0, 1e-6, 3.33333e-7, 1.11111e-7, 7.0901e-8], rel=1e-5)
        assert its[6].accepted and its[6].rho == pytest.approx(0.856311, rel=1e-5)

    def test_stop_is_relative_to_the_cost(self):
        # A zero-residual window started far off: the cost falls from 1.5e5
        # to 1e-23 in six accepted Gauss-Newton steps.  The sixth step's
        # predicted decrease (5e-10) is far above 1e-8 of the cost it starts
        # from, so it is taken; the seventh is shorter than step_norm_tol.
        window, _ = build_exact_window(n=5)
        rng = np.random.default_rng(3)
        dx = np.zeros((window.n_states, ERROR_DIM))
        for row in dx:
            row[0:3] = rng.uniform(-0.3, 0.3, 3)
            row[6:9] = rng.uniform(-0.3, 0.3, 3)
        window.states = window.states.perturb(dx)
        report = solve_lm(window)
        its = report.iterations
        assert (report.stop, report.converged) == ("step", True)
        assert [it.accepted for it in its] == [True] * 6
        assert its[0].cost == pytest.approx(1.452e5, rel=1e-3)
        assert its[-1].predicted < 1e-8 and its[-1].cost < 1e-20

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
        window = build_rich_window()[0]
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
        window.append(0, states[0].row(), None, exact_rss(states[0], LEDS, rx))
        window.prior = MarginalPrior(np.diag(INITIAL_PRIOR_INFORMATION), np.zeros(ERROR_DIM),
                                     states[0].row(), np.zeros((0, 2)))
        for k in range(1, n):
            slide_and_marginalize(window, k, states[k].row(), pres[k - 1],
                                  exact_rss(states[k], LEDS, rx))
            assert window.n_states <= 4
        assert window.n_states == 4
        assert len(window.imu) == 3
        assert window.prior is not None

    def test_slide_drops_row_zero_of_each_table(self):
        # A full window slides: states and IMU rows 1.. become rows 0..,
        # the new epoch's rows follow, and each RSS row keeps its sample
        # and points at the same state's new row.
        n = 5
        states, streams = build_chain(n + 1)
        pres = preintegrate_chain(streams, states, RX)
        window = fresh_window(make_config(window_size=n))
        window.append(0, states[0].row(), None, exact_rss(states[0], LEDS, RX))
        window.prior = MarginalPrior(np.diag(INITIAL_PRIOR_INFORMATION),
                                     np.zeros(ERROR_DIM), states[0].row(), np.zeros((0, 2)))
        for k in range(1, n):
            window.append(k, states[k].row(), pres[k - 1], exact_rss(states[k], LEDS, RX))
        old_states, old_rss = window.states, window.rss.copy()
        new_rss = exact_rss(states[n], LEDS, RX)
        slide_and_marginalize(window, n, states[n].row(), pres[n - 1], new_rss)

        assert window.epoch_ids == list(range(1, n + 1))
        assert (len(window.states), len(window.imu)) == (n, n - 1)
        for name in ("timestamps", "position", "velocity", "attitude", "bias_acc", "bias_gyro"):
            np.testing.assert_array_equal(getattr(window.states, name)[:-1],
                                          getattr(old_states, name)[1:], err_msg=name)
            np.testing.assert_array_equal(getattr(window.states[-1], name),
                                          getattr(states[n].row(), name), err_msg=name)
            np.testing.assert_array_equal(getattr(window.prior.state_lin, name),
                                          getattr(old_states[1], name), err_msg=name)
        for k in range(n - 1):
            assert_same_interval(window.imu, k, pres[k + 1])
        kept = old_rss[old_rss["state"] > 0]
        np.testing.assert_array_equal(window.rss["state"], np.r_[kept["state"] - 1,
                                                                 np.full(len(new_rss), n - 1)])
        for k in range(n):
            np.testing.assert_array_equal(window.rss[window.rss["state"] == k]["value"],
                                          exact_rss(states[k + 1], LEDS, RX)["value"])

    def test_smoothed_holds_dropped_states_then_window(self):
        # Each state enters ``smoothed`` as it leaves the window, with its
        # value there, and the final window follows at shutdown; epochs are
        # numbered in arrival order.
        n, size = 9, 4
        states, streams = build_chain(n)
        pres = preintegrate_chain(streams, states, RX)
        est = TightlyCoupledEstimator(make_config(window_size=size), LedTable.of(LEDS, RX), RX)
        est.start(states[0].row(), exact_rss(states[0], LEDS, RX))
        expected = StateArrays.empty()
        for k in range(1, n):
            if est.window.n_states == size:
                expected = expected.append(est.window.states[0])
            est.step(pres[k - 1], exact_rss(states[k], LEDS, RX), states[k].timestamp)
            assert len(est.smoothed) == max(k + 1 - size, 0)
        expected = expected.append(est.window.states)
        smoothed = est.finalize()
        assert len(smoothed) == n
        for name in ("timestamps", "position", "velocity", "attitude", "bias_acc", "bias_gyro"):
            np.testing.assert_array_equal(getattr(smoothed, name), getattr(expected, name),
                                          err_msg=name)
        assert [d.epoch_id for d in est.diagnostics] == list(range(n))
        assert est.window.epoch_ids == list(range(n - size, n))

    def test_windowed_matches_batch_on_mildly_nonlinear_run(self):
        """Fixed-lag estimates stay within 1% of the full batch solve."""
        n = 10
        rng = np.random.default_rng(5)
        states, streams = build_chain(n)
        pres = preintegrate_chain(streams, states, RX)
        rss = []
        for s in states:
            epoch = exact_rss(s, LEDS, RX, variance=0.003**2)
            epoch["value"] = [max(v + 0.003 * rng.normal(), 1e-6) for v in epoch["value"]]
            rss.append(epoch)

        def run(window_size):
            config = make_config(window_size=window_size)
            est = TightlyCoupledEstimator(config, LedTable.of(LEDS, RX), RX)
            x0 = states[0].perturb(0.01 * rng.standard_normal(ERROR_DIM) * 0)
            est.start(x0.row(), rss[0])
            for k in range(1, n):
                est.step(pres[k - 1], rss[k], states[k].timestamp)
            return est.finalize()

        batch = run(window_size=n + 1).position
        win = run(window_size=4).position
        assert len(win) == len(batch) == n
        denom = np.maximum(np.linalg.norm(batch, axis=1), 1.0)
        assert np.all(np.linalg.norm(win - batch, axis=1) / denom < 0.01)


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
        # Well-spread trajectory: the vehicle drives diagonally through
        # the room so the bearing to the unknown LED sweeps a wide arc.
        n = 25
        yaw = math.atan2(0.14, 0.22)
        x0 = NavState(timestamp=0.0, position=np.array([0.3, 0.6, 0.0]),
                      velocity=0.26 * np.array([math.cos(yaw), math.sin(yaw), 0.0]),
                      attitude=quat_from_euler(0.0, 0.0, yaw))
        states, streams = build_chain(n, x0=x0)
        pres = preintegrate_chain(streams, states, RX)
        unknown_id = LEDS[0].led_id
        # Window shorter than the run: unknown-LED information must
        # survive marginalization through the prior.
        config = make_config(window_size=12, unknown_led_ids=(unknown_id,))
        init = {unknown_id: LEDS[0].position[:2] + np.array([0.35, -0.35])}
        est = TightlyCoupledEstimator(config, LedTable.of(LEDS, RX), RX, led_init=init)
        est.start(states[0].row(), exact_rss(states[0], LEDS, RX, variance=1e-4))
        report = None
        for k in range(1, n):
            report = est.step(pres[k - 1], exact_rss(states[k], LEDS, RX, variance=1e-4),
                              states[k].timestamp)
        result = estimate_unknown_leds(est.window, report)[unknown_id]
        assert not result.diverged
        assert np.linalg.norm(result.xy - LEDS[0].position[:2]) < 0.01

    def test_unseen_led_keeps_its_weak_prior(self):
        # LED 3 is unknown but no sample ever reaches it: through every
        # slide, its block of the window's prior stays the weak prior that
        # start() puts there, centred on its guess.
        n, window_size = 8, 4
        states, streams = build_chain(n)
        pres = preintegrate_chain(streams, states, RX)
        config = make_config(window_size=window_size, unknown_led_ids=(1, 3))
        guess = LEDS[2].position[:2] + np.array([0.2, -0.1])
        est = TightlyCoupledEstimator(config, LedTable.of(LEDS, RX), RX,
                                      led_init={1: LEDS[0].position[:2], 3: guess})
        seen = [led for led in LEDS if led.led_id != 3]
        est.start(states[0].row(), exact_rss(states[0], seen, RX))
        w = 1.0 / UNKNOWN_LED_PRIOR_SIGMA**2
        e = ERROR_DIM + 2  # the prior's rows of LED 3, after the state's and LED 1's
        slides = 0
        for k in range(1, n):
            slides += est.window.n_states == window_size
            est.step(pres[k - 1], exact_rss(states[k], seen, RX), states[k].timestamp)
            prior = est.window.prior
            np.testing.assert_array_equal(prior.hessian[e:, e:], w * np.eye(2))
            np.testing.assert_array_equal(prior.hessian[e:, :e], 0.0)
            np.testing.assert_array_equal(prior.hessian[:e, e:], 0.0)
            np.testing.assert_array_equal(prior.gradient[e:], w * (prior.led_lin[1] - guess))
        assert slides >= 3

    def test_stationary_geometry_flagged(self):
        # All observations from one spot: the LED direction never changes,
        # so across it the planar block keeps the covariance of the initial
        # prior's LED block (>> 1 m^2).
        unknown_id = LEDS[0].led_id
        config = make_config(window_size=10, unknown_led_ids=(unknown_id,))
        est = TightlyCoupledEstimator(config, LedTable.of(LEDS, RX), RX,
                                      led_init={unknown_id: LEDS[0].position[:2] + 0.3})
        state = NavState(0.0, position=np.array([1.5, 1.5, 0.0]))
        report = est.start(state.row(), exact_rss(state, LEDS, RX))
        result = estimate_unknown_leds(est.window, report)[unknown_id]
        assert result.diverged or result.cov_trace > 1.0

    @pytest.mark.parametrize("led_init", [None, {3: LEDS[2].position[:2]}])
    def test_missing_guess_raises(self, led_init):
        # The map position of an unknown LED is its truth: the window never
        # starts there in its place.
        config = make_config(unknown_led_ids=(1, 3))
        with pytest.raises(KeyError):
            fresh_window(config, led_init=led_init)


def build_rich_window(unseen_led=False):
    """A window with every special case the RSS and prior code paths have.

    Unknown LED 1 (0.2 m off), a blocked sample, an out-of-FOV LED, a LED
    sitting at one epoch's photodiode (degenerate), a lever arm, the NHC
    and height rows, and a marginal prior on the oldest state and the
    unknown LED.  States sit off the truth and measurements carry noise,
    so no residual vanishes.  With ``unseen_led``, LED 3 is unknown too
    (0.14 m off) and in the prior, but missing from epoch 0's samples: no
    factor of the oldest state reaches it.  Returns the window and the
    beacons of its LED table.
    """
    rng = np.random.default_rng(11)
    rx = make_rx(lever_arm=(0.15, -0.05, 0.08), fov_deg=60.0, pd_height=0.05)
    states, streams = build_chain(5, bias_acc=[0.01, -0.02, 0.005],
                                  bias_gyro=[1e-3, 2e-3, -1e-3])
    pres = preintegrate_chain(streams, states, rx)
    start = [s.perturb(0.02 * rng.normal(size=ERROR_DIM)) for s in states]
    pd2 = start[2].position + quat_to_dcm(start[2].attitude) @ rx.lever_arm_vlp
    leds = LEDS + [
        LedBeacon(led_id=8, position=np.array([12.0, 1.5, 3.0]), power=2e5),  # outside FOV
        LedBeacon(led_id=9, position=pd2, power=2e5),  # at epoch 2's photodiode
    ]
    config = make_config(use_height=True, unknown_led_ids=(1, 3) if unseen_led else (1,))
    window = fresh_window(config, leds=leds, rx=rx, led_init={
        1: LEDS[0].position[:2] + np.array([0.2, -0.15]),
        3: LEDS[2].position[:2] + np.array([-0.1, 0.1])})
    for k, s in enumerate(states):
        epoch = exact_rss(s, LEDS, rx)
        epoch["value"] = [v * (1.0 + 0.05 * rng.normal()) for v in epoch["value"]]
        epoch = np.concatenate([epoch, rss_rows([(s.timestamp, 8, 0.1, 0.01),
                                                 (s.timestamp, 9, 0.5, 0.01)])])
        if k == 1:
            epoch["flag"][2] = SampleFlag.BLOCKED
        if k == 0 and unseen_led:
            epoch = epoch[epoch["led_id"] != 3]
        window.append(k, start[k].row(), pres[k - 1] if k else None, epoch)
    n = ERROR_DIM + 2 * len(window.led_ids)
    A = rng.normal(size=(n, n))
    led_lin = np.array([LEDS[0].position[:2], LEDS[2].position[:2]])[:len(window.led_ids)]
    hessian, gradient = A @ A.T + np.eye(n), rng.normal(size=n)
    # The LEDs' weak priors on their guesses, as TightlyCoupledEstimator.start
    # puts them in the window's prior, re-centred on led_lin.
    w = 1.0 / UNKNOWN_LED_PRIOR_SIGMA**2
    hessian[ERROR_DIM:, ERROR_DIM:] += w * np.eye(n - ERROR_DIM)
    gradient[ERROR_DIM:] += w * (led_lin - window.led_xy).ravel()
    window.prior = MarginalPrior(hessian, gradient, states[0].row(), led_lin)
    return window, leds


def exact_schur_hessian(H, n_marg):
    """The Schur complement of ``H``'s leading ``n_marg`` dims, symmetrized,
    computed in exact rational arithmetic and rounded once at the end."""
    A = [[Fraction(x) for x in row] for row in H.tolist()]
    for k in range(n_marg):
        for i in range(k + 1, len(A)):
            f = A[i][k] / A[k][k]
            A[i] = [a - f * b for a, b in zip(A[i], A[k])]
    rest = range(n_marg, len(A))
    return np.array([[float((A[i][j] + A[j][i]) / 2) for j in rest] for i in rest])


class TestBatchedLinearization:
    """The stacked linearization against the per-factor loop it replaced."""

    RTOL = 1e-12

    def test_rich_window_has_every_case(self):
        window, leds = build_rich_window()
        by_id = {led.led_id: led for led in leds}
        rx, s2 = window.rx, window.states[2]
        epoch1, epoch2 = (window.rss[window.rss["state"] == k] for k in (1, 2))
        assert epoch1["variance"][2] == BLOCKED_VARIANCE  # flagged
        assert list(epoch2["led"][-2:]) == [window.led_table.row[8], window.led_table.row[9]]
        assert vlp_residual(s2, 0.1, by_id[8], rx) is None
        with pytest.raises(DegenerateGeometryError):
            vlp_residual(s2, 0.5, by_id[9], rx)

    def test_assemble_matches_loop(self):
        for window, leds in (build_rich_window(), build_rich_window(unseen_led=True)):
            H, g, cost = assemble_cost(window)
            H_ref, g_ref, cost_ref = loop_assemble_cost(window, leds)
            np.testing.assert_allclose(H, H_ref, rtol=self.RTOL, atol=0)
            np.testing.assert_allclose(g, g_ref, rtol=self.RTOL, atol=0)
            assert cost == pytest.approx(cost_ref, rel=self.RTOL)

    def test_marginal_prior_matches_loop(self):
        for window, leds in (build_rich_window(), build_rich_window(unseen_led=True)):
            H_ref, g_ref = loop_marginal_prior(window, leds)
            prior = _marginalize_oldest(window)
            np.testing.assert_allclose(prior.hessian, H_ref, rtol=self.RTOL, atol=0)
            np.testing.assert_allclose(prior.gradient, g_ref, rtol=self.RTOL, atol=0)
            np.testing.assert_array_equal(prior.led_lin, window.led_xy)

    def test_marginal_prior_from_kept_pass(self, monkeypatch):
        # solve_lm leaves the pass of the window's final values; the
        # marginalization selects the oldest state's rows from it without
        # a pass of its own, and gets what a fresh pass gives, to the bit.
        for window, leds in (build_rich_window(), build_rich_window(unseen_led=True)):
            solve_lm(window)
            assert window.equations is not None
            passes, _ = count_calls(monkeypatch)
            kept = _marginalize_oldest(window)
            assert passes == []
            monkeypatch.undo()
            window.equations = None
            fresh = _marginalize_oldest(window)
            np.testing.assert_array_equal(kept.hessian, fresh.hessian)
            np.testing.assert_array_equal(kept.gradient, fresh.gradient)
            H_ref, g_ref = loop_marginal_prior(window, leds)
            np.testing.assert_allclose(kept.hessian, H_ref, rtol=self.RTOL, atol=0)
            np.testing.assert_allclose(kept.gradient, g_ref, rtol=self.RTOL, atol=0)

    def test_marginal_prior_matches_exact_elimination(self):
        # The two-state system is ill-conditioned (the bias random walk
        # ties the two states' biases tightly), so the reference eliminates
        # the oldest state of the same float matrix in exact rational
        # arithmetic.  An LU step is within 2e-11 of its largest entry.
        for window in (build_rich_window()[0], build_rich_window(unseen_led=True)[0]):
            rows = tuple(r.oldest() for r in normal_equations(window).rows)
            ne = estimator._reduce(window, 2, rows)
            H_ref = exact_schur_hessian(ne.dense(), ERROR_DIM)
            prior = _marginalize_oldest(window)
            assert np.abs(prior.hessian - H_ref).max() < 1e-10 * np.abs(H_ref).max()

    def test_grazing_sample_left_out_of_cost(self):
        # A LED level with the photodiode: cos(psi) = 0 is inside a 90 deg
        # FOV but grazing, so the sample must not count.
        leds = LEDS + [LedBeacon(led_id=7, position=np.array([3.0, 1.5, 0.0]), power=2e5)]
        state = NavState(0.0, position=np.array([1.2, 1.5, 0.0]))
        samples = exact_rss(state, LEDS, RX)
        samples["value"] *= 1.1
        costs = []
        for extra in ([], [(0.0, 7, 0.3, 0.01)]):
            window = fresh_window(leds=leds)
            window.append(0, state.row(), None, np.concatenate([samples, rss_rows(extra)]))
            costs.append(assemble_cost(window)[2])
        assert costs[1] == costs[0]


def add_at_reduction(window, n_states, rows):
    """The reduction of ``rows`` by ``np.add.at``, one factor after another
    in row order: the marginal prior, then each kind's blocks of its first
    state, then of its second, then its LED blocks."""
    ne = estimator.NormalEquations.zeros(n_states, len(window.led_ids))
    p = window.prior
    ne.add_prior(p.hessian, p.hessian @ p.delta(window) + p.gradient)
    for r in rows:
        if not len(r.r):
            continue
        JtW = [np.swapaxes(J, 1, 2) @ r.info for J in r.jac]
        g = [(A @ r.r[:, :, None])[:, :, 0] for A in JtW]
        for a, k in enumerate(r.states):
            d = r.jac[a].shape[2]
            np.add.at(ne.g_x[:, :d], k, g[a])
            np.add.at(ne.diag[:, :d, :d], k, JtW[a] @ r.jac[a])
            if a == 0 and len(r.states) == 2:
                np.add.at(ne.upper, k, JtW[0] @ r.jac[1])
                np.add.at(ne.lower, k, JtW[1] @ r.jac[0])
        if r.led is not None:
            m = r.led >= 0
            j, J_led = r.led[m], r.jac[-1][m]
            np.add.at(ne.g_l, j, g[-1][m])
            np.add.at(ne.led_blocks, (j, j), JtW[-1][m] @ J_led)
            for a, k in enumerate(r.states):
                np.add.at(ne.arrow_blocks[:, :, :r.jac[a].shape[2]], (k[m], j),
                          JtW[a][m] @ J_led)
    return ne


class TestReduction:
    """The normal equations' blocks sum each entry's terms in factor order,
    as a per-factor ``np.add.at`` accumulation does, bit for bit."""

    BLOCKS = ("diag", "upper", "lower", "arrow", "led", "g")

    def window(self):
        # Two unknown LEDs in the marginal prior, and state 3 without RSS
        # samples, so the RSS rows skip a state and vary in number per state.
        # Their variances are scaled down so that each RSS term moves the
        # sums of the IMU blocks it lands on: the order of the terms shows.
        window, _ = build_rich_window(unseen_led=True)
        window.rss = window.rss[window.rss["state"] != 3]
        window.rss["variance"] *= 1e-4
        return window

    def assert_same_blocks(self, ne, ref):
        for name in self.BLOCKS:
            np.testing.assert_array_equal(getattr(ne, name), getattr(ref, name), err_msg=name)

    def test_window_pass(self):
        window = self.window()
        ne = normal_equations(window)
        rss = ne.rows[1].states[0]
        assert 3 not in rss and len(set(np.bincount(rss)[[0, 1, 2, 4]])) > 1
        assert ne.rows[1].led is not None and (ne.rows[1].led >= 0).any()
        self.assert_same_blocks(ne, add_at_reduction(window, window.n_states, ne.rows))

    def test_marginalization_pass(self):
        window = self.window()
        rows = tuple(r.oldest() for r in normal_equations(window).rows)
        self.assert_same_blocks(estimator._reduce(window, 2, rows),
                                add_at_reduction(window, 2, rows))


def build_single_state_window():
    """One state, unknown LED 1 and a marginal prior over both."""
    rng = np.random.default_rng(5)
    window = fresh_window(make_config(unknown_led_ids=(1,)),
                          led_init={1: LEDS[0].position[:2] + np.array([0.1, -0.2])})
    state = NavState(0.0, position=np.array([1.2, 0.9, 0.1]),
                     attitude=quat_from_euler(0.05, -0.03, 0.4))
    samples = exact_rss(state, LEDS, RX)
    samples["value"] = [v * (1.0 + 0.05 * rng.normal()) for v in samples["value"]]
    window.append(0, state.row(), None, samples)
    A = rng.normal(size=(ERROR_DIM + 2, ERROR_DIM + 2))
    window.prior = MarginalPrior(A @ A.T + np.eye(ERROR_DIM + 2), rng.normal(size=ERROR_DIM + 2),
                                 state.perturb(0.01 * rng.normal(size=ERROR_DIM)).row(),
                                 LEDS[0].position[None, :2].copy())
    return window


class TestBlockSolve:
    """Block elimination against a dense solve of the same normal equations."""

    WINDOWS = {"rich": lambda: build_rich_window()[0], "single": build_single_state_window,
               "unseen": lambda: build_rich_window(unseen_led=True)[0]}

    @pytest.mark.parametrize("name,lam", [("rich", 0.1), ("rich", 10.0), ("single", 0.0),
                                          ("single", 1e-3), ("unseen", 0.1)])
    def test_matches_dense_solve(self, name, lam):
        window = self.WINDOWS[name]()
        ne = normal_equations(window)
        shift = lam * np.clip(ne.diagonal(), 1e-12, None)
        dx = ne.solve(shift)
        schur = ne.eliminate(shift)[-1][:, :-1]
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
        ne = normal_equations(build_rich_window()[0])
        H = ne.dense()

        def backward_error(x):
            return np.linalg.norm(H @ x + ne.g) / (np.linalg.norm(H, 2) * np.linalg.norm(x))

        dx = ne.solve()
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


def assert_same_interval(stack, k, one):
    """Row ``k`` of ``stack`` holds the one-row stack ``one``, bit for bit."""
    for f in fields(stack):
        if f.name == "stream":
            assert stack.stream[k] is one.stream[0]
        else:
            np.testing.assert_array_equal(getattr(stack, f.name)[k], getattr(one, f.name)[0],
                                          err_msg=f.name)


class TestReintegration:
    """An IMU factor is re-preintegrated once its start state's bias leaves
    the first-order region around the factor's linearization bias."""

    def run_with_bias_move(self, field, move, window_size=8):
        """Three epochs; before the last, state 0's bias ``field`` moves by ``move``.

        The first interval loses its last sample, so its end time is not the
        default one sample spacing past the final timestamp.
        """
        states, streams = build_chain(3)
        s0 = streams[0]
        streams[0] = ImuStream(s0.timestamps[:-1], s0.accel[:-1], s0.gyro[:-1])
        pres = preintegrate_chain(streams, states, RX)
        est = TightlyCoupledEstimator(make_config(window_size=window_size),
                                      LedTable.of(LEDS, RX), RX)
        est.start(states[0].row(), exact_rss(states[0], LEDS, RX))
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
        # The re-integration replaces row 0 of the window's stack by what a
        # fresh pre-integration at the new bias gives, and only that row.
        est, pres, fresh = self.run_with_bias_move(field, np.array(move))
        imu = est.window.imu
        assert len(imu) == 2
        assert_same_interval(imu, 0, fresh)
        assert_same_interval(imu, 1, pres[1])
        assert not np.array_equal(imu.information[0], pres[0].information[0])
        assert [d.reintegrations for d in est.diagnostics] == [0, 0, 1]

    def test_marginal_prior_uses_reintegrated_factor(self, monkeypatch):
        # Window 2: the step that re-integrates factor 0 also slides it out.
        # The pass the last solve kept holds the old factor; the prior must
        # come from the new one.
        seen = []

        def marginalize(window):
            seen.append((window.imu[0], loop_marginal_prior(window, LEDS)))
            return _marginalize_oldest(window)

        monkeypatch.setattr(estimator, "_marginalize_oldest", marginalize)
        est, pres, _ = self.run_with_bias_move("bias_acc", np.array([0.18, -0.24, 0.0]),
                                               window_size=2)
        assert est.diagnostics[-1].reintegrations == 1
        (pre, (H_ref, g_ref)), = seen
        assert not np.array_equal(pre.bias_acc, pres[0].bias_acc[0])
        prior = est.window.prior
        np.testing.assert_allclose(prior.hessian, H_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(prior.gradient, g_ref, rtol=1e-12, atol=0)

    def test_small_bias_move_keeps_factor(self):
        est, pres, _ = self.run_with_bias_move("bias_acc", np.array([0.05, 0.05, 0.0]))
        assert_same_interval(est.window.imu, 0, pres[0])
        assert_same_interval(est.window.imu, 1, pres[1])
        assert [d.reintegrations for d in est.diagnostics] == [0, 0, 0]

"""Hand-rolled consistent mini-scenarios for estimator tests.

States are propagated with the same first-order strapdown recursion the
pre-integration assumes, so noiseless residuals vanish to round-off and
solver tests have an exact ground truth independent of the simulator
module.

Also here: the loop forms the stacked library code replaced (normal
equations, marginal prior, pre-integration), kept as their references,
and single-case oracles the library no longer needs (angular-form RSS,
planar Jacobians, pose thresholds, a one-stream DRD run, first-order
bias correction).
"""

import warnings

import numpy as np

from vlpnav.attitude import (
    quat_conjugate,
    quat_identity,
    quat_left,
    quat_multiply,
    quat_normalize,
    quat_right,
    quat_to_dcm,
    skew,
    so3_right_jacobian,
)
from vlpnav.blockage import BlockageState, DrdConfig, drd_step
from vlpnav.channel import (
    GRAZING_COS_FLOOR,
    DegenerateGeometryError,
    GrazingIncidenceError,
    LedBeacon,
    ReceiverConfig,
    RssSample,
    gain_constant,
    los_geometry,
    predict_rss,
    receiver_normal,
    rss_jacobian,
)
from vlpnav.estimator import (
    ConstraintConfig,
    schur_marginalize,
    vlp_jacobian_row,
    vlp_residual,
)
from vlpnav.preint import (
    BIAS_CORRECTION_WARN_ACC,
    BIAS_CORRECTION_WARN_GYRO,
    ImuNoise,
    ImuStream,
    PreintegratedImu,
    _corrected_terms,
    imu_residual,
    preintegrate,
)
from vlpnav.state import ERROR_DIM, NavState

GRAVITY = np.array([0.0, 0.0, -9.80665])
NOISE = ImuNoise(accel_density=2.5e-3, gyro_density=3.6e-4,
                 accel_bias_walk=2e-4, gyro_bias_walk=2e-5)


def make_rx(lever_arm=(0.0, 0.0, 0.0), fov_deg=90.0):
    return ReceiverConfig(area=1e-4, fov_half_angle=np.deg2rad(fov_deg),
                          lever_arm=np.asarray(lever_arm, dtype=float))


def make_leds(height=3.0, power=2e5):
    """Four well-spread ceiling LEDs; power scaled to O(1) sensor units."""
    spots = [(0.5, 0.5), (2.5, 0.5), (0.5, 2.5), (2.5, 2.5)]
    return [LedBeacon(led_id=i + 1, position=np.array([x, y, height]), power=power)
            for i, (x, y) in enumerate(spots)]


def motion_profile(t):
    """Smooth specific-force/angular-rate test profile (room frame accel)."""
    a = np.array([0.25 * np.sin(0.9 * t), 0.2 * np.cos(0.7 * t), 0.1 * np.sin(0.5 * t)])
    w = np.array([0.05 * np.sin(0.6 * t), 0.08 * np.cos(0.8 * t), 0.3 * np.sin(0.4 * t)])
    return a, w


def build_chain(n_epochs, epoch_dt=1.0, imu_rate=200.0, x0=None, bias_acc=None,
                bias_gyro=None):
    """Propagate a state chain and per-interval IMU streams, exactly consistent.

    Returns (states, streams) with len(states) == n_epochs and
    len(streams) == n_epochs - 1.
    """
    ba = np.zeros(3) if bias_acc is None else np.asarray(bias_acc, dtype=float)
    bg = np.zeros(3) if bias_gyro is None else np.asarray(bias_gyro, dtype=float)
    if x0 is None:
        x0 = NavState(timestamp=0.0, position=np.array([1.5, 1.5, 0.0]),
                      velocity=np.array([0.1, 0.0, 0.0]), bias_acc=ba, bias_gyro=bg)
    dt = 1.0 / imu_rate
    states = [x0.copy()]
    streams = []
    p, v, q = x0.position.copy(), x0.velocity.copy(), x0.attitude.copy()
    t = x0.timestamp
    for k in range(n_epochs - 1):
        n = int(round(epoch_dt * imu_rate))
        ts = np.empty(n)
        acc = np.empty((n, 3))
        gyr = np.empty((n, 3))
        for i in range(n):
            ts[i] = t
            a_u, w_v = motion_profile(t)
            R = quat_to_dcm(q)
            f_v = R.T @ (a_u - GRAVITY)
            acc[i] = f_v + ba
            gyr[i] = w_v + bg
            p = p + v * dt + 0.5 * a_u * dt**2
            v = v + a_u * dt
            q = quat_multiply(q, np.concatenate(([1.0], 0.5 * w_v * dt)))
            t += dt
        streams.append(ImuStream(ts, acc, gyr))
        states.append(NavState(timestamp=t, position=p.copy(), velocity=v.copy(),
                               attitude=q.copy(), bias_acc=ba.copy(), bias_gyro=bg.copy()))
    return states, streams


def preintegrate_chain(streams, states, rx):
    return [
        preintegrate(stream, states[k].bias_acc, states[k].bias_gyro,
                     rx.dcm_body_to_vlp, NOISE, t_end=states[k + 1].timestamp)
        for k, stream in enumerate(streams)
    ]


def constraint_residuals(state: NavState, cfg: ConstraintConfig) -> np.ndarray:
    """Stacked kinematic constraint residuals for one state.

    Height: ``p_z - pd_height``.  NHC: lateral and vertical components
    of the vehicle-frame velocity.
    """
    return np.array([r for r, _, _ in _constraint_terms(state, cfg)], dtype=float)


def exact_rss(state, leds, rx, variance=0.01):
    """Noise-free RSS samples at a state (lever-arm corrected)."""
    R = quat_to_dcm(state.attitude)
    pd = state.position + R @ rx.lever_arm_vlp
    out = []
    for led in leds:
        p = predict_rss(pd, state.attitude, led, rx)
        if p is None:
            continue
        out.append(RssSample(timestamp=state.timestamp, led_id=led.led_id,
                             value=p, variance=variance))
    return out


# ---------------------------------------------------------------------------
# Per-factor loop forms of the estimator's normal equations: the
# implementation the batched linearization replaced, kept as its reference,
# with the per-factor constraint rows and IMU Jacobians it is built from.


def _constraint_terms(state: NavState, cfg: ConstraintConfig):
    """(residual, variance, 15-dim jacobian row) triples for one state.

    Height: ``p_z - pd_height``.  NHC: lateral and vertical components
    of the vehicle-frame velocity.
    """
    out = []
    if cfg.use_height:
        row = np.zeros(ERROR_DIM)
        row[2] = 1.0
        out.append((state.position[2] - cfg.pd_height, cfg.height_sigma**2, row))
    if cfg.use_nhc:
        R = quat_to_dcm(state.attitude)
        v_v = R.T @ state.velocity
        S = skew(v_v)
        for axis in (1, 2):
            row = np.zeros(ERROR_DIM)
            row[3:6] = R.T[axis]
            row[6:9] = S[axis]
            out.append((v_v[axis], cfg.nhc_sigma**2, row))
    return out


def imu_residual_jacobians(pre: PreintegratedImu, x_k: NavState, x_k1: NavState,
                           gravity) -> tuple[np.ndarray, np.ndarray]:
    """Analytic residual Jacobians ``(d r / d x_k, d r / d x_k1)``, 15x15 each."""
    g = np.asarray(gravity, dtype=float)
    dt = pre.dt
    _, _, gamma_c, _, dbg = _corrected_terms(pre, x_k.bias_acc, x_k.bias_gyro)
    R_k = quat_to_dcm(x_k.attitude)
    R_ku = R_k.T

    dp = x_k1.position - x_k.position - 0.5 * g * dt**2 - x_k.velocity * dt
    dv = x_k1.velocity - g * dt - x_k.velocity

    Jk = np.zeros((15, 15))
    Jk1 = np.zeros((15, 15))

    Jk[0:3, 0:3] = -R_ku
    Jk[0:3, 3:6] = -R_ku * dt
    Jk[0:3, 6:9] = skew(R_ku @ dp)
    Jk[0:3, 9:12] = -pre.d_alpha_d_ba
    Jk[0:3, 12:15] = -pre.d_alpha_d_bg
    Jk1[0:3, 0:3] = R_ku

    Jk[3:6, 3:6] = -R_ku
    Jk[3:6, 6:9] = skew(R_ku @ dv)
    Jk[3:6, 9:12] = -pre.d_beta_d_ba
    Jk[3:6, 12:15] = -pre.d_beta_d_bg
    Jk1[3:6, 3:6] = R_ku

    # Attitude block via exact quaternion product matrices.
    q_rel = quat_multiply(quat_conjugate(x_k.attitude), x_k1.attitude)
    q_err = quat_multiply(q_rel, quat_conjugate(gamma_c))
    sign = -1.0 if q_err[0] < 0.0 else 1.0
    L_rel = quat_left(q_rel)
    R_gc = quat_right(quat_conjugate(gamma_c))
    Jk[6:9, 6:9] = -sign * quat_right(q_err)[1:4, 1:4]
    Jk1[6:9, 6:9] = sign * (L_rel @ R_gc)[1:4, 1:4]
    # Bias-gyro sensitivity through the corrected gamma; the right
    # Jacobian accounts for a nonzero current correction angle.
    phi0 = pre.d_gamma_d_bg @ dbg
    Jk[6:9, 12:15] = -sign * (L_rel @ R_gc)[1:4, 1:4] @ (
        so3_right_jacobian(phi0) @ pre.d_gamma_d_bg)

    Jk[9:12, 9:12] = -np.eye(3)
    Jk1[9:12, 9:12] = np.eye(3)
    Jk[12:15, 12:15] = -np.eye(3)
    Jk1[12:15, 12:15] = np.eye(3)
    return Jk, Jk1


def _sym_inv(M):
    M = 0.5 * (M + M.T)
    jitter = 1e-14 * max(np.trace(M) / M.shape[0], 1e-30)
    return np.linalg.inv(M + jitter * np.eye(M.shape[0]))


def _loop_factors(window, state_ids, n_x, add):
    """Feed every factor touching the states ``state_ids`` to ``add(blocks, r, W)``.

    ``blocks`` lists ``(column, jacobian)`` pairs over ``n_x`` states (15
    columns each) followed by the unknown LEDs (2 each); samples that are
    out of the FOV, degenerate or grazing are skipped.
    """
    cfg = window.config
    led_col = {i: ERROR_DIM * n_x + 2 * j for j, i in enumerate(window.led_keys())}
    for k, pre in enumerate(window.imu_factors):
        if k not in state_ids and k + 1 not in state_ids:
            continue
        xk, xk1 = window.states[k], window.states[k + 1]
        r = imu_residual(pre, xk, xk1, cfg.gravity_vec)
        Jk, Jk1 = imu_residual_jacobians(pre, xk, xk1, cfg.gravity_vec)
        add([(ERROR_DIM * k, Jk), (ERROR_DIM * (k + 1), Jk1)], r, _sym_inv(pre.cov))
    for k in state_ids:
        state = window.states[k]
        for sample in window.rss_factors[k]:
            led = window.led_map.get(sample.led_id)
            if led is None:
                continue
            led_xy = window.unknown_xy.get(sample.led_id)
            try:
                r = vlp_residual(state, sample, led, window.rx, led_xy)
                if r is None:
                    continue
                row, led_block = vlp_jacobian_row(state, led, window.rx, led_xy)
            except (GrazingIncidenceError, DegenerateGeometryError):
                continue
            blocks = [(ERROR_DIM * k, row[None, :])]
            if led_block is not None:
                blocks.append((led_col[sample.led_id], led_block[None, :]))
            add(blocks, r, np.atleast_2d(1.0 / window.sample_variance(sample)))
    for k in state_ids:
        for r, var, row in _constraint_terms(window.states[k], cfg.constraints):
            add([(ERROR_DIM * k, row[None, :])], r, np.atleast_2d(1.0 / var))


def _loop_adder(H, g, cost):
    def add(blocks, r, W):
        r = np.atleast_1d(r)
        W = np.atleast_2d(W)
        cost[0] += 0.5 * float(r @ W @ r)
        for i0, Ji in blocks:
            g[i0:i0 + Ji.shape[1]] += Ji.T @ W @ r
            for j0, Jj in blocks:
                H[i0:i0 + Ji.shape[1], j0:j0 + Jj.shape[1]] += Ji.T @ W @ Jj
    return add


def _add_loop_prior(window, n_x, H, g, cost):
    """The marginal prior over the oldest state and then every unknown LED."""
    prior = window.prior
    leds = [window.unknown_xy[i] - prior.led_lin[j] for j, i in enumerate(window.led_keys())]
    d = np.concatenate([window.states[0].boxminus(prior.state_lin)] + leds)
    idx = np.r_[0:ERROR_DIM, ERROR_DIM * n_x:ERROR_DIM * (n_x - 1) + d.size]
    cost[0] += 0.5 * float(d @ prior.hessian @ d) + float(prior.gradient @ d)
    H[np.ix_(idx, idx)] += prior.hessian
    g[idx] += prior.hessian @ d + prior.gradient


def loop_assemble_cost(window):
    """``(H, g, cost)`` of ``assemble_cost(window)``, one factor at a time."""
    n_x = window.n_states
    dim = ERROR_DIM * n_x + 2 * len(window.unknown_xy)
    H, g, cost = np.zeros((dim, dim)), np.zeros(dim), [0.0]
    if window.prior is not None:
        _add_loop_prior(window, n_x, H, g, cost)
    w_led = 1.0 / window.config.unknown_led_prior_sigma**2
    for j, led_id in enumerate(window.led_keys()):
        d = window.unknown_xy[led_id] - window.unknown_init[led_id]
        i0 = ERROR_DIM * n_x + 2 * j
        cost[0] += 0.5 * w_led * float(d @ d)
        H[i0:i0 + 2, i0:i0 + 2] += w_led * np.eye(2)
        g[i0:i0 + 2] += w_led * d
    _loop_factors(window, range(n_x), n_x, _loop_adder(H, g, cost))
    return H, g, cost[0]


def loop_marginal_prior(window):
    """``(hessian, gradient)`` of the prior ``_marginalize_oldest(window)``
    builds, one factor at a time, over the next state and then every
    unknown LED.

    Assumes the oldest state has factors and a positive definite block.
    """
    dim = 2 * ERROR_DIM + 2 * len(window.unknown_xy)
    H, g, cost = np.zeros((dim, dim)), np.zeros(dim), [0.0]
    if window.prior is not None:
        _add_loop_prior(window, 2, H, g, cost)
    _loop_factors(window, [0], 2, _loop_adder(H, g, cost))
    return schur_marginalize(H, g, ERROR_DIM)


# ---------------------------------------------------------------------------
# Per-sample loop form of the pre-integration: the implementation the
# stacked one replaced, kept as its reference.


def loop_preintegrate(stream, bias_acc, bias_gyro, dcm_body_to_vlp, noise, t_end=None):
    """``preintegrate(...)`` with a dense 15x15 ``F`` and 15x12 ``G`` per sample."""
    bias_acc = np.asarray(bias_acc, dtype=float)
    bias_gyro = np.asarray(bias_gyro, dtype=float)
    R_bv = np.asarray(dcm_body_to_vlp, dtype=float)

    t = stream.timestamps
    n = t.size
    if t_end is None:
        spacing = np.mean(np.diff(t)) if n > 1 else 1e-2
        t_end = float(t[-1] + spacing)
    if t_end <= t[-1]:
        raise ValueError("t_end must lie past the final sample")
    dts = np.empty(n)
    dts[:-1] = np.diff(t)
    dts[-1] = t_end - t[-1]

    accel_v = stream.accel @ R_bv.T
    gyro_v = stream.gyro @ R_bv.T

    alpha = np.zeros(3)
    beta = np.zeros(3)
    gamma = quat_identity()
    cov = np.zeros((15, 15))
    J = np.eye(15)

    sig = np.repeat(
        [noise.accel_density**2, noise.gyro_density**2,
         noise.accel_bias_walk**2, noise.gyro_bias_walk**2], 3)

    for i in range(n):
        dt = float(dts[i])
        a = accel_v[i] - bias_acc
        w = gyro_v[i] - bias_gyro
        R_i = quat_to_dcm(gamma)
        Ra = R_i @ skew(a)

        F = np.eye(15)
        F[0:3, 3:6] = np.eye(3) * dt
        F[0:3, 6:9] = -0.5 * Ra * dt**2
        F[0:3, 9:12] = 0.5 * R_i * dt**2
        F[3:6, 6:9] = -Ra * dt
        F[3:6, 9:12] = R_i * dt
        F[6:9, 6:9] = np.eye(3) - skew(w) * dt
        F[6:9, 12:15] = np.eye(3) * dt

        G = np.zeros((15, 12))
        G[0:3, 0:3] = 0.5 * R_i * dt**2
        G[3:6, 0:3] = R_i * dt
        G[6:9, 3:6] = np.eye(3) * dt
        G[9:12, 6:9] = np.eye(3) * dt
        G[12:15, 9:12] = np.eye(3) * dt

        cov = F @ cov @ F.T + G @ (np.diag(sig) / dt) @ G.T
        J = F @ J

        alpha = alpha + beta * dt + 0.5 * (R_i @ a) * dt**2
        beta = beta + (R_i @ a) * dt
        gamma = quat_multiply(gamma, np.concatenate(([1.0], 0.5 * w * dt)))

    return PreintegratedImu(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        cov=0.5 * (cov + cov.T),
        dt=float(np.sum(dts)),
        bias_acc=bias_acc.copy(),
        bias_gyro=bias_gyro.copy(),
        d_alpha_d_ba=-J[0:3, 9:12],
        d_alpha_d_bg=-J[0:3, 12:15],
        d_beta_d_ba=-J[3:6, 9:12],
        d_beta_d_bg=-J[3:6, 12:15],
        d_gamma_d_bg=-J[6:9, 12:15],
    )


def bias_corrected(pre, bias_acc, bias_gyro):
    """Re-linearize the pseudo-measurement at a new bias point.

    Valid for small bias moves; warns past 0.1 m/s^2 / 0.05 rad/s where
    the first-order correction degrades and re-integration is advised.
    """
    alpha, beta, gamma, dba, dbg = _corrected_terms(pre, bias_acc, bias_gyro)
    if np.linalg.norm(dba) > BIAS_CORRECTION_WARN_ACC:
        warnings.warn("accelerometer bias moved far from linearization; re-integrate",
                      stacklevel=2)
    if np.linalg.norm(dbg) > BIAS_CORRECTION_WARN_GYRO:
        warnings.warn("gyroscope bias moved far from linearization; re-integrate",
                      stacklevel=2)
    return PreintegratedImu(
        alpha=alpha, beta=beta, gamma=gamma, cov=pre.cov, dt=pre.dt,
        bias_acc=np.asarray(bias_acc, dtype=float).copy(),
        bias_gyro=np.asarray(bias_gyro, dtype=float).copy(),
        d_alpha_d_ba=pre.d_alpha_d_ba, d_alpha_d_bg=pre.d_alpha_d_bg,
        d_beta_d_ba=pre.d_beta_d_ba, d_beta_d_bg=pre.d_beta_d_bg,
        d_gamma_d_bg=pre.d_gamma_d_bg,
    )


# ---------------------------------------------------------------------------
# Single-pose and single-stream forms the library does without: oracles
# for the channel model and the DRD detector, the heading-information
# diagnostic and the DCM-to-quaternion inverse.


def predict_rss_angular(pd_pos, q, led: LedBeacon, rx: ReceiverConfig) -> float | None:
    """RSS via the cos^m(theta) cos(psi) / D^2 form; oracle for the vector form."""
    geo = los_geometry(pd_pos, q, led)
    if geo.cos_incidence < rx.fov_cos() or geo.cos_irradiance < 0.0:
        return None
    k = gain_constant(led, rx)
    return k * geo.cos_irradiance**led.order * geo.cos_incidence / geo.distance**2


def rss_jacobian_2d(pd_pos, q, led: LedBeacon, rx: ReceiverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Planar-position reduction ``(dP_ds, dP_dphi_u)`` for ceiling LEDs.

    Valid when the LED normal is ``[0, 0, 1]`` so its position term has no
    planar component:

        dP_ds = P [ -(n)_xy/(n.D) + (3+m) (s_l - s)/D^2 ]
    """
    if abs(led.normal[2] - 1.0) > 1e-9:
        raise ValueError("planar reduction requires an upward LED normal [0, 0, 1]")
    geo = los_geometry(pd_pos, q, led)
    p = predict_rss(pd_pos, q, led, rx)
    if p is None or min(geo.cos_incidence, geo.cos_irradiance) <= GRAZING_COS_FLOOR:
        raise GrazingIncidenceError("pose out of FOV or at grazing incidence")
    n_u, d = receiver_normal(q), geo.los_vector
    dp_ds = p * (-n_u[:2] / (n_u @ d) + (3.0 + led.order) * d[:2] / geo.distance**2)
    dp_dphi = p * np.cross(d, n_u) / (d @ n_u)
    return dp_ds, dp_dphi


def unknown_led_jacobian(pd_pos, q, led: LedBeacon, rx: ReceiverConfig) -> np.ndarray:
    """1x2 derivative of RSS with respect to the LED planar position.

        dP_ds_l = P [ (n)_xy/(n.D) - (3+m) (s_l - s)/D^2 ]

    The PD and LED planar positions enter antisymmetrically, so this is
    the negative of the position part of :func:`rss_jacobian_2d`.
    """
    dp_ds, _ = rss_jacobian_2d(pd_pos, q, led, rx)
    return -dp_ds


def threshold_3d(pd_pos, q, led: LedBeacon, rx: ReceiverConfig, v_max: float,
                 omega_max: float) -> float:
    """Largest motion-induced |rate ratio| at a pose.

    ``|| (D x n)/(D . n) || * omega_max
      + || -n/(n.D) - m n_l/(n_l.D) + (3+m) D/D^2 || * v_max``
    """
    dp_dr, dp_dphi = rss_jacobian(pd_pos, q, led, rx)
    p = predict_rss(pd_pos, q, led, rx)
    return float(np.linalg.norm(dp_dphi / p) * omega_max + np.linalg.norm(dp_dr / p) * v_max)


def detect_stream(times, values, threshold: float, cfg: DrdConfig) -> tuple[np.ndarray, int]:
    """Run the detector over one LED's raw stream.

    Returns the per-sample blocked tags (bool array aligned with
    ``times``) and the transition count.  The state initializes
    UNBLOCKED; streams that begin mid-blockage are not recognized until
    the first rise.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("times and values must be matching 1-D arrays")
    tags = np.zeros(times.shape, dtype=bool)
    state = BlockageState(reference=float(values[0]) if values.size else 0.0)
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        state = drd_step(state, float(values[i]), float(values[i + 1]), float(dt),
                         threshold, cfg.value_floor)
        tags[i + 1] = state.blocked
    return tags, state.transitions


def heading_information(pd_pos, q, leds, rx: ReceiverConfig) -> float:
    """Sum over LEDs of the squared heading component of dP/dphi.

    The attitude derivative is proportional to ``D_vec x n``, which is
    orthogonal to the receiver normal ``n``; rotating the photodiode about
    its own normal leaves every RSS unchanged, so this diagnostic is zero
    to machine precision for any geometry.
    """
    n_u = receiver_normal(q)
    total = 0.0
    for led in leds:
        try:
            _, dp_dphi = rss_jacobian(pd_pos, q, led, rx)
        except (GrazingIncidenceError, DegenerateGeometryError):
            continue
        total += float(dp_dphi @ n_u) ** 2
    return total


def dcm_to_quat(R) -> np.ndarray:
    """Quaternion of a proper-orthogonal matrix (Shepperd), with w >= 0."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0.0:
        q = -q
    return quat_normalize(q)

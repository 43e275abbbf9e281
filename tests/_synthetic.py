"""Hand-rolled consistent mini-scenarios for estimator tests.

States are propagated with the same first-order strapdown recursion the
pre-integration assumes, so noiseless residuals vanish to round-off and
solver tests have an exact ground truth independent of the simulator
module.

Also here: the loop forms the stacked library code replaced (normal
equations, marginal prior, pre-integration, the per-sample DRD fold),
kept as their references, the loop over the grid that the reachable-box
DRD threshold replaced, and single-case oracles the library no longer
needs (the one-state ``NavState`` with its retraction, the one-factor IMU
and RSS residuals and Jacobians, the dense Schur step, angular-form RSS,
planar Jacobians, pose thresholds, the planar DRD threshold, first-order
bias correction).
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from vlpnav.attitude import (
    apply_small_angle,
    quat_conjugate,
    quat_identity,
    quat_left,
    quat_log,
    quat_multiply,
    quat_normalize,
    quat_right,
    quat_to_dcm,
    skew,
    so3_right_jacobian,
)
from vlpnav.blockage import PSI_CAP, THRESHOLD_GRID, DetectionSpec
from vlpnav.channel import (
    EPOCH_RSS,
    GRAZING_COS_FLOOR,
    DegenerateGeometryError,
    GrazingIncidenceError,
    LedBeacon,
    ReceiverConfig,
    SampleFlag,
    gain_constant,
    los_geometry,
    predict_rss,
    receiver_normal,
    rss_jacobian,
)
from vlpnav.estimator import ConstraintConfig, _indefinite
from vlpnav.preint import (
    BIAS_CORRECTION_WARN_ACC,
    BIAS_CORRECTION_WARN_GYRO,
    ImuNoise,
    ImuStream,
    PreintegratedStack,
    _corrected_terms,
    preintegrate,
)
from vlpnav.state import ERROR_DIM, StateArrays, boxminus

GRAVITY = np.array([0.0, 0.0, -9.80665])
NOISE = ImuNoise(accel_density=2.5e-3, gyro_density=3.6e-4,
                 accel_bias_walk=2e-4, gyro_bias_walk=2e-5)


# ---------------------------------------------------------------------------
# One state and one factor at a time: the forms the library's rows and
# stacks replaced, kept as their references.


@dataclass
class NavState:
    """Vehicle state at one epoch, with mutable fields; :meth:`row` is the
    library's form of it, a :class:`StateArrays` row.

    Every field is stored as given, so a copy is exact; :meth:`perturb`
    normalizes the attitude it returns.
    """

    timestamp: float
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    attitude: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    bias_acc: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        self.attitude = np.asarray(self.attitude, dtype=float)
        self.bias_acc = np.asarray(self.bias_acc, dtype=float)
        self.bias_gyro = np.asarray(self.bias_gyro, dtype=float)

    @classmethod
    def of(cls, row: StateArrays) -> "NavState":
        """A copy of a :class:`StateArrays` row."""
        return cls(float(row.timestamps), row.position.copy(), row.velocity.copy(),
                   row.attitude.copy(), row.bias_acc.copy(), row.bias_gyro.copy())

    def row(self) -> StateArrays:
        """A copy of this state as a :class:`StateArrays` row."""
        return StateArrays(self.timestamp, self.position.copy(), self.velocity.copy(),
                           self.attitude.copy(), self.bias_acc.copy(), self.bias_gyro.copy())

    def copy(self) -> "NavState":
        return NavState.of(self.row())

    def perturb(self, dx: np.ndarray) -> "NavState":
        """Retract a 15-dim error vector onto the state (box-plus)."""
        dx = np.asarray(dx, dtype=float)
        if dx.shape != (ERROR_DIM,):
            raise ValueError("error vector must have 15 components")
        return NavState(
            timestamp=self.timestamp,
            position=self.position + dx[0:3],
            velocity=self.velocity + dx[3:6],
            attitude=apply_small_angle(self.attitude, dx[6:9]),
            bias_acc=self.bias_acc + dx[9:12],
            bias_gyro=self.bias_gyro + dx[12:15],
        )

    def boxminus(self, other) -> np.ndarray:
        """15-dim error ``self ⊟ other`` (exact log map for attitude)."""
        dq = quat_multiply(quat_conjugate(other.attitude), self.attitude)
        return np.concatenate([self.position - other.position, self.velocity - other.velocity,
                               quat_log(dq), self.bias_acc - other.bias_acc,
                               self.bias_gyro - other.bias_gyro])


def stack_states(states) -> StateArrays:
    """The :class:`StateArrays` of a list of :class:`NavState`."""
    return StateArrays.empty().append(
        StateArrays(*(np.array([getattr(s, name) for s in states], dtype=float)
                      for name in ("timestamp", "position", "velocity", "attitude",
                                   "bias_acc", "bias_gyro"))))


def imu_residual(pre, x_k, x_k1, gravity) -> np.ndarray:
    """15-dim pre-integration residual of one interval (a
    :class:`PreintegratedStack` row) between two states.

    Blocks: relative-position, relative-velocity, attitude (twice the
    vector part of the quaternion mismatch), and the two bias
    random-walk differences.  Zero when the states were produced by
    integrating the same noiseless IMU stream at the linearization bias.
    """
    g = np.asarray(gravity, dtype=float)
    dt = float(pre.dt)
    alpha, beta, gamma, _, _ = _corrected_terms(pre, x_k.bias_acc, x_k.bias_gyro)
    R_ku = quat_to_dcm(x_k.attitude).T

    r = np.empty(15)
    r[0:3] = R_ku @ (x_k1.position - x_k.position - 0.5 * g * dt**2
                     - x_k.velocity * dt) - alpha
    r[3:6] = R_ku @ (x_k1.velocity - g * dt - x_k.velocity) - beta
    q_err = quat_multiply(
        quat_multiply(quat_conjugate(x_k.attitude), x_k1.attitude), quat_conjugate(gamma))
    if q_err[0] < 0.0:
        q_err = -q_err
    r[6:9] = 2.0 * q_err[1:]
    r[9:12] = x_k1.bias_acc - x_k.bias_acc
    r[12:15] = x_k1.bias_gyro - x_k.bias_gyro
    return r


def vlp_residual(state, value: float, led: LedBeacon, rx: ReceiverConfig,
                 led_xy=None) -> float | None:
    """Predicted RSS at the lever-arm-corrected PD position minus the
    measured ``value``.

    Returns ``None`` when the predicted geometry falls outside the FOV;
    the caller skips the factor for that iterate.
    """
    if led_xy is not None:
        led = replace(led, position=np.array([led_xy[0], led_xy[1], led.position[2]]))
    R = quat_to_dcm(state.attitude)
    pd_pos = state.position + R @ rx.lever_arm_vlp
    pred = predict_rss(pd_pos, state.attitude, led, rx)
    if pred is None:
        return None
    return pred - value


def vlp_jacobian_row(state, led: LedBeacon, rx: ReceiverConfig,
                     led_xy=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Jacobian of one RSS residual over the 15-dim state error (+ LED block).

    Position block is the channel position gradient; the attitude block
    combines the direct normal-rotation term with the lever-arm swing,
    both mapped into the local attitude error; velocity and bias blocks
    are zero.  The optional 2-vector is the unknown-LED planar block.
    """
    if led_xy is not None:
        led = replace(led, position=np.array([led_xy[0], led_xy[1], led.position[2]]))
    R = quat_to_dcm(state.attitude)
    lever_u = R @ rx.lever_arm_vlp
    pd_pos = state.position + lever_u
    dp_dr, dp_dphi = rss_jacobian(pd_pos, state.attitude, led, rx)

    row = np.zeros(ERROR_DIM)
    row[0:3] = dp_dr
    # d r / d theta = -(A^T + B^T [lever_u x]) R, A = dp_dphi, B = dp_dr
    row[6:9] = -R.T @ (dp_dphi - skew(lever_u) @ dp_dr)
    led_block = -dp_dr[:2] if led_xy is not None else None
    return row, led_block


def schur_marginalize(H: np.ndarray, g: np.ndarray, n_marg: int):
    """Eliminate the leading ``n_marg`` dims of a quadratic (H, g), the
    dense form of ``NormalEquations.eliminate``'s step: the reduced
    ``(H', g')`` (``H'`` symmetrized), or ``None`` when the marginal block
    is indefinite and the caller should drop the factors instead."""
    if _indefinite(H[:n_marg, :n_marg]):
        return None
    Hg = np.column_stack([H, g])
    Y = np.linalg.solve(H[:n_marg, :n_marg], Hg[:n_marg, n_marg:])
    reduced = Hg[n_marg:, n_marg:] - H[n_marg:, :n_marg] @ Y
    return 0.5 * (reduced[:, :-1] + reduced[:, :-1].T), reduced[:, -1]


def make_rx(lever_arm=(0.0, 0.0, 0.0), fov_deg=90.0, pd_height=0.0):
    return ReceiverConfig(area=1e-4, fov_half_angle=np.deg2rad(fov_deg),
                          lever_arm=np.asarray(lever_arm, dtype=float), pd_height=pd_height)


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


def constraint_residuals(state, cfg: ConstraintConfig,
                         pd_height: float = 0.0) -> np.ndarray:
    """Stacked kinematic constraint residuals for one state.

    Height: ``p_z - pd_height``.  NHC: lateral and vertical components
    of the vehicle-frame velocity.
    """
    return np.array([r for r, _, _ in _constraint_terms(state, cfg, pd_height)], dtype=float)


def rss_rows(rows) -> np.ndarray:
    """``EPOCH_RSS`` samples from ``(timestamp, led_id, value, variance)``
    tuples, LOS, or ``(..., flag)`` tuples."""
    return np.array([tuple(r) + (SampleFlag.LOS,) * (5 - len(r)) for r in rows], EPOCH_RSS)


def exact_rss(state, leds, rx, variance=0.01):
    """Noise-free RSS samples (``EPOCH_RSS``) at a state (lever-arm corrected)."""
    R = quat_to_dcm(state.attitude)
    pd = state.position + R @ rx.lever_arm_vlp
    predicted = ((led.led_id, predict_rss(pd, state.attitude, led, rx)) for led in leds)
    return rss_rows((state.timestamp, i, p, variance) for i, p in predicted if p is not None)


# ---------------------------------------------------------------------------
# Per-factor loop forms of the estimator's normal equations: the
# implementation the batched linearization replaced, kept as its reference,
# with the per-factor constraint rows and IMU Jacobians it is built from.


def _constraint_terms(state, cfg: ConstraintConfig, pd_height: float):
    """(residual, variance, 15-dim jacobian row) triples for one state.

    Height: ``p_z - pd_height``.  NHC: lateral and vertical components
    of the vehicle-frame velocity.
    """
    out = []
    if cfg.use_height:
        row = np.zeros(ERROR_DIM)
        row[2] = 1.0
        out.append((state.position[2] - pd_height, cfg.height_sigma**2, row))
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


def imu_residual_jacobians(pre, x_k, x_k1, gravity) -> tuple[np.ndarray, np.ndarray]:
    """Analytic residual Jacobians ``(d r / d x_k, d r / d x_k1)``, 15x15 each."""
    g = np.asarray(gravity, dtype=float)
    dt = float(pre.dt)
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
    states = window.states
    led_col = {i: ERROR_DIM * n_x + 2 * j for j, i in enumerate(window.led_ids)}
    led_xy_of = dict(zip(window.led_ids, window.led_xy))
    led_of_row = {row: window.led_map[i] for i, row in window.led_table.row.items()}
    for k in range(len(window.imu)):
        if k not in state_ids and k + 1 not in state_ids:
            continue
        pre = window.imu[k]
        xk, xk1 = states[k], states[k + 1]
        r = imu_residual(pre, xk, xk1, cfg.gravity_vec)
        Jk, Jk1 = imu_residual_jacobians(pre, xk, xk1, cfg.gravity_vec)
        add([(ERROR_DIM * k, Jk), (ERROR_DIM * (k + 1), Jk1)], r, _sym_inv(pre.cov))
    for k in state_ids:
        for s in window.rss[window.rss["state"] == k]:
            led = led_of_row[s["led"]]
            led_xy = led_xy_of.get(led.led_id)
            try:
                r = vlp_residual(states[k], s["value"], led, window.rx, led_xy)
                if r is None:
                    continue
                row, led_block = vlp_jacobian_row(states[k], led, window.rx, led_xy)
            except (GrazingIncidenceError, DegenerateGeometryError):
                continue
            blocks = [(ERROR_DIM * k, row[None, :])]
            if led_block is not None:
                blocks.append((led_col[led.led_id], led_block[None, :]))
            add(blocks, r, np.atleast_2d(1.0 / s["variance"]))
    for k in state_ids:
        for r, var, row in _constraint_terms(states[k], cfg.constraints, window.rx.pd_height):
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
    d = np.concatenate([boxminus(window.states[0], prior.state_lin),
                        (window.led_xy - prior.led_lin).ravel()])
    idx = np.r_[0:ERROR_DIM, ERROR_DIM * n_x:ERROR_DIM * (n_x - 1) + d.size]
    cost[0] += 0.5 * float(d @ prior.hessian @ d) + float(prior.gradient @ d)
    H[np.ix_(idx, idx)] += prior.hessian
    g[idx] += prior.hessian @ d + prior.gradient


def loop_assemble_cost(window):
    """``(H, g, cost)`` of ``assemble_cost(window)``, one factor at a time."""
    n_x = window.n_states
    dim = ERROR_DIM * n_x + 2 * len(window.led_ids)
    H, g, cost = np.zeros((dim, dim)), np.zeros(dim), [0.0]
    if window.prior is not None:
        _add_loop_prior(window, n_x, H, g, cost)
    _loop_factors(window, range(n_x), n_x, _loop_adder(H, g, cost))
    return H, g, cost[0]


def loop_marginal_prior(window):
    """``(hessian, gradient)`` of the prior ``_marginalize_oldest(window)``
    builds, one factor at a time, over the next state and then every
    unknown LED.

    Assumes the oldest state has factors and a positive definite block.
    """
    dim = 2 * ERROR_DIM + 2 * len(window.led_ids)
    H, g, cost = np.zeros((dim, dim)), np.zeros(dim), [0.0]
    if window.prior is not None:
        _add_loop_prior(window, 2, H, g, cost)
    _loop_factors(window, [0], 2, _loop_adder(H, g, cost))
    return schur_marginalize(H, g, ERROR_DIM)


# ---------------------------------------------------------------------------
# Per-sample loop form of the pre-integration: the implementation the
# stacked one replaced, kept as its reference.


def loop_preintegrate(stream, bias_acc, bias_gyro, dcm_body_to_vlp, noise, *, t_end):
    """``preintegrate(...)`` with a dense 15x15 ``F`` and 15x12 ``G`` per sample."""
    bias_acc = np.asarray(bias_acc, dtype=float)
    bias_gyro = np.asarray(bias_gyro, dtype=float)
    R_bv = np.asarray(dcm_body_to_vlp, dtype=float)

    t = stream.timestamps
    n = t.size
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

    cov = 0.5 * (cov + cov.T)
    return PreintegratedStack(
        alpha=alpha, beta=beta, gamma=gamma, cov=cov, dt=float(np.sum(dts)),
        bias_acc=bias_acc.copy(), bias_gyro=bias_gyro.copy(),
        d_alpha_d_ba=-J[0:3, 9:12], d_alpha_d_bg=-J[0:3, 12:15],
        d_beta_d_ba=-J[3:6, 9:12], d_beta_d_bg=-J[3:6, 12:15], d_gamma_d_bg=-J[6:9, 12:15],
        information=_sym_inv(cov), stream=stream, t_end=float(t_end))


def bias_corrected(pre, bias_acc, bias_gyro):
    """Re-linearize one interval (a :class:`PreintegratedStack` row) at a
    new bias point.

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
    return replace(pre, alpha=alpha, beta=beta, gamma=gamma,
                   bias_acc=np.asarray(bias_acc, dtype=float).copy(),
                   bias_gyro=np.asarray(bias_gyro, dtype=float).copy())


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


def loop_static_threshold_3d(room_min, room_max, led: LedBeacon, cfg: DetectionSpec) -> float:
    """``blockage.static_threshold_3d`` one grid point at a time: the loop
    form the array pass replaced, kept as its reference."""
    room_min = np.asarray(room_min, dtype=float)
    room_max = np.asarray(room_max, dtype=float)
    max_tilt = np.deg2rad(cfg.max_tilt_deg)
    best = 0.0
    xs, ys, zs = (np.linspace(room_min[i], room_max[i], THRESHOLD_GRID) for i in range(3))
    for x in xs:
        for y in ys:
            for z in zs:
                d = led.position - np.array([x, y, z])
                dist = float(np.linalg.norm(d))
                if dist < 1e-6:
                    continue
                cos_theta = float(led.normal @ d / dist)
                if cos_theta <= 1e-3:
                    continue
                psi_geom = np.arccos(np.clip(d[2] / dist, -1.0, 1.0))
                psi = min(psi_geom + max_tilt, PSI_CAP)
                cos_psi = np.cos(psi)
                thr = np.tan(psi) * cfg.omega_max + (
                    1.0 / (dist * cos_psi)
                    + led.order / (dist * cos_theta)
                    + (3.0 + led.order) / dist
                ) * cfg.v_max
                best = max(best, float(thr))
    if best == 0.0:
        raise ValueError("no valid geometry inside the box for this LED")
    return best


class UndefinedRatioError(ValueError):
    """Changing-rate ratio undefined: the denominator sample is at the floor."""


@dataclass(frozen=True)
class BlockageState:
    """Per-LED detector state.

    ``reference`` tracks the most recent line-of-sight value; it
    normalizes the rise ratio while the signal sits at the floor.
    """

    blocked: bool = False
    transitions: int = 0
    reference: float = 0.0


def rate_ratio(p_i: float, p_next: float, dt: float, floor: float = 1e-12) -> float:
    """Discrete RSS changing-rate ratio ``(p_next - p_i) / (dt * p_i)`` in 1/s."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if p_i <= floor:
        raise UndefinedRatioError(f"denominator sample {p_i} at or below floor {floor}")
    return (p_next - p_i) / (dt * p_i)


def threshold_2d(s: float, h: float, order: float, v_max: float) -> float:
    """Planar bound ``(3 + m) s v_max / (s^2 + h^2)`` for a level receiver."""
    if h <= 0.0:
        raise ValueError("vertical distance h must be positive")
    if s < 0.0:
        raise ValueError("horizontal distance s must be non-negative")
    return (3.0 + order) * s * v_max / (s * s + h * h)


def drd_step(state: BlockageState, p_i: float, p_next: float, dt: float,
             threshold: float, floor: float = 1e-12) -> BlockageState:
    """Advance one sample pair; pure fold over the stream.

    UNBLOCKED -> BLOCKED on a descent faster than ``-threshold`` (or on an
    undefined ratio, conservatively).  BLOCKED -> UNBLOCKED on a rise
    faster than ``+threshold``; while the signal sits at the floor the
    rise ratio is normalized by the last LOS value instead of the
    vanishing denominator.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if not state.blocked:
        try:
            ratio = rate_ratio(p_i, p_next, dt, floor)
        except UndefinedRatioError:
            return replace(state, blocked=True, transitions=state.transitions + 1)
        if ratio < -threshold:
            return replace(state, blocked=True, transitions=state.transitions + 1,
                           reference=p_i)
        return replace(state, reference=p_i)
    denom = p_i if p_i > floor else max(state.reference, floor)
    ratio = (p_next - p_i) / (dt * denom)
    if ratio > threshold:
        return replace(state, blocked=False, transitions=state.transitions + 1)
    return state


def detect_stream(times, values, threshold: float,
                  cfg: DetectionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Run DRD over one LED's raw stream, one :func:`drd_step` per sample
    pair: the loop ``DrdDetector.run`` replaced, kept as its reference.

    Returns the per-sample blocked tags and transition counters, aligned
    with ``times``.  The state initializes UNBLOCKED; streams that begin
    mid-blockage are not recognized until the first rise.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("times and values must be matching 1-D arrays")
    tags = np.zeros(times.shape, dtype=bool)
    counters = np.zeros(times.shape, dtype=int)
    state = BlockageState(reference=float(values[0]) if values.size else 0.0)
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        state = drd_step(state, float(values[i]), float(values[i + 1]), float(dt),
                         threshold, cfg.value_floor)
        tags[i + 1] = state.blocked
        counters[i + 1] = state.transitions
    return tags, counters


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

"""IMU pre-integration between VLP epochs, in the VLP frame.

Raw accelerometer/gyroscope samples between two epochs are compressed
into a relative-motion pseudo-measurement (alpha, beta, gamma): the
frame-relative position, velocity and rotation increments obtained by
integrating bias-corrected samples from the epoch-start frame, gravity
excluded.  Samples are rotated from the IMU body frame into the VLP
frame by the fixed mounting DCM before integration, so biases are also
expressed (and estimated) in the VLP frame.

The 15x15 covariance of the pseudo-measurement error
``[d_alpha, d_beta, d_theta, d_ba, d_bg]`` is propagated step by step
with the first-order discrete transition ``F_i`` (attitude block
``I - [w_i]x dt_i``), driven by white accelerometer/gyroscope noise and
random-walk bias noise through ``G_i``.  First-order bias Jacobians
``J = F_{n-1} ... F_0`` are accumulated alongside so the optimizer can
correct (alpha, beta, gamma) for small bias updates; the estimator
re-integrates a factor whose bias moved past ``BIAS_CORRECTION_WARN_*``.

:func:`preintegrate` works on arrays over the interval.  Every
per-sample quantity is built in one numpy pass: the bias-removed VLP-
frame samples, the rotations ``R_i`` of the running attitude,
``R_i [a_i]x``, and the stacks of ``F_i``, ``G_i`` and the noise inputs
``Q_i = G_i diag(sig) / dt_i G_i^T``.  Three recursions stay sequential
because each step needs the last: the attitude chain (on Python floats,
renormalized as :func:`quat_multiply` does), ``cov <- F_i cov F_i^T + Q_i``
with ``J <- F_i J`` (one matrix product per step over the prebuilt
stacks), and alpha/beta (cumulative sums in the loop's order).  The
result equals the per-sample loop bit for bit.

Gravity convention: every function takes the free-fall acceleration
vector (e.g. ``[0, 0, -9.80665]`` in a z-up room frame).  A stationary,
level IMU measures the reaction ``-gravity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .attitude import (
    quat_conjugate,
    quat_conjugate_batch,
    quat_exp,
    quat_exp_batch,
    quat_left_batch,
    quat_multiply,
    quat_multiply_batch,
    quat_right_batch,
    quat_to_dcm,
    quat_to_dcm_batch,
    skew_batch,
    so3_right_jacobian_batch,
)
from .state import NavState, StateArrays

#: Bias moves past which the first-order correction is replaced by re-integration.
BIAS_CORRECTION_WARN_ACC = 0.1  # m/s^2
BIAS_CORRECTION_WARN_GYRO = 0.05  # rad/s


@dataclass(frozen=True)
class ImuNoise:
    """Continuous-time IMU noise densities (SI, per sqrt(Hz))."""

    accel_density: float  # m/s^2/sqrt(Hz)
    gyro_density: float  # rad/s/sqrt(Hz)
    accel_bias_walk: float  # m/s^3/sqrt(Hz)
    gyro_bias_walk: float  # rad/s^2/sqrt(Hz)

    def __post_init__(self):
        for name in ("accel_density", "gyro_density", "accel_bias_walk", "gyro_bias_walk"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ImuStream:
    """Time-ordered IMU samples: body-frame specific force and angular rate."""

    timestamps: np.ndarray  # (N,) seconds
    accel: np.ndarray  # (N, 3) m/s^2
    gyro: np.ndarray  # (N, 3) rad/s

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        a = np.asarray(self.accel, dtype=float)
        g = np.asarray(self.gyro, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("IMU stream must contain at least one sample")
        if a.shape != (t.size, 3) or g.shape != (t.size, 3):
            raise ValueError("accel and gyro must be (N, 3) arrays matching timestamps")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise ValueError("IMU timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "accel", a)
        object.__setattr__(self, "gyro", g)

    def slice(self, t_start: float, t_end: float) -> "ImuStream":
        mask = (self.timestamps >= t_start) & (self.timestamps < t_end)
        if not mask.any():
            raise ValueError(f"no IMU samples in [{t_start}, {t_end})")
        return ImuStream(self.timestamps[mask], self.accel[mask], self.gyro[mask])


@dataclass
class PreintegratedImu:
    """Relative-motion pseudo-measurement between two epochs.

    ``alpha`` (m), ``beta`` (m/s) and ``gamma`` (quaternion) are the
    gravity-free increments in the epoch-start VLP frame; ``cov`` is the
    15x15 error covariance; the ``d_*`` blocks are first-order
    sensitivities to the bias linearization point.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    cov: np.ndarray
    dt: float
    bias_acc: np.ndarray  # linearization point, VLP frame
    bias_gyro: np.ndarray
    d_alpha_d_ba: np.ndarray
    d_alpha_d_bg: np.ndarray
    d_beta_d_ba: np.ndarray
    d_beta_d_bg: np.ndarray
    d_gamma_d_bg: np.ndarray
    #: What re-integration at another bias needs: the interval's samples
    #: and its end time.
    stream: ImuStream | None = field(default=None, repr=False)
    t_end: float | None = None

    @cached_property
    def information(self) -> np.ndarray:
        """Inverse of ``cov``, computed on first use and kept with the factor."""
        M = 0.5 * (self.cov + self.cov.T)
        jitter = 1e-14 * max(np.trace(M) / M.shape[0], 1e-30)
        return np.linalg.inv(M + jitter * np.eye(M.shape[0]))


#: Fields of :class:`PreintegratedImu` that :class:`PreintegratedStack` stacks.
_STACKED = ("alpha", "beta", "gamma", "dt", "bias_acc", "bias_gyro", "d_alpha_d_ba",
            "d_alpha_d_bg", "d_beta_d_ba", "d_beta_d_bg", "d_gamma_d_bg", "information")


@dataclass(frozen=True)
class PreintegratedStack:
    """K pre-integrated intervals, each field stacked on a leading axis."""

    alpha: np.ndarray  # (K, 3)
    beta: np.ndarray
    gamma: np.ndarray  # (K, 4)
    dt: np.ndarray  # (K,)
    bias_acc: np.ndarray
    bias_gyro: np.ndarray
    d_alpha_d_ba: np.ndarray  # (K, 3, 3)
    d_alpha_d_bg: np.ndarray
    d_beta_d_ba: np.ndarray
    d_beta_d_bg: np.ndarray
    d_gamma_d_bg: np.ndarray
    information: np.ndarray  # (K, 15, 15)

    @classmethod
    def of(cls, pres) -> "PreintegratedStack":
        return cls(*(np.array([getattr(p, name) for p in pres]) for name in _STACKED))


def _attitude_chain(half_angle: np.ndarray) -> np.ndarray:
    """(n + 1, 4) running products ``q_{i+1} = q_i (x) [1, half_angle_i]`` from identity.

    Each step is :func:`quat_multiply` on Python floats: the same products
    and sums, and the same renormalization (``ndarray.dot``, as
    ``np.linalg.norm`` takes it), so every quaternion matches bit for bit.
    """
    w1, x1, y1, z1 = 1.0, 0.0, 0.0, 0.0
    out = [(w1, x1, y1, z1)]
    buf = np.empty(4)
    for x2, y2, z2 in half_angle.tolist():
        buf[0] = w = w1 - x1 * x2 - y1 * y2 - z1 * z2
        buf[1] = x = w1 * x2 + x1 + y1 * z2 - z1 * y2
        buf[2] = y = w1 * y2 - x1 * z2 + y1 + z1 * x2
        buf[3] = z = w1 * z2 + x1 * y2 - y1 * x2 + z1
        norm = math.sqrt(buf.dot(buf))
        w1, x1, y1, z1 = w / norm, x / norm, y / norm, z / norm
        out.append((w1, x1, y1, z1))
    return np.array(out)


def preintegrate(stream: ImuStream, bias_acc, bias_gyro, dcm_body_to_vlp,
                 noise: ImuNoise, t_end: float | None = None) -> PreintegratedImu:
    """Integrate one epoch interval of IMU samples.

    Each sample integrates over the gap to the next timestamp; the last
    sample integrates to ``t_end`` (default: the mean sample spacing past
    the final timestamp).  Biases are VLP-frame.
    """
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

    a = stream.accel @ R_bv.T - bias_acc
    w = stream.gyro @ R_bv.T - bias_gyro
    gammas = _attitude_chain(0.5 * w * dts[:, None])
    R = quat_to_dcm_batch(gammas[:-1])  # attitude at the start of each sample
    Ra = R @ skew_batch(a)
    Ra_vec = _mv(R, a)

    dt = dts[:, None, None]
    dt2 = dt**2
    eye = np.eye(3)
    F = np.tile(np.eye(15), (n, 1, 1))
    F[:, 0:3, 3:6] = eye * dt
    F[:, 0:3, 6:9] = -0.5 * Ra * dt2
    F[:, 0:3, 9:12] = 0.5 * R * dt2
    F[:, 3:6, 6:9] = -Ra * dt
    F[:, 3:6, 9:12] = R * dt
    F[:, 6:9, 6:9] = eye - skew_batch(w) * dt
    F[:, 6:9, 12:15] = eye * dt

    G = np.zeros((n, 15, 12))
    G[:, 0:3, 0:3] = 0.5 * R * dt2
    G[:, 3:6, 0:3] = R * dt
    G[:, 6:9, 3:6] = eye * dt
    G[:, 9:12, 6:9] = eye * dt
    G[:, 12:15, 9:12] = eye * dt
    sig = np.repeat(
        [noise.accel_density**2, noise.gyro_density**2,
         noise.accel_bias_walk**2, noise.gyro_bias_walk**2], 3)
    Q = (G * (sig / dt)) @ np.swapaxes(G, 1, 2)  # G diag(sig) / dt G^T

    cov = np.zeros((15, 15))
    J = np.eye(15)
    for F_i, Q_i in zip(F, Q):
        cov = F_i @ cov @ F_i.T + Q_i
        J = F_i @ J

    # alpha_{i+1} = (alpha_i + beta_i dt_i) + R_i a_i dt_i^2 / 2 and
    # beta_{i+1} = beta_i + R_i a_i dt_i, summed in that order.
    beta = np.cumsum(Ra_vec * dts[:, None], axis=0)
    beta_before = np.concatenate([np.zeros((1, 3)), beta[:-1]])
    terms = np.stack([beta_before * dts[:, None], 0.5 * Ra_vec * dt2[:, :, 0]], axis=1)
    alpha = np.cumsum(terms.reshape(2 * n, 3), axis=0)[-1]

    # F propagates errors of the integrated quantities for a *true* bias
    # offset; corrections for a raised *assumed* bias carry the opposite sign.
    return PreintegratedImu(
        alpha=alpha,
        beta=beta[-1],
        gamma=gammas[-1],
        cov=0.5 * (cov + cov.T),
        dt=float(np.sum(dts)),
        bias_acc=bias_acc.copy(),
        bias_gyro=bias_gyro.copy(),
        d_alpha_d_ba=-J[0:3, 9:12],
        d_alpha_d_bg=-J[0:3, 12:15],
        d_beta_d_ba=-J[3:6, 9:12],
        d_beta_d_bg=-J[3:6, 12:15],
        d_gamma_d_bg=-J[6:9, 12:15],
        stream=stream,
        t_end=float(t_end),
    )


def _corrected_terms(pre: PreintegratedImu, bias_acc, bias_gyro):
    """First-order (alpha, beta, gamma) at a bias away from the linearization."""
    dba = np.asarray(bias_acc, dtype=float) - pre.bias_acc
    dbg = np.asarray(bias_gyro, dtype=float) - pre.bias_gyro
    alpha = pre.alpha + pre.d_alpha_d_ba @ dba + pre.d_alpha_d_bg @ dbg
    beta = pre.beta + pre.d_beta_d_ba @ dba + pre.d_beta_d_bg @ dbg
    gamma = quat_multiply(pre.gamma, quat_exp(pre.d_gamma_d_bg @ dbg))
    return alpha, beta, gamma, dba, dbg


def imu_residual(pre: PreintegratedImu, x_k: NavState, x_k1: NavState, gravity) -> np.ndarray:
    """15-dim pre-integration residual between two states.

    Blocks: relative-position, relative-velocity, attitude (twice the
    vector part of the quaternion mismatch), and the two bias
    random-walk differences.  Zero when the states were produced by
    integrating the same noiseless IMU stream at the linearization bias.
    """
    g = np.asarray(gravity, dtype=float)
    dt = pre.dt
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


def _mv(A, x):
    """Row-wise products of a (K, n, m) matrix stack and a (K, m) vector stack."""
    return (A @ x[:, :, None])[:, :, 0]


def imu_residuals_batch(pres: PreintegratedStack, x_k: StateArrays, x_k1: StateArrays, gravity):
    """:func:`imu_residual` and its Jacobians of K factors at once.

    Factor ``k`` joins ``x_k[k]`` to ``x_k1[k]``.  Returns ``(r, Jk, Jk1)``:
    (K, 15) residuals and (K, 15, 15) Jacobians.
    """
    g = np.asarray(gravity, dtype=float)
    dt = pres.dt[:, None]
    dba = x_k.bias_acc - pres.bias_acc
    dbg = x_k.bias_gyro - pres.bias_gyro
    alpha = pres.alpha + _mv(pres.d_alpha_d_ba, dba) + _mv(pres.d_alpha_d_bg, dbg)
    beta = pres.beta + _mv(pres.d_beta_d_ba, dba) + _mv(pres.d_beta_d_bg, dbg)
    phi0 = _mv(pres.d_gamma_d_bg, dbg)
    gamma_c = quat_multiply_batch(pres.gamma, quat_exp_batch(phi0))
    R_ku = np.swapaxes(quat_to_dcm_batch(x_k.attitude), 1, 2)
    dp = x_k1.position - x_k.position - 0.5 * g * dt**2 - x_k.velocity * dt
    dv = x_k1.velocity - g * dt - x_k.velocity
    q_rel = quat_multiply_batch(quat_conjugate_batch(x_k.attitude), x_k1.attitude)
    q_err = quat_multiply_batch(q_rel, quat_conjugate_batch(gamma_c))
    sign = np.where(q_err[:, 0] < 0.0, -1.0, 1.0)[:, None, None]

    n = dt.shape[0]
    r = np.empty((n, 15))
    r[:, 0:3] = _mv(R_ku, dp) - alpha
    r[:, 3:6] = _mv(R_ku, dv) - beta
    r[:, 6:9] = 2.0 * (sign[:, 0] * q_err[:, 1:])
    r[:, 9:12] = x_k1.bias_acc - x_k.bias_acc
    r[:, 12:15] = x_k1.bias_gyro - x_k.bias_gyro

    Jk = np.zeros((n, 15, 15))
    Jk1 = np.zeros((n, 15, 15))
    Jk[:, 0:3, 0:3] = -R_ku
    Jk[:, 0:3, 3:6] = -R_ku * dt[:, :, None]
    Jk[:, 0:3, 6:9] = skew_batch(_mv(R_ku, dp))
    Jk[:, 0:3, 9:12] = -pres.d_alpha_d_ba
    Jk[:, 0:3, 12:15] = -pres.d_alpha_d_bg
    Jk1[:, 0:3, 0:3] = R_ku

    Jk[:, 3:6, 3:6] = -R_ku
    Jk[:, 3:6, 6:9] = skew_batch(_mv(R_ku, dv))
    Jk[:, 3:6, 9:12] = -pres.d_beta_d_ba
    Jk[:, 3:6, 12:15] = -pres.d_beta_d_bg
    Jk1[:, 3:6, 3:6] = R_ku

    rel_gc = (quat_left_batch(q_rel)
              @ quat_right_batch(quat_conjugate_batch(gamma_c)))[:, 1:4, 1:4]
    Jk[:, 6:9, 6:9] = -sign * quat_right_batch(q_err)[:, 1:4, 1:4]
    Jk1[:, 6:9, 6:9] = sign * rel_gc
    Jk[:, 6:9, 12:15] = -sign * rel_gc @ (so3_right_jacobian_batch(phi0) @ pres.d_gamma_d_bg)

    eye = np.eye(3)
    Jk[:, 9:12, 9:12] = -eye
    Jk1[:, 9:12, 9:12] = eye
    Jk[:, 12:15, 12:15] = -eye
    Jk1[:, 12:15, 12:15] = eye
    return r, Jk, Jk1


def mechanize(pre: PreintegratedImu, x_k: NavState, gravity, timestamp: float) -> NavState:
    """Dead-reckon the next state from a pre-integrated interval."""
    g = np.asarray(gravity, dtype=float)
    dt = pre.dt
    alpha, beta, gamma, _, _ = _corrected_terms(pre, x_k.bias_acc, x_k.bias_gyro)
    R_k = quat_to_dcm(x_k.attitude)
    return NavState(
        timestamp=timestamp,
        position=x_k.position + x_k.velocity * dt + 0.5 * g * dt**2 + R_k @ alpha,
        velocity=x_k.velocity + g * dt + R_k @ beta,
        attitude=quat_multiply(x_k.attitude, gamma),
        bias_acc=x_k.bias_acc.copy(),
        bias_gyro=x_k.bias_gyro.copy(),
    )

"""IMU pre-integration between VLP epochs, in the VLP frame.

Raw accelerometer/gyroscope samples between two epochs are compressed
into a relative-motion pseudo-measurement (alpha, beta, gamma): the
frame-relative position, velocity and rotation increments obtained by
integrating bias-corrected samples from the epoch-start frame, gravity
excluded.  Samples are rotated from the IMU body frame into the VLP
frame by the fixed mounting DCM before integration, so biases are also
expressed (and estimated) in the VLP frame.

The 15x15 covariance of the pseudo-measurement error
``[d_alpha, d_beta, d_theta, d_ba, d_bg]`` is that of the first-order
discrete error propagation ``e_{i+1} = F_i e_i + G_i n_i`` (attitude
block of ``F_i`` is ``I - [w_i]x dt_i``), driven by white accelerometer/
gyroscope noise and random-walk bias noise of variance ``sig / dt_i``.
Unrolled, it is the sum ``cov = sum_i Phi_i G_i diag(sig / dt_i) G_i^T
Phi_i^T`` over the samples, with ``Phi_i = F_{n-1} ... F_{i+1}`` carrying
sample ``i``'s noise to the interval's end; the first-order bias
Jacobian is ``J = Phi_0 F_0`` (Forster et al., "On-Manifold
Preintegration for Real-Time Visual-Inertial Odometry", T-RO 2017).
The optimizer corrects (alpha, beta, gamma) for small bias updates with
``J``; :func:`imu_residuals_batch` and :func:`mechanize` share one
batched first-order correction.  The estimator re-integrates a factor
whose bias moved past ``BIAS_CORRECTION_WARN_*``.

:func:`preintegrate` works on arrays over the interval.  Every
per-sample quantity is built in one numpy pass: the bias-removed VLP-
frame samples, the rotations ``R_i`` of the running attitude,
``R_i [a_i]x``, and the stacks of ``F_i`` and of the scaled noise inputs
``G_i diag(sig / dt_i)^(1/2)``.  Two recursions stay sequential because
each step needs the last: the attitude chain (:func:`quat_chain`, equal
to the per-sample quaternion products bit for bit) and the suffix
products ``Phi_{i-1} = Phi_i F_i``, one 15x15 product per sample into a
preallocated stack.  Then one batched product gives every ``Phi_i G_i
diag(sig / dt_i)^(1/2)``, and the covariance is that (15, 12n) matrix
times its transpose; alpha and beta are cumulative sums in the
per-sample loop's order, and equal it bit for bit.  The covariance sums
its terms in another order than a per-sample ``cov <- F cov F^T + Q``
loop, and agrees with it to about 1e-14 of its largest entry.

Gravity convention: every function takes the free-fall acceleration
vector (e.g. ``[0, 0, -9.80665]`` in a z-up room frame).  A stationary,
level IMU measures the reaction ``-gravity``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .attitude import (
    quat_chain,
    quat_conjugate,
    quat_exp,
    quat_identity,
    quat_left,
    quat_multiply,
    quat_right,
    quat_to_dcm,
    skew,
    so3_right_jacobian,
)
from .state import StateArrays

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


@dataclass(frozen=True)
class PreintegratedStack:
    """Relative-motion pseudo-measurements of K epoch intervals, each field
    stacked on a leading axis; ``stack[k]`` is interval ``k``, the same
    fields with that axis dropped.

    ``alpha`` (m), ``beta`` (m/s) and ``gamma`` (quaternion) are the
    gravity-free increments in the epoch-start VLP frame; ``cov`` is the
    15x15 error covariance and ``information`` its inverse, computed when
    the interval is integrated; ``bias_jac`` (``-J[0:9, 9:15]`` of the
    bias Jacobian ``J``) is the first-order sensitivity of the position,
    velocity and rotation increments to the biases, about the
    linearization point ``bias_acc`` and ``bias_gyro``.  ``stream`` (the
    interval's :class:`ImuStream`) and ``t_end`` are what re-integration
    at another bias needs.
    """

    alpha: np.ndarray  # (K, 3)
    beta: np.ndarray
    gamma: np.ndarray  # (K, 4)
    cov: np.ndarray  # (K, 15, 15)
    dt: np.ndarray  # (K,)
    bias_acc: np.ndarray  # (K, 3), VLP frame
    bias_gyro: np.ndarray
    bias_jac: np.ndarray  # (K, 9, 6)
    information: np.ndarray  # (K, 15, 15)
    stream: np.ndarray  # (K,) ImuStream objects
    t_end: np.ndarray  # (K,)

    @classmethod
    def empty(cls) -> "PreintegratedStack":
        z = np.zeros
        return cls(z((0, 3)), z((0, 3)), z((0, 4)), z((0, 15, 15)), z(0), z((0, 3)), z((0, 3)),
                   z((0, 9, 6)), z((0, 15, 15)), np.empty(0, object), z(0))

    def __len__(self) -> int:
        return len(self.dt)

    def __getitem__(self, rows) -> "PreintegratedStack":
        return PreintegratedStack(*(getattr(self, f.name)[rows] for f in fields(self)))

    def append(self, other: "PreintegratedStack") -> "PreintegratedStack":
        """These intervals, then ``other``'s."""
        return PreintegratedStack(*(np.concatenate([getattr(self, f.name), getattr(other, f.name)])
                                    for f in fields(self)))


def preintegrate(stream: ImuStream, bias_acc, bias_gyro, dcm_body_to_vlp,
                 noise: ImuNoise, *, t_end: float) -> PreintegratedStack:
    """Integrate one epoch interval of IMU samples into a one-row stack.

    Each sample integrates over the gap to the next timestamp; the last
    sample integrates to ``t_end``.  Biases are VLP-frame.
    """
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

    a = stream.accel @ R_bv.T - bias_acc
    w = stream.gyro @ R_bv.T - bias_gyro
    gammas = quat_chain(quat_identity(), 0.5 * w * dts[:, None])
    R = quat_to_dcm(gammas[:-1])  # attitude at the start of each sample
    Ra = R @ skew(a)
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
    F[:, 6:9, 6:9] = eye - skew(w) * dt
    F[:, 6:9, 12:15] = eye * dt

    # Noise inputs G_i diag(sig / dt_i)^(1/2): sample i adds their outer
    # product to the covariance.
    root = np.sqrt(np.repeat(
        [noise.accel_density**2, noise.gyro_density**2,
         noise.accel_bias_walk**2, noise.gyro_bias_walk**2], 3) / dt)
    G = np.zeros((n, 15, 12))
    G[:, 0:3, 0:3] = 0.5 * R * dt2
    G[:, 3:6, 0:3] = R * dt
    G[:, 6:9, 3:6] = eye * dt
    G[:, 9:12, 6:9] = eye * dt
    G[:, 12:15, 9:12] = eye * dt
    G *= root

    # Suffix products Phi_i = F_{n-1} ... F_{i+1}, which carry sample i's
    # noise to the interval's end: cov = sum_i Phi_i G_i G_i^T Phi_i^T.
    Phi = np.empty((n, 15, 15))
    Phi[-1] = np.eye(15)
    P, Fs = list(Phi), list(F)  # row views: one product per sample, in place
    for i in range(n - 1, 0, -1):
        P[i].dot(Fs[i], out=P[i - 1])
    M = np.matmul(Phi, G).transpose(1, 0, 2).reshape(15, 12 * n)
    cov = M @ M.T
    J = Phi[0] @ F[0]

    # alpha_{i+1} = (alpha_i + beta_i dt_i) + R_i a_i dt_i^2 / 2 and
    # beta_{i+1} = beta_i + R_i a_i dt_i, summed in that order.
    beta = np.cumsum(Ra_vec * dts[:, None], axis=0)
    beta_before = np.concatenate([np.zeros((1, 3)), beta[:-1]])
    terms = np.stack([beta_before * dts[:, None], 0.5 * Ra_vec * dt2[:, :, 0]], axis=1)
    alpha = np.cumsum(terms.reshape(2 * n, 3), axis=0)[-1]

    # F propagates errors of the integrated quantities for a *true* bias
    # offset; corrections for a raised *assumed* bias carry the opposite sign.
    # The symmetrized cov is its own symmetric part, bit for bit.
    cov = 0.5 * (cov + cov.T)
    jitter = 1e-14 * max(np.trace(cov) / 15, 1e-30)
    streams = np.empty(1, object)
    streams[0] = stream
    return PreintegratedStack(
        *(np.array([v]) for v in (
            alpha, beta[-1], gammas[-1], cov, float(np.sum(dts)), bias_acc, bias_gyro,
            -J[0:9, 9:15], np.linalg.inv(cov + jitter * np.eye(15)))),
        stream=streams, t_end=np.array([float(t_end)]))


def _mv(A, x):
    """Row-wise products of a (K, n, m) matrix stack and a (K, m) vector stack."""
    return (A @ x[:, :, None])[:, :, 0]


def _corrected(pres: PreintegratedStack, bias_acc, bias_gyro):
    """First-order ``(alpha, beta, gamma, phi)`` of K intervals at the
    (K, 3) biases ``bias_acc`` and ``bias_gyro`` away from their
    linearization; ``phi`` (K, 3) is the rotation correction, ``gamma =
    pres.gamma exp(phi)``."""
    dba = bias_acc - pres.bias_acc
    dbg = bias_gyro - pres.bias_gyro
    Jb = pres.bias_jac
    alpha = pres.alpha + _mv(Jb[:, 0:3, 0:3], dba) + _mv(Jb[:, 0:3, 3:6], dbg)
    beta = pres.beta + _mv(Jb[:, 3:6, 0:3], dba) + _mv(Jb[:, 3:6, 3:6], dbg)
    phi = _mv(Jb[:, 6:9, 3:6], dbg)
    return alpha, beta, quat_multiply(pres.gamma, quat_exp(phi)), phi


def imu_residuals_batch(pres: PreintegratedStack, x_k: StateArrays, x_k1: StateArrays, gravity,
                        R_k):
    """15-dim pre-integration residuals of K factors, and their Jacobians.

    Factor ``k`` joins ``x_k[k]`` to ``x_k1[k]``; ``R_k`` (K, 3, 3) holds
    ``quat_to_dcm(x_k.attitude)``.  Blocks: relative position, relative
    velocity, attitude (twice the vector part of the quaternion mismatch)
    and the two bias random-walk differences; zero when the states were
    produced by integrating the same noiseless IMU stream at the
    linearization bias.  Returns ``(r, Jk, Jk1)``: (K, 15) residuals and
    (K, 15, 15) Jacobians.
    """
    g = np.asarray(gravity, dtype=float)
    dt = pres.dt[:, None]
    alpha, beta, gamma_c, phi0 = _corrected(pres, x_k.bias_acc, x_k.bias_gyro)
    R_ku = np.swapaxes(R_k, 1, 2)
    dp = x_k1.position - x_k.position - 0.5 * g * dt**2 - x_k.velocity * dt
    dv = x_k1.velocity - g * dt - x_k.velocity
    q_rel = quat_multiply(quat_conjugate(x_k.attitude), x_k1.attitude)
    q_err = quat_multiply(q_rel, quat_conjugate(gamma_c))
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
    Jk[:, 0:3, 6:9] = skew(_mv(R_ku, dp))
    Jk1[:, 0:3, 0:3] = R_ku

    Jk[:, 3:6, 3:6] = -R_ku
    Jk[:, 3:6, 6:9] = skew(_mv(R_ku, dv))
    Jk[:, 0:6, 9:15] = -pres.bias_jac[:, 0:6]
    Jk1[:, 3:6, 3:6] = R_ku

    rel_gc = (quat_left(q_rel)
              @ quat_right(quat_conjugate(gamma_c)))[:, 1:4, 1:4]
    Jk[:, 6:9, 6:9] = -sign * quat_right(q_err)[:, 1:4, 1:4]
    Jk1[:, 6:9, 6:9] = sign * rel_gc
    Jk[:, 6:9, 12:15] = -sign * rel_gc @ (so3_right_jacobian(phi0) @ pres.bias_jac[:, 6:9, 3:6])

    eye = np.eye(3)
    Jk[:, 9:12, 9:12] = -eye
    Jk1[:, 9:12, 9:12] = eye
    Jk[:, 12:15, 12:15] = -eye
    Jk1[:, 12:15, 12:15] = eye
    return r, Jk, Jk1


def mechanize(pres: PreintegratedStack, x_k: StateArrays, gravity,
              timestamps) -> StateArrays:
    """Dead-reckon K next states, at ``timestamps`` (K,), each from its
    row of ``x_k`` through its interval of ``pres``."""
    g = np.asarray(gravity, dtype=float)
    dt = pres.dt[:, None]
    alpha, beta, gamma, _ = _corrected(pres, x_k.bias_acc, x_k.bias_gyro)
    R_k = quat_to_dcm(x_k.attitude)
    return StateArrays(np.asarray(timestamps, dtype=float),
                       x_k.position + x_k.velocity * dt + 0.5 * g * dt**2 + _mv(R_k, alpha),
                       x_k.velocity + g * dt + _mv(R_k, beta),
                       quat_multiply(x_k.attitude, gamma), x_k.bias_acc, x_k.bias_gyro)

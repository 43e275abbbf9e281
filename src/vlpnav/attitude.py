"""Quaternion and direction-cosine-matrix algebra.

Conventions used throughout the package:

* Quaternions are Hamilton, stored as ``[w, x, y, z]`` numpy arrays.
* ``q`` encoding the attitude of frame ``v`` relative to frame ``u``
  rotates v-frame vectors into the u-frame: ``x_u = quat_to_dcm(q) @ x_v``.
* Attitude errors are local (right) perturbations applied in the child
  frame: ``q <- q ⊗ [1, dphi / 2]``.  The equivalent parent-frame angle
  is ``dphi_u = -dcm(q) @ dphi``.
* Euler angles are intrinsic z-y-x (yaw, pitch, roll):
  ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``.

Shapes: each map takes one quaternion ``(4,)`` or vector ``(3,)``, or a
``(K, 4)`` / ``(K, 3)`` stack, and returns one value or a stack of ``K``
(matrices as ``(K, 3, 3)`` / ``(K, 4, 4)``).  Every row of a stack is
rounded as a one-value call rounds it.  :func:`quat_log` takes one
quaternion only.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

#: Tolerance on the unit-norm invariant for quaternions entering dcm
#: conversions; inputs further from unit norm raise.
QUAT_NORM_TOL = 1e-6


class InvalidQuaternionError(ValueError):
    """Raised when a quaternion argument is too far from unit norm."""


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms over the last axis, each rounded as ``np.linalg.norm`` rounds a
    single vector."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def quat_normalize(q) -> np.ndarray:
    """Scale ``q`` to unit norm. Preserves sign (no canonicalization)."""
    q = np.asarray(q, dtype=float)
    n = _norms(q)
    if np.any(n < 1e-12):
        raise InvalidQuaternionError("cannot normalize a near-zero quaternion")
    return q / n[..., None]


def quat_conjugate(q) -> np.ndarray:
    return np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product ``a ⊗ b``, renormalized."""
    w1, x1, y1, z1 = np.asarray(a, dtype=float).T
    w2, x2, y2, z2 = np.asarray(b, dtype=float).T
    out = np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )
    return quat_normalize(out)


def quat_to_dcm(q) -> np.ndarray:
    """Rotation matrix of unit ``q``; column j is the image of child axis j.

    The result maps child-frame (v) vectors into the parent frame (u).
    """
    q = np.asarray(q, dtype=float)
    norm_err = np.abs(_norms(q) - 1.0)
    if np.any(norm_err > QUAT_NORM_TOL):
        raise InvalidQuaternionError(
            f"quaternion norm deviates {np.max(norm_err):.3g} from 1, more than {QUAT_NORM_TOL}")
    w, x, y, z = q.T
    return np.stack(
        [
            w * w + x * x - y * y - z * z, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
            2.0 * (x * y + w * z), w * w - x * x + y * y - z * z, 2.0 * (y * z - w * x),
            2.0 * (x * z - w * y), 2.0 * (y * z + w * x), w * w - x * x - y * y + z * z,
        ],
        axis=-1,
    ).reshape(q.shape[:-1] + (3, 3))


def apply_small_angle(q, dphi) -> np.ndarray:
    """Right-perturb ``q`` by the small rotation vector ``dphi`` (rad).

    Returns ``q ⊗ [1, dphi / 2]`` normalized.  Accurate to third order in
    ``|dphi|``; use :func:`quat_exp` for large angles.
    """
    dphi = np.asarray(dphi, dtype=float)
    dq = np.concatenate([np.ones(dphi.shape[:-1] + (1,)), 0.5 * dphi], axis=-1)
    return quat_multiply(q, dq)


def quat_exp(phi) -> np.ndarray:
    """Exact axis-angle exponential: rotation vector ``phi`` to quaternion."""
    phi = np.asarray(phi, dtype=float)
    angle = _norms(phi)
    small = angle < 1e-12
    half = 0.5 * angle
    with np.errstate(divide="ignore", invalid="ignore"):
        vec = np.where(small[..., None], 0.5 * phi,
                       np.sin(half)[..., None] * (phi / angle[..., None]))
    out = np.concatenate([np.where(small, 1.0, np.cos(half))[..., None], vec], axis=-1)
    out[small] /= _norms(out[small])[..., None]
    return out


def quat_log(q) -> np.ndarray:
    """Rotation vector of ``q`` (inverse of :func:`quat_exp`), in (-pi, pi]."""
    q = quat_normalize(q)
    if q[0] < 0.0:
        q = -q
    vec = q[1:]
    sin_half = np.linalg.norm(vec)
    if sin_half < 1e-12:
        return 2.0 * vec
    half = np.arctan2(sin_half, q[0])
    return (2.0 * half / sin_half) * vec


def skew(v) -> np.ndarray:
    """Antisymmetric matrix with ``skew(v) @ w == cross(v, w)``."""
    v = np.asarray(v, dtype=float)
    x, y, z = v.T
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero],
                    axis=-1).reshape(v.shape[:-1] + (3, 3))


#: Entries of the left- and right-product matrices, row by row: component
#: ``_PRODUCT_INDEX`` of the quaternion times the matrix's sign.
_PRODUCT_INDEX = np.array([0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0])
_LEFT_SIGN = np.array([1, -1, -1, -1, 1, 1, -1, 1, 1, 1, 1, -1, 1, -1, 1, 1], dtype=float)
_RIGHT_SIGN = np.array([1, -1, -1, -1, 1, 1, 1, -1, 1, -1, 1, 1, 1, 1, -1, 1], dtype=float)


def quat_left(q) -> np.ndarray:
    """Left-product matrix: ``quat_left(a) @ b`` is ``a ⊗ b``, unnormalized."""
    q = np.asarray(q, dtype=float)
    return (q[..., _PRODUCT_INDEX] * _LEFT_SIGN).reshape(q.shape[:-1] + (4, 4))


def quat_right(q) -> np.ndarray:
    """Right-product matrix: ``quat_right(b) @ a`` is ``a ⊗ b``, unnormalized."""
    q = np.asarray(q, dtype=float)
    return (q[..., _PRODUCT_INDEX] * _RIGHT_SIGN).reshape(q.shape[:-1] + (4, 4))


def so3_right_jacobian(phi) -> np.ndarray:
    """Right Jacobian of SO(3): ``exp(phi + d) ≈ exp(phi) ⊗ exp(J_r(phi) d)``."""
    phi = np.asarray(phi, dtype=float)
    angle = _norms(phi)
    S = skew(phi)
    SS = S @ S
    small = angle < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(small, 0.5, (1.0 - np.cos(angle)) / angle**2)
        b = np.where(small, 1.0 / 6.0, (angle - np.sin(angle)) / angle**3)
    return np.eye(3) - a[..., None, None] * S + b[..., None, None] * SS


def euler_from_quat(q) -> np.ndarray:
    """Roll, pitch, yaw in radians, z-y-x convention, in the last axis."""
    R = quat_to_dcm(q)
    return np.stack([
        np.arctan2(R[..., 2, 1], R[..., 2, 2]),
        -np.arcsin(np.clip(R[..., 2, 0], -1.0, 1.0)),
        np.arctan2(R[..., 1, 0], R[..., 0, 0]),
    ], axis=-1)


def quat_from_euler(roll, pitch, yaw) -> np.ndarray:
    """Quaternion of intrinsic z-y-x Euler angles (radians); (N,) angles give (N, 4)."""
    cr, sr = np.cos(0.5 * roll), np.sin(0.5 * roll)
    cp, sp = np.cos(0.5 * pitch), np.sin(0.5 * pitch)
    cy, sy = np.cos(0.5 * yaw), np.sin(0.5 * yaw)
    return np.stack(
        [
            cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr,
        ],
        axis=-1,
    )


def quat_chain(q0, half_angle) -> np.ndarray:
    """(n + 1, 4) strapdown chain ``q_{i+1} = q_i (x) [1, half_angle_i]`` from ``q0``.

    Each step is :func:`quat_multiply` on Python floats: the same products
    and sums, and the same renormalization (``ndarray.dot``, rounded as
    :func:`quat_normalize`'s norm), so every quaternion matches bit for bit.
    The input is read through a flat iterator and the chain collected in
    an ``array('d')``, 8 bytes per value, not as Python tuples.
    """
    w1, x1, y1, z1 = np.asarray(q0, dtype=float).tolist()
    out = array("d", (w1, x1, y1, z1))
    buf = np.empty(4)
    it = iter(memoryview(np.ascontiguousarray(half_angle, dtype=float).ravel()))
    for x2, y2, z2 in zip(it, it, it):
        buf[0] = w = w1 - x1 * x2 - y1 * y2 - z1 * z2
        buf[1] = x = w1 * x2 + x1 + y1 * z2 - z1 * y2
        buf[2] = y = w1 * y2 - x1 * z2 + y1 + z1 * x2
        buf[3] = z = w1 * z2 + x1 * y2 - y1 * x2 + z1
        norm = math.sqrt(buf.dot(buf))
        w1, x1, y1, z1 = w / norm, x / norm, y / norm, z / norm
        out.extend((w1, x1, y1, z1))
    return np.frombuffer(out).reshape(-1, 4)

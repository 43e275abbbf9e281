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


def quat_normalize(q) -> np.ndarray:
    """Scale ``q`` to unit norm. Preserves sign (no canonicalization)."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise InvalidQuaternionError("cannot normalize a near-zero quaternion")
    return q / n


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product ``a ⊗ b``, renormalized."""
    w1, x1, y1, z1 = np.asarray(a, dtype=float)
    w2, x2, y2, z2 = np.asarray(b, dtype=float)
    out = np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )
    return quat_normalize(out)


def _check_unit(q: np.ndarray) -> np.ndarray:
    if abs(np.linalg.norm(q) - 1.0) > QUAT_NORM_TOL:
        raise InvalidQuaternionError(
            f"quaternion norm {np.linalg.norm(q):.9f} deviates more than {QUAT_NORM_TOL}"
        )
    return q


def quat_to_dcm(q) -> np.ndarray:
    """Rotation matrix of ``q``; column j is the image of child axis j.

    The result maps child-frame (v) vectors into the parent frame (u).
    """
    q = _check_unit(np.asarray(q, dtype=float))
    w, x, y, z = q
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), w * w - x * x + y * y - z * z, 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )



def apply_small_angle(q, dphi) -> np.ndarray:
    """Right-perturb ``q`` by the small rotation vector ``dphi`` (rad).

    Returns ``q ⊗ [1, dphi / 2]`` normalized.  Accurate to third order in
    ``|dphi|``; use :func:`quat_exp` for large angles.
    """
    dphi = np.asarray(dphi, dtype=float)
    dq = np.concatenate(([1.0], 0.5 * dphi))
    return quat_multiply(q, dq)


def quat_exp(phi) -> np.ndarray:
    """Exact axis-angle exponential: rotation vector ``phi`` to quaternion."""
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi)
    if angle < 1e-12:
        return quat_normalize(np.concatenate(([1.0], 0.5 * phi)))
    axis = phi / angle
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


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
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


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


# ---------------------------------------------------------------------------
# Stacked forms: the same maps over a leading axis of K quaternions or
# vectors, for the batched factor linearization.


def _norms(v: np.ndarray) -> np.ndarray:
    """Row norms, rounded as ``np.linalg.norm`` rounds a single vector."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def quat_normalize_batch(q) -> np.ndarray:
    """Row-wise :func:`quat_normalize`, rounded as it rounds."""
    return q / _norms(q)[:, None]


def quat_conjugate_batch(q) -> np.ndarray:
    return np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def quat_multiply_batch(a, b) -> np.ndarray:
    """Row-wise Hamilton products ``a[k] ⊗ b[k]``, renormalized."""
    w1, x1, y1, z1 = np.asarray(a, dtype=float).T
    w2, x2, y2, z2 = np.asarray(b, dtype=float).T
    out = np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=1,
    )
    return quat_normalize_batch(out)


def quat_to_dcm_batch(q) -> np.ndarray:
    """(K, 3, 3) rotation matrices of (K, 4) unit quaternions."""
    q = np.asarray(q, dtype=float)
    norm_err = np.abs(np.linalg.norm(q, axis=1) - 1.0)
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
        axis=1,
    ).reshape(-1, 3, 3)


def euler_from_quat(q) -> np.ndarray:
    """(N, 3) roll, pitch, yaw in radians of (N, 4) quaternions, z-y-x convention."""
    R = quat_to_dcm_batch(q)
    return np.column_stack([
        np.arctan2(R[:, 2, 1], R[:, 2, 2]),
        -np.arcsin(np.clip(R[:, 2, 0], -1.0, 1.0)),
        np.arctan2(R[:, 1, 0], R[:, 0, 0]),
    ])


def quat_chain(q0, half_angle) -> np.ndarray:
    """(n + 1, 4) strapdown chain ``q_{i+1} = q_i (x) [1, half_angle_i]`` from ``q0``.

    Each step is :func:`quat_multiply` on Python floats: the same products
    and sums, and the same renormalization (``ndarray.dot``, as
    ``np.linalg.norm`` takes it), so every quaternion matches bit for bit.
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


def quat_exp_batch(phi) -> np.ndarray:
    """Row-wise :func:`quat_exp` of (K, 3) rotation vectors."""
    phi = np.asarray(phi, dtype=float)
    angle = _norms(phi)
    small = angle < 1e-12
    half = 0.5 * angle
    with np.errstate(divide="ignore", invalid="ignore"):
        vec = np.where(small[:, None], 0.5 * phi, np.sin(half)[:, None] * (phi / angle[:, None]))
    out = np.concatenate([np.where(small, 1.0, np.cos(half))[:, None], vec], axis=1)
    out[small] /= _norms(out[small])[:, None]
    return out


def skew_batch(v) -> np.ndarray:
    """(K, 3, 3) antisymmetric matrices of (K, 3) vectors."""
    x, y, z = np.asarray(v, dtype=float).T
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(-1, 3, 3)


def quat_left_batch(q) -> np.ndarray:
    """(K, 4, 4) stack of :func:`quat_left`."""
    w, x, y, z = np.asarray(q, dtype=float).T
    return np.stack([w, -x, -y, -z, x, w, -z, y, y, z, w, -x, z, -y, x, w],
                    axis=1).reshape(-1, 4, 4)


def quat_right_batch(q) -> np.ndarray:
    """(K, 4, 4) stack of :func:`quat_right`."""
    w, x, y, z = np.asarray(q, dtype=float).T
    return np.stack([w, -x, -y, -z, x, w, z, -y, y, -z, w, x, z, y, -x, w],
                    axis=1).reshape(-1, 4, 4)


def so3_right_jacobian_batch(phi) -> np.ndarray:
    """(K, 3, 3) stack of :func:`so3_right_jacobian`."""
    phi = np.asarray(phi, dtype=float)
    angle = _norms(phi)
    S = skew_batch(phi)
    SS = S @ S
    small = angle < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(small, 0.5, (1.0 - np.cos(angle)) / angle**2)
        b = np.where(small, 1.0 / 6.0, (angle - np.sin(angle)) / angle**3)
    return np.eye(3) - a[:, None, None] * S + b[:, None, None] * SS

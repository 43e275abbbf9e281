"""Navigation state: 16 stored dimensions, 15 error dimensions.

The error vector ordering used everywhere is
``[dp (3), dv (3), dtheta (3), dba (3), dbg (3)]`` with ``dtheta`` a
local (right) attitude perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attitude import apply_small_angle, quat_conjugate, quat_log, quat_multiply

#: Error-state dimension of one navigation state.
ERROR_DIM = 15


@dataclass(frozen=True)
class StateArrays:
    """A trajectory or a sliding window's states, stacked field by field:
    ``(N,)`` timestamps, ``(N, 3)`` position, velocity and biases, ``(N, 4)``
    attitude.  Position and velocity are room-frame (meters, m/s);
    attitude is the VLP-frame-to-room quaternion; biases are the
    accelerometer and gyroscope biases expressed in the VLP frame.

    One state is a row: ``states[k]``, the same fields with the leading
    axis dropped (a scalar timestamp, 1-D vectors), read bit for bit.
    Rows and slices are views, so no code writes the arrays in place.
    Every field is stored as given; :meth:`perturb` normalizes the
    attitudes it returns, and ``quat_to_dcm`` rejects one off unit norm
    where it is used.
    """

    timestamps: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    attitude: np.ndarray
    bias_acc: np.ndarray
    bias_gyro: np.ndarray

    @classmethod
    def empty(cls) -> "StateArrays":
        return cls(*(np.zeros((0, *shape)) for _, shape in _SHAPES))

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, rows) -> "StateArrays":
        return StateArrays(*(getattr(self, name)[rows] for name, _ in _SHAPES))

    @classmethod
    def concat(cls, parts) -> "StateArrays":
        """The rows of ``parts``, a non-empty sequence of states (rows) and
        stacks, in order."""
        return cls(*(np.concatenate([np.reshape(getattr(p, name), (-1, *shape)) for p in parts])
                     for name, shape in _SHAPES))

    def append(self, rows: "StateArrays") -> "StateArrays":
        """These rows, then ``rows``: one state (a row) or a stack of them."""
        return StateArrays.concat((self, rows))

    def perturb(self, dx: np.ndarray) -> "StateArrays":
        """Retract the (N, 15) error vectors ``dx`` onto the rows (box-plus),
        row ``k`` by ``dx[k]``, each rounded as a one-state retraction."""
        dx = np.asarray(dx, dtype=float)
        if dx.shape != (len(self), ERROR_DIM):
            raise ValueError(f"error vectors must be ({len(self)}, {ERROR_DIM})")
        return StateArrays(self.timestamps, self.position + dx[:, 0:3],
                           self.velocity + dx[:, 3:6],
                           apply_small_angle(self.attitude, dx[:, 6:9]),
                           self.bias_acc + dx[:, 9:12], self.bias_gyro + dx[:, 12:15])


def boxminus(x: StateArrays, y: StateArrays) -> np.ndarray:
    """15-dim error ``x ⊟ y`` of two states (rows), with the exact log map
    for attitude."""
    dq = quat_multiply(quat_conjugate(y.attitude), x.attitude)
    return np.concatenate([x.position - y.position, x.velocity - y.velocity, quat_log(dq),
                           x.bias_acc - y.bias_acc, x.bias_gyro - y.bias_gyro])


_SHAPES = (("timestamps", ()), ("position", (3,)), ("velocity", (3,)), ("attitude", (4,)),
           ("bias_acc", (3,)), ("bias_gyro", (3,)))

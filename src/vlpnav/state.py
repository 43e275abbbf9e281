"""Navigation state: 16 stored dimensions, 15 error dimensions.

The error vector ordering used everywhere is
``[dp (3), dv (3), dtheta (3), dba (3), dbg (3)]`` with ``dtheta`` a
local (right) attitude perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attitude import apply_small_angle, quat_conjugate, quat_log, quat_multiply

#: Error-state dimension of one navigation state.
ERROR_DIM = 15


@dataclass
class NavState:
    """Vehicle state at one epoch.

    ``position``/``velocity`` are room-frame (meters, m/s);
    ``attitude`` is the VLP-frame-to-room quaternion; biases are the
    accelerometer and gyroscope biases expressed in the VLP frame.  Every
    field is stored as given, so a copy is exact; :meth:`perturb`
    normalizes the attitude it returns, and ``quat_to_dcm`` rejects one
    off unit norm where it is used.
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

    def copy(self) -> "NavState":
        return NavState(
            timestamp=self.timestamp,
            position=self.position.copy(),
            velocity=self.velocity.copy(),
            attitude=self.attitude.copy(),
            bias_acc=self.bias_acc.copy(),
            bias_gyro=self.bias_gyro.copy(),
        )

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

    def boxminus(self, other: "NavState") -> np.ndarray:
        """15-dim error ``self ⊟ other`` (exact log map for attitude)."""
        dq = quat_multiply(quat_conjugate(other.attitude), self.attitude)
        return np.concatenate(
            [
                self.position - other.position,
                self.velocity - other.velocity,
                quat_log(dq),
                self.bias_acc - other.bias_acc,
                self.bias_gyro - other.bias_gyro,
            ]
        )


@dataclass(frozen=True)
class StateArrays:
    """A trajectory or a sliding window's states, stacked field by field:
    ``(N,)`` timestamps, ``(N, 3)`` position, velocity and biases, ``(N, 4)``
    attitude.  Rows hold the values as given: ``states[k]`` (1-D fields)
    reads them and :meth:`state` copies them into a :class:`NavState`, both
    bit for bit."""

    timestamps: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    attitude: np.ndarray
    bias_acc: np.ndarray
    bias_gyro: np.ndarray

    @classmethod
    def of(cls, states) -> "StateArrays":
        states = list(states)
        return cls(np.array([s.timestamp for s in states], dtype=float),
                   *(np.array([getattr(s, name) for s in states], dtype=float).reshape(-1, width)
                     for name, width in _WIDTHS))

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, rows) -> "StateArrays":
        return StateArrays(*(getattr(self, name)[rows] for name in _FIELDS))

    def state(self, k: int) -> NavState:
        """A :class:`NavState` copy of row ``k``."""
        return NavState(float(self.timestamps[k]),
                        *(getattr(self, name)[k].copy() for name in _FIELDS[1:]))

    def append(self, state: NavState) -> "StateArrays":
        """These rows, then ``state``."""
        row = StateArrays.of([state])
        return StateArrays(*(np.concatenate([getattr(self, name), getattr(row, name)])
                             for name in _FIELDS))

    def perturb(self, dx: np.ndarray) -> "StateArrays":
        """:meth:`NavState.perturb` of every row by its row of the (N, 15)
        ``dx``, bit for bit."""
        dx = np.asarray(dx, dtype=float)
        if dx.shape != (len(self), ERROR_DIM):
            raise ValueError(f"error vectors must be ({len(self)}, {ERROR_DIM})")
        return StateArrays(self.timestamps, self.position + dx[:, 0:3],
                           self.velocity + dx[:, 3:6],
                           apply_small_angle(self.attitude, dx[:, 6:9]),
                           self.bias_acc + dx[:, 9:12], self.bias_gyro + dx[:, 12:15])


_WIDTHS = (("position", 3), ("velocity", 3), ("attitude", 4), ("bias_acc", 3), ("bias_gyro", 3))
_FIELDS = ("timestamps",) + tuple(name for name, _ in _WIDTHS)

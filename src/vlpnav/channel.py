"""Lambertian line-of-sight RSS channel: forward model and derivatives.

An LED with Lambertian order ``m`` radiating optical power ``P_T`` is seen
by a photodiode of effective area ``A_R`` through the gain

    P = (m + 1) A_R T_s g P_T / (2 pi) * cos^m(theta) cos(psi) / D^2

where ``theta`` is the irradiance angle at the LED, ``psi`` the incidence
angle at the photodiode and ``D`` their separation.  Writing the cosines
as dot products against the LOS vector turns this into the polynomial
form used for all derivative work:

    P = K * (n . D_vec) (n_l . D_vec)^m / D^(3+m),   K = (m+1) A_R T_s g P_T / (2 pi)

``n`` is the photodiode surface normal in the room frame (a pure function
of the receiver attitude quaternion) and ``n_l`` the upward LED normal.

Positions are meters; power is watts or any linear sensor unit used
consistently scenario-wide.  All functions are pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import records
from .attitude import quat_to_dcm

#: Cosine floor below which Jacobian denominators are treated as singular.
GRAZING_COS_FLOOR = 1e-6


class DegenerateGeometryError(ValueError):
    """Photodiode and LED positions coincide."""


class GrazingIncidenceError(ValueError):
    """Incidence or irradiance angle too close to 90 deg for derivatives."""


class SampleFlag(enum.IntEnum):
    """Validity classification of one RSS sample; the values are the
    ``flag_truth`` codes of ``rss_epoch.csv``."""

    LOS = 0
    BLOCKED = 1
    OUT_OF_FOV = 2


#: Epoch RSS samples, the rows of ``rss_epoch.csv``: one demodulated LED
#: amplitude at one epoch, its variance and its :class:`SampleFlag` code.
EPOCH_RSS = np.dtype([("timestamp", float), ("led_id", int), ("value", float),
                      ("variance", float), ("flag", int)])


def _unit3(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector")
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"{name} must be unit length (norm {n:.12f})")
    return v


@dataclass(frozen=True)
class LedBeacon:
    """One ceiling transmitter.

    Parameters
    ----------
    led_id : int
        Identifier used to match samples to beacons.
    position : (3,) array
        Room-frame position in meters.
    power : float
        Transmit power times any scenario-wide sensor scale (> 0).
    order : float
        Lambertian order, >= 1 (1 is ideal cosine emission).
    normal : (3,) array
        Unit vector opposite the radiating direction; ceiling LEDs
        facing down carry the default ``[0, 0, 1]``.
    modulation_hz : float
        Carrier tag, metadata only.
    """

    led_id: int
    position: np.ndarray
    power: float
    order: float = 1.0
    normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    modulation_hz: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "normal", _unit3(self.normal, "normal"))
        if self.order < 1.0:
            raise ValueError("Lambertian order must be >= 1")
        if self.power <= 0.0:
            raise ValueError("transmit power must be positive")

    def to_record(self) -> dict:
        """``leds.json`` form: ``id`` for ``led_id``, keys in file order."""
        return {"id": self.led_id, "position": self.position.tolist(),
                "normal": self.normal.tolist(), "order": self.order, "power": self.power,
                "modulation_hz": self.modulation_hz}

    @classmethod
    def from_record(cls, d) -> "LedBeacon":
        """Inverse of :meth:`to_record`; absent optional keys take the defaults."""
        if isinstance(d, dict):
            d = {("led_id" if k == "id" else k): v for k, v in d.items()}
        return records.from_record(cls, d)


@dataclass(frozen=True)
class ReceiverConfig:
    """Photodiode and mounting description.

    ``lever_arm`` is the IMU-center to PD-center offset in the body frame;
    ``dcm_body_to_vlp`` is the fixed mounting rotation from the IMU body
    frame into the VLP (photodiode) frame.  ``pd_height`` is the measured
    PD height used by the planar height constraint.
    """

    area: float
    fov_half_angle: float
    filter_gain: float = 1.0
    concentrator_gain: float = 1.0
    lever_arm: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dcm_body_to_vlp: np.ndarray = field(default_factory=lambda: np.eye(3))
    pd_height: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lever_arm", np.asarray(self.lever_arm, dtype=float))
        object.__setattr__(self, "dcm_body_to_vlp", np.asarray(self.dcm_body_to_vlp, dtype=float))
        if self.area <= 0.0:
            raise ValueError("receiver area must be positive")
        if not 0.0 < self.fov_half_angle <= np.pi / 2:
            raise ValueError("fov_half_angle must lie in (0, pi/2]")
        if self.filter_gain <= 0.0 or self.concentrator_gain <= 0.0:
            raise ValueError("optical gains must be positive")
        R = self.dcm_body_to_vlp
        if np.max(np.abs(R @ R.T - np.eye(3))) > 1e-9:
            raise ValueError("dcm_body_to_vlp must be orthonormal")

    def to_record(self) -> dict:
        """Manifest and scenario form: the FOV half-angle in degrees."""
        return {"area": self.area,
                "fov_half_angle_deg": float(np.rad2deg(self.fov_half_angle)),
                "filter_gain": self.filter_gain, "concentrator_gain": self.concentrator_gain,
                "lever_arm": self.lever_arm.tolist(),
                "dcm_body_to_vlp": self.dcm_body_to_vlp.tolist(), "pd_height": self.pd_height}

    @classmethod
    def from_record(cls, d) -> "ReceiverConfig":
        """Inverse of :meth:`to_record`; absent optional keys take the defaults."""
        if isinstance(d, dict) and "fov_half_angle_deg" in d:
            d = dict(d)
            deg = records.decode(float, d.pop("fov_half_angle_deg"),
                                 "ReceiverConfig.fov_half_angle_deg")
            d["fov_half_angle"] = float(np.deg2rad(deg))
        return records.from_record(cls, d)

    @property
    def lever_arm_vlp(self) -> np.ndarray:
        """Lever arm expressed in the VLP frame (constant)."""
        return self.dcm_body_to_vlp @ self.lever_arm

    def fov_cos(self) -> float:
        c = np.cos(self.fov_half_angle)
        # cos(pi/2) rounds to ~6e-17; snap so grazing rays sit on the boundary
        return 0.0 if abs(c) < 1e-12 else float(c)


def receiver_normal(q) -> np.ndarray:
    """Room-frame photodiode normal for attitude ``q`` (third DCM column),
    of one quaternion or a ``(K, 4)`` stack.

    Componentwise for q = [q0, q1, q2, q3]:
    ``[2(q1 q3 + q0 q2), 2(q2 q3 - q0 q1), q0^2 - q1^2 - q2^2 + q3^2]``.
    """
    return quat_to_dcm(q)[..., 2]


def gain_constant(led: LedBeacon, rx: ReceiverConfig) -> float:
    """(m+1) A_R T_s g P_T / (2 pi)."""
    return (
        (led.order + 1.0)
        * rx.area
        * rx.filter_gain
        * rx.concentrator_gain
        * led.power
        / (2.0 * np.pi)
    )


@dataclass(frozen=True)
class LedTable:
    """The LED map as arrays, one row per LED in id order."""

    row: dict  # led_id -> row
    position: np.ndarray  # (L, 3)
    normal: np.ndarray  # (L, 3)
    order: np.ndarray  # (L,)
    gain: np.ndarray  # (L,), :func:`gain_constant`

    @classmethod
    def of(cls, leds, rx: ReceiverConfig) -> "LedTable":
        leds = sorted(leds, key=lambda led: led.led_id)
        return cls(row={led.led_id: i for i, led in enumerate(leds)},
                   position=np.array([led.position for led in leds]).reshape(-1, 3),
                   normal=np.array([led.normal for led in leds]).reshape(-1, 3),
                   order=np.array([led.order for led in leds], dtype=float),
                   gain=np.array([gain_constant(led, rx) for led in leds]))


@dataclass(frozen=True)
class LambertianBatch:
    """Forward model of N photodiode poses, from :func:`lambertian`.

    ``rss`` is 0 where ``valid`` is false (outside the FOV or behind the
    LED).  ``regular`` marks rows whose distance and both cosines clear
    the singular floors of the derivatives (``DegenerateGeometryError``
    and ``GrazingIncidenceError`` in the one-pose views).  The gradients
    are ``(dP_dr, dP_dphi_u)`` of :func:`rss_jacobian`; they are ``None``
    unless requested and meaningful only on valid, regular rows.
    """

    rss: np.ndarray  # (N,)
    valid: np.ndarray  # (N,) bool
    regular: np.ndarray  # (N,) bool
    d_pos: np.ndarray | None = None  # (N, 3) dP/dr
    d_att: np.ndarray | None = None  # (N, 3) dP/dphi_u


def lambertian(pd_pos, pd_normal, led_pos, led_normal, order, gain, fov_cos: float,
               gradients: bool = False) -> LambertianBatch:
    """Lambertian RSS of N photodiode positions and room-frame normals.

    The LED parameters (position, unit normal, order and
    :func:`gain_constant`) are either one LED's, broadcast over all rows,
    or per row, with a leading axis of N.  This is the package's one
    Lambertian evaluation: :func:`predict_rss` and :func:`rss_jacobian`
    are its one-pose views.  The products are grouped as the simulator
    has always grouped them, so its datasets stay byte-identical.
    """
    # einsum sums a strided operand in another order than a contiguous
    # one, so the normals are read in C order: a DCM column (a strided
    # view) and its copy give the same bits.
    pd_normal = np.ascontiguousarray(pd_normal, dtype=float)
    led_normal = np.ascontiguousarray(led_normal, dtype=float)
    d = np.asarray(led_pos, dtype=float) - np.asarray(pd_pos, dtype=float)
    dist = np.linalg.norm(d, axis=1)
    m = np.asarray(order, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_dot_d = np.einsum("ij,ij->i", pd_normal, d)
        l_dot_d = np.einsum("...j,...j->...", d, led_normal)
        cos_psi = n_dot_d / dist
        cos_theta = l_dot_d / dist
        p = gain * (cos_psi * dist) * np.maximum(cos_theta * dist, 0.0) ** m / (
            dist ** (3.0 + m))
        valid = (cos_psi >= fov_cos) & (cos_theta >= 0.0)
        rss = np.where(valid, np.maximum(p, 0.0), 0.0)
        regular = ((dist >= 1e-9) & (cos_psi > GRAZING_COS_FLOOR)
                   & (cos_theta > GRAZING_COS_FLOOR))
        if not gradients:
            return LambertianBatch(rss, valid, regular)
        pc = rss[:, None]
        mc = m[..., None]
        d_att = pc * np.cross(d, pd_normal) / n_dot_d[:, None]
        d_pos = pc * (-pd_normal / n_dot_d[:, None] - mc * led_normal / l_dot_d[:, None]
                      + (3.0 + mc) * d / dist[:, None] ** 2)
    return LambertianBatch(rss, valid, regular, d_pos, d_att)


def _one_pose(pd_pos, q, led: LedBeacon, rx: ReceiverConfig,
              gradients: bool = False) -> LambertianBatch:
    """:func:`lambertian` at one photodiode pose with attitude ``q``."""
    pd_pos = np.asarray(pd_pos, dtype=float)
    if np.linalg.norm(led.position - pd_pos) < 1e-9:
        raise DegenerateGeometryError("photodiode coincides with LED position")
    return lambertian(pd_pos[None], receiver_normal(q)[None], led.position, led.normal,
                      led.order, gain_constant(led, rx), rx.fov_cos(), gradients)


def predict_rss(pd_pos, q, led: LedBeacon, rx: ReceiverConfig) -> float | None:
    """Forward-model RSS at a photodiode pose, or ``None`` when out of FOV.

    ``None`` (rather than 0) marks geometry outside the receiver FOV or
    behind the LED: a zero prediction would make a zero measurement look
    informative.  Boundary rays (grazing incidence at fov = 90 deg)
    return 0.
    """
    model = _one_pose(pd_pos, q, led, rx)
    return float(model.rss[0]) if model.valid[0] else None


def rss_jacobian(pd_pos, q, led: LedBeacon, rx: ReceiverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Analytic RSS derivatives ``(dP_dr, dP_dphi_u)``.

    ``dP_dr`` is the gradient with respect to the photodiode position
    (per meter); ``dP_dphi_u`` with respect to a room-frame attitude
    disturbance angle (per radian):

        dP_dphi_u = P (D_vec x n) / (D_vec . n)
        dP_dr     = P [ -n/(n.D) - m n_l/(n_l.D) + (3+m) D_vec/D^2 ]

    Raises ``GrazingIncidenceError`` out of the FOV or when either cosine
    is within :data:`GRAZING_COS_FLOOR` of zero, where the denominators
    vanish.
    """
    model = _one_pose(pd_pos, q, led, rx, gradients=True)
    if not (model.valid[0] and model.regular[0]):
        raise GrazingIncidenceError("pose out of FOV or at grazing incidence")
    return model.d_pos[0], model.d_att[0]

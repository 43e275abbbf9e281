"""Deterministic scenario generator: trajectories, IMU and RSS synthesis.

A scenario describes a room with ceiling LEDs, a vehicle trajectory as
waypoints with per-segment speeds (plus a commanded gimbal pitch
profile), IMU noise characteristics and a per-LED blockage schedule.

Trajectory model: path speed, yaw, slope pitch and gimbal pitch are each
a knot profile (:func:`glide`) that holds a level and glides to the next
by a quintic blend; straight travel with speed ramps, stop-and-turns and
dwells are knots laid out in one pass over the segments, and position is
the waypoint polyline at the integrated speed.  The profile is C2 in
position and attitude, so synthesized IMU streams contain no rate
spikes.  The *emitted truth* is the first-order strapdown integration of
the ideal IMU stream from the true initial state: truth, IMU and RSS are
then mutually consistent to round-off rather than to discretization
error.

Blockage shaping: raw high-rate RSS drops to zero (plus noise) inside a
scheduled interval; the low-rate epoch value is the average of the raw
demodulation window, so a blockage covering half a window halves the
epoch value instead of zeroing it.  Epoch records carry ground-truth
labels for detector scoring.

Determinism: all randomness flows from the scenario seed through named
``SeedSequence`` children, one per stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attitude import quat_chain, quat_conjugate, quat_from_euler, quat_to_dcm
from .blockage import DetectionSpec
from .channel import (
    EPOCH_RSS,
    LedBeacon,
    ReceiverConfig,
    SampleFlag,
    gain_constant,
    lambertian,
    receiver_normal,
)
from .preint import ImuStream
from .records import from_record, to_record

D2R = np.pi / 180.0


# ---------------------------------------------------------------------------
# Scenario description


@dataclass(frozen=True)
class TrajectorySpec:
    waypoints: tuple  # ((x, y, z), ...)
    speeds: tuple  # per-segment average speed, m/s
    ramp_time: float = 0.8
    turn_rate: float = 0.4  # rad/s commanded during in-place turns
    min_turn_time: float = 1.0
    initial_dwell: float = 2.0
    dwell_time: float = 2.0  # used for zero-length segments
    gimbal_pitch_deg: tuple = ()  # ((time s, pitch-up deg), ...)


@dataclass(frozen=True)
class ImuSpec:
    rate_hz: float
    accel_noise_density: float  # m/s^2/sqrt(Hz)
    gyro_noise_density: float  # rad/s/sqrt(Hz)
    accel_bias_instability: float  # m/s^2
    gyro_bias_instability: float  # rad/s
    bias_corr_time: float = 100.0  # s, Gauss-Markov approximation of flicker
    initial_accel_bias: tuple = (0.0, 0.0, 0.0)
    initial_gyro_bias: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.bias_corr_time <= 0.0:
            raise ValueError("bias_corr_time must be positive")


@dataclass(frozen=True)
class RssSpec:
    raw_rate_hz: float = 120.0
    epoch_rate_hz: float = 1.0
    raw_sigma: float = 5e-4  # on the high-rate demodulated amplitude
    epoch_sigma: float = 0.1  # on the epoch (positioning) amplitude


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    room_min: tuple
    room_max: tuple
    leds: tuple[LedBeacon, ...]
    receiver: ReceiverConfig
    trajectory: TrajectorySpec
    imu: ImuSpec
    rss: RssSpec = field(default_factory=RssSpec)
    blockages: tuple = ()  # ((led_id, start_s, end_s), ...)
    detection: DetectionSpec = field(default_factory=DetectionSpec)
    gravity: tuple = (0.0, 0.0, -9.80665)

    @property
    def gravity_vec(self) -> np.ndarray:
        return np.asarray(self.gravity, dtype=float)

    def to_dict(self) -> dict:
        """``scenario.json`` form: the field records, gravity after the room bounds."""
        rec = to_record(self)
        head = {k: rec.pop(k) for k in ("name", "seed", "room_min", "room_max", "gravity")}
        return head | rec

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Inverse of :meth:`to_dict`: every field by name, nested specs as
        objects; absent optional fields take the dataclass defaults.

        Raises ``ValueError`` on a key that names no field, a missing
        required field or a value of the wrong type.
        """
        return from_record(cls, d)

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def from_json(cls, path) -> "Scenario":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Knot profiles


def _smoothstep(tau):
    """Quintic smoothstep on [0, 1]: its value, slope and integral from 0."""
    p = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)
    dp = 30.0 * tau**2 * (1.0 - tau) ** 2
    return p, dp, 2.5 * tau**4 - 3.0 * tau**5 + tau**6


def glide(knots, t):
    """C2 scalar profile through ``(time, value)`` knots, at times ``t``.

    The value holds each knot level and glides to the next by a quintic
    blend with zero end-rate and end-acceleration, so a speed, yaw or
    pitch built from it never spikes the IMU.  It holds the first level
    before the first knot and the last after the last, and is zero
    without knots.  Knots sort by time alone, so knots at one time keep
    the order given and make a step through their values in that order:
    the value glides to the first of them and holds from the last.
    Returns the value, its rate and its running integral from the first
    knot.
    """
    t = np.asarray(t, dtype=float)
    if not knots:
        return np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
    knots = np.asarray(knots, dtype=float)
    kt, kv = knots[np.argsort(knots[:, 0], kind="stable")].T
    area = np.concatenate([[0.0], np.cumsum(np.diff(kt) * (kv[:-1] + kv[1:]) / 2.0)])
    # Each time takes the last knot at or before it (side="right" steps
    # over a zero span) and the blend to the next; before the first knot
    # tau clips to 0, and after the last the blend is to itself.
    k = np.clip(np.searchsorted(kt, t, side="right") - 1, 0, kt.size - 1)
    j = np.minimum(k + 1, kt.size - 1)
    h = np.where(kt[j] > kt[k], kt[j] - kt[k], 1.0)
    p, dp, ip = _smoothstep(np.clip((t - kt[k]) / h, 0.0, 1.0))
    dv = kv[j] - kv[k]
    return kv[k] + dv * p, dv * dp / h, area[k] + kv[k] * (t - kt[k]) + h * dv * ip


# ---------------------------------------------------------------------------
# Trajectory kinematics


def _segment_yaw_pitch(direction):
    yaw = float(np.arctan2(direction[1], direction[0]))
    pitch = float(-np.arcsin(np.clip(direction[2], -1.0, 1.0)))
    return yaw, pitch


def _wrap_angle(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _kinematics(scenario: Scenario):
    """Analytic profile on the IMU grid: ``(t, position, velocity,
    acceleration, yaw, yaw rate, pitch, pitch rate)``, the pitch with the
    gimbal command added.

    One pass over the segments lays out the speed, yaw and pitch knots:
    the initial dwell, then per segment a dwell (zero length) or a
    stop-and-turn to the segment's heading and slope pitch followed by a
    quintic speed ramp, cruise and ramp down.  Position is the waypoint
    polyline at the integrated path length; velocity and acceleration are
    the speed and its rate along the current segment.
    """
    spec = scenario.trajectory
    det = scenario.detection
    wps = np.array(spec.waypoints, dtype=float)
    if len(wps) < 2:
        raise ValueError("trajectory needs at least two waypoints")
    if len(spec.speeds) != len(wps) - 1:
        raise ValueError("need one speed per segment")
    d = np.diff(wps, axis=0)
    length = np.linalg.norm(d, axis=1)
    moving = length > 1e-9
    unit = np.zeros_like(d)
    unit[moving] = d[moving] / length[moving, None]

    # Initial attitude faces the first real segment.
    yaw, pitch = _segment_yaw_pitch(unit[moving][0] if moving.any() else (1.0, 0.0, 0.0))
    t = max(float(spec.initial_dwell), 0.0)
    speed, yaws, pitches, starts = [], [(0.0, yaw)], [(0.0, pitch)], []
    for k in range(len(d)):
        starts.append(t)
        if not moving[k]:
            t += spec.dwell_time
            continue
        new_yaw, new_pitch = _segment_yaw_pitch(unit[k])
        dyaw = _wrap_angle(new_yaw - yaw)
        dpitch = new_pitch - pitch
        if abs(dyaw) > 1e-9 or abs(dpitch) > 1e-9:
            angle = max(abs(dyaw), abs(dpitch))
            duration = max(spec.min_turn_time, 1.875 * angle / spec.turn_rate)
            peak = 1.875 * angle / duration
            if peak > det.omega_max + 1e-9:
                raise ValueError(
                    f"turn rate {peak:.3f} rad/s exceeds omega_max {det.omega_max}")
            yaws += [(t, yaw), (t + duration, yaw + dyaw)]
            pitches += [(t, pitch), (t + duration, new_pitch)]
            t += duration
            yaw, pitch = yaw + dyaw, new_pitch
        v = float(spec.speeds[k])
        if v <= 0.0:
            raise ValueError("segment speed must be positive")
        duration = length[k] / v
        ramp = min(spec.ramp_time, duration / 3.0)
        cruise = length[k] / (duration - ramp)
        if cruise > det.v_max + 1e-9:
            raise ValueError(
                f"cruise speed {cruise:.3f} m/s exceeds v_max {det.v_max}; "
                "lower the segment speed or lengthen the segment")
        speed += [(t, 0.0), (t + ramp, cruise), (t + duration - ramp, cruise), (t + duration, 0.0)]
        t += duration

    dt = 1.0 / scenario.imu.rate_hz
    t_grid = np.arange(int(np.floor(t / dt))) * dt
    v, a, s = glide(speed, t_grid)
    path = np.concatenate([[0.0], np.cumsum(np.where(moving, length, 0.0))])
    position = np.stack([np.interp(s, path, w) for w in wps.T], axis=1)
    # The current segment is looked up by time, not by arc length, which
    # rounds either way at a waypoint; speed is zero outside travel.
    along = unit[np.clip(np.searchsorted(starts, t_grid, side="right") - 1, 0, None)]
    yaw, yaw_rate, _ = glide(yaws, t_grid)
    pitch, pitch_rate, _ = glide(pitches, t_grid)
    g_deg, g_rate_deg, _ = glide(spec.gimbal_pitch_deg, t_grid)
    # Commanded pitch-up maps to a negative z-y-x pitch angle increment.
    return (t_grid, position, v[:, None] * along, a[:, None] * along, yaw, yaw_rate,
            pitch - g_deg * D2R, pitch_rate - g_rate_deg * D2R)


# ---------------------------------------------------------------------------
# Truth stream


@dataclass
class TruthStream:
    """Dense ground truth sampled at the IMU rate, with ideal IMU attached."""

    timestamps: np.ndarray  # (N,)
    position: np.ndarray  # (N, 3)
    velocity: np.ndarray  # (N, 3)
    attitude: np.ndarray  # (N, 4) VLP-frame-to-room quaternions
    gyro_v: np.ndarray  # (N, 3) VLP-frame angular rate
    specific_force_b: np.ndarray  # (N, 3) ideal accelerometer, body frame
    gyro_b: np.ndarray  # (N, 3) ideal gyroscope, body frame
    gravity: np.ndarray  # (3,)

    @property
    def duration(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])


def _rotate_vec(q_arr, v_arr):
    """Rotate (N,3) vectors by (N,4) unit quaternions."""
    w = q_arr[:, :1]
    u = q_arr[:, 1:]
    t = 2.0 * np.cross(u, v_arr)
    return v_arr + w * t + np.cross(u, t)


def ideal_imu_from_kinematics(quats, accel_u, gyro_v, gravity, dcm_body_to_vlp):
    """Noise-free body-frame IMU for a kinematic profile.

    ``specific_force_b = R_b_u (a_u - g)``; the gyro is the VLP-frame
    rate mapped through the mounting DCM.
    """
    quats = np.asarray(quats, dtype=float)
    accel_u = np.asarray(accel_u, dtype=float)
    gyro_v = np.asarray(gyro_v, dtype=float)
    gravity = np.asarray(gravity, dtype=float)
    R_vb = np.asarray(dcm_body_to_vlp, dtype=float)
    f_v = _rotate_vec(quat_conjugate(quats), accel_u - gravity[None, :])
    return f_v @ R_vb, gyro_v @ R_vb


def generate_trajectory(scenario: Scenario) -> TruthStream:
    """Ground-truth pose/velocity stream at the IMU rate, with ideal IMU.

    The analytic knot profile supplies ideal body-frame IMU samples; the
    emitted truth re-integrates them with the first-order strapdown
    recursion so downstream consistency checks close exactly: attitude by
    :func:`quat_chain`, velocity and position by running sums in a loop's order.

    Raises ``ValueError`` on an ill-formed trajectory, a speed or rate past
    the scenario's detection bounds, or a path that leaves the room.
    """
    t_grid, pos, vel, acc, yaw, yaw_rate, pitch, pitch_rate = _kinematics(scenario)
    dt = 1.0 / scenario.imu.rate_hz
    n = t_grid.size

    quats = quat_from_euler(0.0, pitch, yaw)
    # Body rates for roll-free z-y-x attitude: w = yawrate * Ry(pitch)^T ez
    # + pitchrate * ey.
    gyro_v = np.stack([-yaw_rate * np.sin(pitch), pitch_rate, yaw_rate * np.cos(pitch)], axis=1)
    # Turns and the gimbal command are bounded apart; their sum must keep
    # within the rate bound that DRD's threshold assumes.
    omega_max = scenario.detection.omega_max
    peak = float(np.linalg.norm(gyro_v, axis=1).max())
    if peak > omega_max + 1e-9:
        raise ValueError(f"body rate {peak:.3f} rad/s exceeds omega_max {omega_max}")

    gravity = scenario.gravity_vec
    R_vb = scenario.receiver.dcm_body_to_vlp
    specific_force_b, gyro_b = ideal_imu_from_kinematics(quats, acc, gyro_v, gravity, R_vb)

    # Reconcile: emitted truth is the strapdown integration of the ideal IMU.
    q_m = quat_chain(quats[0], 0.5 * gyro_v[:-1] * dt)
    R_m = quat_to_dcm(q_m[:-1])
    a_m = (R_m @ (R_vb @ specific_force_b[:-1, :, None]))[:, :, 0] + gravity
    v_m = np.add.accumulate(np.concatenate([vel[:1], a_m * dt]))
    # Each position step adds v dt, then a dt^2 / 2, so the sums round as a
    # per-sample loop's do.
    steps = np.empty((2 * n - 1, 3))
    steps[0] = pos[0]
    steps[1::2] = v_m[:-1] * dt
    steps[2::2] = 0.5 * a_m * dt**2
    p_m = np.add.accumulate(steps)[::2]

    room_min = np.asarray(scenario.room_min, dtype=float)
    room_max = np.asarray(scenario.room_max, dtype=float)
    if np.any(p_m < room_min - 0.05) or np.any(p_m > room_max + 0.05):
        raise ValueError("trajectory leaves the room bounds")

    return TruthStream(
        timestamps=t_grid,
        position=p_m,
        velocity=v_m,
        attitude=q_m,
        gyro_v=gyro_v,
        specific_force_b=specific_force_b,
        gyro_b=gyro_b,
        gravity=gravity,
    )


# ---------------------------------------------------------------------------
# IMU synthesis


def _gauss_markov(rng, n, dt, sigma, tau):
    """First-order Gauss-Markov series with stationary std ``sigma``."""
    phi = np.exp(-dt / tau)
    drive = sigma * np.sqrt(1.0 - phi**2)
    w = rng.normal(size=(n, 3)) * drive
    out = np.empty((n, 3))
    acc = np.zeros(3)
    for i in range(n):
        acc = phi * acc + w[i]
        out[i] = acc
    return out


def synthesize_imu(truth: TruthStream, scenario: Scenario,
                   seed_seq: np.random.SeedSequence | None = None) -> ImuStream:
    """Ideal IMU plus white noise, constant initial bias and flicker-like
    Gauss-Markov bias wander; deterministic for a given seed."""
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(scenario.seed).spawn(1)[0]
    rng = np.random.default_rng(seed_seq)
    spec = scenario.imu
    n = truth.timestamps.size
    dt = 1.0 / spec.rate_hz

    wn_a = rng.normal(size=(n, 3)) * spec.accel_noise_density / np.sqrt(dt)
    wn_g = rng.normal(size=(n, 3)) * spec.gyro_noise_density / np.sqrt(dt)
    gm_a = _gauss_markov(rng, n, dt, spec.accel_bias_instability, spec.bias_corr_time)
    gm_g = _gauss_markov(rng, n, dt, spec.gyro_bias_instability, spec.bias_corr_time)

    accel = truth.specific_force_b + np.asarray(spec.initial_accel_bias) + gm_a + wn_a
    gyro = truth.gyro_b + np.asarray(spec.initial_gyro_bias) + gm_g + wn_g
    return ImuStream(truth.timestamps.copy(), accel, gyro)


# ---------------------------------------------------------------------------
# RSS synthesis


def _blocked_mask(times, intervals):
    mask = np.zeros(times.shape, dtype=bool)
    for start, end in intervals:
        mask |= (times >= start) & (times < end)
    return mask


def _interpolate_poses(truth: TruthStream, times):
    ts = truth.timestamps
    idx = np.clip(np.searchsorted(ts, times) - 1, 0, ts.size - 2)
    w = np.clip((times - ts[idx]) / (ts[idx + 1] - ts[idx]), 0.0, 1.0)[:, None]
    pos = (1.0 - w) * truth.position[idx] + w * truth.position[idx + 1]
    qa = truth.attitude[idx]
    qb = truth.attitude[idx + 1]
    qb = np.where((np.einsum("ij,ij->i", qa, qb) < 0)[:, None], -qb, qb)
    q = (1.0 - w) * qa + w * qb
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return pos, q


def _signal_series(truth: TruthStream, scenario: Scenario, times) -> dict:
    """Noise-free LOS amplitude per LED at the query times (0 out of FOV)."""
    rx = scenario.receiver
    poses, quats = _interpolate_poses(truth, np.asarray(times, dtype=float))
    lever = rx.lever_arm_vlp
    pd_pos = poses + _rotate_vec(quats, np.broadcast_to(lever, poses.shape).copy())
    n_u = receiver_normal(quats)
    fov_cos = rx.fov_cos()
    out = {}
    for led in scenario.leds:
        model = lambertian(pd_pos, n_u, led.position, led.normal, led.order,
                           gain_constant(led, rx), fov_cos)
        out[led.led_id] = (model.rss, model.valid)
    return out


def synthesize_rss(truth: TruthStream, scenario: Scenario,
                   seed_seq: np.random.SeedSequence | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Raw high-rate streams and windowed epoch samples.

    Raw: LOS amplitude at the instantaneous pose, zeroed inside blockage
    intervals, plus white noise (clipped at zero).  Epoch: the
    window-center amplitude scaled by the window's unblocked fraction,
    plus epoch noise; a blockage covering half the demodulation window
    halves the epoch value while clean epochs carry exactly the
    instantaneous channel value.  Returns the raw rows ``(timestamp,
    led_id, value)`` and the epoch samples (``EPOCH_RSS`` rows, the flag
    the ground-truth label), each sorted by ``(timestamp, led_id)``: the
    tables of ``rss_raw.csv`` and ``rss_epoch.csv``.
    """
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(scenario.seed).spawn(2)[1]
    rss = scenario.rss
    duration = truth.timestamps[-1]

    raw_dt = 1.0 / rss.raw_rate_hz
    raw_t = np.arange(0.0, duration, raw_dt)
    signals = _signal_series(truth, scenario, raw_t)

    schedule = {}
    for led_id, start, end in scenario.blockages:
        schedule.setdefault(int(led_id), []).append((float(start), float(end)))

    led_ids = sorted(signals)
    children = seed_seq.spawn(2 * len(led_ids))
    raw_rows = []
    epoch_rows = []

    window = 1.0 / rss.epoch_rate_hz
    centers = np.arange(window / 2.0, duration - window / 2.0 + 1e-9, window)
    center_signals = _signal_series(truth, scenario, centers)
    variance = max(rss.epoch_sigma**2, 1e-12)

    for idx, led_id in enumerate(led_ids):
        p, _ = signals[led_id]
        p_center, valid_center = center_signals[led_id]
        blocked = _blocked_mask(raw_t, schedule.get(led_id, []))
        clean = np.where(blocked, 0.0, p)
        rng_raw = np.random.default_rng(children[2 * idx])
        raw = np.clip(clean + rng_raw.normal(size=clean.shape) * rss.raw_sigma, 0.0, None)
        raw_rows.append(np.column_stack([raw_t, np.full(raw_t.shape, led_id), raw]))

        rng_epoch = np.random.default_rng(children[2 * idx + 1])
        for j, t_c in enumerate(centers):
            lo = np.searchsorted(raw_t, t_c - window / 2.0, side="left")
            hi = np.searchsorted(raw_t, t_c + window / 2.0, side="left")
            frac_clear = 1.0 - float(np.mean(blocked[lo:hi]))
            value = max(frac_clear * p_center[j]
                        + float(rng_epoch.normal()) * rss.epoch_sigma, 0.0)
            overlap = any(t_c - window / 2.0 < end and t_c + window / 2.0 > start
                          for start, end in schedule.get(led_id, []))
            if overlap:
                flag = SampleFlag.BLOCKED
            elif not valid_center[j]:
                flag = SampleFlag.OUT_OF_FOV
            else:
                flag = SampleFlag.LOS
            epoch_rows.append((t_c, led_id, value, variance, flag))

    raw = np.vstack(raw_rows)
    samples = np.array(epoch_rows, EPOCH_RSS)
    return (raw[np.lexsort((raw[:, 1], raw[:, 0]))],
            samples[np.lexsort((samples["led_id"], samples["timestamp"]))])


# ---------------------------------------------------------------------------
# Reference fixtures


def _i300_densities(multiplier: float = 1.0) -> dict:
    """Tabulated HGUIDE i300 characteristics converted to SI densities."""
    vrw = 0.03 / 60.0  # m/s/sqrt(hr) -> m/s^2/sqrt(Hz)
    arw = 0.25 * D2R / 60.0  # deg/sqrt(hr) -> rad/s/sqrt(Hz)
    bi_acc = 0.03e-3 * 9.80665  # mg -> m/s^2
    bi_gyro = 5.0 * D2R / 3600.0  # deg/hr -> rad/s
    return {
        "accel_noise_density": vrw * multiplier,
        "gyro_noise_density": arw * multiplier,
        "accel_bias_instability": bi_acc * multiplier,
        "gyro_bias_instability": bi_gyro * multiplier,
    }


def _sim3d_scenario(seed=7, blockages=True) -> Scenario:
    leds = tuple(
        LedBeacon(led_id=i + 1, position=np.array(p), power=6.0e6,
                  modulation_hz=1800.0 + 700.0 * i)
        for i, p in enumerate([
            (1.0, 1.0, 5.0), (4.0, 1.0, 5.0), (4.0, 4.0, 5.0),
            (1.0, 4.0, 5.0), (2.5, 2.5, 5.0),
        ])
    )
    receiver = ReceiverConfig(
        area=1e-4, fov_half_angle=np.deg2rad(75.0),
        lever_arm=np.array([0.05, 0.0, 0.08]),
    )
    trajectory = TrajectorySpec(
        waypoints=(
            (5.0, 0.0, 0.0), (4.2, 0.8, 0.0), (4.2, 4.2, 0.0), (2.6, 4.2, 0.0),
            (1.2, 4.2, 0.35), (0.8, 2.4, 0.35), (0.8, 1.2, 0.35), (2.4, 1.0, 0.35),
            (3.6, 2.0, 0.35),
        ),
        speeds=(0.35,) * 8,
        turn_rate=0.35,
        gimbal_pitch_deg=((0.0, 0.0), (22.0, 0.0), (26.0, 10.0), (38.0, 10.0), (42.0, 0.0)),
    )
    imu = ImuSpec(rate_hz=200.0, bias_corr_time=100.0,
                  initial_accel_bias=(0.004, -0.003, 0.005),
                  initial_gyro_bias=(1.5e-4, -1.0e-4, 2.0e-4),
                  **_i300_densities(5.0))
    blocks = (
        (1, 12.0, 14.5),
        (3, 25.0, 27.0),
        (5, 33.0, 35.5),
        (2, 45.0, 47.0),
    ) if blockages else ()
    return Scenario(
        name="sim3d",
        seed=seed,
        room_min=(0.0, 0.0, 0.0),
        room_max=(5.0, 5.0, 5.0),
        leds=leds,
        receiver=receiver,
        trajectory=trajectory,
        imu=imu,
        rss=RssSpec(raw_rate_hz=120.0, epoch_rate_hz=1.0, raw_sigma=5e-4, epoch_sigma=0.1),
        blockages=blocks,
        detection=DetectionSpec(v_max=0.6, omega_max=0.6, value_floor=0.05,
                                max_tilt_deg=25.0),
    )


def _expa_scenario(seed=11, blockages=True) -> Scenario:
    led_xy = [(0.35, 1.34), (3.56, 1.15), (1.71, 3.31), (3.50, 6.25), (0.35, 5.97)]
    mods = [1800.0, 2500.0, 3200.0, 3750.0, 5000.0]
    leds = tuple(
        LedBeacon(led_id=i + 1, position=np.array([x, y, 2.8]), power=5.6e6,
                  modulation_hz=m)
        for i, ((x, y), m) in enumerate(zip(led_xy, mods))
    )
    receiver = ReceiverConfig(
        area=1e-4, fov_half_angle=np.deg2rad(85.0),
        lever_arm=np.array([0.06, 0.0, 0.05]),
        pd_height=0.3,
    )
    trajectory = TrajectorySpec(
        waypoints=(
            (0.9, 1.2, 0.3), (2.9, 1.2, 0.3), (2.9, 5.2, 0.3), (0.9, 5.2, 0.3),
            (0.9, 1.4, 0.3),
        ),
        speeds=(0.35,) * 4,
        turn_rate=0.35,
        gimbal_pitch_deg=((0.0, 0.0), (13.0, 0.0), (17.0, 10.0), (32.0, 10.0), (36.0, 0.0)),
    )
    imu = ImuSpec(rate_hz=200.0, bias_corr_time=100.0,
                  initial_accel_bias=(0.002, -0.0015, 0.0025),
                  initial_gyro_bias=(8.0e-5, -6.0e-5, 1.0e-4),
                  **_i300_densities(1.0))
    blocks = (
        (3, 16.0, 24.0),
        (1, 20.0, 26.0),
        (2, 28.0, 32.0),
        (4, 33.0, 37.0),
        (5, 40.0, 45.0),
        (3, 46.0, 50.0),
    ) if blockages else ()
    return Scenario(
        name="expA" if blockages else "expA_clean",
        seed=seed,
        room_min=(0.0, 0.0, 0.0),
        room_max=(3.8, 6.3, 2.8),
        leds=leds,
        receiver=receiver,
        trajectory=trajectory,
        imu=imu,
        rss=RssSpec(raw_rate_hz=120.0, epoch_rate_hz=1.0, raw_sigma=5e-4, epoch_sigma=0.1),
        blockages=blocks,
        detection=DetectionSpec(v_max=0.55, omega_max=0.55, value_floor=0.05,
                                max_tilt_deg=20.0),
    )


def _mini_scenario(seed=3) -> Scenario:
    """Short clean scenario for fast end-to-end tests."""
    base = _sim3d_scenario(seed=seed, blockages=False)
    trajectory = TrajectorySpec(
        waypoints=((5.0, 0.0, 0.0), (4.0, 1.0, 0.0), (4.0, 3.0, 0.0), (2.5, 3.0, 0.2)),
        speeds=(0.35, 0.35, 0.35),
        turn_rate=0.35,
    )
    return Scenario(
        name="mini", seed=seed, room_min=base.room_min, room_max=base.room_max,
        leds=base.leds, receiver=base.receiver, trajectory=trajectory, imu=base.imu,
        rss=base.rss, blockages=(), detection=base.detection, gravity=base.gravity,
    )


def reference_scenarios(seed: int | None = None) -> dict[str, Scenario]:
    """Named scenario fixtures.

    ``sim3d``: 5 x 5 x 5 m room, start at (5, 0, 0), an uphill stretch, a
    mid-run gimbal pitch command, four blockages, IMU noise at 5x the
    tabulated i300 characteristics and 0.1-unit epoch RSS noise.
    ``expA``/``expA_clean``: the five-LED 3.8 x 6.3 x 2.8 m room with a
    rounded-rectangle style planar loop, with and without blockages.
    ``mini``: a short clean run for quick checks.
    """
    kw = {} if seed is None else {"seed": seed}
    return {
        "sim3d": _sim3d_scenario(**kw),
        "sim3d_clean": _sim3d_scenario(blockages=False, **kw),
        "expA": _expa_scenario(**kw),
        "expA_clean": _expa_scenario(blockages=False, **kw),
        "mini": _mini_scenario(**kw),
    }

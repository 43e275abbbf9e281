"""Reference positioning baselines and initialization helpers.

These are the comparison paths for the tightly-coupled estimator:

* per-epoch RSS-only position fixes (level assumption), the classic
  snapshot solver;
* a tilt-aware RSS-only variant that additionally solves pitch and
  heading with the height fixed (heading is unobservable from RSS, so
  its output is expected to be meaningless; it is carried to demonstrate
  exactly that);
* a loosely-coupled VLP/INS filter: attitude from pure gyro
  integration, position/velocity from a Kalman filter driven by the
  per-epoch fixes.

They intentionally trade accuracy for simplicity and are used by the
CLI for comparative runs, not as production paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attitude import quat_from_euler, quat_multiply, quat_to_dcm
from .channel import LedBeacon, ReceiverConfig, SampleFlag, predict_rss
from .state import NavState

#: Fall back to the room center when no better initial guess exists.
_GN_ITERS = 30


def static_leveling(accel_samples) -> tuple[float, float]:
    """Roll and pitch from averaged static specific force (z-up frame)."""
    f = np.mean(np.asarray(accel_samples, dtype=float), axis=0)
    roll = float(np.arctan2(f[1], f[2]))
    pitch = float(-np.arctan2(f[0], np.hypot(f[1], f[2])))
    return roll, pitch


@dataclass
class PositionFix:
    timestamp: float
    position: np.ndarray | None  # photodiode position, room frame
    cov: np.ndarray | None
    n_used: int
    resid_rms: float
    attitude: np.ndarray | None = None  # tilt variant only
    held: bool = False  # repeated last fix (no valid snapshot this epoch)

    @property
    def ok(self) -> bool:
        return self.position is not None


def _usable(samples):
    return [s for s in samples if s.flag is SampleFlag.LOS]


def _inside(p, bounds, margin=0.5) -> bool:
    if bounds is None:
        return bool(np.all(np.isfinite(p)))
    lo, hi = bounds
    return bool(np.all(p >= np.asarray(lo) - margin) and np.all(p <= np.asarray(hi) + margin))


def solve_position_rss(samples, led_map: dict[int, LedBeacon], rx: ReceiverConfig,
                       attitude, p0, fix_height: float | None = None,
                       bounds=None) -> PositionFix:
    """Gauss-Newton RSS fix for the photodiode position at one epoch.

    Solves 3 position dims, or 2 planar dims when ``fix_height`` is
    given.  The attitude is held fixed (level assumption or an external
    attitude).  Numeric Jacobians keep this an independent check on the
    analytic channel derivatives.  Steps are trust-region capped and the
    solution must land inside ``bounds`` (room box) when given.
    """
    usable = _usable(samples)
    n_dims = 2 if fix_height is not None else 3
    if len(usable) < n_dims:
        return PositionFix(samples[0].timestamp if samples else 0.0, None, None,
                           len(usable), np.inf)
    p = np.asarray(p0, dtype=float).copy()
    if fix_height is not None:
        p[2] = fix_height

    def residuals(pos):
        r = []
        for s in usable:
            pred = predict_rss(pos, attitude, led_map[s.led_id], rx)
            r.append(np.nan if pred is None else (pred - s.value) / np.sqrt(s.variance))
        return np.asarray(r)

    h = 1e-6
    step = np.zeros(n_dims)
    for _ in range(_GN_ITERS):
        r = residuals(p)
        good = np.isfinite(r)
        if np.count_nonzero(good) < n_dims:
            return PositionFix(usable[0].timestamp, None, None, len(usable), np.inf)
        J = np.zeros((r.size, n_dims))
        for j in range(n_dims):
            e = np.zeros(3)
            e[j] = h
            J[:, j] = (residuals(p + e) - residuals(p - e)) / (2 * h)
        J = J[good]
        rg = r[good]
        H = J.T @ J
        try:
            step = np.linalg.solve(H + 1e-10 * np.eye(n_dims), -J.T @ rg)
        except np.linalg.LinAlgError:
            return PositionFix(usable[0].timestamp, None, None, len(usable), np.inf)
        norm = np.linalg.norm(step)
        if norm > 0.5:
            step *= 0.5 / norm
        p[:n_dims] += step
        if np.linalg.norm(step) < 1e-10:
            break
    r = residuals(p)
    good = np.isfinite(r)
    if (np.count_nonzero(good) < n_dims or np.linalg.norm(step) > 0.05
            or not _inside(p, bounds)):
        return PositionFix(usable[0].timestamp, None, None, len(usable), np.inf)
    try:
        cov3 = np.zeros((3, 3))
        cov = np.linalg.inv(H + 1e-10 * np.eye(n_dims))
        cov3[:n_dims, :n_dims] = cov
        if fix_height is not None:
            cov3[2, 2] = 1e-6
    except np.linalg.LinAlgError:
        cov3 = np.eye(3)
    rms = float(np.sqrt(np.mean(r[good] ** 2)))
    return PositionFix(usable[0].timestamp, p, cov3, len(usable), rms)


def solve_pose_tilt(samples, led_map, rx, height: float, init_xy, init_pitch=0.0,
                    init_yaw=0.0, bounds=None) -> PositionFix:
    """RSS-only snapshot solving (x, y, pitch, heading) at fixed height.

    The heading column is retained even though a pure-RSS snapshot
    cannot observe it; a weak prior toward the initial guess keeps the
    normal equations solvable and the returned heading is whatever the
    noise picks.
    """
    usable = _usable(samples)
    if len(usable) < 4:
        return PositionFix(samples[0].timestamp if samples else 0.0, None, None,
                           len(usable), np.inf)
    x = np.array([init_xy[0], init_xy[1], init_pitch, init_yaw], dtype=float)

    def residuals(params):
        pos = np.array([params[0], params[1], height])
        q = quat_from_euler(0.0, params[2], params[3])
        r = []
        for s in usable:
            pred = predict_rss(pos, q, led_map[s.led_id], rx)
            r.append(np.nan if pred is None else (pred - s.value) / np.sqrt(s.variance))
        return np.asarray(r)

    h = 1e-6
    step = np.zeros(4)
    for _ in range(_GN_ITERS):
        r = residuals(x)
        good = np.isfinite(r)
        if np.count_nonzero(good) < 4:
            return PositionFix(usable[0].timestamp, None, None, len(usable), np.inf)
        J = np.zeros((r.size, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            J[:, j] = (residuals(x + e) - residuals(x - e)) / (2 * h)
        J = J[good]
        rg = r[good]
        # Regularization keeps the unobservable heading (and near-flat
        # pitch directions) finite.
        H = J.T @ J + np.diag([1e-9, 1e-9, 1e-4, 1e-2])
        try:
            step = np.linalg.solve(H, -J.T @ rg)
        except np.linalg.LinAlgError:
            return PositionFix(usable[0].timestamp, None, None, len(usable), np.inf)
        norm = np.linalg.norm(step)
        if norm > 0.5:
            step *= 0.5 / norm
        x += step
        x[2] = np.clip(x[2], -0.6, 0.6)
        if np.linalg.norm(step) < 1e-10:
            break
    pos = np.array([x[0], x[1], height])
    if (not np.all(np.isfinite(x)) or np.linalg.norm(step) > 0.05
            or not _inside(pos, bounds)):
        return PositionFix(usable[0].timestamp, None, None, len(usable), np.inf)
    r = residuals(x)
    good = np.isfinite(r)
    rms = float(np.sqrt(np.mean(r[good] ** 2))) if good.any() else np.inf
    return PositionFix(usable[0].timestamp, pos, None,
                       len(usable), rms, attitude=quat_from_euler(0.0, x[2], x[3]))


def initial_state(dataset, flags: dict) -> NavState:
    """First-epoch state: leveling + manifest heading + RSS position fix.

    ``flags`` maps (timestamp, led_id) -> SampleFlag, as for
    :meth:`Dataset.epochs_by_time`.
    """
    t0, samples0 = dataset.epochs_by_time(flags)[0]
    pre_mask = dataset.imu.timestamps < t0
    accel = dataset.imu.accel[pre_mask] if pre_mask.any() else dataset.imu.accel[:50]
    roll, pitch = static_leveling(accel)
    yaw = float(dataset.manifest["initial_heading_rad"])
    q0 = quat_from_euler(roll, pitch, yaw)
    room_min = np.asarray(dataset.manifest["room_min"], dtype=float)
    room_max = np.asarray(dataset.manifest["room_max"], dtype=float)
    p0 = 0.5 * (room_min + room_max)
    p0[2] = float(np.mean(dataset.manifest["vehicle_z_range"]))
    led_map = {led.led_id: led for led in dataset.leds}
    fix = solve_position_rss(samples0, led_map, dataset.receiver, q0, p0,
                             bounds=(room_min, room_max))
    if fix.ok:
        # The fix locates the photodiode; shift back by the lever arm.
        p0 = fix.position - quat_to_dcm(q0) @ dataset.receiver.lever_arm_vlp
    return NavState(timestamp=t0, position=p0, velocity=np.zeros(3), attitude=q0)


# ---------------------------------------------------------------------------
# VLP-only trajectory


def vlp_only_trajectory(dataset, flags_by_epoch, variant: str = "level"):
    """Per-epoch snapshot fixes over a whole dataset.

    ``flags_by_epoch`` maps (timestamp, led_id) -> SampleFlag from the
    detector (or all-LOS for the no-detection control).  Returns a list
    of PositionFix (photodiode positions).
    """
    led_map = {led.led_id: led for led in dataset.leds}
    man = dataset.manifest
    room_min = np.asarray(man["room_min"], dtype=float)
    room_max = np.asarray(man["room_max"], dtype=float)
    z_mid = float(np.mean(man["vehicle_z_range"]))
    level_q = np.array([1.0, 0.0, 0.0, 0.0])
    # The tilt variant fixes the photodiode height: vehicle height plus the
    # (level-attitude) vertical lever-arm offset.
    pd_height = z_mid + float(dataset.receiver.lever_arm_vlp[2])
    bounds = (room_min, room_max)
    center_xy = 0.5 * (room_min[:2] + room_max[:2])
    fixes = []
    last_fix = None
    last_xy = center_xy.copy()
    last_pitch, last_yaw = 0.0, float(man["initial_heading_rad"])
    for t, flagged in dataset.epochs_by_time(flags_by_epoch):
        if variant == "tilt":
            fix = solve_pose_tilt(flagged, led_map, dataset.receiver, pd_height,
                                  last_xy, last_pitch, last_yaw, bounds=bounds)
            if not fix.ok:  # retry from a neutral guess
                fix = solve_pose_tilt(flagged, led_map, dataset.receiver, pd_height,
                                      center_xy, 0.0, last_yaw, bounds=bounds)
        else:
            p0 = np.array([last_xy[0], last_xy[1], z_mid])
            fix = solve_position_rss(flagged, led_map, dataset.receiver, level_q, p0,
                                     bounds=bounds)
            if not fix.ok:
                p0 = np.array([center_xy[0], center_xy[1], z_mid])
                fix = solve_position_rss(flagged, led_map, dataset.receiver, level_q,
                                         p0, bounds=bounds)
        if fix.ok:
            last_fix = fix
            last_xy = fix.position[:2].copy()
        elif last_fix is not None:
            # A 1 Hz output must produce something during outages: repeat
            # the previous fix and mark it held.
            fix = PositionFix(timestamp=t, position=last_fix.position.copy(),
                              cov=last_fix.cov, n_used=fix.n_used,
                              resid_rms=np.inf, attitude=last_fix.attitude, held=True)
        fixes.append(fix)
    return fixes


# ---------------------------------------------------------------------------
# Loosely-coupled VLP/INS


@dataclass
class LcResult:
    timestamps: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    attitude: np.ndarray


def run_loosely_coupled(dataset, flags_by_epoch) -> LcResult:
    """Loosely-coupled reference: INS attitude, Kalman position/velocity.

    The attitude comes from integrating the gyroscope from the initial
    alignment (no feedback), matching the classic loose architecture;
    per-epoch RSS position fixes (computed with the INS attitude) update
    a 6-state position/velocity filter.
    """
    x0 = initial_state(dataset, flags_by_epoch)
    gravity = dataset.gravity
    led_map = {led.led_id: led for led in dataset.leds}
    rx = dataset.receiver
    imu = dataset.imu
    R_bv = rx.dcm_body_to_vlp
    bounds = (np.asarray(dataset.manifest["room_min"], dtype=float),
              np.asarray(dataset.manifest["room_max"], dtype=float))

    epochs = dataset.epochs_by_time(flags_by_epoch)
    epoch_idx = 0
    p = x0.position.copy()
    v = np.zeros(3)
    q = x0.attitude.copy()
    P = np.diag([0.05**2] * 3 + [0.05**2] * 3)
    # Process noise: accelerometer white noise plus attitude-drift-induced
    # acceleration error, lumped as an isotropic acceleration density.
    imu_man = dataset.manifest["imu"]
    q_acc = (imu_man["accel_noise_density"] + 9.81 * imu_man["gyro_bias_instability"]
             * 50.0) ** 2

    out_t, out_p, out_v, out_q = [], [], [], []
    ts = imu.timestamps
    for i in range(ts.size - 1):
        dt = float(ts[i + 1] - ts[i])
        R = quat_to_dcm(q) @ R_bv
        a_u = R @ imu.accel[i] + gravity
        p = p + v * dt + 0.5 * a_u * dt**2
        v = v + a_u * dt
        q = quat_multiply(q, np.concatenate(([1.0], 0.5 * (R_bv @ imu.gyro[i]) * dt)))
        F = np.eye(6)
        F[0:3, 3:6] = np.eye(3) * dt
        Q = np.zeros((6, 6))
        Q[3:6, 3:6] = q_acc * dt * np.eye(3)
        Q[0:3, 0:3] = q_acc * dt**3 / 3.0 * np.eye(3)
        P = F @ P @ F.T + Q

        while epoch_idx < len(epochs) and epochs[epoch_idx][0] <= ts[i + 1]:
            t_e, flagged = epochs[epoch_idx]
            pd_guess = p + quat_to_dcm(q) @ rx.lever_arm_vlp
            fix = solve_position_rss(flagged, led_map, rx, q, pd_guess, bounds=bounds)
            if fix.ok:
                z = fix.position - quat_to_dcm(q) @ rx.lever_arm_vlp
                H = np.hstack([np.eye(3), np.zeros((3, 3))])
                R_meas = fix.cov + 1e-6 * np.eye(3)
                S = H @ P @ H.T + R_meas
                K = P @ H.T @ np.linalg.inv(S)
                dx = K @ (z - p)
                p = p + dx[0:3]
                v = v + dx[3:6]
                P = (np.eye(6) - K @ H) @ P
            out_t.append(t_e)
            out_p.append(p.copy())
            out_v.append(v.copy())
            out_q.append(q.copy())
            epoch_idx += 1

    return LcResult(
        timestamps=np.asarray(out_t),
        position=np.asarray(out_p),
        velocity=np.asarray(out_v),
        attitude=np.asarray(out_q),
    )

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

from .attitude import quat_chain, quat_from_euler, quat_to_dcm
from .channel import (
    LedBeacon,
    LedTable,
    ReceiverConfig,
    SampleFlag,
    lambertian,
    receiver_normal,
)
from .state import StateArrays

#: Gauss-Newton iterations of one snapshot fix, unless a step falls below 1e-10.
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
    resid_rms: float
    attitude: np.ndarray | None = None  # tilt variant only
    held: bool = False  # repeated last fix (no valid snapshot this epoch)

    @property
    def ok(self) -> bool:
        return self.position is not None


def _inside(p, bounds, margin=0.5) -> bool:
    if bounds is None:
        return bool(np.all(np.isfinite(p)))
    lo, hi = bounds
    return bool(np.all(p >= np.asarray(lo) - margin) and np.all(p <= np.asarray(hi) + margin))


def _snapshot_fix(samples, led_map: dict[int, LedBeacon], rx: ReceiverConfig, pose, x,
                  regularizer, bounds,
                  limits=None) -> tuple[PositionFix, np.ndarray, np.ndarray | None]:
    """Gauss-Newton fit of the parameters ``x`` (d,) to the LOS rows of one
    epoch's samples (``EPOCH_RSS``).

    ``pose`` maps a (K, d) stack of parameters to photodiode positions and
    room-frame normals, each (K, 3).  Each iteration is one
    :func:`lambertian` call at ``x`` and its 2d central-difference
    neighbors; samples out of the FOV at ``x`` are left out.
    ``regularizer`` (d,) is added to the diagonal of the normal matrix and
    ``limits`` (lo, hi) clip ``x`` after each capped step.  Returns the
    fix (no covariance or attitude), the final ``x`` and normal matrix.
    """
    usable = samples[samples["flag"] == SampleFlag.LOS]
    d = x.size
    failed = PositionFix(float(samples["timestamp"][0]) if len(samples) else 0.0, None, None,
                         np.inf)
    if len(usable) < d:
        return failed, x, None
    table = LedTable.of(led_map.values(), rx)
    li = np.array([table.row[i] for i in usable["led_id"].tolist()])
    value = usable["value"]
    sigma = np.sqrt(usable["variance"])

    def residuals(pos, normal):
        """Whitened residuals (K, S) of K poses, NaN out of the FOV."""
        k = len(pos)
        rows = np.tile(li, k)
        model = lambertian(np.repeat(pos, li.size, axis=0), np.repeat(normal, li.size, axis=0),
                           table.position[rows], table.normal[rows], table.order[rows],
                           table.gain[rows], rx.fov_cos())
        r = (model.rss.reshape(k, -1) - value) / sigma
        return np.where(model.valid.reshape(k, -1), r, np.nan)

    h = 1e-6
    offsets = np.vstack([np.zeros(d), h * np.eye(d), -h * np.eye(d)])
    for _ in range(_GN_ITERS):
        r = residuals(*pose(x + offsets))
        good = np.isfinite(r[0])
        if np.count_nonzero(good) < d:
            return failed, x, None
        J = ((r[1:d + 1] - r[d + 1:]) / (2 * h)).T[good]
        H = J.T @ J + np.diag(regularizer)
        try:
            step = np.linalg.solve(H, -J.T @ r[0, good])
        except np.linalg.LinAlgError:
            return failed, x, None
        norm = np.linalg.norm(step)
        if norm > 0.5:
            step *= 0.5 / norm
        x = x + step
        if limits is not None:
            x = np.clip(x, *limits)
        if np.linalg.norm(step) < 1e-10:
            break
    pos, normal = pose(x[None])
    r = residuals(pos, normal)[0]
    good = np.isfinite(r)
    if (np.count_nonzero(good) < d or not np.all(np.isfinite(x))
            or np.linalg.norm(step) > 0.05 or not _inside(pos[0], bounds)):
        return failed, x, None
    rms = float(np.sqrt(np.mean(r[good] ** 2)))
    return PositionFix(float(usable["timestamp"][0]), pos[0], None, rms), x, H


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
    n_dims = 2 if fix_height is not None else 3
    p = np.asarray(p0, dtype=float).copy()
    if fix_height is not None:
        p[2] = fix_height
    normal = receiver_normal(attitude)

    def pose(X):
        pos = np.tile(p, (len(X), 1))
        pos[:, :n_dims] = X
        return pos, np.broadcast_to(normal, pos.shape)

    fix, _, H = _snapshot_fix(samples, led_map, rx, pose, p[:n_dims],
                              np.full(n_dims, 1e-10), bounds)
    if fix.ok:
        # H was factorized without error in the last step, so it inverts.
        fix.cov = np.zeros((3, 3))
        fix.cov[:n_dims, :n_dims] = np.linalg.inv(H)
        if fix_height is not None:
            fix.cov[2, 2] = 1e-6
    return fix


def solve_pose_tilt(samples, led_map, rx, height: float, init_xy, init_pitch=0.0,
                    init_yaw=0.0, bounds=None) -> PositionFix:
    """RSS-only snapshot solving (x, y, pitch, heading) at fixed height.

    The heading column is retained even though a pure-RSS snapshot
    cannot observe it; a weak prior toward the initial guess keeps the
    normal equations solvable and the returned heading is whatever the
    noise picks.
    """

    def pose(X):
        pos = np.column_stack([X[:, :2], np.full(len(X), height)])
        return pos, receiver_normal(quat_from_euler(0.0, X[:, 2], X[:, 3]))

    x0 = np.array([init_xy[0], init_xy[1], init_pitch, init_yaw], dtype=float)
    # Regularization keeps the unobservable heading (and near-flat pitch
    # directions) finite.
    fix, x, _ = _snapshot_fix(samples, led_map, rx, pose, x0,
                              np.array([1e-9, 1e-9, 1e-4, 1e-2]), bounds,
                              limits=([-np.inf, -np.inf, -0.6, -np.inf],
                                      [np.inf, np.inf, 0.6, np.inf]))
    if fix.ok:
        fix.attitude = quat_from_euler(0.0, x[2], x[3])
    return fix


def initial_state(dataset, flags) -> StateArrays:
    """First-epoch state (a row): leveling + manifest heading + RSS position
    fix, at rest with zero biases.

    ``flags`` holds a SampleFlag code per epoch sample, as for
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
    return StateArrays(t0, p0, np.zeros(3), q0, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# VLP-only trajectory


def vlp_only_trajectory(dataset, flags_by_epoch, variant: str = "level"):
    """Per-epoch snapshot fixes over a whole dataset.

    ``flags_by_epoch`` holds a SampleFlag code per epoch sample, from the
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
            fix = PositionFix(timestamp=t, position=last_fix.position.copy(), cov=last_fix.cov,
                              resid_rms=np.inf, attitude=last_fix.attitude, held=True)
        fixes.append(fix)
    return fixes


# ---------------------------------------------------------------------------
# Loosely-coupled VLP/INS


def run_loosely_coupled(dataset, flags_by_epoch) -> StateArrays:
    """Loosely-coupled reference: INS attitude, Kalman position/velocity.

    The attitude comes from integrating the gyroscope from the initial
    alignment (no feedback), matching the classic loose architecture;
    per-epoch RSS position fixes (computed with the INS attitude) update
    a 6-state position/velocity filter.  The attitude and room-frame
    accelerations of every IMU sample are built before the filter runs.
    Returns one row per epoch, with zero biases (the filter estimates none).
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
    P = np.diag([0.05**2] * 3 + [0.05**2] * 3)
    # Process noise: accelerometer white noise plus attitude-drift-induced
    # acceleration error, lumped as an isotropic acceleration density.
    imu_man = dataset.manifest["imu"]
    q_acc = (imu_man["accel_noise_density"] + 9.81 * imu_man["gyro_bias_instability"]
             * 50.0) ** 2

    ts = imu.timestamps
    dts = np.diff(ts)
    qs = quat_chain(x0.attitude, 0.5 * (R_bv @ imu.gyro[:-1, :, None])[:, :, 0] * dts[:, None])
    Rs = quat_to_dcm(qs)
    acc_u = ((Rs[:-1] @ R_bv) @ imu.accel[:-1, :, None])[:, :, 0] + gravity

    out_t, out_p, out_v, out_q = [], [], [], []
    F = np.eye(6)
    Q = np.zeros((6, 6))
    for i, dt in enumerate(dts.tolist()):
        a_u = acc_u[i]
        p = p + v * dt + 0.5 * a_u * dt**2
        v = v + a_u * dt
        F[0, 3] = F[1, 4] = F[2, 5] = dt
        Q[3, 3] = Q[4, 4] = Q[5, 5] = q_acc * dt
        Q[0, 0] = Q[1, 1] = Q[2, 2] = q_acc * dt**3 / 3.0
        P = F @ P @ F.T + Q

        while epoch_idx < len(epochs) and epochs[epoch_idx][0] <= ts[i + 1]:
            t_e, flagged = epochs[epoch_idx]
            lever_u = Rs[i + 1] @ rx.lever_arm_vlp
            fix = solve_position_rss(flagged, led_map, rx, qs[i + 1], p + lever_u,
                                     bounds=bounds)
            if fix.ok:
                z = fix.position - lever_u
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
            out_q.append(qs[i + 1])
            epoch_idx += 1

    zeros = np.zeros((len(out_t), 3))
    return StateArrays(np.asarray(out_t), np.asarray(out_p), np.asarray(out_v),
                       np.asarray(out_q), zeros, zeros)

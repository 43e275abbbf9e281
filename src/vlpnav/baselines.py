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

import math

import numpy as np

from .attitude import quat_chain, quat_from_euler, quat_to_dcm
from .channel import LedTable, ReceiverConfig, SampleFlag, lambertian, receiver_normal
from .state import StateArrays

#: Gauss-Newton iterations of one snapshot fix, unless a step falls below 1e-10.
_GN_ITERS = 30


def static_leveling(accel_samples) -> tuple[float, float]:
    """Roll and pitch from averaged static specific force (z-up frame)."""
    f = np.mean(np.asarray(accel_samples, dtype=float), axis=0)
    roll = float(np.arctan2(f[1], f[2]))
    pitch = float(-np.arctan2(f[0], np.hypot(f[1], f[2])))
    return roll, pitch


def _snapshot_fix(samples, table: LedTable, rx: ReceiverConfig, pose, x, regularizer, bounds,
                  limits=None):
    """Gauss-Newton fit of the parameters ``x`` (d,) to the LOS rows of one
    epoch's samples (``EPOCH_RSS``).

    ``pose`` maps a (K, d) stack of parameters to photodiode positions and
    room-frame normals, each (K, 3).  Each iteration is one
    :func:`lambertian` call at ``x`` and its 2d central-difference
    neighbors, over LED rows gathered once per fix; samples out of the FOV
    at ``x`` are left out.
    ``regularizer`` (d,) is added to the diagonal of the normal matrix and
    ``limits`` (lo, hi) clip ``x`` after each capped step.  Returns the
    photodiode position, the final ``x`` and normal matrix, or ``None``
    when the fix fails: fewer than d samples in the FOV, a singular normal
    matrix, a last step longer than 0.05, or a position that is not finite
    or lies over 0.5 m outside the room box ``bounds`` (lo, hi).
    """
    usable = samples[samples["flag"] == SampleFlag.LOS]
    d = x.size
    if len(usable) < d:
        return None
    li = np.array([table.row[i] for i in usable["led_id"].tolist()])
    value = usable["value"]
    sigma = np.sqrt(usable["variance"])
    rows = np.tile(li, 2 * d + 1)
    leds = (table.position[rows], table.normal[rows], table.order[rows], table.gain[rows])
    fov_cos = rx.fov_cos()

    def residuals(pos, normal):
        """Whitened residuals (K, S) of K <= 2d + 1 poses, NaN out of the FOV."""
        k, n = len(pos), len(pos) * li.size
        model = lambertian(np.repeat(pos, li.size, axis=0), np.repeat(normal, li.size, axis=0),
                           *(a[:n] for a in leds), fov_cos)
        r = (model.rss.reshape(k, -1) - value) / sigma
        return np.where(model.valid.reshape(k, -1), r, np.nan)

    h = 1e-6
    offsets = np.vstack([np.zeros(d), h * np.eye(d), -h * np.eye(d)])
    damping = np.diag(regularizer)
    for _ in range(_GN_ITERS):
        r = residuals(*pose(x + offsets))
        good = np.isfinite(r[0])
        if np.count_nonzero(good) < d:
            return None
        J = ((r[1:d + 1] - r[d + 1:]) / (2 * h)).T[good]
        H = J.T @ J + damping
        try:
            step = np.linalg.solve(H, -J.T @ r[0, good])
        except np.linalg.LinAlgError:
            return None
        # np.linalg.norm's sum for one vector.  A capped step is 0.5 long,
        # so the uncapped length makes the same decisions below.
        norm = math.sqrt(step.dot(step))
        if norm > 0.5:
            step *= 0.5 / norm
        x = x + step
        if limits is not None:
            x = np.clip(x, *limits)
        if norm < 1e-10:
            break
    pos, normal = pose(x[None])
    lo, hi = bounds
    # NaN fails both box comparisons, so a non-finite position is rejected.
    if (np.count_nonzero(np.isfinite(residuals(pos, normal)[0])) < d
            or not np.all(np.isfinite(x)) or norm > 0.05
            or not (np.all(pos[0] >= lo - 0.5) and np.all(pos[0] <= hi + 0.5))):
        return None
    return pos[0], x, H


def solve_position_rss(samples, table: LedTable, rx: ReceiverConfig, attitude, p0, bounds):
    """Gauss-Newton RSS fix for the photodiode position at one epoch.

    The attitude is held fixed (level assumption or an external
    attitude).  Numeric Jacobians keep this an independent check on the
    analytic channel derivatives.  Steps are trust-region capped and the
    solution must land inside ``bounds`` (the room box).  Returns the
    position and its covariance, or ``None`` when the fix fails.
    """
    normal = receiver_normal(attitude)

    def pose(X):
        return X, np.broadcast_to(normal, X.shape)

    fix = _snapshot_fix(samples, table, rx, pose, np.asarray(p0, dtype=float),
                        np.full(3, 1e-10), bounds)
    # H was factorized without error in the last step, so it inverts.
    return None if fix is None else (fix[0], np.linalg.inv(fix[2]))


def solve_pose_tilt(samples, table: LedTable, rx: ReceiverConfig, height: float, init_xy,
                    init_yaw, bounds):
    """RSS-only snapshot solving (x, y, pitch, heading) at fixed height,
    from zero pitch.  Returns the photodiode position and attitude, or
    ``None`` when the fix fails.

    The heading column is retained even though a pure-RSS snapshot
    cannot observe it; a weak prior toward the initial guess keeps the
    normal equations solvable and the returned heading is whatever the
    noise picks.
    """

    def pose(X):
        pos = np.column_stack([X[:, :2], np.full(len(X), height)])
        return pos, receiver_normal(quat_from_euler(0.0, X[:, 2], X[:, 3]))

    x0 = np.array([init_xy[0], init_xy[1], 0.0, init_yaw], dtype=float)
    # Regularization keeps the unobservable heading (and near-flat pitch
    # directions) finite.
    fix = _snapshot_fix(samples, table, rx, pose, x0, np.array([1e-9, 1e-9, 1e-4, 1e-2]),
                        bounds, limits=([-np.inf, -np.inf, -0.6, -np.inf],
                                        [np.inf, np.inf, 0.6, np.inf]))
    return None if fix is None else (fix[0], quat_from_euler(0.0, fix[1][2], fix[1][3]))


def initial_state(dataset, epoch) -> StateArrays:
    """First-epoch state (a row): leveling + manifest heading + RSS position
    fix, at rest with zero biases.

    ``epoch`` is the first ``(timestamp, samples)`` pair of
    :meth:`Dataset.epochs_by_time`.
    """
    t0, samples0 = epoch
    pre_mask = dataset.imu.timestamps < t0
    accel = dataset.imu.accel[pre_mask] if pre_mask.any() else dataset.imu.accel[:50]
    roll, pitch = static_leveling(accel)
    q0 = quat_from_euler(roll, pitch, dataset.initial_heading_rad)
    room = dataset.room
    p0 = 0.5 * (room[0] + room[1])
    p0[2] = float(np.mean(dataset.vehicle_z_range))
    fix = solve_position_rss(samples0, dataset.led_table, dataset.receiver, q0, p0, room)
    if fix is not None:
        # The fix locates the photodiode; shift back by the lever arm.
        p0 = fix[0] - quat_to_dcm(q0) @ dataset.receiver.lever_arm_vlp
    return StateArrays(t0, p0, np.zeros(3), q0, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# VLP-only trajectory


def vlp_only_trajectory(dataset, flags_by_epoch, variant: str = "level"):
    """Per-epoch snapshot fixes over a whole dataset, as a trajectory of the
    navigation centre.

    ``flags_by_epoch`` holds a SampleFlag code per epoch sample, from the
    detector (or all-LOS for the no-detection control).  The ``level``
    variant fixes the photodiode position under a level attitude; ``tilt``
    fixes (x, y, pitch, heading) at the photodiode's mean height.  Each
    epoch starts from the last fix's xy, then from the room centre.  The
    navigation centre is the photodiode position less the rotated lever
    arm; velocities and biases are zero.  An epoch whose fix fails
    repeats the last fix at its own timestamp; epochs before the first
    fix are left out (no marker row).  Returns the trajectory and the
    number of failed epochs, left out or repeated.
    """
    rx, table, bounds = dataset.receiver, dataset.led_table, dataset.room
    z_mid = float(np.mean(dataset.vehicle_z_range))
    yaw = dataset.initial_heading_rad
    level_q = np.array([1.0, 0.0, 0.0, 0.0])
    # The tilt variant fixes the photodiode height: vehicle height plus the
    # (level-attitude) vertical lever-arm offset.
    pd_height = z_mid + float(rx.lever_arm_vlp[2])
    center_xy = 0.5 * (bounds[0][:2] + bounds[1][:2])

    def solve(samples, xy):
        if variant == "tilt":
            return solve_pose_tilt(samples, table, rx, pd_height, xy, yaw, bounds)
        fix = solve_position_rss(samples, table, rx, level_q, np.append(xy, z_mid), bounds)
        return None if fix is None else (fix[0], level_q)

    ts, pds, qs = [], [], []
    n_failed = 0
    for t, flagged in dataset.epochs_by_time(flags_by_epoch):
        fix = solve(flagged, pds[-1][:2]) if pds else None
        if fix is None:
            fix = solve(flagged, center_xy)
        if fix is None:
            n_failed += 1
            if not pds:
                continue
            fix = pds[-1], qs[-1]
        ts.append(t)
        pds.append(fix[0])
        qs.append(fix[1])
    q = np.reshape(qs, (-1, 4))
    p = np.reshape(pds, (-1, 3)) - quat_to_dcm(q) @ rx.lever_arm_vlp
    zeros = np.zeros_like(p)
    return StateArrays(np.asarray(ts, dtype=float), p, zeros, q, zeros, zeros), n_failed


# ---------------------------------------------------------------------------
# Loosely-coupled VLP/INS


def lc_propagate(p, v, P, acc, dts, q_acc):
    """The LC filter's position, velocity and covariance over one epoch
    interval of IMU steps: room-frame accelerations ``acc`` (m, 3), step
    lengths ``dts`` (m,), white acceleration noise of density ``q_acc``.

    ``v`` and ``p`` are running sums in a per-step loop's order
    (``p += v dt``, then ``p += ½ a dt²``; ``v += a dt``).  The covariance
    takes one ``Φ P Φᵀ + Q_d`` over the whole interval, ``Φ = [[I, T I],
    [0, I]]`` with ``T = Σ dt``; per axis ``Q_d = q_acc [[Σ (dt³/3 + R² dt),
    Σ R dt], [Σ R dt, T]]``, where ``R`` is the interval time left after
    each step.  In exact arithmetic this is the per-step ``F P Fᵀ + Q``.
    """
    v_all = np.cumsum(np.concatenate([v[None], acc * dts[:, None]]), axis=0)
    steps = np.stack([v_all[:-1] * dts[:, None], 0.5 * acc * (dts**2)[:, None]], axis=1)
    rest = np.cumsum(dts[::-1])
    left = np.append(rest[-2::-1], 0.0)
    cross = np.sum(left * dts)
    q = q_acc * np.array([[np.sum(dts**3 / 3.0 + left**2 * dts), cross], [cross, rest[-1]]])
    phi = np.eye(6)
    phi[0, 3] = phi[1, 4] = phi[2, 5] = rest[-1]
    p = np.cumsum(np.concatenate([p[None], steps.reshape(-1, 3)]), axis=0)[-1]
    return p, v_all[-1], phi @ P @ phi.T + np.kron(q, np.eye(3))


def run_loosely_coupled(dataset, flags_by_epoch) -> StateArrays:
    """Loosely-coupled reference: INS attitude, Kalman position/velocity.

    The attitude comes from integrating the gyroscope from the initial
    alignment (no feedback), matching the classic loose architecture;
    per-epoch RSS position fixes (computed with the INS attitude) update
    a 6-state position/velocity filter.  The attitude and room-frame
    accelerations of every IMU sample are built before the filter runs,
    which then propagates one epoch interval at a time
    (:func:`lc_propagate`).  Each epoch is fixed at the first IMU sample at
    or after it, sample 1 at the earliest; epochs past the last sample
    are not output.  Returns one row per epoch, with zero biases (the
    filter estimates none).
    """
    epochs = dataset.epochs_by_time(flags_by_epoch)
    x0 = initial_state(dataset, epochs[0])
    gravity = dataset.gravity
    rx, table, bounds = dataset.receiver, dataset.led_table, dataset.room
    imu = dataset.imu
    R_bv = rx.dcm_body_to_vlp

    p = x0.position.copy()
    v = np.zeros(3)
    P = np.diag([0.05**2] * 3 + [0.05**2] * 3)
    # Process noise: accelerometer white noise plus attitude-drift-induced
    # acceleration error, lumped as an isotropic acceleration density.
    spec = dataset.imu_spec
    q_acc = (spec.accel_noise_density + 9.81 * spec.gyro_bias_instability * 50.0) ** 2

    ts = imu.timestamps
    dts = np.diff(ts)
    qs = quat_chain(x0.attitude, 0.5 * (R_bv @ imu.gyro[:-1, :, None])[:, :, 0] * dts[:, None])
    Rs = quat_to_dcm(qs)
    acc_u = ((Rs[:-1] @ R_bv) @ imu.accel[:-1, :, None])[:, :, 0] + gravity
    ends = np.maximum(np.searchsorted(ts, [t for t, _ in epochs], side="left"), 1)

    out_t, out_p, out_v, out_q = [], [], [], []
    j_prev = 0
    for (t_e, flagged), j in zip(epochs, ends[ends < ts.size].tolist()):
        if j > j_prev:
            p, v, P = lc_propagate(p, v, P, acc_u[j_prev:j], dts[j_prev:j], q_acc)
            j_prev = j
        lever_u = Rs[j] @ rx.lever_arm_vlp
        fix = solve_position_rss(flagged, table, rx, qs[j], p + lever_u, bounds)
        if fix is not None:
            z = fix[0] - lever_u
            H = np.hstack([np.eye(3), np.zeros((3, 3))])
            R_meas = fix[1] + 1e-6 * np.eye(3)
            S = H @ P @ H.T + R_meas
            K = P @ H.T @ np.linalg.inv(S)
            dx = K @ (z - p)
            p = p + dx[0:3]
            v = v + dx[3:6]
            P = (np.eye(6) - K @ H) @ P
        out_t.append(t_e)
        out_p.append(p.copy())
        out_v.append(v.copy())
        out_q.append(qs[j])

    zeros = np.zeros((len(out_t), 3))
    return StateArrays(np.asarray(out_t), np.asarray(out_p), np.asarray(out_v),
                       np.asarray(out_q), zeros, zeros)

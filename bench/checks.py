"""Checks on the files an ``estimate`` run writes, made apart from vlpnav.

Errors are recomputed here from ``trajectory.csv`` and ``truth.csv`` with
numpy alone; the remaining checks are properties the method must have
(accuracy gates, detection of every scheduled blockage, well-formed
trajectories).  Each function returns a list of failure messages.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: Estimates pair with the nearest truth sample within this skew (s).
MAX_SKEW_S = 1e-3
#: Agreement between the recomputed errors and report.json (m).
REPORT_TOL = 1e-9
#: Agreement of the mean inclination error (deg).  vlpnav's metric takes
#: arccos of the dot product of normals built from quaternions read back
#: from 12-digit CSV, so near 0 deg a 1e-12 norm error moves one epoch by
#: up to sqrt(2e-12) rad (8e-5 deg); 1e-9 deg cannot hold.
REPORT_INCL_TOL_DEG = 1e-4
#: Accuracy gates: paper/acceptance bounds.
TC_MAX_ERR3D_M = 0.10
TC_MAX_INCL_DEG = 0.5
LED_MAX_ERR_M = 0.05
#: Raw samples this close to a blockage edge may still read line-of-sight.
DRD_EDGE_S = 0.03


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _normals(q: np.ndarray) -> np.ndarray:
    """Third column of the rotation matrix of each ``[w, x, y, z]`` row."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.column_stack([2.0 * (x * z + w * y), 2.0 * (y * z - w * x),
                            1.0 - 2.0 * (x * x + y * y)])


def trajectory_errors(traj: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Mean 3-D position error (m) and mean normal-angle error (deg)."""
    t_est, t_true = traj[:, 0], truth[:, 0]
    nearest = np.abs(t_est[:, None] - t_true[None, :]).argmin(axis=1)
    keep = np.abs(t_true[nearest] - t_est) <= MAX_SKEW_S
    idx = nearest[keep]
    err3d = np.linalg.norm(traj[keep, 1:4] - truth[idx, 1:4], axis=1)
    n_e, n_t = _normals(traj[keep, 7:11]), _normals(truth[idx, 7:11])
    angle = np.arctan2(np.linalg.norm(np.cross(n_e, n_t), axis=1),
                       np.einsum("ij,ij->i", n_e, n_t))
    return float(err3d.mean()), float(np.rad2deg(angle).mean())


def check_trajectory(path: Path, n_epochs: int, every_epoch: bool = True) -> list[str]:
    """One finite row per epoch (at most, unless ``every_epoch``), increasing
    times, unit quaternions."""
    traj = read_csv(path)
    fails = []
    if traj.shape[0] > n_epochs or (every_epoch and traj.shape[0] != n_epochs):
        fails.append(f"{path.name}: {traj.shape[0]} rows for {n_epochs} epochs")
    if not np.all(np.isfinite(traj)):
        fails.append(f"{path.name}: non-finite values")
    if np.any(np.diff(traj[:, 0]) <= 0):
        fails.append(f"{path.name}: timestamps not increasing")
    norm_err = np.abs(np.linalg.norm(traj[:, 7:11], axis=1) - 1.0)
    if not np.all(norm_err <= 1e-9):
        fails.append(f"{path.name}: quaternion norm off by {np.nanmax(norm_err):.1e}")
    return fails


def check_report(report: dict, err3d: float, incl: float) -> list[str]:
    fails = []
    for key, mine, tol in (("mean_3d", err3d, REPORT_TOL),
                           ("mean_inclination_deg", incl, REPORT_INCL_TOL_DEG)):
        theirs = report.get(key)
        if theirs is None or not abs(theirs - mine) <= tol:
            fails.append(f"report.json {key}={theirs} vs recomputed {mine!r}")
    return fails


def check_tc_accuracy(err3d: float, incl: float) -> list[str]:
    fails = []
    if not err3d <= TC_MAX_ERR3D_M:
        fails.append(f"TC mean 3-D error {err3d:.4f} m > {TC_MAX_ERR3D_M}")
    if not incl <= TC_MAX_INCL_DEG:
        fails.append(f"TC inclination error {incl:.4f} deg > {TC_MAX_INCL_DEG}")
    return fails


def check_led(report: dict, estimate, led_id: int, true_xy) -> list[str]:
    """The unknown LED recovered within 5 cm, not flagged, as reported."""
    if estimate is None:
        return [f"LED {led_id}: no estimate returned"]
    err = float(np.hypot(*(np.asarray(estimate.xy, dtype=float) - true_xy)))
    fails = []
    if estimate.diverged:
        fails.append(f"LED {led_id}: flagged diverged")
    if not err <= LED_MAX_ERR_M:
        fails.append(f"LED {led_id}: planar error {err:.4f} m > {LED_MAX_ERR_M}")
    theirs = report.get("led_errors", {}).get(str(led_id))
    if theirs is None or not abs(theirs - err) <= REPORT_TOL:
        fails.append(f"LED {led_id}: report.json error {theirs} vs recomputed {err!r}")
    return fails


def check_drd(tags_path: Path, schedule: dict, led_ids) -> list[str]:
    """Every scheduled blockage tagged; counters end at two per interval."""
    tags = read_csv(tags_path)
    fails = []
    for led_id in led_ids:
        rows = tags[tags[:, 1] == led_id]
        intervals = schedule.get(led_id, [])
        if rows.shape[0] == 0:
            fails.append(f"LED {led_id}: no detector tags")
            continue
        if int(rows[-1, 3]) != 2 * len(intervals):
            fails.append(f"LED {led_id}: {int(rows[-1, 3])} transitions, "
                         f"expected {2 * len(intervals)}")
        for a, b in intervals:
            inside = (rows[:, 0] >= a + DRD_EDGE_S) & (rows[:, 0] < b - DRD_EDGE_S)
            if not np.all(rows[inside, 2] == 1):
                fails.append(f"LED {led_id}: blockage {a}-{b} s not tagged throughout")
    return fails

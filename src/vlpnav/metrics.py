"""Run evaluation: trajectory error metrics, CDFs and detection scores."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attitude import euler_from_quat
from .channel import SampleFlag, receiver_normal
from .dataio import write_csv

#: Maximum allowed timestamp skew when pairing estimates with truth.
MAX_TIME_SKEW = 1e-3


class DisjointTimeRangesError(ValueError):
    """Estimate and truth time ranges do not overlap."""


@dataclass
class RunReport:
    """Metrics of one estimation run against ground truth."""

    mode: str
    n_epochs: int
    mean_2d: float
    max_2d: float
    mean_3d: float
    max_3d: float
    mean_inclination_deg: float = float("nan")
    max_inclination_deg: float = float("nan")
    mean_heading_deg: float = float("nan")
    cdf: list = field(default_factory=list)  # (error_3d_m, fraction)
    detection_precision: float = float("nan")
    detection_recall: float = float("nan")
    led_errors: dict = field(default_factory=dict)  # led_id -> planar error m
    runtime_s: float = float("nan")
    n_fix_failures: int = 0

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["cdf"] = [[float(e), float(f)] for e, f in self.cdf]
        d["led_errors"] = {str(k): float(v) for k, v in self.led_errors.items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        d = dict(d)
        d["cdf"] = [tuple(x) for x in d.get("cdf", [])]
        d["led_errors"] = {int(k): float(v) for k, v in d.get("led_errors", {}).items()}
        return cls(**d)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path) -> "RunReport":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _align(est_times, truth_times):
    est_times = np.asarray(est_times, dtype=float)
    truth_times = np.asarray(truth_times, dtype=float)
    if est_times.min() > truth_times.max() or est_times.max() < truth_times.min():
        raise DisjointTimeRangesError("estimate and truth time ranges do not overlap")
    idx = np.clip(np.searchsorted(truth_times, est_times), 1, truth_times.size - 1)
    left = truth_times[idx - 1]
    right = truth_times[idx]
    nearest = np.where(np.abs(est_times - left) <= np.abs(right - est_times),
                       idx - 1, idx)
    keep = np.abs(truth_times[nearest] - est_times) <= MAX_TIME_SKEW
    return nearest, keep


def cdf_table(errors) -> list:
    """Monotone CDF of an error sample; ends at fraction 1.0."""
    errors = np.sort(np.asarray(errors, dtype=float))
    n = errors.size
    if n == 0:
        return []
    return [(float(e), float((i + 1) / n)) for i, e in enumerate(errors)]


def _row_dot(a, b):
    """Dot products over the last axis, each rounded as ``ndarray.dot``
    rounds one pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def normal_angle_deg(q_est, q_true):
    """Angle between estimated and true photodiode normals (inclination), as
    ``atan2(|n_e x n_t|, n_e . n_t)``: ``arccos`` of the dot product would
    lose about 1e-8 deg near zero.  One angle per row of ``(K, 4)`` stacks."""
    n_e = receiver_normal(q_est)
    n_t = receiver_normal(q_true)
    cross = np.cross(n_e, n_t)
    return np.rad2deg(np.arctan2(np.sqrt(_row_dot(cross, cross)), _row_dot(n_e, n_t)))


def heading_error_deg(q_est, q_true):
    """Absolute yaw difference, wrapped to [0, 180] deg; per row of stacks."""
    d = euler_from_quat(q_est)[..., 2] - euler_from_quat(q_true)[..., 2]
    return np.rad2deg(np.abs((d + np.pi) % (2.0 * np.pi) - np.pi))


def evaluate_run(mode: str, est_times, est_positions, truth, est_attitudes=None,
                 runtime_s: float = float("nan"), n_fix_failures: int = 0) -> RunReport:
    """Compare an estimated trajectory against truth arrays.

    ``truth`` is a ``state.StateArrays`` (its timestamps, positions and
    attitudes are read); estimates are paired with the nearest truth
    sample (max skew 1 ms).
    """
    est_times = np.asarray(est_times, dtype=float)
    est_positions = np.atleast_2d(np.asarray(est_positions, dtype=float))
    nearest, keep = _align(est_times, truth.timestamps)
    if not keep.any():
        raise DisjointTimeRangesError("no estimate timestamps align with truth")
    pt = truth.position[nearest[keep]]
    pe = est_positions[keep]
    err_vec = pe - pt
    err_2d = np.linalg.norm(err_vec[:, :2], axis=1)
    err_3d = np.linalg.norm(err_vec, axis=1)

    incl = head = np.empty(0)
    if est_attitudes is not None:
        qa = np.atleast_2d(np.asarray(est_attitudes, dtype=float))[keep]
        qt = truth.attitude[nearest[keep]]
        incl = normal_angle_deg(qa, qt)
        head = heading_error_deg(qa, qt)

    return RunReport(
        mode=mode,
        n_epochs=int(keep.sum()),
        mean_2d=float(err_2d.mean()),
        max_2d=float(err_2d.max()),
        mean_3d=float(err_3d.mean()),
        max_3d=float(err_3d.max()),
        mean_inclination_deg=float(np.mean(incl)) if incl.size else float("nan"),
        max_inclination_deg=float(np.max(incl)) if incl.size else float("nan"),
        mean_heading_deg=float(np.mean(head)) if head.size else float("nan"),
        cdf=cdf_table(err_3d),
        runtime_s=runtime_s,
        n_fix_failures=n_fix_failures,
    )


def detection_scores(flags_est, flags_truth) -> tuple[float, float]:
    """Epoch-level precision/recall of the BLOCKED class, any flag but LOS
    counting as blocked.

    The arguments are aligned :class:`SampleFlag` code columns, one entry
    per epoch sample; truth labels come from the simulator schedule,
    estimates from the detector.
    """
    est_blocked = np.asarray(flags_est) != SampleFlag.LOS
    truth_blocked = np.asarray(flags_truth) != SampleFlag.LOS
    tp = np.count_nonzero(est_blocked & truth_blocked)
    fp = np.count_nonzero(est_blocked & ~truth_blocked)
    fn = np.count_nonzero(truth_blocked & ~est_blocked)
    precision = tp / (tp + fp) if (tp + fp) else float("nan")
    recall = tp / (tp + fn) if (tp + fn) else float("nan")
    return precision, recall


def save_cdf_csv(path, report: RunReport) -> None:
    write_csv(path, "error_3d_m,fraction",
              np.asarray(report.cdf, dtype=float).reshape(-1, 2), fmt="%.9g")

"""Dataset directory formats and configuration files.

A simulated dataset directory contains:

* ``imu.csv``        timestamp_s, ax, ay, az, gx, gy, gz (body frame, SI)
* ``rss_raw.csv``    timestamp_s, led_id, value (high-rate demodulated)
* ``rss_epoch.csv``  timestamp_s, led_id, value, variance, flag_truth
* ``truth.csv``      timestamp_s, px..pz, vx..vz, qw..qz, roll, pitch, yaw
  (a ``trajectory.csv`` adds the biases; :func:`load_trajectory` reads both)
* ``leds.json``      array of LED beacon records (SI units)
* ``scenario.json``  the resolved scenario that produced the data
* ``manifest.json``  seed, package version, conventions, file hashes

All angles in CSV files are radians; the manifest records the frame and
gravity conventions so estimators never guess them.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, replace
from importlib import metadata as _metadata
from pathlib import Path

import numpy as np
from numpy.lib.recfunctions import unstructured_to_structured

from .attitude import euler_from_quat
from .channel import EPOCH_RSS, LedBeacon, ReceiverConfig, SampleFlag
from .estimator import ConstraintConfig, EstimatorConfig
from .preint import ImuNoise, ImuStream
from .records import from_record, to_record
from .simulator import EpochRss, Scenario, TruthStream
from .state import StateArrays

try:
    _VERSION = _metadata.version("vlpnav")
except _metadata.PackageNotFoundError:  # running from a source tree
    _VERSION = "0.0.0+src"

MANIFEST_FORMAT = 1


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_csv(path, header: str, rows, fmt: str = "%.12g") -> None:
    """Write ``rows`` (a 2-D or structured array) as CSV under ``header``,
    each value formatted by ``fmt``: the bytes ``np.savetxt`` writes with
    ``delimiter=","`` and ``comments=""``, formatted from ``tolist()`` one
    block of 1,024 rows at a time."""
    rows = np.asarray(rows)
    line = ",".join([fmt] * (len(rows.dtype.names) if rows.dtype.names else rows.shape[1])) + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        for k in range(0, len(rows), 1024):
            f.write("".join([line % tuple(row) for row in rows[k:k + 1024].tolist()]))


def write_dataset(out_dir, scenario: Scenario, truth: TruthStream, imu: ImuStream,
                  raw: np.ndarray, epoch: EpochRss) -> dict:
    """Write a complete dataset directory; returns the manifest dict.

    ``raw`` and ``epoch.samples`` are written as they are: the rows of
    ``rss_raw.csv`` and ``rss_epoch.csv``, as :func:`synthesize_rss`
    returns them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_csv(out / "imu.csv", "timestamp_s,ax,ay,az,gx,gy,gz",
              np.column_stack([imu.timestamps, imu.accel, imu.gyro]))
    write_csv(out / "rss_raw.csv", "timestamp_s,led_id,value", raw)
    write_csv(out / "rss_epoch.csv", "timestamp_s,led_id,value,variance,flag_truth",
              epoch.samples)
    euler = euler_from_quat(truth.attitude)
    write_csv(out / "truth.csv", "timestamp_s,px,py,pz,vx,vy,vz,qw,qx,qy,qz,roll,pitch,yaw",
              np.column_stack([truth.timestamps, truth.position, truth.velocity,
                               truth.attitude, euler]))

    (out / "leds.json").write_text(json.dumps(to_record(scenario.leds), indent=2))
    scenario.to_json(out / "scenario.json")

    z = truth.position[:, 2]
    manifest = {
        "format": MANIFEST_FORMAT,
        "package_version": _VERSION,
        "scenario_name": scenario.name,
        "seed": scenario.seed,
        "gravity": list(scenario.gravity),
        "frame_convention": "room frame z-up; VLP frame x-forward z-up; Hamilton q",
        "epoch_window_s": epoch.window,
        "epoch_rate_hz": scenario.rss.epoch_rate_hz,
        "raw_rate_hz": scenario.rss.raw_rate_hz,
        "rss_epoch_sigma": scenario.rss.epoch_sigma,
        "rss_raw_sigma": scenario.rss.raw_sigma,
        "initial_heading_rad": float(euler[0, 2]),
        "room_min": list(scenario.room_min),
        "room_max": list(scenario.room_max),
        "vehicle_z_range": [float(z.min()), float(z.max())],
        "planar": bool(z.max() - z.min() < 0.05),
        "receiver": to_record(scenario.receiver),
        # The initial biases are part of the truth, hidden from estimators.
        "imu": {k: v for k, v in to_record(scenario.imu).items()
                if k not in ("initial_accel_bias", "initial_gyro_bias")},
        "detection": to_record(scenario.detection),
        "blockages": [list(b) for b in scenario.blockages],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))

    hashes = {
        name: _sha256(out / name)
        for name in ("imu.csv", "rss_raw.csv", "rss_epoch.csv", "truth.csv",
                     "leds.json", "scenario.json")
    }
    manifest["file_sha256"] = hashes
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


@dataclass
class Dataset:
    """In-memory view of a dataset directory: ``raw`` holds the rows of
    ``rss_raw.csv`` (timestamp, led_id, value) and ``epoch_samples`` those
    of ``rss_epoch.csv``, with the ground-truth flags."""

    path: Path
    manifest: dict
    leds: list
    receiver: ReceiverConfig
    imu: ImuStream
    raw: np.ndarray  # (M, 3)
    epoch_samples: np.ndarray  # EPOCH_RSS
    truth: StateArrays | None  # zero biases

    def epochs_by_time(self, flags) -> list[tuple[float, np.ndarray]]:
        """Epoch samples grouped by timestamp, in time order (an epoch's rows
        in file order), with the flag column replaced by ``flags``, one
        :class:`SampleFlag` code per row of ``epoch_samples``.  The
        ground-truth labels are never read."""
        rows = self.epoch_samples.copy()
        rows["flag"] = flags
        rows = rows[np.argsort(rows["timestamp"], kind="stable")]
        times, first = np.unique(rows["timestamp"], return_index=True)
        return list(zip(times.tolist(), np.split(rows, first[1:])))

    @property
    def gravity(self) -> np.ndarray:
        return np.asarray(self.manifest["gravity"], dtype=float)


def _read_rows(path, columns: int, exact: bool = True) -> np.ndarray:
    """The rows of a CSV file after its header line.  Raises ``ValueError``
    naming the file unless it has a row and every row has ``columns``
    numbers (at least that many when not ``exact``)."""
    with warnings.catch_warnings():
        # A file without rows is reported below, not as numpy's warning.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        a = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if len(a) == 0 or (a.shape[1] != columns if exact else a.shape[1] < columns):
        raise ValueError(f"{path}: expected rows of {'' if exact else 'at least '}{columns} "
                         f"numbers, read {a.shape[0]} rows of {a.shape[1]}")
    return a


def load_trajectory(path) -> StateArrays:
    """Read a ``trajectory.csv`` or ``truth.csv`` file: a header, then rows of
    at least 14 numbers, with biases in columns 15-20 if present (zero in a
    ``truth.csv``).  Raises ``ValueError`` on anything else."""
    a = _read_rows(path, 14, exact=False)
    biases = a[:, 14:20] if a.shape[1] >= 20 else np.zeros((len(a), 6))
    return StateArrays(a[:, 0], a[:, 1:4], a[:, 4:7], a[:, 7:11], biases[:, :3], biases[:, 3:])


def _require(ok, path, what: str) -> None:
    if not np.all(ok):
        raise ValueError(f"{path}: {what}")


def load_dataset(path) -> Dataset:
    """Read a dataset directory.  Raises ``ValueError`` naming the file when
    ``imu.csv``, ``rss_raw.csv`` or ``rss_epoch.csv`` has no rows or rows of
    the wrong length, when an RSS file names an LED that is not in
    ``leds.json``, when ``rss_epoch.csv`` holds a negative value, a
    variance that is not positive or a flag that is not a
    :class:`SampleFlag` code, when an LED's rows in ``rss_raw.csv`` do not
    increase strictly in time, and when ``imu.csv`` leaves the interval
    between two epochs without a sample."""
    path = Path(path)
    if not (path / "manifest.json").exists():
        raise FileNotFoundError(f"no manifest.json in {path}")
    manifest = json.loads((path / "manifest.json").read_text())
    leds = [LedBeacon.from_record(r) for r in json.loads((path / "leds.json").read_text())]
    receiver = ReceiverConfig.from_record(manifest["receiver"])

    imu_arr = _read_rows(path / "imu.csv", 7)
    imu = ImuStream(imu_arr[:, 0], imu_arr[:, 1:4], imu_arr[:, 4:7])

    led_ids = [led.led_id for led in leds]
    raw = _read_rows(path / "rss_raw.csv", 3)
    _require(np.isin(raw[:, 1], led_ids), path / "rss_raw.csv", "an LED id is not in leds.json")
    # DRD divides by the spacing of each LED's rows, in file order.
    for led_id in led_ids:
        _require(np.diff(raw[raw[:, 1] == led_id, 0]) > 0.0, path / "rss_raw.csv",
                 "an LED's timestamps do not increase from row to row")
    ep_path = path / "rss_epoch.csv"
    ep = _read_rows(ep_path, 5)
    _require(np.isin(ep[:, 1], led_ids), ep_path, "an LED id is not in leds.json")
    _require(ep[:, 2] >= 0.0, ep_path, "an RSS value is negative")
    _require(ep[:, 3] > 0.0, ep_path, "an RSS variance is not positive")
    _require(np.isin(ep[:, 4], list(SampleFlag)), ep_path,
             f"a flag_truth is not one of {[int(f) for f in SampleFlag]}")
    epoch_samples = unstructured_to_structured(ep, dtype=EPOCH_RSS)
    # Each epoch interval [t_{k-1}, t_k) must hold an IMU sample to pre-integrate.
    first = np.searchsorted(imu.timestamps, np.unique(ep[:, 0]))
    _require(np.diff(first) > 0, path / "imu.csv",
             "no IMU sample between two epochs of rss_epoch.csv")

    truth = load_trajectory(path / "truth.csv") if (path / "truth.csv").exists() else None

    return Dataset(path=path, manifest=manifest, leds=leds, receiver=receiver, imu=imu,
                   raw=raw, epoch_samples=epoch_samples, truth=truth)


# ---------------------------------------------------------------------------
# Estimator configuration files


def estimator_config_from_dict(d: dict, dataset: Dataset) -> EstimatorConfig:
    """Estimator configuration from its record ``d`` laid over dataset defaults.

    ``d`` is the nested form of :class:`EstimatorConfig` (the ``config``
    block of an ``estimate`` run manifest); every key is optional.  The
    base it is laid over is the dataclass defaults except: IMU noise from
    the manifest's IMU characteristics (bias walk = instability *
    sqrt(2 / correlation time)), gravity from the manifest, the height
    constraint (to the receiver's ``pd_height``) on for planar datasets,
    and a 50-state window when ``d`` names unknown LEDs.  Raises
    ``ValueError`` on a key that names no field or a value of the wrong
    type.
    """
    man = dataset.manifest
    imu_man = man["imu"]
    walk = np.sqrt(2.0 / float(imu_man["bias_corr_time"]))
    base = EstimatorConfig(
        imu_noise=ImuNoise(
            accel_density=float(imu_man["accel_noise_density"]),
            gyro_density=float(imu_man["gyro_noise_density"]),
            accel_bias_walk=float(imu_man["accel_bias_instability"] * walk),
            gyro_bias_walk=float(imu_man["gyro_bias_instability"] * walk),
        ),
        gravity=tuple(man["gravity"]),
        constraints=ConstraintConfig(use_height=bool(man.get("planar", False))),
    )
    config = from_record(EstimatorConfig, d, base)
    if config.unknown_led_ids and "window_size" not in d:
        config = replace(config, window_size=50)
    return config

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

from .attitude import euler_from_quat
from .channel import LedBeacon, ReceiverConfig, RssSample, SampleFlag
from .estimator import ConstraintConfig, EstimatorConfig
from .preint import ImuNoise, ImuStream
from .records import from_record, to_record
from .simulator import EpochRss, RawRss, Scenario, TruthStream
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


def write_dataset(out_dir, scenario: Scenario, truth: TruthStream, imu: ImuStream,
                  raw: RawRss, epoch: EpochRss) -> dict:
    """Write a complete dataset directory; returns the manifest dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    imu_arr = np.column_stack([imu.timestamps, imu.accel, imu.gyro])
    np.savetxt(out / "imu.csv", imu_arr, fmt="%.12g", delimiter=",",
               header="timestamp_s,ax,ay,az,gx,gy,gz", comments="")

    rows = []
    for led_id in sorted(raw.times):
        t = raw.times[led_id]
        v = raw.values[led_id]
        rows.append(np.column_stack([t, np.full(t.shape, led_id), v]))
    raw_arr = np.vstack(rows)
    order = np.lexsort((raw_arr[:, 1], raw_arr[:, 0]))
    np.savetxt(out / "rss_raw.csv", raw_arr[order], fmt="%.12g", delimiter=",",
               header="timestamp_s,led_id,value", comments="")

    ep_rows = np.array(
        [
            [s.timestamp, s.led_id, s.value, s.variance,
             {"los": 0, "blocked": 1, "out_of_fov": 2}[s.flag.value]]
            for s in epoch.samples
        ]
    )
    np.savetxt(out / "rss_epoch.csv", ep_rows, fmt="%.12g", delimiter=",",
               header="timestamp_s,led_id,value,variance,flag_truth", comments="")

    euler = np.array([euler_from_quat(q) for q in truth.attitude])
    truth_arr = np.column_stack(
        [truth.timestamps, truth.position, truth.velocity, truth.attitude, euler])
    np.savetxt(out / "truth.csv", truth_arr, fmt="%.12g", delimiter=",",
               header="timestamp_s,px,py,pz,vx,vy,vz,qw,qx,qy,qz,roll,pitch,yaw",
               comments="")

    (out / "leds.json").write_text(json.dumps(to_record(scenario.leds), indent=2))
    scenario.to_json(out / "scenario.json")

    z = truth.position[:, 2]
    roll0, pitch0, yaw0 = euler_from_quat(truth.attitude[0])
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
        "initial_heading_rad": yaw0,
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


_FLAGS = {0: SampleFlag.LOS, 1: SampleFlag.BLOCKED, 2: SampleFlag.OUT_OF_FOV}


@dataclass
class Dataset:
    """In-memory view of a dataset directory."""

    path: Path
    manifest: dict
    leds: list
    receiver: ReceiverConfig
    imu: ImuStream
    raw_times: dict
    raw_values: dict
    epoch_samples: list  # RssSample with ground-truth flags
    truth: StateArrays | None  # zero biases

    @property
    def epoch_times(self) -> np.ndarray:
        return np.unique([s.timestamp for s in self.epoch_samples])

    def epochs_by_time(self, flags: dict) -> list[tuple[float, list]]:
        """Epoch samples grouped by timestamp, in time order, each carrying
        its flag from ``flags`` ((timestamp, led_id) -> SampleFlag, LOS
        where absent).  The ground-truth labels are never read."""
        by_t: dict[float, list] = {}
        for s in self.epoch_samples:
            flag = flags.get((s.timestamp, s.led_id), SampleFlag.LOS)
            by_t.setdefault(s.timestamp, []).append(replace(s, flag=flag))
        return sorted(by_t.items())

    @property
    def gravity(self) -> np.ndarray:
        return np.asarray(self.manifest["gravity"], dtype=float)


def load_trajectory(path) -> StateArrays:
    """Read a ``trajectory.csv`` or ``truth.csv`` file: a header, then rows of
    at least 14 numbers, with biases in columns 15-20 if present (zero in a
    ``truth.csv``).  Raises ``ValueError`` on anything else."""
    with warnings.catch_warnings():
        # A file without rows is reported below, not as numpy's warning.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        a = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if a.shape[1] < 14:  # a file without rows reads as (0, 1)
        raise ValueError(f"{path}: expected rows of at least 14 numbers, "
                         f"read {a.shape[0]} rows of {a.shape[1]}")
    biases = a[:, 14:20] if a.shape[1] >= 20 else np.zeros((len(a), 6))
    return StateArrays(a[:, 0], a[:, 1:4], a[:, 4:7], a[:, 7:11], biases[:, :3], biases[:, 3:])


def load_dataset(path) -> Dataset:
    path = Path(path)
    if not (path / "manifest.json").exists():
        raise FileNotFoundError(f"no manifest.json in {path}")
    manifest = json.loads((path / "manifest.json").read_text())
    leds = [LedBeacon.from_record(r) for r in json.loads((path / "leds.json").read_text())]
    receiver = ReceiverConfig.from_record(manifest["receiver"])

    imu_arr = np.loadtxt(path / "imu.csv", delimiter=",", skiprows=1)
    imu = ImuStream(imu_arr[:, 0], imu_arr[:, 1:4], imu_arr[:, 4:7])

    raw_arr = np.loadtxt(path / "rss_raw.csv", delimiter=",", skiprows=1)
    raw_times: dict[int, np.ndarray] = {}
    raw_values: dict[int, np.ndarray] = {}
    for led_id in np.unique(raw_arr[:, 1]).astype(int):
        mask = raw_arr[:, 1].astype(int) == led_id
        raw_times[int(led_id)] = raw_arr[mask, 0]
        raw_values[int(led_id)] = raw_arr[mask, 2]

    ep_arr = np.loadtxt(path / "rss_epoch.csv", delimiter=",", skiprows=1)
    epoch_samples = [
        RssSample(timestamp=float(r[0]), led_id=int(r[1]), value=float(r[2]),
                  variance=float(r[3]), flag=_FLAGS[int(r[4])])
        for r in np.atleast_2d(ep_arr)
    ]

    truth = load_trajectory(path / "truth.csv") if (path / "truth.csv").exists() else None

    return Dataset(path=path, manifest=manifest, leds=leds, receiver=receiver, imu=imu,
                   raw_times=raw_times, raw_values=raw_values,
                   epoch_samples=epoch_samples, truth=truth)


# ---------------------------------------------------------------------------
# Estimator configuration files


def estimator_config_from_dict(d: dict, dataset: Dataset) -> EstimatorConfig:
    """Estimator configuration from its record ``d`` laid over dataset defaults.

    ``d`` is the nested form of :class:`EstimatorConfig` (the ``config``
    block of an ``estimate`` run manifest); every key is optional.  The
    base it is laid over is the dataclass defaults except: IMU noise from
    the manifest's IMU characteristics (bias walk = instability *
    sqrt(2 / correlation time)), gravity from the manifest, the height
    constraint on for planar datasets at the receiver's ``pd_height``,
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
        constraints=ConstraintConfig(use_height=bool(man.get("planar", False)),
                                     pd_height=dataset.receiver.pd_height),
    )
    config = from_record(EstimatorConfig, d, base)
    if config.unknown_led_ids and "window_size" not in d:
        config = replace(config, window_size=50)
    return config

"""Dataset directory formats: the writer and the one reader of each file.

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
import io
import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from importlib import metadata as _metadata
from pathlib import Path

import numpy as np
from numpy.lib.recfunctions import unstructured_to_structured

from .attitude import QUAT_NORM_TOL, euler_from_quat
from .blockage import DetectionSpec
from .channel import EPOCH_RSS, LedBeacon, LedTable, ReceiverConfig, SampleFlag
from .preint import ImuStream
from .records import decode, to_record
from .simulator import ImuSpec, Scenario, TruthStream
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
                  raw: np.ndarray, samples: np.ndarray) -> dict:
    """Write a complete dataset directory; returns the manifest dict.

    ``raw`` and ``samples`` are written as they are: the rows of
    ``rss_raw.csv`` and ``rss_epoch.csv``, as :func:`synthesize_rss`
    returns them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_csv(out / "imu.csv", "timestamp_s,ax,ay,az,gx,gy,gz",
              np.column_stack([imu.timestamps, imu.accel, imu.gyro]))
    write_csv(out / "rss_raw.csv", "timestamp_s,led_id,value", raw)
    write_csv(out / "rss_epoch.csv", "timestamp_s,led_id,value,variance,flag_truth",
              samples)
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
        "epoch_window_s": 1.0 / scenario.rss.epoch_rate_hz,
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
        "file_sha256": {
            name: _sha256(out / name)
            for name in ("imu.csv", "rss_raw.csv", "rss_epoch.csv", "truth.csv",
                         "leds.json", "scenario.json")
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


@dataclass
class Dataset:
    """In-memory view of a dataset directory: ``raw`` holds the rows of
    ``rss_raw.csv`` (timestamp, led_id, value) and ``epoch_samples`` those
    of ``rss_epoch.csv``, with the ground-truth flags.

    The manifest facts the pipeline reads are decoded once, by
    :func:`load_dataset`: ``receiver``, ``imu_spec`` (the ``imu`` block,
    without the hidden initial biases), ``detection``, ``gravity``,
    ``room`` (``room_min`` and ``room_max``, read-only (3,) arrays),
    ``planar``, ``vehicle_z_range``, ``initial_heading_rad`` and
    ``epoch_window_s``.  ``sha256`` is the provenance hash of the bytes
    read (see :func:`load_dataset`), and ``edited_files`` names the data
    files whose SHA-256 differs from the manifest's ``file_sha256``.
    """

    path: Path
    leds: list
    receiver: ReceiverConfig
    imu_spec: ImuSpec
    detection: DetectionSpec
    gravity: tuple[float, float, float]
    room: tuple[np.ndarray, np.ndarray]
    planar: bool
    vehicle_z_range: tuple[float, float]
    initial_heading_rad: float
    epoch_window_s: float
    imu: ImuStream
    raw: np.ndarray  # (M, 3)
    epoch_samples: np.ndarray  # EPOCH_RSS
    truth: StateArrays | None  # zero biases
    sha256: str
    edited_files: tuple[str, ...]

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

    @cached_property
    def led_table(self) -> LedTable:
        """The LED map as arrays, built once per dataset."""
        return LedTable.of(self.leds, self.receiver)


def _read_rows(path, columns: int, exact: bool = True, data: bytes | None = None) -> np.ndarray:
    """The rows of a CSV file after its header line, parsed from ``data``
    (the file's bytes) when given.  Raises ``ValueError`` naming the file
    unless it has a row and every row has ``columns`` numbers (at least
    that many when not ``exact``)."""
    with warnings.catch_warnings():
        # A file without rows is reported below, not as numpy's warning.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        a = np.loadtxt(path if data is None else io.BytesIO(data), delimiter=",", skiprows=1,
                       ndmin=2)
    if len(a) == 0 or (a.shape[1] != columns if exact else a.shape[1] < columns):
        raise ValueError(f"{path}: expected rows of {'' if exact else 'at least '}{columns} "
                         f"numbers, read {a.shape[0]} rows of {a.shape[1]}")
    return a


def load_trajectory(path, data: bytes | None = None) -> StateArrays:
    """Read a ``trajectory.csv`` or ``truth.csv`` file (from ``data``, its
    bytes, when given): a header, then rows of at least 14 numbers, with
    biases in columns 15-20 if present (zero in a ``truth.csv``).  Raises
    ``ValueError`` on anything else, a quaternion off unit norm by more
    than ``QUAT_NORM_TOL`` included."""
    a = _read_rows(path, 14, exact=False, data=data)
    _require(np.abs(np.linalg.norm(a[:, 7:11], axis=1) - 1.0) <= QUAT_NORM_TOL, path,
             f"a quaternion's norm deviates from 1 by more than {QUAT_NORM_TOL}")
    biases = a[:, 14:20] if a.shape[1] >= 20 else np.zeros((len(a), 6))
    return StateArrays(a[:, 0], a[:, 1:4], a[:, 4:7], a[:, 7:11], biases[:, :3], biases[:, 3:])


def _require(ok, path, what: str) -> None:
    if not np.all(ok):
        raise ValueError(f"{path}: {what}")


#: The manifest keys that :func:`load_dataset` decodes, with their types.
#: Each sets the :class:`Dataset` field of its name, but ``imu`` sets
#: ``imu_spec`` and ``room_min``/``room_max`` set ``room``.
MANIFEST_KEYS = {
    "receiver": ReceiverConfig, "imu": ImuSpec, "detection": DetectionSpec,
    "gravity": tuple[float, float, float], "room_min": tuple[float, float, float],
    "room_max": tuple[float, float, float], "planar": bool,
    "vehicle_z_range": tuple[float, float], "initial_heading_rad": float,
    "epoch_window_s": float, "file_sha256": dict,
}


def _read_manifest(man_path: Path, data: bytes) -> dict:
    """The :data:`MANIFEST_KEYS` of ``manifest.json`` (its bytes ``data``),
    decoded.  Raises ``ValueError`` naming the file on a missing key or a
    value of the wrong type."""
    try:
        man = decode(dict, json.loads(data), "the manifest")
        missing = [key for key in MANIFEST_KEYS if key not in man]
        if missing:
            raise ValueError(f"missing key(s) {', '.join(map(repr, missing))}")
        return {key: decode(tp, man[key], key) for key, tp in MANIFEST_KEYS.items()}
    except ValueError as e:
        raise ValueError(f"{man_path}: {e}") from e


def load_dataset(path) -> Dataset:
    """Read a dataset directory.  Raises ``ValueError`` naming the file when
    ``manifest.json`` lacks a key of :data:`MANIFEST_KEYS` or holds a value
    of the wrong type, when ``leds.json`` is not a list of LED records or
    repeats an id, when
    ``imu.csv``, ``rss_raw.csv`` or ``rss_epoch.csv`` has no rows or rows of
    the wrong length, when an RSS file names an LED that is not in
    ``leds.json``, when ``rss_epoch.csv`` holds a negative value, a
    variance that is not positive or a flag that is not a
    :class:`SampleFlag` code, when an LED's rows in ``rss_raw.csv`` do not
    increase strictly in time, and when ``imu.csv`` leaves the interval
    between two epochs without a sample.

    Each file is read once.  The dataset's ``sha256`` is the SHA-256 of the
    ``sha256sum`` listing (``<hex digest>  <name>`` lines, by name) of the
    files read: ``imu.csv``, ``leds.json``, ``manifest.json``,
    ``rss_epoch.csv``, ``rss_raw.csv`` and ``truth.csv`` when present."""
    path = Path(path)
    if not (path / "manifest.json").exists():
        raise FileNotFoundError(f"no manifest.json in {path}")
    digests = {}

    def read(name: str) -> bytes:
        data = (path / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        return data

    facts = _read_manifest(path / "manifest.json", read("manifest.json"))
    recorded = facts.pop("file_sha256")
    facts["imu_spec"] = facts.pop("imu")
    room = (np.array(facts.pop("room_min")), np.array(facts.pop("room_max")))
    for bound in room:
        bound.flags.writeable = False
    try:
        leds = list(decode(tuple[LedBeacon, ...], json.loads(read("leds.json")), "the map"))
    except ValueError as e:
        raise ValueError(f"{path / 'leds.json'}: {e}") from e
    led_ids = [led.led_id for led in leds]
    _require(len(set(led_ids)) == len(led_ids), path / "leds.json", "the map repeats an id")

    imu_arr = _read_rows(path / "imu.csv", 7, data=read("imu.csv"))
    imu = ImuStream(imu_arr[:, 0], imu_arr[:, 1:4], imu_arr[:, 4:7])

    raw = _read_rows(path / "rss_raw.csv", 3, data=read("rss_raw.csv"))
    _require(np.isin(raw[:, 1], led_ids), path / "rss_raw.csv", "an LED id is not in leds.json")
    # DRD divides by the spacing of each LED's rows, in file order.
    for led_id in led_ids:
        _require(np.diff(raw[raw[:, 1] == led_id, 0]) > 0.0, path / "rss_raw.csv",
                 "an LED's timestamps do not increase from row to row")
    ep_path = path / "rss_epoch.csv"
    ep = _read_rows(ep_path, 5, data=read("rss_epoch.csv"))
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

    truth = (load_trajectory(path / "truth.csv", read("truth.csv"))
             if (path / "truth.csv").exists() else None)

    listing = "".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items()))
    edited = tuple(name for name in sorted(digests)
                   if name != "manifest.json" and recorded.get(name) != digests[name])
    return Dataset(path=path, leds=leds, room=room, imu=imu, raw=raw,
                   epoch_samples=epoch_samples, truth=truth,
                   sha256=hashlib.sha256(listing.encode()).hexdigest(), edited_files=edited,
                   **facts)

"""Descending-Rising Detection (DRD) of light blockages on raw RSS streams.

Visible light cannot pass opaque objects, so a blockage shows up as a
severe descent of the demodulated amplitude followed, when it clears, by
an equally sharp rise back to the line-of-sight level.  Vehicle motion can
only change the RSS at a bounded relative rate, so thresholding the
discrete changing-rate ratio

    (P(t_{i+1}) - P(t_i)) / (dt * P(t_i))

separates blockage edges from motion.  Streams must be sampled well above
the epoch rate (>= 100 Hz) for the difference quotient to be meaningful;
:meth:`DrdDetector.run` checks each LED stream's own timestamps.

Each LED runs an independent two-state machine (UNBLOCKED/BLOCKED) with a
transition counter whose parity equals the current tag (odd = blocked),
matching the plotting convention used for detector traces.  Only the
transitions carry state, so the machine is run from one transition to the
next over the stream's ratio array, not sample by sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LedBeacon, SampleFlag


@dataclass(frozen=True)
class DetectionSpec:
    """Detector motion bounds: the ``detection`` record of a scenario.

    ``v_max`` (m/s) and ``omega_max`` (rad/s) bound the vehicle
    translational and angular rate, and ``max_tilt_deg`` the receiver
    tilt; together they set the largest RSS changing-rate ratio that
    motion alone can produce; the simulator keeps its trajectories
    within the rate bounds.  Samples at or below ``value_floor`` leave
    the ratio undefined.  A record that omits a key takes its default.
    """

    v_max: float = 0.6
    omega_max: float = 0.6
    value_floor: float = 0.05
    max_tilt_deg: float = 25.0

    def __post_init__(self):
        if self.v_max <= 0.0:
            raise ValueError("v_max must be positive")
        if self.omega_max < 0.0:
            raise ValueError("omega_max must be non-negative")


#: Hz: the slowest raw stream the difference quotient is meaningful on.
MIN_RATE_HZ = 100.0
#: Relative slack on the rate check: round-off in nominal 100 Hz timestamps passes.
RATE_RTOL = 1e-6
#: Grid points per axis of the reachable-pose box in :func:`static_threshold_3d`.
THRESHOLD_GRID = 9
#: rad (85 deg): caps the tilt-inflated incidence angle so that tan(psi) stays finite.
PSI_CAP = 1.484


def static_threshold_3d(room_min, room_max, led: LedBeacon, cfg: DetectionSpec) -> float:
    """Worst-case (largest) 3-D threshold over a reachable-pose box.

    Evaluating the motion bound on a causally-safe worst case avoids
    feeding estimator poses back into the detector.  At each grid
    position the receiver incidence angle is inflated by the tilt bound
    analytically (``psi <= psi_geom + max_tilt``, capped at ``PSI_CAP``),
    which dominates any attitude within the bound:

        thr <= tan(psi) w_max + [1/(D cos psi) + m/(D cos theta) + (3+m)/D] v_max

    True motion at any admissible pose stays below the grid max, while
    blockage edges exceed it by orders of magnitude.  Pass the vehicle's
    reachable height range, not the full room, or near-ceiling poses
    inflate the bound.
    """
    axes = (np.linspace(room_min[i], room_max[i], THRESHOLD_GRID) for i in range(3))
    d = led.position - np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    # Row-by-row dot products, so each grid point rounds as a one-point evaluation.
    dist = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_theta = (d[:, None, :] @ led.normal[:, None])[:, 0, 0] / dist
        psi = np.minimum(np.arccos(np.clip(d[:, 2] / dist, -1.0, 1.0))
                         + np.deg2rad(cfg.max_tilt_deg), PSI_CAP)
        cos_psi = np.cos(psi)
        thr = np.tan(psi) * cfg.omega_max + (
            1.0 / (dist * cos_psi)
            + led.order / (dist * cos_theta)
            + (3.0 + led.order) / dist
        ) * cfg.v_max
    best = float(thr[(dist >= 1e-6) & (cos_theta > 1e-3)].max(initial=0.0))
    if best == 0.0:
        raise ValueError("no valid geometry inside the box for this LED")
    return best


class DrdDetector:
    """Per-LED DRD state machines over a multi-LED raw stream.

    Thresholds are fixed per LED at construction; each LED's machine is
    independent.
    """

    def __init__(self, cfg: DetectionSpec, thresholds: dict[int, float]):
        self.cfg = cfg
        self.thresholds = dict(thresholds)

    @classmethod
    def for_scene(cls, cfg: DetectionSpec, leds: list[LedBeacon],
                  room_min, room_max) -> "DrdDetector":
        """Worst-case 3-D thresholds over the box ``room_min``..``room_max``."""
        return cls(cfg, {led.led_id: static_threshold_3d(room_min, room_max, led, cfg)
                         for led in leds})

    def run(self, times, led_ids, values):
        """Detect over an interleaved (timestamp, led_id, value) stream.

        Returns ``{led_id: (times, tags, counters)}`` with counters
        following the odd-equals-blocked plotting convention.  Raises
        ``ValueError`` if an LED stream's median sample spacing says it
        is sampled below ``MIN_RATE_HZ``.
        """
        times = np.asarray(times, dtype=float)
        led_ids = np.asarray(led_ids, dtype=int)
        values = np.asarray(values, dtype=float)
        out = {}
        for led_id in sorted(self.thresholds):
            mask = led_ids == led_id
            t = times[mask]
            v = values[mask]
            if t.size == 0:
                continue
            spacing = float(np.median(np.diff(t))) if t.size > 1 else 0.0
            if spacing * MIN_RATE_HZ > 1.0 + RATE_RTOL:
                raise ValueError(f"LED {led_id} stream is sampled below {MIN_RATE_HZ:g} Hz "
                                 f"(median spacing {spacing:.4g} s)")
            tags, counters = self._detect(t, v, self.thresholds[led_id])
            out[led_id] = (t, tags, counters)
        return out

    def _detect(self, t, v, threshold):
        """Tags and counters of one LED stream, jumping from transition to
        transition.

        The ratios ``(v[i+1] - v[i]) / (dt v[i])`` are one array pass; step
        ``i`` blocks on a ratio below ``-threshold`` or a sample at the
        floor, and unblocks on a ratio above ``threshold``.  While blocked, a
        floor sample's ratio is normalized by the last LOS value instead,
        evaluated at those samples only.  Timestamps must increase.
        """
        # The outputs outlive the temporaries below.  Allocated first, they do
        # not pin the heap above the holes the temporaries leave, which raised
        # the peak RSS of bench/run.py's tc-sim3d workload by 4 MB.
        tags = np.zeros(t.shape, dtype=bool)
        counters = np.zeros(t.shape, dtype=int)
        floor = self.cfg.value_floor
        dt = np.diff(t)
        p = v[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (v[1:] - p) / (dt * p)
        at_floor = p <= floor
        falls = np.flatnonzero((ratio < -threshold) | at_floor)
        rises = np.flatnonzero((ratio > threshold) & ~at_floor)
        floors = np.flatnonzero(at_floor)
        n_steps, count, reference, i = dt.size, 0, v[0], 0
        while True:
            # Unblocked from step i: the state after each step lands at i + 1.
            k = np.searchsorted(falls, i)
            if k == falls.size:
                counters[i:] = count
                return tags, counters
            b = falls[k]
            counters[i:b + 1] = count
            count += 1
            # Every unblocked step above the floor moves the LOS reference.
            if v[b] > floor:
                reference = v[b]
            elif b > i:
                reference = v[b - 1]
            # Blocked from step b + 1 until a rise.
            k = np.searchsorted(rises, b + 1)
            e = rises[k] if k < rises.size else n_steps
            lo, hi = np.searchsorted(floors, [b + 1, e])
            f = floors[lo:hi]
            hit = f[(v[f + 1] - v[f]) / (dt[f] * max(reference, floor)) > threshold]
            if hit.size:
                e = hit[0]
            tags[b + 1:e + 1] = True
            counters[b + 1:e + 1] = count
            if e == n_steps:
                return tags, counters
            count += 1
            i = e + 1


def annotate_epochs(times, tag_times, tags, window: float) -> np.ndarray:
    """:class:`SampleFlag` codes of one LED's epoch samples at ``times``,
    from the detector ``tags`` of its raw samples at ``tag_times``.

    An epoch centered at ``t`` summarizes the demodulation window
    ``[t - window/2, t + window/2)``; if any raw sample inside it is
    tagged blocked, the epoch is flagged BLOCKED (its value already
    carries the partial-window attenuation).  Epochs without raw
    coverage are flagged OUT_OF_FOV, the invalid-measurement marker.
    Variances are kept; the estimator down-weights flagged samples.
    """
    times = np.asarray(times, dtype=float)
    lo = np.searchsorted(tag_times, times - window / 2.0, side="left")
    hi = np.searchsorted(tag_times, times + window / 2.0, side="left")
    tagged = np.concatenate([[0], np.cumsum(tags)])
    return np.where(hi <= lo, SampleFlag.OUT_OF_FOV,
                    np.where(tagged[hi] > tagged[lo], SampleFlag.BLOCKED, SampleFlag.LOS))

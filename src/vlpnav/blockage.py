"""Descending-Rising Detection (DRD) of light blockages on raw RSS streams.

Visible light cannot pass opaque objects, so a blockage shows up as a
severe descent of the demodulated amplitude followed, when it clears, by
an equally sharp rise back to the line-of-sight level.  Vehicle motion can
only change the RSS at a bounded relative rate, so thresholding the
discrete changing-rate ratio

    (P(t_{i+1}) - P(t_i)) / (dt * P(t_i))

separates blockage edges from motion.  Streams must be sampled well above
the epoch rate (>= 100 Hz) for the difference quotient to be meaningful.

Each LED runs an independent two-state machine (UNBLOCKED/BLOCKED) with a
transition counter whose parity equals the current tag (odd = blocked),
matching the plotting convention used for detector traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import LedBeacon, ReceiverConfig, RssSample, SampleFlag


class UndefinedRatioError(ValueError):
    """Changing-rate ratio undefined: the denominator sample is at the floor."""


@dataclass(frozen=True)
class DrdConfig:
    """Detector bounds and stream description.

    ``v_max`` and ``omega_max`` bound the vehicle translational and
    angular rate; they set the largest RSS changing-rate ratio that
    motion alone can produce.  ``mode`` selects where the threshold
    geometry comes from: ``"full_3d"`` evaluates the bound at a pose
    (live feed or worst case over the room), ``"planar"`` uses per-LED
    horizontal/vertical distance hints.
    """

    v_max: float
    omega_max: float = 0.0
    sample_rate: float = 120.0
    mode: str = "full_3d"
    value_floor: float = 1e-12
    #: led_id -> (horizontal distance s, vertical distance h), planar mode
    planar_hints: dict = field(default_factory=dict)
    max_tilt: float = 0.0

    def __post_init__(self):
        if self.sample_rate < 100.0:
            raise ValueError("DRD needs high-rate RSS sampling (>= 100 Hz)")
        if self.v_max <= 0.0:
            raise ValueError("v_max must be positive")
        if self.omega_max < 0.0:
            raise ValueError("omega_max must be non-negative")
        if self.mode not in ("full_3d", "planar"):
            raise ValueError("mode must be 'full_3d' or 'planar'")


@dataclass(frozen=True)
class BlockageState:
    """Per-LED detector state.

    ``reference`` tracks the most recent line-of-sight value; it
    normalizes the rise ratio while the signal sits at the floor.
    """

    blocked: bool = False
    transitions: int = 0
    reference: float = 0.0

    @property
    def tag(self) -> str:
        return "blocked" if self.blocked else "unblocked"


def rate_ratio(p_i: float, p_next: float, dt: float, floor: float = 1e-12) -> float:
    """Discrete RSS changing-rate ratio ``(p_next - p_i) / (dt * p_i)`` in 1/s."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if p_i <= floor:
        raise UndefinedRatioError(f"denominator sample {p_i} at or below floor {floor}")
    return (p_next - p_i) / (dt * p_i)


def threshold_2d(s: float, h: float, order: float, v_max: float) -> float:
    """Planar bound ``(3 + m) s v_max / (s^2 + h^2)`` for a level receiver."""
    if h <= 0.0:
        raise ValueError("vertical distance h must be positive")
    if s < 0.0:
        raise ValueError("horizontal distance s must be non-negative")
    return (3.0 + order) * s * v_max / (s * s + h * h)


def static_threshold_3d(room_min, room_max, led: LedBeacon, rx: ReceiverConfig,
                        cfg: DrdConfig, grid: int = 9, psi_cap: float = 1.484) -> float:
    """Worst-case (largest) 3-D threshold over a reachable-pose box.

    Evaluating the motion bound on a causally-safe worst case avoids
    feeding estimator poses back into the detector.  At each grid
    position the receiver incidence angle is inflated by the tilt bound
    analytically (``psi <= psi_geom + max_tilt``, capped at ``psi_cap``),
    which dominates any attitude within the bound:

        thr <= tan(psi) w_max + [1/(D cos psi) + m/(D cos theta) + (3+m)/D] v_max

    True motion at any admissible pose stays below the grid max, while
    blockage edges exceed it by orders of magnitude.  Pass the vehicle's
    reachable height range, not the full room, or near-ceiling poses
    inflate the bound.
    """
    room_min = np.asarray(room_min, dtype=float)
    room_max = np.asarray(room_max, dtype=float)
    best = 0.0
    xs, ys, zs = (np.linspace(room_min[i], room_max[i], grid) for i in range(3))
    for x in xs:
        for y in ys:
            for z in zs:
                d = led.position - np.array([x, y, z])
                dist = float(np.linalg.norm(d))
                if dist < 1e-6:
                    continue
                cos_theta = float(led.normal @ d / dist)
                if cos_theta <= 1e-3:
                    continue
                psi_geom = np.arccos(np.clip(d[2] / dist, -1.0, 1.0))
                psi = min(psi_geom + cfg.max_tilt, psi_cap)
                cos_psi = np.cos(psi)
                thr = np.tan(psi) * cfg.omega_max + (
                    1.0 / (dist * cos_psi)
                    + led.order / (dist * cos_theta)
                    + (3.0 + led.order) / dist
                ) * cfg.v_max
                best = max(best, float(thr))
    if best == 0.0:
        raise ValueError("no valid geometry inside the box for this LED")
    return best


def drd_step(state: BlockageState, p_i: float, p_next: float, dt: float,
             threshold: float, floor: float = 1e-12) -> BlockageState:
    """Advance one sample pair; pure fold over the stream.

    UNBLOCKED -> BLOCKED on a descent faster than ``-threshold`` (or on an
    undefined ratio, conservatively).  BLOCKED -> UNBLOCKED on a rise
    faster than ``+threshold``; while the signal sits at the floor the
    rise ratio is normalized by the last LOS value instead of the
    vanishing denominator.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if not state.blocked:
        try:
            ratio = rate_ratio(p_i, p_next, dt, floor)
        except UndefinedRatioError:
            return replace(state, blocked=True, transitions=state.transitions + 1)
        if ratio < -threshold:
            return replace(state, blocked=True, transitions=state.transitions + 1,
                           reference=p_i)
        return replace(state, reference=p_i)
    denom = p_i if p_i > floor else max(state.reference, floor)
    ratio = (p_next - p_i) / (dt * denom)
    if ratio > threshold:
        return replace(state, blocked=False, transitions=state.transitions + 1)
    return state


class DrdDetector:
    """Per-LED DRD state machines over a multi-LED raw stream.

    Thresholds are fixed per LED at construction (planar hints or a
    worst-case 3-D bound); each LED's machine is independent.
    """

    def __init__(self, cfg: DrdConfig, thresholds: dict[int, float]):
        self.cfg = cfg
        self.thresholds = dict(thresholds)
        self._states: dict[int, BlockageState] = {}

    @classmethod
    def for_scene(cls, cfg: DrdConfig, leds: list[LedBeacon], rx: ReceiverConfig,
                  room_min=None, room_max=None) -> "DrdDetector":
        thresholds = {}
        for led in leds:
            if cfg.mode == "planar":
                if led.led_id not in cfg.planar_hints:
                    raise ValueError(f"planar mode needs (s, h) hint for LED {led.led_id}")
                s, h = cfg.planar_hints[led.led_id]
                thresholds[led.led_id] = threshold_2d(s, h, led.order, cfg.v_max)
            else:
                if room_min is None or room_max is None:
                    raise ValueError("full_3d mode without a pose feed needs room bounds")
                thresholds[led.led_id] = static_threshold_3d(room_min, room_max, led, rx, cfg)
        return cls(cfg, thresholds)

    def run(self, times, led_ids, values):
        """Detect over an interleaved (timestamp, led_id, value) stream.

        Returns ``{led_id: (times, tags, counters)}`` with counters
        following the odd-equals-blocked plotting convention.
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
            tags = np.zeros(t.shape, dtype=bool)
            counters = np.zeros(t.shape, dtype=int)
            state = BlockageState(reference=float(v[0]))
            for i in range(t.size - 1):
                state = drd_step(state, float(v[i]), float(v[i + 1]), float(t[i + 1] - t[i]),
                                 self.thresholds[led_id], self.cfg.value_floor)
                tags[i + 1] = state.blocked
                counters[i + 1] = state.transitions
            self._states[led_id] = state
            out[led_id] = (t, tags, counters)
        return out


def annotate_epochs(samples: list[RssSample], raw_times, raw_tags, window: float,
                    blocked_variance: float | None = None) -> list[RssSample]:
    """Flag epoch samples from one LED's raw detector tags.

    An epoch centered at ``t`` summarizes the demodulation window
    ``[t - window/2, t + window/2)``; if any raw sample inside it is
    tagged blocked, the epoch is flagged BLOCKED (its value already
    carries the partial-window attenuation).  Epochs without raw
    coverage are flagged OUT_OF_FOV, the invalid-measurement marker.
    """
    raw_times = np.asarray(raw_times, dtype=float)
    raw_tags = np.asarray(raw_tags, dtype=bool)
    out = []
    for s in samples:
        lo = np.searchsorted(raw_times, s.timestamp - window / 2.0, side="left")
        hi = np.searchsorted(raw_times, s.timestamp + window / 2.0, side="left")
        if hi <= lo:
            flag = SampleFlag.OUT_OF_FOV
        elif raw_tags[lo:hi].any():
            flag = SampleFlag.BLOCKED
        else:
            flag = SampleFlag.LOS
        variance = s.variance
        if flag is not SampleFlag.LOS and blocked_variance is not None:
            variance = blocked_variance
        out.append(RssSample(timestamp=s.timestamp, led_id=s.led_id, value=s.value,
                             variance=variance, flag=flag))
    return out

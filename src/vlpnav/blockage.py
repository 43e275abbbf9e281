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
matching the plotting convention used for detector traces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import LedBeacon, ReceiverConfig, SampleFlag


class UndefinedRatioError(ValueError):
    """Changing-rate ratio undefined: the denominator sample is at the floor."""


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


@dataclass(frozen=True)
class BlockageState:
    """Per-LED detector state.

    ``reference`` tracks the most recent line-of-sight value; it
    normalizes the rise ratio while the signal sits at the floor.
    """

    blocked: bool = False
    transitions: int = 0
    reference: float = 0.0


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


#: Hz: the slowest raw stream the difference quotient is meaningful on.
MIN_RATE_HZ = 100.0
#: Relative slack on the rate check: round-off in nominal 100 Hz timestamps passes.
RATE_RTOL = 1e-6
#: Grid points per axis of the reachable-pose box in :func:`static_threshold_3d`.
THRESHOLD_GRID = 9
#: rad (85 deg): caps the tilt-inflated incidence angle so that tan(psi) stays finite.
PSI_CAP = 1.484


def static_threshold_3d(room_min, room_max, led: LedBeacon, rx: ReceiverConfig,
                        cfg: DetectionSpec) -> float:
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

    Thresholds are fixed per LED at construction; each LED's machine is
    independent.
    """

    def __init__(self, cfg: DetectionSpec, thresholds: dict[int, float]):
        self.cfg = cfg
        self.thresholds = dict(thresholds)

    @classmethod
    def for_scene(cls, cfg: DetectionSpec, leds: list[LedBeacon], rx: ReceiverConfig,
                  room_min, room_max) -> "DrdDetector":
        """Worst-case 3-D thresholds over the box ``room_min``..``room_max``."""
        return cls(cfg, {led.led_id: static_threshold_3d(room_min, room_max, led, rx, cfg)
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
            tags = np.zeros(t.shape, dtype=bool)
            counters = np.zeros(t.shape, dtype=int)
            state = BlockageState(reference=float(v[0]))
            for i in range(t.size - 1):
                state = drd_step(state, float(v[i]), float(v[i + 1]), float(t[i + 1] - t[i]),
                                 self.thresholds[led_id], self.cfg.value_floor)
                tags[i + 1] = state.blocked
                counters[i + 1] = state.transitions
            out[led_id] = (t, tags, counters)
        return out


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

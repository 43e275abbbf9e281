"""Tightly-coupled VLP/INS navigation engine.

Fuses Lambertian RSS measurements from ceiling LEDs with IMU
pre-integration in a sliding-window nonlinear least-squares graph,
detects light blockages on the raw RSS stream, and ships a deterministic
simulator plus reference baselines for comparison runs.
"""

from .channel import EPOCH_RSS, LedBeacon, ReceiverConfig, SampleFlag
from .estimator import (
    EstimatorConfig,
    SlidingWindow,
    TightlyCoupledEstimator,
)
from .preint import ImuNoise, ImuStream
from .simulator import Scenario, reference_scenarios

__all__ = [
    "EPOCH_RSS",
    "EstimatorConfig",
    "ImuNoise",
    "ImuStream",
    "LedBeacon",
    "ReceiverConfig",
    "SampleFlag",
    "Scenario",
    "SlidingWindow",
    "TightlyCoupledEstimator",
    "reference_scenarios",
]

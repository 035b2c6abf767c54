"""EKF beam tracking with complex-comparison monopulse measurements."""

from .channel import ArrayConfig, ChannelRealization, PilotConfig
from .ekf import TrackerState
from .geometry import SpatialState
from .harness import ScenarioConfig, run_experiment, run_trial
from .misalign import DetectConfig
from .monopulse import MonopulseMeasurement

__all__ = [
    "ArrayConfig",
    "ChannelRealization",
    "DetectConfig",
    "MonopulseMeasurement",
    "PilotConfig",
    "ScenarioConfig",
    "SpatialState",
    "TrackerState",
    "run_experiment",
    "run_trial",
]

__version__ = "0.1.0"

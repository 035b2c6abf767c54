"""EKF beam tracking with complex-comparison monopulse measurements."""

from .channel import ArrayConfig, PilotConfig
from .ekf import TrackerState
from .harness import ScenarioConfig, run_experiment, run_trial
from .monopulse import MonopulseMeasurement

__all__ = [
    "ArrayConfig",
    "MonopulseMeasurement",
    "PilotConfig",
    "ScenarioConfig",
    "TrackerState",
    "run_experiment",
    "run_trial",
]

__version__ = "0.1.0"

"""EKF beam tracking with complex-comparison monopulse measurements."""

from .ekf import TrackerState
from .harness import ScenarioConfig, run_experiment, run_trial
from .monopulse import MonopulseMeasurement

__all__ = [
    "MonopulseMeasurement",
    "ScenarioConfig",
    "TrackerState",
    "run_experiment",
    "run_trial",
]

__version__ = "0.1.0"

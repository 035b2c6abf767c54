"""Exception types shared across the tracking library."""


class BeamtrackError(Exception):
    """Base class for library-specific failures."""


class MeasurementFailure(BeamtrackError):
    """No usable measurement could be formed for the current frame.

    Nothing in beamtrack raises it any more: a failed measurement is a NaN row,
    which ekf.settle turns into a predict-only frame.  It stays defined because
    the benchmark's tracer (bench/tracing.py) imports it.
    """


class DegenerateInputError(BeamtrackError):
    """An input is structurally unusable (e.g. an all-zero snapshot)."""


class ConfigError(BeamtrackError):
    """A scenario configuration is invalid or inconsistent."""

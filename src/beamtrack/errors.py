"""Exception types shared across the tracking library."""


class BeamtrackError(Exception):
    """Base class for library-specific failures."""


class MeasurementFailure(BeamtrackError):
    """No usable measurement could be formed for the current frame.

    Nothing in beamtrack raises it any more: a failed measurement, an all-zero
    snapshot's included, is a NaN row, which ekf.update turns into a
    predict-only frame of that trial alone.  It stays defined because
    the benchmark's tracer (bench/tracing.py) imports it.
    """


class ConfigError(BeamtrackError):
    """A scenario configuration is invalid or inconsistent."""

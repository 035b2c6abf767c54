"""Shared fixtures and snapshot builders for the test suite."""

import os

# The codebook tracker's 128 x 128 solve rounds differently with more than one
# OpenBLAS thread, so its output bits depend on the thread count; the golden
# hashes are recorded with one thread, as the benchmark runs.  A set thread count
# also lets a run of many trials use every core (harness.shard_count).  OpenBLAS reads
# the variable when numpy is first imported, so this precedes every import of it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest

from beamtrack import harness
from beamtrack.channel import channel_matrix
from beamtrack.harness import ScenarioConfig


@pytest.fixture(autouse=True)
def end_shard_workers():
    """End the shard workers each test's runs forked: a worker runs the code as it was when it
    was forked, so the next test's runs fork their own, which see that test's monkeypatches."""
    yield
    harness._stop_workers()


def rank1_snapshot(u: float, v: float, cfg: ScenarioConfig, gain: complex = 1.0 + 0.0j) -> np.ndarray:
    """Noiseless channel snapshot (unit pilot symbol) at spatial angles (u, v) on cfg's array."""
    return channel_matrix(gain, np.array([u, v]), cfg)


@pytest.fixture
def cfg8() -> ScenarioConfig:
    return ScenarioConfig(n_x=8, n_y=8)


@pytest.fixture
def cfg4() -> ScenarioConfig:
    return ScenarioConfig(n_x=4, n_y=4)

"""Addressable counter-based random streams."""

import numpy as np
import pytest

from beamtrack import rng as rngmod


def test_same_key_same_stream():
    a = rngmod.stream(7, 3, 12, "pilot").normal(size=8)
    b = rngmod.stream(7, 3, 12, "pilot").normal(size=8)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("field", ["seed", "trial", "frame", "purpose"])
def test_distinct_keys_distinct_streams(field):
    base = dict(seed=1, trial=2, frame=3, purpose="process")
    other = dict(base)
    if field == "purpose":
        other["purpose"] = "pilot"
    else:
        other[field] = base[field] + 1
    a = rngmod.stream(**base).normal(size=8)
    b = rngmod.stream(**other).normal(size=8)
    assert not np.array_equal(a, b)


def test_order_independence():
    keys = [(0, t, f, "data") for t in range(3) for f in range(3)]
    forward = {k: rngmod.stream(*k).normal(size=4) for k in keys}
    backward = {k: rngmod.stream(*k).normal(size=4) for k in reversed(keys)}
    for k in keys:
        assert np.array_equal(forward[k], backward[k])


def test_unknown_purpose_rejected():
    with pytest.raises(KeyError):
        rngmod.stream(0, 0, 0, "bogus")


def test_purpose_tags_stable():
    # stream keys bake these integers in; renumbering breaks reproducibility
    assert rngmod.PURPOSES == {
        "init": 1, "process": 2, "gain": 3, "pilot": 4, "data": 5, "realign": 6,
    }


def _fresh(seed, trial, frame, purpose):
    """A new generator with the documented key, built the way numpy builds one."""
    mix = rngmod._mix64
    key_lo = mix(seed ^ mix(trial))
    key_hi = mix((frame << 8) ^ rngmod.PURPOSES[purpose] ^ mix(seed + 0x5555))
    return np.random.Generator(np.random.Philox(key=(key_lo, key_hi))), (key_lo, key_hi)


def test_rekeyed_stream_draws_equal_a_fresh_generator():
    purposes = list(rngmod.PURPOSES)
    halves = set()
    for i in range(1200):
        key = (i % 7, i // 7 % 13, i // 91 + (i % 3) * 1000, purposes[i % len(purposes)])
        fresh, (lo, hi) = _fresh(*key)
        halves.add((lo >= 2**63, hi >= 2**63, key[3]))
        got = rngmod.stream(*key)
        assert np.array_equal(got.normal(size=5), fresh.normal(size=5)), key
        assert np.array_equal(got.uniform(-1.0, 1.0, 3), fresh.uniform(-1.0, 1.0, 3)), key
        # leaves half a word buffered, which the next key must not see
        assert got.integers(2**32, dtype=np.uint32) == fresh.integers(2**32, dtype=np.uint32)
    # every purpose with each half below and at or above 2**63
    assert halves == {(a, b, p) for a in (False, True) for b in (False, True) for p in purposes}


def test_second_call_rekeys_the_first_generator():
    first = rngmod.stream(0, 1, 2, "pilot")
    second = rngmod.stream(0, 1, 3, "pilot")
    assert first is second
    assert np.array_equal(first.normal(size=4), _fresh(0, 1, 3, "pilot")[0].normal(size=4))


def test_trial_draws_equal_each_trials_stream():
    # the gain innovation: two normals per trial
    trials, s = [0, 3, 4, 9], 0.007
    z = rngmod.trial_normals(5, rngmod.trial_keys(5, trials), [11], "gain", 2)
    assert z.shape == (1, len(trials), 2)
    for row, t in zip(z[0], trials):
        assert np.array_equal(row, rngmod.stream(5, t, 11, "gain").standard_normal(2))
        # scaled, as the steps that read them scale them, they are Generator.normal's values
        assert np.array_equal(s * row, rngmod.stream(5, t, 11, "gain").normal(0.0, s, 2))
    # the realignment residual: a non-contiguous subset of the trials
    subset, r = [1, 4, 7], 0.02
    block = r * rngmod.trial_normals(5, rngmod.trial_keys(5, subset), [11], "realign", 2)[0]
    for row, t in zip(block, subset):
        assert np.array_equal(row, rngmod.stream(5, t, 11, "realign").normal(0.0, r, 2))


def test_trial_draws_beyond_4096_trials_equal_each_trials_stream():
    # a block mixes each trial's key half once, however many trials it has
    trials = range(4200)
    z = rngmod.trial_normals(2, rngmod.trial_keys(2, trials), [1, 2], "pilot", 3)
    for j, frame in enumerate([1, 2]):
        for t in (0, 4095, 4096, 4097, 4199):
            assert np.array_equal(z[j, t], rngmod.stream(2, t, frame, "pilot").standard_normal(3))

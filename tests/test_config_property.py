"""Property: any JSON object given to `track run --config` exits 0, 2 or 3.

Keys are ScenarioConfig fields plus unknown names; values range over every
JSON type, the float extremes and each limit of the field's rule in
`harness.FIELD_RULES` with the next value outside it.  Each example starts
from frames=2, trials=1 and a random scheme.  The int fields whose range has
no upper limit size the run (array, frames, trials, codebook) and are drawn
only from small values or wrong types, so no example allocates more than a
few MB.

Random examples seldom set one field to an extreme with every other field at
its default, so a second test runs each field at each extreme alone and
requires a finished run to have a finite, non-negative MSE and bound.  Every
Kalman update of such a run must see a finite, symmetric, positive-semidefinite
innovation covariance S = G P^- G^T + Q_n and leave a posterior P^+ with a
finite, non-negative diagonal.

A third test pins the accept/reject verdict of ScenarioConfig on each field,
scheme and value of a fixed grid by hash, as tests/test_golden.py pins output
bytes, so a change to a rule shows as a changed verdict.
"""

import dataclasses
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beamtrack import baselines, ekf, harness
from beamtrack.cli import main
from beamtrack.errors import ConfigError
from beamtrack.harness import FIELD_RULES, SCHEMES, ScenarioConfig, run_experiment

FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)]
INT_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig) if f.type.startswith("int")}
RANGES = {name: rule[:2] for name, rule in FIELD_RULES.items() if not isinstance(rule[0], str)}
SIZE_FIELDS = tuple(name for name, (_, hi) in RANGES.items() if name in INT_FIELDS and hi == math.inf)

WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
EXTREMES = st.sampled_from([1e308, -1e308, math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324])
HUGE_INTS = st.one_of(st.integers(min_value=2**63), st.integers(max_value=-2**63))
CHOICES = [c for rule in FIELD_RULES.values() if isinstance(rule[0], str) for c in rule]
# ekf.jacobian owns the Jacobian modes, so the table has no row for them
MODE_STRINGS = list(dict.fromkeys([*SCHEMES, *CHOICES, "paper-approx", "exact"]))
MODES = st.sampled_from(MODE_STRINGS)
ANY_VALUE = st.one_of(
    WRONG_TYPES,
    EXTREMES,
    HUGE_INTS,
    MODES,
    st.integers(-10, 10),
    st.floats(-50.0, 50.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
SIZE_VALUE = st.one_of(WRONG_TYPES, EXTREMES, st.integers(-2, 4))
UNKNOWN_KEY = st.text(min_size=1, max_size=8).filter(lambda k: k not in FIELDS)


def limit_values(name: str) -> list:
    """Each finite limit of a field's range and the next value outside it."""
    values = []
    for limit, outward in zip(RANGES.get(name, ()), (-1, 1)):
        if math.isfinite(limit):
            beyond = limit + outward if name in INT_FIELDS else math.nextafter(limit, outward * math.inf)
            values += [limit, beyond]
    return values


@st.composite
def configs(draw) -> dict:
    keys = draw(st.lists(st.one_of(st.sampled_from(FIELDS), UNKNOWN_KEY), max_size=5, unique=True))
    cfg = {"frames": 2, "trials": 1, "scheme": draw(st.sampled_from(SCHEMES))}
    for key in keys:
        value = SIZE_VALUE if key in SIZE_FIELDS else ANY_VALUE
        limits = limit_values(key)
        cfg[key] = draw(st.one_of(value, st.sampled_from(limits)) if limits else value)
    return cfg


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_any_json_object_exits_0_2_or_3(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out", tmp])
    assert result.exit_code in (0, 2, 3), (cfg, result.output, result.exc_info)
    assert "Traceback" not in result.output


SINGLE_EXTREMES = [
    1e308, -1e308, 5e-324, -5e-324, sys.float_info.min, 0.0, -0.0, 0, 1, -1, 2**53 + 1,
    math.nan, math.inf, -math.inf, None, True,
]


def _filter_problems(pred, g_mat, q_n, post) -> list[str]:
    """What is wrong with one update's S = G P^- G^T + Q_n and, if it returned, its P^+."""
    s = g_mat @ pred.p @ g_mat.T + q_n
    if not np.isfinite(s).all():
        return ["S not finite"]
    problems = []
    # scaled to a largest entry of 1 (S may hold 1e308); G P G^T is symmetric only up to
    # the round-off of its two products, and eigvalsh reads the lower triangle
    scaled = s / max(np.abs(s).max(), np.finfo(float).tiny)
    if np.abs(scaled - scaled.T).max() > 1e-12:
        problems.append("S not symmetric")
    if np.linalg.eigvalsh(scaled).min() < -1e-12:
        problems.append("S not positive semidefinite")
    if post is not None and not (np.isfinite(post.p).all() and (np.diag(post.p) >= 0).all()):
        problems.append("P+ diagonal not finite and non-negative")
    return problems


def _batch_problems(pred, r, g_mat, q_n, r_hat, out) -> list[str]:
    """_filter_problems of each trial of a batched update.  A trial that enters with a
    failed measurement (NaN in r, G, Q_n or r_hat) gets no update and no check; one whose
    gain is NaN (its S is singular) has its S checked and no P^+."""
    batch = pred.x.shape[:-1]
    r_hat = 0.0 if r_hat is None else r_hat
    r, r_hat = (np.broadcast_to(v, batch + np.shape(r)[-1:]) for v in (r, r_hat))
    g_mat = np.broadcast_to(g_mat, batch + np.shape(g_mat)[-2:])
    q_n = np.broadcast_to(q_n, batch + np.shape(q_n)[-2:])
    problems = []
    for i in np.ndindex(batch):
        if any(np.isnan(v[i]).any() for v in (r, g_mat, q_n, r_hat)):
            continue
        one = ekf.TrackerState(pred.x[i], pred.p[i])
        post = None if np.isnan(out[2][i]).any() else ekf.TrackerState(out[0].x[i], out[0].p[i])
        problems.extend(_filter_problems(one, g_mat[i], q_n[i], post))
    return problems


@pytest.fixture
def checked_update(monkeypatch):
    """Wraps ekf.update where the trackers look it up, as the benchmark's tracer does;
    the list collects every problem its checks find."""
    problems = []

    def checked(pred, r, g_mat, q_n, r_hat=None):
        out = ekf.update(pred, r, g_mat, q_n, r_hat)
        problems.extend(_batch_problems(pred, r, g_mat, q_n, r_hat, out))
        return out

    for module in (harness, baselines):
        monkeypatch.setattr(module, "update", checked)
    return problems


def _check_run(cfg: ScenarioConfig, problems: list, label) -> None:
    """Run cfg and check its outputs and every filter update it made."""
    summary = run_experiment(cfg)
    assert all(math.isfinite(m) and m >= 0 for m in summary.per_frame_mse), label
    assert all(b is None or (math.isfinite(b) and b >= 0) for b in summary.per_frame_bound)
    # a computed bound is never lost to an overflow: only frames without a bound have none
    for rec in summary.trace:
        if cfg.scheme == "proposed" and rec.meas_valid:
            assert math.isfinite(rec.bound) and rec.bound >= 0, (label, rec)
    assert not problems, (label, sorted(set(problems)))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("field", FIELDS)
def test_single_field_extreme_is_rejected_or_runs(field, scheme, checked_update):
    # size fields get small ints and 2**63, which sizes no array numpy can address;
    # 2**63 trials is an endless run of small arrays, so trials gets no huge value
    if field in SIZE_FIELDS:
        huge = [] if field == "trials" else [2**63]
        values = [v for v in SINGLE_EXTREMES if v != 2**53 + 1] + [2, 3, 4] + huge
    else:
        # exact floats beyond int64, accepted as ints, reach numpy as Python objects
        values = SINGLE_EXTREMES + [2**63, 2**64, 2**70, -2**70]
    for value in values + limit_values(field):
        try:
            cfg = ScenarioConfig(**{"frames": 3, "trials": 1, "scheme": scheme, field: value})
        except ConfigError:
            continue
        _check_run(cfg, checked_update, (field, value))


# valid configs whose S is singular (the first two) or whose exact Jacobian meets the
# tan singularity: every such frame is predict-only
SINGULAR_CONFIGS = [
    {"sigma_u": 0, "sigma_v": 0, "sigma_init": 0, "sigma_n_sq": 0, "frames": 3, "trials": 1},
    {"sigma_u": 0, "sigma_v": 0, "sigma_init": 0, "sigma_n_sq": 0, "frames": 3, "trials": 1,
     "scheme": "abp", "abp_q_n": "fixed"},
    {"jacobian_mode": "exact", "height_ratio": 0.01, "frames": 20, "trials": 5},
]


@pytest.mark.parametrize("fields", SINGULAR_CONFIGS)
def test_singular_config_runs(fields, checked_update):
    _check_run(ScenarioConfig(**fields), checked_update, fields)


# every limit in FIELD_RULES with the floats (and, for an int limit, the ints) beside it
LIMITS = [limit for pair in RANGES.values() for limit in pair]
VERDICT_VALUES = list({(type(v), repr(v)): v for v in [
    *SINGLE_EXTREMES, *MODE_STRINGS, 2**63,
    *(v for x in LIMITS for v in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))),
    *(v for x in LIMITS if isinstance(x, int) for v in (x - 1, x + 1)),
]}.values())


def _verdicts(field: str) -> list:
    """Whether ScenarioConfig accepts each value of the field on each scheme, sorted."""
    out = []
    for scheme in SCHEMES:
        for value in VERDICT_VALUES:
            try:
                ScenarioConfig(**{"scheme": scheme, field: value})
                out.append((scheme, repr(value), "accept"))
            except ConfigError:
                out.append((scheme, repr(value), "reject"))
    return sorted(out)


def _digest(verdicts: list) -> str:
    return hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()[:16]


# sha256 prefixes of each field's sorted verdicts on VERDICT_VALUES.  A changed rule changes
# its field's hash; a changed limit also changes the values, and so every hash
GOLDEN_VERDICTS = {
    "n_x": "7d8aeca3b711952d",
    "n_y": "7d8aeca3b711952d",
    "scheme": "0385427a68e8113d",
    "frames": "c9a4d05d2720caa4",
    "trials": "b9826ed8ff63fc66",
    "snr_db": "3d996a96ac5b43d2",
    "snr_reference": "a1435ec1dd7ae16a",
    "sigma_u": "ba207c0f30ae4882",
    "sigma_v": "ba207c0f30ae4882",
    "sigma_init": "ba207c0f30ae4882",
    "psi": "fe8d2a3d61b663b7",
    "height_ratio": "6ef57171a830d7dd",
    "azimuth_range_deg": "c45f283ee83d4ec2",
    "d_over_lambda": "7fa23aa98fb661fd",
    "rho_gain": "2506b5a72e68df58",
    "gain_innovation_var": "54241ede9aa457ce",
    "sigma_n_sq": "c45f283ee83d4ec2",
    "q_n_mode": "9480ef9a18a6df23",
    "q_n_window": "b06e87f2a36e8f4c",
    "jacobian_mode": "dd50216e8ccd7813",
    "codebook_k": "a26ad2b72b3a88c0",
    "abp_offset": "eaa64b15ac7de1f4",
    "abp_q_n": "c1ec77fb8baf01d1",
    "gain_uncertainty_var": "f7eb851e9115a607",
    "sigma_nb_sq": "5e87f760660c05e8",
    "detect_enabled": "f255457f89cc3651",
    "detect_threshold": "d78cc0dc01a425ea",
    "detect_consecutive": "b9826ed8ff63fc66",
    "detect_residual": "ba207c0f30ae4882",
    "seed": "3a0b0350595ead1c",
}


def test_config_verdicts_match_golden():
    verdicts = {field: _verdicts(field) for field in FIELDS}
    changed = {field: [f"{scheme} {value}" for scheme, value, v in verdicts[field] if v == "accept"]
               for field in FIELDS if _digest(verdicts[field]) != GOLDEN_VERDICTS.get(field)}
    assert not changed, f"fields whose verdicts changed, with the cases they accept: {changed}"

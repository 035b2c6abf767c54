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
innovation covariance S = G P^- G^T + Q_n, and its gain K must give a posterior
P^+ = P^- - K S K^T with a finite, non-negative diagonal (update itself returns
the prediction where P^+ is not finite, so the check rebuilds P^+ from K).

A third test pins the accept/reject verdict of ScenarioConfig on each field,
scheme and value of a fixed grid by hash, as tests/test_golden.py pins output
bytes, so a change to a rule shows as a changed verdict.  A fourth requires
that, on the same grid, ScenarioConfig accepts a field that no rule reads
together with another field exactly when its FIELD_RULES row does: every rule
on one field is a row.
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
MODES = st.sampled_from(CHOICES)
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


def _filter_problems(pred, g_mat, q_n, k) -> list[str]:
    """What is wrong with one update's S = G P^- G^T + Q_n and, given its gain K, its
    P^+ = P^- - K S K^T as computed before update's predict-only fallback replaces it."""
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
    if k is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            p_new = pred.p - k @ s @ k.T
            p_new = (p_new + p_new.T) / 2.0
        if not (np.isfinite(p_new).all() and (np.diag(p_new) >= 0).all()):
            problems.append("P+ diagonal not finite and non-negative")
    return problems


def _batch_problems(pred, r, g_mat, q_n, r_hat, out) -> list[str]:
    """_filter_problems of each trial of a batched update.  A trial that enters with a
    failed measurement (NaN in r, G, Q_n or r_hat) gets no update and no check; one whose
    gain is NaN (its S is singular) has its S checked and no P^+.  P^+ is rebuilt from the
    returned gain, because update returns the prediction where its P^+ is not finite."""
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
        k = None if np.isnan(out[2][i]).any() else out[2][i]
        problems.extend(_filter_problems(one, g_mat[i], q_n[i], k))
    return problems


@pytest.fixture
def checked_update(monkeypatch):
    """Wraps ekf.update where the trackers look it up, as the benchmark's tracer does;
    the list collects every problem its checks find."""
    problems = []
    update = ekf.update  # the original, before it is patched below

    def checked(pred, r, g_mat, q_n, r_hat=None, s=None):
        out = update(pred, r, g_mat, q_n, r_hat, s)
        problems.extend(_batch_problems(pred, r, g_mat, q_n, r_hat, out))
        return out

    for module in (ekf, baselines):
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


def test_batch_check_flags_a_finite_gain_whose_posterior_overflows():
    # update's predict-only fallback: the prediction, a NaN innovation and the finite K
    # whose P^+ = P^- - K S K^T overflows
    pred = ekf.TrackerState(np.zeros((1, 2)), np.eye(2)[None])
    g_mat, q_n = np.eye(2), np.eye(2)
    out = (pred, np.full((1, 2), np.nan), np.full((1, 2, 2), 1e200))
    assert _batch_problems(pred, np.zeros(2), g_mat, q_n, None, out) == [
        "P+ diagonal not finite and non-negative"]
    out = ekf.update(pred, np.zeros(2), g_mat, q_n)
    assert _batch_problems(pred, np.zeros(2), g_mat, q_n, None, out) == []


# every limit in FIELD_RULES with the floats (and, for an int limit, the ints) beside it
LIMITS = [limit for pair in RANGES.values() for limit in pair]
VERDICT_VALUES = list({(type(v), repr(v)): v for v in [
    *SINGLE_EXTREMES, *CHOICES, 2**63,
    *(v for x in LIMITS for v in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))),
    *(v for x in LIMITS if isinstance(x, int) for v in (x - 1, x + 1)),
]}.values())


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except ConfigError:
        return False
    return True


def _config_accepts(scheme: str, field: str, value) -> bool:
    return _accepts(lambda: ScenarioConfig(**{"scheme": scheme, field: value}))


def _verdicts(field: str) -> list:
    """Whether ScenarioConfig accepts each value of the field on each scheme, sorted."""
    return sorted((scheme, repr(value), "accept" if _config_accepts(scheme, field, value)
                   else "reject") for scheme in SCHEMES for value in VERDICT_VALUES)


def _digest(verdicts: list) -> str:
    return hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()[:16]


# sha256 prefixes of each field's sorted verdicts on VERDICT_VALUES.  A changed rule changes
# its field's hash; a changed limit also changes the values, and so every hash
GOLDEN_VERDICTS = {
    "n_x": "1aa75232d318354a",
    "n_y": "1aa75232d318354a",
    "scheme": "8c853788adade6eb",
    "frames": "943f679ac51be931",
    "trials": "3ab3ce2d30475025",
    "snr_db": "7386ec57b50b1620",
    "snr_reference": "c43e969dcebc62b7",
    "sigma_u": "044a08ca9429582d",
    "sigma_v": "044a08ca9429582d",
    "sigma_init": "044a08ca9429582d",
    "psi": "b02f02d893d2ca17",
    "height_ratio": "03166c1c8e16a3d1",
    "azimuth_range_deg": "5284b14c90588f4d",
    "d_over_lambda": "86d040db9da9440b",
    "rho_gain": "baa8628e656bb39f",
    "gain_innovation_var": "029e17e647bf06f9",
    "sigma_n_sq": "5284b14c90588f4d",
    "q_n_mode": "78e006a2adbf96a7",
    "q_n_window": "2c916bbed52d9a9a",
    "jacobian_mode": "da217fd209d9aa64",
    "codebook_k": "5750e83e45b6ad12",
    "abp_offset": "36f6cc98199d5e54",
    "abp_q_n": "c9aab7c50357e0a2",
    "gain_uncertainty_var": "67e8aba5ba61095e",
    "sigma_nb_sq": "f5be45c0c15b7db1",
    "detect_enabled": "3cffea2833b58794",
    "detect_threshold": "76c551ff08b4fe88",
    "detect_consecutive": "3ab3ce2d30475025",
    "detect_residual": "044a08ca9429582d",
    "seed": "f5c0fd0d44d2d8c6",
}


def test_config_verdicts_match_golden():
    verdicts = {field: _verdicts(field) for field in FIELDS}
    changed = {field: [f"{scheme} {value}" for scheme, value, v in verdicts[field] if v == "accept"]
               for field in FIELDS if _digest(verdicts[field]) != GOLDEN_VERDICTS.get(field)}
    assert not changed, f"fields whose verdicts changed, with the cases they accept: {changed}"


# the fields that a rule reads together with another field, which __post_init__ checks
CROSS_FIELD = {
    "n_x", "n_y", "frames", "codebook_k",  # the arrays they size must be addressable
    "snr_db",  # with n_x and n_y, the baselines' noise terms must stay finite
    "gain_innovation_var",  # below the smallest normal float it needs |rho_gain| = 1
    "gain_uncertainty_var",  # with n and codebook_k, the codebook noise variance stays finite
    "detect_threshold",  # lies in (0, the extent of n_x's search grid]
}


def test_every_single_field_rule_is_a_row():
    # a field outside CROSS_FIELD is accepted exactly when its FIELD_RULES row passes it:
    # no rule on one field lives anywhere else
    wrong = []
    for f in dataclasses.fields(ScenarioConfig):
        if f.name in CROSS_FIELD:
            continue
        for value in VERDICT_VALUES:
            row = _accepts(harness._check_field, f.name, f.type, value)
            wrong += [(f.name, scheme, value) for scheme in SCHEMES
                      if _config_accepts(scheme, f.name, value) != row]
    assert not wrong, f"(field, scheme, value) the config and the row disagree on: {wrong}"

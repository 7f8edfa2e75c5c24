"""Tests for the small-noise bound experiments and their reports.

The Monte Carlo side is deterministic for a fixed seed, so the frozen
numbers below reproduce exactly; the exit probabilities were checked
against a transfer-matrix oracle (Gaussian step kernel with absorption
outside the tube, midpoint rule on 4000 cells).
"""

import csv
import json
import math

import numpy as np
import pytest

from obliqueldp.geometry import Interval, constant_coefficients, normal_field
from obliqueldp.ldp import (LdpConfig, LdpReport, cap_identity_check,
                            goodness_proxy, run_lower_bound_experiment,
                            run_upper_bound_experiment)
from obliqueldp.reflect import ReferencePath, TimeGrid
from obliqueldp.sde import EventSpec, LogRateInterval

# discretely monitored exit probability of the centred radius-0.5 tube at
# eps = 0.25 with 256 steps, from the transfer-matrix oracle
KERNEL_EXIT_025 = 0.083619


def make_config(references=(ReferencePath.constant([0.0], 0.0, 1.0),), radii=(0.5,),
                **overrides):
    interval = Interval(-1.0, 1.0)
    base = dict(
        domain=interval,
        field=normal_field(interval),
        coeffs=constant_coefficients([0.0], [[1.0]]),
        t0=0.0, x0=[0.0], t_end=1.0,
        event=EventSpec.complements(references, radii),
        eps_ladder=[0.5, 0.35, 0.25],
        n_samples=4000, n_steps=256, seed=20240801, n_x=101,
    )
    base.update(overrides)
    return LdpConfig(**base)


@pytest.fixture(scope="module")
def lower_report():
    return run_lower_bound_experiment(make_config())


@pytest.fixture(scope="module")
def upper_report():
    return run_upper_bound_experiment(make_config())


def test_lower_bound_static_tube_is_consistent(lower_report):
    rep = lower_report
    assert rep.verdict == "consistent"
    assert rep.details["bound"] == "lower"
    assert rep.details["event"] == "intersection_of_complements"
    # rate of the cheapest exit path: r^2 / (2 T) up to solver tolerance
    assert rep.lambda_value == pytest.approx(0.125375, rel=1e-4)
    # dyadic dynamic program: four cells at control 0.5 reach the tube edge
    assert rep.dp_value == 0.125
    values = [lr.value for lr in rep.log_rates]
    assert values == pytest.approx([0.134678, 0.159152, 0.165317], abs=1e-5)
    # the scaled log-rates climb as the noise shrinks
    assert values[0] < values[1] < values[2]
    # every rate sits above lambda minus the itemized slack
    slack = rep.details["slack"]
    assert values[-1] >= rep.lambda_value - slack["total"]


def test_slack_itemization(lower_report):
    slack = lower_report.details["slack"]
    assert set(slack) == {"statistical", "scheme", "lambda_fraction", "total"}
    assert slack["scheme"] == 0.02
    assert slack["lambda_fraction"] == pytest.approx(
        0.15 * lower_report.lambda_value, rel=1e-12)
    assert slack["total"] == pytest.approx(
        slack["statistical"] + slack["scheme"] + slack["lambda_fraction"],
        rel=1e-12)
    smallest = lower_report.log_rates[-1]
    assert slack["statistical"] == pytest.approx(
        0.5 * (smallest.hi - smallest.lo), rel=1e-12)


def test_gap_itemization(lower_report):
    rep = lower_report
    gaps = rep.details["gaps"]
    smallest = rep.log_rates[-1].value
    assert gaps["mc_minus_lambda"] == smallest - rep.lambda_value
    assert gaps["lambda_minus_dp"] == rep.lambda_value - rep.dp_value
    assert gaps["mc_minus_dp"] == smallest - rep.dp_value


def test_smallest_eps_estimate_matches_kernel(lower_report):
    row = lower_report.details["estimates"][-1]
    assert row["n_samples"] == 4000
    assert row["n_hits"] == 284
    assert row["p_hat"] == pytest.approx(284 / 4000, rel=1e-12)
    assert abs(row["p_hat"] - KERNEL_EXIT_025) <= 3.0 * row["ci_half_width"]


def test_upper_bound_static_tube_is_consistent(upper_report):
    rep = upper_report
    assert rep.verdict == "consistent"
    assert rep.details["bound"] == "upper"
    assert rep.details["event"] == "ball"
    # staying in the centred tube is free: the zero control never leaves
    assert rep.lambda_value <= 1e-8
    assert rep.dp_value <= 1e-12
    values = [lr.value for lr in rep.log_rates]
    assert values == pytest.approx([0.218967, 0.039014, 0.004603], abs=1e-5)
    # the scaled log-rates decay toward zero as the noise shrinks
    assert values[0] > values[1] > values[2]
    slack = rep.details["slack"]
    assert values[-1] <= rep.lambda_value + slack["total"]


def test_zero_hit_ladder_is_inconclusive():
    cfg = make_config(radii=[0.9], eps_ladder=[0.1], n_samples=200,
                      n_steps=64, seed=3)
    rep = run_lower_bound_experiment(cfg)
    assert rep.verdict == "inconclusive"
    assert rep.log_rates == [None]
    row = rep.details["estimates"][0]
    assert row["n_hits"] == 0
    assert row["p_hat"] == 0.0
    # exiting the wide tube costs 0.9^2 / 2 for the continuous problem
    assert rep.lambda_value == pytest.approx(0.405, rel=2e-2)
    assert rep.dp_value == 0.5


def test_report_json_round_trip(lower_report, tmp_path):
    path = tmp_path / "report.json"
    lower_report.write_json(path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == lower_report.to_dict()


def test_report_csv_shape(lower_report, tmp_path):
    path = tmp_path / "report.csv"
    lower_report.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "log_rate", "ci_lo", "ci_hi", "lambda", "dp_value"]
    assert len(rows) == 1 + 3
    for row, eps, lr in zip(rows[1:], lower_report.eps_ladder,
                            lower_report.log_rates):
        assert len(row) == 6
        assert float(row[0]) == eps
        assert float(row[1]) == lr.value
        assert float(row[4]) == lower_report.lambda_value
        assert float(row[5]) == lower_report.dp_value


def test_csv_blanks_for_missing_rates(tmp_path):
    cfg = make_config(radii=[0.9], eps_ladder=[0.1], n_samples=200,
                      n_steps=64, seed=3)
    rep = run_lower_bound_experiment(cfg)
    path = tmp_path / "inconclusive.csv"
    rep.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert rows[1][1:4] == ["", "", ""]


def test_to_dict_maps_infinite_ci_to_none():
    rep = LdpReport(
        eps_ladder=[0.5, 0.25],
        log_rates=[LogRateInterval(value=0.2, lo=0.1, hi=math.inf), None],
        lambda_value=0.125, dp_value=None, verdict="inconclusive", details={})
    d = rep.to_dict()
    assert d["log_rates"][0] == {"value": 0.2, "lo": 0.1, "hi": None}
    assert d["log_rates"][1] is None
    assert d["dp_value"] is None


def test_config_validation_errors():
    with pytest.raises(ValueError, match="eps_ladder"):
        make_config(eps_ladder=[0.25, 0.35, 0.5])
    with pytest.raises(ValueError, match="eps_ladder"):
        make_config(eps_ladder=[0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="one radius per reference"):
        make_config(radii=[0.5, 0.3])
    # the lower bound's event; the upper bound takes the ball of its one tube
    with pytest.raises(ValueError, match="intersection of complements"):
        make_config(event=EventSpec.ball(ReferencePath.constant([0.0], 0.0, 1.0), 0.5))


def test_cap_identity_on_moving_tube():
    grid = TimeGrid.uniform(0.0, 1.0, 512)
    moving = ReferencePath.from_function(grid, lambda s: np.array([s]))
    check = cap_identity_check(make_config(references=[moving]))
    assert check.passed
    # uncapped height 2.0 never binds on this tube, so the reference value
    # is the plain exit cost seen by the scheme at eps = 0.25
    assert check.reference_value == pytest.approx(0.345821, rel=1e-3)
    assert check.targets[0] == 0.05
    assert check.targets[1] == check.reference_value
    # height 0.05 binds: the solution saturates the cap
    assert check.values[0] == pytest.approx(0.048906, rel=1e-3)
    assert abs(check.values[0] - 0.05) <= 0.10 * 0.05
    # height 1.0 does not bind: the capped run tracks the uncapped one
    assert check.values[1] == pytest.approx(0.330897, rel=1e-3)
    assert abs(check.values[1] - check.reference_value) <= \
        0.10 * check.reference_value


def test_goodness_proxy_passes():
    result = goodness_proxy(make_config())
    assert result.passed
    assert result.weak_passed
    assert result.envelope_stable
    assert result.envelope == pytest.approx(0.3522, rel=1e-2)


def test_reports_are_deterministic_for_a_seed(lower_report):
    again = run_lower_bound_experiment(make_config())
    assert again.to_dict() == lower_report.to_dict()

"""Acceptance suite: one test per numbered criterion.

Each test enforces its criterion's tolerances and prints a single
"criterion NN PASS" line (visible with pytest -s); the pytest status line
itself is the pass/fail record.  Frozen constants come from independent
oracles: closed-form actions, a transfer-matrix kernel for tube exit
probabilities, hand-computed dyadic dynamic programs, and pinned solver
outputs cross-checked in the module test suites.
"""

import json
import time

import numpy as np
import pytest

from obliqueldp.cli import RunContext, _ldp_config, load_config, main
from obliqueldp.control_stop import (DiscreteProblem, multi_stop_value,
                                     reduced_value)
from obliqueldp.geometry import (CoefficientField, Disk, Ellipse, Interval,
                                 constant_coefficients, normal_field,
                                 oblique_from_tangent)
from obliqueldp.hjbvi import solve_limit_vi
from obliqueldp.ldp import cap_identity_check, run_lower_bound_experiment
from obliqueldp.rate import rate_of_event, rate_of_path, weak_stability_check
from obliqueldp.reflect import (Control, ReferencePath, TimeGrid,
                                holder_half_quotient, solve_reflected_ode,
                                solve_skorokhod_picard, validate_reflected_path)
from obliqueldp.sde import EventSpec, NoiseScale, simulate_reflected_sde, tube_obstacle
from obliqueldp.testfn import build_testfn, check_testfn_properties

from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _interval_setup():
    iv = Interval(-1.0, 1.0)
    return iv, normal_field(iv), constant_coefficients([0.0], [[1.0]])


def test_criterion_01_reflection_feasibility_and_support():
    # 10^4 simulated paths on the unit disk with gamma = n + 0.5 tangent at
    # eps = 0.5: no node below -1e-8 in signed distance, increments only at
    # boundary-flagged steps, directions within 1e-6 rad of gamma; <= 2 min
    start = time.time()
    disk = Disk(1.0)
    field = oblique_from_tangent(disk, 0.5)
    coeffs = constant_coefficients([0.0, 0.0], np.eye(2))
    grid = TimeGrid.uniform(0.0, 1.0, 64)
    worst_sd, worst_angle, n_refl = 0.0, 0.0, 0
    for i in range(10_000):
        path = simulate_reflected_sde(disk, field, coeffs, NoiseScale(0.5),
                                      [0.0, 0.0], grid, seed=424242,
                                      trajectory_id=i)
        sizes = np.linalg.norm(path.reflection_increments, axis=1)
        on_boundary = np.abs(disk.signed_distance_many(path.points)) <= 1e-6
        assert np.all(on_boundary[1:][sizes > 0.0])
        report = validate_reflected_path(disk, field, path)
        worst_sd = min(worst_sd, report.min_signed_distance)
        worst_angle = max(worst_angle, report.max_angle)
        n_refl += report.n_reflections
    elapsed = time.time() - start
    assert worst_sd >= -1e-8
    assert worst_angle <= 1e-6
    assert n_refl > 1000, "the batch must actually touch the boundary"
    assert elapsed <= 120.0
    print(f"criterion 01 PASS: 1e4 disk paths feasible (min sd {worst_sd:.2e}, "
          f"max angle {worst_angle:.2e} rad, {n_refl} reflections, "
          f"{elapsed:.0f}s)")


def test_criterion_02_picard_contraction_on_random_instances():
    # 20 random instances: measured contraction ratio <= 0.6 once the
    # adaptive window engages; Picard vs stepper sup distance <= 3 tol
    rng = np.random.default_rng(20240815)
    tol = 1e-10
    worst_ratio, worst_sup = 0.0, 0.0
    for k in range(20):
        dim = 1 if k % 2 == 0 else 2
        if dim == 1:
            dom = Interval(-1.0, 1.0)
            fld = normal_field(dom)
        else:
            dom = Disk(1.0)
            fld = oblique_from_tangent(dom, 0.3) if k % 4 == 1 else normal_field(dom)
        M = rng.uniform(-0.4, 0.4, size=(dim, dim))
        off = rng.uniform(-0.5, 0.5, size=dim)
        sig = np.eye(dim) * rng.uniform(0.5, 1.5)
        coeffs = CoefficientField(
            b=lambda t, x, M=M, off=off: off + M @ np.atleast_1d(x),
            sigma=lambda t, x, sig=sig: sig,
            m=dim)
        grid = TimeGrid.uniform(0.0, 1.0, 256)
        amp, w = rng.uniform(0.5, 2.0), rng.integers(1, 6)
        ctrl = Control.from_function(
            grid, lambda t, a=amp, w=w, d=dim: np.full(d, a * np.sin(w * np.pi * t)))
        x0 = dom.sample_closure(8)[int(rng.integers(0, 8))] * 0.8
        direct = solve_reflected_ode(dom, fld, coeffs, ctrl, x0, grid)
        fixed, diag = solve_skorokhod_picard(dom, fld, coeffs, ctrl, x0,
                                             grid, tol=tol)
        worst_sup = max(worst_sup, float(np.max(
            np.linalg.norm(direct.points - fixed.points, axis=1))))
        worst_ratio = max(worst_ratio, diag.max_ratio)
    assert worst_ratio <= 0.6
    assert worst_sup <= 3.0 * tol
    print(f"criterion 02 PASS: 20 instances, max contraction ratio "
          f"{worst_ratio:.3f}, stepper-Picard sup {worst_sup:.2e}")


def test_criterion_03_holder_half_quotients_bounded_and_stable():
    # empirical Holder-1/2 quotients finite and within a factor two across
    # one grid refinement on every bundled case
    iv = Interval(-1.0, 1.0)
    disk = Disk(1.0)
    ell = Ellipse(1.2, 0.7)
    cases = [
        ("interval-drift", iv, normal_field(iv),
         constant_coefficients([2.0], [[1.0]]), None, [0.5]),
        ("interval-sine", iv, normal_field(iv),
         constant_coefficients([0.0], [[1.0]]), 3.0, [0.0]),
        ("disk-oblique", disk, oblique_from_tangent(disk, 0.5),
         constant_coefficients([1.2, 0.4], np.eye(2)), None, [0.0, 0.0]),
        ("ellipse-normal", ell, normal_field(ell),
         constant_coefficients([0.9, -0.5], np.eye(2)), 2.0, [0.2, 0.1]),
    ]
    summary = []
    for name, dom, fld, coeffs, amp, x0 in cases:
        qs = []
        for n in (4096, 8192):
            grid = TimeGrid.uniform(0.0, 1.0, n)
            ctrl = None
            if amp is not None:
                ctrl = Control.from_function(
                    grid, lambda t, a=amp: np.full(coeffs.m, a * np.sin(5 * t)))
            path = solve_reflected_ode(dom, fld, coeffs, ctrl,
                                       np.asarray(x0, dtype=float), grid)
            qs.append(holder_half_quotient(path))
        assert np.isfinite(qs[0]) and np.isfinite(qs[1])
        assert qs[0] > 0.0
        assert qs[1] <= 2.0 * qs[0] and qs[0] <= 2.0 * qs[1]
        summary.append(f"{name} {qs[0]:.3f}->{qs[1]:.3f}")
    print("criterion 03 PASS: quotients stable within 2x on all bundled "
          "cases (" + "; ".join(summary) + ")")


def test_criterion_04_oscillating_control_stability():
    # alpha_n = sin(n s): the controlled paths approach the uncontrolled one,
    # with the n = 64 distance at most a quarter of the n = 1 distance, in
    # one and two dimensions; <= 1 min
    start = time.time()
    ratios = []
    for dom in (Interval(-1.0, 1.0), Disk(1.0)):
        fld = normal_field(dom)
        d = dom.dimension
        coeffs = constant_coefficients([0.0] * d, np.eye(d))
        rep = weak_stability_check(dom, fld, coeffs, 0.0, [0.0] * d)
        dists = rep.sup_dists
        assert rep.passed
        assert int(rep.n_values[-1]) == 64
        # decreasing after the first doubling; the n=1 half-sine is weaker
        # than the n=2 full oscillation, so the decay starts there
        assert np.all(np.diff(dists[1:]) < 0.0)
        assert dists[-1] <= dists[0] / 4.0
        ratios.append(dists[-1] / dists[0])
    elapsed = time.time() - start
    assert elapsed <= 60.0
    print(f"criterion 04 PASS: final/initial sup-distance "
          f"{ratios[0]:.3f} (1d) and {ratios[1]:.3f} (2d), both <= 0.25 "
          f"({elapsed:.0f}s)")


def test_criterion_05_rate_oracles():
    # interior tracking of g(s) = 0.5 s costs 1/8; exiting the radius-0.5
    # tube by time 1 costs r^2 / (2T) = 1/8; both within 5 percent
    iv, fld, coeffs = _interval_setup()
    target = ReferencePath(np.array([0.0, 1.0]), np.array([[0.0], [0.5]]))
    res_path = rate_of_path(iv, fld, coeffs, 0.0, [0.0], target,
                            n_segments=16, max_segments=32)
    assert res_path.value == pytest.approx(0.125, rel=0.05)
    event = EventSpec.complements([ReferencePath.constant([0.0], 0.0, 1.0)], [0.5])
    res_exit = rate_of_event(iv, fld, coeffs, 0.0, [0.0], event,
                             n_segments=16, max_segments=32)
    assert res_exit.value == pytest.approx(0.125, rel=0.05)
    print(f"criterion 05 PASS: path rate {res_path.value:.6f}, exit rate "
          f"{res_exit.value:.6f}, both within 5% of 0.125")


def test_criterion_06_reduction_identity_on_random_instances():
    # reduced_value equals multi_stop_value in the same floating arithmetic
    # on 100 random enumerable instances with two or three obstacles
    iv, fld, coeffs = _interval_setup()
    rng = np.random.default_rng(20240817)
    pool = np.array([1.0, 0.5, 0.25, -0.25, -0.5, -1.0])
    for _ in range(100):
        grid = TimeGrid.uniform(0.0, 1.0, 2)
        controls = [np.array([v]) for v in rng.choice(pool, size=3, replace=False)]
        obstacles = []
        for _ in range(int(rng.integers(2, 4))):
            c0, c1, c2 = rng.uniform(-0.5, 0.5, size=3)
            w = rng.uniform(0.5, 4.0)
            obstacles.append(lambda t, y, c0=c0, c1=c1, c2=c2, w=w:
                             1.5 + c0 + c1 * float(np.atleast_1d(y)[0])
                             + c2 * np.cos(w * t + float(np.atleast_1d(y)[0])))
        problem = DiscreteProblem.build(iv, fld, coeffs, grid, controls,
                                        obstacles, substeps=8)
        x0 = [float(rng.uniform(-0.8, 0.8))]
        assert multi_stop_value(problem, 0.0, x0) == reduced_value(problem, 0.0, x0)
    print("criterion 06 PASS: 100/100 instances with bitwise-equal "
          "multi-stop and reduced values")


def test_criterion_07_value_below_capped_action():
    # min-type variational inequality with obstacle A outside the moving
    # tube: v(0, x0) <= min(A, 0.125) + scheme tolerance for A in
    # {0.05, 1.0}, and the excess shrinks under one refinement
    iv, fld, coeffs = _interval_setup()
    ref = ReferencePath.from_function(TimeGrid.uniform(0.0, 1.0, 512),
                                      lambda s: np.array([s]))
    lam = 0.125
    tol_by_grid = {201: 0.04, 401: 0.022}
    excesses = {}
    for a in (0.05, 1.0):
        obstacle = tube_obstacle(ref, 0.5, a, complement=True)
        for n_x in (201, 401):
            vg = solve_limit_vi(iv, fld, coeffs, obstacle, n_x=n_x)
            value = vg.value_at(0.0, [0.0])
            assert value <= min(a, lam) + tol_by_grid[n_x]
            excesses[(a, n_x)] = value - min(a, lam)
    # the scheme error contracts when the grid refines
    assert excesses[(1.0, 401)] <= 0.65 * excesses[(1.0, 201)]
    assert excesses[(0.05, 401)] <= excesses[(0.05, 201)] + 1e-12
    print(f"criterion 07 PASS: capped-action bound holds; A=1.0 excess "
          f"{excesses[(1.0, 201)]:.4f} -> {excesses[(1.0, 401)]:.4f} under "
          f"refinement")


def test_criterion_08_cap_identity(tmp_path):
    # the capped solve saturates a binding cap (A = 0.05 within 10%) and
    # reproduces the uncapped value when the cap does not bind (A = 1.0)
    cfg = load_config(CONFIG_DIR / "cap_1d.json")
    ctx = RunContext(cfg, tmp_path, seed=20240801, threads=1)
    config, _ = _ldp_config(ctx)
    check = cap_identity_check(config)
    assert check.passed
    binding, loose = check.values
    assert abs(binding - 0.05) <= 0.10 * 0.05
    assert abs(loose - check.reference_value) <= 0.10 * check.reference_value
    print(f"criterion 08 PASS: binding cap value {binding:.4f} ~ 0.05, "
          f"non-binding {loose:.4f} ~ uncapped {check.reference_value:.4f}")


def test_criterion_09_ldp_end_to_end(tmp_path):
    # 1D exit case, eps in {0.5, 0.35, 0.25} with 1e5 samples per eps:
    # -eps^2 log p_hat climbs monotonically toward 0.125 and the smallest-eps
    # value lies within the itemized slack; <= 10 min
    start = time.time()
    cfg = load_config(CONFIG_DIR / "ldp_1d.json")
    ctx = RunContext(cfg, tmp_path, seed=20240801, threads=1)
    config, bound = _ldp_config(ctx)
    assert bound == "lower"
    assert config.n_samples == 100_000
    report = run_lower_bound_experiment(config)
    elapsed = time.time() - start
    values = [lr.value for lr in report.log_rates]
    assert values[0] < values[1] < values[2]
    slack = report.details["slack"]["total"]
    assert abs(values[-1] - 0.125) <= slack
    assert report.verdict == "consistent"
    assert report.lambda_value == pytest.approx(0.125375, rel=1e-3)
    assert report.dp_value == 0.125
    assert elapsed <= 600.0
    print(f"criterion 09 PASS: rates {values[0]:.4f} < {values[1]:.4f} < "
          f"{values[2]:.4f}, smallest within slack {slack:.4f} of 0.125, "
          f"verdict consistent ({elapsed:.0f}s)")


def test_criterion_10_testfn_properties_on_the_disk():
    # boundary comparison function on the unit disk with oblique gamma:
    # positive boundary products and finite gradient constants over 4096
    # pairs, with the constants stable within 10% under sample doubling
    disk = Disk(1.0)
    field = oblique_from_tangent(disk, 0.5)
    tf = build_testfn(disk, field, 0.1, 0.1)
    r4 = check_testfn_properties(tf, 4096)
    r8 = check_testfn_properties(tf, 8192)
    for rep in (r4, r8):
        assert rep.min_psi_iii > 0.0
        assert np.isfinite(rep.K_psi_i) and np.isfinite(rep.K_psi_ii)
    assert abs(r8.K_psi_i - r4.K_psi_i) <= 0.10 * r4.K_psi_i
    assert abs(r8.K_psi_ii - r4.K_psi_ii) <= 0.10 * r4.K_psi_ii
    print(f"criterion 10 PASS: min boundary product {r4.min_psi_iii:.3f} > 0, "
          f"K_i {r4.K_psi_i:.2f} and K_ii {r4.K_psi_ii:.2f} stable within "
          f"10% under doubling")


def test_criterion_11_verify_ldp_determinism(tmp_path):
    # repeated verify-ldp runs with the same seed produce byte-identical
    # reports; only the manifest timestamp may differ
    config = str(CONFIG_DIR / "ldp_1d_small.json")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["verify-ldp", "--config", config, "--out", str(first)]) == 0
    assert main(["verify-ldp", "--config", config, "--out", str(second)]) == 0
    for name in ("report.json", "report.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    m1 = json.loads((first / "manifest.json").read_text())
    m2 = json.loads((second / "manifest.json").read_text())
    m1.pop("timestamp")
    m2.pop("timestamp")
    assert m1 == m2
    print("criterion 11 PASS: repeated verify-ldp runs byte-identical "
          "(reports and manifest modulo timestamp)")

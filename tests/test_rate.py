import hashlib

import numpy as np
import pytest

from obliqueldp.geometry import (
    Disk,
    Interval,
    constant_coefficients,
    normal_field,
    oblique_from_tangent,
)
from obliqueldp.rate import _PathBatch, rate_of_event, rate_of_path, weak_stability_check
from obliqueldp.reflect import ReferencePath, TimeGrid, sup_deviations
from obliqueldp.sde import EventSpec


def _setup_1d():
    iv = Interval(-1.0, 1.0)
    return iv, normal_field(iv), constant_coefficients([0.0], [[1.0]])


def test_rate_of_line_is_half_speed_squared():
    iv, field, coeffs = _setup_1d()
    grid = TimeGrid.uniform(0.0, 1.0, 512)
    g = ReferencePath.from_function(grid, lambda s: np.array([0.5 * s]))
    res = rate_of_path(iv, field, coeffs, 0.0, [0.0], g)
    assert res.value == pytest.approx(0.125, rel=0.05)
    assert res.constraint_residual <= 3e-3
    assert not res.infeasible
    # reported optimizer reproduces the reported action
    assert res.optimizer.action() == pytest.approx(res.value, rel=1e-6)


def test_rate_scales_with_inverse_diffusion_squared():
    iv, field, _ = _setup_1d()
    coeffs = constant_coefficients([0.0], [[2.0]])
    grid = TimeGrid.uniform(0.0, 1.0, 512)
    g = ReferencePath.from_function(grid, lambda s: np.array([0.5 * s]))
    res = rate_of_path(iv, field, coeffs, 0.0, [0.0], g)
    assert res.value == pytest.approx(0.03125, rel=0.05)


def test_drift_matching_path_is_free():
    iv, field, _ = _setup_1d()
    coeffs = constant_coefficients([0.5], [[1.0]])
    grid = TimeGrid.uniform(0.0, 1.0, 512)
    g = ReferencePath.from_function(grid, lambda s: np.array([0.5 * s]))
    res = rate_of_path(iv, field, coeffs, 0.0, [0.0], g)
    assert res.value <= 1e-8
    assert res.constraint_residual <= 1e-3


def test_rate_of_curved_paths_matches_energy_integral():
    iv, field, coeffs = _setup_1d()
    grid = TimeGrid.uniform(0.0, 1.0, 512)
    # derivative sin(pi s): energy 0.5 * integral sin^2 = 0.25
    g1 = ReferencePath.from_function(
        grid, lambda s: np.array([(1.0 - np.cos(np.pi * s)) / np.pi]))
    r1 = rate_of_path(iv, field, coeffs, 0.0, [0.0], g1, tol=5e-3,
                      n_segments=32, max_segments=64)
    assert r1.value == pytest.approx(0.25, rel=0.01)
    # derivative 0.5 s: energy 1/24; the tight tolerance matters here since
    # sup-norm slack lets the optimizer legitimately undercut the energy
    g2 = ReferencePath.from_function(grid, lambda s: np.array([0.25 * s * s]))
    r2 = rate_of_path(iv, field, coeffs, 0.0, [0.0], g2, tol=1e-3,
                      n_segments=32, max_segments=64)
    assert r2.value == pytest.approx(1.0 / 24.0, rel=0.02)


def test_rate_of_path_detects_infeasible_start():
    iv, field, coeffs = _setup_1d()
    g = ReferencePath.constant([0.8], 0.0, 1.0)
    res = rate_of_path(iv, field, coeffs, 0.0, [0.0], g)
    assert res.infeasible
    assert res.value == np.inf
    assert res.constraint_residual == pytest.approx(0.8)


def test_exit_rate_matches_quadratic_cost():
    iv, field, coeffs = _setup_1d()
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    ev = EventSpec.complements([ref], [0.5])
    res = rate_of_event(iv, field, coeffs, 0.0, [0.0], ev)
    # cheapest escape: straight run to distance r, cost r^2 / (2 T)
    assert res.value == pytest.approx(0.125, rel=0.05)
    assert not res.infeasible


def test_exit_rate_of_nested_tubes_set_by_the_wider_one():
    iv, field, coeffs = _setup_1d()
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    single = rate_of_event(iv, field, coeffs, 0.0, [0.0],
                           EventSpec.complements([ref], [0.5]))
    both = rate_of_event(iv, field, coeffs, 0.0, [0.0],
                         EventSpec.complements([ref, ref], [0.3, 0.5]))
    assert both.value == pytest.approx(0.125, rel=0.05)
    assert both.value >= single.value - 1e-9


def test_exit_rate_on_disk_with_oblique_reflection():
    disk = Disk(1.0)
    field = oblique_from_tangent(disk, 0.5)
    coeffs = constant_coefficients([0.0, 0.0], np.eye(2))
    ref = ReferencePath.constant([0.0, 0.0], 0.0, 1.0)
    ev = EventSpec.complements([ref], [0.5])
    res = rate_of_event(disk, field, coeffs, 0.0, [0.0, 0.0], ev,
                        n_segments=16, max_segments=32)
    assert res.value == pytest.approx(0.125, rel=0.05)


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_sliding_action_sees_the_tilt(kappa):
    # b = 0, sigma = I: a path sliding along the wall at speed v costs
    # v^2 / (2 (1 + kappa^2)) per unit time in the direction the tilt helps
    # (clockwise for kappa > 0) and v^2 / 2 the other way, here with v = 1/2
    disk = Disk(1.0)
    field = oblique_from_tangent(disk, kappa)
    coeffs = constant_coefficients([0.0, 0.0], np.eye(2))
    grid = TimeGrid.uniform(0.0, 1.0, 256)
    values = {}
    for turn in (-1.0, 1.0):
        g = ReferencePath.from_function(
            grid, lambda t, s=turn: np.array([np.cos(0.5 * s * t), np.sin(0.5 * s * t)]))
        values[turn] = rate_of_path(disk, field, coeffs, 0.0, [1.0, 0.0], g, tol=1e-2,
                                    n_segments=16, max_segments=16).value
    # the tol tube makes the action fall short of the oracle by about 2%
    assert values[-1.0] == pytest.approx(0.125 / (1.0 + kappa ** 2), rel=0.03)
    assert values[1.0] == pytest.approx(0.125, rel=0.03)
    assert values[-1.0] / values[1.0] == pytest.approx(1.0 / (1.0 + kappa ** 2), rel=0.02)


def test_weak_stability_of_oscillating_controls():
    iv, field, coeffs = _setup_1d()
    rep = weak_stability_check(iv, field, coeffs, 0.0, [0.0])
    assert rep.passed
    assert rep.n_values[-1] == 64
    # tail decays like 1/n
    assert rep.sup_dists[-1] == pytest.approx(rep.sup_dists[-2] / 2.0, rel=0.05)


def _digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def _exit_event(point, radius):
    return EventSpec.complements([ReferencePath.constant(point, 0.0, 1.0)], [radius])


@pytest.mark.parametrize("case, value, iterations, digest", [
    ("interval exit", 0.12537506685609054, 21, "bfc061b87f043b8b"),
    ("disk oblique exit", 0.08032014752831126, 67, "d172ff57c1aec536"),
    ("disk ball path", 0.5426818510906501, 52, "eaf1527134b6aebf"),
    ("interval exit from the boundary", 0.12537506685570188, 47, "38da07099cc1e8e1"),
])
def test_constant_coefficient_solves_are_pinned(case, value, iterations, digest):
    # recorded with one reflected Euler step per time step; the windowed
    # stepping of constant-coefficient batches must keep every bit
    iv, field, coeffs = _setup_1d()
    disk = Disk(1.0)
    oblique = oblique_from_tangent(disk, 0.5)
    if case == "interval exit":
        res = rate_of_event(iv, field, coeffs, 0.0, [0.0], _exit_event([0.0], 0.5),
                            n_segments=8, max_segments=8)
    elif case == "disk oblique exit":
        res = rate_of_event(disk, oblique, constant_coefficients([0.0, 0.0], np.eye(2)),
                            0.0, [0.5, 0.0], _exit_event([0.5, 0.0], 0.4),
                            n_segments=16, max_segments=32)
    elif case == "disk ball path":
        g = ReferencePath(np.array([0.0, 1.0]), np.array([[0.2, 0.1], [0.7, 0.5]]))
        res = rate_of_path(disk, oblique,
                           constant_coefficients([0.1, -0.2], [[0.8, 0.3], [-0.2, 0.6]]),
                           0.0, [0.2, 0.1], g, n_segments=8, max_segments=16)
    else:
        # the escape starts that push into the endpoint reflect inside windows
        res = rate_of_event(iv, field, coeffs, 0.0, [0.9], _exit_event([0.9], 0.5),
                            n_segments=8, max_segments=16)
    assert res.value == value
    assert res.iterations == iterations
    assert _digest(res.optimizer.values) == digest


@pytest.mark.parametrize("m", [1, 2])
def test_batched_segment_drifts_equal_the_per_segment_loop(m):
    # the per-segment drift b - sigma a of every segment in one expression,
    # against one einsum per segment and one advance per step
    disk = Disk(1.0)
    field = oblique_from_tangent(disk, 0.5)
    sigma = [[0.8, 0.3], [-0.2, 0.6]] if m == 2 else [[0.7], [-0.4]]
    coeffs = constant_coefficients([0.1, -0.2], sigma)
    refs = [ReferencePath.constant([0.5, 0.0], 0.0, 1.0),
            ReferencePath(np.array([0.0, 1.0]), np.array([[0.5, 0.0], [0.2, 0.6]]))]
    batch = _PathBatch(disk, field, coeffs, 0.0, [0.5, 0.0], 1.0, 16, refs)
    A = np.random.default_rng(m).normal(0.0, 2.0, (9, 16, m))
    b, sig = coeffs.rows(0.0, batch.x0[None, :])
    per_seg = [b - np.einsum("...dm,...m->...d", sig, A[:, j, :]) for j in range(16)]
    X = np.repeat(batch.x0[None, :], len(A), axis=0)
    _, devs = sup_deviations(disk, field, X, batch.grid,
                             lambda k, _X: per_seg[batch.seg_of_step[k]], batch.g_nodes)
    assert batch.max_devs(A).tobytes() == devs.tobytes()

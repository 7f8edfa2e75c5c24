import dataclasses
import io
import zipfile

import numpy as np
import pytest

from obliqueldp.geometry import (
    Disk,
    Ellipse,
    Interval,
    constant_coefficients,
    normal_field,
    oblique_from_tangent,
)
from obliqueldp.hjbvi import (
    MAX_TYPE,
    CflError,
    NanError,
    ValueGrid,
    load_npz,
    residual_scan,
    solve_eps_vi,
    solve_limit_vi,
)
from obliqueldp.reflect import ReferencePath, TimeGrid
from obliqueldp.sde import NoiseScale, tube_obstacle


def _setup_1d():
    iv = Interval(-1.0, 1.0)
    return iv, normal_field(iv), constant_coefficients([0.0], [[1.0]])


def _moving_reference():
    grid = TimeGrid.uniform(0.0, 1.0, 512)
    return ReferencePath.from_function(grid, lambda s: np.array([s]))


def constant_obstacle(height, terminal=None):
    """The obstacle ``height``, or ``terminal`` at t = 1.0, the solvers' default end."""
    return lambda t, X: np.full(len(X), height if terminal is None or t < 1.0 else terminal)


def test_constant_obstacle_is_reproduced_exactly():
    iv, field, coeffs = _setup_1d()
    vg = solve_limit_vi(iv, field, coeffs, constant_obstacle(0.7), n_x=41)
    assert vg.value_at(0.0, [0.3]) == 0.7
    assert vg.value_at(0.5, [-0.6]) == 0.7


def test_static_tube_value_vanishes_at_the_center():
    # with a motionless reference the controller stays put for free, so the
    # stopper can never collect the outside reward from the center
    iv, field, coeffs = _setup_1d()
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    obs = tube_obstacle(ref, 0.5, 1.0, complement=True)
    vg = solve_limit_vi(iv, field, coeffs, obs, n_x=201)
    assert vg.value_at(0.0, [0.0]) == 0.0
    assert vg.value_at(0.0, [0.8]) == pytest.approx(1.0, abs=1e-12)
    assert float(vg.layers.min()) >= 0.0
    assert float(vg.layers.max()) <= 1.0 + 1e-12


def test_moving_tube_value_capped_by_small_obstacle():
    iv, field, coeffs = _setup_1d()
    obs = tube_obstacle(_moving_reference(), 0.5, 0.05, complement=True)
    vg = solve_limit_vi(iv, field, coeffs, obs, n_x=201)
    assert vg.value_at(0.0, [0.0]) == pytest.approx(0.05, abs=1e-9)


def test_moving_tube_excess_shrinks_under_refinement():
    # tracking cost of the unit-speed reference with slack 0.5 is 0.125;
    # the scheme approaches it from above as the grid refines
    iv, field, coeffs = _setup_1d()
    obs = tube_obstacle(_moving_reference(), 0.5, 1.0, complement=True)
    excess = []
    for n_x in (201, 401):
        vg = solve_limit_vi(iv, field, coeffs, obs, n_x=n_x)
        excess.append(vg.value_at(0.0, [0.0]) - 0.125)
    assert excess[0] == pytest.approx(0.035738, abs=2e-4)
    assert excess[1] == pytest.approx(0.019763, abs=2e-4)
    assert 0.0 < excess[1] < 0.65 * excess[0]


def test_zero_noise_solver_equals_limit_solver_exactly():
    iv, field, coeffs = _setup_1d()
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    obs = tube_obstacle(ref, 0.5, 1.0, complement=True)
    a = solve_limit_vi(iv, field, coeffs, obs, n_x=81)
    b = solve_eps_vi(iv, field, coeffs, obs, NoiseScale(0.0), n_x=81)
    assert a.dt == b.dt
    np.testing.assert_array_equal(a.layers, b.layers)


def test_eps_solver_tracks_the_diffusive_functional():
    # capped exit functional at eps = 0.5, cap 2: the continuous-monitoring
    # value is -eps^2 ln(P_stay + e^(-8) P_exit) = 0.247896 with
    # P_stay = 0.370777 from the reflection series; first-order excess halves
    # per refinement
    iv, field, coeffs = _setup_1d()
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    obs = tube_obstacle(ref, 0.5, 2.0, complement=True)
    target = 0.247896
    excess = []
    for n_x in (101, 201):
        vg = solve_eps_vi(iv, field, coeffs, obs, NoiseScale(0.5), n_x=n_x)
        excess.append(vg.value_at(0.0, [0.0]) - target)
    assert excess[0] == pytest.approx(0.104335, abs=1e-3)
    assert excess[1] == pytest.approx(0.054558, abs=1e-3)
    assert 0.35 < excess[1] / excess[0] < 0.75


def test_scheme_is_monotone_in_the_obstacle():
    # the taller obstacle has the steeper ramp: its own time step is
    # admissible for the lower one, as in cap_identity_check
    iv, field, coeffs = _setup_1d()
    gref = _moving_reference()
    hi = solve_limit_vi(iv, field, coeffs,
                        tube_obstacle(gref, 0.5, 1.2, complement=True), n_x=101)
    lo = solve_limit_vi(iv, field, coeffs,
                        tube_obstacle(gref, 0.5, 1.0, complement=True), n_x=101, dt=hi.dt)
    assert lo.dt == hi.dt
    assert np.all(hi.layers >= lo.layers - 1e-12)


def test_complementarity_scan_is_exact_on_full_storage():
    iv, field, coeffs = _setup_1d()
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    obs = tube_obstacle(ref, 0.5, 1.0, complement=True)
    vg = solve_limit_vi(iv, field, coeffs, obs, n_x=81, store_every=1)
    rep = residual_scan(iv, field, coeffs, vg, obs)
    assert rep.ok()
    assert rep.max_obstacle_violation == 0.0
    assert rep.max_complementarity_defect == 0.0
    assert rep.n_transitions_checked == vg.meta["n_t"]


def test_max_type_projection_acts_from_above():
    iv, field, coeffs = _setup_1d()
    vg = solve_limit_vi(iv, field, coeffs, constant_obstacle(0.4, terminal=2.0),
                        vi_type=MAX_TYPE, n_x=41)
    # the terminal layer holds the obstacle at t_end; every earlier layer is
    # clipped from above by the obstacle
    assert float(vg.layers[-1].max()) == 2.0
    assert float(vg.layers[:-1].max()) <= 0.4 + 1e-12


def test_cfl_violation_rejected():
    iv, field, coeffs = _setup_1d()
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    obs = tube_obstacle(ref, 0.5, 1.0, complement=True)
    with pytest.raises(CflError):
        solve_limit_vi(iv, field, coeffs, obs, n_x=41, dt=10.0)


def test_nonfinite_layers_detected():
    # an obstacle that is -inf near 0 at t_end makes the first step inf - inf
    iv, field, coeffs = _setup_1d()

    def obstacle(t, X):
        return np.where((t == 1.0) & (np.abs(X[:, 0]) < 0.1), -np.inf, 0.0)

    with np.errstate(invalid="ignore"):
        with pytest.raises(NanError):
            solve_limit_vi(iv, field, coeffs, obstacle, n_x=41)


def test_nonfinite_obstacle_fails_at_the_gradient_estimate():
    # 5x with -inf on |x| < 0.1: its slope is not 5 but undefined, so the
    # solve stops at the first estimate time instead of stepping from a
    # floor estimate
    iv, field, coeffs = _setup_1d()

    def obstacle(t, X):
        return np.where(np.abs(X[:, 0]) < 0.1, -np.inf, 5.0 * X[:, 0])

    with pytest.raises(NanError, match=r"non-finite obstacle values at t = 0, "):
        solve_limit_vi(iv, field, coeffs, obstacle, n_x=41)


def test_unknown_vi_type_rejected():
    iv, field, coeffs = _setup_1d()
    with pytest.raises(ValueError):
        solve_limit_vi(iv, field, coeffs, constant_obstacle(1.0), vi_type="other",
                       n_x=21)


def test_two_dimensional_static_tube_on_disk():
    disk = Disk(1.0)
    field = oblique_from_tangent(disk, 0.5)
    coeffs = constant_coefficients([0.0, 0.0], np.eye(2))
    ref = ReferencePath.constant([0.0, 0.0], 0.0, 1.0)
    obs = tube_obstacle(ref, 0.5, 1.0, complement=True)
    vg = solve_limit_vi(disk, field, coeffs, obs, n_x=41, store_every=1)
    assert vg.value_at(0.0, [0.0, 0.0]) <= 1e-9
    assert float(vg.layers.min()) >= 0.0
    assert vg.value_at(0.0, [0.0, 0.8]) == pytest.approx(1.0, abs=1e-9)
    rep = residual_scan(disk, field, coeffs, vg, obs)
    assert rep.ok()


def test_two_dimensional_values_are_pinned():
    # values recorded from the solver before the lattice, neighbor and ghost
    # tables were written once for every dimension
    coeffs = constant_coefficients([0.0, 0.0], np.eye(2))
    obs = tube_obstacle(ReferencePath.constant([0.0, 0.0], 0.0, 1.0), 0.5, 1.0,
                        complement=True, smoothing=2 / 30)
    disk = Disk(1.0)
    vg = solve_limit_vi(disk, oblique_from_tangent(disk, 0.5), coeffs, obs, n_x=31)
    assert vg.value_at(0.0, [0.3, 0.2]) == pytest.approx(0.07596726944973012, abs=1e-12)
    assert vg.value_at(0.0, [0.45, -0.1]) == pytest.approx(0.5607603177827698, abs=1e-12)
    ell = Ellipse(1.2, 0.7)
    vg = solve_eps_vi(ell, oblique_from_tangent(ell, 0.3), coeffs, obs, NoiseScale(0.3),
                      n_x=31)
    assert vg.value_at(0.0, [0.0, 0.0]) == pytest.approx(0.19815718682096128, abs=1e-12)
    assert vg.value_at(0.0, [0.3, 0.2]) == pytest.approx(0.41539145428928465, abs=1e-12)


def _disk_grid() -> ValueGrid:
    """A grid on the unit disk whose oblique field (kappa = 0.5) puts ghost
    stencils in play."""
    disk = Disk(1.0)
    grid = solve_limit_vi(disk, oblique_from_tangent(disk, 0.5),
                          constant_coefficients([0.0, 0.0], np.eye(2)),
                          tube_obstacle(ReferencePath.constant([0.0, 0.0], 0.0, 1.0),
                                        0.5, 1.0, complement=True), n_x=21)
    assert grid.dimension == 2 and not grid.mask.all()
    return grid


def test_value_grid_npz_round_trip(tmp_path):
    iv, field, coeffs = _setup_1d()
    line = solve_limit_vi(iv, field, coeffs, constant_obstacle(0.7), n_x=31)
    for vg, points in ((line, [[0.3]]), (_disk_grid(), [[0.0, 0.0], [0.237, -0.413]])):
        fn = tmp_path / f"grid{vg.dimension}.npz"
        vg.save_npz(fn)
        back = load_npz(fn)
        assert len(back.axes) == len(vg.axes)
        for got, want in [*zip(back.axes, vg.axes), (back.mask, vg.mask),
                          (back.times, vg.times), (back.layers, vg.layers)]:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert (back.vi_type, back.h, back.dt, back.eps) == (vg.vi_type, vg.h, vg.dt, vg.eps)
        for x in points:
            assert back.value_at(0.0, x) == vg.value_at(0.0, x)


def _reference_npz(grid: ValueGrid, path) -> None:
    """``np.savez_compressed`` rewritten with fixed entry timestamps, the
    two-pass writer that ``save_npz`` replaced."""
    buf = io.BytesIO()
    np.savez_compressed(
        buf, dim=grid.dimension, mask=grid.mask, times=grid.times,
        layers=grid.layers, h=grid.h, dt=grid.dt, eps=grid.eps,
        vi_type=grid.vi_type, **{f"axis{j}": a for j, a in enumerate(grid.axes)})
    buf.seek(0)
    with zipfile.ZipFile(buf) as src, \
            zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as dst:
        for info in src.infolist():
            fixed = zipfile.ZipInfo(info.filename, date_time=(1980, 1, 1, 0, 0, 0))
            fixed.compress_type = zipfile.ZIP_DEFLATED
            dst.writestr(fixed, src.read(info.filename))


def test_value_grid_writers_match_the_reference_bytes(tmp_path):
    iv, field, coeffs = _setup_1d()
    line = solve_limit_vi(iv, field, coeffs, tube_obstacle(
        ReferencePath.constant([0.0], 0.0, 1.0), 0.5, 1.0, complement=True), n_x=41)
    plane = _disk_grid()
    special = line.layers.copy()
    special[0, :7] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1.5e-310]
    odd = dataclasses.replace(line, layers=special)
    for name, grid in (("line", line), ("plane", plane), ("odd", odd)):
        got, want = tmp_path / f"{name}.npz", tmp_path / f"{name}_ref.npz"
        grid.save_npz(got)
        _reference_npz(grid, want)
        assert got.read_bytes() == want.read_bytes(), name


def _per_slot_stencils(domain, field, xs, ys, mask, flat_index, ghosts):
    """The pullback walk once per missing-neighbour slot, even where several
    slots name one ghost point."""
    h = xs[1] - xs[0]
    nx, ny = len(xs), len(ys)
    idx4, wts4 = [], []
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    for i, j, slot in ghosts:
        di, dj = offsets[slot]
        g = np.array([xs[i] + di * h, ys[j] + dj * h])
        gam = field(domain.project_to_boundary(g))
        gam = gam / np.linalg.norm(gam)
        s = 0.5 * h
        while s <= 6.0 * h:
            q = g - s * gam
            if domain.signed_distance(q) >= 0.25 * h:
                i0 = int(np.clip(np.searchsorted(xs, q[0]) - 1, 0, nx - 2))
                j0 = int(np.clip(np.searchsorted(ys, q[1]) - 1, 0, ny - 2))
                corners = [(i0, j0), (i0 + 1, j0), (i0, j0 + 1), (i0 + 1, j0 + 1)]
                if all(mask[a, b] for a, b in corners):
                    fx = (q[0] - xs[i0]) / h
                    fy = (q[1] - ys[j0]) / h
                    idx4.append([flat_index[a, b] for a, b in corners])
                    wts4.append([(1 - fx) * (1 - fy), fx * (1 - fy),
                                 (1 - fx) * fy, fx * fy])
                    break
            s += 0.25 * h
    return (np.array(idx4, dtype=int).reshape(-1, 4),
            np.array(wts4, dtype=float).reshape(-1, 4))


@pytest.mark.parametrize("dom, kappa", [(Disk(1.0), 0.5), (Ellipse(1.2, 0.7), 0.3)])
def test_each_ghost_point_is_walked_once_to_the_per_slot_bytes(dom, kappa, monkeypatch):
    from obliqueldp import hjbvi

    field = oblique_from_tangent(dom, kappa)
    seen, walks, pullback = [], [], hjbvi._pullback_stencils
    project = dom.project_to_boundary

    def recorded(*args):
        seen.append(args[:-1] + (list(args[-1]),))
        return pullback(*seen[-1])

    monkeypatch.setattr(hjbvi, "_pullback_stencils", recorded)
    monkeypatch.setattr(dom, "project_to_boundary", lambda g: walks.append(1) or project(g))
    ws = hjbvi._Workspace(dom, field, constant_coefficients([0.0, 0.0], np.eye(2)), 31)
    monkeypatch.undo()
    (args,) = seen
    idx, wts = _per_slot_stencils(*args)
    assert ws.g_idx.tobytes() == idx.tobytes() and ws.g_wts.tobytes() == wts.tobytes()
    # several slots name one ghost point, which is walked once
    xs, ys, ghosts = args[2], args[3], args[-1]
    h = xs[1] - xs[0]
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    points = {np.array([xs[i] + offsets[s][0] * h, ys[j] + offsets[s][1] * h]).tobytes()
              for i, j, s in ghosts}
    assert len(walks) == len(points) < len(ghosts)

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obliqueldp.geometry import (
    CoefficientField,
    Disk,
    Ellipse,
    Interval,
    ObliqueField,
    constant_coefficients,
    normal_field,
    oblique_from_tangent,
)
from obliqueldp import reflect
from obliqueldp.reflect import (
    Control,
    TimeGrid,
    holder_half_quotient,
    reflect_rows,
    reflect_step,
    solve_reflected_ode,
    solve_skorokhod_picard,
    validate_reflected_path,
)


def _disk_setup(kappa=0.5):
    disk = Disk(1.0)
    return disk, oblique_from_tangent(disk, kappa)


def test_time_grid_uniform():
    g = TimeGrid.uniform(0.0, 1.0, 8)
    assert g.n_steps == 8
    assert g.t0 == 0.0 and g.t_end == 1.0
    np.testing.assert_allclose(g.dts, 0.125)


def test_control_action_of_constant_control():
    g = TimeGrid.uniform(0.0, 2.0, 64)
    a = Control.from_function(g, lambda t: np.array([0.3, -0.4]))
    # 0.5 * |a|^2 * T with |a| = 0.5, T = 2
    assert a.action() == pytest.approx(0.25, abs=1e-12)
    z = Control.zero(g, 3)
    assert z.action() == 0.0
    assert z.m == 3


def test_reflect_step_leaves_interior_points_alone():
    disk, field = _disk_setup()
    p = np.array([0.2, 0.1])
    q, dz = reflect_step(disk, field, p)
    np.testing.assert_allclose(q, p, atol=0.0)
    np.testing.assert_allclose(dz, 0.0, atol=0.0)


def test_reflect_step_oblique_pushback_fixed_points():
    # fixed points computed independently with a root solver on
    # c = p - lambda * gamma(c) constrained to the boundary
    disk, field = _disk_setup(0.5)
    q, dz = reflect_step(disk, field, np.array([1.05, 0.30]))
    np.testing.assert_allclose(q, [0.972142668073, 0.234389916403], atol=1e-8)
    np.testing.assert_allclose(dz, [0.077857331927, 0.065610083597], atol=1e-8)

    q2, dz2 = reflect_step(disk, field, np.array([0.4, -1.2]))
    np.testing.assert_allclose(q2, [0.217712434447, -0.976012958873], atol=1e-8)
    np.testing.assert_allclose(dz2, [0.182287565553, -0.223987041127], atol=1e-8)
    # pushback direction is parallel to the field at the contact point
    g = field(q2)
    cross = dz2[0] * g[1] - dz2[1] * g[0]
    assert abs(cross) < 1e-9


def _disk_contact(p, kappa, radius=1.0):
    """Closed-form oblique pushback onto the circle: p = (R + lam) n + lam kappa t
    at the contact angle theta, with n, t the normal and tangent there."""
    lam = (-radius + np.sqrt(radius ** 2 + (1 + kappa ** 2) * (p @ p - radius ** 2))) \
        / (1 + kappa ** 2)
    theta = np.arctan2(p[1], p[0]) - np.arctan2(lam * kappa, radius + lam)
    return radius * np.array([np.cos(theta), np.sin(theta)]), lam


def test_oblique_pushback_recovers_where_the_ray_misses():
    # the closed form reproduces the pinned fixed point above
    q, _ = _disk_contact(np.array([1.05, 0.30]), 0.5)
    np.testing.assert_allclose(q, [0.972142668073, 0.234389916403], atol=1e-11)
    # under kappa = 1 the first ray along gamma(projection) misses the circle;
    # the custom copy of the field takes the secant contact
    disk, field = _disk_setup(1.0)
    custom = _as_custom(field)
    for p in ([1.45, 0.0], [1.5, 0.0], [0.0, 1.42]):
        p = np.array(p)
        c, lam = _disk_contact(p, 1.0)
        for f in (field, custom):
            q, dz = reflect_step(disk, f, p)
            np.testing.assert_allclose(q, c, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(dz, lam * field(c), rtol=0.0, atol=1e-12)
    ell = Ellipse(1.2, 0.7)
    field = oblique_from_tangent(ell, 1.0)
    p = np.array([1.8, 0.0])
    q, dz = reflect_step(ell, field, p)
    assert abs(ell.signed_distance(q)) <= 1e-12
    np.testing.assert_allclose(q + dz, p, rtol=0.0, atol=1e-15)
    g = field(q)
    assert abs(dz[0] * g[1] - dz[1] * g[0]) <= 1e-12 and dz @ g > 0.0


def _as_custom(field):
    """The same gamma as a custom field (no tilt): no closed-form contact."""
    return ObliqueField(field.gamma)


@settings(max_examples=150, deadline=None)
@given(radius=st.floats(0.1, 5.0), cx=st.floats(-3.0, 3.0), cy=st.floats(-3.0, 3.0),
       kappa=st.one_of(st.sampled_from([-3.0, -1.0, 0.0, 3.0]), st.floats(0.01, 3.0),
                       st.floats(-3.0, -0.01)),
       overshoot=st.floats(-9.0, 0.5), theta=st.floats(0.0, 2.0 * np.pi))
def test_closed_disk_contact_is_the_oblique_pushback(radius, cx, cy, kappa, overshoot,
                                                     theta):
    # p lies radius * 10**overshoot beyond the circle; under kappa = 0 the
    # radial projection is a second oracle.
    centre = np.array([cx, cy])
    disk = Disk(radius, centre)
    field = oblique_from_tangent(disk, kappa)
    p = centre + radius * (1.0 + 10.0 ** overshoot) * np.array([np.cos(theta), np.sin(theta)])
    q, dz = disk.closed_contact(p, field)
    scale = np.linalg.norm(p - centre) + np.linalg.norm(centre)
    assert abs(np.hypot(*(q - centre)) - radius) <= 4 * np.spacing(max(radius, cx, -cx, cy, -cy))
    g = field(q)
    assert abs(dz[0] * g[1] - dz[1] * g[0]) <= 1e-14 * np.linalg.norm(dz) * np.linalg.norm(g)
    assert dz @ g >= 0.0
    assert np.abs(q + dz - p).max() <= 1e-15 * scale
    oracles = [disk.oblique_pushback(p, field)]
    if not kappa:
        oracles.append((disk.project_to_boundary(p), p - disk.project_to_boundary(p)))
    for q1, dz1 in oracles:
        np.testing.assert_allclose(q, q1, rtol=0.0, atol=1e-13 * scale)
        np.testing.assert_allclose(dz, dz1, rtol=0.0, atol=1e-13 * scale)
    # reflect_step answers with the closed form; the secant root of a custom
    # copy of the field agrees with it, and the normal field (kappa = 0) with
    # the radial projection
    assert all(a.tobytes() == b.tobytes() for a, b in zip(reflect_step(disk, field, p), (q, dz)))
    c = disk.project_to_boundary(p)
    for contact, oracle in ((disk.closed_contact(p, _as_custom(field)), (q, dz)),
                            (disk.closed_contact(p, normal_field(disk)),
                             (c, p - c))):
        for u, v in zip(contact, oracle):
            np.testing.assert_allclose(u, v, rtol=0.0, atol=1e-13 * scale)


def test_oscillating_rounds_case_takes_the_newton_contact(monkeypatch):
    # fixed-point rounds of ray lengths oscillate from this predictor; the
    # Newton contact makes the one closest-point scan, which also serves as
    # the exterior test
    ell = Ellipse(1.2, 0.7)
    field = oblique_from_tangent(ell, 0.25)
    p = np.array([1.575, 0.0])
    scans, fallbacks = [], []
    closest_angles, oblique_pushback = ell._closest_angles, ell.oblique_pushback
    monkeypatch.setattr(ell, "_closest_angles",
                        lambda P: scans.append(len(P)) or closest_angles(P))
    monkeypatch.setattr(ell, "oblique_pushback",
                        lambda *a: fallbacks.append(a) or oblique_pushback(*a))
    q, dz = reflect_step(ell, field, p)
    assert scans == [1] and not fallbacks
    q1, dz1 = oblique_pushback(p, field)
    np.testing.assert_allclose(q, q1, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(dz, dz1, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("case", ["ellipse", "disk"])
def test_secant_contact_settles_on_the_hard_cases(case):
    # where ray-length rounds oscillate (the ellipse) or the first ray misses
    # the circle (the disk), the secant root of a custom copy of the field
    # settles without the bracketed fallback, at the direct contact
    if case == "ellipse":
        domain = Ellipse(1.2, 0.7)
        field, points = oblique_from_tangent(domain, 0.25), [[1.575, 0.0]]
    else:
        domain, field = _disk_setup(1.0)
        points = [[1.45, 0.0], [1.5, 0.0], [0.0, 1.42]]
    fallbacks, oblique_pushback = [], domain.oblique_pushback
    domain.oblique_pushback = lambda *a: fallbacks.append(a) or oblique_pushback(*a)
    for p in map(np.array, points):
        for u, v in zip(reflect_step(domain, _as_custom(field), p),
                        reflect_step(domain, field, p)):
            np.testing.assert_allclose(u, v, rtol=0.0, atol=1e-12)
    assert not fallbacks


def test_exterior_ellipse_rows_go_through_reflect_step(monkeypatch):
    # perfbench/tracing.py counts reflect.reflect_step calls on the oblique
    # workloads: the ellipse's contact answers per row inside it
    ell = Ellipse(1.2, 0.7)
    field = oblique_from_tangent(ell, 0.3)
    calls = []
    step = reflect.reflect_step
    monkeypatch.setattr(reflect, "reflect_step", lambda *a: calls.append(a[2]) or step(*a))
    P = np.array([[0.2, 0.1], [1.3, 0.2], [-0.4, 0.3]])
    Q, dZ = reflect_rows(ell, field, P)
    assert [c.tolist() for c in calls] == [[1.3, 0.2]]
    assert abs(ell.signed_distance(Q[1])) <= 1e-12 and dZ[1].any()


def test_oblique_pushback_under_a_normal_field():
    # a tiny overshoot, whose root the scan brackets between two points where
    # p is behind gamma, and a root exactly on a scan angle
    disk = Disk(1.0)
    field = oblique_from_tangent(disk, 0.0)
    for p in (1.000001 * np.array([np.cos(1.0), np.sin(1.0)]), np.array([2.0, 0.0])):
        q, dz = disk.oblique_pushback(p, field)
        c = disk.project_to_boundary(p)
        np.testing.assert_allclose(q, c, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(dz, p - c, rtol=0.0, atol=1e-15)


def test_oblique_pushback_finds_a_root_at_the_seam_of_the_scan():
    # roots within rounding of the angle 0, where the cross product at 2*pi
    # rounds to the other sign than at 0
    ell = Ellipse(1.0, 1.0)
    for field, t in ((normal_field(ell), 2.0 * np.pi),
                     (oblique_from_tangent(ell, 4.4321210021707683e-185), 0.0)):
        p = 1.03125 * ell.boundary(np.float64(t))[0]
        q, dz = ell.oblique_pushback(p, field)
        np.testing.assert_allclose(q, [1.0, 0.0], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(dz, [0.03125, 0.0], rtol=0.0, atol=1e-15)


def test_one_dimensional_drift_sticks_to_endpoint():
    iv = Interval(-1.0, 1.0)
    field = normal_field(iv)
    coeffs = constant_coefficients([2.0], [[1.0]])
    grid = TimeGrid.uniform(0.0, 1.0, 4096)
    path = solve_reflected_ode(iv, field, coeffs, None, [0.5], grid)
    # free motion reaches the right endpoint at t = 0.25 and stays there
    k_hit = int(np.argmax(path.points[:, 0] >= 1.0 - 1e-12))
    assert grid.nodes[k_hit] == pytest.approx(0.25, abs=1e-12)
    assert path.points[-1, 0] == pytest.approx(1.0, abs=1e-12)
    # the constraint absorbs drift 2 over the remaining 0.75 of time
    assert path.total_variation == pytest.approx(1.5, abs=1e-3)
    rep = validate_reflected_path(iv, field, path)
    assert rep.ok()
    assert rep.n_reflections > 3000


def test_oblique_disk_drift_against_fine_reference():
    # reference endpoint from the same scheme at 2**20 steps
    ref_end = np.array([0.952455157167, -0.304678803966])
    disk, field = _disk_setup(0.5)
    coeffs = constant_coefficients([2.0, 0.0], np.eye(2))

    ends = {}
    for n in (2 ** 12, 2 ** 14):
        grid = TimeGrid.uniform(0.0, 1.0, n)
        path = solve_reflected_ode(disk, field, coeffs, None, [0.0, 0.0], grid)
        ends[n] = path.points[-1]
        rep = validate_reflected_path(disk, field, path)
        assert rep.ok()
        assert rep.n_reflections > 0
    err_lo = np.linalg.norm(ends[2 ** 12] - ref_end)
    err_hi = np.linalg.norm(ends[2 ** 14] - ref_end)
    assert err_lo < 1.5e-4
    # first-order stepping: two refinement levels shrink the error ~4x
    assert 2.5 < err_lo / err_hi < 6.0


def test_total_variation_on_oblique_disk_case():
    ref_tv = 1.095263940102  # value at 2**20 steps
    disk, field = _disk_setup(0.5)
    coeffs = constant_coefficients([2.0, 0.0], np.eye(2))
    grid = TimeGrid.uniform(0.0, 1.0, 2 ** 14)
    path = solve_reflected_ode(disk, field, coeffs, None, [0.0, 0.0], grid)
    assert path.total_variation == pytest.approx(ref_tv, rel=2e-3)


def test_holder_quotient_stable_under_refinement():
    disk, field = _disk_setup(0.5)
    coeffs = constant_coefficients([2.0, 0.0], np.eye(2))
    vals = []
    for n in (2 ** 12, 2 ** 13):
        grid = TimeGrid.uniform(0.0, 1.0, n)
        path = solve_reflected_ode(disk, field, coeffs, None, [0.0, 0.0], grid)
        vals.append(holder_half_quotient(path))
    assert vals[0] == pytest.approx(np.sqrt(2.0), rel=1e-3)
    assert 0.5 < vals[0] / vals[1] < 2.0


def test_bounded_action_paths_share_one_holder_envelope():
    # sublevel sets of the rate functional are compact: paths driven by
    # controls of action 1 share one Holder-1/2 envelope, which half the
    # sample already essentially bounds
    iv = Interval(-1.0, 1.0)
    field, coeffs = normal_field(iv), constant_coefficients([0.0], [[1.0]])
    grid = TimeGrid.uniform(0.0, 1.0, 256)
    rng = np.random.default_rng(20240801)
    quotients = []
    for _ in range(12):
        raw = rng.standard_normal((grid.n_steps, 1))
        action = 0.5 * float(np.sum(raw ** 2 * grid.dts[:, None]))
        control = Control(grid, raw / np.sqrt(action))
        path = solve_reflected_ode(iv, field, coeffs, control, [0.0], grid)
        quotients.append(holder_half_quotient(path))
    envelope = max(quotients)
    assert envelope == pytest.approx(0.3522, rel=1e-2)
    assert envelope <= 1.5 * max(quotients[:6])


def test_controlled_path_moves_against_drift():
    disk, field = _disk_setup(0.5)
    coeffs = constant_coefficients([2.0, 0.0], np.eye(2))
    grid = TimeGrid.uniform(0.0, 1.0, 1024)
    # control cancels the drift exactly: b - sigma a = 0
    a = Control.from_function(grid, lambda t: np.array([2.0, 0.0]))
    path = solve_reflected_ode(disk, field, coeffs, a, [0.0, 0.0], grid)
    np.testing.assert_allclose(path.points[-1], [0.0, 0.0], atol=1e-12)
    assert path.total_variation == 0.0


@pytest.mark.parametrize("ctrl_grid, grid", [
    # the rate solver's segments: 4 control cells on 16 steps
    (TimeGrid.uniform(0.0, 1.0, 4), TimeGrid.uniform(0.0, 1.0, 16)),
    # cells whose nodes do not line up with the steps: 3 cells on 7 steps
    (TimeGrid.uniform(0.0, 1.0, 3), TimeGrid.uniform(0.0, 1.0, 7)),
], ids=["segments", "misaligned"])
def test_controlled_drift_reads_the_control_of_each_step(ctrl_grid, grid):
    # the control rows are looked up once per path: the bits of a path that
    # calls Control.at at every step's left node
    disk, field = _disk_setup(0.5)
    coeffs = CoefficientField(
        b=lambda t, x: np.array([1.0 - 0.8 * x[0], 0.3 * x[1] + t]),
        sigma=lambda t, x: np.array([[1.0, 0.2 * x[1]], [0.1 * t, 0.7]]),
        m=2)
    control = Control(ctrl_grid, np.linspace(-2.1, 1.3, 2 * ctrl_grid.n_steps).reshape(-1, 2))
    b_fun, s_fun = coeffs.pointwise()

    def oracle_drift(k, x):
        t = grid.nodes[k]
        return b_fun(t, x) - s_fun(t, x) @ control.at(t)

    x0 = np.array([0.3, -0.2])
    oracle = reflect._euler_reflect(disk, field, x0, grid, oracle_drift)
    path = solve_reflected_ode(disk, field, coeffs, control, x0, grid)
    assert path.points.tobytes() == oracle.points.tobytes()
    assert path.reflection_increments.tobytes() == oracle.reflection_increments.tobytes()
    assert path.total_variation > 0.0


def _state_dependent_disk_coeffs():
    return CoefficientField(
        b=lambda t, x: np.array([1.0 - 0.8 * x[0], 0.3 * x[1]]),
        sigma=lambda t, x: np.eye(2),
        m=2,
    )


def test_picard_matches_stepper_and_contracts():
    disk, field = _disk_setup(0.5)
    coeffs = _state_dependent_disk_coeffs()
    grid = TimeGrid.uniform(0.0, 1.0, 512)
    tol = 1e-10
    direct = solve_reflected_ode(disk, field, coeffs, None, [0.9, 0.0], grid)
    fixed, diag = solve_skorokhod_picard(disk, field, coeffs, None, [0.9, 0.0],
                                         grid, tol=tol)
    sup = float(np.max(np.linalg.norm(direct.points - fixed.points, axis=1)))
    assert sup <= 3.0 * tol
    assert diag.max_ratio <= 0.6
    assert all(it <= 200 for it in diag.iterations)


def test_controlled_picard_windows_match_the_stepper():
    # each window's sweep reads the control rows of its own steps
    disk, field = _disk_setup(0.5)
    coeffs = _state_dependent_disk_coeffs()
    grid = TimeGrid.uniform(0.0, 1.0, 256)
    control = Control(TimeGrid.uniform(0.0, 1.0, 3), [[0.4, -0.3], [-1.2, 0.5], [0.6, 0.1]])
    tol = 1e-10
    direct = solve_reflected_ode(disk, field, coeffs, control, [0.9, 0.0], grid)
    fixed, diag = solve_skorokhod_picard(disk, field, coeffs, control, [0.9, 0.0],
                                         grid, tol=tol, eta=0.25)
    assert diag.window_count == 4
    assert float(np.max(np.linalg.norm(direct.points - fixed.points, axis=1))) <= 3.0 * tol


def test_picard_window_splitting_via_eta():
    disk, field = _disk_setup(0.5)
    coeffs = _state_dependent_disk_coeffs()
    grid = TimeGrid.uniform(0.0, 1.0, 256)
    _, diag = solve_skorokhod_picard(disk, field, coeffs, None, [0.0, 0.0],
                                     grid, tol=1e-10, eta=0.25)
    assert diag.window_count == 4


def test_picard_windows_never_outnumber_steps():
    # eta below the grid step gives one window per step, as eta = dt does
    disk, field = _disk_setup(0.5)
    coeffs = _state_dependent_disk_coeffs()
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    fine, diag = solve_skorokhod_picard(disk, field, coeffs, None, [0.9, 0.0],
                                        grid, eta=0.01)
    step, _ = solve_skorokhod_picard(disk, field, coeffs, None, [0.9, 0.0],
                                     grid, eta=0.125)
    assert diag.window_count == 8
    assert np.array_equal(fine.points, step.points)


def test_flow_restart_property():
    disk, field = _disk_setup(0.5)
    coeffs = constant_coefficients([2.0, 0.0], np.eye(2))
    grid = TimeGrid.uniform(0.0, 1.0, 1024)
    full = solve_reflected_ode(disk, field, coeffs, None, [0.0, 0.0], grid)
    # a restart at a grid node (s = 0.5) replays the same float operations
    tail = TimeGrid(grid.nodes[512:])
    restart = solve_reflected_ode(disk, field, coeffs, None, full.points[512], tail)
    assert np.array_equal(restart.points, full.points[512:])
    assert np.array_equal(restart.reflection_increments, full.reflection_increments[512:])
    assert full.total_variation > 0.0


def test_start_outside_closure_rejected():
    disk, field = _disk_setup()
    coeffs = constant_coefficients([0.0, 0.0], np.eye(2))
    grid = TimeGrid.uniform(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        solve_reflected_ode(disk, field, coeffs, None, [2.0, 0.0], grid)


_DOMAINS = {"interval": Interval(-1.0, 1.0), "disk": Disk(1.0),
            "ellipse": Ellipse(1.2, 0.7)}


@pytest.mark.parametrize("kind", sorted(_DOMAINS))
def test_start_check_decides_as_the_signed_distance(kind):
    # 1e-13 outside fails the closure test but is accepted; 1e-9 outside is not
    domain = _DOMAINS[kind]
    edge = domain.boundary_points(8)
    out = domain.normal_many(edge)
    for x in np.concatenate([domain.sample_closure(8), edge,
                             edge + 1e-13 * out, edge + 1e-9 * out]):
        if domain.signed_distance(x) < -1e-12:
            with pytest.raises(ValueError, match="lies outside the closure"):
                reflect._checked_start(domain, x)
        else:
            assert reflect._checked_start(domain, x).tobytes() == x.tobytes()
    with pytest.raises(ValueError, match="expected point of shape"):
        reflect._checked_start(domain, np.zeros(domain.dimension + 1))


@functools.lru_cache(maxsize=None)
def _normal(kind):
    return normal_field(_DOMAINS[kind])


def _scaled_boundary_point(domain, r, theta):
    """The boundary point in direction theta, scaled by r about the center."""
    box = domain.bounding_box
    center, half = box.mean(axis=1), 0.5 * (box[:, 1] - box[:, 0])
    if domain.dimension == 1:
        return center + r * half * np.sign(np.cos(theta) + 0.5)
    return center + r * half * np.array([np.cos(theta), np.sin(theta)])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_DOMAINS)),
       kappa=st.one_of(st.none(), st.floats(-1.0, 1.0)), custom=st.booleans(),
       rows=st.lists(st.tuples(st.floats(0.0, 1.6), st.floats(0.0, 2.0 * np.pi)),
                     min_size=1, max_size=6))
# the disk's normal contact of one point is a row of its batch form
@example(kind="disk", kappa=None, custom=False, rows=[(1.3, 0.1), (1.1, 2.0), (0.5, 1.0)])
def test_batch_corrector_matches_reflect_step_and_keeps_the_invariants(kind, kappa, custom,
                                                                       rows):
    # a custom copy of the field keeps the secant contact under test; every
    # row of the batch is the one-point contact, bit for bit
    domain = _DOMAINS[kind]
    if kappa is None or domain.dimension == 1:
        field = _normal(kind)
    else:
        field = oblique_from_tangent(domain, kappa)
    if custom:
        field = _as_custom(field)
    P = np.array([_scaled_boundary_point(domain, r, th) for r, th in rows])
    Q, dZ = reflect_rows(domain, field, P)
    for p, q, dz, sd in zip(P, Q, dZ, domain.signed_distance_many(P)):
        q1, dz1 = reflect_step(domain, field, p)
        assert q.tobytes() == q1.tobytes() and dz.tobytes() == dz1.tobytes()
        if sd >= 0.0:
            # interior rows pass through untouched
            assert q.tobytes() == p.tobytes()
            assert not np.any(dz)
            continue
        assert domain.signed_distance(q) >= -1e-8
        g = field(domain.project_to_boundary(q))
        cosang = float(dz @ g) / (np.linalg.norm(dz) * np.linalg.norm(g))
        assert np.arccos(np.clip(cosang, -1.0, 1.0)) <= 1e-6


@pytest.mark.parametrize("kind", sorted(_DOMAINS))
@pytest.mark.parametrize("tilt", ["normal", "tilted", "custom"])
def test_closed_contact_leaves_the_closure_unchanged(kind, tilt):
    # points inside, on the boundary and an ulp either side of it; every one
    # that signed_distance puts in the closure (some only because it rounds
    # onto its own closest point) comes back unchanged with zero dz
    domain = _DOMAINS[kind]
    if tilt == "normal" or domain.dimension == 1:
        field = _normal(kind)
    else:
        field = oblique_from_tangent(domain, 0.4 if kind == "disk" else 1.0)
    if tilt == "custom":
        field = _as_custom(field)
    B = domain.boundary_points(24)
    centre = domain.bounding_box.mean(axis=1)
    P = np.concatenate([domain.sample_closure(8), B, np.nextafter(B, centre),
                        np.nextafter(B, 2.0 * B - centre)])
    closure = [p for p in P if domain.signed_distance(p) >= 0.0]
    assert len(closure) > 8 + len(B)
    for p in closure:
        q, dz = domain.closed_contact(p, field)
        assert q.tobytes() == p.tobytes() and dz.tobytes() == np.zeros_like(p).tobytes()
        q1, dz1 = reflect_step(domain, field, p)
        assert q1.tobytes() == q.tobytes() and dz1.tobytes() == dz.tobytes()


_WINDOWED = {
    "interval": (_DOMAINS["interval"], _normal("interval")),
    "disk-normal": (_DOMAINS["disk"], _normal("disk")),
    "disk-oblique": (_DOMAINS["disk"], oblique_from_tangent(_DOMAINS["disk"], 0.5)),
    "ellipse-oblique": (_DOMAINS["ellipse"],
                        oblique_from_tangent(_DOMAINS["ellipse"], 0.3)),
    "disk-custom": (_DOMAINS["disk"],
                    _as_custom(oblique_from_tangent(_DOMAINS["disk"], 1.0))),
    "ellipse-custom": (_DOMAINS["ellipse"],
                       _as_custom(oblique_from_tangent(_DOMAINS["ellipse"], 0.3))),
}


def _per_step(domain, field, X, grid, drifts, g_nodes):
    """Terminal rows and sup-norm deviations by one ``advance`` per step."""
    devs = [np.linalg.norm(X - g[0], axis=1) for g in g_nodes]
    for k, dt in enumerate(grid.dts):
        X, _ = reflect.advance(domain, field, X, drifts[k], dt)
        devs = [np.maximum(dv, np.linalg.norm(X - g[k + 1], axis=1))
                for dv, g in zip(devs, g_nodes)]
    return X, np.stack(devs, axis=1)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(_WINDOWED)),
       n_steps=st.sampled_from([2 * reflect.WINDOW + 5, reflect.WINDOW + 1, reflect.WINDOW,
                                reflect.WINDOW - 1, 9, 1]),
       rows=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 0.999, 1.0 - 1e-12, 1.0]),
                               st.floats(0.0, 2.0 * np.pi),
                               st.one_of(st.none(), st.sampled_from(
                                   [0, 1, reflect.WINDOW // 2, reflect.WINDOW - 1,
                                    reflect.WINDOW, -1]))),
                     min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 16))
def test_windowed_steps_equal_the_per_step_loop(case, n_steps, rows, seed):
    # Each row starts at r times a boundary point and, when it has an exit
    # step e, drifts outward so that its predictor first leaves at step e (at
    # step 0, mid-window, at a window's last step, at the next window's first
    # step or at the last step) and turns back inward two steps later; a row
    # on the boundary rests until step e.  Rows without one take random drifts.
    domain, field = _WINDOWED[case]
    grid = TimeGrid.uniform(0.0, 1.0, n_steps)
    center = domain.bounding_box.mean(axis=1)
    rng = np.random.default_rng(seed)
    X = np.empty((len(rows), domain.dimension))
    drifts = np.empty((n_steps, len(rows), domain.dimension))
    for i, (r, theta, exit_step) in enumerate(rows):
        w = _scaled_boundary_point(domain, 1.0, theta) - center
        X[i] = center + r * w
        if exit_step is None:
            drifts[:, i] = rng.normal(0.0, 0.5, (n_steps, domain.dimension))
            continue
        e, k = exit_step % n_steps, np.arange(n_steps)[:, None]
        speed = (1.0 - r) / (e + 0.5) if r < 1.0 else 0.05
        push = np.where(k <= e + 2, 1.0, -0.5) * ((k >= e) if r == 1.0 else 1.0)
        drifts[:, i] = push * (speed / grid.dts[0]) * w
    g_nodes = [np.repeat(center[None, :], n_steps + 1, axis=0),
               np.linspace(center, center + 0.3, n_steps + 1)]
    end, devs = reflect.sup_deviations(domain, field, X, grid, drifts, g_nodes)
    end1, devs1 = _per_step(domain, field, X, grid, drifts, g_nodes)
    assert end.tobytes() == end1.tobytes()
    assert devs.tobytes() == devs1.tobytes()


def test_windowed_batch_inside_the_closure_steps_without_advance(monkeypatch):
    disk, field = _disk_setup(0.5)
    calls = {"advance": 0, "inside_many": 0}
    advance, inside_many = reflect.advance, disk.inside_many

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reflect, "advance", counted("advance", advance))
    monkeypatch.setattr(disk, "inside_many", counted("inside_many", inside_many))
    n_steps = 2 * reflect.WINDOW + 5
    grid = TimeGrid.uniform(0.0, 1.0, n_steps)
    X = np.array([[0.0, 0.0], [0.3, -0.2], [-0.5, 0.1]])
    drifts = np.random.default_rng(1).uniform(-0.3, 0.3, (n_steps, 3, 2))
    g_nodes = [np.zeros((n_steps + 1, 2))]
    end, devs = reflect.sup_deviations(disk, field, X, grid, drifts, g_nodes)
    # one closure test per window
    assert calls == {"advance": 0, "inside_many": -(-n_steps // reflect.WINDOW)}
    # the same batch given as a callable takes one advance per step
    end1, devs1 = reflect.sup_deviations(disk, field, X, grid,
                                         lambda k, _X: drifts[k], g_nodes)
    assert calls["advance"] == n_steps
    assert end.tobytes() == end1.tobytes() and devs.tobytes() == devs1.tobytes()

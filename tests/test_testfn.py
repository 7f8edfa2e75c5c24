import numpy as np
import pytest

from obliqueldp.geometry import (
    Disk,
    Domain,
    Ellipse,
    Interval,
    ObliqueField,
    normal_field,
    oblique_from_tangent,
)
from obliqueldp.testfn import (
    ConstructionError,
    SmoothedDirectionField,
    TestFunction,
    build_testfn,
    check_testfn_properties,
)


@pytest.fixture(scope="module")
def tf_disk_normal():
    disk = Disk(1.0)
    return disk, build_testfn(disk, normal_field(disk), eps=0.1, rho=0.1)


@pytest.fixture(scope="module")
def tf_disk_oblique():
    disk = Disk(1.0)
    return disk, build_testfn(disk, oblique_from_tangent(disk, 0.5), eps=0.1, rho=0.1)


def test_constants_found_for_normal_reflection(tf_disk_normal):
    _, tf = tf_disk_normal
    assert (tf.A, tf.B, tf.C) == (2.0, 1.0, 1.0)
    assert tf.K == pytest.approx(58.300231, rel=1e-6)
    assert tf.mu_rho.bound_near_boundary() == pytest.approx(2.247841, rel=1e-5)


def test_constants_found_for_oblique_reflection(tf_disk_oblique):
    _, tf = tf_disk_oblique
    assert (tf.A, tf.B, tf.C) == (4.0, 1.0, 1.0)
    assert tf.K == pytest.approx(71.643414, rel=1e-6)
    assert tf.mu_rho.bound_near_boundary() == pytest.approx(2.513162, rel=1e-5)


def test_property_report_frozen_values_normal(tf_disk_normal):
    _, tf = tf_disk_normal
    rep = check_testfn_properties(tf, 4096)
    assert rep.K_psi_i == pytest.approx(7.367772, rel=1e-5)
    assert rep.K_psi_ii == pytest.approx(58.447387, rel=1e-5)
    assert rep.min_psi_iii == pytest.approx(18.369971, rel=1e-5)


def test_properties_hold_and_K_is_stable_under_doubling(tf_disk_oblique):
    _, tf = tf_disk_oblique
    r4 = check_testfn_properties(tf, 4096)
    r8 = check_testfn_properties(tf, 8192)
    for rep in (r4, r8):
        assert rep.min_psi_iii > 0.0
        assert np.isfinite(rep.K_psi_i) and np.isfinite(rep.K_psi_ii)
    k4 = max(r4.K_psi_i, r4.K_psi_ii)
    k8 = max(r8.K_psi_i, r8.K_psi_ii)
    assert abs(k8 - k4) <= 0.10 * k4
    # frozen values for the oblique configuration
    assert r4.K_psi_ii == pytest.approx(75.903694, rel=1e-5)
    assert r8.min_psi_iii == pytest.approx(1.124146, rel=1e-4)


def test_diagonal_values_follow_the_closed_form(tf_disk_oblique):
    disk, tf = tf_disk_oblique
    # on the diagonal the quadratic terms vanish and only the additive
    # distance term survives: psi(x, x) = -2 B (rho/eps)^2 d(x)
    for x in (np.array([0.3, -0.2]), np.array([0.0, 0.0]), np.array([-0.5, 0.1])):
        pred = -2.0 * tf.B * (tf.rho ** 2 / tf.eps ** 2) * disk.signed_distance(x)
        assert tf.psi(x, x) == pytest.approx(pred, abs=1e-9)
    xb = np.array([1.0, 0.0])
    assert tf.psi(xb, xb) == 0.0
    assert tf.phi(xb, xb) == 0.0


def test_additive_constants_are_essential(tf_disk_normal, tf_disk_oblique):
    # with B = C = 0 the boundary product can go negative for normal
    # reflection, and the oblique margin collapses by two orders
    disk, tf_n = tf_disk_normal
    ctrl_n = TestFunction(disk, normal_field(disk), tf_n.eps, tf_n.rho, tf_n.A,
                          0.0, 0.0, tf_n.mu_rho, sup_distance=tf_n.sup_distance)
    rep_n = check_testfn_properties(ctrl_n, 4096)
    assert rep_n.min_psi_iii < 0.0

    _, tf_o = tf_disk_oblique
    ctrl_o = TestFunction(disk, oblique_from_tangent(disk, 0.5), tf_o.eps, tf_o.rho,
                          tf_o.A, 0.0, 0.0, tf_o.mu_rho, sup_distance=tf_o.sup_distance)
    rep_o = check_testfn_properties(ctrl_o, 8192)
    assert rep_o.min_psi_iii < 0.5


def test_smoothed_field_tracks_the_boundary_direction(tf_disk_oblique):
    disk, tf = tf_disk_oblique
    field = oblique_from_tangent(disk, 0.5)
    Q = disk.boundary_points(64)
    exact = tf.mu_rho.boundary_values(Q)
    smoothed = np.array([tf.mu_rho(q) for q in Q])
    gap = float(np.max(np.linalg.norm(smoothed - exact, axis=1)))
    assert gap <= tf.rho
    # the exact boundary direction is gamma scaled to unit normal component
    g = field(Q[3])
    n = disk.normal(Q[3])
    np.testing.assert_allclose(exact[3], g / (g @ n), atol=1e-12)


def test_sandwich_bounds_on_random_pairs(tf_disk_oblique):
    disk, tf = tf_disk_oblique
    rng = np.random.default_rng(3)
    X = disk.sample_closure(256)
    Y = X[rng.permutation(256)]
    sep2 = np.sum((X - Y) ** 2, axis=1) / tf.eps ** 2
    rr = tf.rho ** 2 / tf.eps ** 2
    psi = tf.psi_many(X, Y)
    K = tf.K
    assert np.all(psi >= 0.5 * sep2 - K * rr - 1e-9)
    assert np.all(psi <= K * (sep2 + rr) + 1e-9)
    phi = tf.phi_many(X, Y)
    assert np.all(phi >= 0.5 * sep2 - 1e-9)
    assert np.all(phi <= K * sep2 + 1e-9)


def test_interval_and_coarse_noise_configurations():
    iv = Interval(-1.0, 1.0)
    tf_i = build_testfn(iv, normal_field(iv), eps=0.1, rho=0.1)
    assert (tf_i.A, tf_i.B, tf_i.C) == (2.0, 1.0, 1.0)
    ri = check_testfn_properties(tf_i, 2048)
    assert ri.min_psi_iii == pytest.approx(3.163177, rel=1e-4)

    disk = Disk(1.0)
    tf_c = build_testfn(disk, normal_field(disk), eps=0.5, rho=0.5)
    rc = check_testfn_properties(tf_c, 2048)
    assert rc.min_psi_iii == pytest.approx(1.645641, rel=1e-4)


def test_ellipse_configuration_builds():
    ell = Ellipse(1.2, 0.7)
    tf = build_testfn(ell, oblique_from_tangent(ell, 0.3), eps=0.2, rho=0.15,
                      n_boundary=48, probe_samples=192)
    assert (tf.A, tf.B, tf.C) == (2.0, 1.0, 1.0)
    rep = check_testfn_properties(tf, 256)
    assert rep.min_psi_iii == pytest.approx(10.522719, rel=1e-4)
    assert rep.K_psi_ii == pytest.approx(29.160822, rel=1e-4)


def test_odd_closure_sample_count_builds():
    # n_boundary = 8 once asked for 21 closure points, which the interior
    # pairs could not split into equal halves
    disk = Disk(1.0)
    tf = build_testfn(disk, oblique_from_tangent(disk, 0.5), eps=0.1, rho=0.1,
                      n_boundary=8)
    assert (tf.A, tf.B, tf.C) == (2.0, 1.0, 1.0)


def test_scale_parameters_validated():
    disk = Disk(1.0)
    field = normal_field(disk)
    for eps, rho in ((0.0, 0.1), (0.1, 0.0), (1.5, 0.1), (0.1, 1.5)):
        with pytest.raises(ValueError):
            build_testfn(disk, field, eps=eps, rho=rho)


def test_construction_fails_for_inward_tilted_field():
    # a direction field pointing 100 degrees off the normal leaves the
    # domain: no additive constants can make the boundary product positive
    disk = Disk(1.0)
    ang = np.deg2rad(100.0)

    def gamma(x):
        q = disk.project_to_boundary(x)
        n = disk.normal(q)
        t = np.array([-n[1], n[0]])
        return np.cos(ang) * n + np.sin(ang) * t

    bad = ObliqueField(gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConstructionError):
            build_testfn(disk, bad, eps=0.1, rho=0.1, n_boundary=48,
                         probe_samples=128)


def test_smoothed_field_jacobian_is_finite_through_the_core():
    # the blend to the interior constant keeps derivatives bounded where the
    # projection direction degenerates
    disk = Disk(1.0)
    sm = SmoothedDirectionField(disk, normal_field(disk), 0.1)
    # probe the constant core, the blend band, and the projection zone
    for p in (np.array([0.0, 0.0]), np.array([0.5, 0.0]), np.array([0.85, 0.0])):
        J = sm.jacobian(p)
        assert np.all(np.isfinite(J))
        assert np.linalg.norm(J) < 50.0


def _tilted_ellipse():
    """The ellipse (1.1, 0.8) turned by 0.4 about (0.2, -0.1), as a custom
    planar Domain: the generic closest-point solve, with no centre rule."""
    c, s = np.array([0.2, -0.1]), np.array([1.1, 0.8])
    R = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])

    def level(x):
        z = R.T @ (np.asarray(x) - c) / s
        return float(z @ z - 1.0)

    def grad(x):
        return R @ (2.0 * (R.T @ (np.asarray(x) - c)) / (s * s))

    def curve(t):
        e = np.stack([np.cos(t), np.sin(t)], axis=-1)
        g = (e * s) @ R.T
        return g, (e[..., ::-1] * np.array([-1.0, 1.0]) * s) @ R.T, -g

    return Domain(level, np.stack([c - 1.2, c + 1.2], axis=1), boundary=curve,
                  grad_level=grad, center=c)


def _two_solve_many(sm, P):
    """``SmoothedDirectionField.many`` written with one closest-point solve
    for the values and another for the depth."""
    n, d = P.shape
    shifted = (P[:, None, :] + sm.rho * sm.nodes[None, :, :]).reshape(-1, d)
    vals = sm.boundary_values(sm.domain.project_to_boundary_many(shifted))
    depth = sm.domain.signed_distance_many(shifted)
    s = np.clip((depth - sm.blend_lo) / (sm.blend_hi - sm.blend_lo), 0.0, 1.0)
    fade = 1.0 - s * s * (3.0 - 2.0 * s)
    ext = fade[:, None] * vals + (1.0 - fade)[:, None] * sm.mean
    return np.einsum("q,nqd->nd", sm.weights, ext.reshape(n, len(sm.weights), d))


@pytest.mark.parametrize("dom", [Ellipse(1.2, 0.7), Disk(1.0), Interval(-1.0, 1.0),
                                 _tilted_ellipse()], ids=["ellipse", "disk", "interval",
                                                          "custom"])
def test_smoothed_field_shares_its_projection_bit_for_bit(dom):
    field = normal_field(dom) if dom.dimension == 1 else oblique_from_tangent(dom, 0.3)
    sm = SmoothedDirectionField(dom, field, 0.1)
    rng = np.random.default_rng(7)
    inside = dom.sample_closure(40)
    lo, hi = dom.bounding_box[:, 0], dom.bounding_box[:, 1]
    outside = (lo + rng.uniform(-0.5, 1.5, (200, dom.dimension)) * (hi - lo))
    outside = outside[~dom.inside_many(outside)][:20]
    centre = getattr(dom, "center", np.zeros(1)) + 1e-13  # within 1e-12 of it
    P = np.vstack([inside, outside, centre])
    assert len(outside) == 20
    assert np.array_equal(sm.many(P), _two_solve_many(sm, P))


def test_smoothed_field_solves_each_closest_point_once(monkeypatch):
    ell = Ellipse(1.2, 0.7)
    sm = SmoothedDirectionField(ell, oblique_from_tangent(ell, 0.5), 0.1)
    rows = []
    solve = Domain._closest_points

    def counted(self, X):
        rows.append(len(X))
        return solve(self, X)

    monkeypatch.setattr(Domain, "_closest_points", counted)
    P = ell.sample_closure(9)
    sm.many(P)
    assert rows == [21 * len(P)]

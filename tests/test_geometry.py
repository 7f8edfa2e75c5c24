import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obliqueldp.geometry import (
    Disk,
    Domain,
    Ellipse,
    Interval,
    ObliqueConditionError,
    ObliqueField,
    constant_coefficients,
    normal_field,
    oblique_from_tangent,
    validate_oblique,
)
from obliqueldp.geometry import _behind_by_rounding, _row_norms
from obliqueldp.reflect import reflect_step


def test_interval_signed_distance_and_projection():
    iv = Interval(-1.0, 3.0)
    assert iv.signed_distance([0.0]) == pytest.approx(1.0)
    assert iv.signed_distance([2.5]) == pytest.approx(0.5)
    assert iv.signed_distance([3.2]) == pytest.approx(-0.2)
    assert iv.project_to_boundary([0.0])[0] == -1.0
    assert iv.project_to_boundary([2.0])[0] == 3.0
    np.testing.assert_allclose(iv.normal([-1.0]), [-1.0])
    np.testing.assert_allclose(iv.normal([3.0]), [1.0])
    ends = iv.boundary_points(6)
    assert sorted(set(ends[:, 0])) == [-1.0, 3.0]


def test_disk_signed_distance_matches_radius_formula():
    disk = Disk(2.0, center=(1.0, -1.0))
    pts = np.array([[1.0, -1.0], [2.5, -1.0], [1.0, 1.5], [4.0, -1.0]])
    expect = 2.0 - np.linalg.norm(pts - np.array([1.0, -1.0]), axis=1)
    np.testing.assert_allclose(disk.signed_distance_many(pts), expect, atol=1e-12)
    q = disk.project_to_boundary([2.0, -1.0])
    np.testing.assert_allclose(q, [3.0, -1.0], atol=1e-12)


def test_disk_signed_distance_rounds_like_the_batch():
    # points within 1e-16 of the circle, where a BLAS dot and a sum of
    # squares can round to opposite signs
    disk = Disk(1.0, center=(0.1, -0.2))
    rng = np.random.default_rng(3)
    th = rng.uniform(0.0, 2.0 * np.pi, 20000)
    r = 1.0 + rng.choice([-1e-16, 1e-16], size=20000)
    X = disk.center + r[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    sd = disk.signed_distance_many(X)
    assert [disk.signed_distance(x) for x in X] == sd.tolist()


def test_disk_batch_projection_and_normals_match_pointwise():
    # a point query, and a built-in field's point call, is the one-row batch
    rng = np.random.default_rng(7)
    for dom, pts, kappas in ((Disk(1.3, center=(0.2, 0.4)), rng.uniform(-2, 2, size=(64, 2)),
                              (0.0, 0.5)),
                             (Interval(-1.0, 3.0), rng.uniform(-2, 4, size=(64, 1)), (0.0,))):
        assert [dom.signed_distance(p) for p in pts] == dom.signed_distance_many(pts).tolist()
        proj_batch = dom.project_to_boundary_many(pts)
        proj_rows = np.array([dom.project_to_boundary(p) for p in pts])
        assert proj_batch.tobytes() == proj_rows.tobytes()
        nb = dom.normal_many(proj_batch)
        nr = np.array([dom.normal(q) for q in proj_batch])
        assert nb.tobytes() == nr.tobytes()
        np.testing.assert_allclose(np.linalg.norm(nb, axis=1), 1.0, atol=1e-12)
        for kappa in kappas:
            field = oblique_from_tangent(dom, kappa)
            rows = np.array([field(q) for q in proj_batch])
            assert rows.tobytes() == field.gamma_many(dom, proj_batch).tobytes()


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310,
                                1e154, -1e154, 1e-160, 1.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), lead=st.sampled_from([(), (3,)]),
       rows=st.integers(0, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_row_sq_norms_is_the_reduce_loop_bit_for_bit(data, d, lead, rows, seed):
    # ±0.0, subnormals whose squares underflow, and ±1e154 whose squares
    # overflow to inf, among any finite floats, in (B, d) and (W, B, d);
    # random mantissas besides, where a fused or BLAS dot rounds otherwise
    from hypothesis.extra.numpy import arrays

    from obliqueldp.geometry import _row_sq_norms

    rng = np.random.default_rng(seed)
    D = np.concatenate([data.draw(arrays(np.float64, lead + (rows, d), elements=st.one_of(
        _EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False)))),
        rng.standard_normal(lead + (64, d)) * 10.0 ** rng.uniform(-3, 3, lead + (64, d))],
        axis=-2)
    with np.errstate(over="ignore"):
        got, want = _row_sq_norms(D), np.add.reduce(D * D, axis=-1)
        norm = np.linalg.norm(D, axis=-1)
    assert not np.shares_memory(got, D)
    assert got.tobytes() == want.tobytes()
    assert np.sqrt(got).tobytes() == norm.tobytes()


@settings(max_examples=30, deadline=None)
@given(radius=st.floats(0.05, 20.0), cx=st.floats(-3.0, 3.0), cy=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_disk_queries_are_their_norm_formulas_bit_for_bit(radius, cx, cy, seed):
    # rows at the centre, on the circle, an ulp either side of it in each
    # coordinate, and well inside and outside
    disk = Disk(radius, center=(cx, cy))
    c = disk.center
    th = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 64)
    u = np.stack([np.cos(th), np.sin(th)], axis=1)
    on = c + radius * u
    X = np.vstack([c[None, :], on, np.nextafter(on, on + u), np.nextafter(on, on - u),
                   c + 0.3 * radius * u, c + 3.0 * radius * u])
    rel = X - c
    nr = np.linalg.norm(rel, axis=1, keepdims=True)
    assert disk.signed_distance_many(X).tobytes() == (radius - nr[:, 0]).tobytes()
    assert np.array_equal(disk.inside_many(X), nr[:, 0] <= radius)
    unit = np.where(nr < 1e-12, np.array([1.0, 0.0]), rel / np.maximum(nr, 1e-12))
    assert disk.project_to_boundary_many(X).tobytes() == (c + radius * unit).tobytes()
    assert disk.normal_many(X[1:]).tobytes() == (rel[1:] / nr[1:]).tobytes()
    out = nr[:, 0] > radius
    Q, dZ = X.copy(), np.zeros(X.shape)
    Q[out] = c + rel[out] * (radius / nr[out])
    dZ[out] = rel[out] * ((nr[out] - radius) / nr[out])
    got_q, got_dz = disk.pushback_many(X, normal_field(disk))
    assert (got_q.tobytes(), got_dz.tobytes()) == (Q.tobytes(), dZ.tobytes())


def test_ellipse_projection_against_parametric_scan():
    # closest points computed independently by dense parametric search
    ell = Ellipse(1.2, 0.7)
    cases = [
        ([0.9, 0.5], (0.883365935143, 0.473781819562), -0.031049719792),
        ([-0.3, 0.75], (-0.289737206662, 0.679289688259), -0.071451193928),
        ([1.5, -0.4], (1.145087407097, -0.209330392018), -0.402886892327),
    ]
    for p, q_exp, d_exp in cases:
        q = ell.project_to_boundary(p)
        np.testing.assert_allclose(q, q_exp, atol=1e-8)
        assert ell.signed_distance(p) == pytest.approx(d_exp, abs=1e-8)


def test_ellipse_projection_idempotent():
    ell = Ellipse(1.2, 0.7)
    for p in ell.sample_closure(32):
        q = ell.project_to_boundary(p)
        q2 = ell.project_to_boundary(q)
        assert np.linalg.norm(q - q2) < 1e-9


def test_ellipse_signed_distances_and_projections_are_pinned():
    # values of the per-row scalar Newton projection, kept bit for bit
    ell = Ellipse(1.2, 0.7)
    cases = [
        ([0.3, 0.2], 0.4706750454472452, [0.3933750956066301, 0.6613199431275641]),
        ([1.5, -0.4], -0.40288689232682845, [1.145087406652569, -0.20933039284623658]),
        ([-0.9, 0.65], -0.16027657078606727, [-0.8228142851086485, 0.5095331193496053]),
        ([0.0, 0.0], 0.7, [0.0, 0.7]),
        ([0.0, 1.1], -0.40000000000000013, [7.347880794884119e-17, 0.7]),
        ([-1.2, 0.0], 8.572527594031472e-17, [-1.2, 8.572527594031472e-17]),
    ]
    for p, d, q in cases:
        assert ell.signed_distance(p) == d
        assert ell.project_to_boundary(p).tolist() == q
    X = np.array([p for p, _, _ in cases])
    assert ell.signed_distance_many(X).tolist() == [d for _, d, _ in cases]
    assert ell.project_to_boundary_many(X).tolist() == [q for _, _, q in cases]


def _squircle(a=1.0, b=1.0, center=(0.0, 0.0)):
    """(x/a)^4 + (y/b)^4 < 1 around ``center``, with the polar boundary curve
    r(t) = ((3 + cos 4t)/4)^(-1/4) stretched by (a, b)."""
    c, s = np.asarray(center, dtype=float), np.array([a, b], dtype=float)

    def level(x):
        z = (np.asarray(x) - c) / s
        return z[0] ** 4 + z[1] ** 4 - 1.0

    def grad(x):
        return 4.0 * ((np.asarray(x) - c) / s) ** 3 / s

    def curve(t):
        # np.power, not **, which rounds differently on a numpy scalar
        u, s4, c4 = (3.0 + np.cos(4.0 * t)) / 4.0, np.sin(4.0 * t), np.cos(4.0 * t)
        p = np.power(u, -1.25)
        r, r1, r2 = (np.asarray(v)[..., None] for v in (
            np.power(u, -0.25), 0.25 * p * s4, 0.3125 * p / u * s4 * s4 + p * c4))
        e = np.stack([np.cos(t), np.sin(t)], axis=-1)
        e1 = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        return s * r * e, s * (r1 * e + r * e1), s * (r2 * e + 2.0 * r1 * e1 - r * e)

    return Domain(level, np.stack([c - 1.1 * s, c + 1.1 * s], axis=1), boundary=curve,
                  grad_level=grad, center=c), level, grad, curve


def _rows(dom, rng, n):
    """Rows inside, outside, within 1e-9 of the boundary, and at the centre."""
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    kind = rng.choice(5, size=n, p=[0.4, 0.3, 0.2, 0.05, 0.05])
    r = np.choose(kind, [rng.uniform(0.0, 2.0, n), 1.0 + 1e-9 * rng.standard_normal(n),
                         rng.uniform(2.0, 8.0, n), np.zeros(n), np.full(n, 1e-14)])
    return dom.center + r[:, None] * dom.boundary(th)[0]


@settings(max_examples=20, deadline=None)
@given(a=st.floats(0.2, 3.0), b=st.floats(0.2, 3.0), cx=st.floats(-2.0, 2.0),
       cy=st.floats(-2.0, 2.0), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(2, 600), cut=st.floats(0.0, 1.0))
def test_batched_ellipse_projection_matches_rows_and_is_a_closest_point(a, b, cx, cy, seed,
                                                                         n, cut):
    # the ellipse's closed-form Newton terms, and the generic ones on a squircle
    for dom in (Ellipse(a, b, (cx, cy)), _squircle(a, b, (cx, cy))[0]):
        X = _rows(dom, np.random.default_rng(seed), n)
        Q = dom.project_to_boundary_many(X)
        sd = dom.signed_distance_many(X)
        # batch invariance: each row as a one-row call, and a batch cut anywhere
        # (which moves the scan-block boundaries) gives the same bits
        for x, q, d in zip(X, Q, sd):
            assert dom.project_to_boundary(x).tobytes() == q.tobytes()
            assert dom.signed_distance(x) == d
        k = int(cut * n)
        assert np.concatenate([dom.signed_distance_many(X[:k]),
                               dom.signed_distance_many(X[k:])]).tobytes() == sd.tobytes()
        assert np.concatenate([dom.project_to_boundary_many(X[:k]),
                               dom.project_to_boundary_many(X[k:])]).tobytes() == Q.tobytes()
        N = dom.normal_many(Q)
        for q, nq in zip(Q, N):
            assert dom.normal(q).tobytes() == nq.tobytes()
        # on the boundary, at the projection's distance, and along the normal
        for x, q, d, nq in zip(X, Q, sd, N):
            assert abs(dom.level(q)) <= 1e-10
            r = x - q
            assert abs(d) == np.linalg.norm(r)
            assert abs(r[0] * nq[1] - r[1] * nq[0]) <= 1e-9
            assert np.signbit(d) == (dom.level(x) > 0.0)
        # no farther than the best of the curve's 720 scan points
        th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        scan = dom.center + dom.boundary(th)[0]
        best = np.min(np.linalg.norm(X[:, None, :] - scan[None, :, :], axis=2), axis=1)
        assert np.all(np.abs(sd) <= best + 1e-12)


def test_exterior_mask_is_the_signed_distance_sign():
    # rows inside, outside, at the centre, and within an ulp of the boundary:
    # every row at a negative signed distance is outside by the closure test,
    # and a row that the closure test alone puts outside lies at zero
    # distance, where its contact leaves it unchanged; on the disk and the
    # interval the two tests agree bit for bit
    rng = np.random.default_rng(11)
    th = rng.uniform(0.0, 2.0 * np.pi, 300)
    for dom in (Ellipse(1.2, 0.7, (-0.5, 0.3)), Ellipse(0.4, 1.7), _squircle(1.3, 0.6)[0],
                Disk(1.3, (0.2, -0.4))):
        B = dom.center + dom.boundary(th)[0]
        X = np.concatenate([
            dom.center[None, :], dom.center + np.array([[1e-14, -1e-14]]),
            dom.center + rng.uniform(0.0, 1.8, (300, 1)) * (B - dom.center),
            B, np.nextafter(B, np.inf), np.nextafter(B, -np.inf),
            np.nextafter(B, dom.center), np.nextafter(B, 2.0 * B - dom.center)])
        outside, sd = ~dom.inside_many(X), dom.signed_distance_many(X)
        assert not np.any((sd < 0.0) & ~outside)
        at_zero = outside & ~(sd < 0.0)
        assert not sd[at_zero].any()
        if isinstance(dom, Disk):
            assert not at_zero.any()
            continue
        assert at_zero.any()
        field = normal_field(dom)
        for p in X[at_zero]:
            q, dz = reflect_step(dom, field, p)
            assert q.tobytes() == p.tobytes() and dz.tobytes() == np.zeros(2).tobytes()
    iv = Interval(-1.0, 3.0)
    x = np.array([-1.0, 3.0, 1.0, np.nextafter(-1.0, -2.0), np.nextafter(3.0, 4.0), 5.0])
    X = x[:, None]
    assert (~iv.inside_many(X)).tobytes() == (iv.signed_distance_many(X) < 0.0).tobytes()


def _contact_case(shape, a, b, cx, cy, kappa):
    dom = Ellipse(a, b, (cx, cy)) if shape == "ellipse" else _squircle(a, b, (cx, cy))[0]
    if kappa is None:
        return dom, normal_field(dom)
    return dom, oblique_from_tangent(dom, kappa)


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(["ellipse", "squircle"]), a=st.floats(0.4, 2.5),
       b=st.floats(0.4, 2.5), cx=st.floats(-2.0, 2.0), cy=st.floats(-2.0, 2.0),
       kappa=st.one_of(st.none(), st.floats(-1.0, 1.0)),
       theta=st.floats(0.0, 2.0 * np.pi),
       overshoot=st.one_of(st.just(0.0), st.floats(1e-9, 0.05)))
def test_newton_contact_is_the_oblique_pushback(shape, a, b, cx, cy, kappa, theta,
                                                overshoot):
    # a predictor on the curve or up to 5% outside, pushed back along the
    # normal (kappa None) or the tilted field by reflect_step, which takes
    # the Newton contact
    dom, field = _contact_case(shape, a, b, cx, cy, kappa)
    p = dom.center + (1.0 + overshoot) * dom.boundary(np.float64(theta))[0]
    fallbacks, oblique_pushback = [], dom.oblique_pushback
    dom.oblique_pushback = lambda *args: fallbacks.append(args) or oblique_pushback(*args)
    q, dz = reflect_step(dom, field, p)
    if dom.signed_distance(p) >= 0.0:
        assert q.tobytes() == p.tobytes() and not dz.any()
        return
    assert all(u.tobytes() == v.tobytes()
               for u, v in zip((q, dz), dom.closed_contact(p, field)))
    assert abs(dom.level(q)) <= 1e-12
    if not overshoot:
        # outside by a rounding error, and pushed back by one at most
        assert np.abs(dz).max() <= 1e-14
        return
    np.testing.assert_allclose(q + dz, p, rtol=0.0, atol=1e-15 * np.abs(p).max())
    g = field(q)
    size = np.linalg.norm(dz)
    assert abs(dz[0] * g[1] - dz[1] * g[0]) <= 1e-10 * size * np.linalg.norm(g)
    assert dz @ dom.normal(q) > 0.0
    # Newton settled in front of p: no bracketed fallback
    assert not fallbacks
    q1, dz1 = oblique_pushback(p, field)
    np.testing.assert_allclose(q, q1, rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(dz, dz1, rtol=0.0, atol=1e-11)


def test_oblique_pushback_of_a_point_outside_by_rounding():
    # predictors within 3e-16 of random ellipses: the near contact's lam may
    # round negative, and no contact then lies in front of p
    rng = np.random.default_rng(12)
    outside = 0
    while outside < 200:
        dom = Ellipse(*rng.uniform(0.4, 2.5, 2), rng.uniform(-2.0, 2.0, 2))
        field = oblique_from_tangent(dom, rng.uniform(-1.0, 1.0))
        for th in rng.uniform(0.0, 2.0 * np.pi, 8):
            p = dom.center + dom.boundary(np.float64(th))[0] + rng.uniform(-3e-16, 3e-16, 2)
            if dom.signed_distance(p) >= 0.0:
                continue
            outside += 1
            q, dz = dom.oblique_pushback(p, field)
            assert np.abs(dz).max() <= 1e-14 and abs(dom.level(q)) <= 1e-14
            np.testing.assert_allclose(q + dz, p, rtol=0.0, atol=1e-15)


def test_curve_points_are_the_boundary_curve():
    th = np.linspace(-7.0, 7.0, 101)
    for dom in (Disk(1.3, (0.2, -0.4)), Ellipse(1.2, 0.7, (-0.5, 0.3)), _squircle()[0]):
        assert dom._curve_points(th).tobytes() == dom.boundary(th)[0].tobytes()
        for t in (np.float64(0.37), np.float64(-2.5), th[17]):
            assert dom._curve_points(t).tobytes() == dom.boundary(t)[0].tobytes()
            # the one-row float form: the ellipse's own, the others' boundary(t)
            assert (np.array(dom._curve_row(float(t))).tobytes()
                    == np.stack(dom.boundary(t)).tobytes())


# The closest-point scan as it allocated its (rows, 720) temporaries block by
# block, and the one-row Newton steps as they ran on numpy scalars: the
# buffered scan and the float steps must keep their bits.

def _scalar_newton_terms(dom, t, x, y):
    if isinstance(dom, Ellipse):
        a, b = dom.semi_axes
        s, c = np.sin(t), np.cos(t)
        return ((b * b - a * a) * s * c + a * x * s - b * y * c,
                (b * b - a * a) * (c * c - s * s) + a * x * c + b * y * s)
    g, g1, g2 = dom.boundary(t)
    rx, ry = g[..., 0] - x, g[..., 1] - y
    return (rx * g1[..., 0] + ry * g1[..., 1],
            g1[..., 0] * g1[..., 0] + g1[..., 1] * g1[..., 1] + rx * g2[..., 0] + ry * g2[..., 1])


def _allocating_closest_angles(dom, P):
    t = np.empty(len(P))
    for lo in range(0, len(P), 64):
        blk = P[lo:lo + 64]
        d2 = (dom._scan_x - blk[:, :1]) ** 2 + (dom._scan_y - blk[:, 1:]) ** 2
        t[lo:lo + 64] = dom._scan_theta[np.argmin(d2, axis=1)]
    if len(P) == 1:
        tt, x, y = t[0], P[0, 0], P[0, 1]
        for _ in range(60):
            f, fp = _scalar_newton_terms(dom, tt, x, y)
            if abs(fp) < 1e-14:
                break
            step = f / fp
            tt -= step
            if abs(step) < 1e-15:
                break
        t[0] = tt
        return t
    live = np.arange(len(P))
    for _ in range(60):
        tl = t[live]
        f, fp = _scalar_newton_terms(dom, tl, P[live, 0], P[live, 1])
        go = ~(np.abs(fp) < 1e-14)
        live, tl, step = live[go], tl[go], f[go] / fp[go]
        tl -= step
        t[live] = tl
        live = live[~(np.abs(step) < 1e-15)]
        if not len(live):
            break
    return t


def _scalar_newton_contact(dom, t, x, y, k):
    for _ in range(60):
        g, g1, g2 = (v.tolist() for v in dom.boundary(t))
        rx, ry = x - g[0], y - g[1]
        wx, wy = g1[1] + k * g1[0], k * g1[1] - g1[0]
        f = rx * wy - ry * wx
        fp = (wx * g1[1] - wy * g1[0] + rx * (k * g2[1] - g2[0])
              - ry * (g2[1] + k * g2[0]))
        if not fp:
            return None
        step = f / fp
        t -= step
        if abs(step) < 1e-15:
            return t
    return None


def _scalar_closed_contact(dom, p, field):
    """``Domain.closed_contact`` under a built-in field, on numpy scalars."""
    if dom.inside_many(p[None, :])[0]:
        return p, np.zeros(2)
    x, y = float(p[0] - dom.center[0]), float(p[1] - dom.center[1])
    t = _allocating_closest_angles(dom, np.array([[x, y]]))[0]
    if not _row_norms((p - (dom.center + dom._curve_points(t)))[None, :])[0]:
        return p, np.zeros(2)
    t = _scalar_newton_contact(dom, t, x, y, field.kappa)
    if t is not None:
        q = dom.center + dom._curve_points(t)
        gam = field.gamma_many(dom, q[None, :])[0]
        lam = float(np.add.reduce((p - q) * gam)) / float(gam @ gam)
        if lam >= 0.0:
            return p - lam * gam, lam * gam
        if _behind_by_rounding(p, lam, gam):
            return p, np.zeros(2)
    return dom.oblique_pushback(p, field)


def _pinning_rows(dom, rng, n):
    """Random rows, rows on the axes of symmetry through the centre (where
    scan distances tie and the first angle wins), and rows within 1e-12 of
    the centre."""
    X = _rows(dom, rng, n)
    r = rng.uniform(-3.0, 3.0, n)
    on_axes = np.where(rng.random((n, 1)) < 0.5, np.stack([r, 0.0 * r], axis=1),
                       np.stack([0.0 * r, r], axis=1))
    near_centre = rng.uniform(-1e-12, 1e-12, (n, 2))
    pick = rng.choice(3, size=n, p=[0.5, 0.35, 0.15])
    return np.choose(pick[:, None], [X, dom.center + on_axes, dom.center + near_centre])


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(["ellipse", "squircle"]), a=st.floats(0.2, 3.0),
       b=st.floats(0.2, 3.0), cx=st.floats(-2.0, 2.0), cy=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 200), cut=st.integers(1, 150))
def test_buffered_scan_and_float_steps_keep_the_closest_angles(shape, a, b, cx, cy, seed,
                                                               n, cut):
    dom = Ellipse(a, b, (cx, cy)) if shape == "ellipse" else _squircle(a, b, (cx, cy))[0]
    P = _pinning_rows(dom, np.random.default_rng(seed), n) - dom.center
    want = _allocating_closest_angles(dom, P)
    assert dom._closest_angles(P).tobytes() == want.tobytes()
    # a batch whose tail block is cut short, across a 64-row block boundary
    k = min(cut, n - 1)
    assert dom._closest_angles(P[k:]).tobytes() == _allocating_closest_angles(
        dom, P[k:]).tobytes()
    for i in range(0, n, 7):
        assert (dom._closest_angles(P[i:i + 1]).tobytes()
                == _allocating_closest_angles(dom, P[i:i + 1]).tobytes())


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(["ellipse", "squircle"]), a=st.floats(0.4, 2.5),
       b=st.floats(0.4, 2.5), cx=st.floats(-2.0, 2.0), cy=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_float_newton_steps_keep_the_contacts(shape, a, b, cx, cy, seed):
    dom = Ellipse(a, b, (cx, cy)) if shape == "ellipse" else _squircle(a, b, (cx, cy))[0]
    rng = np.random.default_rng(seed)
    th = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 12), np.arange(4) * (np.pi / 2)])
    over = np.concatenate([rng.uniform(0.0, 0.3, 12), rng.uniform(1e-9, 0.3, 4)])
    # outside, on the curve, and on the axes of symmetry beyond the curve
    P = dom.center + (1.0 + over)[:, None] * dom.boundary(th)[0]
    for kappa in (0.0, 0.3, -1.0):
        field = oblique_from_tangent(dom, kappa)
        for p in P:
            got, want = dom.closed_contact(p, field), _scalar_closed_contact(dom, p, field)
            assert all(u.tobytes() == v.tobytes() for u, v in zip(got, want))


@pytest.mark.parametrize("skip", [0, 37, 1000])
@pytest.mark.parametrize("n", [1, 7, 100, 2048, 4097])
@pytest.mark.parametrize("d", [1, 2])
def test_sobol_points_are_scipys_unscrambled_sobol(d, n, skip):
    # the package builds the points itself; scipy's generator is the oracle
    from scipy.stats import qmc

    from obliqueldp.geometry import _sobol_points

    m = max(1, int(np.ceil(np.log2(skip + n))))
    expected = qmc.Sobol(d, scramble=False).random_base2(m)[skip:skip + n]
    got = _sobol_points(d, n, skip=skip)
    assert got.shape == (n, d)
    assert got.tobytes() == expected.tobytes()
    # numpy integer counts, as a caller may pass, give the same points
    assert _sobol_points(d, np.int64(n), skip=np.int64(skip)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d, n, skip, message", [
    (3, 8, 0, "dimension 1 or 2"),
    (2, 2 ** 30 + 1, 0, "at most 2\\*\\*30"),
    (1, 1, 2 ** 30, "at most 2\\*\\*30"),
])
def test_sobol_points_reject_a_third_dimension_and_too_many_points(d, n, skip, message):
    from obliqueldp.geometry import _sobol_points

    with pytest.raises(ValueError, match=message):
        _sobol_points(d, n, skip=skip)


def test_disk_closure_sample_is_the_closed_form():
    # the disk samples its closure as the ellipse does; the bits are those of
    # c + R sqrt(u0) (cos theta, sin theta) at theta = 2 pi u1
    from scipy.stats import qmc

    u = qmc.Sobol(d=2, scramble=False).random_base2(7)[:100]
    r_unit, th = np.sqrt(u[:, 0]), 2.0 * np.pi * u[:, 1]
    for radius, c in ((1.3, (0.2, -0.4)), (0.7, (0.0, 0.0)), (2.9, (-1.1, 3.3))):
        r = radius * r_unit
        expected = np.asarray(c) + np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        assert Disk(radius, c).sample_closure(100).tobytes() == expected.tobytes()


def test_generic_closure_sample_is_the_per_point_rejection():
    # a custom domain keeps the Sobol points of its box that the closure
    # test accepts, block by block: the bits of the point-by-point rejection
    # loop; the loose box takes several blocks
    from obliqueldp.geometry import _sobol_points

    sq, level, grad, curve = _squircle(1.3, 0.6, (0.2, -0.1))
    loose = Domain(level, sq.bounding_box * 3.0, boundary=curve, grad_level=grad,
                   center=sq.center)
    for dom, n in ((sq, 100), (sq, 7), (loose, 150)):
        lo, hi = dom.bounding_box[:, 0], dom.bounding_box[:, 1]
        expected, skip, block = [], 0, max(2 * n, 64)
        while len(expected) < n:
            for u in _sobol_points(2, block, skip=skip):
                p = lo + u * (hi - lo)
                if dom.level(p) <= 0.0 and len(expected) < n:
                    expected.append(p)
            skip += block
        assert dom.sample_closure(n).tobytes() == np.array(expected).tobytes()
    assert skip > max(2 * n, 64)


def test_custom_level_set_domain_squircle():
    # x^4 + y^4 < 1 via the generic machinery; oracle by dense boundary scan
    sq, level, grad, curve = _squircle()
    assert sq.signed_distance([0.5, 0.5]) == pytest.approx(0.476141373, abs=1e-6)
    assert sq.signed_distance([1.2, 0.1]) == pytest.approx(-0.200024902, abs=1e-6)
    for p in [[0.3, -0.6], [0.9, 0.2], [-0.7, -0.7]]:
        q = sq.project_to_boundary(p)
        assert abs(level(q)) < 1e-9
        assert abs(abs(sq.signed_distance(p)) - np.linalg.norm(np.asarray(p) - q)) < 1e-9
    n = sq.normal(sq.project_to_boundary([0.9, 0.2]))
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-9)
    # a planar domain needs both its curve and its level gradient
    box = sq.bounding_box
    with pytest.raises(ValueError, match="boundary"):
        Domain(level, box, grad_level=grad)
    with pytest.raises(ValueError, match="grad_level"):
        Domain(level, box, boundary=curve)


def test_validate_oblique_accepts_normal_and_tilted_fields():
    disk = Disk(1.0)
    rep = validate_oblique(disk, ObliqueField(lambda x: x / np.linalg.norm(x)), n_samples=512)
    assert rep.min_dot == pytest.approx(1.0, abs=1e-9)
    fob = oblique_from_tangent(disk, 0.5)
    assert fob.kind == "oblique-tangent"
    assert fob.kappa == 0.5
    # a built-in field is its tilt: kappa 0 is the normal field, None custom
    nf, flat = normal_field(disk), oblique_from_tangent(disk, 0.0)
    assert (nf.kind, nf.kappa) == (flat.kind, flat.kappa) == ("normal", 0.0)
    pts = disk.boundary_points(7) * 1.1
    assert np.array_equal([nf(p) for p in pts], [flat(p) for p in pts])
    assert np.array_equal(nf.gamma_many(disk, pts), flat.gamma_many(disk, pts))
    assert ObliqueField(fob.gamma).kind == "custom"


def test_validate_oblique_rejects_tangential_field():
    disk = Disk(1.0)
    with pytest.raises(ObliqueConditionError):
        validate_oblique(disk, ObliqueField(lambda x: np.array([-x[1], x[0]])), n_samples=256)


def test_oblique_gamma_many_matches_scalar_calls():
    disk = Disk(1.0)
    fob = oblique_from_tangent(disk, 0.5)
    q = disk.boundary_points(16)
    batch = fob.gamma_many(disk, q)
    rows = np.array([fob(p) for p in q])
    np.testing.assert_allclose(batch, rows, atol=1e-12)


@pytest.mark.parametrize("dom, pinned", [
    (Disk(1.0), (0.9999999999999999, 0.9999999999999998, 1.2999999999999998)),
    (Ellipse(1.2, 0.7), (0.9999999999999997, 0.9999999999999997, 1.13160676220906)),
])
def test_gamma_many_takes_the_normals_it_is_given(dom, pinned):
    # given normals are the ones gamma_many would solve for, so every bit
    # stays; a custom field ignores them; the certified minima are the
    # values of the two-solve formula
    q = dom.boundary_points(64)
    n = dom.normal_many(q)
    custom = ObliqueField(lambda x: 1.3 * (x - dom.center) / np.linalg.norm(x - dom.center))
    fields = [oblique_from_tangent(dom, k) for k in (0.0, 0.5)] + [custom]
    for field, min_dot in zip(fields, pinned):
        assert np.array_equal(field.gamma_many(dom, q, n), field.gamma_many(dom, q))
        assert validate_oblique(dom, field, 512).min_dot == min_dot
    assert np.array_equal(custom.gamma_many(dom, q, np.full_like(n, np.nan)),
                          custom.gamma_many(dom, q))


def test_constant_coefficients_fields_and_flags():
    co = constant_coefficients([1.0, -2.0], [[0.5, 0.0], [0.0, 0.3]])
    assert co.is_constant
    assert co.m == 2
    np.testing.assert_allclose(co.b(0.3, np.zeros(2)), [1.0, -2.0])
    np.testing.assert_allclose(co.constant_sigma, [[0.5, 0.0], [0.0, 0.3]])


def test_sample_closure_prefix_property():
    # low-discrepancy samples extend as prefixes when the count doubles
    disk = Disk(1.0)
    a = disk.sample_closure(64)
    b = disk.sample_closure(128)
    np.testing.assert_allclose(a, b[:64], atol=0.0)

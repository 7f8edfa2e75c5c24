"""Two-point comparison function certifying boundary compatibility.

For a smooth bounded domain and a validated oblique direction field this
module builds a quadratic-type function of a pair of points whose boundary
gradients have strictly positive product with the direction field, together
with sandwich and gradient bounds measured in units of the pair separation.
The construction constants are found by doubling searches against sampled
inequalities; the result is a diagnostic artifact, not a solver input.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .geometry import Domain, ObliqueField

_FD_STEP = 1e-6
_DOUBLING_CAP = float(2 ** 40)
_AXIS_NODES = np.array([-0.8, -0.4, 0.0, 0.4, 0.8])


class ConstructionError(RuntimeError):
    """Raised when the doubling search cannot satisfy the sampled properties."""


def _shifts(P):
    """The central-difference pairs (P + h e_j, P - h e_j), h = _FD_STEP, one per axis j."""
    d = np.shape(P)[-1]
    for j in range(d):
        e = np.zeros(d)
        e[j] = _FD_STEP
        yield P + e, P - e


def _fd_grad(f, stencils) -> list:
    """Central differences (f(plus) - f(minus)) / (2 h), one per stencil pair."""
    return [(f(plus) - f(minus)) / (2.0 * _FD_STEP) for plus, minus in stencils]


def _bump_grid(dimension: int):
    """Tensor quadrature of a compactly supported bump on the unit ball.

    Five nodes per axis; nodes outside the unit ball get weight zero and the
    remaining weights are normalized to sum to one.
    """
    axes = np.meshgrid(*([_AXIS_NODES] * dimension), indexing="ij")
    nodes = np.stack([a.ravel() for a in axes], axis=1)
    r2 = np.sum(nodes * nodes, axis=1)
    w = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-12)), 0.0)
    keep = w > 0.0
    nodes, w = nodes[keep], w[keep]
    return nodes, w / w.sum()


class SmoothedDirectionField:
    """Mollified extension of gamma / (gamma . n) off the boundary.

    Values on the boundary come from the direction field itself; the
    extension follows the boundary projection near the boundary and blends
    into a constant average in the deep interior, so finite-difference
    derivatives stay bounded away from the projection's cut locus.  The
    mollifier averages over a bump of radius ``rho`` with a fixed
    five-node-per-axis quadrature.
    """

    def __init__(self, domain: Domain, field: ObliqueField, rho: float):
        self.domain = domain
        self.field = field
        self.rho = float(rho)
        self.nodes, self.weights = _bump_grid(domain.dimension)
        r_in = domain.interior_radius()
        self.blend_lo = r_in / 3.0
        self.blend_hi = 2.0 * r_in / 3.0
        self.mean = self.boundary_values(domain.boundary_points(128)).mean(axis=0)

    def boundary_values(self, Q) -> np.ndarray:
        """Exact (unsmoothed) values at points assumed to lie on the boundary."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        nrm = self.domain.normal_many(Q)
        g = self.field.gamma_many(self.domain, Q, nrm)
        dots = np.einsum("ij,ij->i", g, nrm)
        return g / dots[:, None]

    def _extended(self, P: np.ndarray) -> np.ndarray:
        # one closest-point solve serves the values and the depth
        proj = self.domain.project_to_boundary_many(P)
        vals = self.boundary_values(proj)
        depth = self.domain._signed_distances(P, proj)
        s = np.clip((depth - self.blend_lo) / (self.blend_hi - self.blend_lo), 0.0, 1.0)
        fade = 1.0 - s * s * (3.0 - 2.0 * s)
        return fade[:, None] * vals + (1.0 - fade)[:, None] * self.mean

    def many(self, P) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        n, d = P.shape
        shifted = (P[:, None, :] + self.rho * self.nodes[None, :, :]).reshape(-1, d)
        vals = self._extended(shifted).reshape(n, len(self.weights), d)
        return np.einsum("q,nqd->nd", self.weights, vals)

    def __call__(self, x) -> np.ndarray:
        return self.many(np.asarray(x, dtype=float).reshape(1, -1))[0]

    def jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.stack(_fd_grad(self, _shifts(x)), axis=1)

    def bound_near_boundary(self) -> float:
        """Max of value norm plus Jacobian norm over a band inside the
        boundary, at 128 boundary points."""
        xb = self.domain.boundary_points(128)
        nrm = self.domain.normal_many(xb)
        worst = 0.0
        for pull in (0.0, 0.5 * self.rho, self.rho, 2.0 * self.rho):
            P = xb - pull * nrm
            vals = self.many(P)
            jnorm = sum(np.einsum("ij,ij->i", col, col)
                        for col in _fd_grad(self.many, _shifts(P)))
            total = np.linalg.norm(vals, axis=1) + np.sqrt(jnorm)
            worst = max(worst, float(total.max()))
        return worst


def _pair_raw(domain: Domain, smoother: SmoothedDirectionField, eps: float, X, Y):
    """Separation-scaled ingredients of the comparison function at point pairs.

    Returns (sep2, q0, q1, dx, dy) where the A-dependent part is q0 + A*q1
    and sep2 is |x-y|^2 / eps^2.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    eps2 = eps * eps
    z = X - Y
    sep2 = np.einsum("ij,ij->i", z, z) / eps2
    dx = domain.signed_distance_many(X)
    dy = domain.signed_distance_many(Y)
    mu_mid = smoother.many(0.5 * (X + Y))
    cross = 2.0 * np.einsum("ij,ij->i", z, mu_mid) * (dx - dy) / eps2
    q0 = sep2 + cross
    q1 = (dx - dy) ** 2 / eps2
    return sep2, q0, q1, dx, dy


def _psi_from_raw(raw, A: float, B: float, C: float, eps: float, rho: float,
                  sup_distance: float) -> np.ndarray:
    _, q0, q1, dx, dy = raw
    phi = q0 + A * q1
    weight = np.exp(C * (2.0 * sup_distance - dx - dy))
    return weight * phi - B * (rho * rho) / (eps * eps) * (dx + dy)


class TestFunction:
    """Comparison function of two points with certified boundary behavior.

    ``A``, ``B``, ``C`` are the construction constants, ``mu_rho`` the
    smoothed direction field used in the cross term, and ``K`` the property
    constant reported by the build-time check.  Instances are immutable in
    spirit: nothing mutates them after construction.
    """

    __test__ = False  # not a pytest suite despite the name

    def __init__(self, domain: Domain, field: ObliqueField, eps: float, rho: float,
                 A: float, B: float, C: float, mu_rho: SmoothedDirectionField,
                 K: float = float("nan"), sup_distance=None):
        self.domain = domain
        self.field = field
        self.eps = float(eps)
        self.rho = float(rho)
        self.A = float(A)
        self.B = float(B)
        self.C = float(C)
        self.mu_rho = mu_rho
        self.K = float(K)
        self.sup_distance = float(domain.interior_radius() if sup_distance is None
                                  else sup_distance)

    def _raw(self, X, Y):
        return _pair_raw(self.domain, self.mu_rho, self.eps, X, Y)

    def phi_many(self, X, Y) -> np.ndarray:
        _, q0, q1, _, _ = self._raw(X, Y)
        return q0 + self.A * q1

    def psi_many(self, X, Y) -> np.ndarray:
        return _psi_from_raw(self._raw(X, Y), self.A, self.B, self.C,
                             self.eps, self.rho, self.sup_distance)

    def phi(self, x, y) -> float:
        return float(self.phi_many(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)))[0])

    def psi(self, x, y) -> float:
        return float(self.psi_many(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)))[0])

    def grad_x_psi_many(self, X, Y) -> np.ndarray:
        shifted = _shifts(np.asarray(X, dtype=float))
        return np.stack(_fd_grad(lambda S: self.psi_many(S, Y), shifted), axis=1)

    def grad_y_psi_many(self, X, Y) -> np.ndarray:
        shifted = _shifts(np.asarray(Y, dtype=float))
        return np.stack(_fd_grad(lambda S: self.psi_many(X, S), shifted), axis=1)


@dataclass(frozen=True)
class TestFnReport:
    """Sampled property constants for a built test function."""

    K_psi_i: float
    K_psi_ii: float
    min_psi_iii: float
    n_samples: int

    def to_dict(self) -> dict:
        return asdict(self)


def _boundary_pair_set(domain: Domain, rho: float, n_generic: int):
    """Boundary-first-point pairs covering both near and far separations.

    Each boundary point gets one generic far partner plus partners pulled a
    short way inward along the normal; the near-diagonal family is where the
    additive constant does the work, the far family is where the exponential
    weight does.
    """
    xb = domain.boundary_points(n_generic)
    partners = domain.sample_closure(n_generic)
    normals = domain.normal_many(xb)
    xs = [xb]
    ys = [partners]
    for pull in (0.25 * rho, rho, 3.0 * rho):
        xs.append(xb)
        ys.append(xb - pull * normals)
    # boundary-boundary pairs at small separations catch the collision
    # family where only the additive constant keeps the product positive
    for roll in (1, 3):
        xs.append(xb)
        ys.append(np.roll(xb, roll, axis=0))
    return np.vstack(xs), np.vstack(ys)


def _double(ok, start: float, name: str, worst) -> float:
    """Double ``start`` until ``ok`` holds; past the cap, name the worst sample
    at the last value tried."""
    value = start
    while not ok(value):
        value *= 2.0
        if value > _DOUBLING_CAP:
            raise ConstructionError(f"{name} constant search exceeded the doubling cap; "
                                    f"worst {worst(value / 2.0)}")
    return value


def build_testfn(domain: Domain, field: ObliqueField, eps: float, rho: float,
                 n_boundary: int = 192, probe_samples: int = 1024) -> TestFunction:
    """Construct the comparison function by doubling the constants in order.

    The quadratic constant is raised until the sampled lower sandwich bound
    holds, then the additive and exponential constants are raised until the
    sampled boundary gradient products are strictly positive; raising the
    exponential constant re-enters the additive search because the
    exponential weight amplifies the near-diagonal deficit.
    """
    eps = float(eps)
    rho = float(rho)
    if not (0.0 < eps <= 1.0) or not (0.0 < rho <= 1.0):
        raise ValueError("eps and rho must lie in (0, 1]")
    smoother = SmoothedDirectionField(domain, field, rho)

    qb = domain.boundary_points(max(64, 4 * n_boundary // 3))
    gap = np.linalg.norm(smoother.many(qb) - smoother.boundary_values(qb), axis=1)
    if float(gap.max()) > rho:
        worst = qb[int(np.argmax(gap))]
        raise ConstructionError(
            "smoothed direction field misses the boundary values by "
            f"{gap.max():.3e} > rho at {worst}")

    sup_d = domain.interior_radius()

    # an even count, so the interior pairs below split it into equal halves
    closure = domain.sample_closure(2 * max(2, 4 * n_boundary // 3))
    Xi, Yi = closure[0::2], closure[1::2]
    Xb, Yb = _boundary_pair_set(domain, rho, n_boundary)
    Yc, Xc = _boundary_pair_set(domain, rho, n_boundary)

    X_all, Y_all = np.vstack([Xi, Xb, Xc]), np.vstack([Yi, Yb, Yc])
    sep2_all, q0_all, q1_all, _, _ = _pair_raw(domain, smoother, eps, X_all, Y_all)

    def lower_slack(a):
        """Worst slack of the sampled lower sandwich bound, and its pair."""
        slack = q0_all + a * q1_all - 0.5 * sep2_all
        i = int(np.argmin(slack))
        return slack[i], i

    def sandwich_ok(a) -> bool:
        slack, i = lower_slack(a)
        return slack >= -1e-12 * (1.0 + 0.5 * sep2_all[i])

    def worst_pair(a) -> str:
        slack, i = lower_slack(a)
        return f"pair x={X_all[i]}, y={Y_all[i]}, lower-bound slack {slack:.3e}"

    A = _double(sandwich_ok, 1.0, "quadratic", worst_pair)

    def raw(X, Y):
        return _pair_raw(domain, smoother, eps, X, Y)

    # pair ingredients at the shifted points do not depend on B and C
    sten_x = [(raw(P, Yb), raw(M, Yb)) for P, M in _shifts(Xb)]
    sten_y = [(raw(Xc, P), raw(Xc, M)) for P, M in _shifts(Yc)]
    gam_x = field.gamma_many(domain, Xb)
    gam_y = field.gamma_many(domain, Yc)
    near_x = np.linalg.norm(Xb - Yb, axis=1) <= 2.0 * rho
    near_y = np.linalg.norm(Xc - Yc, axis=1) <= 2.0 * rho

    def products(B, C):
        """gamma . grad psi at the boundary point of each pair, per family."""
        def psi(r):
            return _psi_from_raw(r, A, B, C, eps, rho, sup_d)
        return [sum(gam[:, j] * col for j, col in enumerate(_fd_grad(psi, sten)))
                for gam, sten in ((gam_x, sten_x), (gam_y, sten_y))]

    def positive(B, C, near_only: bool) -> bool:
        vx, vy = products(B, C)
        if near_only:
            vx, vy = vx[near_x], vy[near_y]
        # not `>`: a NaN minimum ends the search
        return not np.concatenate([vx, vy]).min() <= 1e-9

    def worst_sample(B, C) -> str:
        vx, vy = products(B, C)
        if vx.min() <= vy.min():
            i = int(np.argmin(vx))
            return f"sample x={Xb[i]}, y={Yb[i]}, product {vx[i]:.3e}"
        i = int(np.argmin(vy))
        return f"sample x={Xc[i]}, y={Yc[i]}, product {vy[i]:.3e}"

    B = 1.0

    def exponential_ok(c) -> bool:
        # each exponential constant re-enters the additive search
        nonlocal B
        B = _double(lambda b: positive(b, c, True), B, "additive",
                    lambda b: worst_sample(b, c))
        return positive(B, c, False)

    C = _double(exponential_ok, 1.0, "exponential", lambda c: worst_sample(B, c))

    tf = TestFunction(domain, field, eps, rho, A, B, C, smoother, sup_distance=sup_d)
    probe = check_testfn_properties(tf, probe_samples)
    if not (np.isfinite(probe.K_psi_i) and np.isfinite(probe.K_psi_ii)):
        raise ConstructionError("property constants came out non-finite on the probe sample")
    if probe.min_psi_iii <= 0.0:
        raise ConstructionError(
            "boundary gradient product is nonpositive on the probe sample "
            f"({probe.min_psi_iii:.3e}) despite the construction sample passing")
    tf.K = max(probe.K_psi_i, probe.K_psi_ii)
    return tf


def check_testfn_properties(tf: TestFunction, n_samples: int) -> TestFnReport:
    """Measure the sandwich, gradient, and boundary-product properties.

    Uses a deterministic low-discrepancy sample of point pairs, a quarter of
    them with the first point on the boundary, a quarter with the second, the
    rest interior; gradients are central differences with step 1e-6.
    """
    dom = tf.domain
    eps2 = tf.eps * tf.eps
    rho2 = tf.rho * tf.rho
    nb = max(8, n_samples // 4)
    ni = max(8, n_samples - 2 * nb)

    closure = dom.sample_closure(2 * ni + 2 * nb)
    Xi, Yi = closure[0:2 * ni:2], closure[1:2 * ni:2]
    bdry = dom.boundary_points(nb)
    Xb, Yb = bdry, closure[2 * ni:2 * ni + nb]
    Xc, Yc = closure[2 * ni + nb:2 * ni + 2 * nb], bdry

    X = np.vstack([Xi, Xb, Xc])
    Y = np.vstack([Yi, Yb, Yc])
    z = X - Y
    sep = np.linalg.norm(z, axis=1)
    sep2 = sep * sep

    psi0 = tf.psi_many(X, Y)
    lower_need = (0.5 * sep2 / eps2 - psi0) * eps2 / rho2
    upper_need = psi0 * eps2 / (sep2 + rho2)
    k_i = max(float(np.max(lower_need)), float(np.max(upper_need)), 0.0)

    gx = tf.grad_x_psi_many(X, Y)
    gy = tf.grad_y_psi_many(X, Y)
    sum_norm = np.linalg.norm(gx + gy, axis=1)
    split_norm = np.linalg.norm(gx, axis=1) + np.linalg.norm(gy, axis=1)
    k_ii = max(float(np.max(sum_norm * eps2 / (sep2 + rho2))),
               float(np.max(split_norm * eps2 / (sep + rho2))), 0.0)

    sl_x = slice(len(Xi), len(Xi) + nb)
    sl_y = slice(len(Xi) + nb, len(Xi) + 2 * nb)
    gam_x = tf.field.gamma_many(dom, X[sl_x])
    gam_y = tf.field.gamma_many(dom, Y[sl_y])
    prod_x = np.einsum("ij,ij->i", gx[sl_x], gam_x)
    prod_y = np.einsum("ij,ij->i", gy[sl_y], gam_y)
    min_iii = min(float(prod_x.min()), float(prod_y.min()))

    return TestFnReport(k_i, k_ii, min_iii, len(X))

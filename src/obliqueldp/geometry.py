"""Bounded smooth domains, signed distances, and oblique boundary fields.

A domain is the open region where a scalar level function is negative; the
signed distance convention used throughout the package is positive inside
the domain and negative outside.  Dimensions 1 and 2 are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class GeometryError(RuntimeError):
    """Base class for geometry failures."""


class DegenerateGeometryError(GeometryError):
    """Raised when a level-set gradient vanishes where a normal is needed."""


class ObliqueConditionError(GeometryError):
    """Raised when an oblique field fails the uniform interior-cone condition."""


class ReflectionError(RuntimeError):
    """Raised when the oblique pushback cannot be resolved."""


def _sobol_points(d: int, n: int, skip: int = 0) -> np.ndarray:
    """Points ``skip`` to ``skip + n`` of the unscrambled Sobol sequence in
    [0,1)^d, d <= 2, bit for bit scipy's ``qmc.Sobol(d, scramble=False)``.

    Point k is the XOR, over the set bits b of its Gray code k ^ (k >> 1),
    of the 30-bit direction numbers m_b 2^(29-b), times 2^-30: m_b = 1 in
    dimension 1, and m_0 = 1, m_{b+1} = m_b ^ (m_b << 1) in dimension 2
    (Joe-Kuo's polynomial x + 1).
    """
    if d > 2:
        raise ValueError(f"Sobol points are built for dimension 1 or 2, got {d}")
    if skip + n > 1 << 30:
        raise ValueError(f"at most 2**30 Sobol points, asked for {skip + n}")
    k = np.arange(skip, skip + n, dtype=np.int64)
    gray = (k ^ (k >> 1))[:, None]
    x, m = np.zeros((n, d), dtype=np.int64), np.ones(2, dtype=np.int64)
    for b in range(int(skip + n).bit_length()):
        x ^= ((gray >> b) & 1) * (m[:d] << (29 - b))
        m[1] ^= m[1] << 1
    return x * 2.0 ** -30


def _behind_by_rounding(p: np.ndarray, lam: float, g: np.ndarray) -> bool:
    """Whether the contact ``p - lam*g`` with ``lam < 0`` lies behind ``p`` by
    no more than a rounding error, so that ``p`` is on the boundary."""
    return -lam * math.sqrt(float(g @ g)) <= 1e-14 * (1.0 + float(np.abs(p).max()))


def _as_point(x, dimension: int) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.shape != (dimension,):
        raise ValueError(f"expected point of shape ({dimension},), got {p.shape}")
    return p


def _row_dots(D: np.ndarray, E: Optional[np.ndarray] = None) -> np.ndarray:
    """``d @ e`` for every row of ``D`` and of ``E`` (default ``D``), rounded
    as the 1-d product (the BLAS dot behind ``np.linalg.norm``), which a sum
    of products is not always."""
    return (D[:, None, :] @ (D if E is None else E)[:, :, None])[:, 0, 0]


def _row_norms(D: np.ndarray) -> np.ndarray:
    """The square root of ``_row_dots(D)``: ``np.linalg.norm`` of every row
    of ``D`` taken one row at a time, bit for bit."""
    return np.sqrt(_row_dots(D))


def _row_sq_norms(D: np.ndarray) -> np.ndarray:
    """The squared norms over the last axis of ``D``, summed column by column
    into a new array: ``np.add.reduce(D * D, axis=-1)``, whose square root is
    ``np.linalg.norm(D, axis=-1)``, bit for bit at d <= 2 (a row has at most
    one addition), without numpy's per-row reduce loop.  ``_row_dots`` rounds
    like the BLAS dot instead, which this sum does not always."""
    s = D[..., 0] * D[..., 0]
    for j in range(1, D.shape[-1]):
        s += D[..., j] * D[..., j]
    return s


class Domain:
    """Bounded planar domain given by a level function and a boundary curve.

    Parameters
    ----------
    level : callable
        Scalar function, negative inside the domain, zero on the boundary,
        positive outside.  Must be smooth near the boundary.
    bounding_box : array_like, shape (2, 2)
        Axis-aligned box containing the closure of the domain.
    boundary : callable
        ``boundary(t) -> (g, g1, g2)``: the 2*pi-periodic boundary curve at
        the parameters ``t`` (a number or an array) with its first and second
        derivatives, each of shape ``t.shape + (2,)``, relative to ``center``.
        It must round alike on a number and on an array (numpy ufuncs do; the
        ``**`` operator on a numpy scalar does not always), so that a one-row
        call gives the bits of a batch.
    grad_level : callable
        Gradient of ``level``.
    center : array_like, shape (2,)
        Origin of the boundary curve.

    Closest boundary points come from one routine: the best of 720 curve
    points, refined by Newton's method on ``(g(t) - p) . g'(t) = 0``.  Every
    boundary query is a batch over rows; its point form is the one-row batch.
    """

    # Rows per block of the (rows, 720) parameter scan: small blocks keep its
    # temporaries in cache and out of the peak memory.
    _scan_block = 64
    # Closest point given to rows within 1e-12 of the centre (None: no rule).
    _centre_projection = None

    def __init__(self, level: Callable, bounding_box, boundary: Optional[Callable] = None,
                 grad_level: Optional[Callable] = None, center=(0.0, 0.0)):
        self.level_function = level
        self.bounding_box = np.asarray(bounding_box, dtype=float).reshape(-1, 2)
        self.dimension = self.bounding_box.shape[0]
        if self.dimension != 2 and not isinstance(self, Interval):
            raise ValueError("a custom domain is planar; use Interval on the line")
        if self.dimension == 2:
            for name, arg in (("boundary", boundary), ("grad_level", grad_level)):
                if arg is None:
                    raise ValueError(f"a planar Domain needs {name}")
            self.center = np.asarray(center, dtype=float)
            self.boundary = boundary
            # Dense parameter scan used to seed Newton refinement of projections.
            self._scan_theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
            self._scan_x, self._scan_y = boundary(self._scan_theta)[0].T.copy()
        self._grad = grad_level

    # -- level set ---------------------------------------------------------

    def level(self, x) -> float:
        return float(self.level_function(_as_point(x, self.dimension)))

    # -- closest points ----------------------------------------------------

    def _curve_row(self, t: float):
        """``boundary(t)`` at one parameter as three (x, y) pairs of floats."""
        return [v.tolist() for v in self.boundary(t)]

    def _newton_terms(self, t, x, y):
        """f and f' of f(t) = (g(t) - p) . g'(t), whose zeros are the boundary
        points normal to the centred point p = (x, y)."""
        g, g1, g2 = self.boundary(t)
        rx, ry = g[..., 0] - x, g[..., 1] - y
        f = rx * g1[..., 0] + ry * g1[..., 1]
        fp = (g1[..., 0] * g1[..., 0] + g1[..., 1] * g1[..., 1]
              + rx * g2[..., 0] + ry * g2[..., 1])
        return f, fp

    def _newton_terms_row(self, t: float, x: float, y: float):
        """``_newton_terms`` at one row, in floats, which round as numpy's
        float64 scalars do at a fraction of their cost."""
        (gx, gy), (g1x, g1y), (g2x, g2y) = self._curve_row(t)
        rx, ry = gx - x, gy - y
        return rx * g1x + ry * g1y, g1x * g1x + g1y * g1y + rx * g2x + ry * g2y

    def _closest_angles(self, P: np.ndarray) -> np.ndarray:
        """Parameters of the closest boundary points to the rows of ``P``
        (centred coordinates): the best scan angle, refined by Newton."""
        t = np.empty(len(P))
        # (sx - x)**2 + (sy - y)**2 by the same ufuncs into two buffers made
        # once a call: fresh block temporaries cost page faults, and buffers
        # kept on the instance would be shared by threads
        shape = (min(len(P), self._scan_block), len(self._scan_theta))
        bx, by = np.empty(shape), np.empty(shape)
        for lo in range(0, len(P), self._scan_block):
            blk = P[lo:lo + self._scan_block]
            dx2, dy2 = bx[:len(blk)], by[:len(blk)]
            np.square(np.subtract(self._scan_x, blk[:, :1], out=dx2), out=dx2)
            np.square(np.subtract(self._scan_y, blk[:, 1:], out=dy2), out=dy2)
            d2 = np.add(dx2, dy2, out=dx2)
            t[lo:lo + self._scan_block] = self._scan_theta[np.argmin(d2, axis=1)]
        if len(P) == 1:
            # One row: the same iteration in floats, without the masks.
            tt, x, y = float(t[0]), float(P[0, 0]), float(P[0, 1])
            for _ in range(60):
                f, fp = self._newton_terms_row(tt, x, y)
                if abs(fp) < 1e-14:
                    break
                step = f / fp
                tt -= step
                if abs(step) < 1e-15:
                    break
            t[0] = tt
            return t
        # Every row at once; a row leaves the live set where the one-row loop stops.
        live = np.arange(len(P))
        for _ in range(60):
            tl = t[live]
            f, fp = self._newton_terms(tl, P[live, 0], P[live, 1])
            go = ~(np.abs(fp) < 1e-14)
            live, tl, step = live[go], tl[go], f[go] / fp[go]
            tl -= step
            t[live] = tl
            live = live[~(np.abs(step) < 1e-15)]
            if not len(live):
                break
        return t

    def _curve_points(self, t):
        """The boundary curve at ``t`` without its derivatives, ``boundary(t)[0]``."""
        return self.boundary(t)[0]

    def _closest_points(self, X: np.ndarray) -> np.ndarray:
        """Closest boundary points to the rows of ``X`` (B, 2)."""
        P = X - self.center
        Q = self.center + self._curve_points(self._closest_angles(P))
        if self._centre_projection is not None:
            at_centre = _row_norms(P) < 1e-12
            if at_centre.any():
                Q[at_centre] = self._centre_projection
        return Q

    def inside_many(self, X: np.ndarray) -> np.ndarray:
        """Whether each row of ``X`` (B, d) lies in the closure (level <= 0):
        the domain's one closure test, and the sign of its signed distances."""
        return np.array([self.level_function(x) <= 0.0 for x in X], dtype=bool)

    def _signed_distances(self, X: np.ndarray, Q: Optional[np.ndarray] = None) -> np.ndarray:
        """Signed distances of the rows of ``X``; ``Q``, when given, holds
        their closest points, ``_closest_points(X)``, already solved.  The
        closed forms of ``Interval`` and ``Disk`` ignore it: their distances
        round as those forms do, not as ``X - Q``."""
        d = _row_norms(X - (self._closest_points(X) if Q is None else Q))
        return np.where(self.inside_many(X), d, -d)

    # -- core operations ---------------------------------------------------

    def project_to_boundary(self, x) -> np.ndarray:
        """Closest boundary point to ``x``."""
        return self._closest_points(_as_point(x, self.dimension)[None, :])[0]

    def project_to_boundary_many(self, X) -> np.ndarray:
        return self._closest_points(np.atleast_2d(np.asarray(X, dtype=float)))

    def signed_distance(self, x) -> float:
        """Distance to the boundary, positive inside the domain."""
        return float(self._signed_distances(_as_point(x, self.dimension)[None, :])[0])

    def signed_distance_many(self, X) -> np.ndarray:
        return self._signed_distances(np.atleast_2d(np.asarray(X, dtype=float)))

    def normal(self, x) -> np.ndarray:
        """Outward unit normal at ``x``."""
        return self.normal_many(_as_point(x, self.dimension)[None, :])[0]

    def _gradients(self, X: np.ndarray) -> np.ndarray:
        """Level gradients at the rows of ``X``."""
        return np.array([self._grad(x) for x in X], dtype=float)

    def normal_many(self, X) -> np.ndarray:
        """Outward unit normals (unit length to 1e-12) at the rows of ``X``,
        from the level gradient."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        G = self._gradients(X)
        n = _row_norms(G)
        if np.any(n < 1e-9):
            raise DegenerateGeometryError(
                f"vanishing level gradient at {X[int(np.argmax(n < 1e-9))]}")
        return G / n[:, None]

    def oblique_pushback(self, p: np.ndarray, field: "ObliqueField"):
        """``(q, dz)`` with ``q = p - dz`` on the boundary and ``dz`` = lam *
        gamma(q), lam >= 0 least, for a planar domain: a bracketed root in
        the curve parameter of (p - g(t)) x gamma(g(t)), seeded by the
        720-angle scan.  Slow but sure: ``closed_contact`` falls back to it
        where its iteration does not settle in front of ``p``.  A ``p`` whose
        contacts all lie behind it, one by a rounding error only, is on the
        boundary and comes back unchanged."""
        from scipy.optimize import brentq

        def terms(t):
            c = self.center + self._curve_points(np.atleast_1d(t))
            g = field.gamma_many(self, c)
            r = p - c
            return r[:, 0] * g[:, 1] - r[:, 1] * g[:, 0], np.add.reduce(r * g, axis=1), g

        # the scan closed at 2*pi, whose cross product may round off the one at 0
        t = np.append(self._scan_theta, 2.0 * np.pi)
        cross = terms(t)[0]
        # roots: scan angles where the cross product vanishes, and one in each
        # strict sign change; a root behind p belongs to a negative lam
        roots = list(t[cross == 0.0])
        if np.sign(cross[-1]) * np.sign(cross[0]) < 0.0:
            roots.append(0.0)  # a root at the seam, within rounding of 0
        for i in np.nonzero(np.sign(cross[:-1]) * np.sign(cross[1:]) < 0.0)[0]:
            roots.append(brentq(lambda s: terms(s)[0][0], t[i], t[i + 1],
                                xtol=1e-15, rtol=8.9e-16))
        contacts = []
        for root in roots:
            _, along_r, g = terms(root)
            contacts.append((along_r[0] / float(g[0] @ g[0]), g[0]))
        front = [c for c in contacts if c[0] >= 0.0]
        if front:
            lam, g = min(front, key=lambda c: c[0])
            return p - lam * g, lam * g
        if any(_behind_by_rounding(p, lam, g) for lam, g in contacts):
            # p lies on the boundary up to rounding: lam is 0
            return p, np.zeros(2)
        raise ReflectionError(f"no boundary contact along the field from {p}")

    def pushback_many(self, P: np.ndarray, field: "ObliqueField"):
        """Closed-form ``(Q, dZ)`` pushback of the rows of ``P`` along ``field``
        (interior rows unchanged, zero dZ), or None when there is none."""
        return None

    def closed_contact(self, p: np.ndarray, field: "ObliqueField"):
        """``(q, dz)`` pushback of one point ``p`` along ``field``: ``q = p -
        dz`` in the closure, ``dz`` = lam * gamma(q), lam >= 0, and zero for
        a point that ``inside_many`` puts in the closure or that lies at zero
        distance from its closest boundary point.  Where ``pushback_many``
        has a batch form, the contact is its row.

        Otherwise the contact is the root of f(t) = (p - centre - g(t)) x
        gamma(g(t)) nearest g(t0).  Under a built-in field gamma(g) is
        parallel to w = (g'_y + kappa g'_x, -g'_x + kappa g'_y), the normal
        plus kappa times the tangent scaled by |g'|, and Newton's method finds
        the root of (p - centre - g) x w from t0 (the root at kappa = 0).  A
        custom field takes secant steps from t0 and t0 + 1e-6, with gamma
        from ``field.gamma_many``.  ``oblique_pushback`` answers for a row
        that does not settle or lands behind p (lam < 0) by more than a
        rounding error; a row behind by less comes back unchanged."""
        closed = self.pushback_many(p[None, :], field)
        if closed is not None:
            return closed[0][0], closed[1][0]
        if self.inside_many(p[None, :])[0]:
            return p, np.zeros(2)
        x, y = float(p[0] - self.center[0]), float(p[1] - self.center[1])
        t = float(self._closest_angles(np.array([[x, y]]))[0])
        if not _row_norms((p - (self.center + self._curve_points(t)))[None, :])[0]:
            return p, np.zeros(2)
        if field.kappa is not None:
            t = self._newton_contact(t, x, y, field.kappa)
        else:
            t = self._secant_contact(t, p, field)
        if t is not None:
            q = self.center + self._curve_points(t)
            gam = field.gamma_many(self, q[None, :])[0]
            lam = float(np.add.reduce((p - q) * gam)) / float(gam @ gam)
            if lam >= 0.0:
                return p - lam * gam, lam * gam
            if _behind_by_rounding(p, lam, gam):
                # p lies on the boundary up to rounding: lam is 0
                return p, np.zeros(2)
        return self.oblique_pushback(p, field)

    def _newton_contact(self, t, x, y, k):
        """The root of (p - centre - g) x w by Newton's method from ``t``, or
        None when it does not settle in 60 steps."""
        for _ in range(60):
            (gx, gy), (g1x, g1y), (g2x, g2y) = self._curve_row(t)
            rx, ry = x - gx, y - gy
            wx, wy = g1y + k * g1x, k * g1y - g1x
            f = rx * wy - ry * wx
            fp = (wx * g1y - wy * g1x + rx * (k * g2y - g2x)
                  - ry * (g2y + k * g2x))
            if not fp:
                return None
            step = f / fp
            t -= step
            if abs(step) < 1e-15:
                return t
        return None

    def _secant_contact(self, t, p, field):
        """The root of (p - g) x gamma(g), g = centre + g(t), by secant steps
        from ``t`` and ``t`` + 1e-6, or None when it does not settle in 60
        steps or f repeats."""
        def cross(t):
            q = self.center + self._curve_points(t)
            gx, gy = field.gamma_many(self, q[None, :])[0].tolist()
            return (p[0] - q[0]) * gy - (p[1] - q[1]) * gx

        t_prev, f_prev = t, cross(t)
        t += 1e-6
        for _ in range(60):
            f = cross(t)
            if f == f_prev:
                return None
            step = f * (t - t_prev) / (f - f_prev)
            t_prev, f_prev = t, f
            t -= step
            if abs(step) < 1e-15:
                return t
        return None

    def interior_radius(self) -> float:
        """Maximum of the signed distance over the closure (sup-norm of d)."""
        return float(self.signed_distance_many(self.sample_closure(2048)).max())

    # -- sampling ----------------------------------------------------------

    def boundary_points(self, n: int) -> np.ndarray:
        """Arc-length-balanced boundary sample of size ``n``: equal steps in
        the curve parameter reweighted by the local speed."""
        th = np.linspace(0.0, 2.0 * np.pi, 8 * n)
        g1 = self.boundary(th)[1]
        speed = np.sqrt(g1[:, 0] ** 2 + g1[:, 1] ** 2)
        arc = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(th))])
        targets = arc[-1] * (np.arange(n) + 0.5) / n
        return self.center + self._curve_points(np.interp(targets, arc, th))

    def sample_closure(self, n: int) -> np.ndarray:
        """Quasi-uniform sample of the closure (low-discrepancy + rejection)."""
        lo, hi = self.bounding_box[:, 0], self.bounding_box[:, 1]
        pts, found = [], 0
        skip, block = 0, max(2 * n, 64)
        for _ in range(64):
            P = lo + _sobol_points(self.dimension, block, skip=skip) * (hi - lo)
            skip += block
            pts.append(P[self.inside_many(P)])
            found += len(pts[-1])
            if found >= n:
                return np.concatenate(pts)[:n]
        raise GeometryError("closure sampling failed; is the domain empty?")


class Interval(Domain):
    """Open interval (a, b) on the line."""

    def __init__(self, a: float, b: float):
        if not b > a:
            raise ValueError("interval requires a < b")
        self.a = float(a)
        self.b = float(b)
        super().__init__(self._level, [[a, b]])

    def _level(self, x):
        x0 = float(np.atleast_1d(x)[0])
        return -min(x0 - self.a, self.b - x0)

    def _signed_distances(self, X: np.ndarray, Q=None) -> np.ndarray:
        x = X[:, 0]
        return np.minimum(x - self.a, self.b - x)

    # An own binding, which the benchmark's tracer patches class by class.
    signed_distance_many = Domain.signed_distance_many

    def inside_many(self, X: np.ndarray) -> np.ndarray:
        x = X[:, 0]
        return (x >= self.a) & (x <= self.b)

    def _closest_points(self, X: np.ndarray) -> np.ndarray:
        x = X[:, 0]
        return np.where(x - self.a < self.b - x, self.a, self.b).reshape(-1, 1)

    def normal_many(self, X) -> np.ndarray:
        x = np.atleast_2d(np.asarray(X, dtype=float))[:, 0]
        return np.where(x - self.a < self.b - x, -1.0, 1.0).reshape(-1, 1)

    def pushback_many(self, P: np.ndarray, field: "ObliqueField"):
        if len(P) == 1 and self.a <= P[0, 0] <= self.b:
            # a lone interior row (the scalar path solvers): skip the array ops
            return P, np.zeros((1, 1))
        # 1-d pushback lands on the violated endpoint for any admissible field.
        Q = np.maximum(P, self.a)
        np.minimum(Q, self.b, out=Q)
        return Q, P - Q

    def boundary_points(self, n: int) -> np.ndarray:
        ends = np.array([[self.a], [self.b]])
        return ends[np.arange(n) % 2]

    def sample_closure(self, n: int) -> np.ndarray:
        u = _sobol_points(1, n)[:, 0]
        return (self.a + u * (self.b - self.a)).reshape(-1, 1)

    def interior_radius(self) -> float:
        return 0.5 * (self.b - self.a)


class Ellipse(Domain):
    """Open axis-aligned ellipse with semi-axes (a, b)."""

    def __init__(self, a: float, b: float, center=(0.0, 0.0)):
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        self.semi_axes = np.array([float(a), float(b)])
        c = np.asarray(center, dtype=float)
        bb = np.stack([c - self.semi_axes, c + self.semi_axes], axis=1)
        super().__init__(self._level, bb, boundary=_axis_curve(self.semi_axes),
                         grad_level=self._gradients, center=c)
        # A row at the centre gets the end of the shorter semi-axis.
        j = int(np.argmin(self.semi_axes))
        self._centre_projection = self.center + np.eye(2)[j] * self.semi_axes[j]

    def _level(self, x):
        z = (np.asarray(x, dtype=float) - self.center) / self.semi_axes
        return float(z @ z - 1.0)

    def _gradients(self, X):
        """The level gradient at a point or at every row of ``X``."""
        return 2.0 * ((np.asarray(X, dtype=float) - self.center) / self.semi_axes) / self.semi_axes

    def _curve_row(self, t: float):
        """``_axis_curve``'s (c a, s b), (-s a, c b) and -g from one cos/sin pair."""
        a, b = self.semi_axes.tolist()
        c, s = float(np.cos(t)), float(np.sin(t))
        g = (c * a, s * b)
        return g, (s * -a, c * b), (-g[0], -g[1])

    def _sincos_terms(self, s, c, x, y):
        """f and f' in closed form from s = sin t and c = cos t: f = (b^2-a^2)
        s c + a x s - b y c.  The generic terms round differently in the last
        bit."""
        a, b = self.semi_axes.tolist()
        f = (b * b - a * a) * s * c + a * x * s - b * y * c
        fp = (b * b - a * a) * (c * c - s * s) + a * x * c + b * y * s
        return f, fp

    def _newton_terms(self, t, x, y):
        return self._sincos_terms(np.sin(t), np.cos(t), x, y)

    def _newton_terms_row(self, t: float, x: float, y: float):
        return self._sincos_terms(float(np.sin(t)), float(np.cos(t)), x, y)

    def inside_many(self, X: np.ndarray) -> np.ndarray:
        return _row_dots((X - self.center) / self.semi_axes) <= 1.0

    # An own binding, which the benchmark's tracer patches class by class.
    signed_distance_many = Domain.signed_distance_many

    def _curve_points(self, t):
        return _unit_circle(t) * self.semi_axes

    def sample_closure(self, n: int) -> np.ndarray:
        u = _sobol_points(2, n)
        r = np.sqrt(u[:, 0])
        th = 2.0 * np.pi * u[:, 1]
        a, b = self.semi_axes
        return self.center + np.stack([a * r * np.cos(th), b * r * np.sin(th)], axis=1)

    def interior_radius(self) -> float:
        return float(np.min(self.semi_axes))


class Disk(Ellipse):
    """Open disk of given radius and center in the plane: the ellipse with
    equal semi-axes, with its queries and contacts in closed form."""

    def __init__(self, radius: float = 1.0, center=(0.0, 0.0)):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        super().__init__(radius, radius, center)

    def _signed_distances(self, X: np.ndarray, Q=None) -> np.ndarray:
        return self.radius - np.sqrt(_row_sq_norms(X - self.center))

    # An own binding, which the benchmark's tracer patches class by class.
    signed_distance_many = Domain.signed_distance_many

    def inside_many(self, X: np.ndarray) -> np.ndarray:
        return np.sqrt(_row_sq_norms(X - self.center)) <= self.radius

    def _closest_points(self, X: np.ndarray) -> np.ndarray:
        rel = X - self.center
        nr = np.sqrt(_row_sq_norms(rel))[:, None]
        # Any boundary point is closest to the centre; a fixed one for determinism.
        unit = np.where(nr < 1e-12, np.array([1.0, 0.0]), rel / np.maximum(nr, 1e-12))
        return self.center + self.radius * unit

    def normal_many(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        rel = X - self.center
        nr = np.sqrt(_row_sq_norms(rel))[:, None]
        if np.any(nr < 1e-12):
            raise DegenerateGeometryError("normal undefined at the disk center")
        return rel / nr

    def pushback_many(self, P: np.ndarray, field: "ObliqueField"):
        if field.kappa != 0.0:
            return None
        out = ~self.inside_many(P)
        r = P[out] - self.center
        s = np.sqrt(_row_sq_norms(r))[:, None]
        Q, dZ = P.copy(), np.zeros(P.shape)
        Q[out] = self.center + r * (self.radius / s)
        # Scaling r, rather than taking P - Q, keeps dZ exactly radial even
        # for rows that overshoot the circle by a rounding error.
        dZ[out] = r * ((s - self.radius) / s)
        return Q, dZ

    def closed_contact(self, p: np.ndarray, field: "ObliqueField"):
        """The exact contact under gamma = n + kappa*J n (J: the turn by +90
        degrees): p - centre = (R + lam) u + lam kappa J u with q = centre + R u,
        so lam is the root of (R + lam)^2 + (lam kappa)^2 = |p - centre|^2 and
        u is p - centre turned back and normalised.  A point of the closure
        comes back unchanged; the normal field and a custom one take
        ``Domain.closed_contact``."""
        k, R = field.kappa, self.radius
        if not k:
            return super().closed_contact(p, field)
        cx, cy = float(self.center[0]), float(self.center[1])
        rx, ry = float(p[0]) - cx, float(p[1]) - cy
        if math.sqrt(rx * rx + ry * ry) <= R:
            # inside_many on one row, bit for bit, in floats: its array
            # calls would add about 3 us to every row of the per-row route
            return p, np.zeros(2)
        # an overshoot of an ulp or two may round to delta <= 0: lam = 0 then
        delta = max(rx * rx + ry * ry - R * R, 0.0)
        # the positive root, written without the cancellation of -R + sqrt(...)
        lam = delta / (R + math.sqrt(R * R + (1.0 + k * k) * delta))
        a, b = R + lam, lam * k
        ux, uy = a * rx + b * ry, a * ry - b * rx
        s = math.hypot(ux, uy)
        ux, uy = ux / s, uy / s
        return (np.array([cx + R * ux, cy + R * uy]),
                np.array([lam * (ux - k * uy), lam * (uy + k * ux)]))

    def boundary_points(self, n: int) -> np.ndarray:
        # equal angles, not the ellipse's arc-length sample
        th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        return self.center + self.radius * np.stack([np.cos(th), np.sin(th)], axis=1)


def _unit_circle(t) -> np.ndarray:
    """(cos t, sin t), of shape ``t.shape + (2,)``."""
    e = np.empty(np.shape(t) + (2,))
    np.cos(t, out=e[..., 0])
    np.sin(t, out=e[..., 1])
    return e


def _axis_curve(semi_axes) -> Callable:
    """The curve (a cos t, b sin t) with its first and second derivatives."""
    a, b = semi_axes
    scale, turn = np.array([a, b], dtype=float), np.array([-a, b], dtype=float)

    def curve(t):
        e = _unit_circle(t)
        g = e * scale
        return g, e[..., ::-1] * turn, -g

    return curve


# ---------------------------------------------------------------------------
# Oblique boundary fields


@dataclass(frozen=True)
class ObliqueField:
    """Lipschitz direction field along which reflection pushes, evaluated at
    boundary points.

    A built-in field is gamma = n + kappa J n (J: the turn by +90 degrees),
    ``kappa`` 0.0 for the normal field, and its ``gamma`` is the one-row
    ``gamma_many``; a custom field has ``kappa`` None and is its callable
    ``gamma``.
    """

    gamma: Callable[[np.ndarray], np.ndarray]
    kappa: Optional[float] = None

    @property
    def kind(self) -> str:
        if self.kappa is None:
            return "custom"
        return "normal" if self.kappa == 0.0 else "oblique-tangent"

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.gamma(np.asarray(x, dtype=float)), dtype=float)

    def gamma_many(self, domain: "Domain", Q, normals=None) -> np.ndarray:
        """Evaluate the field on an array of boundary points.

        A built-in field takes a vectorized path from ``normals``, the
        outward normals ``domain.normal_many(Q)`` when the caller already
        holds them; a custom one falls back to a row loop over the scalar
        callable and ignores them.
        """
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        if self.kappa is None:
            return np.array([self(q) for q in Q])
        n = domain.normal_many(Q) if normals is None else normals
        if self.kappa == 0.0:
            return n
        return n + self.kappa * np.stack([-n[:, 1], n[:, 0]], axis=1)


@dataclass(frozen=True)
class ObliqueReport:
    min_dot: float
    n_samples: int


def validate_oblique(domain: Domain, field: ObliqueField,
                     n_samples: int = 4096) -> ObliqueReport:
    """Check gamma . n > 0 over a quasi-uniform boundary sample, in one batch.

    Raises ObliqueConditionError when the sampled minimum is nonpositive.
    """
    pts = domain.boundary_points(n_samples)
    nrm = domain.normal_many(pts)
    dots = _row_dots(field.gamma_many(domain, pts, nrm), nrm)
    min_dot = float(dots.min())
    if min_dot <= 0.0:
        worst = pts[int(np.argmin(dots))]
        raise ObliqueConditionError(
            f"oblique condition fails: gamma.n = {min_dot:.3e} at boundary point {worst}")
    return ObliqueReport(min_dot=min_dot, n_samples=n_samples)


def normal_field(domain: Domain) -> ObliqueField:
    """Reflection along the outward normal."""
    return oblique_from_tangent(domain, 0.0)


def oblique_from_tangent(domain: Domain, kappa: float) -> ObliqueField:
    """Normal plus ``kappa`` times the (counterclockwise) tangent; a tilt
    (``kappa`` nonzero) needs a planar domain.  The field is certified
    oblique on 512 boundary points."""
    kappa = float(kappa)
    if kappa != 0.0 and domain.dimension != 2:
        raise ValueError("tangential tilt requires a planar domain")

    def gamma(x):
        return field.gamma_many(domain, _as_point(x, domain.dimension)[None, :])[0]

    field = ObliqueField(gamma, kappa)
    validate_oblique(domain, field, 512)
    return field


# ---------------------------------------------------------------------------
# Drift / diffusion coefficient pairs


@dataclass(frozen=True)
class CoefficientField:
    """Drift ``b(t, x)`` (d-vector) and diffusion ``sigma(t, x)`` (d x m).

    When the coefficients are literal constants they are also stored as
    arrays (``constant_b``, ``constant_sigma``) so batch simulators can step
    whole trajectory blocks at once.  ``takes_rows`` marks callables that
    also take rows ``X`` (B, d) and return (B, d) and (B, d, m), each row
    with the bits of the point call.  ``family(eps)``, when given, is the
    member field at noise level ``eps``; the field itself is the base pair.
    """

    b: Callable[[float, np.ndarray], np.ndarray]
    sigma: Callable[[float, np.ndarray], np.ndarray]
    m: int
    family: Optional[Callable[[float], "CoefficientField"]] = None
    constant_b: Optional[np.ndarray] = None
    constant_sigma: Optional[np.ndarray] = None
    takes_rows: bool = False

    @property
    def is_constant(self) -> bool:
        # a field with a family varies with eps, and its members carry no arrays
        return (self.constant_b is not None and self.constant_sigma is not None
                and self.family is None)

    def at_eps(self, eps: Optional[float]) -> "CoefficientField":
        """The member at noise level ``eps``: the field itself when it has no
        family or ``eps`` is None."""
        if self.family is None or eps is None:
            return self
        return self.family(eps)

    def pointwise(self):
        """Drift and dispersion as functions of ``(t, x)`` that return float
        arrays (d,) and (d, m) at a point."""
        b_fun, s_fun = self.b, self.sigma
        if self.takes_rows:
            return b_fun, s_fun
        return (lambda t, x: np.atleast_1d(np.asarray(b_fun(t, x), dtype=float)),
                lambda t, x: np.atleast_2d(np.asarray(s_fun(t, x), dtype=float)))

    def rows(self, t: float, X):
        """Drift (B, d) and dispersion (B, d, m) at every row of ``X``.
        Constant coefficients come back as single rows, (1, d) and (1, d, m),
        that broadcast."""
        if self.is_constant:
            return self.constant_b[None, :], self.constant_sigma[None, :, :]
        b_fun, s_fun = self.pointwise()
        if self.takes_rows:
            return b_fun(t, X), s_fun(t, X)
        return np.array([b_fun(t, x) for x in X]), np.array([s_fun(t, x) for x in X])


def constant_function(value: np.ndarray) -> Callable:
    """``(t, x) -> value`` at a point ``x``, broadcast to every row of rows ``x``."""
    return lambda t, x: (value if np.ndim(x) < 2
                         else np.broadcast_to(value, (len(x),) + value.shape))


def constant_coefficients(b_vec, sigma_mat) -> CoefficientField:
    b_arr = np.atleast_1d(np.asarray(b_vec, dtype=float))
    s_arr = np.atleast_2d(np.asarray(sigma_mat, dtype=float))
    return CoefficientField(b=constant_function(b_arr), sigma=constant_function(s_arr),
                            m=s_arr.shape[1], constant_b=b_arr, constant_sigma=s_arr,
                            takes_rows=True)

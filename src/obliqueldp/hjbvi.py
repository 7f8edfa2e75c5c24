"""Explicit monotone grid solvers for obstacle Hamilton-Jacobi problems.

Backward time stepping with a local Lax-Friedrichs numerical Hamiltonian for
H(x, p) = |sigma^T p|^2 / 2 - b . p, an optional central second-order term
scaled by eps^2 / 2, pointwise obstacle projection after every step, and a
zero oblique-derivative boundary condition enforced through ghost values
pulled back along the reflection field.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .geometry import CoefficientField, Domain, ObliqueField, _row_sq_norms
from .sde import NoiseScale, Obstacle

MIN_TYPE = "min_type"
MAX_TYPE = "max_type"


class CflError(RuntimeError):
    """Raised when the time step violates the stability bound."""


class NanError(RuntimeError):
    """Raised when a layer goes non-finite during stepping."""


class StencilError(RuntimeError):
    """Raised when no admissible oblique ghost stencil exists at a node."""


def cell_width(domain: Domain, n_x: int) -> float:
    """Width of one cell of ``n_x`` nodes across the first axis of the
    domain's box: the one-cell smoothing of a tube obstacle."""
    box = domain.bounding_box
    return float(box[0, 1] - box[0, 0]) / (n_x - 1)


@dataclass
class ValueGrid:
    axes: tuple                      # one 1-d coordinate array per dimension
    mask: np.ndarray                 # active-node flags on the full lattice
    times: np.ndarray                # stored layer times, increasing
    layers: np.ndarray               # (n_stored, n_active) values
    h: float
    dt: float
    vi_type: str
    eps: float
    meta: dict = dataclass_field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def points(self) -> np.ndarray:
        """Coordinates of the active nodes, (n_active, d)."""
        return np.stack([c[self.mask] for c in np.meshgrid(*self.axes, indexing="ij")],
                        axis=1)

    def layer_at(self, t: float) -> np.ndarray:
        """Linear-in-time interpolation between stored layers."""
        ts = self.times
        if t <= ts[0]:
            return self.layers[0]
        if t >= ts[-1]:
            return self.layers[-1]
        j = int(np.searchsorted(ts, t, side="right")) - 1
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1.0 - w) * self.layers[j] + w * self.layers[j + 1]

    def value_at(self, t: float, x) -> float:
        """Value at (t, x): linear in time and space between stored data."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        layer = self.layer_at(t)
        if self.dimension == 1:
            xs = self.axes[0][self.mask]
            return float(np.interp(x[0], xs, layer))
        full = np.full(self.mask.shape, np.nan)
        full[self.mask] = layer
        xs, ys = self.axes
        i = int(np.clip(np.searchsorted(xs, x[0]) - 1, 0, len(xs) - 2))
        j = int(np.clip(np.searchsorted(ys, x[1]) - 1, 0, len(ys) - 2))
        fx = (x[0] - xs[i]) / (xs[i + 1] - xs[i])
        fy = (x[1] - ys[j]) / (ys[j + 1] - ys[j])
        cell = full[i:i + 2, j:j + 2]
        if np.any(np.isnan(cell)):
            pts = self.points
            k = int(np.argmin(np.sqrt(_row_sq_norms(pts - x[None, :]))))
            return float(layer[k])
        return float((1 - fx) * (1 - fy) * cell[0, 0] + fx * (1 - fy) * cell[1, 0]
                     + (1 - fx) * fy * cell[0, 1] + fx * fy * cell[1, 1])

    def save_npz(self, path) -> None:
        """The arrays as ``.npy`` entries of a deflated zip, each dated
        1980-01-01 so that the same grid always produces the same bytes."""
        arrays = dict(dim=self.dimension, mask=self.mask, times=self.times,
                      layers=self.layers, h=self.h, dt=self.dt, eps=self.eps,
                      vi_type=self.vi_type,
                      **{f"axis{j}": a for j, a in enumerate(self.axes)})
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, val in arrays.items():
                info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
                info.compress_type = zipfile.ZIP_DEFLATED
                with zf.open(info, "w") as fh:
                    np.lib.format.write_array(fh, np.asanyarray(val), allow_pickle=False)


def load_npz(path) -> ValueGrid:
    with np.load(path, allow_pickle=False) as z:
        dim = int(z["dim"])
        axes = tuple(z[f"axis{j}"] for j in range(dim))
        return ValueGrid(axes=axes, mask=z["mask"], times=z["times"], layers=z["layers"],
                         h=float(z["h"]), dt=float(z["dt"]), vi_type=str(z["vi_type"]),
                         eps=float(z["eps"]))


# ---------------------------------------------------------------------------
# Discretization workspace


def _pullback_stencils(domain: Domain, field: ObliqueField, xs, ys, mask, flat_index,
                       ghosts):
    """Pullback interpolation data for each missing neighbor of an active node.

    ``ghosts`` lists the (i, j, slot) of every missing neighbor in ghost order.
    A ghost point g outside the active set takes the value of the previous
    layer at q = g - s * gamma(contact), with s grown until q sits safely
    inside a fully active cell; reading q by bilinear interpolation encodes a
    zero derivative along gamma to first order.
    """
    h = xs[1] - xs[0]
    nx, ny = len(xs), len(ys)
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    # a ghost point missing from several nodes gets one walk; keyed by its
    # bytes, as xs[i] + h need not round to xs[i + 1]
    stencils, keys = {}, []
    for i, j, slot in ghosts:
        di, dj = offsets[slot]
        g = np.array([xs[i] + di * h, ys[j] + dj * h])
        keys.append(g.tobytes())
        if keys[-1] in stencils:
            continue
        contact = domain.project_to_boundary(g)
        gam = field(contact)
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
                    stencils[keys[-1]] = ([flat_index[a, b] for a, b in corners],
                                          [(1 - fx) * (1 - fy), fx * (1 - fy),
                                           (1 - fx) * fy, fx * fy])
                    break
            s += 0.25 * h
        else:
            raise StencilError(
                f"no oblique ghost stencil at node ({xs[i]:.4g}, {ys[j]:.4g}) slot {slot}")
    rows = [stencils[k] for k in keys]
    return (np.array([r[0] for r in rows], dtype=int).reshape(-1, 4),
            np.array([r[1] for r in rows], dtype=float).reshape(-1, 4))


def _total(terms):
    """Left-to-right sum of a nonempty list of arrays.

    Unlike ``sum`` it adds no 0.0 start term, which would turn a -0.0 into 0.0.
    """
    return sum(terms[1:], terms[0])


class _Workspace:
    """Lattice, active mask, neighbor and ghost tables, and the one-step kernel.

    Slots 2j and 2j + 1 of an active node hold its lower and upper neighbor
    along axis j: an active node's index, or n_active + g for ghost g, whose
    value is the weighted sum of its stencil's active values.
    """

    def __init__(self, domain: Domain, field: ObliqueField, coeffs: CoefficientField,
                 n_x: Optional[int]):
        d = domain.dimension
        if n_x is None:
            n_x = 200 if d == 1 else 80
        box = domain.bounding_box
        xs = np.linspace(box[0, 0], box[0, 1], n_x)
        h = xs[1] - xs[0]
        self.coeffs = coeffs
        self._constant = None  # coeff_arrays under constant coefficients
        self.d = d
        self.h = float(h)
        self.axes = (xs,) + tuple(
            box[j, 0] + h * np.arange(int(round((box[j, 1] - box[j, 0]) / h)) + 1)
            for j in range(1, d))
        shape = tuple(len(a) for a in self.axes)
        lattice = np.stack([c.ravel() for c in np.meshgrid(*self.axes, indexing="ij")],
                           axis=1)
        self.mask = (domain.signed_distance_many(lattice) >= -1e-12).reshape(shape)
        self.pts = lattice[self.mask.ravel()]
        node = np.nonzero(self.mask)
        n_act = len(self.pts)
        flat_index = -np.ones(shape, dtype=int)
        flat_index[self.mask] = np.arange(n_act)
        # a border of -1 marks the lattice's outside as missing too
        padded = np.pad(flat_index, 1, constant_values=-1)
        nbr = np.empty((n_act, 2 * d), dtype=int)
        for j in range(d):
            for side, shift in enumerate((-1, 1)):
                nbr[:, 2 * j + side] = padded[tuple(node[k] + 1 + (shift if k == j else 0)
                                                    for k in range(d))]
        missing = nbr < 0
        ghost_node, ghost_slot = np.nonzero(missing)
        nbr[missing] = n_act + np.arange(len(ghost_node))
        self.nbr = [np.ascontiguousarray(col) for col in nbr.T]
        if d == 1:
            if not np.array_equal(node[0], np.arange(node[0][0], node[0][-1] + 1)):
                raise StencilError("active nodes must be contiguous in one dimension")
            # mirror: zero derivative along gamma
            self.g_idx, self.g_wts = np.array([[1], [n_act - 2]]), np.ones((2, 1))
        else:
            self.g_idx, self.g_wts = _pullback_stencils(
                domain, field, *self.axes, self.mask, flat_index,
                zip(node[0][ghost_node], node[1][ghost_node], ghost_slot))

    def max_slope(self, values: np.ndarray) -> float:
        """Largest neighbor difference quotient of a node array."""
        worst = 0.0
        for col in self.nbr[1::2]:
            real = col < len(values)
            worst = max(worst, float(np.max(np.abs(values[col[real]] - values[real]),
                                            initial=0.0)))
        return worst / self.h

    def coeff_arrays(self, t: float):
        """Drift (n, d) and sigma sigma^T (n, d, d) at every active node;
        constant coefficients (which no t changes) are evaluated once."""
        if self._constant is not None:
            return self._constant
        n = len(self.pts)
        b, s = self.coeffs.rows(t, self.pts)
        sst = s @ np.swapaxes(s, 1, 2)
        arrays = (np.broadcast_to(b, (n, b.shape[1])),
                  np.broadcast_to(sst, (n,) + sst.shape[1:]))
        if self.coeffs.is_constant:
            self._constant = arrays
        return arrays

    def step(self, v_next: np.ndarray, t_next: float, dt: float, eps: float) -> np.ndarray:
        """One unprojected backward update from the layer at t_next."""
        h = self.h
        axes = range(self.d)
        b, sst = self.coeff_arrays(t_next)
        ext = np.concatenate([v_next,
                              np.add.reduce(v_next[self.g_idx] * self.g_wts, axis=1)])
        lo = [ext[col] for col in self.nbr[0::2]]
        hi = [ext[col] for col in self.nbr[1::2]]
        dplus = [(hi[i] - v_next) / h for i in axes]
        dminus = [(v_next - lo[i]) / h for i in axes]
        pbar = [0.5 * (dplus[i] + dminus[i]) for i in axes]
        sp = [_total([sst[:, i, j] * pbar[j] for j in axes]) for i in axes]
        ham = (0.5 * _total([pbar[i] * sp[i] for i in axes])
               - _total([b[:, i] * pbar[i] for i in axes]))
        # local Lax-Friedrichs: dissipation weighted by |H_p| at the node
        # itself, so a sharp obstacle ramp does not smear the whole grid
        a = [np.abs(sp[i] - b[:, i]) + 1e-12 for i in axes]
        diss = _total([0.5 * a[i] * (dplus[i] - dminus[i]) for i in axes])
        lap = [(hi[i] - 2.0 * v_next + lo[i]) / (h * h) for i in axes]
        diff = 0.5 * eps * eps * _total([sst[:, i, i] * lap[i] for i in axes])
        center = (1.0 - dt * _total(a) / h
                  - dt * eps * eps * _total([sst[:, i, i] for i in axes]) / (h * h))
        if np.min(center) < -1e-12:
            raise CflError("monotonicity lost: gradient grew beyond the CFL estimate")
        return v_next - dt * (ham - diss - diff)


# ---------------------------------------------------------------------------
# Solvers


def solve_limit_vi(domain: Domain, field: ObliqueField, coeffs: CoefficientField,
                   obstacle: Obstacle, vi_type: str = MIN_TYPE, **options) -> ValueGrid:
    """First-order obstacle problem (the small-noise limit): ``solve_eps_vi``
    at eps = 0, whose diffusion term is then multiplied by zero."""
    return solve_eps_vi(domain, field, coeffs, obstacle, NoiseScale(0.0), vi_type, **options)


def solve_eps_vi(domain: Domain, field: ObliqueField, coeffs: CoefficientField,
                 obstacle: Obstacle, eps: NoiseScale, vi_type: str = MIN_TYPE, *,
                 n_x: Optional[int] = None, t0: float = 0.0, t_end: float = 1.0,
                 dt: Optional[float] = None, store_every: Optional[int] = None) -> ValueGrid:
    """Second-order obstacle problem at noise level eps (log-transformed form).

    The terminal datum is the obstacle at ``t_end``."""
    eps = eps.eps
    if vi_type not in (MIN_TYPE, MAX_TYPE):
        raise ValueError(f"unknown vi_type {vi_type!r}")
    ws = _Workspace(domain, field, coeffs.at_eps(eps), n_x)
    h = ws.h
    pts = ws.pts

    b0, sst0 = ws.coeff_arrays(t_end)
    max_b = float(np.max(np.sqrt(_row_sq_norms(b0))))
    max_s2 = float(np.max(np.linalg.norm(sst0, axis=(1, 2))))
    # the monotone projected scheme keeps gradients near the data's
    # Lipschitz bound; estimate it from the obstacle at nine times, the
    # terminal layer at t_end among them; a non-finite sample has no slope
    slopes = []
    for tt in np.linspace(t0, t_end, 9):
        psi = np.asarray(obstacle(tt, pts), dtype=float).reshape(-1)
        if not np.all(np.isfinite(psi)):
            raise NanError(f"non-finite obstacle values at t = {tt:.6g}, "
                           "where the gradient estimate samples it")
        slopes.append(ws.max_slope(psi))
    dv_est = 1.5 * max(slopes) + 2.0
    adv = max_b + max_s2 * dv_est
    # monotonicity needs the advective and diffusive outflow rates bounded
    # jointly, not separately
    dt_bound = min(h / (adv + h),
                   1.0 / (ws.d * adv / h + ws.d * eps * eps * max_s2 / (h * h) + 1e-300))
    if dt is None:
        dt = 0.9 * dt_bound
    elif dt > dt_bound:
        raise CflError(f"requested dt={dt:.3e} exceeds the stability bound {dt_bound:.3e}")
    n_t = max(1, int(np.ceil((t_end - t0) / dt)))
    dt = (t_end - t0) / n_t
    if store_every is None:
        store_every = 1 if ws.d == 1 and n_t <= 20000 else max(1, n_t // 400)

    v = np.asarray(obstacle(t_end, pts), dtype=float).reshape(-1)
    project = np.maximum if vi_type == MIN_TYPE else np.minimum

    times = [t_end]
    stored = [v.copy()]
    t_next = t_end
    for k in range(n_t):
        t_cur = t0 + (n_t - k - 1) * dt
        v_pre = ws.step(v, t_next, dt, eps)
        if not np.all(np.isfinite(v_pre)):
            raise NanError(f"non-finite values at backward step {k} (t = {t_cur:.6g})")
        psi = np.asarray(obstacle(t_cur, pts), dtype=float).reshape(-1)
        v = project(v_pre, psi)
        t_next = t_cur
        if (k + 1) % store_every == 0 or k + 1 == n_t:
            times.append(t_cur)
            stored.append(v.copy())
    order = np.argsort(times)
    return ValueGrid(axes=ws.axes, mask=ws.mask, times=np.asarray(times)[order],
                     layers=np.asarray(stored)[order], h=h, dt=float(dt),
                     vi_type=vi_type, eps=float(eps),
                     meta={"n_t": n_t, "store_every": store_every,
                           "dt_bound": float(dt_bound), "t0": t0, "t_end": t_end})


# ---------------------------------------------------------------------------
# Complementarity diagnostics


@dataclass(frozen=True)
class ComplementarityReport:
    max_obstacle_violation: float
    max_complementarity_defect: float
    n_transitions_checked: int

    def ok(self) -> bool:
        return (self.max_obstacle_violation <= 1e-10
                and self.max_complementarity_defect <= 1e-10)


def residual_scan(domain: Domain, field: ObliqueField, coeffs: CoefficientField,
                  vg: ValueGrid, obstacle: Obstacle) -> ComplementarityReport:
    """Discrete complementarity of a stored solution against its obstacle.

    Recomputes the unprojected update between consecutive stored layers; at
    every node the stored value must coincide with either that update or the
    obstacle (whichever the projection selected), and must sit on the correct
    side of the obstacle.  Only transitions exactly one time step apart are
    checkable, so run the solver with store_every = 1 for a full scan.
    """
    ws = _Workspace(domain, field, coeffs.at_eps(vg.eps), n_x=len(vg.axes[0]))
    pts = ws.pts
    sign = 1.0 if vg.vi_type == MIN_TYPE else -1.0
    worst_violation = 0.0
    worst_defect = 0.0
    n_checked = 0
    for j in range(len(vg.times) - 1):
        t_cur, t_nxt = float(vg.times[j]), float(vg.times[j + 1])
        if abs((t_nxt - t_cur) - vg.dt) > 1e-9 * max(1.0, vg.dt):
            continue
        v_cur = vg.layers[j]
        psi = np.asarray(obstacle(t_cur, pts), dtype=float).reshape(-1)
        worst_violation = max(worst_violation,
                              float(np.max(-sign * (v_cur - psi), initial=0.0)))
        v_pre = ws.step(vg.layers[j + 1], t_nxt, vg.dt, vg.eps)
        defect = np.minimum(np.abs(v_cur - v_pre), np.abs(v_cur - psi))
        worst_defect = max(worst_defect, float(np.max(defect)))
        n_checked += 1
    return ComplementarityReport(max_obstacle_violation=worst_violation,
                                 max_complementarity_defect=worst_defect,
                                 n_transitions_checked=n_checked)

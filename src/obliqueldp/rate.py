"""Rate functional of a path and action of a path event, by control optimization.

The cost of steering the reflected dynamics is half the time integral of the
squared control.  Inverting a target path, or reaching a sup-norm event, is
posed as a penalized minimization over piecewise-constant controls solved by
quasi-Newton with finite-difference gradients and a penalty weight ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import CoefficientField, Domain, ObliqueField, _row_sq_norms
from .reflect import (Control, ReferencePath, TimeGrid, _checked_start, solve_reflected_ode,
                      sup_deviations)
from .sde import EventSpec

INFEASIBLE = math.inf

# Simulation steps per control segment.
SUBSTEPS = 4


@dataclass
class RateResult:
    value: float
    optimizer: Control
    constraint_residual: float
    iterations: int

    @property
    def infeasible(self) -> bool:
        return math.isinf(self.value)


# ---------------------------------------------------------------------------
# Batched path evaluation for optimization


class _PathBatch:
    """Evaluates many piecewise-constant controls at once.

    Controls live on ``n_seg`` uniform segments, the cells of ``seg_grid``;
    the state is stepped on a finer uniform simulation grid (``SUBSTEPS``
    per segment).  All controls advance together through ``sup_deviations``.
    Constant coefficients give every step a drift that does not read the
    state, built for all segments at once, and such a batch is stepped a
    window at a time; otherwise the coefficients are evaluated on the
    batch's rows at every step.
    """

    def __init__(self, domain, field, coeffs, t0, x0, t_end, n_seg,
                 references: Sequence[ReferencePath]):
        self.domain = domain
        self.field = field
        self.coeffs = coeffs
        self.x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        self.n_seg = n_seg
        self.m = coeffs.m
        self.seg_grid = TimeGrid.uniform(t0, t_end, n_seg)
        self.grid = TimeGrid.uniform(t0, t_end, n_seg * SUBSTEPS)
        self.seg_dt = (t_end - t0) / n_seg
        self.seg_of_step = np.minimum(np.arange(self.grid.n_steps) // SUBSTEPS, n_seg - 1)
        self.g_nodes = [np.atleast_2d(ref.at(self.grid.nodes)) for ref in references]

    def actions(self, A: np.ndarray) -> np.ndarray:
        return 0.5 * np.sum(A ** 2, axis=(1, 2)) * self.seg_dt

    def max_devs(self, A: np.ndarray) -> np.ndarray:
        """(B, n_refs) sup-norm deviations of each controlled path."""
        nodes, seg = self.grid.nodes, self.seg_of_step

        def controlled(t, X, a):
            b, sig = self.coeffs.rows(t, X)
            return b - np.einsum("...dm,...m->...d", sig, a)

        if self.coeffs.is_constant:
            # the drift then changes only at segment boundaries: one batched
            # b - sigma a for every segment, spread to a (n_steps, B, d) array
            drift_at = controlled(nodes[0], self.x0[None, :], A.transpose(1, 0, 2))[seg]
        else:
            def drift_at(k, X):
                return controlled(nodes[k], X, A[:, seg[k], :])

        X = np.repeat(self.x0[None, :], A.shape[0], axis=0)
        return sup_deviations(self.domain, self.field, X, self.grid, drift_at, self.g_nodes)[1]

    def control_from(self, a: np.ndarray) -> Control:
        return Control(self.seg_grid, a.reshape(self.n_seg, self.m))

    def solve_path(self, a: np.ndarray):
        return solve_reflected_ode(self.domain, self.field, self.coeffs,
                                   self.control_from(a), self.x0, self.grid)


def _fd_minimize(objective, a0: np.ndarray):
    """L-BFGS-B on a batched objective with forward-difference gradients."""
    from scipy.optimize import minimize
    n = a0.size

    def fun_grad(a):
        batch = np.repeat(a[None, :], n + 1, axis=0)
        batch[1:] += 1e-6 * np.eye(n)
        vals = objective(batch)
        return vals[0], (vals[1:] - vals[0]) / 1e-6

    res = minimize(fun_grad, a0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 200, "ftol": 1e-14, "gtol": 1e-10})
    return res.x, int(res.nit)


# ---------------------------------------------------------------------------
# Penalized solves


_WEIGHT_LADDER = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


def _pseudo_inverse_start(coeffs, seg_grid: TimeGrid, target: ReferencePath) -> np.ndarray:
    """Control reproducing the target for unconstrained dynamics.

    Uses alpha = sigma^T (sigma sigma^T)^{-1} (b - dg/dt) sampled at the
    midpoints of the segments ``seg_grid``; falls back to zeros when the
    diffusion is singular.
    """
    t0, t_end, n_seg = seg_grid.t0, seg_grid.t_end, seg_grid.n_steps
    mids = 0.5 * (seg_grid.nodes[:-1] + seg_grid.nodes[1:])
    a0 = np.zeros((n_seg, coeffs.m))
    h = (t_end - t0) / (4.0 * n_seg)
    b_fun, s_fun = coeffs.pointwise()
    for j, tm in enumerate(mids):
        xm = target.at(tm)
        gdot = (target.at(min(tm + h, t_end)) - target.at(max(tm - h, t0))) / (2 * h)
        b, sig = b_fun(tm, xm), s_fun(tm, xm)
        gram = sig @ sig.T
        try:
            a0[j] = sig.T @ np.linalg.solve(gram, b - gdot)
        except np.linalg.LinAlgError:
            return np.zeros((n_seg, coeffs.m))
    return a0


def _penalty_solve(batch: _PathBatch, starts, event: EventSpec, tol):
    """Run the weight ladder from every start; return the best admissible run.

    The penalty sums the squared shortfalls from the event, the residual is
    the largest.  Winner selection is deterministic: feasible beats
    infeasible, then lower action, then lower start index.
    """
    best = None
    total_it = 0
    for s_idx, a_start in enumerate(starts):
        a = a_start.reshape(-1).astype(float)
        # The raw start competes as a candidate of its own: the weight ladder
        # begins at a low weight that can trade feasibility for action and
        # never recover, and an already admissible start must not be lost.
        devs0 = batch.max_devs(a.reshape(1, batch.n_seg, batch.m))[0]
        resid0 = float(event.shortfalls(devs0, tol).max())
        if resid0 <= tol:
            action0 = batch.actions(a.reshape(1, batch.n_seg, batch.m))[0]
            cand0 = (False, action0, s_idx, a.copy(), resid0)
            if best is None or cand0[:3] < best[:3]:
                best = cand0
        for w in _WEIGHT_LADDER:
            def objective(A_flat, w=w):
                A = A_flat.reshape(-1, batch.n_seg, batch.m)
                return batch.actions(A) + w * np.sum(
                    event.shortfalls(batch.max_devs(A), tol) ** 2, axis=1)

            a, nit = _fd_minimize(objective, a)
            total_it += nit
            devs = batch.max_devs(a.reshape(1, batch.n_seg, batch.m))[0]
            resid = float(event.shortfalls(devs, tol).max())
            if resid <= tol:
                break
        action = batch.actions(a.reshape(1, batch.n_seg, batch.m))[0]
        cand = (resid > tol, action, s_idx, a, resid)
        if best is None or cand[:3] < best[:3]:
            best = cand
    infeas, action, _, a, resid = best
    return a, float(action), float(resid), bool(infeas), total_it


def rate_of_path(domain: Domain, field: ObliqueField, coeffs: CoefficientField,
                 t0: float, x, g: ReferencePath, tol: float = 1e-3,
                 n_segments: int = 64, max_segments: int = 256) -> RateResult:
    """Least action over controls whose reflected path reproduces ``g``.

    This is the action of the ball event of radius ``tol`` around ``g``: the
    sup-norm mismatch enters as a quadratic penalty with an increasing weight
    ladder, and the reported residual is the final mismatch.
    """
    x0 = _checked_start(domain, x)
    gap0 = float(np.linalg.norm(g.at(t0) - x0))
    if gap0 > tol:
        return RateResult(INFEASIBLE, Control.zero(
            TimeGrid.uniform(t0, float(g.nodes[-1]), n_segments), coeffs.m), gap0, 0)
    return rate_of_event(domain, field, coeffs, t0, x0, EventSpec.ball(g, tol), tol=tol,
                         n_segments=n_segments, max_segments=max_segments)


def rate_of_event(domain: Domain, field: ObliqueField, coeffs: CoefficientField,
                  t0: float, x, event: EventSpec, tol: float = 1e-3,
                  t_end: Optional[float] = None, n_segments: int = 64,
                  max_segments: int = 256) -> RateResult:
    """Least action over controls whose reflected path realizes the event."""
    x0 = _checked_start(domain, x)
    if t_end is None:
        t_end = float(max(ref.nodes[-1] for ref in event.references))
    def escape_starts(seg_grid):
        starts = [np.zeros((seg_grid.n_steps, coeffs.m))]
        if event.kind == "ball":
            starts.append(_pseudo_inverse_start(coeffs, seg_grid, event.references[0]))
            return starts
        d = len(x0)
        dirs = [np.eye(d)[j] * s for j in range(d) for s in (+1.0, -1.0)]
        for i, ref in enumerate(event.references):
            for u in dirs:
                tgt_end = np.asarray(ref.at(t_end)) + (event.radii[i] + 3 * tol) * u
                line = ReferencePath(np.array([t0, t_end]), np.stack([x0, tgt_end]))
                starts.append(_pseudo_inverse_start(coeffs, seg_grid, line))
        return starts

    def run(n_seg, warm=None):
        batch = _PathBatch(domain, field, coeffs, t0, x0, t_end, n_seg, event.references)
        starts = escape_starts(batch.seg_grid)
        if warm is not None:
            starts.append(np.repeat(warm, 2, axis=0))
        a, action, resid, infeas, nit = _penalty_solve(batch, starts, event, tol)
        if not infeas and event.kind == "intersection_of_complements":
            a, action = _zero_tail(batch, a, event, tol)
        return batch, a, action, resid, infeas, nit

    return _refine(run, n_segments, max_segments, coeffs.m)


def _zero_tail(batch: _PathBatch, a_flat, event: EventSpec, tol):
    """Zero the control after the last time any escape threshold is first met.

    Keeps the modification only when the event stays realized; the action can
    only decrease.
    """
    a = a_flat.reshape(batch.n_seg, batch.m)
    path = batch.solve_path(a_flat)
    node_devs = np.stack([np.sqrt(_row_sq_norms(path.points - g)) for g in batch.g_nodes],
                         axis=1)
    met = event.shortfalls(node_devs, tol) == 0.0
    trimmed = a.copy()
    if met.any(axis=0).all():
        last_hit = batch.grid.nodes[met.argmax(axis=0)].max()
        trimmed[batch.seg_grid.nodes[:-1] >= last_hit] = 0.0
        if event.shortfalls(batch.max_devs(trimmed[None, :, :]), tol).max() <= tol:
            return trimmed.reshape(-1), float(batch.actions(trimmed[None, :, :])[0])
    return a_flat, float(batch.actions(a_flat.reshape(1, batch.n_seg, batch.m))[0])


def _refine(run, n_segments, max_segments, m):
    """Doubling refinement of the control resolution until <1% value change."""
    n_seg = n_segments
    batch, a, action, resid, infeas, nit = run(n_seg)
    total_it = nit
    while n_seg * 2 <= max_segments:
        warm = a.reshape(n_seg, m)
        n_seg *= 2
        batch2, a2, action2, resid2, infeas2, nit2 = run(n_seg, warm=warm)
        total_it += nit2
        done = (not infeas and not infeas2
                and abs(action2 - action) < 0.01 * max(abs(action), 1e-12))
        if not infeas2 or infeas:
            batch, a, action, resid, infeas = batch2, a2, action2, resid2, infeas2
        if done:
            break
    ctrl = batch.control_from(a)
    value = float(action) if not infeas else INFEASIBLE
    return RateResult(value=value, optimizer=ctrl, constraint_residual=float(resid),
                      iterations=total_it)


# ---------------------------------------------------------------------------
# Weak-convergence stability


@dataclass(frozen=True)
class WeakStabilityReport:
    n_values: np.ndarray
    sup_dists: np.ndarray

    @property
    def passed(self) -> bool:
        d = self.sup_dists
        if np.all(d == 0.0):
            return True
        tail_decreasing = bool(np.all(np.diff(d[len(d) // 2:]) <= 1e-12))
        return tail_decreasing and d[-1] <= d[0] / 4.0


def weak_stability_check(domain: Domain, field: ObliqueField, coeffs: CoefficientField,
                         t0: float, x) -> WeakStabilityReport:
    """Path response to weakly-null oscillating controls sin(n s), n = 1, 2,
    4, ..., 64, on 4096 steps up to time 1.

    The controlled paths must approach the uncontrolled one as n grows.
    """
    x0 = np.atleast_1d(np.asarray(x, dtype=float))
    grid = TimeGrid.uniform(t0, 1.0, 4096)
    base = solve_reflected_ode(domain, field, coeffs, None, x0, grid)
    ns, dists = [], []
    n = 1
    while n <= 64:
        ctrl = Control.from_function(
            grid, lambda t, n=n: np.full(coeffs.m, np.sin(n * t)))
        path = solve_reflected_ode(domain, field, coeffs, ctrl, x0, grid)
        ns.append(n)
        dists.append(float(np.max(np.sqrt(_row_sq_norms(path.points - base.points)))))
        n *= 2
    return WeakStabilityReport(n_values=np.array(ns), sup_dists=np.array(dists))

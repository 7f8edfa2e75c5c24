"""Reflected dynamics: oblique pushback, the reflected Euler step, path solvers.

The state moves by an Euler predictor and, whenever the predictor leaves the
closure of the domain, is pushed back along the oblique field evaluated at
the boundary contact point.  ``advance`` is that step for a batch of rows;
every stepper in the package (deterministic paths, Monte Carlo blocks, the
rate solver's control batches, the dynamic program's transitions) goes
through it; a batch stepped window by window (``sup_deviations``) sends
through it the rows that leave the closure.  A windowed Picard iteration
solves the same problem as a fixed point and doubles as an independent
check of the stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import CoefficientField, Domain, ObliqueField, _as_point, _row_sq_norms


class ContractionError(RuntimeError):
    """Raised when the Picard iteration fails to contract."""


# ---------------------------------------------------------------------------
# Time grids, controls, paths


@dataclass(frozen=True)
class TimeGrid:
    nodes: np.ndarray  # (n_steps + 1,), strictly increasing

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 2 or np.any(np.diff(nodes) <= 0):
            raise ValueError("time grid nodes must be strictly increasing, length >= 2")

    @classmethod
    def uniform(cls, t0: float, t_end: float, n_steps: int) -> "TimeGrid":
        if t_end <= t0 or n_steps < 1:
            raise ValueError("need t_end > t0 and n_steps >= 1")
        return cls(np.linspace(t0, t_end, n_steps + 1))

    @property
    def t0(self) -> float:
        return float(self.nodes[0])

    @property
    def t_end(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return len(self.nodes) - 1

    @property
    def dts(self) -> np.ndarray:
        return np.diff(self.nodes)


@dataclass
class Control:
    """Piecewise-constant control on a time grid (left-closed cells)."""

    grid: TimeGrid
    values: np.ndarray  # (n_steps, m)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape[0] != self.grid.n_steps:
            raise ValueError("control needs one value row per grid step")
        self.values = v

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zero(cls, grid: TimeGrid, m: int) -> "Control":
        return cls(grid, np.zeros((grid.n_steps, m)))

    @classmethod
    def from_function(cls, grid: TimeGrid, f: Callable[[float], np.ndarray]) -> "Control":
        vals = np.array([np.atleast_1d(f(t)) for t in grid.nodes[:-1]], dtype=float)
        return cls(grid, vals)

    def at(self, t: float) -> np.ndarray:
        k = int(np.searchsorted(self.grid.nodes, t, side="right")) - 1
        k = min(max(k, 0), self.grid.n_steps - 1)
        return self.values[k]

    def action(self) -> float:
        """Half the time integral of the squared control magnitude."""
        sq = np.sum(self.values ** 2, axis=1)
        return float(0.5 * np.sum(sq * self.grid.dts))


@dataclass(frozen=True)
class ReferencePath:
    """Path stored on a grid, evaluated by linear interpolation."""

    nodes: np.ndarray  # (k + 1,)
    values: np.ndarray  # (k + 1, d)

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        object.__setattr__(self, "values", v)
        if len(self.nodes) != len(v):
            raise ValueError("reference path needs one value per node")

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @classmethod
    def constant(cls, x, t0: float, t_end: float) -> "ReferencePath":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(np.array([t0, t_end]), np.stack([x, x]))

    @classmethod
    def from_function(cls, grid: TimeGrid, f: Callable[[float], np.ndarray]) -> "ReferencePath":
        vals = np.array([np.atleast_1d(f(t)) for t in grid.nodes], dtype=float)
        return cls(grid.nodes.copy(), vals)

    def at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.stack([np.interp(t, self.nodes, self.values[:, j])
                        for j in range(self.dimension)], axis=-1)
        return out


@dataclass
class ReflectedPath:
    grid: TimeGrid
    points: np.ndarray                 # (n_steps + 1, d)
    reflection_increments: np.ndarray  # (n_steps, d); row k landed at node k+1

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def total_variation(self) -> float:
        return float(np.sum(np.sqrt(_row_sq_norms(self.reflection_increments))))

    def write_csv(self, path, domain: Domain) -> None:
        n1, d = self.points.shape
        dz = np.vstack([np.zeros((1, d)), self.reflection_increments])
        cum = np.concatenate(
            [[0.0], np.cumsum(np.sqrt(_row_sq_norms(self.reflection_increments)))])
        on_boundary = np.abs(domain.signed_distance_many(self.points)) <= 1e-6
        cols = [self.grid.nodes] + [self.points[:, j] for j in range(d)] \
            + [dz[:, j] for j in range(d)] + [cum, on_boundary.astype(float)]
        header = ",".join(["t"] + [f"x{j+1}" for j in range(d)]
                          + [f"dz{j+1}" for j in range(d)] + ["z_tv", "on_boundary"])
        np.savetxt(path, np.column_stack(cols), delimiter=",", header=header, comments="")


# ---------------------------------------------------------------------------
# Oblique pushback


def reflect_step(domain: Domain, field: ObliqueField, p):
    """The corrected point ``q`` and reflection increment ``dz`` (``q = p -
    dz``) of a predictor ``p``: the domain's one contact along the field,
    ``Domain.closed_contact``, which returns a point of the closure unchanged."""
    return domain.closed_contact(np.atleast_1d(np.asarray(p, dtype=float)), field)


# ---------------------------------------------------------------------------
# Path solvers


def _checked_start(domain: Domain, x) -> np.ndarray:
    """The start point as an array, checked against the closure: the one
    start check of every path solver, whose grid's first node is the start
    time.  The closure test settles a start inside; only a start it
    rejects pays for the signed distance, which accepts it down to -1e-12."""
    x0 = _as_point(x, domain.dimension)
    if not domain.inside_many(x0[None])[0] and domain.signed_distance(x0) < -1e-12:
        raise ValueError(f"start point {x0} lies outside the closure")
    return x0


def _controlled_drift(coeffs: CoefficientField, control: Optional[Control],
                      grid: TimeGrid) -> Callable:
    """``drift_at(k, x)``: the drift ``b - sigma @ alpha`` at node k of
    ``grid``, with the control row of every step (``control.at`` of its
    left node) looked up once."""
    b_fun, s_fun = coeffs.pointwise()
    nodes = grid.nodes
    if control is None:
        return lambda k, x: b_fun(nodes[k], x)
    rows = control.values[np.clip(np.searchsorted(control.grid.nodes, nodes[:-1], side="right")
                                  - 1, 0, control.grid.n_steps - 1)]
    return lambda k, x: b_fun(nodes[k], x) - s_fun(nodes[k], x) @ rows[k]


def reflect_rows(domain: Domain, field: ObliqueField, P: np.ndarray):
    """Push every exterior row of ``P`` (B, d) back into the closure.

    Returns ``(Q, dZ)`` with ``Q = P - dZ``; interior rows come back unchanged
    with zero dZ.  Without a batch closed form (``Domain.pushback_many``),
    each row that the closure test ``Domain.inside_many`` puts outside goes
    through ``reflect_step``.
    """
    closed = domain.pushback_many(P, field)
    if closed is not None:
        return closed
    Q, dZ = P, np.zeros(P.shape)
    out = np.nonzero(~domain.inside_many(P))[0]
    if len(out):
        Q = P.copy()
        for i in out:
            Q[i], dZ[i] = reflect_step(domain, field, P[i])
    return Q, dZ


def advance(domain: Domain, field: ObliqueField, X: np.ndarray, drift, dt: float,
            shock: Optional[np.ndarray] = None):
    """One reflected Euler step of every row of ``X`` (B, d), or of a single
    point ``X`` (d,) taken as one row.

    The predictor is ``X + drift*dt + shock`` in that float order, with the
    noise increment ``shock`` already scaled (``eps*sqrt(dt)*sigma@xi``);
    ``drift`` broadcasts against ``X``.  Returns ``reflect_rows`` of it.
    """
    P = X + drift * dt
    if shock is not None:
        P += shock
    return reflect_rows(domain, field, P.reshape(-1, P.shape[-1]))


# Steps per window of the time-blocked path in ``sup_deviations``.
WINDOW = 64


def sup_deviations(domain: Domain, field: ObliqueField, X: np.ndarray, grid: TimeGrid,
                   drift_at, g_nodes: Sequence[np.ndarray],
                   shock_at: Optional[Callable] = None):
    """Step the rows of ``X`` (B, d) across the grid; return the terminal
    rows and their (B, n_refs) sup-norm deviations from the references
    ``g_nodes`` (each sampled at the grid nodes).

    The step-k inputs are ``drift_at(k, X)`` and ``shock_at(k, X)``, or,
    when ``drift_at`` is an array, its row k (broadcast to (B, d)): the
    drifts then do not read the state, and an array of drifts takes no
    shocks.  Such a batch is deterministic and state-free, and is stepped
    ``WINDOW`` steps at a time: every row's predictors come from one running
    sum of its increments, the same sequential float order as ``advance``,
    and one ``Domain.inside_many`` call finds the rows that leave the closure.
    Those rows alone re-run the window through ``advance`` from the earliest
    first exit among them, so every result is bitwise that of the per-step
    loop.
    """
    # Running maxima of squared distances: the square root is monotone, so
    # taking it once at the end gives the max of the per-node norms exactly.
    sq = np.zeros((len(g_nodes), len(X)))

    def track(Y, k):
        for s, g in zip(sq, g_nodes):
            np.maximum(s, _row_sq_norms(Y - g[k]), out=s)

    track(X, 0)
    dts = grid.dts
    if not callable(drift_at):
        drifts = np.broadcast_to(drift_at, (grid.n_steps,) + X.shape)
        return _step_windows(domain, field, X, dts, drifts, g_nodes, sq)
    for k in range(grid.n_steps):
        X, _ = advance(domain, field, X, drift_at(k, X), dts[k],
                       None if shock_at is None else shock_at(k, X))
        track(X, k + 1)
    return X, np.sqrt(sq.T)


def _step_windows(domain, field, X, dts, drifts, g_nodes, sq):
    """``sup_deviations`` of a deterministic, state-free batch, ``WINDOW``
    steps at a time, with the running squared maxima ``sq`` of node 0.  A
    predictor leaves the closure where the closure test
    ``Domain.inside_many`` is false; no predictor is projected."""
    B, d = X.shape
    for k0 in range(0, len(dts), WINDOW):
        k1 = min(k0 + WINDOW, len(dts))
        # P[j] is the predictor of node k0 + j while no row has been reflected
        P = np.empty((k1 - k0 + 1, B, d))
        P[0] = X
        np.multiply(drifts[k0:k1], dts[k0:k1, None, None], out=P[1:])
        np.add.accumulate(P, axis=0, out=P)
        outside = ~domain.inside_many(P[1:].reshape(-1, d)).reshape(-1, B)
        left = np.nonzero(outside.any(axis=0))[0]
        # the first exit: nodes before it are exact for every row
        j0 = int(outside[:, left].argmax(axis=0).min()) if len(left) else k1 - k0
        for s, g in zip(sq, g_nodes):
            S = _row_sq_norms(P[1:] - g[k0 + 1:k1 + 1, None, :])
            S[j0:, left] = 0.0
            np.maximum(s, S.max(axis=0), out=s)
        X = P[-1].copy()
        if len(left):
            Y = P[j0, left]
            for k in range(k0 + j0, k1):
                Y, _ = advance(domain, field, Y, drifts[k, left], dts[k])
                for s, g in zip(sq, g_nodes):
                    s[left] = np.maximum(s[left], _row_sq_norms(Y - g[k + 1]))
            X[left] = Y
    return X, np.sqrt(sq.T)


def _euler_reflect(domain: Domain, field: ObliqueField, x0: np.ndarray, grid: TimeGrid,
                   drift_at: Callable, shock_at: Optional[Callable] = None) -> ReflectedPath:
    """Reflected Euler path of one point: ``advance`` on a batch of one."""
    n, d = grid.n_steps, len(x0)
    pts = np.empty((n + 1, d))
    incs = np.empty((n, d))
    pts[0] = x = x0
    dts = grid.dts
    for k in range(n):
        Q, dZ = advance(domain, field, x, drift_at(k, x), dts[k],
                        None if shock_at is None else shock_at(k, x))
        pts[k + 1] = x = Q[0]
        incs[k] = dZ[0]
    return ReflectedPath(grid=grid, points=pts, reflection_increments=incs)


def solve_reflected_ode(domain: Domain, field: ObliqueField, coeffs: CoefficientField,
                        control: Optional[Control], x, grid: TimeGrid) -> ReflectedPath:
    """Controlled reflected Euler path on the given grid, from ``x`` at the
    grid's first node.

    The drift is ``b - sigma @ alpha`` with the control held piecewise
    constant; the corrector pushes exterior predictors back along the oblique
    field.
    """
    x0 = _checked_start(domain, x)
    return _euler_reflect(domain, field, x0, grid, _controlled_drift(coeffs, control, grid))


@dataclass
class PicardDiagnostics:
    window_count: int
    iterations: list
    ratios: list
    max_ratio: float


def solve_skorokhod_picard(domain: Domain, field: ObliqueField, coeffs: CoefficientField,
                           control: Optional[Control], x, grid: TimeGrid,
                           tol: float = 1e-10, eta: Optional[float] = None):
    """Windowed Picard fixed-point solve of the reflected dynamics.

    The horizon is split into windows; on each window the map freezes the
    state dependence of the coefficients along the previous iterate and
    re-solves the reflection.  The window length is halved until the measured
    contraction factor is at most one half; a window gets 200 iterations.
    Returns the path and diagnostics.
    """
    x0 = _checked_start(domain, x)
    horizon = grid.t_end - grid.t0
    if eta is not None:
        n_win = min(max(1, int(np.ceil(horizon / eta))), grid.n_steps)
    else:
        n_win = 1
    while True:
        try:
            return _picard_run(domain, field, coeffs, control, grid, x0, n_win, tol)
        except ContractionError:
            if n_win >= grid.n_steps:
                raise
            n_win = min(2 * n_win, grid.n_steps)


def _picard_run(domain, field, coeffs, control, grid, x0, n_win, tol):
    chunks = np.array_split(np.arange(grid.n_steps), n_win)
    drift_at = _controlled_drift(coeffs, control, grid)
    all_pts = [x0[None, :]]
    all_incs = []
    xw = x0
    iters, ratios = [], []
    for chunk in chunks:
        i0, i1 = chunk[0], chunk[-1] + 1
        sub = TimeGrid(grid.nodes[i0:i1 + 1])
        frozen = np.repeat(xw[None, :], sub.n_steps + 1, axis=0)
        prev_dist = None
        for it in range(1, 201):
            # one sweep: coefficients frozen along the previous iterate
            sweep = _euler_reflect(
                domain, field, xw, sub,
                lambda k, _x: drift_at(i0 + k, frozen[k]))
            pts = sweep.points
            dist = float(np.max(np.sqrt(_row_sq_norms(pts - frozen))))
            frozen = pts
            if prev_dist is not None and prev_dist > 10.0 * tol:
                ratio = dist / prev_dist
                ratios.append(ratio)
                if ratio > 0.5:
                    raise ContractionError(
                        f"Picard contraction {ratio:.3f} > 0.5 on window starting at t={sub.t0}")
            if dist <= tol:
                iters.append(it)
                break
            prev_dist = dist
        else:
            raise ContractionError(f"Picard did not reach tol={tol} in 200 iterations")
        all_pts.append(pts[1:])
        all_incs.append(sweep.reflection_increments)
        xw = pts[-1]
    path = ReflectedPath(grid, np.vstack(all_pts), np.vstack(all_incs))
    diag = PicardDiagnostics(window_count=n_win, iterations=iters, ratios=ratios,
                             max_ratio=float(max(ratios)) if ratios else 0.0)
    return path, diag


# ---------------------------------------------------------------------------
# Path diagnostics


@dataclass(frozen=True)
class PathReport:
    min_signed_distance: float
    n_reflections: int
    max_offboundary_increment: float
    max_angle: float

    def ok(self) -> bool:
        return (self.min_signed_distance >= -1e-8
                and self.max_offboundary_increment <= 1e-6
                and self.max_angle <= 1e-6)


def validate_reflected_path(domain: Domain, field: ObliqueField,
                            path: ReflectedPath) -> PathReport:
    """Feasibility, boundary-localization, and direction checks for a path."""
    sd = domain.signed_distance_many(path.points)
    sizes = np.sqrt(_row_sq_norms(path.reflection_increments))
    active = np.nonzero(sizes > 0.0)[0]
    worst_off = worst_angle = 0.0
    if len(active):
        worst_off = float(np.abs(sd[active + 1]).max())
        G = field.gamma_many(domain, domain.project_to_boundary_many(path.points[active + 1]))
        dZ = path.reflection_increments[active]
        cosang = np.einsum("ij,ij->i", dZ, G) / (sizes[active] * np.sqrt(_row_sq_norms(G)))
        worst_angle = float(np.arccos(np.clip(cosang, -1.0, 1.0)).max())
    return PathReport(
        min_signed_distance=float(sd.min()),
        n_reflections=len(active),
        max_offboundary_increment=worst_off,
        max_angle=worst_angle,
    )


def holder_half_quotient(path: ReflectedPath) -> float:
    """Largest ratio |Y_s - Y_r| / sqrt(s - r) over node pairs: every lag up
    to 4096 steps, beyond that the first 64 and up to 4032 geometric ones."""
    pts = path.points
    nodes = path.grid.nodes
    n = len(nodes) - 1
    if n <= 4096:
        lags = range(1, n + 1)
    else:
        small = np.arange(1, 65)
        geo = np.unique(np.geomspace(65, n, 4096 - 64).astype(int))
        lags = np.concatenate([small, geo])
    best = 0.0
    for lag in lags:
        dy = np.sqrt(_row_sq_norms(pts[lag:] - pts[:-lag]))
        dt = nodes[lag:] - nodes[:-lag]
        best = max(best, float(np.max(dy / np.sqrt(dt))))
    return best

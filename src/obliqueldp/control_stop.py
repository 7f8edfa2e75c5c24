"""Mixed control / multiple-stopping dynamic programs on coarse grids.

Controls range over a finite set per step, stopping times over grid nodes.
The brute-force multiple-stopping value and its single-stopping recursive
reduction are arranged to perform identical float operations (shared cell
cost, shared one-cell transition, right-to-left cost accumulation), so the
reduction identity can be asserted exactly, not just within tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .geometry import CoefficientField, Domain, ObliqueField
from .reflect import Control, TimeGrid, solve_reflected_ode
from .sde import Obstacle


class EnumerationLimitError(RuntimeError):
    """Raised when a brute-force enumeration would exceed the budget."""


def _cell_cost(a: np.ndarray, dt: float) -> float:
    """Running cost of one grid cell; shared by every solver in this module."""
    return 0.5 * float(a @ a) * dt


@dataclass
class DiscreteProblem:
    grid: TimeGrid
    control_set: Sequence[np.ndarray]
    state_rule: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    obstacles: Sequence[Obstacle]
    _transition_memo: dict = dataclass_field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.control_set = [np.atleast_1d(np.asarray(a, dtype=float))
                            for a in self.control_set]
        if len(self.control_set) == 0:
            raise ValueError("control set must be nonempty")
        self.obstacles = list(self.obstacles)

    @classmethod
    def build(cls, domain: Domain, field: ObliqueField, coeffs: CoefficientField,
              grid: TimeGrid, control_set, obstacles, substeps: int = 16) -> "DiscreteProblem":
        """Problem whose one-cell transition integrates the reflected dynamics."""

        def state_rule(k: int, x: np.ndarray, a: np.ndarray) -> np.ndarray:
            cell = TimeGrid.uniform(grid.nodes[k], grid.nodes[k + 1], substeps)
            ctrl = Control(cell, np.repeat(a[None, :], substeps, axis=0))
            path = solve_reflected_ode(domain, field, coeffs, ctrl, x, cell)
            return path.points[-1]

        return cls(grid=grid, control_set=control_set, state_rule=state_rule,
                   obstacles=obstacles)

    def psi(self, i: int, k: int, x: np.ndarray) -> float:
        """Obstacle ``i`` at node ``k`` and state ``x``: its one value there."""
        return float(np.ravel(self.obstacles[i](float(self.grid.nodes[k]), x))[0])

    def step(self, k: int, x: np.ndarray, a_idx: int) -> np.ndarray:
        key = (k, x.tobytes(), a_idx)
        nxt = self._transition_memo.get(key)
        if nxt is None:
            nxt = np.asarray(self.state_rule(k, x, self.control_set[a_idx]), dtype=float)
            self._transition_memo[key] = nxt
        return nxt

    def node_index(self, t0: float) -> int:
        k = int(np.argmin(np.abs(self.grid.nodes - t0)))
        if abs(self.grid.nodes[k] - t0) > 1e-12:
            raise ValueError(f"t0 = {t0} is not a grid node")
        return k


def value_inf_sup(p: DiscreteProblem, t0: float, x) -> float:
    """Controller minimizes action plus reward; adversary chooses the stop."""
    if len(p.obstacles) != 1:
        raise ValueError("inf-sup value takes exactly one obstacle")
    return _stopping_value(p, t0, x, max)


# ---------------------------------------------------------------------------
# Multiple stopping


def _enumeration_budget(p: DiscreteProblem, k0: int, n_stops: int) -> float:
    steps = p.grid.n_steps - k0
    nodes = steps + 1
    return (len(p.control_set) ** steps) * (nodes ** n_stops) * math.factorial(n_stops)


def multi_stop_value(p: DiscreteProblem, t0: float, x,
                     budget: float = 1e8) -> float:
    """Exact brute force over control sequences and one stop time per obstacle.

    The running cost accumulates only until the latest stop.  Costs fold from
    the latest stop backward so each candidate reproduces, operation for
    operation, a realization of the recursive reduction.
    """
    n_stops = len(p.obstacles)
    if n_stops > 3:
        raise ValueError("brute force limited to at most 3 obstacles")
    if _enumeration_budget(p, p.node_index(t0), n_stops) > budget:
        raise EnumerationLimitError("stopping enumeration exceeds the evaluation budget")
    x0 = np.atleast_1d(np.asarray(x, dtype=float))
    k0 = p.node_index(t0)
    n = p.grid.n_steps
    dts = p.grid.dts
    node_ids = range(k0, n + 1)
    best = math.inf
    for seq in itertools.product(range(len(p.control_set)), repeat=n - k0):
        states = [x0]
        for j, a_idx in enumerate(seq):
            states.append(p.step(k0 + j, states[-1], a_idx))
        cells = [_cell_cost(p.control_set[a_idx], dts[k0 + j])
                 for j, a_idx in enumerate(seq)]

        def fold(k_from: int, k_to: int, acc: float) -> float:
            for k in range(k_to - 1, k_from - 1, -1):
                acc = cells[k - k0] + acc
            return acc

        for theta in itertools.product(node_ids, repeat=n_stops):
            for order in itertools.permutations(range(n_stops)):
                ts = [theta[i] for i in order]
                if any(ts[j] > ts[j + 1] for j in range(n_stops - 1)):
                    continue
                i_last = order[-1]
                acc = p.psi(i_last, ts[-1], states[ts[-1] - k0])
                for j in range(n_stops - 2, -1, -1):
                    acc = fold(ts[j], ts[j + 1], acc)
                    i_j = order[j]
                    acc = p.psi(i_j, ts[j], states[ts[j] - k0]) + acc
                acc = fold(k0, ts[0], acc)
                if acc < best:
                    best = acc
    return best


def reduced_value(p: DiscreteProblem, t0: float, x) -> float:
    """Nested single-stopping evaluation of the multiple-stopping problem.

    Recursively, stopping obstacle i yields its reward plus the value of the
    remaining set from the same time and state; the innermost sets are plain
    single-stop problems.
    """
    if len(p.obstacles) == 0:
        raise ValueError("need at least one obstacle")
    return _stopping_value(p, t0, x, min)


def _stopping_value(p: DiscreteProblem, t0: float, x,
                    stopper: Callable[[float, float], float]) -> float:
    """Backward recursion over (obstacles left, node, state).

    The controller minimizes; ``stopper(stop, cont)`` chooses between
    stopping and continuing: ``min`` for the reduction, ``max`` for an
    adversarial single stop.
    """
    x0 = np.atleast_1d(np.asarray(x, dtype=float))
    k0 = p.node_index(t0)
    n = p.grid.n_steps
    dts = p.grid.dts
    memo: dict = {}

    def value(J: frozenset, k: int, y: np.ndarray) -> float:
        key = (J, k, y.tobytes())
        got = memo.get(key)
        if got is not None:
            return got
        if len(J) == 1:
            (i,) = J
            stop = p.psi(i, k, y)
        else:
            stop = math.inf
            for i in sorted(J):
                cand = p.psi(i, k, y) + value(J - {i}, k, y)
                if cand < stop:
                    stop = cand
        if k == n:
            out = stop
        else:
            cont = math.inf
            for a_idx, a in enumerate(p.control_set):
                cand = _cell_cost(a, dts[k]) + value(J, k + 1, p.step(k, y, a_idx))
                if cand < cont:
                    cont = cand
            out = stopper(stop, cont)
        memo[key] = out
        return out

    return value(frozenset(range(len(p.obstacles))), k0, x0)

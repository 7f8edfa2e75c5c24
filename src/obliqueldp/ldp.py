"""Desk-scale consistency experiments for the small-noise decay rates.

Each experiment pits three independent computations against each other:
Monte Carlo log-probabilities of a path event, the least-action value from
the deterministic control problem, and a dynamic-programming or PDE value.
Verdicts come with an itemized error budget so a failed comparison is
attributable to statistics, discretization, or genuine disagreement.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import CoefficientField, Domain, ObliqueField
from .reflect import Control, TimeGrid, holder_half_quotient, solve_reflected_ode
from .sde import (EventSpec, LogRateInterval, NoiseScale,
                  estimate_event_probability, log_rate_estimate)
from .rate import rate_of_event, weak_stability_check
from .control_stop import DiscreteProblem, reduced_value
from .hjbvi import MIN_TYPE, cell_width, solve_eps_vi, solve_limit_vi


def dump_json(path, payload) -> None:
    """The one JSON layout of every report: sorted keys, indent 2, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
INCONCLUSIVE = "inconclusive"

# cap identity check: cap heights, the effectively uncapped reference height,
# and the relative tolerance of min(cap, reference value)
CAP_HEIGHTS = (0.05, 1.0)
CAP_REFERENCE_HEIGHT = 2.0
CAP_TOL_REL = 0.10
# goodness proxy: action of each random control, sample size, weak-stability
# frequency limit
GOODNESS_ACTION_BOUND = 1.0
GOODNESS_N_CONTROLS = 12
GOODNESS_N_MAX = 64


@dataclass
class LdpConfig:
    """Everything one experiment needs, in one place.

    event is the intersection of complements of the tubes; the upper bound
    takes the ball of its one tube.  obstacle_height is the cap A used by
    the PDE/DP obstacles; it should exceed the expected rate.
    """

    domain: Domain
    field: ObliqueField
    coeffs: CoefficientField
    t0: float
    x0: Sequence[float]
    t_end: float
    event: EventSpec
    eps_ladder: Sequence[float]
    n_samples: int = 20000
    n_steps: int = 256
    seed: int = 20240801
    obstacle_height: float = 1.0
    scheme_tol: float = 0.02
    lambda_fraction: float = 0.15
    n_x: int = 200
    rate_tol: float = 1e-3
    rate_segments: int = 64
    rate_max_segments: int = 256
    dp_n_steps: int = 4
    dp_controls: Sequence[float] = (0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0)
    dp_substeps: int = 16
    n_threads: int = 1

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.event.kind != "intersection_of_complements":
            raise ValueError("event: must be an intersection of complements")
        self.eps_ladder = checked_eps_ladder(self.eps_ladder)
        if not self.obstacle_height > 0.0:
            raise ValueError("obstacle_height: must be positive")
        if len(self.dp_controls) == 0:
            raise ValueError("dp_controls: must not be empty")

    @property
    def mc_grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.t0, self.t_end, self.n_steps)


def checked_eps_ladder(ladder) -> list:
    """The noise levels as floats; ValueError unless they are non-empty and
    strictly decreasing."""
    ladder = [float(e) for e in ladder]
    if not ladder:
        raise ValueError("eps_ladder: must not be empty")
    if sorted(set(ladder), reverse=True) != ladder:
        raise ValueError("eps_ladder: must be strictly decreasing")
    return ladder


@dataclass
class LdpReport:
    eps_ladder: list
    log_rates: list          # LogRateInterval or None per eps
    lambda_value: float
    dp_value: Optional[float]
    verdict: str
    details: dict

    def to_dict(self) -> dict:
        rates = []
        for lr in self.log_rates:
            rates.append(None if lr is None else
                         {"value": lr.value, "lo": lr.lo,
                          "hi": (None if math.isinf(lr.hi) else lr.hi)})
        return {"eps_ladder": list(self.eps_ladder), "log_rates": rates,
                "lambda_value": self.lambda_value, "dp_value": self.dp_value,
                "verdict": self.verdict, "details": self.details}

    def write_json(self, path) -> None:
        dump_json(path, self.to_dict())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["eps", "log_rate", "ci_lo", "ci_hi", "lambda", "dp_value"])
            for e, lr in zip(self.eps_ladder, self.log_rates):
                if lr is None:
                    row = [e, "", "", ""]
                else:
                    row = [e, lr.value, lr.lo, "" if math.isinf(lr.hi) else lr.hi]
                w.writerow(row + [self.lambda_value, self.dp_value])


def _mc_ladder(config: LdpConfig, event: EventSpec):
    estimates, log_rates = [], []
    for e in config.eps_ladder:
        est = estimate_event_probability(
            config.domain, config.field, config.coeffs, NoiseScale(e), config.x0,
            config.mc_grid, event, config.n_samples, config.seed, n_threads=config.n_threads)
        estimates.append(est)
        log_rates.append(None if est.zero_hit else log_rate_estimate(est, NoiseScale(e)))
    return estimates, log_rates


def _slack(config: LdpConfig, lam: float, smallest_rate: Optional[LogRateInterval]) -> dict:
    stat = 0.0
    if smallest_rate is not None and math.isfinite(smallest_rate.hi):
        stat = 0.5 * (smallest_rate.hi - smallest_rate.lo)
    items = {"statistical": stat, "scheme": config.scheme_tol,
             "lambda_fraction": config.lambda_fraction * abs(lam)}
    items["total"] = items["statistical"] + items["scheme"] + items["lambda_fraction"]
    return items


def _estimate_rows(estimates) -> list:
    return [{"p_hat": est.p_hat, "ci_half_width": est.ci_half_width,
             "n_hits": est.n_hits, "n_samples": est.n_samples}
            for est in estimates]


def _gaps(mc: Optional[float], lam: float, dp: Optional[float]) -> dict:
    out = {}
    if mc is not None:
        out["mc_minus_lambda"] = mc - lam
    if dp is not None:
        out["lambda_minus_dp"] = lam - dp
    if mc is not None and dp is not None:
        out["mc_minus_dp"] = mc - dp
    return out


def _experiment(config: LdpConfig, event: EventSpec,
                dp_solve: Callable[[], tuple]) -> LdpReport:
    """Monte Carlo ladder, action, and DP/PDE value, judged against one side.

    ``dp_solve`` returns the DP or PDE value and its extra ``details`` entries.
    A ball event asks the smallest-eps log-rate not to exceed the action plus
    the slack (upper bound); the lower bound, not to undershoot minus it.
    """
    bound = "upper" if event.kind == "ball" else "lower"
    estimates, log_rates = _mc_ladder(config, event)
    lam_res = rate_of_event(config.domain, config.field, config.coeffs,
                            config.t0, config.x0, event, tol=config.rate_tol,
                            t_end=config.t_end, n_segments=config.rate_segments,
                            max_segments=config.rate_max_segments)
    lam = lam_res.value
    dp_value, extra = dp_solve()

    smallest = log_rates[-1]
    slack = _slack(config, lam, smallest)
    if any(est.zero_hit for est in estimates):
        verdict = INCONCLUSIVE
    elif (smallest.value <= lam + slack["total"] if bound == "upper"
          else smallest.value >= lam - slack["total"]):
        verdict = CONSISTENT
    else:
        verdict = INCONSISTENT
    details = {"bound": bound, "event": event.kind, "slack": slack,
               "estimates": _estimate_rows(estimates),
               "lambda_residual": lam_res.constraint_residual,
               "gaps": _gaps(None if smallest is None else smallest.value, lam, dp_value),
               **extra}
    return LdpReport(eps_ladder=list(config.eps_ladder), log_rates=log_rates,
                     lambda_value=lam, dp_value=dp_value, verdict=verdict,
                     details=details)


def run_upper_bound_experiment(config: LdpConfig) -> LdpReport:
    """Ball event: the small-noise log-rates must not exceed the action.

    The PDE value comes from the capped obstacle problem, whose value at
    (t0, x0) is the capped action min(A, Lambda).
    """
    event = EventSpec("ball", config.event.references, config.event.radii)
    obstacle, = event.obstacles(config.obstacle_height,
                                smoothing=cell_width(config.domain, config.n_x))

    def pde_value():
        vg = solve_limit_vi(config.domain, config.field, config.coeffs, obstacle,
                            MIN_TYPE, n_x=config.n_x, t0=config.t0, t_end=config.t_end)
        return float(vg.value_at(config.t0, config.x0)), {"vi_n_t": vg.meta["n_t"]}

    return _experiment(config, event, pde_value)


def run_lower_bound_experiment(config: LdpConfig) -> LdpReport:
    """Intersection-of-complements event: log-rates must not undershoot.

    The DP value is the multiple-stopping reduction with capped indicator
    obstacles, one per tube.
    """

    def dp_value():
        dp_grid = TimeGrid.uniform(config.t0, config.t_end, config.dp_n_steps)
        controls = [np.full(config.coeffs.m, a) for a in config.dp_controls]
        problem = DiscreteProblem.build(config.domain, config.field, config.coeffs,
                                        dp_grid, controls,
                                        config.event.obstacles(config.obstacle_height),
                                        substeps=config.dp_substeps)
        return (reduced_value(problem, config.t0, config.x0),
                {"dp_n_steps": config.dp_n_steps})

    return _experiment(config, config.event, dp_value)


@dataclass
class CapIdentityReport:
    eps: float
    heights: list
    values: list
    reference_value: float
    targets: list
    tol_rel: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def cap_identity_check(config: LdpConfig) -> CapIdentityReport:
    """Capped obstacle values against min(cap, uncapped value).

    Solves the noise-level obstacle problem at the smallest ladder entry for
    each requested cap height plus one effectively uncapped reference height,
    all on the same tube.
    """
    event = EventSpec("ball", config.event.references, config.event.radii)
    eps = min(config.eps_ladder)
    h = cell_width(config.domain, config.n_x)

    # all heights share the reference run's time step; the tallest obstacle
    # has the steepest ramp, so its auto step is admissible for the others
    # and the comparison then isolates the cap effect
    dt_shared = None

    def value_for(height: float) -> float:
        nonlocal dt_shared
        obstacle, = event.obstacles(height, smoothing=h)
        vg = solve_eps_vi(config.domain, config.field, config.coeffs, obstacle,
                          NoiseScale(eps), MIN_TYPE, n_x=config.n_x,
                          t0=config.t0, t_end=config.t_end, dt=dt_shared)
        if dt_shared is None:
            dt_shared = vg.dt
        return float(vg.value_at(config.t0, config.x0))

    v_ref = value_for(CAP_REFERENCE_HEIGHT)
    heights = [float(a) for a in CAP_HEIGHTS]
    values = [value_for(a) for a in heights]
    targets = [min(a, v_ref) for a in heights]
    ok = all(abs(v - tgt) <= CAP_TOL_REL * max(tgt, 1e-12)
             for v, tgt in zip(values, targets))
    return CapIdentityReport(eps=eps, heights=heights, values=values,
                             reference_value=v_ref, targets=targets,
                             tol_rel=CAP_TOL_REL, passed=ok)


@dataclass
class GoodnessReport:
    weak_n_values: list
    weak_sup_dists: list
    weak_passed: bool
    quotients: list
    envelope: float
    envelope_stable: bool

    @property
    def passed(self) -> bool:
        return (self.weak_passed and self.envelope_stable
                and math.isfinite(self.envelope))

    def to_dict(self) -> dict:
        return dict(asdict(self), passed=self.passed)


def goodness_proxy(config: LdpConfig) -> GoodnessReport:
    """Compactness proxy for sublevel sets of the rate functional.

    Oscillating controls must stop moving the path (weak stability), and a
    sample of paths driven by controls of bounded action must share one
    Holder-1/2 envelope; the envelope from half the sample must essentially
    bound the whole sample.
    """
    weak = weak_stability_check(config.domain, config.field, config.coeffs,
                                config.t0, config.x0, n_max=GOODNESS_N_MAX,
                                t_end=config.t_end)
    rng = np.random.default_rng(config.seed)
    grid = TimeGrid.uniform(config.t0, config.t_end, 256)
    m = config.coeffs.m
    quotients = []
    for _ in range(GOODNESS_N_CONTROLS):
        raw = rng.standard_normal((grid.n_steps, m))
        action = 0.5 * float(np.sum(raw ** 2 * grid.dts[:, None]))
        ctrl = Control(grid, raw * math.sqrt(GOODNESS_ACTION_BOUND / action))
        path = solve_reflected_ode(config.domain, config.field, config.coeffs,
                                   ctrl, config.x0, grid)
        quotients.append(holder_half_quotient(path))
    quotients = [float(q) for q in quotients]
    half = max(quotients[:max(1, len(quotients) // 2)])
    envelope = max(quotients)
    return GoodnessReport(weak_n_values=[int(n) for n in weak.n_values],
                          weak_sup_dists=[float(d) for d in weak.sup_dists],
                          weak_passed=bool(weak.passed), quotients=quotients,
                          envelope=envelope,
                          envelope_stable=envelope <= 1.5 * half)

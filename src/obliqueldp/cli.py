"""Command line front end: config parsing, orchestration, artifact emission.

Every run reads a JSON config, executes one pipeline, writes its reports
into the output directory, and finishes with a manifest listing the config
hash, the effective seed, library versions, and a checksum for every file
it produced.  The manifest is the only artifact carrying a timestamp, so
repeated runs with the same config and seed emit byte-identical reports.

Exit codes: 0 on success (whatever the scientific verdict), 2 when a
verify-ldp verdict is inconclusive, 1 on configuration or runtime errors.
"""

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .control_stop import DiscreteProblem, EnumerationLimitError, ObstacleBoundError, \
    multi_stop_value, reduced_value
from .geometry import CoefficientField, Disk, Domain, Ellipse, EpsFamily, \
    GeometryError, Interval, ObliqueField, oblique_from_tangent
from .hjbvi import MAX_TYPE, MIN_TYPE, constant_obstacle, solve_eps_vi, \
    solve_limit_vi, tube_obstacle
from .ldp import LdpConfig, dump_json, run_lower_bound_experiment, run_upper_bound_experiment
from .rate import rate_of_event, rate_of_path
from .reflect import ReferencePath, TimeGrid
from .sde import EventSpec, NoiseScale, estimate_event_probability, \
    simulate_reflected_sde
from .testfn import build_testfn, check_testfn_properties

_MISSING = object()


class ConfigError(ValueError):
    """Raised for malformed configs; the message names the offending field."""


# ---------------------------------------------------------------------------
# Field access with path-aware diagnostics


def _get(mapping, key, path, default=_MISSING):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected an object")
    if key not in mapping:
        if default is not _MISSING:
            return default
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _finite(val) -> bool:
    try:
        return (not isinstance(val, bool) and isinstance(val, (int, float))
                and math.isfinite(val))
    except OverflowError:        # an integer beyond the float range
        return False


def _num(mapping, key, path, default=_MISSING, least=None):
    val = _get(mapping, key, path, default)
    if val is default and default is not _MISSING:
        return val
    if not _finite(val):
        raise ConfigError(f"{path}.{key}: expected a finite number")
    if least is not None and val < least:
        raise ConfigError(f"{path}.{key}: must be at least {least}")
    return float(val)


def _list(mapping, key, path, default=_MISSING) -> list:
    vals = _get(mapping, key, path, default)
    if not isinstance(vals, list):
        raise ConfigError(f"{path}.{key}: expected a list")
    return vals


def _bool(mapping, key, path, default) -> bool:
    val = _get(mapping, key, path, default)
    if not isinstance(val, bool):
        raise ConfigError(f"{path}.{key}: expected true or false")
    return val


def _num_list(mapping, key, path, positive=False) -> list:
    vals = _get(mapping, key, path)
    if not isinstance(vals, list):
        raise ConfigError(f"{path}.{key}: expected a list of numbers")
    for i, val in enumerate(vals):
        if not _finite(val) or (positive and val <= 0):
            raise ConfigError(f"{path}.{key}[{i}]: expected a "
                              f"{'positive ' if positive else ''}finite number")
    return [float(val) for val in vals]


def _coords(val, field: str, d: int) -> np.ndarray:
    """The list of ``d`` finite numbers at the dotted ``field``."""
    if not isinstance(val, list) or len(val) != d or not all(map(_finite, val)):
        raise ConfigError(f"{field}: expected a list of {d} finite numbers")
    return np.array(val, dtype=float)


def _int(mapping, key, path, default=_MISSING, least=None):
    val = _get(mapping, key, path, default)
    if val is default and default is not _MISSING:
        return val
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if least is not None and val < least:
        raise ConfigError(f"{path}.{key}: must be at least {least}")
    return int(val)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# Builders for the named ingredients


def build_domain(block) -> Domain:
    kind = _get(block, "kind", "domain")

    def center():
        return _coords(_get(block, "center", "domain", [0.0, 0.0]), "domain.center", 2)

    if kind == "interval":
        make, args = Interval, (_num(block, "lo", "domain"), _num(block, "hi", "domain"))
    elif kind == "disk":
        make, args = Disk, (_num(block, "radius", "domain", 1.0), center())
    elif kind == "ellipse":
        make, args = Ellipse, (_num(block, "a", "domain"), _num(block, "b", "domain"), center())
    else:
        raise ConfigError(f"domain.kind: unknown built-in '{kind}' "
                          f"(expected interval, disk, or ellipse)")
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"domain: {exc}")


def build_field(block, domain: Domain) -> ObliqueField:
    kind = _get(block, "kind", "field")
    if kind == "normal":
        kappa = 0.0
    elif kind == "oblique_tangent":
        kappa = _num(block, "kappa", "field")
    else:
        raise ConfigError(f"field.kind: unknown built-in '{kind}' "
                          f"(expected normal or oblique_tangent)")
    try:
        return oblique_from_tangent(domain, kappa)
    except (ValueError, GeometryError) as exc:
        raise ConfigError(f"field: {exc}")


def _matrix(val, field: str, d: int, m=None) -> np.ndarray:
    """The ``d`` x ``m`` nested list of finite numbers at the dotted
    ``field``; ``m`` None takes the width of the first row."""
    ok = (isinstance(val, list) and len(val) == d
          and all(isinstance(row, list) for row in val))
    if ok:
        width = len(val[0]) if m is None else m
        ok = width >= 1 and all(len(row) == width and all(map(_finite, row))
                                for row in val)
    if not ok:
        raise ConfigError(f"{field}: expected a {d} x {m or 'm'} matrix of finite numbers")
    return np.array(val, dtype=float)


def _per_point(value, x):
    """A constant ``value`` at a point, or broadcast to every row of ``x``."""
    return value if np.ndim(x) < 2 else np.broadcast_to(value, (len(x),) + value.shape)


# The built-in coefficients take a point (d,) or rows (B, d).  A row comes out
# with the bits of the point call: per-row matrix products, the same float
# order in every sum.


def _drift_builtin(block, d: int):
    path = "coefficients.drift"
    name = _get(block, "name", path)
    if name == "constant":
        vec = _coords(_get(block, "value", path), f"{path}.value", d)
        return (lambda t, x: _per_point(vec, x)), 0.0, vec
    if name == "linear":
        mat = _matrix(_get(block, "matrix", path), f"{path}.matrix", d, d)
        off = _coords(_get(block, "offset", path, [0.0] * d), f"{path}.offset", d)
        lip = float(np.linalg.norm(mat, 2))

        def drift(t, x):
            x = np.atleast_1d(x)
            if x.ndim < 2:
                return off + mat @ x
            # (d, d) @ (d, 1) per row: X @ mat.T can round differently
            return off + np.matmul(mat, x[:, :, None])[:, :, 0]

        return drift, lip, None
    if name == "rotational":
        if d != 2:
            raise ConfigError("coefficients.drift: built-in 'rotational' "
                              "needs a two-dimensional domain")
        omega = _num(block, "omega", path)

        def drift(t, x):
            if np.ndim(x) < 2:
                return omega * np.array([-x[1], x[0]])
            return omega * np.stack([-x[:, 1], x[:, 0]], axis=1)

        return drift, abs(omega), None
    raise ConfigError(f"coefficients.drift.name: unknown built-in '{name}' "
                      f"(expected constant, linear, or rotational)")


def _dispersion_builtin(block, d: int):
    path = "coefficients.dispersion"
    name = _get(block, "name", path)
    if name == "constant":
        mat = _matrix(_get(block, "value", path), f"{path}.value", d)
        return (lambda t, x: _per_point(mat, x)), 0.0, mat
    if name == "linear":
        base = _matrix(_get(block, "base", path), f"{path}.base", d)
        slopes = _get(block, "slopes", path)
        if not isinstance(slopes, list) or len(slopes) != d:
            raise ConfigError(f"{path}.slopes: need one matrix per state coordinate")
        slopes = [_matrix(s, f"{path}.slopes[{j}]", d, base.shape[1])
                  for j, s in enumerate(slopes)]
        lip = math.sqrt(sum(float(np.sum(s * s)) for s in slopes))

        def sigma(t, x):
            x = np.atleast_1d(x)
            if x.ndim == 2:
                x = x.T[:, :, None, None]  # coordinate j of every row, (B, 1, 1)
            # base + (0 + x_0 S_0 + x_1 S_1 + ...), summed left to right
            total = 0
            for j, s in enumerate(slopes):
                total = total + x[j] * s
            return base + total

        return sigma, lip, None
    raise ConfigError(f"coefficients.dispersion.name: unknown built-in '{name}' "
                      f"(expected constant or linear)")


def build_coefficients(block, d: int) -> CoefficientField:
    b_fun, b_lip, b_const = _drift_builtin(_get(block, "drift", "coefficients"), d)
    s_fun, s_lip, s_const = _dispersion_builtin(
        _get(block, "dispersion", "coefficients"), d)
    m = s_fun(0.0, np.zeros(d)).shape[1]
    family = None
    pert = _get(block, "perturbation", "coefficients", None)
    if pert is not None:
        path = "coefficients.perturbation"
        shift = _coords(_get(pert, "drift_shift", path, [0.0] * d), f"{path}.drift_shift", d)
        scale = _num(pert, "dispersion_scale", path, 0.0)
        order = _num(pert, "order", path, 1.0)
        if order <= 0:
            raise ConfigError("coefficients.perturbation.order: must be positive")

        # like the built-ins, these take a point or rows
        def b_of(eps):
            return lambda t, x: b_fun(t, x) + (eps ** order) * shift

        def sigma_of(eps):
            return lambda t, x: (1.0 + scale * eps ** order) * s_fun(t, x)

        family = EpsFamily(b_of=b_of, sigma_of=sigma_of)
    return CoefficientField(b=b_fun, sigma=s_fun, m=m,
                            lipschitz_x=b_lip + s_lip, eps_family=family,
                            constant_b=None if family is not None else b_const,
                            constant_sigma=None if family is not None else s_const,
                            takes_rows=True)


def build_reference(block, t0: float, t_end: float, path: str, d: int) -> ReferencePath:
    kind = _get(block, "kind", path)

    def point(key):
        return _coords(_get(block, key, path), f"{path}.{key}", d)

    if kind == "constant":
        return ReferencePath.constant(point("point"), t0, t_end)
    if kind == "linear":
        return ReferencePath(np.array([t0, t_end]), np.stack([point("start"), point("end")]))
    if kind == "polyline":
        rows = _get(block, "points", path)
        if not isinstance(rows, list):
            raise ConfigError(f"{path}.points: expected a list of points")
        points = [_coords(row, f"{path}.points[{i}]", d) for i, row in enumerate(rows)]
        times = _num_list(block, "times", path)
        if len(times) != len(points) or np.any(np.diff(times) <= 0):
            raise ConfigError(f"{path}.times: need one strictly increasing time per point")
        return ReferencePath(np.array(times), points)
    raise ConfigError(f"{path}.kind: unknown reference kind '{kind}' "
                      f"(expected constant, linear, or polyline)")


def _in_closure(event: EventSpec, domain: Domain, path: str) -> None:
    """``event.validate_in(domain)``, its message prefixed by the block ``path``."""
    try:
        event.validate_in(domain)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _tubes(block, t0: float, t_end: float, path: str, d: int) -> tuple:
    """The references and radii of the tubes in ``block``: at least one."""
    refs = [build_reference(r, t0, t_end, f"{path}.references[{i}]", d)
            for i, r in enumerate(_list(block, "references", path))]
    if not refs:
        raise ConfigError(f"{path}.references: need at least one reference")
    return refs, _num_list(block, "radii", path, positive=True)


def build_event(block, t0: float, t_end: float, path: str, d: int) -> EventSpec:
    kind = _get(block, "kind", path)
    refs, radii = _tubes(block, t0, t_end, path, d)
    try:
        return EventSpec(kind=kind, references=refs, radii=radii)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


class RunContext:
    """Config plus the built domain, field, coefficients, and time grid."""

    def __init__(self, cfg: dict, out_dir: Path, seed: int, threads: int):
        self.cfg = cfg
        self.out_dir = out_dir
        self.seed = seed
        self.threads = threads
        self.domain = build_domain(_get(cfg, "domain", "config"))
        self.field = build_field(_get(cfg, "field", "config"), self.domain)
        self.coeffs = build_coefficients(_get(cfg, "coefficients", "config"),
                                         self.domain.dimension)
        time_spec = _get(cfg, "time", "config")
        self.t0 = _num(time_spec, "t0", "time", 0.0)
        self.t_end = _num(time_spec, "t_end", "time")
        self.n_steps = _int(time_spec, "n_steps", "time", least=1)
        if self.t_end <= self.t0:
            raise ConfigError("time.t_end: must exceed time.t0")
        self.x0 = _coords(_get(cfg, "x0", "config"), "config.x0", self.domain.dimension)
        if self.domain.signed_distance(self.x0) < -1e-12:
            raise ConfigError("config.x0: outside the closure of the domain")
        tol = _get(cfg, "tolerances", "config", {})
        self.rate_tol = _num(tol, "rate_tol", "tolerances", 1e-3)
        self.scheme_tol = _num(tol, "scheme_tol", "tolerances", 0.02)
        self.lambda_fraction = _num(tol, "lambda_fraction", "tolerances", 0.15)
        for name in ("rate_tol", "scheme_tol", "lambda_fraction"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"tolerances.{name}: must be positive")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.t0, self.t_end, self.n_steps)

    def events(self) -> list:
        out = []
        for i, block in enumerate(_list(self.cfg, "events", "config", [])):
            event = build_event(block, self.t0, self.t_end, f"events[{i}]",
                                self.domain.dimension)
            _in_closure(event, self.domain, f"events[{i}]")
            name = str(_get(block, "id", f"events[{i}]", f"event-{i}"))
            if name in (seen for seen, _ in out):
                raise ConfigError(f"events[{i}].id: duplicate id '{name}'")
            out.append((name, event))
        return out

    def event_by_id(self, event_id: str, path: str) -> EventSpec:
        for name, event in self.events():
            if name == event_id:
                return event
        raise ConfigError(f"{path}: no event with id '{event_id}'")

    def write_json(self, name: str, payload: dict) -> str:
        dump_json(self.out_dir / name, payload)
        return name


def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# Subcommand pipelines; each returns (exit_code, {label: filename})


def cmd_simulate(ctx: RunContext):
    eps = _num(ctx.cfg, "eps", "config", least=0)
    events = ctx.events()
    if events:
        n_samples = _int(ctx.cfg, "n_samples", "config", least=100)
    path = simulate_reflected_sde(ctx.domain, ctx.field, ctx.coeffs,
                                  NoiseScale(eps), ctx.t0, ctx.x0, ctx.grid,
                                  ctx.seed, trajectory_id=0)
    path.write_csv(ctx.out_dir / "path.csv", ctx.domain)
    outputs = {"path": "path.csv"}
    if events:
        rows = []
        for event_id, event in events:
            est = estimate_event_probability(
                ctx.domain, ctx.field, ctx.coeffs, NoiseScale(eps), ctx.t0,
                ctx.x0, ctx.grid, event, n_samples, ctx.seed,
                n_threads=ctx.threads)
            rows.append({"event_id": event_id, "eps": eps, "p_hat": est.p_hat,
                         "ci": est.ci_half_width, "n": est.n_samples})
        outputs["estimates"] = ctx.write_json("estimates.json", {"estimates": rows})
    return 0, outputs


def cmd_rate(ctx: RunContext):
    block = _get(ctx.cfg, "rate", "config")
    n_segments = _int(block, "n_segments", "rate", 64, least=1)
    max_segments = _int(block, "max_segments", "rate", 4 * n_segments, least=n_segments)
    substeps = _int(block, "substeps", "rate", 4, least=1)
    target = _get(block, "target", "rate", None)
    if target is not None:
        ref = build_reference(target, ctx.t0, ctx.t_end, "rate.target", ctx.domain.dimension)
        result = rate_of_path(ctx.domain, ctx.field, ctx.coeffs, ctx.t0, ctx.x0,
                              ref, tol=ctx.rate_tol, n_segments=n_segments,
                              substeps=substeps, max_segments=max_segments)
    else:
        event_id = _get(block, "event", "rate")
        event = ctx.event_by_id(event_id, "rate.event")
        result = rate_of_event(ctx.domain, ctx.field, ctx.coeffs, ctx.t0, ctx.x0,
                               event, tol=ctx.rate_tol, t_end=ctx.t_end,
                               n_segments=n_segments, substeps=substeps,
                               max_segments=max_segments)
    control = result.optimizer
    with open(ctx.out_dir / "control.csv", "w") as fh:
        m = control.values.shape[1]
        fh.write(",".join(["t"] + [f"a{j+1}" for j in range(m)]) + "\n")
        for t, row in zip(control.grid.nodes[:-1], control.values):
            fh.write(",".join(f"{v:.17g}" for v in [t, *row]) + "\n")
    payload = {"value": _finite_or_none(result.value),
               "infeasible": result.infeasible,
               "constraint_residual": result.constraint_residual,
               "iterations": result.iterations,
               "action_of_control": control.action(),
               "n_segments": int(control.values.shape[0]),
               "control_csv": "control.csv"}
    outputs = {"rate": ctx.write_json("rate.json", payload),
               "control": "control.csv"}
    return 0, outputs


def cmd_stopping(ctx: RunContext):
    block = _get(ctx.cfg, "stopping", "config")
    n_steps = _int(block, "n_steps", "stopping", 4, least=1)
    controls = _get(block, "controls", "stopping")
    if not isinstance(controls, list) or not controls:
        raise ConfigError("stopping.controls: need a list of at least one control")
    controls = [_coords(a, f"stopping.controls[{i}]", ctx.coeffs.m)
                for i, a in enumerate(controls)]
    grid = TimeGrid.uniform(ctx.t0, ctx.t_end, n_steps)
    obstacles = []
    for i, ob in enumerate(_list(block, "obstacles", "stopping")):
        at = f"stopping.obstacles[{i}]"
        ref = build_reference(_get(ob, "reference", at), ctx.t0, ctx.t_end,
                              f"{at}.reference", ctx.domain.dimension)
        obstacles.append(tube_obstacle(
            ref, _num(ob, "radius", at, least=0), _num(ob, "height", at, 1.0),
            complement=_bool(ob, "complement", at, False)))
    if not 1 <= len(obstacles) <= 3:
        raise ConfigError("stopping.obstacles: need between 1 and 3 obstacles")
    problem = DiscreteProblem.build(
        ctx.domain, ctx.field, ctx.coeffs, grid, controls, obstacles,
        substeps=_int(block, "substeps", "stopping", 16, least=1),
        obstacle_bound=_num(block, "obstacle_bound", "stopping", math.inf, least=0))
    budget = _num(block, "budget", "stopping", 1e8, least=1)
    values = {}
    indices = list(range(len(obstacles)))
    try:
        for size in range(1, len(indices) + 1):
            for subset in itertools.combinations(indices, size):
                # shares the problem's transition memo: each transition runs once
                sub = dataclasses.replace(problem, obstacles=[obstacles[i] for i in subset])
                values[",".join(map(str, subset))] = float(multi_stop_value(
                    sub, ctx.t0, ctx.x0, budget=budget))
        reduced = float(reduced_value(problem, ctx.t0, ctx.x0))
    except ObstacleBoundError as exc:
        raise ConfigError(f"stopping.obstacle_bound: {exc}") from exc
    except EnumerationLimitError as exc:
        raise ConfigError(f"stopping.budget: {exc}") from exc
    full_key = ",".join(map(str, indices))
    payload = {"values_by_subset": values, "reduced_value": reduced,
               "reduction_identity_holds": bool(values[full_key] == reduced),
               "n_obstacles": len(obstacles), "n_steps": n_steps}
    return 0, {"stopping": ctx.write_json("stopping.json", payload)}


def cmd_hjb(ctx: RunContext):
    block = _get(ctx.cfg, "hjb", "config")
    vi_name = _get(block, "vi_type", "hjb", "min")
    if vi_name not in ("min", "max"):
        raise ConfigError("hjb.vi_type: expected 'min' or 'max'")
    vi_type = MIN_TYPE if vi_name == "min" else MAX_TYPE
    n_x = _int(block, "n_x", "hjb", least=2)
    ob_block = _get(block, "obstacle", "hjb")
    if not isinstance(ob_block, dict):
        raise ConfigError("hjb.obstacle: expected an object")
    if "height" in ob_block and "reference" not in ob_block:
        obstacle = constant_obstacle(_num(ob_block, "height", "hjb.obstacle"))
    else:
        ref = build_reference(_get(ob_block, "reference", "hjb.obstacle"), ctx.t0,
                              ctx.t_end, "hjb.obstacle.reference", ctx.domain.dimension)
        box = ctx.domain.bounding_box
        cell = float(box[0, 1] - box[0, 0]) / (n_x - 1)
        smoothing = cell
        if _get(ob_block, "smoothing", "hjb.obstacle", "cell") != "cell":
            smoothing = _num(ob_block, "smoothing", "hjb.obstacle", least=0)
        obstacle = tube_obstacle(
            ref, _num(ob_block, "radius", "hjb.obstacle", least=0),
            _num(ob_block, "height", "hjb.obstacle", 1.0),
            complement=_bool(ob_block, "complement", "hjb.obstacle", False),
            smoothing=smoothing)
    kwargs = dict(n_x=n_x, t0=ctx.t0, t_end=ctx.t_end,
                  store_every=_int(block, "store_every", "hjb", None, least=1))
    dv_est = _num(block, "dv_est", "hjb", None)
    if dv_est is not None:
        if dv_est <= 0.0:
            raise ConfigError("hjb.dv_est: must be positive")
        kwargs["dv_est"] = dv_est
    eps = _num(block, "eps", "hjb", 0.0, least=0)
    if eps > 0.0:
        grid = solve_eps_vi(ctx.domain, ctx.field, ctx.coeffs, obstacle,
                            NoiseScale(eps), vi_type, **kwargs)
    else:
        grid = solve_limit_vi(ctx.domain, ctx.field, ctx.coeffs, obstacle,
                              vi_type, **kwargs)
    grid.export_csv(ctx.out_dir / "value.csv")
    grid.save_npz(ctx.out_dir / "value.npz")
    payload = {"value_at_start": grid.value_at(ctx.t0, ctx.x0),
               "vi_type": vi_name, "eps": eps, "h": grid.h, "dt": grid.dt,
               "n_stored_layers": int(len(grid.times))}
    return 0, {"summary": ctx.write_json("hjb.json", payload),
               "values": "value.csv", "layers": "value.npz"}


def cmd_testfn_check(ctx: RunContext):
    block = _get(ctx.cfg, "testfn", "config")
    eps = _num(block, "eps", "testfn")
    rho = _num(block, "rho", "testfn")
    for key, val in (("eps", eps), ("rho", rho)):
        if not 0.0 < val <= 1.0:
            raise ConfigError(f"testfn.{key}: must lie in (0, 1]")
    build_kwargs = {}
    for key in ("n_boundary", "probe_samples"):
        val = _int(block, key, "testfn", None, least=1)
        if val is not None:
            build_kwargs[key] = val
    n_samples = _int(block, "n_samples", "testfn", 4096, least=1)
    tf = build_testfn(ctx.domain, ctx.field, eps, rho, **build_kwargs)
    report = check_testfn_properties(tf, n_samples)
    payload = report.to_dict()
    payload.update({"A": tf.A, "B": tf.B, "C": tf.C, "eps": eps, "rho": rho,
                    "passed": bool(report.min_psi_iii > 0.0
                                   and math.isfinite(report.K_psi_i)
                                   and math.isfinite(report.K_psi_ii))})
    return 0, {"testfn": ctx.write_json("testfn.json", payload)}


def _ldp_config(ctx: RunContext) -> tuple:
    block = _get(ctx.cfg, "ldp", "config")
    refs, radii = _tubes(block, ctx.t0, ctx.t_end, "ldp", ctx.domain.dimension)
    ladder = _num_list(ctx.cfg, "eps_ladder", "config", positive=True)
    kwargs = dict(
        domain=ctx.domain, field=ctx.field, coeffs=ctx.coeffs, t0=ctx.t0,
        x0=ctx.x0, t_end=ctx.t_end, references=refs, radii=radii,
        eps_ladder=ladder, n_samples=_int(ctx.cfg, "n_samples", "config", least=100),
        n_steps=ctx.n_steps, seed=ctx.seed, scheme_tol=ctx.scheme_tol,
        lambda_fraction=ctx.lambda_fraction, rate_tol=ctx.rate_tol,
        n_threads=ctx.threads)
    for key in ("n_x", "rate_segments", "rate_max_segments", "dp_n_steps", "dp_substeps"):
        if key in block:
            least = {"n_x": 2, "rate_max_segments": kwargs.get(
                "rate_segments", LdpConfig.rate_segments)}.get(key, 1)
            kwargs[key] = _int(block, key, "ldp", least=least)
    if "obstacle_height" in block:
        kwargs["obstacle_height"] = _num(block, "obstacle_height", "ldp")
    if "dp_controls" in block:
        kwargs["dp_controls"] = _num_list(block, "dp_controls", "ldp")
    try:
        config = LdpConfig(**kwargs)
    except ValueError as exc:
        top = str(exc).startswith("eps_ladder:")  # each message starts with its field
        raise ConfigError(f"{'config' if top else 'ldp'}.{exc}")
    _in_closure(EventSpec.complements(refs, radii), ctx.domain, "ldp")
    bound = _get(block, "bound", "ldp", "lower")
    if bound not in ("lower", "upper", "both"):
        raise ConfigError("ldp.bound: expected 'lower', 'upper', or 'both'")
    if bound != "lower" and len(refs) != 1:
        raise ConfigError("ldp.references: the upper bound takes exactly one tube")
    return config, bound


def cmd_verify_ldp(ctx: RunContext):
    config, bound = _ldp_config(ctx)
    runs = {"lower": [run_lower_bound_experiment],
            "upper": [run_upper_bound_experiment],
            "both": [run_lower_bound_experiment, run_upper_bound_experiment]}[bound]
    outputs, verdicts = {}, []
    for run in runs:
        report = run(config)
        side = report.details["bound"]
        stem = "report" if len(runs) == 1 else f"report_{side}"
        report.write_json(ctx.out_dir / f"{stem}.json")
        report.write_csv(ctx.out_dir / f"{stem}.csv")
        outputs[f"{side}_report"] = f"{stem}.json"
        outputs[f"{side}_table"] = f"{stem}.csv"
        verdicts.append(report.verdict)
    return (2 if "inconclusive" in verdicts else 0), outputs


HANDLERS = {
    "simulate": cmd_simulate,
    "rate": cmd_rate,
    "stopping": cmd_stopping,
    "hjb": cmd_hjb,
    "testfn-check": cmd_testfn_check,
    "verify-ldp": cmd_verify_ldp,
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(ctx: RunContext, subcommand: str, config_path,
                   outputs: dict) -> None:
    manifest = {
        "subcommand": subcommand,
        "config_path": str(config_path),
        "config_sha256": _sha256(Path(config_path)),
        "seed": ctx.seed,
        "threads": ctx.threads,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "obliqueldp": __version__},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": {label: {"path": name,
                            "sha256": _sha256(ctx.out_dir / name)}
                    for label, name in sorted(outputs.items())},
    }
    dump_json(ctx.out_dir / "manifest.json", manifest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obliqueldp",
        description="Reflected small-noise diffusions: simulation, rates, "
                    "obstacle problems, and bound verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
            ("simulate", "simulate a reflected path and estimate event odds"),
            ("rate", "least action for a target path or event"),
            ("stopping", "discrete control and multiple-stopping values"),
            ("hjb", "solve the obstacle problem on a grid"),
            ("testfn-check", "build the boundary test function and check it"),
            ("verify-ldp", "compare Monte Carlo log-rates with the action")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default=None,
                       help="output directory (default: config out_dir)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads for Monte Carlo chunks")
    return parser


def run(config_path, subcommand: str, out=None, seed=None, threads=None) -> int:
    cfg = load_config(config_path)
    out_dir = Path(out if out is not None else _get(cfg, "out_dir", "config", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    eff_seed = int(seed if seed is not None else _int(cfg, "seed", "config", 20240801))
    if not 0 <= eff_seed < 2 ** 63:  # Philox keys (seed, trajectory id) as 64-bit integers
        raise ConfigError(f"{'config.seed' if seed is None else '--seed'}: must lie in [0, 2**63)")
    eff_threads = int(threads if threads is not None
                      else _int(cfg, "threads", "config", 1, least=1))
    if eff_threads < 1:
        raise ConfigError("--threads: must be at least 1")
    ctx = RunContext(cfg, out_dir, eff_seed, eff_threads)
    code, outputs = HANDLERS[subcommand](ctx)
    write_manifest(ctx, subcommand, config_path, outputs)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args.config, args.subcommand, out=args.out, seed=args.seed,
                   threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
import contextlib
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
from .control_stop import DiscreteProblem, EnumerationLimitError, multi_stop_value, \
    reduced_value
from .geometry import CoefficientField, Disk, Ellipse, GeometryError, Interval, \
    constant_function, oblique_from_tangent
from .hjbvi import MAX_TYPE, MIN_TYPE, cell_width, solve_eps_vi, solve_limit_vi
from .ldp import LdpConfig, checked_eps_ladder, dump_json, run_lower_bound_experiment, \
    run_upper_bound_experiment
from .rate import rate_of_event, rate_of_path
from .reflect import ReferencePath, TimeGrid, _checked_start
from .sde import EventSpec, NoiseScale, estimate_event_probability, \
    simulate_reflected_sde, tube_obstacle
from .testfn import build_testfn, check_testfn_properties

# every top-level key that some pipeline reads
_TOP_LEVEL = ("out_dir", "seed", "threads", "domain", "field", "coefficients", "time",
              "x0", "tolerances", "events", "eps", "n_samples", "eps_ladder", "rate",
              "stopping", "hjb", "testfn", "ldp")
_REQUIRED = object()


class ConfigError(ValueError):
    """Raised for malformed configs; the message names the offending field."""


# ---------------------------------------------------------------------------
# The one object reader.  A spec maps each accepted key to its check, or to
# (check, default) when the key may be left out; a check takes the value and
# its dotted path and returns what the run uses, or raises a ConfigError.


def _known(block: dict, path: str, keys) -> None:
    for key in block:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown field")


def _fields(block, path: str, spec: dict) -> dict:
    """The fields of the config object ``block`` at ``path``, read by ``spec``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    out = {}
    for key, entry in spec.items():
        check, default = entry if isinstance(entry, tuple) else (entry, _REQUIRED)
        if key in block:
            out[key] = check(block[key], f"{path}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: missing required field")
        else:
            out[key] = default
    _known(block, path, spec)
    return out


def _as_given(val, path):
    return val


def _top(cfg: dict, key: str, check=_as_given, default=_REQUIRED):
    """The top-level field ``key``, named ``config.key``; a block is read
    under its bare key."""
    return _fields({key: cfg[key]} if key in cfg else {}, "config", {key: (check, default)})[key]


def _finite(val) -> bool:
    try:
        return (not isinstance(val, bool) and isinstance(val, (int, float))
                and math.isfinite(val))
    except OverflowError:        # an integer beyond the float range
        return False


def _at_least(val, path, least):
    if least is not None and val < least:
        raise ConfigError(f"{path}: must be at least {least}")


def _number(least=None, positive=False):
    def check(val, path) -> float:
        if not _finite(val):
            raise ConfigError(f"{path}: expected a finite number")
        _at_least(val, path, least)
        if positive and val <= 0:
            raise ConfigError(f"{path}: must be positive")
        return float(val)
    return check


def _integer(least=None):
    def check(val, path) -> int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}: expected an integer")
        _at_least(val, path, least)
        return val
    return check


def _flag(val, path) -> bool:
    if not isinstance(val, bool):
        raise ConfigError(f"{path}: expected true or false")
    return val


def _text(val, path) -> str:
    return str(val)


def _string(val, path) -> str:
    if not isinstance(val, str):
        raise ConfigError(f"{path}: expected a string")
    return val


def _choice(*options):
    def check(val, path):
        if val not in options:
            raise ConfigError(f"{path}: unknown {val!r} (expected one of "
                              f"{', '.join(map(repr, options))})")
        return val
    return check


def _object(spec):
    return lambda val, path: _fields(val, path, spec)


def _objects(read):
    """Check for a list of objects, each read by ``read(item, path)``."""
    def check(val, path) -> list:
        if not isinstance(val, list):
            raise ConfigError(f"{path}: expected a list of objects")
        return [read(item, f"{path}[{i}]") for i, item in enumerate(val)]
    return check


def _array(*shape, positive=False):
    """Check for a nested list of finite numbers (positive ones if
    ``positive``) with the lengths ``shape``; None is any length but zero,
    the same for every entry of a level.  The first entry at fault is named."""
    def check(val, path, shape=shape):
        if not shape:
            if not _finite(val) or (positive and val <= 0):
                raise ConfigError(f"{path}: expected a "
                                  f"{'positive ' if positive else ''}finite number")
            return float(val)
        n, *inner = shape
        if not isinstance(val, list) or not val or n is not None and len(val) != n:
            raise ConfigError(f"{path}: expected a list of {n or 'one or more'} entries")
        rows = []
        for i, entry in enumerate(val):
            rows.append(check(entry, f"{path}[{i}]", inner))
            inner = np.shape(rows[0])
        return np.array(rows)
    return check


@contextlib.contextmanager
def _named(errors: dict):
    """Report a library error of a type in ``errors`` as a ConfigError that
    starts with the field path it maps the type to."""
    try:
        yield
    except ConfigError:
        raise
    except tuple(errors) as exc:
        prefix = next(at for kind, at in errors.items() if isinstance(exc, kind))
        raise ConfigError(f"{prefix}{exc}") from exc


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
    _known(cfg, "config", _TOP_LEVEL)
    return cfg


# ---------------------------------------------------------------------------
# The built-in families: a table maps each kind to its constructor and the
# spec of the fields the constructor takes.


def _built_in(block, path: str, table: dict, *args, key="kind"):
    """What the ``table`` entry that ``block[key]`` names builds from ``args``
    and the block's other fields."""
    kind = block.get(key) if isinstance(block, dict) else None
    # a tuple's `in` compares, so an unhashable kind (a JSON list) is unknown too
    make, spec = table[kind] if kind in tuple(table) else (None, {})
    fields = _fields(block, path, {key: _choice(*table), **spec})
    del fields[key]
    return make(*args, **fields)


_DOMAINS = {
    "interval": (lambda lo, hi: Interval(lo, hi), {"lo": _number(), "hi": _number()}),
    "disk": (Disk, {"radius": (_number(), 1.0), "center": (_array(2), (0.0, 0.0))}),
    "ellipse": (Ellipse, {"a": _number(), "b": _number(),
                          "center": (_array(2), (0.0, 0.0))}),
}

_FIELDS = {
    "normal": (lambda domain: oblique_from_tangent(domain, 0.0), {}),
    "oblique_tangent": (oblique_from_tangent, {"kappa": _number()}),
}


# The built-in coefficients take a point (d,) or rows (B, d).  A row comes out
# with the bits of the point call: per-row matrix products, the same float
# order in every sum.  Each constructor returns the function and its
# constant value (None when it varies).


def _constant(value):
    return constant_function(value), value


def _linear_drift(matrix, offset):
    def drift(t, x):
        x = np.atleast_1d(x)
        if x.ndim < 2:
            return offset + matrix @ x
        # (d, d) @ (d, 1) per row: X @ matrix.T can round differently
        return offset + np.matmul(matrix, x[:, :, None])[:, :, 0]

    return drift, None


def _rotational_drift(d, omega):
    if d != 2:
        raise ConfigError("coefficients.drift: built-in 'rotational' "
                          "needs a two-dimensional domain")

    def drift(t, x):
        if np.ndim(x) < 2:
            return omega * np.array([-x[1], x[0]])
        return omega * np.stack([-x[:, 1], x[:, 0]], axis=1)

    return drift, None


def _linear_dispersion(base, slopes):
    if slopes.shape[1:] != base.shape:
        raise ConfigError(f"coefficients.dispersion.slopes: need one "
                          f"{base.shape[0]} x {base.shape[1]} matrix per state coordinate")
    slopes = list(slopes)  # a list iterates faster than the rows of an array

    def sigma(t, x):
        x = np.atleast_1d(x)
        if x.ndim == 2:
            x = x.T[:, :, None, None]  # coordinate j of every row, (B, 1, 1)
        # base + (0 + x_0 S_0 + x_1 S_1 + ...), summed left to right
        total = 0
        for j, s in enumerate(slopes):
            total = total + x[j] * s
        return base + total

    return sigma, None


def build_coefficients(block, d: int) -> CoefficientField:
    drifts = {"constant": (_constant, {"value": _array(d)}),
              "linear": (_linear_drift, {"matrix": _array(d, d),
                                         "offset": (_array(d), np.zeros(d))}),
              "rotational": (lambda omega: _rotational_drift(d, omega), {"omega": _number()})}
    dispersions = {"constant": (_constant, {"value": _array(d, None)}),
                   "linear": (_linear_dispersion, {"base": _array(d, None),
                                                   "slopes": _array(d, None, None)})}
    f = _fields(block, "coefficients", {
        "drift": lambda val, path: _built_in(val, path, drifts, key="name"),
        "dispersion": lambda val, path: _built_in(val, path, dispersions, key="name"),
        "perturbation": (_object({"drift_shift": (_array(d), np.zeros(d)),
                                  "dispersion_scale": (_number(), 0.0),
                                  "order": (_number(positive=True), 1.0)}), None)})
    (b_fun, b_const), (s_fun, s_const) = f["drift"], f["dispersion"]
    m = s_fun(0.0, np.zeros(d)).shape[1]
    family, pert = None, f["perturbation"]
    if pert is not None:
        shift, scale, order = pert["drift_shift"], pert["dispersion_scale"], pert["order"]

        def family(eps):
            # like the built-ins, the member's callables take a point or rows
            w = eps ** order
            return CoefficientField(b=lambda t, x: b_fun(t, x) + w * shift,
                                    sigma=lambda t, x: (1.0 + scale * w) * s_fun(t, x), m=m,
                                    takes_rows=True)
    return CoefficientField(b=b_fun, sigma=s_fun, m=m, family=family,
                            constant_b=b_const, constant_sigma=s_const, takes_rows=True)


def _tube(reference) -> dict:
    """The spec of a tube obstacle's fields."""
    return {"reference": reference, "radius": _number(least=0),
            "height": (_number(), 1.0), "complement": (_flag, False)}


class RunContext:
    """Config plus the built domain, field, coefficients, time grid and events."""

    def __init__(self, cfg: dict, out_dir: Path, seed: int, threads: int):
        self.cfg = cfg
        self.out_dir = out_dir
        self.seed = seed
        self.threads = threads
        with _named({ValueError: "domain: "}):
            self.domain = _built_in(_top(cfg, "domain"), "domain", _DOMAINS)
        with _named({ValueError: "field: ", GeometryError: "field: "}):
            self.field = _built_in(_top(cfg, "field"), "field", _FIELDS, self.domain)
        d = self.domain.dimension
        self.coeffs = build_coefficients(_top(cfg, "coefficients"), d)
        time_spec = _fields(_top(cfg, "time"), "time", {
            "t0": (_number(), 0.0), "t_end": _number(), "n_steps": _integer(least=1)})
        self.t0, self.t_end, self.n_steps = time_spec.values()
        if self.t_end <= self.t0:
            raise ConfigError("time.t_end: must exceed time.t0")
        self.x0 = _top(cfg, "x0", _array(d))
        with _named({ValueError: "config.x0: "}):
            _checked_start(self.domain, self.x0)
        tol = _fields(_top(cfg, "tolerances", default={}), "tolerances", {
            "rate_tol": (_number(positive=True), 1e-3),
            "scheme_tol": (_number(positive=True), 0.02),
            "lambda_fraction": (_number(positive=True), 0.15)})
        self.rate_tol, self.scheme_tol, self.lambda_fraction = tol.values()
        self.tubes = {"references": self.references, "radii": _array(None, positive=True)}
        self.events = {}
        read = _objects(_object({"id": (_text, None), "kind": _as_given, **self.tubes}))
        for i, ev in enumerate(read(_top(cfg, "events", default=[]), "events")):
            path = f"events[{i}]"
            event = self.event(ev["kind"], ev["references"], ev["radii"], path)
            name = f"event-{i}" if ev["id"] is None else ev["id"]
            if name in self.events:
                raise ConfigError(f"{path}.id: duplicate id '{name}'")
            self.events[name] = event

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.t0, self.t_end, self.n_steps)

    def reference(self, block, path: str) -> ReferencePath:
        """Check that reads a reference path over the run's horizon."""
        t0, t_end, d = self.t0, self.t_end, self.domain.dimension

        def polyline(points, times):
            if len(times) != len(points) or np.any(np.diff(times) <= 0):
                raise ConfigError(f"{path}.times: need one strictly increasing time per point")
            if times[0] != t0 or times[-1] != t_end:
                raise ConfigError(f"{path}.times: must run from time.t0 to time.t_end")
            return ReferencePath(times, points)

        return _built_in(block, path, {
            "constant": (lambda point: ReferencePath.constant(point, t0, t_end),
                         {"point": _array(d)}),
            "linear": (lambda start, end: ReferencePath(np.array([t0, t_end]),
                                                        np.stack([start, end])),
                       {"start": _array(d), "end": _array(d)}),
            "polyline": (polyline, {"points": _array(None, d), "times": _array(None)})})

    def references(self, val, path: str) -> list:
        """Check that reads the one or more references of a set of tubes."""
        refs = _objects(self.reference)(val, path)
        if not refs:
            raise ConfigError(f"{path}: need at least one reference")
        return refs

    def event(self, kind, references, radii, path: str) -> EventSpec:
        """The event on the tubes of the block at ``path``, checked in the
        domain; an error names the block."""
        with _named({ValueError: f"{path}: "}):
            event = EventSpec(kind, references, radii)
        with _named({ValueError: f"{path}."}):
            event.validate_in(self.domain)
        return event

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
    eps = _top(ctx.cfg, "eps", _number(least=0))
    if ctx.events:
        n_samples = _top(ctx.cfg, "n_samples", _integer(least=100))
    path = simulate_reflected_sde(ctx.domain, ctx.field, ctx.coeffs, NoiseScale(eps),
                                  ctx.x0, ctx.grid, ctx.seed, trajectory_id=0)
    path.write_csv(ctx.out_dir / "path.csv", ctx.domain)
    outputs = {"path": "path.csv"}
    if ctx.events:
        rows = []
        for event_id, event in ctx.events.items():
            est = estimate_event_probability(
                ctx.domain, ctx.field, ctx.coeffs, NoiseScale(eps), ctx.x0, ctx.grid,
                event, n_samples, ctx.seed, n_threads=ctx.threads)
            rows.append({"event_id": event_id, "eps": eps, "p_hat": est.p_hat,
                         "ci": est.ci_half_width, "n": est.n_samples})
        outputs["estimates"] = ctx.write_json("estimates.json", {"estimates": rows})
    return 0, outputs


def cmd_rate(ctx: RunContext):
    f = _fields(_top(ctx.cfg, "rate"), "rate", {
        "target": (ctx.reference, None), "event": (_text, None),
        "n_segments": (_integer(least=1), 64), "max_segments": (_integer(least=1), None)})
    n_segments = f["n_segments"]
    max_segments = 4 * n_segments if f["max_segments"] is None else f["max_segments"]
    _at_least(max_segments, "rate.max_segments", n_segments)
    solve = dict(tol=ctx.rate_tol, n_segments=n_segments, max_segments=max_segments)
    if f["target"] is not None:
        if f["event"] is not None:
            raise ConfigError("rate.event: give rate.target or rate.event, not both")
        result = rate_of_path(ctx.domain, ctx.field, ctx.coeffs, ctx.t0, ctx.x0,
                              f["target"], **solve)
    else:
        if f["event"] is None:
            raise ConfigError("rate.event: missing required field")
        if f["event"] not in ctx.events:
            raise ConfigError(f"rate.event: no event with id '{f['event']}'")
        result = rate_of_event(ctx.domain, ctx.field, ctx.coeffs, ctx.t0, ctx.x0,
                               ctx.events[f["event"]], t_end=ctx.t_end, **solve)
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
    f = _fields(_top(ctx.cfg, "stopping"), "stopping", {
        "n_steps": (_integer(least=1), 4), "controls": _array(None, ctx.coeffs.m),
        "obstacles": _objects(_object(_tube(ctx.reference))),
        "substeps": (_integer(least=1), 16), "budget": (_number(least=1), 1e8)})
    obstacles = [tube_obstacle(**ob) for ob in f["obstacles"]]
    if not 1 <= len(obstacles) <= 3:
        raise ConfigError("stopping.obstacles: need between 1 and 3 obstacles")
    problem = DiscreteProblem.build(
        ctx.domain, ctx.field, ctx.coeffs, TimeGrid.uniform(ctx.t0, ctx.t_end, f["n_steps"]),
        list(f["controls"]), obstacles, substeps=f["substeps"])
    values = {}
    indices = list(range(len(obstacles)))
    with _named({EnumerationLimitError: "stopping.budget: "}):
        for size in range(1, len(indices) + 1):
            for subset in itertools.combinations(indices, size):
                # shares the problem's transition memo: each transition runs once
                sub = dataclasses.replace(problem, obstacles=[obstacles[i] for i in subset])
                values[",".join(map(str, subset))] = float(multi_stop_value(
                    sub, ctx.t0, ctx.x0, budget=f["budget"]))
        reduced = float(reduced_value(problem, ctx.t0, ctx.x0))
    full_key = ",".join(map(str, indices))
    payload = {"values_by_subset": values, "reduced_value": reduced,
               "reduction_identity_holds": bool(values[full_key] == reduced),
               "n_obstacles": len(obstacles), "n_steps": f["n_steps"]}
    return 0, {"stopping": ctx.write_json("stopping.json", payload)}


def _smoothing(val, path):
    return val if val == "cell" else _number(least=0)(val, path)


def cmd_hjb(ctx: RunContext):
    f = _fields(_top(ctx.cfg, "hjb"), "hjb", {
        "vi_type": (_choice("min", "max"), "min"), "n_x": _integer(least=2),
        "store_every": (_integer(least=1), None), "eps": (_number(least=0), 0.0),
        "obstacle": _object({**_tube(ctx.reference), "smoothing": (_smoothing, "cell")})})
    ob = f["obstacle"]
    if ob["smoothing"] == "cell":
        ob["smoothing"] = cell_width(ctx.domain, f["n_x"])
    with _named({ValueError: "hjb.obstacle.smoothing: "}):
        obstacle = tube_obstacle(**ob)
    kwargs = dict(n_x=f["n_x"], t0=ctx.t0, t_end=ctx.t_end, store_every=f["store_every"])
    vi_type = MIN_TYPE if f["vi_type"] == "min" else MAX_TYPE
    if f["eps"] > 0.0:
        grid = solve_eps_vi(ctx.domain, ctx.field, ctx.coeffs, obstacle,
                            NoiseScale(f["eps"]), vi_type, **kwargs)
    else:
        grid = solve_limit_vi(ctx.domain, ctx.field, ctx.coeffs, obstacle,
                              vi_type, **kwargs)
    grid.save_npz(ctx.out_dir / "value.npz")
    payload = {"value_at_start": grid.value_at(ctx.t0, ctx.x0),
               "vi_type": f["vi_type"], "eps": f["eps"], "h": grid.h, "dt": grid.dt,
               "n_stored_layers": int(len(grid.times))}
    return 0, {"summary": ctx.write_json("hjb.json", payload), "layers": "value.npz"}


def cmd_testfn_check(ctx: RunContext):
    f = _fields(_top(ctx.cfg, "testfn"), "testfn", {
        "eps": _number(), "rho": _number(),
        "n_boundary": (_integer(least=1), None), "probe_samples": (_integer(least=1), None),
        "n_samples": (_integer(least=1), 4096)})
    for key in ("eps", "rho"):
        if not 0.0 < f[key] <= 1.0:
            raise ConfigError(f"testfn.{key}: must lie in (0, 1]")
    build_kwargs = {key: f[key] for key in ("n_boundary", "probe_samples")
                    if f[key] is not None}
    tf = build_testfn(ctx.domain, ctx.field, f["eps"], f["rho"], **build_kwargs)
    report = check_testfn_properties(tf, f["n_samples"])
    payload = report.to_dict()
    payload.update({"A": tf.A, "B": tf.B, "C": tf.C, "eps": f["eps"], "rho": f["rho"],
                    "passed": bool(report.min_psi_iii > 0.0
                                   and math.isfinite(report.K_psi_i)
                                   and math.isfinite(report.K_psi_ii))})
    return 0, {"testfn": ctx.write_json("testfn.json", payload)}


def _ldp_config(ctx: RunContext) -> tuple:
    f = _fields(_top(ctx.cfg, "ldp"), "ldp", {
        "bound": (_choice("lower", "upper", "both"), "lower"), **ctx.tubes,
        "n_x": (_integer(least=2), LdpConfig.n_x),
        "rate_segments": (_integer(least=1), LdpConfig.rate_segments),
        "rate_max_segments": (_integer(least=1), LdpConfig.rate_max_segments),
        "dp_n_steps": (_integer(least=1), LdpConfig.dp_n_steps),
        "dp_substeps": (_integer(least=1), LdpConfig.dp_substeps),
        "obstacle_height": (_number(), LdpConfig.obstacle_height),
        "dp_controls": (_array(None), LdpConfig.dp_controls)})
    bound = f.pop("bound")
    _at_least(f["rate_max_segments"], "ldp.rate_max_segments", f["rate_segments"])
    event = ctx.event("intersection_of_complements", f.pop("references"), f.pop("radii"), "ldp")
    with _named({ValueError: "config."}):
        ladder = checked_eps_ladder(_top(ctx.cfg, "eps_ladder", _array(None, positive=True)))
    n_samples = _top(ctx.cfg, "n_samples", _integer(least=100))
    with _named({ValueError: "ldp."}):
        config = LdpConfig(
            domain=ctx.domain, field=ctx.field, coeffs=ctx.coeffs, t0=ctx.t0,
            x0=ctx.x0, t_end=ctx.t_end, event=event, eps_ladder=ladder, n_samples=n_samples,
            n_steps=ctx.n_steps, seed=ctx.seed, scheme_tol=ctx.scheme_tol,
            lambda_fraction=ctx.lambda_fraction, rate_tol=ctx.rate_tol,
            n_threads=ctx.threads, **f)
    if bound != "lower":
        if len(event.references) != 1:
            raise ConfigError("ldp.references: the upper bound takes exactly one tube")
        # the upper bound's PDE obstacle is smoothed over one cell
        with _named({ValueError: "ldp.n_x: "}):
            event.obstacles(config.obstacle_height, smoothing=cell_width(ctx.domain, config.n_x))
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


def _seed(val, path) -> int:
    val = _integer()(val, path)
    if not 0 <= val < 2 ** 63:  # Philox keys (seed, trajectory id) as 64-bit integers
        raise ConfigError(f"{path}: must lie in [0, 2**63)")
    return val


def run(config_path, subcommand: str, out=None, seed=None, threads=None) -> int:
    cfg = load_config(config_path)
    # every config value is checked, also where its flag overrides it
    cfg_out = _top(cfg, "out_dir", _string, "out")
    cfg_seed = _top(cfg, "seed", _seed, 20240801)
    cfg_threads = _top(cfg, "threads", _integer(least=1), 1)
    out_dir = Path(cfg_out if out is None else out)
    eff_seed = cfg_seed if seed is None else _seed(seed, "--seed")
    eff_threads = cfg_threads if threads is None else _integer(least=1)(threads, "--threads")
    out_dir.mkdir(parents=True, exist_ok=True)
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

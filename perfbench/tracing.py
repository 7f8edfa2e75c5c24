"""Spans and counters around the package's public entry points.

A name imported with ``from .sde import estimate_event_probability`` is a
separate binding in every importing module, so each wrapper is installed in
every module whose pipelines call it (``ldp`` and ``cli`` for the Monte Carlo
estimate, ``rate`` and ``control_stop`` for the reflected ODE solve, ...).
Entry points get one span per call: name, start, end, parent.  Hot functions
called per trajectory, per row or per step get an aggregated counter (calls,
seconds) instead.  Everything stays in memory until the run writes it out.
"""

import inspect
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._undo = []

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, attrs=None):
        """Record one span per call of ``owner.attr``; ``attrs(args, result)``
        adds fields computed from the bound arguments and the result."""
        func = owner.__dict__[attr]
        sig = inspect.signature(func)

        def wrapper(*args, **kwargs):
            rec = {"name": name, "start": time.perf_counter(), "end": None,
                   "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = func(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec.update(attrs(sig.bind(*args, **kwargs).arguments, result))
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr, names):
        """Aggregate calls and seconds of ``owner.attr`` into each counter."""
        func = owner.__dict__[attr]
        cells = [self.counters.setdefault(n, [0, 0.0]) for n in names]

        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t
                for cell in cells:
                    cell[0] += 1
                    cell[1] += dt

        self._patch(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _mc_attrs(args, est):
    return {"traj_steps": args["n_samples"] * args["grid"].n_steps,
            "hits": est.n_hits}


def _rate_attrs(_args, res):
    return {"iterations": res.iterations,
            "segments": int(res.optimizer.values.shape[0]),
            "residual": res.constraint_residual}


def _vi_attrs(_args, grid):
    return {"node_updates": grid.meta["n_t"] * grid.layers.shape[1],
            "cfl_margin": grid.dt / grid.meta["dt_bound"]}


def _check_attrs(_args, report):
    return {"pairs": report.n_samples}


def install(tracer):
    """Wrap every entry point the workloads reach; undo with ``uninstall``."""
    from obliqueldp import cli, control_stop, geometry, ldp, rate, reflect, sde

    for mod in (ldp, cli):
        tracer.span(mod, "estimate_event_probability", "sde.estimate", _mc_attrs)
        tracer.span(mod, "rate_of_event", "rate.solve", _rate_attrs)
        tracer.span(mod, "reduced_value", "control_stop.solve")
        tracer.span(mod, "solve_limit_vi", "hjbvi.solve", _vi_attrs)
        tracer.span(mod, "solve_eps_vi", "hjbvi.solve", _vi_attrs)
    tracer.span(cli, "multi_stop_value", "control_stop.solve")
    tracer.span(cli, "run_lower_bound_experiment", "ldp.experiment")
    tracer.span(cli, "build_testfn", "testfn.build")
    tracer.span(cli, "check_testfn_properties", "testfn.check", _check_attrs)
    tracer.span(geometry, "validate_oblique", "geometry.certify")
    tracer.span(cli, "run", "cli.run")

    tracer.count(sde, "trajectory_noise", ["sde.noise"])
    tracer.count(sde, "simulate_reflected_sde", ["sde.scalar_traj"])
    for mod in (sde, reflect):
        tracer.count(mod, "reflect_step", ["reflect.reflect_step"])
    for mod in (rate, reflect, ldp):
        tracer.count(mod, "solve_reflected_ode", ["reflect.ode"])
    tracer.count(control_stop, "solve_reflected_ode",
                 ["reflect.ode", "control_stop.transitions"])
    for cls in (geometry.Domain, geometry.Interval, geometry.Disk, geometry.Ellipse):
        tracer.count(cls, "signed_distance_many", ["geometry.sd_many"])


def _busy(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _total(spans, name, field):
    return sum(s[field] for s in spans if s["name"] == name)


def _self_time(spans, name):
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return sum(s["end"] - s["start"] - child[i]
               for i, s in enumerate(spans) if s["name"] == name)


def layer_metrics(tracer) -> dict:
    """Per-layer figures of one traced pass; a layer that did no work reads 0."""
    spans = tracer.spans
    counters = tracer.counters

    def calls(name):
        return counters.get(name, [0, 0.0])[0]

    def secs(name):
        return counters.get(name, [0, 0.0])[1]

    sde_busy = _busy(spans, "sde.estimate")
    traj_steps = _total(spans, "sde.estimate", "traj_steps")
    hjb_busy = _busy(spans, "hjbvi.solve")
    node_updates = _total(spans, "hjbvi.solve", "node_updates")
    rate_spans = [s for s in spans if s["name"] == "rate.solve"]
    vi_spans = [s for s in spans if s["name"] == "hjbvi.solve"]
    return {
        "sde.busy_s": sde_busy,
        "sde.traj_steps": traj_steps,
        "sde.steps_per_s": traj_steps / sde_busy if sde_busy else 0.0,
        "sde.noise_s": secs("sde.noise"),
        "sde.noise_share": secs("sde.noise") / sde_busy if sde_busy else 0.0,
        "sde.scalar_traj": calls("sde.scalar_traj"),
        "sde.hits": _total(spans, "sde.estimate", "hits"),
        "reflect.reflect_step_calls": calls("reflect.reflect_step"),
        "reflect.reflect_step_s": secs("reflect.reflect_step"),
        "reflect.ode_solves": calls("reflect.ode"),
        "reflect.ode_s": secs("reflect.ode"),
        "geometry.certify_s": _busy(spans, "geometry.certify"),
        "geometry.sd_many_calls": calls("geometry.sd_many"),
        "geometry.sd_many_s": secs("geometry.sd_many"),
        "rate.busy_s": _busy(spans, "rate.solve"),
        "rate.solves": len(rate_spans),
        "rate.lbfgs_iters": _total(spans, "rate.solve", "iterations"),
        "rate.segments": _total(spans, "rate.solve", "segments"),
        "rate.residual": max((s["residual"] for s in rate_spans), default=0.0),
        "hjbvi.busy_s": hjb_busy,
        "hjbvi.node_updates": node_updates,
        "hjbvi.node_updates_per_s": node_updates / hjb_busy if hjb_busy else 0.0,
        "hjbvi.cfl_margin": min((s["cfl_margin"] for s in vi_spans), default=0.0),
        "control_stop.busy_s": _busy(spans, "control_stop.solve"),
        "control_stop.transitions": calls("control_stop.transitions"),
        "testfn.build_s": _busy(spans, "testfn.build"),
        "testfn.check_s": _busy(spans, "testfn.check"),
        "testfn.pairs": _total(spans, "testfn.check", "pairs"),
        "ldp.self_s": _self_time(spans, "ldp.experiment"),
        "cli.self_s": _self_time(spans, "cli.run"),
    }


# Counts that must repeat exactly between traced passes of one seed.
EXACT_COUNTS = ("sde.traj_steps", "sde.hits", "sde.scalar_traj", "rate.lbfgs_iters",
                "hjbvi.node_updates", "control_stop.transitions",
                "reflect.reflect_step_calls", "reflect.ode_solves",
                "geometry.sd_many_calls", "testfn.pairs")

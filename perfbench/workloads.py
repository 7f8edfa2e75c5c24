"""The benchmark's workloads: which pipelines run on which config, at which size.

Each workload is one JSON config plus the CLI pipelines run on it; why each
was chosen is recorded in BENCHMARK.json.  A preset shrinks the config by
overriding dotted keys:

- ``full``: the sizes the scenarios were designed at (one pass takes from
  20 s to 80 s); the reference values of the headline run live here.
- ``timed``: the sizes the benchmark measures; a pass takes 3 to 9 s on a
  2-core x86 machine, so a 25 s run repeats every pipeline two to six times.
- ``smoke``: a pass in about a second each, for the benchmark's own tests.

``exercises`` names the per-layer metrics that must come out nonzero in a
traced run of the workload; a zero there means a wrapper was bound to the
wrong module's copy of an imported name, or the workload stopped reaching
the layer it was chosen for.
"""

import copy
import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CANONICAL_SEED = 20240801
PRESETS = ("timed", "smoke", "full")

WORKLOADS = {
    "ldp_1d": {
        "config": ROOT / "configs" / "ldp_1d.json",
        "pipelines": ["verify-ldp"],
        "presets": {
            "full": {},
            "timed": {"n_samples": 10000},
            "smoke": {"n_samples": 400, "time.n_steps": 64,
                      "ldp.rate_segments": 8, "ldp.rate_max_segments": 8},
        },
        "exercises": ["sde.traj_steps", "sde.hits", "sde.noise_s", "rate.solves",
                      "rate.lbfgs_iters", "control_stop.transitions",
                      "reflect.ode_solves", "geometry.sd_many_calls"],
    },
    "disk_oblique": {
        "config": HERE / "configs" / "disk_oblique.json",
        "pipelines": ["verify-ldp", "hjb", "testfn-check"],
        "presets": {
            "full": {},
            "timed": {"n_samples": 8000, "time.n_steps": 128, "eps_ladder": [0.35],
                      "ldp.rate_segments": 16, "ldp.rate_max_segments": 32,
                      "hjb.n_x": 31},
            "smoke": {"n_samples": 200, "time.n_steps": 32, "eps_ladder": [0.35],
                      "ldp.rate_segments": 4, "ldp.rate_max_segments": 4,
                      "hjb.n_x": 21, "testfn.n_samples": 256},
        },
        "exercises": ["sde.traj_steps", "sde.hits", "reflect.reflect_step_calls",
                      "rate.solves", "hjbvi.node_updates",
                      "control_stop.transitions", "testfn.pairs",
                      "geometry.certify_s"],
    },
    "ou_1d": {
        "config": HERE / "configs" / "ou_1d.json",
        "pipelines": ["verify-ldp", "hjb", "stopping"],
        "presets": {
            "full": {},
            "timed": {"n_samples": 4000, "time.n_steps": 64, "eps_ladder": [0.5],
                      "ldp.rate_segments": 8, "ldp.rate_max_segments": 8,
                      "hjb.n_x": 51},
            "smoke": {"n_samples": 200, "time.n_steps": 16, "eps_ladder": [0.6],
                      "ldp.rate_segments": 4, "ldp.rate_max_segments": 4,
                      "hjb.n_x": 21},
        },
        "exercises": ["sde.scalar_traj", "sde.hits", "rate.solves",
                      "reflect.ode_solves", "control_stop.transitions",
                      "hjbvi.node_updates"],
    },
    "ellipse_geometry": {
        "config": HERE / "configs" / "ellipse_geometry.json",
        "pipelines": ["testfn-check", "verify-ldp"],
        "presets": {
            "full": {},
            "timed": {"n_samples": 2400, "time.n_steps": 16,
                      "ldp.rate_segments": 2, "ldp.rate_max_segments": 2,
                      "testfn.n_boundary": 12, "testfn.probe_samples": 32,
                      "testfn.n_samples": 64},
            "smoke": {"n_samples": 100, "time.n_steps": 8,
                      "ldp.rate_segments": 2, "ldp.rate_max_segments": 2,
                      "testfn.n_boundary": 12, "testfn.probe_samples": 16,
                      "testfn.n_samples": 32},
        },
        "exercises": ["geometry.sd_many_calls", "testfn.pairs", "testfn.build_s",
                      "reflect.reflect_step_calls", "sde.traj_steps", "rate.solves"],
    },
}


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def effective_config(name: str, preset: str) -> dict:
    """The workload's base config with the preset's overrides applied."""
    spec = WORKLOADS[name]
    cfg = json.loads(Path(spec["config"]).read_text())
    for dotted, value in spec["presets"][preset].items():
        *parents, leaf = dotted.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        node[leaf] = copy.deepcopy(value)
    return cfg


def write_config(name: str, preset: str, work_dir: Path) -> Path:
    """Write the effective config where the pipelines can read it."""
    path = work_dir / f"{name}.{preset}.json"
    path.write_text(json.dumps(effective_config(name, preset), indent=2,
                               sort_keys=True) + "\n")
    return path

"""End-to-end tests of the command line front end on the bundled configs."""

import copy
import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from obliqueldp import cli, control_stop
from obliqueldp.cli import main
from obliqueldp.geometry import Interval
from obliqueldp.hjbvi import load_npz

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EXAMPLE = str(CONFIG_DIR / "example_1d.json")
LDP_SMALL = str(CONFIG_DIR / "ldp_1d_small.json")
# state-dependent drift and dispersion on the interval
OU = str(CONFIG_DIR.parent / "perfbench" / "configs" / "ou_1d.json")
DISK = str(CONFIG_DIR.parent / "perfbench" / "configs" / "disk_oblique.json")


def run_cli(subcommand, config, out, *extra):
    return main([subcommand, "--config", str(config), "--out", str(out), *extra])


@pytest.fixture(scope="module")
def verify_runs(tmp_path_factory):
    """Two identical verify-ldp runs plus one with an overridden seed."""
    base = tmp_path_factory.mktemp("verify")
    dirs = {name: base / name for name in ("first", "second", "reseeded")}
    assert run_cli("verify-ldp", LDP_SMALL, dirs["first"]) == 0
    assert run_cli("verify-ldp", LDP_SMALL, dirs["second"]) == 0
    assert run_cli("verify-ldp", LDP_SMALL, dirs["reseeded"], "--seed", "77") == 0
    return dirs


def test_simulate_writes_path_estimates_and_manifest(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", EXAMPLE, out) == 0
    with open(out / "path.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "dz1", "z_tv", "on_boundary"]
    assert len(rows) == 1 + 64 + 1
    est = json.loads((out / "estimates.json").read_text())["estimates"]
    assert [e["event_id"] for e in est] == ["exit-tube", "stay-tube"]
    for row in est:
        assert set(row) == {"event_id", "eps", "p_hat", "ci", "n"}
        assert row["n"] == 400
        assert 0.0 <= row["p_hat"] <= 1.0
    # the two events partition the sample space up to the strict boundary
    assert est[0]["p_hat"] + est[1]["p_hat"] == 1.0


def test_simulate_flags_the_nodes_on_the_boundary(tmp_path):
    # a drift toward the right end reflects the path there
    cfg = json.loads(Path(EXAMPLE).read_text())
    cfg.update(x0=[0.9], events=[])
    cfg["coefficients"]["drift"]["value"] = [2.0]
    path = tmp_path / "drifting.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("simulate", path, tmp_path / "out") == 0
    table = np.loadtxt(tmp_path / "out" / "path.csv", delimiter=",", skiprows=1)
    x, z_tv, on_boundary = table[:, 1:2], table[:, 3], table[:, 4]
    np.testing.assert_array_equal(
        on_boundary, np.abs(Interval(-1.0, 1.0).signed_distance_many(x)) <= 1e-6)
    grows = np.diff(z_tv) > 0.0
    assert grows.any()
    assert np.all(on_boundary[1:][grows] == 1.0)
    # an untilted oblique_tangent field on the line is the normal field
    cfg["field"] = {"kind": "oblique_tangent", "kappa": 0.0}
    path.write_text(json.dumps(cfg))
    assert run_cli("simulate", path, tmp_path / "tilt0") == 0
    assert ((tmp_path / "tilt0" / "path.csv").read_bytes()
            == (tmp_path / "out" / "path.csv").read_bytes())


def test_rate_for_linear_target(tmp_path):
    out = tmp_path / "rate"
    assert run_cli("rate", EXAMPLE, out) == 0
    payload = json.loads((out / "rate.json").read_text())
    assert not payload["infeasible"]
    assert payload["value"] == pytest.approx(0.125, rel=0.05)
    assert payload["constraint_residual"] <= 1e-3
    with open(out / "control.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "a1"]
    assert len(rows) == 1 + payload["n_segments"]


def test_rate_for_named_event(tmp_path):
    cfg = json.loads(Path(EXAMPLE).read_text())
    cfg["rate"] = {"event": "exit-tube", "n_segments": 16, "max_segments": 32}
    path = tmp_path / "event_rate.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "rate"
    assert run_cli("rate", path, out) == 0
    payload = json.loads((out / "rate.json").read_text())
    assert payload["value"] == pytest.approx(0.125, rel=0.05)


def test_stopping_values_keyed_by_subset(tmp_path):
    out = tmp_path / "stop"
    assert run_cli("stopping", EXAMPLE, out) == 0
    payload = json.loads((out / "stopping.json").read_text())
    # two half-steps at control 0.5 reach the tube edge: action 0.25^2
    assert payload["values_by_subset"] == {"0": 0.0625}
    assert payload["reduced_value"] == 0.0625
    assert payload["reduction_identity_holds"] is True


def test_stopping_computes_each_transition_once(tmp_path, monkeypatch):
    # the subsets and the reduced value share one transition memo
    solves, problems = [], []
    ode, build = control_stop.solve_reflected_ode, cli.DiscreteProblem.build

    def counted_ode(*args):
        solves.append(args)
        return ode(*args)

    def recorded_build(*args, **kwargs):
        problems.append(build(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(control_stop, "solve_reflected_ode", counted_ode)
    monkeypatch.setattr(cli.DiscreteProblem, "build", recorded_build)
    cfg = json.loads(Path(EXAMPLE).read_text())
    two = copy.deepcopy(cfg)
    two["stopping"]["obstacles"].append(
        {"reference": {"kind": "constant", "point": [0.0]}, "radius": 0.4,
         "complement": True})
    for i, body in enumerate((cfg, two)):
        path = tmp_path / f"stop_{i}.json"
        path.write_text(json.dumps(body))
        solves.clear()
        assert run_cli("stopping", path, tmp_path / f"out_{i}") == 0
        assert len(solves) == len(problems[-1]._transition_memo) > 0


def test_hjb_outputs(tmp_path):
    out = tmp_path / "hjb"
    assert run_cli("hjb", EXAMPLE, out) == 0
    assert {p.name for p in out.iterdir()} == {"hjb.json", "value.npz", "manifest.json"}
    payload = json.loads((out / "hjb.json").read_text())
    # staying inside the static tube costs nothing at its center
    assert payload["value_at_start"] <= 1e-9
    assert payload["vi_type"] == "min"
    grid = load_npz(out / "value.npz")
    assert grid.dimension == 1
    assert len(grid.times) == payload["n_stored_layers"]
    assert grid.vi_type == "min_type"


@pytest.mark.parametrize("subcommand", sorted(cli.HANDLERS))
def test_every_pipeline_lists_its_outputs_and_repeats_them(tmp_path, subcommand):
    manifests = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert run_cli(subcommand, EXAMPLE, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {entry["path"] for entry in manifest["outputs"].values()}
        assert listed == {p.name for p in out.iterdir()} - {"manifest.json"}
        for entry in manifest["outputs"].values():
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"], entry["path"]
        assert manifest.pop("timestamp")
        manifests.append(manifest)
    # equal manifests list equal digests, so the two runs wrote the same bytes
    assert manifests[0] == manifests[1]
    assert manifests[0]["subcommand"] == subcommand
    assert manifests[0]["seed"] == 20240801
    assert set(manifests[0]["versions"]) == {"python", "numpy", "scipy", "obliqueldp"}


def test_testfn_check_report(tmp_path):
    out = tmp_path / "tf"
    assert run_cli("testfn-check", EXAMPLE, out) == 0
    payload = json.loads((out / "testfn.json").read_text())
    assert payload["passed"] is True
    assert payload["min_psi_iii"] > 0.0
    for key in ("K_psi_i", "K_psi_ii", "A", "B", "C"):
        assert payload[key] > 0.0


def test_verify_ldp_consistent_verdict(verify_runs):
    report = json.loads((verify_runs["first"] / "report.json").read_text())
    assert report["verdict"] == "consistent"
    assert report["dp_value"] == 0.125
    assert report["lambda_value"] == pytest.approx(0.125375, rel=1e-4)
    with open(verify_runs["first"] / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "log_rate", "ci_lo", "ci_hi", "lambda", "dp_value"]
    assert len(rows) == 1 + 3


def test_verify_ldp_repeat_runs_are_byte_identical(verify_runs):
    first, second = verify_runs["first"], verify_runs["second"]
    for name in ("report.json", "report.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    m1 = json.loads((first / "manifest.json").read_text())
    m2 = json.loads((second / "manifest.json").read_text())
    m1.pop("timestamp")
    m2.pop("timestamp")
    assert m1 == m2


def test_seed_override_changes_the_draws(verify_runs):
    manifest = json.loads((verify_runs["reseeded"] / "manifest.json").read_text())
    assert manifest["seed"] == 77
    base = json.loads((verify_runs["first"] / "report.json").read_text())
    reseeded = json.loads((verify_runs["reseeded"] / "report.json").read_text())
    assert base["log_rates"] != reseeded["log_rates"]
    # the deterministic quantities do not move with the seed
    assert base["lambda_value"] == reseeded["lambda_value"]
    assert base["dp_value"] == reseeded["dp_value"]


def test_verify_ldp_inconclusive_exit_code(tmp_path):
    cfg = json.loads(Path(LDP_SMALL).read_text())
    cfg["ldp"]["radii"] = [0.9]
    cfg["eps_ladder"] = [0.1]
    cfg["n_samples"] = 200
    cfg["time"]["n_steps"] = 64
    path = tmp_path / "far_tube.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("verify-ldp", path, tmp_path / "out") == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdict"] == "inconclusive"


def _with(base, dotted, value) -> dict:
    """The config at ``base`` with ``value`` at the ``dotted`` path: "a.b[0].c"
    walks keys a, b, list index 0, then sets c."""
    cfg = json.loads(Path(base).read_text())
    *head, last = [int(k[1:-1]) if k.startswith("[") else k
                   for k in dotted.replace("[", ".[").split(".")]
    block = cfg
    for key in head:
        block = block[key]
    block[last] = value
    return cfg


def test_config_errors_name_the_field(tmp_path, capsys, monkeypatch):
    cfg = json.loads(Path(LDP_SMALL).read_text())
    cfg["eps_ladder"] = [0.25, 0.35, 0.5]
    path = tmp_path / "bad_ladder.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("verify-ldp", path, tmp_path / "out") == 1
    assert "config.eps_ladder: must be strictly decreasing" in capsys.readouterr().err

    cfg = json.loads(Path(EXAMPLE).read_text())
    cfg["coefficients"]["drift"]["name"] = "cubic"
    path = tmp_path / "bad_drift.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("simulate", path, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "coefficients.drift.name" in err and "cubic" in err

    for key, value in (("n_x", "abc"), ("dp_n_steps", 2.5), ("rate_max_segments", 4)):
        cfg = json.loads(Path(LDP_SMALL).read_text())
        cfg["ldp"].update({"rate_segments": 8, key: value})
        path = tmp_path / f"bad_{key}.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("verify-ldp", path, tmp_path / "out") == 1
        assert f"ldp.{key}" in capsys.readouterr().err

    # each case replaces the value at a dotted path; the message names it
    for i, (subcommand, base, dotted, value, *named) in enumerate((
            ("simulate", EXAMPLE, "time.t_end", float("nan")),
            ("simulate", EXAMPLE, "time.t_end", 10 ** 400),
            ("simulate", EXAMPLE, "x0", [float("nan")]),
            ("simulate", EXAMPLE, "x0", [0.0, 0.0]),
            ("simulate", EXAMPLE, "x0", [3.0]),
            ("verify-ldp", LDP_SMALL, "eps_ladder", [0.5, 0.0]),
            ("verify-ldp", LDP_SMALL, "eps_ladder", []),
            ("simulate", EXAMPLE, "domain", {"kind": "disk", "radius": -1}),
            ("simulate", EXAMPLE, "domain", {"kind": "interval", "lo": 1.0, "hi": -1.0}),
            ("verify-ldp", LDP_SMALL, "ldp.radii", [-0.5]),
            ("verify-ldp", LDP_SMALL, "ldp.radii", ["x"]),
            ("verify-ldp", LDP_SMALL, "ldp.dp_controls", ["a"]),
            ("hjb", EXAMPLE, "hjb.store_every", 0),
            ("hjb", EXAMPLE, "hjb.n_x", 1),
            ("hjb", EXAMPLE, "hjb.eps", -0.1),
            ("hjb", EXAMPLE, "hjb.obstacle.radius", -0.5),
            ("hjb", EXAMPLE, "hjb.obstacle.smoothing", "abc"),
            ("stopping", EXAMPLE, "stopping.obstacles[0].radius", -0.25),
            ("stopping", EXAMPLE, "stopping.n_steps", 0),
            ("stopping", EXAMPLE, "stopping.substeps", 0),
            ("stopping", EXAMPLE, "stopping.controls", []),
            ("testfn-check", EXAMPLE, "testfn.eps", 2.0),
            ("testfn-check", EXAMPLE, "testfn.n_boundary", 0),
            ("rate", EXAMPLE, "rate.n_segments", 0),
            ("simulate", EXAMPLE, "eps", -0.5),
            ("simulate", EXAMPLE, "n_samples", 10),
            ("stopping", EXAMPLE, "stopping.obstacles[0].reference.point", [0.0, 0.0]),
            ("hjb", EXAMPLE, "hjb.obstacle.reference.point", [0.0, 1.0]),
            ("simulate", EXAMPLE, "events[0].references[0].point", [0.0, 0.0]),
            ("rate", EXAMPLE, "rate.target.end", [0.5, 0.1]),
            ("rate", EXAMPLE, "rate.target", {"kind": "polyline", "times": [0.0, 1.0],
                                              "points": [[0.0], [0.5, 0.1]]}),
            ("stopping", EXAMPLE, "stopping.controls[0]", ["a"]),
            ("stopping", EXAMPLE, "stopping.controls[0]", [1.0, 2.0]),
            ("rate", EXAMPLE, "rate.max_segments", 0),
            ("rate", EXAMPLE, "rate.max_segments", -4),
            ("stopping", EXAMPLE, "stopping.budget", 0),
            ("stopping", EXAMPLE, "stopping.budget", -5),
            ("hjb", EXAMPLE, "coefficients.drift.value", [0.0, 1.0]),
            ("hjb", EXAMPLE, "coefficients.dispersion.value", [[1.0, "x"]]),
            ("hjb", OU, "coefficients.drift.offset", [0.2, 0.1]),
            ("hjb", OU, "coefficients.drift.matrix", [[1.0, 2.0]]),
            ("hjb", OU, "coefficients.drift.matrix", [[float("nan")]]),
            ("hjb", OU, "coefficients.dispersion.base", [[1.0], [0.0]]),
            ("hjb", OU, "coefficients.dispersion.base", [["a"]]),
            ("hjb", OU, "coefficients.dispersion.slopes", [[[0.3, 0.1]]]),
            ("hjb", OU, "coefficients.dispersion.slopes", [[[0.3]], [[0.1]]]),
            ("simulate", DISK, "domain.center", [0.0, 0.0, 0.0]),
            ("simulate", DISK, "domain.center", "ab"),
            ("simulate", DISK, "domain.center", [float("nan"), 0.0]),
            # no constant field is oblique on a closed boundary
            ("simulate", EXAMPLE, "field.kind", "constant"),
            ("stopping", EXAMPLE, "stopping.obstacles", 3),
            ("simulate", EXAMPLE, "events", 3),
            ("simulate", EXAMPLE, "events[0].references", 3),
            ("verify-ldp", LDP_SMALL, "ldp.references", 3),
            ("hjb", EXAMPLE, "hjb.obstacle", 3),
            ("stopping", EXAMPLE, "stopping.obstacles[0].complement", "no"),
            ("hjb", EXAMPLE, "hjb.obstacle.complement", "no"),
            # rate_segments defaults to 64
            ("verify-ldp", LDP_SMALL, "ldp.rate_max_segments", 4),
            # a value the domain rejects: the message names the enclosing block
            ("simulate", EXAMPLE, "events[1].references[0].point", [2.0],
             "events[1].references[0]: reference path leaves"),
            ("verify-ldp", LDP_SMALL, "ldp.references[0].point", [-1.5],
             "ldp.references[0]: reference path leaves"),
            ("simulate", EXAMPLE, "field", {"kind": "oblique_tangent", "kappa": 0.5},
             "config error: field: tangential tilt"),
            ("simulate", DISK, "field", {"kind": "oblique_tangent", "kappa": 1e300},
             "config error: field: oblique condition fails"),
            # the upper bound runs on one tube; checked before the lower bound runs
            ("verify-ldp", LDP_SMALL, "ldp", {"bound": "both", "radii": [0.5, 0.5],
                                              "references": [{"kind": "constant",
                                                              "point": [0.0]}] * 2},
             "config error: ldp.references: the upper bound takes exactly one tube"),
            # a block's radii pair up with its references
            ("simulate", EXAMPLE, "events[0].radii", [0.5, 0.5],
             "config error: events[0]: need one radius per reference"),
            ("verify-ldp", LDP_SMALL, "ldp.radii", [0.5, 0.5],
             "config error: ldp: need one radius per reference"),
            # an obstacle's smoothing ramp may not reach the reference
            ("hjb", EXAMPLE, "hjb.obstacle", {"reference": {"kind": "constant", "point": [0.0]},
                                              "radius": 0.1, "smoothing": 0.5},
             "config error: hjb.obstacle.smoothing: "),
            ("verify-ldp", LDP_SMALL, "ldp", {"bound": "upper", "n_x": 3, "radii": [0.5],
                                              "references": [{"kind": "constant",
                                                              "point": [0.0]}]},
             "config error: ldp.n_x: "),
            ("stopping", EXAMPLE, "stopping.n_steps", 30, "config error: stopping.budget: "),
            # the Philox key holds the seed as a 64-bit integer
            ("simulate", EXAMPLE, "seed", -5, "config error: config.seed: "),
            ("simulate", EXAMPLE, "seed", 2 ** 63, "config error: config.seed: "),
            ("simulate", EXAMPLE, "seed", 2 ** 64, "config error: config.seed: "),
            ("simulate", EXAMPLE, "events[1].id", "exit-tube",
             "config error: events[1].id: duplicate id 'exit-tube'"),
            # an event or a tube experiment needs at least one reference
            ("simulate", EXAMPLE, "events[0]", {"kind": "intersection_of_complements",
                                                "references": [], "radii": []},
             "config error: events[0].references: "),
            ("verify-ldp", LDP_SMALL, "ldp", {"references": [], "radii": []},
             "config error: ldp.references: "),
            # checked before the Monte Carlo ladder and the rate solve run
            ("verify-ldp", LDP_SMALL, "ldp.dp_controls", [],
             "config error: ldp.dp_controls: "),
            # a cap at or below zero would be the lower experiment's third answer
            ("verify-ldp", LDP_SMALL, "ldp.obstacle_height", -1.0,
             "config error: ldp.obstacle_height: must be positive"),
            ("verify-ldp", LDP_SMALL, "ldp.obstacle_height", 0.0,
             "config error: ldp.obstacle_height: must be positive"),
            ("simulate", EXAMPLE, "threads", 0,
             "config error: config.threads: must be at least 1"),
            # the rate solve reads a target or an event, never both
            ("rate", EXAMPLE, "rate.event", "exit-tube", "config error: rate.event: "))):
        cfg = _with(base, dotted, value)
        path, out = tmp_path / f"bad_{i}.json", tmp_path / f"out_{i}"
        path.write_text(json.dumps(cfg))
        assert run_cli(subcommand, path, out) == 1, dotted
        assert (named or [dotted])[0] in capsys.readouterr().err, dotted
        # the config is checked before any output is written
        assert not out.exists() or not any(out.iterdir()), dotted

    for flag, value in (("--seed", "-1"), ("--threads", "0")):
        out = tmp_path / f"out{flag}"
        assert run_cli("simulate", EXAMPLE, out, flag, value) == 1
        assert f"config error: {flag}: " in capsys.readouterr().err
        assert not out.exists()

    # a config value is checked also where a flag overrides it, before the
    # output directory is made
    for key, value in (("out_dir", 5), ("seed", -3), ("threads", "x")):
        path, out = tmp_path / f"overridden_{key}.json", tmp_path / f"out_overridden_{key}"
        path.write_text(json.dumps(_with(EXAMPLE, key, value)))
        assert run_cli("simulate", path, out, "--seed", "1", "--threads", "1") == 1
        assert f"config error: config.{key}: " in capsys.readouterr().err
        assert not out.exists()

    # testfn.n_samples is read with the other testfn fields, before the build
    def no_build(*args, **kwargs):
        raise AssertionError("build_testfn ran before the config was checked")

    monkeypatch.setattr(cli, "build_testfn", no_build)
    cfg = json.loads(Path(EXAMPLE).read_text())
    cfg["testfn"]["n_samples"] = 0
    path, out = tmp_path / "bad_testfn_samples.json", tmp_path / "out_testfn_samples"
    path.write_text(json.dumps(cfg))
    assert run_cli("testfn-check", path, out) == 1
    assert ("config error: testfn.n_samples: must be at least 1"
            in capsys.readouterr().err)
    assert not any(out.iterdir())

    # an event without an id is event-{i}, which another id may repeat
    cfg = json.loads(Path(EXAMPLE).read_text())
    cfg["events"][0]["id"] = "event-1"
    del cfg["events"][1]["id"]
    path, out = tmp_path / "default_id.json", tmp_path / "out_default_id"
    path.write_text(json.dumps(cfg))
    assert run_cli("simulate", path, out) == 1
    assert "config error: events[1].id: duplicate id 'event-1'" in capsys.readouterr().err
    assert not any(out.iterdir())

    # out_dir is checked before any directory is made
    path, cwd = tmp_path / "bad_out_dir.json", tmp_path / "cwd"
    path.write_text(json.dumps(_with(EXAMPLE, "out_dir", 5)))
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["simulate", "--config", str(path)]) == 1
    assert "config error: config.out_dir: expected a string" in capsys.readouterr().err
    assert not any(cwd.iterdir())

    for shift in ([0.1, 0.2], [float("inf")]):
        cfg = json.loads(Path(OU).read_text())
        cfg["coefficients"]["perturbation"] = {"drift_shift": shift}
        path = tmp_path / "bad_shift.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("hjb", path, tmp_path / "out") == 1
        assert "coefficients.perturbation.drift_shift" in capsys.readouterr().err

    # a polyline runs over the run's horizon, time.t0 to time.t_end
    for times in (["a", "b"], [0.0, 0.5, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 5.0], [0.5, 1.0]):
        cfg = json.loads(Path(EXAMPLE).read_text())
        cfg["rate"]["target"] = {"kind": "polyline", "times": times,
                                 "points": [[0.0], [0.5]]}
        path = tmp_path / "bad_times.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("rate", path, tmp_path / "out") == 1
        assert "rate.target.times" in capsys.readouterr().err


# each case adds one misspelt or misplaced key to a config that runs
UNKNOWN_FIELDS = [
    ("simulate", EXAMPLE, "eps_ladders", [0.5], "config.eps_ladders"),
    ("verify-ldp", LDP_SMALL, "ldp.bonud", "upper", "ldp.bonud"),
    ("hjb", EXAMPLE, "hjb.obstacle.complment", False, "hjb.obstacle.complment"),
    ("hjb", DISK, "domain.centre", [0.5, 0.0], "domain.centre"),
    ("simulate", EXAMPLE, "events[0].references[0].pont", [0.5],
     "events[0].references[0].pont"),
    # retired settings: the solver works each one out or uses one value
    ("hjb", EXAMPLE, "hjb.dv_est", 35.0, "hjb.dv_est"),
    ("stopping", EXAMPLE, "stopping.obstacle_bound", 10.0, "stopping.obstacle_bound"),
    ("rate", EXAMPLE, "rate.substeps", 4, "rate.substeps"),
    # an hjb obstacle is a tube: a bare height is no constant obstacle
    ("hjb", EXAMPLE, "hjb.obstacle", {"height": 1.0}, "hjb.obstacle.reference",
     "missing required field"),
]


@pytest.mark.parametrize("subcommand, base, dotted, value, named, complaint",
                         [(*case, "unknown field")[:6] for case in UNKNOWN_FIELDS],
                         ids=[case[4] for case in UNKNOWN_FIELDS])
def test_unknown_fields_fail_by_name(tmp_path, capsys, subcommand, base, dotted, value, named,
                                     complaint):
    path, out = tmp_path / "unknown.json", tmp_path / "out"
    path.write_text(json.dumps(_with(base, dotted, value)))
    assert run_cli(subcommand, path, out) == 1
    assert f"config error: {named}: {complaint}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_testfn_check_builds_from_one_boundary_point(tmp_path):
    cfg = json.loads(Path(EXAMPLE).read_text())
    cfg["testfn"]["n_boundary"] = 1
    path = tmp_path / "one_point.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("testfn-check", path, tmp_path / "out") == 0
    assert json.loads((tmp_path / "out" / "testfn.json").read_text())["passed"] is True


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"domain": [,]}')
    assert run_cli("simulate", path, tmp_path / "out") == 1
    assert "line 1" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run_cli("simulate", tmp_path / "nope.json", tmp_path / "out") == 1
    assert "not found" in capsys.readouterr().err

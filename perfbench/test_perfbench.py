"""Tests of the benchmark itself on its smoke preset (about two minutes).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compare import verdict  # noqa: E402
from workloads import CANONICAL_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Smoke runs: untraced at the recorded and at a fresh seed, traced twice."""
    base = tmp_path_factory.mktemp("results")
    out = {}
    for name in WORKLOADS:
        for key, seed, trace, where in (("plain", CANONICAL_SEED, 0, "a"),
                                        ("fresh", 7, 0, "b"),
                                        ("traced", CANONICAL_SEED, 1, "a"),
                                        ("traced_again", CANONICAL_SEED, 1, "b")):
            out[name, key] = bench("--workload", name, "--preset", "smoke",
                                   "--seed", str(seed), "--seconds", "1",
                                   "--trace", str(trace), "--results", str(base / where))
    out["dirs"] = (base / "a", base / "b")
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("key", ["plain", "fresh"])
def test_untraced_run_reports_every_end_to_end_metric(results, name, key):
    proc, res = results[name, key]
    assert proc.returncode == 0, proc.stderr
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_report_every_layer_and_repeat_their_counts(results, name):
    runs = [results[name, k] for k in ("traced", "traced_again")]
    for proc, res in runs:
        assert proc.returncode == 0, proc.stderr
        assert res["correct"]
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    first, second = (res["metrics"] for _, res in runs)
    for count in ("sde.traj_steps", "sde.hits", "rate.lbfgs_iters", "hjbvi.node_updates",
                  "control_stop.transitions", "reflect.reflect_step_calls",
                  "testfn.pairs"):
        assert first[count]["value"] == second[count]["value"], count
    for metric in WORKLOADS[name]["exercises"]:
        assert first[metric]["value"] > 0, metric


def test_compare_reads_both_result_sets(results):
    a, b = results["dirs"]
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for name in WORKLOADS:
        rows = [line for line in proc.stdout.splitlines() if line.startswith(name)]
        verdicts = [r for r in rows if r.split()[1] in {m["name"] for m in SPEC["end_to_end"]}]
        assert len(verdicts) == len(SPEC["end_to_end"])


def test_verdict_rules():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert verdict(parent, faster, list(zip(parent, faster)), 0.1, True)[0] == "improved"
    assert verdict(parent, slower, list(zip(parent, slower)), 0.1, True)[0] == "worse"
    assert verdict(parent, parent, list(zip(parent, parent)), 0.1, True)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, noisy, list(zip(noisy, noisy)), 0.1, True)[0] == "unresolved"


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "ldp_1d", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

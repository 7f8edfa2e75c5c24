"""Output checks: what each pipeline wrote, against invariants and references.

``summarize`` reads the reports a pipeline wrote into one small dict.  Values
that do not depend on the Monte Carlo seed (lambda, the DP and HJB values,
the test-function constants, the stopping values) are compared with the
references recorded in ``references.json`` for every seed.  Hit counts and
verdicts are compared exactly when the seed is the recorded one; for any
other seed only the invariants hold them.
"""

import hashlib
import json
import math
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# lambda may be re-pinned toward its closed-form value by solver changes, so
# it gets the tolerance the package's own tests give it.
LAMBDA_REL_TOL = 1e-3
VALUE_REL_TOL = 1e-4


def _read(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def summarize(pipeline: str, out_dir: Path) -> dict:
    """Seed-free values under "fixed", seed-dependent ones under "seeded"."""
    if pipeline == "verify-ldp":
        rep = _read(out_dir, "report.json")
        ests = rep["details"]["estimates"]
        return {"fixed": {"lambda_value": rep["lambda_value"],
                          "dp_value": rep["dp_value"]},
                "seeded": {"verdict": rep["verdict"],
                           "hits": [e["n_hits"] for e in ests]},
                "n_samples": [e["n_samples"] for e in ests]}
    if pipeline == "hjb":
        rep = _read(out_dir, "hjb.json")
        return {"fixed": {"value_at_start": rep["value_at_start"]}, "seeded": {}}
    if pipeline == "testfn-check":
        rep = _read(out_dir, "testfn.json")
        keys = ("min_psi_iii", "K_psi_i", "K_psi_ii", "A", "B", "C", "n_samples",
                "passed")
        return {"fixed": {k: rep[k] for k in keys}, "seeded": {}}
    if pipeline == "stopping":
        rep = _read(out_dir, "stopping.json")
        return {"fixed": {"reduced_value": rep["reduced_value"],
                          "values_by_subset": rep["values_by_subset"],
                          "reduction_identity_holds": rep["reduction_identity_holds"]},
                "seeded": {}}
    raise ValueError(f"no summary for pipeline {pipeline}")


def invariants(pipeline: str, summary: dict, cfg: dict) -> list:
    """Properties every seed must satisfy; returns the violated ones."""
    bad = []
    fixed, seeded = summary["fixed"], summary["seeded"]
    if pipeline == "verify-ldp":
        if summary["n_samples"] != [cfg["n_samples"]] * len(cfg["eps_ladder"]):
            bad.append(f"sample counts {summary['n_samples']} do not match the config")
        if any(not 0 < h <= cfg["n_samples"] for h in seeded["hits"]):
            bad.append(f"hits {seeded['hits']} outside (0, n_samples]")
        if seeded["verdict"] not in ("consistent", "inconsistent"):
            bad.append(f"verdict {seeded['verdict']}")
        for key in ("lambda_value", "dp_value"):
            if not _finite(fixed[key]):
                bad.append(f"{key} = {fixed[key]} is not finite")
    elif pipeline == "hjb":
        if not _finite(fixed["value_at_start"]):
            bad.append(f"value_at_start = {fixed['value_at_start']} is not finite")
    elif pipeline == "testfn-check":
        if not fixed["passed"] or not fixed["min_psi_iii"] > 0.0:
            bad.append(f"boundary product min_psi_iii = {fixed['min_psi_iii']}")
        if not (_finite(fixed["K_psi_i"]) and _finite(fixed["K_psi_ii"])):
            bad.append("gradient constants are not finite")
    elif pipeline == "stopping":
        if fixed["reduction_identity_holds"] is not True:
            bad.append("multi-stop value differs from the reduced value")
    return bad


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _close(key, got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        tol = LAMBDA_REL_TOL if key == "lambda_value" else VALUE_REL_TOL
        return math.isclose(got, want, rel_tol=tol, abs_tol=1e-12)
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return all(_close(k, got[k], want[k]) for k in want)
    return got == want


def against_reference(summary: dict, ref: dict, same_seed: bool) -> list:
    """Differences from the recorded reference of this pipeline."""
    bad = []
    groups = ("fixed", "seeded") if same_seed else ("fixed",)
    for group in groups:
        for key, want in ref[group].items():
            got = summary[group].get(key)
            if not _close(key, got, want):
                bad.append(f"{key} = {got}, reference {want}")
    return bad


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def output_digest(out_dir: Path) -> dict:
    """sha256 of every file a pipeline wrote, the manifest without its timestamp."""
    digest = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("timestamp")
            data = json.dumps(manifest, sort_keys=True).encode()
        digest[path.name] = hashlib.sha256(data).hexdigest()
    return digest

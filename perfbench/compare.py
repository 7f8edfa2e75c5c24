"""Compare two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py RESULTS_A RESULTS_B

A is the parent, B the change.  Each directory holds the result files that
``run.py --results DIR`` wrote.  For every workload and end-to-end metric the
table gives both medians and quartiles, the share of pairs B wins (runs are
paired by seed, ties count for neither side), and a verdict under the bounds
in BENCHMARK.json:

- improved: B wins at least 9 of 10 pairs and the medians differ by more
  than the distance between A's quartiles;
- unresolved: A's own spread is wider than the bound and B does not read
  better than A on every run;
- worse: B's median is worse than A's by more than the bound;
- unchanged: otherwise.

Per-layer medians from traced runs follow, with the ratio B/A.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> dict:
    """{(workload, trace): [(seed, metrics), ...]} from one result set."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        metrics = {k: m["value"] for k, m in rec["result"]["metrics"].items()}
        runs.setdefault((rec["workload"], rec["trace"]), []).append((rec["seed"], metrics))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(a_runs, b_runs, name):
    """Values of one metric paired by seed, else in file order."""
    b_by_seed = {seed: m for seed, m in b_runs}
    if all(seed in b_by_seed for seed, _ in a_runs):
        return [(m[name], b_by_seed[seed][name]) for seed, m in a_runs]
    return [(a[name], b[name]) for (_, a), (_, b) in zip(a_runs, b_runs)]


def verdict(a, b, paired, bound, lower_better):
    sign = 1.0 if lower_better else -1.0
    q1a, meda, q3a = quartiles(a)
    _, medb, _ = quartiles(b)
    wins = sum(sign * (vb - va) < 0 for va, vb in paired)
    share = wins / len(paired) if paired else 0.0
    if share >= 0.9 and sign * (medb - meda) < 0 and abs(medb - meda) > q3a - q1a:
        return "improved", share
    every_run_better = all(sign * (vb - va) < 0 for va in a for vb in b)
    if meda and (q3a - q1a) / abs(meda) > bound and not every_run_better:
        return "unresolved", share
    if sign * (medb - meda) > bound * abs(meda):
        return "worse", share
    return "unchanged", share


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(argv[0]), load(argv[1])
    print(f"{'workload':18s} {'metric':14s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B wins':>7s}  verdict")
    for w in spec["workloads"]:
        a_runs, b_runs = a.get((w["name"], 0), []), b.get((w["name"], 0), [])
        if not a_runs or not b_runs:
            print(f"{w['name']:18s} (no untraced runs in both sets)")
            continue
        for m in spec["end_to_end"]:
            va = [r[m["name"]] for _, r in a_runs]
            vb = [r[m["name"]] for _, r in b_runs]
            paired = pairs(a_runs, b_runs, m["name"])
            label, share = verdict(va, vb, paired, m["bound"], m["better"] == "lower")
            fa, fb = (f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
                      for q in (quartiles(va), quartiles(vb)))
            print(f"{w['name']:18s} {m['name']:14s} {fa:>34s} {fb:>34s} "
                  f"{share:6.0%}  {label} (bound {m['bound']:.0%}, "
                  f"{len(va)} vs {len(vb)} runs)")
    print()
    print("per-layer medians from traced runs (B/A)")
    for w in spec["workloads"]:
        a_runs, b_runs = a.get((w["name"], 1), []), b.get((w["name"], 1), [])
        if not a_runs or not b_runs:
            continue
        for m in spec["per_layer"]:
            ma = statistics.median(r[m["name"]] for _, r in a_runs)
            mb = statistics.median(r[m["name"]] for _, r in b_runs)
            ratio = f"{mb / ma:8.3f}" if ma else "       -"
            print(f"{w['name']:18s} {m['name']:28s} {ma:14.6g} {mb:14.6g} {ratio} "
                  f"{m['unit']} ({m['better']} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

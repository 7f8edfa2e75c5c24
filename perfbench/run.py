"""Benchmark of the obliqueldp command-line pipelines.

Run one workload (the last line of standard output is the result object):

    python3 perfbench/run.py --workload ldp_1d --seed 1 --seconds 25 --trace 0

Run every workload, each in a fresh interpreter, and print a table:

    python3 perfbench/run.py --workload all

Compare two result sets (directories given with --results):

    python3 perfbench/compare.py RESULTS_A RESULTS_B

The workload's pipelines run in this process through ``obliqueldp.cli.run``
with one Monte Carlo thread, pass after pass, until the next pass would end
after ``--seconds``, and at least three times, so that repeated reports can
be compared byte for byte and a median can drop a disturbed pass.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics.  Set-up time is measured in separate fresh interpreters.
Times are scaled to a reference host speed (see ``HostSpeed``).  Each run also
writes a result file with every pass, the raw seconds and the environment.
"""

import os

# One thread everywhere: all load comes from this process and its one
# Monte Carlo worker, so BLAS pools must not add threads of their own.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import (CANONICAL_SEED, PRESETS, ROOT, WORKLOADS,  # noqa: E402
                       sha256_file, write_config)

SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_PASSES = 3  # the median of three passes drops one disturbed by a neighbour
PRECISION = 0.10  # relative 95% half-width the time-to-solution targets
# Seconds the calibration loop takes on the reference host, a 2-core x86
# machine with busy neighbours; reported times are seconds at that speed.
REFERENCE_LOOP_S = 0.022

_SETUP_PROBE = (
    "import sys\n"
    "from pathlib import Path\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import obliqueldp\n"
    "from obliqueldp.cli import RunContext, load_config\n"
    "RunContext(load_config(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4]), 1)\n"
    "import time\n"
    "print(repr(time.time()))\n")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    if not (SRC / "obliqueldp" / "__init__.py").is_file():
        raise BenchError(f"no obliqueldp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import obliqueldp
    if Path(obliqueldp.__file__).resolve().parent != (SRC / "obliqueldp").resolve():
        raise BenchError(f"imported obliqueldp from {obliqueldp.__file__}, not {SRC}")
    from obliqueldp import cli
    return cli


def measure_setup(cfg_path: Path, work: Path, seed: int) -> float:
    """Seconds from starting an interpreter until its RunContext is built;
    the probe prints the wall-clock time at that point and then exits."""
    start = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(cfg_path), str(work),
             str(seed)], capture_output=True, text=True, timeout=120)
        return float(proc.stdout) - start
    except (subprocess.TimeoutExpired, ValueError) as exc:
        raise BenchError(f"set-up probe failed: {exc!r}") from exc


def calibration_loop() -> tuple:
    """Median of three timings of a fixed mix of Philox set-up and draws, array
    passes and interpreter work (nothing in it comes from the package), and
    the seconds all three took."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        rows = [numpy.random.Generator(numpy.random.Philox(key=[1, i])).standard_normal(1024)
                for i in range(512)]
        block = numpy.cumsum(numpy.stack(rows), axis=1)
        numpy.maximum(block, 0.0, out=block)
        acc = 0.0
        for i in range(50000):
            acc += i * 0.5
        times.append(time.perf_counter() - start)
    return statistics.median(times), sum(times)


class HostSpeed:
    """Scales measured intervals to the reference host speed.

    On cores shared with other tenants the same pass takes up to 1.8 times as
    long while the neighbours are busy, in phases of seconds to minutes.  The
    calibration loop runs before and after every measured interval, and the
    interval counts as its seconds times REFERENCE_LOOP_S over the mean of
    the two loop times.  A program change cannot move the loop, so it cannot
    hide in the factor.
    """

    def __init__(self):
        self.last, _ = calibration_loop()
        self.spent = 0.0

    def scale(self) -> float:
        """Factor for the interval that ended just now."""
        now, _ = calibration_loop()
        factor = REFERENCE_LOOP_S / (0.5 * (self.last + now))
        self.last = now
        return factor

    def bracket(self, func, *args, **kwargs):
        """Run ``func`` between two loops: (result, seconds, factor).  The
        loops' own time adds to ``spent``, for the enclosing interval to drop."""
        before, t_before = calibration_loop()
        start = time.perf_counter()
        result = func(*args, **kwargs)
        seconds = time.perf_counter() - start
        after, t_after = calibration_loop()
        self.spent += t_before + t_after
        return result, seconds, REFERENCE_LOOP_S / (0.5 * (before + after))


class McTimer:
    """Times every Monte Carlo estimate; the only probe in untraced passes.

    In untraced passes each estimate is bracketed by its own calibration
    loops; in traced passes the loops would land inside the layer spans, so
    the estimate takes the factor of its pipeline."""

    def __init__(self, cli, host):
        from obliqueldp import ldp
        self.host = host
        self.bracketed = True
        self.calls = []
        for mod in (ldp, cli):
            func = mod.estimate_event_probability
            setattr(mod, "estimate_event_probability", self._wrap(func))

    def _wrap(self, func):
        @functools.wraps(func)
        def timed(domain, field, coeffs, eps, *args, **kwargs):
            if self.bracketed:
                est, seconds, scale = self.host.bracket(func, domain, field, coeffs, eps,
                                                        *args, **kwargs)
            else:
                start = time.perf_counter()
                est = func(domain, field, coeffs, eps, *args, **kwargs)
                seconds, scale = time.perf_counter() - start, None
            self.calls.append({"eps": eps.eps, "seconds": seconds, "scale": scale,
                               "p_hat": est.p_hat, "ci_half_width": est.ci_half_width})
            return est
        return timed

    def tts(self):
        """Projected seconds to a 10% relative half-width at the smallest eps."""
        call = min(self.calls, key=lambda c: c["eps"])
        if call["p_hat"] <= 0.0:
            raise ValueError(f"no hits at eps={call['eps']}")
        return (call["seconds"] * call["scale"]
                * (call["ci_half_width"] / call["p_hat"] / PRECISION) ** 2)


class Workload:
    def __init__(self, cli, host, name, preset, seed, work, record=False):
        self.cli = cli
        self.host = host
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.cfg_path = write_config(name, preset, work)
        self.cfg = json.loads(self.cfg_path.read_text())
        self.ref = None if record else checks.load_references().get(preset, {}).get(name)
        self.same_seed = self.ref is not None and self.ref["seed"] == seed
        self.first_digest = {}
        self.summaries = {}
        self.mc = McTimer(cli, host)

    def run_pass(self, traced: bool) -> dict:
        tracer = tracing.Tracer() if traced else None
        if traced:
            tracing.install(tracer)
        self.mc.calls.clear()
        self.mc.bracketed = not traced
        start = time.perf_counter()
        rec = {"traced": traced, "pipelines": {}, "failures": []}
        try:
            for sub in self.spec["pipelines"]:
                rec["pipelines"][sub] = self._run_scaled(sub, rec["failures"])
        finally:
            if traced:
                tracer.uninstall()
        rec["elapsed_s"] = time.perf_counter() - start
        rec["wall_s"] = sum(p["scaled_s"] for p in rec["pipelines"].values())
        rec["mc_calls"] = list(self.mc.calls)
        try:
            rec["tts10_s"] = self.mc.tts()
        except ValueError as exc:
            rec["failures"].append(f"tts10: {exc}")
        if traced:
            rec["layers"] = tracing.layer_metrics(tracer)
            tracer.dump(self.work / "trace.json")
        return rec

    def _run_scaled(self, sub: str, failures: list) -> dict:
        """One pipeline call; its estimates count at their own factor, the
        rest at the pipeline's, and bracketing loops inside it not at all."""
        n_calls = len(self.mc.calls)
        self.host.spent = 0.0
        pipe = self._run_pipeline(sub, failures)
        pipe["scale"] = self.host.scale()
        pipe["calibration_s"] = self.host.spent
        calls = self.mc.calls[n_calls:]
        for call in calls:
            if call["scale"] is None:
                call["scale"] = pipe["scale"]
        rest = pipe["seconds"] - pipe["calibration_s"] - sum(c["seconds"] for c in calls)
        pipe["scaled_s"] = rest * pipe["scale"] + sum(c["seconds"] * c["scale"] for c in calls)
        return pipe

    def _run_pipeline(self, sub: str, failures: list) -> dict:
        out = self.work / sub
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        try:
            code = self.cli.run(str(self.cfg_path), sub, out=str(out), seed=self.seed,
                                threads=1)
        except Exception:  # noqa: BLE001 - a failed pipeline is counted, not fatal
            code = None
            failures.append(f"{sub}: {traceback.format_exc(limit=3)}")
        seconds = time.perf_counter() - start
        bad = [] if code == 0 else [f"exit code {code}"]
        if code is not None:
            bad += self._check(sub, out)
        failures.extend(f"{sub}: {b}" for b in bad)
        return {"seconds": seconds, "ok": not bad and code is not None}

    def _check(self, sub: str, out: Path) -> list:
        try:
            summary = checks.summarize(sub, out)
            digest = checks.output_digest(out)
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable output: {exc!r}"]
        bad = checks.invariants(sub, summary, self.cfg)
        if self.ref is not None:
            if sub in self.ref["pipelines"]:
                bad += checks.against_reference(summary, self.ref["pipelines"][sub],
                                                self.same_seed)
            else:
                bad.append("no recorded reference")
        first = self.first_digest.setdefault(sub, digest)
        if digest != first:
            changed = sorted(k for k in set(first) | set(digest)
                             if first.get(k) != digest.get(k))
            bad.append(f"outputs differ from the first pass: {changed}")
        self.summaries.setdefault(sub, summary)
        return bad


def run_one(args) -> dict:
    cli = import_package()
    work = OUT / "work" / f"{args.workload}-{args.preset}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = HostSpeed()
    wl = Workload(cli, host, args.workload, args.preset, args.seed, work, args.record)
    setups = []
    for _ in range(0 if args.trace else SETUP_REPEATS):
        seconds = measure_setup(wl.cfg_path, work, args.seed)
        setups.append({"seconds": seconds, "scale": host.scale()})

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(wl.run_pass(traced))
        longest = max(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + longest > args.seconds:
            break

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["pipelines"]) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p["pipelines"].values())
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {k: statistics.median_low(p["layers"][k] for p in traced)
                   for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in plain))
        failures += trace_failures(args.workload, traced)
    else:
        metrics = {"wall_s": statistics.median(p["wall_s"] for p in plain),
                   "setup_s": statistics.median(s["seconds"] * s["scale"] for s in setups),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        tts = [p["tts10_s"] for p in plain if "tts10_s" in p]
        if tts:
            metrics["tts10_s"] = statistics.median(tts)
        ldp = wl.summaries.get("verify-ldp")
        if ldp is not None:
            fixed = ldp["fixed"]
            metrics["lambda_dp_gap"] = abs(fixed["lambda_value"] - fixed["dp_value"])
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(metrics))
    failures += [f"metric {m} was not measured" for m in missing]
    result = {"correct": not failures and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units if k in metrics}}
    for f in failures:
        print(f"FAILED {args.workload}: {f}", file=sys.stderr)
    save_result(args, wl, result, passes, setups, failures)
    if args.record and result["correct"]:
        record_reference(args, wl)
    return result


def trace_failures(name: str, traced: list) -> list:
    """Layers the workload must reach, and counts that must repeat exactly."""
    layers = traced[0]["layers"]
    bad = [f"layer metric {m} is zero in a traced pass"
           for m in WORKLOADS[name]["exercises"] if not layers[m]]
    for p in traced[1:]:
        bad += [f"count {m} changed between traced passes: {layers[m]} vs {p['layers'][m]}"
                for m in tracing.EXACT_COUNTS if p["layers"][m] != layers[m]]
    return bad


def metric_units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment(wl: Workload) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "config_sha256": {name: sha256_file(spec["config"])
                          for name, spec in WORKLOADS.items()},
        "effective_config_sha256": sha256_file(wl.cfg_path),
    }


def git_commit():
    """HEAD of the repository the benchmark sits in; None outside one."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def save_result(args, wl, result, passes, setups, failures):
    results = Path(args.results) if args.results else OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    payload = {"workload": args.workload, "seed": args.seed, "preset": args.preset,
               "trace": args.trace, "seconds": args.seconds, "result": result,
               "setup_s": setups, "passes": passes, "failures": failures,
               "environment": environment(wl)}
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(payload, indent=1) + "\n")


def record_reference(args, wl: Workload):
    refs = checks.load_references()
    refs.setdefault(args.preset, {})[args.workload] = {
        "seed": args.seed,
        "pipelines": {sub: {"fixed": s["fixed"], "seeded": s["seeded"]}
                      for sub, s in wl.summaries.items()}}
    checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Every workload in its own interpreter; prints a table and ops_failed."""
    attempted = failed = 0
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--preset", args.preset]
        if args.results:
            cmd += ["--results", args.results]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})")
            ok = False
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        ok = ok and res["correct"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
    share = failed / attempted if attempted else 1.0
    print(f"ops_failed {share:.6g} ({failed} of {attempted} pipeline runs)")
    return 0 if ok and attempted else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=CANONICAL_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--preset", choices=PRESETS, default="timed")
    p.add_argument("--results", default=None,
                   help="directory for result files (default .perfbench_out/results)")
    p.add_argument("--record", action="store_true",
                   help="store this run's outputs as the references of the preset")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_one(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

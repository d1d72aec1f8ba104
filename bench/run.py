"""Benchmark for ncrs: end-to-end metrics per workload, or a layer trace.

Usage (from the repository root):

    python3 bench/run.py                       # every workload, table on stderr
    python3 bench/run.py --workload sign_sweep --seed 3 --seconds 30 --trace 0

Each pass is a fresh ``python3 bench/child.py`` process that loads the
generated configs and calls ``ncrs.cli.main`` (``sweep`` or ``validate``)
with ``--workers 1``.  A run makes at least MIN_PASSES passes, and more
while the next is expected to end within ``--seconds``, and reports medians
of times scaled to a reference speed (see CAL_REF_S).  With ``--trace 1``
it makes one untraced pass and two traced ones and reports the per-layer
metrics instead.  bench/README.md explains the workloads and metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; everything else goes to stderr and to
``bench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

SETUP_PROBES = 3  # set-up-only children per untraced run, besides each pass's own
MIN_PASSES = 3  # so that one slow pass cannot move the median
PASS_TIMEOUT_S = 150

# Time metrics are reported at a fixed machine speed.  On shared cores the
# speed of the moment swings by up to 1.6x for seconds to minutes at a
# time, and a pass's own wall time with it.  Every child times a
# calibration loop (child.calibrate) after set-up and after each call.  A
# call's seconds are multiplied by (CAL_REF_S / c) ** SPEED_EXPONENT, where
# c is the mean of the loop times around the call; set-up uses the first
# loop time.  CAL_REF_S is the loop's usual time on the reference machine
# (Intel Xeon, 2 vCPUs).  The passes of all three workloads slow down less
# than the loop does: over about 240 passes there, an exponent of 0.7 to
# 0.85 gave the steadiest medians across seeds (1.0 over-corrects, 0 is raw
# time).  Raw seconds are kept in the results file.
CAL_REF_S = 0.16
SPEED_EXPONENT = 0.75


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    return seconds * (CAL_REF_S / calibration_s) ** SPEED_EXPONENT


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[str, ...] = ()  # YAML files in bench/configs, one sweep each
    seeds_per_cell: int = 1  # sweep.seeds gets this many seeds per workload seed
    needs_target: bool = False  # every run must report iterations_to_target
    scale: float = 0.0  # validate --scale; used when there are no configs
    work_name: str = "iters_per_s"  # what work_per_s is called on this workload


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sign_sweep", ("sign_sweep.yaml",), seeds_per_cell=3, needs_target=True),
        Workload("vote_baseline", ("vote_baseline_ncrs_vote.yaml", "vote_baseline_rsgf.yaml")),
        Workload("certify", scale=0.1, work_name="mc_samples_per_s"),
    )
}

END_TO_END = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Exact counts and ratios of the traced pass, then each layer time as a
# share of the traced wall time.  Traced seconds are inflated by the
# wrappers, so only shares are comparable; the seconds themselves are in
# the table and the results file.
PER_LAYER_COUNTS = {
    "harness.validate_calls": "count",
    "harness.runs": "count",
    "harness.runs_failed": "count",
    "harness.csv_bytes": "bytes",
    "algorithms.iters": "count",
    "algorithms.accept_rate": "ratio",
    "oracles.calls": "count",
    "oracles.queries": "count",
    "objectives.value_calls": "count",
    "objectives.value_calls_per_iter": "ratio",
    "objectives.value_rows": "count",
    "objectives.gradient_calls": "count",
    "geometry.gaussian_calls": "count",
    "diagnostics.samples": "count",
    "diagnostics.checks_failed": "count",
}
SHARED_TIMES = (
    "cli.self_s",
    "harness.validate_s",
    "harness.build_s",
    "harness.run_self_s",
    "harness.csv_write_s",
    "harness.sweep_self_s",
    "algorithms.self_s",
    "oracles.self_s",
    "objectives.value_s",
    "objectives.gradient_s",
    "geometry.gaussian_s",
    "geometry.subspace_s",
    "diagnostics.projector_moments_s",
    "diagnostics.cross_moment_s",
    "diagnostics.halfnormal_s",
    "diagnostics.link_reduction_s",
    "diagnostics.grad_fd_s",
    "diagnostics.descent_ncrs_s",
    "diagnostics.vote_error_s",
    "diagnostics.vote_penalty_s",
)


def share_name(name: str) -> str:
    return name[: -len("_s")] + "_pct"


PER_LAYER = {
    **PER_LAYER_COUNTS,
    **{share_name(n): "%" for n in SHARED_TIMES},
    "trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- machine context ------------------------------------------------------------


def loadavg() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# -- passes -----------------------------------------------------------------------


def spawn(plan: dict, plan_path: Path) -> dict:
    """Run one child process to completion and return its result plus setup_s."""
    plan_path.parent.mkdir(parents=True, exist_ok=True)
    plan_path.write_text(json.dumps(plan))
    log = plan_path.with_suffix(".log")
    with open(log, "w") as log_fh:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(plan_path)],
            stdin=subprocess.DEVNULL,
            stdout=log_fh,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            timeout=PASS_TIMEOUT_S,
        )
    result_path = Path(plan["result"])
    if proc.returncode != 0 or not result_path.is_file():
        tail = log.read_text()[-2000:]
        raise RuntimeError(f"child exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["setup_raw_s"] = result["ready"] - t0
    result["setup_s"] = at_reference_speed(result["setup_raw_s"], result["calibration_s"][0])
    return result


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        import yaml
        from ncrs.harness import load_config

        self.workload = workload
        self.seed = seed
        self.work = work
        self.configs: list[dict] = []
        self.config_paths: list[Path] = []
        seeds = [seed * workload.seeds_per_cell + i for i in range(workload.seeds_per_cell)]
        for i, name in enumerate(workload.configs):
            cfg = load_config(BENCH / "configs" / name)
            cfg.setdefault("sweep", {})["seeds"] = seeds
            path = work / f"config{i}.yaml"
            path.write_text(yaml.safe_dump(cfg, sort_keys=True))
            self.configs.append(load_config(path))
            self.config_paths.append(path)
        self.passes: list[dict] = []
        self.setups: list[dict] = []
        self.first_digest: str | None = None

    def plan(self, name: str, trace: bool, setup_only: bool) -> dict:
        d = self.work / name
        d.mkdir(parents=True, exist_ok=True)
        calls = []
        for i, path in enumerate(self.config_paths):
            argv = ["sweep", "--config", str(path), "--out", str(d / f"sweep{i}"), "--workers", "1"]
            calls.append({"argv": argv, "out": str(d / f"sweep{i}"), "stdout": str(d / f"sweep{i}.json")})
        if not self.config_paths:
            argv = ["validate", "--scale", str(self.workload.scale), "--seed", str(self.seed)]
            calls.append({"argv": argv, "stdout": str(d / "validate.json")})
        return {
            "src": str(SRC),
            "configs": [str(p) for p in self.config_paths],
            "calls": calls,
            "trace": trace,
            "setup_only": setup_only,
            "result": str(d / "result.json"),
        }

    def setup_probe(self, name: str) -> dict:
        plan = self.plan(name, trace=False, setup_only=True)
        result = spawn(plan, self.work / name / "plan.json")
        shutil.rmtree(self.work / name)
        return {k: result[k] for k in ("setup_s", "setup_raw_s", "calibration_s")}

    def run_pass(self, trace: bool) -> dict:
        from checks import PassCheck, check_sweep, check_validate
        from layertrace import layer_metrics

        index = len(self.passes) + 1
        name = f"pass{index}"
        plan = self.plan(name, trace=trace, setup_only=False)
        record = {"pass": index, "traced": trace, "load_before": loadavg()}
        op = f"pass {index}"
        total = PassCheck(ops=1)
        try:
            result = spawn(plan, self.work / name / "plan.json")
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            total.fail(op, str(exc))
            result = None
        record["load_after"] = loadavg()
        if result is not None:
            cal = result["calibration_s"]
            record.update(
                wall_s=sum(
                    at_reference_speed(t, (cal[i] + cal[i + 1]) / 2)
                    for i, t in enumerate(result["call_s"])
                ),
                wall_raw_s=sum(result["call_s"]),
                calibration_s=cal,
                setup_s=result["setup_s"],
                setup_raw_s=result["setup_raw_s"],
                peak_rss_mb=result["peak_rss_kb"] / 1024.0,
            )
            digest = hashlib.sha256()
            for i, (call, code) in enumerate(zip(plan["calls"], result["exit_codes"])):
                if self.config_paths:
                    check = check_sweep(
                        Path(call["out"]),
                        Path(call["stdout"]),
                        code,
                        self.configs[i],
                        self.workload.needs_target,
                    )
                else:
                    check = check_validate(Path(call["stdout"]), code)
                digest.update(hashlib.sha256(check.digest_input).digest())
                total.ops += check.ops
                total.failures += check.failures
                total.work += check.work
                total.rows += check.rows
                total.accepted += check.accepted
                total.last_t.update(check.last_t)
            record["aggregate_sha256"] = digest.hexdigest()
            if self.first_digest is None:
                self.first_digest = record["aggregate_sha256"]
            elif record["aggregate_sha256"] != self.first_digest:
                total.fail(op, "aggregate bytes differ from the first pass")
            record["work"] = total.work
            if trace:
                record["layers"] = layer_metrics(result["trace"])
                record["layers"]["algorithms.accept_rate"] = (
                    total.accepted / total.rows if total.rows else 0.0
                )
                for span in result["trace"]["coarse"]:
                    attrs = span["attrs"]
                    if span["name"] == "harness.run_one" and "horizon" in attrs:
                        key = (attrs["cell_hash"], attrs["seed"])
                        if total.last_t.get(key) != attrs["horizon"]:
                            total.fail(op, f"run {key}: last t {total.last_t.get(key)} "
                                       f"!= horizon {attrs['horizon']}")
        record["attempted"] = total.ops
        record["failed"] = total.failed_ops
        record["failures"] = [f"{o}: {r}" for o, r in total.failures[:20]]
        shutil.rmtree(self.work / name, ignore_errors=True)
        self.passes.append(record)
        return record


def summarize(values: list[float]) -> dict:
    if not values:
        return {"median": None, "p25": None, "p75": None, "n": 0}
    if len(set(values)) == 1:  # keeps exact counts as integers
        return {"median": values[0], "p25": values[0], "p75": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "p25": q1, "p75": q3, "n": len(values)}


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK))
    try:
        run = Run(workload, seed, work)
        run.setup_probe("warmup")  # compiles bytecode and fills the file cache
        if trace:
            untraced = run.run_pass(trace=False)
            traced = [run.run_pass(trace=True), run.run_pass(trace=True)]
        else:
            run.setups = [run.setup_probe(f"setup{i}") for i in range(SETUP_PROBES)]
            start = time.perf_counter()
            while True:
                run.run_pass(trace=False)
                elapsed = time.perf_counter() - start
                n = len(run.passes)
                if n >= MIN_PASSES and elapsed + elapsed / n > seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in run.passes)
    failed = sum(p["failed"] for p in run.passes)
    ok = [p for p in run.passes if "wall_s" in p]
    if not ok:
        raise BenchError("no pass completed: " + "; ".join(run.passes[0]["failures"]))
    summary: dict[str, dict] = {}
    if trace:
        timed = [p for p in traced if "layers" in p]
        if not timed or "wall_s" not in untraced:
            raise BenchError("the untraced pass or both traced passes failed")
        counts = [{k: p["layers"][k] for k in PER_LAYER_COUNTS} for p in timed]
        attempted += 1
        if len(counts) != 2 or counts[0] != counts[1]:
            failed += 1
            traced[-1]["failures"].append("trace counts differ between the two traced passes")
        for name in PER_LAYER_COUNTS:
            summary[name] = summarize([p["layers"][name] for p in timed])
        for name in SHARED_TIMES:
            shares = [100.0 * p["layers"][name] / p["wall_raw_s"] for p in timed]
            summary[share_name(name)] = summarize(shares)
        overhead = statistics.median(p["wall_s"] for p in timed) / untraced["wall_s"] - 1.0
        summary["trace_overhead_frac"] = summarize([overhead])
        units = PER_LAYER
        extra = {
            name: summarize([p["layers"][name] for p in timed])
            for name in timed[0]["layers"]
            if name not in PER_LAYER_COUNTS
        }
    else:
        walls = [p["wall_s"] for p in ok]
        summary["wall_s"] = summarize(walls)
        summary["work_per_s"] = summarize([p["work"] / p["wall_s"] for p in ok])
        summary["setup_s"] = summarize([p["setup_s"] for p in run.setups + ok])
        summary["peak_rss_mb"] = summarize([p["peak_rss_mb"] for p in ok])
        units = END_TO_END
        extra = {
            "wall_raw_s": summarize([p["wall_raw_s"] for p in ok]),
            "setup_raw_s": summarize([p["setup_raw_s"] for p in run.setups + ok]),
            "calibration_s": summarize([c for p in run.setups + ok for c in p["calibration_s"]]),
        }

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "summary": summary,
        "units": units,
        "extra": extra,
        "setup_samples": run.setups,
        "passes": run.passes,
        "machine": machine(),
    }


def print_table(result: dict) -> None:
    wl = WORKLOADS[result["workload"]]
    out = sys.stderr
    print(
        f"\n{result['workload']} seed={result['seed']} trace={result['trace']} "
        f"passes={len(result['passes'])} correct={result['correct']}",
        file=out,
    )
    print(f"  {'metric':<38} {'median':>14} {'p25':>14} {'p75':>14} {'n':>3}  unit", file=out)
    rows = [(name, s, result["units"][name]) for name, s in result["summary"].items()]
    rows += [(n, s, "us" if n.endswith("_us_per_iter") else "s") for n, s in result["extra"].items()]
    for name, s, unit in rows:
        label = wl.work_name if name == "work_per_s" else name
        if s["n"]:
            print(
                f"  {label:<38} {s['median']:>14.6g} {s['p25']:>14.6g} {s['p75']:>14.6g} "
                f"{s['n']:>3}  {unit}",
                file=out,
            )
    print(
        f"  {'error_rate':<38} {result['error_rate']:>14.6g} "
        f"({result['failed']} of {result['attempted']} operations)  ratio",
        file=out,
    )
    for p in result["passes"]:
        for failure in p["failures"]:
            print(f"  FAILED pass {p['pass']}: {failure}", file=out)


def bench_line(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": s["median"], "unit": result["units"][name]}
            for name, s in result["summary"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "ncrs" / "__init__.py").is_file():
        print(f"error: no ncrs source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ncrs

    if Path(ncrs.__file__).resolve().parent != (SRC / "ncrs").resolve():
        print(f"error: imported ncrs from {ncrs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        RESULTS.mkdir(parents=True, exist_ok=True)
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print_table(result)
        lines[name] = bench_line(result)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

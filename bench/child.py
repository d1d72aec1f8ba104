"""One benchmark pass, run in a fresh interpreter by bench/run.py.

Usage: python3 bench/child.py PLAN.json

The plan names the source tree, the generated configs to load, the
``ncrs.cli.main`` calls to make (each with its stdout file), whether to
trace, and where to write the result.  Set-up is everything up to the
``ready`` timestamp: interpreter start, ``import ncrs``, and loading and
validating the configs.  ``ready`` is read from CLOCK_MONOTONIC, which on
Linux is shared by all processes, so the parent can subtract its own spawn
time from it.  The timed work is the ``main`` calls alone.

A calibration loop is timed right after set-up and after every call (see
``calibrate``); the parent uses it to take the machine's speed of the
moment out of the timings.  Its first run in a process, just after the
imports, is up to 1.6x slower than the next, so one untimed run comes
first.
"""
from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

CALIBRATION_STEPS = 18_000


class _Objective:
    def __init__(self, scale: float):
        self.scale = scale

    def value(self, x: np.ndarray) -> float:
        return self.scale * float(np.sum(x * x))


def calibrate() -> float:
    """Seconds for a fixed loop shaped like an ncrs iteration.

    Each step draws a Gaussian vector, forms a candidate, evaluates it
    through a method call, compares it with a uniform draw and logs a
    record: small numpy calls driven from Python, which is where ncrs
    spends its time.  (Of the loops tried, this one tracked the speed of
    ncrs runs best.)  It does not touch ncrs, so a change to ncrs cannot
    change it.
    """
    rng = np.random.Generator(np.random.Philox(0))
    objective = _Objective(3.0)
    theta = np.zeros(20)
    log = []
    start = time.perf_counter()
    for t in range(CALIBRATION_STEPS):
        candidate = theta + 0.01 * rng.standard_normal(20)
        value = objective.value(candidate)
        if value > rng.random():
            theta = candidate
        log.append((t, value))
    return time.perf_counter() - start


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, plan["src"])
    from ncrs import cli
    from ncrs.harness import load_config

    for path in plan["configs"]:
        load_config(path)
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    calibrate()
    result["calibration_s"] = [calibrate()]

    if not plan["setup_only"]:
        tracer = None
        if plan["trace"]:
            import layertrace

            tracer = layertrace.Tracer()
            layertrace.install(tracer)
        result["call_s"] = []
        result["exit_codes"] = []
        try:
            for call in plan["calls"]:
                with open(call["stdout"], "w") as out, contextlib.redirect_stdout(out):
                    start = time.perf_counter()
                    result["exit_codes"].append(cli.main(call["argv"]))
                    result["call_s"].append(time.perf_counter() - start)
                result["calibration_s"].append(calibrate())
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["trace"] = tracer.dump() if tracer is not None else None

    # ru_maxrss is in kilobytes on Linux.
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(plan["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()

"""Outside-in layer tracing for the benchmark's traced pass.

Wrappers are installed around the public functions of each ncrs layer, at
the names where callers look them up (``algorithms`` and ``diagnostics``
import ``gaussian_vector`` by name, ``harness`` imports the ``*_run``
functions by name, so patching the defining module alone would miss those
calls).  Nothing inside ``src/ncrs`` is edited.

A span stack gives every span its parent and its self time: the span's
duration minus the durations of its direct child spans.  Fine-grained
calls (objective values, oracle comparisons, Gaussian draws) are folded in
memory into count / total / self per (name, parent); coarse spans (each
run, each certificate check, each CSV write) are kept whole.  Nothing is
written until ``dump`` is called at the end of the pass.
"""
from __future__ import annotations

import functools
import os
import time
from typing import Callable

# Check functions of ncrs.diagnostics, keyed by the family name used in the
# per-layer metrics.
CHECK_FAMILIES = (
    "projector_moments",
    "cross_moment",
    "halfnormal",
    "link_reduction",
    "grad_fd",
    "descent_ncrs",
    "vote_error",
    "vote_penalty",
)


class Tracer:
    """Span stack plus in-memory aggregates; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # frames: [name, start, child_time]
        self.fine: dict[tuple[str, str | None], list[float]] = {}  # -> [count, total, self]
        self.coarse: list[dict] = []
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self, coarse: bool = False, attrs: dict | None = None) -> None:
        end = self.clock()
        name, start, child_time = self.stack.pop()
        duration = end - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += duration
        self_time = duration - child_time
        if coarse:
            self.coarse.append(
                {
                    "name": name,
                    "parent": parent,
                    "start": start,
                    "end": end,
                    "self": self_time,
                    "attrs": attrs or {},
                }
            )
            return
        agg = self.fine.get((name, parent))
        if agg is None:
            agg = self.fine[(name, parent)] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += self_time

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        coarse: bool = False,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records span ``name``.

        ``before(args, kwargs)`` runs inside the span before the call and its
        value is handed to ``after(tracer, args, kwargs, result, state)``,
        which runs after the span has closed and returns the coarse span's
        attributes (ignored for fine spans).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            state = before(args, kwargs) if before is not None else None
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.exit(coarse, {"raised": True})
                raise
            if after is None:
                tracer.exit(coarse)
            elif coarse:
                # Close the span first so the hook's own work is not timed
                # as the layer's, then attach the attributes it returns.
                tracer.exit(True)
                tracer.coarse[-1]["attrs"] = after(tracer, args, kwargs, result, state) or {}
            else:
                tracer.exit(False)
                after(tracer, args, kwargs, result, state)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {
            "fine": [
                {"name": n, "parent": p, "count": int(c), "total": t, "self": s}
                for (n, p), (c, t, s) in sorted(self.fine.items(), key=lambda kv: str(kv[0]))
            ],
            "coarse": self.coarse,
            "counters": dict(sorted(self.counters.items())),
        }


# -- hooks that read the exact counts ------------------------------------------


def _query_count(args, kwargs):
    return args[0].query_count


def _after_oracle(tracer, args, kwargs, result, before):
    tracer.count("oracles.queries", args[0].query_count - before)


def _after_value(tracer, args, kwargs, result, state):
    shape = getattr(args[1], "shape", None)
    rows = 1
    if shape is not None and len(shape) > 1:
        for n in shape[:-1]:
            rows *= n
    tracer.count("objectives.value_rows", rows)


def _after_algorithm(tracer, args, kwargs, result, state):
    iters = int(result.steps[-1]) if len(result.steps) else 0
    return {"iters": iters}


def _after_run_one(tracer, args, kwargs, result, state):
    from ncrs.harness import cell_hash

    summary = result[1]
    return {
        "seed": summary.seed,
        "horizon": summary.horizon,
        "cell_hash": cell_hash(summary.config["run"]),
    }


def _after_csv(tracer, args, kwargs, result, state):
    return {"path": str(args[1]), "bytes": os.path.getsize(args[1])}


def _after_check(tracer, args, kwargs, result, state):
    return {"check": result.name, "n_samples": int(result.n_samples), "passed": bool(result.passed)}


def targets():
    """Every (owner, attribute) the traced pass patches, in install order."""
    from ncrs import algorithms, cli, diagnostics, geometry, harness, objectives, oracles

    spec = [
        (cli, "main", "cli.main", True, None, None),
        (cli, "load_config", "harness.load_config", True, None, None),
        (cli, "apply_overrides", "harness.apply_overrides", True, None, None),
        (cli, "run_sweep", "harness.run_sweep", True, None, None),
        (cli, "run_default_suite", "diagnostics.run_default_suite", True, None, None),
        (harness, "validate_config", "harness.validate_config", False, None, None),
        (harness, "run_one", "harness.run_one", True, None, _after_run_one),
        (harness, "write_trajectory_csv", "harness.write_trajectory_csv", True, None, _after_csv),
        (harness, "random_ridge_objective", "harness.build", False, None, None),
        (harness, "initial_point", "harness.build", False, None, None),
    ]
    for fn in ("ncrs_run", "ncrs_vote_run", "rsgf_run"):
        spec.append((harness, fn, f"algorithms.{fn}", True, None, _after_algorithm))
    spec += [
        (oracles.SignOracle, "compare", "oracles.compare", False, _query_count, _after_oracle),
        (
            oracles.ConfidenceOracle,
            "compare_batch",
            "oracles.compare_batch",
            False,
            _query_count,
            _after_oracle,
        ),
        (objectives.RidgeObjective, "value", "objectives.value", False, None, _after_value),
        (objectives.RidgeObjective, "gradient", "objectives.gradient", False, None, None),
    ]
    for module in (geometry, algorithms, objectives, diagnostics):
        spec.append((module, "gaussian_vector", "geometry.gaussian_vector", False, None, None))
    for module in (objectives, diagnostics):
        spec.append((module, "random_subspace", "geometry.random_subspace", False, None, None))
    for family in CHECK_FAMILIES:
        spec.append(
            (diagnostics, f"check_{family}", f"diagnostics.{family}", True, None, _after_check)
        )
    return spec


def install(tracer: Tracer) -> None:
    for owner, attr, name, coarse, before, after in targets():
        tracer.wrap(owner, attr, name, coarse=coarse, before=before, after=after)


# -- metrics from a dump -----------------------------------------------------------


def _by_name(dump: dict) -> tuple[dict, dict, dict]:
    """(calls, inclusive seconds, self seconds) per span name."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for f in dump["fine"]:
        calls[f["name"]] = calls.get(f["name"], 0) + f["count"]
        total[f["name"]] = total.get(f["name"], 0.0) + f["total"]
        own[f["name"]] = own.get(f["name"], 0.0) + f["self"]
    for c in dump["coarse"]:
        calls[c["name"]] = calls.get(c["name"], 0) + 1
        total[c["name"]] = total.get(c["name"], 0.0) + c["end"] - c["start"]
        own[c["name"]] = own.get(c["name"], 0.0) + c["self"]
    return calls, total, own


def layer_metrics(dump: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass, in seconds and exact counts."""
    calls, total, own = _by_name(dump)
    counters = dump["counters"]

    def attr_sum(name: str, key: str) -> int:
        return sum(c["attrs"].get(key, 0) for c in dump["coarse"] if c["name"] == name)

    iters = {fn: attr_sum(f"algorithms.{fn}", "iters") for fn in ("ncrs_run", "ncrs_vote_run", "rsgf_run")}
    all_iters = sum(iters.values())

    def per_iter_us(fn: str) -> float:
        return 1e6 * total.get(f"algorithms.{fn}", 0.0) / iters[fn] if iters[fn] else 0.0

    checks = [c for c in dump["coarse"] if c["name"].startswith("diagnostics.") and "check" in c["attrs"]]
    m = {
        "cli.self_s": own.get("cli.main", 0.0),
        "harness.validate_calls": calls.get("harness.validate_config", 0),
        "harness.validate_s": own.get("harness.validate_config", 0.0),
        "harness.build_s": total.get("harness.build", 0.0),
        "harness.runs": calls.get("harness.run_one", 0),
        "harness.runs_failed": sum(
            1 for c in dump["coarse"] if c["name"] == "harness.run_one" and c["attrs"].get("raised")
        ),
        "harness.run_self_s": own.get("harness.run_one", 0.0),
        "harness.csv_write_s": total.get("harness.write_trajectory_csv", 0.0),
        "harness.csv_bytes": attr_sum("harness.write_trajectory_csv", "bytes"),
        "harness.sweep_self_s": own.get("harness.run_sweep", 0.0),
        "algorithms.iters": all_iters,
        "algorithms.self_s": sum(own.get(f"algorithms.{fn}", 0.0) for fn in iters),
        "algorithms.ncrs_us_per_iter": per_iter_us("ncrs_run"),
        "algorithms.vote_us_per_iter": per_iter_us("ncrs_vote_run"),
        "algorithms.rsgf_us_per_iter": per_iter_us("rsgf_run"),
        "oracles.calls": calls.get("oracles.compare", 0) + calls.get("oracles.compare_batch", 0),
        "oracles.queries": counters.get("oracles.queries", 0),
        "oracles.self_s": own.get("oracles.compare", 0.0) + own.get("oracles.compare_batch", 0.0),
        "objectives.value_calls": calls.get("objectives.value", 0),
        "objectives.value_calls_per_iter": (
            calls.get("objectives.value", 0) / all_iters if all_iters else 0.0
        ),
        "objectives.value_rows": counters.get("objectives.value_rows", 0),
        "objectives.value_s": own.get("objectives.value", 0.0),
        "objectives.gradient_calls": calls.get("objectives.gradient", 0),
        "objectives.gradient_s": own.get("objectives.gradient", 0.0),
        "geometry.gaussian_calls": calls.get("geometry.gaussian_vector", 0),
        "geometry.gaussian_s": own.get("geometry.gaussian_vector", 0.0),
        "geometry.subspace_s": total.get("geometry.random_subspace", 0.0),
    }
    for family in CHECK_FAMILIES:
        m[f"diagnostics.{family}_s"] = total.get(f"diagnostics.{family}", 0.0)
    m["diagnostics.samples"] = sum(c["attrs"]["n_samples"] for c in checks)
    m["diagnostics.checks_failed"] = sum(1 for c in checks if not c["attrs"]["passed"])
    return m

"""Config-driven benchmark runs and sweeps.

A run is a pure function of (cell config, master seed): problem geometry,
starting point, algorithm directions, and oracle noise each draw from their
own stream keyed by (seed, role), so a trajectory is bit-reproducible and
independent of the sweep it sits in, the worker count, and scheduling.  The
cells of one sweep share problem draws per seed (common random numbers).
Sweeps fan runs over a worker pool; the aggregate JSON depends only on the
plan and the seeds, never on timing or worker count.

The config is a YAML mapping with sections problem / oracle / algorithm /
target and an optional sweep section holding axis lists; the full grammar
is documented in the README; CONFIG_KEYS holds every key's default, type
and range.  Unknown keys are rejected by name.

Importing this module loads neither PyYAML nor the process pool: yaml is
imported by the first config read (read_config or apply_overrides) and
concurrent.futures.process by the first sweep with more than one worker.  So
`ncrs validate` and `ncrs params` load neither, and `ncrs run` and a
one-worker sweep never load the pool.
"""
from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import time
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from .algorithms import (
    StepSchedule,
    Trajectory,
    constant_schedule,
    ncrs_run,
    ncrs_vote_run,
    rsgf_run,
    rsgf_stable_step,
    theory_schedule,
)
from .geometry import KEY_LIMIT, RngStream, stream_id_for
from .objectives import (
    INNER_KINDS,
    InnerFunction,
    RidgeObjective,
    initial_point,
    random_ridge_objective,
)
from .oracles import CONFIDENCE_KINDS, LINK_KINDS, ConfidenceOracle, LinkFunction, SignOracle

logger = logging.getLogger("ncrs")

ALGORITHM_KINDS = ("ncrs", "ncrs_vote", "rsgf")
SCHEDULE_KINDS = ("constant", "theory_constant")
ORACLE_KINDS = ("sign",) + CONFIDENCE_KINDS
TARGET_KINDS = ("relative", "absolute")

# Sweep axes in enumeration order, mapped to the config key they override.
SWEEP_AXES = (
    ("d", ("problem", "d")),
    ("k", ("problem", "k")),
    ("tau", ("problem", "tau")),
    ("advantage", ("oracle", "advantage")),
    ("votes", ("algorithm", "votes")),
)

CSV_HEADER = "t,f,grad_norm,accepted,queries"
# write_trajectory_csv formats this many rows with one printf-style % over a
# repeated row template; converting a block of rows at a time bounds the
# Python numbers alive at once.
CSV_BLOCK_ROWS = 1024

# Largest horizon a run accepts, given or resolved from horizon: auto; at
# 11-23 us per ncrs iteration it is about 2-4 minutes of search.
MAX_HORIZON = 10_000_000

# Every config key, once: section -> key -> (default, rule).  A rule is a
# tuple of allowed names, or "int|real >=|> bound", optionally followed by
# "and <= ceiling" and then by "or auto".  validate_config checks every key
# against its rule whatever the schedule or algorithm, and stores reals as
# floats so that 0 and 0.0 name the same cell; the rules that couple keys
# follow the walk there.
CONFIG_KEYS = {
    "problem": {
        "d": (50, "int >= 1 and <= 1000000"),
        "k": (5, "int >= 1 and <= 1000000"),
        "inner": ("pure_quadratic", INNER_KINDS),
        "tau": (0.0, "real >= 0"),
        "nuisance_dim": (0, "int >= 0 and <= 1000000"),
        "init_radius_scale": (3.0, "real > 0"),
    },
    "oracle": {
        "kind": ("sign", ORACLE_KINDS),
        "advantage": (0.5, "real > 0 and <= 0.5"),
        "link": ("logistic", LINK_KINDS),
    },
    "algorithm": {
        "kind": ("ncrs", ALGORITHM_KINDS),
        "horizon": (10_000, f"int >= 1 and <= {MAX_HORIZON} or auto"),
        "schedule": ("theory_constant", SCHEDULE_KINDS),
        "alpha0": ("auto", "real > 0 or auto"),
        "alpha": (0.05, "real > 0 or auto"),
        "votes": (1, "int >= 1 and <= 1000000"),
        "mu": (1.0e-4, "real > 0"),
    },
    "target": {
        "kind": ("relative", TARGET_KINDS),
        "value": (0.25, "real > 0"),
    },
}


class ConfigError(ValueError):
    """A config file or override that the grammar rejects."""


def default_config() -> dict:
    """The defaults of CONFIG_KEYS as a fresh nested mapping."""
    return {sec: {key: d for key, (d, _) in keys.items()} for sec, keys in CONFIG_KEYS.items()}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _checked(where: str, value, rule):
    """value if it satisfies rule, as a float for a real rule; else ConfigError."""
    if isinstance(rule, tuple):
        _require(value in rule, f"{where} must be one of {rule}")
        return value
    if value == "auto" and rule.endswith(" or auto"):
        return value
    kind, op, bound, *rest = rule.split()
    if kind == "real" and isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            # YAML 1.1 reads 1e-3 (no dot) as a string; a huge int overflows
            value = float(value)
        except (ValueError, OverflowError):
            pass
    typed = (isinstance(value, float) and math.isfinite(value)) if kind == "real" else _is_int(value)
    in_range = typed and (value > float(bound) if op == ">" else value >= float(bound))
    if rest[:2] == ["and", "<="]:
        in_range = in_range and value <= (float if kind == "real" else int)(rest[2])
    _require(in_range, f"{where} must be {rule}, got {value!r}")
    return value


def check_seed(seed, where: str) -> None:
    """A master seed is an int in [0, 2**64), the key range of RngStream."""
    ok = _is_int(seed) and 0 <= seed < KEY_LIMIT
    _require(ok, f"{where} must be an integer in [0, 2**64), got {seed!r}")


def validate_config(raw: dict) -> dict:
    """Fill a raw mapping with the defaults of CONFIG_KEYS and validate it.

    Returns the normalized config, with every real-valued key as a float.
    Raises ConfigError naming the first offending key.  The sweep section,
    when present, may hold lists for the axes d / k / tau / advantage / votes
    plus a seeds list; every axis combination is validated here as its own
    config before any run starts.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for section in raw:
        _require(section in CONFIG_KEYS or section == "sweep", f"unknown config key: {section}")
    cfg = {}
    for section, keys in CONFIG_KEYS.items():
        given = raw.get(section, {})
        _require(isinstance(given, dict), f"config section {section} must be a mapping")
        for key in given:
            _require(key in keys, f"unknown config key: {section}.{key}")
        cfg[section] = {
            key: _checked(f"{section}.{key}", given.get(key, default), rule)
            for key, (default, rule) in keys.items()
        }

    p, o, a = cfg["problem"], cfg["oracle"], cfg["algorithm"]
    _require(p["k"] <= p["d"], f"problem.k={p['k']} exceeds problem.d={p['d']}")
    if p["tau"] > 0:
        _require(p["nuisance_dim"] >= 1, "problem.tau > 0 requires problem.nuisance_dim >= 1")
        _require(
            p["k"] + p["nuisance_dim"] <= p["d"],
            f"problem.k + problem.nuisance_dim must not exceed problem.d="
            f"{p['d']} (got {p['k']} + {p['nuisance_dim']})",
        )
    if a["kind"] == "ncrs":
        _require(o["kind"] == "sign", "algorithm.kind=ncrs needs oracle.kind=sign")
    if a["kind"] == "ncrs_vote":
        _require(
            o["kind"] in CONFIDENCE_KINDS,
            f"algorithm.kind=ncrs_vote needs oracle.kind in {CONFIDENCE_KINDS}",
        )
    if a["horizon"] == "auto":
        _require(
            a["kind"] == "ncrs",
            "algorithm.horizon=auto is defined only for ncrs with a sign oracle",
        )
    if a["alpha0"] == "auto" and a["kind"] == "ncrs":
        _require(
            a["schedule"] != "constant",
            "algorithm.alpha0=auto is not defined for the constant schedule",
        )
    if a["alpha"] == "auto":
        _require(a["kind"] == "rsgf", "algorithm.alpha=auto is defined only for rsgf")

    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("sweep must be a mapping of axis lists")
        axes = dict(SWEEP_AXES)
        cfg["sweep"] = {}
        for key, values in sweep.items():
            where = f"sweep.{key}"
            _require(key == "seeds" or key in axes, f"unknown config key: {where}")
            _require(isinstance(values, list), f"{where} must be a list")
            _require(values, f"{where} must not be empty")
            if key == "seeds":
                for s in values:
                    check_seed(s, f"each {where} entry")
            else:  # as validated, so the plan reports what the cells run
                section, name = axes[key]
                values = [_checked(where, v, CONFIG_KEYS[section][name][1]) for v in values]
                reader = {"advantage": "ncrs", "votes": "ncrs_vote"}.get(key, a["kind"])
                _require(a["kind"] == reader, f"{where} is read only by algorithm.kind={reader}; "
                         f"under {a['kind']} every value would run the same cell")
            repeated = [v for v, n in Counter(values).items() if n > 1]
            _require(not repeated, f"{where} entries must be distinct; repeated: {repeated}")
            cfg["sweep"][key] = list(values)
        expand_cells(cfg)  # rejects bad combinations before any run
    return cfg


@functools.cache
def _unique_key_loader() -> type:
    """A yaml.SafeLoader that rejects a mapping key given twice, which
    safe_load would let the later one overwrite silently.  It is built on
    the first config read, so a command that reads none never imports yaml."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # a << merge: SafeLoader resolves it, and its keys may be overridden
                key = self.construct_object(key_node, deep=deep)
                try:
                    repeated = key in seen
                    seen.add(key)
                except TypeError:  # unhashable: SafeLoader reports it below
                    continue
                if repeated:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found repeated key {key!r}", key_node.start_mark,
                    )
            return super().construct_mapping(node, deep=deep)

    return UniqueKeyLoader


def read_config(path: str | Path):
    """The YAML document of a config file as read, not yet validated; an
    empty file reads as {}.  ConfigError names a file that cannot be read
    or parsed, including one that repeats a mapping key."""
    import yaml

    try:
        raw = yaml.load(Path(path).read_text(), Loader=_unique_key_loader())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return {} if raw is None else raw


def load_config(path: str | Path) -> dict:
    """Read and validate a YAML config file (read_config, then validate_config)."""
    return validate_config(read_config(path))


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply dotted-key overrides like 'oracle.advantage=0.25' to a raw or
    validated config mapping, then validate the result.

    Values are parsed as YAML scalars (so 1e-3, true, and quoted strings all
    work); list values use YAML flow syntax, e.g. 'sweep.k=[5, 10]'.  So an
    override may repair a file that would not validate on its own.
    """
    import yaml

    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    out = copy.deepcopy(cfg)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, _, raw_value = item.partition("=")
        keys = [k for k in dotted.strip().split(".") if k]
        if not keys:
            raise ConfigError(f"override {item!r} has an empty key")
        try:
            value = yaml.load(raw_value, Loader=_unique_key_loader())
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r} has an unparseable value: {exc}") from exc
        node = out
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {dotted!r} descends through a scalar")
        node[keys[-1]] = value
    return validate_config(out)


@dataclasses.dataclass
class RunSummary:
    """Per-run results of run_one."""

    config: dict
    seed: int
    epsilon: float
    horizon: int
    iterations_to_target: int | None
    final_value: float
    final_running_avg: float
    total_queries: int
    wall_time: float

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def running_average(grad_norms: np.ndarray) -> np.ndarray:
    g = np.asarray(grad_norms, dtype=np.float64)
    if g.size == 0:
        return g
    return np.cumsum(g) / np.arange(1, g.size + 1)


def iterations_to_target(traj: Trajectory, epsilon: float) -> int | None:
    """Smallest logged t whose running-average gradient norm is <= epsilon."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    avg = running_average(traj.grad_norms)
    hits = np.nonzero(avg <= epsilon)[0]
    if hits.size == 0:
        return None
    return int(traj.steps[hits[0]])


def fit_scaling(cells: list[tuple[float, float, float]]) -> tuple[float, float, float]:
    """Least-squares line through (log x, log mean); returns (slope, intercept, r2).

    The stderr entries ride along for reporting; the fit itself is unweighted.
    """
    if len(cells) < 2:
        raise ValueError("need at least 2 cells to fit")
    xs = np.array([c[0] for c in cells], dtype=np.float64)
    ys = np.array([c[1] for c in cells], dtype=np.float64)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("fit_scaling needs positive x and mean values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _streams(master_seed: int) -> dict[str, RngStream]:
    # one id per role: a run's streams never depend on its place in a sweep
    return {
        role: RngStream(master_seed, stream_id_for(0, role))
        for role in ("subspace", "nuisance", "init", "algorithm", "oracle")
    }


def _build_problem(cfg: dict, streams: dict[str, RngStream]) -> tuple[RidgeObjective, np.ndarray]:
    p = cfg["problem"]
    inner = InnerFunction(kind=p["inner"])
    objective = random_ridge_objective(
        streams["subspace"],
        p["d"],
        p["k"],
        inner,
        tau=p["tau"],
        nuisance_dim=p["nuisance_dim"] if p["tau"] > 0 else 0,
        nuisance_rng=streams["nuisance"],
    )
    theta1 = initial_point(objective, streams["init"], p["init_radius_scale"])
    return objective, theta1


def run_one(cfg: dict, master_seed: int) -> tuple[Trajectory, RunSummary]:
    """Execute one run described by a validated config.

    Streams are keyed by (master_seed, role) for the roles subspace /
    nuisance / init / algorithm / oracle, making the trajectory a pure
    function of (config, master_seed): a sweep's run of this cell and seed
    gives the same bytes.
    """
    cfg = validate_config(cfg)
    cfg.pop("sweep", None)
    streams = _streams(master_seed)
    objective, theta1 = _build_problem(cfg, streams)
    k = objective.intrinsic_dim
    smoothness = objective.smoothness

    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        grad0 = float(np.linalg.norm(objective.gradient(theta1)))
        value0 = float(objective.value(theta1))
    _require(  # else the target, horizon and step below come out inf or NaN
        math.isfinite(value0) and math.isfinite(grad0),
        f"problem.init_radius_scale={cfg['problem']['init_radius_scale']!r} puts the start "
        f"point where the objective value ({value0}) or gradient norm ({grad0}) is not finite",
    )
    tgt = cfg["target"]
    epsilon = tgt["value"] * (grad0 if tgt["kind"] == "relative" else 1.0)
    _require(  # a relative target can underflow to 0
        epsilon > 0,
        f"target.value={tgt['value']!r} times the start gradient norm ({grad0}) gives a "
        f"target epsilon of {epsilon}, not positive",
    )
    value_gap = value0 - objective.lower_bound

    a = cfg["algorithm"]
    o = cfg["oracle"]
    advantage = o["advantage"]
    if a["horizon"] == "auto":
        # Horizon recipe T = O(k / (p^2 eps^2)): 2 pi L gap k / (p^2 eps^2),
        # with the run's own certified gap and target.  A tiny eps can square
        # to 0 or overflow the budget to inf; a huge eps squares out of range
        # and leaves a budget of 0.
        try:
            denominator = advantage**2 * epsilon**2
        except OverflowError:
            denominator = math.inf
        budget = (
            2.0 * math.pi * smoothness * value_gap * k / denominator
            if denominator > 0
            else math.inf
        )
        _require(
            0 < budget <= MAX_HORIZON,
            f"algorithm.horizon=auto resolved to {budget:.4g} iterations, outside "
            f"(0, {MAX_HORIZON}]",
        )
        horizon = math.ceil(budget)
    else:
        horizon = a["horizon"]

    def instrument(theta: np.ndarray) -> tuple[float, float]:
        value = objective.value(theta)
        g = objective.gradient(theta)
        return value, math.sqrt(g.dot(g))  # np.linalg.norm of a 1-D real array

    schedule = _build_schedule(a, k, horizon, value_gap, smoothness)
    rng = streams["algorithm"]
    start = time.perf_counter()
    if a["kind"] == "ncrs":
        oracle = SignOracle(objective, advantage, streams["oracle"])
        traj = ncrs_run(oracle, theta1, schedule, rng, instrument)
    elif a["kind"] == "ncrs_vote":
        link = LinkFunction(kind=o["link"])
        oracle = ConfidenceOracle(objective, o["kind"], link, streams["oracle"])
        traj = ncrs_vote_run(oracle, theta1, schedule, a["votes"], rng, instrument)
    else:
        traj = rsgf_run(objective.value, theta1, schedule, a["mu"], rng, instrument)
    wall = time.perf_counter() - start

    avg = running_average(traj.grad_norms)
    summary = RunSummary(
        config={"run": cfg, "seed": master_seed},
        seed=master_seed,
        epsilon=epsilon,
        horizon=horizon,
        iterations_to_target=iterations_to_target(traj, epsilon),
        final_value=float(objective.value(traj.theta_final)),
        final_running_avg=float(avg[-1]) if avg.size else math.nan,
        total_queries=traj.total_queries,
        wall_time=wall,
    )
    return traj, summary


def _build_schedule(
    a: dict, k: int, horizon: int, value_gap: float, smoothness: float
) -> StepSchedule:
    """The step schedule of a run: ncrs's algorithm.schedule, else a constant algorithm.alpha."""
    if a["kind"] == "rsgf":
        stable = rsgf_stable_step(smoothness, k)
        if a["alpha"] == "auto":
            return constant_schedule(stable, horizon)
        if a["alpha"] > stable * (1 + 1e-12):
            logger.warning(
                "rsgf step size %.6g exceeds the certified stable bound %.6g", a["alpha"], stable
            )
    if a["kind"] != "ncrs":
        return constant_schedule(a["alpha"], horizon)
    if a["schedule"] == "constant":
        return constant_schedule(a["alpha0"], horizon)
    alpha0 = a["alpha0"]
    if alpha0 == "auto":
        # minimizes the horizon bound: alpha0* = sqrt(2 gap / L)
        alpha0 = math.sqrt(2.0 * value_gap / smoothness)
    return theory_schedule(alpha0, k, horizon)


def _write_atomic(path: Path, text: str) -> None:
    """Write text through a temp file in path's directory, then rename it into
    place: an interrupted write leaves the old file whole and no temp file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """CSV with header t,f,grad_norm,accepted,queries; LF endings; floats at
    17 significant digits (%.17g, the text of format(x, ".17g"): nan, inf,
    -0); accepted as 1 or 0; written atomically.

    Each distinct reading is formatted once: a record whose (f, grad_norm)
    has the same bits as the previous record's, as a rejected move leaves
    it, reuses that record's text.  The pairs are compared as int64, so
    0.0 and -0.0, or NaNs of another sign or payload, are never merged.
    Each block of CSV_BLOCK_ROWS rows is then one % over "%d,%s,%d,%d\n"
    repeated, with the reading texts as the %s.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    values = np.asarray(traj.values, dtype=np.float64)
    grad_norms = np.asarray(traj.grad_norms, dtype=np.float64)
    bits = np.stack((values, grad_norms), axis=1).view(np.int64)
    fresh = np.ones(len(bits), dtype=bool)
    fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    texts = np.array(
        list(map("%.17g,%.17g".__mod__, zip(values[fresh].tolist(), grad_norms[fresh].tolist()))),
        dtype=object,
    )
    readings = texts[np.cumsum(fresh) - 1]  # each record's text, shared by its repeats
    blocks = [CSV_HEADER + "\n"]
    for start in range(0, len(bits), CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        rows = zip(
            traj.steps[block].tolist(),
            readings[block].tolist(),
            traj.accepted[block].tolist(),
            traj.queries[block].tolist(),
        )
        fields = tuple(itertools.chain.from_iterable(rows))
        blocks.append("%d,%s,%d,%d\n" * (len(fields) // 4) % fields)
    _write_atomic(path, "".join(blocks))


def cell_hash(cell_cfg: dict) -> str:
    """Stable short id for a cell: sha256 of its canonical JSON."""
    canonical = json.dumps(cell_cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def expand_cells(cfg: dict) -> list[tuple[dict, dict]]:
    """All (cell config, axis values) combinations of the sweep section.

    Axis order is d, k, tau, advantage, votes; the cell config is the base
    config with the axis values substituted and no sweep section, validated
    and so normalized like any config, and the axis values are read back
    from it.  Raises ConfigError for the first cell that does not validate.
    """
    sweep = cfg.get("sweep", {}) or {}
    base = {key: copy.deepcopy(val) for key, val in cfg.items() if key != "sweep"}
    names = [name for name, _ in SWEEP_AXES if name in sweep]
    value_lists = [sweep[name] for name in names]
    keys = [dict(SWEEP_AXES)[name] for name in names]
    cells = []
    for combo in itertools.product(*value_lists):
        cell_cfg = copy.deepcopy(base)
        for (section, key), value in zip(keys, combo):
            cell_cfg[section][key] = value
        cell_cfg = validate_config(cell_cfg)
        axes = {name: cell_cfg[section][key] for name, (section, key) in zip(names, keys)}
        cells.append((cell_cfg, axes))
    return cells


def run_to_csv(cell: dict, seed: int, out_dir: str | Path) -> dict:
    """run_one, with the trajectory written to <out_dir>/<cell-hash>/<seed>.csv;
    returns the summary JSON with that path under "csv"."""
    traj, summary = run_one(cell, seed)
    path = Path(out_dir) / cell_hash(summary.config["run"]) / f"{seed}.csv"
    write_trajectory_csv(traj, path)
    return {**summary.to_json(), "csv": str(path)}


def _sweep_worker(args: tuple[dict, int, str]) -> dict:
    cell_cfg, seed, out_dir = args
    try:
        return run_to_csv(cell_cfg, seed, out_dir)
    except Exception as exc:  # recorded per-run; the sweep continues
        return {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def _collect(future: Future, seed: int) -> dict:
    """A pooled run's result, or its error row when a worker process died:
    a dead worker breaks the pool and loses every run not yet finished."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        return future.result()
    except BrokenProcessPool as exc:
        return {"seed": seed, "error": f"BrokenProcessPool: {exc}"}


def _stat(values: list) -> dict:
    """The one mean/SE rule, for the sweep aggregate and the acceptance suite.

    values as given, count of the non-None ones, their mean, and stderr =
    std(ddof=1) / sqrt(count); stderr is 0.0 for one value, and mean and
    stderr are None for none.
    """
    present = [v for v in values if v is not None]
    out = {"values": values, "count": len(present)}
    if present:
        arr = np.asarray(present, dtype=np.float64)
        out["mean"] = float(arr.mean())
        out["stderr"] = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    else:
        out["mean"] = None
        out["stderr"] = None
    return out


def run_sweep(cfg: dict, out_dir: str | Path, workers: int = 1) -> dict:
    """Run every (cell, seed) combination, write per-run CSVs and the
    aggregate JSON, and return the aggregate.

    Layout: <out_dir>/<cell-hash>/<seed>.csv and <out_dir>/aggregate.json.
    Runs derive their randomness from (cell config, seed) alone, so each CSV
    equals what run_one (and `ncrs run`) gives that cell and seed, and the
    aggregate depends only on (plan, seeds), identical for any worker count.
    A run that fails, or is lost with a worker process that died, gets an
    error row and leaves no CSV; the aggregate is written all the same.
    """
    _require(_is_int(workers) and workers >= 1, "workers must be a positive integer")
    cfg = validate_config(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = list(cfg.get("sweep", {}).get("seeds", [1, 2, 3, 4, 5]))
    cells = expand_cells(cfg)

    jobs = [(cell_cfg, seed, str(out_dir)) for cell_cfg, _ in cells for seed in seeds]

    # The executor starts all max_workers processes up front, and the bytes
    # do not depend on the worker count, so more than jobs or cores buys nothing.
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        results = [_sweep_worker(job) for job in jobs]
    else:
        from concurrent.futures.process import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_worker, job) for job in jobs]
            results = [_collect(future, job[1]) for future, job in zip(futures, jobs)]
    # A survivor may still write its CSV after another worker's death has
    # turned its row into an error, so a CSV stays only beside a clean row.
    for (cell_cfg, seed, _), row in zip(jobs, results):
        if row.get("error") is not None:
            (out_dir / cell_hash(cell_cfg) / f"{seed}.csv").unlink(missing_ok=True)

    aggregate = {
        "plan": {
            "base": {k: v for k, v in cfg.items() if k != "sweep"},
            "axes": {k: v for k, v in (cfg.get("sweep") or {}).items() if k != "seeds"},
            "seeds": seeds,
        },
        "cells": [],
    }
    idx = 0
    for cell_cfg, axes in cells:
        rows = results[idx : idx + len(seeds)]
        idx += len(seeds)
        aggregate["cells"].append(
            {
                "axes": axes,
                "cell_hash": cell_hash(cell_cfg),
                "seeds": seeds,
                "iterations_to_target": _stat([r.get("iterations_to_target") for r in rows]),
                "final_running_avg": _stat([r.get("final_running_avg") for r in rows]),
                "total_queries": _stat([r.get("total_queries") for r in rows]),
                "errors": [r.get("error") for r in rows],
            }
        )
    text = json.dumps(aggregate, sort_keys=True, indent=2) + "\n"
    _write_atomic(out_dir / "aggregate.json", text)
    return aggregate

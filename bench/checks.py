"""Output checks for one benchmark pass.

Each run of a sweep and each certificate check is one operation; it fails
when the program reports an error for it or its output does not hold up.
A pass adds one more operation for itself: exit code 0 and a readable
aggregate.  Byte identity across passes is checked by the caller, which
sees every pass.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

CSV_HEADER = "t,f,grad_norm,accepted,queries"


@dataclass
class PassCheck:
    ops: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)  # (operation, reason)
    work: int = 0  # iterations (sweeps) or Monte Carlo samples (certify)
    rows: int = 0  # logged CSV rows
    accepted: int = 0  # logged CSV rows with accepted = 1
    last_t: dict[tuple[str, int], int] = field(default_factory=dict)  # (cell, seed) -> t
    digest_input: bytes = b""  # the bytes that must repeat across passes

    def fail(self, op: str, reason: str) -> None:
        self.failures.append((op, reason))

    @property
    def failed_ops(self) -> int:
        return len({op for op, _ in self.failures})


def queries_per_iteration(cfg: dict, axes: dict) -> int:
    """Oracle (or value) queries each algorithm makes per iteration."""
    kind = cfg["algorithm"]["kind"]
    if kind == "ncrs":
        return 1
    if kind == "ncrs_vote":
        return int(axes.get("votes", cfg["algorithm"]["votes"]))
    return 2  # rsgf: two value queries


def read_csv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text().splitlines()
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def check_sweep(
    out_dir: Path, stdout_path: Path, exit_code: int, cfg: dict, needs_target: bool
) -> PassCheck:
    """Check one `ncrs sweep` call: aggregate, every CSV, every target."""
    result = PassCheck(ops=1)
    tag = f"sweep {out_dir.name}"
    if exit_code != 0:
        result.fail(tag, f"exit code {exit_code}")
    agg_path = out_dir / "aggregate.json"
    try:
        agg_bytes = agg_path.read_bytes()
        aggregate = json.loads(agg_bytes)
        printed = json.loads(stdout_path.read_text())
    except (OSError, ValueError) as exc:
        result.fail(tag, f"unreadable aggregate ({exc})")
        return result
    result.digest_input = agg_bytes
    if printed != aggregate:
        result.fail(tag, "stdout JSON differs from aggregate.json")
    seeds = cfg["sweep"]["seeds"]
    n_cells = 1
    for axis, values in cfg["sweep"].items():
        if axis != "seeds":
            n_cells *= len(values)
    if len(aggregate.get("cells", [])) != n_cells:
        result.fail(tag, f"{len(aggregate.get('cells', []))} cells, expected {n_cells}")
    horizon = cfg["algorithm"]["horizon"]
    for cell in aggregate.get("cells", []):
        chash = cell["cell_hash"]
        per_iter = queries_per_iteration(cfg, cell["axes"])
        if cell["seeds"] != seeds:
            result.fail(tag, f"cell {chash} has seeds {cell['seeds']}, expected {seeds}")
        for i, seed in enumerate(seeds):
            result.ops += 1
            run = f"{tag} cell {chash} seed {seed}"
            if i >= len(cell["errors"]):
                result.fail(run, "missing from aggregate")
                continue
            if cell["errors"][i] is not None:
                result.fail(run, f"error {cell['errors'][i]}")
            if needs_target and cell["iterations_to_target"]["values"][i] is None:
                result.fail(run, "target not reached")
            csv_path = out_dir / chash / f"{seed}.csv"
            if not csv_path.is_file():
                result.fail(run, f"no CSV at {csv_path}")
                continue
            header, rows = read_csv(csv_path)
            if header != CSV_HEADER:
                result.fail(run, f"CSV header {header!r}")
                continue
            try:
                last_t, last_queries = int(rows[-1][0]), int(rows[-1][4])
                accepted = sum(int(row[3]) for row in rows)
            except (IndexError, ValueError) as exc:
                result.fail(run, f"malformed CSV ({exc})")
                continue
            total = cell["total_queries"]["values"][i]
            # The last logged t is the horizon exactly when the run made
            # horizon * per_iter queries and logged its final iteration.
            if last_queries != total or last_t * per_iter != total:
                result.fail(
                    run,
                    f"last t {last_t} with {last_queries} queries, "
                    f"aggregate total {total} at {per_iter} per iteration",
                )
            if horizon != "auto" and last_t != horizon:
                result.fail(run, f"last t {last_t} != horizon {horizon}")
            result.last_t[(chash, seed)] = last_t
            result.work += last_t
            result.rows += len(rows)
            result.accepted += accepted
    return result


def check_validate(stdout_path: Path, exit_code: int) -> PassCheck:
    """Check one `ncrs validate` call: every certificate passes."""
    result = PassCheck(ops=1)
    tag = "validate"
    if exit_code != 0:
        result.fail(tag, f"exit code {exit_code}")
    try:
        text = stdout_path.read_bytes()
        reports = json.loads(text)
    except (OSError, ValueError) as exc:
        result.fail(tag, f"unreadable report ({exc})")
        return result
    result.digest_input = text
    if not reports:
        result.fail(tag, "no checks reported")
    for report in reports:
        result.ops += 1
        result.work += int(report["n_samples"])
        if not report["passed"]:
            result.fail(f"check {report['name']}", "failed")
    return result

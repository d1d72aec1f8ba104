"""Tests of the benchmark's own logic: span arithmetic, wrapper removal,
output checks, and agreement between BENCHMARK.json and bench/run.py.

Run with ``PYTHONPATH=src python3 -m pytest bench``.
"""
import json
from pathlib import Path

import pytest

import checks
import layertrace
import run as bench_run
from ncrs import cli
from ncrs.harness import load_config

ROOT = Path(__file__).resolve().parent.parent

SWEEP_YAML = """\
problem:
  d: 12
  k: 3
algorithm:
  horizon: 200
sweep:
  d: [12, 16]
  seeds: [1, 2]
"""


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return float(next(self.ticks))


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 5] and d [6, 9]; b holds c [2, 4].
    tracer = layertrace.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 9, 10]))
    tracer.enter("cli.a")
    tracer.enter("harness.b")
    tracer.enter("objectives.c")
    tracer.exit()
    tracer.exit(coarse=True)
    tracer.enter("geometry.d")
    tracer.exit()
    tracer.exit(coarse=True)

    assert tracer.stack == []
    assert tracer.fine[("objectives.c", "harness.b")] == [1, 2.0, 2.0]
    assert tracer.fine[("geometry.d", "cli.a")] == [1, 3.0, 3.0]
    b, a = tracer.coarse
    assert (b["name"], b["parent"], b["self"]) == ("harness.b", "cli.a", 2.0)
    assert (a["name"], a["parent"], a["self"]) == ("cli.a", None, 3.0)
    dump = tracer.dump()
    total_self = sum(f["self"] for f in dump["fine"]) + sum(c["self"] for c in dump["coarse"])
    assert total_self == a["end"] - a["start"]  # self times tile the root span


def test_fine_spans_fold_repeated_calls_per_parent():
    tracer = layertrace.Tracer(clock=FakeClock(range(100)))
    tracer.enter("algorithms.loop")
    for _ in range(3):
        tracer.enter("objectives.value")
        tracer.exit()
    tracer.exit(coarse=True)
    tracer.enter("objectives.value")
    tracer.exit()
    assert tracer.fine[("objectives.value", "algorithms.loop")] == [3, 3.0, 3.0]
    assert tracer.fine[("objectives.value", None)] == [1, 1.0, 1.0]
    assert tracer.coarse[0]["self"] == 7.0 - 3.0


def test_untraced_code_sees_the_original_functions():
    originals = [getattr(owner, attr) for owner, attr, *_ in layertrace.targets()]
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        wrapped = [getattr(owner, attr) for owner, attr, *_ in layertrace.targets()]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    restored = [getattr(owner, attr) for owner, attr, *_ in layertrace.targets()]
    assert all(r is o for r, o in zip(restored, originals))

    before = tracer.dump()
    assert cli.main(["params", "--epsilon", "0.1", "--smoothness", "1", "--intrinsic-dim", "4",
                     "--value-gap", "10", "--margin-slope", "1", "--second-moment", "1",
                     "--margin-at-radius", "0.5"]) == 0
    assert tracer.dump() == before  # nothing recorded once the wrappers are gone


@pytest.fixture
def sweep_dir(tmp_path, capsys):
    """A tiny traced sweep: its config, output directory and trace dump."""
    config = tmp_path / "sweep.yaml"
    config.write_text(SWEEP_YAML)
    out = tmp_path / "out"
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        code = cli.main(["sweep", "--config", str(config), "--out", str(out), "--workers", "1"])
    finally:
        tracer.uninstall()
    stdout = tmp_path / "stdout.json"
    stdout.write_text(capsys.readouterr().out)
    assert code == 0
    return load_config(config), out, stdout, tracer.dump()


def test_traced_sweep_counts_each_layer(sweep_dir):
    cfg, out, stdout, dump = sweep_dir
    m = layertrace.layer_metrics(dump)
    assert m["harness.runs"] == 4 and m["harness.runs_failed"] == 0
    assert m["algorithms.iters"] == 4 * 200
    assert m["oracles.queries"] == m["algorithms.iters"]  # one sign query per iteration
    assert m["oracles.calls"] == m["algorithms.iters"]
    assert m["geometry.gaussian_calls"] >= m["algorithms.iters"]  # one direction each
    assert m["objectives.value_calls"] > 0 and m["objectives.gradient_calls"] > 0
    assert m["harness.csv_bytes"] == sum(p.stat().st_size for p in out.glob("*/*.csv"))
    assert m["harness.validate_calls"] >= 1 + 4  # the sweep, then each run
    assert m["diagnostics.samples"] == 0


def test_output_checks_pass_on_a_clean_sweep(sweep_dir):
    cfg, out, stdout, _ = sweep_dir
    result = checks.check_sweep(out, stdout, 0, cfg, needs_target=False)
    assert result.failures == []
    assert result.ops == 1 + 4
    assert result.work == 4 * 200


def test_output_checks_flag_a_truncated_csv(sweep_dir):
    cfg, out, stdout, _ = sweep_dir
    csv = sorted(out.glob("*/2.csv"))[0]
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(lines[:-1]) + "\n")  # drop the last iteration
    result = checks.check_sweep(out, stdout, 0, cfg, needs_target=False)
    assert result.failed_ops == 1
    assert "last t 199" in result.failures[0][1]


def test_output_checks_flag_a_bad_csv_header(sweep_dir):
    cfg, out, stdout, _ = sweep_dir
    csv = sorted(out.glob("*/1.csv"))[0]
    csv.write_text(csv.read_text().replace("grad_norm", "gradnorm", 1))
    result = checks.check_sweep(out, stdout, 0, cfg, needs_target=False)
    assert result.failed_ops == 1
    assert "header" in result.failures[0][1]


def test_output_checks_flag_a_corrupted_aggregate(sweep_dir):
    cfg, out, stdout, _ = sweep_dir
    clean = checks.check_sweep(out, stdout, 0, cfg, needs_target=True)
    agg_path = out / "aggregate.json"
    aggregate = json.loads(agg_path.read_text())
    aggregate["cells"][0]["errors"][1] = "RuntimeError: boom"
    aggregate["cells"][1]["total_queries"]["values"][0] += 1
    agg_path.write_text(json.dumps(aggregate, sort_keys=True, indent=2) + "\n")
    result = checks.check_sweep(out, stdout, 0, cfg, needs_target=True)
    ops = {op for op, _ in result.failures}
    assert len(ops) == 3  # the pass (stdout differs) and two runs
    assert result.digest_input != clean.digest_input

    agg_path.write_text("{not json")
    result = checks.check_sweep(out, stdout, 0, cfg, needs_target=True)
    assert result.failed_ops == 1 and "unreadable" in result.failures[0][1]


def test_output_checks_flag_a_missed_target(sweep_dir):
    cfg, out, stdout, _ = sweep_dir
    agg_path = out / "aggregate.json"
    aggregate = json.loads(agg_path.read_text())
    aggregate["cells"][0]["iterations_to_target"]["values"][0] = None
    agg_path.write_text(json.dumps(aggregate))
    stdout.write_text(json.dumps(aggregate))
    result = checks.check_sweep(out, stdout, 0, cfg, needs_target=True)
    assert [reason for _, reason in result.failures] == ["target not reached"]


def test_validate_check_counts_failed_certificates(tmp_path):
    path = tmp_path / "validate.json"
    path.write_text(json.dumps([
        {"name": "a", "passed": True, "n_samples": 10},
        {"name": "b", "passed": False, "n_samples": 5},
    ]))
    result = checks.check_validate(path, 1)
    assert result.ops == 3 and result.work == 15
    assert result.failed_ops == 2  # exit code and check b


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER
    assert spec["paths"] == ["bench"]

import copy
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import NUMPY_TARGETS, pin_pairs, pinned, src_env
from numpy.testing import assert_allclose

from ncrs import harness
from ncrs.algorithms import Trajectory, constant_schedule, ncrs_run, theory_schedule
from ncrs.cli import main
from ncrs.objectives import NuisanceSpec
from ncrs.oracles import SignOracle
from ncrs.harness import (
    CSV_BLOCK_ROWS,
    CSV_HEADER,
    ConfigError,
    apply_overrides,
    cell_hash,
    default_config,
    expand_cells,
    fit_scaling,
    iterations_to_target,
    load_config,
    read_config,
    run_one,
    run_sweep,
    running_average,
    validate_config,
    write_trajectory_csv,
)


def _tiny_config(**algorithm):
    cfg = default_config()
    cfg["problem"].update(d=12, k=3)
    cfg["algorithm"]["horizon"] = 300
    cfg["algorithm"].update(**algorithm)
    return cfg


def _synthetic_traj(steps, grad_norms):
    n = len(steps)
    return Trajectory(
        steps=np.asarray(steps, dtype=np.int64),
        values=np.zeros(n),
        grad_norms=np.asarray(grad_norms, dtype=np.float64),
        accepted=np.ones(n, dtype=bool),
        queries=np.arange(1, n + 1, dtype=np.int64),
        theta_final=np.zeros(3),
    )


class TestValidateConfig:
    def test_empty_gives_defaults(self):
        cfg = validate_config({})
        assert cfg == default_config()

    def test_partial_merge(self):
        cfg = validate_config({"problem": {"d": 80}})
        assert cfg["problem"]["d"] == 80
        assert cfg["problem"]["k"] == 5

    @pytest.mark.parametrize("raw,fragment", [
        ({"problem": {"dd": 3}}, "problem.dd"),
        ({"algorithm": {"learning_rate": 0.1}}, "algorithm.learning_rate"),
        ({"bogus": {}}, "bogus"),
        ({"sweep": {"alpha": [0.1]}}, "sweep.alpha"),
    ])
    def test_unknown_keys_are_named(self, raw, fragment):
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            validate_config(raw)

    @pytest.mark.parametrize("raw", [
        {"problem": {"d": 0}},
        {"problem": {"d": 2.5}},
        {"problem": {"d": True}},
        {"problem": {"k": 9, "d": 4}},
        {"problem": {"tau": 0.2}},  # nuisance_dim still 0
        {"problem": {"tau": 0.2, "nuisance_dim": 46, "d": 50, "k": 5}},
        {"problem": {"inner": "cubic"}},
        {"problem": {"frequency": 0}},
        {"oracle": {"advantage": 0.0}},
        {"oracle": {"advantage": 0.8}},
        {"oracle": {"kind": "psychic"}},
        {"oracle": {"scale": -1}},
        {"algorithm": {"kind": "sgd"}},
        {"algorithm": {"kind": "ncrs"}, "oracle": {"kind": "engage_abstain"}},
        {"algorithm": {"kind": "ncrs_vote"}},  # oracle stays sign
        {"algorithm": {"kind": "ncrs_vote", "horizon": "auto"},
         "oracle": {"kind": "engage_abstain"}},
        {"algorithm": {"horizon": 0}},
        {"algorithm": {"horizon": 10.5}},
        {"algorithm": {"votes": 0}},
        {"algorithm": {"mu": 0}},
        {"algorithm": {"alpha": "auto"}},  # only rsgf may ask for auto alpha
        {"algorithm": {"alpha0": "auto", "schedule": "constant"}},
        {"algorithm": {"schedule": "cosine_decay"}},  # rates left at 0
        {"algorithm": {"schedule": "cosine_decay", "max_rate": 0.1,
                       "min_rate": 0.2, "decay_steps": 5}},
        {"target": {"kind": "speed"}},
        {"target": {"value": 0}},
        {"sweep": {"seeds": [1, -2]}},
        {"sweep": {"seeds": [1, 1]}},
        {"sweep": {"k": 5}},  # axis must be a list
        {"sweep": 3},
        {"problem": "fast"},
        {"problem": {"amplitude": 10**400}},  # beyond float range
        {"problem": {"d": "1e3"}},  # exponent strings are read only for reals
        {"algorithm": {"mu": "nan"}},
        {"algorithm": {"max_rate": "abc"}},  # checked under any schedule
        {"algorithm": {"min_rate": -5.0}},
        {"algorithm": {"decay_steps": "x"}},
        {"problem": {"d": 10**30}},  # int keys have a ceiling
        {"problem": {"k": 10**7}},
        {"problem": {"nuisance_dim": 10**7}},
        {"algorithm": {"horizon": harness.MAX_HORIZON + 1}},
        {"algorithm": {"votes": 10**7}},
        {"algorithm": {"decay_steps": harness.MAX_HORIZON + 1}},
        {"sweep": {"tau": ["x"]}},  # axis values are checked like the key
        {"sweep": {"seeds": [0, 2**64]}},  # 2**64 would replay seed 0
        {"sweep": {"seeds": [1.5]}},
        {"sweep": {"seeds": []}},  # would run no run
        {"sweep": {"d": []}},  # would make no cell
        {"sweep": {"votes": [1, 64]}},  # ncrs never reads votes
        {"algorithm": {"kind": "ncrs_vote"}, "oracle": {"kind": "noisy_engage"},
         "sweep": {"advantage": [0.1, 0.4]}},  # nor ncrs_vote advantage
        {"algorithm": {"kind": "rsgf"}, "sweep": {"advantage": [0.1, 0.4]}},
    ])
    def test_rejections(self, raw):
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError):
            validate_config([1, 2])

    def test_decay_beyond_a_given_horizon_is_rejected(self):
        raw = {"algorithm": {"schedule": "cosine_decay", "max_rate": 0.5, "min_rate": 0.01,
                             "decay_steps": 20000, "horizon": 100}}
        with pytest.raises(ConfigError, match="decay_steps=20000 <= algorithm.horizon=100"):
            validate_config(raw)
        raw["algorithm"]["decay_steps"] = 100
        assert validate_config(raw)["algorithm"]["decay_steps"] == 100

    def test_decay_beyond_an_auto_horizon_is_a_config_error(self):
        # horizon: auto resolves to 604 iterations for this cell and seed
        cfg = _tiny_config(horizon="auto", schedule="cosine_decay", max_rate=0.1,
                           min_rate=0.01, decay_steps=605)
        with pytest.raises(ConfigError, match="605 exceeds the auto algorithm.horizon=604"):
            run_one(cfg, master_seed=1)
        cfg["algorithm"]["decay_steps"] = 604
        assert run_one(cfg, master_seed=1)[1].horizon == 604

    @pytest.mark.parametrize("axis, values, repeated", [
        ("tau", [1e-3, 0.001], 0.001),
        ("tau", ["1e-3", 2e-3, 1e-3], 0.001),  # YAML 1.1 reads 1e-3 as a string
        ("d", [10, 12, 10], 10),
    ])
    def test_repeated_sweep_axis_value_is_rejected(self, axis, values, repeated):
        raw = {"problem": {"d": 10, "k": 2, "nuisance_dim": 1},
               "sweep": {axis: values, "seeds": [1]}}
        with pytest.raises(ConfigError, match=rf"sweep.{axis} .*repeated: \[{repeated}\]"):
            validate_config(raw)

    def test_a_sweep_axis_is_checked_against_its_key_and_reader(self):
        with pytest.raises(ConfigError, match=r"sweep.advantage must be real > 0 and <= 0.5"):
            validate_config({"sweep": {"advantage": [0.25, 0.9]}})
        raw = {"algorithm": {"kind": "rsgf"}, "sweep": {"advantage": [0.1, 0.4]}}
        with pytest.raises(ConfigError, match="sweep.advantage is read only by "
                           "algorithm.kind=ncrs; under rsgf"):
            validate_config(raw)
        raw = {"algorithm": {"kind": "ncrs"}, "sweep": {"votes": [1, 64]}}
        with pytest.raises(ConfigError, match="sweep.votes is read only by "
                           "algorithm.kind=ncrs_vote; under ncrs"):
            validate_config(raw)

    def test_sweep_cells_validated_upfront(self):
        raw = {"problem": {"d": 50}, "sweep": {"k": [5, 60]}}
        with pytest.raises(ConfigError, match="exceeds"):
            validate_config(raw)

    def test_valid_sweep_passes(self):
        cfg = validate_config({"sweep": {"k": [2, 4], "seeds": [1, 2]}})
        assert cfg["sweep"] == {"k": [2, 4], "seeds": [1, 2]}


class TestLoadAndOverrides:
    def test_load_yaml(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("problem:\n  d: 33\noracle:\n  advantage: 0.25\n")
        cfg = load_config(path)
        assert cfg["problem"]["d"] == 33
        assert cfg["oracle"]["advantage"] == 0.25

    def test_load_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == default_config()

    def test_read_config_does_not_validate(self, tmp_path):
        path = tmp_path / "small.yaml"
        path.write_text("problem: {d: 3}\n")
        assert read_config(path) == {"problem": {"d": 3}}
        with pytest.raises(ConfigError, match="problem.k=5 exceeds problem.d=3"):
            load_config(path)
        path.write_text("")
        assert read_config(path) == {}

    def test_overrides_repair_a_raw_mapping(self):
        out = apply_overrides({"problem": {"d": 3}}, ["problem.k=2"])
        assert out == validate_config({"problem": {"d": 3, "k": 2}})

    @pytest.mark.parametrize("root", [["problem"], "problem", 5])
    def test_overrides_on_a_non_mapping_root(self, root):
        with pytest.raises(ConfigError, match="config root must be a mapping"):
            apply_overrides(root, ["problem.k=2"])

    def test_override_scalars_and_lists(self):
        cfg = validate_config({})
        out = apply_overrides(
            cfg, ["oracle.advantage=0.125", "algorithm.mu=1e-3", "sweep.k=[2, 3]"]
        )
        assert out["oracle"]["advantage"] == 0.125
        assert out["algorithm"]["mu"] == 1e-3
        assert out["sweep"]["k"] == [2, 3]

    def test_exponent_notation_in_file(self, tmp_path):
        # YAML 1.1 reads 1e-3 (no dot) as a string
        path = tmp_path / "run.yaml"
        path.write_text("algorithm:\n  kind: rsgf\n  mu: 1e-3\n")
        mu = load_config(path)["algorithm"]["mu"]
        assert mu == 0.001 and type(mu) is float

    def test_exponent_notation_in_sweep_list(self):
        out = apply_overrides(
            validate_config({}), ["sweep.tau=[1e-3, 0.1]", "problem.nuisance_dim=2"]
        )
        taus = [cell["problem"]["tau"] for cell, _ in expand_cells(out)]
        assert taus == [0.001, 0.1]
        assert all(type(tau) is float for tau in taus)

    def test_sweep_axes_report_validated_values(self, tmp_path):
        cfg = apply_overrides(
            _tiny_config(horizon=20),
            ["sweep.tau=[1e-3, 0]", "problem.nuisance_dim=2", "sweep.seeds=[1]"],
        )
        assert [axes for _, axes in expand_cells(cfg)] == [{"tau": 0.001}, {"tau": 0.0}]
        agg = run_sweep(cfg, tmp_path)
        assert agg["plan"]["axes"] == {"tau": [0.001, 0.0]}
        assert [cell["axes"] for cell in agg["cells"]] == [{"tau": 0.001}, {"tau": 0.0}]

    def test_repeated_key_in_file_is_rejected(self, tmp_path):
        """safe_load would keep the later section: d=40 with the default k=5."""
        path = tmp_path / "run.yaml"
        path.write_text("problem: {d: 12, k: 3}\nproblem: {d: 40}\n")
        with pytest.raises(ConfigError, match="run.yaml") as exc:
            load_config(path)
        assert "repeated key 'problem'" in str(exc.value)
        path.write_text("problem:\n  d: 12\n  k: 3\n  d: 40\n")
        with pytest.raises(ConfigError, match="repeated key 'd'"):
            load_config(path)

    def test_merged_keys_may_still_be_overridden(self):
        text = "base: &p {d: 12, k: 3}\nproblem: {<<: *p, d: 20}\n"
        raw = yaml.load(text, Loader=harness._unique_key_loader())
        assert raw["problem"] == {"d": 20, "k": 3}

    def test_repeated_key_in_override_is_rejected(self):
        with pytest.raises(ConfigError, match="repeated key 'd'"):
            apply_overrides(validate_config({}), ["sweep={d: [12], d: [16]}"])

    def test_unhashable_key_is_still_a_config_error(self):
        with pytest.raises(ConfigError, match="unhashable key"):
            apply_overrides(validate_config({}), ["sweep={[1, 2]: 3}"])

    def test_override_validation(self):
        cfg = validate_config({})
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(cfg, ["oracle.advantage"])
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["oracle.advantage=0.9"])
        with pytest.raises(ConfigError, match="scalar"):
            apply_overrides(cfg, ["problem.d.x=3"])
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["=5"])


class TestRunningAverageAndTarget:
    def test_running_average(self):
        assert_allclose(running_average([2.0, 4.0, 6.0]), [2.0, 3.0, 4.0])
        assert running_average(np.array([])).size == 0

    def test_first_logged_step_at_or_below_epsilon(self):
        traj = _synthetic_traj([1, 2, 3, 4], [5.0, 3.0, 1.0, 0.5])
        # running averages 5, 4, 3, 2.375
        assert iterations_to_target(traj, 3.0) == 3
        assert iterations_to_target(traj, 5.0) == 1
        assert iterations_to_target(traj, 6.0) == 1
        assert iterations_to_target(traj, 2.375) == 4
        assert iterations_to_target(traj, 2.0) is None

    def test_reports_logged_iteration_numbers_under_subsampling(self):
        traj = _synthetic_traj([1, 11, 21], [4.0, 2.0, 0.0])
        # running averages 4, 3, 2
        assert iterations_to_target(traj, 2.5) == 21

    def test_validation(self):
        traj = _synthetic_traj([1], [1.0])
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon must be finite and positive"):
                iterations_to_target(traj, bad)


class TestFitScaling:
    def test_exact_powers(self):
        x = [5.0, 10.0, 20.0, 40.0]
        slope, _, r2 = fit_scaling([(xi, 3.0 * xi, 0.0) for xi in x])
        assert_allclose(slope, 1.0, atol=1e-12)
        assert_allclose(r2, 1.0, atol=1e-12)
        slope, _, r2 = fit_scaling([(xi, 7.0 / xi**2, 0.0) for xi in x])
        assert_allclose(slope, -2.0, atol=1e-12)
        assert_allclose(r2, 1.0, atol=1e-12)

    def test_flat_line_is_perfect_fit(self):
        slope, _, r2 = fit_scaling([(x, 2.5, 0.0) for x in (1.0, 2.0, 4.0)])
        assert_allclose(slope, 0.0, atol=1e-12)
        assert r2 == 1.0

    def test_noisy_flat(self):
        slope, _, r2 = fit_scaling([(1.0, 1.0, 0.0), (2.0, 1.2, 0.0), (4.0, 0.9, 0.0)])
        assert abs(slope) < 0.2
        assert r2 < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_scaling([(1.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            fit_scaling([(1.0, 0.0, 0.0), (2.0, 1.0, 0.0)])


class TestRunOne:
    def test_bit_deterministic(self, tmp_path):
        cfg = _tiny_config()
        traj_a, sum_a = run_one(cfg, master_seed=9)
        traj_b, sum_b = run_one(cfg, master_seed=9)
        assert np.array_equal(traj_a.theta_final, traj_b.theta_final)
        assert np.array_equal(traj_a.values, traj_b.values)
        write_trajectory_csv(traj_a, tmp_path / "a.csv")
        write_trajectory_csv(traj_b, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        a, b = sum_a.to_json(), sum_b.to_json()
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b
        json.dumps(a)  # summary must be JSON-clean

    def test_different_seed_differs(self):
        cfg = _tiny_config()
        _, sum_a = run_one(cfg, master_seed=1)
        _, sum_b = run_one(cfg, master_seed=2)
        assert sum_a.final_value != sum_b.final_value

    def test_perfect_oracle_values_never_increase(self):
        traj, _ = run_one(_tiny_config(), master_seed=3)
        assert np.all(np.diff(traj.values) <= 1e-12)

    def test_epsilon_resolution(self):
        cfg = _tiny_config()
        traj, summary = run_one(cfg, master_seed=4)
        assert_allclose(summary.epsilon, 0.25 * traj.grad_norms[0], rtol=1e-12)
        cfg["target"] = {"kind": "absolute", "value": 1.5}
        _, summary = run_one(cfg, master_seed=4)
        assert summary.epsilon == 1.5

    def test_query_budgets(self):
        _, s = run_one(_tiny_config(), master_seed=5)
        assert s.total_queries == 300
        vote_cfg = _tiny_config(kind="ncrs_vote", votes=4, horizon=100, alpha=0.05)
        vote_cfg["oracle"].update(kind="engage_abstain")
        _, s = run_one(vote_cfg, master_seed=5)
        assert s.total_queries == 400
        rsgf_cfg = _tiny_config(kind="rsgf", horizon=100, alpha="auto")
        _, s = run_one(rsgf_cfg, master_seed=5)
        assert s.total_queries == 200

    def test_auto_horizon_scales_with_advantage(self):
        cfg = _tiny_config(horizon="auto")
        cfg["oracle"]["advantage"] = 0.5
        _, strong = run_one(cfg, master_seed=6)
        cfg["oracle"]["advantage"] = 0.25
        _, weak = run_one(cfg, master_seed=6)
        # same seed, same problem: T grows exactly like 1/p^2 up to ceil
        assert strong.epsilon == weak.epsilon
        ratio = weak.horizon / strong.horizon
        assert 3.99 <= ratio <= 4.01

    def test_rsgf_warns_above_stable_step(self, caplog):
        cfg = _tiny_config(kind="rsgf", horizon=20, alpha=0.5)
        with caplog.at_level("WARNING", logger="ncrs"):
            run_one(cfg, master_seed=7)
        assert any("stable" in rec.message for rec in caplog.records)
        caplog.clear()
        cfg["algorithm"]["alpha"] = "auto"
        with caplog.at_level("WARNING", logger="ncrs"):
            run_one(cfg, master_seed=7)
        assert not caplog.records

    def test_summary_mirrors_running_average(self):
        traj, summary = run_one(_tiny_config(), master_seed=8)
        avg = running_average(traj.grad_norms)
        assert summary.final_running_avg == avg[-1]
        assert summary.iterations_to_target == iterations_to_target(traj, summary.epsilon)

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            run_one({"problem": {"d": 0}}, master_seed=0)

    @pytest.mark.parametrize("section,update", [
        ("oracle", {"advantage": 0.001}),
        ("target", {"kind": "absolute", "value": 1e-170}),  # eps**2 underflows to 0
    ])
    def test_auto_horizon_above_the_ceiling_raises(self, section, update):
        cfg = _tiny_config(horizon="auto")
        cfg[section].update(update)
        with pytest.raises(ConfigError, match="horizon=auto resolved to"):
            run_one(cfg, master_seed=6)

    def test_auto_horizon_for_a_huge_target_raises(self):
        # eps**2 is out of float range, so the budget is 0 iterations
        cfg = _tiny_config(horizon="auto")
        cfg["target"].update(kind="absolute", value=1e200)
        with pytest.raises(ConfigError, match="horizon=auto resolved to 0 iterations"):
            run_one(cfg, master_seed=6)

    def test_each_point_is_mapped_through_the_nuisance_basis_once(self, monkeypatch):
        mapped = []
        phases = NuisanceSpec.phases
        monkeypatch.setattr(
            NuisanceSpec, "phases", lambda spec, x: mapped.append(x) or phases(spec, x)
        )
        cfg = _tiny_config(horizon=1000)
        cfg["problem"].update(d=50, k=5, tau=0.1, nuisance_dim=4)
        run_one(cfg, master_seed=3)
        # once per candidate, plus four maps outside the search loop: theta1's
        # value and gradient in run_one, its read-only copy, and the final value
        assert len(mapped) == 1000 + 4

    def test_nuisance_dim_is_ignored_when_tau_is_zero(self, tmp_path):
        """The README's "(ignored when tau == 0)": such cells hash apart but
        run the pure ridge, so a tau sweep may carry one nuisance_dim."""
        rows = []
        for m in (0, 5):
            cfg = default_config()
            cfg["problem"].update(d=100, k=10, nuisance_dim=m)
            cfg["algorithm"]["horizon"] = 2000
            rows.append(harness.run_to_csv(cfg, 1, tmp_path))
        plain, ignored = (Path(row["csv"]) for row in rows)
        assert plain.parent.name != ignored.parent.name
        assert plain.read_bytes() == ignored.read_bytes()

    @pytest.mark.parametrize(
        "schedule, alpha0",
        [("constant", 0.01), ("theory_constant", 0.7), ("theory_constant", "auto")],
    )
    def test_constant_schedule_replays_ncrs_run(self, schedule, alpha0):
        """schedule: constant runs ncrs_run with constant_schedule(alpha0, T)
        and theory_constant with theory_schedule(alpha0, k, T), alpha0: auto
        being sqrt(2 gap / L), on the run's own streams, field for field."""
        cfg = validate_config(_tiny_config(schedule=schedule, alpha0=alpha0))
        traj, summary = run_one(cfg, master_seed=4)
        streams = harness._streams(4)
        objective, theta1 = harness._build_problem(cfg, streams)
        oracle = SignOracle(objective, cfg["oracle"]["advantage"], streams["oracle"])
        if schedule == "constant":
            expected = constant_schedule(alpha0, 300)
        else:
            if alpha0 == "auto":
                gap = float(objective.value(theta1)) - objective.lower_bound
                alpha0 = math.sqrt(2.0 * gap / objective.smoothness)
            expected = theory_schedule(alpha0, objective.intrinsic_dim, 300)

        def instrument(theta):
            g = objective.gradient(theta)
            return objective.value(theta), math.sqrt(g.dot(g))

        replay = ncrs_run(oracle, theta1, expected, streams["algorithm"], instrument)
        for name in ("steps", "values", "grad_norms", "accepted", "queries", "theta_final"):
            assert np.array_equal(getattr(traj, name), getattr(replay, name)), name
        assert 0 < traj.accepted.sum() < 300
        assert summary.total_queries == replay.total_queries == 300

    def test_cosine_decay_runs_with_default_alpha0(self):
        # the cosine schedule never reads alpha0, so its "auto" default stands
        cfg = _tiny_config(schedule="cosine_decay", max_rate=0.1, min_rate=0.01, decay_steps=5)
        assert validate_config(cfg)["algorithm"]["alpha0"] == "auto"
        traj, summary = run_one(cfg, master_seed=1)
        assert summary.horizon == 300 and traj.steps[-1] == 300


def _per_row_csv(traj):
    """The CSV text of traj, formatted one row and one numpy scalar at a time."""
    rows = [CSV_HEADER] + [
        f"{int(t)},{float(f):.17g},{float(g):.17g},{int(acc)},{int(q)}"
        for t, f, g, acc, q in zip(
            traj.steps, traj.values, traj.grad_norms, traj.accepted, traj.queries
        )
    ]
    return "\n".join(rows) + "\n"


class TestCsv:
    def test_format_and_round_trip(self, tmp_path):
        traj, summary = run_one(_tiny_config(), master_seed=11)
        path = tmp_path / "run.csv"
        write_trajectory_csv(traj, path)
        data = path.read_bytes()
        assert b"\r" not in data
        lines = data.decode().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(traj.steps) + 1
        cols = np.array([line.split(",") for line in lines[1:]])
        assert np.array_equal(cols[:, 0].astype(np.int64), traj.steps)
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(cols[:, 1].astype(np.float64), traj.values)
        assert np.array_equal(cols[:, 2].astype(np.float64), traj.grad_norms)
        assert set(cols[:, 3]) <= {"0", "1"}
        assert np.array_equal(cols[:, 4].astype(np.int64), traj.queries)
        recomputed = running_average(cols[:, 2].astype(np.float64))
        assert recomputed[-1] == summary.final_running_avg

    def test_rows_match_per_row_formatting_across_blocks(self, tmp_path):
        """The writer converts columns in blocks; its rows equal the rows
        formatted one numpy scalar at a time, special floats included."""
        n = 2 * CSV_BLOCK_ROWS + 1
        gen = np.random.default_rng(5)
        values = gen.standard_normal(n) * 10.0 ** gen.integers(-300, 300, n)
        values[[0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, n - 1]] = [np.nan, -0.0, np.inf, -np.inf]
        traj = Trajectory(
            steps=np.arange(1, 11 * n, 11, dtype=np.int64),
            values=values,
            grad_norms=np.abs(gen.standard_normal(n)),
            accepted=gen.random(n) < 0.5,
            queries=np.arange(n, dtype=np.int64) * 2**40,
            theta_final=np.zeros(3),
        )
        path = tmp_path / "run.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text() == _per_row_csv(traj)

    @pytest.mark.parametrize("shape", ["runs", "one_row", "all_repeat"])
    def test_only_bit_identical_readings_share_text(self, tmp_path, shape):
        """The writer reuses the previous record's text for a reading with the
        same bits, across block boundaries too; readings that are equal but
        differ in bits (0.0 and -0.0, NaNs of another sign or payload) keep
        their own text, so every row still equals the per-row formatting."""
        payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
        edges = [(0.0, 1.0), (-0.0, 1.0), (np.nan, 0.0), (-np.nan, 0.0), (payload_nan, 0.0),
                 (np.inf, -np.inf), (-np.inf, np.inf), (2.5, 0.0), (2.5, -0.0)]
        gen = np.random.default_rng(8)
        if shape == "runs":
            readings = edges + [tuple(gen.standard_normal(2)) for _ in range(20)]
            lengths = gen.integers(1, 300, len(readings))
        else:
            readings = [(np.nan, -0.0)]
            lengths = [1 if shape == "one_row" else 2 * CSV_BLOCK_ROWS + 5]
        pairs = np.repeat(np.array(readings), lengths, axis=0)
        n = len(pairs)
        if shape == "runs":
            assert n > 2 * CSV_BLOCK_ROWS  # and runs cross both block boundaries:
            bits = pairs.view(np.int64)
            for edge in (CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS):
                assert (bits[edge - 1] == bits[edge]).all()
        traj = Trajectory(
            steps=np.arange(1, n + 1, dtype=np.int64),
            values=pairs[:, 0].copy(),
            grad_norms=pairs[:, 1].copy(),
            accepted=gen.random(n) < 0.5,
            queries=np.arange(1, n + 1, dtype=np.int64),
            theta_final=np.zeros(3),
        )
        path = tmp_path / "run.csv"
        write_trajectory_csv(traj, path)
        text = path.read_text()
        assert text == _per_row_csv(traj)
        assert text.count("\n") == n + 1
        if shape == "runs":
            rows = text.splitlines()[1:]
            signed_zero = [row.split(",")[1] for row, (f, _) in zip(rows, pairs) if f == 0.0]
            assert set(signed_zero) == {"0", "-0"}

    @pytest.mark.parametrize("fail_at", ["write", "replace"])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, fail_at):
        traj, _ = run_one(_tiny_config(horizon=10), master_seed=12)
        path = tmp_path / "run.csv"
        path.write_bytes(b"old bytes\n")

        def open_then_fail(file, *args, **kwargs):
            with open(file, *args, **kwargs) as fh:
                fh.write("t,f,grad")
            raise OSError("disk full")

        def failing_replace(src, dst):
            raise OSError("rename refused")

        if fail_at == "write":
            monkeypatch.setattr(harness, "open", open_then_fail, raising=False)
        else:
            monkeypatch.setattr(harness.os, "replace", failing_replace)
        with pytest.raises(OSError):
            write_trajectory_csv(traj, path)
        assert path.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]

    def test_creates_parent_dirs(self, tmp_path):
        traj, _ = run_one(_tiny_config(horizon=10), master_seed=12)
        path = tmp_path / "deep" / "nest" / "run.csv"
        write_trajectory_csv(traj, path)
        assert path.exists()


def _digest_configs():
    ncrs = _tiny_config(horizon=300)
    ncrs["problem"].update(inner="quadratic_cosine", tau=0.1, nuisance_dim=2)
    ncrs["oracle"]["advantage"] = 0.3
    vote = _tiny_config(kind="ncrs_vote", horizon=200, votes=3, alpha=0.05)
    vote["oracle"]["kind"] = "noisy_engage"
    rsgf = _tiny_config(kind="rsgf", horizon=200, alpha="auto")
    engage = _tiny_config(kind="ncrs_vote", horizon=300, votes=4, alpha=0.1)
    engage["oracle"].update(kind="engage_abstain", link="probit")
    link = _tiny_config(kind="ncrs_vote", horizon=300, votes=3, alpha=0.1)
    link["oracle"].update(kind="deterministic_link", link="arctan")
    # long rejection streaks: 269 blocks, 255 of them won before their last row
    blocks = _tiny_config(kind="ncrs_vote", horizon=2000, votes=9, alpha=0.3)
    blocks["oracle"].update(kind="noisy_engage", link="arctan")
    return {"ncrs": ncrs, "ncrs_vote": vote, "rsgf": rsgf, "ncrs_vote_engage": engage,
            "ncrs_vote_link": link, "ncrs_vote_blocks": blocks}


# (OpenBLAS kernel, numpy SIMD target) -> run -> sha256 of its CSV bytes.
# Kernels sum products in different orders, so each pins its own bytes;
# these runs read the same bytes at every numpy target (test_kernels.py
# checks the pins of every pair this CPU can run).
CSV_DIGESTS = pin_pairs(
    (("SkylakeX",), NUMPY_TARGETS, {
        "ncrs": "e3b47e397ec41f67fa6c41d7dfbaf2f85117c623f3d2ba903060651cf86e4126",
        "ncrs_vote": "ddd4c38b02b45cc8eb61a357a2a91e94c5400cea2a038de2557bfe3b55f658bf",
        "rsgf": "638776decabf514b4f9b0f79a078c5616c54d5ae169f1401b72d5585f10bfb13",
        "ncrs_vote_engage": "ce9bddddf0175039412ad5a41c5b2c35e9135d76887642aadb028672659deb9f",
        "ncrs_vote_link": "088640b2d4da9dd426f0f48071df54c5d62d04ffe4b71bc9cc39ab4c176d2ca0",
        "ncrs_vote_blocks": "2f4885e3d442db4a39ddac609e7f194d72267958ea6b92502256b57bc48941be",
    }),
    (("Haswell", "Sandybridge"), NUMPY_TARGETS, {
        "ncrs": "a80593a8e3e12f4377fcce5e690ff07138a5a7dd4736885eb6914888ba80a685",
        "ncrs_vote": "3e47894d32e095b9e5f7b3ef81cf8d4423e66fe06e86acc991f46327d479cb83",
        "rsgf": "76abc8f1a08ce08f8570ad42446eb304765f86dd588eddff78cf26b842998b7d",
        "ncrs_vote_engage": "5f904b1fd745114ffcab1a4940d34c0d88ebcff7a0acccaebcea18b35e26789e",
        "ncrs_vote_link": "f7404dff1a4412255c4ee7afe65ab7ab26edd5b0e1ea4c52549ed765bf02fe32",
        "ncrs_vote_blocks": "24cfe0d87187503d6ca290117cd87c549049e22781a604ff3b5cd90ce0584bd1",
    }),
    (("Prescott",), NUMPY_TARGETS, {
        "ncrs": "a5300118dfdb5b5451f70d5d8e6bd66632856b47a215d6f767becd6a22467d42",
        "ncrs_vote": "19cc47e1b1a63c9afaf0292c41546984a67546d727d5a5ee7f12ecab70eca8b9",
        "rsgf": "82d3e079ddc18b2e88dc9aee242942651a145f3b78e5754dff006f35947cc4a5",
        "ncrs_vote_engage": "566fab601eee48d82b8ecbefe362579632eccef8b39b5a78045a1a5450a92128",
        "ncrs_vote_link": "449ba171f8de5da49ff438f31fce24efe14c5f64aad6dd9e301c3ea6b3a5b543",
        "ncrs_vote_blocks": "cb8968d1f59903b6bb0b6ae9612a843020147ab6e4b6a834dabfa8027b1e932e",
    }),
)


def csv_digest(name, directory):
    """sha256 of the CSV bytes of the digest run `name`, written in directory."""
    traj, _ = run_one(_digest_configs()[name], master_seed=3)
    path = directory / "run.csv"
    write_trajectory_csv(traj, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCsvDigests:
    """Pin the exact CSV bytes of one small run per algorithm and of three
    more vote runs: one per other confidence model, and a long noisy_engage
    run whose rejection streaks are answered in blocks, many won before
    their last row.

    The ncrs config draws from all five streams (its tau > 0 adds the
    nuisance term).  A digest changes only when a run's bytes change, so
    an intended change re-pins it and says why.  The pin is the running
    pair's (OpenBLAS kernel, numpy SIMD target); a pair with no pin fails
    and is named.
    """

    @pytest.mark.parametrize("name", list(_digest_configs()))
    def test_run_one_csv_bytes(self, tmp_path, name, simd_pair):
        assert csv_digest(name, tmp_path) == pinned(CSV_DIGESTS, simd_pair)[name], (
            "OpenBLAS kernel {}, numpy target {}".format(*simd_pair))


class TestCellsAndHashes:
    def test_expand_cells_order(self):
        cfg = validate_config({"sweep": {"d": [10, 20], "k": [2, 3]}})
        cells = expand_cells(cfg)
        assert [c[1] for c in cells] == [
            {"d": 10, "k": 2}, {"d": 10, "k": 3},
            {"d": 20, "k": 2}, {"d": 20, "k": 3},
        ]
        assert all("sweep" not in c[0] for c in cells)
        assert cells[0][0]["problem"]["d"] == 10
        assert cells[3][0]["problem"]["k"] == 3

    def test_no_sweep_gives_single_cell(self):
        cells = expand_cells(validate_config({}))
        assert len(cells) == 1
        assert cells[0][1] == {}

    def test_cell_hash_stability(self):
        a = validate_config({"problem": {"d": 30}})
        b = validate_config({"problem": {"d": 30}})
        c = validate_config({"problem": {"d": 31}})
        assert cell_hash(a) == cell_hash(b)
        assert cell_hash(a) != cell_hash(c)
        assert len(cell_hash(a)) == 12
        int(cell_hash(a), 16)

    def test_int_and_float_values_hash_alike(self):
        default = cell_hash(validate_config({}))
        assert default == "eaad7e6c3133"
        overridden = apply_overrides(validate_config({}), ["problem.tau=0"])
        assert type(overridden["problem"]["tau"]) is float
        assert cell_hash(overridden) == default
        [(cell_cfg, _)] = expand_cells(validate_config({"sweep": {"tau": [0]}}))
        assert type(cell_cfg["problem"]["tau"]) is float
        assert cell_hash(cell_cfg) == default


class TestRunSweep:
    def _sweep_config(self):
        cfg = _tiny_config(horizon=200)
        cfg["sweep"] = {"k": [2, 3], "seeds": [1, 2]}
        return cfg

    def test_layout_and_stats(self, tmp_path):
        agg = run_sweep(self._sweep_config(), tmp_path)
        assert (tmp_path / "aggregate.json").exists()
        assert len(agg["cells"]) == 2
        for cell in agg["cells"]:
            assert cell["seeds"] == [1, 2]
            assert cell["errors"] == [None, None]
            stats = cell["final_running_avg"]
            assert stats["count"] == 2
            assert stats["mean"] is not None and stats["stderr"] is not None
            assert len(stats["values"]) == 2
            for seed in (1, 2):
                assert (tmp_path / cell["cell_hash"] / f"{seed}.csv").exists()
        assert agg["plan"]["axes"] == {"k": [2, 3]}

    def test_worker_count_does_not_change_results(self, tmp_path):
        cfg = self._sweep_config()
        run_sweep(cfg, tmp_path / "serial", workers=1)
        run_sweep(cfg, tmp_path / "parallel", workers=2)
        a = (tmp_path / "serial" / "aggregate.json").read_bytes()
        b = (tmp_path / "parallel" / "aggregate.json").read_bytes()
        assert a == b
        for csv_path in sorted((tmp_path / "serial").rglob("*.csv")):
            twin = tmp_path / "parallel" / csv_path.relative_to(tmp_path / "serial")
            assert csv_path.read_bytes() == twin.read_bytes()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core runs no pool")
    def test_pooled_sweep_in_a_fresh_interpreter(self, tmp_path):
        """The pool is imported on the first pooled sweep: a two-worker sweep
        in an interpreter that has imported nothing else writes the bytes of
        the one-worker sweep.  This module imports the pool itself, so only a
        fresh interpreter sees a deferred import that is missing."""
        cfg = self._sweep_config()
        run_sweep(cfg, tmp_path / "serial", workers=1)
        script = (
            "import json, sys\n"
            "from ncrs.harness import run_sweep\n"
            "run_sweep(json.loads(sys.argv[1]), sys.argv[2], workers=2)\n"
            "print('concurrent.futures.process' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(cfg), str(tmp_path / "pooled")],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"  # the sweep ran on the pool

        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        serial = tree(tmp_path / "serial")
        assert len(serial) == 5  # aggregate.json and 4 CSVs
        assert tree(tmp_path / "pooled") == serial

    def test_cell_csv_is_independent_of_sweep_layout(self, tmp_path):
        # the advantage=0.5 cell at seed 2 sits at a different position in
        # each sweep, and ncrs run knows no sweep at all
        cfg = _tiny_config()
        cfg["sweep"] = {"advantage": [0.25, 0.5], "seeds": [1, 2]}
        run_sweep(cfg, tmp_path / "two_cells")
        cfg["sweep"] = {"advantage": [0.5], "seeds": [1, 2]}
        run_sweep(cfg, tmp_path / "one_cell")
        cell = _tiny_config()
        cell["oracle"]["advantage"] = 0.5
        config_path = tmp_path / "cell.yaml"
        config_path.write_text(yaml.safe_dump(cell))
        assert main(["run", "--config", str(config_path), "--seed", "2",
                     "--out", str(tmp_path / "run")]) == 0
        rel = Path(cell_hash(validate_config(cell))) / "2.csv"
        expected = (tmp_path / "run" / rel).read_bytes()
        assert (tmp_path / "two_cells" / rel).read_bytes() == expected
        assert (tmp_path / "one_cell" / rel).read_bytes() == expected

    def test_default_seed_roster(self, tmp_path):
        cfg = _tiny_config(horizon=50)
        cfg["sweep"] = {"k": [2]}
        agg = run_sweep(cfg, tmp_path)
        assert agg["plan"]["seeds"] == [1, 2, 3, 4, 5]
        assert agg["cells"][0]["iterations_to_target"]["count"] <= 5

    def test_empty_axis_is_rejected(self, tmp_path):
        """An empty axis would make a sweep of no cell that still reports success."""
        cfg = _tiny_config(horizon=50)
        cfg["sweep"] = {"k": [], "seeds": [1]}
        with pytest.raises(ConfigError, match="sweep.k must not be empty"):
            run_sweep(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_runtime_failures_are_recorded_not_raised(self, tmp_path):
        # valid at config time, impossible at run time: decay longer than the
        # horizon that auto resolves to (604 iterations for both seeds)
        cfg = _tiny_config(
            horizon="auto", schedule="cosine_decay", alpha0=1.0,
            max_rate=0.1, min_rate=0.01, decay_steps=1000,
        )
        cfg["sweep"] = {"seeds": [1, 2]}
        agg = run_sweep(cfg, tmp_path)
        cell = agg["cells"][0]
        assert all(err and "decay_steps" in err for err in cell["errors"])
        assert cell["iterations_to_target"]["count"] == 0
        assert cell["iterations_to_target"]["mean"] is None

    def test_failed_aggregate_write_keeps_old_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("rename refused")

        (tmp_path / "aggregate.json").write_bytes(b"{}\n")
        monkeypatch.setattr(harness.os, "replace", failing_replace)
        with pytest.raises(OSError):
            run_sweep(self._sweep_config(), tmp_path)
        assert (tmp_path / "aggregate.json").read_bytes() == b"{}\n"
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["aggregate.json"]

    def test_worker_validation(self, tmp_path, monkeypatch):
        with pytest.raises(ConfigError):
            run_sweep(self._sweep_config(), tmp_path, workers=0)

        def no_pool(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", no_pool)
        for bad in (1.5, True, "2", None):
            with pytest.raises(ConfigError, match="workers must be a positive integer"):
                run_sweep(self._sweep_config(), tmp_path / "bad", workers=bad)
        assert not (tmp_path / "bad").exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers inherit the patched run_to_csv only when forked")
    def test_a_dead_worker_costs_only_the_runs_it_takes_down(self, tmp_path, monkeypatch):
        """A worker that dies mid-run breaks the pool: the runs lost with it
        get error rows, the finished ones keep theirs, aggregate.json is
        written, and the sweep exits 1."""
        real = harness.run_to_csv

        def dying(cell, seed, out_dir):
            if seed == 2:
                os._exit(3)
            return real(cell, seed, out_dir)

        monkeypatch.setattr(harness, "run_to_csv", dying)  # before the pool forks
        config = tmp_path / "sweep.yaml"
        config.write_text(yaml.safe_dump(self._sweep_config()))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out), "--workers", "2"]) == 1
        aggregate = json.loads((out / "aggregate.json").read_text())
        for cell in aggregate["cells"]:
            survivor, dead = cell["errors"]  # seeds 1 and 2
            assert survivor is None or survivor.startswith("BrokenProcessPool: ")
            assert dead.startswith("BrokenProcessPool: ")
            assert (out / cell["cell_hash"] / "1.csv").exists() == (survivor is None)
            assert not (out / cell["cell_hash"] / "2.csv").exists()

    def test_a_run_lost_after_writing_its_csv_leaves_none(self, tmp_path, monkeypatch):
        """A run whose CSV was written but whose result was lost to a broken
        pool, as a survivor's can be when another worker dies, gets an error
        row and no CSV; the executor here is a fake that runs jobs inline."""

        class BreakingExecutor:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, job):
                future = Future()
                result = fn(job)  # writes the run's CSV
                if job[1] == 2:
                    future.set_exception(BrokenProcessPool("a worker died"))
                else:
                    future.set_result(result)
                return future

        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", BreakingExecutor)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        out = tmp_path / "out"
        aggregate = run_sweep(self._sweep_config(), out, workers=2)
        for cell in aggregate["cells"]:
            assert cell["errors"] == [None, "BrokenProcessPool: a worker died"]  # seeds 1, 2
            assert (out / cell["cell_hash"] / "1.csv").exists()
            assert not (out / cell["cell_hash"] / "2.csv").exists()

    def test_pool_is_capped_by_jobs_and_cores(self, tmp_path, monkeypatch):
        """A huge --workers starts no more processes than jobs or cores; the
        executor here is a fake that records its size and runs jobs inline."""
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, job):
                future = Future()
                future.set_result(fn(job))
                return future

        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", InlineExecutor)
        cfg = self._sweep_config()  # 2 cells x 2 seeds = 4 jobs
        serial = run_sweep(cfg, tmp_path / "serial")
        for cores in (64, 3, 1, None):
            monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
            assert run_sweep(cfg, tmp_path / f"cores-{cores}", workers=100_000) == serial
        assert sizes == [4, 3]

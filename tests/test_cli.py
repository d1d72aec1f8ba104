import json
import subprocess
import sys
from importlib.metadata import PathDistribution
from pathlib import Path

import pytest
from conftest import src_env

from ncrs.cli import build_parser, main
from ncrs.diagnostics import CheckReport


BASE_YAML = """\
problem:
  d: 12
  k: 3
algorithm:
  horizon: 200
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(BASE_YAML)
    return path


def _stdout_json(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("run", "sweep", "validate", "params"):
            assert name in out

    @pytest.mark.parametrize("argv,expected", [
        (["run", "--config", "c.yaml"],
         {"command": "run", "config": "c.yaml", "seed": 0, "out": "runs", "overrides": []}),
        (["run", "--config", "c.yaml", "--seed", "7", "--out", "o",
          "--set", "a.b=1", "--set", "c=2"],
         {"command": "run", "config": "c.yaml", "seed": 7, "out": "o",
          "overrides": ["a.b=1", "c=2"]}),
        (["sweep", "--config", "c.yaml"],
         {"command": "sweep", "config": "c.yaml", "out": "runs", "workers": 1,
          "overrides": []}),
        (["sweep", "--set", "x=1", "--config", "c.yaml", "--workers", "3", "--out", "o"],
         {"command": "sweep", "config": "c.yaml", "out": "o", "workers": 3,
          "overrides": ["x=1"]}),
        (["validate"], {"command": "validate", "scale": 1.0, "seed": 0}),
        (["validate", "--scale", "0.1", "--seed", "5"],
         {"command": "validate", "scale": 0.1, "seed": 5}),
    ])
    def test_parsed_arguments(self, argv, expected):
        assert vars(build_parser().parse_args(argv)) == expected

    def test_set_default_is_not_shared_between_parses(self):
        parser = build_parser()
        parser.parse_args(["run", "--config", "c.yaml", "--set", "a=1"])
        assert parser.parse_args(["sweep", "--config", "c.yaml"]).overrides == []

    def test_console_script_registered(self, tmp_path):
        # The test command runs from src/ without an install, so the
        # interpreter's installed metadata says nothing about this checkout:
        # build it from pyproject.toml into tmp_path and read that.
        pytest.importorskip("setuptools")
        repo_root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "egg_info", "--egg-base", str(tmp_path)],
            cwd=repo_root, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        dist = PathDistribution(tmp_path / "ncrs.egg-info")
        matches = [
            ep for ep in dist.entry_points.select(group="console_scripts")
            if ep.name == "ncrs"
        ]
        assert len(matches) == 1
        assert matches[0].value == "ncrs.cli:main"

    def test_import_leaves_scipy_out(self):
        """The command line starts on numpy and the standard library alone:
        importing it in a fresh interpreter loads no scipy module."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ncrs.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_validate_and_params_leave_yaml_and_the_pool_out(self, config_path):
        """A command pays only for what it runs: in a fresh interpreter,
        `validate` and `params` load no PyYAML, multiprocessing or process
        pool module, and the first config read loads PyYAML."""
        script = (
            "import json, sys\n"
            "from ncrs import cli\n"
            "from ncrs.harness import load_config\n"
            "codes = [cli.main(['validate', '--scale', '0.02', '--seed', '0']),\n"
            f"         cli.main({TestParamsCommand.ARGS!r})]\n"
            "lazy = ('yaml', 'multiprocessing', 'concurrent.futures.process')\n"
            "before = [m for m in lazy if m in sys.modules]\n"
            "load_config(sys.argv[1])\n"
            "after = [m for m in lazy if m in sys.modules]\n"
            "print(json.dumps({'codes': codes, 'before': before, 'after': after}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(config_path)],
            env=src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == {"codes": [0, 0], "before": [], "after": ["yaml"]}


class TestRunCommand:
    def test_run_writes_csv_and_prints_summary(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code = main([
            "run", "--config", str(config_path), "--seed", "7",
            "--out", str(out_dir),
        ])
        assert code == 0
        payload, _ = _stdout_json(capsys)
        assert payload["seed"] == 7
        assert payload["total_queries"] == 200
        assert payload["error"] is None
        csv_file = Path(payload["csv"])
        assert csv_file.exists()
        assert csv_file.read_text().splitlines()[0] == "t,f,grad_norm,accepted,queries"

    def test_set_overrides_change_the_run(self, config_path, tmp_path, capsys):
        argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "a")]
        assert main(argv) == 0
        base, _ = _stdout_json(capsys)
        argv = [
            "run", "--config", str(config_path), "--out", str(tmp_path / "b"),
            "--set", "algorithm.horizon=50",
        ]
        assert main(argv) == 0
        shorter, _ = _stdout_json(capsys)
        assert base["horizon"] == 200
        assert shorter["horizon"] == 50
        assert shorter["total_queries"] == 50

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        code = main(["run", "--config", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert "nope.yaml" in err

    def test_bad_override_exits_2(self, config_path, capsys):
        code = main([
            "run", "--config", str(config_path), "--set", "problem.dd=3",
        ])
        assert code == 2
        assert "problem.dd" in capsys.readouterr().err

    def test_out_of_range_number_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(f"problem:\n  amplitude: {10**400}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "problem.amplitude" in capsys.readouterr().err

    def test_huge_dimension_exits_2(self, config_path, capsys):
        code = main(["run", "--config", str(config_path), "--set", f"problem.d={10**30}"])
        assert code == 2
        assert "problem.d must be int >= 1 and <=" in capsys.readouterr().err

    def test_huge_auto_horizon_target_exits_2(self, config_path, capsys):
        code = main([
            "run", "--config", str(config_path), "--set", "algorithm.horizon=auto",
            "--set", "target.kind=absolute", "--set", "target.value=1e200",
        ])
        assert code == 2
        assert "horizon=auto resolved to 0 iterations" in capsys.readouterr().err

    def test_underflowing_relative_target_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(
            "problem: {d: 10, k: 2, init_radius_scale: 1.0e-3}\n"
            "target: {kind: relative, value: 5.0e-324}\n"
        )
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "target.value=5e-324 times the start gradient norm" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["malformed_yaml", "directory", "binary"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, kind):
        """A config file that is not YAML, not a file, or not text is a usage
        error that names the file, like a missing one."""
        path = tmp_path / "bad.yaml"
        if kind == "malformed_yaml":
            path.write_text("problem: {d: 10\n")
        elif kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe\x00bad")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bad.yaml" in capsys.readouterr().err

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        """A section given twice would otherwise run with the later one alone."""
        path = tmp_path / "dup.yaml"
        path.write_text("problem: {d: 12, k: 3}\nproblem: {d: 40}\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "dup.yaml" in err and "repeated key 'problem'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["ncrs", "rsgf"])
    def test_start_point_out_of_float_range_exits_2(self, config_path, tmp_path, capsys, kind):
        """A start radius whose value overflows would give ncrs an inf step
        and rsgf an inf target, so the run is refused before either."""
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(config_path), "--out", str(out_dir),
            "--set", f"algorithm.kind={kind}", "--set", "problem.init_radius_scale=1.0e200",
        ])
        assert code == 2
        assert "problem.init_radius_scale=1e+200" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_decay_beyond_horizon_exits_2(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(config_path), "--out", str(out_dir),
            "--set", "algorithm.schedule=cosine_decay", "--set", "algorithm.max_rate=0.5",
            "--set", "algorithm.min_rate=0.01", "--set", "algorithm.decay_steps=20000",
            "--set", "algorithm.horizon=100",
        ])
        assert code == 2
        assert "algorithm.decay_steps=20000" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_set_repairs_a_file_that_fails_on_its_own(self, tmp_path, capsys):
        """--set applies to the file as read, before validation, so it can fix
        a key that makes the file fail (here the default k=5 > d=3)."""
        path = tmp_path / "small.yaml"
        path.write_text("problem: {d: 3}\nalgorithm: {horizon: 20}\n")
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "problem.k=5 exceeds problem.d=3" in capsys.readouterr().err
        assert main(argv + ["--set", "problem.k=2"]) == 0
        payload, _ = _stdout_json(capsys)
        assert payload["total_queries"] == 20 and payload["error"] is None

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_set_on_a_list_root_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "list.yaml"
        path.write_text("- problem\n- oracle\n")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                     "--set", "problem.k=2"])
        assert code == 2
        assert "config root must be a mapping" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_override_exits_2(self, config_path, capsys):
        code = main(["run", "--config", str(config_path), "--set", "horizon"])
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_exits_2(self, config_path, tmp_path, capsys, seed):
        """Seed 2**64 would alias seed 0's stream; the run is refused."""
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(config_path), "--seed", str(seed), "--out", str(out_dir),
        ])
        assert code == 2
        assert "--seed must be an integer in [0, 2**64)" in capsys.readouterr().err
        assert not out_dir.exists()


class TestSweepCommand:
    def test_sweep_prints_aggregate(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(BASE_YAML + "sweep:\n  k: [2, 3]\n  seeds: [1, 2]\n")
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        payload, _ = _stdout_json(capsys)
        on_disk = json.loads((out_dir / "aggregate.json").read_text())
        assert payload == on_disk
        assert len(payload["cells"]) == 2

    def test_failing_cell_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(
            BASE_YAML
            + "sweep:\n  seeds: [1]\n"
        )
        code = main([
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--set", "algorithm.horizon=auto",  # resolves to 604 iterations
            "--set", "algorithm.schedule=cosine_decay",
            "--set", "algorithm.alpha0=1.0",
            "--set", "algorithm.max_rate=0.1",
            "--set", "algorithm.min_rate=0.01",
            "--set", "algorithm.decay_steps=999",
        ])
        assert code == 1
        payload, _ = _stdout_json(capsys)
        assert payload["cells"][0]["errors"][0] is not None

    def test_repeated_axis_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(
            "problem: {d: 10, k: 2, nuisance_dim: 1}\n"
            "sweep: {tau: [1e-3, 0.001], seeds: [1]}\n"
        )
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 2
        assert "sweep.tau entries must be distinct; repeated: [0.001]" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("axis", ["seeds", "d"])
    def test_empty_sweep_list_exits_2(self, tmp_path, capsys, axis):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(BASE_YAML + f"sweep:\n  {axis}: []\n")
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 2
        assert f"sweep.{axis} must not be empty" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bad_worker_count_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(BASE_YAML)
        code = main(["sweep", "--config", str(cfg), "--workers", "0"])
        assert code == 2
        assert "workers" in capsys.readouterr().err


class TestValidateCommand:
    def test_suite_json_and_table(self, capsys):
        code = main(["validate", "--scale", "0.02", "--seed", "0"])
        payload, err = _stdout_json(capsys)
        assert code == 0
        assert isinstance(payload, list) and len(payload) == 19
        assert all(r["passed"] for r in payload)
        assert err.count("PASS") == 19

    def test_table_shows_the_closest_margin(self, capsys, monkeypatch):
        reports = [
            CheckReport(name="mc", passed=True, n_samples=9, rule="r",
                        margins={"a": 2.5, "b": 1.25, "c": None}),
            CheckReport(name="exact", passed=True, n_samples=9, rule="r"),
        ]
        monkeypatch.setattr("ncrs.cli.run_default_suite", lambda seed, scale: reports)
        assert main(["validate"]) == 0
        payload, err = _stdout_json(capsys)
        assert payload[0]["margins"] == {"a": 2.5, "b": 1.25, "c": None}
        assert payload[1]["margins"] is None
        assert "margin 1.25 SE" in err.splitlines()[0]
        assert err.splitlines()[1].endswith("margin -")

    def test_failing_report_exits_1(self, capsys, monkeypatch):
        stub = CheckReport(
            name="stub", passed=False, n_samples=1, rule="stub",
            estimates={}, theory={}, standard_errors={},
        )
        monkeypatch.setattr("ncrs.cli.run_default_suite", lambda seed, scale: [stub])
        code = main(["validate"])
        payload, err = _stdout_json(capsys)
        assert code == 1
        assert payload[0]["passed"] is False
        assert "FAIL" in err

    def test_nonpositive_scale_exits_2(self, capsys):
        for scale in ("0", "nan", "inf"):
            code = main(["validate", "--scale", scale])
            assert code == 2
            assert "--scale must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_exits_2(self, capsys, seed):
        code = main(["validate", "--scale", "0.02", "--seed", str(seed)])
        assert code == 2
        assert "--seed must be an integer in [0, 2**64)" in capsys.readouterr().err


class TestParamsCommand:
    ARGS = [
        "params", "--epsilon", "0.1", "--smoothness", "1", "--intrinsic-dim", "4",
        "--value-gap", "10", "--margin-slope", "1", "--second-moment", "1",
        "--margin-at-radius", "0.5",
    ]

    def test_matches_library_recipe(self, capsys):
        code = main(self.ARGS)
        payload, _ = _stdout_json(capsys)
        assert code == 0
        assert payload == {
            "epsilon": 0.1,
            "step_size": 0.002216346002230182,
            "horizon": 678585,
            "votes": 83213,
            "total_comparisons": 678585 * 83213,
        }

    def test_out_of_range_epsilon_exits_2(self, capsys):
        """An out-of-range or non-finite input is a usage error naming it."""
        for flag, value in [
            ("--epsilon", "1.5"),
            ("--epsilon", "nan"),
            ("--smoothness", "inf"),
            ("--smoothness", "nan"),
            ("--value-gap", "inf"),
            ("--margin-slope", "inf"),
            ("--second-moment", "inf"),
            ("--margin-at-radius", "nan"),
            ("--epsilon", "1e-200"),
            ("--epsilon", "1e-160"),
            ("--smoothness", "1e305"),
            ("--value-gap", "1e306"),
            ("--margin-slope", "1e-320"),
            ("--margin-at-radius", "5e-324"),
            ("--second-moment", "1e308"),
            ("--intrinsic-dim", str(10**400)),
        ]:
            argv = list(self.ARGS)
            argv[argv.index(flag) + 1] = value
            code = main(argv)
            assert code == 2, (flag, value)
            assert flag[2:].replace("-", "_") in capsys.readouterr().err

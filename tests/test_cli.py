"""Tests for the command line interface."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import steinfed
from steinfed.cli import build_parser, main
from steinfed.experiments import _classification_problem
from steinfed.metrics import read_metrics_csv
from test_experiments import REPO_ROOT, _count_calls, classification_dict


def write_config(tmp_path, out_dir, seed=0):
    data = {
        "method": "dsvgd",
        "seed": seed,
        "out_dir": str(out_dir),
        "particles": 10,
        "experiment": {
            "kind": "mixture",
            "prior": {"kind": "uniform", "lo": -10, "hi": 10},
            "agents": [
                [{"weight": 1.0, "mean": 1.0, "variance": 4.0}],
                [{"weight": 1.0, "mean": -2.0, "variance": 1.0}],
            ],
        },
        "protocol": {"update_steps": 2, "distill_steps": 2, "epsilon": 0.2,
                     "epsilon_local": 0.2},
        "learn": {"rounds": 3},
        "unlearn": {"rounds": 2, "early_stop": False},
        "retrain": {"rounds": 2},
        "grid": {"lo": -12.0, "hi": 12.0},
        "forget_agents": [1],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestParser:
    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["learn", "--config", "c.json", "--bogus"])
        assert exc.value.code == 2

    def test_config_flag_required(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["learn"])
        assert exc.value.code == 2


class TestCommands:
    def test_learn_then_eval_and_export(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "runs")
        assert main(["learn", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "dsvgd: 3 rounds" in out
        summary = json.loads(out.strip().splitlines()[-1])
        assert "kl" in summary and "forgot_loss" in summary

        assert main(["eval", "--config", str(cfg)]) == 0
        ev = json.loads(capsys.readouterr().out)
        assert ev["method"] == "dsvgd"
        assert ev["round"] == 3
        assert ev["kl"] == summary["kl"]

        assert main(["export-plot-data", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "4 rows" in out
        plot = tmp_path / "runs" / "dsvgd_plot.csv"
        assert plot.exists()
        assert plot.read_text().splitlines()[0] == "round,forgotten_acc,retained_acc,kl,wall_ms"

    def test_full_phase_sequence(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "runs")
        assert main(["learn", "--config", str(cfg)]) == 0
        assert main(["unlearn", "--config", str(cfg)]) == 0
        assert main(["retrain", "--config", str(cfg)]) == 0
        capsys.readouterr()
        for name in ("dsvgd", "forget_svgd", "retrain"):
            assert (tmp_path / "runs" / f"{name}_metrics.csv").exists()
            assert (tmp_path / "runs" / f"{name}_snapshot.txt").exists()

    def test_run_builds_the_problem_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(classification_dict(tmp_path / "runs")))
        _classification_problem.cache_clear()
        counts = _count_calls(monkeypatch, {"models": ("pretrain_feature_map",)})
        assert main(["run", "--config", str(path)]) == 0
        assert dict(counts) == {"pretrain_feature_map": 1}
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[::2]] == ["dsvgd", "forget_svgd", "retrain"]
        # the same snapshots as three commands that each build the problem afresh
        for command in ("learn", "unlearn", "retrain"):
            _classification_problem.cache_clear()
            assert main([command, "--config", str(path), "--out", str(tmp_path / "apart")]) == 0
        for name in ("dsvgd", "forget_svgd", "retrain"):
            snapshot = f"{name}_snapshot.txt"
            assert ((tmp_path / "runs" / snapshot).read_bytes()
                    == (tmp_path / "apart" / snapshot).read_bytes())

    @pytest.mark.parametrize("change,message", [
        (lambda data: data["protocol"].update(schedule="fixed_sequence", sequence=[2, 1, 2, 1]),
         "config.protocol.sequence: the unlearn phase cannot schedule agents [2]; "
         "it schedules [1]"),
        (lambda data: data.update(forget_agents=[]),
         "config.forget_agents: unlearning needs a nonempty forget set"),
    ], ids=["sequence", "no-forget-agents"])
    def test_run_checks_every_phase_before_learning(self, tmp_path, capsys, change, message):
        path = write_config(tmp_path, tmp_path / "runs")
        data = json.loads(path.read_text())
        change(data)
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "runs").exists()  # learning wrote no dsvgd_* file

    @pytest.mark.parametrize("command", ["eval", "export-plot-data"])
    def test_method_flag_must_name_a_method(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, tmp_path / "runs")
        assert main(["learn", "--config", str(cfg)]) == 0
        # a metrics file that a path-like method name would reach outside the output directory
        shutil.copy(tmp_path / "runs" / "dsvgd_metrics.csv", tmp_path / "escape_metrics.csv")
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--method", "../escape"]) == 1
        assert capsys.readouterr().err.startswith("error: method: expected one of ")
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before

    def test_eval_other_method_via_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "runs")
        main(["learn", "--config", str(cfg)])
        main(["unlearn", "--config", str(cfg)])
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--method", "forget_svgd"]) == 0
        ev = json.loads(capsys.readouterr().out)
        assert ev["method"] == "forget_svgd"

    def test_seed_override_changes_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "runs_a")
        main(["learn", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "a")])
        main(["learn", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "b")])
        capsys.readouterr()
        ka = read_metrics_csv(tmp_path / "a" / "dsvgd_metrics.csv")[-1].kl
        kb = read_metrics_csv(tmp_path / "b" / "dsvgd_metrics.csv")[-1].kl
        assert ka != kb

    def test_out_override_places_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "ignored")
        assert main(["learn", "--config", str(cfg), "--out", str(tmp_path / "elsewhere")]) == 0
        capsys.readouterr()
        assert (tmp_path / "elsewhere" / "dsvgd_metrics.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_missing_config_is_runtime_error(self, tmp_path, capsys):
        code = main(["learn", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not found" in err

    def test_unlearn_before_learn_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "runs")
        code = main(["unlearn", "--config", str(cfg)])
        assert code == 1
        assert "run learn first" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["unlearn", "eval"])
    def test_state_of_another_seed_is_refused(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, tmp_path / "ignored")
        out = tmp_path / "runs"
        assert main(["learn", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        snapshot = out / "dsvgd_snapshot.txt"
        assert f"{snapshot}: saved at seed 0, not at the run's seed 1" in captured.err
        assert sorted(p.name for p in out.iterdir()) == [
            "dsvgd_metrics.csv", "dsvgd_snapshot.txt", "dsvgd_transcript.jsonl"]

    @pytest.mark.parametrize("config,start,state", [
        ("classification_desk.json", "dsvgd", "dsvgd_snapshot.txt"),
        ("mixture.json", "pvi", "pvi_locals.json"),
    ], ids=["desk", "mixture-pvi"])
    def test_start_state_is_checked_before_the_build(self, tmp_path, capsys, monkeypatch,
                                                     config, start, state):
        data = json.loads((REPO_ROOT / "configs" / config).read_text())
        data.update(method=start, learn={"rounds": 1})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out, empty = tmp_path / "runs", tmp_path / "empty"
        assert main(["learn", "--config", str(path), "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        _classification_problem.cache_clear()
        counts = _count_calls(monkeypatch, {"experiments": ("build_problem",)})
        for args, message in (
            (["--seed", "1", "--out", str(out)],
             f"{out / f'{start}_snapshot.txt'}: saved at seed 0, not at the run's seed 1"),
            (["--out", str(empty)], f"no saved state found at {empty / state}; run learn first"),
        ):
            assert main(["unlearn", "--config", str(path), *args]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not counts
        assert not empty.exists()

    @pytest.mark.parametrize("method", ["pvi", "ulpvi"])
    def test_eval_of_a_parametric_method_on_classification_names_the_rule(self, tmp_path, capsys,
                                                                          method):
        # learn can never write a parametric snapshot there, so the missing file is not the fault
        config = REPO_ROOT / "configs" / "classification_desk.json"
        out = tmp_path / "runs"
        assert main(["eval", "--config", str(config), "--out", str(out), "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: config.method: parametric methods support the mixture "
                                "experiment only\n")
        assert not out.exists()

    def test_invalid_config_reports_field_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data = json.loads(write_config(tmp_path, tmp_path / "runs").read_text())
        data["protocol"]["alpha"] = -1.0
        path.write_text(json.dumps(data))
        assert main(["learn", "--config", str(path)]) == 1
        assert "config.protocol.alpha" in capsys.readouterr().err

    def test_negative_seed_override_names_the_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "runs")
        assert main(["learn", "--config", str(cfg), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "seed" in err
        assert not (tmp_path / "runs").exists()


# Faults that the config alone shows: (change to the config, the path the error names).
LOAD_FAULTS = {
    "forget": (lambda data: data.update(forget_agents=[2, 5]), "config.forget_agents"),
    "sequence": (lambda data: data["protocol"].update(schedule="fixed_sequence", sequence=[1, 3]),
                 "config.protocol.sequence"),
    "labels": (lambda data: data["experiment"].update(labels_per_agent=3),
               "config.experiment.labels_per_agent"),
}


@pytest.mark.parametrize("fault", sorted(LOAD_FAULTS))
@pytest.mark.parametrize("command", ["learn", "run", "eval", "export-plot-data"])
def test_config_faults_fail_before_the_build(tmp_path, capsys, monkeypatch, command, fault):
    change, where = LOAD_FAULTS[fault]
    data = classification_dict(tmp_path / "runs")
    change(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    _classification_problem.cache_clear()
    counts = _count_calls(monkeypatch, {"models": ("pretrain_feature_map",)})
    assert main([command, "--config", str(path)]) == 1
    assert f"error: {where}: " in capsys.readouterr().err
    assert not counts
    assert not (tmp_path / "runs").exists()


class TestEntryPoint:
    def test_installed_script_prints_help(self):
        exe = shutil.which("steinfed")
        assert exe is not None, "console script not installed"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "learn" in proc.stdout
        assert "unlearn" in proc.stdout

    def test_import_loads_no_scipy(self):
        # scipy is a test-only oracle: the package must run on numpy alone
        probe = ("import sys, steinfed; "
                 "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        env = dict(os.environ, PYTHONPATH=str(Path(steinfed.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

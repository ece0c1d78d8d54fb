"""Tests for config validation, run loops, evaluation, and plot export."""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from steinfed.experiments import (
    ClassificationProblem,
    ConfigError,
    ExperimentConfig,
    MissingStateError,
    MixtureProblem,
    _forgetting_achieved,
    _forgot_loss_plateaued,
    _protocol_config,
    build_problem,
    config_from_dict,
    evaluate_snapshot,
    export_plot_data,
    load_config,
    resolve_method,
    run_experiment,
    run_paths,
)
from steinfed.metrics import MetricRecord, read_metrics_csv, read_transcript, load_snapshot
from steinfed.models import GaussianPrior, UniformPrior

REPO_ROOT = Path(__file__).resolve().parents[1]


def mixture_dict(out_dir):
    return {
        "method": "dsvgd",
        "seed": 0,
        "out_dir": str(out_dir),
        "particles": 12,
        "experiment": {
            "kind": "mixture",
            "prior": {"kind": "uniform", "lo": -10, "hi": 10},
            "agents": [
                [{"weight": 1.0, "mean": 1.0, "variance": 4.0}],
                [{"weight": 0.5, "mean": -3.0, "variance": 1.0},
                 {"weight": 0.5, "mean": 3.0, "variance": 2.0}],
            ],
        },
        "protocol": {"update_steps": 2, "distill_steps": 2, "epsilon": 0.2,
                     "epsilon_local": 0.2},
        "learn": {"rounds": 4},
        "unlearn": {"rounds": 3, "early_stop": False},
        "retrain": {"rounds": 3},
        # wider than the prior box: with only a few particles the density
        # at a +-10 grid edge can fluctuate past the edge-mass guard
        "grid": {"lo": -12.0, "hi": 12.0},
        "forget_agents": [1],
    }


def classification_dict(out_dir):
    return {
        "method": "dsvgd",
        "seed": 1,
        "out_dir": str(out_dir),
        "particles": 6,
        "experiment": {
            "kind": "classification",
            "source": "synthetic",
            "synthetic": {"num_classes": 4, "dim": 3, "n_train": 200, "n_test": 80,
                          "center_scale": 6.0, "noise": 0.5},
            "labels_per_agent": 2,
            "examples_per_agent": 40,
            "feature_map": {"hidden_units": 4, "epochs": 20, "step_size": 0.1},
            "prior": {"kind": "gaussian", "mean": 0.0, "variance": 10.0},
        },
        "protocol": {"update_steps": 2, "distill_steps": 2, "epsilon": 0.2,
                     "epsilon_local": 0.2},
        "learn": {"rounds": 2},
        "unlearn": {"rounds": 2, "early_stop": False},
        "retrain": {"rounds": 2},
        "forget_agents": [2],
    }


class TestConfigParsing:
    def test_minimal_mixture_config(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path))
        assert cfg.method == "dsvgd"
        assert cfg.particles == 12
        assert cfg.forget_agents == (1,)
        assert len(cfg.experiment.agents) == 2
        assert cfg.grid.points == 2001
        assert cfg.unlearn.patience == 5
        assert cfg.pvi.prior_variance == pytest.approx(100.0 / 3.0)

    def test_defaults_fill_missing_sections(self, tmp_path):
        data = mixture_dict(tmp_path)
        for key in ("protocol", "learn", "unlearn", "retrain"):
            del data[key]
        cfg = config_from_dict(data)
        assert cfg.protocol.update_steps == 10
        assert cfg.learn.rounds == 100
        assert cfg.unlearn.early_stop is True
        assert cfg.retrain.mode == "centralized"

    def test_unknown_keys_rejected_with_path(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["typo"] = 1
        with pytest.raises(ConfigError, match="config"):
            config_from_dict(data)
        data = mixture_dict(tmp_path)
        data["protocol"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="config.protocol"):
            config_from_dict(data)

    def test_method_validation(self, tmp_path):
        data = mixture_dict(tmp_path)
        del data["method"]
        with pytest.raises(ConfigError, match="config.method"):
            config_from_dict(data)
        data["method"] = "sgd"
        with pytest.raises(ConfigError, match="config.method"):
            config_from_dict(data)

    def test_parametric_methods_reject_classification(self, tmp_path):
        data = classification_dict(tmp_path)
        data["method"] = "pvi"
        with pytest.raises(ConfigError, match="parametric"):
            config_from_dict(data)

    def test_forget_agents_sorted_and_deduplicated(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["forget_agents"] = [2, 1, 2]
        cfg = config_from_dict(data)
        assert cfg.forget_agents == (1, 2)
        data["forget_agents"] = [0]
        with pytest.raises(ConfigError, match="1-based"):
            config_from_dict(data)
        data["forget_agents"] = [True]
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_booleans_are_not_numbers(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["protocol"]["alpha"] = True
        with pytest.raises(ConfigError, match="config.protocol.alpha"):
            config_from_dict(data)

    def test_component_fields_validated(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["experiment"]["agents"][0][0]["variance"] = -1.0
        with pytest.raises(ConfigError, match="variance"):
            config_from_dict(data)
        data = mixture_dict(tmp_path)
        del data["experiment"]["agents"][0][0]["mean"]
        with pytest.raises(ConfigError, match="mean"):
            config_from_dict(data)
        data = mixture_dict(tmp_path)
        data["experiment"]["agents"] = []
        with pytest.raises(ConfigError, match="agents"):
            config_from_dict(data)

    def test_prior_bounds_validated(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["experiment"]["prior"] = {"kind": "uniform", "lo": 5, "hi": 5}
        with pytest.raises(ConfigError, match="lo must be below hi"):
            config_from_dict(data)

    def test_classification_requires_gaussian_prior(self, tmp_path):
        data = classification_dict(tmp_path)
        data["experiment"]["prior"] = {"kind": "uniform"}
        with pytest.raises(ConfigError, match="gaussian"):
            config_from_dict(data)

    def test_sequence_must_be_integer_list(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["protocol"]["sequence"] = [1, "two"]
        with pytest.raises(ConfigError, match="sequence"):
            config_from_dict(data)
        data["protocol"]["sequence"] = [1, 2]
        cfg = config_from_dict(data)
        assert cfg.protocol.sequence == (1, 2)

    def test_grid_errors_are_config_errors(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["grid"] = {"lo": 1.0, "hi": 0.0}
        with pytest.raises(ConfigError, match="config.grid"):
            config_from_dict(data)

    def test_load_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(bad)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(mixture_dict(tmp_path)))
        cfg = load_config(path)
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.out_dir == str(tmp_path)


class TestMethodResolution:
    def test_learn_maps_to_family_learner(self):
        assert resolve_method("dsvgd", "learn") == "dsvgd"
        assert resolve_method("forget_svgd", "learn") == "dsvgd"
        assert resolve_method("retrain", "learn") == "dsvgd"
        assert resolve_method("pvi", "learn") == "pvi"
        assert resolve_method("ulpvi", "learn") == "pvi"

    def test_unlearn_maps_to_family_unlearner(self):
        assert resolve_method("dsvgd", "unlearn") == "forget_svgd"
        assert resolve_method("pvi", "unlearn") == "ulpvi"
        assert resolve_method("retrain", "unlearn") == "forget_svgd"

    def test_retrain_is_always_retrain(self):
        assert resolve_method("pvi", "retrain") == "retrain"

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            resolve_method("dsvgd", "replay")


class TestBuildProblem:
    def test_mixture_problem_layout(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path))
        problem = build_problem(cfg)
        assert isinstance(problem, MixtureProblem)
        assert sorted(problem.losses) == [1, 2]
        assert isinstance(problem.prior, UniformPrior)
        assert problem.forget_ids == (1,)
        assert problem.retained_ids == (2,)

    def test_mixture_unknown_forget_agent(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["forget_agents"] = [3]
        cfg = config_from_dict(data)
        with pytest.raises(ConfigError, match="unknown agent"):
            build_problem(cfg)

    def test_classification_problem_layout(self, tmp_path):
        cfg = config_from_dict(classification_dict(tmp_path))
        problem = build_problem(cfg)
        assert isinstance(problem, ClassificationProblem)
        assert sorted(problem.losses) == [1, 2]
        assert problem.shard_classes == {1: (0, 1), 2: (2, 3)}
        assert problem.forgotten_classes == (2, 3)
        assert problem.retained_classes == (0, 1)
        assert isinstance(problem.prior, GaussianPrior)
        # head dimension is (hidden + 1) * classes
        assert problem.prior.dim == (4 + 1) * 4
        assert problem.test_features.shape == (80, 4)

    def test_classification_label_coverage_checked(self, tmp_path):
        data = classification_dict(tmp_path)
        data["experiment"]["labels_per_agent"] = 3
        cfg = config_from_dict(data)
        with pytest.raises(ConfigError, match="labels_per_agent"):
            build_problem(cfg)

    def test_unlearn_phase_overrides_apply(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["unlearn"]["epsilon"] = 0.9
        data["unlearn"]["update_steps"] = 7
        cfg = config_from_dict(data)
        prior = UniformPrior(-10.0, 10.0)
        learn_cfg = _protocol_config(cfg, prior, "learn")
        unlearn_cfg = _protocol_config(cfg, prior, "unlearn")
        assert learn_cfg.epsilon == 0.2
        assert learn_cfg.update_steps == 2
        assert unlearn_cfg.epsilon == 0.9
        assert unlearn_cfg.update_steps == 7
        assert unlearn_cfg.epsilon_local == 0.2


class TestStopRules:
    def rec(self, rnd, acc=None, loss=None):
        return MetricRecord(round=rnd, phase="unlearn", forgotten_acc=acc, forgot_loss=loss)

    def test_forgetting_achieved_needs_full_streak(self):
        records = [self.rec(0, acc=0.9)] + [self.rec(i, acc=0.2) for i in range(1, 4)]
        assert not _forgetting_achieved(records, num_classes=4, margin=0.05, patience=4)
        records.append(self.rec(4, acc=0.2))
        assert _forgetting_achieved(records, num_classes=4, margin=0.05, patience=4)

    def test_forgetting_threshold_uses_chance_plus_margin(self):
        records = [self.rec(i, acc=0.31) for i in range(1, 6)]
        # chance 0.25 + margin 0.05 = 0.30, so 0.31 does not count
        assert not _forgetting_achieved(records, num_classes=4, margin=0.05, patience=5)
        records = [self.rec(i, acc=0.29) for i in range(1, 6)]
        assert _forgetting_achieved(records, num_classes=4, margin=0.05, patience=5)

    def test_baseline_round_zero_ignored(self):
        records = [self.rec(0, acc=0.0)] + [self.rec(i, acc=0.0) for i in range(1, 3)]
        assert not _forgetting_achieved(records, num_classes=4, margin=0.05, patience=3)

    def test_loss_plateau_after_peak(self):
        values = [1.0, 2.0, 3.0, 2.9, 2.95, 2.8]
        records = [self.rec(i + 1, loss=v) for i, v in enumerate(values)]
        assert _forgot_loss_plateaued(records, window=3)
        assert not _forgot_loss_plateaued(records, window=4)

    def test_increasing_loss_never_plateaus(self):
        records = [self.rec(i + 1, loss=float(i)) for i in range(10)]
        assert not _forgot_loss_plateaued(records, window=2)

    def test_short_history_never_plateaus(self):
        records = [self.rec(1, loss=5.0)]
        assert not _forgot_loss_plateaued(records, window=1)


class TestParticleRuns:
    def test_learn_writes_all_artifacts(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        result = run_experiment(cfg, "learn")
        assert result.method == "dsvgd"
        assert result.rounds_run == 4
        assert len(result.records) == 5  # baseline plus one per round
        assert result.records[0].round == 0
        assert all(r.phase == "learn" for r in result.records)
        assert all(r.kl is not None and r.kl >= 0 for r in result.records)
        assert all(r.forgot_loss is not None for r in result.records)

        back = read_metrics_csv(result.paths.metrics)
        assert back == [
            MetricRecord(**{**r.__dict__, "wall_ms": b.wall_ms})
            for r, b in zip(result.records, back)
        ]
        particles, rnd, seed = load_snapshot(result.paths.snapshot)
        assert particles.shape == (12, 1)
        assert rnd == 4 and seed == 0
        events = read_transcript(result.paths.transcript)
        assert len(events) == 5
        assert events[0]["agent"] is None
        assert events[1]["agent"] == 1  # round robin starts at the lowest id

    def test_runs_are_deterministic_modulo_wall_time(self, tmp_path):
        cfg_a = config_from_dict(mixture_dict(tmp_path / "a"))
        cfg_b = config_from_dict(mixture_dict(tmp_path / "b"))
        ra = run_experiment(cfg_a, "learn")
        rb = run_experiment(cfg_b, "learn")
        for x, y in zip(ra.records, rb.records):
            assert (x.round, x.phase, x.kl, x.forgot_loss) == (y.round, y.phase, y.kl, y.forgot_loss)
        snap_a = open(ra.paths.snapshot, "rb").read()
        snap_b = open(rb.paths.snapshot, "rb").read()
        assert snap_a == snap_b

    def test_seed_changes_trajectories(self, tmp_path):
        data = mixture_dict(tmp_path / "a")
        ra = run_experiment(config_from_dict(data), "learn")
        data2 = mixture_dict(tmp_path / "b")
        data2["seed"] = 1
        rb = run_experiment(config_from_dict(data2), "learn")
        assert ra.records[-1].kl != rb.records[-1].kl

    def test_unlearn_requires_learned_snapshot(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        with pytest.raises(MissingStateError, match="run learn first"):
            run_experiment(cfg, "unlearn")

    def test_unlearn_resumes_and_reports_retained_reference(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        run_experiment(cfg, "learn")
        result = run_experiment(cfg, "unlearn")
        assert result.method == "forget_svgd"
        assert result.rounds_run == 3
        assert all(r.phase == "unlearn" for r in result.records)
        events = read_transcript(result.paths.transcript)
        assert events[1]["agent"] == 1  # only the forget agent is scheduled
        assert all(e["agent"] in (None, 1) for e in events)

    def test_unlearn_needs_forget_agents(self, tmp_path):
        data = mixture_dict(tmp_path / "runs")
        data["forget_agents"] = []
        cfg = config_from_dict(data)
        run_experiment(cfg, "learn")
        with pytest.raises(ConfigError, match="forget"):
            run_experiment(cfg, "unlearn")

    def test_unlearn_early_stop_on_loss_plateau(self, tmp_path):
        data = mixture_dict(tmp_path / "runs")
        data["unlearn"] = {"rounds": 60, "early_stop": True, "loss_window": 3}
        cfg = config_from_dict(data)
        run_experiment(cfg, "learn")
        result = run_experiment(cfg, "unlearn")
        assert result.rounds_run < 60

    def test_retrain_centralized_uses_retained_agents_only(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        result = run_experiment(cfg, "retrain")
        assert result.method == "retrain"
        assert result.rounds_run == 3
        events = read_transcript(result.paths.transcript)
        assert all(e["agent"] is None for e in events)

    def test_retrain_federated_requires_retained_agent(self, tmp_path):
        data = mixture_dict(tmp_path / "runs")
        data["forget_agents"] = [1, 2]
        data["retrain"]["mode"] = "federated"
        cfg = config_from_dict(data)
        with pytest.raises(ConfigError, match="retained"):
            run_experiment(cfg, "retrain")

    def test_transcript_splits_round_and_evaluation_time(self, tmp_path):
        pvi = mixture_dict(tmp_path / "p")
        pvi.update(method="pvi", pvi={"local_iters": 3, "epsilon": 0.05, "mc_samples": 64})
        for method, data in (("dsvgd", mixture_dict(tmp_path / "m")), ("pvi", pvi)):
            cfg = config_from_dict(data)
            start = time.perf_counter()
            result = run_experiment(cfg, "learn")
            phase_ms = (time.perf_counter() - start) * 1000.0
            events = read_transcript(result.paths.transcript)
            assert [e["round"] for e in events] == list(range(5)), method
            for event, record in zip(events, result.records):
                assert event["round_ms"] == event["wall_ms"] == record.wall_ms
                assert event["eval_ms"] > 0.0
            assert events[0]["round_ms"] == 0.0
            assert sum(e["round_ms"] + e["eval_ms"] for e in events) < phase_ms

    def test_failed_run_leaves_error_in_transcript(self, tmp_path):
        data = mixture_dict(tmp_path / "runs")
        data["protocol"]["schedule"] = "fixed_sequence"
        data["protocol"]["sequence"] = [1]
        data["learn"]["rounds"] = 3
        cfg = config_from_dict(data)
        with pytest.raises(Exception, match="exhausted"):
            run_experiment(cfg, "learn")
        events = read_transcript(run_paths(cfg, "dsvgd").transcript)
        assert "error" in events[-1]
        assert "exhausted" in events[-1]["error"]

    def test_classification_learn_unlearn(self, tmp_path):
        cfg = config_from_dict(classification_dict(tmp_path / "runs"))
        learn = run_experiment(cfg, "learn")
        last = learn.records[-1]
        assert last.forgotten_acc is not None
        assert last.retained_acc is not None
        assert last.kl is None
        events = read_transcript(learn.paths.transcript)
        assert set(events[0]["per_class"]) == {"0", "1", "2", "3"}

        unlearn = run_experiment(cfg, "unlearn")
        assert unlearn.method == "forget_svgd"
        assert unlearn.records[-1].forgotten_acc is not None
        ev = read_transcript(unlearn.paths.transcript)
        assert all(e["agent"] in (None, 2) for e in ev)


class TestParametricRuns:
    def pvi_dict(self, out_dir):
        data = mixture_dict(out_dir)
        data["method"] = "pvi"
        data["pvi"] = {"local_iters": 3, "epsilon": 0.05, "mc_samples": 64}
        return data

    def test_pvi_learn_writes_moment_snapshot_and_factors(self, tmp_path):
        cfg = config_from_dict(self.pvi_dict(tmp_path / "runs"))
        result = run_experiment(cfg, "learn")
        assert result.method == "pvi"
        array, rnd, _ = load_snapshot(result.paths.snapshot)
        assert array.shape == (2, 1)  # mean row and variance row
        assert array[1, 0] > 0
        assert rnd == 4
        state = json.loads(open(result.paths.locals_json).read())
        assert set(state["agents"]) == {"1", "2"}
        assert set(state["global"]) == {"eta1", "eta2"}
        assert all(r.kl is not None for r in result.records)

    def test_pvi_unlearn_needs_learned_state(self, tmp_path):
        cfg = config_from_dict(self.pvi_dict(tmp_path / "runs"))
        with pytest.raises(MissingStateError, match="run learn first"):
            run_experiment(cfg, "unlearn")

    def test_pvi_unlearn_runs_from_saved_factors(self, tmp_path):
        cfg = config_from_dict(self.pvi_dict(tmp_path / "runs"))
        run_experiment(cfg, "learn")
        result = run_experiment(cfg, "unlearn")
        assert result.method == "ulpvi"
        assert result.rounds_run == 3
        assert all(r.phase == "unlearn" for r in result.records)
        array, _, _ = load_snapshot(result.paths.snapshot)
        assert array.shape == (2, 1)

    def test_pvi_runs_deterministic(self, tmp_path):
        ra = run_experiment(config_from_dict(self.pvi_dict(tmp_path / "a")), "learn")
        rb = run_experiment(config_from_dict(self.pvi_dict(tmp_path / "b")), "learn")
        assert [r.kl for r in ra.records] == [r.kl for r in rb.records]


class TestEvaluation:
    def test_eval_matches_final_learn_record_exactly(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        result = run_experiment(cfg, "learn")
        ev = evaluate_snapshot(cfg, "dsvgd")
        last = result.records[-1]
        assert ev["kl"] == last.kl
        assert ev["forgot_loss"] == last.forgot_loss
        assert ev["round"] == 4
        assert ev["method"] == "dsvgd"

    def test_eval_matches_final_unlearn_record_exactly(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        run_experiment(cfg, "learn")
        result = run_experiment(cfg, "unlearn")
        ev = evaluate_snapshot(cfg, "forget_svgd")
        assert ev["kl"] == result.records[-1].kl

    def test_eval_matches_parametric_record_exactly(self, tmp_path):
        data = mixture_dict(tmp_path / "runs")
        data["method"] = "pvi"
        data["pvi"] = {"local_iters": 3, "epsilon": 0.05, "mc_samples": 64}
        cfg = config_from_dict(data)
        result = run_experiment(cfg, "learn")
        ev = evaluate_snapshot(cfg, "pvi")
        assert ev["kl"] == result.records[-1].kl
        assert ev["forgot_loss"] == result.records[-1].forgot_loss

    def test_eval_without_snapshot_errors(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        with pytest.raises(MissingStateError):
            evaluate_snapshot(cfg, "dsvgd")
        with pytest.raises(ConfigError):
            evaluate_snapshot(cfg, "momentum")

    def test_classification_eval_reports_accuracies(self, tmp_path):
        cfg = config_from_dict(classification_dict(tmp_path / "runs"))
        result = run_experiment(cfg, "learn")
        ev = evaluate_snapshot(cfg, "dsvgd")
        assert ev["forgotten_acc"] == result.records[-1].forgotten_acc
        assert ev["retained_acc"] == result.records[-1].retained_acc
        assert set(ev["per_class"]) == {"0", "1", "2", "3"}


class TestPlotExport:
    def test_export_columns_and_count(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        result = run_experiment(cfg, "learn")
        out = tmp_path / "plot.csv"
        rows = export_plot_data(result.paths.metrics, out)
        lines = out.read_text().splitlines()
        assert rows == 5
        assert lines[0] == "round,forgotten_acc,retained_acc,kl,wall_ms"
        assert len(lines) == 6
        # mixture runs have no accuracies, so those cells stay empty
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "" and first[2] == ""
        assert float(first[3]) == result.records[0].kl


class TestBlasThreadDeterminism:
    def test_desk_snapshot_bytes_independent_of_blas_threads(self, tmp_path):
        # Every GEMM must give the same bits whatever the BLAS thread count.
        data = json.loads((REPO_ROOT / "configs" / "classification_desk.json").read_text())
        data["learn"]["rounds"] = 40
        script = (
            "import json, sys\n"
            "from steinfed.experiments import config_from_dict, run_experiment\n"
            "run_experiment(config_from_dict(json.loads(sys.argv[1])), 'learn')\n"
        )
        snapshots = []
        for threads in ("1", "2"):
            data["out_dir"] = str(tmp_path / f"threads{threads}")
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": str(REPO_ROOT / "src")}
            subprocess.run([sys.executable, "-c", script, json.dumps(data)], env=env,
                           check=True, timeout=300)
            cfg = config_from_dict(data)
            snapshots.append(Path(run_paths(cfg, "dsvgd").snapshot).read_bytes())
        assert snapshots[0] == snapshots[1]

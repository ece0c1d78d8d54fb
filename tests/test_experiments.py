"""Tests for config validation, run loops, evaluation, and plot export."""

import collections
import copy
import dataclasses
import importlib.util
import inspect
import json
import os
import re
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import kde_log_density_broadcast
from steinfed.data import IdxFormatError, idx_source
from steinfed.experiments import (
    PHASES,
    ClassificationProblem,
    ConfigError,
    ExperimentConfig,
    MissingStateError,
    MixtureProblem,
    UnlearnSettings,
    _classification_problem,
    _forgetting_achieved,
    _forgot_loss_plateaued,
    _load_pvi_state,
    _protocol_config,
    _unlearn_should_stop,
    build_problem,
    config_from_dict,
    evaluate_snapshot,
    export_plot_data,
    load_config,
    resolve_method,
    run_experiment,
    run_paths,
)
import steinfed.experiments as experiments
import steinfed.federation as fed
import steinfed.metrics as metrics
import steinfed.svgd as svgd
from steinfed.federation import (
    STREAM_UNLEARN,
    init_global_particles,
    init_local_particles,
    initialize_states,
    learning_round,
    schedule,
)
from steinfed.metrics import (
    GridError,
    MetricRecord,
    grid_kl,
    load_snapshot,
    read_metrics_csv,
    read_transcript,
    save_snapshot,
)
from steinfed.models import GaussianPrior, UniformPrior
from steinfed.pvi import PviConfig
from steinfed.rules import FieldError
from test_data import write_images, write_labels

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

    def test_component_weight_defaults_to_one(self, tmp_path):
        data = mixture_dict(tmp_path)
        del data["experiment"]["agents"][0][0]["weight"]
        (component,) = config_from_dict(data).experiment.agents[0]
        assert component.weight == 1.0

    def test_omitted_weights_learn_the_snapshot_of_written_ones(self, tmp_path):
        snapshots = []
        for name in ("written", "omitted"):
            data = mixture_dict(tmp_path / name)
            data["learn"]["rounds"] = 1
            for components in data["experiment"]["agents"]:
                for component in components:
                    component["weight"] = 1.0
                    if name == "omitted":
                        del component["weight"]
            result = run_experiment(config_from_dict(data), "learn")
            snapshots.append(Path(result.paths.snapshot).read_bytes())
        assert snapshots[0] == snapshots[1]

    def test_null_prior_reads_as_the_default(self, tmp_path):
        for base, default in (("mix", UniformPrior()), ("cls", GaussianPrior())):
            data = BASES[base](tmp_path)
            data["experiment"]["prior"] = None
            assert config_from_dict(data).experiment.prior == default

    @pytest.mark.parametrize("base,section,want", [
        ("mix", {"kind": "uniform", "lo": -3, "hi": 4.5}, UniformPrior(-3.0, 4.5)),
        ("mix", {"hi": 2}, UniformPrior(-10.0, 2.0)),
        ("mix", {"kind": "gaussian", "mean": 0.5, "variance": 4}, GaussianPrior(0.5, 4.0)),
        ("cls", {"variance": 9}, GaussianPrior(0.0, 9.0)),
        ("cls", {"kind": "gaussian"}, GaussianPrior()),
    ], ids=["uniform", "uniform-kind-omitted", "gaussian-on-mixture", "gaussian-variance",
            "gaussian-defaults"])
    def test_prior_section_is_the_prior(self, tmp_path, base, section, want):
        data = BASES[base](tmp_path)
        data["experiment"]["prior"] = section
        cfg = config_from_dict(data)
        prior = cfg.experiment.prior
        assert type(prior) is type(want) and prior == want
        assert hash(prior) == hash(want)  # the classification problem cache keys on the section
        assert all(type(value) is float for value in vars(prior).values())  # no dimension

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

    @pytest.mark.parametrize("path", sorted((REPO_ROOT / "configs").glob("*.json")),
                             ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        # loading reads no data files, so the IDX config parses without them
        assert isinstance(load_config(path), ExperimentConfig)


DELETE = object()


def idx_dict(out_dir):
    data = classification_dict(out_dir)
    data["experiment"]["source"] = "idx"
    data["experiment"]["idx"] = {"train_images": "a", "train_labels": "b", "test_images": "c",
                                 "test_labels": "d", "num_classes": 4}
    return data


BASES = {"mix": mixture_dict, "cls": classification_dict, "idx": idx_dict}
EXP = ("experiment",)
COMP = EXP + ("agents", 0, 0)
FMAP = EXP + ("feature_map",)
# One fault per case: (base config, path to the changed value, new value, full message).
CONFIG_ERRORS = [
    ("mix", (), [], "config: expected an object, got list"),
    ("mix", ("typo",), 1, "config: unknown key(s) ['typo']"),
    ("mix", ("method",), DELETE, "config.method: required"),
    ("mix", ("method",), 3, "config.method: expected a string, got int"),
    ("mix", ("method",), "sgd", "config.method: expected one of "
     "['dsvgd', 'forget_svgd', 'pvi', 'retrain', 'ulpvi'], got 'sgd'"),
    ("mix", ("seed",), 1.5, "config.seed: expected an integer, got float"),
    ("mix", ("seed",), True, "config.seed: expected an integer, got bool"),
    ("mix", ("seed",), None, "config.seed: expected an integer, got NoneType"),
    ("mix", ("seed",), -1, "config.seed: must be nonnegative, got -1"),
    ("mix", ("out_dir",), ["a"], "config.out_dir: expected a string, got list"),
    ("mix", ("particles",), 0, "config.particles: must be at least 1, got 0"),
    ("mix", EXP, DELETE, "config.experiment: required"),
    ("mix", EXP, [], "config.experiment: expected an object, got list"),
    ("mix", EXP, None, "config.experiment: expected an object, got NoneType"),
    ("mix", EXP + ("kind",), DELETE, "config.experiment.kind: required"),
    ("mix", EXP + ("kind",), "grid",
     "config.experiment.kind: expected one of ['classification', 'mixture'], got 'grid'"),
    ("cls", ("method",), "pvi",
     "config.method: parametric methods support the mixture experiment only"),
    ("mix", ("forget_agents",), "1", "config.forget_agents: expected a list of integers"),
    ("mix", ("forget_agents",), [True], "config.forget_agents: expected a list of integers"),
    ("mix", ("forget_agents",), None, "config.forget_agents: expected a list of integers"),
    ("mix", ("forget_agents",), [0], "config.forget_agents: agent ids are 1-based"),
    ("mix", ("forget_agents",), [3, 1], "config.forget_agents: unknown agent ids [3]"),
    ("cls", ("forget_agents",), [2, 4], "config.forget_agents: unknown agent ids [4]"),
    # mixture experiment, prior and components
    ("mix", EXP + ("typo",), 1, "config.experiment: unknown key(s) ['typo']"),
    ("mix", EXP + ("prior",), [], "config.experiment.prior: expected an object, got list"),
    ("mix", EXP + ("prior", "kind"), "beta",
     "config.experiment.prior.kind: expected one of ['gaussian', 'uniform'], got 'beta'"),
    ("mix", EXP + ("prior", "kind"), 1, "config.experiment.prior.kind: expected a string, got int"),
    ("mix", EXP + ("prior", "mean"), 0.0, "config.experiment.prior: unknown key(s) ['mean']"),
    ("mix", EXP + ("prior", "lo"), "a", "config.experiment.prior.lo: expected a number, got str"),
    ("mix", EXP + ("prior", "hi"), -10,
     "config.experiment.prior: lo must be below hi, got [-10.0, -10.0]"),
    ("mix", EXP + ("prior",), {"kind": "gaussian", "variance": 0},
     "config.experiment.prior.variance: must be positive, got 0.0"),
    # JSON's NaN, Infinity and -Infinity, and ranges whose width overflows
    ("mix", EXP + ("prior",), {"kind": "gaussian", "mean": float("nan"), "variance": 1.0},
     "config.experiment.prior.mean: expected a finite number, got nan"),
    ("mix", EXP + ("prior", "lo"), float("-inf"),
     "config.experiment.prior.lo: expected a finite number, got -inf"),
    ("mix", EXP + ("prior",), {"lo": -1e308, "hi": 1e308},
     "config.experiment.prior: hi - lo overflows, got [-1e+308, 1e+308]"),
    ("mix", ("protocol", "epsilon"), float("inf"),
     "config.protocol.epsilon: expected a finite number, got inf"),
    ("mix", ("grid", "hi"), float("inf"), "config.grid.hi: expected a finite number, got inf"),
    ("mix", ("grid",), {"lo": -1e308, "hi": 1e308},
     "config.grid: grid range [-1e+308, 1e+308] is too wide: hi - lo overflows"),
    ("mix", EXP + ("prior",), {"kind": "gaussian", "lo": 0},
     "config.experiment.prior: unknown key(s) ['lo']"),
    ("mix", EXP + ("agents",), DELETE, "config.experiment.agents: expected a nonempty list"),
    ("mix", EXP + ("agents",), [], "config.experiment.agents: expected a nonempty list"),
    ("mix", EXP + ("agents",), {}, "config.experiment.agents: expected a list, got dict"),
    ("mix", EXP + ("agents", 0), [],
     "config.experiment.agents[0]: expected a nonempty list of components"),
    ("mix", EXP + ("agents", 1), 3, "config.experiment.agents[1]: expected a list, got int"),
    ("mix", EXP + ("agents", 1, 1), 3,
     "config.experiment.agents[1][1]: expected an object, got int"),
    ("mix", COMP + ("skew",), 1,
     "config.experiment.agents[0][0]: unknown key(s) ['skew']"),
    ("mix", COMP + ("mean",), DELETE, "config.experiment.agents[0][0].mean: required"),
    ("mix", COMP + ("variance",), DELETE,
     "config.experiment.agents[0][0].variance: required"),
    ("mix", COMP + ("variance",), -1,
     "config.experiment.agents[0][0].variance: must be positive, got -1.0"),
    ("mix", COMP + ("weight",), 0,
     "config.experiment.agents[0][0].weight: must be positive, got 0.0"),
    ("mix", COMP + ("weight",), False,
     "config.experiment.agents[0][0].weight: expected a number, got bool"),
    # classification experiment
    ("cls", EXP + ("typo",), 1, "config.experiment: unknown key(s) ['typo']"),
    ("cls", EXP + ("source",), 3, "config.experiment.source: expected a string, got int"),
    ("cls", EXP + ("source",), "csv",
     "config.experiment.source: expected one of ['idx', 'synthetic'], got 'csv'"),
    ("cls", EXP + ("synthetic",), [], "config.experiment.synthetic: expected an object, got list"),
    ("cls", EXP + ("synthetic", "typo"), 1, "config.experiment.synthetic: unknown key(s) ['typo']"),
    ("cls", EXP + ("synthetic", "num_classes"), 1,
     "config.experiment.synthetic.num_classes: must be at least 2, got 1"),
    ("cls", EXP + ("synthetic", "dim"), 2.0,
     "config.experiment.synthetic.dim: expected an integer, got float"),
    ("cls", EXP + ("synthetic", "n_train"), None,
     "config.experiment.synthetic.n_train: expected an integer, got NoneType"),
    ("cls", EXP + ("synthetic", "noise"), "x",
     "config.experiment.synthetic.noise: expected a number, got str"),
    ("cls", EXP + ("synthetic", "dim"), 0,
     "config.experiment.synthetic.dim: must be at least 1, got 0"),
    ("cls", EXP + ("synthetic", "center_scale"), -1.0,
     "config.experiment.synthetic.center_scale: must be nonnegative, got -1.0"),
    ("cls", EXP + ("synthetic", "noise"), -0.5,
     "config.experiment.synthetic.noise: must be nonnegative, got -0.5"),
    ("cls", EXP + ("synthetic", "n_train"), 3,
     "config.experiment.synthetic.n_train: must be at least num_classes (4), got 3"),
    ("cls", EXP + ("synthetic", "n_test"), 1,
     "config.experiment.synthetic.n_test: must be at least num_classes (4), got 1"),
    ("cls", EXP + ("source",), "idx", "config.experiment.idx: required when source is 'idx'"),
    ("idx", EXP + ("idx",), [], "config.experiment.idx: expected an object, got list"),
    ("idx", EXP + ("idx", "typo"), 1, "config.experiment.idx: unknown key(s) ['typo']"),
    ("idx", EXP + ("idx", "train_images"), DELETE, "config.experiment.idx.train_images: required"),
    ("idx", EXP + ("idx", "train_labels"), DELETE, "config.experiment.idx.train_labels: required"),
    ("idx", EXP + ("idx", "test_images"), DELETE, "config.experiment.idx.test_images: required"),
    ("idx", EXP + ("idx", "test_labels"), DELETE, "config.experiment.idx.test_labels: required"),
    ("idx", EXP + ("idx", "test_labels"), 5,
     "config.experiment.idx.test_labels: expected a string, got int"),
    ("idx", EXP + ("idx", "num_classes"), 1.0,
     "config.experiment.idx.num_classes: expected an integer, got float"),
    ("cls", EXP + ("idx",), 5, "config.experiment.idx: expected an object, got int"),
    ("idx", EXP + ("idx", "num_classes"), 1,
     "config.experiment.idx.num_classes: must be at least 2, got 1"),
    ("cls", FMAP, [], "config.experiment.feature_map: expected an object, got list"),
    ("cls", FMAP + ("typo",), 1, "config.experiment.feature_map: unknown key(s) ['typo']"),
    ("cls", FMAP + ("hidden_units",), 0,
     "config.experiment.feature_map.hidden_units: must be at least 1, got 0"),
    ("cls", FMAP + ("epochs",), -1,
     "config.experiment.feature_map.epochs: must be nonnegative, got -1"),
    ("cls", FMAP + ("step_size",), 0,
     "config.experiment.feature_map.step_size: must be positive, got 0.0"),
    ("cls", FMAP + ("hidden_units",), 4.0,
     "config.experiment.feature_map.hidden_units: expected an integer, got float"),
    ("cls", FMAP + ("epochs",), True,
     "config.experiment.feature_map.epochs: expected an integer, got bool"),
    ("cls", FMAP + ("step_size",), "x",
     "config.experiment.feature_map.step_size: expected a number, got str"),
    ("cls", EXP + ("prior",), {"kind": "uniform"},
     "config.experiment.prior.kind: expected one of ['gaussian'], got 'uniform'"),
    ("cls", EXP + ("prior", "variance"), -1,
     "config.experiment.prior.variance: must be positive, got -1.0"),
    ("cls", EXP + ("labels_per_agent",), 0,
     "config.experiment.labels_per_agent: must be at least 1, got 0"),
    ("cls", EXP + ("labels_per_agent",), 2.5,
     "config.experiment.labels_per_agent: expected an integer, got float"),
    ("cls", EXP + ("labels_per_agent",), 3,
     "config.experiment.labels_per_agent: must divide the class count (4)"),
    ("idx", EXP + ("idx", "num_classes"), 5,
     "config.experiment.labels_per_agent: must divide the class count (5)"),
    ("cls", EXP + ("examples_per_agent",), 0,
     "config.experiment.examples_per_agent: must be at least 1, got 0"),
    ("cls", EXP + ("examples_per_agent",), "x",
     "config.experiment.examples_per_agent: expected an integer, got str"),
    ("cls", EXP + ("examples_per_agent",), 201,
     "config.experiment.examples_per_agent: must be a multiple of labels_per_agent (2)"),
    # protocol
    ("mix", ("protocol",), [], "config.protocol: expected an object, got list"),
    ("mix", ("protocol",), None, "config.protocol: expected an object, got NoneType"),
    ("mix", ("protocol", "momentum"), 0.9, "config.protocol: unknown key(s) ['momentum']"),
    ("mix", ("protocol", "alpha"), True, "config.protocol.alpha: expected a number, got bool"),
    ("mix", ("protocol", "alpha"), 0, "config.protocol.alpha: must be positive, got 0.0"),
    ("mix", ("protocol", "update_steps"), -1,
     "config.protocol.update_steps: must be nonnegative, got -1"),
    ("mix", ("protocol", "update_steps"), 2.0,
     "config.protocol.update_steps: expected an integer, got float"),
    ("mix", ("protocol", "distill_steps"), -2,
     "config.protocol.distill_steps: must be nonnegative, got -2"),
    ("mix", ("protocol", "epsilon"), -0.1, "config.protocol.epsilon: must be nonnegative, got -0.1"),
    ("mix", ("protocol", "epsilon_local"), -0.1,
     "config.protocol.epsilon_local: must be nonnegative, got -0.1"),
    ("mix", ("protocol", "epsilon"), "x", "config.protocol.epsilon: expected a number, got str"),
    ("mix", ("protocol", "fudge"), 0, "config.protocol.fudge: must be positive, got 0.0"),
    ("mix", ("protocol", "schedule"), "random", "config.protocol.schedule: expected one of "
     "['fixed_sequence', 'round_robin'], got 'random'"),
    ("mix", ("protocol", "sequence"), [1, "two"],
     "config.protocol.sequence: expected a list of integers"),
    ("mix", ("protocol", "sequence"), 3, "config.protocol.sequence: expected a list of integers"),
    ("mix", ("protocol", "sequence"), [1, 7, 2], "config.protocol.sequence: unknown agent ids [7]"),
    ("mix", ("protocol", "schedule"), "fixed_sequence",
     "config.protocol.sequence: required when schedule is 'fixed_sequence'"),
    ("mix", ("protocol", "include_prior_score"), 1,
     "config.protocol.include_prior_score: expected true/false, got int"),
    ("mix", ("protocol", "persist_adagrad"), "yes",
     "config.protocol.persist_adagrad: expected true/false, got str"),
    ("mix", ("protocol", "kde_lam"), 0, "config.protocol.kde_lam: must be positive, got 0.0"),
    ("mix", ("protocol", "kde_lam"), None,
     "config.protocol.kde_lam: expected a number, got NoneType"),
    ("mix", ("protocol", "bandwidth"), 0, "config.protocol.bandwidth: must be positive, got 0.0"),
    ("mix", ("protocol", "bandwidth"), "x",
     "config.protocol.bandwidth: expected a number, got str"),
    # phases and evaluation
    ("mix", ("learn",), [], "config.learn: expected an object, got list"),
    ("mix", ("learn", "typo"), 1, "config.learn: unknown key(s) ['typo']"),
    ("mix", ("learn", "rounds"), -1, "config.learn.rounds: must be nonnegative, got -1"),
    ("mix", ("learn", "rounds"), 1.5, "config.learn.rounds: expected an integer, got float"),
    ("mix", ("unlearn",), "x", "config.unlearn: expected an object, got str"),
    ("mix", ("unlearn", "typo"), 1, "config.unlearn: unknown key(s) ['typo']"),
    ("mix", ("unlearn", "rounds"), -1, "config.unlearn.rounds: must be nonnegative, got -1"),
    ("mix", ("unlearn", "epsilon"), "x", "config.unlearn.epsilon: expected a number, got str"),
    ("mix", ("unlearn", "epsilon_local"), [],
     "config.unlearn.epsilon_local: expected a number, got list"),
    ("mix", ("unlearn", "epsilon"), -0.1, "config.unlearn.epsilon: must be nonnegative, got -0.1"),
    ("mix", ("unlearn", "epsilon_local"), -1,
     "config.unlearn.epsilon_local: must be nonnegative, got -1.0"),
    ("mix", ("unlearn", "update_steps"), -1,
     "config.unlearn.update_steps: must be nonnegative, got -1"),
    ("mix", ("unlearn", "distill_steps"), 1.5,
     "config.unlearn.distill_steps: expected an integer, got float"),
    ("mix", ("unlearn", "early_stop"), 0,
     "config.unlearn.early_stop: expected true/false, got int"),
    ("mix", ("unlearn", "patience"), 0, "config.unlearn.patience: must be at least 1, got 0"),
    ("mix", ("unlearn", "margin"), None, "config.unlearn.margin: expected a number, got NoneType"),
    ("mix", ("unlearn", "loss_window"), 0, "config.unlearn.loss_window: must be at least 1, got 0"),
    ("mix", ("retrain",), [], "config.retrain: expected an object, got list"),
    ("mix", ("retrain", "typo"), 1, "config.retrain: unknown key(s) ['typo']"),
    ("mix", ("retrain", "rounds"), -1, "config.retrain.rounds: must be nonnegative, got -1"),
    ("mix", ("retrain", "mode"), "hybrid",
     "config.retrain.mode: expected one of ['centralized', 'federated'], got 'hybrid'"),
    ("mix", ("pvi",), [], "config.pvi: expected an object, got list"),
    ("mix", ("pvi", "typo"), 1, "config.pvi: unknown key(s) ['typo']"),
    ("mix", ("pvi", "local_iters"), -1, "config.pvi.local_iters: must be nonnegative, got -1"),
    ("mix", ("pvi", "epsilon"), 0, "config.pvi.epsilon: must be positive, got 0.0"),
    ("mix", ("pvi", "mc_samples"), 0, "config.pvi.mc_samples: must be at least 1, got 0"),
    ("mix", ("pvi", "prior_mean"), "x", "config.pvi.prior_mean: expected a number, got str"),
    ("mix", ("pvi", "prior_variance"), -1, "config.pvi.prior_variance: must be positive, got -1.0"),
    ("mix", ("grid",), [], "config.grid: expected an object, got list"),
    ("mix", ("grid", "typo"), 1, "config.grid: unknown key(s) ['typo']"),
    ("mix", ("grid", "lo"), "x", "config.grid.lo: expected a number, got str"),
    ("mix", ("grid", "points"), [1], "config.grid.points: expected an integer, got list"),
    ("mix", ("grid",), {"lo": 1, "hi": 0}, "config.grid: grid range [1.0, 0.0] is empty"),
    ("mix", ("grid", "points"), 1, "config.grid.points: must be at least 2, got 1"),
    ("mix", ("grid", "hi"), 10**400, "config.grid.hi: expected a number within the float range"),
]


def _with_fault(base, path, value, out_dir):
    data = BASES[base](out_dir)
    if not path:
        return value
    node = data
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return data


# Each id shows at most 60 characters of its value: one value has 401 digits.
@pytest.mark.parametrize("base,path,value,message", CONFIG_ERRORS,
                         ids=[f"{b}:{'.'.join(map(str, p))}={v!r:.60}" if v is not DELETE
                              else f"{b}:{'.'.join(map(str, p))}:del"
                              for b, p, v, _ in CONFIG_ERRORS])
def test_config_error_messages(tmp_path, base, path, value, message):
    data = _with_fault(base, path, value, tmp_path)
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value) == message


# A literal past Python's 4300-digit limit for reading an integer; json.dumps cannot write it.
@pytest.mark.parametrize("path", [("grid", "hi"), ("learn", "rounds"), ("forget_agents",)])
def test_config_error_for_an_oversized_integer_literal(tmp_path, path):
    data = _with_fault("mix", path, "LONG", tmp_path)
    config = tmp_path / "long.json"
    config.write_text(json.dumps(data).replace('"LONG"', "-" + "9" * 5001))
    with pytest.raises(ConfigError) as info:
        load_config(config)
    assert str(info.value) == f"config.{'.'.join(path)}: integer literal of 5001 digits is too long"


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
        assert [f.name for f in dataclasses.fields(problem)] == ["losses", "forget_ids"]
        assert isinstance(cfg.experiment.prior, UniformPrior)
        assert problem.forget_ids == (1,)
        assert PHASES["retrain"].eligible(cfg) == (2,)

    def test_mixture_unknown_forget_agent(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["forget_agents"] = [3]
        with pytest.raises(ConfigError, match="unknown agent"):
            config_from_dict(data)

    def test_classification_problem_layout(self, tmp_path):
        cfg = config_from_dict(classification_dict(tmp_path))
        problem = build_problem(cfg)
        assert isinstance(problem, ClassificationProblem)
        assert sorted(problem.losses) == [1, 2]
        assert problem.shard_classes == {1: (0, 1), 2: (2, 3)}
        assert problem.forgotten_classes == (2, 3)
        assert problem.retained_classes == (0, 1)
        assert [f.name for f in dataclasses.fields(problem)] == [
            "losses", "shard_classes", "forget_ids", "test_features", "test_labels", "num_classes"]
        assert isinstance(cfg.experiment.prior, GaussianPrior)
        # head dimension is (hidden + 1) * classes
        assert all(loss.dim == (4 + 1) * 4 for loss in problem.losses.values())
        assert problem.test_features.shape == (80, 4)

    @pytest.mark.parametrize("path", ["configs/mixture.json", "configs/classification_desk.json",
                                      "perfbench/wide.json"])
    def test_width_from_the_config_is_the_built_problems(self, path):
        cfg = load_config(REPO_ROOT / path)
        problem = build_problem(cfg)
        assert {k: loss.dim for k, loss in problem.losses.items()} == {
            k: experiments._width(cfg) for k in cfg.experiment.agent_ids}

    def test_headline_width_is_read_without_a_build(self):
        # The MNIST files are not in the repository: the width comes from the config alone.
        assert experiments._width(load_config(REPO_ROOT / "configs" / "mnist_full.json")) == 1010

    @pytest.mark.parametrize("pair", ["train", "test"])
    @pytest.mark.parametrize("defect", ["image count", "label count", "magic", "dimension",
                                        "byte count"])
    def test_bad_idx_pair_fails_before_rows_are_chosen(self, tmp_path, monkeypatch, pair, defect):
        rng = np.random.default_rng(1)
        files = {key: tmp_path / key for key in ("train_images", "train_labels",
                                                 "test_images", "test_labels")}
        for prefix, count in (("train", 80), ("test", 12)):
            write_images(files[f"{prefix}_images"], rng.integers(0, 256, (count, 2, 2)))
            write_labels(files[f"{prefix}_labels"], np.arange(count) % 4)
        images, labels = files[f"{pair}_images"], files[f"{pair}_labels"]
        if defect == "image count":
            write_images(images, np.zeros((5, 2, 2)))
        elif defect == "label count":
            write_labels(labels, [0, 1, 2])
        elif defect == "magic":
            labels.write_bytes(struct.pack(">2i", 2051, 1) + bytes(1))
        elif defect == "dimension":
            images.write_bytes(struct.pack(">4i", 2051, 1, -2, 2))
        else:
            images.write_bytes(images.read_bytes()[:-1])
        with pytest.raises(IdxFormatError) as direct:
            idx_source(images, labels, num_classes=4).take()
        if defect in ("image count", "label count"):
            assert re.fullmatch(r"image count \d+ does not match label count \d+", str(direct.value))

        def no_choice(*args):
            raise AssertionError("rows chosen before every IDX check ran")

        monkeypatch.setattr("steinfed.data.choose_rows", no_choice)
        data = idx_dict(tmp_path / "runs")
        data["experiment"]["idx"].update({key: str(path) for key, path in files.items()})
        with pytest.raises(IdxFormatError, match=f"^{re.escape(str(direct.value))}$"):
            build_problem(config_from_dict(data))

    def test_classification_label_coverage_checked(self, tmp_path):
        data = classification_dict(tmp_path)
        data["experiment"]["labels_per_agent"] = 3
        with pytest.raises(ConfigError, match="labels_per_agent"):
            config_from_dict(data)

    def test_unlearn_phase_overrides_apply(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["unlearn"]["epsilon"] = 0.9
        data["unlearn"]["update_steps"] = 7
        cfg = config_from_dict(data)
        learn_cfg = _protocol_config(cfg, PHASES["learn"])
        unlearn_cfg = _protocol_config(cfg, PHASES["unlearn"])
        assert learn_cfg.prior is unlearn_cfg.prior is cfg.experiment.prior
        assert learn_cfg.epsilon == 0.2
        assert learn_cfg.update_steps == 2
        assert unlearn_cfg.epsilon == 0.9
        assert unlearn_cfg.update_steps == 7
        assert unlearn_cfg.epsilon_local == 0.2


class TestBuildOnce:
    """A process builds each classification problem once and shares it read-only."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        _classification_problem.cache_clear()

    def test_phases_and_eval_pretrain_once(self, tmp_path, monkeypatch):
        counts = _count_calls(monkeypatch, {"models": ("pretrain_feature_map",)})
        cfg = config_from_dict(classification_dict(tmp_path / "runs"))
        for command in ("learn", "unlearn", "retrain"):
            run_experiment(cfg, command)
        evaluate_snapshot(cfg, "forget_svgd")
        assert dict(counts) == {"pretrain_feature_map": 1}

    def test_synthetic_build_draws_through_make_synthetic_pair(self, tmp_path, monkeypatch):
        # ``perfbench`` times the synthetic build's sources as this layer.
        counts = _count_calls(monkeypatch, {"data": ("make_synthetic_pair",)})
        build_problem(config_from_dict(classification_dict(tmp_path)))
        assert dict(counts) == {"make_synthetic_pair": 1}

    def test_shared_arrays_are_read_only(self, tmp_path):
        problem = build_problem(config_from_dict(classification_dict(tmp_path)))
        with pytest.raises(ValueError, match="read-only"):
            problem.test_features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            problem.losses[1].features[0, 0] = 1.0

    def test_forget_sets_share_one_build(self, tmp_path, monkeypatch):
        counts = _count_calls(monkeypatch, {"models": ("pretrain_feature_map",)})
        cfg = config_from_dict(classification_dict(tmp_path))
        other = build_problem(dataclasses.replace(cfg, forget_agents=(1,)))
        prior = GaussianPrior(mean=0.5, variance=4.0)
        reprior = build_problem(dataclasses.replace(
            cfg, experiment=dataclasses.replace(cfg.experiment, prior=prior)))
        problem = build_problem(cfg)
        assert problem.losses is other.losses is reprior.losses
        assert (problem.forget_ids, other.forget_ids) == ((2,), (1,))
        assert (problem.forgotten_classes, other.forgotten_classes) == ((2, 3), (0, 1))
        with pytest.raises(FieldError, match=r"^forget_agents: unknown agent ids \[3\]$"):
            dataclasses.replace(cfg, forget_agents=(3,))
        assert dict(counts) == {"pretrain_feature_map": 1}

    def test_rewritten_idx_file_is_read_again(self, tmp_path, monkeypatch):
        counts = _count_calls(monkeypatch, {"models": ("pretrain_feature_map",)})
        rng = np.random.default_rng(0)
        files = {key: tmp_path / key for key in ("train_images", "train_labels",
                                                 "test_images", "test_labels")}
        data = idx_dict(tmp_path / "runs")
        data["experiment"]["idx"].update({key: str(path) for key, path in files.items()})
        cfg = config_from_dict(data)
        with pytest.raises(ConfigError, match="^config.experiment.idx: .*No such file"):
            build_problem(cfg)
        write_images(files["train_images"], rng.integers(0, 256, (80, 2, 2)))
        write_labels(files["train_labels"], np.repeat(np.arange(4), 20))
        for n_test in (8, 12):
            write_images(files["test_images"], rng.integers(0, 256, (n_test, 2, 2)))
            write_labels(files["test_labels"], np.repeat(np.arange(4), n_test // 4))
            assert build_problem(cfg).test_labels.shape == (n_test,)
            assert build_problem(cfg).test_labels.shape == (n_test,)
        assert dict(counts) == {"pretrain_feature_map": 2}

    def test_cached_arrays_are_read_only_and_apart_from_the_pool(self, tmp_path, monkeypatch):
        pools = []
        pretrain = experiments.pretrain_feature_map

        def keep_pool(features, labels, *args):
            pools.append((features, labels))
            return pretrain(features, labels, *args)

        monkeypatch.setattr(experiments, "pretrain_feature_map", keep_pool)
        problem = build_problem(config_from_dict(classification_dict(tmp_path)))
        [(pool_features, pool_labels)] = pools
        arrays = [value for owner in (problem, *problem.losses.values())
                  for value in vars(owner).values() if isinstance(value, np.ndarray)]
        # The test set, and each loss's labels, one-hot labels and design matrix; no prior.
        assert len(arrays) == 2 + 3 * len(problem.losses)
        for value in arrays:
            assert not value.flags.writeable
            assert not np.shares_memory(value, pool_features)
            assert not np.shares_memory(value, pool_labels)


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

    CLASSIFICATION = ClassificationProblem(losses={}, shard_classes={}, forget_ids=(),
                                           test_features=np.zeros((0, 1)),
                                           test_labels=np.zeros(0, dtype=int), num_classes=4)

    def test_stop_reason_accuracy_bar(self):
        records = [self.rec(0, acc=0.9)] + [self.rec(i, acc=0.2, loss=float(i)) for i in range(1, 6)]
        settings = UnlearnSettings(rounds=100, patience=5, margin=0.05)
        assert _unlearn_should_stop(settings, self.CLASSIFICATION, records[:-1]) is None
        assert _unlearn_should_stop(settings, self.CLASSIFICATION, records) == "accuracy_bar"
        # The mixture has no accuracy: the same records run on.
        assert _unlearn_should_stop(settings, MixtureProblem({}, ()), records) is None

    def test_stop_reason_loss_plateau(self):
        values = [1.0, 2.0, 3.0, 2.9, 2.95, 2.8]
        records = [self.rec(0)] + [self.rec(i + 1, acc=0.9, loss=v) for i, v in enumerate(values)]
        settings = UnlearnSettings(rounds=100, loss_window=3)
        for problem in (MixtureProblem({}, ()), self.CLASSIFICATION):
            assert _unlearn_should_stop(settings, problem, records[:-1]) is None
            assert _unlearn_should_stop(settings, problem, records) == "loss_plateau"

    def test_stop_reason_budget(self):
        records = [self.rec(i, acc=0.2, loss=1.0) for i in range(4)]
        for early_stop in (True, False):
            settings = UnlearnSettings(rounds=3, early_stop=early_stop, patience=5)
            assert _unlearn_should_stop(settings, self.CLASSIFICATION, records[:-1]) is None
            assert _unlearn_should_stop(settings, self.CLASSIFICATION, records) == "budget"
        # A streak below the bar ends nothing once early stopping is off.
        settings = UnlearnSettings(rounds=100, early_stop=False, patience=2)
        assert _unlearn_should_stop(settings, self.CLASSIFICATION, records) is None

    def test_increasing_loss_never_plateaus(self):
        records = [self.rec(i + 1, loss=float(i)) for i in range(10)]
        assert not _forgot_loss_plateaued(records, window=2)

    def test_short_history_never_plateaus(self):
        records = [self.rec(1, loss=5.0)]
        assert not _forgot_loss_plateaued(records, window=1)


class TestPhaseState:
    """A phase's state is one value that no round writes to, so any kept state can be replayed."""

    @pytest.mark.parametrize("method,command,rounds,split", [
        ("dsvgd", "learn", 4, 2), ("dsvgd", "unlearn", 3, 1),
        ("pvi", "learn", 4, 2), ("pvi", "unlearn", 1, 0),
    ], ids=["dsvgd", "forget_svgd", "pvi", "ulpvi"])
    def test_rounds_from_a_kept_state_repeat_the_run(self, tmp_path, monkeypatch, method, command,
                                                     rounds, split):
        data = mixture_dict(tmp_path)
        data.update(method=method, pvi={"local_iters": 3, "mc_samples": 64})
        data[command]["rounds"] = rounds
        cfg = config_from_dict(data)
        if command == "unlearn":
            run_experiment(cfg, "learn")
        run_phase, handed = experiments._run_phase, []

        def keep(*args, **kwargs):
            handed.append(inspect.signature(run_phase).bind(*args, **kwargs).arguments)
            return run_phase(*args, **kwargs)

        monkeypatch.setattr(experiments, "_run_phase", keep)
        result = run_experiment(cfg, command)
        assert result.rounds_run == rounds
        [args] = handed
        step, snapshot, state = args["step"], args["snapshot"], args["state"]
        for r in range(split):
            state, _ = step(state, r)
        saved = load_snapshot(result.paths.snapshot)[0]
        factors = Path(result.paths.locals_json)
        saved_factors = factors.read_bytes() if method == "pvi" else None
        for _ in range(2):  # twice from the one kept state
            replayed = state
            for r in range(split, rounds):
                replayed, _ = step(replayed, r)
            assert np.array_equal(snapshot(replayed), saved)
            if method == "pvi":  # the factors it writes are those of the state it is given
                args["save_locals"](replayed)
                assert factors.read_bytes() == saved_factors


def _leaves(value):
    """The values inside the tuples, lists, dicts (values only) and dataclasses of ``value``."""
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    if isinstance(value, dict):
        return _leaves(list(value.values()))
    if dataclasses.is_dataclass(value):
        return _leaves([getattr(value, f.name) for f in dataclasses.fields(value)])
    return [value]


@pytest.mark.parametrize("command,mode", [
    ("learn", "centralized"), ("unlearn", "centralized"),
    ("retrain", "centralized"), ("retrain", "federated"),
])
def test_particle_phase_state_holds_arrays_only(tmp_path, monkeypatch, command, mode):
    data = mixture_dict(tmp_path)
    data["protocol"]["persist_adagrad"] = True  # so that the accumulators are arrays too
    data["retrain"]["mode"] = mode
    cfg = config_from_dict(data)
    if command == "unlearn":
        run_experiment(cfg, "learn")
    run_phase, states = experiments._run_phase, []

    def keep(cfg, problem, phase, method, started, state, step, *rest):
        def kept_step(state, r):
            new_state, agent = step(state, r)
            states.append(new_state)
            return new_state, agent

        states.append(state)
        return run_phase(cfg, problem, phase, method, started, state, kept_step, *rest)

    monkeypatch.setattr(experiments, "_run_phase", keep)
    rounds = run_experiment(cfg, command).rounds_run
    assert len(states) == rounds + 1
    leaves = [leaf for state in states for leaf in _leaves(state)]
    assert all(leaf is None or type(leaf) is np.ndarray for leaf in leaves)
    assert sum(type(leaf) is np.ndarray for leaf in _leaves(states[-1])) > 1


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

    def test_grid_too_narrow_for_the_reference_fails_before_any_file_is_opened(self, tmp_path):
        data = mixture_dict(tmp_path / "runs")
        paths = run_experiment(config_from_dict(data), "learn").paths
        before = {path: Path(path).read_bytes()
                  for path in (paths.metrics, paths.transcript, paths.snapshot)}
        data["grid"] = {"lo": -3, "hi": 3, "points": 601}
        with pytest.raises(GridError, match="^grid too narrow for p"):
            run_experiment(config_from_dict(data), "learn")
        assert {path: Path(path).read_bytes() for path in before} == before

    def test_runs_are_deterministic_modulo_wall_time(self, tmp_path):
        cfg_a = config_from_dict(mixture_dict(tmp_path / "a"))
        cfg_b = config_from_dict(mixture_dict(tmp_path / "b"))
        ra = run_experiment(cfg_a, "learn")
        rb = run_experiment(cfg_b, "learn")
        for x, y in zip(ra.records, rb.records):
            assert (x.round, x.phase, x.kl, x.forgot_loss) == (y.round, y.phase, y.kl, y.forgot_loss)
        snap_a = Path(ra.paths.snapshot).read_bytes()
        snap_b = Path(rb.paths.snapshot).read_bytes()
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

    def test_snapshot_of_another_particle_count_is_refused(self, tmp_path):
        data = mixture_dict(tmp_path / "runs")
        learned = run_experiment(config_from_dict(data), "learn")
        data["particles"] = 20
        cfg = config_from_dict(data)
        refusal = f"^{re.escape(learned.paths.snapshot)}: holds 12 particles, not the run's 20$"
        with pytest.raises(MissingStateError, match=refusal):
            run_experiment(cfg, "unlearn")
        assert sorted(os.listdir(cfg.out_dir)) == [
            "dsvgd_metrics.csv", "dsvgd_snapshot.txt", "dsvgd_transcript.jsonl"]
        with pytest.raises(MissingStateError, match=refusal):
            evaluate_snapshot(cfg, "dsvgd")

    def test_snapshot_of_another_width_is_refused_before_any_file_is_opened(self, tmp_path):
        data = classification_dict(tmp_path / "runs")
        cfg = config_from_dict(data)
        learned = run_experiment(cfg, "learn")
        paths = run_experiment(cfg, "unlearn").paths
        before = {path: Path(path).read_bytes()
                  for path in (paths.metrics, paths.transcript, paths.snapshot)}
        data["experiment"]["feature_map"]["hidden_units"] = 3  # d = 4 * (3 + 1), not 4 * (4 + 1)
        narrow = config_from_dict(data)
        refusal = (f"^{re.escape(learned.paths.snapshot)}: holds rows of width 20, "
                   f"not the problem's width 16$")
        with pytest.raises(MissingStateError, match=refusal):
            run_experiment(narrow, "unlearn")
        assert {path: Path(path).read_bytes() for path in before} == before
        with pytest.raises(MissingStateError, match=refusal):
            evaluate_snapshot(narrow, "dsvgd")

    def test_snapshot_of_another_width_is_refused_without_pretraining(self, tmp_path,
                                                                      monkeypatch):
        _classification_problem.cache_clear()  # a kept wider build would hide its pretraining
        data = json.loads((REPO_ROOT / "configs" / "classification_desk.json").read_text())
        data["out_dir"] = str(tmp_path / "runs")
        snapshot = run_experiment(config_from_dict(data), "learn").paths.snapshot
        data["experiment"]["feature_map"]["hidden_units"] = 26  # d = 4 * (26 + 1), not 4 * (25 + 1)
        wider = config_from_dict(data)
        counts = _count_calls(monkeypatch, {"models": ("pretrain_feature_map",)})
        refusal = f"^{re.escape(snapshot)}: holds rows of width 104, not the problem's width 108$"
        with pytest.raises(MissingStateError, match=refusal):
            run_experiment(wider, "unlearn")
        assert not counts
        with pytest.raises(MissingStateError, match=refusal):
            evaluate_snapshot(wider, "dsvgd")
        assert not counts

    def test_snapshot_with_a_non_finite_value_is_refused_before_the_build(self, tmp_path,
                                                                          monkeypatch):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        learned = run_experiment(cfg, "learn")
        paths = run_experiment(cfg, "unlearn").paths
        before = {path: Path(path).read_bytes()
                  for path in (paths.metrics, paths.transcript, paths.snapshot)}
        snapshot = Path(learned.paths.snapshot)
        lines = snapshot.read_text().splitlines()
        lines[3] = "nan"
        snapshot.write_text("\n".join(lines) + "\n")
        counts = _count_calls(monkeypatch, {"experiments": ("build_problem",)})
        refusal = f"^{re.escape(str(snapshot))}: holds a value that is not finite$"
        with pytest.raises(MissingStateError, match=refusal):
            run_experiment(cfg, "unlearn")
        with pytest.raises(MissingStateError, match=refusal):
            evaluate_snapshot(cfg, "dsvgd")
        assert not counts
        assert {path: Path(path).read_bytes() for path in before} == before

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

    def test_unlearning_starts_from_learned_particles_and_forget_agents(self, tmp_path,
                                                                       monkeypatch):
        data = mixture_dict(tmp_path / "runs")
        data["experiment"]["agents"].append([{"weight": 1.0, "mean": -2.0, "variance": 1.0}])
        data["forget_agents"] = [1, 3]
        cfg = config_from_dict(data)
        learned = run_experiment(cfg, "learn")
        calls = []
        original = fed.unlearning_round

        def record(server, agent, loss, config):
            agent = fed.settle(agent, config)
            calls.append((server.particles.copy(), agent.particles.copy(), agent.acc, loss))
            return original(server, agent, loss, config)

        monkeypatch.setattr(fed, "unlearning_round", record)
        run_experiment(cfg, "unlearn")
        assert len(calls) == 3
        assert np.array_equal(calls[0][0], load_snapshot(learned.paths.snapshot)[0])
        prior = cfg.experiment.prior
        # round robin over the forget set: agents 1 and 3 run their first rounds
        for k, (_, local, acc, _) in zip((1, 3), calls):
            want = init_local_particles(prior, (cfg.particles, 1), cfg.seed, k, STREAM_UNLEARN)
            assert np.array_equal(local, want)
            assert acc is None
        # each round is passed its scheduled agent's loss: means 1.0 (agent 1) and -2.0 (agent 3)
        assert [float(loss.components[0].mean[0]) for *_, loss in calls] == [1.0, -2.0, 1.0]

    def test_retained_agent_never_runs_an_unlearning_round(self, tmp_path):
        data = mixture_dict(tmp_path / "runs")
        data["protocol"].update(schedule="fixed_sequence", sequence=[2, 1, 2, 1])
        cfg = config_from_dict(data)
        run_experiment(cfg, "learn")
        with pytest.raises(ConfigError, match=r"^config.protocol.sequence: the unlearn phase "
                           r"cannot schedule agents \[2\]; it schedules \[1\]$"):
            run_experiment(cfg, "unlearn")
        assert not os.path.exists(run_paths(cfg, "forget_svgd").transcript)

    @pytest.mark.parametrize("method,command,mode,prefix", [
        ("dsvgd", "unlearn", "centralized", "forget_svgd"),
        ("pvi", "unlearn", "centralized", "ulpvi"),
        ("dsvgd", "retrain", "federated", "retrain"),
    ])
    def test_sequence_checked_against_the_phase_before_its_files(self, tmp_path, method,
                                                                 command, mode, prefix):
        data = mixture_dict(tmp_path / "runs")
        data.update(method=method, forget_agents=[1])
        data["retrain"]["mode"] = mode
        data["protocol"].update(schedule="fixed_sequence", sequence=[2, 1, 2, 2])
        cfg = config_from_dict(data)
        run_experiment(cfg, "learn")  # every agent may learn
        with pytest.raises(ConfigError, match=f"^config.protocol.sequence: the {command} phase"):
            run_experiment(cfg, command)
        assert not [name for name in os.listdir(cfg.out_dir) if name.startswith(prefix + "_")]

    def test_sequence_entries_past_the_phase_rounds_are_not_checked(self, tmp_path):
        data = mixture_dict(tmp_path / "runs")
        data["retrain"]["mode"] = "federated"
        data["protocol"].update(schedule="fixed_sequence", sequence=[2, 2, 2, 1])
        cfg = config_from_dict(data)
        assert run_experiment(cfg, "retrain").rounds_run == 3

    @pytest.mark.parametrize("base", ["mix", "cls"])
    def test_unknown_sequence_agent_rejected_before_round_zero(self, tmp_path, base):
        data = BASES[base](tmp_path / "runs")
        data["protocol"].update(schedule="fixed_sequence", sequence=[1, 7, 2])
        with pytest.raises(ConfigError,
                           match=r"^config.protocol.sequence: unknown agent ids \[7\]$"):
            config_from_dict(data)
        assert not os.path.exists(data["out_dir"])

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
        events = read_transcript(result.paths.transcript)
        assert [e.get("stop_reason") for e in events] == [None] * result.rounds_run + ["loss_plateau"]

    def test_unlearn_stop_reason_budget(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))  # three rounds, no early stop
        learn = run_experiment(cfg, "learn")
        result = run_experiment(cfg, "unlearn")
        assert result.rounds_run == 3
        events = read_transcript(result.paths.transcript)
        assert [e.get("stop_reason") for e in events] == [None] * 3 + ["budget"]
        assert all("stop_reason" not in e for e in read_transcript(learn.paths.transcript))

    def test_unlearn_stop_reason_accuracy_bar(self, tmp_path):
        # The shipped desk run, after 40 learn rounds: its forgotten classes fall below the bar
        # for `patience` rounds.
        data = json.loads((REPO_ROOT / "configs" / "classification_desk.json").read_text())
        data["out_dir"] = str(tmp_path / "desk")
        data["learn"]["rounds"] = 40
        cfg = config_from_dict(data)
        run_experiment(cfg, "learn")
        result = run_experiment(cfg, "unlearn")
        assert result.rounds_run < cfg.unlearn.rounds
        events = read_transcript(result.paths.transcript)
        assert events[-1]["stop_reason"] == "accuracy_bar"
        assert all("stop_reason" not in e for e in events[:-1])

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
            assert events[0]["setup_ms"] > 0.0
            assert all("setup_ms" not in e for e in events[1:])
            timed_ms = events[0]["setup_ms"] + sum(e["round_ms"] + e["eval_ms"] for e in events)
            assert timed_ms < phase_ms

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


def shipped_mixture_dict(out_dir, seed):
    data = json.loads((REPO_ROOT / "configs" / "mixture.json").read_text())
    data.update(seed=seed, out_dir=str(out_dir))
    return data


class TestMixtureKl:
    """The particle methods' grid KL against the general-d broadcast KDE, and the kernel calls."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_particle_kl_matches_the_general_kde(self, tmp_path, monkeypatch, seed):
        cfg = config_from_dict(shipped_mixture_dict(tmp_path, seed))
        seen, pairs, bandwidths, directions = [], [], [], []
        kde, median, direction = (experiments.kde_log_density, svgd.median_bandwidth,
                                  svgd.svgd_direction)

        def recording_kde(particles, query, lam):
            seen.append((particles, lam))
            return kde(particles, query, lam)

        def recording_median(sq_dists):
            bandwidths.append(sq_dists.shape)
            return median(sq_dists)

        def recording_direction(particles, target, bandwidth=None):
            directions.append(bandwidth)
            return direction(particles, target, bandwidth)

        def checked_grid_kl(log_q, reference, grid):
            new = grid_kl(log_q, reference, grid)
            particles, lam = seen[-1]
            pairs.append((new, grid_kl(
                lambda x: kde_log_density_broadcast(particles, x[:, None], lam), reference, grid)))
            return new

        monkeypatch.setattr(experiments, "kde_log_density", recording_kde)
        monkeypatch.setattr(experiments, "grid_kl", checked_grid_kl)
        monkeypatch.setattr(svgd, "median_bandwidth", recording_median)
        monkeypatch.setattr(svgd, "svgd_direction", recording_direction)
        for command in ("learn", "unlearn", "retrain"):
            before = len(pairs)
            result = run_experiment(cfg, command)
            assert [r.kl for r in result.records] == [new for new, _ in pairs[before:]]
        # One log density per particle-method grid KL, one bandwidth per transport direction.
        assert len(seen) == len(pairs) == 31 + 2 + 31
        assert directions and set(directions) == {None}
        assert bandwidths == [(cfg.particles, cfg.particles)] * len(directions)
        for new, old in pairs:
            assert abs(new - old) <= 1e-12 * abs(old)

    @pytest.mark.parametrize("offset", [0.5, 1e3])
    def test_particles_outside_the_grid_fail_with_the_general_kde_text(self, tmp_path, offset):
        cfg = config_from_dict(shipped_mixture_dict(tmp_path, 0))
        problem = build_problem(cfg)
        particles = cfg.grid.hi + offset + np.random.default_rng(3).uniform(0.0, 1.0, (100, 1))
        with pytest.raises(GridError) as old:
            grid_kl(lambda x: kde_log_density_broadcast(particles, x[:, None], cfg.protocol.kde_lam),
                    lambda x: -x * x, cfg.grid)
        assert re.fullmatch(r"grid too narrow for q: edge mass \S+ exceeds 1e-03", str(old.value))
        measure = experiments._measurement(cfg, problem, PHASES["learn"], "dsvgd")
        with pytest.raises(GridError, match=f"^{re.escape(str(old.value))}$"):
            measure(particles, 0, 0.0)


class TestRetrainRuns:
    def test_retrain_zero_rounds_returns_prior_draws(self, tmp_path):
        for mode in ("centralized", "federated"):
            data = mixture_dict(tmp_path / mode)
            data["retrain"] = {"rounds": 0, "mode": mode}
            cfg = config_from_dict(data)
            result = run_experiment(cfg, "retrain")
            particles, rnd, _ = load_snapshot(result.paths.snapshot)
            prior = cfg.experiment.prior
            assert np.array_equal(particles,
                                  init_global_particles(prior, (cfg.particles, 1), cfg.seed))
            assert rnd == 0 and result.rounds_run == 0

    @pytest.mark.parametrize("mode,draws", [("centralized", 0), ("federated", 2)])
    def test_retrain_draws_local_particles_only_for_agents_it_schedules(self, tmp_path,
                                                                      monkeypatch, mode, draws):
        data = mixture_dict(tmp_path / "runs")
        data["experiment"]["agents"].append([{"weight": 1.0, "mean": -2.0, "variance": 1.0}])
        data["retrain"]["mode"] = mode
        cfg = config_from_dict(data)
        counts = _count_calls(monkeypatch, {"federation": ("init_local_particles",)})
        run_experiment(cfg, "retrain")
        assert counts["init_local_particles"] == draws  # federated: one per retained agent

    def test_retrain_centralized_accepts_empty_retained_set(self, tmp_path):
        data = mixture_dict(tmp_path / "runs")
        data["forget_agents"] = [1, 2]
        cfg = config_from_dict(data)
        result = run_experiment(cfg, "retrain")
        particles, rnd, _ = load_snapshot(result.paths.snapshot)
        assert rnd == result.rounds_run == 3
        assert particles.shape == (12, 1)

    @pytest.mark.parametrize("forget,command,message", [
        ([], "unlearn", "config.forget_agents: unlearning needs a nonempty forget set"),
        ([1, 2], "retrain", "config.retrain.mode: federated retraining needs a retained agent"),
    ], ids=["unlearn", "retrain"])
    def test_phase_without_agents_fails_before_the_build(self, tmp_path, monkeypatch, forget,
                                                         command, message):
        data = classification_dict(tmp_path / "runs")
        data["forget_agents"] = forget
        data["retrain"]["mode"] = "federated"
        cfg = config_from_dict(data)
        _classification_problem.cache_clear()
        counts = _count_calls(monkeypatch, {"models": ("pretrain_feature_map",)})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_experiment(cfg, command)
        assert not counts
        assert not os.path.exists(cfg.out_dir)

    def test_retrain_federated_matches_manual_protocol_loop(self, tmp_path):
        data = mixture_dict(tmp_path / "runs")
        data["experiment"]["agents"].append([{"weight": 1.0, "mean": -2.0, "variance": 1.0}])
        data["retrain"] = {"rounds": 5, "mode": "federated"}
        cfg = config_from_dict(data)
        result = run_experiment(cfg, "retrain")
        got, rnd, _ = load_snapshot(result.paths.snapshot)

        losses = build_problem(cfg).losses
        config = dataclasses.replace(cfg.protocol, prior=cfg.experiment.prior)
        server, agents = initialize_states((2, 3), config.prior, (cfg.particles, 1), cfg.seed)
        for r in range(5):
            k = schedule(config, r, agents.keys())
            server, agents[k] = learning_round(server, agents[k], losses[k], config)
        assert np.array_equal(got, server.particles)
        assert rnd == 5
        events = read_transcript(result.paths.transcript)
        assert [e["agent"] for e in events] == [None, 2, 3, 2, 3, 2]

    def test_retrain_invalid_arguments(self, tmp_path):
        data = mixture_dict(tmp_path)
        data["retrain"]["mode"] = "hybrid"
        with pytest.raises(ConfigError, match="config.retrain.mode"):
            config_from_dict(data)
        data["retrain"] = {"rounds": -1}
        with pytest.raises(ConfigError, match="config.retrain.rounds"):
            config_from_dict(data)


def _gaussian_prior_dict(out_dir):
    data = mixture_dict(out_dir)
    data["experiment"]["prior"] = {"kind": "gaussian", "mean": 0.0, "variance": 9.0}
    return data


# (command, section, key, value): each option must change the phase's snapshot.
RUN_OPTIONS = [
    ("learn", "protocol", "include_prior_score", True),
    ("learn", "protocol", "persist_adagrad", True),
    ("learn", "protocol", "bandwidth", 0.5),
    ("learn", "protocol", "kde_lam", 0.9),
    ("unlearn", "unlearn", "epsilon", 0.5),
    ("unlearn", "unlearn", "epsilon_local", 0.5),
    ("unlearn", "unlearn", "update_steps", 4),
    ("unlearn", "unlearn", "distill_steps", 4),
    ("retrain", "retrain", "mode", "federated"),
    ("retrain", "protocol", "persist_adagrad", True),
    ("retrain", "protocol", "bandwidth", 0.5),
]


class TestRunOptions:
    def snapshot(self, data, command):
        cfg = config_from_dict(data)
        if command == "unlearn":
            run_experiment(cfg, "learn")
        return Path(run_experiment(cfg, command).paths.snapshot).read_bytes()

    # the id names the command too when it is neither learn nor the section's own
    @pytest.mark.parametrize("command,section,key,value", RUN_OPTIONS,
                             ids=[f"{s}.{k}" if c in ("learn", s) else f"{c}:{s}.{k}"
                                  for c, s, k, _ in RUN_OPTIONS])
    def test_option_reaches_the_rounds(self, tmp_path, command, section, key, value):
        default = _gaussian_prior_dict(tmp_path / "default")
        changed = _gaussian_prior_dict(tmp_path / "changed")
        changed[section][key] = value
        assert self.snapshot(changed, command) != self.snapshot(default, command)

    @pytest.mark.parametrize("section,key", [
        ("protocol", "bandwidth"), ("unlearn", "epsilon"), ("unlearn", "epsilon_local"),
        ("unlearn", "update_steps"), ("unlearn", "distill_steps"),
    ])
    def test_null_means_unset(self, tmp_path, section, key):
        data = mixture_dict(tmp_path)
        data[section][key] = None
        cfg = config_from_dict(data)
        del data[section][key]
        unset = config_from_dict(data)
        assert (cfg.unlearn, cfg.protocol) == (unset.unlearn, unset.protocol)
        unlearn = PHASES["unlearn"]
        assert _protocol_config(cfg, unlearn) == _protocol_config(unset, unlearn)


# Round functions by defining module; each is wrapped in every module that binds it.
ROUND_FUNCTIONS = {
    "federation": ("learning_round", "unlearning_round", "centralized_round"),
    "pvi": ("pvi_round", "ulpvi_round"),
}


def _count_calls(monkeypatch, functions=ROUND_FUNCTIONS, everywhere=True) -> collections.Counter:
    """Wrap ``functions``, names by defining module, as ``perfbench/tracer.py`` wraps its layers.

    ``everywhere=False`` wraps each function in its defining module only.
    """
    counts = collections.Counter()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "steinfed" or name.startswith("steinfed."))]
    for module_name, names in functions.items():
        owner = sys.modules[f"steinfed.{module_name}"]
        for name in names:
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in modules if everywhere else [owner]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
    return counts


def test_every_traced_layer_is_a_callable_of_the_package():
    """``perfbench/tracer.py`` wraps its layers by name; a renamed or deleted one fails here."""
    spec = importlib.util.spec_from_file_location("tracer", REPO_ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # loads the names only: no wrapper is installed
    missing = []
    for layer in tracer.LAYERS:
        module_name, *path = layer.split(".")
        owner = importlib.import_module(f"steinfed.{module_name}")
        for attr in path:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(layer)
    assert len(tracer.LAYERS) > 0 and missing == []


ROUND_CASES = [
    ("dsvgd", "learn", "centralized", "learning_round", 4),
    ("dsvgd", "unlearn", "centralized", "unlearning_round", 3),
    ("dsvgd", "retrain", "centralized", "centralized_round", 3),
    ("dsvgd", "retrain", "federated", "learning_round", 3),
    ("pvi", "learn", "centralized", "pvi_round", 4),
    ("pvi", "unlearn", "centralized", "ulpvi_round", 3),
]


def _round_case(tmp_path, method: str, command: str, mode: str):
    """The mixture config of a ``ROUND_CASES`` row, learned first when ``command`` unlearns."""
    data = mixture_dict(tmp_path)
    data["method"] = method
    data["retrain"]["mode"] = mode
    data["pvi"] = {"local_iters": 3, "epsilon": 0.05, "mc_samples": 64}
    cfg = config_from_dict(data)
    if command == "unlearn":
        run_experiment(cfg, "learn")
    return cfg


@pytest.mark.parametrize("method,command,mode,name,rounds", ROUND_CASES,
                         ids=[f"{m}-{c}-{mode}" for m, c, mode, _, _ in ROUND_CASES])
def test_round_functions_are_looked_up_per_call(tmp_path, monkeypatch, method, command, mode,
                                                name, rounds):
    cfg = _round_case(tmp_path, method, command, mode)
    counts = _count_calls(monkeypatch)
    result = run_experiment(cfg, command)
    assert result.rounds_run == rounds
    assert dict(counts) == {name: rounds}


@pytest.mark.parametrize("method,command,mode,name,rounds", ROUND_CASES,
                         ids=[f"{m}-{c}-{mode}" for m, c, mode, _, _ in ROUND_CASES])
def test_round_function_is_read_from_its_module_at_each_round(tmp_path, monkeypatch, method,
                                                               command, mode, name, rounds):
    # As a caller that rebinds ``fed.unlearning_round`` does: the phase must look each round
    # function up in its module when the round runs.
    cfg = _round_case(tmp_path, method, command, mode)
    counts = _count_calls(monkeypatch, everywhere=False)
    result = run_experiment(cfg, command)
    assert result.rounds_run == rounds
    assert dict(counts) == {name: rounds}


@pytest.mark.parametrize("command,mode,draws", [
    ("learn", "centralized", 1),
    ("unlearn", "centralized", 0),
    ("retrain", "centralized", 1),
    ("retrain", "federated", 1),
], ids=["learn", "unlearn", "retrain-centralized", "retrain-federated"])
def test_global_particles_are_drawn_only_when_a_phase_starts_from_the_prior(
        tmp_path, monkeypatch, command, mode, draws):
    cfg = _round_case(tmp_path, "dsvgd", command, mode)
    counts = _count_calls(monkeypatch, {"federation": ("init_global_particles",)})
    run_experiment(cfg, command)
    assert counts["init_global_particles"] == draws


@pytest.mark.parametrize("command,calls", [("learn", 58), ("unlearn", 1)])
def test_a_distillation_that_no_later_round_reads_never_runs(tmp_path, monkeypatch, command,
                                                             calls):
    # The shipped mixture's rounds: 30 learning rounds over two agents leave each agent's
    # last distillation pending, and the one unlearning round leaves its only one.
    data = mixture_dict(tmp_path)
    data["learn"]["rounds"], data["unlearn"]["rounds"] = 30, 1
    cfg = config_from_dict(data)
    if command == "unlearn":
        run_experiment(cfg, "learn")
    counts = _count_calls(monkeypatch, {"svgd": ("run_svgd",)})
    run_experiment(cfg, command)
    assert counts["run_svgd"] == calls


PROPER = {"eta1": [0.0], "eta2": [-0.5]}


def factor_state(glob=PROPER, agent=PROPER):
    """A ``*_locals.json`` text for the two mixture agents, both holding ``agent``."""
    return json.dumps({"global": glob, "agents": {"1": agent, "2": agent}})


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
        state = json.loads(Path(result.paths.locals_json).read_text())
        assert set(state["agents"]) == {"1", "2"}
        assert set(state["global"]) == {"eta1", "eta2"}
        assert all(r.kl is not None for r in result.records)

    def test_pvi_unlearn_needs_learned_state(self, tmp_path):
        cfg = config_from_dict(self.pvi_dict(tmp_path / "runs"))
        with pytest.raises(MissingStateError, match="run learn first"):
            run_experiment(cfg, "unlearn")

    def test_pvi_state_of_another_seed_is_refused(self, tmp_path):
        data = self.pvi_dict(tmp_path / "runs")
        learned = run_experiment(config_from_dict(data), "learn")
        data["seed"] = 1
        cfg = config_from_dict(data)
        refusal = f"^{re.escape(learned.paths.snapshot)}: saved at seed 0, not at the run's seed 1$"
        with pytest.raises(MissingStateError, match=refusal):
            run_experiment(cfg, "unlearn")
        assert not os.path.exists(run_paths(cfg, "ulpvi").metrics)
        with pytest.raises(MissingStateError, match=refusal):
            evaluate_snapshot(cfg, "pvi")

    def test_pvi_snapshot_of_another_width_is_refused_before_the_build(self, tmp_path,
                                                                       monkeypatch):
        cfg = config_from_dict(self.pvi_dict(tmp_path / "runs"))
        snapshot = run_experiment(cfg, "learn").paths.snapshot
        save_snapshot(snapshot, np.array([[0.0, 0.0], [1.0, 1.0]]), 4, cfg.seed)
        counts = _count_calls(monkeypatch, {"experiments": ("build_problem",)})
        refusal = f"^{re.escape(snapshot)}: holds rows of width 2, not the problem's width 1$"
        with pytest.raises(MissingStateError, match=refusal):
            run_experiment(cfg, "unlearn")
        assert not [name for name in os.listdir(cfg.out_dir) if name.startswith("ulpvi_")]
        with pytest.raises(MissingStateError, match=refusal):
            evaluate_snapshot(cfg, "pvi")
        assert not counts

    def test_pvi_unlearn_runs_from_saved_factors(self, tmp_path):
        cfg = config_from_dict(self.pvi_dict(tmp_path / "runs"))
        run_experiment(cfg, "learn")
        result = run_experiment(cfg, "unlearn")
        assert result.method == "ulpvi"
        assert result.rounds_run == 3
        assert all(r.phase == "unlearn" for r in result.records)
        array, _, _ = load_snapshot(result.paths.snapshot)
        assert array.shape == (2, 1)

    @pytest.mark.parametrize("content", [
        "[]",
        '{"global": {"eta1": [0.0], "eta2": [-0.5]},'
        ' "agents": {"one": {"eta1": [0.0], "eta2": [0.0]}}}',
        "not json",
        factor_state(glob={"eta1": [0.0]}),
        factor_state(agent={**PROPER, "eta3": [0.0]}),
        factor_state(agent={"eta1": [0.0, 1.0], "eta2": [0.0]}),
        factor_state(agent={"eta1": [[0.0]], "eta2": [[0.0]]}),
        factor_state(glob={"eta1": [None], "eta2": [-0.5]}),
        factor_state(glob={"eta1": [0.0], "eta2": [float("-inf")]}),
        factor_state(agent={"eta1": [0.0, 0.0], "eta2": [0.0, 0.0]}),
        factor_state(glob={"eta1": [0.0], "eta2": [0.5]}),
    ], ids=["list", "non-integer-id", "not-json", "missing-key", "unknown-key", "unequal-lengths",
            "nested-lists", "null", "non-finite", "two-coordinates", "improper-global"])
    def test_malformed_factor_state_names_its_file(self, tmp_path, content):
        cfg = config_from_dict(self.pvi_dict(tmp_path / "runs"))
        run_experiment(cfg, "learn")
        path = run_paths(cfg, "pvi").locals_json
        Path(path).write_text(content)
        earlier = Path(run_paths(cfg, "ulpvi").metrics)
        earlier.write_bytes(b"an earlier run's rows\n")
        with pytest.raises(MissingStateError, match=f"^{re.escape(path)}: malformed factor state"):
            run_experiment(cfg, "unlearn")
        assert earlier.read_bytes() == b"an earlier run's rows\n"

    def test_agent_factor_may_be_improper(self, tmp_path):
        path = tmp_path / "pvi_locals.json"
        path.write_text(factor_state(agent={"eta1": [0.5], "eta2": [0.25]}))
        eta, locals_nat = _load_pvi_state(str(path), (2, 1))
        assert eta.tolist() == [[0.0], [-0.5]]
        assert locals_nat[1].tolist() == [[0.5], [0.25]] and set(locals_nat) == {1, 2}

    def test_unlearn_needs_factors_of_forget_agents(self, tmp_path):
        cfg = config_from_dict(self.pvi_dict(tmp_path / "runs"))
        result = run_experiment(cfg, "learn")
        state = json.loads(Path(result.paths.locals_json).read_text())
        del state["agents"]["1"]
        Path(result.paths.locals_json).write_text(json.dumps(state))
        refusal = (rf"^{re.escape(result.paths.locals_json)}: "
                   r"learned state lacks factors for forget agents \[1\]$")
        with pytest.raises(MissingStateError, match=refusal):
            run_experiment(cfg, "unlearn")

    def test_pvi_runs_deterministic(self, tmp_path):
        ra = run_experiment(config_from_dict(self.pvi_dict(tmp_path / "a")), "learn")
        rb = run_experiment(config_from_dict(self.pvi_dict(tmp_path / "b")), "learn")
        assert [r.kl for r in ra.records] == [r.kl for r in rb.records]


def assert_eval_matches_last_record(ev, result):
    """The snapshot's measurement, header round and final transcript event agree with the CSV."""
    last = result.records[-1]
    assert {k: ev[k] for k in last.metrics()} == last.metrics()
    assert ev["round"] == result.rounds_run
    assert read_transcript(result.paths.transcript)[-1]["metrics"] == last.metrics()


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

    @pytest.mark.parametrize("command", ["unlearn", "retrain"])
    def test_eval_matches_final_unlearn_record_exactly(self, tmp_path, command):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        run_experiment(cfg, "learn")
        result = run_experiment(cfg, command)
        ev = evaluate_snapshot(cfg, result.method)
        assert ev["kl"] == result.records[-1].kl
        assert_eval_matches_last_record(ev, result)

    @pytest.mark.parametrize("command", ["learn", "unlearn"])
    def test_eval_matches_parametric_record_exactly(self, tmp_path, command):
        data = mixture_dict(tmp_path / "runs")
        data["method"] = "pvi"
        data["pvi"] = {"local_iters": 3, "epsilon": 0.05, "mc_samples": 64}
        cfg = config_from_dict(data)
        result = run_experiment(cfg, "learn")
        if command == "unlearn":
            result = run_experiment(cfg, "unlearn")
        ev = evaluate_snapshot(cfg, result.method)
        assert ev["kl"] == result.records[-1].kl
        assert ev["forgot_loss"] == result.records[-1].forgot_loss
        assert_eval_matches_last_record(ev, result)

    def test_eval_without_snapshot_errors(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        with pytest.raises(MissingStateError):
            evaluate_snapshot(cfg, "dsvgd")
        with pytest.raises(ConfigError):
            evaluate_snapshot(cfg, "momentum")

    def test_parametric_eval_needs_mixture(self, tmp_path):
        cfg = config_from_dict(classification_dict(tmp_path / "runs"))
        os.makedirs(cfg.out_dir)
        save_snapshot(run_paths(cfg, "pvi").snapshot, np.array([[0.0], [1.0]]), 0, cfg.seed)
        with pytest.raises(ConfigError, match="mixture experiment only"):
            evaluate_snapshot(cfg, "pvi")

    def test_parametric_eval_needs_mean_and_variance_rows(self, tmp_path):
        cfg = config_from_dict(mixture_dict(tmp_path / "runs"))
        os.makedirs(cfg.out_dir)
        save_snapshot(run_paths(cfg, "pvi").snapshot, np.ones((3, 1)), 0, cfg.seed)
        with pytest.raises(MissingStateError, match="must hold mean and variance rows"):
            evaluate_snapshot(cfg, "pvi")

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

    def test_mixture_artifacts_independent_of_blas_threads(self, tmp_path):
        # The 1-D grid KDE's GEMM and GEMV reach every kl cell of the particle methods.
        data = shipped_mixture_dict(tmp_path, 0)
        data["learn"]["rounds"] = data["retrain"]["rounds"] = 4
        script = (
            "import json, sys\n"
            "from steinfed.experiments import config_from_dict, run_experiment\n"
            "cfg = config_from_dict(json.loads(sys.argv[1]))\n"
            "for command in ('learn', 'unlearn', 'retrain'):\n"
            "    run_experiment(cfg, command)\n"
        )
        runs = []
        for threads in ("1", "2"):
            data["out_dir"] = str(tmp_path / f"threads{threads}")
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": str(REPO_ROOT / "src")}
            subprocess.run([sys.executable, "-c", script, json.dumps(data)], env=env,
                           check=True, timeout=300)
            cfg = config_from_dict(data)
            run = {}
            for method in ("dsvgd", "forget_svgd", "retrain"):
                paths = run_paths(cfg, method)
                records = [dataclasses.replace(r, wall_ms=0.0)
                           for r in read_metrics_csv(paths.metrics)]
                run[method] = (Path(paths.snapshot).read_bytes(), records)
            runs.append(run)
        assert all(record.kl is not None for _, records in runs[0].values() for record in records)
        assert runs[0] == runs[1]


def test_unlearn_from_the_saved_array_equals_unlearn_from_the_parsed_file(tmp_path):
    # learn then unlearn in one process reuse the array learn saved; a cleared
    # store makes the second unlearn parse dsvgd_snapshot.txt, as a new process would
    data = json.loads((REPO_ROOT / "configs" / "classification_desk.json").read_text())
    data["out_dir"] = str(tmp_path)
    cfg = config_from_dict(data)
    learned = run_experiment(cfg, "learn")

    def unlearn():
        paths = run_experiment(cfg, "unlearn").paths
        csv_cells = [line.rsplit(",", 1)[0] for line in Path(paths.metrics).read_text().splitlines()]
        assert csv_cells[0].endswith(",forgot_loss")  # wall_ms is the last column
        events = [{k: v for k, v in e.items() if not k.endswith("_ms")}
                  for e in read_transcript(paths.transcript)]
        return Path(paths.snapshot).read_bytes(), csv_cells, json.dumps(events)

    assert learned.paths.snapshot in metrics._kept_snapshots
    warm = unlearn()
    metrics._kept_snapshots.clear()
    cold = unlearn()
    assert warm == cold


def test_a_killed_learn_leaves_the_earlier_snapshot_or_the_whole_new_one(tmp_path):
    # A learn killed at any moment leaves the snapshot of the run before it or its own complete
    # one; a leftover ``.tmp`` file beside it is allowed.
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}

    def learn(seed, out_dir):
        command = [sys.executable, "-m", "steinfed.cli", "learn", "--config",
                   str(REPO_ROOT / "configs" / "mixture.json"), "--out", str(out_dir),
                   "--seed", str(seed)]
        return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)

    assert learn(1, tmp_path / "runs").wait(timeout=60) == 0
    assert learn(0, tmp_path / "whole").wait(timeout=60) == 0
    snapshot = tmp_path / "runs" / "dsvgd_snapshot.txt"
    earlier, whole = snapshot.read_bytes(), (tmp_path / "whole" / "dsvgd_snapshot.txt").read_bytes()
    assert earlier != whole
    codes = []
    for delay in (0.2, 0.4, 0.6, 0.8, 1.0, 1.5):
        snapshot.write_bytes(earlier)
        child = learn(0, tmp_path / "runs")
        try:
            child.wait(timeout=delay)
        except subprocess.TimeoutExpired:
            child.send_signal(signal.SIGKILL)
        codes.append(child.wait(timeout=60))
        assert snapshot.read_bytes() in (earlier, whole), delay
    assert -signal.SIGKILL in codes  # at least one child was killed partway

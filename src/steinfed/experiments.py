"""Experiment assembly: typed configuration, run loops, evaluation, export.

A run is described by one JSON config naming the method, the experiment
(a one-dimensional mixture density benchmark or a non-iid label-split
classification benchmark), the protocol settings, and per-phase budgets.
Each run writes three files into the output directory, prefixed by the
effective method name: ``<method>_metrics.csv`` (one row per round),
``<method>_transcript.jsonl`` (round events), and ``<method>_snapshot.txt``
(final state).  Unlearning resumes from the learning snapshot of its
method family; parametric runs additionally persist their per-agent
factors as ``<method>_locals.json``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import federation as fed
from .data import load_idx_dataset, make_synthetic_pair, partition_non_iid
from .kernels import KdeConfig, KernelConfig, kde_log_density
from .metrics import (
    GridConfig,
    MetricRecord,
    MetricsWriter,
    TranscriptWriter,
    grid_kl,
    load_snapshot,
    read_metrics_csv,
    save_snapshot,
)
from .models import (
    FeatureMapConfig,
    GaussianMixtureLoss,
    GaussianPrior,
    MixtureComponent,
    SoftmaxHeadLoss,
    UniformPrior,
    macro_accuracy,
    per_class_accuracy,
    pretrain_feature_map,
)
from .pvi import (
    GaussianNatParams,
    PviConfig,
    gaussian_log_density_moments,
    moment_to_nat,
    nat_to_moment,
    pvi_round,
    ulpvi_round,
)

PARTICLE_METHODS = ("dsvgd", "forget_svgd", "retrain")
PARAMETRIC_METHODS = ("pvi", "ulpvi")
METHODS = PARTICLE_METHODS + PARAMETRIC_METHODS

PHASE_LEARN = "learn"
PHASE_UNLEARN = "unlearn"
PHASE_RETRAIN = "retrain"


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field path."""


class MissingStateError(RuntimeError):
    """A resume step needed files an earlier phase has not produced."""


# --- config schema --------------------------------------------------------------


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(data: dict, allowed, path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")


def _get_number(data: dict, key: str, path: str, default=None, required=False) -> float | None:
    if key not in data:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {type(value).__name__}")
    return float(value)


def _get_int(data: dict, key: str, path: str, default=None, required=False) -> int | None:
    if key not in data:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {type(value).__name__}")
    return value


def _get_bool(data: dict, key: str, path: str, default: bool) -> bool:
    if key not in data:
        return default
    value = data[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected true/false, got {type(value).__name__}")
    return value


def _get_str(data: dict, key: str, path: str, default=None, choices=None, required=False):
    if key not in data:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    value = data[key]
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}.{key}: expected one of {sorted(choices)}, got {value!r}")
    return value


def _positive(value: float, path: str) -> float:
    if not value > 0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    return value


def _nonnegative_int(value: int, path: str) -> int:
    if value < 0:
        raise ConfigError(f"{path}: must be nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class PriorSpec:
    kind: str
    lo: float = -10.0
    hi: float = 10.0
    mean: float = 0.0
    variance: float = 1.0

    def build(self, dim: int):
        if self.kind == "uniform":
            return UniformPrior(self.lo, self.hi, dim=dim)
        return GaussianPrior(self.mean, self.variance, dim=dim)


def _parse_prior(data, path: str, default_kind: str) -> PriorSpec:
    if data is None:
        return PriorSpec(kind=default_kind)
    data = _expect_mapping(data, path)
    kind = _get_str(data, "kind", path, default=default_kind, choices=("uniform", "gaussian"))
    if kind == "uniform":
        _check_keys(data, ("kind", "lo", "hi"), path)
        lo = _get_number(data, "lo", path, default=-10.0)
        hi = _get_number(data, "hi", path, default=10.0)
        if not lo < hi:
            raise ConfigError(f"{path}: lo must be below hi, got [{lo}, {hi}]")
        return PriorSpec(kind="uniform", lo=lo, hi=hi)
    _check_keys(data, ("kind", "mean", "variance"), path)
    mean = _get_number(data, "mean", path, default=0.0)
    variance = _positive(_get_number(data, "variance", path, default=1.0), f"{path}.variance")
    return PriorSpec(kind="gaussian", mean=mean, variance=variance)


@dataclass(frozen=True)
class MixtureSpec:
    kind = "mixture"
    prior: PriorSpec
    agents: tuple[tuple[MixtureComponent, ...], ...]


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 4
    dim: int = 10
    n_train: int = 400
    n_test: int = 400
    center_scale: float = 4.0
    noise: float = 1.0


@dataclass(frozen=True)
class IdxSpec:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    num_classes: int = 10


@dataclass(frozen=True)
class ClassificationSpec:
    kind = "classification"
    source: str
    synthetic: SyntheticSpec
    idx: IdxSpec | None
    labels_per_agent: int
    examples_per_agent: int
    feature_map: FeatureMapConfig
    prior: PriorSpec


def _parse_component(data, path: str) -> MixtureComponent:
    data = _expect_mapping(data, path)
    _check_keys(data, ("weight", "mean", "variance"), path)
    weight = _get_number(data, "weight", path, default=1.0)
    mean = _get_number(data, "mean", path, required=True)
    variance = _positive(_get_number(data, "variance", path, required=True), f"{path}.variance")
    if not weight > 0:
        raise ConfigError(f"{path}.weight: must be positive, got {weight}")
    return MixtureComponent(weight=weight, mean=mean, variance=variance)


def _parse_mixture(data: dict, path: str) -> MixtureSpec:
    _check_keys(data, ("kind", "prior", "agents"), path)
    prior = _parse_prior(data.get("prior"), f"{path}.prior", default_kind="uniform")
    raw_agents = data.get("agents")
    if not isinstance(raw_agents, list) or not raw_agents:
        raise ConfigError(f"{path}.agents: expected a nonempty list")
    agents = []
    for i, raw in enumerate(raw_agents):
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.agents[{i}]: expected a nonempty list of components")
        agents.append(
            tuple(_parse_component(c, f"{path}.agents[{i}].components[{j}]") for j, c in enumerate(raw))
        )
    return MixtureSpec(prior=prior, agents=tuple(agents))


def _parse_classification(data: dict, path: str) -> ClassificationSpec:
    _check_keys(
        data,
        ("kind", "source", "synthetic", "idx", "labels_per_agent", "examples_per_agent",
         "feature_map", "prior"),
        path,
    )
    source = _get_str(data, "source", path, default="synthetic", choices=("synthetic", "idx"))

    syn = _expect_mapping(data.get("synthetic", {}), f"{path}.synthetic")
    _check_keys(syn, ("num_classes", "dim", "n_train", "n_test", "center_scale", "noise"),
                f"{path}.synthetic")
    synthetic = SyntheticSpec(
        num_classes=_get_int(syn, "num_classes", f"{path}.synthetic", default=4),
        dim=_get_int(syn, "dim", f"{path}.synthetic", default=10),
        n_train=_get_int(syn, "n_train", f"{path}.synthetic", default=400),
        n_test=_get_int(syn, "n_test", f"{path}.synthetic", default=400),
        center_scale=_get_number(syn, "center_scale", f"{path}.synthetic", default=4.0),
        noise=_get_number(syn, "noise", f"{path}.synthetic", default=1.0),
    )
    if synthetic.num_classes < 2:
        raise ConfigError(f"{path}.synthetic.num_classes: must be at least 2")

    idx = None
    if source == "idx":
        raw = _expect_mapping(data.get("idx"), f"{path}.idx") if "idx" in data else None
        if raw is None:
            raise ConfigError(f"{path}.idx: required when source is 'idx'")
        _check_keys(raw, ("train_images", "train_labels", "test_images", "test_labels",
                          "num_classes"), f"{path}.idx")
        idx = IdxSpec(
            train_images=_get_str(raw, "train_images", f"{path}.idx", required=True),
            train_labels=_get_str(raw, "train_labels", f"{path}.idx", required=True),
            test_images=_get_str(raw, "test_images", f"{path}.idx", required=True),
            test_labels=_get_str(raw, "test_labels", f"{path}.idx", required=True),
            num_classes=_get_int(raw, "num_classes", f"{path}.idx", default=10),
        )

    fm = _expect_mapping(data.get("feature_map", {}), f"{path}.feature_map")
    _check_keys(fm, ("hidden_units", "epochs", "step_size"), f"{path}.feature_map")
    try:
        feature_map = FeatureMapConfig(
            hidden_units=_get_int(fm, "hidden_units", f"{path}.feature_map", default=100),
            epochs=_get_int(fm, "epochs", f"{path}.feature_map", default=500),
            step_size=_get_number(fm, "step_size", f"{path}.feature_map", default=0.1),
        )
    except ValueError as err:
        raise ConfigError(f"{path}.feature_map: {err}") from None

    prior = _parse_prior(data.get("prior"), f"{path}.prior", default_kind="gaussian")
    if prior.kind != "gaussian":
        raise ConfigError(f"{path}.prior.kind: classification uses a gaussian prior")

    labels_per_agent = _get_int(data, "labels_per_agent", path, default=2)
    examples_per_agent = _get_int(data, "examples_per_agent", path, default=100)
    if labels_per_agent < 1:
        raise ConfigError(f"{path}.labels_per_agent: must be at least 1")
    if examples_per_agent < 1:
        raise ConfigError(f"{path}.examples_per_agent: must be at least 1")
    return ClassificationSpec(
        source=source,
        synthetic=synthetic,
        idx=idx,
        labels_per_agent=labels_per_agent,
        examples_per_agent=examples_per_agent,
        feature_map=feature_map,
        prior=prior,
    )


@dataclass(frozen=True)
class ProtocolSettings:
    alpha: float = 1.0
    update_steps: int = 10
    distill_steps: int = 10
    epsilon: float = 0.05
    epsilon_local: float = 0.05
    fudge: float = 1e-6
    schedule: str = "round_robin"
    sequence: tuple[int, ...] | None = None
    include_prior_score: bool = False
    persist_adagrad: bool = False
    kde_lam: float = 0.55
    bandwidth: float | None = None


@dataclass(frozen=True)
class LearnSettings:
    rounds: int = 100


@dataclass(frozen=True)
class UnlearnSettings:
    rounds: int = 100
    epsilon: float | None = None
    epsilon_local: float | None = None
    update_steps: int | None = None
    distill_steps: int | None = None
    early_stop: bool = True
    patience: int = 5
    margin: float = 0.05
    loss_window: int = 5


@dataclass(frozen=True)
class RetrainSettings:
    rounds: int = 200
    mode: str = "centralized"


@dataclass(frozen=True)
class PviSettings:
    local_iters: int = 10
    epsilon: float = 0.05
    mc_samples: int = 200
    prior_mean: float = 0.0
    prior_variance: float = 100.0 / 3.0


@dataclass(frozen=True)
class ExperimentConfig:
    method: str
    seed: int
    out_dir: str
    particles: int
    experiment: MixtureSpec | ClassificationSpec
    protocol: ProtocolSettings
    learn: LearnSettings
    unlearn: UnlearnSettings
    retrain: RetrainSettings
    pvi: PviSettings
    grid: GridConfig
    forget_agents: tuple[int, ...]


TOP_LEVEL_KEYS = (
    "method", "seed", "out_dir", "particles", "experiment", "protocol",
    "learn", "unlearn", "retrain", "pvi", "grid", "forget_agents",
)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON object into a typed config.

    Every rejected field is reported with its full path, and unknown keys
    are errors at every level.
    """
    data = _expect_mapping(data, "config")
    _check_keys(data, TOP_LEVEL_KEYS, "config")

    method = _get_str(data, "method", "config", required=True, choices=METHODS)
    seed = _get_int(data, "seed", "config", default=0)
    out_dir = _get_str(data, "out_dir", "config", default="runs")
    particles = _get_int(data, "particles", "config", default=100)
    if particles < 1:
        raise ConfigError(f"config.particles: must be at least 1, got {particles}")

    exp_raw = _expect_mapping(data.get("experiment"), "config.experiment") \
        if "experiment" in data else None
    if exp_raw is None:
        raise ConfigError("config.experiment: required")
    kind = _get_str(exp_raw, "kind", "config.experiment", required=True,
                    choices=("mixture", "classification"))
    if kind == "mixture":
        experiment = _parse_mixture(exp_raw, "config.experiment")
    else:
        experiment = _parse_classification(exp_raw, "config.experiment")

    if method in PARAMETRIC_METHODS and kind != "mixture":
        raise ConfigError("config.method: parametric methods support the mixture experiment only")

    proto = _expect_mapping(data.get("protocol", {}), "config.protocol")
    _check_keys(proto, ("alpha", "update_steps", "distill_steps", "epsilon", "epsilon_local",
                        "fudge", "schedule", "sequence", "include_prior_score",
                        "persist_adagrad", "kde_lam", "bandwidth"), "config.protocol")
    sequence = proto.get("sequence")
    if sequence is not None:
        if not isinstance(sequence, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in sequence
        ):
            raise ConfigError("config.protocol.sequence: expected a list of integers")
        sequence = tuple(sequence)
    bandwidth = _get_number(proto, "bandwidth", "config.protocol", default=None)
    if bandwidth is not None:
        _positive(bandwidth, "config.protocol.bandwidth")
    protocol = ProtocolSettings(
        alpha=_positive(_get_number(proto, "alpha", "config.protocol", default=1.0),
                        "config.protocol.alpha"),
        update_steps=_nonnegative_int(
            _get_int(proto, "update_steps", "config.protocol", default=10),
            "config.protocol.update_steps"),
        distill_steps=_nonnegative_int(
            _get_int(proto, "distill_steps", "config.protocol", default=10),
            "config.protocol.distill_steps"),
        epsilon=_get_number(proto, "epsilon", "config.protocol", default=0.05),
        epsilon_local=_get_number(proto, "epsilon_local", "config.protocol", default=0.05),
        fudge=_positive(_get_number(proto, "fudge", "config.protocol", default=1e-6),
                        "config.protocol.fudge"),
        schedule=_get_str(proto, "schedule", "config.protocol", default="round_robin",
                          choices=("round_robin", "fixed_sequence")),
        sequence=sequence,
        include_prior_score=_get_bool(proto, "include_prior_score", "config.protocol", False),
        persist_adagrad=_get_bool(proto, "persist_adagrad", "config.protocol", False),
        kde_lam=_positive(_get_number(proto, "kde_lam", "config.protocol", default=0.55),
                          "config.protocol.kde_lam"),
        bandwidth=bandwidth,
    )
    if protocol.epsilon < 0 or protocol.epsilon_local < 0:
        raise ConfigError("config.protocol: step sizes must be nonnegative")

    learn_raw = _expect_mapping(data.get("learn", {}), "config.learn")
    _check_keys(learn_raw, ("rounds",), "config.learn")
    learn = LearnSettings(
        rounds=_nonnegative_int(_get_int(learn_raw, "rounds", "config.learn", default=100),
                                "config.learn.rounds"),
    )

    un_raw = _expect_mapping(data.get("unlearn", {}), "config.unlearn")
    _check_keys(un_raw, ("rounds", "epsilon", "epsilon_local", "update_steps", "distill_steps",
                         "early_stop", "patience", "margin", "loss_window"), "config.unlearn")
    un_update = _get_int(un_raw, "update_steps", "config.unlearn", default=None)
    un_distill = _get_int(un_raw, "distill_steps", "config.unlearn", default=None)
    unlearn = UnlearnSettings(
        rounds=_nonnegative_int(_get_int(un_raw, "rounds", "config.unlearn", default=100),
                                "config.unlearn.rounds"),
        epsilon=_get_number(un_raw, "epsilon", "config.unlearn", default=None),
        epsilon_local=_get_number(un_raw, "epsilon_local", "config.unlearn", default=None),
        update_steps=None if un_update is None
        else _nonnegative_int(un_update, "config.unlearn.update_steps"),
        distill_steps=None if un_distill is None
        else _nonnegative_int(un_distill, "config.unlearn.distill_steps"),
        early_stop=_get_bool(un_raw, "early_stop", "config.unlearn", True),
        patience=_get_int(un_raw, "patience", "config.unlearn", default=5),
        margin=_get_number(un_raw, "margin", "config.unlearn", default=0.05),
        loss_window=_get_int(un_raw, "loss_window", "config.unlearn", default=5),
    )
    if unlearn.patience < 1:
        raise ConfigError(f"config.unlearn.patience: must be at least 1, got {unlearn.patience}")
    if unlearn.loss_window < 1:
        raise ConfigError(
            f"config.unlearn.loss_window: must be at least 1, got {unlearn.loss_window}"
        )

    re_raw = _expect_mapping(data.get("retrain", {}), "config.retrain")
    _check_keys(re_raw, ("rounds", "mode"), "config.retrain")
    retrain = RetrainSettings(
        rounds=_nonnegative_int(_get_int(re_raw, "rounds", "config.retrain", default=200),
                                "config.retrain.rounds"),
        mode=_get_str(re_raw, "mode", "config.retrain", default="centralized",
                      choices=("centralized", "federated")),
    )

    pvi_raw = _expect_mapping(data.get("pvi", {}), "config.pvi")
    _check_keys(pvi_raw, ("local_iters", "epsilon", "mc_samples", "prior_mean",
                          "prior_variance"), "config.pvi")
    pvi = PviSettings(
        local_iters=_nonnegative_int(_get_int(pvi_raw, "local_iters", "config.pvi", default=10),
                                     "config.pvi.local_iters"),
        epsilon=_positive(_get_number(pvi_raw, "epsilon", "config.pvi", default=0.05),
                          "config.pvi.epsilon"),
        mc_samples=_get_int(pvi_raw, "mc_samples", "config.pvi", default=200),
        prior_mean=_get_number(pvi_raw, "prior_mean", "config.pvi", default=0.0),
        prior_variance=_positive(
            _get_number(pvi_raw, "prior_variance", "config.pvi", default=100.0 / 3.0),
            "config.pvi.prior_variance"),
    )
    if pvi.mc_samples < 1:
        raise ConfigError(f"config.pvi.mc_samples: must be at least 1, got {pvi.mc_samples}")

    grid_raw = _expect_mapping(data.get("grid", {}), "config.grid")
    _check_keys(grid_raw, ("lo", "hi", "points"), "config.grid")
    try:
        grid = GridConfig(
            lo=_get_number(grid_raw, "lo", "config.grid", default=-10.0),
            hi=_get_number(grid_raw, "hi", "config.grid", default=10.0),
            points=_get_int(grid_raw, "points", "config.grid", default=2001),
        )
    except ValueError as err:
        raise ConfigError(f"config.grid: {err}") from None

    forget_raw = data.get("forget_agents", [])
    if not isinstance(forget_raw, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in forget_raw
    ):
        raise ConfigError("config.forget_agents: expected a list of integers")
    forget_agents = tuple(sorted(set(forget_raw)))
    if any(k < 1 for k in forget_agents):
        raise ConfigError("config.forget_agents: agent ids are 1-based")

    return ExperimentConfig(
        method=method,
        seed=seed,
        out_dir=out_dir,
        particles=particles,
        experiment=experiment,
        protocol=protocol,
        learn=learn,
        unlearn=unlearn,
        retrain=retrain,
        pvi=pvi,
        grid=grid,
        forget_agents=forget_agents,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(str(path), encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from None
    return config_from_dict(data)


def resolve_method(config_method: str, command: str) -> str:
    """Map the configured method family onto a subcommand's effective method."""
    if command == "learn":
        return {"dsvgd": "dsvgd", "forget_svgd": "dsvgd", "retrain": "dsvgd",
                "pvi": "pvi", "ulpvi": "pvi"}[config_method]
    if command == "unlearn":
        return {"dsvgd": "forget_svgd", "forget_svgd": "forget_svgd", "retrain": "forget_svgd",
                "pvi": "ulpvi", "ulpvi": "ulpvi"}[config_method]
    if command == "retrain":
        return "retrain"
    raise ValueError(f"unknown command {command!r}")


# --- problem assembly -----------------------------------------------------------


@dataclass
class MixtureProblem:
    losses: dict[int, GaussianMixtureLoss]
    prior: UniformPrior | GaussianPrior
    forget_ids: tuple[int, ...]
    grid: GridConfig
    kde_lam: float

    @property
    def retained_ids(self) -> tuple[int, ...]:
        return tuple(k for k in sorted(self.losses) if k not in self.forget_ids)

    def reference_log_density(self, retained_only: bool):
        ids = self.retained_ids if retained_only else tuple(sorted(self.losses))

        def log_ref(x: np.ndarray) -> np.ndarray:
            rows = np.asarray(x, dtype=float)[:, None]
            total = np.asarray(self.prior.log_density(rows), dtype=float)
            for k in ids:
                total = total + self.losses[k].log_mixture_density(rows)
            return total

        return log_ref

    def metric_fields(self, log_q, loss_points: np.ndarray, retained_only: bool) -> dict:
        kl = grid_kl(log_q, self.reference_log_density(retained_only), self.grid)
        forgot_loss = None
        if self.forget_ids:
            values = [float(np.mean(self.losses[k].loss(loss_points))) for k in self.forget_ids]
            forgot_loss = float(np.mean(values))
        return {"kl": kl, "forgot_loss": forgot_loss}

    def particle_metrics(self, particles: np.ndarray, retained_only: bool) -> dict:
        log_q = lambda x: kde_log_density(particles, np.asarray(x, dtype=float)[:, None], self.kde_lam)
        return self.metric_fields(log_q, particles, retained_only)

    def parametric_metrics(self, mean: np.ndarray, variance: np.ndarray, retained_only: bool) -> dict:
        log_q = lambda x: gaussian_log_density_moments(mean, variance, x)
        return self.metric_fields(log_q, np.asarray(mean, dtype=float)[None, :], retained_only)


@dataclass
class ClassificationProblem:
    losses: dict[int, SoftmaxHeadLoss]
    shard_classes: dict[int, tuple[int, ...]]
    prior: GaussianPrior
    forget_ids: tuple[int, ...]
    test_features: np.ndarray
    test_labels: np.ndarray
    num_classes: int
    kde_lam: float

    @property
    def forgotten_classes(self) -> tuple[int, ...]:
        out: set[int] = set()
        for k in self.forget_ids:
            out.update(self.shard_classes[k])
        return tuple(sorted(out))

    @property
    def retained_classes(self) -> tuple[int, ...]:
        forgotten = set(self.forgotten_classes)
        return tuple(c for c in range(self.num_classes) if c not in forgotten)

    def particle_metrics(self, particles: np.ndarray, retained_only: bool = False) -> dict:
        acc = per_class_accuracy(
            particles, self.test_features, self.test_labels, self.num_classes,
            classes=tuple(range(self.num_classes)),
        )
        forgotten = self.forgotten_classes
        retained = self.retained_classes
        fields = {
            "forgotten_acc": macro_accuracy(acc, forgotten) if forgotten else None,
            "retained_acc": macro_accuracy(acc, retained) if retained else None,
            "per_class": {str(c): acc[c] for c in sorted(acc)},
        }
        if self.forget_ids:
            values = [float(np.mean(self.losses[k].loss(particles))) for k in self.forget_ids]
            fields["forgot_loss"] = float(np.mean(values))
        else:
            fields["forgot_loss"] = None
        return fields


def build_problem(cfg: ExperimentConfig):
    """Instantiate losses, prior, and evaluation data for a config."""
    if isinstance(cfg.experiment, MixtureSpec):
        spec = cfg.experiment
        losses = {
            i + 1: GaussianMixtureLoss(list(components))
            for i, components in enumerate(spec.agents)
        }
        _validate_forget_ids(cfg.forget_agents, losses.keys())
        return MixtureProblem(
            losses=losses,
            prior=spec.prior.build(dim=1),
            forget_ids=cfg.forget_agents,
            grid=cfg.grid,
            kde_lam=cfg.protocol.kde_lam,
        )

    spec = cfg.experiment
    if spec.source == "synthetic":
        syn = spec.synthetic
        train, test = make_synthetic_pair(
            syn.num_classes, syn.dim, syn.n_train, syn.n_test, cfg.seed,
            center_scale=syn.center_scale, noise=syn.noise,
        )
        num_classes = syn.num_classes
    else:
        try:
            train = load_idx_dataset(spec.idx.train_images, spec.idx.train_labels,
                                     spec.idx.num_classes)
            test = load_idx_dataset(spec.idx.test_images, spec.idx.test_labels,
                                    spec.idx.num_classes)
        except FileNotFoundError as err:
            raise ConfigError(f"config.experiment.idx: {err}") from None
        num_classes = spec.idx.num_classes

    if num_classes % spec.labels_per_agent != 0:
        raise ConfigError(
            "config.experiment.labels_per_agent: must divide the class count "
            f"({num_classes})"
        )
    num_agents = num_classes // spec.labels_per_agent
    try:
        shards = partition_non_iid(
            train, num_agents, spec.labels_per_agent, spec.examples_per_agent, cfg.seed
        )
    except ValueError as err:
        raise ConfigError(f"config.experiment: {err}") from None
    _validate_forget_ids(cfg.forget_agents, [s.agent_id for s in shards])

    pool_features = np.concatenate([s.features for s in shards])
    pool_labels = np.concatenate([s.labels for s in shards])
    fmap_cfg = dataclasses.replace(spec.feature_map, seed=cfg.seed)
    feature_map = pretrain_feature_map(pool_features, pool_labels, num_classes, fmap_cfg)

    losses = {
        s.agent_id: SoftmaxHeadLoss(feature_map(s.features), s.labels, num_classes)
        for s in shards
    }
    head_dim = (feature_map.num_features + 1) * num_classes
    return ClassificationProblem(
        losses=losses,
        shard_classes={s.agent_id: s.classes for s in shards},
        prior=GaussianPrior(spec.prior.mean, spec.prior.variance, dim=head_dim),
        forget_ids=cfg.forget_agents,
        test_features=feature_map(test.features),
        test_labels=test.labels,
        num_classes=num_classes,
        kde_lam=cfg.protocol.kde_lam,
    )


def _validate_forget_ids(forget_ids, known) -> None:
    known = set(known)
    unknown = [k for k in forget_ids if k not in known]
    if unknown:
        raise ConfigError(f"config.forget_agents: unknown agent ids {unknown}")


# --- run loops ------------------------------------------------------------------


@dataclass(frozen=True)
class RunPaths:
    metrics: str
    transcript: str
    snapshot: str
    locals_json: str


def run_paths(cfg: ExperimentConfig, method: str) -> RunPaths:
    base = cfg.out_dir
    return RunPaths(
        metrics=os.path.join(base, f"{method}_metrics.csv"),
        transcript=os.path.join(base, f"{method}_transcript.jsonl"),
        snapshot=os.path.join(base, f"{method}_snapshot.txt"),
        locals_json=os.path.join(base, f"{method}_locals.json"),
    )


@dataclass
class RunResult:
    method: str
    records: list[MetricRecord]
    paths: RunPaths
    rounds_run: int


def _protocol_config(cfg: ExperimentConfig, prior, phase: str) -> fed.ProtocolConfig:
    s = cfg.protocol
    epsilon = s.epsilon
    epsilon_local = s.epsilon_local
    update_steps = s.update_steps
    distill_steps = s.distill_steps
    if phase == PHASE_UNLEARN:
        u = cfg.unlearn
        epsilon = u.epsilon if u.epsilon is not None else epsilon
        epsilon_local = u.epsilon_local if u.epsilon_local is not None else epsilon_local
        update_steps = u.update_steps if u.update_steps is not None else update_steps
        distill_steps = u.distill_steps if u.distill_steps is not None else distill_steps
    return fed.ProtocolConfig(
        alpha=s.alpha,
        update_steps=update_steps,
        distill_steps=distill_steps,
        epsilon=epsilon,
        epsilon_local=epsilon_local,
        fudge=s.fudge,
        schedule=s.schedule,
        sequence=s.sequence,
        include_prior_score=s.include_prior_score,
        persist_adagrad=s.persist_adagrad,
        prior=prior,
    )


def _kde_kernel(cfg: ExperimentConfig) -> tuple[KdeConfig, KernelConfig]:
    return KdeConfig(lam=cfg.protocol.kde_lam), KernelConfig(h=cfg.protocol.bandwidth)


def _particle_record(problem, particles, phase: str, round_index: int, wall_ms: float,
                     retained_only: bool) -> tuple[MetricRecord, dict]:
    if isinstance(problem, MixtureProblem):
        fields = problem.particle_metrics(particles, retained_only)
        extra: dict = {}
    else:
        fields = problem.particle_metrics(particles)
        extra = {"per_class": fields.pop("per_class")}
    record = MetricRecord(round=round_index, phase=phase, wall_ms=wall_ms,
                          forgotten_acc=fields.get("forgotten_acc"),
                          retained_acc=fields.get("retained_acc"),
                          kl=fields.get("kl"),
                          forgot_loss=fields.get("forgot_loss"))
    return record, extra


def _parametric_record(problem: MixtureProblem, mean, variance, phase: str, round_index: int,
                       wall_ms: float, retained_only: bool) -> tuple[MetricRecord, dict]:
    fields = problem.parametric_metrics(mean, variance, retained_only)
    record = MetricRecord(round=round_index, phase=phase, wall_ms=wall_ms,
                          kl=fields.get("kl"), forgot_loss=fields.get("forgot_loss"))
    return record, {}


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def _transcript_event(record: MetricRecord, agent, eval_ms: float, extra: dict) -> dict:
    event = {
        "round": record.round,
        "phase": record.phase,
        "agent": agent,
        "wall_ms": record.wall_ms,
        "round_ms": record.wall_ms,
        "eval_ms": eval_ms,
        "metrics": {
            "forgotten_acc": record.forgotten_acc,
            "retained_acc": record.retained_acc,
            "kl": record.kl,
            "forgot_loss": record.forgot_loss,
        },
    }
    event.update(extra)
    return event


class _Emitter:
    """Shared per-round record bookkeeping for all run loops.

    ``wall_ms`` (and the transcript's ``round_ms``) times the round alone;
    the transcript's ``eval_ms`` times the evaluation that builds its record.
    """

    def __init__(self, metrics_path: str, transcript_path: str):
        self.records: list[MetricRecord] = []
        self._metrics = MetricsWriter(metrics_path)
        self._transcript = TranscriptWriter(transcript_path)

    def emit(self, agent, evaluate: Callable[[], tuple[MetricRecord, dict]]) -> None:
        start = time.perf_counter()
        record, extra = evaluate()
        eval_ms = _ms_since(start)
        self.records.append(record)
        self._metrics.append(record)
        self._transcript.append(_transcript_event(record, agent, eval_ms, extra))

    def error(self, phase: str, round_index: int, err: Exception) -> None:
        self._transcript.append({"round": round_index, "phase": phase, "error": str(err)})

    def close(self) -> None:
        self._metrics.close()
        self._transcript.close()


def _forgetting_achieved(records: list[MetricRecord], num_classes: int, margin: float,
                         patience: int) -> bool:
    threshold = 1.0 / num_classes + margin
    tail = [r for r in records if r.round > 0][-patience:]
    if len(tail) < patience:
        return False
    return all(r.forgotten_acc is not None and r.forgotten_acc < threshold for r in tail)


def _forgot_loss_plateaued(records: list[MetricRecord], window: int) -> bool:
    """True when no new maximum of the forgotten-shard loss for `window` rounds."""
    values = [r.forgot_loss for r in records if r.round > 0 and r.forgot_loss is not None]
    if len(values) <= window:
        return False
    best = int(np.argmax(values))
    return len(values) - 1 - best >= window


def _unlearn_should_stop(cfg: ExperimentConfig, problem, records: list[MetricRecord]) -> bool:
    if not cfg.unlearn.early_stop:
        return False
    if isinstance(problem, ClassificationProblem) and _forgetting_achieved(
        records, problem.num_classes, cfg.unlearn.margin, cfg.unlearn.patience
    ):
        return True
    return _forgot_loss_plateaued(records, cfg.unlearn.loss_window)


def _run_particle_learn(cfg: ExperimentConfig) -> RunResult:
    problem = build_problem(cfg)
    pcfg = _protocol_config(cfg, problem.prior, PHASE_LEARN)
    kde, kernel = _kde_kernel(cfg)
    server, agents = fed.initialize_states(
        problem.losses, pcfg, cfg.particles, cfg.seed, kde=kde, kernel=kernel,
        forget_ids=problem.forget_ids,
    )
    paths = run_paths(cfg, "dsvgd")
    os.makedirs(cfg.out_dir, exist_ok=True)
    emitter = _Emitter(paths.metrics, paths.transcript)
    try:
        emitter.emit(None, lambda: _particle_record(
            problem, server.global_particles, PHASE_LEARN, 0, 0.0, retained_only=False))
        for r in range(cfg.learn.rounds):
            start = time.perf_counter()
            k = fed.schedule(pcfg, r, problem.losses.keys())
            server, agents[k] = fed.learning_round(server, agents, k, pcfg)
            wall = _ms_since(start)
            emitter.emit(k, lambda: _particle_record(
                problem, server.global_particles, PHASE_LEARN, r + 1, wall, retained_only=False))
    except Exception as err:
        emitter.error(PHASE_LEARN, len(emitter.records), err)
        raise
    finally:
        emitter.close()
    save_snapshot(paths.snapshot, server.global_particles, server.round_index, cfg.seed)
    return RunResult("dsvgd", emitter.records, paths, server.round_index)


def _run_particle_unlearn(cfg: ExperimentConfig) -> RunResult:
    problem = build_problem(cfg)
    if not problem.forget_ids:
        raise ConfigError("config.forget_agents: unlearning needs a nonempty forget set")
    learned = run_paths(cfg, "dsvgd").snapshot
    if not os.path.exists(learned):
        raise MissingStateError(f"no learned state found at {learned}; run learn first")
    particles, _, _ = load_snapshot(learned)

    pcfg = _protocol_config(cfg, problem.prior, PHASE_UNLEARN)
    kde, kernel = _kde_kernel(cfg)
    server = fed.ServerState(global_particles=particles, round_index=0, kde=kde, kernel=kernel)
    agents = {
        k: fed.AgentState(
            agent_id=k,
            loss=loss,
            local_particles=fed.init_local_particles(problem.prior, cfg.particles, cfg.seed, k),
            role=fed.ROLE_FORGET if k in problem.forget_ids else fed.ROLE_RETAIN,
        )
        for k, loss in problem.losses.items()
    }
    agents = fed.reinitialize_forget_agents(agents, pcfg, cfg.seed)

    paths = run_paths(cfg, "forget_svgd")
    os.makedirs(cfg.out_dir, exist_ok=True)
    emitter = _Emitter(paths.metrics, paths.transcript)
    try:
        emitter.emit(None, lambda: _particle_record(
            problem, server.global_particles, PHASE_UNLEARN, 0, 0.0, retained_only=True))
        for r in range(cfg.unlearn.rounds):
            start = time.perf_counter()
            k = fed.schedule(pcfg, r, problem.forget_ids)
            server, agents[k] = fed.unlearning_round(server, agents, k, pcfg)
            wall = _ms_since(start)
            emitter.emit(k, lambda: _particle_record(
                problem, server.global_particles, PHASE_UNLEARN, r + 1, wall, retained_only=True))
            if _unlearn_should_stop(cfg, problem, emitter.records):
                break
    except Exception as err:
        emitter.error(PHASE_UNLEARN, len(emitter.records), err)
        raise
    finally:
        emitter.close()
    save_snapshot(paths.snapshot, server.global_particles, server.round_index, cfg.seed)
    return RunResult("forget_svgd", emitter.records, paths, server.round_index)


def _run_retrain(cfg: ExperimentConfig) -> RunResult:
    problem = build_problem(cfg)
    retained = {k: v for k, v in problem.losses.items() if k not in problem.forget_ids}
    pcfg = _protocol_config(cfg, problem.prior, PHASE_RETRAIN)
    kde, kernel = _kde_kernel(cfg)

    if cfg.retrain.mode == "federated" and not retained:
        raise ConfigError("config.retrain.mode: federated retraining needs a retained agent")

    server = fed.ServerState(
        global_particles=fed.init_global_particles(problem.prior, cfg.particles, cfg.seed),
        round_index=0, kde=kde, kernel=kernel,
    )
    agents = None
    pooled = None
    if cfg.retrain.mode == "federated":
        server, agents = fed.initialize_states(
            retained, pcfg, cfg.particles, cfg.seed, kde=kde, kernel=kernel
        )
    else:
        pooled = tuple(retained[k] for k in sorted(retained))

    paths = run_paths(cfg, "retrain")
    os.makedirs(cfg.out_dir, exist_ok=True)
    emitter = _Emitter(paths.metrics, paths.transcript)
    try:
        emitter.emit(None, lambda: _particle_record(
            problem, server.global_particles, PHASE_RETRAIN, 0, 0.0, retained_only=True))
        for r in range(cfg.retrain.rounds):
            start = time.perf_counter()
            if agents is None:
                k = None
                server = fed.centralized_round(server, pooled, pcfg)
            else:
                k = fed.schedule(pcfg, r, retained.keys())
                server, agents[k] = fed.learning_round(server, agents, k, pcfg)
            wall = _ms_since(start)
            emitter.emit(k, lambda: _particle_record(
                problem, server.global_particles, PHASE_RETRAIN, r + 1, wall, retained_only=True))
    except Exception as err:
        emitter.error(PHASE_RETRAIN, len(emitter.records), err)
        raise
    finally:
        emitter.close()
    save_snapshot(paths.snapshot, server.global_particles, server.round_index, cfg.seed)
    return RunResult("retrain", emitter.records, paths, server.round_index)


def _pvi_prior_nat(cfg: ExperimentConfig) -> GaussianNatParams:
    return moment_to_nat([cfg.pvi.prior_mean], [cfg.pvi.prior_variance])


def _nat_to_json(nat: GaussianNatParams) -> dict:
    return {"eta1": nat.eta1.tolist(), "eta2": nat.eta2.tolist()}


def _nat_from_json(data: dict, path: str) -> GaussianNatParams:
    try:
        return GaussianNatParams(np.asarray(data["eta1"], dtype=float),
                                 np.asarray(data["eta2"], dtype=float))
    except (KeyError, TypeError, ValueError) as err:
        raise MissingStateError(f"{path}: malformed factor state ({err})") from None


def _save_pvi_state(paths: RunPaths, eta: GaussianNatParams,
                    locals_nat: dict[int, GaussianNatParams], round_index: int, seed: int) -> None:
    mean, variance = nat_to_moment(eta)
    save_snapshot(paths.snapshot, np.vstack([mean, variance]), round_index, seed)
    state = {
        "global": _nat_to_json(eta),
        "agents": {str(k): _nat_to_json(v) for k, v in sorted(locals_nat.items())},
    }
    with open(paths.locals_json, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(state, sort_keys=True) + "\n")


def _load_pvi_state(path: str) -> tuple[GaussianNatParams, dict[int, GaussianNatParams]]:
    if not os.path.exists(path):
        raise MissingStateError(f"no learned state found at {path}; run learn first")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    eta = _nat_from_json(data.get("global", {}), path)
    locals_nat = {
        int(k): _nat_from_json(v, path) for k, v in data.get("agents", {}).items()
    }
    return eta, locals_nat


def _run_pvi_learn(cfg: ExperimentConfig) -> RunResult:
    problem = build_problem(cfg)
    pvicfg = PviConfig(alpha=cfg.protocol.alpha, local_iters=cfg.pvi.local_iters,
                       epsilon=cfg.pvi.epsilon, mc_samples=cfg.pvi.mc_samples)
    pcfg = _protocol_config(cfg, problem.prior, PHASE_LEARN)
    eta = _pvi_prior_nat(cfg)
    locals_nat = {k: GaussianNatParams.zeros(eta.dim) for k in problem.losses}
    rng = np.random.default_rng([cfg.seed, 2])

    paths = run_paths(cfg, "pvi")
    os.makedirs(cfg.out_dir, exist_ok=True)
    emitter = _Emitter(paths.metrics, paths.transcript)
    try:
        emitter.emit(None, lambda: _parametric_record(
            problem, *nat_to_moment(eta), PHASE_LEARN, 0, 0.0, retained_only=False))
        for r in range(cfg.learn.rounds):
            start = time.perf_counter()
            k = fed.schedule(pcfg, r, problem.losses.keys())
            eta, locals_nat[k] = pvi_round(eta, locals_nat[k], problem.losses[k], pvicfg, rng)
            wall = _ms_since(start)
            emitter.emit(k, lambda: _parametric_record(
                problem, *nat_to_moment(eta), PHASE_LEARN, r + 1, wall, retained_only=False))
    except Exception as err:
        emitter.error(PHASE_LEARN, len(emitter.records), err)
        raise
    finally:
        emitter.close()
    _save_pvi_state(paths, eta, locals_nat, cfg.learn.rounds, cfg.seed)
    return RunResult("pvi", emitter.records, paths, cfg.learn.rounds)


def _run_pvi_unlearn(cfg: ExperimentConfig) -> RunResult:
    problem = build_problem(cfg)
    if not problem.forget_ids:
        raise ConfigError("config.forget_agents: unlearning needs a nonempty forget set")
    eta, locals_nat = _load_pvi_state(run_paths(cfg, "pvi").locals_json)
    missing = [k for k in problem.forget_ids if k not in locals_nat]
    if missing:
        raise MissingStateError(f"learned state lacks factors for forget agents {missing}")

    pvicfg = PviConfig(alpha=cfg.protocol.alpha, local_iters=cfg.pvi.local_iters,
                       epsilon=cfg.pvi.epsilon, mc_samples=cfg.pvi.mc_samples)
    pcfg = _protocol_config(cfg, problem.prior, PHASE_UNLEARN)
    rng = np.random.default_rng([cfg.seed, 3])

    paths = run_paths(cfg, "ulpvi")
    os.makedirs(cfg.out_dir, exist_ok=True)
    emitter = _Emitter(paths.metrics, paths.transcript)
    rounds_run = 0
    try:
        emitter.emit(None, lambda: _parametric_record(
            problem, *nat_to_moment(eta), PHASE_UNLEARN, 0, 0.0, retained_only=True))
        for r in range(cfg.unlearn.rounds):
            start = time.perf_counter()
            k = fed.schedule(pcfg, r, problem.forget_ids)
            eta, locals_nat[k] = ulpvi_round(eta, locals_nat[k], problem.losses[k], pvicfg, rng)
            rounds_run = r + 1
            wall = _ms_since(start)
            emitter.emit(k, lambda: _parametric_record(
                problem, *nat_to_moment(eta), PHASE_UNLEARN, r + 1, wall, retained_only=True))
            if _unlearn_should_stop(cfg, problem, emitter.records):
                break
    except Exception as err:
        emitter.error(PHASE_UNLEARN, len(emitter.records), err)
        raise
    finally:
        emitter.close()
    _save_pvi_state(paths, eta, locals_nat, rounds_run, cfg.seed)
    return RunResult("ulpvi", emitter.records, paths, rounds_run)


_RUNNERS = {
    "dsvgd": _run_particle_learn,
    "forget_svgd": _run_particle_unlearn,
    "retrain": _run_retrain,
    "pvi": _run_pvi_learn,
    "ulpvi": _run_pvi_unlearn,
}


def run_experiment(cfg: ExperimentConfig, command: str) -> RunResult:
    """Run one phase of the configured experiment and write its artifacts."""
    method = resolve_method(cfg.method, command)
    return _RUNNERS[method](cfg)


# --- evaluation and export --------------------------------------------------------


def evaluate_snapshot(cfg: ExperimentConfig, method: str) -> dict:
    """Recompute the metric fields of a saved snapshot.

    Uses the same measurement code as the run loops, so the result matches
    the final metrics row of the run that wrote the snapshot exactly.
    """
    if method not in METHODS:
        raise ConfigError(f"method: expected one of {sorted(METHODS)}, got {method!r}")
    paths = run_paths(cfg, method)
    if not os.path.exists(paths.snapshot):
        raise MissingStateError(f"no saved state found at {paths.snapshot}; run {method} first")
    problem = build_problem(cfg)
    retained_only = method in ("forget_svgd", "retrain", "ulpvi")
    phase = {"dsvgd": PHASE_LEARN, "pvi": PHASE_LEARN, "forget_svgd": PHASE_UNLEARN,
             "ulpvi": PHASE_UNLEARN, "retrain": PHASE_RETRAIN}[method]
    array, round_index, seed = load_snapshot(paths.snapshot)

    if method in PARAMETRIC_METHODS:
        if not isinstance(problem, MixtureProblem):
            raise ConfigError("config.method: parametric methods support the mixture experiment only")
        if array.shape[0] != 2:
            raise MissingStateError(
                f"{paths.snapshot}: parametric snapshot must hold mean and variance rows"
            )
        record, extra = _parametric_record(problem, array[0], array[1], phase, round_index,
                                           0.0, retained_only)
    else:
        record, extra = _particle_record(problem, array, phase, round_index, 0.0, retained_only)

    out = {
        "method": method,
        "round": round_index,
        "seed": seed,
        "forgotten_acc": record.forgotten_acc,
        "retained_acc": record.retained_acc,
        "kl": record.kl,
        "forgot_loss": record.forgot_loss,
    }
    out.update(extra)
    return out


PLOT_COLUMNS = ("round", "forgotten_acc", "retained_acc", "kl", "wall_ms")


def export_plot_data(metrics_path, out_path) -> int:
    """Reduce a metrics CSV to plot-ready columns; returns the row count."""
    records = read_metrics_csv(metrics_path)
    lines = [",".join(PLOT_COLUMNS)]
    for rec in records:
        cells = [str(rec.round)]
        for value in (rec.forgotten_acc, rec.retained_acc, rec.kl):
            cells.append("" if value is None else repr(value))
        cells.append(repr(rec.wall_ms))
        lines.append(",".join(cells))
    with open(str(out_path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(records)

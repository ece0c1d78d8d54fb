"""Experiment assembly: typed configuration, the phase loop, evaluation, export.

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

import numpy as np

from . import federation as fed
from .data import load_idx_dataset, make_synthetic_pair, partition_non_iid
from .kernels import kde_log_density
from .metrics import (
    METRICS_COLUMNS,
    GridConfig,
    MetricRecord,
    MetricsWriter,
    TranscriptWriter,
    grid_kl,
    load_snapshot,
    read_metrics_csv,
    save_snapshot,
    write_atomic,
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

_KIND_NAMES = {float: "a number", int: "an integer", bool: "true/false", str: "a string",
               dict: "an object"}


@dataclass(frozen=True)
class _Field:
    """One config key: its JSON type and the rule its value must meet.

    ``float`` accepts any JSON number, ``list[int]`` a list of integers and
    ``object`` any value; a JSON boolean is never a number.  ``nullable``
    lets ``null`` stand for the unset default.
    """

    kind: object
    required: bool = False
    nullable: bool = False
    rule: str | None = None  # "positive" or "nonnegative"
    minimum: int | None = None
    choices: tuple[str, ...] | None = None


def _read(data, path: str, table: dict[str, _Field]) -> dict:
    """Validate one config object against its table.

    Returns the keys present, converted (numbers to float, lists to
    tuples); absent optional keys are left out, so the dataclass the
    values are passed to supplies its own defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(table))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    out = {}
    for key, field in table.items():
        where = f"{path}.{key}"
        if key not in data:
            if field.required:
                raise ConfigError(f"{where}: required")
            continue
        value = data[key]
        if value is None and field.nullable:
            out[key] = None
            continue
        if field.kind == list[int]:
            if not isinstance(value, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in value
            ):
                raise ConfigError(f"{where}: expected a list of integers")
            value = tuple(value)
        else:
            accepted = (int, float) if field.kind is float else field.kind
            if not isinstance(value, accepted) or (
                field.kind in (int, float) and isinstance(value, bool)
            ):
                raise ConfigError(
                    f"{where}: expected {_KIND_NAMES[field.kind]}, got {type(value).__name__}"
                )
            if field.kind is float:
                value = float(value)
        if field.rule == "positive" and not value > 0:
            raise ConfigError(f"{where}: must be positive, got {value}")
        if field.rule == "nonnegative" and value < 0:
            raise ConfigError(f"{where}: must be nonnegative, got {value}")
        if field.minimum is not None and value < field.minimum:
            raise ConfigError(f"{where}: must be at least {field.minimum}, got {value}")
        if field.choices is not None and value not in field.choices:
            raise ConfigError(f"{where}: expected one of {sorted(field.choices)}, got {value!r}")
        out[key] = value
    return out


def _kind(data: dict, path: str, field: _Field, default=None):
    """Read ``kind`` alone, before its value picks the table for the other keys."""
    return _read({"kind": data["kind"]} if "kind" in data else {}, path,
                 {"kind": field}).get("kind", default)


def _section(cls, data, path: str, table: dict[str, _Field]):
    """Build ``cls`` from one config object; the class's own range errors get the path."""
    values = _read(data, path, table)
    try:
        return cls(**values)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


_POSITIVE = _Field(float, rule="positive")
_COUNT = _Field(int, rule="nonnegative")

_CONFIG = {
    "method": _Field(str, required=True, choices=METHODS),
    "seed": _Field(int),
    "out_dir": _Field(str),
    "particles": _Field(int, minimum=1),
    "experiment": _Field(dict, required=True),
    "protocol": _Field(dict),
    "learn": _Field(dict),
    "unlearn": _Field(dict),
    "retrain": _Field(dict),
    "pvi": _Field(dict),
    "grid": _Field(dict),
    "forget_agents": _Field(list[int]),
}
_PROTOCOL = {
    "alpha": _POSITIVE,
    "update_steps": _COUNT,
    "distill_steps": _COUNT,
    "epsilon": _Field(float, rule="nonnegative"),
    "epsilon_local": _Field(float, rule="nonnegative"),
    "fudge": _POSITIVE,
    "schedule": _Field(str, choices=("round_robin", "fixed_sequence")),
    "sequence": _Field(list[int], nullable=True),
    "include_prior_score": _Field(bool),
    "persist_adagrad": _Field(bool),
    "kde_lam": _POSITIVE,
    "bandwidth": _Field(float, nullable=True, rule="positive"),
}
_LEARN = {"rounds": _COUNT}
_UNLEARN = {
    "rounds": _COUNT,
    "epsilon": _Field(float, nullable=True, rule="nonnegative"),
    "epsilon_local": _Field(float, nullable=True, rule="nonnegative"),
    "update_steps": _Field(int, nullable=True, rule="nonnegative"),
    "distill_steps": _Field(int, nullable=True, rule="nonnegative"),
    "early_stop": _Field(bool),
    "patience": _Field(int, minimum=1),
    "margin": _Field(float),
    "loss_window": _Field(int, minimum=1),
}
_RETRAIN = {"rounds": _COUNT, "mode": _Field(str, choices=("centralized", "federated"))}
_PVI = {
    "local_iters": _COUNT,
    "epsilon": _POSITIVE,
    "mc_samples": _Field(int, minimum=1),
    "prior_mean": _Field(float),
    "prior_variance": _POSITIVE,
}
_GRID = {"lo": _Field(float), "hi": _Field(float), "points": _Field(int)}
_PRIOR_KIND = _Field(str, choices=("uniform", "gaussian"))
_PRIORS = {
    "uniform": {"kind": _PRIOR_KIND, "lo": _Field(float), "hi": _Field(float)},
    "gaussian": {"kind": _PRIOR_KIND, "mean": _Field(float), "variance": _POSITIVE},
}
_COMPONENT = {
    "weight": _POSITIVE,
    "mean": _Field(float, required=True),
    "variance": _Field(float, required=True, rule="positive"),
}
_EXPERIMENT_KIND = _Field(str, required=True, choices=("mixture", "classification"))
_MIXTURE = {
    "kind": _EXPERIMENT_KIND,
    "prior": _Field(dict, nullable=True),
    "agents": _Field(object),  # a list of component lists, checked by _parse_mixture
}
_CLASSIFICATION = {
    "kind": _EXPERIMENT_KIND,
    "source": _Field(str, choices=("synthetic", "idx")),
    "synthetic": _Field(dict),
    "idx": _Field(object),  # read only when the source is idx
    "labels_per_agent": _Field(int, minimum=1),
    "examples_per_agent": _Field(int, minimum=1),
    "feature_map": _Field(dict),
    "prior": _Field(dict, nullable=True),
}
_SYNTHETIC = {
    "num_classes": _Field(int, minimum=2),
    "dim": _Field(int, minimum=1),
    "n_train": _Field(int),
    "n_test": _Field(int),
    "center_scale": _Field(float),
    "noise": _Field(float),
}
_PATH = _Field(str, required=True)
_IDX = {"train_images": _PATH, "train_labels": _PATH, "test_images": _PATH, "test_labels": _PATH,
        "num_classes": _Field(int)}
_FEATURE_MAP = {"hidden_units": _Field(int), "epochs": _Field(int), "step_size": _Field(float)}


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
    kind = _kind(data, path, _PRIOR_KIND, default_kind)
    spec = PriorSpec(**{"kind": kind, **_read(data, path, _PRIORS[kind])})
    if spec.kind == "uniform" and not spec.lo < spec.hi:
        raise ConfigError(f"{path}: lo must be below hi, got [{spec.lo}, {spec.hi}]")
    return spec


@dataclass(frozen=True)
class MixtureSpec:
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

    def __post_init__(self) -> None:
        for name, count in (("n_train", self.n_train), ("n_test", self.n_test)):
            if count < self.num_classes:
                raise ValueError(f"{name} must be at least num_classes ({self.num_classes}), got {count}")


@dataclass(frozen=True)
class IdxSpec:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    num_classes: int = 10


@dataclass(frozen=True)
class ClassificationSpec:
    synthetic: SyntheticSpec
    idx: IdxSpec | None
    feature_map: FeatureMapConfig
    prior: PriorSpec
    source: str = "synthetic"
    labels_per_agent: int = 2
    examples_per_agent: int = 100


def _parse_mixture(data: dict, path: str) -> MixtureSpec:
    values = _read(data, path, _MIXTURE)
    prior = _parse_prior(values.get("prior"), f"{path}.prior", default_kind="uniform")
    raw_agents = values.get("agents")
    if not isinstance(raw_agents, list) or not raw_agents:
        raise ConfigError(f"{path}.agents: expected a nonempty list")
    agents = []
    for i, raw in enumerate(raw_agents):
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.agents[{i}]: expected a nonempty list of components")
        agents.append(tuple(
            MixtureComponent(**{"weight": 1.0,
                                **_read(c, f"{path}.agents[{i}].components[{j}]", _COMPONENT)})
            for j, c in enumerate(raw)
        ))
    return MixtureSpec(prior=prior, agents=tuple(agents))


def _parse_classification(data: dict, path: str) -> ClassificationSpec:
    values = _read(data, path, _CLASSIFICATION)
    del values["kind"]
    synthetic = _section(SyntheticSpec, values.pop("synthetic", {}), f"{path}.synthetic",
                         _SYNTHETIC)
    idx = None
    if values.get("source") == "idx":
        if "idx" not in values:
            raise ConfigError(f"{path}.idx: required when source is 'idx'")
        idx = _section(IdxSpec, values["idx"], f"{path}.idx", _IDX)
    values.pop("idx", None)
    feature_map = _section(FeatureMapConfig, values.pop("feature_map", {}),
                           f"{path}.feature_map", _FEATURE_MAP)
    prior = _parse_prior(values.pop("prior", None), f"{path}.prior", default_kind="gaussian")
    if prior.kind != "gaussian":
        raise ConfigError(f"{path}.prior.kind: classification uses a gaussian prior")
    return ClassificationSpec(synthetic=synthetic, idx=idx, feature_map=feature_map,
                              prior=prior, **values)


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
class ExperimentConfig:
    """A validated run config; each JSON section fills the type that uses it.

    ``protocol`` carries no prior, and ``pvi`` keeps its default ``alpha``:
    each phase adds the problem's prior and the protocol's ``alpha``.
    """

    method: str
    experiment: MixtureSpec | ClassificationSpec
    protocol: fed.ProtocolConfig
    learn: LearnSettings
    unlearn: UnlearnSettings
    retrain: RetrainSettings
    pvi: PviConfig
    grid: GridConfig
    forget_agents: tuple[int, ...]
    seed: int = 0
    out_dir: str = "runs"
    particles: int = 100


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON object into a typed config.

    Every rejected field is reported with its full path, and unknown keys
    are errors at every level.
    """
    top = _read(data, "config", _CONFIG)
    exp = top.pop("experiment")
    mixture = _kind(exp, "config.experiment", _EXPERIMENT_KIND) == "mixture"
    experiment = (_parse_mixture if mixture else _parse_classification)(exp, "config.experiment")
    if top["method"] in PARAMETRIC_METHODS and not mixture:
        raise ConfigError("config.method: parametric methods support the mixture experiment only")

    protocol = fed.ProtocolConfig(**_read(top.pop("protocol", {}), "config.protocol", _PROTOCOL))

    forget_agents = tuple(sorted(set(top.pop("forget_agents", ()))))
    if any(k < 1 for k in forget_agents):
        raise ConfigError("config.forget_agents: agent ids are 1-based")
    return ExperimentConfig(
        experiment=experiment,
        protocol=protocol,
        learn=_section(LearnSettings, top.pop("learn", {}), "config.learn", _LEARN),
        unlearn=_section(UnlearnSettings, top.pop("unlearn", {}), "config.unlearn", _UNLEARN),
        retrain=_section(RetrainSettings, top.pop("retrain", {}), "config.retrain", _RETRAIN),
        pvi=_section(PviConfig, top.pop("pvi", {}), "config.pvi", _PVI),
        grid=_section(GridConfig, top.pop("grid", {}), "config.grid", _GRID),
        forget_agents=forget_agents,
        **top,
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


# Each command's effective method for the particle and the parametric family.
_COMMAND_METHODS = {
    "learn": ("dsvgd", "pvi"),
    "unlearn": ("forget_svgd", "ulpvi"),
    "retrain": ("retrain", "retrain"),
}


def resolve_method(config_method: str, command: str) -> str:
    """Map the configured method family onto a subcommand's effective method."""
    if command not in _COMMAND_METHODS:
        raise ValueError(f"unknown command {command!r}")
    return _COMMAND_METHODS[command][config_method in PARAMETRIC_METHODS]


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
            total = self.prior.log_density(rows)
            for k in ids:
                total = total + self.losses[k].log_mixture_density(rows)
            return total

        return log_ref

    def _fields(self, log_q, loss_points: np.ndarray, retained_only: bool) -> dict:
        return {"kl": grid_kl(log_q, self.reference_log_density(retained_only), self.grid),
                "forgot_loss": _forgot_loss(self.losses, self.forget_ids, loss_points)}

    def particle_metrics(self, particles: np.ndarray, retained_only: bool) -> dict:
        log_q = lambda x: kde_log_density(particles, np.asarray(x, dtype=float)[:, None], self.kde_lam)
        return self._fields(log_q, particles, retained_only)

    def parametric_metrics(self, mean: np.ndarray, variance: np.ndarray, retained_only: bool) -> dict:
        log_q = lambda x: gaussian_log_density_moments(mean, variance, x)
        return self._fields(log_q, np.asarray(mean, dtype=float)[None, :], retained_only)


@dataclass
class ClassificationProblem:
    losses: dict[int, SoftmaxHeadLoss]
    shard_classes: dict[int, tuple[int, ...]]
    prior: GaussianPrior
    forget_ids: tuple[int, ...]
    test_features: np.ndarray
    test_labels: np.ndarray
    num_classes: int

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
        return {
            "forgotten_acc": macro_accuracy(acc, forgotten) if forgotten else None,
            "retained_acc": macro_accuracy(acc, retained) if retained else None,
            "per_class": {str(c): acc[c] for c in sorted(acc)},
            "forgot_loss": _forgot_loss(self.losses, self.forget_ids, particles),
        }


def _forgot_loss(losses: dict, forget_ids: tuple[int, ...], points: np.ndarray) -> float | None:
    """Mean over the forgotten shards of each shard's mean loss at ``points``."""
    if not forget_ids:
        return None
    return float(np.mean([float(np.mean(losses[k].loss(points))) for k in forget_ids]))


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
        prior=spec.prior.build(dim=head_dim),
        forget_ids=cfg.forget_agents,
        test_features=feature_map(test.features),
        test_labels=test.labels,
        num_classes=num_classes,
    )


def _validate_forget_ids(forget_ids, known) -> None:
    known = set(known)
    unknown = [k for k in forget_ids if k not in known]
    if unknown:
        raise ConfigError(f"config.forget_agents: unknown agent ids {unknown}")


# --- phase loop -----------------------------------------------------------------


@dataclass(frozen=True)
class RunPaths:
    metrics: str
    transcript: str
    snapshot: str
    locals_json: str
    plot: str


def run_paths(cfg: ExperimentConfig, method: str) -> RunPaths:
    base = cfg.out_dir
    return RunPaths(
        metrics=os.path.join(base, f"{method}_metrics.csv"),
        transcript=os.path.join(base, f"{method}_transcript.jsonl"),
        snapshot=os.path.join(base, f"{method}_snapshot.txt"),
        locals_json=os.path.join(base, f"{method}_locals.json"),
        plot=os.path.join(base, f"{method}_plot.csv"),
    )


@dataclass
class RunResult:
    method: str
    records: list[MetricRecord]
    paths: RunPaths
    rounds_run: int


_UNLEARN_OVERRIDES = ("epsilon", "epsilon_local", "update_steps", "distill_steps")


def _protocol_config(cfg: ExperimentConfig, prior, phase: str) -> fed.ProtocolConfig:
    """The configured protocol with the problem's prior and, when unlearning, the overrides."""
    overrides = {}
    if phase == PHASE_UNLEARN:
        overrides = {key: getattr(cfg.unlearn, key) for key in _UNLEARN_OVERRIDES
                     if getattr(cfg.unlearn, key) is not None}
    return dataclasses.replace(cfg.protocol, prior=prior, **overrides)


def _record(fields: dict, phase: str, round_index: int, wall_ms: float) -> tuple[MetricRecord, dict]:
    """Split a problem's metric fields into the CSV record and the transcript extras."""
    extra = {"per_class": fields.pop("per_class")} if "per_class" in fields else {}
    return MetricRecord(round=round_index, phase=phase, wall_ms=wall_ms, **fields), extra


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


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


_METHOD_PHASE = {"dsvgd": PHASE_LEARN, "pvi": PHASE_LEARN, "forget_svgd": PHASE_UNLEARN,
                 "ulpvi": PHASE_UNLEARN, "retrain": PHASE_RETRAIN}


def _measure(problem, method: str, array: np.ndarray) -> dict:
    """The problem's metric fields for a snapshot array: particles, or mean and variance rows."""
    retained_only = _METHOD_PHASE[method] != PHASE_LEARN
    if method in PARAMETRIC_METHODS:
        return problem.parametric_metrics(array[0], array[1], retained_only)
    return problem.particle_metrics(array, retained_only)


def _run_phase(cfg: ExperimentConfig, problem, method: str, state, step, snapshot,
               save_locals=None) -> RunResult:
    """Run one phase's rounds and write its metrics, transcript and final state.

    ``step(state, r)`` runs round ``r`` and returns the new state and the
    scheduled agent; ``snapshot(state)`` returns the array that each round
    measures and the phase saves; ``save_locals(state)``, when given, writes
    the state the snapshot array leaves out.
    ``wall_ms`` (and the transcript's ``round_ms``) times the round alone;
    the transcript's ``eval_ms`` times the evaluation that builds its record.
    """
    phase = _METHOD_PHASE[method]
    rounds = {PHASE_LEARN: cfg.learn, PHASE_UNLEARN: cfg.unlearn,
              PHASE_RETRAIN: cfg.retrain}[phase].rounds
    paths = run_paths(cfg, method)
    os.makedirs(cfg.out_dir, exist_ok=True)
    records: list[MetricRecord] = []
    rounds_run = 0
    with MetricsWriter(paths.metrics) as metrics, TranscriptWriter(paths.transcript) as transcript:

        def emit(agent, wall_ms: float) -> None:
            start = time.perf_counter()
            record, extra = _record(_measure(problem, method, snapshot(state)), phase,
                                    rounds_run, wall_ms)
            eval_ms = _ms_since(start)
            records.append(record)
            metrics.append(record)
            transcript.append({
                "round": record.round,
                "phase": record.phase,
                "agent": agent,
                "wall_ms": record.wall_ms,
                "round_ms": record.wall_ms,
                "eval_ms": eval_ms,
                "metrics": record.metrics(),
                **extra,
            })

        try:
            emit(None, 0.0)
            for r in range(rounds):
                start = time.perf_counter()
                state, agent = step(state, r)
                wall = _ms_since(start)
                rounds_run = r + 1
                emit(agent, wall)
                if phase == PHASE_UNLEARN and _unlearn_should_stop(cfg, problem, records):
                    break
        except Exception as err:
            transcript.append({"round": len(records), "phase": phase, "error": str(err)})
            raise
    save_snapshot(paths.snapshot, snapshot(state), rounds_run, cfg.seed)
    if save_locals is not None:
        save_locals(state)
    return RunResult(method, records, paths, rounds_run)


def _run_particles(cfg: ExperimentConfig, problem, method: str) -> RunResult:
    """DSVGD learning, Forget-SVGD unlearning, or retraining on the retained agents."""
    phase = _METHOD_PHASE[method]
    pcfg = _protocol_config(cfg, problem.prior, phase)
    losses = problem.losses
    if phase == PHASE_RETRAIN:
        losses = {k: v for k, v in losses.items() if k not in problem.forget_ids}
        if cfg.retrain.mode == "federated" and not losses:
            raise ConfigError("config.retrain.mode: federated retraining needs a retained agent")
    if phase == PHASE_UNLEARN:
        learned = run_paths(cfg, "dsvgd").snapshot
        if not os.path.exists(learned):
            raise MissingStateError(f"no learned state found at {learned}; run learn first")
        server = fed.ServerState(load_snapshot(learned)[0])
        agents = {
            k: fed.AgentState(losses[k], fed.init_local_particles(
                problem.prior, cfg.particles, cfg.seed, k, fed.STREAM_UNLEARN))
            for k in problem.forget_ids
        }
    else:
        server, agents = fed.initialize_states(losses, pcfg, cfg.particles, cfg.seed)
    pooled = tuple(losses[k] for k in sorted(losses))

    def step(server, r):
        if phase == PHASE_RETRAIN and cfg.retrain.mode == "centralized":
            return fed.centralized_round(server, pooled, pcfg), None
        k = fed.schedule(pcfg, r, tuple(agents))
        play = fed.unlearning_round if phase == PHASE_UNLEARN else fed.learning_round
        server, agents[k] = play(server, agents, k, pcfg)
        return server, k

    return _run_phase(cfg, problem, method, server, step, lambda server: server.global_particles)


def _nat_to_json(nat: GaussianNatParams) -> dict:
    return {"eta1": nat.eta1.tolist(), "eta2": nat.eta2.tolist()}


def _nat_from_json(data: dict, path: str) -> GaussianNatParams:
    try:
        return GaussianNatParams(np.asarray(data["eta1"], dtype=float),
                                 np.asarray(data["eta2"], dtype=float))
    except (KeyError, TypeError, ValueError) as err:
        raise MissingStateError(f"{path}: malformed factor state ({err})") from None


def _save_pvi_state(path: str, eta: GaussianNatParams,
                    locals_nat: dict[int, GaussianNatParams]) -> None:
    state = {
        "global": _nat_to_json(eta),
        "agents": {str(k): _nat_to_json(v) for k, v in sorted(locals_nat.items())},
    }
    write_atomic(path, json.dumps(state, sort_keys=True) + "\n")


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


def _run_parametric(cfg: ExperimentConfig, problem, method: str) -> RunResult:
    """PVI learning or ULPVI unlearning of diagonal-Gaussian factors."""
    phase = _METHOD_PHASE[method]
    if phase == PHASE_UNLEARN:
        eta, locals_nat = _load_pvi_state(run_paths(cfg, "pvi").locals_json)
        missing = [k for k in problem.forget_ids if k not in locals_nat]
        if missing:
            raise MissingStateError(f"learned state lacks factors for forget agents {missing}")
        eligible = problem.forget_ids
    else:
        eta = moment_to_nat([cfg.pvi.prior_mean], [cfg.pvi.prior_variance])
        locals_nat = {k: GaussianNatParams.zeros(eta.dim) for k in problem.losses}
        eligible = tuple(problem.losses)
    pvicfg = dataclasses.replace(cfg.pvi, alpha=cfg.protocol.alpha)
    pcfg = _protocol_config(cfg, problem.prior, phase)
    rng = np.random.default_rng([cfg.seed, 3 if phase == PHASE_UNLEARN else 2])

    def step(eta, r):
        k = fed.schedule(pcfg, r, eligible)
        play = ulpvi_round if phase == PHASE_UNLEARN else pvi_round
        eta, locals_nat[k] = play(eta, locals_nat[k], problem.losses[k], pvicfg, rng)
        return eta, k

    return _run_phase(
        cfg, problem, method, eta, step, lambda eta: np.vstack(nat_to_moment(eta)),
        lambda eta: _save_pvi_state(run_paths(cfg, method).locals_json, eta, locals_nat),
    )


def run_experiment(cfg: ExperimentConfig, command: str) -> RunResult:
    """Run one phase of the configured experiment and write its artifacts."""
    method = resolve_method(cfg.method, command)
    problem = build_problem(cfg)
    if _METHOD_PHASE[method] == PHASE_UNLEARN and not problem.forget_ids:
        raise ConfigError("config.forget_agents: unlearning needs a nonempty forget set")
    run = _run_parametric if method in PARAMETRIC_METHODS else _run_particles
    return run(cfg, problem, method)


# --- evaluation and export --------------------------------------------------------


def evaluate_snapshot(cfg: ExperimentConfig, method: str) -> dict:
    """Recompute the metric fields of a saved snapshot.

    Uses the same measurement code as the phase loop, so the result matches
    the final metrics row of the run that wrote the snapshot exactly.
    """
    if method not in METHODS:
        raise ConfigError(f"method: expected one of {sorted(METHODS)}, got {method!r}")
    paths = run_paths(cfg, method)
    if not os.path.exists(paths.snapshot):
        raise MissingStateError(f"no saved state found at {paths.snapshot}; run {method} first")
    problem = build_problem(cfg)
    array, round_index, seed = load_snapshot(paths.snapshot)
    if method in PARAMETRIC_METHODS:
        if not isinstance(problem, MixtureProblem):
            raise ConfigError("config.method: parametric methods support the mixture experiment only")
        if array.shape[0] != 2:
            raise MissingStateError(
                f"{paths.snapshot}: parametric snapshot must hold mean and variance rows"
            )
    fields = _measure(problem, method, array)
    record, extra = _record(fields, _METHOD_PHASE[method], round_index, 0.0)
    return {"method": method, "round": round_index, "seed": seed, **record.metrics(), **extra}


PLOT_COLUMNS = ("round", "forgotten_acc", "retained_acc", "kl", "wall_ms")


def export_plot_data(metrics_path, out_path) -> int:
    """Reduce a metrics CSV to plot-ready columns; returns the row count."""
    records = read_metrics_csv(metrics_path)
    columns = [METRICS_COLUMNS.index(name) for name in PLOT_COLUMNS]
    lines = [",".join(PLOT_COLUMNS)]
    lines.extend(",".join(rec.row()[i] for i in columns) for rec in records)
    write_atomic(out_path, "\n".join(lines) + "\n")
    return len(records)

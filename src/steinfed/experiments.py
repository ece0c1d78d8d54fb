"""Experiment assembly: typed configuration, the phase loop, evaluation, export.

A run is described by one JSON config naming the method, the experiment
(a one-dimensional mixture density benchmark or a non-iid label-split
classification benchmark), the protocol settings, and per-phase budgets.
Each config section is the dataclass that uses it, and that type's
``__post_init__`` holds the section's range rules.  Each run writes three
files into the output directory, prefixed by the effective method name:
``<method>_metrics.csv`` (one row per round), ``<method>_transcript.jsonl``
(round events), and ``<method>_snapshot.txt`` (final state).  Unlearning
resumes from the learning snapshot of its method family; parametric runs
additionally persist their per-agent factors as ``<method>_locals.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
import types
import typing
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
from .rules import FieldError, at_least, nonnegative, one_of, positive

PARTICLE_METHODS = ("dsvgd", "forget_svgd", "retrain")
PARAMETRIC_METHODS = ("pvi", "ulpvi")
METHODS = PARTICLE_METHODS + PARAMETRIC_METHODS


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field path."""


class MissingStateError(RuntimeError):
    """A resume step needed files an earlier phase has not produced."""


# --- config types -----------------------------------------------------------------


@dataclass(frozen=True)
class UniformSpec:
    lo: float = -10.0
    hi: float = 10.0

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"lo must be below hi, got [{self.lo}, {self.hi}]")

    def build(self, dim: int) -> UniformPrior:
        return UniformPrior(self.lo, self.hi, dim=dim)


@dataclass(frozen=True)
class GaussianSpec:
    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self) -> None:
        positive(self, "variance")

    def build(self, dim: int) -> GaussianPrior:
        return GaussianPrior(self.mean, self.variance, dim=dim)


@dataclass(frozen=True)
class MixtureSpec:
    prior: UniformSpec | GaussianSpec = UniformSpec()
    agents: tuple[tuple[MixtureComponent, ...], ...] = ()  # absent reads as empty: rejected below

    def __post_init__(self) -> None:
        if not self.agents:
            raise FieldError("agents", "expected a nonempty list")


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 4
    dim: int = 10
    n_train: int = 400
    n_test: int = 400
    center_scale: float = 4.0
    noise: float = 1.0

    def __post_init__(self) -> None:
        at_least(2, self, "num_classes")
        at_least(1, self, "dim")
        for name, count in (("n_train", self.n_train), ("n_test", self.n_test)):
            if count < self.num_classes:
                raise FieldError(name, f"must be at least num_classes ({self.num_classes}), got {count}")


@dataclass(frozen=True)
class IdxSpec:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    num_classes: int = 10

    def __post_init__(self) -> None:
        at_least(2, self, "num_classes")


@dataclass(frozen=True)
class ClassificationSpec:
    source: str = "synthetic"
    synthetic: SyntheticSpec = SyntheticSpec()
    idx: IdxSpec | None = None
    labels_per_agent: int = 2
    examples_per_agent: int = 100
    feature_map: FeatureMapConfig = FeatureMapConfig()
    prior: GaussianSpec = GaussianSpec()

    def __post_init__(self) -> None:
        one_of(("synthetic", "idx"), self, "source")
        if self.source == "idx" and self.idx is None:
            raise FieldError("idx", "required when source is 'idx'")
        at_least(1, self, "labels_per_agent", "examples_per_agent")


@dataclass(frozen=True)
class LearnSettings:
    rounds: int = 100

    def __post_init__(self) -> None:
        nonnegative(self, "rounds")


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

    def __post_init__(self) -> None:
        nonnegative(self, "rounds", "epsilon", "epsilon_local", "update_steps", "distill_steps")
        at_least(1, self, "patience", "loss_window")


@dataclass(frozen=True)
class RetrainSettings:
    rounds: int = 200
    mode: str = "centralized"

    def __post_init__(self) -> None:
        nonnegative(self, "rounds")
        one_of(("centralized", "federated"), self, "mode")


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run config; each JSON section is the type that uses it.

    ``protocol`` carries no prior, and ``pvi`` keeps its default ``alpha``:
    each phase adds the problem's prior and the protocol's ``alpha``.
    ``forget_agents`` holds sorted, distinct, 1-based agent ids.
    """

    method: str
    experiment: MixtureSpec | ClassificationSpec
    seed: int = 0
    out_dir: str = "runs"
    particles: int = 100
    protocol: fed.ProtocolConfig = fed.ProtocolConfig()
    learn: LearnSettings = LearnSettings()
    unlearn: UnlearnSettings = UnlearnSettings()
    retrain: RetrainSettings = RetrainSettings()
    pvi: PviConfig = PviConfig()
    grid: GridConfig = GridConfig()
    forget_agents: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        one_of(METHODS, self, "method")
        if self.method in PARAMETRIC_METHODS and not isinstance(self.experiment, MixtureSpec):
            raise FieldError("method", "parametric methods support the mixture experiment only")
        nonnegative(self, "seed")
        at_least(1, self, "particles")
        object.__setattr__(self, "forget_agents", tuple(sorted(set(self.forget_agents))))
        if any(k < 1 for k in self.forget_agents):
            raise FieldError("forget_agents", "agent ids are 1-based")


# --- config reading ---------------------------------------------------------------

_KIND_NAMES = {float: "a number", int: "an integer", bool: "true/false", str: "a string"}

# Fields that each phase fills in; a config does not set them.
_PHASE_FILLED = {fed.ProtocolConfig: "prior", PviConfig: "alpha"}


@functools.cache
def _keys(cls) -> dict:
    """Each config key of ``cls``: its type hint and whether the key is required."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is dataclasses.MISSING)
            for f in dataclasses.fields(cls) if f.name != _PHASE_FILLED.get(cls)}


def _read(cls, data, path: str):
    """Build ``cls`` from one config object; every error names its field path.

    A key may be left out when its field has a default, and may be ``null``
    when its type admits ``None``; unknown keys are errors.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    keys = _keys(cls)
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    values = {}
    for name, (hint, required) in keys.items():
        where = f"{path}.{name}"
        if name in data:
            reader = _READERS.get((cls, name))
            values[name] = reader(data[name], where) if reader else _value(hint, data[name], where)
        elif required:
            raise ConfigError(f"{where}: required")
    try:
        return cls(**values)
    except FieldError as err:
        raise ConfigError(f"{path}.{err}") from None
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def _value(hint, value, where: str):
    """Check one JSON value against a field's type hint; numbers become floats, lists tuples."""
    if isinstance(hint, types.UnionType):  # ``X | None``, or ``float | np.ndarray``
        if value is None and type(None) in hint.__args__:
            return None
        hint = hint.__args__[0]
    if dataclasses.is_dataclass(hint):
        return _read(hint, value, where)
    if typing.get_origin(hint) is tuple:  # tuple[int, ...]
        if not isinstance(value, list) or not all(type(v) is int for v in value):
            raise ConfigError(f"{where}: expected a list of integers")
        return tuple(value)
    accepted = (int, float) if hint is float else hint
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{where}: expected {_KIND_NAMES[hint]}, got {type(value).__name__}")
    return float(value) if hint is float else value


def _by_kind(data, path: str, kinds: dict, default: str | None = None):
    """Build the type that an object's ``kind`` names from its other keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    if "kind" in data:
        kind = _value(str, data["kind"], f"{path}.kind")
    elif default is None:
        raise ConfigError(f"{path}.kind: required")
    else:
        kind = default
    if kind not in kinds:
        raise ConfigError(f"{path}.kind: expected one of {sorted(kinds)}, got {kind!r}")
    return _read(kinds[kind], {k: v for k, v in data.items() if k != "kind"}, path)


_PRIOR_TYPES = {"uniform": UniformSpec, "gaussian": GaussianSpec}


def _mixture_prior(data, path: str):
    return UniformSpec() if data is None else _by_kind(data, path, _PRIOR_TYPES, "uniform")


def _classification_prior(data, path: str):
    prior = GaussianSpec() if data is None else _by_kind(data, path, _PRIOR_TYPES, "gaussian")
    if not isinstance(prior, GaussianSpec):
        raise ConfigError(f"{path}.kind: classification uses a gaussian prior")
    return prior


def _mixture_agents(data, path: str):
    """Each agent is a list of components; a component's ``weight`` defaults to 1."""
    if not isinstance(data, list):
        raise ConfigError(f"{path}: expected a nonempty list")
    agents = []
    for i, raw in enumerate(data):
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}[{i}]: expected a nonempty list of components")
        agents.append(tuple(
            _read(MixtureComponent, {"weight": 1.0, **c} if isinstance(c, dict) else c,
                  f"{path}[{i}].components[{j}]")
            for j, c in enumerate(raw)
        ))
    return tuple(agents)


# Fields whose JSON shape differs from their type.
_READERS = {
    (ExperimentConfig, "experiment"): lambda data, path: _by_kind(
        data, path, {"mixture": MixtureSpec, "classification": ClassificationSpec}),
    (MixtureSpec, "prior"): _mixture_prior,
    (MixtureSpec, "agents"): _mixture_agents,
    (ClassificationSpec, "prior"): _classification_prior,
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON object into a typed config.

    Every rejected field is reported with its full path, and unknown keys
    are errors at every level.
    """
    return _read(ExperimentConfig, data, "config")


def load_config(path) -> ExperimentConfig:
    try:
        with open(str(path), encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from None
    return config_from_dict(data)


# Each command's effective method for the particle and the parametric family;
# a command names the phase that its methods run.
_COMMAND_METHODS = {
    "learn": ("dsvgd", "pvi"),
    "unlearn": ("forget_svgd", "ulpvi"),
    "retrain": ("retrain", "retrain"),
}
_METHOD_PHASE = {m: command for command, methods in _COMMAND_METHODS.items() for m in methods}


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
    feature_map = pretrain_feature_map(pool_features, pool_labels, num_classes, spec.feature_map,
                                       np.random.default_rng(cfg.seed))

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
    if phase == "unlearn":
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


def _measure(problem, method: str, array: np.ndarray) -> dict:
    """The problem's metric fields for a snapshot array: particles, or mean and variance rows."""
    retained_only = _METHOD_PHASE[method] != "learn"
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
    rounds = getattr(cfg, phase).rounds  # the learn, unlearn or retrain settings
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
                if phase == "unlearn" and _unlearn_should_stop(cfg, problem, records):
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
    if phase == "retrain":
        losses = {k: v for k, v in losses.items() if k not in problem.forget_ids}
        if cfg.retrain.mode == "federated" and not losses:
            raise ConfigError("config.retrain.mode: federated retraining needs a retained agent")
    if phase == "unlearn":
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
        if phase == "retrain" and cfg.retrain.mode == "centralized":
            return fed.centralized_round(server, pooled, pcfg), None
        k = fed.schedule(pcfg, r, tuple(agents))
        play = fed.unlearning_round if phase == "unlearn" else fed.learning_round
        server, agents[k] = play(server, agents[k], pcfg)
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
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        eta = _nat_from_json(data.get("global", {}), path)
        locals_nat = {
            int(k): _nat_from_json(v, path) for k, v in data.get("agents", {}).items()
        }
    except (AttributeError, ValueError) as err:  # not an object, a non-integer id, not JSON
        raise MissingStateError(f"{path}: malformed factor state ({err})") from None
    return eta, locals_nat


def _run_parametric(cfg: ExperimentConfig, problem, method: str) -> RunResult:
    """PVI learning or ULPVI unlearning of diagonal-Gaussian factors."""
    phase = _METHOD_PHASE[method]
    if phase == "unlearn":
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
    rng = np.random.default_rng([cfg.seed, 3 if phase == "unlearn" else 2])

    def step(eta, r):
        k = fed.schedule(cfg.protocol, r, eligible)
        play = ulpvi_round if phase == "unlearn" else pvi_round
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
    if _METHOD_PHASE[method] == "unlearn" and not problem.forget_ids:
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

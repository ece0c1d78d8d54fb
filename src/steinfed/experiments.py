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

import copy
import dataclasses
import functools
import json
import math
import os
import time
import types
import typing
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from . import federation as fed
from . import pvi
from .data import idx_source, make_synthetic_pair, pool_shards
from .kernels import kde_log_density
from .metrics import (
    METRICS_COLUMNS,
    GridConfig,
    GridReference,
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
from .pvi import PviConfig, gaussian_log_density_moments, moment_to_nat, nat_to_moment
from .rules import FieldError, at_least, nonnegative, one_of

PARAMETRIC_METHODS = ("pvi", "ulpvi")


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field path."""


class MissingStateError(RuntimeError):
    """A resume step needed files an earlier phase has not produced."""


# --- config types -----------------------------------------------------------------


@dataclass(frozen=True)
class MixtureSpec:
    kind: ClassVar[str] = "mixture"
    prior: UniformPrior | GaussianPrior = UniformPrior()
    agents: tuple[tuple[MixtureComponent, ...], ...] = ()  # absent reads as empty: rejected below

    def __post_init__(self) -> None:
        if not self.agents:
            raise FieldError("agents", "expected a nonempty list")
        for i, components in enumerate(self.agents):
            if not components:
                raise FieldError(f"agents[{i}]", "expected a nonempty list of components")

    @property
    def agent_ids(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.agents) + 1))


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
        nonnegative(self, "center_scale", "noise")
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
    kind: ClassVar[str] = "classification"
    source: str = "synthetic"
    synthetic: SyntheticSpec = SyntheticSpec()
    idx: IdxSpec | None = None
    labels_per_agent: int = 2
    examples_per_agent: int = 100
    feature_map: FeatureMapConfig = FeatureMapConfig()
    prior: GaussianPrior = GaussianPrior()

    def __post_init__(self) -> None:
        one_of(("synthetic", "idx"), self, "source")
        if self.source == "idx" and self.idx is None:
            raise FieldError("idx", "required when source is 'idx'")
        at_least(1, self, "labels_per_agent", "examples_per_agent")
        if self.num_classes % self.labels_per_agent != 0:
            raise FieldError("labels_per_agent", f"must divide the class count ({self.num_classes})")
        if self.examples_per_agent % self.labels_per_agent != 0:
            raise FieldError("examples_per_agent",
                             f"must be a multiple of labels_per_agent ({self.labels_per_agent})")

    @property
    def num_classes(self) -> int:
        return (self.idx if self.source == "idx" else self.synthetic).num_classes

    @property
    def agent_ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.num_classes // self.labels_per_agent + 1))


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
    each phase adds ``experiment.prior`` and the protocol's ``alpha``.
    ``forget_agents`` holds sorted, distinct, 1-based agent ids; it and
    ``protocol.sequence`` may name only the experiment's agents.
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
        for field, ids in (("forget_agents", self.forget_agents),
                           ("protocol.sequence", self.protocol.sequence or ())):
            unknown = sorted(set(ids) - set(self.experiment.agent_ids))
            if unknown:
                raise FieldError(field, f"unknown agent ids {unknown}")


# --- config reading ---------------------------------------------------------------

_KIND_NAMES = {float: "a number", int: "an integer", bool: "true/false", str: "a string"}

# Fields that each phase fills in; a config does not set them.
_PHASE_FILLED = {fed.ProtocolConfig: "prior", PviConfig: "alpha"}


@functools.cache
def _keys(cls) -> dict:
    """Each config key of ``cls``: its type hint and default (``MISSING``: required).

    A positional field may keep its config default in ``metadata["default"]``.
    """
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata.get("default", f.default))
            for f in dataclasses.fields(cls) if f.name != _PHASE_FILLED.get(cls)}


def _read(cls, data, path: str):
    """Build ``cls`` from one config object; every error names its JSON path.

    With ``_value``, the whole config reader: the type hints of ``cls`` are its
    schema and its ``__post_init__`` its rules.  A key may be left out when its
    field has a default; unknown keys are errors.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    keys = _keys(cls)
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    values = {}
    for name, (hint, default) in keys.items():
        where = f"{path}.{name}"
        if name in data:
            values[name] = _value(hint, data[name], where, default)
        elif default is dataclasses.MISSING:
            raise ConfigError(f"{where}: required")
        else:
            values[name] = default
    try:
        return cls(**values)
    except FieldError as err:
        raise ConfigError(f"{path}.{err}") from None
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


class _LongInteger(str):
    """A JSON integer literal with more digits than ``int`` reads; ``_value`` refuses it."""


def _parse_int(text: str) -> int | _LongInteger:
    try:
        return int(text)
    except ValueError:  # past ``sys.get_int_max_str_digits()``
        return _LongInteger(text)


def _value(hint, value, where: str, default=dataclasses.MISSING):
    """Check one JSON value against a field's type hint and ``default``, and build it.

    A field typed as kinded sections is read as the one its ``kind`` names;
    ``kind`` defaults to the kind of ``default``, and ``null`` means ``default``.
    ``null`` passes where the hint admits ``None``; ``tuple[X, ...]`` reads a
    list item by item, with ``[i]`` in the path; numbers become finite floats.
    """
    if isinstance(value, _LongInteger):
        digits = len(value.lstrip("-"))
        raise ConfigError(f"{where}: integer literal of {digits} digits is too long")
    members = hint.__args__ if isinstance(hint, types.UnionType) else (hint,)
    kinds = {m.kind: m for m in members if isinstance(getattr(m, "kind", None), str)}
    if kinds:
        if value is None and default is not dataclasses.MISSING:
            return default
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object, got {type(value).__name__}")
        if "kind" not in value and default is dataclasses.MISSING:
            raise ConfigError(f"{where}.kind: required")
        kind = _value(str, value.get("kind", getattr(default, "kind", None)), f"{where}.kind")
        if kind not in kinds:
            raise ConfigError(f"{where}.kind: expected one of {sorted(kinds)}, got {kind!r}")
        return _read(kinds[kind], {k: v for k, v in value.items() if k != "kind"}, where)
    if value is None and type(None) in members:
        return None
    hint = members[0]  # of ``X | None``, or of ``float | np.ndarray``
    if dataclasses.is_dataclass(hint):
        return _read(hint, value, where)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        item = hint.__args__[0]
        if item is int and not (isinstance(value, list) and all(type(v) is int for v in value)):
            raise ConfigError(f"{where}: expected a list of integers")
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        return tuple(_value(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if hint is float else hint
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{where}: expected {_KIND_NAMES[hint]}, got {type(value).__name__}")
    if hint is not float:
        return value
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        raise ConfigError(f"{where}: expected a number within the float range") from None
    if not math.isfinite(number):  # JSON's NaN, Infinity and -Infinity
        raise ConfigError(f"{where}: expected a finite number, got {number}")
    return number


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON object into a typed config; see ``_read`` for the errors."""
    return _read(ExperimentConfig, data, "config")


def load_config(path) -> ExperimentConfig:
    try:
        with open(str(path), encoding="utf-8") as fh:
            data = json.load(fh, parse_int=_parse_int)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from None
    return config_from_dict(data)


# --- problem assembly -----------------------------------------------------------


@dataclass
class MixtureProblem:
    losses: dict[int, GaussianMixtureLoss]
    forget_ids: tuple[int, ...]

    def reference_log_density(self, prior, ids: tuple[int, ...]):
        """The unnormalized log posterior of ``prior`` and the losses of agents ``ids``."""

        def log_ref(x: np.ndarray) -> np.ndarray:
            rows = np.asarray(x, dtype=float)[:, None]
            total = prior.log_density(rows)
            for k in ids:
                total = total + self.losses[k].log_mixture_density(rows)
            return total

        return log_ref


@dataclass
class ClassificationProblem:
    losses: dict[int, SoftmaxHeadLoss]
    shard_classes: dict[int, tuple[int, ...]]
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


# Distinct (experiment, seed) pairs whose classification problem a process keeps built.
_CACHED_PROBLEMS = 4


def build_problem(cfg: ExperimentConfig):
    """Instantiate the losses and evaluation data of a config, and its forget set.

    A classification problem is built once per experiment spec and seed in
    a process, with its arrays read-only; every config that differs only in
    its forget set, prior, method, protocol or output directory shares that build.
    """
    if isinstance(cfg.experiment, MixtureSpec):
        return MixtureProblem(
            losses={i + 1: GaussianMixtureLoss(list(components))
                    for i, components in enumerate(cfg.experiment.agents)},
            forget_ids=cfg.forget_agents,
        )
    spec = dataclasses.replace(cfg.experiment, prior=GaussianPrior())  # the build reads no prior
    try:
        shared = _classification_problem(spec, cfg.seed, _idx_stamps(spec))
    except FileNotFoundError as err:
        raise ConfigError(f"config.experiment.idx: {err}") from None
    return dataclasses.replace(shared, forget_ids=cfg.forget_agents)


def _idx_stamps(spec: ClassificationSpec) -> tuple:
    """Size and modification time of each IDX file, so that a rewritten file is read again."""
    if spec.source != "idx":
        return ()
    idx = spec.idx
    paths = (idx.train_images, idx.train_labels, idx.test_images, idx.test_labels)
    return tuple((st.st_size, st.st_mtime_ns) for st in map(os.stat, paths))


@functools.lru_cache(maxsize=_CACHED_PROBLEMS)
def _classification_problem(spec: ClassificationSpec, seed: int,
                            idx_stamps: tuple) -> ClassificationProblem:
    """The problem of ``spec`` at ``seed``, without a forget set; ``idx_stamps`` keys the cache."""
    num_classes = spec.num_classes
    if spec.source == "synthetic":
        syn = spec.synthetic
        train_source, test_source = make_synthetic_pair(num_classes, syn.dim, syn.n_train,
                                                         syn.n_test, seed, syn.center_scale,
                                                         syn.noise)
    else:
        train_source = idx_source(spec.idx.train_images, spec.idx.train_labels, num_classes)
        test_source = idx_source(spec.idx.test_images, spec.idx.test_labels, num_classes)

    try:
        pool, shards = pool_shards(
            train_source, len(spec.agent_ids), spec.labels_per_agent, spec.examples_per_agent, seed
        )
    except ValueError as err:
        raise ConfigError(f"config.experiment: {err}") from None
    del train_source  # the pool holds every row the shards use; the rest is not needed again

    feature_map = pretrain_feature_map(pool.features, pool.labels, num_classes, spec.feature_map,
                                       np.random.default_rng(seed))

    losses = {
        s.agent_id: SoftmaxHeadLoss(feature_map(s.features), s.labels, num_classes)
        for s in shards
    }
    shard_classes = {s.agent_id: s.classes for s in shards}
    del pool, shards  # so that the test set's floats are never held beside the pool's
    test = test_source.take()
    problem = ClassificationProblem(
        losses=losses,
        shard_classes=shard_classes,
        forget_ids=(),
        test_features=feature_map(test.features),
        test_labels=test.labels,
        num_classes=num_classes,
    )
    for owner in (problem, *losses.values()):  # shared: no caller may write
        for value in vars(owner).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
    return problem


# --- phases -----------------------------------------------------------------------


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


def _unlearn_should_stop(settings: UnlearnSettings, problem,
                         records: list[MetricRecord]) -> str | None:
    """Why unlearning ends after the last record: ``accuracy_bar``, ``loss_plateau`` or
    ``budget``; None while it goes on."""
    if settings.early_stop:
        if isinstance(problem, ClassificationProblem) and _forgetting_achieved(
            records, problem.num_classes, settings.margin, settings.patience
        ):
            return "accuracy_bar"
        if _forgot_loss_plateaued(records, settings.loss_window):
            return "loss_plateau"
    return "budget" if records[-1].round >= settings.rounds else None


@dataclass(frozen=True)
class Phase:
    """One phase of a run, as data; the defaults describe learning.

    A phase is DSVGD rounds, or PVI rounds for the parametric family, with a
    loss sign, its agents, a start state and a stop rule.  Its round
    functions are looked up in their modules at each call, never stored, so
    a wrapper installed on ``federation`` or ``pvi`` sees every round.
    """

    name: str  # the command, and the config section that holds the phase's budget
    help: str  # the command's help line
    methods: tuple[str, str]  # the effective method of the particle and the parametric family
    no_agents: str  # the error when the phase has no agent to schedule
    sign: float = 1.0  # +1 pulls the posterior towards the scheduled agent's data, -1 away
    forgotten: bool | None = None  # its agents: all (None), the forget (True) or retained (False)
    start: tuple[str, str] | None = None  # methods whose saved state it starts from; None: prior
    local_stream: int = fed.STREAM_LEARN  # seed-stream tag of the agents' fresh local particles
    pvi_stream: int | None = 2  # seed-stream tag of the PVI Monte Carlo draws
    overrides: tuple[str, ...] = ()  # keys of its section that, when set, replace the protocol's
    stop: Callable | None = None  # ``stop(section, problem, records)``: why it ends there, or None

    def pooled(self, cfg: ExperimentConfig) -> bool:
        """True when its section's ``mode`` is centralized: one pooled target, no agents."""
        return getattr(getattr(cfg, self.name), "mode", "federated") == "centralized"

    def eligible(self, cfg: ExperimentConfig) -> tuple[int, ...]:
        """The sorted ids of the agents whose losses the phase uses, from the config alone."""
        return tuple(k for k in cfg.experiment.agent_ids
                     if self.forgotten is None or (k in cfg.forget_agents) == self.forgotten)


PHASES = {phase.name: phase for phase in (
    Phase("learn", "run federated learning with the configured method", ("dsvgd", "pvi"),
          no_agents="config.experiment: learning needs an agent"),
    Phase("unlearn", "run unlearning from a saved learned state", ("forget_svgd", "ulpvi"),
          no_agents="config.forget_agents: unlearning needs a nonempty forget set",
          sign=-1.0, forgotten=True, start=("dsvgd", "pvi"), local_stream=fed.STREAM_UNLEARN,
          pvi_stream=3,
          overrides=("epsilon", "epsilon_local", "update_steps", "distill_steps"),
          stop=_unlearn_should_stop),
    Phase("retrain", "retrain from scratch on the retained agents", ("retrain", "retrain"),
          no_agents="config.retrain.mode: federated retraining needs a retained agent",
          forgotten=False, pvi_stream=None),
)}
METHODS = tuple(sorted({method for phase in PHASES.values() for method in phase.methods}))


def _method_phase(method: str) -> Phase:
    """The phase that runs ``method``: the one check of a method named outside the config."""
    for phase in PHASES.values():
        if method in phase.methods:
            return phase
    raise ConfigError(f"method: expected one of {sorted(METHODS)}, got {method!r}")


def resolve_method(config_method: str, command: str) -> str:
    """Map the configured method family onto a subcommand's effective method."""
    if command not in PHASES:
        raise ValueError(f"unknown command {command!r}")
    return PHASES[command].methods[config_method in PARAMETRIC_METHODS]


def check_phase_agents(cfg: ExperimentConfig, phase: Phase) -> None:
    """Reject a phase with no agent to schedule, or a fixed sequence that names one it cannot.

    A phase that pools its agents' losses schedules none, so it passes.
    Only the first ``rounds`` entries of a sequence are checked; running out
    of entries stays a round's error, because an early stop may end the phase
    first.
    """
    if phase.pooled(cfg):
        return
    eligible = phase.eligible(cfg)
    if not eligible:
        raise ConfigError(phase.no_agents)
    if cfg.protocol.schedule == "fixed_sequence":
        named = cfg.protocol.sequence[:getattr(cfg, phase.name).rounds]
        ineligible = sorted(set(named) - set(eligible))
        if ineligible:
            raise ConfigError(f"config.protocol.sequence: the {phase.name} phase cannot schedule "
                              f"agents {ineligible}; it schedules {list(eligible)}")


# --- phase loop -----------------------------------------------------------------


@dataclass(frozen=True)
class RunPaths:
    metrics: str
    transcript: str
    snapshot: str
    locals_json: str
    plot: str


def run_paths(cfg: ExperimentConfig, method: str) -> RunPaths:
    """The files of ``method`` under ``out_dir``; a name that is no method is rejected."""
    _method_phase(method)
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


def _protocol_config(cfg: ExperimentConfig, phase: Phase) -> fed.ProtocolConfig:
    """The configured protocol with ``experiment.prior`` and the phase's overrides that are set."""
    settings = getattr(cfg, phase.name)
    overrides = {key: getattr(settings, key) for key in phase.overrides
                 if getattr(settings, key) is not None}
    return dataclasses.replace(cfg.protocol, prior=cfg.experiment.prior, **overrides)


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def _measurement(cfg: ExperimentConfig, problem, phase: Phase, method: str) -> Callable:
    """``measure(array, round_index, wall_ms)``: the CSV record and transcript extras of a state.

    The array holds particles, or for a parametric method mean and variance
    rows.  What every round shares is made here, once: the mixture's grid
    reference, or the forgotten and retained class sets.
    """
    losses, forget_ids = problem.losses, problem.forget_ids
    parametric = method in PARAMETRIC_METHODS

    def forgot_loss(array: np.ndarray) -> float | None:
        """Mean over the forgotten shards of each shard's mean loss, at each particle or the mean."""
        if not forget_ids:
            return None
        points = array[:1] if parametric else array
        return float(np.mean([float(np.mean(losses[k].loss(points))) for k in forget_ids]))

    if isinstance(problem, MixtureProblem):
        # Learning is measured against every agent's posterior, the others against the retained.
        ids = tuple(k for k in sorted(losses) if phase.forgotten is None or k not in forget_ids)
        grid, lam = cfg.grid, cfg.protocol.kde_lam
        reference = GridReference.of(problem.reference_log_density(cfg.experiment.prior, ids), grid)

        def measure(array: np.ndarray, round_index: int, wall_ms: float):
            if parametric:
                log_q = lambda x: gaussian_log_density_moments(array[0], array[1], x)
            else:
                log_q = lambda x: kde_log_density(array, x[:, None], lam)
            return MetricRecord(round=round_index, phase=phase.name, wall_ms=wall_ms,
                                kl=grid_kl(log_q, reference, grid),
                                forgot_loss=forgot_loss(array)), {}

        return measure

    classes = tuple(range(problem.num_classes))
    forgotten, retained = problem.forgotten_classes, problem.retained_classes

    def measure(array: np.ndarray, round_index: int, wall_ms: float):
        acc = per_class_accuracy(array, problem.test_features, problem.test_labels,
                                 problem.num_classes, classes=classes)
        record = MetricRecord(
            round=round_index, phase=phase.name, wall_ms=wall_ms,
            forgotten_acc=macro_accuracy(acc, forgotten) if forgotten else None,
            retained_acc=macro_accuracy(acc, retained) if retained else None,
            forgot_loss=forgot_loss(array))
        return record, {"per_class": {str(c): acc[c] for c in sorted(acc)}}

    return measure


def _run_phase(cfg: ExperimentConfig, problem, phase: Phase, method: str, started: float, state,
               step, snapshot, save_locals=None) -> RunResult:
    """Run one phase's rounds and write its metrics, transcript and final state.

    ``state`` is one value that no function writes to and that holds no part
    of the problem: ``(server, agents)``, the global ``ParticleSet`` and each
    agent's ``ParticleSet`` or pending ``Distillation``, for the particle
    family, ``(eta, factors, generator)`` for the parametric one.
    ``step(state, r)`` runs round ``r`` and returns a new state and the
    scheduled agent; a particle round first settles that agent's pending
    distillation, and one still pending when the phase ends never runs.
    ``snapshot(state)`` is the array that each round measures and the phase
    saves: the global particles, or ``eta``'s mean and variance rows.
    ``save_locals(state)``, when given, writes ``eta`` and the factors.
    Neither keeps local particles, AdaGrad accumulators or the generator.
    ``wall_ms`` (and the transcript's ``round_ms``) times the round alone,
    with the distillation it settles;
    the transcript's ``eval_ms`` times the evaluation that builds its record,
    and round 0's ``setup_ms`` the time from ``started`` to that evaluation.
    The measurement is built before any file is opened, so its failure writes none.
    """
    measure = _measurement(cfg, problem, phase, method)
    settings = getattr(cfg, phase.name)  # the learn, unlearn or retrain section
    paths = run_paths(cfg, method)
    os.makedirs(cfg.out_dir, exist_ok=True)
    records: list[MetricRecord] = []
    with MetricsWriter(paths.metrics) as metrics, TranscriptWriter(paths.transcript) as transcript:

        def emit(state, agent, wall_ms: float, **setup) -> str | None:
            """Measure and write one record; the phase's stop reason, if it ends here."""
            start = time.perf_counter()
            record, extra = measure(snapshot(state), len(records), wall_ms)
            eval_ms = _ms_since(start)
            records.append(record)
            metrics.append(record)
            reason = phase.stop(settings, problem, records) if phase.stop is not None else None
            transcript.append({
                "round": record.round,
                "phase": record.phase,
                "agent": agent,
                "wall_ms": record.wall_ms,
                "round_ms": record.wall_ms,
                "eval_ms": eval_ms,
                **setup,
                "metrics": record.metrics(),
                **extra,
                **({"stop_reason": reason} if reason is not None else {}),
            })
            return reason

        try:
            emit(state, None, 0.0, setup_ms=_ms_since(started))
            for r in range(settings.rounds):
                start = time.perf_counter()
                state, agent = step(state, r)
                if emit(state, agent, _ms_since(start)) is not None:
                    break
        except Exception as err:
            transcript.append({"round": len(records), "phase": phase.name, "error": str(err)})
            raise
    save_snapshot(paths.snapshot, snapshot(state), len(records) - 1, cfg.seed)
    if save_locals is not None:
        save_locals(state)
    return RunResult(method, records, paths, len(records) - 1)


def _saved_snapshot(cfg: ExperimentConfig, method: str) -> tuple[np.ndarray, int]:
    """The array and round of ``method``'s snapshot, which must exist and be of ``cfg``'s run."""
    path = run_paths(cfg, method).snapshot
    if not os.path.exists(path):
        raise MissingStateError(
            f"no saved state found at {path}; run {_method_phase(method).name} first")
    array, round_index, seed = load_snapshot(path)
    if seed != cfg.seed:
        raise MissingStateError(f"{path}: saved at seed {seed}, not at the run's seed {cfg.seed}")
    if method in PARAMETRIC_METHODS and array.shape[0] != 2:
        raise MissingStateError(f"{path}: parametric snapshot must hold mean and variance rows, "
                                f"got {array.shape[0]} rows")
    if method not in PARAMETRIC_METHODS and array.shape[0] != cfg.particles:
        raise MissingStateError(
            f"{path}: holds {array.shape[0]} particles, not the run's {cfg.particles}")
    if array.shape[1] != _width(cfg):
        raise MissingStateError(
            f"{path}: holds rows of width {array.shape[1]}, not the problem's width {_width(cfg)}")
    if not np.isfinite(array).all():
        raise MissingStateError(f"{path}: holds a value that is not finite")
    return array, round_index


def _width(cfg: ExperimentConfig) -> int:
    """The particle width ``d`` that ``cfg``'s problem will have, read without building it."""
    spec = cfg.experiment
    if isinstance(spec, MixtureSpec):
        return spec.agents[0][0].mean.size
    return (spec.feature_map.hidden_units + 1) * spec.num_classes


def _run_particles(cfg: ExperimentConfig, phase: Phase, method: str, started: float) -> RunResult:
    """DSVGD rounds with the phase's loss sign, or centralized rounds on the pooled losses."""
    learned = None  # None: the global particles are drawn from the prior
    if phase.start is not None:
        learned = _saved_snapshot(cfg, phase.start[0])[0]
    problem = build_problem(cfg)  # after every check of the start state: a bad one fails fast
    pcfg = _protocol_config(cfg, phase)
    eligible = phase.eligible(cfg)
    pooled = tuple(problem.losses[k] for k in eligible) if phase.pooled(cfg) else None
    shape = (cfg.particles, _width(cfg))
    # A pooled phase schedules no agent, so it draws no local particles.
    start = fed.initialize_states(eligible if pooled is None else (), pcfg.prior, shape,
                                  cfg.seed, phase.local_stream, learned)

    def step(state, r):
        server, agents = state
        if pooled is not None:
            return (fed.centralized_round(server, pooled, pcfg), agents), None
        k = fed.schedule(pcfg, r, tuple(agents))
        play = fed.learning_round if phase.sign > 0 else fed.unlearning_round
        server, agent = play(server, agents[k], problem.losses[k], pcfg)
        return (server, {**agents, k: agent}), k

    return _run_phase(cfg, problem, phase, method, started, start, step,
                      lambda state: state[0].particles)


def _save_pvi_state(path: str, state: tuple) -> None:
    """Write the global and per-agent factors of a parametric state; its generator is dropped."""
    eta, factors, _ = state
    rows = lambda nat: {"eta1": nat[0].tolist(), "eta2": nat[1].tolist()}
    saved = {"global": rows(eta), "agents": {str(k): rows(v) for k, v in sorted(factors.items())}}
    write_atomic(path, json.dumps(saved, sort_keys=True) + "\n")


def _nat_from_json(value, shape: tuple[int, int]) -> np.ndarray:
    """A saved factor as a finite float array of ``shape``; ValueError names the broken rule."""
    if not isinstance(value, dict) or sorted(value) != ["eta1", "eta2"]:
        raise ValueError(f"expected exactly the keys eta1 and eta2, got {json.dumps(value)}")
    rows = (value["eta1"], value["eta2"])
    if not all(isinstance(row, list) and all(type(x) in (int, float) for x in row) for row in rows):
        raise ValueError(f"eta1 and eta2 must be lists of numbers, got {json.dumps(value)}")
    if [len(row) for row in rows] != [shape[1]] * 2:
        raise ValueError(f"expected {shape[1]} coordinates in eta1 and eta2, "
                         f"got {len(rows[0])} and {len(rows[1])}")
    nat = np.array(rows, dtype=float)
    if not np.all(np.isfinite(nat)):
        raise ValueError(f"values must be finite, got {json.dumps(value)}")
    return nat


def _load_pvi_state(path: str, shape: tuple[int, int]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The saved global and per-agent factors; the global must be a proper Gaussian."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        eta = _nat_from_json(data.get("global"), shape)
        nat_to_moment(eta)  # agent factors may have eta2 >= 0; the global may not
        locals_nat = {int(k): _nat_from_json(v, shape) for k, v in data.get("agents", {}).items()}
    except FileNotFoundError:
        raise MissingStateError(f"no saved state found at {path}; run learn first") from None
    except (AttributeError, OverflowError, ValueError) as err:  # not JSON, or not the layout
        raise MissingStateError(f"{path}: malformed factor state ({err})") from None
    return eta, locals_nat


def _run_parametric(cfg: ExperimentConfig, phase: Phase, method: str, started: float) -> RunResult:
    """PVI rounds with the phase's loss sign on diagonal-Gaussian factors: PVI or ULPVI."""
    eligible = phase.eligible(cfg)
    eta = moment_to_nat([cfg.pvi.prior_mean], [cfg.pvi.prior_variance])
    factors = {k: np.zeros_like(eta) for k in eligible}
    if phase.start is not None:  # the learned factors replace the prior and the zero factors
        path = run_paths(cfg, phase.start[1]).locals_json
        eta, factors = _load_pvi_state(path, eta.shape)
        missing = [k for k in eligible if k not in factors]
        if missing:
            raise MissingStateError(f"{path}: learned state lacks factors for forget agents {missing}")
        _saved_snapshot(cfg, phase.start[1])  # the factors were saved with it, at its seed
    problem = build_problem(cfg)  # after the start state, so that a bad one fails fast
    pvicfg = dataclasses.replace(cfg.pvi, alpha=cfg.protocol.alpha)

    def step(state, r):
        eta, factors, rng = state
        rng = copy.deepcopy(rng)  # the round draws from a copy, so the given state stays as it was
        k = fed.schedule(cfg.protocol, r, eligible)
        play = pvi.pvi_round if phase.sign > 0 else pvi.ulpvi_round
        eta, factor = play(eta, factors[k], problem.losses[k], pvicfg, rng)
        return (eta, {**factors, k: factor}, rng), k

    start = (eta, factors, np.random.default_rng([cfg.seed, phase.pvi_stream]))
    return _run_phase(cfg, problem, phase, method, started, start, step,
                      lambda state: nat_to_moment(state[0]),
                      functools.partial(_save_pvi_state, run_paths(cfg, method).locals_json))


def run_experiment(cfg: ExperimentConfig, command: str) -> RunResult:
    """Run one phase of the configured experiment and write its artifacts."""
    started = time.perf_counter()
    method = resolve_method(cfg.method, command)
    phase = PHASES[command]
    check_phase_agents(cfg, phase)
    run = _run_parametric if method in PARAMETRIC_METHODS else _run_particles
    return run(cfg, phase, method, started)


# --- evaluation and export --------------------------------------------------------


def evaluate_snapshot(cfg: ExperimentConfig, method: str) -> dict:
    """Recompute the metric fields of a saved snapshot.

    Uses the same measurement code as the phase loop, so the result matches
    the final metrics row of the run that wrote the snapshot exactly.
    """
    phase = _method_phase(method)
    if method in PARAMETRIC_METHODS and not isinstance(cfg.experiment, MixtureSpec):
        raise ConfigError("config.method: parametric methods support the mixture experiment only")
    array, round_index = _saved_snapshot(cfg, method)
    problem = build_problem(cfg)
    record, extra = _measurement(cfg, problem, phase, method)(array, round_index, 0.0)
    return {"method": method, "round": round_index, "seed": cfg.seed, **record.metrics(), **extra}


PLOT_COLUMNS = ("round", "forgotten_acc", "retained_acc", "kl", "wall_ms")


def export_plot_data(metrics_path, out_path) -> int:
    """Reduce a metrics CSV to plot-ready columns; returns the row count."""
    records = read_metrics_csv(metrics_path)
    columns = [METRICS_COLUMNS.index(name) for name in PLOT_COLUMNS]
    lines = [",".join(PLOT_COLUMNS)]
    lines.extend(",".join(rec.row()[i] for i in columns) for rec in records)
    write_atomic(out_path, "\n".join(lines) + "\n")
    return len(records)

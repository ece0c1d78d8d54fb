"""Parameter-server protocol for particle-based federated learning.

The server's global particles and each agent's local particles are one kind
of value, a ``ParticleSet``.  One communication round: the scheduled agent
downloads the global particles, runs L transport steps on the tilted target

    score(q_kde) - score(t_k_kde) + sign * (1/alpha) * (-grad loss_k)

with both kernel density scores frozen at their round-start particle sets,
and uploads the moved particles as the new global set.  The agent then
distils its own likelihood approximation by moving its local particles for
L_local steps towards

    score(new global kde) - score(old global kde) + score(old local kde).

Only that agent's next round reads the distilled particles, so a round
returns the distillation pending, as a ``Distillation``, and the agent's next
round ``settle``s it before its transport.  A distillation that no later
round needs never runs; one that does runs the same arithmetic on the same
arrays as it would at the end of its own round.

The agent's loss is an argument of the round, not part of any state, so a
phase's state holds arrays only.  Learning and unlearning rounds differ only
in ``sign``: a learning round has sign +1 and pulls the posterior towards
the agent's data; an unlearning round has sign -1 and pushes it away.
Retraining from scratch runs plain transport on the pooled retained-data
target starting from fresh prior draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kernels import _as_particle_matrix, kde_log_density_grad
from .rules import FieldError, nonnegative, one_of, positive
from .svgd import TargetGradient, run_svgd

# Seed-stream tags separating learning-phase draws from unlearning re-draws.
STREAM_LEARN = 0
STREAM_UNLEARN = 1


class ProtocolError(RuntimeError):
    """A federated round was asked to do something the protocol forbids."""


@dataclass(frozen=True)
class ParticleSet:
    """An ``(N, d)`` particle set that SVGD moves: the server's global particles or an agent's.

    ``acc`` is the AdaGrad accumulator that the set's next move starts from under
    ``persist_adagrad``, and None otherwise.
    """

    particles: np.ndarray
    acc: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "particles", _as_particle_matrix(self.particles))


@dataclass(frozen=True)
class ProtocolConfig:
    """Round structure, step sizes and kernel widths shared by all round types.

    ``kde_lam`` is the per-dimension standard deviation of every KDE in the
    tilted and distillation targets.  ``bandwidth=None`` picks the RBF
    transport bandwidth by the median heuristic at every step; a positive
    float fixes it.
    """

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
    prior: object | None = None

    def __post_init__(self) -> None:
        positive(self, "alpha", "fudge", "kde_lam", "bandwidth")
        nonnegative(self, "update_steps", "distill_steps", "epsilon", "epsilon_local")
        one_of(("round_robin", "fixed_sequence"), self, "schedule")
        if self.schedule == "fixed_sequence":
            if not self.sequence:
                raise FieldError("sequence", "required when schedule is 'fixed_sequence'")
            object.__setattr__(self, "sequence", tuple(int(k) for k in self.sequence))


# --- initialization -----------------------------------------------------------


def init_global_particles(prior, shape: tuple[int, int], seed: int) -> np.ndarray:
    """Draw the initial ``(N, d)`` global particles from the prior."""
    rng = np.random.default_rng([seed, 0])
    return prior.sample(rng, shape)


def init_local_particles(prior, shape: tuple[int, int], seed: int, agent_id: int,
                         stream: int = STREAM_LEARN) -> np.ndarray:
    """Draw one agent's ``(N, d)`` local particles with a per-agent, per-stream generator."""
    rng = np.random.default_rng([seed, stream, agent_id])
    return prior.sample(rng, shape)


def initialize_states(
    agent_ids: Iterable[int], prior, shape: tuple[int, int], seed: int,
    stream: int = STREAM_LEARN, global_particles: np.ndarray | None = None,
) -> tuple[ParticleSet, dict[int, ParticleSet]]:
    """Fresh local particles for each of ``agent_ids``, and the global ``global_particles``.

    Every set drawn from ``prior`` has the ``(N, d)`` ``shape``; the global set
    is drawn when ``global_particles`` is None.  ``stream`` tags the agents'
    local draws.  The global draws have their own generator, so passing
    ``global_particles`` leaves the local draws as they were.
    """
    if global_particles is None:
        global_particles = init_global_particles(prior, shape, seed)
    agents = {k: ParticleSet(init_local_particles(prior, shape, seed, k, stream))
              for k in agent_ids}
    return ParticleSet(global_particles), agents


# --- tilted targets -----------------------------------------------------------


def tilted_grad(
    server: ParticleSet, agent: ParticleSet, loss, config: ProtocolConfig, sign: float
) -> TargetGradient:
    """Score of the scheduled agent's tilted target, frozen at round start.

    The gradient of the agent's tempered ``loss`` enters with ``sign``:
    ``+1.0`` in a learning round pulls the particles towards its data,
    ``-1.0`` in an unlearning round pushes them away.  The returned closure
    captures copies of the current global and local particle sets, so later
    moves of either set do not leak into the target.  The loss is tempered
    by ``config.alpha``, the KDEs have width ``config.kde_lam``, and the
    prior score of ``config.prior`` is added when
    ``config.include_prior_score`` is set.
    """
    global_ref = server.particles.copy()
    local_ref = agent.particles.copy()
    lam, alpha = config.kde_lam, config.alpha
    prior = config.prior if config.include_prior_score else None

    def target(theta: np.ndarray) -> np.ndarray:
        grad = kde_log_density_grad(global_ref, theta, lam)
        grad -= kde_log_density_grad(local_ref, theta, lam)
        grad += sign * loss.neg_loss_grad(theta, alpha)
        if prior is not None:
            grad += prior.score(theta)
        return grad

    return target


def distill_target_grad(
    new_global: np.ndarray, old_global: np.ndarray, old_local: np.ndarray, lam: float
) -> TargetGradient:
    """Score of the distillation target for the scheduled agent's particles.

    Every KDE has per-dimension standard deviation ``lam``.
    """
    new_ref = np.asarray(new_global, dtype=float).copy()
    old_ref = np.asarray(old_global, dtype=float).copy()
    local_ref = np.asarray(old_local, dtype=float).copy()

    def target(theta: np.ndarray) -> np.ndarray:
        grad = kde_log_density_grad(new_ref, theta, lam)
        grad -= kde_log_density_grad(old_ref, theta, lam)
        grad += kde_log_density_grad(local_ref, theta, lam)
        return grad

    return target


# --- rounds -------------------------------------------------------------------


def _svgd(start: ParticleSet, target: TargetGradient, steps: int, epsilon: float,
          config: ProtocolConfig) -> ParticleSet:
    """``start`` moved ``steps`` SVGD steps towards ``target``, clamped to the prior's support.

    Under ``persist_adagrad`` the run starts from ``start.acc`` and the moved set
    carries the advanced accumulator; otherwise it starts from zeros and carries None.
    """
    keep = config.persist_adagrad
    project = None if config.prior is None else config.prior.clamp
    moved, acc = run_svgd(start.particles, target, steps, epsilon, config.fudge,
                          start.acc if keep else None, config.bandwidth, project)
    return ParticleSet(moved, acc if keep else None)


@dataclass(frozen=True)
class Distillation:
    """An agent's distillation, pending until the agent next plays.

    ``start`` is the agent's particle set at the start of the round that left
    it; ``new_global`` and ``old_global`` are the global particles after and
    before that round's transport.  They are the round's own arrays, not
    copies, and no function writes to them.
    """

    start: ParticleSet
    new_global: np.ndarray
    old_global: np.ndarray


def settle(agent: ParticleSet | Distillation, config: ProtocolConfig) -> ParticleSet:
    """The agent's local particle set: ``agent`` itself, or its pending distillation run."""
    if isinstance(agent, ParticleSet):
        return agent
    distill = distill_target_grad(agent.new_global, agent.old_global, agent.start.particles,
                                  config.kde_lam)
    return _svgd(agent.start, distill, config.distill_steps, config.epsilon_local, config)


def _round(
    server: ParticleSet, agent: ParticleSet | Distillation, loss, config: ProtocolConfig,
    sign: float,
) -> tuple[ParticleSet, Distillation]:
    agent = settle(agent, config)
    new_server = _svgd(server, tilted_grad(server, agent, loss, config, sign),
                       config.update_steps, config.epsilon, config)
    return new_server, Distillation(agent, new_server.particles, server.particles)


def learning_round(
    server: ParticleSet, agent: ParticleSet | Distillation, loss, config: ProtocolConfig
) -> tuple[ParticleSet, Distillation]:
    """Run one learning round with the scheduled agent's particles and ``loss``.

    ``agent`` is the agent's particle set or the distillation its last round
    left pending, which is settled first.  Returns the new global particle
    set and the agent's pending distillation; inputs are not mutated.
    """
    return _round(server, agent, loss, config, sign=1.0)


def unlearning_round(
    server: ParticleSet, agent: ParticleSet | Distillation, loss, config: ProtocolConfig
) -> tuple[ParticleSet, Distillation]:
    """Run one unlearning round: a learning round with the loss gradient's sign flipped."""
    return _round(server, agent, loss, config, sign=-1.0)


def schedule(config: ProtocolConfig, round_index: int, eligible) -> int:
    """Pick the agent for a round.

    ``round_robin`` cycles the sorted eligible ids; ``fixed_sequence`` reads
    the configured sequence and errors when it runs out or names an
    ineligible agent.
    """
    ids = sorted(int(k) for k in eligible)
    if not ids:
        raise ProtocolError("no eligible agents to schedule")
    if round_index < 0:
        raise ProtocolError(f"round index must be nonnegative, got {round_index}")
    if config.schedule == "round_robin":
        return ids[round_index % len(ids)]
    if round_index >= len(config.sequence):
        raise ProtocolError(f"fixed schedule exhausted at round {round_index}")
    k = config.sequence[round_index]
    if k not in ids:
        raise ProtocolError(f"scheduled agent {k} is not eligible")
    return k


# --- retraining ---------------------------------------------------------------


def pooled_target(losses, alpha: float, prior) -> TargetGradient:
    """Score of the full posterior over the pooled losses.

    With no losses this is the prior score alone, so transport degenerates
    to prior sampling with kernel repulsion.
    """
    losses = tuple(losses)

    def target(theta: np.ndarray) -> np.ndarray:
        grad = prior.score(theta)
        for loss in losses:
            grad = grad + loss.neg_loss_grad(theta, alpha)
        return grad

    return target


def centralized_round(
    server: ParticleSet, losses, config: ProtocolConfig
) -> ParticleSet:
    """One retraining round: ``update_steps`` transport steps on the pooled target."""
    if config.prior is None:
        raise ProtocolError("retraining requires a prior in the protocol config")
    return _svgd(server, pooled_target(losses, config.alpha, config.prior), config.update_steps,
                 config.epsilon, config)

"""Parameter-server protocol for particle-based federated learning.

One communication round: the scheduled agent downloads the global
particles, runs L transport steps on the tilted target

    score(q_kde) - score(t_k_kde) + sign * (1/alpha) * (-grad loss_k)

with both kernel density scores frozen at their round-start particle sets,
uploads the moved particles as the new global set, and then distils its own
likelihood approximation by moving its local particles for L_local steps
towards

    score(new global kde) - score(old global kde) + score(old local kde).

Learning and unlearning rounds differ only in ``sign``: a learning round
has sign +1 and pulls the posterior towards the agent's data; an
unlearning round has sign -1 and pushes it away.  Retraining from scratch
runs plain transport on the pooled retained-data target starting from
fresh prior draws.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .kernels import _as_particle_matrix, kde_log_density_grad
from .rules import FieldError, nonnegative, one_of, positive
from .svgd import AdaGradState, TargetGradient, run_svgd

# Seed-stream tags separating learning-phase draws from unlearning re-draws.
STREAM_LEARN = 0
STREAM_UNLEARN = 1


class ProtocolError(RuntimeError):
    """A federated round was asked to do something the protocol forbids."""


@dataclass(frozen=True)
class ServerState:
    """Global particle set, updated functionally."""

    global_particles: np.ndarray
    global_opt: AdaGradState | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "global_particles", _as_particle_matrix(self.global_particles))


@dataclass
class AgentState:
    """One agent: its loss and its local particles."""

    loss: object
    local_particles: np.ndarray
    distill_opt: AdaGradState | None = None

    def __post_init__(self) -> None:
        self.local_particles = np.asarray(self.local_particles, dtype=float)


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


def init_global_particles(prior, n_particles: int, seed: int) -> np.ndarray:
    """Draw the initial global particles from the prior."""
    rng = np.random.default_rng([seed, 0])
    return prior.sample(rng, n_particles)


def init_local_particles(prior, n_particles: int, seed: int, agent_id: int,
                         stream: int = STREAM_LEARN) -> np.ndarray:
    """Draw one agent's local particles with a per-agent, per-stream generator."""
    rng = np.random.default_rng([seed, stream, agent_id])
    return prior.sample(rng, n_particles)


def initialize_states(
    losses: Mapping[int, object], config: ProtocolConfig, n_particles: int, seed: int
) -> tuple[ServerState, dict[int, AgentState]]:
    """Fresh server and agent states for a learning run."""
    if config.prior is None:
        raise ProtocolError("initialization requires a prior in the protocol config")
    server = ServerState(init_global_particles(config.prior, n_particles, seed))
    agents = {
        k: AgentState(loss, init_local_particles(config.prior, n_particles, seed, k))
        for k, loss in losses.items()
    }
    return server, agents


# --- tilted targets -----------------------------------------------------------


def tilted_grad(
    server: ServerState, agent: AgentState, config: ProtocolConfig, sign: float
) -> TargetGradient:
    """Score of the scheduled agent's tilted target, frozen at round start.

    The agent's tempered loss gradient enters with ``sign``: ``+1.0`` in a
    learning round pulls the particles towards its data, ``-1.0`` in an
    unlearning round pushes them away.  The returned closure captures copies
    of the current global and local particle sets, so later moves of either
    set do not leak into the target.  The loss is tempered by
    ``config.alpha``, the KDEs have width ``config.kde_lam``, and the prior
    score of ``config.prior`` is added when ``config.include_prior_score`` is
    set.
    """
    global_ref = server.global_particles.copy()
    local_ref = agent.local_particles.copy()
    lam, alpha = config.kde_lam, config.alpha
    prior = config.prior if config.include_prior_score else None
    loss = agent.loss

    def target(theta: np.ndarray) -> np.ndarray:
        grad = kde_log_density_grad(global_ref, theta, lam)
        grad = grad - kde_log_density_grad(local_ref, theta, lam)
        grad = grad + sign * loss.neg_loss_grad(theta, alpha)
        if prior is not None:
            grad = grad + prior.score(theta)
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
        grad = grad - kde_log_density_grad(old_ref, theta, lam)
        grad = grad + kde_log_density_grad(local_ref, theta, lam)
        return grad

    return target


# --- rounds -------------------------------------------------------------------


def _support_projection(config: ProtocolConfig) -> Callable[[np.ndarray], np.ndarray] | None:
    if config.prior is None:
        return None
    return config.prior.clamp


def _optimizer(
    config: ProtocolConfig, carried: AdaGradState | None, epsilon: float
) -> AdaGradState:
    """The AdaGrad state of one transport run: ``carried`` under ``persist_adagrad``, else fresh."""
    if config.persist_adagrad and carried is not None:
        return carried
    return AdaGradState(epsilon=epsilon, fudge=config.fudge)


def _transport(server: ServerState, target: TargetGradient, config: ProtocolConfig) -> ServerState:
    """Move the global particles ``update_steps`` steps towards ``target``.

    This is the global half of a federated round and the whole of a
    centralized one; it returns the next server state.
    """
    opt = _optimizer(config, server.global_opt, config.epsilon)
    new_global = run_svgd(server.global_particles, target, config.update_steps, opt,
                          config.bandwidth, project=_support_projection(config))
    return ServerState(new_global, opt if config.persist_adagrad else None)


def _round(
    server: ServerState, agent: AgentState, config: ProtocolConfig, sign: float
) -> tuple[ServerState, AgentState]:
    new_server = _transport(server, tilted_grad(server, agent, config, sign), config)

    distill = distill_target_grad(new_server.global_particles, server.global_particles,
                                  agent.local_particles, config.kde_lam)
    distill_opt = _optimizer(config, agent.distill_opt, config.epsilon_local)
    new_local = run_svgd(agent.local_particles, distill, config.distill_steps, distill_opt,
                         config.bandwidth, project=_support_projection(config))
    new_agent = dataclasses.replace(
        agent,
        local_particles=new_local,
        distill_opt=distill_opt if config.persist_adagrad else None,
    )
    return new_server, new_agent


def learning_round(
    server: ServerState, agent: AgentState, config: ProtocolConfig
) -> tuple[ServerState, AgentState]:
    """Run one learning round with the scheduled ``agent``.

    Returns the new server state and the updated agent; inputs are not
    mutated.
    """
    return _round(server, agent, config, sign=1.0)


def unlearning_round(
    server: ServerState, agent: AgentState, config: ProtocolConfig
) -> tuple[ServerState, AgentState]:
    """Run one unlearning round: a learning round with the loss gradient's sign flipped."""
    return _round(server, agent, config, sign=-1.0)


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
    server: ServerState, losses, config: ProtocolConfig
) -> ServerState:
    """One retraining round: ``update_steps`` transport steps on the pooled target."""
    if config.prior is None:
        raise ProtocolError("retraining requires a prior in the protocol config")
    return _transport(server, pooled_target(losses, config.alpha, config.prior), config)

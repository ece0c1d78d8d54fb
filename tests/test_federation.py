"""Tests for the parameter-server protocol: rounds, schedules, retraining."""

import dataclasses

import numpy as np
import pytest

from steinfed.federation import (
    STREAM_LEARN,
    STREAM_UNLEARN,
    AgentState,
    ProtocolConfig,
    ProtocolError,
    ServerState,
    centralized_round,
    distill_target_grad,
    init_global_particles,
    init_local_particles,
    initialize_states,
    learning_round,
    pooled_target,
    schedule,
    tilted_grad,
    unlearning_round,
)
from steinfed.kernels import kde_log_density_grad
from steinfed.models import GaussianMixtureLoss, GaussianPrior, MixtureComponent, UniformPrior
from steinfed.svgd import AdaGradState, run_svgd


def gaussian_loss(mean, variance):
    return GaussianMixtureLoss([MixtureComponent(1.0, np.array([mean]), np.array([variance]))])


def two_agent_setup(n=12, seed=0):
    prior = UniformPrior(-10.0, 10.0)
    losses = {1: gaussian_loss(1.0, 4.0), 2: gaussian_loss(-2.0, 1.0)}
    config = ProtocolConfig(update_steps=3, distill_steps=3, epsilon=0.2,
                            epsilon_local=0.2, prior=prior)
    server, agents = initialize_states(losses, config, n, seed)
    return prior, losses, config, server, agents


class TestInitialization:
    def test_global_particles_use_dedicated_stream(self):
        prior = UniformPrior(-10.0, 10.0)
        got = init_global_particles(prior, 6, seed=42)
        want = prior.sample(np.random.default_rng([42, 0]), 6)
        assert np.array_equal(got, want)

    def test_local_streams_split_by_agent_and_phase(self):
        prior = UniformPrior(-10.0, 10.0)
        a1 = init_local_particles(prior, 5, seed=7, agent_id=1)
        a2 = init_local_particles(prior, 5, seed=7, agent_id=2)
        a1u = init_local_particles(prior, 5, seed=7, agent_id=1, stream=STREAM_UNLEARN)
        assert not np.array_equal(a1, a2)
        assert not np.array_equal(a1, a1u)
        assert np.array_equal(a1, prior.sample(np.random.default_rng([7, STREAM_LEARN, 1]), 5))
        assert np.array_equal(a1u, prior.sample(np.random.default_rng([7, STREAM_UNLEARN, 1]), 5))

    def test_initialize_states_draws_each_agent_stream(self):
        prior, losses, _, server, agents = two_agent_setup(seed=5)
        assert np.array_equal(server.global_particles, init_global_particles(prior, 12, seed=5))
        assert server.global_opt is None
        assert list(agents) == [1, 2]
        for k, agent in agents.items():
            assert agent.loss is losses[k]
            assert np.array_equal(agent.local_particles,
                                  init_local_particles(prior, 12, seed=5, agent_id=k))
            assert agent.distill_opt is None

    def test_initialize_states_requires_prior(self):
        losses = {1: gaussian_loss(0.0, 1.0)}
        with pytest.raises(ProtocolError):
            initialize_states(losses, ProtocolConfig(), 4, 0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            ServerState(global_particles=np.zeros((0, 1)))
        with pytest.raises(ValueError):
            ProtocolConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ProtocolConfig(update_steps=-1)
        with pytest.raises(ValueError):
            ProtocolConfig(schedule="random")
        for field, value in (("epsilon", -0.1), ("epsilon_local", -1.0), ("fudge", 0.0)):
            with pytest.raises(ValueError, match=f"^{field}: "):
                ProtocolConfig(**{field: value})


class TestTiltedTargets:
    def test_learning_target_decomposition(self):
        _, _, _, server, agents = two_agent_setup(seed=2)
        agent = agents[1]
        lam = ProtocolConfig().kde_lam
        g0 = server.global_particles.copy()
        l0 = agent.local_particles.copy()
        target = tilted_grad(server, agent, ProtocolConfig(alpha=1.5), sign=1.0)
        theta = np.random.default_rng(3).uniform(-5, 5, size=(9, 1))
        want = (kde_log_density_grad(g0, theta, lam)
                - kde_log_density_grad(l0, theta, lam)
                + agent.loss.neg_loss_grad(theta, 1.5))
        assert np.max(np.abs(target(theta) - want)) < 1e-12

    def test_unlearning_flips_only_the_loss_term(self):
        _, _, _, server, agents = two_agent_setup(seed=4)
        agent = agents[1]
        lam = ProtocolConfig().kde_lam
        learn = tilted_grad(server, agent, ProtocolConfig(alpha=1.0), sign=1.0)
        unlearn = tilted_grad(server, agent, ProtocolConfig(alpha=1.0), sign=-1.0)
        theta = np.random.default_rng(5).uniform(-5, 5, size=(7, 1))
        kde_part = (kde_log_density_grad(server.global_particles, theta, lam)
                    - kde_log_density_grad(agent.local_particles, theta, lam))
        assert np.max(np.abs(learn(theta) + unlearn(theta) - 2.0 * kde_part)) < 1e-12

    def test_prior_score_added_when_requested(self):
        prior = GaussianPrior(0.0, 4.0)
        _, _, _, server, agents = two_agent_setup(seed=6)
        agent = agents[1]
        base = tilted_grad(server, agent, ProtocolConfig(alpha=1.0), sign=1.0)
        with_prior = tilted_grad(
            server, agent, ProtocolConfig(alpha=1.0, prior=prior, include_prior_score=True),
            sign=1.0)
        theta = np.array([[2.0], [-3.0]])
        assert np.allclose(with_prior(theta) - base(theta), prior.score(theta), atol=1e-14)

    def test_targets_are_frozen_at_build_time(self):
        _, _, _, server, agents = two_agent_setup(seed=7)
        agent = agents[1]
        target = tilted_grad(server, agent, ProtocolConfig(alpha=1.0), sign=1.0)
        theta = np.array([[0.5], [-0.5]])
        before = target(theta)
        server.global_particles[:] = 9.0
        agent.local_particles[:] = -9.0
        assert np.array_equal(target(theta), before)

    def test_distillation_target_decomposition(self):
        rng = np.random.default_rng(8)
        new_g = rng.normal(size=(6, 1))
        old_g = rng.normal(size=(6, 1))
        old_l = rng.normal(size=(6, 1))
        lam = ProtocolConfig().kde_lam
        target = distill_target_grad(new_g, old_g, old_l, lam)
        theta = rng.normal(size=(5, 1))
        want = (kde_log_density_grad(new_g, theta, lam)
                - kde_log_density_grad(old_g, theta, lam)
                + kde_log_density_grad(old_l, theta, lam))
        assert np.max(np.abs(target(theta) - want)) < 1e-12

    def test_distillation_with_unchanged_global_is_local_score(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(6, 1))
        local = rng.normal(size=(6, 1))
        lam = ProtocolConfig().kde_lam
        target = distill_target_grad(g, g.copy(), local, lam)
        theta = rng.normal(size=(4, 1))
        assert np.array_equal(target(theta), kde_log_density_grad(local, theta, lam))


class TestRounds:
    def test_zero_step_round_copies_particles_unchanged(self):
        _, _, _, server, agents = two_agent_setup()
        cfg = dataclasses.replace(
            ProtocolConfig(prior=UniformPrior(-10.0, 10.0)), update_steps=0, distill_steps=0
        )
        new_server, new_agent = learning_round(server, agents[1], cfg)
        assert np.array_equal(new_server.global_particles, server.global_particles)
        assert new_server.global_particles is not server.global_particles
        assert np.array_equal(new_agent.local_particles, agents[1].local_particles)

    def test_round_does_not_mutate_inputs(self):
        _, _, config, server, agents = two_agent_setup(seed=11)
        g_before = server.global_particles.copy()
        l1_before = agents[1].local_particles.copy()
        l2_before = agents[2].local_particles.copy()
        learning_round(server, agents[1], config)
        assert np.array_equal(server.global_particles, g_before)
        assert np.array_equal(agents[1].local_particles, l1_before)
        assert np.array_equal(agents[2].local_particles, l2_before)

    def test_round_is_deterministic(self):
        _, _, config, server, agents = two_agent_setup(seed=12)
        s1, a1 = learning_round(server, agents[2], config)
        s2, a2 = learning_round(server, agents[2], config)
        assert np.array_equal(s1.global_particles, s2.global_particles)
        assert np.array_equal(a1.local_particles, a2.local_particles)

    def test_replayed_round_is_bit_identical(self):
        # run three rounds, snapshot inputs of the third, replay it alone
        _, _, config, server, agents = two_agent_setup(seed=13)
        agents = dict(agents)
        inputs = None
        for r in range(3):
            k = schedule(config, r, agents.keys())
            if r == 2:
                inputs = (server, dataclasses.replace(agents[k]), k)
            server, agents[k] = learning_round(server, agents[k], config)
        replay_server, replay_agent = learning_round(inputs[0], inputs[1], config)
        assert np.array_equal(replay_server.global_particles, server.global_particles)
        assert np.array_equal(replay_agent.local_particles, agents[inputs[2]].local_particles)

    def test_particles_stay_inside_uniform_support(self):
        prior = UniformPrior(-1.0, 1.0)
        losses = {1: gaussian_loss(5.0, 0.25)}  # pulls hard towards the boundary
        config = ProtocolConfig(update_steps=25, distill_steps=25, epsilon=1.0,
                                epsilon_local=1.0, prior=prior)
        server, agents = initialize_states(losses, config, 10, seed=3)
        new_server, new_agent = learning_round(server, agents[1], config)
        assert new_server.global_particles.max() <= 1.0
        assert new_server.global_particles.min() >= -1.0
        assert new_agent.local_particles.max() <= 1.0

    def test_fresh_adagrad_each_round_by_default(self):
        _, _, config, server, agents = two_agent_setup(seed=14)
        new_server, new_agent = learning_round(server, agents[1], config)
        assert new_server.global_opt is None
        assert new_agent.distill_opt is None

    def test_persisted_adagrad_changes_later_rounds(self):
        _, losses, _, _, _ = two_agent_setup(seed=15)
        prior = UniformPrior(-10.0, 10.0)
        base = ProtocolConfig(update_steps=5, distill_steps=5, epsilon=0.3,
                              epsilon_local=0.3, prior=prior)
        keep = dataclasses.replace(base, persist_adagrad=True)

        def two_rounds(cfg):
            server, agents = initialize_states(losses, cfg, 10, seed=15)
            agents = dict(agents)
            for r in range(2):
                server, agents[1] = learning_round(server, agents[1], cfg)
            return server

        fresh = two_rounds(base)
        persisted = two_rounds(keep)
        assert persisted.global_opt is not None
        assert persisted.global_opt.accumulator is not None
        assert not np.array_equal(fresh.global_particles, persisted.global_particles)

    def test_single_agent_matching_locals_reduces_to_plain_transport(self):
        # when the local set equals the global set the two density scores
        # cancel exactly, so the server update must match direct transport
        # on the bare loss score
        loss = gaussian_loss(0.5, 2.0)
        rng = np.random.default_rng(16)
        start = rng.uniform(-3, 3, size=(9, 1))
        config = ProtocolConfig(update_steps=6, distill_steps=0, epsilon=0.1,
                                prior=GaussianPrior(0.0, 100.0))
        server = ServerState(global_particles=start)
        agents = {1: AgentState(loss=loss, local_particles=start.copy())}
        new_server, _ = learning_round(server, agents[1], config)
        direct = run_svgd(start, lambda t: loss.neg_loss_grad(t, config.alpha),
                          6, AdaGradState(epsilon=0.1, fudge=config.fudge), None)
        assert np.array_equal(new_server.global_particles, direct)


class TestSchedule:
    def test_round_robin_cycles_sorted_ids(self):
        config = ProtocolConfig()
        picks = [schedule(config, r, {2, 1}) for r in range(4)]
        assert picks == [1, 2, 1, 2]

    def test_fixed_sequence_followed_then_exhausted(self):
        config = ProtocolConfig(schedule="fixed_sequence", sequence=(2, 2, 1))
        assert [schedule(config, r, (1, 2)) for r in range(3)] == [2, 2, 1]
        with pytest.raises(ProtocolError):
            schedule(config, 3, (1, 2))

    def test_fixed_sequence_rejects_ineligible_agent(self):
        config = ProtocolConfig(schedule="fixed_sequence", sequence=(3,))
        with pytest.raises(ProtocolError):
            schedule(config, 0, (1, 2))

    def test_missing_sequence_rejected_at_construction(self):
        for sequence in (None, ()):
            with pytest.raises(ValueError, match="^sequence: required when schedule"):
                ProtocolConfig(schedule="fixed_sequence", sequence=sequence)

    def test_empty_eligible_and_negative_round_rejected(self):
        config = ProtocolConfig()
        with pytest.raises(ProtocolError):
            schedule(config, 0, ())
        with pytest.raises(ProtocolError):
            schedule(config, -1, (1,))


class TestUnlearningBehavior:
    def test_unlearning_pushes_loss_up(self):
        prior = UniformPrior(-10.0, 10.0)
        losses = {1: gaussian_loss(1.0, 4.0)}
        config = ProtocolConfig(update_steps=5, distill_steps=5, epsilon=0.3,
                                epsilon_local=0.3, prior=prior)
        server, agents = initialize_states(losses, config, 20, seed=1)
        agents = dict(agents)
        for _ in range(15):
            server, agents[1] = learning_round(server, agents[1], config)
        learned_loss = float(np.mean(losses[1].loss(server.global_particles)))

        fresh = init_local_particles(prior, 20, seed=1, agent_id=1, stream=STREAM_UNLEARN)
        agents = {1: AgentState(loss=losses[1], local_particles=fresh)}
        for _ in range(10):
            server, agents[1] = unlearning_round(server, agents[1], config)
        unlearned_loss = float(np.mean(losses[1].loss(server.global_particles)))
        assert unlearned_loss > learned_loss


class TestRetraining:
    def test_pooled_target_without_losses_is_prior_score(self):
        prior = GaussianPrior(1.0, 2.0, dim=2)
        target = pooled_target((), alpha=1.0, prior=prior)
        theta = np.random.default_rng(17).normal(size=(5, 2))
        assert np.array_equal(target(theta), prior.score(theta))

    def test_pooled_target_sums_loss_scores(self):
        prior = GaussianPrior(0.0, 10.0)
        l1, l2 = gaussian_loss(1.0, 1.0), gaussian_loss(-1.0, 2.0)
        target = pooled_target((l1, l2), alpha=2.0, prior=prior)
        theta = np.array([[0.3], [-0.7]])
        want = prior.score(theta) + l1.neg_loss_grad(theta, 2.0) + l2.neg_loss_grad(theta, 2.0)
        assert np.max(np.abs(target(theta) - want)) < 1e-14

    def test_retrain_federated_rejects_empty_retained_set(self):
        config = ProtocolConfig(prior=UniformPrior(-1.0, 1.0))
        server, agents = initialize_states({}, config, 6, seed=2)
        assert agents == {}
        with pytest.raises(ProtocolError, match="no eligible agents"):
            schedule(config, 0, agents.keys())

    def test_centralized_requires_prior(self):
        server = ServerState(global_particles=np.zeros((3, 1)))
        with pytest.raises(ProtocolError):
            centralized_round(server, (), ProtocolConfig())

"""Tests for the parameter-server protocol: rounds, schedules, retraining."""

import dataclasses

import numpy as np
import pytest

from steinfed.federation import (
    STREAM_LEARN,
    STREAM_UNLEARN,
    Distillation,
    ParticleSet,
    ProtocolConfig,
    ProtocolError,
    centralized_round,
    distill_target_grad,
    init_global_particles,
    init_local_particles,
    initialize_states,
    learning_round,
    pooled_target,
    schedule,
    settle,
    tilted_grad,
    unlearning_round,
)
from steinfed.kernels import kde_log_density_grad
from steinfed.models import (
    GaussianMixtureLoss,
    GaussianPrior,
    MixtureComponent,
    SoftmaxHeadLoss,
    UniformPrior,
)
from steinfed.svgd import run_svgd
from helpers import eager_round


def gaussian_loss(mean, variance):
    return GaussianMixtureLoss([MixtureComponent(1.0, np.array([mean]), np.array([variance]))])


def two_agent_setup(n=12, seed=0):
    prior = UniformPrior(-10.0, 10.0)
    losses = {1: gaussian_loss(1.0, 4.0), 2: gaussian_loss(-2.0, 1.0)}
    config = ProtocolConfig(update_steps=3, distill_steps=3, epsilon=0.2,
                            epsilon_local=0.2, prior=prior)
    server, agents = initialize_states(losses, prior, (n, 1), seed)
    return prior, losses, config, server, agents


class TestInitialization:
    def test_global_particles_use_dedicated_stream(self):
        prior = UniformPrior(-10.0, 10.0)
        got = init_global_particles(prior, (6, 1), seed=42)
        want = prior.sample(np.random.default_rng([42, 0]), (6, 1))
        assert np.array_equal(got, want)

    def test_local_streams_split_by_agent_and_phase(self):
        prior = UniformPrior(-10.0, 10.0)
        a1 = init_local_particles(prior, (5, 1), seed=7, agent_id=1)
        a2 = init_local_particles(prior, (5, 1), seed=7, agent_id=2)
        a1u = init_local_particles(prior, (5, 1), seed=7, agent_id=1, stream=STREAM_UNLEARN)
        assert not np.array_equal(a1, a2)
        assert not np.array_equal(a1, a1u)
        assert np.array_equal(a1, prior.sample(np.random.default_rng([7, STREAM_LEARN, 1]),
                                               (5, 1)))
        assert np.array_equal(a1u, prior.sample(np.random.default_rng([7, STREAM_UNLEARN, 1]),
                                                (5, 1)))

    def test_initialize_states_draws_each_agent_stream(self):
        prior, _, _, server, agents = two_agent_setup(seed=5)
        assert np.array_equal(server.particles, init_global_particles(prior, (12, 1), seed=5))
        assert server.acc is None
        assert list(agents) == [1, 2]
        for k, agent in agents.items():
            assert np.array_equal(agent.particles,
                                  init_local_particles(prior, (12, 1), seed=5, agent_id=k))
            assert agent.acc is None

    def test_state_validation(self):
        for shape in ((0, 1), (3,)):
            with pytest.raises(ValueError):
                ParticleSet(np.zeros(shape))
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
        _, losses, _, server, agents = two_agent_setup(seed=2)
        agent = agents[1]
        lam = ProtocolConfig().kde_lam
        g0 = server.particles.copy()
        l0 = agent.particles.copy()
        target = tilted_grad(server, agent, losses[1], ProtocolConfig(alpha=1.5), sign=1.0)
        theta = np.random.default_rng(3).uniform(-5, 5, size=(9, 1))
        want = (kde_log_density_grad(g0, theta, lam)
                - kde_log_density_grad(l0, theta, lam)
                + losses[1].neg_loss_grad(theta, 1.5))
        assert np.max(np.abs(target(theta) - want)) < 1e-12

    def test_unlearning_flips_only_the_loss_term(self):
        _, losses, _, server, agents = two_agent_setup(seed=4)
        agent = agents[1]
        lam = ProtocolConfig().kde_lam
        learn = tilted_grad(server, agent, losses[1], ProtocolConfig(alpha=1.0), sign=1.0)
        unlearn = tilted_grad(server, agent, losses[1], ProtocolConfig(alpha=1.0), sign=-1.0)
        theta = np.random.default_rng(5).uniform(-5, 5, size=(7, 1))
        kde_part = (kde_log_density_grad(server.particles, theta, lam)
                    - kde_log_density_grad(agent.particles, theta, lam))
        assert np.max(np.abs(learn(theta) + unlearn(theta) - 2.0 * kde_part)) < 1e-12

    def test_prior_score_added_when_requested(self):
        prior = GaussianPrior(0.0, 4.0)
        _, losses, _, server, agents = two_agent_setup(seed=6)
        agent = agents[1]
        base = tilted_grad(server, agent, losses[1], ProtocolConfig(alpha=1.0), sign=1.0)
        with_prior = tilted_grad(
            server, agent, losses[1],
            ProtocolConfig(alpha=1.0, prior=prior, include_prior_score=True), sign=1.0)
        theta = np.array([[2.0], [-3.0]])
        assert np.allclose(with_prior(theta) - base(theta), prior.score(theta), atol=1e-14)

    def test_targets_are_frozen_at_build_time(self):
        _, losses, _, server, agents = two_agent_setup(seed=7)
        agent = agents[1]
        target = tilted_grad(server, agent, losses[1], ProtocolConfig(alpha=1.0), sign=1.0)
        theta = np.array([[0.5], [-0.5]])
        before = target(theta)
        server.particles[:] = 9.0
        agent.particles[:] = -9.0
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
        _, losses, _, server, agents = two_agent_setup()
        cfg = dataclasses.replace(
            ProtocolConfig(prior=UniformPrior(-10.0, 10.0)), update_steps=0, distill_steps=0
        )
        new_server, pending = learning_round(server, agents[1], losses[1], cfg)
        new_agent = settle(pending, cfg)
        assert np.array_equal(new_server.particles, server.particles)
        assert new_server.particles is not server.particles
        assert np.array_equal(new_agent.particles, agents[1].particles)

    def test_round_does_not_mutate_inputs(self):
        _, losses, config, server, agents = two_agent_setup(seed=11)
        g_before = server.particles.copy()
        l1_before = agents[1].particles.copy()
        l2_before = agents[2].particles.copy()
        new_server, pending = learning_round(server, agents[1], losses[1], config)
        assert np.array_equal(server.particles, g_before)
        assert np.array_equal(agents[1].particles, l1_before)
        assert np.array_equal(agents[2].particles, l2_before)
        # the pending distillation holds the round's arrays, and the next round leaves them be
        assert pending.start is agents[1]
        assert pending.new_global is new_server.particles
        assert pending.old_global is server.particles
        held = [pending.start.particles, pending.new_global, pending.old_global]
        before = [a.copy() for a in held]
        learning_round(new_server, pending, losses[1], config)
        assert all(np.array_equal(a, b) for a, b in zip(held, before))

    def test_round_is_deterministic(self):
        _, losses, config, server, agents = two_agent_setup(seed=12)
        s1, a1 = learning_round(server, agents[2], losses[2], config)
        s2, a2 = learning_round(server, agents[2], losses[2], config)
        a1, a2 = settle(a1, config), settle(a2, config)
        assert np.array_equal(s1.particles, s2.particles)
        assert np.array_equal(a1.particles, a2.particles)

    def test_replayed_round_is_bit_identical(self):
        # run three rounds, snapshot inputs of the third, replay it alone
        _, losses, config, server, agents = two_agent_setup(seed=13)
        agents = dict(agents)
        inputs = None
        for r in range(3):
            k = schedule(config, r, agents.keys())
            if r == 2:
                inputs = (server, dataclasses.replace(agents[k]), k)
            server, agents[k] = learning_round(server, agents[k], losses[k], config)
        replay_server, replay_agent = learning_round(inputs[0], inputs[1], losses[inputs[2]],
                                                     config)
        assert np.array_equal(replay_server.particles, server.particles)
        assert np.array_equal(settle(replay_agent, config).particles,
                              settle(agents[inputs[2]], config).particles)

    def test_particles_stay_inside_uniform_support(self):
        prior = UniformPrior(-1.0, 1.0)
        losses = {1: gaussian_loss(5.0, 0.25)}  # pulls hard towards the boundary
        config = ProtocolConfig(update_steps=25, distill_steps=25, epsilon=1.0,
                                epsilon_local=1.0, prior=prior)
        server, agents = initialize_states(losses, prior, (10, 1), seed=3)
        new_server, pending = learning_round(server, agents[1], losses[1], config)
        new_agent = settle(pending, config)
        assert new_server.particles.max() <= 1.0
        assert new_server.particles.min() >= -1.0
        assert new_agent.particles.max() <= 1.0

    def test_fresh_adagrad_each_round_by_default(self):
        _, losses, config, server, agents = two_agent_setup(seed=14)
        new_server, pending = learning_round(server, agents[1], losses[1], config)
        new_agent = settle(pending, config)
        assert new_server.acc is None
        assert new_agent.acc is None

    def test_persisted_adagrad_changes_later_rounds(self):
        _, losses, _, _, _ = two_agent_setup(seed=15)
        prior = UniformPrior(-10.0, 10.0)
        base = ProtocolConfig(update_steps=5, distill_steps=5, epsilon=0.3,
                              epsilon_local=0.3, prior=prior)
        keep = dataclasses.replace(base, persist_adagrad=True)

        def two_rounds(cfg):
            server, agents = initialize_states(losses, prior, (10, 1), seed=15)
            for r in range(2):
                server, agents[1] = learning_round(server, agents[1], losses[1], cfg)
            return server

        fresh = two_rounds(base)
        persisted = two_rounds(keep)
        assert persisted.acc is not None
        assert not np.array_equal(fresh.particles, persisted.particles)

    def test_persisted_adagrad_carries_the_distillation_state(self):
        _, losses, _, _, _ = two_agent_setup(seed=15)
        config = ProtocolConfig(update_steps=5, distill_steps=5, epsilon=0.3, epsilon_local=0.2,
                                persist_adagrad=True, prior=UniformPrior(-10.0, 10.0))
        server, agents = initialize_states(losses, config.prior, (10, 1), seed=15)
        server, agent = learning_round(server, agents[1], losses[1], config)
        agent = settle(agent, config)
        assert agent.acc is not None
        assert not np.array_equal(agent.acc, server.acc)
        sums = [agent.acc.sum()]
        for _ in range(2):
            server, agent = learning_round(server, agent, losses[1], config)
            agent = settle(agent, config)
            sums.append(agent.acc.sum())
        assert sums[0] < sums[1] < sums[2]

    @pytest.mark.parametrize("play", [learning_round, unlearning_round])
    def test_persisted_adagrad_round_replays_bit_identically(self, play):
        # the carried accumulators are round inputs like the particles: a round
        # returns advanced copies and leaves its inputs as they were
        _, losses, _, _, _ = two_agent_setup(seed=17)
        config = ProtocolConfig(update_steps=4, distill_steps=4, epsilon=0.3, epsilon_local=0.2,
                                persist_adagrad=True, prior=UniformPrior(-10.0, 10.0))
        server, agents = initialize_states(losses, config.prior, (10, 1), seed=17)
        server, agent = play(server, agents[1], losses[1], config)
        agent = settle(agent, config)

        def fields(server, agent):
            agent = settle(agent, config)
            return server.particles, server.acc, agent.particles, agent.acc

        before = [a.copy() for a in fields(server, agent)]
        first = fields(*play(server, agent, losses[1], config))
        second = fields(*play(server, agent, losses[1], config))
        assert all(np.array_equal(a, b) for a, b in zip(fields(server, agent), before))
        assert [a.tobytes() for a in first] == [a.tobytes() for a in second]

    def test_single_agent_matching_locals_reduces_to_plain_transport(self):
        # when the local set equals the global set the two density scores
        # cancel exactly, so the server update must match direct transport
        # on the bare loss score
        loss = gaussian_loss(0.5, 2.0)
        rng = np.random.default_rng(16)
        start = rng.uniform(-3, 3, size=(9, 1))
        config = ProtocolConfig(update_steps=6, distill_steps=0, epsilon=0.1,
                                prior=GaussianPrior(0.0, 100.0))
        new_server, _ = learning_round(ParticleSet(start), ParticleSet(start.copy()), loss, config)
        direct, _ = run_svgd(start, lambda t: loss.neg_loss_grad(t, config.alpha),
                             6, 0.1, config.fudge)
        assert np.array_equal(new_server.particles, direct)


def three_agent_case(shape):
    """Three agents' losses and a protocol config at the mixture's or desk's particle shape."""
    if shape == "mixture":
        losses = {1: gaussian_loss(1.0, 4.0), 2: gaussian_loss(-3.0, 1.0),
                  3: gaussian_loss(3.0, 2.0)}
        return (100, 1), losses, ProtocolConfig(update_steps=4, distill_steps=6, epsilon=0.1,
                                                epsilon_local=0.2, prior=UniformPrior(-10.0, 10.0))
    rng = np.random.default_rng(29)  # desk: 30 softmax heads over 25 features and 4 classes
    losses = {k: SoftmaxHeadLoss(rng.standard_normal((60, 25)), rng.integers(0, 4, 60), 4)
              for k in (1, 2, 3)}
    return (30, 104), losses, ProtocolConfig(update_steps=3, distill_steps=5, epsilon=0.01,
                                             epsilon_local=0.05, kde_lam=10.0,
                                             prior=GaussianPrior(0.0, 10.0))


@pytest.mark.parametrize("persist", [False, True], ids=["fresh", "persist"])
@pytest.mark.parametrize("play,sign", [(learning_round, 1.0), (unlearning_round, -1.0)],
                         ids=["learn", "unlearn"])
@pytest.mark.parametrize("shape", ["mixture", "desk"])
def test_deferred_distillation_matches_the_eager_round(shape, play, sign, persist):
    # A revisiting sequence: agents 1 and 2 settle a pending distillation, and
    # agent 3's is left pending at the end.
    shape_nd, losses, config = three_agent_case(shape)
    config = dataclasses.replace(config, schedule="fixed_sequence", sequence=(1, 2, 1, 3, 2),
                                 persist_adagrad=persist)
    server, agents = initialize_states(losses, config.prior, shape_nd, seed=29)
    eager_server, eager_agents = server, dict(agents)

    def fields(particle_set):  # the bytes of its particles and AdaGrad accumulator
        acc = particle_set.acc
        return particle_set.particles.tobytes(), None if acc is None else acc.tobytes()

    for r in range(len(config.sequence)):
        k = schedule(config, r, agents)
        server, pending = play(server, agents[k], losses[k], config)
        agents = {**agents, k: pending}
        eager_server, eager_agents[k] = eager_round(eager_server, eager_agents[k], losses[k],
                                                    config, sign)
        assert fields(server) == fields(eager_server)
        assert (server.acc is not None) == persist
        for j, agent in agents.items():
            assert fields(settle(agent, config)) == fields(eager_agents[j])
    assert isinstance(agents[3], Distillation)


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
        server, agents = initialize_states(losses, prior, (20, 1), seed=1)
        for _ in range(15):
            server, agents[1] = learning_round(server, agents[1], losses[1], config)
        learned_loss = float(np.mean(losses[1].loss(server.particles)))

        fresh = init_local_particles(prior, (20, 1), seed=1, agent_id=1, stream=STREAM_UNLEARN)
        agent = ParticleSet(fresh)
        for _ in range(10):
            server, agent = unlearning_round(server, agent, losses[1], config)
        unlearned_loss = float(np.mean(losses[1].loss(server.particles)))
        assert unlearned_loss > learned_loss


class TestRetraining:
    def test_pooled_target_without_losses_is_prior_score(self):
        prior = GaussianPrior(1.0, 2.0)
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
        server, agents = initialize_states((), config.prior, (6, 1), seed=2)
        assert agents == {}
        with pytest.raises(ProtocolError, match="no eligible agents"):
            schedule(config, 0, agents.keys())

    def test_centralized_requires_prior(self):
        with pytest.raises(ProtocolError):
            centralized_round(ParticleSet(np.zeros((3, 1))), (), ProtocolConfig())

"""The one-buffer kernels against the allocating expressions they replaced.

Every hot-path expression that now writes into an array it owns must give
the same bits as before, must leave its inputs alone, and must not write
into an array that a caller handed it read-only.  The classification build,
which makes floats only for the rows of the pretraining pool, is checked
the same way against the full-matrix build, and its traced memory peak is
bounded.
"""

import dataclasses
import json
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import steinfed.experiments as experiments
from helpers import (
    adagrad_step_allocating,
    averaged_probabilities_unblocked,
    distill_target_allocating,
    feature_map_allocating,
    grid_kl_allocating,
    head_loss_unblocked,
    head_neg_loss_grad_allocating,
    kde_log_density_grad_allocating,
    load_idx_images_allocating,
    make_synthetic_allocating,
    make_synthetic_full,
    median_bandwidth_sorted,
    pairwise_sq_dists_allocating,
    partition_allocating,
    pretrain_allocating,
    svgd_direction_allocating,
    tilted_target_allocating,
)
from steinfed.blocks import blocks
from steinfed.data import (
    ROW_BLOCK,
    choose_rows,
    idx_source,
    load_idx_labels,
    make_synthetic_pair,
    pool_shards,
    synthetic_source,
)
from steinfed.experiments import (
    MixtureProblem,
    _classification_problem,
    build_problem,
    config_from_dict,
    run_experiment,
)
from steinfed.federation import (
    ParticleSet,
    ProtocolConfig,
    distill_target_grad,
    learning_round,
    settle,
    tilted_grad,
)
from steinfed.kernels import (
    kde_log_density,
    kde_log_density_grad,
    median_bandwidth,
    pairwise_sq_dists,
)
from steinfed.metrics import GridConfig, GridError, GridReference, grid_kl
from steinfed.models import (
    EVAL_ROWS,
    HEAD_COLS,
    HEAD_ROWS,
    FeatureMap,
    FeatureMapConfig,
    GaussianMixtureLoss,
    GaussianPrior,
    MixtureComponent,
    SoftmaxHeadLoss,
    averaged_class_probabilities,
    pretrain_feature_map,
)
from steinfed.svgd import adagrad_step, svgd_direction
from test_data import write_images, write_labels
from test_experiments import classification_dict, mixture_dict

# (queries, particles, dimension): the mixture, its KL grid, desk and wide.
KERNEL_SHAPES = [(100, 100, 1), (2001, 100, 1), (30, 30, 104), (100, 100, 1010)]
# (particles, dimension) of the transport update and the tilted targets.
PARTICLE_SHAPES = [(100, 1), (30, 104), (100, 1010)]
# Dimension -> (features, classes) of a softmax head with (f + 1) * C = d.
HEAD_LAYOUTS = {104: (25, 4), 1010: (100, 10)}
# (rows, particles, dimension) of a head evaluation: desk's test set, one full row block and
# one partial; wide's shards and test set; the headline's 10 000 test points.
EVAL_SHAPES = [(400, 30, 104), (1000, 100, 1010), (2000, 100, 1010), (10_000, 100, 1010)]
LAM = 0.55


def frozen(arr):
    """A read-only copy, so that a write into an input raises."""
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def points(rng, n, d, scale=1.5):
    return frozen(rng.standard_normal((n, d)) * scale)


def kernel_inputs(q, n, d, seed=0):
    """Particles and queries; the 2001-query case is the KL grid itself."""
    rng = np.random.default_rng(seed)
    theta = points(rng, n, d)
    query = frozen(GridConfig().linspace()[:, None]) if q == 2001 else points(rng, q, d, 2.0)
    return theta, query


def head_loss(d, seed=0, examples=60):
    f, c = HEAD_LAYOUTS[d]
    rng = np.random.default_rng(seed)
    return SoftmaxHeadLoss(rng.standard_normal((examples, f)), rng.integers(0, c, examples), c)


def mixture_loss():
    return GaussianMixtureLoss([MixtureComponent(0.5, -2.0, 1.0), MixtureComponent(0.5, 3.0, 2.0)])


def loss_for(d):
    return mixture_loss() if d == 1 else head_loss(d)


def assert_bits(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert np.array_equal(new, old), f"max difference {np.max(np.abs(new - old))}"


# --- bit-equality with the allocating forms ------------------------------------


@pytest.mark.parametrize("q, n, d", KERNEL_SHAPES)
class TestKernels:
    # ``of_particles`` False takes the queries as the particles: a second count and spread
    @pytest.mark.parametrize("of_particles", [True, False])
    def test_pairwise_sq_dists(self, q, n, d, of_particles):
        theta, query = kernel_inputs(q, n, d)
        x = theta if of_particles else query
        assert_bits(pairwise_sq_dists(x), pairwise_sq_dists_allocating(x))

    def test_kde_log_density_grad(self, q, n, d):
        theta, query = kernel_inputs(q, n, d)
        assert_bits(kde_log_density_grad(theta, query, LAM),
                    kde_log_density_grad_allocating(theta, query, LAM))

    def test_kde_log_density_grad_far_rows(self, q, n, d):
        # every kernel weight of each third query underflows, so its row is recomputed
        theta, query = kernel_inputs(q, n, d)
        query = frozen(query + np.where(np.arange(q) % 3 == 1, 1e3, 0.0)[:, None])
        assert_bits(kde_log_density_grad(theta, query, LAM),
                    kde_log_density_grad_allocating(theta, query, LAM))


# The particle shapes, and 7 particles: an odd count of pairs, whose median is one value.
@pytest.mark.parametrize("n, d", [*PARTICLE_SHAPES, (7, 3)])
def test_median_bandwidth(n, d):
    theta = points(np.random.default_rng(10), n, d)
    sq_dists = frozen(pairwise_sq_dists(theta))
    assert median_bandwidth(sq_dists) == median_bandwidth_sorted(sq_dists)


@pytest.mark.parametrize("n, d", PARTICLE_SHAPES)
class TestTransport:
    @pytest.mark.parametrize("fixed", [None, 0.7])
    def test_svgd_direction(self, n, d, fixed):
        rng = np.random.default_rng(1)
        theta, grads = points(rng, n, d), points(rng, n, d)
        h = fixed if fixed is not None else median_bandwidth(
            pairwise_sq_dists_allocating(theta))
        assert_bits(svgd_direction(theta, lambda t: grads, fixed),
                    svgd_direction_allocating(theta, grads, h))

    def test_adagrad_steps(self, n, d):
        rng = np.random.default_rng(2)
        theta = points(rng, n, d)
        acc, ref_acc = np.zeros((n, d)), np.zeros((n, d))
        old = theta
        for _ in range(3):
            phi = points(rng, n, d, 4.0)
            theta = adagrad_step(acc, theta, phi, 0.3, 1e-6)
            ref_acc, old = adagrad_step_allocating(ref_acc, 0.3, 1e-6, old, phi)
            assert_bits(theta, old)
            assert_bits(acc, ref_acc)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("with_prior", [False, True])
    def test_tilted_target(self, n, d, sign, with_prior):
        rng = np.random.default_rng(3)
        theta, global_ref, local_ref = points(rng, n, d), points(rng, n, d), points(rng, n, d)
        loss, prior = loss_for(d), GaussianPrior(0.5, 4.0)
        config = ProtocolConfig(alpha=0.8, kde_lam=LAM, include_prior_score=with_prior, prior=prior)
        target = tilted_grad(ParticleSet(global_ref), ParticleSet(local_ref), loss, config, sign)
        assert_bits(target(theta), tilted_target_allocating(
            global_ref, local_ref, loss, 0.8, sign, prior if with_prior else None, LAM, theta))

    def test_distill_target(self, n, d):
        rng = np.random.default_rng(4)
        theta, refs = points(rng, n, d), [points(rng, n, d) for _ in range(3)]
        assert_bits(distill_target_grad(*refs, LAM)(theta),
                    distill_target_allocating(*refs, LAM, theta))


class TestModels:
    @pytest.mark.parametrize("d", sorted(HEAD_LAYOUTS))
    @pytest.mark.parametrize("n", [1, 30, 100])
    def test_head_neg_loss_grad(self, d, n):
        loss = head_loss(d)
        theta = points(np.random.default_rng(5), n, d, 0.3)
        assert_bits(loss.neg_loss_grad(theta, 0.8),
                    head_neg_loss_grad_allocating(loss._design, loss._onehot, loss.num_classes,
                                                  theta, 0.8))

    @pytest.mark.parametrize("rows", [1000, 2000])
    def test_head_neg_loss_grad_in_blocks(self, rows):
        # wide's shards and 100 particles: row blocks for the residual, column blocks for the GEMM.
        loss = head_loss(1010, examples=rows)
        assert len(blocks(rows, HEAD_ROWS)) >= 2 and len(blocks(101, HEAD_COLS)) >= 2
        theta = points(np.random.default_rng(5), 100, 1010, 0.3)
        assert_bits(loss.neg_loss_grad(theta, 0.8),
                    head_neg_loss_grad_allocating(loss._design, loss._onehot, loss.num_classes,
                                                  theta, 0.8))

    @pytest.mark.parametrize("n, inputs, hidden", [(30, 104, 25), (100, 784, 100), (5000, 784, 100)])
    def test_feature_map(self, n, inputs, hidden):
        rng = np.random.default_rng(6)
        weights, biases, x = points(rng, inputs, hidden), frozen(rng.standard_normal(hidden)), \
            points(rng, n, inputs)
        assert_bits(FeatureMap(weights, biases)(x), feature_map_allocating(weights, biases, x))

    # The last case is in blocks: two of rows, four of wide's 784 input columns.
    @pytest.mark.parametrize("n, inputs, hidden, classes",
                             [(300, 20, 16, 4), (500, 784, 100, 10), (5000, 784, 100, 10)])
    def test_three_pretraining_epochs(self, n, inputs, hidden, classes):
        rng = np.random.default_rng(7)
        x, y = points(rng, n, inputs), rng.integers(0, classes, n)
        fmap = pretrain_feature_map(x, y, classes, FeatureMapConfig(hidden, 3, 0.1),
                                    np.random.default_rng(8))
        w1, b1 = pretrain_allocating(x, y, classes, hidden, 3, 0.1, np.random.default_rng(8))
        assert_bits(fmap.weights, w1)
        assert_bits(fmap.biases, b1)

    @pytest.mark.parametrize("rows, n, d", EVAL_SHAPES)
    def test_evaluation_in_row_blocks(self, rows, n, d):
        f, c = HEAD_LAYOUTS[d]
        rng = np.random.default_rng(9)
        features = frozen(np.maximum(rng.standard_normal((rows, f)), 0.0))
        labels = rng.integers(0, c, rows)
        theta = points(rng, n, d, 0.3)
        assert_bits(averaged_class_probabilities(theta, features, c),
                    averaged_probabilities_unblocked(theta, features, c))
        loss = SoftmaxHeadLoss(features, labels, c)
        assert_bits(loss.loss(theta), head_loss_unblocked(loss._design, labels, c, theta))


def test_grid_kl_with_and_without_reference():
    grid = GridConfig()
    rng = np.random.default_rng(9)
    particles = points(rng, 100, 1)
    log_q = lambda x: kde_log_density(particles, x[:, None], LAM)
    log_p = lambda x: mixture_loss().log_mixture_density(x[:, None])
    old = grid_kl_allocating(log_q, log_p, grid.linspace())
    assert grid_kl(log_q, log_p, grid) == old
    assert grid_kl(log_q, GridReference.of(log_p, grid), grid) == old


# --- aliasing -------------------------------------------------------------------


def test_inputs_keep_their_bytes():
    """Writable inputs come back unchanged from every rewritten function."""
    rng = np.random.default_rng(10)
    theta, query, phi = (rng.standard_normal((30, 104)) for _ in range(3))
    x = rng.standard_normal((30, 40))
    weights, biases = rng.standard_normal((40, 8)), rng.standard_normal(8)
    labels = rng.integers(0, 4, 30)
    loss = head_loss(104)
    inputs = [theta, query, phi, x, weights, biases, loss._design, loss._onehot]
    before = [a.tobytes() for a in inputs]
    config = ProtocolConfig(kde_lam=LAM, include_prior_score=True,
                            prior=GaussianPrior(0.0, 4.0))
    pairwise_sq_dists(theta)
    kde_log_density(theta, query, LAM)
    kde_log_density(theta[:, :1], query[:, :1], LAM)
    kde_log_density_grad(theta, query, LAM)
    kde_log_density_grad(theta[:, :1], query[:, :1], LAM)
    svgd_direction(theta, lambda t: phi)
    adagrad_step(np.zeros_like(theta), theta, phi, 0.05, 1e-6)
    tilted_grad(ParticleSet(theta), ParticleSet(query), loss, config, -1.0)(phi)
    distill_target_grad(theta, query, phi, LAM)(query)
    loss.neg_loss_grad(theta)
    FeatureMap(weights, biases)(x)
    pretrain_feature_map(x, labels, 4, FeatureMapConfig(8, 3, 0.1), np.random.default_rng(0))
    assert [a.tobytes() for a in inputs] == before


class _ReadOnlyScores:
    """Wraps a loss or prior so that its score comes back read-only."""

    def __init__(self, inner):
        self.inner = inner

    def neg_loss_grad(self, theta, alpha=1.0):
        return frozen(self.inner.neg_loss_grad(theta, alpha))

    def score(self, theta):
        return frozen(self.inner.score(theta))


class TestReadOnlyOperands:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.theta, self.global_ref, self.local_ref = (points(rng, 30, 104) for _ in range(3))
        self.loss, self.prior = head_loss(104), GaussianPrior(0.5, 4.0)

    def expected(self, prior):
        return tilted_target_allocating(self.global_ref, self.local_ref, self.loss, 1.0, -1.0,
                                        prior, LAM, self.theta)

    def test_tilted_grad_with_read_only_loss_gradient(self):
        config = ProtocolConfig(kde_lam=LAM, prior=self.prior)
        target = tilted_grad(ParticleSet(self.global_ref), ParticleSet(self.local_ref),
                             _ReadOnlyScores(self.loss), config, -1.0)
        assert_bits(target(self.theta), self.expected(None))

    def test_tilted_grad_with_read_only_prior_score(self):
        config = ProtocolConfig(kde_lam=LAM, include_prior_score=True,
                                prior=_ReadOnlyScores(self.prior))
        target = tilted_grad(ParticleSet(self.global_ref), ParticleSet(self.local_ref), self.loss,
                             config, -1.0)
        assert_bits(target(self.theta), self.expected(self.prior))

    def test_distill_target_with_read_only_references(self):
        target = distill_target_grad(self.global_ref, self.local_ref, self.theta, LAM)
        assert_bits(target(self.local_ref),
                    distill_target_allocating(self.global_ref, self.local_ref, self.theta, LAM,
                                              self.local_ref))

    def test_targets_on_the_cached_classification_problem(self, tmp_path):
        cfg = config_from_dict(classification_dict(tmp_path))
        prior, loss = cfg.experiment.prior, build_problem(cfg).losses[1]
        assert not loss._design.flags.writeable
        rng = np.random.default_rng(12)
        theta, global_ref, local_ref = (points(rng, 6, loss.dim, 0.3) for _ in range(3))
        config = ProtocolConfig(alpha=0.8, kde_lam=LAM, include_prior_score=True,
                                prior=prior)
        for sign in (1.0, -1.0):
            target = tilted_grad(ParticleSet(global_ref), ParticleSet(local_ref), loss, config,
                                 sign)
            assert_bits(target(theta), tilted_target_allocating(
                global_ref, local_ref, loss, 0.8, sign, prior, LAM, theta))
        server, agent = learning_round(ParticleSet(global_ref), ParticleSet(local_ref), loss,
                                       config)
        assert np.all(np.isfinite(server.particles))
        assert np.all(np.isfinite(settle(agent, config).particles))


# --- the mixture reference density ---------------------------------------------


@pytest.mark.parametrize("method", ["dsvgd", "pvi"])
def test_mixture_reference_is_built_once_per_phase(tmp_path, monkeypatch, method):
    calls = []
    original = MixtureProblem.reference_log_density

    def counted(self, prior, ids):
        calls.append(ids)
        return original(self, prior, ids)

    monkeypatch.setattr(MixtureProblem, "reference_log_density", counted)
    data = mixture_dict(tmp_path / "once")
    data["method"] = method
    data["pvi"] = {"local_iters": 3, "epsilon": 0.05, "mc_samples": 64}
    cfg = config_from_dict(data)
    once = {command: run_experiment(cfg, command) for command in ("learn", "unlearn")}
    assert calls == [(1, 2), (2,)]  # the learn phase's posterior, then the retained one

    evaluations = []

    def every_round(log_p, grid):
        """A stand-in for ``GridReference.of``: ``grid_kl`` evaluates and normalizes p each round."""

        def log_ref(x):
            evaluations.append(len(x))
            return log_p(x)

        return log_ref

    monkeypatch.setattr(experiments, "GridReference", types.SimpleNamespace(of=every_round))
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "every"))
    every = {command: run_experiment(cfg, command) for command in ("learn", "unlearn")}
    assert evaluations == [cfg.grid.points] * sum(len(res.records) for res in every.values())
    for command in once:
        assert [r.kl for r in once[command].records] == [r.kl for r in every[command].records]


def test_grid_reference_is_read_only_and_tied_to_its_grid():
    log_p = lambda x: -0.5 * x * x
    ref = GridReference.of(log_p, GridConfig())
    assert not ref.log_density.flags.writeable
    with pytest.raises(GridError, match="normalized on"):
        grid_kl(log_p, ref, GridConfig(lo=-8.0, hi=8.0))


# --- the classification build -----------------------------------------------------
# The build chooses the shards' rows from the labels, then makes floats for those rows only.

# (classes, dimension, training rows, agents, examples per agent): desk and wide.
BUILD_SHAPES = {"desk": (4, 10, 400, 2, 200), "wide": (10, 784, 10000, 5, 2000)}
# Also a pool that is a strict subset of the training rows, and row counts that the noise
# block divides and does not divide.
POOL_SHAPES = {**BUILD_SHAPES, "subset": (10, 30, 3000, 5, 200),
               "whole_blocks": (4, 12, 4 * ROW_BLOCK, 2, 100),
               "ragged": (4, 12, 2 * ROW_BLOCK + 7, 2, 100)}


def build_case(name, out_dir):
    """The shipped desk config, the test config (noise 0.5), or wide's shapes at one epoch."""
    if name == "desk":
        path = Path(__file__).resolve().parent.parent / "configs" / "classification_desk.json"
        data = json.loads(path.read_text())
        data["out_dir"] = str(out_dir)
        return data
    data = classification_dict(out_dir)
    if name == "wide":
        data["experiment"].update(
            synthetic={"num_classes": 10, "dim": 784, "n_train": 10000, "n_test": 1000,
                       "center_scale": 1.0, "noise": 1.0},
            examples_per_agent=2000,
            feature_map={"hidden_units": 100, "epochs": 1, "step_size": 0.1},
        )
        data["forget_agents"] = [1]
    return data


@pytest.fixture
def empty_problem_cache():
    _classification_problem.cache_clear()
    yield
    _classification_problem.cache_clear()


class TestClassificationBuild:
    @pytest.mark.parametrize("noise", [1.0, 0.5])
    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_make_synthetic(self, shape, noise):
        classes, dim, rows, _, _ = POOL_SHAPES[shape]
        got = make_synthetic_pair(classes, dim, rows, rows, seed=3, center_scale=4.0,
                                  noise=noise)[1].take()
        features, labels = make_synthetic_allocating(classes, dim, rows, 3, 4.0, noise, 2)
        assert_bits(got.features, features)
        assert np.array_equal(got.labels, labels)
        full_features, full_labels = make_synthetic_full(classes, dim, rows, 3, 4.0, noise, 2)
        assert_bits(got.features, full_features)
        assert np.array_equal(got.labels, full_labels)

    @pytest.mark.parametrize("noise", [1.0, 0.5])
    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_labels_first_pool(self, shape, noise):
        classes, dim, rows, agents, per_agent = POOL_SHAPES[shape]
        features, labels = make_synthetic_full(classes, dim, rows, 4, 2.0, noise, 1)
        _, old_features, old_labels = partition_allocating(
            features, labels, agents, 2, per_agent, 4)
        del features
        source = synthetic_source(classes, dim, rows, seed=4, center_scale=2.0, noise=noise)
        assert np.array_equal(source.labels, labels)
        pool, shards = pool_shards(source, agents, 2, per_agent, 4)
        assert_bits(pool.features, old_features)
        assert np.array_equal(pool.labels, old_labels)
        for idx, shard in enumerate(shards):
            part = slice(idx * per_agent, (idx + 1) * per_agent)
            assert shard.features.base is pool.features
            assert_bits(shard.features, old_features[part])

    def test_taking_rows_again_draws_them_again(self):
        source = synthetic_source(4, 12, 3 * ROW_BLOCK, seed=5)
        rows = np.array([3 * ROW_BLOCK - 1, 0, ROW_BLOCK, 17])
        first = source.take(rows)
        assert_bits(source.take(rows).features, first.features)
        assert_bits(source.take().features[rows], first.features)
        assert np.array_equal(first.labels, source.labels[rows])

    def test_idx_pool(self, tmp_path):
        rng = np.random.default_rng(13)
        images, labels = tmp_path / "images", tmp_path / "labels"
        write_images(images, rng.integers(0, 256, (600, 28, 28)))
        write_labels(labels, rng.permutation(np.arange(600) % 10))
        rows, _ = choose_rows(load_idx_labels(labels), 10, 5, 2, 40, seed=4)
        assert rows.size == 200
        pool, _ = pool_shards(idx_source(images, labels), 5, 2, 40, seed=4)
        assert_bits(pool.features, idx_source(images, labels).take().features[rows])
        assert_bits(pool.features, load_idx_images_allocating(images).reshape(600, -1)[rows])
        assert np.array_equal(pool.labels, load_idx_labels(labels)[rows])

    @pytest.mark.parametrize("shape", BUILD_SHAPES)
    def test_pool_and_shards(self, shape):
        classes, dim, rows, agents, per_agent = BUILD_SHAPES[shape]
        source = synthetic_source(classes, dim, rows, seed=4)
        dataset = source.take()
        old_shards, old_features, old_labels = partition_allocating(
            dataset.features, dataset.labels, agents, 2, per_agent, 4)
        del dataset
        pool, shards = pool_shards(source, agents, 2, per_agent, 4)
        assert_bits(pool.features, old_features)
        assert np.array_equal(pool.labels, old_labels)
        for shard, (features, labels) in zip(shards, old_shards):
            assert_bits(shard.features, features)
            assert np.array_equal(shard.labels, labels)

    @pytest.mark.parametrize("case", ["desk", "noise", "wide"])
    def test_built_problem(self, tmp_path, monkeypatch, empty_problem_cache, case):
        cfg = config_from_dict(build_case(case, tmp_path))
        spec, seed = cfg.experiment, cfg.seed
        syn, classes = spec.synthetic, spec.num_classes
        train = make_synthetic_allocating(classes, syn.dim, syn.n_train, seed, syn.center_scale,
                                          syn.noise, 1)
        test_features, _ = make_synthetic_allocating(classes, syn.dim, syn.n_test, seed,
                                                     syn.center_scale, syn.noise, 2)
        old_shards, pool_features, pool_labels = partition_allocating(
            *train, len(spec.agent_ids), spec.labels_per_agent, spec.examples_per_agent, seed)
        old_map = pretrain_feature_map(pool_features, pool_labels, classes, spec.feature_map,
                                       np.random.default_rng(seed))
        old_losses = [SoftmaxHeadLoss(old_map(x), y, classes) for x, y in old_shards]
        old_test = old_map(test_features)
        del train, old_shards, pool_features, pool_labels, test_features

        maps = []
        pretrain = experiments.pretrain_feature_map
        monkeypatch.setattr(experiments, "pretrain_feature_map",
                            lambda *args: maps.append(pretrain(*args)) or maps[-1])
        problem = build_problem(cfg)
        assert_bits(maps[0].weights, old_map.weights)
        assert_bits(maps[0].biases, old_map.biases)
        assert_bits(problem.test_features, old_test)
        assert sorted(problem.losses) == list(spec.agent_ids)
        for agent_id, old in zip(spec.agent_ids, old_losses):
            loss = problem.losses[agent_id]
            assert_bits(loss.features, old.features)
            assert_bits(loss._design, old._design)
            assert np.array_equal(loss.labels, old.labels)

    def test_shard_features_are_a_view_of_the_design(self, tmp_path, empty_problem_cache):
        for loss in build_problem(config_from_dict(build_case("desk", tmp_path))).losses.values():
            assert np.shares_memory(loss.features, loss._design)
            assert not loss.features.flags.writeable


def pool_build_bytes(pool_rows, dim, hidden, idx_bytes=0):
    """The pool's floats, pretraining's float and bool (n, h) buffers and the IDX files' bytes."""
    return pool_rows * dim * 8 + pool_rows * hidden * (8 + 1) + idx_bytes


class TestBuildMemory:
    """Traced peaks against the bytes of the float matrix that is read or drawn."""

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_classification_build(self, tmp_path, empty_problem_cache):
        data = classification_dict(tmp_path)
        data["experiment"].update(
            synthetic={"num_classes": 10, "dim": 300, "n_train": 4000, "n_test": 400,
                       "center_scale": 1.0, "noise": 1.0},
            examples_per_agent=800,
            feature_map={"hidden_units": 20, "epochs": 1, "step_size": 0.1},
        )
        cfg = config_from_dict(data)
        _, peak = self.traced_peak(lambda: build_problem(cfg))
        # The training matrix plus the pool that gathers all of its rows: 2x, and the rest.
        assert peak <= 2.5 * 4000 * 300 * 8

    def test_strict_subset_synthetic_build(self, tmp_path, empty_problem_cache):
        data = classification_dict(tmp_path)
        data["experiment"].update(
            synthetic={"num_classes": 10, "dim": 300, "n_train": 12000, "n_test": 400,
                       "center_scale": 1.0, "noise": 1.0},
            examples_per_agent=800,
            feature_map={"hidden_units": 20, "epochs": 1, "step_size": 0.1},
        )
        cfg = config_from_dict(data)
        _, peak = self.traced_peak(lambda: build_problem(cfg))
        # A third of the training rows are drawn as floats; the whole matrix would be 3x the pool.
        assert peak <= 1.5 * pool_build_bytes(5 * 800, 300, 20)

    def test_wide_build(self, tmp_path, empty_problem_cache):
        cfg = config_from_dict(build_case("wide", tmp_path))
        _, peak = self.traced_peak(lambda: build_problem(cfg))
        # 76 MB. A second (n, h) float buffer in pretraining, or each shard's features held
        # beside its design matrix, would add 8 MB.
        assert peak <= 1.1 * pool_build_bytes(5 * 2000, 784, 100)

    def test_evaluation_at_10000_points(self):
        rows, n, f, c = 10_000, 100, 100, 10
        rng = np.random.default_rng(16)
        features, labels = rng.standard_normal((rows, f)), rng.integers(0, c, rows)
        theta = rng.standard_normal((n, (f + 1) * c))
        loss = SoftmaxHeadLoss(features, labels, c)
        block = 4 * EVAL_ROWS * c * n * 8  # a few blocks' logits; all rows' would be 80 MB
        _, peak = self.traced_peak(lambda: averaged_class_probabilities(theta, features, c))
        assert peak <= block  # each block appends its own bias column, with two blocks in flight
        _, peak = self.traced_peak(lambda: loss.loss(theta))
        assert peak <= rows * n * 8 + block  # the per-row losses, averaged in one reduction

    def idx_build_peak(self, tmp_path, seed, n_train, n_test):
        """Traced peak of a build on random IDX files: 5 agents of 200 rows, 20 hidden units."""
        rng = np.random.default_rng(seed)
        files = {key: tmp_path / key for key in ("train_images", "train_labels",
                                                 "test_images", "test_labels")}
        for prefix, count in (("train", n_train), ("test", n_test)):
            write_images(files[f"{prefix}_images"],
                         rng.integers(0, 256, (count, 28, 28), dtype=np.uint8))
            write_labels(files[f"{prefix}_labels"], rng.permutation(np.arange(count) % 10))
        data = classification_dict(tmp_path / "runs")
        data["experiment"].update(
            source="idx",
            idx={**{key: str(path) for key, path in files.items()}, "num_classes": 10},
            examples_per_agent=200,
            feature_map={"hidden_units": 20, "epochs": 1, "step_size": 0.1},
        )
        cfg = config_from_dict(data)
        return self.traced_peak(lambda: build_problem(cfg))[1]

    def test_idx_build(self, tmp_path, empty_problem_cache):
        peak = self.idx_build_peak(tmp_path, 14, 3000, 500)
        # Floats for a third of the training images; the test images once the pool is let go.
        assert peak <= 1.5 * pool_build_bytes(5 * 200, 784, 20, idx_bytes=3500 * 784)

    def test_idx_build_leaves_the_image_file_unread(self, tmp_path, empty_problem_cache):
        # The training images outweigh the pool's floats threefold; only the taken rows are read.
        peak = self.idx_build_peak(tmp_path, 15, 24000, 200)
        assert peak <= 1.5 * pool_build_bytes(5 * 200, 784, 20)

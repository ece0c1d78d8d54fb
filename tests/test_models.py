"""Tests for priors, local losses, model averaging, and the feature map."""

import re

import numpy as np
import pytest
from scipy.special import softmax

from steinfed.kernels import kde_log_density, kde_log_density_grad
from steinfed.models import (
    CLAMP_MARGIN,
    FeatureMap,
    FeatureMapConfig,
    GaussianMixtureLoss,
    GaussianPrior,
    MixtureComponent,
    OutOfSupportError,
    SoftmaxHeadLoss,
    UniformPrior,
    averaged_class_probabilities,
    macro_accuracy,
    per_class_accuracy,
    pretrain_feature_map,
)
from steinfed.pvi import gaussian_log_density_moments

from helpers import (
    GaussianPerCoordinate,
    UniformPerCoordinate,
    fd_gradient,
    head_logits_einsum,
    head_loss_einsum,
    head_neg_loss_grad_einsum,
    max_relative_deviation,
    relative_error,
)


class TestUniformPrior:
    def test_log_density_inside_and_outside(self):
        prior = UniformPrior(-10.0, 10.0)
        assert np.isclose(prior.log_density(np.array([[0.0]]))[0], -np.log(20.0))
        assert np.isclose(prior.log_density(np.array([[10.0]]))[0], -np.log(20.0))
        assert prior.log_density(np.array([[10.0001]]))[0] == -np.inf
        batch = prior.log_density(np.array([[0.0], [-11.0]]))
        assert np.isclose(batch[0], -np.log(20.0))
        assert batch[1] == -np.inf

    def test_density_integrates_to_one(self):
        prior = UniformPrior(-2.0, 3.0)
        grid = np.linspace(-4, 5, 2001)
        dens = np.exp(prior.log_density(grid[:, None]))
        assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-2

    def test_score_zero_inside(self):
        prior = UniformPrior(-1.0, 5.0)
        assert np.array_equal(prior.score(np.array([[0.5, 2.0]])), np.zeros((1, 2)))

    def test_score_raises_outside_open_support(self):
        prior = UniformPrior(-1.0, 1.0)
        with pytest.raises(OutOfSupportError):
            prior.score(np.array([[1.0]]))
        with pytest.raises(OutOfSupportError):
            prior.score(np.array([[0.0], [2.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0, 1.0])
    def test_score_names_the_first_point_outside(self, value):
        prior = UniformPrior(-1.0, 1.0)
        points = np.array([[0.0, 0.5], [0.5, value], [value, 0.0]])
        with pytest.raises(OutOfSupportError,
                           match=re.escape(f"point {points[1]} is outside the prior support")):
            prior.score(points)

    def test_score_refuses_nan_with_its_text(self):
        with pytest.raises(OutOfSupportError,
                           match=r"^point \[nan\] is outside the prior support$"):
            UniformPrior(-10.0, 10.0).score(np.array([[0.0], [np.nan]]))

    def test_clamp_pulls_back_inside(self):
        prior = UniformPrior(-10.0, 10.0)
        clamped = prior.clamp(np.array([[15.0], [-15.0], [3.0]]))
        assert clamped[0, 0] == 10.0 - CLAMP_MARGIN
        assert clamped[1, 0] == -10.0 + CLAMP_MARGIN
        assert clamped[2, 0] == 3.0
        with pytest.raises(OutOfSupportError):
            prior.score(np.array([[15.0]]))
        prior.score(prior.clamp(np.array([[15.0]])))

    def test_samples_land_inside(self):
        prior = UniformPrior(-5.0, -4.0)
        draws = prior.sample(np.random.default_rng(3), (200, 2))
        assert draws.shape == (200, 2)
        assert np.all(draws >= prior.lo)
        assert np.all(draws <= prior.hi)

    def test_width_comes_from_the_rows(self):
        prior = UniformPrior(0.0, 2.0)
        assert prior.sample(np.random.default_rng(4), (5, 3)).shape == (5, 3)
        assert np.array_equal(prior.log_density(np.ones((2, 3))), np.full(2, -3.0 * np.log(2.0)))
        assert np.array_equal(prior.score(np.ones((2, 3))), np.zeros((2, 3)))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match=r"^lo must be below hi, got \[1.0, 1.0\]$"):
            UniformPrior(1.0, 1.0)


class TestGaussianPrior:
    def test_standard_normal_log_density(self):
        prior = GaussianPrior(0.0, 1.0)
        assert np.isclose(prior.log_density(np.array([[0.0]]))[0], -0.5 * np.log(2 * np.pi))

    def test_score_hand_value_and_fd(self):
        prior = GaussianPrior(1.0, 4.0)
        x = np.array([[3.0, -1.0]])
        assert np.allclose(prior.score(x), np.array([[(1.0 - 3.0) / 4.0, (1.0 + 1.0) / 4.0]]))
        rng = np.random.default_rng(5)
        for _ in range(100):
            pt = rng.normal(size=2)
            fd = fd_gradient(lambda z: prior.log_density(z[None])[0], pt)
            assert relative_error(prior.score(pt[None])[0], fd) < 1e-5

    def test_sample_moments(self):
        prior = GaussianPrior(2.0, 9.0)
        draws = prior.sample(np.random.default_rng(0), (20000, 1))
        assert abs(draws.mean() - 2.0) < 0.1
        assert abs(draws.var() - 9.0) < 0.3

    def test_clamp_is_identity(self):
        prior = GaussianPrior(0.0, 1.0)
        pts = np.array([[100.0, -100.0]])
        assert np.array_equal(prior.clamp(pts), pts)

    def test_invalid_variance(self):
        with pytest.raises(ValueError, match=r"^variance: must be positive, got 0.0$"):
            GaussianPrior(0.0, 0.0)


# scalar prior: its per-coordinate reference at width d
PRIOR_REFERENCES = {
    "uniform-default": (UniformPrior(), lambda d: UniformPerCoordinate(-10.0, 10.0, d,
                                                                       CLAMP_MARGIN)),
    "uniform": (UniformPrior(-2.5, 3.7), lambda d: UniformPerCoordinate(-2.5, 3.7, d,
                                                                        CLAMP_MARGIN)),
    "gaussian-default": (GaussianPrior(), lambda d: GaussianPerCoordinate(0.0, 1.0, d)),
    "gaussian": (GaussianPrior(0.5, 4.0), lambda d: GaussianPerCoordinate(0.5, 4.0, d)),
}


@pytest.mark.parametrize("shape", [(100, 1), (30, 104), (100, 1010)],
                         ids=["mixture", "desk", "wide"])
@pytest.mark.parametrize("name", sorted(PRIOR_REFERENCES))
def test_scalar_priors_match_the_per_coordinate_formulas(name, shape):
    """Draws, clamps and scores keep their bits at every width; log densities at d = 1."""
    prior, reference = PRIOR_REFERENCES[name]
    ref = reference(shape[1])
    draws = prior.sample(np.random.default_rng(21), shape)
    assert draws.shape == shape
    assert draws.tobytes() == ref.sample(np.random.default_rng(21), shape[0]).tobytes()
    wide = np.random.default_rng(22).normal(0.0, 20.0, size=shape)  # partly outside a box
    assert prior.clamp(wide).tobytes() == ref.clamp(wide).tobytes()
    assert prior.score(draws).tobytes() == ref.score(draws).tobytes()
    for points in (draws, wide):
        got, want = prior.log_density(points), ref.log_density(points)
        if shape[1] == 1:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def _diagonal_gaussian_formula(mean, variance, x):
    const = np.log(2.0 * np.pi * variance).sum()
    return np.array([-0.5 * (((row - mean) ** 2 / variance).sum() + const) for row in x])


@pytest.mark.parametrize("d", [1, 3])
def test_diagonal_gaussian_log_densities_equal_the_formula(d):
    """A one-component mixture and the PVI density share one formula, bit for bit."""
    rng = np.random.default_rng(40 + d)
    mean, variance = rng.normal(size=d), rng.uniform(0.2, 3.0, size=d)
    x = rng.normal(scale=2.0, size=(7, d))
    want = _diagonal_gaussian_formula(mean, variance, x)
    mixture = GaussianMixtureLoss([MixtureComponent(1.0, mean, variance)])
    for got in (mixture.log_mixture_density(x), gaussian_log_density_moments(mean, variance, x)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 3])
def test_gaussian_prior_log_density_equals_the_formula(d):
    """The scalar prior matches the formula with its mean and variance in every coordinate."""
    rng = np.random.default_rng(50 + d)
    mean, variance = rng.normal(), rng.uniform(0.2, 3.0)
    x = rng.normal(scale=2.0, size=(7, d))
    want = _diagonal_gaussian_formula(np.full(d, mean), np.full(d, variance), x)
    got = GaussianPrior(mean, variance).log_density(x)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestGaussianMixtureLoss:
    def test_component_validation(self):
        with pytest.raises(ValueError):
            MixtureComponent(weight=0.0, mean=np.zeros(1), variance=np.ones(1))
        with pytest.raises(ValueError):
            MixtureComponent(weight=1.0, mean=np.zeros(1), variance=np.zeros(1))
        with pytest.raises(ValueError):
            MixtureComponent(weight=1.0, mean=np.zeros(2), variance=np.ones(1))
        with pytest.raises(ValueError):
            GaussianMixtureLoss([])

    def test_single_gaussian_hand_values(self):
        # N(1, 4): score at theta=3 is (1 - 3)/4 = -0.5
        loss = GaussianMixtureLoss([MixtureComponent(1.0, np.array([1.0]), np.array([4.0]))])
        assert np.isclose(loss.neg_loss_grad(np.array([[3.0]]))[0, 0], -0.5)
        want = -0.5 * np.log(2 * np.pi * 4.0) - 0.5
        assert np.isclose(loss.log_mixture_density(np.array([[3.0]]))[0], want)
        assert np.isclose(loss.loss(np.array([[3.0]]))[0], -want)

    def test_equal_mixture_hand_value_at_midpoint(self):
        # 0.5 N(-1, 1) + 0.5 N(1, 1) at 0: both components contribute
        # 0.5 * N(0; +-1, 1), so log density = log(N(1; 0, 1))
        loss = GaussianMixtureLoss([
            MixtureComponent(0.5, np.array([-1.0]), np.array([1.0])),
            MixtureComponent(0.5, np.array([1.0]), np.array([1.0])),
        ])
        want = -0.5 * np.log(2 * np.pi) - 0.5
        assert np.isclose(loss.log_mixture_density(np.array([[0.0]]))[0], want)
        # symmetry: score vanishes at the midpoint
        assert abs(loss.neg_loss_grad(np.array([[0.0]]))[0, 0]) < 1e-14

    def test_score_matches_fd(self):
        loss = GaussianMixtureLoss([
            MixtureComponent(0.3, np.array([-3.0, 1.0]), np.array([1.0, 2.0])),
            MixtureComponent(0.7, np.array([3.0, -1.0]), np.array([2.0, 0.5])),
        ])
        rng = np.random.default_rng(12)
        for _ in range(100):
            pt = rng.normal(scale=2.0, size=2)
            fd = fd_gradient(lambda z: loss.log_mixture_density(z[None])[0], pt)
            assert relative_error(loss.neg_loss_grad(pt[None])[0], fd) < 1e-5

    def test_weight_normalization_invariance(self):
        comps = lambda s: [
            MixtureComponent(s * 1.0, np.array([-2.0]), np.array([1.0])),
            MixtureComponent(s * 3.0, np.array([2.0]), np.array([2.0])),
        ]
        a = GaussianMixtureLoss(comps(1.0))
        b = GaussianMixtureLoss(comps(10.0))
        pts = np.linspace(-5, 5, 11)[:, None]
        assert np.allclose(a.log_mixture_density(pts), b.log_mixture_density(pts), atol=1e-14)

    def test_score_independent_of_alpha(self):
        loss = GaussianMixtureLoss([MixtureComponent(1.0, np.array([0.0]), np.array([1.0]))])
        pt = np.array([[1.3]])
        assert np.allclose(loss.neg_loss_grad(pt, alpha=2.5), loss.neg_loss_grad(pt, alpha=1.0))

    def test_batched_matches_single(self):
        loss = GaussianMixtureLoss([
            MixtureComponent(0.4, np.array([-1.0]), np.array([1.0])),
            MixtureComponent(0.6, np.array([2.0]), np.array([3.0])),
        ])
        pts = np.random.default_rng(4).normal(size=(7, 1))
        batch_ld = loss.log_mixture_density(pts)
        batch_g = loss.neg_loss_grad(pts)
        for i in range(7):
            assert np.isclose(batch_ld[i], loss.log_mixture_density(pts[i][None])[0])
            assert np.allclose(batch_g[i], loss.neg_loss_grad(pts[i][None])[0])

    def test_dimension_mismatch(self):
        loss = GaussianMixtureLoss([MixtureComponent(1.0, np.zeros(2), np.ones(2))])
        with pytest.raises(ValueError):
            loss.loss(np.zeros((1, 3)))


class TestSoftmaxHeadLoss:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.features = rng.normal(size=(12, 3))
        self.labels = rng.integers(0, 4, size=12)
        self.head = SoftmaxHeadLoss(self.features, self.labels, num_classes=4)

    def test_zero_parameters_give_uniform_loss(self):
        assert np.isclose(self.head.loss(np.zeros((1, self.head.dim)))[0], np.log(4.0))

    def test_zero_parameter_gradient_hand_value(self):
        # one example x = [1], 2 classes, label 0; at theta = 0 every
        # residual entry is +-1/2 and the design column is all ones
        head = SoftmaxHeadLoss(np.array([[1.0]]), np.array([0]), num_classes=2)
        grad = head.neg_loss_grad(np.zeros((1, 4)))
        assert np.allclose(grad, np.array([[0.5, -0.5, 0.5, -0.5]]))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            theta = rng.normal(scale=0.5, size=self.head.dim)
            fd = fd_gradient(lambda z: self.head.loss(z[None])[0], theta)
            assert relative_error(self.head.neg_loss_grad(theta[None])[0], -fd) < 1e-5

    def test_alpha_divides_gradient(self):
        theta = np.random.default_rng(23).normal(size=(1, self.head.dim))
        g1 = self.head.neg_loss_grad(theta, alpha=1.0)
        g2 = self.head.neg_loss_grad(theta, alpha=2.0)
        assert np.allclose(g2, g1 / 2.0)

    def test_empty_shard_is_exactly_zero(self):
        head = SoftmaxHeadLoss(np.zeros((0, 3)), np.zeros(0, dtype=int), num_classes=4)
        theta = np.random.default_rng(24).normal(size=head.dim)
        assert head.loss(theta[None])[0] == 0.0
        assert np.array_equal(head.neg_loss_grad(theta[None]), np.zeros((1, head.dim)))
        batch = np.stack([theta, 2 * theta])
        assert np.array_equal(head.loss(batch), np.zeros(2))

    def test_batched_matches_single(self):
        batch = np.random.default_rng(25).normal(size=(5, self.head.dim))
        losses = self.head.loss(batch)
        grads = self.head.neg_loss_grad(batch)
        for i in range(5):
            assert np.isclose(losses[i], self.head.loss(batch[i][None])[0])
            assert np.allclose(grads[i], self.head.neg_loss_grad(batch[i][None])[0])

    def test_gradient_ascent_reduces_loss(self):
        theta = np.zeros((1, self.head.dim))
        start = self.head.loss(theta)[0]
        for _ in range(50):
            theta = theta + 0.5 * self.head.neg_loss_grad(theta)
        assert self.head.loss(theta)[0] < start

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SoftmaxHeadLoss(np.zeros((3, 2)), np.zeros(2, dtype=int), num_classes=2)
        with pytest.raises(ValueError):
            SoftmaxHeadLoss(np.zeros((3, 2)), np.array([0, 1, 2]), num_classes=2)
        with pytest.raises(ValueError):
            SoftmaxHeadLoss(np.zeros((3, 2)), np.zeros(3, dtype=int), num_classes=1)
        with pytest.raises(ValueError):
            self.head.loss(np.zeros((1, self.head.dim + 1)))


class TestHeadMatchesEinsumOracle:
    """The GEMM-form softmax head agrees with the literal einsum formulas.

    The logits themselves are private; they enter ``loss`` and, through the
    softmax, ``averaged_class_probabilities``, so the loss pins them at the
    labels.
    """

    # (examples per shard, features, classes, particles): desk and MNIST-shaped
    SHAPES = {"desk": (200, 25, 4, 30), "wide": (2000, 100, 10, 100)}

    def case(self, name):
        n, f, c, q = self.SHAPES[name]
        rng = np.random.default_rng(41)
        features = np.maximum(rng.normal(size=(n, f)), 0.0)
        test_features = np.maximum(rng.normal(size=(n // 2, f)), 0.0)
        labels = rng.integers(0, c, size=n)
        heads = rng.normal(scale=3.0 / np.sqrt(f), size=(q, (f + 1) * c))
        return SoftmaxHeadLoss(features, labels, c), heads, test_features

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_loss_and_gradient(self, name):
        head, heads, _ = self.case(name)
        args = (heads, head.features, head.labels, head.num_classes)
        assert max_relative_deviation(head.loss(heads), head_loss_einsum(*args)) < 1e-12
        assert max_relative_deviation(
            head.neg_loss_grad(heads, alpha=0.7), head_neg_loss_grad_einsum(*args) / 0.7
        ) < 1e-12

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_probabilities(self, name):
        head, heads, test_features = self.case(name)
        want = softmax(head_logits_einsum(heads, test_features, head.num_classes), axis=2)
        assert max_relative_deviation(
            averaged_class_probabilities(heads, test_features, head.num_classes), want.mean(axis=0)
        ) < 1e-12

    def test_single_parameter_vector(self):
        head, heads, _ = self.case("desk")
        args = (heads[:1], head.features, head.labels, head.num_classes)
        assert head.loss(heads[:1]).shape == (1,)
        assert max_relative_deviation(head.loss(heads[:1]), head_loss_einsum(*args)) < 1e-12
        assert max_relative_deviation(
            head.neg_loss_grad(heads[:1]), head_neg_loss_grad_einsum(*args)
        ) < 1e-12


class TestModelAveraging:
    def test_average_matches_per_particle_mean(self):
        rng = np.random.default_rng(31)
        features = rng.normal(size=(6, 2))
        particles = rng.normal(size=(4, (2 + 1) * 3))
        avg = averaged_class_probabilities(particles, features, num_classes=3)
        per = softmax(head_logits_einsum(particles, features, num_classes=3), axis=2)
        assert np.allclose(avg, per.mean(axis=0))
        assert np.allclose(avg.sum(axis=1), 1.0)

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            averaged_class_probabilities(np.zeros((2, 7)), np.zeros((3, 2)), num_classes=3)
        with pytest.raises(ValueError):
            averaged_class_probabilities(np.zeros((0, 9)), np.zeros((3, 2)), num_classes=3)

    def test_per_class_accuracy_with_confident_head(self):
        # bias-only head that always votes class 2
        theta = np.zeros((1, (1 + 1) * 3))
        theta[0, -1] = 50.0  # bias of class 2
        features = np.zeros((6, 1))
        labels = np.array([0, 0, 1, 2, 2, 2])
        acc = per_class_accuracy(theta, features, labels, num_classes=3)
        assert acc == {0: 0.0, 1: 0.0, 2: 1.0}

    def test_tie_resolves_to_lowest_class(self):
        theta = np.zeros((1, (1 + 1) * 3))
        features = np.zeros((4, 1))
        labels = np.array([0, 1, 1, 2])
        acc = per_class_accuracy(theta, features, labels, num_classes=3)
        assert acc[0] == 1.0
        assert acc[1] == 0.0
        assert acc[2] == 0.0

    def test_requested_class_without_examples_rejected(self):
        theta = np.zeros((1, 6))
        with pytest.raises(ValueError):
            per_class_accuracy(theta, np.zeros((2, 1)), np.array([0, 0]),
                               num_classes=3, classes=(0, 1))

    def test_default_classes_are_observed_labels(self):
        theta = np.zeros((1, 6))
        acc = per_class_accuracy(theta, np.zeros((3, 1)), np.array([2, 0, 0]), num_classes=3)
        assert sorted(acc) == [0, 2]

    def test_macro_accuracy(self):
        acc = {0: 1.0, 1: 0.5, 3: 0.0}
        assert macro_accuracy(acc, (0, 1)) == 0.75
        with pytest.raises(ValueError):
            macro_accuracy(acc, ())
        with pytest.raises(ValueError):
            macro_accuracy(acc, (0, 2))


class TestFeatureMap:
    def test_relu_and_shape(self):
        fmap = FeatureMap(weights=np.array([[1.0, -1.0]]), biases=np.array([0.0, 0.5]))
        out = fmap(np.array([[2.0], [-2.0]]))
        assert np.array_equal(out, np.array([[2.0, 0.0], [0.0, 2.5]]))
        assert fmap.num_features == 2

    def test_pretraining_is_deterministic(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        cfg = FeatureMapConfig(hidden_units=6, epochs=40)
        a = pretrain_feature_map(x, y, 3, cfg, np.random.default_rng(9))
        b = pretrain_feature_map(x, y, 3, cfg, np.random.default_rng(9))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_zero_epochs_returns_initialization(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(10, 2))
        y = rng.integers(0, 2, size=10)
        fmap = pretrain_feature_map(x, y, 2, FeatureMapConfig(hidden_units=5, epochs=0),
                                    np.random.default_rng(1))
        assert fmap.weights.shape == (2, 5)
        assert np.array_equal(fmap.biases, np.zeros(5))

    def test_features_support_separable_problem(self):
        # two well-separated blobs; a softmax head trained on the frozen
        # features should classify the training points perfectly
        rng = np.random.default_rng(43)
        x = np.vstack([rng.normal(-3.0, 0.4, size=(20, 2)), rng.normal(3.0, 0.4, size=(20, 2))])
        y = np.repeat([0, 1], 20)
        fmap = pretrain_feature_map(x, y, 2, FeatureMapConfig(hidden_units=8, epochs=200),
                                    np.random.default_rng(2))
        head = SoftmaxHeadLoss(fmap(x), y, num_classes=2)
        theta = np.zeros((1, head.dim))
        for _ in range(300):
            theta = theta + 1.0 * head.neg_loss_grad(theta)
        acc = per_class_accuracy(theta, fmap(x), y, num_classes=2)
        assert macro_accuracy(acc, (0, 1)) >= 0.95

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pretrain_feature_map(np.zeros((0, 2)), np.zeros(0, dtype=int), 2,
                                 FeatureMapConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            pretrain_feature_map(np.zeros((3, 2)), np.zeros(2, dtype=int), 2,
                                 FeatureMapConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            FeatureMapConfig(hidden_units=0)
        with pytest.raises(ValueError):
            FeatureMapConfig(step_size=0.0)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_labels_outside_the_classes_refused(self, label):
        # -1 would index the last class's column of the one-hot targets and train as class 1.
        with pytest.raises(ValueError, match=re.escape("labels outside [0, num_classes)")):
            pretrain_feature_map(np.zeros((3, 2)), np.array([0, 1, label]), 2,
                                 FeatureMapConfig(epochs=1), np.random.default_rng(0))


_MIXTURE_3D = GaussianMixtureLoss([MixtureComponent(1.0, np.zeros(3), np.ones(3))])
_HEAD_4D = SoftmaxHeadLoss(np.array([[1.0], [-1.0]]), np.array([0, 1]), num_classes=2)
_PARTICLES_3D = np.arange(6.0).reshape(2, 3)

# (function of an (M, d) matrix, d, whether it returns one value per row)
ROW_FUNCTIONS = {
    "kde_log_density": (lambda x: kde_log_density(_PARTICLES_3D, x, 0.5), 3, True),
    "kde_log_density_grad": (lambda x: kde_log_density_grad(_PARTICLES_3D, x, 0.5), 3, False),
    "UniformPrior.log_density": (UniformPrior(-1.0, 1.0).log_density, 3, True),
    "UniformPrior.score": (UniformPrior(-1.0, 1.0).score, 3, False),
    "GaussianPrior.log_density": (GaussianPrior(0.0, 1.0).log_density, 3, True),
    "GaussianPrior.score": (GaussianPrior(0.0, 1.0).score, 3, False),
    "GaussianMixtureLoss.log_mixture_density": (_MIXTURE_3D.log_mixture_density, 3, True),
    "GaussianMixtureLoss.loss": (_MIXTURE_3D.loss, 3, True),
    "GaussianMixtureLoss.neg_loss_grad": (_MIXTURE_3D.neg_loss_grad, 3, False),
    "SoftmaxHeadLoss.loss": (_HEAD_4D.loss, 4, True),
    "SoftmaxHeadLoss.neg_loss_grad": (_HEAD_4D.neg_loss_grad, 4, False),
}


class TestRowMatrixInput:
    """The numeric core takes (M, d) row matrices only and returns arrays."""

    @pytest.mark.parametrize("name", sorted(ROW_FUNCTIONS))
    def test_vector_rejected_with_its_shape(self, name):
        f, d, _ = ROW_FUNCTIONS[name]
        with pytest.raises(ValueError, match=rf"expected an \(M, {d}\) array, got shape \({d},\)"):
            f(np.zeros(d))

    @pytest.mark.parametrize("name", sorted(ROW_FUNCTIONS))
    def test_one_row_gives_one_row(self, name):
        f, d, per_row = ROW_FUNCTIONS[name]
        out = f(np.full((1, d), 0.25))
        assert isinstance(out, np.ndarray)
        assert out.shape == ((1,) if per_row else (1, d))

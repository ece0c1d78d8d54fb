"""Tests for the parametric Gaussian baseline rounds."""

import numpy as np
import pytest

from steinfed.models import GaussianMixtureLoss, MixtureComponent
from steinfed.pvi import (
    PviConfig,
    _damped_step,
    expected_loss_grad_moment,
    gaussian_log_density_moments,
    moment_to_nat,
    nat_to_moment,
    pvi_round,
    ulpvi_round,
)


def gaussian_nll(mean, variance):
    """Loss whose value is the negative log density of one Gaussian."""
    return GaussianMixtureLoss([MixtureComponent(1.0, np.array([mean]), np.array([variance]))])


def quadrature_moment_gradient(loss, mu1, mu2, eps=1e-6):
    """Central differences of E_q[loss] as a function of the mean parameters.

    The expectation is computed on a fixed trapezoid grid so that the
    quadrature error varies smoothly with the moments and cancels in the
    differences.
    """
    grid = np.linspace(-20.0, 20.0, 80001)
    vals = loss.loss(grid[:, None])

    def expected(m1, m2):
        v = m2 - m1 ** 2
        dens = np.exp(-0.5 * (grid - m1) ** 2 / v) / np.sqrt(2.0 * np.pi * v)
        return np.trapezoid(dens * vals, grid)

    d1 = (expected(mu1 + eps, mu2) - expected(mu1 - eps, mu2)) / (2 * eps)
    d2 = (expected(mu1, mu2 + eps) - expected(mu1, mu2 - eps)) / (2 * eps)
    return d1, d2


class TestNatParams:
    def test_moment_conversion_hand_values(self):
        nat = moment_to_nat(2.0, 4.0)
        assert np.allclose(nat[0], 0.5)
        assert np.allclose(nat[1], -0.125)
        mean, variance = nat_to_moment(nat)
        assert np.allclose(mean, 2.0)
        assert np.allclose(variance, 4.0)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = rng.normal(size=3)
            v = rng.uniform(0.1, 5.0, size=3)
            nat = moment_to_nat(m, v)
            assert nat.shape == (2, 3)
            mean, variance = moments = nat_to_moment(nat)
            assert moments.shape == (2, 3)  # the snapshot's mean row over its variance row
            assert np.allclose(mean, m, atol=1e-12)
            assert np.allclose(variance, v, atol=1e-12)

    def test_zero_factor_is_not_a_gaussian(self):
        with pytest.raises(ValueError, match="proper Gaussian"):
            nat_to_moment(np.zeros((2, 4)))

    def test_validation(self):
        with pytest.raises(ValueError):
            moment_to_nat(0.0, 0.0)
        with pytest.raises(ValueError):
            nat_to_moment(np.array([[1.0], [0.0]]))

    def test_log_density_matches_hand_value(self):
        got = gaussian_log_density_moments(0.0, 1.0, np.array([0.0]))
        assert np.isclose(got[0], -0.5 * np.log(2 * np.pi))
        x = np.array([0.0, 1.0, 3.0])
        want = -0.5 * ((x - 1.0) ** 2 / 2.0 + np.log(2 * np.pi * 2.0))
        assert np.allclose(gaussian_log_density_moments(1.0, 2.0, x), want)

    def test_log_density_normalizes_on_grid(self):
        grid = np.linspace(-10, 10, 4001)
        dens = np.exp(gaussian_log_density_moments(0.5, 1.5, grid))
        assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-6


class TestExpectedLossGradient:
    def test_standard_normal_nll_analytic(self):
        # E[0.5 theta^2 + c] = 0.5 mu2 + c, so the gradient is (0, 0.5)
        nat = moment_to_nat(0.7, 1.3)
        grad = expected_loss_grad_moment(nat, gaussian_nll(0.0, 1.0), 1.0, 100000,
                                         np.random.default_rng(0))
        assert abs(grad[0] - 0.0) < 0.02
        assert abs(grad[1] - 0.5) < 0.02

    def test_shifted_gaussian_nll_analytic(self):
        # loss = (theta - z)^2 / (2 s) + c  =>  gradient (-z/s, 1/(2 s))
        nat = moment_to_nat(-0.4, 0.9)
        grad = expected_loss_grad_moment(nat, gaussian_nll(2.0, 4.0), 1.0, 100000,
                                         np.random.default_rng(1))
        assert abs(grad[0] - (-0.5)) < 0.02
        assert abs(grad[1] - 0.125) < 0.02

    def test_matches_quadrature_fd_for_mixture(self):
        loss = GaussianMixtureLoss([
            MixtureComponent(0.4, np.array([-2.0]), np.array([1.0])),
            MixtureComponent(0.6, np.array([1.5]), np.array([0.5])),
        ])
        mu1, v = 0.3, 1.2
        mu2 = v + mu1 ** 2
        nat = moment_to_nat(mu1, v)
        grad = expected_loss_grad_moment(nat, loss, 1.0, 400000, np.random.default_rng(2))
        d1, d2 = quadrature_moment_gradient(loss, mu1, mu2)
        assert abs(grad[0] - d1) < 0.05 * (1 + abs(d1))
        assert abs(grad[1] - d2) < 0.05 * (1 + abs(d2))

    def test_alpha_scales_expectation(self):
        nat = moment_to_nat(0.1, 1.0)
        loss = gaussian_nll(1.0, 1.0)
        g1 = expected_loss_grad_moment(nat, loss, 1.0, 5000, np.random.default_rng(3))
        g2 = expected_loss_grad_moment(nat, loss, 2.0, 5000, np.random.default_rng(3))
        assert np.allclose(g2[0], 2.0 * g1[0], rtol=1e-10)
        assert np.allclose(g2[1], 2.0 * g1[1], rtol=1e-10)

    def test_deterministic_under_integer_seed(self):
        nat = moment_to_nat(0.0, 1.0)
        loss = gaussian_nll(0.5, 2.0)
        a = expected_loss_grad_moment(nat, loss, 1.0, 500, np.random.default_rng(7))
        b = expected_loss_grad_moment(nat, loss, 1.0, 500, np.random.default_rng(7))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_generator_advances_in_place(self):
        nat = moment_to_nat(0.0, 1.0)
        loss = gaussian_nll(0.5, 2.0)
        rng = np.random.default_rng(7)
        a = expected_loss_grad_moment(nat, loss, 1.0, 500, rng)
        b = expected_loss_grad_moment(nat, loss, 1.0, 500, rng)
        assert not np.array_equal(a[0], b[0])

    def test_sample_count_validated(self):
        nat = moment_to_nat(0.0, 1.0)
        with pytest.raises(ValueError):
            expected_loss_grad_moment(nat, gaussian_nll(0.0, 1.0), 1.0, 0, np.random.default_rng(0))


class TestDampedStep:
    def test_full_step_when_valid(self):
        eta = moment_to_nat(0.0, 1.0)
        drift = np.array([[1.0], [0.1]])
        out = _damped_step(eta, drift, 0.5)
        assert np.allclose(out[0], eta[0] - 0.5 * 1.0)
        assert np.allclose(out[1], eta[1] - 0.5 * 0.1)

    def test_halves_until_valid(self):
        eta = moment_to_nat(0.0, 1.0)  # eta2 = -0.5
        drift = np.array([[0.0], [-1.6]])
        # full step lands at -0.5 + 1.6 = 1.1 (invalid); half at 0.3
        # (invalid); quarter at -0.1 (valid)
        out = _damped_step(eta, drift, 1.0)
        assert np.allclose(out[1], -0.5 + 0.25 * 1.6)

    def test_exhaustion_raises(self):
        eta = moment_to_nat(0.0, 1.0)
        drift = np.array([[0.0], [-1e30]])
        with pytest.raises(FloatingPointError):
            _damped_step(eta, drift, 1.0)


class ExplodingLoss:
    """Gradient so large that no damped step can keep the Gaussian valid."""

    def neg_loss_grad(self, theta, alpha=1.0):
        return 1e30 * np.asarray(theta, dtype=float)


class TestPviRounds:
    def test_telescoping_identity_exact(self):
        rng = np.random.default_rng(4)
        global_nat = moment_to_nat(0.0, 3.0)
        local = np.zeros((2, 1))
        loss = gaussian_nll(1.0, 1.0)
        config = PviConfig(local_iters=5, epsilon=0.1, mc_samples=64)
        new_global, new_local = pvi_round(global_nat, local, loss, config, rng)
        recon = new_global - global_nat + local
        assert np.array_equal(new_local[0], recon[0])
        assert np.array_equal(new_local[1], recon[1])

    def test_telescoping_invariant_over_many_rounds(self):
        prior = moment_to_nat(0.0, 4.0)
        losses = {1: gaussian_nll(1.0, 1.0), 2: gaussian_nll(-1.0, 2.0)}
        locals_ = {k: np.zeros((2, 1)) for k in losses}
        global_nat = prior
        config = PviConfig(local_iters=3, epsilon=0.05, mc_samples=64)
        rng = np.random.default_rng(5)
        for r in range(10):
            k = 1 + r % 2
            global_nat, locals_[k] = pvi_round(global_nat, locals_[k], losses[k], config, rng)
            ident = prior + locals_[1] + locals_[2]
            assert np.max(np.abs(ident[0] - global_nat[0])) < 1e-10
            assert np.max(np.abs(ident[1] - global_nat[1])) < 1e-10

    def test_zero_iters_is_identity(self):
        global_nat = moment_to_nat(0.5, 2.0)
        local = np.array([[0.3], [-0.1]])
        config = PviConfig(local_iters=0, epsilon=0.1, mc_samples=16)
        before = global_nat.tobytes()
        for play in (pvi_round, ulpvi_round):
            new_global, new_local = play(global_nat, local, gaussian_nll(0.0, 1.0),
                                         config, np.random.default_rng(0))
            assert np.array_equal(new_global[0], global_nat[0])
            assert np.array_equal(new_local[0], local[0])
            assert np.array_equal(new_local[1], local[1])
            # a new array: writing into it leaves the caller's global as it was
            assert new_global is not global_nat
            new_global += 1.0
            assert global_nat.tobytes() == before

    def test_learn_unlearn_single_iter_antisymmetry(self):
        # with one inner iteration and shared draws the two rounds move by
        # -eps*(local +- g), so their sum is 2*(eta - eps*local)
        global_nat = moment_to_nat(0.2, 1.5)
        local = np.array([[0.05], [-0.02]])
        loss = gaussian_nll(1.0, 2.0)
        config = PviConfig(local_iters=1, epsilon=0.01, mc_samples=256)
        p, _ = pvi_round(global_nat, local, loss, config, np.random.default_rng(11))
        u, _ = ulpvi_round(global_nat, local, loss, config, np.random.default_rng(11))
        want1 = 2.0 * (global_nat[0] - config.epsilon * local[0])
        want2 = 2.0 * (global_nat[1] - config.epsilon * local[1])
        assert np.allclose(p[0] + u[0], want1, atol=1e-12)
        assert np.allclose(p[1] + u[1], want2, atol=1e-12)

    def test_round_deterministic_under_integer_seed(self):
        global_nat = moment_to_nat(0.0, 2.0)
        local = np.zeros((2, 1))
        loss = gaussian_nll(0.5, 1.0)
        config = PviConfig(local_iters=4, epsilon=0.05, mc_samples=128)
        a, al = pvi_round(global_nat, local, loss, config, np.random.default_rng(13))
        b, bl = pvi_round(global_nat, local, loss, config, np.random.default_rng(13))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(al[1], bl[1])

    @pytest.mark.parametrize("play", [pvi_round, ulpvi_round])
    def test_round_leaves_inputs_and_replays_bit_identically(self, play):
        # plain arrays are mutable, so a round must copy rather than update in place
        global_nat = moment_to_nat([0.3, -0.2], [1.5, 2.0])
        local = np.array([[0.05, -0.1], [-0.02, 0.01]])
        kept_global, kept_local = global_nat.copy(), local.copy()
        loss = GaussianMixtureLoss([
            MixtureComponent(1.0, np.array([1.0, 0.0]), np.array([1.0, 2.0]))])
        config = PviConfig(local_iters=4, epsilon=0.05, mc_samples=64)
        rng = np.random.default_rng(19)
        state = rng.bit_generator.state
        first = play(global_nat, local, loss, config, rng)
        assert global_nat.tobytes() == kept_global.tobytes()
        assert local.tobytes() == kept_local.tobytes()
        rng.bit_generator.state = state
        second = play(global_nat, local, loss, config, rng)
        for a, b in zip(first, second):
            assert a.shape == (2, 2) and a.tobytes() == b.tobytes()

    def test_pathological_gradient_raises(self):
        global_nat = moment_to_nat(0.0, 1.0)
        local = np.zeros((2, 1))
        config = PviConfig(local_iters=1, epsilon=1.0, mc_samples=32)
        with pytest.raises(FloatingPointError):
            pvi_round(global_nat, local, ExplodingLoss(), config, np.random.default_rng(0))

    def test_conjugate_posterior_recovered(self):
        # prior N(0, 4) and one Gaussian likelihood N(theta; 1, 1): the
        # exact posterior is N(0.8, 0.8).  A single agent iterated to a
        # fixed point should land on it up to Monte Carlo noise.
        prior = moment_to_nat(0.0, 4.0)
        loss = gaussian_nll(1.0, 1.0)
        config = PviConfig(local_iters=5, epsilon=0.1, mc_samples=2000)
        global_nat = prior
        local = np.zeros((2, 1))
        rng = np.random.default_rng(17)
        for _ in range(60):
            global_nat, local = pvi_round(global_nat, local, loss, config, rng)
        mean, variance = nat_to_moment(global_nat)
        assert abs(mean[0] - 0.8) < 0.05
        assert abs(variance[0] - 0.8) < 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PviConfig(alpha=0.0)
        with pytest.raises(ValueError):
            PviConfig(local_iters=-1)
        with pytest.raises(ValueError):
            PviConfig(mc_samples=0)
        with pytest.raises(ValueError, match="^epsilon: "):
            PviConfig(epsilon=0.0)
        with pytest.raises(ValueError, match="^prior_variance: "):
            PviConfig(prior_variance=-1.0)

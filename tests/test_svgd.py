"""Tests for the particle transport update and its AdaGrad step rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import median_bandwidth_pdist, rbf_kernel, rbf_kernel_grad_first

from steinfed.kernels import median_bandwidth, pairwise_sq_dists
from steinfed.svgd import adagrad_step, run_svgd, svgd_direction


def brute_force_direction(theta, grads, h):
    """Double loop over the defining sum, one particle pair at a time."""
    n = theta.shape[0]
    out = np.zeros_like(theta)
    for i in range(n):
        for j in range(n):
            k = rbf_kernel(theta[j], theta[i], h)
            out[i] += k * grads[j] + rbf_kernel_grad_first(theta[j], theta[i], h)
    return out / n


class TestSvgdDirection:
    def test_matches_brute_force_fixed_bandwidth(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            theta = rng.normal(size=(n, d))
            grads = rng.normal(size=(n, d))
            h = float(rng.uniform(0.3, 3.0))
            got = svgd_direction(theta, lambda t: grads, h)
            want = brute_force_direction(theta, grads, h)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_matches_brute_force_median_bandwidth(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            theta = rng.normal(size=(n, d))
            grads = rng.normal(size=(n, d))
            got = svgd_direction(theta, lambda t: grads)
            want = brute_force_direction(theta, grads, median_bandwidth_pdist(theta))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_single_particle_is_plain_gradient(self):
        theta = np.array([[1.5, -2.0]])
        grads = np.array([[0.25, 4.0]])
        got = svgd_direction(theta, lambda t: grads)
        assert np.array_equal(got, grads)
        # must be a copy, not a view of the target output
        got[0, 0] = 99.0
        assert grads[0, 0] == 0.25

    def test_identical_particles_share_direction(self):
        # with all particles coincident the kernel matrix is all ones and
        # the repulsion cancels, so every row is the mean score
        theta = np.full((4, 2), 1.0)
        grads = np.arange(8, dtype=float).reshape(4, 2)
        got = svgd_direction(theta, lambda t: grads, 2.0)
        want = np.tile(grads.mean(axis=0), (4, 1))
        assert np.allclose(got, want, atol=1e-12)

    def test_zero_gradient_pure_repulsion_spreads(self):
        theta = np.array([[-1.0], [1.0]])
        direction = svgd_direction(theta, lambda t: np.zeros_like(t), 4.0)
        # repulsion pushes the left particle further left, the right one right
        assert direction[0, 0] < 0
        assert direction[1, 0] > 0
        assert np.isclose(direction[0, 0], -direction[1, 0])

    def test_hand_value_two_particles(self):
        # theta = {0, 2} in 1D, h = 4: k = exp(-1), grads both zero.
        # phi(0) = (1/2) * grad_x k(x=2, y=0) = (1/2) * (-(2/4)*(2-0)*k) = -k/2
        theta = np.array([[0.0], [2.0]])
        direction = svgd_direction(theta, lambda t: np.zeros_like(t), 4.0)
        assert np.isclose(direction[0, 0], -np.exp(-1.0) / 2.0, atol=1e-14)
        assert np.isclose(direction[1, 0], np.exp(-1.0) / 2.0, atol=1e-14)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            svgd_direction(np.zeros((0, 2)), lambda t: t)
        with pytest.raises(ValueError):
            svgd_direction(np.zeros(3), lambda t: t)
        with pytest.raises(ValueError):
            svgd_direction(np.zeros((3, 2)), lambda t: np.zeros((2, 2)))

    def test_rejects_non_finite_gradient(self):
        theta = np.zeros((2, 1))
        bad = np.array([[np.nan], [0.0]])
        with pytest.raises(FloatingPointError):
            svgd_direction(theta, lambda t: bad)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("h", [0.0, -1.0])
    def test_rejects_nonpositive_fixed_bandwidth(self, n, h):
        with pytest.raises(ValueError, match="fixed bandwidth must be positive"):
            svgd_direction(np.zeros((n, 1)), lambda t: np.zeros_like(t), h)

    @settings(max_examples=50, deadline=2000, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(2, 12), d=st.integers(1, 5))
    def test_property_permutation_equivariant(self, data, n, d):
        coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
        theta = data.draw(hnp.arrays(float, (n, d), elements=coords))
        grads = data.draw(hnp.arrays(float, (n, d), elements=coords))
        order = np.array(data.draw(st.permutations(range(n))))
        assert median_bandwidth(pairwise_sq_dists(theta[order])) == \
            median_bandwidth(pairwise_sq_dists(theta))
        phi = svgd_direction(theta, lambda t: grads)
        np.testing.assert_allclose(svgd_direction(theta[order], lambda t: grads[order]),
                                   phi[order], rtol=1e-10)


class TestAdaGradStep:
    def test_hand_values_two_steps(self):
        acc = np.zeros((1, 1))
        theta = np.zeros((1, 1))
        theta = adagrad_step(acc, theta, np.array([[2.0]]), 0.5, 1e-6)
        assert np.isclose(theta[0, 0], 0.5 * 2.0 / (1e-6 + 2.0), rtol=1e-14)
        assert np.isclose(acc[0, 0], 4.0)
        theta2 = adagrad_step(acc, theta, np.array([[1.0]]), 0.5, 1e-6)
        want = theta[0, 0] + 0.5 * 1.0 / (1e-6 + np.sqrt(5.0))
        assert np.isclose(theta2[0, 0], want, rtol=1e-14)

    def test_accumulator_mutated_in_place(self):
        acc = np.zeros((2, 3))
        adagrad_step(acc, np.zeros((2, 3)), np.ones((2, 3)), 0.1, 1e-6)
        adagrad_step(acc, np.zeros((2, 3)), np.full((2, 3), 2.0), 0.1, 1e-6)
        assert np.allclose(acc, 5.0)

    def test_zero_master_step_freezes_particles_but_not_accumulator(self):
        acc = np.zeros((1, 2))
        theta = np.array([[1.0, -1.0]])
        moved = adagrad_step(acc, theta, np.array([[3.0, 3.0]]), 0.0, 1e-6)
        assert np.array_equal(moved, theta)
        assert np.allclose(acc, 9.0)

    def test_input_particles_not_mutated(self):
        theta = np.ones((2, 2))
        before = theta.copy()
        adagrad_step(np.zeros((2, 2)), theta, np.ones((2, 2)), 0.2, 1e-6)
        assert np.array_equal(theta, before)

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="direction shape"):
            adagrad_step(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 2)), 0.05, 1e-6)
        with pytest.raises(ValueError, match="accumulator shape"):
            adagrad_step(np.zeros((4, 1)), np.zeros((2, 1)), np.zeros((2, 1)), 0.05, 1e-6)


class TestRunSvgd:
    def test_zero_steps_returns_equal_copy(self):
        theta = np.random.default_rng(0).normal(size=(5, 2))
        out, acc = run_svgd(theta, lambda t: -t, steps=0, epsilon=0.05)
        assert out is not theta
        assert np.array_equal(out, theta)
        assert np.array_equal(acc, np.zeros_like(theta))

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            run_svgd(np.zeros((2, 1)), lambda t: -t, steps=-1, epsilon=0.05)

    def test_invalid_settings_rejected(self):
        theta = np.zeros((2, 1))
        with pytest.raises(ValueError, match="master step size must be nonnegative"):
            run_svgd(theta, lambda t: -t, steps=1, epsilon=-0.1)
        with pytest.raises(ValueError, match="fudge factor must be positive"):
            run_svgd(theta, lambda t: -t, steps=1, epsilon=0.05, fudge=0.0)

    def test_input_never_mutated(self):
        theta = np.random.default_rng(1).normal(size=(6, 2))
        before = theta.copy()
        run_svgd(theta, lambda t: -t, steps=20, epsilon=0.1)
        assert np.array_equal(theta, before)

    def test_given_accumulator_left_unchanged_and_continued(self):
        # a run from a carried accumulator advances a copy of it, so running
        # 10 steps and then 5 from the returned accumulator is one 15-step run
        theta = np.random.default_rng(4).normal(size=(6, 2))
        mid, acc = run_svgd(theta, lambda t: -t, steps=10, epsilon=0.1)
        carried = acc.copy()
        end, acc_end = run_svgd(mid, lambda t: -t, steps=5, epsilon=0.1, accumulator=acc)
        assert np.array_equal(acc, carried)
        assert acc_end is not acc
        whole, acc_whole = run_svgd(theta, lambda t: -t, steps=15, epsilon=0.1)
        assert np.array_equal(end, whole)
        assert np.array_equal(acc_end, acc_whole)

    def test_deterministic(self):
        theta = np.random.default_rng(2).normal(size=(8, 3))
        a, _ = run_svgd(theta, lambda t: -t, steps=15, epsilon=0.05)
        b, _ = run_svgd(theta, lambda t: -t, steps=15, epsilon=0.05)
        assert np.array_equal(a, b)

    def test_project_applied_every_step(self):
        theta = np.random.default_rng(3).uniform(0.5, 1.0, size=(10, 1))
        seen = []

        def project(t):
            seen.append(t.min())
            return np.clip(t, 0.25, None)

        out, _ = run_svgd(theta, lambda t: -10.0 * t, steps=30, epsilon=0.5, project=project)
        assert len(seen) == 30
        assert out.min() >= 0.25

    def test_single_particle_equals_adagrad_ascent(self):
        # with one particle the kernel terms vanish, so the trajectory must
        # be bitwise identical to plain AdaGrad on the score
        def score(t):
            return 3.0 - t

        theta = np.array([[0.0]])
        svgd_path, svgd_acc = run_svgd(theta, score, steps=40, epsilon=0.3)

        acc = np.zeros_like(theta)
        manual = theta.copy()
        for _ in range(40):
            manual = adagrad_step(acc, manual, score(manual), 0.3, 1e-6)
        assert np.array_equal(svgd_path, manual)
        assert np.array_equal(svgd_acc, acc)

    def test_gaussian_target_moments(self):
        # loose smoke test; the tight accuracy check lives in the acceptance
        # suite with the full iteration budget
        rng = np.random.default_rng(11)
        theta = rng.normal(loc=4.0, scale=0.5, size=(40, 1))
        out, _ = run_svgd(theta, lambda t: -t, steps=400, epsilon=0.2)
        assert abs(out.mean()) < 0.15
        assert abs(out.var() - 1.0) < 0.25

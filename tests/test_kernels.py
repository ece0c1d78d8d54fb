import tracemalloc

import numpy as np
import pytest
from helpers import (
    fd_gradient,
    kde_log_density_broadcast,
    kde_log_density_grad_broadcast,
    max_relative_deviation,
    median_bandwidth_pdist,
    rbf_kernel,
    rbf_kernel_grad_first,
    relative_error,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from steinfed.federation import ProtocolConfig
from steinfed.kernels import (
    BANDWIDTH_FLOOR,
    kde_log_density,
    kde_log_density_grad,
    median_bandwidth,
    pairwise_sq_dists,
)


class TestRbfKernel:
    def test_zero_distance_is_one(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.standard_normal(3)
            assert rbf_kernel(x, x, h=float(rng.uniform(0.1, 10))) == 1.0

    def test_hand_values(self):
        np.testing.assert_allclose(rbf_kernel([0.0], [1.0], 1.0), np.exp(-1.0), rtol=1e-15)
        np.testing.assert_allclose(rbf_kernel([1.0, 2.0], [3.0, 4.0], 2.0), np.exp(-4.0), rtol=1e-15)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            h = float(rng.uniform(0.2, 5.0))
            value = rbf_kernel(x, y, h)
            assert value == rbf_kernel(y, x, h)
            assert 0.0 < value <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            rbf_kernel([0.0], [0.0, 1.0], 1.0)

    def test_nonpositive_bandwidth(self):
        with pytest.raises(ValueError, match="positive"):
            rbf_kernel([0.0], [1.0], 0.0)


class TestRbfKernelGrad:
    def test_zero_at_coincident_points(self):
        x = np.array([1.5, -0.5])
        np.testing.assert_array_equal(rbf_kernel_grad_first(x, x, 2.0), np.zeros(2))

    def test_hand_value(self):
        np.testing.assert_allclose(
            rbf_kernel_grad_first([1.0], [0.0], 1.0), [-2.0 * np.exp(-1.0)], rtol=1e-15
        )

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            h = float(rng.uniform(0.3, 4.0))
            grad = rbf_kernel_grad_first(x, y, h)
            fd = fd_gradient(lambda p: rbf_kernel(p, y, h), x)
            assert relative_error(grad, fd) < 1e-5

    def test_antisymmetric_in_arguments(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        np.testing.assert_allclose(
            rbf_kernel_grad_first(x, y, 1.3), -rbf_kernel_grad_first(y, x, 1.3), rtol=1e-14
        )


def bandwidth(particles):
    """``median_bandwidth`` of a particle list, through its squared-distance matrix."""
    theta = np.asarray(particles, dtype=float)
    return median_bandwidth(pairwise_sq_dists(theta, theta))


class TestMedianBandwidth:
    def test_two_particles(self):
        np.testing.assert_allclose(
            bandwidth([[0.0], [2.0]]), 4.0 / np.log(2.0), rtol=1e-15
        )

    def test_three_particles(self):
        np.testing.assert_allclose(
            bandwidth([[0.0], [1.0], [3.0]]), 4.0 / np.log(3.0), rtol=1e-15
        )

    def test_even_pair_count_averages_middle_two(self):
        # points 0,1,2,4: pairwise distances {1,1,2,2,3,4}, median (2+2)/2 = 2
        particles = [[0.0], [1.0], [2.0], [4.0]]
        np.testing.assert_allclose(bandwidth(particles), 4.0 / np.log(4.0), rtol=1e-15)

    def test_identical_particles_hit_floor(self):
        assert bandwidth([[0.0], [0.0]]) == BANDWIDTH_FLOOR

    def test_single_particle_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            bandwidth([[0.0]])

    def test_translation_and_permutation_invariance(self):
        rng = np.random.default_rng(42)
        particles = rng.standard_normal((12, 3))
        base = bandwidth(particles)
        shifted = bandwidth(particles + 7.5)
        permuted = bandwidth(particles[rng.permutation(12)])
        np.testing.assert_allclose([shifted, permuted], [base, base], rtol=1e-12)

    # 1, 3, 6, 10, 15 and 28 pairs; the integer grid repeats distances and particles
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_equals_numpy_median_rule_with_ties(self, n):
        rng = np.random.default_rng(n)
        for particles in (rng.standard_normal((n, 3)), rng.integers(0, 3, (n, 2)).astype(float)):
            sq = pairwise_sq_dists(particles, particles)
            med = float(np.median(np.sqrt(sq[np.triu_indices(n, 1)])))
            assert bandwidth(particles) == max(med * med / np.log(n), BANDWIDTH_FLOOR)

    # The mixture, desk and wide particle shapes; the mixture set sits 50
    # away from the origin, where the GEMM distances lose the most digits.
    @pytest.mark.parametrize("n,d,offset", [(100, 1, 50.0), (30, 104, 0.0), (100, 1010, 0.0)])
    def test_matches_pdist_oracle(self, n, d, offset):
        particles = np.random.default_rng(11).normal(scale=3.0, size=(n, d)) + offset
        np.testing.assert_allclose(
            bandwidth(particles), median_bandwidth_pdist(particles), rtol=1e-12
        )

    @pytest.mark.parametrize("shape", [(3, 2), (4,), (2, 2, 2)])
    def test_matrix_that_is_not_square_refused(self, shape):
        with pytest.raises(ValueError) as err:
            median_bandwidth(np.zeros(shape))
        assert str(err.value) == f"expected an (N, N) squared-distance matrix, got shape {shape}"


class TestWidthValidation:
    def test_invalid_fixed_bandwidth(self):
        with pytest.raises(ValueError, match="positive"):
            ProtocolConfig(bandwidth=-1.0)

    def test_kde_config_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ProtocolConfig(kde_lam=0.0)


class TestKdeLogDensity:
    def test_single_particle_standard_value(self):
        value = kde_log_density(np.array([[0.0]]), np.array([[0.0]]), lam=1.0)[0]
        np.testing.assert_allclose(value, -0.5 * np.log(2.0 * np.pi), rtol=1e-15)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            particles = rng.standard_normal((rng.integers(1, 8), 2))
            query = rng.standard_normal(2)
            lam = float(rng.uniform(0.3, 2.0))
            direct = np.log(
                np.mean(
                    [
                        np.exp(-np.sum((query - p) ** 2) / (2 * lam * lam))
                        / (2 * np.pi * lam * lam)
                        for p in particles
                    ]
                )
            )
            np.testing.assert_allclose(
                kde_log_density_broadcast(particles, query[None], lam)[0], direct, rtol=1e-12
            )

    def test_symmetric_pair_mixing_correction(self):
        # two particles symmetric about the query contribute equally
        particles = np.array([[-1.0], [1.0]])
        value = kde_log_density(particles, np.array([[0.0]]), lam=0.7)
        single = kde_log_density(particles[:1], np.array([[0.0]]), lam=0.7)
        np.testing.assert_allclose(value, single, rtol=1e-14)

    def test_grid_integral_is_one(self):
        rng = np.random.default_rng(42)
        particles = rng.uniform(-2, 2, size=(20, 1))
        x = np.linspace(-12.0, 12.0, 4001)
        log_density = kde_log_density(particles, x[:, None], lam=0.55)
        mass = np.trapezoid(np.exp(log_density), x)
        assert abs(mass - 1.0) < 1e-3

    def test_empty_particles_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            kde_log_density(np.zeros((0, 1)), np.array([[0.0]]), lam=1.0)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        particles = rng.standard_normal((5, 1))
        queries = rng.standard_normal((7, 1))
        batch = kde_log_density(particles, queries, lam=0.55)
        singles = [kde_log_density(particles, q[None], lam=0.55)[0] for q in queries]
        np.testing.assert_allclose(batch, singles, rtol=1e-14)


class TestKdeLogDensityGrad:
    def test_zero_at_single_particle_mode(self):
        grad = kde_log_density_grad(np.array([[1.0, -2.0]]), np.array([[1.0, -2.0]]), lam=0.55)
        np.testing.assert_array_equal(grad, np.zeros((1, 2)))

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            particles = rng.standard_normal((rng.integers(1, 10), 2))
            query = rng.standard_normal(2)
            lam = float(rng.uniform(0.4, 1.5))
            grad = kde_log_density_grad(particles, query[None], lam)[0]
            fd = fd_gradient(lambda q: kde_log_density_broadcast(particles, q[None], lam)[0], query)
            assert relative_error(grad, fd) < 1e-5

    def test_duplicate_particle_invariance(self):
        query = np.array([[0.3]])
        one = kde_log_density_grad(np.array([[1.0]]), query, lam=0.55)
        two = kde_log_density_grad(np.array([[1.0], [1.0]]), query, lam=0.55)
        np.testing.assert_allclose(two, one, rtol=1e-14)

    def test_single_particle_closed_form(self):
        # one Gaussian component: score is (particle - query) / lam^2
        particle = np.array([[2.0, -1.0]])
        query = np.array([[0.5, 0.5]])
        grad = kde_log_density_grad(particle, query, lam=0.55)
        np.testing.assert_allclose(grad, (particle - query) / 0.55**2, rtol=1e-14)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(9)
        particles = rng.standard_normal((6, 3))
        queries = rng.standard_normal((5, 3))
        batch = kde_log_density_grad(particles, queries, lam=0.8)
        singles = np.stack([kde_log_density_grad(particles, q[None], lam=0.8)[0] for q in queries])
        np.testing.assert_allclose(batch, singles, rtol=1e-14)

    def test_no_queries_give_no_rows(self):
        grad = kde_log_density_grad(np.ones((4, 3)), np.zeros((0, 3)), lam=0.8)
        assert grad.shape == (0, 3)

    @settings(max_examples=50, deadline=2000, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 40), d=st.integers(1, 5),
           lam=st.floats(0.3, 2.0))
    def test_property_matches_finite_differences(self, data, n, d, lam):
        coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
        particles = data.draw(hnp.arrays(float, (n, d), elements=coords))
        query = data.draw(hnp.arrays(float, d, elements=coords))
        grad = kde_log_density_grad(particles, query[None], lam)[0]
        fd = fd_gradient(lambda x: kde_log_density_broadcast(particles, x[None], lam)[0], query)
        # central differences of a log density of size up to ~200 carry ~1e-7 of round-off
        np.testing.assert_array_less(np.abs(grad - fd), 1e-5 * (1.0 + np.abs(fd)))


# The three shapes of the simulator: the 1-D mixture (its KL grid as the
# queries), the desk classifier head and an MNIST-shaped head.  Queries other
# than the grid are particles of a second set, as in the tilted targets.
NORTH_STAR_SHAPES = {
    "mixture": dict(n=100, d=1, scale=3.0, lam=0.55),
    "desk": dict(n=30, d=104, scale=3.0, lam=10.0),
    "wide": dict(n=100, d=1010, scale=1.0, lam=10.0),
}


def north_star_case(name):
    shape = NORTH_STAR_SHAPES[name]
    rng = np.random.default_rng(11)
    particles = rng.normal(scale=shape["scale"], size=(shape["n"], shape["d"]))
    if name == "mixture":
        query = np.linspace(-10.0, 10.0, 2001)[:, None]
    else:
        query = particles + rng.normal(scale=0.5 * shape["scale"], size=particles.shape)
    return particles, query, shape["lam"]


class TestKdeMatchesBroadcastOracle:
    """The GEMM-form KDE score agrees with the literal (Q, N, d) broadcast formula."""

    @pytest.mark.parametrize("name", sorted(NORTH_STAR_SHAPES))
    def test_north_star_shapes(self, name):
        particles, query, lam = north_star_case(name)
        assert max_relative_deviation(
            kde_log_density_grad(particles, query, lam),
            kde_log_density_grad_broadcast(particles, query, lam),
        ) < 1e-12

    @pytest.mark.parametrize("name", sorted(NORTH_STAR_SHAPES))
    def test_single_query(self, name):
        particles, query, lam = north_star_case(name)
        point = query[len(query) // 3][None]
        grad = kde_log_density_grad(particles, point, lam)
        assert grad.shape == point.shape
        assert max_relative_deviation(
            grad, kde_log_density_grad_broadcast(particles, point, lam)
        ) < 1e-12

    @pytest.mark.parametrize("name", sorted(NORTH_STAR_SHAPES))
    def test_query_far_from_every_particle(self, name):
        # every kernel weight exp(-||q - theta||^2 / 2 lam^2) underflows to 0
        # unless the weights are max-shifted before exponentiation
        particles, _, lam = north_star_case(name)
        far = particles.mean(axis=0, keepdims=True) + 1e3
        grad = kde_log_density_grad(particles, far, lam)
        assert np.all(np.isfinite(grad))
        assert max_relative_deviation(
            grad, kde_log_density_grad_broadcast(particles, far, lam)
        ) < 1e-12

    @staticmethod
    def mixed_batch(name):
        """Near queries alternating with far ones, at which every kernel weight underflows."""
        particles, query, lam = north_star_case(name)
        mean = particles.mean(axis=0)
        near = query[::len(query) // 4][:4]
        far = np.stack([mean + 1e3, mean - 1e3, mean + 1e2])
        batch = np.empty((7, particles.shape[1]))
        batch[0::2], batch[1::2] = near, far
        return particles, batch, lam

    @pytest.mark.parametrize("name", sorted(NORTH_STAR_SHAPES))
    def test_near_and_far_queries_in_one_batch(self, name):
        particles, batch, lam = self.mixed_batch(name)
        grad = kde_log_density_grad(particles, batch, lam)
        assert np.all(np.isfinite(grad))
        want = kde_log_density_grad_broadcast(particles, batch, lam)
        for row, exact in zip(grad, want):
            assert max_relative_deviation(row, exact) < 1e-12

    @pytest.mark.parametrize("name", sorted(NORTH_STAR_SHAPES))
    def test_each_row_is_the_score_of_its_query_alone(self, name):
        # a one-row product runs as a GEMV, which rounds differently from the GEMM
        particles, batch, lam = self.mixed_batch(name)
        grad = kde_log_density_grad(particles, batch, lam)
        for row, point in zip(grad, batch):
            alone = kde_log_density_grad(particles, point[None], lam)[0]
            assert max_relative_deviation(row, alone) < 1e-12

    @pytest.mark.parametrize("name", sorted(NORTH_STAR_SHAPES))
    def test_particle_order_does_not_matter(self, name):
        particles, batch, lam = self.mixed_batch(name)
        order = np.random.default_rng(13).permutation(len(particles))
        grad = kde_log_density_grad(particles, batch, lam)
        permuted = kde_log_density_grad(particles[order], batch, lam)
        for row, other in zip(grad, permuted):
            assert max_relative_deviation(other, row) < 1e-12


def grid_particles(n, offset=0.0):
    return offset + np.random.default_rng(12).normal(scale=3.0, size=(n, 1))


class TestKde1dMatchesBroadcastOracle:
    """The shifted-GEMM KDE log density agrees with the broadcast formula and stays finite."""

    GRID = np.linspace(-10.0, 10.0, 2001)

    def check(self, particles, x, lam):
        value = kde_log_density(particles, x[:, None], lam)
        assert value.shape == x.shape
        assert np.all(np.isfinite(value))
        assert max_relative_deviation(
            value, kde_log_density_broadcast(particles, x[:, None], lam)) < 1e-12

    @pytest.mark.parametrize("lam", [0.05, 0.55, 10.0])
    def test_grid_against_100_particles(self, lam):
        self.check(grid_particles(100), self.GRID, lam)

    @pytest.mark.parametrize("particles", [[[0.3]], [[0.3], [0.3]]], ids=["one", "identical-pair"])
    @pytest.mark.parametrize("lam", [0.05, 0.55])
    def test_one_and_two_identical_particles(self, particles, lam):
        self.check(np.array(particles), self.GRID, lam)

    @pytest.mark.parametrize("offset", [-1e3, 1e3])
    @pytest.mark.parametrize("lam", [0.05, 0.55, 10.0])
    def test_particles_far_outside_the_grid(self, offset, lam):
        self.check(grid_particles(100, offset), self.GRID, lam)

    def test_unsorted_points(self):
        self.check(grid_particles(100), np.random.default_rng(13).permutation(self.GRID), 0.55)

    @pytest.mark.parametrize("lam", [0.05, 0.55, 10.0])
    def test_single_point(self, lam):
        self.check(grid_particles(100), self.GRID[[len(self.GRID) // 3]], lam)

    def test_shapes_refused(self):
        with pytest.raises(ValueError) as err:
            kde_log_density(np.zeros((3, 2)), self.GRID[:, None], 0.55)
        assert str(err.value) == "expected (N, 1) particles, got shape (3, 2)"
        for query in (self.GRID, self.GRID[:, None].repeat(2, axis=1)):
            with pytest.raises(ValueError) as err:
                kde_log_density(np.zeros((3, 1)), query, 0.55)
            assert str(err.value) == f"expected an (M, 1) array, got shape {query.shape}"


class TestKdeMemory:
    def test_score_never_builds_the_pairwise_difference_tensor(self):
        # At Q = N = 100, d = 1010 a (Q, N, d) float tensor is 80 MB; the GEMM
        # form needs a few (Q, d) and (Q, N) arrays, well under 8 MB.
        rng = np.random.default_rng(5)
        particles = rng.standard_normal((100, 1010))
        query = rng.standard_normal((100, 1010))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            kde_log_density_grad(particles, query, lam=10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 8e6

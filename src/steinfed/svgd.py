"""Stein variational transport update with an AdaGrad step rule.

The direction applied to particle theta_n is

    phi(theta_n) = (1/N) sum_j [ kappa(theta_j, theta_n) * score(theta_j)
                                 + grad_{theta_j} kappa(theta_j, theta_n) ]

where ``score`` is the gradient of the log target density evaluated at each
particle.  Step sizes are scaled per coordinate by AdaGrad with an
accumulator of squared directions, a plain (N, d) array.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .kernels import _as_particle_matrix, median_bandwidth, pairwise_sq_dists

# Row-wise score function: maps an (N, d) particle array to (N, d) gradients.
TargetGradient = Callable[[np.ndarray], np.ndarray]


def svgd_direction(
    particles: np.ndarray,
    target: TargetGradient,
    bandwidth: float | None = None,
) -> np.ndarray:
    """Transport direction for every particle under the current target.

    ``bandwidth=None`` takes the median-heuristic bandwidth of the current
    particles at every call: ``median_bandwidth`` of the squared-distance
    matrix that the kernel matrix is made from.  A positive float fixes it.
    A single particle has no interaction terms: the kernel value at zero
    distance is 1 and its gradient vanishes, so the direction reduces to the
    particle's own score regardless of bandwidth.
    """
    theta = _as_particle_matrix(particles)
    if bandwidth is not None and not bandwidth > 0:
        raise ValueError(f"fixed bandwidth must be positive, got {bandwidth}")

    grads = np.asarray(target(theta), dtype=float)
    if grads.shape != theta.shape:
        raise ValueError(f"target gradient shape {grads.shape} does not match particles {theta.shape}")
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError("target gradient is not finite")

    n = theta.shape[0]
    if n == 1:
        return grads.copy()

    sq_dists = pairwise_sq_dists(theta, theta)
    h = bandwidth if bandwidth is not None else median_bandwidth(sq_dists)
    kmat = np.exp(np.divide(sq_dists, -h, out=sq_dists), out=sq_dists)
    # (attract + repulse) / n, with repulse = (2 / h) (theta * colsum(K) - K^T theta),
    # built in one array
    phi = theta * kmat.sum(axis=0)[:, None]
    phi -= kmat.T @ theta
    phi *= 2.0 / h
    phi += kmat.T @ grads
    phi /= n
    return phi


def adagrad_step(accumulator: np.ndarray, particles: np.ndarray, direction: np.ndarray,
                 epsilon: float, fudge: float) -> np.ndarray:
    """Apply one AdaGrad-scaled step and return the moved particles.

    The squared direction is added into ``accumulator`` in place.
    """
    theta = np.asarray(particles, dtype=float)
    phi = np.asarray(direction, dtype=float)
    if phi.shape != theta.shape:
        raise ValueError(f"direction shape {phi.shape} does not match particles {theta.shape}")
    if accumulator.shape != theta.shape:
        raise ValueError(f"accumulator shape {accumulator.shape} does not match particles {theta.shape}")
    denom = np.square(phi)
    accumulator += denom
    np.sqrt(accumulator, out=denom)
    denom += fudge
    step = epsilon * phi
    step /= denom
    step += theta
    return step


def run_svgd(
    particles: np.ndarray,
    target: TargetGradient,
    steps: int,
    epsilon: float,
    fudge: float = 1e-6,
    accumulator: np.ndarray | None = None,
    bandwidth: float | None = None,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``steps`` transport updates; return the final particles and AdaGrad accumulator.

    No input is mutated: the accumulator starts as a copy of ``accumulator``,
    or as zeros when it is None.  ``steps=0`` returns identical copies; a
    zero master step size ``epsilon`` leaves particle values unchanged while
    still advancing the accumulator.  ``project`` is applied after each step
    (support clamping).
    """
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if not epsilon >= 0:
        raise ValueError(f"master step size must be nonnegative, got {epsilon}")
    if not fudge > 0:
        raise ValueError(f"fudge factor must be positive, got {fudge}")
    theta = _as_particle_matrix(particles).copy()
    acc = np.zeros_like(theta) if accumulator is None else np.array(accumulator, dtype=float)
    for _ in range(steps):
        phi = svgd_direction(theta, target, bandwidth)
        theta = adagrad_step(acc, theta, phi, epsilon, fudge)
        if project is not None:
            theta = project(theta)
    return theta, acc

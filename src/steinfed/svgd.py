"""Stein variational transport update with an AdaGrad step rule.

The direction applied to particle theta_n is

    phi(theta_n) = (1/N) sum_j [ kappa(theta_j, theta_n) * score(theta_j)
                                 + grad_{theta_j} kappa(theta_j, theta_n) ]

where ``score`` is the gradient of the log target density evaluated at each
particle.  Step sizes are scaled per coordinate by AdaGrad with an
accumulator of squared directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import _as_particle_matrix, _median_bandwidth, pairwise_sq_dists

# Row-wise score function: maps an (N, d) particle array to (N, d) gradients.
TargetGradient = Callable[[np.ndarray], np.ndarray]


@dataclass
class AdaGradState:
    """Per-coordinate AdaGrad scaling state.

    The accumulator is allocated on first use and mutated in place on every
    step; construct a fresh state to reset the schedule.
    """

    epsilon: float = 0.05
    fudge: float = 1e-6
    accumulator: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.epsilon >= 0:
            raise ValueError(f"master step size must be nonnegative, got {self.epsilon}")
        if not self.fudge > 0:
            raise ValueError(f"fudge factor must be positive, got {self.fudge}")


def svgd_direction(
    particles: np.ndarray,
    target: TargetGradient,
    bandwidth: float | None = None,
) -> np.ndarray:
    """Transport direction for every particle under the current target.

    ``bandwidth=None`` takes the median-heuristic bandwidth of the current
    particles at every call; a positive float fixes it.  A single particle
    has no interaction terms: the kernel value at zero distance is 1 and its
    gradient vanishes, so the direction reduces to the particle's own score
    regardless of bandwidth.
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
    h = bandwidth if bandwidth is not None else _median_bandwidth(sq_dists)
    kmat = np.exp(-sq_dists / h)
    attract = kmat.T @ grads
    repulse = (2.0 / h) * (theta * kmat.sum(axis=0)[:, None] - kmat.T @ theta)
    return (attract + repulse) / n


def adagrad_step(state: AdaGradState, particles: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Apply one AdaGrad-scaled step and return the moved particles."""
    theta = np.asarray(particles, dtype=float)
    phi = np.asarray(direction, dtype=float)
    if phi.shape != theta.shape:
        raise ValueError(f"direction shape {phi.shape} does not match particles {theta.shape}")
    if state.accumulator is None:
        state.accumulator = np.zeros_like(theta)
    elif state.accumulator.shape != theta.shape:
        raise ValueError(
            f"accumulator shape {state.accumulator.shape} does not match particles {theta.shape}"
        )
    state.accumulator += phi ** 2
    return theta + state.epsilon * phi / (state.fudge + np.sqrt(state.accumulator))


def run_svgd(
    particles: np.ndarray,
    target: TargetGradient,
    steps: int,
    opt: AdaGradState,
    bandwidth: float | None = None,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Run ``steps`` transport updates and return the final particles.

    The input array is never mutated.  ``steps=0`` returns an identical
    copy; a zero master step size leaves particle values unchanged while
    still advancing the accumulator.  ``project`` is applied after each
    step (support clamping).
    """
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    theta = _as_particle_matrix(particles).copy()
    for _ in range(steps):
        phi = svgd_direction(theta, target, bandwidth)
        theta = adagrad_step(opt, theta, phi)
        if project is not None:
            theta = project(theta)
    return theta

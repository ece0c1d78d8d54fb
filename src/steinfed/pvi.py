"""Parametric (diagonal Gaussian) federated learning and unlearning baseline.

The global posterior approximation is a diagonal Gaussian held in natural
parameters eta = (eta1, eta2) = (m / v, -1 / (2 v)), and each agent owns an
additive factor eta_k with the telescoping invariant

    eta_global = eta_prior + sum_k eta_k.

A round performs L natural-gradient steps on the global iterate,

    eta <- eta - epsilon * (eta_k + (1/alpha) * grad_mu E_q[loss_k]),

with the agent's own factor frozen, then rewrites that factor through the
telescoping identity.  The expectation gradient is taken with respect to
the mean parameters mu = (E[theta], E[theta^2]) and estimated pathwise by
Monte Carlo.  Unlearning rounds flip the sign of the loss inside the
expectation.

Per-agent factors approximate likelihoods, not densities: the update can
legitimately drive a factor's eta2 nonnegative, so validity (eta2 < 0) is
enforced only where a coordinate pair is used as a Gaussian.

Every such state is a float (2, d) array: row 0 is eta1 and row 1 is eta2,
so factors add and scale with numpy's own arithmetic.  ``nat_to_moment``
returns the same form, a mean row over a variance row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import _gaussian_log_density
from .rules import at_least, nonnegative, positive

MAX_STEP_HALVINGS = 30


def _moments(mean, variance) -> tuple[np.ndarray, np.ndarray]:
    """A (mean, variance) pair as float vectors, with every variance positive."""
    mean, variance = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (mean, variance))
    if not np.all(variance > 0):
        raise ValueError("variances must be positive")
    return mean, variance


def moment_to_nat(mean, variance) -> np.ndarray:
    mean, variance = _moments(mean, variance)
    return np.stack((mean / variance, -0.5 / variance))


def _is_proper(nat: np.ndarray) -> bool:
    """True when every coordinate pair parameterizes a proper Gaussian."""
    return bool(np.all(nat[1] < 0))


def nat_to_moment(nat: np.ndarray) -> np.ndarray:
    """The (2, d) mean and variance rows of a valid Gaussian."""
    if not _is_proper(nat):
        raise ValueError("natural parameters do not describe a proper Gaussian (eta2 >= 0)")
    variance = -0.5 / nat[1]
    return np.stack((nat[0] * variance, variance))


def gaussian_log_density_moments(mean, variance, x: np.ndarray) -> np.ndarray:
    """Log density of a diagonal Gaussian given mean and variance directly."""
    mean, variance = _moments(mean, variance)
    q = np.asarray(x, dtype=float)
    if q.ndim == 1 and mean.size == 1:
        q = q[:, None]
    return _gaussian_log_density(q, mean, variance)


def expected_loss_grad_moment(
    nat: np.ndarray,
    loss,
    alpha: float,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pathwise Monte Carlo estimate of grad_mu E_q[loss].

    Draws theta_s = m + sqrt(v) * zeta_s, evaluates the loss gradients, and
    chain-rules them into gradients with respect to the mean parameters
    mu = (E[theta], E[theta^2]), returned as a (2, d) array aligned with
    (eta1, eta2).  The draws advance ``rng`` in place.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    mean, variance = nat_to_moment(nat)
    root = np.sqrt(variance)
    zeta = rng.standard_normal((n_samples, nat.shape[1]))
    theta = mean + root * zeta
    # loss gradient = -alpha * score of the tempered likelihood
    grads = -alpha * loss.neg_loss_grad(theta, alpha)
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError("loss gradient is not finite")
    grad_mean = grads.mean(axis=0)
    grad_var = (grads * zeta).mean(axis=0) / (2.0 * root)
    return np.stack((grad_mean - 2.0 * mean * grad_var, grad_var))


@dataclass(frozen=True)
class PviConfig:
    """Step structure of the parametric rounds and the Gaussian prior they start from."""

    alpha: float = 1.0
    local_iters: int = 10
    epsilon: float = 0.05
    mc_samples: int = 200
    prior_mean: float = 0.0
    prior_variance: float = 100.0 / 3.0

    def __post_init__(self) -> None:
        positive(self, "alpha", "epsilon", "prior_variance")
        nonnegative(self, "local_iters")
        at_least(1, self, "mc_samples")


def _damped_step(eta: np.ndarray, drift: np.ndarray, epsilon: float) -> np.ndarray:
    """Take eta - step*drift, halving the step until the result stays valid."""
    step = epsilon
    for _ in range(MAX_STEP_HALVINGS + 1):
        candidate = eta - step * drift
        if _is_proper(candidate):
            return candidate
        step *= 0.5
    raise FloatingPointError(
        f"no valid Gaussian within {MAX_STEP_HALVINGS} step halvings"
    )


def _pvi_round(
    global_nat: np.ndarray,
    local_nat: np.ndarray,
    loss,
    config: PviConfig,
    rng: np.random.Generator,
    sign: float,
) -> tuple[np.ndarray, np.ndarray]:
    eta = global_nat.copy()  # so that no round hands back the caller's array
    for _ in range(config.local_iters):
        grad = expected_loss_grad_moment(eta, loss, config.alpha, config.mc_samples, rng)
        drift = local_nat + (sign / config.alpha) * grad
        eta = _damped_step(eta, drift, config.epsilon)
    new_local = eta - global_nat + local_nat
    return eta, new_local


def pvi_round(
    global_nat: np.ndarray,
    local_nat: np.ndarray,
    loss,
    config: PviConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One learning round of the scheduled agent.

    Returns the new global iterate and the agent's rewritten factor
    ``new_local = new_global - old_global + old_local``, which preserves
    the telescoping invariant exactly.
    """
    return _pvi_round(global_nat, local_nat, loss, config, rng, sign=1.0)


def ulpvi_round(
    global_nat: np.ndarray,
    local_nat: np.ndarray,
    loss,
    config: PviConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One unlearning round: identical structure, flipped loss sign."""
    return _pvi_round(global_nat, local_nat, loss, config, rng, sign=-1.0)

"""Kernel and kernel-density primitives shared by the particle updates.

Two ingredients live here.  The first is the RBF kernel used by the
transport direction, kappa(x, y) = exp(-||x - y||^2 / h), together with the
median-heuristic bandwidth rule h = med^2 / ln N.  The second is an
isotropic Gaussian kernel density estimate with a fixed per-dimension
standard deviation, which turns a particle set into a differentiable
log density so that particle-based distributions can appear inside other
update targets.

The transport kernel matrix, its median bandwidth and the KDE share one
pairwise squared-distance helper written as a matrix product, so no
``(Q, N, d)`` difference tensor is ever formed.
"""

from __future__ import annotations

import numpy as np

BANDWIDTH_FLOOR = 1e-8


def _as_particle_matrix(particles: np.ndarray) -> np.ndarray:
    theta = np.asarray(particles, dtype=float)
    if theta.ndim != 2 or theta.shape[0] == 0:
        raise ValueError(f"expected a nonempty (N, d) particle array, got shape {theta.shape}")
    return theta


def _softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted softmax along ``axis``, computed in place in ``logits``."""
    logits -= logits.max(axis=axis, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=axis, keepdims=True)
    return logits


def _logsumexp(logits: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp along ``axis``; ``logits`` is overwritten."""
    peak = logits.max(axis=axis, keepdims=True)
    logits -= peak
    np.exp(logits, out=logits)
    return np.squeeze(peak, axis=axis) + np.log(logits.sum(axis=axis))


def rbf_kernel(x: np.ndarray, y: np.ndarray, h: float) -> float:
    """Evaluate kappa(x, y) = exp(-||x - y||^2 / h) for two points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"point shapes differ: {x.shape} vs {y.shape}")
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    return float(np.exp(-np.sum((x - y) ** 2) / h))


def rbf_kernel_grad_first(x: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """Gradient of kappa(x, y) with respect to its first argument."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -(2.0 / h) * (x - y) * rbf_kernel(x, y, h)


def median_bandwidth(particles: np.ndarray) -> float:
    """Median-heuristic bandwidth: squared median pairwise distance over ln N.

    Distances are plain Euclidean distances (not squared); an even count of
    pairs takes the mean of the two middle values.  The result is floored at
    a small positive constant so degenerate particle sets stay usable.
    """
    theta = _as_particle_matrix(particles)
    return _median_bandwidth(pairwise_sq_dists(theta, theta))


def _median_bandwidth(sq_dists: np.ndarray) -> float:
    """``median_bandwidth`` from the particles' (N, N) squared-distance matrix."""
    n = sq_dists.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least 2 particles")
    med = float(np.median(np.sqrt(sq_dists[np.triu_indices(n, 1)])))
    return max(med * med / np.log(n), BANDWIDTH_FLOOR)


def _as_rows(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    """``x`` as a float (M, dim) matrix, and whether it was a single ``(dim,)`` row."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"input shape {np.asarray(x).shape} does not match dimension {dim}")
    return arr, single


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray, row_norms: bool = True) -> np.ndarray:
    """Squared distances ||x_i - y_j||^2 between rows, in expanded-square GEMM form.

    ``row_norms=False`` leaves out the ||x_i||^2 term, constant along each row;
    otherwise round-off below zero is floored at 0.
    """
    sq = (y ** 2).sum(axis=1) - 2.0 * x @ y.T
    if row_norms:
        sq += (x ** 2).sum(axis=1)[:, None]
        np.maximum(sq, 0.0, out=sq)
    return sq


def _kde_logits(theta: np.ndarray, q: np.ndarray, lam: float) -> np.ndarray:
    """Log kernel weights of each query over the particles.

    The weights lack the ||q_i||^2 / (2 lam^2) term; a softmax over a row
    does not need it.
    """
    logits = pairwise_sq_dists(q, theta, row_norms=False)
    logits /= -2.0 * lam * lam
    return logits


def kde_log_density(particles: np.ndarray, query: np.ndarray, lam: float) -> float | np.ndarray:
    """Log density of an isotropic Gaussian KDE centred on the particles.

    Each particle contributes a Gaussian with per-dimension standard
    deviation ``lam``; mixture weights are uniform.  ``query`` may be a
    single point ``(d,)`` or a batch ``(Q, d)``.
    """
    theta = _as_particle_matrix(particles)
    n, d = theta.shape
    q, single = _as_rows(query, d)
    log_norm = 0.5 * d * np.log(2.0 * np.pi * lam * lam) + np.log(n)
    out = _logsumexp(_kde_logits(theta, q, lam), axis=1)
    out -= (q ** 2).sum(axis=1) / (2.0 * lam * lam) + log_norm
    return float(out[0]) if single else out


def kde_log_density_grad(particles: np.ndarray, query: np.ndarray, lam: float) -> np.ndarray:
    """Gradient of the KDE log density with respect to the query point(s).

    It is ``(W @ theta - q) / lam^2`` with ``W`` the row-normalised kernel
    weights of each query over the particles.
    """
    theta = _as_particle_matrix(particles)
    d = theta.shape[1]
    q, single = _as_rows(query, d)
    weights = _softmax(_kde_logits(theta, q, lam), axis=1)
    grad = (weights @ theta - q) / (lam * lam)
    return grad[0] if single else grad

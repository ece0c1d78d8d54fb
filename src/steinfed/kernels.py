"""Kernel and kernel-density primitives shared by the particle updates.

Two ingredients live here.  The first is the RBF kernel used by the
transport direction, kappa(x, y) = exp(-||x - y||^2 / h), together with the
median-heuristic bandwidth rule h = med^2 / ln N.  The second is an
isotropic Gaussian kernel density estimate with a fixed per-dimension
standard deviation, which turns a particle set into a differentiable
log density so that particle-based distributions can appear inside other
update targets.

The transport kernel matrix, its median bandwidth and the KDE score of any
dimension share one pairwise squared-distance helper written as a matrix
product, so no ``(Q, N, d)`` difference tensor is ever formed.  The KDE log
density is evaluated only on the mixture's one-dimensional KL grid, so it
takes ``(N, 1)`` particles: each row of logits is shifted by its nearest
particle inside the GEMM that makes it, so no pass over the ``(Q, N)``
logits finds or subtracts a row maximum.

One buffer per kernel call: each ``(Q, N)`` result is allocated once and
finished with in-place steps, so a call never holds two large short-lived
temporaries at once.  An expression such as ``a - 2.0 * x @ y.T`` keeps its
product alive while it allocates the difference.  At the 2001-point KL grid
against 100 particles (1.6 MB per array) that pair of temporaries makes
glibc trim the heap when they are freed and fault the pages back in on the
next call: the distance took 2.0 ms a call where one buffer takes 0.3 ms
(numpy 2.4, one core of a Xeon).  An in-place step is used only where it is
bit-exact, so results are unchanged to the last bit: the same operations on
the same operands, a commuted ``+`` or ``*``, or a sign moved through a
division.
"""

from __future__ import annotations

import functools
import math

import numpy as np

BANDWIDTH_FLOOR = 1e-8

# Points per block of ``kde_log_density``: a (1024, 100) block of logits
# is 0.8 MB and stays in a core's L2 cache.
KDE_ROWS = 1024


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


def median_bandwidth(sq_dists: np.ndarray) -> float:
    """Median-heuristic bandwidth from the particles' (N, N) squared-distance matrix.

    It is the squared median pairwise distance over ln N.  Distances are
    plain Euclidean distances (not squared); an even count of pairs takes
    the mean of the two middle values.  The result is floored at a small
    positive constant so degenerate particle sets stay usable.

    The square root is monotone, so the middle distances are the roots of
    the middle squared distances; a pair of them is averaged as ``np.median``
    averages it.  One partition places the upper middle value, and the lower
    one of an even count is the largest value below it.
    """
    sq_dists = np.asarray(sq_dists, dtype=float)
    if sq_dists.ndim != 2 or sq_dists.shape[0] != sq_dists.shape[1]:
        raise ValueError(f"expected an (N, N) squared-distance matrix, got shape {sq_dists.shape}")
    n = sq_dists.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least 2 particles")
    pairs = sq_dists[_upper_pairs(n)]
    mid = pairs.size // 2
    pairs.partition(mid)
    med = math.sqrt(pairs[mid])
    if pairs.size % 2 == 0:
        med = (math.sqrt(pairs[:mid].max()) + med) / 2
    return max(med * med / np.log(n), BANDWIDTH_FLOOR)


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> np.ndarray:
    """Read-only (n, n) mask of the pairs i < j, selected in ``np.triu_indices`` order."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def _as_rows(x: np.ndarray, dim: int | None = None) -> np.ndarray:
    """``x`` as a float (M, dim) matrix of rows; ``dim=None`` takes the width of ``x``."""
    arr = np.asarray(x, dtype=float)
    if dim is None and arr.ndim:
        dim = arr.shape[-1]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected an (M, {dim}) array, got shape {arr.shape}")
    return arr


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray, row_norms: bool = True) -> np.ndarray:
    """Squared distances ||x_i - y_j||^2 between rows, in expanded-square GEMM form.

    ``row_norms=False`` leaves out the ||x_i||^2 term, constant along each row;
    otherwise round-off below zero is floored at 0.  ``np.dot`` writes the
    product into the one ``(Q, N)`` buffer; unlike ``@`` it stays on BLAS at
    inner dimension 1, where each entry is a single product either way.
    """
    sq = np.dot(2.0 * x, y.T)
    y_norms = (y ** 2).sum(axis=1)
    np.subtract(y_norms, sq, out=sq)
    if row_norms:
        sq += (y_norms if x is y else (x ** 2).sum(axis=1))[:, None]
        np.maximum(sq, 0.0, out=sq)
    return sq


def kde_log_density(particles: np.ndarray, query: np.ndarray, lam: float) -> np.ndarray:
    """Log density at the ``(Q, 1)`` query points of the Gaussian KDE of ``(N, 1)`` particles.

    Each particle contributes a Gaussian with standard deviation ``lam``;
    mixture weights are uniform.  Each point's logits are shifted by its
    nearest particle, found by binary search in the sorted particles, so the
    largest kernel weight of a row is about ``exp(0)``: it cannot overflow,
    and its log stays finite for a point far from every particle.  With
    ``c = 1 / (2 lam^2)`` and the shift ``m = c min_j (x - theta_j)^2``, the
    shifted logit ``m - c (x - theta_j)^2`` is the product of the row
    ``[x, 1, m - c x^2]`` and the column ``[2 c theta_j, -c theta_j^2, 1]``.
    Blocks of ``KDE_ROWS`` points take one GEMM for their logits, one
    in-place ``exp`` and one GEMV against a ones vector for the row sums.
    """
    theta = _as_particle_matrix(particles)
    n, d = theta.shape
    if d != 1:
        raise ValueError(f"expected (N, 1) particles, got shape {theta.shape}")
    x = _as_rows(query, 1)[:, 0]
    c = 1.0 / (2.0 * lam * lam)
    theta = theta[:, 0]
    ordered = np.sort(theta)
    right = np.searchsorted(ordered, x).clip(max=n - 1)
    shift = np.minimum((x - ordered[right - (right > 0)]) ** 2, (x - ordered[right]) ** 2)
    shift *= c
    rows = np.column_stack((x, np.ones_like(x), shift - c * x * x))
    ones = np.ones(n)
    cols = np.stack((2.0 * c * theta, -c * theta ** 2, ones))
    sums = np.empty(x.size)
    block = np.empty((min(KDE_ROWS, x.size), n))
    for start in range(0, x.size, KDE_ROWS):
        part = slice(start, start + KDE_ROWS)
        logits = block[:sums[part].size]
        np.dot(rows[part], cols, out=logits)
        np.exp(logits, out=logits)
        np.dot(logits, ones, out=sums[part])
    out = np.log(sums, out=sums)
    out -= shift
    out -= 0.5 * np.log(2.0 * np.pi * lam * lam) + np.log(n)
    return out


def kde_log_density_grad(particles: np.ndarray, query: np.ndarray, lam: float) -> np.ndarray:
    """Gradient of the KDE log density with respect to the ``(Q, d)`` query points.

    It is ``(W @ theta - q) / lam^2`` with ``W`` the row-normalised kernel
    weights of each query over the particles.  The log weights lack the
    ||q_i||^2 / (2 lam^2) term; a softmax over a row does not need it.
    """
    theta = _as_particle_matrix(particles)
    d = theta.shape[1]
    q = _as_rows(query, d)
    logits = pairwise_sq_dists(q, theta, row_norms=False)
    logits /= -2.0 * lam * lam
    weights = _softmax(logits, axis=1)
    grad = weights @ theta
    grad -= q
    grad /= lam * lam
    return grad

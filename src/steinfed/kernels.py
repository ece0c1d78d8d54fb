"""Kernel and kernel-density primitives shared by the particle updates.

Two ingredients live here.  The first is the RBF kernel used by the
transport direction, kappa(x, y) = exp(-||x - y||^2 / h), together with the
median-heuristic bandwidth rule h = med^2 / ln N.  The second is an
isotropic Gaussian kernel density estimate with a fixed per-dimension
standard deviation, which turns a particle set into a differentiable
log density so that particle-based distributions can appear inside other
update targets.

The transport kernel matrix and its median bandwidth come from one pairwise
squared-distance helper written as a matrix product, and the KDE score of
any dimension writes its log weights with one GEMM, so no ``(Q, N, d)``
difference tensor is ever formed.  The KDE log density is evaluated only on
the mixture's one-dimensional KL grid, so it takes ``(N, 1)`` particles:
each row of logits is shifted by its nearest particle inside the GEMM that
makes it, so no pass over the ``(Q, N)`` logits finds or subtracts a row
maximum.

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

# A row of the KDE score whose kernel weights sum below this is recomputed
# with max-shifted logits.  Above it, a weight that underflows to a subnormal
# or to zero is off by at most tiny * eps, so fewer than 1 / eps such
# weights move the sum by less than one rounding.
SCORE_SUM_FLOOR = np.finfo(float).tiny / np.finfo(float).eps

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


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distances ||x_i - y_j||^2 between rows, in expanded-square GEMM form.

    Round-off below zero is floored at 0.  ``np.dot`` writes the product into
    the one ``(Q, N)`` buffer; unlike ``@`` it stays on BLAS at inner
    dimension 1, where each entry is a single product either way.
    """
    sq = np.dot(2.0 * x, y.T)
    y_norms = (y ** 2).sum(axis=1)
    np.subtract(y_norms, sq, out=sq)
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
    weights of each query over the particles.  With ``c = 1 / (2 lam^2)``
    the log weight ``-c ||q_i - theta_j||^2 <= 0`` is the product of the row
    ``[2c q_i, -c ||q_i||^2, 1]`` and the column ``[theta_j; 1; -c ||theta_j||^2]``,
    so one GEMM and one in-place ``exp`` give the weights, with no pass for a
    row maximum.  From ``d = N`` on, copying ``theta`` into the columns costs
    more than the ``(Q, N)`` weights, so the GEMM takes ``q`` and ``theta`` as
    they are and the two norm terms are added to its result.  A GEMV gives
    the row sums ``s``, and each row is divided by its sum on the smaller of
    the ``(Q, N)`` weights and the ``(Q, d)`` product.  A row with
    ``s < SCORE_SUM_FLOOR``, a query far from every particle, is recomputed
    through the max-shifted softmax of its logits without ``-c ||q_i||^2``.
    """
    theta = _as_particle_matrix(particles)
    n, d = theta.shape
    q = _as_rows(query, d)
    m = q.shape[0]
    c = 1.0 / (2.0 * lam * lam)
    row_norms = np.vecdot(q, q)
    row_norms *= -c
    col_norms = np.vecdot(theta, theta)
    col_norms *= -c
    if d < n:
        operands = np.empty((m + n, d + 2))
        rows, cols = operands[:m], operands[m:]
        np.multiply(q, 2.0 * c, out=rows[:, :d])
        rows[:, d] = row_norms
        rows[:, d + 1] = 1.0
        cols[:, :d] = theta
        cols[:, d] = 1.0
        cols[:, d + 1] = col_norms
        weights = np.dot(rows, cols.T)
    else:
        weights = np.dot(q, theta.T)
        weights *= 2.0 * c
        weights += col_norms
        weights += row_norms[:, None]
    np.exp(weights, out=weights)
    sums = weights @ np.ones(n)
    if sums.min(initial=np.inf) < SCORE_SUM_FLOOR:
        far = sums < SCORE_SUM_FLOOR
        logits = np.dot(q[far], theta.T)
        logits *= 2.0 * c
        logits += col_norms
        weights[far] = _softmax(logits, axis=1)
        sums[far] = 1.0
    if d < n:
        grad = weights @ theta
        grad /= sums[:, None]
    else:
        weights /= sums[:, None]
        grad = weights @ theta
    grad -= q
    grad *= 2.0 * c
    return grad

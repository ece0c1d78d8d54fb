"""Kernel and kernel-density primitives shared by the particle updates.

Two ingredients live here.  The first is the RBF kernel used by the
transport direction, kappa(x, y) = exp(-||x - y||^2 / h), together with the
median-heuristic bandwidth rule h = med^2 / ln N, both from one pairwise
squared-distance matrix written as a matrix product.  The second is an
isotropic Gaussian kernel density estimate with a fixed per-dimension
standard deviation, which turns a particle set into a differentiable
log density so that particle-based distributions can appear inside other
update targets.  The KDE log density and its score take their log kernel
weights from one GEMM, so no ``(Q, N, d)`` difference tensor is ever formed.

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

# A row of the KDE or its score whose kernel weights sum below this is
# recomputed with max-shifted logits.  Above it, a weight that underflows to
# a subnormal or to zero is off by at most tiny * eps, so fewer than 1 / eps
# such weights move the sum by less than one rounding.
SCORE_SUM_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


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


def pairwise_sq_dists(theta: np.ndarray) -> np.ndarray:
    """Squared distances ||theta_i - theta_j||^2 between rows, in expanded-square GEMM form.

    Round-off below zero is floored at 0.  ``np.dot`` writes the product into
    the one ``(N, N)`` buffer; unlike ``@`` it stays on BLAS at inner
    dimension 1, where each entry is a single product either way.
    """
    sq = np.dot(2.0 * theta, theta.T)
    norms = (theta ** 2).sum(axis=1)
    np.subtract(norms, sq, out=sq)
    sq += norms[:, None]
    np.maximum(sq, 0.0, out=sq)
    return sq


def _log_weights(theta: np.ndarray, q: np.ndarray, c: float) -> np.ndarray:
    """The ``(Q, N)`` log kernel weights ``-c ||q_i - theta_j||^2`` from one GEMM.

    Below ``d = N`` the GEMM multiplies the rows ``[2c q_i, -c ||q_i||^2, 1]``
    by the columns ``[theta_j; 1; -c ||theta_j||^2]``.  From ``d = N`` on,
    copying ``theta`` into the columns costs more than the ``(Q, N)`` result,
    so the GEMM takes ``q`` and ``theta`` as they are and the two norm terms
    are added to its result.
    """
    n, d = theta.shape
    m = q.shape[0]
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
        logits = np.dot(rows, cols.T)
    else:
        logits = np.dot(q, theta.T)
        logits *= 2.0 * c
        logits += col_norms
        logits += row_norms[:, None]
    return logits


def _far_logits(theta: np.ndarray, q: np.ndarray, c: float) -> np.ndarray:
    """The log kernel weights without ``-c ||q_i||^2``, for rows far from every particle."""
    col_norms = np.vecdot(theta, theta)
    col_norms *= -c
    logits = np.dot(q, theta.T)
    logits *= 2.0 * c
    logits += col_norms
    return logits


def kde_log_density(particles: np.ndarray, query: np.ndarray, lam: float) -> np.ndarray:
    """Log density at the ``(Q, d)`` query points of the Gaussian KDE of ``(N, d)`` particles.

    Each particle contributes an isotropic Gaussian with standard deviation
    ``lam``; mixture weights are uniform.  It is the log of the row sums
    ``s`` of the kernel weights minus ``(d / 2) log(2 pi lam^2) + log N``.
    A row with ``s < SCORE_SUM_FLOOR`` is recomputed as the max-shifted
    log-sum-exp of its logits without ``-c ||q_i||^2``, plus that term.
    """
    theta = _as_particle_matrix(particles)
    n, d = theta.shape
    q = _as_rows(query, d)
    c = 1.0 / (2.0 * lam * lam)
    weights = _log_weights(theta, q, c)
    np.exp(weights, out=weights)
    sums = weights @ np.ones(n)
    far = sums < SCORE_SUM_FLOOR
    sums[far] = 1.0
    out = np.log(sums, out=sums)
    if far.any():
        rows = q[far]
        out[far] = _logsumexp(_far_logits(theta, rows, c), axis=1) - c * np.vecdot(rows, rows)
    out -= 0.5 * d * np.log(2.0 * np.pi * lam * lam) + np.log(n)
    return out


def kde_log_density_grad(particles: np.ndarray, query: np.ndarray, lam: float) -> np.ndarray:
    """Gradient of the KDE log density with respect to the ``(Q, d)`` query points.

    It is ``(W @ theta - q) / lam^2`` with ``W`` the row-normalised kernel
    weights of each query over the particles.  A GEMV gives the row sums
    ``s``, and each row is divided by its sum on the smaller of the ``(Q, N)``
    weights and the ``(Q, d)`` product.  A row with ``s < SCORE_SUM_FLOOR``
    is recomputed through the max-shifted softmax of its logits without
    ``-c ||q_i||^2``.
    """
    theta = _as_particle_matrix(particles)
    n, d = theta.shape
    q = _as_rows(query, d)
    c = 1.0 / (2.0 * lam * lam)
    weights = _log_weights(theta, q, c)
    np.exp(weights, out=weights)
    sums = weights @ np.ones(n)
    if sums.min(initial=np.inf) < SCORE_SUM_FLOOR:
        far = sums < SCORE_SUM_FLOOR
        weights[far] = _softmax(_far_logits(theta, q[far], c), axis=1)
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

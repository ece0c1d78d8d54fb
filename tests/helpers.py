"""Shared numeric oracles for the test suite."""

import numpy as np
from scipy.spatial.distance import pdist
from scipy.special import logsumexp, softmax


def fd_gradient(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function at a 1-D point."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (f(up) - f(dn)) / (2.0 * eps)
    return grad


def relative_error(approx, exact):
    """Worst-case elementwise relative error with a small absolute floor."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = np.maximum(np.abs(exact), 1e-8)
    return float(np.max(np.abs(approx - exact) / scale))


def max_relative_deviation(approx, exact):
    """Largest absolute deviation relative to the largest exact magnitude."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.max(np.abs(approx - exact)) / np.max(np.abs(exact)))


def rbf_kernel(x, y, h):
    """kappa(x, y) = exp(-||x - y||^2 / h) for two points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"point shapes differ: {x.shape} vs {y.shape}")
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    return float(np.exp(-np.sum((x - y) ** 2) / h))


def rbf_kernel_grad_first(x, y, h):
    """Gradient of kappa(x, y) with respect to its first argument."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -(2.0 / h) * (x - y) * rbf_kernel(x, y, h)


def median_bandwidth_pdist(particles):
    """Median-heuristic bandwidth from scipy's exact pairwise distances."""
    med = np.median(pdist(particles))
    return med * med / np.log(particles.shape[0])


# --- literal broadcast and einsum oracles -------------------------------------
# These are the direct formulas that the GEMM forms in `steinfed.kernels` and
# `steinfed.models` replace; they build the full (Q, N, d) and (Q, n, C)
# tensors, so keep the shapes they see modest.


def kde_log_density_broadcast(particles, query, lam):
    """Gaussian KDE log density at (Q, d) queries from the (Q, N, d) difference tensor."""
    n, d = particles.shape
    sq = ((query[:, None, :] - particles[None, :, :]) ** 2).sum(axis=2)
    log_norm = 0.5 * d * np.log(2.0 * np.pi * lam * lam) + np.log(n)
    return logsumexp(-sq / (2.0 * lam * lam), axis=1) - log_norm


def kde_log_density_grad_broadcast(particles, query, lam):
    """Gaussian KDE score at (Q, d) queries from the (Q, N, d) difference tensor."""
    diff = particles[None, :, :] - query[:, None, :]
    weights = softmax(-(diff ** 2).sum(axis=2) / (2.0 * lam * lam), axis=1)
    return (weights[:, :, None] * diff).sum(axis=1) / (lam * lam)


def head_logits_einsum(heads, features, num_classes):
    """(Q, n, C) logits of flattened (f + 1, C) softmax heads, by einsum."""
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    mats = heads.reshape(heads.shape[0], features.shape[1] + 1, num_classes)
    return np.einsum("nf,qfc->qnc", design, mats)


def head_loss_einsum(heads, features, labels, num_classes):
    """Mean cross-entropy of each head, from the einsum logits."""
    logits = head_logits_einsum(heads, features, num_classes)
    log_probs = logits - logsumexp(logits, axis=2, keepdims=True)
    return -log_probs[:, np.arange(labels.size), labels].mean(axis=1)


def head_neg_loss_grad_einsum(heads, features, labels, num_classes):
    """Minus the cross-entropy gradient of each head, by einsum."""
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    onehot = np.eye(num_classes)[labels]
    resid = (softmax(head_logits_einsum(heads, features, num_classes), axis=2) - onehot) / labels.size
    return -np.einsum("nf,qnc->qfc", design, resid).reshape(heads.shape[0], -1)

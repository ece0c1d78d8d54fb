"""Shared numeric oracles for the test suite."""

import struct

import numpy as np
from scipy.spatial.distance import pdist
from scipy.special import logsumexp, softmax

from steinfed.federation import ParticleSet, distill_target_grad, tilted_grad
from steinfed.kernels import SCORE_SUM_FLOOR
from steinfed.svgd import run_svgd


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


# --- allocating oracles -------------------------------------------------------
# The expressions below are the allocating forms of the one-buffer code in
# `steinfed`, most kept verbatim from the code that it replaced; the KDE score
# is the plain expression of its GEMM form.  The new code must match them bit
# for bit, so tests compare with `np.array_equal`, not a tolerance.


def _logsumexp_in_place(logits, axis):
    peak = logits.max(axis=axis, keepdims=True)
    logits -= peak
    np.exp(logits, out=logits)
    return np.squeeze(peak, axis=axis) + np.log(logits.sum(axis=axis))


def _softmax_in_place(logits, axis):
    logits -= logits.max(axis=axis, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=axis, keepdims=True)
    return logits


def pairwise_sq_dists_allocating(x, y):
    sq = (y ** 2).sum(axis=1) - 2.0 * x @ y.T
    sq += (x ** 2).sum(axis=1)[:, None]
    np.maximum(sq, 0.0, out=sq)
    return sq


def median_bandwidth_sorted(sq_dists):
    """``kernels.median_bandwidth`` by a full sort of the pairs and ``np.mean`` of the middle."""
    n = sq_dists.shape[0]
    pairs = np.sort(sq_dists[np.triu_indices(n, 1)])
    mid = pairs.size // 2
    middle = pairs[mid:mid + 1] if pairs.size % 2 else pairs[mid - 1:mid + 1]
    med = float(np.mean(np.sqrt(middle)))
    return max(med * med / np.log(n), 1e-8)


def kde_log_density_grad_allocating(theta, q, lam):
    """The KDE score from the rows ``[2c q, -c |q|^2, 1]`` and columns ``[theta; 1; -c |theta|^2]``.

    From ``d = N`` on, the log weights are ``2c q.theta`` plus the two norm terms.
    """
    n, d = theta.shape
    c = 1.0 / (2.0 * lam * lam)
    row_norms = np.vecdot(q, q) * -c
    col_norms = np.vecdot(theta, theta) * -c
    if d < n:
        rows = np.column_stack([2.0 * c * q, row_norms, np.ones(len(q))])
        cols = np.column_stack([theta, np.ones(n), col_norms])
        logits = np.dot(rows, cols.T)
    else:
        logits = 2.0 * c * np.dot(q, theta.T) + col_norms + row_norms[:, None]
    weights = np.exp(logits)
    sums = weights @ np.ones(n)
    far = sums < SCORE_SUM_FLOOR
    weights[far] = _softmax_in_place(2.0 * c * np.dot(q[far], theta.T) + col_norms, axis=1)
    sums[far] = 1.0
    if d < n:
        grad = (weights @ theta) / sums[:, None]
    else:
        grad = (weights / sums[:, None]) @ theta
    return (grad - q) * (2.0 * c)


def svgd_direction_allocating(theta, grads, h):
    """The transport direction for precomputed scores ``grads`` and bandwidth ``h``."""
    n = theta.shape[0]
    sq_dists = pairwise_sq_dists_allocating(theta, theta)
    kmat = np.exp(-sq_dists / h)
    attract = kmat.T @ grads
    repulse = (2.0 / h) * (theta * kmat.sum(axis=0)[:, None] - kmat.T @ theta)
    return (attract + repulse) / n


def adagrad_step_allocating(accumulator, epsilon, fudge, theta, phi):
    """One AdaGrad step; returns the new accumulator and the moved particles."""
    accumulator = accumulator + phi ** 2
    return accumulator, theta + epsilon * phi / (fudge + np.sqrt(accumulator))


def tilted_target_allocating(global_ref, local_ref, loss, alpha, sign, prior, lam, theta):
    grad = kde_log_density_grad_allocating(global_ref, theta, lam)
    grad = grad - kde_log_density_grad_allocating(local_ref, theta, lam)
    grad = grad + sign * loss.neg_loss_grad(theta, alpha)
    if prior is not None:
        grad = grad + prior.score(theta)
    return grad


def distill_target_allocating(new_ref, old_ref, local_ref, lam, theta):
    grad = kde_log_density_grad_allocating(new_ref, theta, lam)
    grad = grad - kde_log_density_grad_allocating(old_ref, theta, lam)
    grad = grad + kde_log_density_grad_allocating(local_ref, theta, lam)
    return grad


def head_neg_loss_grad_allocating(design, onehot, num_classes, theta, alpha):
    """``SoftmaxHeadLoss.neg_loss_grad`` from its design matrix and one-hot labels."""
    n, rows = design.shape
    q = theta.shape[0]
    side_by_side = theta.reshape(q, rows, num_classes).transpose(1, 2, 0).reshape(rows, -1)
    logits = (design @ side_by_side).reshape(n, num_classes, q)
    resid = _softmax_in_place(logits, axis=1)
    resid -= onehot[:, :, None]
    grad = design.T @ resid.reshape(n, -1)
    grad = grad.reshape(-1, num_classes, q).transpose(2, 0, 1).reshape(q, theta.shape[1])
    return grad / (-alpha * n)


def _head_logits_allocating(design, theta, num_classes):
    """The ``(n, C, Q)`` logits of every head on every design row, as one GEMM."""
    n, rows = design.shape
    q = theta.shape[0]
    side_by_side = theta.reshape(q, rows, num_classes).transpose(1, 2, 0).reshape(rows, -1)
    return (design @ side_by_side).reshape(n, num_classes, q)


def averaged_probabilities_unblocked(theta, features, num_classes):
    """``models.averaged_class_probabilities`` from one ``(n, C, Q)`` array of every row."""
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    probs = _softmax_in_place(_head_logits_allocating(design, theta, num_classes), axis=1)
    return probs.mean(axis=2)


def head_loss_unblocked(design, labels, num_classes, theta):
    """``SoftmaxHeadLoss.loss`` from one ``(n, C, Q)`` array of every row."""
    logits = _head_logits_allocating(design, theta, num_classes)
    picked = logits[np.arange(labels.size), labels, :]
    return (_logsumexp_in_place(logits, axis=1) - picked).mean(axis=0)


def feature_map_allocating(weights, biases, x):
    x = np.asarray(x, dtype=float)
    return np.maximum(x @ weights + biases, 0.0)


def pretrain_allocating(x, y, num_classes, hidden_units, epochs, step_size, rng):
    """Weights and biases of the pretrained hidden layer, by the allocating epoch."""
    n, f = x.shape
    h = hidden_units
    w1 = rng.standard_normal((f, h)) * np.sqrt(2.0 / f)
    b1 = np.zeros(h)
    w2 = rng.standard_normal((h, num_classes)) * np.sqrt(2.0 / h)
    b2 = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(epochs):
        pre = x @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        logits = hidden @ w2 + b2
        log_probs = logits - _logsumexp_in_place(logits.copy(), axis=1)[:, None]
        resid = (np.exp(log_probs) - onehot) / n
        grad_w2 = hidden.T @ resid
        grad_b2 = resid.sum(axis=0)
        back = (resid @ w2.T) * (pre > 0.0)
        grad_w1 = x.T @ back
        grad_b1 = back.sum(axis=0)
        w2 -= step_size * grad_w2
        b2 -= step_size * grad_b2
        w1 -= step_size * grad_w1
        b1 -= step_size * grad_b1
    return w1, b1


def grid_kl_allocating(log_q, log_p, x):
    """``metrics.grid_kl`` without its validation, normalizing p on every call."""
    def normalized(log_values):
        density = _softmax_in_place(np.asarray(log_values, dtype=float).copy(), axis=0)
        return density / np.trapezoid(density, x)

    q = normalized(log_q(x))
    p = normalized(log_p(x))
    p = np.maximum(p, 1e-300)
    integrand = np.where(q > 0, q * (np.log(np.maximum(q, 1e-300)) - np.log(p)), 0.0)
    value = float(np.trapezoid(integrand, x))
    return value if value > 0.0 else 0.0


# --- the allocating classification build ---------------------------------------
# The copying forms that `steinfed.data` and the classification builder replaced,
# kept verbatim: the class centres gathered per row, the IDX scaling into a
# second array, and per-shard row copies concatenated into the pretraining pool.


def make_synthetic_allocating(num_classes, dim, n_examples, seed, center_scale=4.0, noise=1.0,
                              stream=1):
    """The features and labels of every row of ``data.synthetic_source``."""
    center_rng = np.random.default_rng([seed, 0])
    centers = center_rng.normal(0.0, center_scale, size=(num_classes, dim))
    rng = np.random.default_rng([seed, stream])
    labels = np.arange(n_examples) % num_classes
    rng.shuffle(labels)
    features = centers[labels] + noise * rng.standard_normal((n_examples, dim))
    return features, labels


def load_idx_images_allocating(path):
    """A well-formed IDX image file as a (n, rows, cols) float array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    dims = struct.unpack(">3i", data[4:16])
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.reshape(dims).astype(float) / 255.0


def partition_allocating(features, labels, num_agents, labels_per_agent, examples_per_agent,
                         seed):
    """Each shard's (features, labels) copies, then the pool's features and labels."""
    per_label = examples_per_agent // labels_per_agent
    shards = []
    for idx in range(num_agents):
        agent_id = idx + 1
        classes = tuple(range(idx * labels_per_agent, (idx + 1) * labels_per_agent))
        rng = np.random.default_rng([seed, agent_id])
        rows = []
        for cls in classes:
            candidates = np.flatnonzero(labels == cls)
            rows.append(rng.choice(candidates, size=per_label, replace=False))
        chosen = np.concatenate(rows)
        shards.append((features[chosen], labels[chosen]))
    pool_features = np.concatenate([f for f, _ in shards])
    pool_labels = np.concatenate([y for _, y in shards])
    return shards, pool_features, pool_labels


# --- the full-matrix classification build -----------------------------------------
# The draw that `steinfed.data.RowSource` replaced, kept verbatim: every training row
# as floats in one matrix, from which `partition_allocating` gathers the shards' rows.


def make_synthetic_full(num_classes, dim, n_examples, seed, center_scale=4.0, noise=1.0,
                        stream=1):
    """``make_synthetic_allocating``'s features and labels, from one draw of the whole matrix."""
    center_rng = np.random.default_rng([seed, 0])
    centers = center_rng.normal(0.0, center_scale, size=(num_classes, dim))
    rng = np.random.default_rng([seed, stream])
    labels = np.arange(n_examples) % num_classes
    rng.shuffle(labels)
    features = rng.standard_normal((n_examples, dim))
    features *= noise
    for cls, center in enumerate(centers):  # in place, so the matrix is allocated once
        features[labels == cls] += center
    return features, labels



# --- per-coordinate priors ------------------------------------------------------
# The prior formulas with one (lo, hi) or (mean, variance) pair per coordinate, which
# the scalar priors of `steinfed.models` replaced.  Filled with one value in every
# coordinate, they must give the scalar priors' draws, clamps and scores bit for bit.


class UniformPerCoordinate:
    def __init__(self, lo, hi, dim, margin):
        self.lo, self.hi, self.margin = np.full(dim, lo), np.full(dim, hi), margin
        self.dim = dim

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def log_density(self, theta):
        inside = np.all((theta >= self.lo) & (theta <= self.hi), axis=1)
        return np.where(inside, -float(np.log(self.hi - self.lo).sum()), -np.inf)

    def score(self, theta):
        assert np.all((theta > self.lo) & (theta < self.hi))
        return np.zeros_like(theta)

    def clamp(self, theta):
        return np.clip(theta, self.lo + self.margin, self.hi - self.margin)


class GaussianPerCoordinate:
    def __init__(self, mean, variance, dim):
        self.mean, self.variance = np.full(dim, mean), np.full(dim, variance)
        self.dim = dim

    def sample(self, rng, n):
        return self.mean + np.sqrt(self.variance) * rng.standard_normal((n, self.dim))

    def log_density(self, theta):
        quad = ((theta - self.mean) ** 2 / self.variance).sum(axis=-1)
        return -0.5 * (quad + np.log(2.0 * np.pi * self.variance).sum(axis=-1))

    def score(self, theta):
        return (self.mean - theta) / self.variance

    def clamp(self, theta):
        return np.asarray(theta, dtype=float)


# --- the eager round ------------------------------------------------------------
# A round that distils the scheduled agent at the end of its own round.
# `steinfed.federation` defers that distillation to the agent's next round; its
# global particles, and each agent's settled particles, must match these bit for bit.


def eager_round(server, agent, loss, config, sign):
    """Transport, then the agent's distillation at once.

    Returns the new global set and the agent's distilled set.
    """
    keep = config.persist_adagrad
    project = None if config.prior is None else config.prior.clamp

    def svgd(start, target, steps, epsilon):
        moved, acc = run_svgd(start.particles, target, steps, epsilon, config.fudge,
                              start.acc if keep else None, config.bandwidth, project)
        return ParticleSet(moved, acc if keep else None)

    new_server = svgd(server, tilted_grad(server, agent, loss, config, sign),
                      config.update_steps, config.epsilon)
    distill = distill_target_grad(new_server.particles, server.particles, agent.particles,
                                  config.kde_lam)
    return new_server, svgd(agent, distill, config.distill_steps, config.epsilon_local)

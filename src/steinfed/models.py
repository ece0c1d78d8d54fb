"""Priors, local losses, and the frozen feature extractor.

Local models expose two methods consumed by the federation layer:

``loss(theta)``
    Loss of each row of an ``(M, d)`` matrix of parameter vectors.

``neg_loss_grad(theta, alpha)``
    (1/alpha) times the gradient of minus the loss, i.e. the score of the
    tempered local likelihood exp(-loss/alpha), one row per parameter row.

Priors additionally expose samples, log densities, scores, and a support
clamp used to keep particles inside a bounded support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _as_particle_matrix, _as_rows, _logsumexp, _softmax
from .rules import at_least, nonnegative, positive

CLAMP_MARGIN = 1e-6


class OutOfSupportError(ValueError):
    """A point fell outside the open support of a bounded prior."""


# --- priors -----------------------------------------------------------------


def _prior_parameters(a, b, dim: int | None, noun: str) -> tuple[np.ndarray, np.ndarray]:
    """Two scalars filled to ``dim`` (default 1), or two arrays broadcast to one length."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 0 and b.ndim == 0:
        dim = 1 if dim is None else dim
        return np.full(dim, float(a)), np.full(dim, float(b))
    a, b = np.broadcast_arrays(a, b)
    a = np.array(a, dtype=float).ravel()
    b = np.array(b, dtype=float).ravel()
    if dim is not None and dim != a.size:
        raise ValueError(f"dim {dim} conflicts with {noun} length {a.size}")
    return a, b


class UniformPrior:
    """Box-uniform prior on an open axis-aligned support."""

    def __init__(self, lo, hi, dim: int | None = None):
        lo, hi = _prior_parameters(lo, hi, dim, "bound")
        if not np.all(lo < hi):
            raise ValueError("lower bounds must be strictly below upper bounds")
        self.lo = lo
        self.hi = hi
        self.dim = lo.size
        self._log_volume = float(np.log(hi - lo).sum())

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        """Normalized log density; the closed box carries the mass."""
        arr = _as_rows(theta, self.dim)
        inside = np.all((arr >= self.lo) & (arr <= self.hi), axis=1)
        return np.where(inside, -self._log_volume, -np.inf)

    def score(self, theta: np.ndarray) -> np.ndarray:
        """Gradient of the log density; the support is treated as open."""
        arr = _as_rows(theta, self.dim)
        inside = np.all((arr > self.lo) & (arr < self.hi), axis=1)
        if not np.all(inside):
            bad = arr[np.flatnonzero(~inside)[0]]
            raise OutOfSupportError(f"point {bad} is outside the prior support")
        return np.zeros_like(arr)

    def clamp(self, theta: np.ndarray) -> np.ndarray:
        """Pull escaped particles back to just inside the support boundary."""
        return np.clip(theta, self.lo + CLAMP_MARGIN, self.hi - CLAMP_MARGIN)


class GaussianPrior:
    """Diagonal Gaussian prior."""

    def __init__(self, mean, variance, dim: int | None = None):
        mean, variance = _prior_parameters(mean, variance, dim, "parameter")
        if not np.all(variance > 0):
            raise ValueError("variances must be positive")
        self.mean = mean
        self.variance = variance
        self.dim = mean.size

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + np.sqrt(self.variance) * rng.standard_normal((n, self.dim))

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        arr = _as_rows(theta, self.dim)
        quad = ((arr - self.mean) ** 2 / self.variance).sum(axis=1)
        const = float(np.log(2.0 * np.pi * self.variance).sum())
        return -0.5 * (quad + const)

    def score(self, theta: np.ndarray) -> np.ndarray:
        return (self.mean - _as_rows(theta, self.dim)) / self.variance

    def clamp(self, theta: np.ndarray) -> np.ndarray:
        """Unbounded support: clamping is the identity."""
        return np.asarray(theta, dtype=float)


# --- local losses -----------------------------------------------------------


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    mean: float | np.ndarray
    variance: float | np.ndarray

    def __post_init__(self) -> None:
        positive(self, "weight", "variance")
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=float)))
        object.__setattr__(self, "variance", np.atleast_1d(np.asarray(self.variance, dtype=float)))
        if self.mean.shape != self.variance.shape:
            raise ValueError("component mean and variance lengths differ")


class GaussianMixtureLoss:
    """Local loss whose tempered likelihood is a Gaussian mixture.

    The loss is defined as ``-alpha * log sum_i w_i N(theta; mu_i, var_i)``
    for the protocol temperature alpha, so the score of the tempered
    likelihood, ``neg_loss_grad``, is the mixture score independent of
    alpha.  Weights are normalized internally; ``loss`` reports the alpha=1
    value unless told otherwise.
    """

    def __init__(self, components: list[MixtureComponent] | tuple[MixtureComponent, ...]):
        if len(components) == 0:
            raise ValueError("mixture needs at least one component")
        dims = {c.mean.size for c in components}
        if len(dims) != 1:
            raise ValueError("mixture components have inconsistent dimensions")
        self.components = tuple(components)
        self.dim = dims.pop()
        weights = np.array([c.weight for c in components], dtype=float)
        self._log_weights = np.log(weights / weights.sum())
        self._means = np.stack([c.mean for c in components])
        self._variances = np.stack([c.variance for c in components])

    def _component_log_densities(self, arr: np.ndarray) -> np.ndarray:
        diff = arr[:, None, :] - self._means[None, :, :]
        quad = (diff ** 2 / self._variances[None, :, :]).sum(axis=2)
        const = np.log(2.0 * np.pi * self._variances).sum(axis=1)
        return self._log_weights[None, :] - 0.5 * (quad + const[None, :])

    def log_mixture_density(self, theta: np.ndarray) -> np.ndarray:
        arr = _as_rows(theta, self.dim)
        return _logsumexp(self._component_log_densities(arr), axis=1)

    def loss(self, theta: np.ndarray, alpha: float = 1.0) -> np.ndarray:
        log_mix = self.log_mixture_density(theta)
        return -alpha * log_mix

    def neg_loss_grad(self, theta: np.ndarray, alpha: float = 1.0) -> np.ndarray:
        arr = _as_rows(theta, self.dim)
        resp = _softmax(self._component_log_densities(arr), axis=1)
        comp_scores = (self._means[None, :, :] - arr[:, None, :]) / self._variances[None, :, :]
        return (resp[:, :, None] * comp_scores).sum(axis=1)


def _with_bias(features: np.ndarray) -> np.ndarray:
    """Design matrix: the features with a trailing column of ones for the bias."""
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _head_logits(design: np.ndarray, heads: np.ndarray, num_classes: int) -> np.ndarray:
    """Logits ``(n, C, Q)`` of every head on every design row, as one GEMM.

    Each row of ``heads`` is a flattened ``(f + 1, C)`` head matrix; the Q
    heads are laid side by side into one ``(f + 1, C * Q)`` matrix.  Classes
    sit on the middle axis so that reductions over them are vectorised
    across heads.
    """
    q = heads.shape[0]
    rows = design.shape[1]
    side_by_side = heads.reshape(q, rows, num_classes).transpose(1, 2, 0).reshape(rows, -1)
    return (design @ side_by_side).reshape(design.shape[0], num_classes, q)


def _head_probs(design: np.ndarray, heads: np.ndarray, num_classes: int) -> np.ndarray:
    """Softmax class probabilities ``(n, C, Q)`` of every head on every design row."""
    return _softmax(_head_logits(design, heads, num_classes), axis=1)


class SoftmaxHeadLoss:
    """Mean cross-entropy of a linear softmax head on frozen features.

    The parameter vector is the flattened ``(f + 1, C)`` matrix whose first
    ``f`` rows are the weights and last row the biases.  An empty shard
    yields a loss of exactly 0 and a zero gradient.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, num_classes: int):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels)
        if features.ndim != 2:
            raise ValueError(f"expected (n, f) features, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"label count {labels.shape} does not match feature count {features.shape[0]}"
            )
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError("labels outside [0, num_classes)")
        self.features = features
        self.labels = labels.astype(np.int64)
        self.num_classes = num_classes
        self.num_features = features.shape[1]
        self.dim = (self.num_features + 1) * num_classes
        self._design = _with_bias(features)
        self._onehot = np.zeros((features.shape[0], num_classes))
        if labels.size:
            self._onehot[np.arange(labels.size), self.labels] = 1.0

    def loss(self, theta: np.ndarray) -> np.ndarray:
        arr = _as_rows(theta, self.dim)
        if self.labels.size == 0:
            return np.zeros(arr.shape[0])
        logits = _head_logits(self._design, arr, self.num_classes)
        picked = logits[np.arange(self.labels.size), self.labels, :]
        return (_logsumexp(logits, axis=1) - picked).mean(axis=0)

    def neg_loss_grad(self, theta: np.ndarray, alpha: float = 1.0) -> np.ndarray:
        arr = _as_rows(theta, self.dim)
        if self.labels.size == 0:
            return np.zeros_like(arr)
        q = arr.shape[0]
        resid = _head_probs(self._design, arr, self.num_classes)
        resid -= self._onehot[:, :, None]
        grad = self._design.T @ resid.reshape(self.labels.size, -1)
        grad = grad.reshape(-1, self.num_classes, q).transpose(2, 0, 1).reshape(q, self.dim)
        return grad / (-alpha * self.labels.size)


# --- model-averaged prediction ----------------------------------------------


def averaged_class_probabilities(
    particles: np.ndarray, features: np.ndarray, num_classes: int
) -> np.ndarray:
    """Average softmax head probabilities over a particle ensemble."""
    theta = _as_particle_matrix(particles)
    features = np.asarray(features, dtype=float)
    num_features = features.shape[1]
    if theta.shape[1] != (num_features + 1) * num_classes:
        raise ValueError(
            f"particle dimension {theta.shape[1]} does not match head layout "
            f"({num_features} features, {num_classes} classes)"
        )
    return _head_probs(_with_bias(features), theta, num_classes).mean(axis=2)


def per_class_accuracy(
    particles: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    classes: tuple[int, ...] | None = None,
) -> dict[int, float]:
    """Accuracy of the model-averaged prediction, broken out per class.

    Ties in the averaged probabilities resolve to the lowest class index.
    Requesting a class with no test examples is an error.
    """
    labels = np.asarray(labels).astype(np.int64)
    probs = averaged_class_probabilities(particles, features, num_classes)
    predicted = np.argmax(probs, axis=1)
    wanted = tuple(sorted(set(labels.tolist()))) if classes is None else tuple(classes)
    result: dict[int, float] = {}
    for cls in wanted:
        mask = labels == cls
        if not mask.any():
            raise ValueError(f"no test examples for class {cls}")
        result[int(cls)] = float((predicted[mask] == cls).mean())
    return result


def macro_accuracy(accuracy_map: dict[int, float], classes) -> float:
    """Unweighted mean of per-class accuracies over a class subset."""
    classes = tuple(classes)
    if len(classes) == 0:
        raise ValueError("macro accuracy over an empty class set")
    missing = [c for c in classes if c not in accuracy_map]
    if missing:
        raise ValueError(f"classes {missing} missing from accuracy map")
    return float(np.mean([accuracy_map[c] for c in classes]))


# --- frozen feature extractor -------------------------------------------------


@dataclass(frozen=True)
class FeatureMapConfig:
    """Pretraining settings for the one-hidden-layer feature extractor."""

    hidden_units: int = 100
    epochs: int = 500
    step_size: float = 0.1

    def __post_init__(self) -> None:
        at_least(1, self, "hidden_units")
        nonnegative(self, "epochs")
        positive(self, "step_size")


@dataclass(frozen=True)
class FeatureMap:
    """Frozen input-to-hidden ReLU layer of a pretrained network."""

    weights: np.ndarray
    biases: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.maximum(x @ self.weights + self.biases, 0.0)

    @property
    def num_features(self) -> int:
        return self.weights.shape[1]


def pretrain_feature_map(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    config: FeatureMapConfig,
    rng: np.random.Generator,
) -> FeatureMap:
    """Fit input -> hidden ReLU -> softmax by full-batch gradient descent.

    The softmax head is discarded; only the hidden layer is returned, to be
    used as a frozen feature map.  The initial weights are drawn from ``rng``.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels).astype(np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"expected nonempty (n, f) features, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError(f"label count {y.shape} does not match feature count {x.shape[0]}")

    n, f = x.shape
    h = config.hidden_units
    w1 = rng.standard_normal((f, h)) * np.sqrt(2.0 / f)
    b1 = np.zeros(h)
    w2 = rng.standard_normal((h, num_classes)) * np.sqrt(2.0 / h)
    b2 = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0

    for _ in range(config.epochs):
        pre = x @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        logits = hidden @ w2 + b2
        log_probs = logits - _logsumexp(logits.copy(), axis=1)[:, None]
        loss = -log_probs[np.arange(n), y].mean()
        if not np.isfinite(loss):
            raise FloatingPointError("pretraining loss diverged")
        resid = (np.exp(log_probs) - onehot) / n
        grad_w2 = hidden.T @ resid
        grad_b2 = resid.sum(axis=0)
        back = (resid @ w2.T) * (pre > 0.0)
        grad_w1 = x.T @ back
        grad_b1 = back.sum(axis=0)
        w2 -= config.step_size * grad_w2
        b2 -= config.step_size * grad_b2
        w1 -= config.step_size * grad_w1
        b1 -= config.step_size * grad_b1

    return FeatureMap(weights=w1, biases=b1)

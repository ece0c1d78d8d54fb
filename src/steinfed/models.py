"""Priors, local losses, and the frozen feature extractor.

Local models expose two methods consumed by the federation layer:

``loss(theta)``
    Loss of each row of an ``(M, d)`` matrix of parameter vectors.

``neg_loss_grad(theta, alpha)``
    (1/alpha) times the gradient of minus the loss, i.e. the score of the
    tempered local likelihood exp(-loss/alpha), one row per parameter row.

Priors are config sections of two scalars, the same in every coordinate:
they hold no dimension, draw ``(N, d)`` particle arrays of any ``d``, and
take ``d`` from the rows they are given for log densities, scores, and the
support clamp that keeps particles inside a bounded support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .blocks import blocks, run_blocks
from .data import Dataset
from .kernels import _as_particle_matrix, _as_rows, _logsumexp, _softmax
from .rules import at_least, nonnegative, positive

CLAMP_MARGIN = 1e-6
# Rows per block of the head gradient.  The head loss and the evaluation run
# up to HEAD_ROWS rows as one block and more in blocks of up to EVAL_ROWS: see
# ``_eval_blocks``.  Desk's 200-row shards and 400-row test set are one block:
# at its shapes a thread hand-off costs more than it saves.
HEAD_ROWS = 512
EVAL_ROWS = 256
# Design columns per block of the head gradient's ``design.T @ resid``.
HEAD_COLS = 51
# Input rows per block of the feature map's layer, and input columns per block
# of pretraining's first-layer gradient.
INPUT_ROWS = 2500
INPUT_COLS = 196


class OutOfSupportError(ValueError):
    """A point fell outside the open support of a bounded prior."""


# --- priors -----------------------------------------------------------------


def _gaussian_log_density(x: np.ndarray, mean, variance) -> np.ndarray:
    """Diagonal-Gaussian log density on the last axis; (M, 1, d) x, (K, d) parameters -> (M, K)."""
    quad = ((x - mean) ** 2 / variance).sum(axis=-1)
    return -0.5 * (quad + np.log(2.0 * np.pi * variance).sum(axis=-1))


@dataclass(frozen=True)
class UniformPrior:
    """Uniform prior on the open box (lo, hi) in every coordinate."""

    kind: ClassVar[str] = "uniform"
    lo: float = -10.0
    hi: float = 10.0

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"lo must be below hi, got [{self.lo}, {self.hi}]")
        if not np.isfinite(self.hi - self.lo):
            raise ValueError(f"hi - lo overflows, got [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=shape)

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        """Normalized log density; the closed box carries the mass."""
        arr = _as_rows(theta)
        inside = np.all((arr >= self.lo) & (arr <= self.hi), axis=1)
        return np.where(inside, -arr.shape[1] * float(np.log(self.hi - self.lo)), -np.inf)

    def score(self, theta: np.ndarray) -> np.ndarray:
        """Gradient of the log density; the support is treated as open."""
        arr = _as_rows(theta)
        # Two reductions clear the usual case; NaN fails them and the mask names it.
        if arr.size and not (arr.min() > self.lo and arr.max() < self.hi):
            inside = np.all((arr > self.lo) & (arr < self.hi), axis=1)
            bad = arr[np.flatnonzero(~inside)[0]]
            raise OutOfSupportError(f"point {bad} is outside the prior support")
        return np.zeros_like(arr)

    def clamp(self, theta: np.ndarray) -> np.ndarray:
        """Pull escaped particles back to just inside the support boundary."""
        return np.clip(theta, self.lo + CLAMP_MARGIN, self.hi - CLAMP_MARGIN)


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian prior with the same mean and variance in every coordinate."""

    kind: ClassVar[str] = "gaussian"
    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self) -> None:
        positive(self, "variance")

    def sample(self, rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
        return self.mean + np.sqrt(self.variance) * rng.standard_normal(shape)

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        arr = _as_rows(theta)
        return _gaussian_log_density(arr, self.mean, np.full(arr.shape[1], self.variance))

    def score(self, theta: np.ndarray) -> np.ndarray:
        return (self.mean - _as_rows(theta)) / self.variance

    def clamp(self, theta: np.ndarray) -> np.ndarray:
        """Unbounded support: clamping is the identity."""
        return np.asarray(theta, dtype=float)


# --- local losses -----------------------------------------------------------


@dataclass(frozen=True)
class MixtureComponent:
    weight: float = field(metadata={"default": 1.0})  # positional; a config may leave it out
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
    alpha.  Weights are normalized internally; ``loss`` is the alpha=1 value.
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
        return self._log_weights + _gaussian_log_density(arr[:, None], self._means, self._variances)

    def log_mixture_density(self, theta: np.ndarray) -> np.ndarray:
        arr = _as_rows(theta, self.dim)
        return _logsumexp(self._component_log_densities(arr), axis=1)

    def loss(self, theta: np.ndarray) -> np.ndarray:
        return -self.log_mixture_density(theta)

    def neg_loss_grad(self, theta: np.ndarray, alpha: float = 1.0) -> np.ndarray:
        arr = _as_rows(theta, self.dim)
        resp = _softmax(self._component_log_densities(arr), axis=1)
        comp_scores = (self._means[None, :, :] - arr[:, None, :]) / self._variances[None, :, :]
        return (resp[:, :, None] * comp_scores).sum(axis=1)


def _with_bias(features: np.ndarray) -> np.ndarray:
    """Design matrix: the features with a trailing column of ones for the bias."""
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _side_by_side(heads: np.ndarray, num_classes: int) -> np.ndarray:
    """The Q flattened ``(f + 1, C)`` heads laid side by side as one ``(f + 1, C * Q)`` matrix.

    A design matrix times it, reshaped to ``(n, C, Q)``, is the logits of every
    head on every row in one GEMM.  Classes sit on the middle axis so that
    reductions over them are vectorised across heads.
    """
    q, rows = heads.shape[0], heads.shape[1] // num_classes
    return heads.reshape(q, rows, num_classes).transpose(1, 2, 0).reshape(rows, -1)


def _logits(design: np.ndarray, laid: np.ndarray, num_classes: int) -> np.ndarray:
    """The ``(rows, C, Q)`` logits of design rows against heads laid side by side."""
    logits = design @ laid
    return logits.reshape(logits.shape[0], num_classes, -1)


def _eval_blocks(n: int) -> list[slice]:
    """One block of ``n <= HEAD_ROWS`` rows, or blocks of up to ``EVAL_ROWS`` rows.

    A per-row result filled block by block holds one block's logits per
    worker instead of the ``(n, C, Q)`` array.  Each row's logits keep their
    bits as long as the BLAS gives a product's row the same bits however many
    rows share the GEMM; ``tests/test_buffers.py`` checks it at the shipped
    shapes.
    """
    return blocks(n, EVAL_ROWS, split=n > HEAD_ROWS)


class SoftmaxHeadLoss:
    """Mean cross-entropy of a linear softmax head on frozen features.

    The parameter vector is the flattened ``(f + 1, C)`` matrix whose first
    ``f`` rows are the weights and last row the biases.  An empty shard
    yields a loss of exactly 0 and a zero gradient.  The shard's features
    are held once, inside the design matrix.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, num_classes: int):
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        shard = Dataset(features, labels, num_classes)  # checks the shapes and the label range
        self.labels = shard.labels
        self.num_classes = num_classes
        self.num_features = shard.features.shape[1]
        self.dim = (self.num_features + 1) * num_classes
        self._design = _with_bias(shard.features)
        self._onehot = np.zeros((self.labels.size, num_classes))
        if self.labels.size:
            self._onehot[np.arange(self.labels.size), self.labels] = 1.0

    @property
    def features(self) -> np.ndarray:
        """The shard's features: a read-only view of the design matrix without its bias column."""
        view = self._design[:, :-1]
        view.setflags(write=False)
        return view

    def loss(self, theta: np.ndarray) -> np.ndarray:
        arr = _as_rows(theta, self.dim)
        if self.labels.size == 0:
            return np.zeros(arr.shape[0])
        laid = _side_by_side(arr, self.num_classes)
        per_row = np.empty((self.labels.size, arr.shape[0]))

        def fill(rows: slice) -> None:
            logits = _logits(self._design[rows], laid, self.num_classes)
            picked = logits[np.arange(logits.shape[0]), self.labels[rows], :]
            np.subtract(_logsumexp(logits, axis=1), picked, out=per_row[rows])

        run_blocks(fill, _eval_blocks(self.labels.size))
        return per_row.mean(axis=0)

    def neg_loss_grad(self, theta: np.ndarray, alpha: float = 1.0) -> np.ndarray:
        """Softmax residuals in blocks of ``HEAD_ROWS`` rows, then ``design.T @ resid``
        in blocks of ``HEAD_COLS`` design columns: every entry sums all rows in one GEMM."""
        arr = _as_rows(theta, self.dim)
        n = self.labels.size
        if n == 0:
            return np.zeros_like(arr)
        q, c = arr.shape[0], self.num_classes
        laid = _side_by_side(arr, c)
        resid = np.empty((n, c * q))
        grad = np.empty((self.num_features + 1, c * q))

        def residual(rows: slice) -> None:
            np.matmul(self._design[rows], laid, out=resid[rows])
            block = _softmax(resid[rows].reshape(-1, c, q), axis=1)
            block -= self._onehot[rows, :, None]

        def gradient(cols: slice) -> None:
            np.matmul(self._design[:, cols].T, resid, out=grad[cols])

        rows = blocks(n, HEAD_ROWS)
        run_blocks(residual, rows)
        run_blocks(gradient, blocks(self.num_features + 1, HEAD_COLS, split=len(rows) > 1))
        grad = grad.reshape(-1, c, q).transpose(2, 0, 1).reshape(q, self.dim)
        grad /= -alpha * n
        return grad


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
    laid = _side_by_side(theta, num_classes)
    probs = np.empty((features.shape[0], num_classes))

    def fill(rows: slice) -> None:  # the bias column is appended per block, never to every row
        logits = _logits(_with_bias(features[rows]), laid, num_classes)
        np.mean(_softmax(logits, axis=1), axis=2, out=probs[rows])

    run_blocks(fill, _eval_blocks(features.shape[0]))
    return probs


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
        out = np.empty((x.shape[0], self.num_features))
        run_blocks(lambda rows: _relu_layer(x[rows], self.weights, self.biases, out[rows]),
                   blocks(x.shape[0], INPUT_ROWS))
        return out

    @property
    def num_features(self) -> int:
        return self.weights.shape[1]


def _relu_layer(x: np.ndarray, weights: np.ndarray, biases: np.ndarray, out: np.ndarray,
                active: np.ndarray | None = None) -> None:
    """``out = max(x @ weights + biases, 0)``, and ``active`` the mask where it is positive."""
    np.matmul(x, weights, out=out)
    out += biases
    if active is not None:
        np.greater(out, 0.0, out=active)
    np.maximum(out, 0.0, out=out)


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
    pool = Dataset(features, labels, num_classes)  # checks the shapes and the label range
    x, y = pool.features, pool.labels
    if x.shape[0] == 0:
        raise ValueError(f"expected nonempty (n, f) features, got shape {x.shape}")

    n, f = x.shape
    h = config.hidden_units
    w1 = rng.standard_normal((f, h)) * np.sqrt(2.0 / f)
    b1 = np.zeros(h)
    w2 = rng.standard_normal((h, num_classes)) * np.sqrt(2.0 / h)
    b2 = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    # The arrays of an epoch, filled in place every epoch.  Once grad_w2 is
    # taken, ``hidden`` holds the backward signal into the hidden layer.
    hidden = np.empty((n, h))
    active = np.empty((n, h), dtype=bool)
    grad_w1 = np.empty((f, h))
    # The input-wide products run in blocks.  The (h, C) logits product stays
    # one GEMM: it is a hundredth of the work, and at C = 10 columns a split
    # of it rounds differently at some row counts.
    rows = blocks(n, INPUT_ROWS)
    cols = blocks(f, INPUT_COLS, split=len(rows) > 1)

    def backward(r: slice) -> None:  # reads the epoch's ``resid``, set before it runs
        signal = hidden[r]
        np.matmul(resid[r], w2.T, out=signal)
        signal *= active[r]

    def first_layer_grad(c: slice) -> None:  # each entry sums over all n rows in one GEMM
        np.matmul(x[:, c].T, hidden, out=grad_w1[c])

    for _ in range(config.epochs):
        run_blocks(lambda r: _relu_layer(x[r], w1, b1, hidden[r], active[r]), rows)
        log_probs = hidden @ w2
        log_probs += b2
        log_probs -= _logsumexp(log_probs.copy(), axis=1)[:, None]
        loss = -log_probs[np.arange(n), y].mean()
        if not np.isfinite(loss):
            raise FloatingPointError("pretraining loss diverged")
        resid = np.exp(log_probs, out=log_probs)
        resid -= onehot
        resid /= n
        grad_w2 = hidden.T @ resid
        grad_b2 = resid.sum(axis=0)
        run_blocks(backward, rows)
        run_blocks(first_layer_grad, cols)
        grad_b1 = hidden.sum(axis=0)
        w2 -= config.step_size * grad_w2
        b2 -= config.step_size * grad_b2
        w1 -= config.step_size * grad_w1
        b1 -= config.step_size * grad_b1

    return FeatureMap(weights=w1, biases=b1)

"""Training and test rows, and the label-based partition.

Every training or test set is a `RowSource`: its labels, checked, and a
function that makes float features for the rows taken from it only.  An
IDX file pair gives one (`idx_source`); so does the synthetic generator
(`synthetic_source`, or `make_synthetic_pair` for a train and a test set
over the same class centres).  `choose_rows` picks every agent's rows from
the labels alone, and `pool_shards` takes those rows once, as the pool
whose slices are the shards.  So a build holds the pool's floats, never
the whole training matrix's.

Image/label files use the IDX binary layout: a big-endian magic number
(2051 for images, 2049 for labels), big-endian dimension sizes, then raw
unsigned bytes.  Every check on a pair of files runs when its source is
made, before any row is chosen; the image bytes are mapped, not read, and
pixel values are scaled to [0, 1] for the rows taken only.  The synthetic
generator produces Gaussian class blobs so the classification experiments
run without any external download.
"""

from __future__ import annotations

import copy
import math
import os
import struct
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
# Rows of synthetic noise drawn per call.  Drawing a stream in blocks gives the
# same numbers as one draw of the whole matrix, and only the rows taken are kept.
ROW_BLOCK = 256


class IdxFormatError(ValueError):
    """An IDX file failed validation."""


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels outside [0, num_classes)")


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels).astype(np.int64)
        if features.ndim != 2:
            raise ValueError(f"expected (n, f) features, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"label count {labels.shape} does not match feature count {features.shape[0]}"
            )
        _check_labels(labels, self.num_classes)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class RowSource:
    """A training or test set's labels, with float features made only for the rows taken.

    ``features_of(rows)`` returns a new float array of the features at
    ``rows``, an index array or a slice, in that order.
    """

    labels: np.ndarray
    num_classes: int
    features_of: Callable[..., np.ndarray]

    def __post_init__(self) -> None:
        _check_labels(self.labels, self.num_classes)

    def take(self, rows=slice(None)) -> Dataset:
        """The examples at ``rows`` (by default all of them), as floats."""
        return Dataset(self.features_of(rows), self.labels[rows], self.num_classes)


@dataclass(frozen=True)
class Shard:
    """One agent's slice of the training data."""

    agent_id: int
    classes: tuple[int, ...]
    features: np.ndarray
    labels: np.ndarray


# --- idx files ----------------------------------------------------------------


def _read_idx(path, magic: int, n_dims: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The header dimensions and the unsigned-byte payload of an IDX file, both checked.

    The payload is a read-only map of the file, so only the pages of the bytes
    used are read; the file must not be rewritten while the payload is in use.
    """
    path = str(path)
    header_size = 4 * (1 + n_dims)
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) < header_size:
            raise IdxFormatError(f"{path}: truncated header ({len(header)} bytes)")
        found, *dims = struct.unpack(f">{1 + n_dims}i", header)
        if found != magic:
            raise IdxFormatError(f"{path}: bad magic {found}, expected {magic}")
        if min(dims) < 0:
            raise IdxFormatError(f"{path}: negative dimension in header")
        expected = header_size + math.prod(dims)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise IdxFormatError(f"{path}: expected {expected} bytes, found {size}")
        payload = np.memmap(fh, dtype=np.uint8, mode="r", offset=header_size,
                            shape=(expected - header_size,))
    return tuple(dims), np.asarray(payload)


def _scaled(pixels: np.ndarray) -> np.ndarray:
    """Unsigned bytes as floats in [0, 1], scaled in place."""
    out = pixels.astype(float)
    out /= 255.0
    return out


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into a (n,) int array."""
    return _read_idx(path, LABEL_MAGIC, 1)[1].astype(np.int64)


def idx_source(images_path, labels_path, num_classes: int = 10) -> RowSource:
    """Pair an image file with a label file, both checked; rows are flattened images.

    Only a map of the image file is held: the rows taken are read and scaled
    to floats when taken.
    """
    (count, height, width), pixels = _read_idx(images_path, IMAGE_MAGIC, 3)
    labels = load_idx_labels(labels_path)
    if count != labels.shape[0]:
        raise IdxFormatError(f"image count {count} does not match label count {labels.shape[0]}")
    pixels = pixels.reshape(count, height * width)
    return RowSource(labels, num_classes, lambda taken: _scaled(pixels[taken]))


# --- synthetic data -----------------------------------------------------------


def synthetic_source(
    num_classes: int,
    dim: int,
    n_examples: int,
    seed: int,
    center_scale: float = 4.0,
    noise: float = 1.0,
    stream: int = 1,
) -> RowSource:
    """Gaussian class blobs with class-balanced labels, drawn for the rows taken.

    Class centres are drawn once from the ``[seed, 0]`` stream so a train
    and a test set made with the same seed share geometry.  The labels'
    shuffle and then the example noise, row by row, come from the
    ``[seed, stream]`` stream.  Taking rows draws that noise in blocks of
    `ROW_BLOCK` rows up to the last row taken and keeps only the rows taken,
    so they hold the same numbers as in a draw of the whole matrix.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if n_examples < num_classes:
        raise ValueError(f"need at least one example per class, got {n_examples}")
    center_rng = np.random.default_rng([seed, 0])
    centers = center_rng.normal(0.0, center_scale, size=(num_classes, dim))
    rng = np.random.default_rng([seed, stream])
    labels = np.arange(n_examples) % num_classes
    rng.shuffle(labels)

    def features_of(taken) -> np.ndarray:
        taken = np.arange(n_examples)[taken]
        order = np.argsort(taken)
        wanted = taken[order]
        out = np.empty((taken.size, dim))
        draws = copy.deepcopy(rng)  # each take starts where the shuffle left the stream
        done = 0
        for start in range(0, n_examples, ROW_BLOCK):
            if done == taken.size:
                break
            block = draws.standard_normal((min(ROW_BLOCK, n_examples - start), dim))
            stop = int(np.searchsorted(wanted, start + block.shape[0]))
            kept = block[wanted[done:stop] - start]
            kept *= noise
            kept += centers[labels[wanted[done:stop]]]
            out[order[done:stop]] = kept
            done = stop
        return out

    return RowSource(labels, num_classes, features_of)


def make_synthetic_pair(
    num_classes: int,
    dim: int,
    n_train: int,
    n_test: int,
    seed: int,
    center_scale: float = 4.0,
    noise: float = 1.0,
) -> tuple[RowSource, RowSource]:
    """The train (stream 1) and test (stream 2) `synthetic_source` over the same class centres."""
    train = synthetic_source(num_classes, dim, n_train, seed, center_scale, noise, stream=1)
    test = synthetic_source(num_classes, dim, n_test, seed, center_scale, noise, stream=2)
    return train, test


# --- partition ----------------------------------------------------------------


def choose_rows(
    labels: np.ndarray,
    num_classes: int,
    num_agents: int,
    labels_per_agent: int = 2,
    examples_per_agent: int = 100,
    seed: int = 0,
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """The rows of every agent's shard, agent 1's first, and each agent's classes.

    Reads only the labels.  Classes are assigned in ascending order: agent 1
    gets the first ``labels_per_agent`` classes, agent 2 the next, and so
    on, which requires ``num_agents * labels_per_agent == num_classes``.
    Example selection within each class is the only seeded choice.
    """
    if num_agents < 1:
        raise ValueError(f"need at least one agent, got {num_agents}")
    if labels_per_agent < 1:
        raise ValueError(f"need at least one label per agent, got {labels_per_agent}")
    if num_agents * labels_per_agent != num_classes:
        raise ValueError(
            f"{num_agents} agents x {labels_per_agent} labels must cover "
            f"{num_classes} classes exactly"
        )
    if examples_per_agent % labels_per_agent != 0:
        raise ValueError(
            f"{examples_per_agent} examples per agent do not split evenly over "
            f"{labels_per_agent} labels"
        )
    per_label = examples_per_agent // labels_per_agent

    agent_classes: list[tuple[int, ...]] = []
    rows: list[np.ndarray] = []
    for idx in range(num_agents):
        agent_id = idx + 1
        classes = tuple(range(idx * labels_per_agent, (idx + 1) * labels_per_agent))
        rng = np.random.default_rng([seed, agent_id])
        for cls in classes:
            candidates = np.flatnonzero(labels == cls)
            if candidates.size < per_label:
                raise ValueError(
                    f"class {cls} has {candidates.size} examples, agent {agent_id} needs {per_label}"
                )
            rows.append(rng.choice(candidates, size=per_label, replace=False))
        agent_classes.append(classes)
    return np.concatenate(rows), agent_classes


def pool_shards(
    source: RowSource,
    num_agents: int,
    labels_per_agent: int = 2,
    examples_per_agent: int = 100,
    seed: int = 0,
) -> tuple[Dataset, list[Shard]]:
    """The label-disjoint shards' rows, taken once as the pool, and the shards as views of it.

    The rows are chosen from ``source``'s labels by `choose_rows`, then
    taken from ``source`` in one step, so floats are made for those rows
    only.  The pool holds agent 1's rows, then agent 2's, and so on; each
    shard's features and labels are its consecutive, disjoint slice of the
    pool, so writing into a shard changes no other shard.
    """
    rows, agent_classes = choose_rows(source.labels, source.num_classes, num_agents,
                                      labels_per_agent, examples_per_agent, seed)
    pool = source.take(rows)
    shards = []
    for idx, classes in enumerate(agent_classes):
        part = slice(idx * examples_per_agent, (idx + 1) * examples_per_agent)
        shards.append(Shard(idx + 1, classes, pool.features[part], pool.labels[part]))
    return pool, shards

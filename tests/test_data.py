"""Tests for IDX row sources, synthetic blobs, and the label partition."""

import struct

import numpy as np
import pytest

from steinfed.data import (
    Dataset,
    IdxFormatError,
    idx_source,
    load_idx_labels,
    make_synthetic_pair,
    pool_shards,
    synthetic_source,
)


def write_images(path, arrays):
    arrays = np.asarray(arrays, dtype=np.uint8)
    n, rows, cols = arrays.shape
    path.write_bytes(struct.pack(">4i", 2051, n, rows, cols) + arrays.tobytes())


def write_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    path.write_bytes(struct.pack(">2i", 2049, labels.size) + labels.tobytes())


def synthetic(num_classes, dim, n_examples, seed, **kwargs):
    """Every row of a `synthetic_source`."""
    return synthetic_source(num_classes, dim, n_examples, seed, **kwargs).take()


def shards_of(source, *args, **kwargs):
    return pool_shards(source, *args, **kwargs)[1]


class TestIdxFiles:
    @pytest.fixture
    def labels(self, tmp_path):
        """A well-formed label file of one example, to pair with a defective image file."""
        path = tmp_path / "one_label"
        write_labels(path, [0])
        return path

    def test_images_roundtrip(self, tmp_path):
        raw = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        imgs, labs = tmp_path / "imgs", tmp_path / "labels"
        write_images(imgs, raw)
        write_labels(labs, [1, 0])
        images = idx_source(imgs, labs, num_classes=2).take().features
        assert images.shape == (2, 12)
        assert np.allclose(images, raw.reshape(2, 12) / 255.0)
        assert images.max() <= 1.0

    def test_labels_roundtrip(self, tmp_path):
        p = tmp_path / "labels"
        write_labels(p, [3, 0, 9, 1])
        labels = load_idx_labels(p)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, [3, 0, 9, 1])

    def test_dataset_pairs_and_flattens(self, tmp_path):
        imgs, labs = tmp_path / "i", tmp_path / "l"
        write_images(imgs, np.zeros((3, 2, 2), dtype=np.uint8))
        write_labels(labs, [0, 1, 2])
        source = idx_source(imgs, labs, num_classes=3)
        assert np.array_equal(source.labels, [0, 1, 2])
        ds = source.take()
        assert ds.features.shape == (3, 4)
        assert ds.labels.shape == (3,)

    def test_bad_magic_rejected(self, tmp_path, labels):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">4i", 2049, 1, 2, 2) + bytes(4))
        with pytest.raises(IdxFormatError, match="bad magic 2049, expected 2051"):
            idx_source(p, labels)
        q = tmp_path / "bad2"
        q.write_bytes(struct.pack(">2i", 2051, 1) + bytes(1))
        with pytest.raises(IdxFormatError, match="bad magic 2051, expected 2049"):
            load_idx_labels(q)

    def test_truncated_header_rejected(self, tmp_path, labels):
        p = tmp_path / "short"
        p.write_bytes(b"\x00\x00")
        with pytest.raises(IdxFormatError, match=r"truncated header \(2 bytes\)"):
            idx_source(p, labels)
        with pytest.raises(IdxFormatError, match=r"truncated header \(2 bytes\)"):
            load_idx_labels(p)

    def test_negative_dimension_rejected(self, tmp_path, labels):
        p = tmp_path / "negative"
        p.write_bytes(struct.pack(">4i", 2051, 1, -2, 2))
        with pytest.raises(IdxFormatError, match="negative dimension in header"):
            idx_source(p, labels)
        q = tmp_path / "negative_labels"
        q.write_bytes(struct.pack(">2i", 2049, -1))
        with pytest.raises(IdxFormatError, match="negative dimension in header"):
            load_idx_labels(q)

    def test_wrong_payload_size_rejected(self, tmp_path, labels):
        p = tmp_path / "trunc"
        p.write_bytes(struct.pack(">4i", 2051, 2, 2, 2) + bytes(7))
        with pytest.raises(IdxFormatError, match="expected 24 bytes, found 23"):
            idx_source(p, labels)
        q = tmp_path / "trail"
        q.write_bytes(struct.pack(">4i", 2051, 1, 2, 2) + bytes(5))
        with pytest.raises(IdxFormatError, match="expected 20 bytes, found 21"):
            idx_source(q, labels)

    def test_count_mismatch_rejected(self, tmp_path):
        imgs, labs = tmp_path / "i", tmp_path / "l"
        write_images(imgs, np.zeros((2, 2, 2), dtype=np.uint8))
        write_labels(labs, [0, 1, 2])
        with pytest.raises(IdxFormatError, match="^image count 2 does not match label count 3$"):
            idx_source(imgs, labs)


class TestDatasetValidation:
    def test_shape_and_label_checks(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2, 2)), np.zeros(2, dtype=int), 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.zeros(3, dtype=int), 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)


class TestSynthetic:
    def test_deterministic_and_balanced(self):
        a = synthetic(4, 3, 40, seed=5)
        b = synthetic(4, 3, 40, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        counts = np.bincount(a.labels, minlength=4)
        assert np.array_equal(counts, np.full(4, 10))

    def test_seed_changes_data(self):
        a = synthetic(3, 2, 30, seed=1)
        b = synthetic(3, 2, 30, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_train_test_share_centers(self):
        # zero noise collapses every example onto its class centre, so the
        # train and test feature sets must agree example for example
        train, test = (source.take() for source in make_synthetic_pair(3, 2, 30, 30, seed=9,
                                                                      noise=0.0))
        ct = {c: train.features[train.labels == c][0] for c in range(3)}
        for c in range(3):
            assert np.array_equal(test.features[test.labels == c],
                                  np.tile(ct[c], (np.sum(test.labels == c), 1)))

    def test_train_and_test_streams_differ(self):
        train, test = make_synthetic_pair(3, 2, 30, 30, seed=9)
        assert not np.array_equal(train.take().features, test.take().features)

    def test_class_separation_scales_with_centers(self):
        ds = synthetic(2, 2, 100, seed=3, center_scale=50.0, noise=0.1)
        mu0 = ds.features[ds.labels == 0].mean(axis=0)
        mu1 = ds.features[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(mu0 - mu1) > 5.0

    def test_validation(self):
        with pytest.raises(ValueError, match="need at least 2 classes, got 1"):
            synthetic_source(1, 2, 10, seed=0)
        with pytest.raises(ValueError, match="need at least one example per class, got 3"):
            make_synthetic_pair(4, 2, 3, 10, seed=0)


class TestPartition:
    def test_label_disjoint_ascending_assignment(self):
        source = synthetic_source(4, 2, 400, seed=0)
        shards = shards_of(source, num_agents=2, labels_per_agent=2, examples_per_agent=100)
        assert [s.agent_id for s in shards] == [1, 2]
        assert shards[0].classes == (0, 1)
        assert shards[1].classes == (2, 3)
        assert set(shards[0].labels) == {0, 1}
        assert set(shards[1].labels) == {2, 3}
        for s in shards:
            assert s.features.shape == (100, 2)
            counts = np.bincount(s.labels, minlength=4)
            assert counts[list(s.classes)].tolist() == [50, 50]

    def test_shard_rows_come_from_dataset(self):
        source = synthetic_source(4, 3, 200, seed=1)
        ds = source.take()
        shards = shards_of(source, 2, 2, 40, seed=7)
        for s in shards:
            for row, lab in zip(s.features, s.labels):
                matches = np.flatnonzero((ds.features == row).all(axis=1))
                assert matches.size >= 1
                assert np.all(ds.labels[matches] == lab)

    @pytest.mark.parametrize("written", [0, 1, 2])
    def test_a_write_into_one_shard_changes_no_other_array(self, written):
        source = synthetic_source(6, 3, 300, seed=1)
        rows = (source.take().features, source.labels.copy())
        shards = shards_of(source, 3, 2, 40, seed=7)
        kept = [(s.features.copy(), s.labels.copy()) for s in shards]
        shards[written].features[:] = np.nan
        shards[written].labels[:] = 0
        for idx, (shard, (features, labels)) in enumerate(zip(shards, kept)):
            if idx != written:
                assert np.array_equal(shard.features, features)
                assert np.array_equal(shard.labels, labels)
        assert np.array_equal(source.take().features, rows[0])
        assert np.array_equal(source.labels, rows[1])

    def test_partition_deterministic_per_agent_stream(self):
        source = synthetic_source(4, 2, 400, seed=2)
        a = shards_of(source, 2, 2, 100, seed=3)
        b = shards_of(source, 2, 2, 100, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
        c = shards_of(source, 2, 2, 100, seed=4)
        assert not all(np.array_equal(x.features, y.features) for x, y in zip(a, c))

    def test_coverage_requirement(self):
        source = synthetic_source(4, 2, 400, seed=0)
        with pytest.raises(ValueError, match="3 agents x 2 labels must cover 4 classes exactly"):
            shards_of(source, 3, 2, 100)
        with pytest.raises(ValueError, match="need at least one agent, got 0"):
            shards_of(source, 0, 2, 100)
        with pytest.raises(ValueError, match="need at least one label per agent, got 0"):
            shards_of(source, 4, 0, 100)

    def test_divisibility_requirement(self):
        source = synthetic_source(4, 2, 400, seed=0)
        with pytest.raises(ValueError,
                           match="101 examples per agent do not split evenly over 2 labels"):
            shards_of(source, 2, 2, 101)

    def test_insufficient_examples_rejected(self):
        source = synthetic_source(4, 2, 40, seed=0)  # 10 per class
        with pytest.raises(ValueError, match="class 0 has 10 examples, agent 1 needs 20"):
            shards_of(source, 2, 2, 40)  # needs 20 per class

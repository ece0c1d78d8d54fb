"""Tests for IDX loading, synthetic blobs, and the label partition."""

import struct

import numpy as np
import pytest

from steinfed.data import (
    Dataset,
    IdxFormatError,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    make_synthetic,
    make_synthetic_pair,
    partition_non_iid,
)


def write_images(path, arrays):
    arrays = np.asarray(arrays, dtype=np.uint8)
    n, rows, cols = arrays.shape
    path.write_bytes(struct.pack(">4i", 2051, n, rows, cols) + arrays.tobytes())


def write_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    path.write_bytes(struct.pack(">2i", 2049, labels.size) + labels.tobytes())


class TestIdxFiles:
    def test_images_roundtrip(self, tmp_path):
        raw = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        p = tmp_path / "imgs"
        write_images(p, raw)
        images = load_idx_images(p)
        assert images.shape == (2, 3, 4)
        assert np.allclose(images, raw / 255.0)
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
        ds = load_idx_dataset(imgs, labs, num_classes=3)
        assert ds.features.shape == (3, 4)
        assert ds.labels.shape == (3,)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">4i", 2049, 1, 2, 2) + bytes(4))
        with pytest.raises(IdxFormatError):
            load_idx_images(p)
        q = tmp_path / "bad2"
        q.write_bytes(struct.pack(">2i", 2051, 1) + bytes(1))
        with pytest.raises(IdxFormatError):
            load_idx_labels(q)

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(b"\x00\x00")
        with pytest.raises(IdxFormatError):
            load_idx_images(p)
        with pytest.raises(IdxFormatError):
            load_idx_labels(p)

    def test_wrong_payload_size_rejected(self, tmp_path):
        p = tmp_path / "trunc"
        p.write_bytes(struct.pack(">4i", 2051, 2, 2, 2) + bytes(7))
        with pytest.raises(IdxFormatError):
            load_idx_images(p)
        q = tmp_path / "trail"
        q.write_bytes(struct.pack(">4i", 2051, 1, 2, 2) + bytes(5))
        with pytest.raises(IdxFormatError):
            load_idx_images(q)

    def test_count_mismatch_rejected(self, tmp_path):
        imgs, labs = tmp_path / "i", tmp_path / "l"
        write_images(imgs, np.zeros((2, 2, 2), dtype=np.uint8))
        write_labels(labs, [0, 1, 2])
        with pytest.raises(IdxFormatError):
            load_idx_dataset(imgs, labs)


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
        a = make_synthetic(4, 3, 40, seed=5)
        b = make_synthetic(4, 3, 40, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        counts = np.bincount(a.labels, minlength=4)
        assert np.array_equal(counts, np.full(4, 10))

    def test_seed_changes_data(self):
        a = make_synthetic(3, 2, 30, seed=1)
        b = make_synthetic(3, 2, 30, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_train_test_share_centers(self):
        # zero noise collapses every example onto its class centre, so the
        # train and test feature sets must agree example for example
        train, test = make_synthetic_pair(3, 2, 30, 30, seed=9, noise=0.0)
        ct = {c: train.features[train.labels == c][0] for c in range(3)}
        for c in range(3):
            assert np.array_equal(test.features[test.labels == c],
                                  np.tile(ct[c], (np.sum(test.labels == c), 1)))

    def test_train_and_test_streams_differ(self):
        train, test = make_synthetic_pair(3, 2, 30, 30, seed=9)
        assert not np.array_equal(train.features, test.features)

    def test_class_separation_scales_with_centers(self):
        ds = make_synthetic(2, 2, 100, seed=3, center_scale=50.0, noise=0.1)
        mu0 = ds.features[ds.labels == 0].mean(axis=0)
        mu1 = ds.features[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(mu0 - mu1) > 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic(1, 2, 10, seed=0)
        with pytest.raises(ValueError):
            make_synthetic(4, 2, 3, seed=0)


class TestPartition:
    def test_label_disjoint_ascending_assignment(self):
        ds = make_synthetic(4, 2, 400, seed=0)
        shards = partition_non_iid(ds, num_agents=2, labels_per_agent=2, examples_per_agent=100)
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
        ds = make_synthetic(4, 3, 200, seed=1)
        shards = partition_non_iid(ds, 2, 2, 40, seed=7)
        for s in shards:
            for row, lab in zip(s.features, s.labels):
                matches = np.flatnonzero((ds.features == row).all(axis=1))
                assert matches.size >= 1
                assert np.all(ds.labels[matches] == lab)

    @pytest.mark.parametrize("written", [0, 1, 2])
    def test_a_write_into_one_shard_changes_no_other_array(self, written):
        ds = make_synthetic(6, 3, 300, seed=1)
        source = (ds.features.copy(), ds.labels.copy())
        shards = partition_non_iid(ds, 3, 2, 40, seed=7)
        kept = [(s.features.copy(), s.labels.copy()) for s in shards]
        shards[written].features[:] = np.nan
        shards[written].labels[:] = 0
        for idx, (shard, (features, labels)) in enumerate(zip(shards, kept)):
            if idx != written:
                assert np.array_equal(shard.features, features)
                assert np.array_equal(shard.labels, labels)
        assert np.array_equal(ds.features, source[0])
        assert np.array_equal(ds.labels, source[1])

    def test_partition_deterministic_per_agent_stream(self):
        ds = make_synthetic(4, 2, 400, seed=2)
        a = partition_non_iid(ds, 2, 2, 100, seed=3)
        b = partition_non_iid(ds, 2, 2, 100, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
        c = partition_non_iid(ds, 2, 2, 100, seed=4)
        assert not all(np.array_equal(x.features, y.features) for x, y in zip(a, c))

    def test_coverage_requirement(self):
        ds = make_synthetic(4, 2, 400, seed=0)
        with pytest.raises(ValueError):
            partition_non_iid(ds, 3, 2, 100)
        with pytest.raises(ValueError):
            partition_non_iid(ds, 0, 2, 100)
        with pytest.raises(ValueError):
            partition_non_iid(ds, 4, 0, 100)

    def test_divisibility_requirement(self):
        ds = make_synthetic(4, 2, 400, seed=0)
        with pytest.raises(ValueError):
            partition_non_iid(ds, 2, 2, 101)

    def test_insufficient_examples_rejected(self):
        ds = make_synthetic(4, 2, 40, seed=0)  # 10 per class
        with pytest.raises(ValueError):
            partition_non_iid(ds, 2, 2, 40)  # needs 20 per class

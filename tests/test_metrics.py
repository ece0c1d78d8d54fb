"""Tests for the grid KL divergence and the three on-disk formats."""

import dataclasses
import os

import numpy as np
import pytest

import steinfed.metrics as metrics
from steinfed.metrics import (
    METRICS_COLUMNS,
    GridConfig,
    GridError,
    MetricRecord,
    MetricsWriter,
    SnapshotFormatError,
    TranscriptWriter,
    grid_kl,
    load_snapshot,
    read_metrics_csv,
    read_transcript,
    save_snapshot,
    write_atomic,
)


def gaussian_log(mean, var):
    return lambda x: -0.5 * (x - mean) ** 2 / var


class TestGridKl:
    def test_identical_densities_give_zero(self):
        grid = GridConfig(-10.0, 10.0, 2001)
        f = gaussian_log(0.3, 1.2)
        assert grid_kl(f, f, grid) < 1e-12

    def test_unit_shift_hand_value(self):
        # KL(N(0,1) || N(1,1)) = 1/2
        grid = GridConfig(-10.0, 10.0, 2001)
        val = grid_kl(gaussian_log(0.0, 1.0), gaussian_log(1.0, 1.0), grid)
        assert abs(val - 0.5) < 1e-3

    def test_general_gaussian_pair_hand_value(self):
        # KL(N(m1,v1) || N(m2,v2)) has the closed form below
        m1, v1, m2, v2 = 0.5, 0.8, -0.3, 2.0
        want = 0.5 * (v1 / v2 + (m2 - m1) ** 2 / v2 - 1.0 + np.log(v2 / v1))
        grid = GridConfig(-12.0, 12.0, 4001)
        val = grid_kl(gaussian_log(m1, v1), gaussian_log(m2, v2), grid)
        assert abs(val - want) < 1e-3

    def test_normalization_constant_irrelevant(self):
        grid = GridConfig(-10.0, 10.0, 2001)
        a = grid_kl(gaussian_log(0.0, 1.0), gaussian_log(1.0, 1.0), grid)
        b = grid_kl(lambda x: gaussian_log(0.0, 1.0)(x) + 7.0,
                    lambda x: gaussian_log(1.0, 1.0)(x) - 3.0, grid)
        assert abs(a - b) < 1e-12

    def test_nonnegative_for_random_mixtures(self):
        rng = np.random.default_rng(6)
        grid = GridConfig(-10.0, 10.0, 1001)
        for _ in range(20):
            m1, m2 = rng.uniform(-2, 2, size=2)
            v1, v2 = rng.uniform(0.5, 2.0, size=2)
            val = grid_kl(gaussian_log(m1, v1), gaussian_log(m2, v2), grid)
            assert val >= 0.0

    def test_too_narrow_grid_rejected(self):
        grid = GridConfig(-1.0, 1.0, 201)
        with pytest.raises(GridError):
            grid_kl(gaussian_log(0.0, 4.0), gaussian_log(0.0, 4.0), grid)

    def test_invalid_log_values_rejected(self):
        grid = GridConfig(-10.0, 10.0, 101)
        with pytest.raises(GridError):
            grid_kl(lambda x: np.full_like(x, np.nan), gaussian_log(0.0, 1.0), grid)
        with pytest.raises(GridError):
            grid_kl(gaussian_log(0.0, 1.0), lambda x: np.where(x > 0, np.inf, 0.0), grid)

    def test_wrong_evaluator_shape_rejected(self):
        grid = GridConfig(-10.0, 10.0, 101)
        with pytest.raises(GridError):
            grid_kl(lambda x: x[:-1], gaussian_log(0.0, 1.0), grid)

    def test_grid_config_validation(self):
        with pytest.raises(ValueError):
            GridConfig(1.0, 1.0, 100)
        with pytest.raises(ValueError):
            GridConfig(0.0, 1.0, 1)
        grid = GridConfig(0.0, 1.0, 11)
        assert grid.linspace().shape == (11,)


class TestMetricsCsv:
    def test_header_is_exact(self, tmp_path):
        p = tmp_path / "m.csv"
        with MetricsWriter(p):
            pass
        first = p.read_text().splitlines()[0]
        assert first == "round,phase,forgotten_acc,retained_acc,kl,forgot_loss,wall_ms"
        assert METRICS_COLUMNS == tuple(first.split(","))

    def test_record_fields_follow_the_header(self):
        # row() writes the fields in dataclass order under the METRICS_COLUMNS header
        assert tuple(f.name for f in dataclasses.fields(MetricRecord)) == METRICS_COLUMNS

    def test_roundtrip_preserves_values_exactly(self, tmp_path):
        p = tmp_path / "m.csv"
        records = [
            MetricRecord(round=0, phase="learn", kl=0.1234567890123456789,
                         forgot_loss=2.5, wall_ms=1.5),
            MetricRecord(round=1, phase="unlearn", forgotten_acc=0.25,
                         retained_acc=1.0 / 3.0, wall_ms=0.0),
        ]
        with MetricsWriter(p) as w:
            for r in records:
                w.append(r)
        back = read_metrics_csv(p)
        assert back == records
        assert back[1].retained_acc == 1.0 / 3.0

    def test_none_fields_serialize_as_empty_cells(self, tmp_path):
        p = tmp_path / "m.csv"
        with MetricsWriter(p) as w:
            w.append(MetricRecord(round=3, phase="learn", kl=0.5))
        line = p.read_text().splitlines()[1]
        assert line == "3,learn,,,0.5,,0.0"
        rec = read_metrics_csv(p)[0]
        assert rec.forgotten_acc is None
        assert rec.retained_acc is None
        assert rec.forgot_loss is None

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("round,phase\n")
        with pytest.raises(ValueError):
            read_metrics_csv(p)

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",".join(METRICS_COLUMNS) + "\n1,learn\n")
        with pytest.raises(ValueError):
            read_metrics_csv(p)


def load_cold(path):
    """``load_snapshot`` with no kept copy of any saved array, so the file is parsed."""
    metrics._kept_snapshots.clear()
    return load_snapshot(path)


class TestSnapshots:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        particles = rng.normal(size=(7, 3)) * np.array([1.0, 1e-12, 1e12])
        p = tmp_path / "snap.txt"
        save_snapshot(p, particles, round_index=42, seed=9)
        back, rnd, seed = load_cold(p)
        assert np.array_equal(back, particles)
        assert back.tobytes() == particles.tobytes()
        assert (rnd, seed) == (42, 9)

    def test_extreme_values_roundtrip(self, tmp_path):
        particles = np.array([[1e-308, -1e308], [np.pi, -0.0]])
        p = tmp_path / "snap.txt"
        save_snapshot(p, particles, 0, 0)
        back, _, _ = load_cold(p)
        assert back.tobytes() == particles.tobytes()

    def test_wide_roundtrip_is_the_same_warm_and_cold(self, tmp_path):
        rng = np.random.default_rng(3)
        particles = rng.normal(size=(100, 1010)) * 10.0 ** rng.integers(-300, 300, (100, 1010))
        particles[0, :5] = [-0.0, 5e-324, 1e16, 1e-05, 0.1]
        p = tmp_path / "snap.txt"
        save_snapshot(p, particles, 17, 4)
        assert str(p) in metrics._kept_snapshots
        warm = load_snapshot(p)
        cold = load_cold(p)
        for back in (warm, cold):
            assert back[0].tobytes() == particles.tobytes()
            assert back[0].flags.c_contiguous and back[0].flags.writeable
            assert back[1:] == (17, 4)

    def test_golden_bytes(self, tmp_path):
        p = tmp_path / "snap.txt"
        values = [-0.0, 1e16, 1e-05, 0.1, 123456789.0, 5e-324, 1.0, -2.5]
        save_snapshot(p, np.array(values).reshape(2, 4), 6, 3)
        assert p.read_bytes() == b"2 4 6 3\n-0.0 1e+16 1e-05 0.1\n123456789.0 5e-324 1.0 -2.5\n"

    def test_a_file_rewritten_after_the_save_is_parsed(self, tmp_path):
        p = tmp_path / "snap.txt"
        save_snapshot(p, np.zeros((2, 2)), 1, 7)
        p.write_text("2 2 5 8\n1.5 2.5\n3.5 -0.0\n")
        back, rnd, seed = load_snapshot(p)
        assert back.tobytes() == np.array([[1.5, 2.5], [3.5, -0.0]]).tobytes()
        assert (rnd, seed) == (5, 8)
        p.write_text("2 2 5 8\n1.5 2.5\n3.5\n")
        with pytest.raises(SnapshotFormatError, match="row 1 has 1 values, expected 2"):
            load_snapshot(p)

    def test_a_returned_array_is_a_copy(self, tmp_path):
        p = tmp_path / "snap.txt"
        particles = np.arange(6.0).reshape(3, 2)
        save_snapshot(p, particles, 0, 0)
        particles[0, 0] = 99.0
        first, _, _ = load_snapshot(p)
        first[:] = -1.0
        again, _, _ = load_snapshot(p)
        assert again.tobytes() == np.arange(6.0).reshape(3, 2).tobytes()

    def test_an_array_holding_nan_is_not_kept(self, tmp_path):
        p = tmp_path / "snap.txt"
        save_snapshot(p, np.ones((2, 2)), 0, 0)
        assert str(p) in metrics._kept_snapshots
        nan = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0]  # a NaN with a payload
        save_snapshot(p, np.array([[nan, 1.0], [2.0, 3.0]]), 1, 0)
        assert str(p) not in metrics._kept_snapshots
        back, rnd, _ = load_snapshot(p)
        assert np.isnan(back[0, 0]) and back[0, 1:].tolist() == [1.0] and rnd == 1
        assert back.tobytes() == load_cold(p)[0].tobytes()

    def test_kept_paths_never_exceed_the_limit(self, tmp_path):
        metrics._kept_snapshots.clear()
        paths = [tmp_path / f"snap{i}.txt" for i in range(2 * metrics._KEPT_SNAPSHOTS)]
        for i, p in enumerate(paths):
            save_snapshot(p, np.full((1, 1), float(i)), i, 0)
            assert len(metrics._kept_snapshots) == min(i + 1, metrics._KEPT_SNAPSHOTS)
        save_snapshot(paths[-1], np.ones((1, 1)), 0, 0)  # a resave keeps one entry for its path
        assert len(metrics._kept_snapshots) == metrics._KEPT_SNAPSHOTS
        assert list(metrics._kept_snapshots)[-1] == str(paths[-1])
        for i, p in enumerate(paths[:-1]):
            assert load_snapshot(p)[0].tolist() == [[float(i)]]

    def test_header_carries_shape(self, tmp_path):
        p = tmp_path / "snap.txt"
        save_snapshot(p, np.zeros((3, 2)), 5, 11)
        assert p.read_text().splitlines()[0] == "3 2 5 11"

    def test_save_rejects_bad_shapes(self, tmp_path):
        with pytest.raises(ValueError):
            save_snapshot(tmp_path / "s", np.zeros((0, 1)), 0, 0)
        with pytest.raises(ValueError):
            save_snapshot(tmp_path / "s", np.zeros(3), 0, 0)

    def test_load_rejects_malformed_files(self, tmp_path):
        cases = {
            "empty": "",
            "short_header": "3 2 5\n0 0\n0 0\n0 0\n",
            "non_integer_header": "a 2 5 1\n",
            "bad_shape": "0 1 0 0\n",
            "missing_rows": "3 2 0 0\n0.0 0.0\n0.0 0.0\n",
            "short_row": "2 2 0 0\n0.0 0.0\n0.0\n",
            "non_numeric": "1 2 0 0\n0.0 x\n",
        }
        for name, text in cases.items():
            p = tmp_path / name
            p.write_text(text)
            with pytest.raises(SnapshotFormatError):
                load_snapshot(p)


def _refuse_replace(src, dst):
    raise OSError("replace refused")


@pytest.mark.parametrize("fail", ["replace", "write"])
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, fail):
    p = tmp_path / "snap.txt"
    save_snapshot(p, np.arange(4.0).reshape(2, 2), 1, 7)
    before = p.read_bytes()
    if fail == "replace":
        monkeypatch.setattr(os, "replace", _refuse_replace)
        with pytest.raises(OSError, match="replace refused"):
            save_snapshot(p, np.zeros((3, 2)), 2, 7)
    else:
        # a lone surrogate cannot be encoded: the write fails after the temp file is opened
        with pytest.raises(UnicodeEncodeError):
            write_atomic(p, "3 2 2 7\n\ud800")
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == ["snap.txt"]
    back, rnd, seed = load_snapshot(p)
    assert back.tobytes() == np.arange(4.0).reshape(2, 2).tobytes()
    assert (rnd, seed) == (1, 7)


def test_writers_put_each_line_on_disk_before_close(tmp_path):
    metrics_path, transcript_path = tmp_path / "m.csv", tmp_path / "t.jsonl"
    with MetricsWriter(metrics_path) as metrics, TranscriptWriter(transcript_path) as transcript:
        assert metrics_path.read_text().count("\n") == 1
        for r in range(3):
            metrics.append(MetricRecord(round=r, phase="learn"))
            transcript.append({"round": r})
            assert read_metrics_csv(metrics_path)[-1].round == r
            assert read_transcript(transcript_path)[-1] == {"round": r}


class TestTranscript:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "t.jsonl"
        events = [
            {"round": 0, "phase": "learn", "agent": 1},
            {"round": 1, "phase": "unlearn", "agent": 2, "note": "stop"},
        ]
        with TranscriptWriter(p) as w:
            for e in events:
                w.append(e)
        assert read_transcript(p) == events

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert read_transcript(p) == [{"a": 1}, {"b": 2}]

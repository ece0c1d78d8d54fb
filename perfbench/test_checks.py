"""The benchmark's own checks accept the program's outputs and reject wrong ones.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

steinfed = pytest.importorskip("steinfed")

EXPERIMENT = {
    "prior": {"kind": "uniform", "lo": -10.0, "hi": 10.0},
    "agents": [
        [{"weight": 1.0, "mean": 1.0, "variance": 4.0}],
        [{"weight": 0.5, "mean": -3.0, "variance": 1.0}, {"weight": 0.5, "mean": 3.0, "variance": 2.0}],
    ],
}
GRID = steinfed.GridConfig(-10.0, 10.0, 2001)
X = GRID.linspace()


def program_kl(particles, agent_ids, lam=0.55):
    losses = {i + 1: steinfed.GaussianMixtureLoss([steinfed.MixtureComponent(**c) for c in comps])
              for i, comps in enumerate(EXPERIMENT["agents"])}

    def log_p(x):
        return sum(losses[k].log_mixture_density(x[:, None]) for k in agent_ids)

    return steinfed.grid_kl(lambda x: steinfed.kde_log_density(particles, x[:, None], lam), log_p, GRID)


def own_kl(particles, agent_ids, lam=0.55):
    return checks.grid_kl(checks.kde_log_density(particles, X, lam),
                          checks.exact_log_posterior(X, EXPERIMENT, agent_ids), X)


@pytest.fixture
def particles():
    return np.random.default_rng(0).normal(0.5, 2.0, size=(100, 1))


class TestKl:
    def test_recomputed_kl_matches_the_program(self, particles):
        for ids in ((1, 2), (1,)):
            assert checks.check_kl("kl", program_kl(particles, ids), own_kl(particles, ids))["ok"]

    def test_shifted_kl_is_rejected(self, particles):
        reported = program_kl(particles, (1, 2))
        assert not checks.check_kl("kl", reported + 1e-4, own_kl(particles, (1, 2)))["ok"]
        assert not checks.check_kl("kl", None, own_kl(particles, (1, 2)))["ok"]

    def test_perturbed_snapshot_is_rejected(self, particles):
        reported = program_kl(particles, (1, 2))
        moved = particles.copy()
        moved[0, 0] += 0.01
        assert not checks.check_kl("kl", reported, own_kl(moved, (1, 2)))["ok"]

    def test_gaussian_kl_matches_the_program(self):
        mean, variance = np.array([0.7]), np.array([3.0])
        reported = steinfed.grid_kl(
            lambda x: steinfed.gaussian_log_density_moments(mean, variance, x),
            lambda x: steinfed.GaussianMixtureLoss(
                [steinfed.MixtureComponent(1.0, 1.0, 4.0)]).log_mixture_density(x[:, None]),
            GRID)
        mine = checks.grid_kl(checks.gaussian_log_density(0.7, 3.0, X),
                              checks.exact_log_posterior(X, EXPERIMENT, (1,)), X)
        assert checks.check_kl("kl", reported, mine)["ok"]

    def test_sweep_properties(self):
        good = {"dsvgd": 0.1, "pvi": 0.2, "forget_svgd": 0.1, "ulpvi": 1.0,
                "unlearn_kl0": 0.5, "unlearn_kl": 0.1, "unlearn_loss0": 1.0, "unlearn_loss": 2.0}
        sweep = [dict(good) for _ in range(10)]
        assert all(c["ok"] for c in checks.check_mixture_sweep(sweep))
        for seed in range(3):
            sweep[seed]["ulpvi"] = 0.05
            sweep[seed]["unlearn_kl"] = 0.6
            sweep[seed]["unlearn_loss"] = 0.5
        assert not any(c["ok"] for c in checks.check_mixture_sweep(sweep))


def head_problem():
    rng = np.random.default_rng(1)
    features = rng.normal(size=(60, 3))
    labels = np.arange(60) % 4
    features[np.arange(60), labels % 3] += 3.0 * (1 + labels // 3)
    particles = rng.normal(scale=0.5, size=(7, 4 * 4))
    particles.reshape(7, 4, 4)[:, :3, :3] += 2.0 * np.eye(3)
    return particles, features, labels


class TestAccuracy:
    def test_recomputed_accuracy_matches_the_program(self):
        particles, features, labels = head_problem()
        program = steinfed.per_class_accuracy(particles, features, labels, 4, classes=(0, 1, 2, 3))
        mine = checks.averaged_per_class_accuracy(particles, features, labels, 4)
        assert mine == program

    def test_wrong_accuracy_is_rejected(self):
        particles, features, labels = head_problem()
        per_class = checks.averaged_per_class_accuracy(particles, features, labels, 4)
        counts = {c: int(np.sum(labels == c)) for c in range(4)}
        row = {"forgotten_acc": np.mean([per_class[0], per_class[1]]),
               "retained_acc": np.mean([per_class[2], per_class[3]])}
        assert all(c["ok"] for c in checks.check_accuracy("a", row, per_class, (0, 1), (2, 3), counts))
        shifted = dict(row, retained_acc=row["retained_acc"] - 0.1)
        assert [c["ok"] for c in checks.check_accuracy("a", shifted, per_class, (0, 1), (2, 3), counts)] \
            == [True, False]

    def test_perturbed_snapshot_is_rejected(self):
        particles, features, labels = head_problem()
        program = steinfed.per_class_accuracy(particles, features, labels, 4, classes=(0, 1, 2, 3))
        row = {"forgotten_acc": np.mean([program[0], program[1]]),
               "retained_acc": np.mean([program[2], program[3]])}
        swapped = particles.reshape(7, 4, 4)[:, :, ::-1].reshape(7, 16)
        per_class = checks.averaged_per_class_accuracy(swapped, features, labels, 4)
        counts = {c: int(np.sum(labels == c)) for c in range(4)}
        outcome = checks.check_accuracy("a", row, per_class, (0, 1), (2, 3), counts)
        assert not all(c["ok"] for c in outcome)


def rows(*values, key="forgotten_acc", retained=1.0):
    return [{"round": i, key: v, "retained_acc": retained} for i, v in enumerate(values)]


class TestForgetting:
    learn = rows(0.9, 1.0)

    def test_accepts_the_shipped_pattern(self):
        unlearn = rows(1.0, 0.0, 0.0)
        retrain = rows(0.2, 0.5, 0.5, 0.5, 0.5, 0.2)
        outcome = checks.check_forgetting(self.learn, unlearn, retrain, 4)
        assert all(c["ok"] for c in outcome)
        assert "unlearn meets criterion 5 at round 1, retrain at 5" in outcome[1]["detail"]

    def test_each_property_rejects(self):
        retrain = rows(*([0.5] * 5 + [0.2]))
        not_forgotten = checks.check_forgetting(self.learn, rows(1.0, 0.4), retrain, 4)
        assert [c["ok"] for c in not_forgotten] == [False, True]
        dropped = checks.check_forgetting(self.learn, rows(1.0, 0.0, retained=0.85), retrain, 4)
        assert [c["ok"] for c in dropped] == [True, False]

    def test_retained_gain_is_not_a_failure(self):
        learn = rows(0.9, 1.0, retained=0.7)
        gained = checks.check_forgetting(learn, rows(1.0, 0.0), rows(0.5, 0.2), 4)
        assert [c["ok"] for c in gained] == [True, True]
        assert "whole criterion fails" in gained[1]["detail"]


class TestSnapshots:
    def test_parse_matches_the_program(self, tmp_path, particles):
        path = tmp_path / "snap.txt"
        steinfed.save_snapshot(path, particles, 3, 7)
        mine, round_index, seed = checks.read_snapshot(path)
        assert (round_index, seed) == (3, 7)
        assert checks.check_same_array("r", mine, steinfed.load_snapshot(path)[0])["ok"]

    def test_perturbed_snapshot_is_rejected(self, tmp_path, particles):
        path = tmp_path / "snap.txt"
        steinfed.save_snapshot(path, particles, 3, 7)
        lines = path.read_text().splitlines()
        lines[1] = repr(float(lines[1]) + 1e-12)
        path.write_text("\n".join(lines) + "\n")
        mine, _, _ = checks.read_snapshot(path)
        assert not checks.check_same_array("r", mine, particles)["ok"]
        with pytest.raises(ValueError):
            checks.parse_snapshot("\n".join(lines[:-1]))

    def test_finite_and_identical(self, particles):
        assert checks.check_finite("f", particles)["ok"]
        bad = particles.copy()
        bad[3, 0] = np.nan
        assert not checks.check_finite("f", bad)["ok"]
        assert checks.check_identical("i", [{"a": "1"}, {"a": "1"}])["ok"]
        assert not checks.check_identical("i", [{"a": "1"}, {"a": "2"}])["ok"]
        assert not checks.check_identical("i", ["x", "x", "y"])["ok"]

    def test_rises_and_not_rising(self):
        up = rows(1.0, 2.0, key="forgot_loss")
        down = rows(2.0, 1.0, key="forgot_loss")
        assert checks.check_rises("r", up, "forgot_loss")["ok"]
        assert not checks.check_rises("r", down, "forgot_loss")["ok"]
        assert checks.check_not_rising("n", down, "forgot_loss")["ok"]
        assert not checks.check_not_rising("n", up, "forgot_loss")["ok"]


class TestTracer:
    def fake_package(self, monkeypatch):
        pkg = types.ModuleType("fakepkg")
        low = types.ModuleType("fakepkg.low")
        high = types.ModuleType("fakepkg.high")

        def leaf(x):
            return x + 1

        low.leaf = leaf
        high.leaf = leaf  # imported by name, as `from .low import leaf` does

        def outer(x):
            return high.leaf(x) * 2

        high.outer = outer
        for name, module in (("fakepkg", pkg), ("fakepkg.low", low), ("fakepkg.high", high)):
            monkeypatch.setitem(sys.modules, name, module)
        return low, high

    def test_every_binding_is_wrapped_and_self_time_excludes_children(self, monkeypatch):
        low, high = self.fake_package(monkeypatch)
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        tracer.install("fakepkg", ("low.leaf", "high.outer"))
        assert high.leaf is low.leaf and hasattr(high.leaf, "__wrapped__")
        assert high.outer(1) == 4
        stats = tracer.metrics(("low.leaf", "high.outer"))
        assert stats["low.leaf.calls"] == 1 and stats["high.outer.calls"] == 1
        assert stats["low.leaf.s"] == 1.0 and stats["high.outer.s"] == 3.0
        assert stats["high.outer.self_s"] == 2.0

    def test_missing_layer_is_an_error(self, monkeypatch):
        self.fake_package(monkeypatch)
        with pytest.raises(AttributeError):
            Tracer().install("fakepkg", ("low.renamed",))

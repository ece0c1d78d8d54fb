"""Acceptance gate: one test per shipped guarantee, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
The experiment-level checks load the shipped configs from configs/ so the
artifacts users run are exactly what is being verified here.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

import steinfed.federation as fed
from helpers import (
    fd_gradient,
    kde_log_density_broadcast,
    rbf_kernel,
    rbf_kernel_grad_first,
    relative_error,
)
from steinfed.experiments import load_config, run_experiment, run_paths
from steinfed.federation import (
    ParticleSet,
    ProtocolConfig,
    distill_target_grad,
    tilted_grad,
)
from steinfed.kernels import kde_log_density_grad
from steinfed.metrics import GridConfig, grid_kl, read_metrics_csv
from steinfed.models import (
    GaussianMixtureLoss,
    GaussianPrior,
    MixtureComponent,
    SoftmaxHeadLoss,
)
from steinfed.pvi import PviConfig, moment_to_nat, nat_to_moment, pvi_round
from steinfed.svgd import adagrad_step, run_svgd, svgd_direction

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return ok, line


def load_shipped(name, out_dir, **overrides):
    cfg = load_config(CONFIG_DIR / name)
    return dataclasses.replace(cfg, out_dir=str(out_dir), **overrides)


class TestCriterion1:
    def test_svgd_recovers_standard_gaussian_moments(self):
        start = time.perf_counter()
        hits = 0
        bands = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            theta = rng.normal(0.0, 1.0, size=(50, 1))
            out, _ = run_svgd(theta, lambda t: -t, 500, epsilon=0.2)
            m, v = float(out.mean()), float(out.var())
            bands.append((m, v))
            hits += int(-0.05 <= m <= 0.05 and 0.9 <= v <= 1.1)
        elapsed = time.perf_counter() - start
        ok, line = report(
            1, hits >= 9 and elapsed < 10.0,
            f"{hits}/10 seeds with mean in [-0.05, 0.05] and var in [0.9, 1.1], "
            f"{elapsed:.2f}s (budget 10s)",
        )
        assert ok, line + f" moments={bands}"


class TestCriterion2:
    def test_direction_matches_double_loop(self):
        def double_loop(theta, grads, h):
            n = theta.shape[0]
            out = np.zeros_like(theta)
            for i in range(n):
                for j in range(n):
                    k = rbf_kernel(theta[j], theta[i], h)
                    out[i] += k * grads[j] + rbf_kernel_grad_first(theta[j], theta[i], h)
            return out / n

        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            theta = rng.normal(size=(n, d))
            grads = rng.normal(size=(n, d))
            h = float(rng.uniform(0.3, 3.0))
            got = svgd_direction(theta, lambda t: grads, h)
            worst = max(worst, float(np.max(np.abs(got - double_loop(theta, grads, h)))))
        elapsed = time.perf_counter() - start
        ok, line = report(
            2, worst < 1e-12 and elapsed < 1.0,
            f"100 instances (N<=5, d<=3), max abs deviation {worst:.2e} "
            f"(tol 1e-12), {elapsed:.3f}s (budget 1s)",
        )
        assert ok, line


class TestCriterion3:
    TOL = 1e-5
    POINTS = 100

    def _suite(self, name, f, grad, rng, dim, scale=1.5):
        worst = 0.0
        for _ in range(self.POINTS):
            x = rng.normal(0.0, scale, size=dim)
            worst = max(worst, relative_error(grad(x), fd_gradient(f, x)))
        return name, worst

    def test_every_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        results = []

        y = rng.normal(size=3)
        h = 1.7
        results.append(self._suite(
            "kernel",
            lambda x: rbf_kernel(x, y, h),
            lambda x: rbf_kernel_grad_first(x, y, h),
            rng, 3,
        ))
        # symmetry: moving the second argument flips the sign
        results.append(self._suite(
            "kernel-second-slot",
            lambda x: rbf_kernel(y, x, h),
            lambda x: -rbf_kernel_grad_first(y, x, h),
            rng, 3,
        ))

        particles = rng.normal(0.0, 2.0, size=(12, 3))
        lam = 0.8
        results.append(self._suite(
            "kde-score",
            lambda x: float(kde_log_density_broadcast(particles, x[None, :], lam)[0]),
            lambda x: kde_log_density_grad(particles, x[None, :], lam)[0],
            rng, 3,
        ))

        mixture = GaussianMixtureLoss((
            MixtureComponent(0.4, -2.0, 1.0),
            MixtureComponent(0.6, 3.0, 2.5),
        ))
        results.append(self._suite(
            "mixture-loss",
            lambda x: float(mixture.loss(x[None, :])[0]),
            lambda x: -mixture.neg_loss_grad(x[None, :])[0],
            rng, 1,
        ))

        feats = rng.normal(size=(20, 2))
        labels = rng.integers(0, 3, size=20)
        softmax = SoftmaxHeadLoss(feats, labels, 3)
        results.append(self._suite(
            "softmax-loss",
            lambda x: float(softmax.loss(x[None, :])[0]),
            lambda x: -softmax.neg_loss_grad(x[None, :])[0],
            rng, 9,
        ))

        glob = rng.normal(0.0, 2.0, size=(10, 1))
        loc = rng.normal(0.0, 2.0, size=(8, 1))
        config = ProtocolConfig(alpha=1.0, kde_lam=0.9)
        server, agent = ParticleSet(glob), ParticleSet(loc)
        tilt_learn = tilted_grad(server, agent, mixture, config, sign=1.0)
        tilt_unlearn = tilted_grad(server, agent, mixture, config, sign=-1.0)

        def tilted_scalar(x, sign):
            val = float(kde_log_density_broadcast(glob, x[None, :], 0.9)[0])
            val -= float(kde_log_density_broadcast(loc, x[None, :], 0.9)[0])
            return val + sign * float(mixture.log_mixture_density(x[None, :])[0])

        results.append(self._suite(
            "tilted-learning",
            lambda x: tilted_scalar(x, +1.0),
            lambda x: tilt_learn(x[None, :])[0],
            rng, 1,
        ))
        results.append(self._suite(
            "tilted-unlearning",
            lambda x: tilted_scalar(x, -1.0),
            lambda x: tilt_unlearn(x[None, :])[0],
            rng, 1,
        ))

        new_glob = rng.normal(0.0, 2.0, size=(10, 1))
        distill = distill_target_grad(new_glob, glob, loc, config.kde_lam)

        def distill_scalar(x):
            val = float(kde_log_density_broadcast(new_glob, x[None, :], 0.9)[0])
            val -= float(kde_log_density_broadcast(glob, x[None, :], 0.9)[0])
            return val + float(kde_log_density_broadcast(loc, x[None, :], 0.9)[0])

        results.append(self._suite(
            "distillation",
            distill_scalar,
            lambda x: distill(x[None, :])[0],
            rng, 1,
        ))

        worst_name, worst = max(results, key=lambda item: item[1])
        ok, line = report(
            3, all(r[1] < self.TOL for r in results),
            f"{len(results)} gradient families x {self.POINTS} points, worst "
            f"rel err {worst:.2e} ({worst_name}), tol {self.TOL:g}",
        )
        assert ok, line + f" all={results}"


class TestCriterion4:
    def test_particle_methods_beat_parametric_on_grid_kl(self, tmp_path):
        start = time.perf_counter()
        learn_wins = unlearn_wins = both = 0
        rows = []
        for seed in range(10):
            out = tmp_path / f"s{seed}"
            kls = {}
            for method in ("dsvgd", "pvi"):
                cfg = load_shipped("mixture.json", out, seed=seed, method=method)
                for command in ("learn", "unlearn"):
                    result = run_experiment(cfg, command)
                    kls[result.method] = result.records[-1].kl
            lw = kls["dsvgd"] < kls["pvi"]
            uw = kls["forget_svgd"] < kls["ulpvi"]
            learn_wins += lw
            unlearn_wins += uw
            both += lw and uw
            rows.append(f"seed {seed}: {kls['dsvgd']:.3f}/{kls['pvi']:.3f} "
                        f"{kls['forget_svgd']:.3f}/{kls['ulpvi']:.3f}")
        elapsed = time.perf_counter() - start
        ok, line = report(
            4, both >= 8 and elapsed < 300.0,
            f"DSVGD<PVI on {learn_wins}/10, ForgetSVGD<ULPVI on {unlearn_wins}/10, "
            f"both on {both}/10 (need 8), {elapsed:.1f}s (budget 300s)",
        )
        assert ok, line + " | " + "; ".join(rows)


class TestCriterion5:
    def test_unlearning_forgets_fast_and_keeps_retained(self, tmp_path):
        start = time.perf_counter()
        cfg = load_shipped("classification_desk.json", tmp_path)
        chance = 1.0 / cfg.experiment.synthetic.num_classes
        bar = chance + 0.05

        run_experiment(cfg, "learn")
        run_experiment(cfg, "unlearn")
        run_experiment(cfg, "retrain")

        learn = read_metrics_csv(run_paths(cfg, "dsvgd").metrics)
        unlearn = read_metrics_csv(run_paths(cfg, "forget_svgd").metrics)
        retrain = read_metrics_csv(run_paths(cfg, "retrain").metrics)
        pre_retained = learn[-1].retained_acc

        def first_meeting(records):
            for rec in records:
                if rec.round == 0 or rec.forgotten_acc is None:
                    continue
                if rec.forgotten_acc < bar and abs(rec.retained_acc - pre_retained) <= 0.10:
                    return rec.round
            return None

        u_round = first_meeting(unlearn)
        r_round = first_meeting(retrain)
        end = unlearn[-1]
        retained_held = abs(end.retained_acc - pre_retained) <= 0.10
        elapsed = time.perf_counter() - start

        checks = [
            u_round is not None and u_round <= 100,
            retained_held,
            end.forgotten_acc < bar,
            r_round is not None and u_round is not None and 5 * u_round <= r_round,
            elapsed < 600.0,
        ]
        ok, line = report(
            5, all(checks),
            f"forgotten {learn[-1].forgotten_acc:.3f}->{end.forgotten_acc:.3f} "
            f"(bar {bar:.2f}) at unlearn round {u_round}, retained "
            f"{pre_retained:.3f}->{end.retained_acc:.3f} (tol 0.10), "
            f"retrain needs {r_round} rounds (ratio bar {u_round}*5<={r_round}), "
            f"{elapsed:.1f}s (budget 600s)",
        )
        assert ok, line + f" checks={checks}"


class TestCriterion6:
    def test_round_isolation_bit_identical(self):
        rng = np.random.default_rng(5)
        losses = {
            1: GaussianMixtureLoss((MixtureComponent(1.0, 1.0, 4.0),)),
            2: GaussianMixtureLoss((MixtureComponent(1.0, -2.0, 1.0),)),
            3: GaussianMixtureLoss((MixtureComponent(1.0, 4.0, 2.0),)),
        }
        pcfg = fed.ProtocolConfig(update_steps=4, distill_steps=4, epsilon=0.2,
                                  epsilon_local=0.2, prior=GaussianPrior(0.0, 9.0))
        server, agents = fed.initialize_states(losses, pcfg.prior, (10, 1), 123)
        before = {k: agents[k].particles.tobytes() for k in agents}
        server, agents[2] = fed.learning_round(server, agents[2], losses[2], pcfg)
        untouched = [k for k in (1, 3)
                     if agents[k].particles.tobytes() == before[k]]
        ok, line = report(
            6, len(untouched) == 2,
            f"round isolation: untouched agents bit-identical {untouched} == [1, 3]",
        )
        assert ok, line

    def test_full_run_determinism_byte_identical(self, tmp_path):
        texts = {}
        snaps = {}
        for tag in ("a", "b"):
            cfg = load_shipped("mixture.json", tmp_path / tag)
            run_experiment(cfg, "learn")
            run_experiment(cfg, "unlearn")
            parts = []
            for method in ("dsvgd", "forget_svgd"):
                paths = run_paths(cfg, method)
                # wall-clock milliseconds are the one nondeterministic column
                with open(paths.metrics, encoding="utf-8") as fh:
                    parts.append("\n".join(line.rsplit(",", 1)[0] for line in fh))
                with open(paths.snapshot, "rb") as fh:
                    snaps.setdefault(tag, []).append(fh.read())
            texts[tag] = "\n===\n".join(parts)
        ok, line = report(
            6, texts["a"] == texts["b"] and snaps["a"] == snaps["b"],
            "repeated full runs byte-identical (metrics modulo wall_ms, snapshots exact)",
        )
        assert ok, line

    def test_single_particle_equals_adagrad_ascent(self):
        def score(theta):
            return (1.0 - theta) / 4.0

        start = np.array([[3.0]])
        via_svgd, _ = run_svgd(start, score, 50, epsilon=0.1)
        acc = np.zeros_like(start)
        theta = start.copy()
        for _ in range(50):
            theta = adagrad_step(acc, theta, score(theta), 0.1, 1e-6)
        ok, line = report(
            6, via_svgd.tobytes() == theta.tobytes(),
            "single-particle trajectory identical to plain AdaGrad gradient ascent",
        )
        assert ok, line


class TestCriterion7:
    def test_telescoping_and_conjugate_recovery(self):
        start = time.perf_counter()
        loss = GaussianMixtureLoss((MixtureComponent(1.0, 1.0, 1.0),))
        config = PviConfig(local_iters=5, epsilon=0.1, mc_samples=10000)
        worst_resid = 0.0
        worst_moment = 0.0
        for seed in (17, 18, 19):
            prior = moment_to_nat(0.0, 4.0)
            global_nat = prior
            local = np.zeros((2, 1))
            rng = np.random.default_rng(seed)
            for _ in range(60):
                global_nat, local = pvi_round(global_nat, local, loss, config, rng)
                gap = prior + local - global_nat
                worst_resid = max(worst_resid,
                                  float(np.max(np.abs(gap[0]))),
                                  float(np.max(np.abs(gap[1]))))
            mean, variance = nat_to_moment(global_nat)
            worst_moment = max(worst_moment, abs(float(mean[0]) - 0.8),
                               abs(float(variance[0]) - 0.8))
        elapsed = time.perf_counter() - start
        ok, line = report(
            7, worst_resid < 1e-10 and worst_moment < 1e-2 and elapsed < 30.0,
            f"telescoping residual {worst_resid:.2e} (tol 1e-10) after every round, "
            f"conjugate posterior N(0.8, 0.8) recovered to {worst_moment:.2e} "
            f"(tol 1e-2), {elapsed:.2f}s (budget 30s)",
        )
        assert ok, line


class TestCriterion8:
    def test_grid_kl_matches_closed_form(self):
        def log_q(x):
            return -0.5 * x ** 2

        def log_p(x):
            return -0.5 * (x - 1.0) ** 2

        kl = grid_kl(log_q, log_p, GridConfig())
        ok, line = report(
            8, abs(kl - 0.5) < 1e-3,
            f"grid_kl(N(0,1) || N(1,1)) = {kl:.6f}, expected 0.5 within 1e-3",
        )
        assert ok, line

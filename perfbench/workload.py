"""One benchmark workload in a fresh process; prints one JSON object as its last line.

``run.py`` starts this script with BLAS pinned to one thread.  By hand, from
the repository root::

    OPENBLAS_NUM_THREADS=1 python3 perfbench/workload.py --workload desk \
        --seed 0 --mode full --trace 0 --work perfbench/out/manual

``--mode setup`` stops after set-up (importing `steinfed`, loading the
configs and building every problem the workload uses) and reports
``setup_s`` alone.  ``--mode full`` then runs the phases through the public
API, timing each call of ``run_experiment``, and checks the outputs with
``checks.py``.  ``--trace 1`` wraps the layers listed in ``tracer.py`` and
adds their statistics.
"""

import time

START = time.perf_counter()

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks
from tracer import Tracer

WORKLOADS = ("mixture", "desk", "wide")
MIXTURE_SWEEP = 10
# Unlearning phases are short (0.04 s per mixture seed, 1 s on desk), so each
# is run several times from the same learned snapshot and the median of all
# its repeats is used; the repeats also show that the snapshot bytes repeat.
# (before, after): repeats before and after the retrain.  Splitting desk's
# repeats around its 16 s retrain samples the host's speed at two times
# rather than in one 7 s window.
UNLEARN_REPEATS = {"mixture": (5, 0), "desk": (4, 4), "wide": (1, 0)}
PHASES = ("learn", "unlearn", "retrain")


def load_configs(workload: str, seed: int, work: Path) -> list:
    """The configs a workload runs, each with its own output directory."""
    from steinfed import load_config

    if workload == "mixture":
        base = load_config(ROOT / "configs" / "mixture.json")
        return [
            dataclasses.replace(base, seed=s, method=method, out_dir=str(work / f"s{s}"))
            for s in range(seed * MIXTURE_SWEEP, (seed + 1) * MIXTURE_SWEEP)
            for method in ("dsvgd", "pvi")
        ]
    path = ROOT / "configs" / "classification_desk.json" if workload == "desk" else BENCH / "wide.json"
    return [dataclasses.replace(load_config(path), seed=seed, out_dir=str(work / workload))]


def phase_plan(workload: str, cfgs: list) -> list[tuple]:
    """(config, command, repeats) in run order; retraining runs once per seed."""
    before, after = UNLEARN_REPEATS[workload]
    plan = []
    for cfg in cfgs:
        plan.append((cfg, "learn", 1))
        plan.append((cfg, "unlearn", before))
        if cfg.method == "dsvgd":
            plan.append((cfg, "retrain", 1))
            if after:
                plan.append((cfg, "unlearn", after))
    return plan


def blas_info() -> dict:
    """OpenBLAS build and live thread count of the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": build.get("name"), "blas_version": build.get("version"), "blas_threads": None}
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)  # the library numpy already loaded, so the live setting
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_int
                info["blas_threads"] = getattr(lib, name)()
    return info


class Operations:
    """Counts phases and checks; a raised exception or a false check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def record(self, outcome: dict) -> None:
        self.attempted += 1
        if not outcome["ok"]:
            self.failed += 1
            print(f"check failed: {outcome['name']}: {outcome['detail']}", file=sys.stderr)
        self.checks.append(outcome)

    def phase(self, name: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a failed phase is counted, reported and survived
            self.failed += 1
            print(f"phase failed: {name}\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def group(self, name: str, fn) -> None:
        try:
            for outcome in fn():
                self.record(outcome)
        except Exception as err:  # a check that cannot run fails as one operation
            self.record(checks.result(name, False, f"{type(err).__name__}: {err}"))


def run_phases(plan, work: Path, ops: Operations, tracer) -> dict:
    from steinfed import experiments

    totals = dict.fromkeys(PHASES, 0.0)
    wall_ms = 0.0
    called_s = 0.0
    unlearn_rounds = 0
    results = {}
    calls = []
    # Snapshot path -> every repeat of that phase, wherever the plan put it.
    phases: dict[str, dict] = {}
    for cfg, command, repeats in plan:
        for _ in range(repeats):
            def call():
                span = tracer.span(f"phase.{command}") if tracer else nullcontext()
                with span:
                    start = time.perf_counter()
                    out = experiments.run_experiment(cfg, command)
                    return out, time.perf_counter() - start

            done = ops.phase(f"{cfg.out_dir}:{command}", call)
            if done is None:
                continue
            res, elapsed = done
            calls.append([cfg.seed, res.method, elapsed])
            called_s += elapsed
            wall_ms += sum(r.wall_ms for r in res.records)
            results[(cfg.seed, res.method)] = res
            key = os.path.relpath(res.paths.snapshot, work)
            phase = phases.setdefault(key, {"command": command, "res": res, "times": [], "seen": []})
            phase["times"].append(elapsed)
            phase["seen"].append(checks.digest(res.paths.snapshot))
    digests = {}
    for key, phase in phases.items():
        totals[phase["command"]] += statistics.median(phase["times"])
        digests[key] = phase["seen"][0]
        if len(phase["seen"]) > 1:
            ops.record(checks.check_identical(f"{key}.repeats_identical", phase["seen"]))
        if phase["res"].method == "forget_svgd":
            unlearn_rounds += phase["res"].rounds_run
    return {"totals": totals, "results": results, "digests": digests,
            "unlearn_rounds": unlearn_rounds, "wall_ms_missed_share": 1.0 - wall_ms / 1000.0 / called_s,
            "phase_s": called_s, "calls": calls}


# --- workload checks -----------------------------------------------------------------


def mixture_checks(results, problems):
    import numpy as np

    raw = json.loads((ROOT / "configs" / "mixture.json").read_text())
    experiment = raw["experiment"]
    grid = raw["grid"]
    x = np.linspace(grid["lo"], grid["hi"], grid["points"])
    lam = raw["protocol"].get("kde_lam", 0.55)
    all_ids = range(1, len(experiment["agents"]) + 1)
    retained = [k for k in all_ids if k not in raw["forget_agents"]]
    per_seed = {}
    for (seed, method), res in sorted(results.items()):
        array, _, _ = checks.read_snapshot(res.paths.snapshot)
        rows = checks.read_metrics(res.paths.metrics)
        ids = all_ids if method in ("dsvgd", "pvi") else retained
        if method in ("pvi", "ulpvi"):
            log_q = checks.gaussian_log_density(array[0, 0], array[1, 0], x)
        else:
            log_q = checks.kde_log_density(array, x, lam)
        mine = checks.grid_kl(log_q, checks.exact_log_posterior(x, experiment, ids), x)
        yield checks.check_kl(f"mixture.s{seed}.{method}.kl", rows[-1]["kl"], mine)
        entry = per_seed.setdefault(seed, {})
        entry[method] = mine
        if method == "forget_svgd":
            entry.update(unlearn_kl0=rows[0]["kl"], unlearn_kl=rows[-1]["kl"],
                         unlearn_loss0=rows[0]["forgot_loss"], unlearn_loss=rows[-1]["forgot_loss"])
    yield from checks.check_mixture_sweep(list(per_seed.values()))


def desk_checks(results, problems):
    import numpy as np

    problem = problems[0]
    labels = np.asarray(problem.test_labels)
    counts = {c: int(np.sum(labels == c)) for c in range(problem.num_classes)}
    rows = {}
    for (_, method), res in sorted(results.items()):
        array, _, _ = checks.read_snapshot(res.paths.snapshot)
        rows[method] = checks.read_metrics(res.paths.metrics)
        per_class = checks.averaged_per_class_accuracy(
            array, np.asarray(problem.test_features), labels, problem.num_classes)
        yield from checks.check_accuracy(f"desk.{method}", rows[method][-1], per_class,
                                         problem.forgotten_classes, problem.retained_classes, counts)
    yield from checks.check_forgetting(rows["dsvgd"], rows["forget_svgd"], rows["retrain"],
                                       problem.num_classes)


def wide_checks(results, problems):
    from steinfed import load_snapshot

    for (_, method), res in sorted(results.items()):
        mine, _, _ = checks.read_snapshot(res.paths.snapshot)
        yield checks.check_finite(f"wide.{method}.finite", mine)
        yield checks.check_same_array(f"wide.{method}.reload", mine, load_snapshot(res.paths.snapshot)[0])
    unlearn = checks.read_metrics(next(r for (_, m), r in results.items() if m == "forget_svgd").paths.metrics)
    yield checks.check_rises("wide.forget_svgd.forgot_loss_rises", unlearn, "forgot_loss")
    yield checks.check_not_rising("wide.forget_svgd.forgotten_acc_not_rising", unlearn, "forgotten_acc")


CHECKS = {"mixture": mixture_checks, "desk": desk_checks, "wide": wide_checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "full"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for the run artifacts")
    args = parser.parse_args(argv)

    from steinfed import experiments  # importing the program is part of set-up

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    work = Path(args.work).resolve()
    cfgs = load_configs(args.workload, args.seed, work)
    one_per_seed = {}
    for cfg in cfgs:
        one_per_seed.setdefault(cfg.seed, cfg)
    problems = [experiments.build_problem(cfg) for cfg in one_per_seed.values()]
    out = {"setup_s": time.perf_counter() - START}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    ops = Operations()
    phases = run_phases(phase_plan(args.workload, cfgs), work, ops, tracer)
    out.update({
        "learn_s": phases["totals"]["learn"],
        "unlearn_s": phases["totals"]["unlearn"],
        "retrain_s": phases["totals"]["retrain"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unlearn_rounds": phases["unlearn_rounds"],
        "phase_s": phases["phase_s"],
        "wall_ms_missed_share": phases["wall_ms_missed_share"],
        "calls": phases["calls"],
    })
    ops.group(f"{args.workload}.checks",
              lambda: list(CHECKS[args.workload](phases["results"], problems)))
    out.update({"attempted": ops.attempted, "failed": ops.failed, "checks": ops.checks,
                "digests": phases["digests"], "env": blas_info()})
    if tracer is not None:
        layers = tracer.metrics()
        spans = [tracer.stats.get(f"phase.{p}", (0, 0.0, 0.0)) for p in PHASES]
        inclusive = sum(s[1] for s in spans)
        layers["phase.unaccounted_share"] = sum(s[2] for s in spans) / inclusive
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

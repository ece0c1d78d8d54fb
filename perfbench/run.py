"""Benchmark command: run one workload in fresh processes and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

A run repeats whole rounds until ``--seconds`` would be exceeded (at least
one round).  A round is two set-up-only processes plus one full process
(``--trace 0``), or one untraced and one traced full process (``--trace 1``);
every process runs ``workload.py`` with BLAS pinned to one thread.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, each the median
over the run's rounds.  The line before it records the environment, and
the full result (environment, samples, every check) is written under
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_identical, result

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEADLINE_S = 170.0
SETUP_PROCESSES = 2
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_FROM_PROCESS = ("learn_s", "unlearn_s", "retrain_s", "peak_rss_mb", "unlearn_rounds")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def code_digest() -> str:
    """sha256 over the program's sources, its configs and the benchmark's own files."""
    h = hashlib.sha256()
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "configs").glob("*.json"),
             *BENCH.glob("*.py"), *BENCH.glob("*.json")]
    for path in sorted(files):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout's git metadata, read without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_child(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before the round finished")
    env = dict(os.environ, **PINNED)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "workload.py"), *args],
                              capture_output=True, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"workload process timed out: {args}") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process failed ({proc.returncode}): {args}\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> list[dict]:
    """Whole rounds until the next would overrun ``seconds``; each is a dict of child results."""
    deadline = time.monotonic() + DEADLINE_S
    start = time.monotonic()
    rounds = []
    while True:
        began = time.monotonic()
        common = ["--workload", workload, "--seed", str(seed)]
        child = len(rounds)
        one = {"setup": []}
        if not trace:
            for i in range(SETUP_PROCESSES):
                one["setup"].append(run_child(
                    common + ["--mode", "setup", "--work", str(work / f"r{child}-setup{i}")], deadline))
        one["full"] = run_child(common + ["--mode", "full", "--work", str(work / f"r{child}-full")],
                                deadline)
        if trace:
            one["traced"] = run_child(
                common + ["--mode", "full", "--trace", "1", "--work", str(work / f"r{child}-traced")],
                deadline)
        rounds.append(one)
        took = time.monotonic() - began
        if time.monotonic() - start + took > seconds:
            return rounds


def stored_digests_check(workload: str, seed: int, digests: dict, code: str) -> dict:
    """Compare the snapshot digests with those an earlier run of the same sources stored."""
    path = OUT / "digests" / f"{workload}-seed{seed}.json"
    previous = json.loads(path.read_text()) if path.is_file() else None
    name = "snapshots.identical_to_earlier_run"
    if previous is not None and previous["code"] == code:
        return check_identical(name, [previous["snapshots"], digests])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code": code, "snapshots": digests}, sort_keys=True, indent=1))
    return result(name, True, "first run of this code, digests stored")


def summarise(workload: str, seed: int, rounds: list[dict], trace: bool, code: str) -> dict:
    fulls = [r["full"] for r in rounds] + [r["traced"] for r in rounds if "traced" in r]
    run_checks = [check_identical("snapshots.identical_within_run", [f["digests"] for f in fulls]),
                  stored_digests_check(workload, seed, fulls[0]["digests"], code)]
    checks = [c for f in fulls for c in f["checks"]] + run_checks
    attempted = sum(f["attempted"] for f in fulls) + len(run_checks)
    failed = sum(f["failed"] for f in fulls) + sum(not c["ok"] for c in run_checks)

    untraced = [r["full"] for r in rounds]
    samples = {name: [f[name] for f in untraced] for name in E2E_FROM_PROCESS}
    samples["setup_s"] = [s["setup_s"] for r in rounds for s in r["setup"]] + [f["setup_s"] for f in untraced]
    values = {name: statistics.median(v) for name, v in samples.items()}
    if trace:
        traced = [r["traced"] for r in rounds]
        values = {name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
        values["csv.wall_ms_missed_share"] = statistics.median(f["wall_ms_missed_share"] for f in untraced)
        values["phase.untraced_s"] = statistics.median(f["phase_s"] for f in untraced)
        values["phase.traced_s"] = statistics.median(t["phase_s"] for t in traced)
        values["trace.overhead_s"] = statistics.median(
            r["traced"]["phase_s"] - r["full"]["phase_s"] for r in rounds)

    declared = declared_metrics(trace)
    if set(values) != set(declared):
        raise BenchmarkError(f"measured metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
        "samples": samples,
        "checks": checks,
        "rounds": len(rounds),
        "calls": [f["calls"] for f in fulls],
        "env": fulls[0]["env"],
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(code: str) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "code_sha256": code,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("mixture", "desk", "wide"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "steinfed" / "__init__.py",
              ROOT / "configs" / "mixture.json", ROOT / "configs" / "classification_desk.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: this checkout lacks {', '.join(missing)}",
              file=sys.stderr)
        return 2

    code = code_digest()
    work = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace), work)
        summary = summarise(args.workload, args.seed, rounds, bool(args.trace), code)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = dict(environment(code), **summary.pop("env"))
    record = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    for check in summary["checks"]:
        if not check["ok"]:
            print(f"check failed: {check['name']}: {check['detail']}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

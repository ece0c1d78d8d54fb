"""Fixed row and column blocks on a thread pool: the partition, the pool and the bytes.

The partition comes from array shapes and module constants, never from the
worker count, so a run writes the same bytes on one CPU and on two.  The
package pins its BLAS to one thread, so the bytes do not depend on
OpenBLAS's own threads either.  Both are checked in subprocesses at wide's
particle shapes: 100 particles and d = 1010.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import steinfed.blocks as blocks_module
from steinfed.blocks import MAX_WORKERS, blocks, run_blocks, workers
from steinfed.experiments import _classification_problem, config_from_dict, run_experiment, run_paths
from steinfed.metrics import read_metrics_csv
from steinfed.models import EVAL_ROWS, HEAD_COLS, HEAD_ROWS, INPUT_COLS, INPUT_ROWS, _eval_blocks

REPO_ROOT = Path(__file__).resolve().parents[1]
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


class TestPartition:
    @pytest.mark.parametrize("n, size", [(0, 4), (1, 4), (4, 4), (5, 4), (2000, 512),
                                         (2501, 2500), (784, 196), (101, 51)])
    def test_consecutive_near_equal_slices(self, n, size):
        parts = blocks(n, size)
        assert parts[0].start == 0 and parts[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
        assert len(parts) == max(1, -(-n // size))
        lengths = [p.stop - p.start for p in parts]
        assert max(lengths) - min(lengths) <= 1  # no sliver: a one-row GEMM runs as a GEMV

    def test_evaluation_blocks(self):
        # The head loss and the evaluation: one block up to HEAD_ROWS rows, EVAL_ROWS blocks past it.
        assert _eval_blocks(400) == [slice(0, 400)] and _eval_blocks(HEAD_ROWS) == [slice(0, 512)]
        for rows, count in ((1000, 4), (2000, 8), (10_000, 40)):
            assert _eval_blocks(rows) == blocks(rows, EVAL_ROWS) and len(_eval_blocks(rows)) == count
        assert {p.stop - p.start for p in _eval_blocks(10_000)} == {250}

    def test_one_slice_when_not_split(self):
        assert blocks(784, INPUT_COLS, split=False) == [slice(0, 784)]

    def test_shipped_shapes(self):
        # wide and the headline: 10 000 pool rows of 784 inputs, 2000-row shards, d = 1010.
        assert len(blocks(10_000, INPUT_ROWS)) == len(blocks(784, INPUT_COLS)) == 4
        assert len(blocks(2000, HEAD_ROWS)) == 4 and len(blocks(101, HEAD_COLS)) == 2
        # desk: a 400-row pool, 200-row shards and a 400-row test set are one block each.
        assert len(blocks(400, INPUT_ROWS)) == len(blocks(200, HEAD_ROWS)) == 1
        assert len(_eval_blocks(400)) == 1


class TestRunBlocks:
    @pytest.fixture
    def fresh_pool(self, monkeypatch):
        """A pool of its own for the test, shut down after it."""
        monkeypatch.setattr(blocks_module, "_executor", None)
        yield
        if blocks_module._executor is not None:
            blocks_module._executor.shutdown()

    def test_workers_are_the_affinity_capped(self):
        assert workers() == min(len(CPUS) or os.cpu_count(), MAX_WORKERS)

    @pytest.mark.parametrize("count, cpus", [(1, 2), (3, 1)])
    def test_inline_with_one_block_or_one_worker(self, monkeypatch, fresh_pool, count, cpus):
        monkeypatch.setattr(blocks_module, "workers", lambda: cpus)
        seen = []
        run_blocks(lambda part: seen.append((part, threading.current_thread())), blocks(count, 1))
        assert seen == [(p, threading.main_thread()) for p in blocks(count, 1)]
        assert blocks_module._executor is None

    def test_blocks_run_on_the_pool(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(blocks_module, "workers", lambda: 2)
        names = {}
        run_blocks(lambda part: names.update({part.start: threading.current_thread().name}),
                   blocks(8, 1))
        assert sorted(names) == list(range(8))
        assert all(name.startswith("steinfed-block") for name in names.values())

    def test_a_block_error_is_raised(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(blocks_module, "workers", lambda: 2)

        def fail_on_three(part):
            if part.start == 3:
                raise FloatingPointError("block 3")

        with pytest.raises(FloatingPointError, match="block 3"):
            run_blocks(fail_on_three, blocks(6, 1))


def test_desk_and_mixture_never_start_the_pool(tmp_path, monkeypatch):
    """At desk's and the mixture's shapes every call is one block, even with workers to spare."""
    monkeypatch.setattr(blocks_module, "workers", lambda: MAX_WORKERS)

    def no_pool():
        raise AssertionError("a block went to the pool")

    monkeypatch.setattr(blocks_module, "_pool", no_pool)
    _classification_problem.cache_clear()  # so that the desk build, pretraining too, runs here
    for name in ("classification_desk.json", "mixture.json"):
        data = json.loads((REPO_ROOT / "configs" / name).read_text())
        data["out_dir"] = str(tmp_path / name)
        data["learn"]["rounds"] = 10  # fewer rounds, of the shipped run's shapes
        run_experiment(config_from_dict(data), "learn")
    _classification_problem.cache_clear()


# --- whole runs in subprocesses ------------------------------------------------------

# wide's particles and head layout (100 particles, 100 hidden units, 10 classes: d = 1010),
# on smaller data that still has two or more blocks on every blocked path.
WIDE_SHAPED = {
    "method": "dsvgd",
    "seed": 0,
    "particles": 100,
    "experiment": {
        "kind": "classification",
        "source": "synthetic",
        "synthetic": {"num_classes": 10, "dim": 400, "n_train": 8000, "n_test": 2600,
                      "center_scale": 1.0, "noise": 1.0},
        "labels_per_agent": 2,
        "examples_per_agent": 600,
        "feature_map": {"hidden_units": 100, "epochs": 2, "step_size": 0.1},
        "prior": {"kind": "gaussian", "mean": 0.0, "variance": 10.0},
    },
    "protocol": {"update_steps": 1, "distill_steps": 2, "epsilon": 0.05, "epsilon_local": 0.1,
                 "kde_lam": 10.0},
    "learn": {"rounds": 2},
    "unlearn": {"rounds": 1, "early_stop": False},
    "forget_agents": [1],
}

SCRIPT = (
    "import json, os, sys\n"
    "cpus = json.loads(sys.argv[2])\n"
    "if cpus is not None:\n"
    "    os.sched_setaffinity(0, cpus)\n"  # before numpy starts its BLAS
    "from steinfed.experiments import config_from_dict, run_experiment\n"
    "cfg = config_from_dict(json.loads(sys.argv[1]))\n"
    "for command in ('learn', 'unlearn'):\n"
    "    run_experiment(cfg, command)\n"
)


def test_wide_shaped_run_has_blocks_on_every_path():
    synthetic, spec = WIDE_SHAPED["experiment"]["synthetic"], WIDE_SHAPED["experiment"]
    agents = synthetic["num_classes"] // spec["labels_per_agent"]
    pool_rows = agents * spec["examples_per_agent"]
    assert len(blocks(pool_rows, INPUT_ROWS)) >= 2  # pretraining's rows
    assert len(blocks(synthetic["dim"], INPUT_COLS)) >= 2  # its first-layer gradient
    assert len(blocks(synthetic["n_test"], INPUT_ROWS)) >= 2  # the feature map of the test set
    assert len(blocks(spec["examples_per_agent"], HEAD_ROWS)) >= 2  # the head gradient
    assert len(_eval_blocks(spec["examples_per_agent"])) >= 2  # the head loss
    assert len(_eval_blocks(synthetic["n_test"])) >= 2  # the evaluation


@pytest.fixture(scope="module")
def wide_run(tmp_path_factory):
    """``run(blas, cpus)``: snapshot bytes and CSV records (``wall_ms`` zeroed) of each method.

    ``blas`` is the value of the BLAS thread variables, None to leave them
    unset; ``cpus`` the CPUs the child pins itself to, None for all.  Each
    distinct run starts one subprocess.
    """
    done = {}

    def run(blas, cpus):
        if (blas, cpus) not in done:
            data = dict(WIDE_SHAPED, out_dir=str(tmp_path_factory.mktemp("wide")))
            env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
            env.update({name: blas for name in BLAS_VARIABLES} if blas is not None else {})
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(data), json.dumps(cpus)],
                           env=env, check=True, timeout=300)
            cfg = config_from_dict(data)
            out = {}
            for method in ("dsvgd", "forget_svgd"):
                paths = run_paths(cfg, method)
                records = [dataclasses.replace(r, wall_ms=0.0)
                           for r in read_metrics_csv(paths.metrics)]
                out[method] = (Path(paths.snapshot).read_bytes(), records)
            done[blas, cpus] = out
        return done[blas, cpus]

    return run


TWO_CPUS = tuple(CPUS[:2]) if len(CPUS) >= 2 else None


def test_unset_blas_variables_give_the_pinned_bytes(wide_run):
    """With the variables unset, OpenBLAS would start a thread per CPU, and at 100 particles
    and d = 1010 two threads sum the KDE's and the transport's products in another order.
    The package sets them to one thread before numpy is imported.  On a host with one CPU,
    OpenBLAS starts one thread either way, so there this case passes without the pin and
    shows nothing."""
    assert wide_run(None, TWO_CPUS) == wide_run("1", TWO_CPUS)


@pytest.mark.skipif(TWO_CPUS is None, reason="one CPU: a second worker cannot start")
def test_one_worker_and_two_give_the_same_bytes(wide_run):
    assert wide_run("1", TWO_CPUS[:1]) == wide_run("1", TWO_CPUS)

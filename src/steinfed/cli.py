"""Command line entry point.

Subcommands mirror the run phases: ``learn``, ``unlearn``, ``retrain``,
``eval``, and ``export-plot-data``; ``run`` runs learn, unlearn and retrain
in one process, which builds the problem once.  Every run-style command
takes a JSON config plus optional seed and output-directory overrides.
Exit codes: 0 on success, 1 on any runtime or validation failure, 2 on bad
usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .experiments import (
    PHASES,
    ConfigError,
    MissingStateError,
    check_phase_agents,
    evaluate_snapshot,
    export_plot_data,
    load_config,
    resolve_method,
    run_experiment,
    run_paths,
)
from .rules import FieldError


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the config output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinfed",
        description="Particle-based Bayesian federated learning and unlearning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for phase in PHASES.values():
        _add_run_options(sub.add_parser(phase.name, help=phase.help))

    _add_run_options(sub.add_parser("run", help="learn, unlearn and retrain in one process"))
    for name, text, which in (
        ("eval", "recompute metrics for a saved snapshot", "which saved state to evaluate"),
        ("export-plot-data", "reduce a metrics CSV to plot columns",
         "which metrics file to export"),
    ):
        cmd = sub.add_parser(name, help=text)
        _add_run_options(cmd)
        cmd.add_argument("--method", default=None, help=f"{which} (default: per config method)")
    return parser


def _load(args) -> "ExperimentConfig":
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command in PHASES or args.command == "run":
            phases = list(PHASES.values()) if args.command == "run" else [PHASES[args.command]]
            for phase in phases:  # every phase is checked before the first round runs
                check_phase_agents(cfg, phase)
            for phase in phases:
                result = run_experiment(cfg, phase.name)
                last = result.records[-1]
                print(f"{result.method}: {result.rounds_run} rounds -> {result.paths.metrics}")
                summary = {k: v for k, v in last.metrics().items() if v is not None}
                print(json.dumps(summary))
        else:
            method = args.method or resolve_method(cfg.method, "learn")
            if args.command == "eval":
                print(json.dumps(evaluate_snapshot(cfg, method), sort_keys=True))
            else:
                paths = run_paths(cfg, method)
                rows = export_plot_data(paths.metrics, paths.plot)
                print(f"{rows} rows -> {paths.plot}")
    except (ConfigError, FieldError, MissingStateError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

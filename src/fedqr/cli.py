"""Command-line front end: run experiments, run verification suites.

``fedqr run`` executes one federation from a config file or preset and writes
one JSON metrics record per round. ``fedqr verify`` executes a named property
suite and prints one pass/fail line per check. This module owns all file and
console I/O for the package's executable surface.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .config import (
    ExperimentSpec,
    apply_env_overrides,
    experiment_seeds,
    parse_config,
    preset_spec,
    write_metrics,
)
from .data import PartitionError
from .federation import ConfigError, RoundAbortedError, run_federation
from .verify import UnknownSuiteError, run_verify


def run_experiment(spec: ExperimentSpec) -> int:
    """Run one experiment and write its JSON-lines metrics file.

    Returns a process exit code: 0 on success, 1 when a round aborted (a
    diagnostic record is written in place of further rounds), 2 when set-up
    finds the config does not fit the data, or when the output file cannot
    be written (one ``error:`` line, no traceback).
    """
    train, heldout = spec.build_datasets()
    try:
        try:
            metrics = run_federation(spec.federation, train, heldout)
        except RoundAbortedError as exc:
            record = {"aborted": True, "round": exc.round_index, "client": exc.client_id,
                      "error": str(exc)}
            with open(spec.output_path, "w", encoding="ascii") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"aborted: {exc}", file=sys.stderr)
            return 1
        write_metrics(metrics, spec.output_path)
    except (ConfigError, PartitionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    last = metrics[-1]
    print(
        f"{spec.federation.method}: {len(metrics)} rounds -> {spec.output_path} "
        f"(final loss {last.train_loss:.4f}, heldout acc {last.heldout_accuracy:.4f})"
    )
    return 0


def _load_spec(args) -> ExperimentSpec:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            spec = parse_config(fh.read())
    else:
        spec = preset_spec(args.preset)
    spec = apply_env_overrides(spec)
    overrides = {}
    if args.method is not None:
        overrides["method"] = args.method
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if args.seed is not None:
        overrides.update(experiment_seeds(args.seed))
    if overrides:
        spec.federation = replace(spec.federation, **overrides)
    if args.out is not None:
        spec.output_path = args.out
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedqr",
        description="federated low-rank fine-tuning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write JSON-lines metrics")
    run_p.add_argument("--config", help="path to a key-value config file")
    run_p.add_argument("--preset", default="default", help="preset when no config file is given")
    run_p.add_argument("--seed", type=int, help="experiment seed (sets data/partition/train seeds)")
    run_p.add_argument("--method", help="override the aggregation method")
    run_p.add_argument("--rounds", type=int, help="override the round count")
    run_p.add_argument("--out", help="metrics output path")

    verify_p = sub.add_parser("verify", help="run a named verification suite")
    verify_p.add_argument("--suite", default="all", help="suite name (see docs; 'all' runs everything)")

    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            spec = _load_spec(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return run_experiment(spec)

    try:
        results = run_verify(args.suite)
    except UnknownSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

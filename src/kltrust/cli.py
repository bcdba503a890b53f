"""Command-line entry point: run benchmark cells, verify presets, summarize."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import RunConfig, run, summarize, verify_hparams


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kltrust",
        description="Trust-region stochastic optimization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one (task, optimizer, seeds) cell")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")

    sub.add_parser("verify-hparams", help="check shipped presets against the tuned tables")

    p_sum = sub.add_parser("summarize", help="recompute summaries from metrics CSVs")
    p_sum.add_argument("--in", dest="in_dir", required=True, help="directory of CSVs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "verify-hparams":
        report = verify_hparams()
        print(json.dumps(report, indent=2))
        return 0 if report["ok"] else 1

    # run() records numerical faults per seed; what else run or summarize
    # raises is the config's or the data's
    try:
        if args.command == "summarize":
            print(json.dumps(summarize(args.in_dir), indent=2))
            return 0
        result = run(RunConfig.from_json(args.config))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"metrics: {result.csv_path}")
    print(f"summary: {result.summary_path}")
    if result.summary["failed_seeds"]:
        print(f"failed seeds: {result.summary['failed_seeds']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

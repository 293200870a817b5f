"""Batch command-line entry point.

    ssflab <experiment> CONFIG [--seed N] [--out DIR] [--workers K]
                               [--format csv|json]
    ssflab selftest [--seed N]

Exit codes: 0 all hard checks pass, 1 hard-check or runtime failure
(partial outputs flagged in the manifest), 2 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from datetime import datetime, timezone
from pathlib import Path

from ..experiments import RUNNERS, ExperimentError
from . import outputs
from .config import EXPERIMENTS, ConfigError, config_digest, parse_config
from .selftest import run_selftest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssflab",
        description="Spectral-shift laboratory for random lattice operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} campaign")
        p.add_argument("config", type=Path, help="config file (key = value grammar)")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--out", type=Path, default=Path("ssflab-out"),
                       help="output directory root")
        p.add_argument("--workers", type=int, default=None,
                       help="override worker count")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="raw table format")
    st = sub.add_parser("selftest", help="run the module invariant battery")
    st.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        return run_selftest(args.seed)

    started = datetime.now(timezone.utc)
    try:
        text = args.config.read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if config.experiment != args.command:
        print(f"config error: config declares experiment={config.experiment!r}, "
              f"subcommand is {args.command!r}", file=sys.stderr)
        return 2

    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.workers is not None:
        config = dataclasses.replace(config, workers=args.workers)

    digest = config_digest(text)
    outdir = args.out / config.experiment
    outdir.mkdir(parents=True, exist_ok=True)

    try:
        record = RUNNERS[config.experiment](config)
    except Exception as exc:
        # any runtime failure leaves a manifest flagging the partial run
        kind = "experiment" if isinstance(exc, ExperimentError) else type(exc).__name__
        print(f"{kind} failed: {exc}", file=sys.stderr)
        outputs.write_manifest(outdir, None, config_text=text, digest=digest,
                               seed=config.seed, started=started, outputs=[],
                               partial=True, error=str(exc))
        return 1

    written = outputs.write_all(outdir, record, config_text=text, digest=digest,
                                seed=config.seed, started=started,
                                table_format=args.format)
    for check in record.checks:
        status = "PASS" if check["passed"] else (
            "FAIL" if check["kind"] == "hard" else "WARN")
        print(f"{status} [{check['kind']}] {check['name']}: value={check['value']} "
              f"tol={check['tolerance']}")
    print(f"outputs: {', '.join(p.name for p in written)} in {outdir}")
    return 0 if record.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

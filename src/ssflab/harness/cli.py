"""Batch command-line entry point.

    ssflab <experiment> CONFIG [--seed N] [--out DIR] [--workers K]
                               [--format csv|json]
    ssflab selftest [--seed N]

Exit codes: 0 all hard checks pass, 1 hard-check or runtime failure
(partial outputs flagged in the manifest), 2 config error (no outputs).
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

from ..experiments import RUNNERS, ExperimentError
from ..experiments.base import ConfigError, seed_violations
from . import outputs
from .config import EXPERIMENTS, config_digest, parse_config


def _build_parser() -> argparse.ArgumentParser:
    # one flat parser: subparsers would copy the options once per campaign
    parser = argparse.ArgumentParser(
        prog="ssflab",
        description="Spectral-shift laboratory for random lattice operators")
    parser.add_argument("command", choices=(*EXPERIMENTS, "selftest"),
                        help="campaign to run, or selftest (the module invariant battery)")
    parser.add_argument("config", type=Path, nargs="?",
                        help="config file (key = value grammar); campaigns only")
    parser.add_argument("--seed", type=int, default=None,
                        help="override master seed (selftest: default 0)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory root (default ssflab-out)")
    parser.add_argument("--workers", type=int, default=None, help="override worker count")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="raw table format (default csv)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        if (args.config, args.out, args.workers, args.format) != (None,) * 4:
            parser.error("selftest takes no config and no option but --seed")
        seed = 0 if args.seed is None else args.seed
        bad = seed_violations(seed)
        if bad:
            print(str(ConfigError(bad)), file=sys.stderr)
            return 2
        from .selftest import run_selftest  # only this command needs the battery
        return run_selftest(seed)
    if args.config is None:
        parser.error(f"{args.command} needs a config file")

    started = datetime.now(timezone.utc)
    try:
        text = args.config.read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        config = parse_config(text, {"seed": args.seed, "workers": args.workers})
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if config.experiment != args.command:
        print(f"config error: config declares experiment={config.experiment!r}, "
              f"subcommand is {args.command!r}", file=sys.stderr)
        return 2

    digest = config_digest(text)
    outdir = (args.out or Path("ssflab-out")) / config.experiment
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
                                table_format=args.format or "csv")
    for check in record.checks:
        status = "PASS" if check["passed"] else (
            "FAIL" if check["kind"] == "hard" else "WARN")
        print(f"{status} [{check['kind']}] {check['name']}: value={check['value']} "
              f"tol={check['tolerance']}")
    print(f"outputs: {', '.join(p.name for p in written)} in {outdir}")
    return 0 if record.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line front end.

Three subcommands share one config format: `analyze` runs every configured
check, `check` runs a single named one, and `decompose` handles one
symmetric power.  Reports go to stdout as canonical JSON unless --output is
given; a one-line status summary goes to stderr either way.

Exit codes: 0 all checks completed, 2 some checks recorded errors, 1 fatal.
A fatal error (a bad config, generators that do not close to a group, a size
cap hit before any report exists, a file that cannot be read or written)
prints one `error: ...` line to stderr and no report.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline as pl
from .gf import CapacityError


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", required=True, help="job config JSON file")
    sp.add_argument("--seed", type=int, help="override the config seed")
    sp.add_argument("--cache-dir", help="override the config cache directory")
    sp.add_argument("--output", help="report file (json) or directory (csv)")
    sp.add_argument("--format", choices=("json", "csv"), dest="fmt")
    sp.add_argument("--jobs", type=int,
                    help="accepted for compatibility and ignored: every sweep runs in one process")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sympow",
        description="decompose symmetric powers of a linear group action and "
                    "verify their structural properties",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    a = sub.add_parser("analyze", help="run every check the config asks for")
    _add_common(a)
    d = sub.add_parser("decompose", help="decompose a single symmetric power")
    _add_common(d)
    d.add_argument("--n", type=int, required=True, help="degree to decompose")
    c = sub.add_parser("check", help="run one named check")
    _add_common(c)
    c.add_argument("--name", required=True, choices=pl.CHECKS)
    return ap


def _configure(args: argparse.Namespace) -> pl.JobConfig:
    cfg = pl.load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.cache_dir is not None:
        cfg.cache_dir = args.cache_dir
    if args.output is not None:
        cfg.output_path = args.output
    if args.fmt is not None:
        cfg.output_format = args.fmt
    if args.jobs is not None and args.jobs < 1:
        raise pl.ConfigError("--jobs must be at least 1")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _configure(args)
        if args.command == "decompose":
            if args.n < 0:
                raise pl.ConfigError("--n must be nonnegative")
            report = pl.run_single(cfg, args.n)
            errors = {}
        elif args.command == "check":
            cfg.checks = (args.name,)
            report = pl.run(cfg)
            errors = report["errors"]
        else:
            report = pl.run(cfg)
            errors = report["errors"]
        written = pl.emit(report, cfg.output_format, cfg.output_path)
    except (pl.ConfigError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = report.get("volatile", {}).get("elapsed_s", 0.0)
    lines = [f"{args.command}: {len(errors)} error(s), {elapsed}s"]
    for name, msg in errors.items():
        lines.append(f"  {name}: {msg}")
    for path in written:
        lines.append(f"  wrote {path}")
    print("\n".join(lines), file=sys.stderr)
    return 2 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

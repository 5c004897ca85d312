"""Command-line front end.

    blochlab bands       --config C --out F [--report R]
    blochlab superselect --config C --report R [--fringe-prefix P]
    blochlab wannier     --config C --report R
    blochlab floquet     --config C --report R

Exit codes: 0 all invariant checks pass, 1 configuration error, 2 numerical
failure, 3 invariant violation.  Reports are deterministic modulo their
``timing`` block.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .config import KINDS, parse_config
from .errors import ConfigError, InvariantViolation, NumericalFailure
from .reports import atomic_write_text
from .runner import render_report, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochlab",
        description="Band-structure and driven-system superselection experiments",
    )
    parser.add_argument("--version", action="version", version=f"blochlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} scenario")
        p.add_argument("--config", required=True, help="scenario JSON file")
        if kind == "bands":
            p.add_argument("--out", help="band-table CSV path (overrides config)")
        p.add_argument("--report", help="report JSON path (overrides config)")
        if kind == "superselect":
            p.add_argument("--fringe-prefix", help="prefix for fringe CSV series")
        p.add_argument("--seed-battery", type=int, help="override battery seed count")
        p.add_argument(
            "--tol-override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one tolerance (repeatable)",
        )
    return parser


def _config_edits(args: argparse.Namespace) -> tuple[tuple[str, str, object], ...]:
    """--seed-battery and --tol-override as (section, key, value) edits of the config tree."""
    edits = [] if args.seed_battery is None else [("battery", "seeds", args.seed_battery)]
    for item in args.tol_override:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"expected key=value, got {item!r}", "/tolerances")
        try:
            edits.append(("tolerances", key, float(raw)))
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value {raw!r}", f"/tolerances/{key}") from exc
    return tuple(edits)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, _config_edits(args))
        if cfg.kind != args.command:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match command {args.command!r}", "/kind"
            )
        output = dict(cfg.output)
        if getattr(args, "out", None):
            output["csv"] = args.out
        if args.report:
            output["report"] = args.report
        if getattr(args, "fringe_prefix", None):
            output["fringe_prefix"] = args.fringe_prefix
        cfg = replace(cfg, output=output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = run_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    if "report" in cfg.output:
        atomic_write_text(cfg.output["report"], render_report(report))
    for name, ok in report.checks.items():
        print(f"{report.kind}: {name}: {'pass' if ok else 'FAIL'}")
    if not report.passed:
        print(f"{report.kind}: invariant checks failed", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

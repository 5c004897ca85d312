"""Command-line front end.

    blochlab bands       --config C --out F [--report R]
    blochlab superselect --config C --report R [--fringe-prefix P]
    blochlab wannier     --config C --report R
    blochlab floquet     --config C --report R

Exit codes: 0 all invariant checks pass, 1 configuration error (a usage
error, an output path that cannot be written, and two output paths, or an
output and the config, that name one file included), 2 numerical failure,
3 invariant violation.
Reports are strict JSON, deterministic modulo their ``timing`` block; a
run's files are written after it, whatever its verdict, in one staged write.
A result that is not a finite number is a numerical failure naming its JSON
pointer, and its run writes no file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .config import KINDS, OUTPUT_KEYS, output_path, parse_config
from .errors import ConfigError, InvariantViolation, NumericalFailure
from .reports import atomic_write_text, bands_csv, fringe_csv
from .runner import render_report, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3

_OUTPUT_FLAGS = {"csv": "--out", "report": "--report", "fringe_prefix": "--fringe-prefix"}
_FRINGE_SERIES = {"_cross.csv": "fringe_cross", "_within.csv": "fringe_within"}  # results key


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, a config error, not 2, a numerical failure."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache  # built once per process: a caller may run many scenarios in one
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blochlab",
        description="Band-structure and driven-system superselection experiments",
    )
    parser.add_argument("--version", action="version", version=f"blochlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} scenario")
        p.add_argument("--config", required=True, help="scenario JSON file")
        for key in OUTPUT_KEYS[kind]:
            p.add_argument(_OUTPUT_FLAGS[key], dest=key, help=f"{key} path (overrides config)")
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


def _check_distinct(
    output: dict[str, str], sources: dict[str, str], kind: str, config: str
) -> None:
    """Raise ConfigError when two requested files, or one and ``config``, resolve to one path.

    ``sources`` names where each output key was set: its flag, or its
    /output/<key> pointer; ``config`` is named --config.  A fringe prefix
    requests one file per suffix.
    """
    seen = {os.path.realpath(config): "--config"}
    for key, suffixes in OUTPUT_KEYS[kind].items():
        for suffix in suffixes if key in output else ():
            target = os.path.realpath(output[key] + suffix)
            name = sources[key] + (f" ({suffix})" if suffix else "")
            if target in seen:
                raise ConfigError(
                    f"{seen[target]} and {name} both name the file {target!r}", sources[key]
                )
            seen[target] = name


def _output_files(report: dict, output: dict[str, str]) -> dict[str, str]:
    """Path -> text of each requested file, in OUTPUT_KEYS order, from the report."""
    files = {}
    for key, suffixes in OUTPUT_KEYS[report["kind"]].items():
        for suffix in suffixes if key in output else ():
            if key == "report":
                files[output[key]] = render_report(report)
            elif key == "csv":
                files[output[key]] = bands_csv(report["results"])
            elif _FRINGE_SERIES[suffix] in report["results"]:  # no within scan on one band
                files[output[key] + suffix] = fringe_csv(report["results"][_FRINGE_SERIES[suffix]])
    return files


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, _config_edits(args))
        if cfg.kind != args.command:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match command {args.command!r}", "/kind"
            )
        output = dict(cfg.output)
        sources = {key: f"/output/{key}" for key in output}
        for key, suffixes in OUTPUT_KEYS[cfg.kind].items():
            value = getattr(args, key)  # each flag's dest is its output key
            if value is not None:
                output[key] = output_path(value, _OUTPUT_FLAGS[key], suffixes)
                sources[key] = _OUTPUT_FLAGS[key]
        _check_distinct(output, sources, cfg.kind, args.config)
        report = run_scenario(cfg)
        atomic_write_text(_output_files(report, output))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # an output file that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    for name, ok in report["checks"].items():
        print(f"{report['kind']}: {name}: {'pass' if ok else 'FAIL'}")
    if not report["passed"]:
        print(f"{report['kind']}: invariant checks failed", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

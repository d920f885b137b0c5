"""Command-line entry point.

    snls <experiment> --config <path> [--output-dir <path>] [--threads N]
    snls plot-data <series.csv> --columns t,mass [--out <path>]

--threads is accepted and checked (N >= 1); sweep points run in order in
one thread.  Exit codes: 0 ok, 2 config error, 3 numerical instability,
4 I/O error.
Failures print a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import EXPERIMENTS, parse_config
from .errors import CheckpointError, ConfigError, InstabilityError, SnlsError
from .experiments import emit_plot_data, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snls",
        description="1D defocusing NLS with steplike potentials: runs and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True, help="run configuration file")
        sp.add_argument("--output-dir", default=None, help="artifact directory")
        sp.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted; sweep points run in order in one thread",
        )
    plot = sub.add_parser("plot-data", help="extract series columns for gnuplot")
    plot.add_argument("series", help="a series.csv produced by a run")
    plot.add_argument("--columns", required=True, help="comma-separated column names")
    plot.add_argument("--out", default=None, help="output file (default: stdout)")
    return parser


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "plot-data":
            text = emit_plot_data(args.series, [c.strip() for c in args.columns.split(",")])
            if args.out is None:
                sys.stdout.write(text)
            else:
                with open(args.out, "w") as fh:
                    fh.write(text)
        else:
            cfg = parse_config(args.config)
            if cfg.experiment() != args.command:
                raise ConfigError(
                    f"config declares experiment={cfg.experiment()!r} "
                    f"but the command line asked for {args.command!r}"
                )
            run(cfg, output_dir=args.output_dir, threads=args.threads)
    except ConfigError as exc:
        return _fail("ConfigError", str(exc), EXIT_CONFIG)
    except InstabilityError as exc:
        return _fail("InstabilityError", str(exc), EXIT_INSTABILITY)
    except CheckpointError as exc:
        return _fail("CheckpointError", str(exc), EXIT_IO)
    except OSError as exc:
        return _fail("IOError", str(exc), EXIT_IO)
    except SnlsError as exc:
        return _fail(type(exc).__name__, str(exc), EXIT_CONFIG)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line runner: configure a case, run it, write the outputs."""

from __future__ import annotations

import argparse
import sys

from . import cases, solver

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_OUTPUT = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fslvlasov",
        description="Forward semi-Lagrangian phase-space solver: benchmark runner",
    )
    p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    p.add_argument("--case", metavar="NAME", help="case name shortcut")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument(
        "--set", metavar="KEY=VALUE", action="append", default=[],
        dest="overrides", help="override a config key (repeatable)",
    )
    p.add_argument("--list-cases", action="store_true", help="list case names")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_cases:
        for name in cases.CASES:
            print(name)
        return EXIT_OK

    try:
        if args.config:
            with open(args.config) as fh:
                cfg = cases.parse_config(fh.read())
            if args.case:
                raise cases.ConfigError("--case and --config are exclusive")
        elif args.case:
            cfg = cases.case_defaults(args.case)
        else:
            raise cases.ConfigError("one of --case or --config is required")
        cfg = cases.apply_overrides(cfg, cases.read_pairs(args.overrides, what="--set"))
        result = solver.run(cfg, outdir=args.out)
    except (cases.ConfigError, OSError) as err:  # OSError: reading --config (run's are OutputError)
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except solver.OutputError as err:
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_OUTPUT
    except solver.NumericsAbort as err:
        print(f"numeric abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    last = {k: v[-1] for k, v in result.channels.items()}
    summary = " ".join(f"{k}={v:.6g}" for k, v in list(last.items())[:4])
    print(f"done: case={cfg.case} t={result.times[-1]:g} {summary}")
    return EXIT_OK


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

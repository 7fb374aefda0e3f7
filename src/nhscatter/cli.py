"""Command-line entry point: one subcommand per experiment scenario.

Exit status: 0 when every built-in assertion of the run passed, 1 when any
failed, 2 on configuration or runtime errors and on a fault of the program,
which prints its traceback.
"""

import argparse
import sys
import traceback

from .dynamics import BoundaryContaminationError, PropagatorError
from .experiments import (
    SCENARIO_TABLE,
    ConfigError,
    apply_overrides,
    default_config,
    load_config,
    run_scenario,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhscatter",
        description="Non-Hermitian tight-binding scattering experiments.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, scenario in SCENARIO_TABLE.items():
        p = sub.add_parser(name, help=scenario.help)
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="overrides",
            help=f"override a config value of {', '.join(scenario.keys)} (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = default_config(args.scenario)
        if args.config:
            config = load_config(args.config, base=config)
        config = apply_overrides(config, args.overrides)
        if args.out is not None:
            config.out_dir = args.out
        manifest = run_scenario(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BoundaryContaminationError, PropagatorError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault of the program: exit 1 is kept for a failed assertion
        traceback.print_exc()
        return 2

    for a in manifest.assertions:
        status = "PASS" if a.passed else "FAIL"
        line = f"[{status}] {a.name}: {a.measured} (wants {a.threshold})"
        if a.detail:
            line += f"  [{a.detail}]"
        print(line)
    print(
        f"{manifest.scenario}: {'all assertions passed' if manifest.passed else 'FAILED'}"
        f" in {manifest.duration_s:.1f}s -> {config.out_dir}"
    )
    return 0 if manifest.passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: run scenarios, convergence checks, parameter sweeps."""

from __future__ import annotations

import argparse
import sys

from .harness import grid_doubling_check, run_and_emit
from .scenario import ScenarioError, _interval, load_scenario, with_interval, with_regions

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenolattice",
        description="Repeated measurement of a free particle on a periodic lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write CSV output")
    run.add_argument("scenario", help="path to a scenario file")
    run.add_argument("--out", default=None, help="override the scenario's output directory")
    run.set_defaults(handler=_cmd_run)

    conv = sub.add_parser(
        "convergence",
        help="rerun a scenario on a doubled grid and report the differences",
    )
    conv.add_argument("scenario", help="path to a scenario file")
    conv.set_defaults(handler=_cmd_convergence)

    sweep = sub.add_parser(
        "sweep",
        help="rerun a scenario over several intervals or region counts",
    )
    sweep.add_argument("scenario", help="path to a scenario file")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--interval",
        default=None,
        help="comma-separated measurement intervals in display units; 'none' allowed",
    )
    group.add_argument(
        "--regions",
        default=None,
        help="comma-separated region counts (region_pvm scenarios only)",
    )
    sweep.add_argument("--out", default=None, help="base directory for the per-value outputs")
    sweep.set_defaults(handler=_cmd_sweep)
    return parser


def _summary_line(records) -> str:
    final = records[-1]
    parts = [
        f"t={final.time_display:g}",
        f"purity={final.purity:.6f}",
        f"expected_momentum={final.expected_momentum_signed:.6f}",
    ]
    if final.region_masses.size:
        parts.append(f"region_mass_0={final.region_masses[0]:.6f}")
    return " ".join(parts)


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    records, paths = run_and_emit(scenario, args.out)
    print(f"{len(records)} records ({_summary_line(records)})")
    for path in paths:
        print(path)
    return 0


def _cmd_convergence(args) -> int:
    scenario = load_scenario(args.scenario)
    report = grid_doubling_check(scenario)
    print(f"grid doubling: {report.n_sites} -> {2 * report.n_sites} sites")
    print("time_display,position_max_diff,momentum_max_diff")
    for t, p, m in zip(
        report.record_times_display, report.position_max_diff, report.momentum_max_diff
    ):
        print(f"{t:g},{p:.6e},{m:.6e}")
    print(f"worst,{report.worst_position_diff:.6e},{report.worst_momentum_diff:.6e}")
    return 0


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    base = args.out if args.out is not None else scenario.output_dir
    name = "interval" if args.interval is not None else "regions"
    values = [tok.strip().lower() for tok in getattr(args, name).split(",") if tok.strip()]
    if not values:
        raise ScenarioError(f"--{name} needs at least one value")
    # Every value is parsed and derived, and so checked, before any run
    # writes output; a value equal to an earlier one would run it twice.
    derive = with_interval if name == "interval" else with_regions
    parse = _interval if name == "interval" else int
    parsed = [parse(token) for token in values]
    for i, value in enumerate(parsed):
        if value in parsed[:i]:
            raise ScenarioError(f"--{name} value {values[i]!r} repeats {values[parsed.index(value)]!r}")
    derived = [derive(scenario, value) for value in parsed]
    for token, variant in zip(values, derived):
        records, _ = run_and_emit(variant, f"{base}/{name}_{token}")
        print(f"{name}={token}: {_summary_line(records)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

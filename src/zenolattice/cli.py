"""Command-line front end: run scenarios, convergence checks, parameter sweeps."""

from __future__ import annotations

import argparse
import sys

from .harness import grid_doubling_check, run_and_emit
from .scenario import ScenarioError, load_scenario, with_interval, with_regions

__all__ = ["main"]


def _parse_interval_token(token: str) -> float | None:
    token = token.strip()
    if token.lower() == "none":
        return None
    return float(token)


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
    if args.interval is not None:
        values = [tok.strip() for tok in args.interval.split(",") if tok.strip()]
        if not values:
            raise ScenarioError("--interval needs at least one value")
        for token in values:
            derived = with_interval(scenario, _parse_interval_token(token))
            records, _ = run_and_emit(derived, f"{base}/interval_{token.lower()}")
            print(f"interval={token.lower()}: {_summary_line(records)}")
    else:
        values = [tok.strip() for tok in args.regions.split(",") if tok.strip()]
        if not values:
            raise ScenarioError("--regions needs at least one value")
        for token in values:
            derived = with_regions(scenario, int(token))
            records, _ = run_and_emit(derived, f"{base}/regions_{token}")
            print(f"regions={token}: {_summary_line(records)}")
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

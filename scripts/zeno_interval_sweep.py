#!/usr/bin/env python3
"""How measurement cadence changes packet retention.

Runs the moving-packet scenario against a 6-region position PVM for several
measurement intervals (plus the unmeasured baseline) and prints how much
probability is still left of the first region boundary at a fixed time,
together with the reflected (negative-momentum) fraction.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from zenolattice import (
    Schedule,
    load_scenario,
    run_schedule,
    with_interval,
    with_regions,
)
from zenolattice.scenario import _interval

DEFAULT_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "pvm_packet.ini"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(DEFAULT_SCENARIO))
    parser.add_argument("--time", type=float, default=100.0, help="display time to inspect")
    parser.add_argument(
        "--intervals", default="none,8,4,2,1", help="comma list of intervals; 'none' allowed"
    )
    parser.add_argument("--regions", default="2,6,12", help="comma list of region counts")
    args = parser.parse_args()

    base = load_scenario(args.scenario)
    schedule = Schedule(1.0, args.time, (args.time,))
    base = replace(base, schedule=schedule)
    n = base.lattice.n_sites

    print(f"initial-region retention at display time {args.time:g} (N={n})")
    print(f"{'interval':>10} {'region0 mass':>14} {'neg momentum':>14} {'purity':>10}")
    six = with_regions(base, 6)
    for token in args.intervals.split(","):
        token = token.strip().lower()
        rec = run_schedule(with_interval(six, _interval(token)))[0]
        mass = rec.region_masses[0]
        print(
            f"{token:>10} {mass:>14.6f} {rec.negative_momentum_fraction:>14.6f} "
            f"{rec.purity:>10.6f}"
        )

    print()
    print(f"per-unit measurement, varying region count (each run's own start region)")
    print(f"{'regions':>10} {'start-region mass':>18} {'region width':>14}")
    for token in args.regions.split(","):
        m = int(token)
        variant = with_regions(base, m)
        rec = run_schedule(variant)[0]
        partition = variant.operator
        region = partition.region_containing(8)
        lo, hi = partition.region_range(region)
        mass = rec.region_masses[region]
        print(f"{m:>10} {mass:>18.6f} {hi - lo:>14}")


if __name__ == "__main__":
    main()

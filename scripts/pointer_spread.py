#!/usr/bin/env python3
"""Pointer measurement accelerates the spreading of a stationary packet.

Compares the unmeasured evolution of a stationary Gaussian packet with runs
measured by Gaussian pointers of several widths, tracking the position and
momentum variance; sharper pointers pump more momentum per application.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from zenolattice import (
    PointerSpec,
    Schedule,
    circular_variance,
    load_scenario,
    run_schedule,
    with_interval,
)

DEFAULT_SCENARIO = (
    Path(__file__).resolve().parent.parent / "scenarios" / "pointer_stationary.ini"
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(DEFAULT_SCENARIO))
    parser.add_argument("--alphas", default="0.2,0.5", help="comma list of inverse widths")
    args = parser.parse_args()

    base = load_scenario(args.scenario)
    final_time = base.schedule.record_times[-1]
    rec = run_schedule(with_interval(base, None))[-1]
    print(f"position variance at display time {final_time:g}")
    print(f"{'pointer':>10} {'pos variance':>14} {'mom variance':>14}")
    print(f"{'none':>10} {circular_variance(rec.position_dist):>14.2f} "
          f"{rec.momentum_variance:>14.2f}")
    alphas = [float(tok) for tok in args.alphas.split(",")]
    for alpha in alphas:
        rec = run_schedule(replace(base, measurement=PointerSpec(alpha)))[-1]
        print(f"{alpha:>10g} {circular_variance(rec.position_dist):>14.2f} "
              f"{rec.momentum_variance:>14.2f}")

    interval = base.schedule.measurement_interval or 10.0
    steps = int(final_time / interval)
    print()
    print(f"momentum variance after each of {steps} pointer applications")
    header = f"{'hit':>4}" + "".join(f" {'alpha=' + format(a, 'g'):>12}" for a in alphas)
    print(header)
    hits = tuple(hit * interval for hit in range(1, steps + 1))
    schedule = Schedule(interval, hits[-1], hits)
    runs = [
        run_schedule(replace(base, measurement=PointerSpec(alpha), schedule=schedule))
        for alpha in alphas
    ]
    for hit, records in enumerate(zip(*runs), start=1):
        print(f"{hit:>4}" + "".join(f" {rec.momentum_variance:>12.2f}" for rec in records))


if __name__ == "__main__":
    main()

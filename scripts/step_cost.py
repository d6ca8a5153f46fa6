"""Median cost in milliseconds of each stepping-engine operation.

Times a free leg, a pointer step, a region-PVM step, a LINEAR-kernel step
(a step is one leg and one measurement) and a snapshot through Propagator
at N = 256, 512 and 1024, and prints the medians as JSON:

    PYTHONPATH=src python scripts/step_cost.py
"""

import json
import time

import numpy as np

from zenolattice import DistanceConvention, GaussianPacketSpec, PointerSpec
from zenolattice import build_gaussian_packet, make_regions, pointer_kernel
from zenolattice.propagator import Propagator, Snapshots

INTERVAL = 0.001  # one display unit of natural time
REPEATS = 25


def median_ms(action):
    action()  # FFT plans and lazily allocated buffers are set up untimed
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return round(1e3 * float(np.median(times)), 3)


def costs(n):
    # The pvm_packet state and measurements, scaled with N.
    state = build_gaussian_packet(GaussianPacketSpec(n // 32, n / 32, 31 * n // 256), n)
    alpha = 0.2 * 256 / n
    measurements = {
        "pointer_step": pointer_kernel(PointerSpec(alpha), n),
        "pvm_step": make_regions(n, 6),
        "linear_step": pointer_kernel(PointerSpec(alpha, DistanceConvention.LINEAR), n),
    }
    free = Propagator(state, None, INTERVAL)
    snapshots = Snapshots(1, n)

    def snapshot():
        free.record(snapshots, 0)
        snapshots.position_distribution(0), snapshots.momentum_distribution(0), snapshots.purity(0)

    row = {"free_leg": median_ms(lambda: free.advance(INTERVAL)), "snapshot": median_ms(snapshot)}
    for name, measurement in measurements.items():
        engine = Propagator(state, measurement, INTERVAL)
        row[name] = median_ms(lambda: (engine.advance(INTERVAL), engine.measure()))
    return row


if __name__ == "__main__":
    print(json.dumps({n: costs(n) for n in (256, 512, 1024)}, indent=2))

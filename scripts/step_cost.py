"""Median cost in reference milliseconds of each stepping-engine operation.

Times a free leg, a pointer step, a 6-region and a 16-region PVM step, a
LINEAR-kernel step (a step is one leg and one measurement) and a snapshot
through Propagator at N = 256, 512 and 1024, and prints the medians as
JSON. Steps are timed after the engine's first measurement, which narrows
a PVM engine to its band:

    PYTHONPATH=src python scripts/step_cost.py

Run from the root of a checkout; it imports bench/execution.py and
bench/run.py for the calibration. The host's speed drifts, so each median
is scaled as bench/run.py scales run_s: by REFERENCE_CALIBRATION_S[N] over
the wall time of execution.calibrate(N), the mean of one timing before and
one after the operations at that N. N = 512 has no reference figure; it
uses the kernel and figure of N = 256.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

from zenolattice import DistanceConvention, GaussianPacketSpec, PointerSpec
from zenolattice import build_gaussian_packet, make_regions, pointer_kernel
from zenolattice.propagator import Propagator, Snapshots

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from execution import calibrate  # noqa: E402
from run import REFERENCE_CALIBRATION_S  # noqa: E402

INTERVAL = 0.001  # one display unit of natural time
REPEATS = 25


def median_s(action):
    action()  # FFT plans, lazily allocated buffers and narrowing are set up untimed
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def costs(n):
    """Wall-second medians of each operation at N sites."""
    # The pvm_packet state and measurements, scaled with N.
    state = build_gaussian_packet(GaussianPacketSpec(n // 32, n / 32, 31 * n // 256), n)
    alpha = 0.2 * 256 / n
    measurements = {
        "pointer_step": pointer_kernel(PointerSpec(alpha), n),
        "pvm_step": make_regions(n, 6),
        "pvm16_step": make_regions(n, 16),
        "linear_step": pointer_kernel(PointerSpec(alpha, DistanceConvention.LINEAR), n),
    }
    free = Propagator(state, None, INTERVAL)
    snapshots = Snapshots(1, n)

    def snapshot():
        free.record(snapshots, 0)
        snapshots.position_distribution(0), snapshots.momentum_distribution(0), snapshots.purity(0)

    row = {"free_leg": median_s(lambda: free.advance(INTERVAL)), "snapshot": median_s(snapshot)}
    for name, measurement in measurements.items():
        engine = Propagator(state, measurement, INTERVAL)
        row[name] = median_s(lambda: (engine.advance(INTERVAL), engine.measure()))
    return row


def reference_costs(n):
    """costs(n) in reference milliseconds."""
    size = max(k for k in REFERENCE_CALIBRATION_S if k <= n)
    before = calibrate(size)
    row = costs(n)
    kernel = (before + calibrate(size)) / 2
    scale = 1e3 * REFERENCE_CALIBRATION_S[size] / kernel
    return {name: round(seconds * scale, 3) for name, seconds in row.items()}


if __name__ == "__main__":
    print(json.dumps({n: reference_costs(n) for n in (256, 512, 1024)}, indent=2))

"""Median cost in reference milliseconds of each stepping-engine operation.

Times a pointer step, a 6-region and a 16-region PVM step, a LINEAR-kernel
step (a step is one measure: a leg of the interval, then the channel); the
first measurement of a 6-region engine (narrowing, which builds its band
from G's rows a chunk at a time, with no G); a measure of a narrowed
6-region engine whose leg has a new length (band_kernel, which builds the
leg's band kernel K); and snapshots: of an unmeasured engine (snapshot,
read off psi(t) in its pure stage), of a 6-region engine after narrowing
on the measurement grid (narrowed_snapshot, read off its band) and half an
interval after it (off_grid_snapshot, which rebuilds G a chunk of rows at
a time), and of a pointer engine, which holds G, half an interval after
its measurement (off_grid_pointer_snapshot, which sums G's rows times the
leg's phases), through Propagator at N = 256, 512 and 1024; and a whole
run_schedule of the pointer_n1024 benchmark
workload's shape scaled with N (pointer_run: 40 pointer applications, at
N = 1024 that workload, stepped in row blocks of BLOCK_ENTRIES), and the
same run at alpha = 256 / N (wide_pointer_run), whose plan narrows to
W = 224 / 441 / 875 columns at N = 256 / 512 / 1024. It prints the medians
as JSON, with the tracemalloc peaks of narrowing and of band_kernel in KiB
beside them (narrowing_peak_kib and band_kernel_peak_kib, beyond what the
engine held before) and the two runs' (pointer_run_peak_kib and
wide_pointer_run_peak_kib). Each measured engine reads a ChannelPlan of its
measurement, built once, as a run builds it, and not timed. Every engine
is built and timed through in_one_row_buffer, as run_blocks steps a run's
blocks, so numpy's ufunc buffer is one row of N, as in a run. Steps are
timed after the engine's first measurement, which ends its pure stage and
narrows a PVM engine to its band:

    PYTHONPATH=src python scripts/step_cost.py

Run from the root of a checkout; reference_costs imports bench/execution.py
and bench/run.py for the calibration, and costs imports nothing from
bench/. The host's speed drifts, so each median is scaled as bench/run.py
scales run_s: by REFERENCE_CALIBRATION_S[N] over the wall time of
execution.calibrate(N), the mean of one timing before and one after the
operations at that N. N = 512 has no reference figure; it uses the kernel
and figure of N = 256.
"""

import itertools
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from zenolattice import DistanceConvention, GaussianPacketSpec, LatticeConfig, PointerSpec, Scenario
from zenolattice import Schedule, build_gaussian_packet, make_regions, pointer_kernel, run_schedule
from zenolattice.propagator import ChannelPlan, Propagator, Snapshots, in_one_row_buffer

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


def first_measure_s(state, plan):
    """Median wall seconds of the first measure of a fresh engine, a leg of
    one interval; the first of REPEATS + 1 engines sets up FFT plans
    untimed."""
    times = []
    for _ in range(REPEATS + 1):
        engine = Propagator(state, plan)
        start = time.perf_counter()
        engine.measure(INTERVAL)
        times.append(time.perf_counter() - start)
    return float(np.median(times[1:]))


def costs(n):
    """Wall-second medians of each operation at N sites, stepped in the
    one-row ufunc buffer that run_blocks gives a run."""
    return in_one_row_buffer(n, lambda: _costs(n))


def peaks_kib(n):
    """The tracemalloc peaks, in KiB beyond what the engine held before, of
    a fresh 6-region engine's first measure, a leg of one interval
    (narrowing_peak_kib), and of a narrowed one's measure whose leg has a
    new length, which builds its K (band_kernel_peak_kib), each traced
    after one untraced, in the one-row ufunc buffer that run_blocks gives a
    run; and the peaks of the two pointer runs (pointer_run_peak_kib and
    wide_pointer_run_peak_kib), each traced after one untraced too."""
    state, measurements = _workload(n)
    plan = ChannelPlan(measurements["pvm_step"])
    narrowed = Propagator(state, plan)
    lengths = (INTERVAL * (1 + j / 1000) for j in itertools.count())

    def fresh():
        engine = Propagator(state, plan)
        return lambda: engine.measure(INTERVAL)

    def new_leg():
        t = next(lengths)
        return lambda: narrowed.measure(t)

    def peaks():
        narrowed.measure(INTERVAL)  # narrows, so that each new_leg builds a K
        return {
            "narrowing_peak_kib": _peak_kib(fresh),
            "band_kernel_peak_kib": _peak_kib(new_leg),
            "pointer_run_peak_kib": _peak_kib(lambda: lambda: run_schedule(_pointer_run(n))),
            "wide_pointer_run_peak_kib": _peak_kib(lambda: lambda: run_schedule(_pointer_run(n, 256 / n))),
        }

    return in_one_row_buffer(n, peaks)


def _peak_kib(prepare):
    """KiB that the action prepare() returns allocates at its peak beyond
    what was held before it, on the second of two, the first untraced."""
    for traced in (False, True):
        action = prepare()
        if traced:
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
        action()
    kib = (tracemalloc.get_traced_memory()[1] - before) / 1024
    tracemalloc.stop()
    return round(kib, 1)


def _workload(n):
    """The pvm_packet state and the measurements, scaled with N."""
    state = build_gaussian_packet(GaussianPacketSpec(n // 32, n / 32, 31 * n // 256), n)
    alpha = 0.2 * 256 / n
    return state, {
        "pointer_step": pointer_kernel(PointerSpec(alpha), n),
        "pvm_step": make_regions(n, 6),
        "pvm16_step": make_regions(n, 16),
        "linear_step": pointer_kernel(PointerSpec(alpha, DistanceConvention.LINEAR), n),
    }


def _pointer_run(n, alpha=None):
    """The pointer_n1024 benchmark workload's scenario, scaled with N as
    _workload scales alpha unless alpha is given: 40 applications at
    interval 10, records at 0, 200 and 400."""
    return Scenario(
        lattice=LatticeConfig(n),
        state=GaussianPacketSpec(n // 2, n / 32, 0),
        measurement=PointerSpec(0.2 * 256 / n if alpha is None else alpha),
        schedule=Schedule(10.0, 400.0, (0.0, 200.0, 400.0)),
    )


def _costs(n):
    state, measurements = _workload(n)
    unmeasured = Propagator(state)
    pointer = Propagator(state, ChannelPlan(measurements["pointer_step"]))
    narrowed, kernel = (Propagator(state, ChannelPlan(measurements["pvm_step"])) for _ in range(2))
    for engine in (pointer, narrowed, kernel):
        engine.measure(INTERVAL)
    snapshots = Snapshots(1, n)
    pointer_run, wide_pointer_run = _pointer_run(n), _pointer_run(n, 256 / n)

    def snapshot(engine, t):
        engine.record(snapshots, 0, t)
        snapshots.position_distribution(0), snapshots.momentum_distribution(0), snapshots.purity(0)

    lengths = (INTERVAL * (1 + j / 1000) for j in itertools.count(1))
    row = {
        "snapshot": median_s(lambda: snapshot(unmeasured, 0.0)),
        "narrowed_snapshot": median_s(lambda: snapshot(narrowed, 0.0)),
        "off_grid_snapshot": median_s(lambda: snapshot(narrowed, INTERVAL / 2)),
        "off_grid_pointer_snapshot": median_s(lambda: snapshot(pointer, INTERVAL / 2)),
        "narrowing": first_measure_s(state, ChannelPlan(measurements["pvm_step"])),
        "band_kernel": median_s(lambda: kernel.measure(next(lengths))),
        "pointer_run": median_s(lambda: run_schedule(pointer_run)),
        "wide_pointer_run": median_s(lambda: run_schedule(wide_pointer_run)),
    }
    for name, measurement in measurements.items():
        engine = Propagator(state, ChannelPlan(measurement))
        row[name] = median_s(lambda: engine.measure(INTERVAL))
    return row


def reference_costs(n):
    """costs(n) in reference milliseconds."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from execution import calibrate
    from run import REFERENCE_CALIBRATION_S

    size = max(k for k in REFERENCE_CALIBRATION_S if k <= n)
    before = calibrate(size)
    row = costs(n)
    kernel = (before + calibrate(size)) / 2
    scale = 1e3 * REFERENCE_CALIBRATION_S[size] / kernel
    row = {name: round(seconds * scale, 3) for name, seconds in row.items()}
    row.update(peaks_kib(n))
    return row


if __name__ == "__main__":
    print(json.dumps({n: reference_costs(n) for n in (256, 512, 1024)}, indent=2))

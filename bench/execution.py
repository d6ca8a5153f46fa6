"""One execution of one workload, in a fresh interpreter.

Run by bench/run.py with `src` on PYTHONPATH, so the program's module caches
start cold as in a fresh `zenolattice run`. Prints one JSON object:

- setup_s: wall time from before `import zenolattice` through load_scenario;
- calibration_s: wall time of the host-speed kernel (`calibrate`), timed
  right after run_and_emit (--mode time and trace only);
- run_s: wall time of run_and_emit into a fresh directory, if it returned;
- peak_mem_mb: tracemalloc peak over run_and_emit (--mode mem only);
- layers: per-layer metrics from spans (--mode trace only);
- errors: why the execution failed, empty when it raised nothing and its
  records pass bench/checks.py.

Only the standard library is imported before the setup clock starts.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import workload

# Public functions wrapped where zenolattice.harness (and, for the transforms,
# zenolattice.observables) bind them, with the layer name each reports under.
HARNESS_LAYERS = {
    "density_to_momentum": "lattice.to_momentum",
    "density_to_position": "lattice.to_position",
    "evolve_density": "lattice.evolve",
    "pvm_channel": "channels.pvm",
    "kernel_channel": "channels.kernel",
    "build_channel": "harness.build_channel",
    "position_distribution": "observables.position_distribution",
    "purity": "observables.purity",
    "region_masses": "observables.region_masses",
    "build_initial_state": "states.build_initial_state",
    "density_from_pure": "states.density_from_pure",
    "run_schedule": "harness.run_schedule",
    "emit_csv": "harness.emit_csv",
}
OBSERVABLES_LAYERS = {
    "density_to_momentum": "lattice.to_momentum",
    "density_to_position": "lattice.to_position",
}
CALL_COUNTED = (
    "lattice.to_momentum",
    "lattice.to_position",
    "lattice.evolve",
    "channels.pvm",
    "channels.kernel",
    "observables.position_distribution",
    "observables.purity",
    "observables.region_masses",
)
SELF_TIMED = CALL_COUNTED + (
    "harness.build_channel",
    "harness.emit_csv",
    "harness.run_schedule",
    "states.build_initial_state",
    "states.density_from_pure",
    "scenario.load_scenario",
)


def calibrate(n_sites: int) -> float:
    """Wall time of a fixed numpy kernel that no change to the program moves.

    It is the program's dominant operation, a two-sided FFT of an N x N
    complex128 matrix, written with numpy alone and repeated 2**23 / N^2
    times (about 0.2 s on the reference machine). The host's speed drifts
    by up to 2x within minutes; timed next to an execution, in the same
    process, this kernel slows with it, so bench/run.py divides the
    execution's times by it. It writes into buffers allocated and faulted
    in before the clock starts: with a fresh array per call its time
    doubled or halved with the allocator state the program left behind.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    rho = rng.standard_normal((n_sites, n_sites)) + 1j * rng.standard_normal((n_sites, n_sites))
    half, out = np.empty_like(rho), np.empty_like(rho)
    np.fft.ifft(np.fft.fft(rho, axis=1, out=half), axis=0, out=out)
    start = time.perf_counter()
    for _ in range(max(1, 2**23 // n_sites**2)):
        np.fft.ifft(np.fft.fft(rho, axis=1, out=half), axis=0, out=out)
    return time.perf_counter() - start


def _install_tracing(tracer: Tracer, distinct_dt: set[float]) -> None:
    from zenolattice import harness, observables

    for attr, name in HARNESS_LAYERS.items():
        tracer.wrap(harness, attr, name)
    for attr, name in OBSERVABLES_LAYERS.items():
        tracer.wrap(observables, attr, name)
    traced_evolve = harness.evolve_density

    def evolve_density(rho, t):
        distinct_dt.add(float(t))
        return traced_evolve(rho, t)

    harness.evolve_density = evolve_density


def _layer_metrics(tracer: Tracer, distinct_dt: set[float], n_sites: int, paths) -> dict[str, float]:
    totals = tracer.layer_totals()
    metrics: dict[str, float] = {}
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = totals.get(name, (0, 0.0))[0]
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = totals.get(name, (0, 0.0))[1]
    metrics["lattice.evolve.distinct_dt"] = len(distinct_dt)
    # Computed, not measured: a two-sided transform is 2N length-N FFTs of
    # 5 N log2 N flops each, in two passes that each read and write N^2
    # complex128 values.
    transforms = metrics["lattice.to_momentum.calls"] + metrics["lattice.to_position.calls"]
    metrics["lattice.transform.gflop"] = transforms * 10 * n_sites**2 * math.log2(n_sites) / 1e9
    metrics["lattice.transform.gb"] = transforms * 64 * n_sites**2 / 1e9
    rows = 0
    for path in paths:
        with open(path) as handle:
            rows += sum(1 for _ in handle) - 1
    metrics["harness.emit_csv.rows"] = rows
    metrics["harness.emit_csv.bytes"] = sum(Path(p).stat().st_size for p in paths)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ini", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory for outputs")
    parser.add_argument("--mode", choices=("setup", "time", "mem", "trace"), required=True)
    parser.add_argument("--run-id", type=int, default=0)
    args = parser.parse_args()
    tracer = Tracer(args.run_id) if args.mode == "trace" else None

    start = time.perf_counter()
    import zenolattice

    if tracer is not None:
        with tracer.span("scenario.load_scenario"):
            scenario = zenolattice.load_scenario(args.ini)
    else:
        scenario = zenolattice.load_scenario(args.ini)
    result: dict = {"setup_s": time.perf_counter() - start, "errors": []}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    params = workload(args.workload, args.seed)

    distinct_dt: set[float] = set()
    if tracer is not None:
        _install_tracing(tracer, distinct_dt)
    if args.mode == "mem":
        import tracemalloc

        tracemalloc.start()
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work)
    try:
        start = time.perf_counter()
        records, paths = zenolattice.run_and_emit(scenario, out_dir)
        result["run_s"] = time.perf_counter() - start
        if args.mode == "mem":
            result["peak_mem_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        if args.mode in ("time", "trace"):
            # After the run, not before: the kernel would warm the allocator
            # and numpy for the run, which a fresh `zenolattice run` lacks.
            result["calibration_s"] = calibrate(params["n_sites"])
        from checks import check_records

        result["errors"] = check_records(args.workload, params, records)
        if tracer is not None:
            result["layers"] = _layer_metrics(tracer, distinct_dt, params["n_sites"], paths)
            tracer.write(Path(args.work) / f"spans-{args.workload}.jsonl")
    except Exception as err:  # an execution that raises counts as failed
        traceback.print_exc()
        result["errors"].append(f"{type(err).__name__}: {err}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""zenolattice benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload pvm_packet --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from `src`.
Every execution of a workload runs in a fresh interpreter (bench/execution.py),
one at a time, so the program's module caches start cold as in a fresh
`zenolattice run`. For --seconds it repeats executions and reports medians.

--trace 0 prints the end-to-end metrics: setup_s, run_s and peak_mem_mb
(tracemalloc peak, measured in an execution of its own before the timed ones).
setup_s and run_s are in reference seconds: each execution's wall times times
REFERENCE_CALIBRATION_S over the calibration kernel timed right after them in
the same process (execution.calibrate), so drift in the shared host's speed
cancels while any change to the program shows in full. The wall-time medians
are printed too.
--trace 1 alternates traced and untraced executions and prints the per-layer
metrics, medians over the traced ones (self times in wall seconds), plus
trace.overhead_s and host.calibration_s.
The fail rate is `failed / attempted` in the last line, which is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES, workload, write_ini

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
MIN_EXECUTIONS = 3  # timed executions per run, and traced ones per traced run
EXECUTION_TIMEOUT_S = 120
# A typical wall time of execution.calibrate(N), by lattice size N, on the
# reference machine (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6). Fixed:
# changing it rescales every reported time.
REFERENCE_CALIBRATION_S = {256: 0.17, 1024: 0.32}


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout at all."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # The reference machine has 2 cores whose speeds vary independently. A
    # single BLAS/OpenMP thread keeps an execution from waiting on the other
    # core; the program may still start one thread of its own.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Workload:
    """Executions of one generated workload file, with their failures counted."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.ini = write_ini(name, seed, WORK_DIR)
        self.reference_s = REFERENCE_CALIBRATION_S[workload(name, seed)["n_sites"]]
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.wall: dict[str, list[float]] = {"setup_s": [], "run_s": [], "calibration_s": []}

    def _spawn(self, mode: str, run_id: int) -> dict | None:
        cmd = [
            sys.executable, str(BENCH_DIR / "execution.py"),
            "--workload", self.name, "--seed", str(self.seed), "--ini", str(self.ini),
            "--work", str(WORK_DIR), "--mode", mode, "--run-id", str(run_id),
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=EXECUTION_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"{self.name} {mode}: timed out after {EXECUTION_TIMEOUT_S} s", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{self.name} {mode}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return None
        return json.loads(lines[-1])

    def scaled(self, result: dict) -> dict[str, float]:
        """setup_s and run_s of an execution whose run returned, in reference seconds."""
        scale = self.reference_s / result["calibration_s"]
        for name in self.wall:
            self.wall[name].append(result[name])
        return {"setup_s": result["setup_s"] * scale, "run_s": result["run_s"] * scale}

    def warm_up(self) -> None:
        """A set-up that is not a sample: the first import may compile bytecode."""
        if self._spawn("setup", 0) is None:
            raise BenchError(f"{self.name}: the program could not be imported or the workload not loaded")

    def execute(self, mode: str) -> dict:
        """One execution of the workload, counted as failed if it crashed,
        raised or failed a check. Its timings are kept if the run returned."""
        self.attempted += 1
        result = self._spawn(mode, self.attempted) or {"errors": ["no result"]}
        if result["errors"]:
            print(f"{self.name} {mode}: " + "; ".join(result["errors"]), file=sys.stderr)
            self.failed += 1
        return result


def _median(samples: list[float], what: str) -> float:
    if not samples:
        raise BenchError(f"no successful execution measured {what}")
    return statistics.median(samples)


def _within(begin: float, seconds: float, durations: list[float]) -> bool:
    """True while another execution, as long as the slowest so far, still fits."""
    return time.perf_counter() - begin + max(durations, default=0.0) < seconds


def end_to_end(workload: Workload, seconds: float) -> dict[str, float]:
    begin = time.perf_counter()
    workload.warm_up()
    mem = workload.execute("mem")
    setup_s: list[float] = []
    run_s: list[float] = []
    durations: list[float] = []
    while workload.attempted < 1 + MIN_EXECUTIONS or _within(begin, seconds, durations):
        start = time.perf_counter()
        result = workload.execute("time")
        if "calibration_s" in result:
            scaled = workload.scaled(result)
            setup_s.append(scaled["setup_s"])
            run_s.append(scaled["run_s"])
        durations.append(time.perf_counter() - start)
    return {
        "setup_s": _median(setup_s, "setup_s"),
        "run_s": _median(run_s, "run_s"),
        "peak_mem_mb": _median([mem["peak_mem_mb"]] if "peak_mem_mb" in mem else [], "peak_mem_mb"),
    }


def per_layer(workload: Workload, seconds: float) -> dict[str, float]:
    begin = time.perf_counter()
    workload.warm_up()
    traced: list[tuple[dict, float]] = []  # (layer metrics, run_s)
    untraced: list[float] = []
    durations: list[float] = []
    while workload.attempted < 2 * MIN_EXECUTIONS or _within(begin, seconds, durations):
        mode = "trace" if workload.attempted % 2 == 0 else "time"
        start = time.perf_counter()
        result = workload.execute(mode)
        durations.append(time.perf_counter() - start)
        if "calibration_s" not in result:
            continue
        scaled_run_s = workload.scaled(result)["run_s"]
        if "layers" in result:
            traced.append((result["layers"], scaled_run_s))
        elif mode == "time":
            untraced.append(scaled_run_s)
    if not traced:
        raise BenchError("no traced execution succeeded")
    metrics = {name: statistics.median(layers[name] for layers, _ in traced) for name in traced[0][0]}
    metrics["trace.overhead_s"] = _median([r for _, r in traced], "traced run_s") - _median(
        untraced, "run_s"
    )
    metrics["host.calibration_s"] = _median(workload.wall["calibration_s"], "calibration_s")
    return metrics


def _declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="zenolattice benchmark")
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "zenolattice" / "__init__.py").is_file():
        print(f"error: no zenolattice package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = NAMES if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    units = _declared_units(args.trace)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            workload = Workload(name, args.seed)
            values = measure(workload, args.seconds)
            if values.keys() != units.keys():
                raise BenchError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
            attempted += workload.attempted
            failed += workload.failed
            print(f"{name}: fail_rate {workload.failed / workload.attempted:.4g} fraction "
                  f"({workload.failed} of {workload.attempted} executions)")
            wall = {k: statistics.median(v) for k, v in workload.wall.items() if v}
            print("  wall medians: " + ", ".join(f"{k} {v:.6g} s" for k, v in wall.items())
                  + f" (calibration on the reference machine: {workload.reference_s} s)")
            for metric, value in values.items():
                print(f"  {metric} {value:.6g} {units[metric]}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": units[metric]}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

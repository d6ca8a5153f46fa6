"""The benchmark's workloads, each written out as a scenario INI file.

A workload is a plain dict of scenario parameters; `render_ini` turns it into
the only input the program sees. The same (name, seed) always gives a
byte-identical file. Only `record_dense` draws anything from the seed.
"""

from __future__ import annotations

import random
from pathlib import Path

NAMES = ("pvm_packet", "pointer_n1024", "record_dense")


def _record_dense_times(seed: int) -> list[float]:
    # 0 and 400 plus 398 distinct interior times on a 0.001 grid, so nearly
    # every leg has its own dt and misses the phase-table cache.
    rng = random.Random(seed)
    interior = set()
    while len(interior) < 398:
        t = round(rng.uniform(0.0, 400.0), 3)
        if 0.0 < t < 400.0:
            interior.add(t)
    return [0.0, *sorted(interior), 400.0]


def workload(name: str, seed: int) -> dict:
    """Scenario parameters of one workload."""
    if name == "pvm_packet":
        # scenarios/pvm_packet.ini: the paper's Zeno freezing run.
        return {
            "n_sites": 256,
            "state": {"kind": "gaussian", "center": 8, "width": 8, "momentum_index": 31},
            "measurement": {"kind": "region_pvm", "regions": 6},
            "interval": 1,
            "total_time": 360,
            "record_times": [0, 60, 80, 100, 140, 180, 200, 240, 360],
        }
    if name == "pointer_n1024":
        # scenarios/pointer_stationary.ini doubled twice the way
        # grid_doubling_check doubles it, run for 40 pointer applications.
        return {
            "n_sites": 1024,
            "state": {"kind": "gaussian", "center": 512, "width": 32, "momentum_index": 0},
            "measurement": {"kind": "pointer", "alpha": 0.05, "distance": "minimal_image"},
            "interval": 10,
            "total_time": 400,
            "record_times": [0, 200, 400],
        }
    if name == "record_dense":
        # scenarios/free_packet.ini with ~400 seeded record times.
        return {
            "n_sites": 256,
            "state": {"kind": "gaussian", "center": 8, "width": 8, "momentum_index": 31},
            "measurement": {"kind": "none"},
            "interval": None,
            "total_time": 400,
            "record_times": _record_dense_times(seed),
        }
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


def _fmt_time(t: float) -> str:
    return f"{t:.3f}".rstrip("0").rstrip(".")


def render_ini(params: dict) -> str:
    lines = ["[lattice]", f"n_sites = {params['n_sites']}", "", "[state]"]
    lines += [f"{key} = {value}" for key, value in params["state"].items()]
    lines += ["", "[measurement]"]
    lines += [f"{key} = {value}" for key, value in params["measurement"].items()]
    lines += ["", "[schedule]"]
    if params["interval"] is not None:
        lines.append(f"interval = {params['interval']}")
    lines.append(f"total_time = {params['total_time']}")
    lines.append("record_times = " + ", ".join(_fmt_time(t) for t in params["record_times"]))
    return "\n".join(lines) + "\n"


def write_ini(name: str, seed: int, directory: Path) -> Path:
    """Write the workload's scenario file under directory and return its path."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}-{seed}.ini"
    path.write_text(render_ini(workload(name, seed)))
    return path

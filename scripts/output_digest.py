#!/usr/bin/env python3
"""SHA-256 digests of every CSV the shipped scenarios and benchmark workloads write.

Runs the four scenarios under scenarios/ and the three workloads of
bench/workloads.py (written at --seed) through run_and_emit into a
temporary directory, and prints one "sha256  name/file" line per CSV,
sorted by name: a scenario is named by its file's stem, a workload by its
name and seed. Two trees whose outputs are byte-identical print the same lines, so
comparing a change's run with its parent's shows whether any CSV moved::

    python scripts/output_digest.py > change.txt
    PYTHONPATH=<parent>/src python scripts/output_digest.py > parent.txt
    diff parent.txt change.txt

With --against <other>/src it also runs the same inputs in a child process
whose PYTHONPATH is that src, and ends each line with the largest absolute
difference between the two runs over that CSV's numeric fields: 0 for
equal numbers, inf where the two files differ in shape or in a field that
is not a number. That is the figure a change that moves round-off reports::

    PYTHONPATH=src python scripts/output_digest.py --against <parent>/src

--out keeps the CSVs under a directory instead. Only the package's public
API is used, so any revision's src will do.
"""

import argparse
import csv
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from zenolattice import load_scenario, run_and_emit

ROOT = Path(__file__).resolve().parent.parent


def write_csvs(seed: int, out: Path) -> dict[str, Path]:
    """Run every input into out; the CSVs by "stem/file" name."""
    # Read bench/workloads.py without writing its bytecode under bench/.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    inputs = sorted((ROOT / "scenarios").glob("*.ini"))
    inputs += [workloads.write_ini(name, seed, out / "ini") for name in workloads.NAMES]
    csvs = {}
    for path in inputs:
        _, paths = run_and_emit(load_scenario(path), out / "out" / path.stem)
        csvs.update({f"{path.stem}/{csv_path.name}": csv_path for csv_path in paths})
    return csvs


def largest_difference(a: Path, b: Path) -> float:
    """The largest |x - y| over the numeric fields x, y of two CSVs, field
    by field; inf if their rows, columns or other fields differ."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        return math.inf
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                difference = abs(float(x) - float(y))
            except ValueError:
                return math.inf
            if math.isnan(difference):  # one of them NaN
                return math.inf
            worst = max(worst, difference)
    return worst


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="seed of the benchmark workloads")
    parser.add_argument("--against", type=Path, help="another checkout's src to run the same inputs with")
    parser.add_argument("--out", type=Path, help="keep the CSVs under this directory")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = args.out or Path(tmp)
        csvs = write_csvs(args.seed, work / "this")
        if args.against is not None:
            env = dict(os.environ, PYTHONPATH=str(args.against.resolve()))
            child = [sys.executable, __file__, "--seed", str(args.seed), "--out", str(work / "against")]
            subprocess.run(child, env=env, check=True, stdout=subprocess.DEVNULL)
        lines = []
        for name, path in sorted(csvs.items()):
            line = f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}"
            if args.against is not None:
                other = work / "against" / "this" / "out" / name
                line += f"  {largest_difference(path, other):.3g}"
            lines.append(line)
    print("\n".join(lines))


if __name__ == "__main__":
    main()

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

Only the package's public API is used, so any revision's src will do.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from zenolattice import load_scenario, run_and_emit

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="seed of the benchmark workloads")
    args = parser.parse_args()

    # Read bench/workloads.py without writing its bytecode under bench/.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = sorted((ROOT / "scenarios").glob("*.ini"))
        inputs += [workloads.write_ini(name, args.seed, work / "ini") for name in workloads.NAMES]
        for path in inputs:
            _, paths = run_and_emit(load_scenario(path), work / "out" / path.stem)
            for csv in paths:
                lines.append((f"{path.stem}/{csv.name}", hashlib.sha256(csv.read_bytes()).hexdigest()))
    print("\n".join(f"{digest}  {name}" for name, digest in sorted(lines)))


if __name__ == "__main__":
    main()

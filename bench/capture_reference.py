"""Store the reference records of the measured workloads.

    PYTHONPATH=src python3 bench/capture_reference.py

Writes bench/reference/<workload>.npz from the current code. Run it only to
adopt a deliberate change of the physics; the stored files are what later
versions of the program are checked against.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from checks import reference_path, stack_records
from workloads import workload, write_ini

import zenolattice

MEASURED = ("pvm_packet", "pointer_n1024")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in MEASURED:
            scenario = zenolattice.load_scenario(write_ini(name, 0, Path(tmp)))
            records = zenolattice.run_schedule(scenario)
            path = reference_path(name)
            path.parent.mkdir(exist_ok=True)
            np.savez_compressed(path, **stack_records(records))
            print(f"{path}: {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())

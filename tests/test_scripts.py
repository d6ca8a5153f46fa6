"""Smoke runs of the experiment scripts on small inputs, and of one traced
benchmark execution: each runs to the end against the current API. Also a
guard that keeps the names of benchmark workloads and shipped scenarios
out of the package."""

import ast
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from zenolattice.propagator import Propagator

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
BENCH = ROOT / "bench"


def run_script(name, args, monkeypatch, capsys):
    """Run scripts/<name> as __main__ with args; return its stdout lines."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name), *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_zeno_interval_sweep(monkeypatch, capsys):
    args = ["--time", "20", "--intervals", "none,2,1", "--regions", "2,6"]
    lines = run_script("zeno_interval_sweep.py", args, monkeypatch, capsys)
    rows = [line.split() for line in lines]
    assert [row[0] for row in rows[2:5]] == ["none", "2", "1"]
    assert [row[0] for row in rows[-2:]] == ["2", "6"]
    assert [int(row[-1]) for row in rows[-2:]] == [128, 42]  # region widths at N = 256


def test_pointer_spread(monkeypatch, capsys):
    lines = run_script("pointer_spread.py", ["--alphas", "0.5"], monkeypatch, capsys)
    rows = [line.split() for line in lines]
    assert [row[0] for row in rows[2:4]] == ["none", "0.5"]
    assert rows[7][0] == "1" and rows[-1][0] == "20"  # one row per pointer application


def test_step_cost_reports_every_operation():
    # Only reference_costs imports the benchmark's calibration, as the
    # top-level modules of bench/; costs leaves sys.path and sys.modules be.
    # It steps every engine in a run's one-row ufunc buffer, 64 elements.
    path = list(sys.path)
    sizes = set()

    def logged(name):
        inner = getattr(Propagator, name)

        def method(self, *args):
            sizes.add(np.getbufsize())
            return inner(self, *args)

        return mock.patch.object(Propagator, name, method)

    script = runpy.run_path(str(SCRIPTS / "step_cost.py"))
    with logged("measure"), logged("record"):
        costs = script["costs"](64)
        peaks = script["peaks_kib"](64)
    assert sizes == {64}
    assert sys.path == path
    assert not {"execution", "run", "tracing", "workloads"} & set(sys.modules)
    assert set(costs) == {
        "snapshot",
        "narrowed_snapshot",
        "off_grid_snapshot",
        "off_grid_pointer_snapshot",
        "narrowing",
        "band_kernel",
        "pointer_run",
        "wide_pointer_run",
        "pointer_step",
        "pvm_step",
        "pvm16_step",
        "linear_step",
    }
    assert all(seconds > 0 for seconds in costs.values())
    assert set(peaks) == {
        "narrowing_peak_kib",
        "band_kernel_peak_kib",
        "pointer_run_peak_kib",
        "wide_pointer_run_peak_kib",
    }
    assert all(kib > 0 for kib in peaks.values())


def test_traced_benchmark_execution_finds_every_layer(tmp_path):
    """--mode trace wraps the program's functions by name and fails if one is
    gone. Both steps run in child processes, so this one imports nothing
    from bench/ and writes no bytecode there."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    write = "import sys; from pathlib import Path; from workloads import write_ini; "
    write += "print(write_ini('pointer_n1024', 7, Path(sys.argv[1])))"
    ini = subprocess.run(
        [sys.executable, "-c", write, str(tmp_path)],
        cwd=BENCH, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "execution.py"), "--workload", "pointer_n1024",
            "--seed", "7", "--ini", ini, "--work", str(tmp_path), "--mode", "trace",
        ],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["errors"] == []
    assert "layers" in result


def test_output_digest_names_every_csv_once():
    """scripts/output_digest.py, run in a child process as the bench is,
    prints one digest per CSV of the four scenarios and three workloads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_digest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    digests, names = zip(*(line.split("  ") for line in proc.stdout.splitlines()))
    inputs = sorted([path.stem for path in (ROOT / "scenarios").glob("*.ini")])
    inputs += ["pointer_n1024-7", "pvm_packet-7", "record_dense-7"]
    csvs = ("momenta.csv", "positions.csv", "summary.csv")
    assert list(names) == sorted(f"{stem}/{csv}" for stem in inputs for csv in csvs)
    assert len(names) == 21 and all(len(digest) == 64 for digest in digests)


def test_output_digest_against_its_own_src_reads_zero():
    """With --against, output_digest.py runs the same inputs again in a
    child process with that src on its PYTHONPATH and ends each digest line
    with the largest absolute difference over the CSV's numeric fields:
    against the same src every one of the 21 lines reads 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_digest.py"), "--against", str(ROOT / "src")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    fields = [line.split("  ") for line in proc.stdout.splitlines()]
    assert len(fields) == 21 and all(len(digest) == 64 for digest, _, _ in fields)
    assert [difference for _, _, difference in fields] == ["0"] * 21


def test_output_digest_reads_the_largest_difference(tmp_path):
    """largest_difference reads |x - y| field by field over numeric fields,
    and inf where the two CSVs differ in shape, in a field that is not a
    number, or where only one field is NaN."""
    digest = runpy.run_path(str(SCRIPTS / "output_digest.py"))
    files = {
        "a": "t,p\n0,0.25\n1,nan\n",
        "near": "t,p\n0,0.2500000000000001\n1,nan\n",
        "short": "t,p\n0,0.25\n",
        "renamed": "t,q\n0,0.25\n1,nan\n",
        "number": "t,p\n0,0.25\n1,0.5\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    largest = digest["largest_difference"]
    assert largest(tmp_path / "a", tmp_path / "a") == 0.0
    assert largest(tmp_path / "a", tmp_path / "near") == 0.2500000000000001 - 0.25
    for other in ("short", "renamed", "number"):
        assert largest(tmp_path / "a", tmp_path / other) == float("inf")


def test_no_line_in_the_package_names_a_workload_or_scenario():
    """Figures of single runs live in README's table of measured figures,
    not in the package, so no line under src/zenolattice names a benchmark
    workload or a shipped scenario. bench/workloads.py is read, not imported."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    workloads = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["NAMES"]
    )
    names = {*workloads, *(path.stem for path in (ROOT / "scenarios").glob("*.ini"))}
    assert {"pvm_packet", "pointer_n1024", "free_packet"} <= names
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "zenolattice").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if any(name in line for name in names)
    ]
    assert hits == []

"""Smoke runs of the experiment scripts on small inputs: each runs to the
end against the current API and prints a row per requested value."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
    path = list(sys.path)
    costs = runpy.run_path(str(SCRIPTS / "step_cost.py"))["costs"](64)
    assert sys.path == path
    assert not {"execution", "run", "tracing", "workloads"} & set(sys.modules)
    assert set(costs) == {
        "free_leg",
        "new_leg",
        "snapshot",
        "narrowed_snapshot",
        "pointer_step",
        "pvm_step",
        "pvm16_step",
        "linear_step",
    }
    assert all(seconds > 0 for seconds in costs.values())

"""Command-line interface behavior."""

import textwrap

import pytest

from zenolattice.cli import main

TINY = """
    [lattice]
    n_sites = 16

    [state]
    kind = gaussian
    center = 4
    width = 2
    momentum_index = 3

    [measurement]
    kind = region_pvm
    regions = 4

    [schedule]
    interval = 1
    total_time = 4
    record_times = 0, 4

    [output]
    directory = {out}
"""


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(textwrap.dedent(TINY).format(out=tmp_path / "out"))
    return path


def test_run_writes_csv(tiny_scenario, tmp_path, capsys):
    assert main(["run", str(tiny_scenario)]) == 0
    out = capsys.readouterr().out
    assert "2 records" in out
    for name in ("positions.csv", "momenta.csv", "summary.csv"):
        assert (tmp_path / "out" / name).is_file()


def test_run_out_override(tiny_scenario, tmp_path):
    target = tmp_path / "elsewhere"
    assert main(["run", str(tiny_scenario), "--out", str(target)]) == 0
    assert (target / "summary.csv").is_file()


def test_seed_is_rejected(tiny_scenario):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(tiny_scenario), "--seed", "7"])
    assert exit_info.value.code == 2


def test_missing_scenario_fails_cleanly(capsys):
    assert main(["run", "no/such/file.ini"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_invalid_scenario_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(textwrap.dedent(TINY).format(out=tmp_path).replace("n_sites = 16", "n_sites = 17"))
    assert main(["run", str(bad)]) == 2
    assert "power of two" in capsys.readouterr().err


def test_sweep_intervals(tiny_scenario, tmp_path, capsys):
    base = tmp_path / "sweep"
    assert main(["sweep", str(tiny_scenario), "--interval", "none,2,1", "--out", str(base)]) == 0
    out = capsys.readouterr().out
    for token in ("interval=none", "interval=2", "interval=1"):
        assert token in out
    for sub in ("interval_none", "interval_2", "interval_1"):
        assert (base / sub / "summary.csv").is_file()


def test_sweep_regions(tiny_scenario, tmp_path, capsys):
    base = tmp_path / "sweep"
    assert main(["sweep", str(tiny_scenario), "--regions", "2,4", "--out", str(base)]) == 0
    out = capsys.readouterr().out
    assert "regions=2" in out and "regions=4" in out
    assert (base / "regions_2" / "positions.csv").is_file()


def test_sweep_regions_on_pointer_scenario_fails(tmp_path, capsys):
    body = textwrap.dedent(TINY).format(out=tmp_path)
    body = body.replace("kind = region_pvm", "kind = pointer").replace("regions = 4", "alpha = 2.0")
    path = tmp_path / "pointer.ini"
    path.write_text(body)
    assert main(["sweep", str(path), "--regions", "2,4"]) == 2
    assert "region_pvm" in capsys.readouterr().err


def test_sweep_of_a_kernel_that_is_not_psd_writes_nothing(tmp_path, capsys):
    body = textwrap.dedent(TINY).format(out=tmp_path / "out")
    body = body.replace("n_sites = 16", "n_sites = 8").replace("center = 4", "center = 2")
    body = body.replace("kind = region_pvm", "kind = custom_kernel")
    body = body.replace("regions = 4", "values = 1, 0, 1, 0, 0, 0, 1, 0")
    path = tmp_path / "not_psd.ini"
    path.write_text(body)
    base = tmp_path / "sweep"
    assert main(["sweep", str(path), "--interval", "none,1", "--out", str(base)]) == 2
    assert "kernel DFT has negative components" in capsys.readouterr().err
    assert not base.exists()


def test_sweep_requires_exactly_one_axis(tiny_scenario):
    with pytest.raises(SystemExit):
        main(["sweep", str(tiny_scenario)])
    with pytest.raises(SystemExit):
        main(["sweep", str(tiny_scenario), "--interval", "1", "--regions", "2"])


def test_convergence_reports_table(tiny_scenario, capsys):
    assert main(["convergence", str(tiny_scenario)]) == 0
    out = capsys.readouterr().out
    assert "grid doubling: 16 -> 32 sites" in out
    assert out.strip().splitlines()[-1].startswith("worst,")


def test_convergence_refuses_eigenstate(tmp_path, capsys):
    body = textwrap.dedent(TINY).format(out=tmp_path)
    body = body.replace("kind = gaussian", "kind = position_eigenstate")
    for key in ("center = 4", "width = 2", "momentum_index = 3"):
        body = body.replace(key + "\n", "")
    path = tmp_path / "eigen.ini"
    path.write_text(body)
    assert main(["convergence", str(path)]) == 2
    assert "eigenstate" in capsys.readouterr().err

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


def one_line_refusal(tmp_path, capsys, body):
    """main(["run", ...]) on body: its exit code and stderr lines, and
    whether it wrote the output directory."""
    path = tmp_path / "bad.ini"
    path.write_text(body)
    code = main(["run", str(path)])
    return code, capsys.readouterr().err.strip().splitlines(), (tmp_path / "out").exists()


@pytest.mark.parametrize("width", ["1e-300", "1e200"])
def test_run_of_a_width_whose_square_leaves_the_floats_writes_nothing(tmp_path, capsys, width):
    """A width whose square is 0 or overflows is refused at load in one
    line, not built into NaNs or squared into an OverflowError."""
    body = textwrap.dedent(TINY).format(out=tmp_path / "out").replace("width = 2", f"width = {width}")
    code, err, wrote = one_line_refusal(tmp_path, capsys, body)
    assert (code, len(err), wrote) == (2, 1, False)
    assert "bad.ini" in err[0] and "width must be positive, with a finite square" in err[0]


def test_run_whose_phases_overflow_writes_nothing(tmp_path, capsys):
    """An unmeasured 16-site run at display_time_factor 1e-307 has a natural
    total time of 4e307, whose phases t E(k) pass the float range: refused
    at load, not written as NaN."""
    body = textwrap.dedent(TINY).format(out=tmp_path / "out")
    body = body.replace("n_sites = 16", "n_sites = 16\ndisplay_time_factor = 1e-307")
    body = body.replace("kind = region_pvm\nregions = 4", "kind = none").replace("interval = 1", "interval = none")
    code, err, wrote = one_line_refusal(tmp_path, capsys, body)
    assert (code, len(err), wrote) == (2, 1, False)
    assert "bad.ini" in err[0] and "largest phase" in err[0]


def test_negative_zero_record_time_is_written_as_zero(tmp_path):
    body = textwrap.dedent(TINY).format(out=tmp_path / "out").replace("record_times = 0, 4", "record_times = -0, 4")
    path = tmp_path / "negative_zero.ini"
    path.write_text(body)
    assert main(["run", str(path)]) == 0
    for name in ("positions.csv", "momenta.csv", "summary.csv"):
        first = (tmp_path / "out" / name).read_text().splitlines()[1]
        assert first.startswith("0,")


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


def test_sweep_of_none_keeps_the_region_masses(tiny_scenario, tmp_path):
    """The unmeasured run of a region PVM scenario still reports its
    region masses, as interval = none in the file does."""
    base = tmp_path / "sweep"
    assert main(["sweep", str(tiny_scenario), "--interval", "none,1", "--out", str(base)]) == 0
    heads = [
        (base / sub / "summary.csv").read_text().splitlines()[0] for sub in ("interval_none", "interval_1")
    ]
    assert heads[0] == heads[1] and heads[0].endswith(",region_mass_3")


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


@pytest.mark.parametrize(
    "axis, values",
    [("--interval", "4,-1"), ("--regions", "2,abc"), ("--interval", "none,None"), ("--interval", "2,2.0")],
)
def test_sweep_with_an_invalid_value_writes_nothing(tiny_scenario, tmp_path, capsys, axis, values):
    base = tmp_path / "sweep"
    assert main(["sweep", str(tiny_scenario), axis, values, "--out", str(base)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not base.exists()


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("--interval", "none,None", "--interval value 'none' repeats 'none'"),
        ("--interval", "1,2,2.0", "--interval value '2.0' repeats '2'"),
        ("--regions", "4,04", "--regions value '04' repeats '4'"),
    ],
    ids=["none_twice", "2_and_2.0", "4_and_04"],
)
def test_sweep_refuses_a_repeated_value(tiny_scenario, capsys, axis, values, message):
    """A value that parses equal to an earlier one would run one run into
    two directories, or into one directory twice."""
    assert main(["sweep", str(tiny_scenario), axis, values]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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

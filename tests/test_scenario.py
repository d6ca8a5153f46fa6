"""Scenario file parsing and validation."""

import dataclasses
import math
import textwrap

import numpy as np
import pytest

from zenolattice import (
    CustomKernelSpec,
    DistanceConvention,
    GaussianPacketSpec,
    NoMeasurement,
    PointerSpec,
    PositionEigenstateSpec,
    RegionPvmSpec,
    Scenario,
    ScenarioError,
    Schedule,
    LatticeConfig,
    grid_doubling_check,
    load_scenario,
    make_regions,
    pointer_kernel,
    run_schedule,
    with_interval,
    with_regions,
)


def write(tmp_path, body):
    path = tmp_path / "scenario.ini"
    path.write_text(textwrap.dedent(body))
    return path


FULL = """
    [lattice]
    n_sites = 256
    display_time_factor = 1000

    [state]
    kind = gaussian
    center = 8
    width = 8
    momentum_index = 31

    [measurement]
    kind = region_pvm
    regions = 6

    [schedule]
    interval = 1
    total_time = 360
    record_times = 0, 60, 80, 100, 140, 180, 200, 240, 360

    [output]
    directory = out/run
"""


def test_full_scenario_parses(tmp_path):
    scenario = load_scenario(write(tmp_path, FULL))
    assert scenario.lattice.n_sites == 256
    assert scenario.state == GaussianPacketSpec(center=8, width=8.0, momentum_index=31)
    assert scenario.measurement == RegionPvmSpec(m_regions=6)
    assert scenario.schedule.measurement_interval == 1.0
    assert scenario.schedule.record_times[-1] == 360.0
    assert scenario.output_dir == "out/run"


def test_defaults(tmp_path):
    scenario = load_scenario(
        write(
            tmp_path,
            """
            [lattice]
            n_sites = 64

            [state]
            kind = position_eigenstate

            [schedule]
            total_time = 10
            """,
        )
    )
    assert scenario.lattice.display_time_factor == 1000.0
    assert scenario.state == PositionEigenstateSpec(site=None)
    assert isinstance(scenario.measurement, NoMeasurement)
    assert scenario.schedule.measurement_interval is None
    assert scenario.schedule.record_times == (0.0, 10.0)
    assert scenario.output_dir == "out"


def test_pointer_scenario(tmp_path):
    scenario = load_scenario(
        write(
            tmp_path,
            """
            [lattice]
            n_sites = 256

            [state]
            kind = gaussian
            center = 128

            [measurement]
            kind = pointer
            alpha = 0.2
            distance = linear

            [schedule]
            interval = 10
            total_time = 200
            """,
        )
    )
    assert scenario.measurement == PointerSpec(0.2, DistanceConvention.LINEAR)
    assert scenario.state.width == 8.0
    assert scenario.state.momentum_index == 0


def test_custom_kernel_scenario(tmp_path):
    values = ", ".join(["1.0"] + ["0.5"] * 7)
    scenario = load_scenario(
        write(
            tmp_path,
            f"""
            [lattice]
            n_sites = 8

            [state]
            kind = position_eigenstate

            [measurement]
            kind = custom_kernel
            values = {values}

            [schedule]
            interval = 1
            total_time = 5
            """,
        )
    )
    assert isinstance(scenario.measurement, CustomKernelSpec)
    assert len(scenario.measurement.values) == 8


def test_interval_none_token(tmp_path):
    scenario = load_scenario(
        write(
            tmp_path,
            """
            [lattice]
            n_sites = 64

            [state]
            kind = gaussian
            center = 8

            [schedule]
            interval = none
            total_time = 10
            """,
        )
    )
    assert scenario.schedule.measurement_interval is None


@pytest.mark.parametrize(
    "original, mutation, message",
    [
        ("n_sites = 256", "n_sites = 100", "power of two"),
        ("kind = gaussian", "kind = bessel", "unknown state kind"),
        ("kind = region_pvm", "kind = laser", "unknown measurement kind"),
        ("regions = 6", "regions = 300", "exceed"),
        ("record_times = 0, 60, 80, 100, 140, 180, 200, 240, 360",
         "record_times = 0, 50, 20", "strictly increasing"),
        ("total_time = 360", "total_time = 100", "total_time"),
        ("interval = 1", "interval = -2", "positive"),
        # nan and inf parse as floats; each field must still be finite
        ("total_time = 360", "total_time = inf", "total_time must be positive and finite"),
        ("interval = 1", "interval = inf", "interval must be positive and finite"),
        ("record_times = 0, 60, 80, 100, 140, 180, 200, 240, 360",
         "record_times = 0, nan, 100", "record times must be finite"),
        ("display_time_factor = 1000", "display_time_factor = inf",
         "display_time_factor must be positive and finite"),
        pytest.param("kind = region_pvm\nregions = 6", "kind = pointer\nalpha = inf",
                     "alpha must be positive and finite", id="alpha-inf"),
    ],
)
def test_invalid_values_are_reported(tmp_path, original, mutation, message):
    body = textwrap.dedent(FULL)
    assert original in body
    path = tmp_path / "scenario.ini"
    path.write_text(body.replace(original, mutation))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


def test_missing_file():
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("does/not/exist.ini")


def test_missing_required_key(tmp_path):
    with pytest.raises(ScenarioError, match="missing key 'center'"):
        load_scenario(
            write(
                tmp_path,
                """
                [lattice]
                n_sites = 64

                [state]
                kind = gaussian

                [schedule]
                total_time = 10
                """,
            )
        )


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="unknown keys"):
        load_scenario(write(tmp_path, FULL + "    frequency = 3\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="unknown sections"):
        load_scenario(write(tmp_path, FULL + "\n[plotting]\nstyle = dots\n"))


def test_custom_kernel_length_must_match_lattice(tmp_path):
    with pytest.raises(ScenarioError, match="needs 8 values"):
        load_scenario(
            write(
                tmp_path,
                """
                [lattice]
                n_sites = 8

                [state]
                kind = position_eigenstate

                [measurement]
                kind = custom_kernel
                values = 1.0, 0.5

                [schedule]
                total_time = 5
                """,
            )
        )


# Symmetric under n -> 8 - n, so a minimal-image kernel, but its DFT has
# negative components: the Schur matrix is not PSD.
NOT_PSD = """
    [lattice]
    n_sites = 8

    [state]
    kind = position_eigenstate

    [measurement]
    kind = custom_kernel
    values = 1, 0, 1, 0, 0, 0, 1, 0

    [schedule]
    interval = 1
    total_time = 5
"""


def test_kernel_that_is_not_psd_is_refused_at_load(tmp_path):
    with pytest.raises(ScenarioError, match="kernel DFT has negative components"):
        load_scenario(write(tmp_path, NOT_PSD))


@pytest.mark.parametrize(
    "body, message",
    [
        (FULL.replace("center = 8", "center = 300"), "center 300 outside [0, 256)"),
        (NOT_PSD, "kernel DFT has negative components"),
    ],
    ids=["state", "kernel"],
)
def test_build_errors_name_the_file(tmp_path, body, message):
    """A state or a measurement operator that the lattice cannot hold is
    refused with the file's name in front, as every other load error is."""
    path = write(tmp_path, body)
    with pytest.raises(ScenarioError) as caught:
        load_scenario(path)
    assert str(caught.value).startswith(f"{path}: {message}")


def test_schedule_validation_direct():
    with pytest.raises(ValueError):
        Schedule(1.0, 0.0, (0.0,))
    with pytest.raises(ValueError):
        Schedule(1.0, 10.0, ())
    with pytest.raises(ValueError):
        Schedule(1.0, 10.0, (-1.0, 5.0))


def test_schedule_stores_a_negative_zero_record_time_as_zero():
    times = Schedule(1.0, 4.0, (-0.0, 4.0)).record_times
    assert times == (0.0, 4.0) and math.copysign(1.0, times[0]) == 1.0


@pytest.mark.parametrize("factor, refused", [(1e-307, True), (1e-300, False)])
def test_refuses_a_schedule_whose_largest_phase_is_not_finite(factor, refused):
    """The natural total time times E_max = (N/2)^2 / 2 = 32 at N = 16: at a
    display_time_factor of 1e-307 that is 4e307 * 32, past the float
    range; at 1e-300 it is finite."""
    def build():
        return Scenario(
            lattice=LatticeConfig(16, display_time_factor=factor),
            state=GaussianPacketSpec(4, 2.0, 3),
            measurement=NoMeasurement(),
            schedule=Schedule(None, 4.0, (0.0, 4.0)),
        )

    if refused:
        with pytest.raises(ScenarioError, match="largest phase"):
            build()
    else:
        build()


def _tiny_scenario():
    return Scenario(
        lattice=LatticeConfig(64),
        state=GaussianPacketSpec(8, 8.0, 7),
        measurement=RegionPvmSpec(4),
        schedule=Schedule(1.0, 10.0, (0.0, 10.0)),
    )


def test_with_interval_keeps_the_measurement():
    scenario = _tiny_scenario()
    unmeasured = with_interval(scenario, None)
    assert unmeasured.measurement == RegionPvmSpec(4)
    assert unmeasured.operator == scenario.operator
    assert unmeasured.schedule.measurement_interval is None
    retimed = with_interval(scenario, 2.5)
    assert retimed.measurement == RegionPvmSpec(4)
    assert retimed.schedule.measurement_interval == 2.5
    # the original is untouched
    assert scenario.schedule.measurement_interval == 1.0


def test_with_interval_measures_again_after_none():
    """Taking the interval away and giving it back is the scenario itself:
    its records come back bit for bit, region masses included."""
    scenario = _tiny_scenario()
    again = run_schedule(with_interval(with_interval(scenario, None), 1.0))
    for got, want in zip(again, run_schedule(scenario), strict=True):
        for name in ("position_dist", "momentum_dist", "region_masses"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got.purity == want.purity
    assert again[-1].purity < 0.99  # measured, as the scenario is


def test_scenario_is_frozen_and_derived_with_its_own_inputs():
    scenario = _tiny_scenario()
    assert scenario.initial_state.n_sites == 64
    assert scenario.operator.n_regions == 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.measurement = NoMeasurement()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.operator = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.lattice.n_sites = 128
    assert with_interval(scenario, None).operator == scenario.operator
    assert with_regions(scenario, 8).operator.n_regions == 8
    assert grid_doubling_check(scenario).n_sites == 64


@pytest.mark.parametrize(
    "value, name",
    [
        (LatticeConfig(64), "n_sites"),
        (LatticeConfig(64), "display_time_factor"),
        (Schedule(1.0, 10.0, (0.0, 10.0)), "record_times"),
        (NoMeasurement(), "kind"),
        (RegionPvmSpec(4), "m_regions"),
        (CustomKernelSpec((1.0, 0.5, 0.0, 0.5)), "values"),
        (PointerSpec(0.5), "alpha"),
        (GaussianPacketSpec(8, 8.0, 7), "width"),
        (PositionEigenstateSpec(3), "site"),
        (make_regions(64, 4), "boundaries"),
        (pointer_kernel(PointerSpec(0.5), 64), "values"),
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_every_input_a_scenario_holds_is_frozen(value, name):
    """A scenario checks its inputs and builds its state and operator once,
    so none of the objects it holds can change after that."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name, None))


def test_with_regions_requires_pvm_scenario():
    scenario = _tiny_scenario()
    assert with_regions(scenario, 8).measurement == RegionPvmSpec(8)
    pointer = Scenario(
        lattice=LatticeConfig(64),
        state=GaussianPacketSpec(8, 8.0, 7),
        measurement=PointerSpec(0.5),
        schedule=Schedule(1.0, 10.0, (0.0, 10.0)),
    )
    with pytest.raises(ScenarioError):
        with_regions(pointer, 8)


def test_scenario_cross_validation():
    with pytest.raises(ScenarioError, match="outside"):
        Scenario(
            lattice=LatticeConfig(64),
            state=GaussianPacketSpec(99, 8.0, 0),
            measurement=NoMeasurement(),
            schedule=Schedule(None, 10.0, (10.0,)),
        )
    with pytest.raises(ScenarioError, match="momentum_index"):
        Scenario(
            lattice=LatticeConfig(64),
            state=GaussianPacketSpec(8, 8.0, 64),
            measurement=NoMeasurement(),
            schedule=Schedule(None, 10.0, (10.0,)),
        )

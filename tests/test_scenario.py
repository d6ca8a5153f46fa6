"""Scenario file parsing and validation."""

import dataclasses
import textwrap

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
    load_scenario,
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


def test_schedule_validation_direct():
    with pytest.raises(ValueError):
        Schedule(1.0, 0.0, (0.0,))
    with pytest.raises(ValueError):
        Schedule(1.0, 10.0, ())
    with pytest.raises(ValueError):
        Schedule(1.0, 10.0, (-1.0, 5.0))


def _tiny_scenario():
    return Scenario(
        lattice=LatticeConfig(64),
        state=GaussianPacketSpec(8, 8.0, 7),
        measurement=RegionPvmSpec(4),
        schedule=Schedule(1.0, 10.0, (0.0, 10.0)),
    )


def test_with_interval_strips_measurement_when_none():
    scenario = _tiny_scenario()
    unmeasured = with_interval(scenario, None)
    assert isinstance(unmeasured.measurement, NoMeasurement)
    assert unmeasured.schedule.measurement_interval is None
    retimed = with_interval(scenario, 2.5)
    assert retimed.measurement == RegionPvmSpec(4)
    assert retimed.schedule.measurement_interval == 2.5
    # the original is untouched
    assert scenario.schedule.measurement_interval == 1.0


def test_scenario_is_frozen_and_derived_with_its_own_inputs():
    scenario = _tiny_scenario()
    assert scenario.initial_state.n_sites == 64
    assert scenario.operator.n_regions == 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.measurement = NoMeasurement()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.operator = None
    assert with_interval(scenario, None).operator is None
    assert with_regions(scenario, 8).operator.n_regions == 8


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

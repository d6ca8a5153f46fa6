"""Scenario files and their in-memory form.

A scenario is a flat INI file with one section per component. All schedule
times are display units (natural time multiplied by the lattice's
display_time_factor)::

    [lattice]
    n_sites = 256                # power of two >= 8
    display_time_factor = 1000   # optional, default 1000

    [state]
    kind = gaussian              # or position_eigenstate
    center = 8                   # gaussian: centre site
    width = 8                    # gaussian: envelope width, default 8
    momentum_index = 31          # gaussian: signed momentum index, default 0
    # site = 128                 # position_eigenstate: default n_sites // 2

    [measurement]
    kind = region_pvm            # none | region_pvm | pointer | custom_kernel
    regions = 6                  # region_pvm: region count M
    # alpha = 0.2                # pointer: inverse pointer width
    # distance = minimal_image   # pointer/custom_kernel: or linear
    # values = 1.0, 0.5, ...     # custom_kernel: n_sites damping values

    [schedule]
    interval = 1                 # display units between measurements;
                                 # omit or set to none for an unmeasured run
    total_time = 360
    record_times = 0, 60, 360    # optional, default "0, total_time"

    [output]
    directory = out/run          # optional, default "out"

The [measurement] section may be omitted entirely for an unmeasured run.

load_scenario checks each value as it reads it. Scenario then builds the
initial state and the measurement operator once, which checks them against
the lattice: the packet's centre and momentum or the site, the region count,
a custom kernel's length, a kernel's values in [0, 1] with values[0] = 1, and
the PSD property of its Schur matrix. That last check is a DFT for a
minimal-image kernel but an O(N^3) eigenvalue computation for a LINEAR one
(0.12 s at N = 1024), and it runs at load, not when the scenario runs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .channels import (
    DampingKernel,
    DistanceConvention,
    PointerSpec,
    RegionPartition,
    make_regions,
    pointer_kernel,
)
from .lattice import LatticeConfig, StateVector
from .states import GaussianPacketSpec, PositionEigenstateSpec, build_initial_state

__all__ = [
    "CustomKernelSpec",
    "MeasurementSpec",
    "NoMeasurement",
    "RegionPvmSpec",
    "Scenario",
    "ScenarioError",
    "Schedule",
    "StateSpec",
    "load_scenario",
    "measurement_operator",
    "with_interval",
    "with_regions",
]


class ScenarioError(ValueError):
    """Invalid scenario file or inconsistent combination of scenario fields."""


@dataclass
class NoMeasurement:
    """Unmeasured run: free evolution only."""


@dataclass
class RegionPvmSpec:
    """Project onto M contiguous position regions at each measurement."""

    m_regions: int


@dataclass
class CustomKernelSpec:
    """Explicit damping values for a generic symmetric pointer."""

    values: tuple[float, ...]
    distance_convention: DistanceConvention = DistanceConvention.MINIMAL_IMAGE


MeasurementSpec = NoMeasurement | RegionPvmSpec | PointerSpec | CustomKernelSpec
StateSpec = GaussianPacketSpec | PositionEigenstateSpec


@dataclass
class Schedule:
    """Measurement cadence and recording times, in display units."""

    measurement_interval: float | None
    total_time: float
    record_times: tuple[float, ...]

    def __post_init__(self) -> None:
        # Not nan, not inf: an infinite total time or interval would never
        # finish or never measure, and a nan record time compares false.
        if not 0 < self.total_time < math.inf:
            raise ValueError("total_time must be positive and finite")
        interval = self.measurement_interval
        if interval is not None and not 0 < interval < math.inf:
            raise ValueError("measurement interval must be positive and finite")
        times = tuple(float(t) for t in self.record_times)
        if not times:
            raise ValueError("at least one record time is required")
        if not all(map(math.isfinite, times)):
            raise ValueError("record times must be finite")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("record times must be strictly increasing")
        if times[0] < 0 or times[-1] > self.total_time:
            raise ValueError("record times must lie in [0, total_time]")
        self.record_times = times


def measurement_operator(
    measurement: MeasurementSpec, n_sites: int
) -> DampingKernel | RegionPartition | None:
    """The damping kernel or region partition a measurement spec describes
    on n_sites sites; None for an unmeasured run. Raises ValueError, a
    KernelNotPositiveError included, for a spec the lattice cannot hold."""
    if isinstance(measurement, NoMeasurement):
        return None
    if isinstance(measurement, RegionPvmSpec):
        return make_regions(n_sites, measurement.m_regions)
    if isinstance(measurement, PointerSpec):
        return pointer_kernel(measurement, n_sites)
    if isinstance(measurement, CustomKernelSpec):
        if len(measurement.values) != n_sites:
            raise ValueError(f"custom kernel needs {n_sites} values, got {len(measurement.values)}")
        return DampingKernel(measurement.values, measurement.distance_convention)
    raise TypeError(f"unknown measurement spec {type(measurement).__name__}")


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs: lattice, initial state, measurement,
    schedule and where the CSV output goes. The initial state and the
    measurement operator are built once, here, and the run uses them; frozen
    so they cannot go stale, a scenario is derived with dataclasses.replace."""

    lattice: LatticeConfig
    state: StateSpec
    measurement: MeasurementSpec
    schedule: Schedule
    output_dir: str = "out"
    initial_state: StateVector = field(init=False, repr=False, compare=False)
    operator: DampingKernel | RegionPartition | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.lattice.n_sites
        try:
            object.__setattr__(self, "initial_state", build_initial_state(self.state, n))
            object.__setattr__(self, "operator", measurement_operator(self.measurement, n))
        except ValueError as err:
            raise ScenarioError(str(err)) from None


def with_interval(scenario: Scenario, interval: float | None) -> Scenario:
    """Same scenario with a different measurement cadence.

    interval=None strips the measurement entirely (an unmeasured run).
    """
    schedule = replace(scenario.schedule, measurement_interval=interval)
    measurement = scenario.measurement if interval is not None else NoMeasurement()
    return replace(scenario, schedule=schedule, measurement=measurement)


def with_regions(scenario: Scenario, m_regions: int) -> Scenario:
    """Same scenario with a different region count (region PVM only)."""
    if not isinstance(scenario.measurement, RegionPvmSpec):
        raise ScenarioError("scenario does not use a region_pvm measurement")
    return replace(scenario, measurement=RegionPvmSpec(m_regions))


_KNOWN_SECTIONS = ("lattice", "state", "measurement", "schedule", "output")
_REQUIRED = object()


class _Section:
    """One INI section with typed, validated key access."""

    def __init__(self, name: str, raw: dict[str, str], origin: str):
        self.name = name
        self.raw = dict(raw)
        self.origin = origin

    def take(self, key: str, convert, default=_REQUIRED):
        if key not in self.raw:
            if default is _REQUIRED:
                raise ScenarioError(f"{self.origin}: [{self.name}] is missing key '{key}'")
            return default
        text = self.raw.pop(key).strip()
        try:
            return convert(text)
        except ScenarioError:
            raise
        except ValueError as err:
            raise ScenarioError(
                f"{self.origin}: [{self.name}] key '{key}' has invalid value '{text}': {err}"
            ) from None

    def finish(self) -> None:
        if self.raw:
            extra = ", ".join(sorted(self.raw))
            raise ScenarioError(f"{self.origin}: [{self.name}] has unknown keys: {extra}")


def _float_list(text: str) -> tuple[float, ...]:
    tokens = text.replace(",", " ").split()
    return tuple(float(tok) for tok in tokens)


def _interval(text: str) -> float | None:
    return None if text.lower() == "none" else float(text)


def _distance(text: str) -> DistanceConvention:
    try:
        return DistanceConvention(text)
    except ValueError:
        raise ValueError("expected 'minimal_image' or 'linear'") from None


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError on any problem."""
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ScenarioError(f"{path}: {err}") from None

    unknown = set(parser.sections()) - set(_KNOWN_SECTIONS)
    if unknown:
        raise ScenarioError(f"{path}: unknown sections: {', '.join(sorted(unknown))}")

    def section(name: str) -> _Section:
        raw = dict(parser[name]) if parser.has_section(name) else {}
        return _Section(name, raw, str(path))

    try:
        lattice_sec = section("lattice")
        if not parser.has_section("lattice"):
            raise ScenarioError(f"{path}: missing [lattice] section")
        lattice = LatticeConfig(
            n_sites=lattice_sec.take("n_sites", int),
            display_time_factor=lattice_sec.take("display_time_factor", float, 1000.0),
        )
        lattice_sec.finish()

        if not parser.has_section("state"):
            raise ScenarioError(f"{path}: missing [state] section")
        state_sec = section("state")
        kind = state_sec.take("kind", str)
        if kind == "gaussian":
            state: StateSpec = GaussianPacketSpec(
                center=state_sec.take("center", int),
                width=state_sec.take("width", float, 8.0),
                momentum_index=state_sec.take("momentum_index", int, 0),
            )
        elif kind == "position_eigenstate":
            state = PositionEigenstateSpec(site=state_sec.take("site", int, None))
        else:
            raise ScenarioError(
                f"{path}: unknown state kind '{kind}' "
                "(expected gaussian or position_eigenstate)"
            )
        state_sec.finish()

        meas_sec = section("measurement")
        kind = meas_sec.take("kind", str, "none")
        if kind == "none":
            measurement: MeasurementSpec = NoMeasurement()
        elif kind == "region_pvm":
            measurement = RegionPvmSpec(m_regions=meas_sec.take("regions", int))
        elif kind == "pointer":
            measurement = PointerSpec(
                alpha=meas_sec.take("alpha", float),
                distance_convention=meas_sec.take(
                    "distance", _distance, DistanceConvention.MINIMAL_IMAGE
                ),
            )
        elif kind == "custom_kernel":
            measurement = CustomKernelSpec(
                values=meas_sec.take("values", _float_list),
                distance_convention=meas_sec.take(
                    "distance", _distance, DistanceConvention.MINIMAL_IMAGE
                ),
            )
        else:
            raise ScenarioError(
                f"{path}: unknown measurement kind '{kind}' "
                "(expected none, region_pvm, pointer or custom_kernel)"
            )
        meas_sec.finish()

        if not parser.has_section("schedule"):
            raise ScenarioError(f"{path}: missing [schedule] section")
        sched_sec = section("schedule")
        total_time = sched_sec.take("total_time", float)
        schedule = Schedule(
            measurement_interval=sched_sec.take("interval", _interval, None),
            total_time=total_time,
            record_times=sched_sec.take("record_times", _float_list, (0.0, total_time)),
        )
        sched_sec.finish()

        out_sec = section("output")
        output_dir = out_sec.take("directory", str, "out")
        out_sec.finish()

        return Scenario(lattice, state, measurement, schedule, output_dir)
    except ScenarioError:
        raise
    except ValueError as err:
        raise ScenarioError(f"{path}: {err}") from None

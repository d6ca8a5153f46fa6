"""Run loop, grid doubling and CSV emission."""

import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenolattice import (
    Basis,
    CustomKernelSpec,
    DistanceConvention,
    GaussianPacketSpec,
    LatticeConfig,
    NoMeasurement,
    PointerSpec,
    PositionEigenstateSpec,
    RegionPvmSpec,
    Scenario,
    ScenarioError,
    Schedule,
    build_channel,
    build_gaussian_packet,
    build_initial_state,
    density_from_pure,
    density_to_momentum,
    density_to_position,
    emit_csv,
    evolve_density,
    grid_doubling_check,
    make_regions,
    momentum_distribution,
    position_distribution,
    purity,
    region_masses,
    run_and_emit,
    run_schedule,
    with_interval,
    with_regions,
)


def packet_scenario(
    n_sites=256,
    measurement=RegionPvmSpec(6),
    interval=1.0,
    total=100.0,
    records=(0.0, 100.0),
    state=None,
):
    return Scenario(
        lattice=LatticeConfig(n_sites),
        state=state if state is not None else GaussianPacketSpec(8, 8.0, 31),
        measurement=measurement,
        schedule=Schedule(interval, total, records),
    )


class TestRunSchedule:
    def test_unmeasured_run_equals_one_shot_evolution(self):
        scenario = packet_scenario(measurement=NoMeasurement(), interval=None, total=180.0,
                                   records=(0.0, 180.0))
        final = run_schedule(scenario)[-1]
        rho = density_from_pure(build_gaussian_packet(scenario.state, 256))
        direct = density_to_position(evolve_density(density_to_momentum(rho), 0.18))
        one_shot = np.diagonal(direct.entries).real
        assert np.max(np.abs(final.position_dist - one_shot)) < 1e-10

    def test_extra_record_times_do_not_perturb(self):
        sparse = packet_scenario(records=(50.0, 100.0))
        dense = packet_scenario(records=(13.0, 50.0, 77.3, 100.0))
        sparse_recs = run_schedule(sparse)
        dense_recs = run_schedule(dense)
        assert np.max(np.abs(sparse_recs[0].position_dist - dense_recs[1].position_dist)) < 1e-12
        assert np.max(np.abs(sparse_recs[1].position_dist - dense_recs[3].position_dist)) < 1e-12

    def test_nothing_applied_at_time_zero(self):
        records = run_schedule(packet_scenario(records=(0.0, 1.0)))
        assert records[0].purity == pytest.approx(1.0, abs=1e-12)

    def test_measurement_applied_before_coincident_record(self):
        # a packet straddling a region boundary loses purity at the first tick
        scenario = packet_scenario(
            state=GaussianPacketSpec(42, 6.0, 0), records=(1.0,), total=1.0
        )
        rec = run_schedule(scenario)[0]
        assert rec.purity < 0.9

    def test_records_between_measurements(self):
        scenario = packet_scenario(records=(2.5, 100.0))
        records = run_schedule(scenario)
        assert records[0].time_display == 2.5
        assert records[0].time_natural == pytest.approx(0.0025)

    def test_region_masses_shape(self):
        pvm = run_schedule(packet_scenario(records=(10.0,), total=10.0))[0]
        assert pvm.region_masses.size == 7
        assert pvm.region_masses.sum() == pytest.approx(1.0, abs=1e-10)
        pointer = run_schedule(
            packet_scenario(measurement=PointerSpec(0.2), records=(10.0,), total=10.0)
        )[0]
        assert pointer.region_masses.size == 0

    def test_momentum_distribution_untouched_by_free_run(self):
        scenario = packet_scenario(measurement=NoMeasurement(), interval=None,
                                   records=(0.0, 50.0, 100.0))
        records = run_schedule(scenario)
        for later in records[1:]:
            np.testing.assert_array_equal(later.momentum_dist, records[0].momentum_dist)

    def test_custom_kernel_measurement_runs(self):
        n = 16
        values = np.exp(-0.25 * np.minimum(np.arange(n), n - np.arange(n)).astype(float) ** 2)
        scenario = Scenario(
            lattice=LatticeConfig(n),
            state=GaussianPacketSpec(4, 2.0, 3),
            measurement=CustomKernelSpec(values=tuple(values)),
            schedule=Schedule(1.0, 5.0, (0.0, 5.0)),
        )
        records = run_schedule(scenario)
        assert records[-1].purity < records[0].purity

    def test_memory_is_bounded_by_the_run(self):
        """Forty distinct leg lengths leave no phase table per length behind."""
        n = 256
        times = tuple(float(t) for t in np.cumsum(0.37 * np.arange(1, 41)))
        scenario = packet_scenario(measurement=NoMeasurement(), interval=None,
                                   total=times[-1], records=times)
        rho = density_to_momentum(density_from_pure(build_gaussian_packet(scenario.state, n)))
        bound = 8 * n * n * 16
        tracemalloc.start()
        try:
            run_schedule(scenario)
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for t in times:
                evolve_density(rho, t / 1000.0)
            evolve_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run_peak < bound
        assert evolve_peak < bound


def reference_records(scenario):
    """run_schedule's schedule stepped with the position-basis functions.

    Measurements fall at interval, 2*interval, ... up to total_time, and one
    coinciding with a record time is applied first.
    """
    lattice = scenario.lattice
    rho = density_from_pure(build_initial_state(scenario.state, lattice.n_sites))
    channel, partition = build_channel(scenario.measurement, lattice.n_sites)
    schedule = scenario.schedule
    events = [(t, 1) for t in schedule.record_times]
    if channel is not None:
        interval = schedule.measurement_interval
        count = int(schedule.total_time / interval + 1e-9)
        events += [(j * interval, 0) for j in range(1, count + 1)]
    now = 0.0
    records = []
    for time, is_record in sorted(events):
        if time > now:
            t = lattice.to_natural_time(time - now)
            rho = density_to_position(evolve_density(density_to_momentum(rho), t))
            now = time
        if not is_record:
            rho = channel(rho)
            continue
        pos = position_distribution(rho)
        masses = region_masses(pos, partition) if partition is not None else np.empty(0)
        records.append((time, pos, momentum_distribution(rho), purity(rho), masses))
    return records


def autocorrelation_kernel(weights):
    """Minimal-image damping values of a nonnegative integer profile: PSD,
    symmetric and within [0, 1], with values[0] exactly 1 (integer sums
    are exact)."""
    f = np.asarray(weights, dtype=float)
    corr = np.array([f @ np.roll(f, d) for d in range(f.size)])
    return tuple(corr / corr[0])


@st.composite
def random_scenarios(draw):
    n = draw(st.sampled_from([8, 16, 32, 64]))
    state = GaussianPacketSpec(
        draw(st.integers(0, n - 1)),
        draw(st.floats(0.5, n / 2)),
        draw(st.integers(-n // 2 + 1, n // 2)),
    )
    kind = draw(st.sampled_from(["pvm", "pointer", "linear", "custom", "none"]))
    if kind == "pvm":
        measurement = RegionPvmSpec(draw(st.integers(1, n)))
    elif kind == "pointer":
        measurement = PointerSpec(draw(st.floats(1.2, 3.0)))
    elif kind == "linear":
        measurement = PointerSpec(draw(st.floats(0.1, 3.0)), DistanceConvention.LINEAR)
    elif kind == "custom":
        weights = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))
        measurement = CustomKernelSpec(autocorrelation_kernel(weights))
    else:
        measurement = NoMeasurement()
    interval = draw(st.floats(0.5, 5.0))
    count = draw(st.integers(1, 12))
    total = (count + draw(st.integers(0, 9)) / 10) * interval
    # Record times on the measurement grid or a twentieth of an interval
    # apart from it and from each other: none falls within the run's snap.
    slots = draw(st.sets(st.tuples(st.integers(0, count), st.integers(0, 19)), min_size=1, max_size=6))
    times = sorted({j * interval if i == 0 else (j + i / 20) * interval for j, i in slots})
    times = [t for t in times if t <= total] or [total]
    schedule = Schedule(None if kind == "none" else interval, total, tuple(times))
    return Scenario(lattice=LatticeConfig(n), state=state, measurement=measurement, schedule=schedule)


@settings(max_examples=60, deadline=None)
@given(random_scenarios())
def test_run_schedule_matches_position_basis_reference(scenario):
    records = run_schedule(scenario)
    expected = reference_records(scenario)
    assert len(records) == len(expected)
    for rec, (time, pos, mom, pur, masses) in zip(records, expected):
        assert rec.time_display == time
        np.testing.assert_allclose(rec.position_dist, pos, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rec.momentum_dist, mom, rtol=0, atol=1e-12)
        assert abs(rec.purity - pur) <= 1e-12
        assert rec.region_masses.shape == masses.shape
        np.testing.assert_allclose(rec.region_masses, masses, rtol=0, atol=1e-12)


class TestZenoOrdering:
    def test_more_frequent_measurement_retains_more_mass(self):
        """Slowing grows monotonically as the measurement interval shrinks."""
        masses = []
        base = packet_scenario(records=(100.0,))
        for interval in (None, 4.0, 2.0, 1.0):
            scenario = with_interval(replace(base, schedule=Schedule(1.0, 100.0, (100.0,))), interval)
            rec = run_schedule(scenario)[0]
            masses.append(float(rec.region_masses[0]) if rec.region_masses.size else
                          float(rec.position_dist[:42].sum()))
        assert masses == sorted(masses)
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert masses[-1] - masses[0] >= 0.02

    @pytest.mark.xfail(
        strict=True,
        reason="retained initial-region mass tracks region size, not measurement "
        "fineness: each run equilibrates toward mass ~ region_size/N, so the "
        "ordering reverses at every post-contact time",
    )
    def test_more_regions_retain_more_mass(self):
        """Finer partitions are expected to freeze the packet harder; measured
        by raw initial-region mass the comparison is dominated by region size
        instead, so this ordering does not hold in this model."""
        masses = []
        base = packet_scenario(records=(100.0,))
        for m in (2, 6, 12):
            rec = run_schedule(with_regions(base, m))[0]
            partition = make_regions(256, m)
            region = partition.region_containing(8)
            masses.append(float(region_masses(rec.position_dist, partition)[region]))
        assert masses[0] <= masses[1] <= masses[2]


class TestGridDoubling:
    def test_free_evolution_agrees_closely(self):
        # spectral weight sits far from the wrap point, so the two grids
        # disperse identically and only discretization residue remains
        scenario = Scenario(
            lattice=LatticeConfig(256),
            state=GaussianPacketSpec(8, 8.0, 31),
            measurement=NoMeasurement(),
            schedule=Schedule(None, 180.0, (180.0,)),
        )
        report = grid_doubling_check(scenario)
        assert report.worst_position_diff < 1e-3
        assert report.worst_momentum_diff < 1e-3

    def test_pointer_scenario_is_rescaled(self):
        scenario = Scenario(
            lattice=LatticeConfig(128),
            state=GaussianPacketSpec(64, 8.0, 0),
            measurement=PointerSpec(0.4),
            schedule=Schedule(10.0, 50.0, (50.0,)),
        )
        report = grid_doubling_check(scenario)
        assert report.worst_position_diff < 1e-2

    def test_position_eigenstate_is_refused(self):
        scenario = Scenario(
            lattice=LatticeConfig(64),
            state=PositionEigenstateSpec(),
            measurement=RegionPvmSpec(4),
            schedule=Schedule(1.0, 10.0, (10.0,)),
        )
        with pytest.raises(ScenarioError, match="eigenstate"):
            grid_doubling_check(scenario)

    def test_custom_kernel_is_refused(self):
        n = 16
        scenario = Scenario(
            lattice=LatticeConfig(n),
            state=GaussianPacketSpec(4, 2.0, 3),
            measurement=CustomKernelSpec(values=(1.0,) + (0.0,) * (n - 1)),
            schedule=Schedule(1.0, 10.0, (10.0,)),
        )
        with pytest.raises(ScenarioError, match="fixed length"):
            grid_doubling_check(scenario)

    def test_report_lookup(self):
        scenario = Scenario(
            lattice=LatticeConfig(64),
            state=GaussianPacketSpec(16, 4.0, 4),
            measurement=NoMeasurement(),
            schedule=Schedule(None, 20.0, (0.0, 20.0)),
        )
        report = grid_doubling_check(scenario)
        assert report.at_time(20.0) == (report.position_max_diff[1], report.momentum_max_diff[1])
        with pytest.raises(ValueError):
            report.at_time(5.0)


class TestEmitCsv:
    def tiny_records(self, n=8, records=(0.0, 2.0)):
        scenario = Scenario(
            lattice=LatticeConfig(n),
            state=GaussianPacketSpec(2, 1.5, 1),
            measurement=RegionPvmSpec(3),
            schedule=Schedule(1.0, records[-1], records),
        )
        return run_schedule(scenario)

    def test_positions_rows(self, tmp_path):
        records = self.tiny_records()
        positions, momenta, summary = emit_csv(records, tmp_path / "run")
        lines = positions.read_text().splitlines()
        assert lines[0] == "time_display,n,p_x"
        assert len(lines) == 1 + 2 * 8
        momenta_lines = momenta.read_text().splitlines()
        assert momenta_lines[0] == "time_display,k,signed_k,p_k"
        # signed labels fold above n/2
        assert momenta_lines[1 + 5].split(",")[2] == "-3"

    def test_summary_has_region_columns(self, tmp_path):
        scenario = Scenario(
            lattice=LatticeConfig(256),
            state=GaussianPacketSpec(8, 8.0, 31),
            measurement=RegionPvmSpec(6),
            schedule=Schedule(1.0, 2.0, (0.0, 2.0)),
        )
        _, _, summary = emit_csv(run_schedule(scenario), tmp_path / "run")
        header = summary.read_text().splitlines()[0].split(",")
        assert header[:5] == [
            "time_display",
            "purity",
            "expected_momentum",
            "momentum_variance",
            "negative_momentum_fraction",
        ]
        assert header[5:] == [f"region_mass_{i}" for i in range(7)]

    def test_empty_records_error(self, tmp_path):
        target = tmp_path / "nothing"
        with pytest.raises(ValueError, match="no records"):
            emit_csv([], target)
        assert not target.exists()

    def test_negative_roundoff_clamped_only_in_csv(self, tmp_path):
        records = self.tiny_records()
        records[0].position_dist[3] = -1e-17
        positions, _, _ = emit_csv(records, tmp_path / "run")
        row = positions.read_text().splitlines()[1 + 3]
        assert row.split(",")[2] == "0"
        assert records[0].position_dist[3] == -1e-17

    def test_byte_identical_across_runs(self, tmp_path):
        scenario = Scenario(
            lattice=LatticeConfig(64),
            state=GaussianPacketSpec(8, 4.0, 7),
            measurement=RegionPvmSpec(4),
            schedule=Schedule(1.0, 10.0, (0.0, 10.0)),
        )
        _, first = run_and_emit(scenario, tmp_path / "a")
        _, second = run_and_emit(scenario, tmp_path / "b")
        for a, b in zip(first, second):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_seventeen_significant_digits(self, tmp_path):
        records = self.tiny_records()
        _, _, summary = emit_csv(records, tmp_path / "run")
        purity_text = summary.read_text().splitlines()[1].split(",")[1]
        assert float(purity_text) == records[0].purity


def test_build_channel_dispatch():
    channel, partition = build_channel(NoMeasurement(), 64)
    assert channel is None and partition is None
    channel, partition = build_channel(RegionPvmSpec(4), 64)
    assert partition.n_regions == 4
    channel, partition = build_channel(PointerSpec(0.5), 64)
    assert partition is None
    rho = density_from_pure(build_gaussian_packet(GaussianPacketSpec(10, 4.0, 0), 64))
    assert channel(rho).basis is Basis.POSITION

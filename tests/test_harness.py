"""Run loop, grid doubling and CSV emission."""

import contextlib
import itertools
import math
import os
import tempfile
import textwrap
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenolattice import (
    Basis,
    CustomKernelSpec,
    DampingKernel,
    DistanceConvention,
    GaussianPacketSpec,
    LatticeConfig,
    NoMeasurement,
    ObservableRecord,
    PointerSpec,
    PositionEigenstateSpec,
    RegionPartition,
    RegionPvmSpec,
    Scenario,
    ScenarioError,
    Schedule,
    StateVector,
    build_channel,
    build_gaussian_packet,
    build_initial_state,
    density_from_pure,
    density_to_momentum,
    density_to_position,
    dispersion_table,
    emit_csv,
    evolve_density,
    grid_doubling_check,
    kernel_channel,
    load_scenario,
    make_regions,
    momentum_distribution,
    pointer_kernel,
    position_distribution,
    purity,
    pvm_channel,
    region_masses,
    run_and_emit,
    run_schedule,
    signed_momentum_values,
    with_interval,
    with_regions,
)
from zenolattice import harness, propagator
from zenolattice.propagator import (
    ChannelPlan,
    Propagator,
    Snapshots,
    in_one_row_buffer,
    row_cut,
    run_blocks,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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

    @pytest.mark.parametrize(
        "measurement",
        [
            NoMeasurement(),
            PointerSpec(0.2),
            RegionPvmSpec(2),
            RegionPvmSpec(6),
            PointerSpec(0.2, DistanceConvention.LINEAR),
        ],
        ids=["unmeasured", "pointer0.2", "pvm2", "pvm6_narrowed", "linear0.2"],
    )
    def test_extra_record_times_do_not_perturb(self, measurement):
        """A record reads the state and writes nothing to it, so records
        between measurements leave the shared records' p(n), p(k) and purity
        bit for bit, on every engine stage: pure (unmeasured), N columns (a
        pointer, a 2-region PVM, a LINEAR window) and narrowed (6 regions)."""
        interval = None if isinstance(measurement, NoMeasurement) else 1.0
        sparse, dense = (
            packet_scenario(measurement=measurement, interval=interval, total=40.0, records=records)
            for records in ((0.0, 20.0, 40.0), (0.0, 3.3, 10.5, 17.25, 20.0, 33.7, 40.0))
        )
        shared = [rec for rec in run_schedule(dense) if rec.time_display in (0.0, 20.0, 40.0)]
        want = run_schedule(sparse)
        assert len(shared) == len(want) == 3
        for got, rec in zip(shared, want):
            for field in ("position_dist", "momentum_dist"):
                np.testing.assert_array_equal(
                    getattr(got, field).view(np.uint64), getattr(rec, field).view(np.uint64)
                )
            assert got.purity == rec.purity

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

    @pytest.mark.parametrize(
        "measurement", [RegionPvmSpec(1), CustomKernelSpec((1.0,) * 64)], ids=["pvm1", "ones"]
    )
    def test_identity_channel_leaves_the_state_alone(self, measurement):
        """A channel that cuts no column and scales every one by 1 is the
        identity, so run_schedule runs it as the unmeasured run: one pure
        engine of all rows with no plan, no measurement and C = 0, whose
        records equal that run's bit for bit, a record between two
        measurement times too."""
        scenario = packet_scenario(n_sites=64, measurement=measurement, total=4.0, records=(0.0, 2.5, 4.0),
                                   state=GaussianPacketSpec(8, 3.0, 5))
        records, (_, plan, ops), certificate, blocks = captured_run(scenario)
        assert plan is None and measurements_in(ops) == 0 and certificate == 0.0
        assert [(rows, share) for _, rows, share in blocks] == [(range(33), None)]
        for got, want in zip(records, run_schedule(with_interval(scenario, None))):
            for field in ("position_dist", "momentum_dist"):
                np.testing.assert_array_equal(getattr(got, field).view(np.uint64),
                                              getattr(want, field).view(np.uint64))
            assert math.copysign(1.0, got.purity) == math.copysign(1.0, want.purity)
            assert got.purity == want.purity

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
        """Forty distinct leg lengths leave no phases per length behind. The
        run is never measured, so its one engine holds phi and no chord
        rows; it peaks at 0.33 N x N matrices, below 0.4, with its forty
        snapshots and records (0.65 when it stepped its chord rows)."""
        n = 256
        times = tuple(float(t) for t in np.cumsum(0.37 * np.arange(1, 41)))
        scenario = packet_scenario(measurement=NoMeasurement(), interval=None,
                                   total=times[-1], records=times)
        rho = density_to_momentum(density_from_pure(build_gaussian_packet(scenario.state, n)))
        matrix = n * n * 16
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
        assert run_peak < 0.4 * matrix
        assert evolve_peak < 8 * matrix

    @pytest.mark.parametrize(
        "measurement, bound",
        [
            (PointerSpec(0.2), 1.35),  # 0.495, one row block of the rows the cut keeps
            (RegionPvmSpec(6), 1.0),  # 0.89, a window of c = 41 columns, narrowed to W = 168
            (PointerSpec(1.0, DistanceConvention.LINEAR), 1.35),  # 1.23, c = 54, W = 224
            (PointerSpec(0.2, DistanceConvention.LINEAR), 3.25),  # 1.58, c = 127
        ],
    )
    def test_measured_run_memory_is_bounded(self, measurement, bound):
        """Records off the measurement grid need phases of their own; the
        run's peak stays a small multiple of one N x N matrix."""
        n = 256
        times = tuple(j + 0.5 for j in range(0, 20, 2))
        scenario = packet_scenario(measurement=measurement, total=times[-1], records=times)
        tracemalloc.start()
        try:
            run_schedule(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * n * n * 16

    def test_pointer_run_memory_is_bounded_at_large_n(self):
        """Row blocks, one at a time, hold a pointer run at N = 4096, with an
        off-grid record that needs phases of its own, below 1/256 of one
        N x N matrix (1 MiB); it peaks at 0.897 MiB, 1/285 of one (0.992
        when each block built its rows at the start)."""
        n = 4096
        scenario = Scenario(
            lattice=LatticeConfig(n),
            state=GaussianPacketSpec(n // 2, 128.0, 0),
            measurement=PointerSpec(0.0125),
            schedule=Schedule(1.0, 2.5, (2.5,)),
        )
        tracemalloc.start()
        try:
            run_schedule(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16 / 256

    @pytest.mark.parametrize(
        "measurement, bound",
        [
            (RegionPvmSpec(6), 1.7),  # 1.03: the band and half K, W = 1372 (1.53 with all of K)
            (PointerSpec(0.5, DistanceConvention.LINEAR), 0.65),  # 0.38: c = 109, W = 441 (0.55)
        ],
        ids=["pvm6", "linear0.5"],
    )
    def test_narrowing_run_memory_is_bounded_at_large_n(self, measurement, bound):
        """A narrowing run at N = 2048, 4 measurements and 3 records, one of
        them off the grid, peaks at a small multiple of G = (N/2 + 1) N
        complex entries: it never holds G, for the first measurement builds
        the band from G's rows a chunk at a time, in the band's zero
        padding, where the window buffer stays and where records on and off
        the grid and band kernels take their N columns too. The scenario,
        and so its measurement, is built before tracing starts: a LINEAR
        kernel's O(N^3) PSD check alone peaks at 2.00 G."""
        n = 2048
        scenario = packet_scenario(n_sites=n, measurement=measurement, total=4.0,
                                   records=(0.0, 2.5, 4.0), state=GaussianPacketSpec(64, 64.0, 248))
        tracemalloc.start()
        try:
            run_schedule(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * (n // 2 + 1) * n * 16

    def test_run_memory_does_not_grow_with_its_measurements(self):
        """The schedule is generated afresh for each pass, not held: a
        narrowed 6-region run at N = 64 with 2,000 measurements peaks within
        4 KiB of the same run, with the same three records, at 200. They
        peaked 72 B apart; a schedule held as a list of operations peaked
        211 KiB higher, about 120 B per measurement. One warm-up, of the
        short run, so that few of the long run's tuples come from the ones
        Python keeps free from an earlier run, which it reuses untraced."""
        scenarios = [
            packet_scenario(n_sites=64, interval=interval, total=200.0,
                            records=(0.0, 100.0, 200.0), state=GaussianPacketSpec(2, 2.0, 7))
            for interval in (1.0, 0.1)
        ]
        run_schedule(scenarios[0])  # warm-up: FFT plans
        peaks = []
        for scenario in scenarios:
            tracemalloc.start()
            try:
                run_schedule(scenario)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 4 * 1024

    @pytest.mark.parametrize("measurement", [RegionPvmSpec(6), PointerSpec(0.5)])
    def test_long_horizon_drift_per_step(self, measurement):
        """Over 5,000 measurements the distributions' sums drift by at
        most 1e-16 per step, checked every 500 steps."""
        steps = 5000
        scenario = Scenario(
            lattice=LatticeConfig(64),
            state=GaussianPacketSpec(8, 4.0, 7),
            measurement=measurement,
            schedule=Schedule(1.0, float(steps), tuple(float(t) for t in range(500, steps + 1, 500))),
        )
        for rec in run_schedule(scenario):
            allowed = 1e-14 + 1e-16 * rec.time_display
            assert abs(rec.position_dist.sum() - 1.0) <= allowed
            assert abs(rec.momentum_dist.sum() - 1.0) <= allowed


def snapshot(engine, n, t=0.0):
    """The one snapshot of an engine that holds every row, t after its last
    measurement."""
    snapshots = Snapshots(1, n)
    engine.record(snapshots, 0, t)
    return snapshots


def plan_of(measurement):
    """The run's channel plan, as run_schedule compiles it; None for a run
    that is never measured."""
    return None if measurement is None else ChannelPlan(measurement)


def engine_arrays(engine):
    """Every array an engine holds: its own by attribute name and its
    plan's as plan.<name>, so that no array hides in the shared plan."""
    arrays = {name: v for name, v in vars(engine).items() if isinstance(v, np.ndarray)}
    if engine._plan is not None:
        plan = vars(engine._plan).items()
        arrays.update({f"plan.{name}": v for name, v in plan if isinstance(v, np.ndarray)})
    return arrays


def region_mask(partition):
    """mask[n, d] = [sites (n + d) mod N and n share a region], built whole."""
    n = partition.n_sites
    sites = np.arange(n)
    region = partition.region_of
    return region[(sites[:, None] + sites[None, :]) % n] == region[:, None]


class TestPropagator:
    def test_stores_rows_zero_to_half(self):
        """No run holds an array larger than the half chord matrix; a
        narrowed engine holds its rows at width W (18 for 6 regions of 5)."""
        n = 32
        state = build_initial_state(GaussianPacketSpec(8, 3.0, 5), n)
        for operator, width in (
            (pointer_kernel(PointerSpec(1.5), n), n),
            (make_regions(n, 6), 18),
            (pointer_kernel(PointerSpec(0.2, DistanceConvention.LINEAR), n), n),
            (pointer_kernel(PointerSpec(1.0, DistanceConvention.LINEAR), n), n),
        ):
            engine = Propagator(state, ChannelPlan(operator))
            engine.measure(0.002)
            assert engine._g.shape == (n // 2 + 1, width)
            arrays = engine_arrays(engine).values()
            assert max(a.size for a in arrays) == (n // 2 + 1) * width

    @pytest.mark.parametrize("m_regions, cut", [(1, 0), (6, 82), (7, 70), (100, 110), (256, 0)])
    def test_pvm_cuts_only_columns_below_the_largest_region(self, m_regions, cut):
        """A PVM cuts the 2(L - 1) site separations that some pair inside the
        largest region (L sites) spans: its window is the columns d = 1..c,
        c = L - 1, and their mirrors, every column outside the window is
        constant, and the engine zeroes the ones whose constant is 0, from
        its band L on."""
        n = 256
        partition = make_regions(n, m_regions)
        plan = ChannelPlan(partition)
        mask = region_mask(partition)
        varies = mask.any(axis=0) & ~mask.all(axis=0)
        c = plan.window
        separation = np.minimum(np.arange(n), n - np.arange(n))
        window = (separation > 0) & (separation <= c)
        assert 2 * c == cut
        np.testing.assert_array_equal(window, varies)
        assert plan.scale is None  # every constant column is 1 below the band, 0 from it on
        np.testing.assert_array_equal(separation[~window] < plan.band, mask[0, ~window])

    @pytest.mark.parametrize(
        "operator",
        [make_regions(256, m) for m in (1, 6, 7, 100, 256)]
        + [
            RegionPartition((0, 5), 256),  # cuts column N/2: an odd number of cut columns
            pointer_kernel(PointerSpec(0.2, DistanceConvention.LINEAR), 256),
            pointer_kernel(PointerSpec(1.0, DistanceConvention.LINEAR), 256),
        ],
        ids=["pvm1", "pvm6", "pvm7", "pvm100", "pvm256", "pvm_wide", "linear0.2", "linear1"],
    )
    def test_measurement_matches_position_basis_channel(self, operator):
        """One leg and one measurement at N = 256, where cut columns are a
        minority, against the position-basis channel; a second measurement
        leaves the chord matrix where it is."""
        n, t = 256, 0.004
        state = build_initial_state(GaussianPacketSpec(8, 8.0, 31), n)
        engine = Propagator(state, ChannelPlan(operator))
        engine.measure(t)
        rho = density_to_position(evolve_density(density_to_momentum(density_from_pure(state)), t))
        if isinstance(operator, RegionPartition):
            rho = pvm_channel(rho, operator)
        else:
            rho = kernel_channel(rho, operator)
        snapshots = snapshot(engine, n)
        for got, want in (
            (snapshots.position_distribution(0), position_distribution(rho)),
            (snapshots.momentum_distribution(0), momentum_distribution(rho)),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert abs(snapshots.purity(0) - purity(rho)) <= 1e-12
        if isinstance(operator, RegionPartition):
            engine.measure(0.0)
            again = snapshot(engine, n)
            for got, want in zip(again.partials(0, engine._rows), snapshots.partials(0, engine._rows)):
                assert np.max(np.abs(got - want)) <= 1e-14

    def test_minimal_image_step_is_one_multiply_between_transforms(self):
        n, t = 256, 0.004
        kernel = pointer_kernel(PointerSpec(0.2), n)
        engine = Propagator(build_initial_state(GaussianPacketSpec(8, 8.0, 31), n), ChannelPlan(kernel))
        engine.measure(t)  # builds G, ending the pure stage
        leg = engine._free_leg(engine._g.copy(), engine._phase_vector(t), engine._rows)
        expected = np.fft.fft(np.fft.ifft(leg, axis=1) * kernel.values, axis=1)
        engine.measure(t)
        np.testing.assert_array_equal(engine._g, expected)

    @pytest.mark.parametrize("n, lo, hi", [(8, 0, 5), (64, 3, 33), (256, 0, 129), (256, 64, 129)])
    def test_tables_match_an_index_gather(self, n, lo, hi):
        """G of psi(t0), read off strided views of phi(t0), and G after a
        leg, read off strided views of the leg's phase table, equal the same
        products built through an index table, bit for bit, zero signs
        included; row 0 is built from phi and does not move."""
        t0, t = 0.0021, 0.0037
        state = build_initial_state(GaussianPacketSpec(n // 3, n / 8, 1), n)
        engine = Propagator(state, None, range(lo, hi))
        engine._g = engine._pure_rows(t0)  # as the first measurement builds it
        g = engine._g.copy()
        engine._leg(t)  # as the next measurement applies it
        phi = np.fft.fft(state.amplitudes)
        sites = np.arange(n)
        behind = (sites[None, :] - sites[lo:hi, None]) % n  # (k - delta) mod N
        energies = dispersion_table(n)
        at_t0 = phi * np.exp(-1j * t0 * energies)
        built = at_t0.conj()[behind] * (at_t0 / n)
        if lo == 0:
            built[0] = phi.conj() * (phi / n)
        turns = np.exp(1j * t * energies)  # u; exp(-i t E) is conj u
        # In place, as the engine multiplies: numpy's loop for a fresh
        # output may round a complex product differently in the last bit.
        after = g.copy()
        np.multiply(after, turns[behind], out=after)
        np.multiply(after, turns.conj(), out=after)
        if lo == 0:
            after[0] = g[0]
        for got, want in ((g, built), (engine._g, after)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_initial_trace_is_checked(self):
        # the state's one normalization check holds: its amplitudes refuse
        # the write that would change the engine's initial trace
        state = build_initial_state(GaussianPacketSpec(8, 3.0, 5), 32)
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes *= 1.001
        engine = Propagator(state)
        assert snapshot(engine, 32).momentum_distribution(0).sum() == pytest.approx(1.0, abs=1e-12)

    def test_momentum_snapshot_rejects_imaginary_diagonal(self):
        state = build_initial_state(GaussianPacketSpec(8, 3.0, 5), 32)
        engine = Propagator(state, ChannelPlan(pointer_kernel(PointerSpec(1.5), 32)))
        engine.measure(0.001)  # builds G, whose row 0 is p(k)
        engine._g[0, 3] += 1e-9j
        with pytest.raises(ValueError, match="imaginary parts"):
            snapshot(engine, 32).momentum_distribution(0)

    def test_record_checks_refuse_nan(self):
        """NaN fails every check a record makes, as a value out of bounds
        does: the imaginary parts of p(k) and p(n) that Snapshots reads, and
        the sum of each distribution that harness._snapshot checks."""
        n = 32
        snapshots = snapshot(Propagator(build_initial_state(GaussianPacketSpec(8, 3.0, 5), n)), n)
        sums, _, _, imag = snapshots.partials(0, range(n // 2 + 1))
        imag[0] = np.nan
        with pytest.raises(ValueError, match="momentum distribution has imaginary parts up to nan"):
            snapshots.momentum_distribution(0)
        sums[3] = np.nan
        with pytest.raises(ValueError, match="diagonal has imaginary parts up to nan"):
            snapshots.position_distribution(0)
        for name in ("position", "momentum"):
            dists = {"position": np.full(n, 1 / n), "momentum": np.full(n, 1 / n)}
            dists[name][3] = np.nan
            read = mock.Mock(position_distribution=lambda j: dists["position"],
                             momentum_distribution=lambda j: dists["momentum"])
            with pytest.raises(ValueError, match=f"{name} distribution sums to nan"):
                harness._snapshot(read, 0, LatticeConfig(n), 0.0, None)


def constant_column_kernel(n):
    """A PSD LINEAR kernel, 0.5 + 0.25 cos(pi d / N) + 0.25 cos(3 pi d / N),
    whose window (c = N/2 - 1) holds the constant column N/4."""
    d = np.arange(n)
    values = 0.5 + 0.25 * np.cos(np.pi * d / n) + 0.25 * np.cos(3 * np.pi * d / n)
    return DampingKernel(values, DistanceConvention.LINEAR)


def assert_window_steps_match_oracle(state, measurement, legs):
    """Legs of the given lengths, each followed by one measurement, through a
    Propagator and through the dense position-basis functions."""
    n = state.n_sites
    engine = Propagator(state, ChannelPlan(measurement))
    channel = pvm_channel if isinstance(measurement, RegionPartition) else kernel_channel
    rho = density_from_pure(state)
    for t in legs:
        engine.measure(t)
        rho = channel(density_to_position(evolve_density(density_to_momentum(rho), t)), measurement)
    snapshots = snapshot(engine, n)
    np.testing.assert_allclose(snapshots.position_distribution(0), position_distribution(rho),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(snapshots.momentum_distribution(0), momentum_distribution(rho),
                               rtol=0, atol=1e-12)
    assert abs(snapshots.purity(0) - purity(rho)) <= 1e-12


@st.composite
def window_steps(draw):
    """A packet, uneven region partitions, LINEAR Gaussian pointers or the
    constant-column kernel, and one to three legs of random length."""
    n = draw(st.sampled_from([64, 256]))
    state = build_initial_state(
        GaussianPacketSpec(
            draw(st.integers(0, n - 1)),
            draw(st.floats(1.0, n / 4)),
            draw(st.integers(-n // 2 + 1, n // 2)),
        ),
        n,
    )
    kind = draw(st.sampled_from(["regions", "linear", "constant"]))
    if kind == "regions":
        starts = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=6))
        measurement = RegionPartition((0, *sorted(starts)), n)
    elif kind == "linear":
        alpha = draw(st.floats(0.05, 3.0))
        measurement = pointer_kernel(PointerSpec(alpha, DistanceConvention.LINEAR), n)
    else:
        measurement = constant_column_kernel(n)
    legs = draw(st.lists(st.floats(1e-4, 0.02), min_size=1, max_size=3))
    return state, measurement, legs


@settings(max_examples=30, deadline=None)
@given(window_steps())
def test_window_steps_match_dense_oracle(case):
    assert_window_steps_match_oracle(*case)


@pytest.mark.parametrize(
    "measurement, window",
    [(RegionPartition((0, 40), 64), 32), (constant_column_kernel(64), 31)],
    ids=["region_wider_than_half", "linear_constant_column"],
)
def test_window_edges_match_dense_oracle(measurement, window):
    """A region of 40 of 64 sites puts column N/2 in the window; the LINEAR
    kernel has constant column 16 inside its window of c = 31."""
    state = build_initial_state(GaussianPacketSpec(20, 5.0, 7), 64)
    assert ChannelPlan(measurement).window == window
    if isinstance(measurement, DampingKernel):
        values = measurement.values
        assert values[16] == values[64 - 16]
        assert all(values[d] != values[64 - d] for d in range(1, 32) if d != 16)
    assert_window_steps_match_oracle(state, measurement, [0.004, 0.0013])


def smooth_width(m):
    """The smallest integer >= m whose prime factors are all 2, 3, 5 or 7."""
    while True:
        rest = m
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def expected_width(measurement):
    """W for the band of the measurement's dense mask on rho((n + d) mod N, n),
    or N if the engine keeps every column."""
    n = measurement.n_sites
    if isinstance(measurement, RegionPartition):
        mask = region_mask(measurement)
    else:
        sites = np.arange(n)
        mask = measurement.schur_matrix()[(sites[:, None] + sites[None, :]) % n, sites[:, None]]
    separation = np.minimum(np.arange(n), n - np.arange(n))
    band = 1 + separation[mask.any(axis=0)].max()
    width = smooth_width(4 * band - 3)
    return width if width < n else n


@st.composite
def narrowing_runs(draw):
    """Channels whose band is narrow enough to narrow the engine: region
    partitions with no region above N/4, per-site PVMs, autocorrelations of
    a short profile and LINEAR pointers with alpha >= 2. A run of steps
    whose legs are the interval or not, and records on and off the grid."""
    n = draw(st.sampled_from([64, 256]))
    state = build_initial_state(
        GaussianPacketSpec(
            draw(st.integers(0, n - 1)),
            draw(st.floats(1.0, n / 4)),
            draw(st.integers(-n // 2 + 1, n // 2)),
        ),
        n,
    )
    kind = draw(st.sampled_from(["regions", "per_site", "compact", "linear"]))
    if kind == "regions":
        sizes = draw(st.lists(st.integers(1, n // 4), min_size=1, max_size=12))
        starts = np.cumsum([0] + sizes * n)  # the sizes over and over
        measurement = RegionPartition(tuple(int(s) for s in starts[starts < n]), n)
    elif kind == "per_site":
        measurement = make_regions(n, n)
    elif kind == "compact":
        profile = draw(st.lists(st.integers(0, 9), min_size=1, max_size=n // 8).filter(any))
        measurement = DampingKernel(np.array(autocorrelation_kernel(profile + [0] * (n - len(profile)))))
    else:
        measurement = pointer_kernel(PointerSpec(draw(st.floats(2.0, 8.0)), DistanceConvention.LINEAR), n)
    interval = draw(st.floats(1e-4, 0.02))
    steps = draw(
        st.lists(
            st.tuples(
                st.one_of(st.just(interval), st.floats(1e-4, 0.02)),  # the leg
                st.sampled_from([None, 0.0, 0.3, 0.7]),  # a record: none, on the grid, or off it
            ),
            min_size=1,
            max_size=4,
        )
    )
    return state, measurement, steps


@settings(max_examples=40, deadline=None)
@given(narrowing_runs())
def test_narrowed_steps_match_dense_oracle(case):
    """A narrowed engine against the dense position-basis functions at
    1e-12, with legs of the interval and of other lengths and records on
    and off the measurement grid; its width is the W of the channel's
    band."""
    state, measurement, steps = case
    n = state.n_sites
    engine = Propagator(state, ChannelPlan(measurement))
    channel = pvm_channel if isinstance(measurement, RegionPartition) else kernel_channel
    rho = density_from_pure(state)

    for leg, record_at in steps:
        if record_at:  # a record part of the way through the leg
            check_snapshot(engine, evolved(rho, record_at * leg), record_at * leg)
        rho = channel(evolved(rho, leg), measurement)
        engine.measure(leg)
        assert engine._g.shape == (n // 2 + 1, expected_width(measurement))
        if record_at == 0.0:
            check_snapshot(engine, rho)
    check_snapshot(engine, rho)


def check_snapshot(engine, rho, t=0.0):
    snapshots = snapshot(engine, rho.n_sites, t)
    np.testing.assert_allclose(snapshots.position_distribution(0), position_distribution(rho),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(snapshots.momentum_distribution(0), momentum_distribution(rho),
                               rtol=0, atol=1e-12)
    assert abs(snapshots.purity(0) - purity(rho)) <= 1e-12


def random_state(n, seed):
    """A normalized state of random complex amplitudes."""
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(amplitudes / np.linalg.norm(amplitudes))


def evolved(rho, t):
    """The position-basis reference of a free leg of length t."""
    return density_to_position(evolve_density(density_to_momentum(rho), t))


@pytest.mark.parametrize(
    "measurement, width, window",
    [
        (make_regions(256, 16), 63, 15),
        (make_regions(256, 6), 168, 41),
        (RegionPartition(tuple(range(0, 256, 2)), 256), 5, 1),  # only the odd column d = 1
        (RegionPartition(tuple(range(0, 256, 3)), 256), 9, 2),  # d = 1 and the even d = 2
        (pointer_kernel(PointerSpec(3.0, DistanceConvention.LINEAR), 256), 75, 18),
    ],
    ids=["pvm16_odd_w", "pvm6_even_w", "pvm_odd_d", "pvm_even_d", "linear3"],
)
def test_symmetric_frame_matches_the_position_basis(measurement, width, window):
    """A narrowed engine steps its band in the symmetric frame, with half a
    band kernel and a window of odd and even columns d: of odd W and even
    W, of a window of d = 1 alone and of d = 1, 2, and of a LINEAR kernel,
    whose cut is a multiplier. On a random state, through legs of two
    random lengths, each of which builds its K, and records on and off the
    grid, it matches the position-basis channels at 1e-12."""
    n = measurement.n_sites
    plan = ChannelPlan(measurement)
    assert (plan.width, plan.window) == (width, window) and plan.twiddle is None
    rng = np.random.default_rng(width)
    engine = Propagator(random_state(n, width), plan)
    channel = pvm_channel if isinstance(measurement, RegionPartition) else kernel_channel
    rho = density_from_pure(random_state(n, width))
    a, b = rng.uniform(1e-3, 0.02, size=2)
    kernels = []
    for leg, record_at in ((a, None), (a, 0.0), (b, 0.4), (b, 0.0), (a, 0.7), (a, 0.0)):
        if record_at:
            check_snapshot(engine, evolved(rho, record_at * leg), record_at * leg)
        rho = channel(evolved(rho, leg), measurement)
        engine.measure(leg)
        assert engine._g.shape == (n // 2 + 1, width)
        kernels.append(engine._table_t)
        if record_at == 0.0:
            check_snapshot(engine, rho)
    assert kernels == [None, a, b, b, a, a]  # K of a, of b, and of a again
    assert engine._table.shape == (n // 2, width // 2 + 1)


def test_narrowed_pointer_block_recuts_in_the_symmetric_frame():
    """A row-local pointer that narrows (alpha = 1 at N = 256, W = 224),
    stepped as a block of rows 3..79 of a packet at a random place and
    momentum, with a share, re-cuts its band and its half K as a prefix:
    after every measure its rows' partials, on and off the grid, equal bit
    for bit those of the same rows of a block that keeps all of them. And
    run_schedule's records of such a run, whose blocks re-cut, match the
    position-basis reference at 1e-12."""
    n = 256
    measurement = pointer_kernel(PointerSpec(1.0), n)
    plan = ChannelPlan(measurement)
    assert plan.width == 224 and not plan.couples
    rng = np.random.default_rng(5)
    state = build_initial_state(GaussianPacketSpec(int(rng.integers(n)), 16.0, int(rng.integers(-60, 60))), n)
    recut = Propagator(state, plan, range(3, 80), 1e-12, 8)
    kept = Propagator(state, plan, range(3, 80))
    for leg, record_at in ((0.01, 0.0), (0.01, 0.5), (0.013, 0.0), (0.013, 0.3), (0.01, 0.0)):
        for engine in (recut, kept):
            engine.measure(leg)
        got, want = Snapshots(1, n), Snapshots(1, n)
        recut.record(got, 0, record_at * leg)
        kept.record(want, 0, record_at * leg)
        rows = len(recut._rows)
        for a, b in zip(got.partials(0, recut._rows)[:2], want.partials(0, kept._rows)[:2]):
            np.testing.assert_array_equal(a.view(np.uint64), b[:rows].view(np.uint64))
    assert len(recut._rows) < 77 and recut._table.shape == (len(recut._rows), 113)

    scenario = Scenario(
        lattice=LatticeConfig(n),
        state=GaussianPacketSpec(100, 6.0, 17),
        measurement=PointerSpec(1.0),
        schedule=Schedule(2.0, 12.0, (0.0, 3.0, 6.0, 11.0, 12.0)),
    )
    records, _, certificate, blocks = captured_run(scenario)
    assert certificate > 0 and any(engine._rows != rows for engine, rows, _ in blocks)
    rho, applied = density_from_pure(build_initial_state(scenario.state, n)), 0
    lattice = scenario.lattice
    for rec in records:
        while 2.0 * (applied + 1) <= rec.time_display + 1e-9:
            rho = kernel_channel(evolved(rho, lattice.to_natural_time(2.0)), measurement)
            applied += 1
        at = evolved(rho, lattice.to_natural_time(rec.time_display - 2.0 * applied))
        np.testing.assert_allclose(rec.position_dist, position_distribution(at), rtol=0, atol=1e-12)
        np.testing.assert_allclose(rec.momentum_dist, momentum_distribution(at), rtol=0, atol=1e-12)
        assert abs(rec.purity - purity(at)) <= 1e-12


def test_symmetric_frame_lags_are_real_and_its_plan_holds_no_twiddle():
    """E(k) = E(-k), so each row's cut kernel ifft_N(phases)[l] times
    exp(-i pi delta l / N) is real: on a random leg its imaginary part is
    within (1 + log2 N) eps of the row's l2 norm, 1, the round-off of
    ifft_N and of the frame's multiply. A narrowed plan holds no (c, N/2)
    twiddle table: its cut is the full-width plan's rolled by floor(d/2)
    along n, for a PVM and a LINEAR kernel, and its one N-vector is
    v = exp(i pi delta' / N), delta' signed."""
    n = 256
    rows = range(1, n // 2 + 1)
    t = np.random.default_rng(3).uniform(1e-3, 0.05)
    phases = leg_by_index(np.ones((len(rows), n), dtype=complex), rows, t)
    kernel = np.fft.ifft(phases, axis=1)
    reach = 2 * ChannelPlan(make_regions(n, 6)).band - 2
    lags = np.arange(-reach, reach + 1)
    framed = kernel[:, lags % n] * frame_phases(rows, lags, n, -1)
    assert np.allclose(np.linalg.norm(kernel, axis=1), 1.0)
    assert np.max(np.abs(framed.imag)) <= (1 + math.log2(n)) * np.finfo(float).eps

    sites = np.arange(n)
    signed = np.where(2 * sites > n, sites - n, sites)
    for measurement in (make_regions(n, 6), pointer_kernel(PointerSpec(3.0, DistanceConvention.LINEAR), n)):
        plan = ChannelPlan(measurement)
        c = plan.window
        arrays = {name: v.shape for name, v in vars(plan).items() if isinstance(v, np.ndarray)}
        assert plan.twiddle is None and (c, n // 2) not in arrays.values()
        np.testing.assert_allclose(plan.half_shift, np.exp(1j * np.pi * signed / n), rtol=0, atol=1e-15)
        if isinstance(measurement, RegionPartition):
            full = ~region_mask(measurement).T[1 : c + 1]  # the entries a PVM drops, column d along n
        else:
            values = measurement.values
            full = np.where(sites < n - sites[1 : c + 1, None], values[1 : c + 1, None], values[-sites[1 : c + 1], None])
        rolled = np.array([np.roll(row, d // 2) for d, row in enumerate(full, start=1)])
        np.testing.assert_array_equal(plan.cut, rolled)


@pytest.mark.parametrize(
    "measurement, width",
    [
        (make_regions(256, 6), 168),  # L = 42: 4L - 3 = 165, and 168 = 2^3 3 7
        (make_regions(256, 16), 63),  # L = 16: 61, and 63 = 3^2 7
        (make_regions(256, 256), 1),  # per-site: only d = 0 survives
        (make_regions(256, 1), 256),  # the identity
        (pointer_kernel(PointerSpec(0.2), 256), 256),  # pointer_stationary
        (pointer_kernel(PointerSpec(0.5), 256), 256),  # L = 110
        (pointer_kernel(PointerSpec(0.05), 1024), 1024),  # pointer_n1024
    ],
    ids=["pvm6", "pvm16", "pvm256", "pvm1", "pointer0.2", "pointer0.5", "pointer_n1024"],
)
def test_width_after_the_first_measurement(measurement, width):
    """The first measurement narrows an engine to W columns, the smallest
    7-smooth width >= 4L - 3, when W < N; pointers at the shipped alphas
    keep all N, and so does a 1-region PVM, the identity, which an engine
    applies as any other plan (run_schedule runs it unmeasured)."""
    n = measurement.n_sites
    engine = Propagator(build_initial_state(GaussianPacketSpec(8, 8.0, 31), n), ChannelPlan(measurement))
    engine.measure(0.001)
    assert engine._plan.width == width == expected_width(measurement)
    assert engine._g.shape[1] == width


def test_narrowed_engine_holds_nothing_wider_than_w():
    """Until its first measurement the engine holds phi and no phase table,
    also after a record. Narrowing builds the band straight from psi(t),
    with no G, and each new leg length its band kernel K, of W//2 + 1
    columns: the engine then holds no array with more than W columns but
    the window's: its buffer, which lies in the band's zero padding, the
    plan's c-row cut and its one N-vector v, and no (c, N/2) twiddle table,
    through legs of other lengths and records on and off the grid, which
    take their N columns in that padding too."""
    n, t, width = 256, 0.001, 168
    state = build_initial_state(GaussianPacketSpec(8, 8.0, 31), n)
    engine = Propagator(state, ChannelPlan(make_regions(n, 6)))
    engine.record(Snapshots(1, n), 0, 0.4 * t)
    assert engine._table is None and engine._g is None and engine._phi.shape == (n,)
    engine.measure(t)
    for leg, record_at in ((t, 0.0), (t, 0.5), (0.7 * t, 0.0), (t, 0.25)):
        engine.record(Snapshots(1, n), 0, record_at * leg)
        engine.measure(leg)
        arrays = engine_arrays(engine)
        assert np.shares_memory(arrays.pop("_buffer"), engine._g)
        assert arrays.pop("plan.cut").shape == (engine._plan.window, n)  # d-major
        assert arrays.pop("plan.half_shift").shape == (n,) and engine._plan.twiddle is None
        widths = {name: v.shape[-1] for name, v in arrays.items()}
        assert max(widths.values()) == widths["_g"] == width
        assert widths["_table"] == width // 2 + 1


@pytest.mark.parametrize(
    "measurement",
    [pointer_kernel(PointerSpec(0.2), 256), make_regions(256, 6)],
    ids=["pointer", "pvm6_narrowed"],
)
def test_row_zero_stays_bit_identical_across_every_leg(measurement):
    """Row 0, p(k), has phase exactly 1 on every free leg. Across every leg
    of a measured engine, row 0 of G, or of a narrowed engine's band, keeps
    every bit, and a record off the grid, in the pure stage too, reads the
    p(k) of the record at the measurement before it."""
    n = 256
    engine = Propagator(build_initial_state(GaussianPacketSpec(8, 8.0, 31), n), ChannelPlan(measurement))
    on_grid = snapshot(engine, n).momentum_distribution(0)  # the pure stage's
    for leg, record_at in ((0.001, 0.0), (0.001, 0.5), (0.00037, 0.25), (0.001, 0.7)):
        for part in (record_at * leg, 0.3 * leg):
            off_grid = snapshot(engine, n, part).momentum_distribution(0)
            np.testing.assert_array_equal(off_grid.view(np.uint64), on_grid.view(np.uint64))
        if engine._g is None:  # the pure stage: |phi|^2 / N at every t
            engine.measure(leg)
        else:
            before = np.ascontiguousarray(engine._g[0])
            engine._leg(leg)  # as measure(leg) applies it, before the channel
            np.testing.assert_array_equal(np.ascontiguousarray(engine._g[0]).view(np.uint64),
                                          before.view(np.uint64))
            engine.measure(0.0)
        on_grid = snapshot(engine, n).momentum_distribution(0)
    assert engine._narrowed == isinstance(measurement, RegionPartition)


def test_narrowed_records_and_new_leg_take_their_rows_in_the_padding():
    """Stepped as run_blocks steps it, in a one-row ufunc buffer, a
    narrowed engine takes its N-wide rows in its band's zero padding and
    allocates beyond the arrays it keeps, in a record on the grid, at most
    one row of N for p(k)'s FFT and 1 KiB more: 5 KiB at N = 256 (3.9 KiB
    seen; 7.5 KiB when p(k) took a row of its own). In a record off the
    grid, and in a measure whose leg has a new length and builds a new K,
    it allocates a leg's 3N phase table and 8 KiB more: 20 KiB
    (15.9 and 17.4 KiB seen, of which 5 KiB is the one-row ufunc buffers of
    the multiply that ends a new K; 15.0 and 13.0 with all of K; 80 KiB
    with a chunk of CHUNK_ENTRIES entries of their own)."""
    n, t = 256, 0.001
    engine = Propagator(build_initial_state(GaussianPacketSpec(8, 8.0, 31), n), ChannelPlan(make_regions(n, 6)))
    snapshots = Snapshots(1, n)
    leg = 3 * n * 16 + 8 * 1024
    actions = [
        (lambda: engine.record(snapshots, 0, 0.0), n * 16 + 1024),
        (lambda: engine.record(snapshots, 0, 0.4 * t), leg),
        (lambda: engine.measure(0.7 * t), leg),
    ]

    def transients():
        engine.measure(t)  # narrows
        engine.measure(t)  # warm-up: the K of a leg of t, FFT plans of length W
        engine.record(snapshots, 0, 0.0)  # warm-up: the snapshot's partials, FFT plans
        peaks = []
        for action, _ in actions:
            tracemalloc.start()
            try:
                action()
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - current)
        return peaks

    for peak, (_, bound) in zip(in_one_row_buffer(n, transients), actions):
        assert peak <= bound
    assert engine._table_t == pytest.approx(0.7 * t)


@pytest.mark.parametrize(
    "measurement",
    [
        None,
        pointer_kernel(PointerSpec(0.2), 256),
        pointer_kernel(PointerSpec(0.2, DistanceConvention.LINEAR), 256),
    ],
    ids=["unmeasured", "pointer", "linear"],
)
def test_engine_keeps_one_phase_vector_beside_g(measurement):
    """An engine that keeps all N columns holds a leg's phases as one N-site
    vector, doubled and followed by its conjugate: after legs of three
    lengths, each followed by a measurement and a record off the grid, it
    holds no array of more than 3N entries besides G and, for a LINEAR
    kernel, the c-row d-major arrays of its window step. An engine that is
    never measured holds phi alone after its records."""
    n = 256
    engine = Propagator(build_initial_state(GaussianPacketSpec(8, 8.0, 31), n), plan_of(measurement))
    for t in (0.001, 0.0015, 0.0012):
        if measurement is not None:
            engine.measure(t)
        engine.record(Snapshots(1, n), 0, 0.5 * t)
    arrays = engine_arrays(engine)
    if measurement is None:
        assert engine._g is None and {name: v.shape for name, v in arrays.items()} == {"_phi": (n,)}
        return
    assert engine._g.shape == (n // 2 + 1, n) and engine._phi is None
    window = {"_buffer", "plan.cut", "plan.twiddle"}
    assert all(arrays[name].shape[0] == engine._plan.window for name in window & set(arrays))
    assert engine._plan.half_shift is None  # the symmetric frame is a narrowed engine's alone
    assert max(v.size for name, v in arrays.items() if name not in {"_g", *window}) <= 3 * n


def named_scenario(name):
    """A shipped scenario, or the pointer_n1024 benchmark workload:
    pointer_stationary doubled twice, run for 40 pointer applications."""
    if name != "pointer_n1024":
        return load_scenario(SCENARIOS / f"{name}.ini")
    return Scenario(
        lattice=LatticeConfig(1024),
        state=GaussianPacketSpec(512, 32.0, 0),
        measurement=PointerSpec(0.05),
        schedule=Schedule(10.0, 400.0, (0.0, 200.0, 400.0)),
    )


def spy_leg_tables():
    """Patches Propagator._phase_vector and _band_kernel to log the engine
    behind each call and the rows it holds then."""
    calls = {"_phase_vector": [], "_band_kernel": []}

    def spy(name):
        inner = getattr(Propagator, name)

        def logged(self, *args):
            calls[name].append((self, self._rows))
            return inner(self, *args)

        return mock.patch.object(Propagator, name, logged)

    return calls, spy("_phase_vector"), spy("_band_kernel")


@pytest.mark.parametrize("workload", ["pvm_packet", "pointer_n1024"])
def test_each_block_engine_builds_one_leg_table(workload):
    """Every leg of the shipped PVM run and of the pointer_n1024 benchmark
    workload starts on the measurement grid, so each block engine builds
    one phase table over the whole run, at its second leg, the first being
    the pure stage's, and the PVM, which narrows, one band kernel K from
    it. The pointer run steps only the 80 rows its row cut keeps, in 5
    blocks of 16, which hold 78 of them after the first measurement."""
    scenario = named_scenario(workload)
    blocks, built = [], Propagator.__init__

    def logged(self, *args):
        built(self, *args)
        blocks.append((self, self._rows))

    calls, tables, kernels = spy_leg_tables()
    with tables, kernels, mock.patch.object(Propagator, "__init__", logged):
        run_schedule(scenario)
    engines = [engine for engine, _ in calls["_phase_vector"]]
    assert engines == [engine for engine, _ in blocks]  # one each, in block order
    if workload == "pvm_packet":
        assert [rows for _, rows in blocks] == [range(129)]
        assert calls["_phase_vector"] == calls["_band_kernel"] == [(engines[0], range(129))]
    else:
        assert sorted(row for _, rows in blocks for row in rows) == list(range(80))
        assert sum(len(rows) for _, rows in calls["_phase_vector"]) == 78
        assert calls["_band_kernel"] == []


@pytest.mark.parametrize("workload", ["pvm_packet", "pointer_n1024"])
def test_a_run_builds_its_channel_plan_once(workload):
    """run_schedule compiles the measurement into one read-only plan, read
    by every block engine: one build for pvm_packet's single block and one for
    the 5 blocks of the pointer_n1024 benchmark workload."""
    scenario = named_scenario(workload)
    builds, compile_plan = [], ChannelPlan.__init__

    def logged(self, measurement):
        compile_plan(self, measurement)
        builds.append(self)

    with mock.patch.object(ChannelPlan, "__init__", logged):
        run_schedule(scenario)
    assert len(builds) == 1
    tables = [v for v in vars(builds[0]).values() if isinstance(v, np.ndarray)]
    assert tables and not any(table.flags.writeable for table in tables)


@pytest.mark.parametrize(
    "measurement, vectors, kernels",
    [(None, 0, 0), (pointer_kernel(PointerSpec(0.2), 256), 3, 0), (make_regions(256, 6), 3, 3)],
    ids=["unmeasured", "pointer", "pvm6_narrowed"],
)
def test_leg_table_is_rebuilt_only_when_the_leg_length_changes(measurement, vectors, kernels):
    """Legs a, a, b, b, a, each followed by a measurement: the first leg is
    the pure stage's and builds nothing, the others build three phase
    tables, for a, b and a; a narrowed engine builds a K with each. An
    engine that is never measured stays pure and builds none for records
    at those times."""
    engine = Propagator(build_initial_state(GaussianPacketSpec(8, 8.0, 31), 256), plan_of(measurement))
    calls, tables, kernel_spy = spy_leg_tables()
    with tables, kernel_spy:
        for t in (0.001, 0.001, 0.0015, 0.0015, 0.001):
            if measurement is None:
                engine.record(Snapshots(1, 256), 0, t)
            else:
                engine.measure(t)
    assert len(calls["_phase_vector"]) == vectors
    assert len(calls["_band_kernel"]) == kernels


def test_measurement_allocates_nothing_before_or_after_narrowing():
    """A PVM step writes in place: no broadcast scale, no mask cast. A
    2-region engine (W = 512) keeps all N columns; a 6-region one has
    narrowed after its first measurement. Stepped as run_blocks steps it,
    in a one-row ufunc buffer, a measure allocates 1.7 KiB, below 4 KiB:
    a cast or a broadcast operand would take a buffer of one row (4 KiB at
    N = 256) more. The d-major window step multiplies strided views, which
    numpy's default 8192-element buffer would copy through 256 KiB."""
    n, t = 256, 0.001
    state = build_initial_state(GaussianPacketSpec(8, 8.0, 31), n)

    def peak_of_a_measure(engine):
        for _ in range(2):  # warm-up: FFT plans, narrowing and the leg's table
            engine.measure(t)
        tracemalloc.start()
        try:
            engine.measure(t)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for m_regions, width in ((2, n), (6, 168)):
        engine = Propagator(state, ChannelPlan(make_regions(n, m_regions)))
        peak = in_one_row_buffer(n, lambda: peak_of_a_measure(engine))
        assert engine._g.shape[1] == width
        assert peak < 4 * 1024


def test_a_recutting_measure_reads_row_norms_one_row_at_a_time():
    """A re-cut reads its rows' l1 norms without a (rows, N) temporary: on a
    27-row block of the pointer_n1024 workload at N = 1024, a measure that
    reads all 27 norms and drops every row peaks at most 12 KiB above the
    same measure on an engine that keeps its rows (a (27, N) array of
    norms would be 216 KiB). A block of row 0 keeps it."""
    scenario = named_scenario("pointer_n1024")
    n, t = 1024, 0.01
    state = build_initial_state(scenario.state, n)
    plan = ChannelPlan(pointer_kernel(scenario.measurement, n))
    warm = Propagator(state, plan, range(27, 54))
    warm.measure(t)  # warm-up: FFT plans
    plain = Propagator(state, plan, range(27, 54))
    recut = Propagator(state, plan, range(27, 54), 1.0, 1)  # a share that fits every row
    peaks = []
    for engine in (plain, recut):
        tracemalloc.start()
        try:
            engine.measure(t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(plain._rows) == 27 and len(recut._rows) == 0
    assert peaks[1] <= peaks[0] + 12 * 1024
    first = Propagator(state, plan, range(27), 1.0, 1)
    first.measure(t)
    assert first._rows == range(1)  # row 0, p(k), stays whatever the share


@pytest.mark.parametrize(
    "measurement",
    [make_regions(256, 6), pointer_kernel(PointerSpec(0.2), 256)],
    ids=["pvm6", "pointer0.2"],
)
def test_engine_conserves_trace_and_never_gains_purity_over_thousand_steps(measurement):
    """The engine's twin of A2, with A3's purity criterion: pvm_packet's
    state, 1,000 legs of its interval through one Propagator, each followed
    by a measurement. The trace drifts by at most 1e-10, and no measurement
    raises the purity."""
    scenario = load_scenario(SCENARIOS / "pvm_packet.ini")
    n = scenario.lattice.n_sites
    engine = Propagator(build_initial_state(scenario.state, n), ChannelPlan(measurement))
    dt = scenario.lattice.to_natural_time(1.0)
    snapshots = Snapshots(2, n)  # just before and just after a measurement
    worst_trace, gains = 0.0, 0
    for _ in range(1000):
        engine.record(snapshots, 0, dt)
        engine.measure(dt)
        engine.record(snapshots, 1, 0.0)
        gains += snapshots.purity(1) > snapshots.purity(0)
        for dist in (snapshots.position_distribution(1), snapshots.momentum_distribution(1)):
            worst_trace = max(worst_trace, abs(float(dist.sum()) - 1.0))
    assert worst_trace <= 1e-10
    assert gains == 0


def test_snapshots_are_allocated_when_first_recorded():
    """A run holds only the snapshots it has reached: 1,000 snapshots at
    N = 1024, one of them recorded by an engine of all 513 rows, peak
    below 90 KiB (86.6 KiB seen: the list of 1,000, the snapshot's 20 KiB
    and the pure record's transients), about 20 MiB if all were
    allocated."""
    n = 1024
    engine = Propagator(build_initial_state(GaussianPacketSpec(8, 3.0, 5), n))
    tracemalloc.start()
    try:
        snapshots = Snapshots(1000, n)
        engine.record(snapshots, 500, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 90 * 1024
    assert snapshots.purity(500) == pytest.approx(1.0, abs=1e-12)


def test_snapshots_hold_only_the_rows_each_block_recorded():
    """pointer_stationary is 2 blocks of the 82 rows its row cut keeps,
    which their re-cuts drop to 68, 43, 27 and 8 by its later records: each
    snapshot holds sums and norms only for the rows each block held when it
    recorded it, one piece of 3 float64 entries a row, and none for the
    other rows of the 129."""
    scenario = load_scenario(SCENARIOS / "pointer_stationary.ini")
    recorded, inner = [], Propagator.record

    def logged(self, snapshots, j, t):
        recorded.append((snapshots, j, self._rows))
        inner(self, snapshots, j, t)

    with mock.patch.object(Propagator, "record", logged):
        run_schedule(scenario)
    snapshots = recorded[0][0]
    held = []
    for j in range(len(scenario.schedule.record_times)):
        pieces = snapshots._partials[j][1]
        assert [rows for rows, _ in pieces] == [rows for _, k, rows in recorded if k == j]
        assert all(piece.size == 3 * len(rows) for rows, piece in pieces)
        held.append(sum(len(rows) for rows, _ in pieces))
    assert held == [82, 68, 43, 27, 8]


@st.composite
def snapshot_pieces(draw):
    """N = 8..256, a random range of rows of 0..N/2 split into 1 to 4
    blocks, recorded in random order, one of them twice."""
    n = draw(st.sampled_from([8, 16, 32, 64, 128, 256]))
    half = n // 2 + 1
    lo = draw(st.integers(0, half - 1))
    hi = draw(st.integers(lo + 1, half))
    inner = draw(st.lists(st.integers(lo + 1, hi - 1), max_size=3, unique=True)) if hi - lo > 1 else []
    bounds = [lo, *sorted(inner), hi]
    blocks = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    order = draw(st.permutations(blocks))
    again = draw(st.sampled_from(blocks))
    return n, [*order, again], draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(snapshot_pieces())
def test_snapshot_pieces_read_back_as_full_rows(case):
    """Random partials written piece by piece, a block's piece written a
    second time replacing the first, give p(n) and the purity that the
    same values written into full N/2 + 1 arrays, zeros elsewhere, give,
    bit for bit; rows overlapping a piece that is held are refused."""
    n, blocks, seed = case
    half = n // 2 + 1
    rng = np.random.default_rng(seed)
    snapshots = Snapshots(1, n)
    full_sums, full_norms = np.zeros(half, dtype=complex), np.zeros(half)
    for rows in blocks:
        sums, norms, _, _ = snapshots.partials(0, rows)
        sums[:] = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
        for real in {0, n // 2} & set(rows):  # s[0] and s[N/2] are real
            sums[real - rows.start] = sums[real - rows.start].real
        norms[:] = rng.random(len(rows))
        full_sums[rows.start : rows.stop], full_norms[rows.start : rows.stop] = sums, norms
    row_sums = np.empty(n, dtype=complex)
    row_sums[:half] = full_sums
    row_sums[half:] = row_sums[n - half : 0 : -1].conj()
    want = np.fft.ifft(row_sums).real
    got = snapshots.position_distribution(0)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    purity = float(full_norms[0] + full_norms[-1] + 2.0 * full_norms[1:-1].sum())
    assert snapshots.purity(0) == purity
    if len(set(blocks)) > 1:  # all the blocks' rows, which no one piece holds
        with pytest.raises(ValueError, match="overlap"):
            snapshots.partials(0, range(min(r.start for r in blocks), max(r.stop for r in blocks)))


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


def draw_schedule(draw, measured, max_count, min_count=1, shortest=0.5):
    """min_count..max_count intervals of shortest..5 plus a random part of
    one, and record times on the measurement grid or a twentieth of an
    interval apart from it and from each other: none falls within the
    run's snap."""
    interval = draw(st.floats(shortest, 5.0))
    count = draw(st.integers(min_count, max_count))
    total = (count + draw(st.integers(0, 9)) / 10) * interval
    slots = draw(st.sets(st.tuples(st.integers(0, count), st.integers(0, 19)), min_size=1, max_size=6))
    times = sorted({j * interval if i == 0 else (j + i / 20) * interval for j, i in slots})
    times = [t for t in times if t <= total] or [total]
    return Schedule(interval if measured else None, total, tuple(times))


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
    schedule = draw_schedule(draw, kind != "none", 12)
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


@st.composite
def blocked_scenarios(draw, kinds):
    """Runs at N = 256 and 1024 of the kinds asked for: Gaussian pointers,
    autocorrelations of a short random profile (both minimal-image),
    per-site PVMs and unmeasured runs, which step in row blocks, and PVMs
    of 2 to 16 regions, which couple rows. A damped run is a pointer of
    alpha >= 0.5 applied 20 to 30 times, at least 2 units apart: enough that
    its blocks drop rows mid-run."""
    n = draw(st.sampled_from([256, 1024]))
    state = GaussianPacketSpec(
        draw(st.integers(0, n - 1)),
        draw(st.floats(2.0, n / 8)),
        draw(st.integers(-n // 2 + 1, n // 2)),
    )
    kind = draw(st.sampled_from(kinds))
    if kind == "pointer":
        measurement = PointerSpec(draw(st.floats(0.2, 3.0)))
    elif kind == "damped":
        measurement = PointerSpec(draw(st.floats(0.5, 3.0)))
    elif kind == "custom":
        profile = draw(st.lists(st.integers(0, 9), min_size=1, max_size=16).filter(any))
        measurement = CustomKernelSpec(autocorrelation_kernel(profile + [0] * (n - len(profile))))
    elif kind == "sites":
        measurement = RegionPvmSpec(n)
    elif kind == "regions":
        measurement = RegionPvmSpec(draw(st.integers(2, 16)))
    else:
        measurement = NoMeasurement()
    if kind == "damped":
        schedule = draw_schedule(draw, True, 30, min_count=20, shortest=2.0)
    else:
        schedule = draw_schedule(draw, kind != "none", 6)
    return Scenario(lattice=LatticeConfig(n), state=state, measurement=measurement, schedule=schedule)


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.position_dist, b.position_dist)
        np.testing.assert_array_equal(a.momentum_dist, b.momentum_dist)
        assert a.purity == b.purity
        assert a.momentum_variance == b.momentum_variance


def captured_run(scenario):
    """run_schedule's records; the state, plan and operations it hands
    run_blocks, and the certificate C that run_blocks returns; and
    the block engines that run_blocks builds, each with the rows and share
    it was built with."""
    calls, blocks, build = [], [], Propagator.__init__

    def spy(*args):
        calls.append((args, run_blocks(*args)))

    def built(self, state, plan=None, rows=None, share=None, measurements=0):
        build(self, state, plan, rows, share, measurements)
        blocks.append((self, rows, share))

    with mock.patch.object(harness, "run_blocks", spy), mock.patch.object(Propagator, "__init__", built):
        records = run_schedule(scenario)
    (args, certificate), = calls
    return records, args, certificate, blocks


@pytest.mark.parametrize(
    "measurement", [NoMeasurement(), RegionPvmSpec(4), PointerSpec(2.0)], ids=["none", "pvm4", "pointer"]
)
def test_run_schedule_steps_the_inputs_its_scenario_built(measurement):
    """run_schedule builds neither the state nor the measurement operator:
    it hands run_blocks the state its scenario built, and so checked, at
    construction, and a plan compiled from the scenario's operator, or no
    plan for an unmeasured run."""
    scenario = packet_scenario(n_sites=32, measurement=measurement, total=4.0, records=(0.0, 4.0),
                               state=GaussianPacketSpec(8, 3.0, 5))
    compiled, compile_plan = [], ChannelPlan.__init__

    def logged(self, operator):
        compile_plan(self, operator)
        compiled.append((self, operator))

    with mock.patch.object(ChannelPlan, "__init__", logged):
        _, (state, plan, _), _, _ = captured_run(scenario)
    assert state is scenario.initial_state
    if scenario.operator is None:
        assert plan is None and compiled == []
    else:
        assert compiled == [(plan, scenario.operator)]


def replay(state, plan, ops, count, blocks):
    """ops stepped on one Propagator per (rows, share) of blocks, one block
    after the other, into snapshots of their own, every op on every block,
    an emptied one too. Returns the snapshots and what each engine spent."""
    whole, spent = Snapshots(count, state.n_sites), []
    for rows, share in blocks:
        engine = Propagator(state, plan, rows, share, measurements_in(ops))
        for method, *args in ops:
            if method is Propagator.record:
                args = (whole, *args[1:])
            method(engine, *args)
        spent.append(engine.spent)
    return whole, spent


def measurements_in(ops):
    return sum(op[0] is Propagator.measure for op in ops)


def cut_of(state, plan, measurements):
    """row_cut's (K, C0), or all N/2 + 1 rows and C0 = 0 for a run that is
    never measured, which stays pure and cuts nothing."""
    return (state.n_sites // 2 + 1, 0.0) if plan is None else row_cut(state, plan, measurements)


def spy_drops():
    """Patches Propagator._recut to log each block's (start row, rows
    dropped, measurements still to come, whether it has narrowed) after
    every measurement that drops rows."""
    drops, inner = [], Propagator._recut

    def logged(self):
        before = len(self._rows)
        inner(self)
        if len(self._rows) < before:
            dropped = before - len(self._rows)
            drops.append((self._rows.start, dropped, self._to_come, self._narrowed))

    return drops, mock.patch.object(Propagator, "_recut", logged)


@settings(max_examples=10, deadline=None)
@given(blocked_scenarios(["pointer", "custom", "none", "damped"]))
@example(named_scenario("pointer_n1024"))
def test_row_blocks_match_one_block_of_all_rows(scenario):
    """run_schedule steps row blocks of the rows its row cut keeps, each
    block exactly once, with an equal share of the budget the cut leaves;
    the same blocks with the same shares, stepped through the same
    operations, give the same records, and so does a second run. A run of
    20 measurements or more drops rows before its last one. An unmeasured
    run is one pure engine of all rows, with no share and C = 0.
    test_row_cut_moves_only_position_entries_within_its_certificate
    compares the cut with all rows."""
    drops, spy = spy_drops()
    with spy:
        records, (state, plan, ops), certificate, blocks = captured_run(scenario)

    assert list(ops) == list(ops)  # generated afresh on each pass, the same each time
    measurements = measurements_in(ops)
    kept, cut = cut_of(state, plan, measurements)
    shares = {share for _, _, share in blocks}
    assert sorted(row for _, rows, _ in blocks for row in rows) == list(range(kept))
    if plan is None:  # one pure engine of all rows
        assert shares == {None} and len(blocks) == 1 and certificate == 0.0
    else:
        assert len(shares) == 1 and len(blocks) * shares.pop() <= 2.0**-52 - cut
    assert cut <= certificate <= 2.0**-52
    if measurements >= 20:
        assert any(to_come > 0 for _, _, to_come, _ in drops)

    whole, _ = replay(state, plan, ops, len(records), [(rows, share) for _, rows, share in blocks])
    for j, rec in enumerate(records):
        np.testing.assert_array_equal(rec.position_dist, whole.position_distribution(j))
        np.testing.assert_array_equal(rec.momentum_dist, whole.momentum_distribution(j))
        assert rec.purity == whole.purity(j)

    assert_same_records(run_schedule(scenario), records)


def spy_engine_calls():
    """Patches Propagator.measure and record to log (method name, rows the
    engine holds) for every call."""
    calls = []

    def spy(name):
        inner = getattr(Propagator, name)

        def logged(self, *args):
            calls.append((name, len(self._rows)))
            return inner(self, *args)

        return mock.patch.object(Propagator, name, logged)

    return calls, [spy(name) for name in ("measure", "record")]


def assert_emptied_blocks_stop(scenario):
    """No measure or record of run_schedule runs on an engine that
    holds no rows, and its certificate C and records equal, bit for bit,
    the same blocks stepped through every op by replay, which does run
    those calls. Returns how many calls of each method run_schedule skips."""
    calls, spies = spy_engine_calls()
    with spies[0], spies[1]:
        records, (state, plan, ops), certificate, blocks = captured_run(scenario)
        run = len(calls)
        whole, spent = replay(state, plan, ops, len(records), [(rows, share) for _, rows, share in blocks])
        _, cut = cut_of(state, plan, measurements_in(ops))  # ops hold the spies
    replayed = calls[run:]
    assert all(held > 0 for _, held in calls[:run])
    assert sum(held > 0 for _, held in replayed) == run
    assert certificate == math.fsum([cut, *spent])
    for j, rec in enumerate(records):
        np.testing.assert_array_equal(rec.position_dist, whole.position_distribution(j))
        np.testing.assert_array_equal(rec.momentum_dist, whole.momentum_distribution(j))
        assert rec.purity == whole.purity(j)
    return {name: replayed.count((name, 0)) for name in ("measure", "record")}


def test_pointer_n1024_emptied_blocks_stop():
    """Blocks 2 to 5 of the pointer_n1024 workload drop their last rows
    after measurements 10, 6, 4 and 3: they skip the rest of the run, 145
    of the 215 engine calls that replay makes."""
    skipped = assert_emptied_blocks_stop(named_scenario("pointer_n1024"))
    assert skipped == {"measure": 137, "record": 8}


@settings(max_examples=10, deadline=None)
@given(blocked_scenarios(["damped"]))
def test_emptied_blocks_stop_on_damped_runs(scenario):
    assert_emptied_blocks_stop(scenario)


def test_row_blocks_start_no_thread():
    """run_blocks steps every block on the calling thread: with the host
    said to have two cores and every thread start refused, the
    pointer_n1024 workload (5 blocks) runs, and so does a position
    eigenstate at N = 1024 under its pointer, whose row cut keeps all 513
    rows, in 33 blocks that each take their rows once."""
    n = 1024
    state = build_initial_state(PositionEigenstateSpec(512), n)
    taken = []
    refused = mock.Mock(side_effect=RuntimeError("run_blocks started a thread"))
    pointer = pointer_kernel(PointerSpec(0.05), n)
    with mock.patch.object(os, "cpu_count", return_value=2), \
            mock.patch.object(threading.Thread, "start", refused):
        records = run_schedule(named_scenario("pointer_n1024"))
        run_blocks(state, ChannelPlan(pointer), [(lambda engine: taken.append(engine._rows),)])
    assert len(records) == 3
    assert len(taken) == 33
    assert sorted(row for rows in taken for row in rows) == list(range(n // 2 + 1))


def test_pointer_n1024_peak_is_one_block_at_a_time():
    """The pointer_n1024 workload holds one block's engine at a time, each
    stepped in a one-row ufunc buffer, and its snapshots hold sums and
    norms only for the rows each block recorded: in 5 blocks of 16 rows, a
    G of 256 KiB each, its run peaks at 0.338 to 0.340 MiB, below 0.355 MiB
    in each of three runs, as its scenario holds the state and the kernel
    (0.362 to 0.364 when the run built them, 0.534 in 3 blocks of 26 and 27
    rows, 0.566 when every snapshot held all 513 rows, 0.574 when each
    block built its rows at its start and built conj u on every leg, 0.684
    with numpy's 128 KiB buffer on every leg and pointer step; two blocks
    stepped at once peaked at 1.09-1.33)."""
    scenario = named_scenario("pointer_n1024")
    for _ in range(3):
        tracemalloc.start()
        try:
            run_schedule(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.355 * 2**20


def allocated_beyond(action):
    """Bytes action allocates at its peak beyond what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_pointer_block_steps_take_one_row_of_buffer():
    """Inside a run's in_one_row_buffer, each pointer_n1024 block's measure
    allocates at most one row (16 KiB at N = 1024, the FFT's row buffer)
    and 4 KiB more beyond the engine's arrays, 145 KiB with numpy's
    default buffer. Its leg multiplies by the conj u its phase table holds
    (_leg) and allocates at most 4 KiB (1.3 KiB; 17.3 with conj u built on
    every leg). The leg has the length of the last one, as every leg of
    the workload but its first, which the pure stage takes, and its
    second."""
    n = 1024
    state = build_initial_state(GaussianPacketSpec(512, 32.0, 0), n)
    plan = ChannelPlan(pointer_kernel(PointerSpec(0.05), n))
    t = LatticeConfig(n).to_natural_time(10.0)

    def transients(rows):
        measured = Propagator(state, plan, rows)
        for _ in range(2):
            measured.measure(t)
        steps = (lambda: measured._leg(t), lambda: measured.measure(t))
        return [allocated_beyond(step) for step in steps]

    for rows in (range(26), range(26, 53), range(53, 80)):  # the workload's blocks
        leg, measure = in_one_row_buffer(n, lambda: transients(rows))
        assert leg <= 4096 and measure <= 16 * n + 4096


def raise_on_call(calls):
    """A stand-in engine method that raises on its calls-th call."""
    made = itertools.count(1)

    def method(engine, *args):
        if next(made) == calls:
            raise RuntimeError("op failed mid-block")

    return method


@pytest.mark.parametrize("caller", [None, 4096], ids=["numpy's", "caller's"])
def test_runs_step_in_one_row_buffer_and_restore_the_callers(caller):
    """run_blocks steps its blocks with numpy's ufunc buffer at one row of
    N elements, 16 (numpy's smallest multiple of 16) at N = 8, and gives
    back the size it was called with, numpy's default or one the caller
    set: after it returns, and after an op raises mid-block. So does
    run_schedule, whose third measurement raises."""
    seen = []

    def log(engine):
        seen.append(np.getbufsize())

    with np.errstate():
        if caller is not None:
            np.setbufsize(caller)
        size = np.getbufsize()
        for n, inside in ((1024, 1024), (8, 16)):
            state = build_initial_state(GaussianPacketSpec(n // 2, n / 32, 0), n)
            steps = [(log,), (Propagator.record, Snapshots(1, n), 0, 0.1)]
            seen.clear()
            run_blocks(state, None, [*steps, (log,)])
            assert set(seen) == {inside} and np.getbufsize() == size
            seen.clear()
            with pytest.raises(RuntimeError, match="mid-block"):
                run_blocks(state, None, [*steps, (raise_on_call(1),)])
            assert set(seen) == {inside} and np.getbufsize() == size
        scenario = named_scenario("pointer_n1024")
        run_schedule(scenario)
        assert np.getbufsize() == size
        with mock.patch.object(Propagator, "measure", raise_on_call(3)):
            with pytest.raises(RuntimeError, match="mid-block"):
                run_schedule(scenario)
        assert np.getbufsize() == size


def leg_by_index(g, rows, t):
    """g, the chord rows rows of G, times the phases of a leg of length t,
    in place, through an index table and all rows at once; row 0 is left
    alone. The whole-array reference of the engine's free leg."""
    n = g.shape[1]
    sites = np.arange(n)
    behind = (sites[None, :] - np.asarray(rows)[:, None]) % n  # (k - delta) mod N
    turns = np.exp(1j * t * dispersion_table(n))
    moving = 1 if rows.start == 0 else 0
    np.multiply(g[moving:], turns[behind[moving:]], out=g[moving:])
    np.multiply(g[moving:], turns.conj(), out=g[moving:])
    return g


def frame_phases(rows, lags, n, sign):
    """exp(sign i pi delta l / N) at [delta - rows.start, j], for l = lags[j],
    built whole from the integers delta l mod 2N: sign -1 takes a band's
    columns into the symmetric frame, 1 out of it."""
    turns = (sign * np.outer(np.asarray(rows), lags)) % (2 * n)
    return np.exp(1j * (turns * (np.pi / n)))


def rolled_leg_by_index(g, rows, t, late):
    """g, rows of G each rolled along k by b = floor(delta/2), or by
    ceil(delta/2) with late false, times the leg's phases rolled alike,
    u[k - delta + b] conj u[k + b], through index tables and all rows at
    once; row 0 is left alone. The whole-array reference of the engine's
    Weyl views."""
    n = g.shape[1]
    delta = np.asarray(rows)[:, None]
    ahead = delta // 2 if late else (delta + 1) // 2
    sites = np.arange(n)[None, :]
    turns = np.exp(1j * t * dispersion_table(n))
    moving = 1 if rows.start == 0 else 0
    np.multiply(g[moving:], turns[(sites - delta + ahead)[moving:] % n], out=g[moving:])
    np.multiply(g[moving:], turns.conj()[(sites + ahead)[moving:] % n], out=g[moving:])
    return g


def widened(engine, t=0.0):
    """G t after a narrowed engine's last measurement, each row rolled by
    floor(delta/2) along k, as its records read it, rebuilt from its band
    in one (rows, N) array: the band in N columns, its odd rows times v,
    fft_N, times the phases of a leg of t rolled alike."""
    plan, n, rows = engine._plan, engine._n, engine._rows
    keep, width = plan.band, plan.width
    g = np.zeros((len(rows), n), dtype=complex)
    g[:, :keep] = engine._g[:, :keep]
    g[:, n - keep + 1 :] = engine._g[:, width - keep + 1 :]
    g[1 - rows.start % 2 :: 2] *= plan.half_shift
    np.fft.fft(g, axis=1, out=g)
    return rolled_leg_by_index(g, rows, t, True) if t else g


def whole_band_kernel(engine, t):
    """A narrowed engine's K for a leg of length t, built in one (rows, N)
    array, rows of the moving rows only: the leg's phases, rolled by
    ceil(delta/2) along k, applied to exp(-2 pi i k (2L - 2) / N), ifft_N,
    which puts lag l at l + 2L - 2, the odd rows times v at their lags, so
    that the lags |l| <= 2L - 2 are in the symmetric frame, rfft_W of their
    real parts, times exp(2 pi i m (2L - 2) / W), which puts lag l back at
    l mod W."""
    plan, n = engine._plan, engine._n
    rows = engine._rows[engine._moving :]
    reach, width = 2 * plan.band - 2, plan.width
    shift = np.exp(1j * ((-reach * np.arange(n)) % n * (2 * np.pi / n)))
    phases = rolled_leg_by_index(np.tile(shift, (len(rows), 1)), rows, t, False)
    np.fft.ifft(phases, axis=1, out=phases)
    lags = phases[:, : 2 * reach + 1]
    lags[1 - rows.start % 2 :: 2] *= plan.half_shift[np.arange(-reach, reach + 1) % n]
    kernel = np.fft.rfft(lags.real, width, axis=1)
    return kernel * np.exp(1j * (reach * np.arange(width // 2 + 1) % width * (2 * np.pi / width)))


def pure_rows(engine, t):
    """G of psi(t) of an engine in its pure stage, through an index table:
    conj phi(t)[k - delta] phi(t)[k] / N on its rows."""
    n = engine._n
    phi = engine._phi * np.exp(-1j * t * dispersion_table(n))
    behind = (np.arange(n)[None, :] - np.asarray(engine._rows)[:, None]) % n
    return phi.conj()[behind] * (phi / n)


def row_l1(engine, t=0.0):
    """The l1 norm of each of an engine's chord rows of G, t after its last
    measurement."""
    if engine._g is None:
        g = pure_rows(engine, t)
    elif engine._narrowed:
        g = widened(engine, t)
    else:
        g = leg_by_index(engine._g.copy(), engine._rows, t)
    return np.abs(g).sum(axis=1)


@pytest.mark.parametrize(
    "measurement, rows",
    [
        (make_regions(256, 6), None),
        (make_regions(256, 16), None),
        (pointer_kernel(PointerSpec(1.0, DistanceConvention.LINEAR), 256), None),
        (DampingKernel(np.array(autocorrelation_kernel([3, 5, 2] + [0] * 253))), range(7, 100)),
    ],
    ids=["pvm6", "pvm16", "linear1", "compact_kernel_block"],
)
def test_chunked_records_and_band_kernels_match_whole_arrays(measurement, rows):
    """A narrowed engine takes N columns one chunk of rows at a time, in its
    band's zero padding. Its records, on and off the grid, and its K after
    legs of 0.001, 0.00037 and 0.0123 equal the same built whole in one
    (rows, N) array, bit for bit; so do those of a block of rows 7..99,
    whose chunks hold no row 0, and those of the same engine given each
    chunk apart from its band, as one whose padding is too small or not
    contiguous is given it."""
    n = 256
    state = build_initial_state(GaussianPacketSpec(8, 8.0, 31), n)
    for apart in (False, True):
        log, spy = spy_scratch(apart)
        with spy:
            engine = Propagator(state, ChannelPlan(measurement), rows)
            for leg, record_at in ((0.001, 0.0), (0.00037, 0.5), (0.0123, 0.25), (0.001, 0.6)):
                if engine._narrowed:
                    assert_record_matches_widened(engine, record_at * leg)
                engine.measure(leg)
                assert engine._narrowed
                if engine._table is None:  # the first leg is the pure stage's: no K yet
                    continue
                want = whole_band_kernel(engine, engine._table_t)
                got = np.ascontiguousarray(engine._table)
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert log and all(inside != apart and zero for inside, zero in log)


def assert_record_matches_widened(engine, t):
    """engine's record t after its last measurement equals, bit for bit,
    the partials read off G rebuilt whole (widened): row sums and squared
    norms, and p(k) and its imaginary part from the block of row 0."""
    n, rows = engine._n, engine._rows
    got, want = Snapshots(1, n), Snapshots(1, n)
    engine.record(got, 0, t)
    g = widened(engine, t)
    sums, norms, momentum, imag = want.partials(0, rows)
    g.sum(axis=1, out=sums)
    np.einsum("ij,ij->i", g.view(np.float64), g.view(np.float64), out=norms)
    read = 2
    if rows.start == 0:
        momentum[:], imag[0], read = g[0].real, np.max(np.abs(g[0].imag)), 4
    for a, b in list(zip(got.partials(0, rows), want.partials(0, rows)))[:read]:
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def spy_scratch(apart=False):
    """Patches Propagator._scratch to log, for each N-wide scratch a
    narrowed engine takes, whether the scratch it used lies in its band
    and whether the band's padding, rows L..W - L, is all 0 once the
    scratch is given back. With apart, the engine is given a fresh array
    of the same shape instead, outside its band."""
    log, inner = [], Propagator._scratch

    @contextlib.contextmanager
    def logged(self, band, rows):
        with inner(self, band, rows) as scratch:
            used = np.empty_like(scratch) if apart else scratch
            yield used
        plan = self._plan
        padding = band[plan.band : plan.width - plan.band + 1]
        log.append((np.shares_memory(used, band), bool(np.all(padding == 0.0))))

    return log, mock.patch.object(Propagator, "_scratch", logged)


@pytest.mark.parametrize(
    "measurement, rows",
    [
        (make_regions(256, 6), None),
        (make_regions(256, 16), None),
        (make_regions(256, 256), None),
        (DampingKernel(np.array(autocorrelation_kernel([3, 5, 2] + [0] * 253))), None),
        (DampingKernel(np.array(autocorrelation_kernel([3, 5, 2] + [0] * 253))), range(7, 100)),
    ],
    ids=["pvm6", "pvm16", "per_site_pvm", "compact_kernel", "compact_kernel_block"],
)
@pytest.mark.parametrize("random_state", [False, True], ids=["packet", "random"])
def test_records_on_the_grid_read_the_band(measurement, rows, random_state):
    """A narrowed engine records on the grid off its band: row sums
    N H[:, 0], squared row norms N sum_d |H|^2 and p(k) from band row 0.
    They match what the chunk path reads off G rebuilt on the same engine:
    p(k) and its imaginary part bit for bit, the sums within 1e-15 of the
    largest and the norms within 4e-15 of the largest. The chunk path's G is
    summed exactly (fsum): its own einsum over 2N squares rounds by up to
    5.9e-15 of the largest norm on a per-site PVM, whose band is the one
    column d = 0. The band's einsum over 2W squares rounds too: by up to
    2.5e-15 of the largest norm on 150 random states under a 6-region PVM."""
    n = 256
    if random_state:
        rng = np.random.default_rng(11)
        amplitudes = rng.normal(size=n) + 1j * rng.normal(size=n)
        state = StateVector(amplitudes / np.linalg.norm(amplitudes))
    else:
        state = build_initial_state(GaussianPacketSpec(8, 8.0, 31), n)
    engine = Propagator(state, ChannelPlan(measurement), rows)
    for leg in (0.001, 0.001, 0.00037, 0.0123):
        engine.measure(leg)
        assert engine._narrowed
        got, want = Snapshots(1, n), Snapshots(1, n)
        engine.record(got, 0, 0.0)
        rows = engine._rows
        sums, norms, momentum, imag = want.partials(0, rows)
        for part, g in engine._g_chunks(0.0):
            for delta, row in zip(part, g.view(np.float64)):
                sums[delta - rows.start] = complex(math.fsum(row[0::2]), math.fsum(row[1::2]))
                norms[delta - rows.start] = math.fsum(row * row)
            if part.start == 0:
                momentum[:], imag[0] = g[0].real, np.max(np.abs(g[0].imag))
        for a, b, tolerance in zip(got.partials(0, rows), want.partials(0, rows), (1e-15, 4e-15)):
            np.testing.assert_allclose(a, b, rtol=0, atol=tolerance * np.abs(b).max())
        if rows.start == 0:
            for a, b in zip(got.partials(0, rows)[2:], want.partials(0, rows)[2:]):
                np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def pure_stage_cases(draw):
    """A random normalized state at N = 32..256, one to three legs of random
    length, and a measurement: a partition into 2 to 16 regions at random
    boundaries, which narrows when no region reaches about N/4, or a
    compact autocorrelation kernel, which always narrows."""
    n = draw(st.sampled_from([32, 64, 128, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitudes = rng.normal(size=n) + 1j * rng.normal(size=n)
    state = StateVector(amplitudes / np.linalg.norm(amplitudes))
    if draw(st.booleans()):
        count = draw(st.integers(2, 16))
        starts = draw(st.sets(st.integers(1, n - 1), min_size=count - 1, max_size=count - 1))
        measurement = RegionPartition((0, *sorted(starts)), n)
    else:
        measurement = DampingKernel(np.array(autocorrelation_kernel([3, 5, 2] + [0] * (n - 3))))
    legs = draw(st.lists(st.floats(1e-4, 0.02), min_size=1, max_size=3))
    return state, measurement, legs


@settings(max_examples=40, deadline=None)
@given(pure_stage_cases())
def test_first_measurement_builds_what_the_legs_built(case):
    """The first measurement builds G of psi(t) from phi(t) = phi exp(-i t E),
    or, for a plan that narrows, the band of H from G's rows a chunk at a
    time, in the symmetric frame exp(-i pi delta d / N) H[delta, d]. The
    path it replaced built G of phi through an index table, applied each
    leg, then ifft_N and the band columns, here taken into the frame whole.
    The two agree within eps (1 + log2 N + (legs + 1) t E_max) times the
    largest |G| on each row, t the legs' sum: each path rounds the phase
    t E(k), up to t E_max radians, once per leg or once in all, to eps of
    its size; each product of amplitudes and phases, the frame's phases
    too, rounds by a few eps, and ifft_N by up to log2 N eps of the row.
    Seen: at most 0.28 of the bound on G, 0.09 on the band (0.03 before
    the frame's phases), over 300 random cases."""
    state, measurement, legs = case
    n = state.n_sites
    rows = range(n // 2 + 1)
    phi = np.fft.fft(state.amplitudes)
    behind = (np.arange(n)[None, :] - np.asarray(rows)[:, None]) % n
    g = phi.conj()[behind] * (phi / n)
    for t in legs:
        leg_by_index(g, rows, t)
    bound = np.finfo(float).eps * np.abs(g).max(axis=1)[:, None]
    bound *= 1 + math.log2(n) + (len(legs) + 1) * sum(legs) * dispersion_table(n).max()
    plan = ChannelPlan(measurement)
    engine = Propagator(state, plan)
    if plan.width < n:
        got, keep, width = engine._pure_band(sum(legs)), plan.band, plan.width
        want, h = np.zeros_like(got), np.fft.ifft(g, axis=1)
        want[:, :keep], want[:, width - keep + 1 :] = h[:, :keep], h[:, n - keep + 1 :]
        columns, lags = np.r_[0:keep, width - keep + 1 : width], np.r_[0:keep, 1 - keep : 0]
        want[:, columns] *= frame_phases(rows, lags, n, -1)
    else:
        got, want = engine._pure_rows(sum(legs)), g
    assert np.all(np.abs(got - want) <= bound)


@settings(max_examples=40, deadline=None)
@given(pure_stage_cases())
def test_pure_stage_records_match_the_g_path(case):
    """Until its first measurement an engine records off phi: p(k) is
    |phi|^2 / N, built as G's row 0 is, p(n) the inverse FFT of the row
    sums fft_N(|psi(t)|^2), and the purity its row norms, correlated
    directly. An engine that holds G of phi built at t = 0 and steps it
    through the same legs, as an unmeasured run did before the pure stage,
    records p(k) and its three moments bit for bit the same. p(n), the
    region masses and the purity agree within the bound of
    test_first_measurement_builds_what_the_legs_built, eps (1 + log2 N +
    (legs + 1) t E_max), times the scale of each: every row of G has
    ||G[delta]||_1 <= Tr rho = 1 (Cauchy-Schwarz on conj phi(k - delta)
    phi(k) / N), so each path's rounding, of the phases t E(k), of the
    products and of the transforms, moves a row sum s[delta] by at most
    that bound, and p(n) = (1/N) sum_delta s[delta] exp(2 pi i delta n / N)
    by at most it too: scale 1. A region R's mass is sum_delta s[delta]
    c[delta] with sum_delta |c[delta]|^2 = |R| / N, so by Cauchy-Schwarz
    it moves by at most sqrt(|R|) times the bound. The purity sums |G|^2,
    each moved by at most twice G's relative rounding: scale 2 Tr rho^2.
    Seen: at most 0.04, 0.03 and 0.06 of these over 300 random cases."""
    state, measurement, legs = case
    n = state.n_sites
    partition = measurement if isinstance(measurement, RegionPartition) else None
    pure, stepped = Propagator(state), Propagator(state)
    stepped._g = stepped._pure_rows(0.0)  # G of phi, at t = 0
    for t in legs:
        stepped._leg(t)
    records = []
    for engine in (pure, stepped):
        assert (engine._g is None) == (engine is pure)
        t = sum(legs) if engine is pure else 0.0
        records.append(harness._snapshot(snapshot(engine, n, t), 0, LatticeConfig(n), 0.0, partition))
    got, want = records
    np.testing.assert_array_equal(got.momentum_dist.view(np.uint64), want.momentum_dist.view(np.uint64))
    for field in ("expected_momentum_signed", "momentum_variance", "negative_momentum_fraction"):
        assert getattr(got, field) == getattr(want, field)
    bound = np.finfo(float).eps * (1 + math.log2(n) + (len(legs) + 1) * sum(legs) * dispersion_table(n).max())
    assert np.max(np.abs(got.position_dist - want.position_dist)) <= bound
    if partition is not None:
        sizes = np.diff(partition.boundaries + (n,))
        assert np.all(np.abs(got.region_masses - want.region_masses) <= bound * np.sqrt(sizes))
    assert abs(got.purity - want.purity) <= 2 * bound * want.purity


@pytest.mark.parametrize(
    "measurement",
    [make_regions(256, 6), make_regions(256, 16), pointer_kernel(PointerSpec(1.0, DistanceConvention.LINEAR), 256)],
    ids=["pvm6", "pvm16", "linear1"],
)
def test_narrowed_window_buffer_lies_in_the_band_padding(measurement):
    """A narrowed engine with a window holds its band d-major, a (W, N/2 + 1)
    array, and no (N, c) or (rows, N) array: its window step's (c, N)
    buffer is a view of the band's zero padding, rows L..W - L, which is
    exactly 0 after every measure, through legs of two lengths and records
    on and off the grid. Stepped as run_blocks steps it, its first
    measure, which narrows, allocates at most the band and 16 KiB: 14.4
    KiB beside the band at N = 256 (11.8 to 12.8 before the 5N/2 table of
    the symmetric frame), for G's rows are built in the band's padding and
    K waits for the second leg (one chunk of CHUNK_ENTRIES entries, 64 KiB,
    when they were built apart from it)."""
    n, t = 256, 0.001
    plan = ChannelPlan(measurement)
    keep, width, c, half = plan.band, plan.width, plan.window, n // 2 + 1
    assert width < n and c > 0
    engine = Propagator(build_initial_state(GaussianPacketSpec(8, 8.0, 31), n), plan)
    first = in_one_row_buffer(n, lambda: allocated_beyond(lambda: engine.measure(t)))
    assert first <= width * half * 16 + 16 * 1024
    band = engine._g.T
    assert band.shape == (width, half) and band.flags.c_contiguous
    for leg, record_at in ((t, 0.0), (t, 0.5), (0.7 * t, 0.25), (t, 0.0)):
        engine.record(Snapshots(1, n), 0, record_at * leg)
        engine.measure(leg)
        assert engine._g.T.ctypes.data == band.ctypes.data
        assert engine._buffer.shape == (c, n) and np.shares_memory(engine._buffer, band)
        assert np.all(band[keep : width - keep + 1] == 0.0)
        shapes = {v.shape for v in engine_arrays(engine).values()}
        assert (n, c) not in shapes and (half, n) not in shapes


@pytest.mark.parametrize(
    "measurement",
    [make_regions(256, 6), make_regions(256, 16), pointer_kernel(PointerSpec(1.0, DistanceConvention.LINEAR), 256)],
    ids=["pvm6", "pvm16", "linear1"],
)
def test_band_padding_is_zero_after_each_scratch(measurement):
    """Every N-wide scratch of a narrowed engine lies in its band's zero
    padding, and the padding is exactly 0 again once it is given back:
    after narrowing, after the new K of each leg of a new length (before
    the leg is applied), after a record on the grid (p(k)'s row) and after
    one off it (G rebuilt a chunk at a time). A measure whose leg keeps
    its length takes no scratch."""
    n, t = 256, 0.001
    engine = Propagator(build_initial_state(GaussianPacketSpec(8, 8.0, 31), n), ChannelPlan(measurement))
    log, spy = spy_scratch()
    steps = [
        (lambda: engine.measure(t), 1),  # narrows
        (lambda: engine.measure(t), 1),  # the K of t
        (lambda: engine.measure(t), 0),  # keeps it
        (lambda: engine.record(Snapshots(1, n), 0, 0.0), 1),  # on the grid
        (lambda: engine.record(Snapshots(1, n), 0, 0.5 * t), 1),  # off it
        (lambda: engine.measure(0.7 * t), 1),  # the K of 0.7 t
    ]
    with spy:
        for step, scratches in steps:
            before = len(log)
            in_one_row_buffer(n, step)
            assert log[before:] == [(True, True)] * scratches
    assert engine._narrowed and engine._table_t == pytest.approx(0.7 * t)


@st.composite
def row_local_runs(draw):
    """A state, a measurement whose plan does not couple rows, and legs:
    Gaussian packets of random width and momentum or random vectors; a
    minimal-image pointer, a compact autocorrelation kernel, a per-site PVM
    or none; legs of one interval or a random part of one."""
    n = draw(st.sampled_from([16, 64, 256]))
    if draw(st.booleans()):
        spec = GaussianPacketSpec(
            draw(st.integers(0, n - 1)),
            draw(st.floats(0.5, n / 2)),
            draw(st.integers(-n // 2 + 1, n // 2)),
        )
        state = build_gaussian_packet(spec, n)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        amplitudes = rng.normal(size=n) + 1j * rng.normal(size=n)
        state = StateVector(amplitudes / np.linalg.norm(amplitudes))
    kind = draw(st.sampled_from(["pointer", "custom", "sites", "none"]))
    if kind == "pointer":
        # narrower than about 1/32 of the ring, so the kernel is PSD
        measurement = pointer_kernel(PointerSpec(draw(st.floats(32.0 / n, 3.0))), n)
    elif kind == "custom":
        profile = draw(st.lists(st.integers(0, 9), min_size=1, max_size=8).filter(any))
        measurement = DampingKernel(np.array(autocorrelation_kernel(profile + [0] * (n - len(profile)))))
    elif kind == "sites":
        measurement = make_regions(n, n)
    else:
        measurement = None
    interval = draw(st.floats(0.0005, 0.005))
    parts = draw(st.lists(st.sampled_from([1.0, 0.3, 0.55]), min_size=1, max_size=8))
    return state, measurement, [interval * part for part in parts]


@settings(max_examples=40, deadline=None)
@given(row_local_runs())
def test_row_l1_norms_never_grow_in_a_row_local_run(case):
    """The invariant the row cut rests on: a free leg multiplies each chord
    row by unit-modulus phases, and a minimal-image kernel or per-site PVM
    step convolves it along k with w = DFT(values) / N, so no step moves
    weight between rows, and each row's l1 norm stays within its initial
    one times rho^m, rho = sum |w|, after m measurements."""
    state, measurement, legs = case
    plan = plan_of(measurement)
    assert plan is None or not plan.couples
    n = state.n_sites
    rho = 1.0
    if isinstance(measurement, DampingKernel):
        rho = float(np.abs(np.fft.fft(measurement.values)).sum()) / n
    engine = Propagator(state, plan)
    first = row_l1(engine)
    applied, elapsed = 0, 0.0
    for leg in legs:
        elapsed += leg  # an unmeasured engine's legs all run from t = 0
        assert np.all(row_l1(engine, elapsed) <= first * rho**applied * (1 + 1e-12))
        if plan is not None:
            engine.measure(leg)
            applied, elapsed = applied + 1, 0.0
            assert np.all(row_l1(engine) <= first * rho**applied * (1 + 1e-12))


def assert_cut_matches_all_rows(scenario):
    """run_schedule's records against the same operations stepped on one
    Propagator of all rows: p(k), purity and the momentum scalars are equal
    bit for bit, and no p(n) entry moves by more than the run's certificate
    C (plus 1e-17 of round-off), nor by more than 1e-15. C is row_cut's C0
    plus every row a block dropped, at most 2**-52. Returns the number of
    rows the cut keeps and the number the blocks hold at the end."""
    records, (state, plan, ops), certificate, blocks = captured_run(scenario)
    kept, cut = cut_of(state, plan, measurements_in(ops))
    half = state.n_sites // 2 + 1
    assert cut <= certificate <= 2.0**-52
    if plan is not None and plan.couples:
        assert (kept, certificate) == (half, 0.0)
    whole, _ = replay(state, plan, ops, len(records), [(range(half), None)])
    operator = scenario.operator
    partition = operator if isinstance(operator, RegionPartition) else None
    for j, rec in enumerate(records):
        want = harness._snapshot(whole, j, scenario.lattice, rec.time_display, partition)
        np.testing.assert_array_equal(rec.momentum_dist, want.momentum_dist)
        assert rec.purity == want.purity
        assert rec.expected_momentum_signed == want.expected_momentum_signed
        assert rec.momentum_variance == want.momentum_variance
        assert rec.negative_momentum_fraction == want.negative_momentum_fraction
        moved = float(np.max(np.abs(rec.position_dist - want.position_dist)))
        assert moved <= certificate + 1e-17
        assert moved <= 1e-15
    return kept, sum(len(engine._rows) for engine, _, _ in blocks)


@pytest.mark.parametrize(
    "name, kept, final",
    [
        # ids name the rows the cut keeps; final is what the blocks hold at the end
        pytest.param(name, kept, final, id=f"{name}-{kept}")
        for name, kept, final in [
            ("pointer_n1024", 80, 2),
            ("pointer_stationary", 82, 8),
            ("free_packet", 129, 129),  # unmeasured: one pure engine of all rows
            ("pvm_eigenstate", 129, 129),  # couples rows
            ("pvm_packet", 129, 129),  # couples rows
        ]
    ],
)
def test_row_cut_moves_only_position_entries_within_its_certificate(name, kept, final):
    assert assert_cut_matches_all_rows(named_scenario(name)) == (kept, final)


@pytest.mark.parametrize(
    "derive",
    [
        lambda s: replace(s, schedule=replace(s.schedule, measurement_interval=None)),
        lambda s: replace(s, measurement=RegionPvmSpec(1)),
        lambda s: replace(s, measurement=CustomKernelSpec((1.0,) * 256)),
        lambda s: replace(s, measurement=CustomKernelSpec((1.0,) * 256, DistanceConvention.LINEAR)),
        lambda s: with_interval(s, 500.0),
        lambda s: replace(s, schedule=replace(s.schedule, record_times=(0.0, 5.0))),
    ],
    ids=[
        "no_interval",
        "pvm1",
        "ones_minimal_image",
        "ones_linear",
        "interval_past_the_last_record",
        "records_before_the_first_measurement",
    ],
)
def test_runs_without_a_channel_are_the_unmeasured_run(derive, tmp_path):
    """pointer_stationary with no measurement interval, measured by an
    identity channel (a 1-region PVM, an all-ones kernel under either
    distance convention), or with a schedule that applies no measurement
    (the first falls after the last record) is the unmeasured run: one
    Propagator of rows 0..128 with no plan, no share and C = 0. It writes
    the CSVs of its twin with the same record times and no interval,
    with_interval(derived, None), byte for byte, the 1-region PVM's
    region_mass_0 column included."""
    derived = derive(named_scenario("pointer_stationary"))
    _, (_, plan, ops), certificate, blocks = captured_run(derived)
    assert plan is None and measurements_in(ops) == 0 and certificate == 0.0
    assert [(rows, share) for _, rows, share in blocks] == [(range(129), None)]
    _, want = run_and_emit(with_interval(derived, None), tmp_path / "unmeasured")
    _, got = run_and_emit(derived, tmp_path / "derived")
    for got_path, want_path in zip(got, want):
        assert got_path.read_bytes() == want_path.read_bytes()


@pytest.mark.parametrize(
    "measurement",
    [CustomKernelSpec(autocorrelation_kernel([3, 5, 2] + [0] * 253)), RegionPvmSpec(256)],
    ids=["compact_kernel", "per_site_pvm"],
)
def test_a_narrowed_block_drops_rows_within_the_certificate(measurement):
    """A narrowed engine holds H, not G, and charges each row it drops
    N sum_d |H[delta, d]|, at least ||G[delta]||_1. Over 30 measurements it
    drops rows mid-run, and its records stay within the run's C of all
    rows."""
    scenario = Scenario(
        lattice=LatticeConfig(256),
        state=GaussianPacketSpec(100, 8.0, 20),
        measurement=measurement,
        schedule=Schedule(2.0, 60.0, (0.0, 30.0, 60.0)),
    )
    drops, spy = spy_drops()
    with spy:
        kept, final = assert_cut_matches_all_rows(scenario)
    assert final < kept
    assert any(to_come > 0 and narrowed for _, _, to_come, narrowed in drops)


def test_a_block_charges_each_dropped_row_its_l1_norm_with_its_mirror():
    """After each measurement a block drops the longest suffix of its rows
    that fits in what is left of its share, each row charged its l1 norm,
    twice for a row with a mirror, times rho^(measurements still to come)
    / N: checked against an engine of all rows stepped alongside, on the
    rows 16..32 of a ring of 64, whose last row N/2 has no mirror."""
    n, share, measurements, lo = 64, 2.0**-54, 12, 16
    state = build_gaussian_packet(GaussianPacketSpec(32, 5.0, 0), n)
    plan = ChannelPlan(pointer_kernel(PointerSpec(1.0), n))
    block = Propagator(state, plan, range(lo, n // 2 + 1), share, measurements)
    whole = Propagator(state, plan)
    drops = 0
    for to_come in range(measurements - 1, -1, -1):
        prior, kept = block.spent, len(block._rows)
        for engine in (block, whole):
            engine.measure(0.05)
        dropped = kept - len(block._rows)
        drops += dropped > 0
        np.testing.assert_array_equal(block._g, whole._g[lo : lo + len(block._rows)])
        charge = plan.growth**to_come / n * np.abs(whole._g[lo : lo + kept]).sum(axis=1)
        charge[lo + np.arange(kept) < n // 2] *= 2.0
        top = np.append(0.0, np.cumsum(charge[::-1]))  # top[j]: the charge of the top j rows
        assert block.spent == pytest.approx(prior + top[dropped], rel=1e-12, abs=0.0)
        if dropped < kept:
            assert prior + top[dropped + 1] > share
    assert drops > 1 and len(block._rows) < n // 2 + 1 - lo


@pytest.mark.parametrize(
    "state, measurement, rows, leg",
    [
        (
            build_initial_state(GaussianPacketSpec(512, 32.0, 0), 1024),
            pointer_kernel(PointerSpec(0.05), 1024),
            range(26),
            0.01,
        ),
        (
            build_initial_state(GaussianPacketSpec(100, 8.0, 20), 256),
            DampingKernel(np.array(autocorrelation_kernel([3, 5, 2] + [0] * 253))),
            range(103),
            0.05,
        ),
    ],
    ids=["pointer_n1024_block0", "compact_kernel_block"],
)
def test_a_block_steps_its_kept_rows_as_a_prefix_view(state, measurement, rows, leg):
    """A block drops rows through a view of the first rows of the one G
    (once narrowed, band) and K arrays it built, which it never copies or
    resizes: after every measurement from the second on each is that
    array or a prefix view of it, and that array keeps its first shape,
    (W, rows) for a narrowed engine's d-major band. The first measurement
    builds G or the band, the second leg the table. Block 0 of the
    pointer_n1024 workload and a narrowed compact-kernel block, on legs of
    one length, each end on fewer than a quarter of their rows."""
    engine = Propagator(state, ChannelPlan(measurement), rows, 2.0**-54, 40)
    built = None
    for j in range(40):
        engine.measure(leg)
        if j == 0:  # the first measurement builds G or the band; the second leg its table
            assert engine._table is None
            continue
        arrays = (engine._g, engine._table)
        owners = [a if a.base is None else a.base for a in arrays]
        if built is None:
            built = [(owner, owner.shape) for owner in owners]
        for a, owner, (first, shape) in zip(arrays, owners, built):
            assert owner is first and owner.shape == shape
            assert a.ctypes.data == first.ctypes.data  # a view of its first rows
        assert len(engine._g) == len(engine._rows)
    n = state.n_sites
    width = engine._plan.width
    assert built[0][1] == ((width, len(rows)) if engine._narrowed else (len(rows), n))
    assert 4 * len(engine._rows) < len(rows)


def test_run_blocks_builds_no_more_blocks_than_rows(monkeypatch):
    """Past N = BLOCK_ENTRIES a single row fills a block: with
    BLOCK_ENTRIES at 64, a quarter of a row at N = 256, the 82 rows that
    pointer_stationary's cut keeps go to 82 one-row block engines, none
    empty, and its records still match all rows within C."""
    monkeypatch.setattr(propagator, "BLOCK_ENTRIES", 64)
    scenario = named_scenario("pointer_stationary")
    _, _, _, blocks = captured_run(scenario)
    assert [len(rows) for _, rows, _ in blocks] == [1] * 82
    assert assert_cut_matches_all_rows(scenario)[0] == 82


@pytest.mark.parametrize("name", ["free_packet", "pvm_packet"])
def test_unmeasured_and_coupled_runs_stay_one_block(name, monkeypatch):
    """BLOCK_ENTRIES splits only row-local runs: an unmeasured run, which
    stays pure, and a PVM, whose plan couples rows, each build one engine
    of all 129 rows even with BLOCK_ENTRIES at 64, a quarter of a row."""
    monkeypatch.setattr(propagator, "BLOCK_ENTRIES", 64)
    _, _, _, blocks = captured_run(named_scenario(name))
    assert [rows for _, rows, _ in blocks] == [range(129)]


def test_pointer_n1024_steps_five_blocks_that_tile_its_rows():
    """At the shipped BLOCK_ENTRIES = 2**14, a G of 256 KiB, the 80 rows that
    the pointer_n1024 workload's cut keeps go to 5 block engines of 16
    rows, one after the other, whose rows tile 0..79. Each block builds
    phi(t)'s phases once, for the first measurement, and none for its
    record at t = 0, which reads psi(0) off phi as it is."""
    with mock.patch.object(propagator, "_pure_phases", wraps=propagator._pure_phases) as built:
        _, _, _, blocks = captured_run(named_scenario("pointer_n1024"))
    assert [rows for _, rows, _ in blocks] == [range(lo, lo + 16) for lo in range(0, 80, 16)]
    assert [call.args[1] for call in built.call_args_list] == [0.01] * 5


@settings(max_examples=15, deadline=None)
@given(blocked_scenarios(["pointer", "custom", "sites", "regions", "none"]))
def test_row_cut_matches_all_rows_on_random_runs(scenario):
    assert_cut_matches_all_rows(scenario)


@pytest.mark.parametrize(
    "measurement",
    [make_regions(256, 2), make_regions(256, 6), pointer_kernel(PointerSpec(0.2, DistanceConvention.LINEAR), 256)],
    ids=["pvm2", "pvm6", "linear0.2"],
)
def test_a_plan_that_couples_rows_keeps_them_all(measurement):
    """A state whose rows a plan that does not couple them cuts to 82
    keeps all N/2 + 1 under a channel whose transform along delta couples
    them."""
    state = build_initial_state(GaussianPacketSpec(128, 8.0, 0), 256)  # pointer_stationary's
    assert row_cut(state, ChannelPlan(pointer_kernel(PointerSpec(0.2), 256)), 0)[0] == 82
    assert row_cut(state, ChannelPlan(measurement), 40) == (129, 0.0)
    with pytest.raises(ValueError, match="couples rows"):
        Propagator(state, ChannelPlan(measurement), None, 2.0**-53, 40)  # nor re-cuts


@settings(max_examples=20, deadline=None)
@given(blocked_scenarios(["pointer", "custom"]))
def test_pointer_momentum_matches_closed_form(scenario):
    """A minimal-image kernel is a mixture of momentum boosts with weights
    w = DFT(values) / N, and free legs leave p(k) alone, so after m
    applications p(k) is p0 circularly convolved m times with w, whatever
    the legs between them."""
    n = scenario.lattice.n_sites
    measurement = scenario.measurement
    if isinstance(measurement, PointerSpec):
        values = pointer_kernel(measurement, n).values
    else:
        values = np.asarray(measurement.values)
    w = np.fft.fft(values).real / n
    sites = np.arange(n)
    boost = w[(sites[:, None] - sites[None, :]) % n]  # boost[k, q] = w(k - q)
    p = np.abs(np.fft.fft(build_initial_state(scenario.state, n).amplitudes)) ** 2 / n
    interval = scenario.schedule.measurement_interval
    applied = 0
    for rec in run_schedule(scenario):
        for _ in range(int(rec.time_display / interval + 1e-9) - applied):
            p = boost @ p
            applied += 1
        np.testing.assert_allclose(rec.momentum_dist, p, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "n, alpha, applications",
    [(256, 0.2, 12), (256, 0.5, 3), (1024, 0.05, 40)],
    ids=["pointer_stationary", "a7_alpha0.5", "pointer_n1024"],
)
def test_pointer_raises_momentum_variance_by_var_w(n, alpha, applications):
    """A7's premise: a pointer application is a mixture of momentum boosts
    q with weights w = DFT(values) / N, drawn independently of p(k), so it
    raises the momentum variance by exactly Var(w) on the line. On the ring
    a pair (k, q) whose signed sum leaves (-N/2, N/2] wraps by N, which
    moves the variance by at most N^2 times the wrapped mass; with none, as
    at N = 1024, the increment is Var(w) to round-off."""
    scenario = Scenario(
        lattice=LatticeConfig(n),
        state=GaussianPacketSpec(n // 2, n / 32, 0),
        measurement=PointerSpec(alpha),
        schedule=Schedule(10.0, 10.0 * applications, tuple(10.0 * j for j in range(applications + 1))),
    )
    w = np.fft.fft(pointer_kernel(PointerSpec(alpha), n).values).real / n
    signed = signed_momentum_values(n).astype(float)
    var_w = w @ signed**2 - (w @ signed) ** 2
    total = signed[:, None] + signed[None, :]
    wraps = (total <= -n / 2) | (total > n / 2)
    records = run_schedule(scenario)
    for before, after in zip(records, records[1:]):
        wrapped = (np.abs(before.momentum_dist)[:, None] * w)[wraps].sum()
        increment = after.momentum_variance - before.momentum_variance
        assert abs(increment - var_w) <= 1e-10 * var_w + n**2 * wrapped
    if n == 1024:
        assert wrapped < 1e-15  # round-off in p(k) only
        assert records[-1].momentum_variance > 40 * var_w


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

    def test_distribution_lengths_must_agree(self, tmp_path):
        """The row templates are built from the first record, so a record
        whose p(n) or p(k) has another length is refused, before anything
        is written."""
        records = self.tiny_records()
        for field in ("position_dist", "momentum_dist"):
            short = replace(records[1], **{field: getattr(records[1], field)[:-1]})
            target = tmp_path / field
            with pytest.raises(ValueError, match=f"disagree on the length of {field}"):
                emit_csv([records[0], short], target)
            assert not target.exists()

    @staticmethod
    def per_line_csv(records):
        """positions.csv and momenta.csv written one f-string per line, as
        emit_csv wrote them before its row templates: their oracle."""
        positions, momenta = ["time_display,n,p_x\n"], ["time_display,k,signed_k,p_k\n"]
        for rec in records:
            t = format(float(rec.time_display), ".17g")
            signed = signed_momentum_values(rec.momentum_dist.size).tolist()
            for n, p in enumerate(rec.position_dist.tolist()):
                positions.append(f"{t},{n},{max(p, 0.0):.17g}\n")
            for k, p in enumerate(rec.momentum_dist.tolist()):
                momenta.append(f"{t},{k},{signed[k]},{max(p, 0.0):.17g}\n")
        return "".join(positions), "".join(momenta)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_row_templates_write_what_per_line_formatting_writes(self, data):
        tiny = 2.2250738585072014e-308  # the smallest normal float
        value = st.one_of(
            st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, -1e-13, 1e-300, 5e-324]),
            st.floats(-tiny, tiny),  # subnormals
            st.floats(1.0, allow_infinity=False),
            st.floats(),
        )
        n = data.draw(st.integers(1, 12))
        records = [
            ObservableRecord(
                time_natural=t,
                time_display=t,
                position_dist=np.array(data.draw(st.lists(value, min_size=n, max_size=n))),
                momentum_dist=np.array(data.draw(st.lists(value, min_size=n, max_size=n))),
                purity=1.0,
                expected_momentum_signed=0.0,
                momentum_variance=0.0,
                region_masses=np.empty(0),
                negative_momentum_fraction=0.0,
            )
            for t in data.draw(st.lists(st.integers(0, 10**6).map(lambda i: i / 1000), min_size=1, max_size=4))
        ]
        with tempfile.TemporaryDirectory() as out:
            positions, momenta, _ = emit_csv(records, out)
            assert (positions.read_text(), momenta.read_text()) == self.per_line_csv(records)

    def test_negative_roundoff_clamped_only_in_csv(self, tmp_path):
        records = self.tiny_records()
        records[0].position_dist[3] = -1e-17
        positions, _, _ = emit_csv(records, tmp_path / "run")
        row = positions.read_text().splitlines()[1 + 3]
        assert row.split(",")[2] == "0"
        assert records[0].position_dist[3] == -1e-17

    def test_clamp_writes_what_max_with_zero_writes(self, tmp_path):
        """-1e-13 becomes 0 and -0.0 stays -0, as max(p, 0.0) leaves them,
        in both distributions."""
        records = self.tiny_records()
        for dist in (records[1].position_dist, records[1].momentum_dist):
            dist[2], dist[5] = -0.0, -1e-13
        positions, momenta, _ = emit_csv(records, tmp_path / "run")
        for path, column in ((positions, 2), (momenta, 3)):
            rows = path.read_text().splitlines()[1 + 8 :]
            assert [rows[k].split(",")[column] for k in (2, 5)] == [
                format(max(-0.0, 0.0), ".17g"),
                format(max(-1e-13, 0.0), ".17g"),
            ] == ["-0", "0"]

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

"""Batch runner: alternate exact evolution with measurement, record, emit CSV."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .channels import PointerSpec, RegionPartition, kernel_channel, pvm_channel
from .lattice import DensityMatrix, LatticeConfig
from .observables import (
    ObservableRecord,
    expected_momentum,
    momentum_variance,
    negative_momentum_fraction,
    region_masses,
    signed_momentum_values,
)
from .propagator import ChannelPlan, Propagator, Snapshots, run_blocks
from .scenario import CustomKernelSpec, MeasurementSpec, Scenario, ScenarioError, measurement_operator
from .states import GaussianPacketSpec, PositionEigenstateSpec

# The layers run_schedule no longer calls stay bound here, the position-basis
# ones and the state builder that Scenario calls:
# bench/execution.py wraps each layer where this module sees it.
from .lattice import density_to_momentum, density_to_position, evolve_density  # noqa: F401
from .observables import position_distribution, purity  # noqa: F401
from .states import build_initial_state, density_from_pure  # noqa: F401

__all__ = [
    "ConvergenceReport",
    "build_channel",
    "emit_csv",
    "grid_doubling_check",
    "run_and_emit",
    "run_schedule",
]

Channel = Callable[[DensityMatrix], DensityMatrix]


def build_channel(
    measurement: MeasurementSpec, n_sites: int
) -> tuple[Channel | None, RegionPartition | None]:
    """Turn a measurement spec into a position-basis channel callable.

    Returns (channel, partition); channel is None for an unmeasured run and
    partition is None unless the measurement is a region PVM.
    """
    operator = measurement_operator(measurement, n_sites)
    if operator is None:
        return None, None
    if isinstance(operator, RegionPartition):
        return (lambda rho: pvm_channel(rho, operator)), operator
    return (lambda rho: kernel_channel(rho, operator)), None


def _snapshot(
    snapshots: Snapshots,
    j: int,
    lattice: LatticeConfig,
    display_time: float,
    partition: RegionPartition | None,
) -> ObservableRecord:
    pos = snapshots.position_distribution(j)
    mom = snapshots.momentum_distribution(j)
    for name, dist in (("position", pos), ("momentum", mom)):
        total = float(dist.sum())
        if not abs(total - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError(f"{name} distribution sums to {total!r} at t={display_time}")
        if not float(dist.min()) >= -1e-12:
            raise ValueError(f"{name} distribution has entry {dist.min():.3e} at t={display_time}")
    masses = region_masses(pos, partition) if partition is not None else np.empty(0)
    return ObservableRecord(
        time_natural=lattice.to_natural_time(display_time),
        time_display=float(display_time),
        position_dist=pos,
        momentum_dist=mom,
        purity=snapshots.purity(j),
        expected_momentum_signed=expected_momentum(mom),
        momentum_variance=momentum_variance(mom),
        region_masses=masses,
        negative_momentum_fraction=negative_momentum_fraction(mom),
    )


class _Operations:
    """A schedule's operations on a Propagator, generated afresh on each
    pass: a run holds one operation at a time, not one per measurement.

    Measurements fall at interval, 2*interval, ... up to the last record
    time, to within the snap of 1e-9 interval that is kept here alone: none
    after it could change a record. Nothing is applied at time zero, and
    nothing at all when interval is None or the first measurement falls
    after the last record; run_schedule then runs these operations with
    interval None, as the unmeasured run. Each measurement is
    (Propagator.measure, step), its leg one whole interval, the same float
    every time, so the engine keeps its phases. Record times may fall
    anywhere (evolution is exact for arbitrary sub-interval durations); each
    is (Propagator.record, snapshots, j, elapsed), for elapsed the natural
    time since the last measurement, or since time zero, and a record writes
    nothing to the state. When a record time coincides with a measurement
    time the measurement is applied first. Every pass yields the same
    operations, bit for bit.
    """

    def __init__(self, scenario: Scenario, interval: float | None, snapshots: Snapshots) -> None:
        self._lattice = scenario.lattice
        self._record_times = scenario.schedule.record_times
        self._interval = interval
        self._snapshots = snapshots

    def __iter__(self):
        lattice, interval = self._lattice, self._interval
        step = lattice.to_natural_time(interval) if interval is not None else None
        snap = 1e-9 * (interval if interval is not None else 1.0)
        applied = 0
        for j, target in enumerate(self._record_times):
            # Every record time lies in [0, total_time], so no measurement
            # past total_time is due either.
            while interval is not None and (applied + 1) * interval <= target + snap:
                yield Propagator.measure, step
                applied += 1
            elapsed = target - applied * interval if applied else target
            t = lattice.to_natural_time(elapsed) if elapsed > snap else 0.0
            yield Propagator.record, self._snapshots, j, t


def run_schedule(scenario: Scenario) -> list[ObservableRecord]:
    """Run one scenario and return a record per scheduled record time.

    Here alone the run decides whether it measures: only when its
    operations apply at least one measurement and the scenario's operator,
    compiled here into the run's one ChannelPlan, is not the identity.
    Otherwise it is the unmeasured run, bit for bit: no plan, and the
    operations of no measurement interval, so a schedule with no interval,
    one whose first measurement falls after its last record and an identity
    channel all take one path. The schedule becomes operations on a
    Propagator (_Operations): one measure per measurement, its leg one
    whole interval, and one record, which reads the state and leaves it be,
    per record time. run_blocks takes each block of rows through them,
    generated afresh for each block; the records are read off the combined
    snapshots afterwards, a region PVM's region masses on its partition
    whether the run measured or not.
    """
    lattice, operator = scenario.lattice, scenario.operator
    record_times = scenario.schedule.record_times
    snapshots = Snapshots(len(record_times), lattice.n_sites)
    ops = _Operations(scenario, scenario.schedule.measurement_interval, snapshots)
    measures = operator is not None and any(op[0] is Propagator.measure for op in ops)
    plan = ChannelPlan(operator) if measures else None
    if plan is None or plan.identity:
        plan, ops = None, _Operations(scenario, None, snapshots)
    run_blocks(scenario.initial_state, plan, ops)

    partition = operator if isinstance(operator, RegionPartition) else None
    return [
        _snapshot(snapshots, j, lattice, target, partition)
        for j, target in enumerate(record_times)
    ]


@dataclass
class ConvergenceReport:
    """Coarse-versus-doubled-grid agreement at each record time."""

    n_sites: int
    record_times_display: tuple[float, ...]
    position_max_diff: tuple[float, ...]
    momentum_max_diff: tuple[float, ...]

    @property
    def worst_position_diff(self) -> float:
        return max(self.position_max_diff)

    @property
    def worst_momentum_diff(self) -> float:
        return max(self.momentum_max_diff)

    def at_time(self, display_time: float) -> tuple[float, float]:
        """(position diff, momentum diff) at one record time."""
        for t, p, m in zip(self.record_times_display, self.position_max_diff, self.momentum_max_diff):
            if t == display_time:
                return p, m
        raise ValueError(f"{display_time} is not a record time of this report")


def _double_scenario(scenario: Scenario) -> Scenario:
    state = scenario.state
    if isinstance(state, PositionEigenstateSpec):
        raise ScenarioError(
            "position eigenstate occupies every momentum; grid doubling cannot "
            "make the two runs comparable"
        )
    assert isinstance(state, GaussianPacketSpec)
    doubled_state = replace(state, center=state.center * 2, width=state.width * 2)
    measurement = scenario.measurement
    if isinstance(measurement, CustomKernelSpec):
        raise ScenarioError("custom kernels have a fixed length and cannot be rescaled")
    if isinstance(measurement, PointerSpec):
        measurement = replace(measurement, alpha=measurement.alpha / 2.0)
    lattice = replace(scenario.lattice, n_sites=scenario.lattice.n_sites * 2)
    return replace(scenario, lattice=lattice, state=doubled_state, measurement=measurement)


def grid_doubling_check(scenario: Scenario) -> ConvergenceReport:
    """Run the scenario and its doubled-grid counterpart and compare records.

    Doubling maps site n to 2n: the packet centre and width double, the
    momentum index stays, a pointer's width in sites doubles (alpha halves)
    and the region count is unchanged. The 2N-point position distribution is
    binned pairwise down to N points; momentum distributions are compared at
    the indices the grids share, |signed k| < N/2.
    """
    coarse = run_schedule(scenario)
    fine = run_schedule(_double_scenario(scenario))
    n = scenario.lattice.n_sites
    signed = signed_momentum_values(n)
    keep = np.abs(signed) < n // 2
    fine_index = signed[keep] % (2 * n)
    position_diffs = []
    momentum_diffs = []
    for rec_coarse, rec_fine in zip(coarse, fine):
        binned = rec_fine.position_dist.reshape(n, 2).sum(axis=1)
        position_diffs.append(float(np.max(np.abs(binned - rec_coarse.position_dist))))
        momentum_diffs.append(
            float(np.max(np.abs(rec_fine.momentum_dist[fine_index] - rec_coarse.momentum_dist[keep])))
        )
    return ConvergenceReport(
        n_sites=n,
        record_times_display=tuple(r.time_display for r in coarse),
        position_max_diff=tuple(position_diffs),
        momentum_max_diff=tuple(momentum_diffs),
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _clamped(dist: np.ndarray) -> list[float]:
    """Entries below 0 as 0.0, as max(p, 0.0) gives them: -0.0 and NaN
    pass through."""
    return np.where(0.0 > dist, 0.0, dist).tolist()


def emit_csv(records: list[ObservableRecord], out_dir: str | Path) -> tuple[Path, Path, Path]:
    """Write positions.csv, momenta.csv and summary.csv under out_dir.

    Output is deterministic: rows ordered by record time then index, values
    formatted with 17 significant digits. Distribution entries that round-off
    pushed slightly negative are clamped to 0 here (and only here).
    """
    if not records:
        raise ValueError("no records to write")
    first = records[0]
    for field in ("region_masses", "position_dist", "momentum_dist"):
        if any(getattr(r, field).size != getattr(first, field).size for r in records):
            raise ValueError(f"records disagree on the length of {field}")
    region_count = first.region_masses.size

    # One %-template per file: a record is one format call over
    # (t, p0, t, p1, ...). %.17g formats a float as format(p, ".17g") does.
    position_row = "".join(f"%s,{n},%.17g\n" for n in range(first.position_dist.size))
    signed = signed_momentum_values(first.momentum_dist.size).tolist()
    momentum_row = "".join(f"%s,{k},{signed_k},%.17g\n" for k, signed_k in enumerate(signed))

    out = Path(out_dir)
    positions_path = out / "positions.csv"
    momenta_path = out / "momenta.csv"
    summary_path = out / "summary.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)

        for path, head, template, field in (
            (positions_path, "time_display,n,p_x\n", position_row, "position_dist"),
            (momenta_path, "time_display,k,signed_k,p_k\n", momentum_row, "momentum_dist"),
        ):
            with open(path, "w") as handle:
                handle.write(head)
                for rec in records:
                    clamped = _clamped(getattr(rec, field))
                    values = [_fmt(rec.time_display)] * (2 * len(clamped))
                    values[1::2] = clamped
                    handle.write(template % tuple(values))

        with open(summary_path, "w") as handle:
            head = "time_display,purity,expected_momentum,momentum_variance,negative_momentum_fraction"
            head += "".join(f",region_mass_{i}" for i in range(region_count))
            handle.write(head + "\n")
            for rec in records:
                row = [
                    _fmt(rec.time_display),
                    _fmt(rec.purity),
                    _fmt(rec.expected_momentum_signed),
                    _fmt(rec.momentum_variance),
                    _fmt(rec.negative_momentum_fraction),
                ]
                row.extend(_fmt(m) for m in rec.region_masses)
                handle.write(",".join(row) + "\n")
    except OSError as err:
        raise OSError(f"writing CSV output under {out}: {err}") from err
    return positions_path, momenta_path, summary_path


def run_and_emit(
    scenario: Scenario, out_dir: str | Path | None = None
) -> tuple[list[ObservableRecord], tuple[Path, Path, Path]]:
    """Convenience wrapper: run the schedule and write the CSV files."""
    records = run_schedule(scenario)
    paths = emit_csv(records, out_dir if out_dir is not None else scenario.output_dir)
    return records, paths

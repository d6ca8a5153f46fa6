"""Repeated quantum measurement of a discretized free particle on a ring.

Exact FFT-based density-matrix evolution interleaved with measurement
channels (region projections and Gaussian-pointer damping), plus a scenario
harness that records distributions and writes CSV output.
"""

from .channels import (
    DampingKernel,
    DistanceConvention,
    KernelNotPositiveError,
    PointerSpec,
    RegionPartition,
    kernel_channel,
    make_regions,
    pointer_kernel,
    pvm_channel,
)
from .harness import (
    ConvergenceReport,
    build_channel,
    emit_csv,
    grid_doubling_check,
    run_and_emit,
    run_schedule,
)
from .lattice import (
    Basis,
    BasisError,
    DensityMatrix,
    LatticeConfig,
    StateVector,
    dense_oracle_evolve,
    density_to_momentum,
    density_to_position,
    dispersion_table,
    evolve_density,
)
from .observables import (
    ObservableRecord,
    circular_distance,
    circular_mean,
    circular_variance,
    expected_momentum,
    momentum_distribution,
    momentum_variance,
    negative_momentum_fraction,
    position_distribution,
    purity,
    region_masses,
    signed_momentum_values,
)
from .scenario import (
    CustomKernelSpec,
    NoMeasurement,
    RegionPvmSpec,
    Scenario,
    ScenarioError,
    Schedule,
    load_scenario,
    with_interval,
    with_regions,
)
from .states import (
    GaussianPacketSpec,
    PositionEigenstateSpec,
    build_gaussian_packet,
    build_initial_state,
    build_position_eigenstate,
    density_from_pure,
)

__version__ = "0.1.0"

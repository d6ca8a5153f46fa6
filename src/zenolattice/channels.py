"""Measurement channels: region pinching and symmetric damping kernels.

Both channels act in the position basis and leave the diagonal untouched,
so they preserve the trace exactly. The region PVM zeroes every element
coupling different regions; a damping kernel Schur-multiplies the matrix by
factors depending only on site separation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import Basis, DensityMatrix, _require_basis

__all__ = [
    "DampingKernel",
    "DistanceConvention",
    "KernelNotPositiveError",
    "PointerSpec",
    "RegionPartition",
    "kernel_channel",
    "make_regions",
    "pointer_kernel",
    "pvm_channel",
]

PSD_ATOL = 1e-10


class DistanceConvention(enum.Enum):
    """How site separation is measured when building damping kernels.

    MINIMAL_IMAGE respects the ring topology (distance min(d, N-d), giving a
    circulant damping matrix); LINEAR uses the plain index difference |m-n|.
    They agree wherever the kernel is not negligible once the pointer is
    much narrower than the lattice.
    """

    LINEAR = "linear"
    MINIMAL_IMAGE = "minimal_image"


class KernelNotPositiveError(ValueError):
    """Damping kernel whose Schur matrix is not PSD: an unphysical pointer."""


@dataclass(frozen=True)
class RegionPartition:
    """Contiguous, disjoint regions covering every site, by start index."""

    boundaries: tuple[int, ...]
    n_sites: int
    region_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bounds = tuple(int(b) for b in self.boundaries)
        if not bounds or bounds[0] != 0:
            raise ValueError("first region must start at site 0")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("region boundaries must be strictly increasing")
        if bounds[-1] >= self.n_sites:
            raise ValueError("region start index beyond the lattice")
        object.__setattr__(self, "boundaries", bounds)
        region_of = np.searchsorted(np.asarray(bounds), np.arange(self.n_sites), side="right") - 1
        region_of.flags.writeable = False
        object.__setattr__(self, "region_of", region_of)

    @property
    def n_regions(self) -> int:
        return len(self.boundaries)

    def region_range(self, region_id: int) -> tuple[int, int]:
        """Half-open [start, end) site range of one region."""
        if not 0 <= region_id < self.n_regions:
            raise ValueError(f"region id {region_id} outside [0, {self.n_regions})")
        start = self.boundaries[region_id]
        end = self.boundaries[region_id + 1] if region_id + 1 < self.n_regions else self.n_sites
        return start, end

    def region_containing(self, site: int) -> int:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} outside [0, {self.n_sites})")
        return int(self.region_of[site])


def make_regions(n_sites: int, m_regions: int) -> RegionPartition:
    """Split the lattice into m_regions regions of floor(N/M) sites each.

    When M does not divide N the remainder becomes one extra leftover region
    at the right end, so the partition then has M + 1 regions.
    """
    if m_regions < 1:
        raise ValueError(f"m_regions must be at least 1, got {m_regions}")
    if m_regions > n_sites:
        raise ValueError(f"{m_regions} regions exceed {n_sites} sites")
    size = n_sites // m_regions
    bounds = [i * size for i in range(m_regions)]
    if n_sites % m_regions:
        bounds.append(m_regions * size)
    return RegionPartition(tuple(bounds), n_sites)


def pvm_channel(rho: DensityMatrix, partition: RegionPartition) -> DensityMatrix:
    """Zero every element coupling different regions (a pinching).

    Kept entries are untouched, so the map is exactly trace preserving and
    exactly idempotent.
    """
    _require_basis(rho, Basis.POSITION, "pvm_channel")
    if partition.n_sites != rho.n_sites:
        raise ValueError("partition size does not match the density matrix")
    same = partition.region_of[:, None] == partition.region_of[None, :]
    return DensityMatrix(np.where(same, rho.entries, 0.0), Basis.POSITION)


@dataclass(frozen=True)
class PointerSpec:
    """Gaussian pointer of width 1/alpha coupled to position."""

    alpha: float
    distance_convention: DistanceConvention = DistanceConvention.MINIMAL_IMAGE

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")


@dataclass(frozen=True, eq=False)
class DampingKernel:
    """Off-diagonal damping factors indexed by site separation.

    values[0] must be exactly 1 so the diagonal is untouched, and the
    induced matrix K(m, n) = values[dist(m, n)] must be positive
    semidefinite so the channel is completely positive. Both are checked at
    construction: circulant (minimal-image) kernels through the sign of
    their DFT, linear ones through a one-off eigenvalue computation.
    Kernels compare and hash by identity.
    """

    values: np.ndarray
    distance_convention: DistanceConvention = DistanceConvention.MINIMAL_IMAGE

    def __post_init__(self) -> None:
        # A copy: the caller's array stays writable, and this one is read-only.
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("kernel values must be a vector with one entry per site")
        if values[0] != 1.0:
            raise ValueError("values[0] must be exactly 1")
        # Written so that NaN fails it too.
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("kernel values must lie in [0, 1]")
        n = values.size
        if self.distance_convention is DistanceConvention.MINIMAL_IMAGE:
            mirrored = values[(-np.arange(n)) % n]
            if not np.allclose(values, mirrored, rtol=0.0, atol=1e-12):
                raise ValueError("minimal-image kernel must satisfy values[d] == values[N-d]")
            eigenvalues = np.fft.fft(values).real
            if eigenvalues.min() < -PSD_ATOL * max(1.0, eigenvalues.max()):
                raise KernelNotPositiveError("kernel DFT has negative components")
        else:
            eigenvalues = np.linalg.eigvalsh(_linear_matrix(values))
            if eigenvalues[0] < -PSD_ATOL * max(1.0, eigenvalues[-1]):
                raise KernelNotPositiveError("kernel Toeplitz matrix has negative eigenvalues")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_sites(self) -> int:
        return self.values.size

    def schur_matrix(self) -> np.ndarray:
        """Full N x N damping matrix K(m, n) = values[dist(m, n)], built on
        each call: the kernel holds no N x N array of its own."""
        if self.distance_convention is DistanceConvention.MINIMAL_IMAGE:
            idx = np.arange(self.n_sites)
            return self.values[(idx[:, None] - idx[None, :]) % self.n_sites]
        return _linear_matrix(self.values)


def _linear_matrix(values: np.ndarray) -> np.ndarray:
    idx = np.arange(values.size)
    return values[np.abs(idx[:, None] - idx[None, :])]


def pointer_kernel(spec: PointerSpec, n_sites: int) -> DampingKernel:
    """Damping kernel of a Gaussian pointer: exp(-alpha^2 d^2 / 4).

    For alpha large enough that exp(-alpha^2/4) underflows the damping is
    numerically a sharp per-site position measurement.
    """
    # exp(-alpha^2/4) is already 0.0 for alpha > 55, so capping alpha at 64
    # changes no value and keeps alpha^2 d^2 finite for every finite alpha.
    alpha = min(spec.alpha, 64.0)
    d = np.arange(n_sites, dtype=float)
    if spec.distance_convention is DistanceConvention.MINIMAL_IMAGE:
        d = np.minimum(d, n_sites - d)
    return DampingKernel(np.exp(-(alpha**2) * d**2 / 4.0), spec.distance_convention)


def kernel_channel(rho: DensityMatrix, kernel: DampingKernel) -> DensityMatrix:
    """Schur-multiply: rho(m, n) *= values[dist(m, n)].

    The diagonal is multiplied by exactly 1, so trace preservation is exact;
    PSD and purity monotonicity follow from the kernel's PSD invariant.
    """
    _require_basis(rho, Basis.POSITION, "kernel_channel")
    if kernel.n_sites != rho.n_sites:
        raise ValueError("kernel length does not match the density matrix")
    return DensityMatrix(rho.entries * kernel.schur_matrix(), Basis.POSITION)

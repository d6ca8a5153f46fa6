"""Distributions and scalar summaries recorded during runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import RegionPartition
from .lattice import Basis, DensityMatrix, _require_basis, density_to_momentum

# bench/execution.py wraps the transforms where this module sees them.
from .lattice import density_to_position  # noqa: F401

__all__ = [
    "ObservableRecord",
    "circular_distance",
    "circular_mean",
    "circular_variance",
    "expected_momentum",
    "momentum_distribution",
    "momentum_variance",
    "negative_momentum_fraction",
    "position_distribution",
    "purity",
    "region_masses",
    "signed_momentum_values",
]


@dataclass(eq=False)
class ObservableRecord:
    """One snapshot of everything the simulator reports at a record time;
    records compare and hash by identity."""

    time_natural: float
    time_display: float
    position_dist: np.ndarray
    momentum_dist: np.ndarray
    purity: float
    expected_momentum_signed: float
    momentum_variance: float
    region_masses: np.ndarray
    negative_momentum_fraction: float


def position_distribution(rho: DensityMatrix) -> np.ndarray:
    """Real parts of the diagonal of a position-basis density matrix."""
    _require_basis(rho, Basis.POSITION, "position_distribution")
    diag = np.diagonal(rho.entries)
    worst = float(np.max(np.abs(diag.imag)))
    if not worst <= 1e-12:  # NaN fails too
        raise ValueError(f"diagonal has imaginary parts up to {worst:.3e}")
    return diag.real.copy()


def momentum_distribution(rho: DensityMatrix) -> np.ndarray:
    """Diagonal of the momentum-basis form; position input is transformed."""
    if rho.basis is Basis.POSITION:
        rho = density_to_momentum(rho)
    return np.diagonal(rho.entries).real.copy()


def signed_momentum_values(n_sites: int) -> np.ndarray:
    """Signed momentum of every DFT index k: +k up to N/2, k - N beyond; a
    new array on every call."""
    k = np.arange(n_sites)
    return np.where(k <= n_sites // 2, k, k - n_sites)


def expected_momentum(momentum_dist: np.ndarray) -> float:
    """Mean signed momentum index of a momentum distribution p(k)."""
    return float(signed_momentum_values(momentum_dist.size) @ momentum_dist)


def momentum_variance(momentum_dist: np.ndarray) -> float:
    """Variance of the signed momentum index under p(k)."""
    signed = signed_momentum_values(momentum_dist.size)
    mean = float(signed @ momentum_dist)
    return float(((signed - mean) ** 2) @ momentum_dist)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); basis independent, between 1/N and 1."""
    return float(np.vdot(rho.entries, rho.entries).real)


def negative_momentum_fraction(momentum_dist: np.ndarray) -> float:
    """Probability of a negative signed momentum index under p(k)."""
    return float(momentum_dist[signed_momentum_values(momentum_dist.size) < 0].sum())


def region_masses(position_dist: np.ndarray, partition: RegionPartition) -> np.ndarray:
    """Probability mass inside each region of the partition."""
    if position_dist.size != partition.n_sites:
        raise ValueError("distribution length does not match the partition")
    return np.add.reduceat(position_dist, partition.boundaries)


def circular_mean(position_dist: np.ndarray) -> float:
    """Mean site on the ring from the first trigonometric moment, in [0, N).

    Meaningless for distributions with no circular concentration (the first
    moment vanishes for the uniform distribution).
    """
    n = position_dist.size
    z = np.sum(position_dist * np.exp(2j * np.pi * np.arange(n) / n))
    return float((np.angle(z) * n / (2.0 * np.pi)) % n)


def circular_variance(position_dist: np.ndarray) -> float:
    """Mean squared minimal-image displacement from the circular mean."""
    n = position_dist.size
    mean = circular_mean(position_dist)
    disp = (np.arange(n) - mean + n / 2.0) % n - n / 2.0
    return float(np.sum(position_dist * disp**2))


def circular_distance(a: float, b: float, n_sites: int) -> float:
    """Minimal-image separation of two ring positions."""
    d = (a - b) % n_sites
    return float(min(d, n_sites - d))

"""Initial states: Gaussian wavepackets and position eigenstates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Basis, DensityMatrix, StateVector

__all__ = [
    "GaussianPacketSpec",
    "PositionEigenstateSpec",
    "build_gaussian_packet",
    "build_initial_state",
    "build_position_eigenstate",
    "density_from_pure",
]


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Gaussian envelope exp(-(n - center)^2 / width^2) carrying a plane-wave
    phase exp(2*pi*i*momentum_index*n/N).

    The displacement in the envelope uses the minimal image, so the packet
    respects the ring topology; momentum_index is signed and must lie in
    (-N/2, N/2].
    """

    center: int
    width: float
    momentum_index: int = 0

    def __post_init__(self) -> None:
        # The envelope divides by width^2, which is 0 below about 1e-162 and
        # overflows above about 1e154.
        if not (self.width > 0 and 0 < self.width * self.width < math.inf):
            raise ValueError(f"width must be positive, with a finite square above 0: got {self.width!r}")


@dataclass(frozen=True)
class PositionEigenstateSpec:
    """A single occupied site; site=None means the middle of the lattice."""

    site: int | None = None


def build_gaussian_packet(spec: GaussianPacketSpec, n_sites: int) -> StateVector:
    if not 0 <= spec.center < n_sites:
        raise ValueError(f"center {spec.center} outside [0, {n_sites})")
    half = n_sites // 2
    if not -half < spec.momentum_index <= half:
        raise ValueError(f"momentum_index {spec.momentum_index} outside ({-half}, {half}]")
    n = np.arange(n_sites)
    dist = np.abs(n - spec.center)
    dist = np.minimum(dist, n_sites - dist).astype(float)
    # A width below a site sends dist^2 / width^2 to inf off the centre,
    # whose envelope is then exactly 0.
    with np.errstate(over="ignore"):
        envelope = np.exp(-(dist**2) / spec.width**2)
    amplitudes = envelope * np.exp(2j * np.pi * spec.momentum_index * n / n_sites)
    amplitudes /= np.linalg.norm(amplitudes)
    return StateVector(amplitudes)


def build_position_eigenstate(site: int, n_sites: int) -> StateVector:
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} outside [0, {n_sites})")
    amplitudes = np.zeros(n_sites, dtype=np.complex128)
    amplitudes[site] = 1.0
    return StateVector(amplitudes)


def build_initial_state(
    spec: GaussianPacketSpec | PositionEigenstateSpec, n_sites: int
) -> StateVector:
    """Build the state a parameter object describes; scenario files select
    the kinds by name."""
    if isinstance(spec, GaussianPacketSpec):
        return build_gaussian_packet(spec, n_sites)
    if isinstance(spec, PositionEigenstateSpec):
        site = n_sites // 2 if spec.site is None else spec.site
        return build_position_eigenstate(site, n_sites)
    raise TypeError(f"unknown state spec {type(spec).__name__}")


def density_from_pure(state: StateVector) -> DensityMatrix:
    """rho = |psi><psi| in the position basis."""
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), Basis.POSITION)

"""Periodic-lattice free particle: basis changes and exact time evolution.

The configuration space is N sites on a ring; momentum labels are the DFT
dual indices. Natural units throughout (hbar, the site spacing and the
inverse-mass parameter are all 1), so the kinetic energy of momentum index
k is k**2/2, folded symmetrically at k = N/2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Basis",
    "BasisError",
    "DensityMatrix",
    "LatticeConfig",
    "StateVector",
    "dense_oracle_evolve",
    "density_to_momentum",
    "density_to_position",
    "dispersion_table",
    "evolve_density",
]


class Basis(enum.Enum):
    """Which eigenbasis a density matrix's entries refer to."""

    POSITION = "position"
    MOMENTUM = "momentum"


class BasisError(ValueError):
    """An operation received a density matrix in the wrong basis."""


@dataclass(frozen=True)
class LatticeConfig:
    """Lattice size plus the factor mapping natural times to display times.

    Times in scenario files and CSV output are display times, i.e. natural
    time multiplied by display_time_factor. The default factor of 1000 keeps
    the interesting dynamics in the range of a few hundred display units.
    """

    n_sites: int
    display_time_factor: float = 1000.0

    def __post_init__(self) -> None:
        n = self.n_sites
        if n < 8 or n & (n - 1):
            raise ValueError(f"n_sites must be a power of two >= 8, got {n}")
        if not 0 < self.display_time_factor < math.inf:
            raise ValueError("display_time_factor must be positive and finite")

    def to_natural_time(self, display_time: float) -> float:
        return display_time / self.display_time_factor

    def to_display_time(self, natural_time: float) -> float:
        return natural_time * self.display_time_factor


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state as its position amplitudes psi(n).

    Normalization (sum of squared magnitudes equal to 1 within 1e-12) is
    checked once, at construction, on a read-only copy: the check holds for
    the state's life, and the caller's array stays writable. States compare
    and hash by identity, as an array has no single truth value.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amplitudes = np.array(self.amplitudes, dtype=np.complex128)
        if amplitudes.ndim != 1:
            raise ValueError("amplitudes must be one-dimensional")
        norm2 = float(np.sum(np.abs(amplitudes) ** 2))
        # Written so that NaN fails it too.
        if not abs(norm2 - 1.0) <= 1e-12:
            raise ValueError(f"state is not normalized: |amplitudes|^2 = {norm2}")
        amplitudes.flags.writeable = False
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def n_sites(self) -> int:
        return self.amplitudes.size


@dataclass(eq=False)
class DensityMatrix:
    """Density operator in a definite basis.

    Positive semidefiniteness costs a full eigendecomposition, so it is
    only checked on demand through min_eigenvalue(); anything above -1e-10
    counts as PSD (two-sided FFTs of a 256x256 matrix leave round-off at
    the 1e-13 level). Matrices compare and hash by identity.
    """

    entries: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("entries must be a square matrix")

    @property
    def n_sites(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def _require_basis(rho: DensityMatrix, basis: Basis, op: str) -> None:
    if rho.basis is not basis:
        raise BasisError(f"{op} expects a {basis.value}-basis input, got {rho.basis.value}")


def dispersion_table(n_sites: int) -> np.ndarray:
    """Kinetic energy E(k) of every momentum index k: k**2/2 up to the fold
    at N/2, (N-k)**2/2 beyond it, where indices carry negative physical
    momentum of magnitude N-k; a new array on every call."""
    k = np.arange(n_sites)
    return np.minimum(k, n_sites - k).astype(float) ** 2 / 2.0


def density_to_momentum(rho: DensityMatrix) -> DensityMatrix:
    """Two-sided transform F rho F^dagger, one FFT pass per row and column."""
    _require_basis(rho, Basis.POSITION, "density_to_momentum")
    out = np.fft.fft(np.fft.ifft(rho.entries, axis=1), axis=0)
    return DensityMatrix(out, Basis.MOMENTUM)


def density_to_position(rho: DensityMatrix) -> DensityMatrix:
    """Inverse two-sided transform."""
    _require_basis(rho, Basis.MOMENTUM, "density_to_position")
    out = np.fft.ifft(np.fft.fft(rho.entries, axis=1), axis=0)
    return DensityMatrix(out, Basis.POSITION)


def evolve_density(rho: DensityMatrix, t: float) -> DensityMatrix:
    """Free evolution for natural time t (t < 0 runs backward).

    Entry (k, k') picks up the phase exp(i*t*(E(k') - E(k))). The phase
    table is built per call and not kept.
    """
    _require_basis(rho, Basis.MOMENTUM, "evolve_density")
    # E(k') - E(k) is exactly 0.0 on the diagonal, so diagonal phases are
    # exactly 1 and the momentum distribution is preserved bit for bit.
    energies = dispersion_table(rho.n_sites)
    phases = np.exp(1j * float(t) * (energies[None, :] - energies[:, None]))
    return DensityMatrix(rho.entries * phases, Basis.MOMENTUM)


_ORACLE_MAX_SITES = 64


def dense_oracle_evolve(rho: DensityMatrix, t: float) -> DensityMatrix:
    """Reference evolution for cross-checking the FFT path.

    Builds the Hamiltonian as an explicit matrix from the momentum
    projectors, forms U = exp(-iHt) through a fresh eigendecomposition and
    returns U rho U^dagger. O(N^3): refuses lattices larger than 64 sites.
    """
    _require_basis(rho, Basis.POSITION, "dense_oracle_evolve")
    n = rho.n_sites
    if n > _ORACLE_MAX_SITES:
        raise ValueError(f"dense oracle is O(N^3); refusing n_sites {n} > {_ORACLE_MAX_SITES}")
    sites = np.arange(n)
    modes = np.exp(2j * np.pi * np.outer(sites, sites) / n) / np.sqrt(n)
    hamiltonian = (modes * dispersion_table(n)) @ modes.conj().T
    energies, vectors = np.linalg.eigh(hamiltonian)
    propagator = (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T
    return DensityMatrix(propagator @ rho.entries @ propagator.conj().T, Basis.POSITION)

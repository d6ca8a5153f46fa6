"""Shared builder for randomized density matrices."""

import numpy as np

from zenolattice import Basis, DensityMatrix


def make_random_density(n_sites: int, rng: np.random.Generator, rank: int = 4) -> DensityMatrix:
    """Random mixture of `rank` pure states: Hermitian, PSD, trace one."""
    weights = rng.random(rank)
    weights /= weights.sum()
    rho = np.zeros((n_sites, n_sites), dtype=np.complex128)
    for weight in weights:
        vec = rng.standard_normal(n_sites) + 1j * rng.standard_normal(n_sites)
        vec /= np.linalg.norm(vec)
        rho += weight * np.outer(vec, vec.conj())
    return DensityMatrix(rho, Basis.POSITION)

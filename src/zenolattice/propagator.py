"""The stepping engine: one run's density matrix in chord coordinates.

The engine stores the momentum-basis matrix R of lattice.density_to_momentum
in chord (difference) coordinates, G[delta, k] = R[k, k - delta] with indices
mod N and k on the contiguous axis (Ozorio de Almeida, Phys. Rep. 295 (1998)
265). In these coordinates:

- free evolution is an elementwise phase exp(i t (E(k - delta) - E(k))),
  which is exactly 1 on row delta = 0, the momentum distribution;
- an inverse FFT along k gives H[delta, d], where d = m - n is the site
  separation of the position-basis entry rho(m, n), so a minimal-image
  damping kernel is a multiply by values[d] between two FFT passes;
- a further inverse FFT along delta gives, up to a factor N,
  rho((n + d) mod N, n), where a region PVM or a LINEAR kernel is a fixed
  mask: four passes per step;
- the position distribution is the inverse FFT of the row sums of G and
  the purity is sum |G|^2, so a snapshot costs O(N^2) and no N x N
  transform.

The position-basis functions in lattice and channels compute the same
steps one at a time; the tests use them as this engine's reference.
"""

from __future__ import annotations

import numpy as np

from .channels import DampingKernel, DistanceConvention, RegionPartition
from .lattice import Basis, StateVector, _require_basis, dispersion_table

__all__ = ["Propagator"]


class Propagator:
    """Exact free evolution and repeated measurement of one state, in place.

    measurement is a damping kernel, a region partition, or None for a run
    that is never measured. interval (natural time) is the leg length whose
    phase table is kept for the life of the engine; legs of any other
    length compute their phases into the work buffer.
    """

    def __init__(
        self,
        state: StateVector,
        measurement: DampingKernel | RegionPartition | None = None,
        interval: float | None = None,
    ) -> None:
        _require_basis(state, Basis.POSITION, "Propagator")
        n = state.n_sites
        if measurement is not None and measurement.n_sites != n:
            raise ValueError("measurement size does not match the state")
        sites = np.arange(n)
        behind = (sites[None, :] - sites[:, None]) % n  # (k - delta) mod N
        phi = np.fft.fft(state.amplitudes)
        # N is a power of two, so phi / n is exact and row 0 is |phi|^2 / N.
        self._g = (phi / n) * phi.conj()[behind]
        energies = dispersion_table(n)
        self._energy_diff = energies[behind] - energies
        del behind  # set-up temporaries go before the buffers below

        self._values = None
        self._mask = None
        if isinstance(measurement, DampingKernel):
            if measurement.distance_convention is DistanceConvention.MINIMAL_IMAGE:
                self._values = measurement.values
            else:
                ahead = (sites[:, None] + sites[None, :]) % n  # (n + d) mod N
                self._mask = measurement.values[np.abs(ahead - sites[:, None])]
        elif isinstance(measurement, RegionPartition):
            region = measurement.region_of
            self._mask = region[(sites[:, None] + sites[None, :]) % n] == region[:, None]

        self._work = None  # phases of other leg lengths, allocated on first use
        self._interval = interval
        self._phases = None
        if interval is not None:
            self._phases = self._phase_table(interval, np.empty_like(self._g))

    def _phase_table(self, t: float, out: np.ndarray) -> np.ndarray:
        # E(k - delta) - E(k) is exactly 0.0 on row 0, whose phase is 1+0j.
        np.multiply(self._energy_diff, 1j * t, out=out)
        return np.exp(out, out=out)

    def advance(self, t: float) -> None:
        """Free evolution for natural time t; no transform."""
        if t == self._interval:
            phases = self._phases
        else:
            if self._work is None:
                self._work = np.empty_like(self._g)
            phases = self._phase_table(t, self._work)
        np.multiply(self._g, phases, out=self._g)

    def measure(self) -> None:
        """Apply the measurement channel once."""
        g = self._g
        if self._values is None and self._mask is None:
            raise ValueError("this run has no measurement")
        np.fft.ifft(g, axis=1, out=g)
        if self._values is not None:
            np.multiply(g, self._values, out=g)
        else:
            np.fft.ifft(g, axis=0, out=g)
            np.multiply(g, self._mask, out=g)
            np.fft.fft(g, axis=0, out=g)
        np.fft.fft(g, axis=1, out=g)

    def momentum_distribution(self) -> np.ndarray:
        """p(k) = R[k, k], the real part of row delta = 0."""
        return self._g[0].real.copy()

    def position_distribution(self) -> np.ndarray:
        """p(n) = rho(n, n), the inverse FFT of the row sums of G."""
        diag = np.fft.ifft(self._g.sum(axis=1))
        worst = float(np.max(np.abs(diag.imag)))
        if worst > 1e-12:
            raise ValueError(f"diagonal has imaginary parts up to {worst:.3e}")
        return diag.real.copy()

    def purity(self) -> float:
        """Tr(rho^2) = sum |G|^2."""
        return float(np.vdot(self._g, self._g).real)

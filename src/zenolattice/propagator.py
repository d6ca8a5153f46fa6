"""The stepping engine: one run's density matrix in half chord coordinates.

The engine stores the momentum-basis matrix R of lattice.density_to_momentum
in chord (difference) coordinates, G[delta, k] = R[k, k - delta] with indices
mod N and k on the contiguous axis (Ozorio de Almeida, Phys. Rep. 295 (1998)
265). rho is Hermitian, so

    G[-delta, k] = conj G[delta, k + delta],

and the engine keeps only rows delta = 0..N/2, an (N/2 + 1) x N array. The
other rows are read off these ones, so Hermiticity holds by construction
and cannot drift. Round-off can still leave row 0 not quite real and
row N/2 not quite its own mirror; the snapshots check the imaginary parts
that this puts on the distributions. In these coordinates:

- free evolution is an elementwise phase exp(i t (E(k - delta) - E(k))),
  which is exactly 1 on row delta = 0, the momentum distribution:
  0 FFT passes;
- an inverse FFT along k gives H[delta, d], where d = m - n is the site
  separation of the position-basis entry rho(m, n), so a minimal-image
  damping kernel is a multiply by values[d] between two FFT passes over
  half the rows, one pass in all;
- a region PVM or a LINEAR kernel is a fixed mask on rho((n + d) mod N, n),
  which a further inverse FFT along delta gives up to a factor N. That
  needs every row: the step unfolds G into a full N x N work buffer (the
  kept rows by an inverse FFT along k, rows N - delta by a conjugate
  gather and an inverse FFT), transforms along delta, masks, transforms
  back and folds rows 0..N/2 into G with an FFT along k: 3.5 passes;
- a snapshot costs O(N^2) and no transform: p(k) is row 0, p(n) is the
  inverse FFT of the row sums s[delta], with s[N - delta] = conj s[delta]
  filling in the rest, and the purity is
  |row 0|^2 + 2 sum_{delta=1}^{N/2-1} |row delta|^2 + |row N/2|^2.

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
    length compute their phases into the work buffer. The state must be a
    position-basis vector on a power-of-two ring.
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
        half = n // 2 + 1
        sites = np.arange(n)
        behind = (sites[None, :] - sites[:half, None]) % n  # (k - delta) mod N
        phi = np.fft.fft(state.amplitudes)
        # N is a power of two, so phi / n is exact and row 0 is |phi|^2 / N.
        self._g = phi.conj()[behind]
        np.multiply(self._g, phi / n, out=self._g)
        trace = complex(self._g[0].sum())
        if abs(trace - 1.0) > 1e-12:
            raise ValueError(f"trace is {trace}, expected 1")
        energies = dispersion_table(n)
        self._energy_diff = energies[behind]
        self._energy_diff -= energies
        del behind  # set-up temporaries go before the buffers below

        self._values = None
        self._mask = None
        self._full = None
        self._work = None  # phases of other leg lengths, allocated on first use
        if isinstance(measurement, DampingKernel):
            if measurement.distance_convention is DistanceConvention.MINIMAL_IMAGE:
                self._values = measurement.values
            else:
                ahead = (sites[:, None] + sites[None, :]) % n  # (n + d) mod N
                self._mask = measurement.values[np.abs(ahead - sites[:, None])]
        elif isinstance(measurement, RegionPartition):
            region = measurement.region_of
            self._mask = region[(sites[:, None] + sites[None, :]) % n] == region[:, None]
        if self._mask is not None:
            # Row N - delta of the full matrix is G[delta, (k + delta) mod N]
            # conjugated: flat indices into G for delta = N/2 - 1 .. 1.
            delta = n - sites[half:, None]
            self._mirror = delta * n + (sites + delta) % n
            self._full = np.empty((n, n), dtype=complex)
            # Measurements overwrite the whole buffer, so legs may use its
            # first rows for their phases.
            self._work = self._full[:half]

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
        if self._values is not None:
            np.fft.ifft(g, axis=1, out=g)
            np.multiply(g, self._values, out=g)
            np.fft.fft(g, axis=1, out=g)
            return
        if self._mask is None:
            raise ValueError("this run has no measurement")
        full = self._full
        half = g.shape[0]
        np.fft.ifft(g, axis=1, out=full[:half])
        mirror = full[half:]
        # mode="wrap" writes straight into out; the default buffers it.
        np.take(g, self._mirror, out=mirror, mode="wrap")
        np.conjugate(mirror, out=mirror)
        np.fft.ifft(mirror, axis=1, out=mirror)
        np.fft.ifft(full, axis=0, out=full)
        np.multiply(full, self._mask, out=full)
        np.fft.fft(full, axis=0, out=full)
        np.fft.fft(full[:half], axis=1, out=g)

    def momentum_distribution(self) -> np.ndarray:
        """p(k) = R[k, k], row delta = 0."""
        row = self._g[0]
        worst = float(np.max(np.abs(row.imag)))
        if worst > 1e-12:
            raise ValueError(f"momentum distribution has imaginary parts up to {worst:.3e}")
        return row.real.copy()

    def position_distribution(self) -> np.ndarray:
        """p(n) = rho(n, n), the inverse FFT of the row sums of G."""
        half, n = self._g.shape
        sums = np.empty(n, dtype=complex)
        self._g.sum(axis=1, out=sums[:half])
        sums[half:] = sums[n - half : 0 : -1].conj()  # s[N - delta] = conj s[delta]
        diag = np.fft.ifft(sums)
        worst = float(np.max(np.abs(diag.imag)))
        if worst > 1e-12:
            raise ValueError(f"diagonal has imaginary parts up to {worst:.3e}")
        return diag.real.copy()

    def purity(self) -> float:
        """Tr(rho^2) = sum |G|^2 over all N rows; the rows 1..N/2 - 1 stand
        for their mirrors too."""
        g = self._g
        inner = g[1:-1]
        edges = np.vdot(g[0], g[0]).real + np.vdot(g[-1], g[-1]).real
        return float(edges + 2.0 * np.vdot(inner, inner).real)

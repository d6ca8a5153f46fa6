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
  separation of the position-basis entry rho(m, n). A further inverse FFT
  along delta gives rho((n + d) mod N, n) up to a factor N, and every
  channel is a fixed mask on that. Column d of the mask is either one
  value at every n (constant) or not (cut). A constant column is a multiply
  of column d of H by that value, with no transform along delta. A
  minimal-image damping kernel has no cut columns: its step is an inverse
  FFT along k, a multiply by values[d] and an FFT back, one pass in all;
- a region PVM of two regions or more, the largest with L sites, cuts the
  columns with 0 < min(d, N - d) < L: P = 2(L - 1) of them when
  L <= N/2. A LINEAR kernel cuts the columns with values[d] != values[N - d].
  The cut columns come in pairs d, N - d, since the mask is symmetric, and
  the identity above becomes

      H[N - delta, d] = exp(-2 pi i delta d / N) conj H[delta, N - d].

  The step gathers the cut columns d <= N/2 into a buffer with delta on the
  contiguous axis, rows 0..N/2 from H and rows N - delta from the columns
  N - d by the identity. It transforms that buffer along delta, masks it,
  transforms it back and writes rows 0..N/2 of columns d into H, and those
  of columns N - d by the identity again: 1 + P/N passes;
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

        self._scale = None
        self._work = None  # phases of other leg lengths, allocated on first use
        if measurement is not None:
            self._scale, self._cols, self._cut = _sort_columns(measurement, n)
            count = self._cols.size
            if count:
                # The work buffer also takes every cut column of H, delta-major.
                self._work = np.empty_like(self._g)
                self._gathered = self._work.reshape(-1)[: half * count].reshape(half, count)
                self._buffer = np.empty_like(self._cut, dtype=complex)
                # exp(-2 pi i delta d / N) for the kept columns d, delta = 0..N/2
                turns = np.outer(self._cols[: len(self._cut)], sites[:half]) % n
                self._twiddle = np.exp(-2j * np.pi * turns / n)

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
        if self._scale is None:
            raise ValueError("this run has no measurement")
        g = self._g
        np.fft.ifft(g, axis=1, out=g)
        np.multiply(g, self._scale, out=g)  # 1 on the cut columns
        cols = self._cols
        if cols.size:
            half = g.shape[0]
            gathered, buffer, twiddle = self._gathered, self._buffer, self._twiddle
            # Buffer row j is cut column d = cols[j] <= N/2; N - d is cols[-1 - j].
            kept = len(buffer)
            # mode="wrap" writes straight into out; the default buffers it.
            np.take(g, cols, axis=1, out=gathered, mode="wrap")
            buffer[:, :half] = gathered[:, :kept].T
            upper = buffer[:, half:]  # rows N - delta, delta = N/2 - 1 .. 1
            np.conjugate(gathered[half - 2 : 0 : -1, ::-1][:, :kept].T, out=upper)
            np.multiply(upper, twiddle[:, half - 2 : 0 : -1], out=upper)
            np.fft.ifft(buffer, axis=1, out=buffer)
            np.multiply(buffer, self._cut, out=buffer)
            np.fft.fft(buffer, axis=1, out=buffer)
            g[:, cols[:kept]] = buffer[:, :half].T
            # Rows delta = 0..N/2 of column N - d from rows (N - delta) mod N
            # of column d, for every kept d < N/2.
            pairs = cols.size - kept
            mirror = buffer[:pairs, :half]
            np.conjugate(buffer[:pairs, : half - 2 : -1], out=mirror[:, 1:])
            np.conjugate(mirror[:, 0], out=mirror[:, 0])
            np.multiply(mirror, twiddle[:pairs], out=mirror)
            g[:, cols[: kept - 1 : -1]] = mirror.T
        np.fft.fft(g, axis=1, out=g)

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


def _sort_columns(
    measurement: DampingKernel | RegionPartition, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort the columns d of the measurement's mask on rho((n + d) mod N, n).

    Returns (scale, cols, cut). scale[d] is the value of constant column d,
    and 1 on a cut column. cols lists the cut columns in increasing order,
    a set closed under d -> N - d, and cut holds the mask down the cut
    columns d <= N/2, one row per column, indexed by n.
    """
    none = np.empty(0, dtype=np.intp)
    if isinstance(measurement, DampingKernel):
        values = measurement.values
        if measurement.distance_convention is DistanceConvention.MINIMAL_IMAGE:
            return values, none, np.empty((0, n))
        # LINEAR: column d is values[d] where n + d < N and values[N - d]
        # past the wrap.
        sites = np.arange(n)
        mirrored = values[-sites]
        constant = values == mirrored
        cols = np.flatnonzero(~constant)
        kept = cols[: (cols.size + 1) // 2, None]
        cut = np.where(sites < n - kept, values[kept], mirrored[kept])
        return np.where(constant, values, 1.0), cols, cut
    if measurement.n_regions == 1:
        return np.ones(n), none, np.empty((0, n))
    # Regions are contiguous and do not wrap, so some pair at separation d
    # shares a region iff min(d, N - d) is below the largest region's size;
    # with two regions or more, some pair at every d > 0 does not.
    sites = np.arange(n)
    largest = max(np.diff(measurement.boundaries + (n,)))
    shared = np.minimum(sites, n - sites) < largest
    cols = np.flatnonzero(shared[1:]) + 1
    kept = cols[: (cols.size + 1) // 2, None]
    region = measurement.region_of
    return shared.astype(float), cols, region[(sites + kept) % n] == region

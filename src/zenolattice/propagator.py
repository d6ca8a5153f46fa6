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
  columns with 0 < min(d, N - d) < L. A LINEAR kernel cuts the columns with
  values[d] != values[N - d]. The mask is symmetric, so the cut columns
  lie in a window of the columns d = 1..c and their mirrors N - d, with
  c = min(L - 1, N/2) for a PVM and the largest cut min(d, N - d) for a
  LINEAR kernel; a constant column inside the window is masked by its
  value. The identity above becomes

      H[N - delta, d] = exp(-2 pi i delta d / N) conj H[delta, N - d].

  The step copies columns d = 1..c, rows 0..N/2, into an (N, c) buffer
  and builds its rows N - delta from columns N - d by that identity, all
  through basic slices. It transforms that buffer along delta, masks it,
  transforms it back, copies rows 0..N/2 back to columns d and builds
  those of columns N - d by the identity again: 1 + 2c/N passes;
- a snapshot costs O(N^2) and no transform: p(k) is row 0, p(n) is the
  inverse FFT of the row sums s[delta], with s[N - delta] = conj s[delta]
  filling in the rest, and the purity is
  |row 0|^2 + 2 sum_{delta=1}^{N/2-1} |row delta|^2 + |row N/2|^2.

Free legs, channels without cut columns and snapshots all act on each row
delta alone, so a Propagator may hold any range of rows, built from the
state's momentum amplitudes phi with G[delta, k] = conj phi[k - delta] phi[k] / N
and the energy differences and phase tables of those rows only.
run_blocks splits the rows of such a run into blocks of about
BLOCK_ENTRIES entries, small enough that a block's G, phases and energy
differences stay in a core's L2 cache, and takes each block through the
whole schedule on its own: the calling thread and at most one more take
blocks in turn, with no synchronisation between steps. numpy's FFTs and
ufuncs release the GIL, so the two threads step at once. A snapshot writes
its rows' partials, the row sums s[delta], the squared norms of the rows
and the real part of row 0 with its largest imaginary part, into a
Snapshots object indexed by row, which allocates a snapshot's partials
when the first block records it; the observables are read off the
combined partials in a fixed order, so no result depends on
which thread stepped which block. A channel that cuts a column (a PVM of
two regions or more, most LINEAR kernels) couples rows through its
transform along delta, so such a run takes one block of all rows on the
calling thread, as does a run too small for two blocks; neither starts a
thread.

The position-basis functions in lattice and channels compute the same
steps one at a time; the tests use them as this engine's reference.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .channels import DampingKernel, DistanceConvention, RegionPartition
from .lattice import Basis, StateVector, _require_basis, dispersion_table

__all__ = ["Propagator", "Snapshots", "run_blocks"]

# Entries of G per row block: 2**15 complex128 values are 512 KiB, and with
# the block's phase table and energy differences about 1.3 MiB, well inside
# the reference machine's 4 MiB L2 per core.
BLOCK_ENTRIES = 2**15


class Propagator:
    """Exact free evolution and repeated measurement of one state, in place.

    measurement is a damping kernel, a region partition, or None for a run
    that is never measured. interval (natural time) is the leg length whose
    phase table is kept for the life of the engine; legs of any other
    length compute their phases into the work buffer. rows is the range of
    rows delta the engine holds, all of 0..N/2 by default; a measurement
    that cuts a column needs all of them. The state must be a
    position-basis vector on a power-of-two ring.
    """

    def __init__(
        self,
        state: StateVector,
        measurement: DampingKernel | RegionPartition | None = None,
        interval: float | None = None,
        rows: range | None = None,
    ) -> None:
        _require_basis(state, Basis.POSITION, "Propagator")
        n = state.n_sites
        if measurement is not None and measurement.n_sites != n:
            raise ValueError("measurement size does not match the state")
        half = n // 2 + 1
        rows = range(half) if rows is None else rows
        self._rows = rows
        phi = np.fft.fft(state.amplitudes)
        if rows.start == 0:
            # The trace is sum |phi|^2 / N, checked once, by the block of row 0.
            trace = float(np.vdot(phi, phi).real) / n
            if abs(trace - 1.0) > 1e-12:
                raise ValueError(f"trace is {trace}, expected 1")
        sites = np.arange(n)
        behind = (sites[None, :] - sites[rows.start : rows.stop, None]) % n  # (k - delta) mod N
        # N is a power of two, so phi / n is exact and row 0 is |phi|^2 / N.
        self._g = phi.conj()[behind]
        np.multiply(self._g, phi / n, out=self._g)
        energies = dispersion_table(n)
        self._energy_diff = energies[behind]
        self._energy_diff -= energies
        del behind  # set-up temporaries go before the buffers below

        self._scale = None
        self._work = None  # phases of other leg lengths, allocated on first use
        if measurement is not None:
            self._scale, window, cut = _sort_columns(measurement, n)
            self._window = window
            # No cut column and a scale of 1 everywhere: the channel is the identity.
            self._identity = not window and bool(np.all(self._scale == 1.0))
            if window:
                if rows != range(half):
                    raise ValueError("this measurement couples rows; hold all rows 0..N/2")
                self._cut = cut
                self._buffer = np.empty(cut.shape, dtype=complex)
                # conj exp(-2 pi i delta d / N) at [N/2 - delta, d - 1], for
                # buffer row N - delta: delta = N/2..1 down the rows, d = 1..c.
                turns = np.outer(sites[half - 1 : 0 : -1], sites[1 : window + 1]) % n
                self._twiddle = np.exp(-2j * np.pi * turns / n).conj()

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
        if self._identity:
            return
        g = self._g
        np.fft.ifft(g, axis=1, out=g)
        np.multiply(g, self._scale, out=g)  # 1 inside the window
        c = self._window
        if c:
            half, n = g.shape
            buffer, twiddle = self._buffer, self._twiddle
            # Column j of buffer is d = j + 1 and column j of mirror is N - d.
            # Buffer rows N/2..N - 1 are rows N - delta for delta = N/2..1,
            # the rows of twiddle; w conj(x) = conj(x conj(w)) builds them in
            # place, in contiguous passes.
            mirror = g[:, n - 1 : n - c - 1 : -1]
            buffer[:half] = g[:, 1 : c + 1]
            upper = buffer[half:]  # rows N - delta, delta = N/2 - 1 .. 1
            upper[:] = mirror[half - 2 : 0 : -1]
            np.multiply(upper, twiddle[1:], out=upper)
            np.conjugate(upper, out=upper)
            np.fft.ifft(buffer, axis=0, out=buffer)
            np.multiply(buffer, self._cut, out=buffer)
            np.fft.fft(buffer, axis=0, out=buffer)
            g[:, 1 : c + 1] = buffer[:half]
            # Rows delta = 0..N/2 of column N - d from rows (N - delta) mod N
            # of column d; column N/2, its own mirror, is written already.
            pairs = min(c, half - 2)
            lower = buffer[half - 1 :]  # rows N - delta, delta = N/2 .. 1
            np.multiply(lower, twiddle, out=lower)
            np.conjugate(lower, out=lower)
            np.conjugate(buffer[0, :pairs], out=mirror[0, :pairs])
            mirror[1:, :pairs] = lower[::-1, :pairs]
        np.fft.fft(g, axis=1, out=g)

    def record(self, snapshots: Snapshots, j: int) -> None:
        """Write this engine's rows of snapshot j: row sums, squared row
        norms and, if it holds row 0, the real part of row 0 and the
        largest imaginary part on it."""
        g = self._g
        rows = slice(self._rows.start, self._rows.stop)
        sums, norms, momentum, imag = snapshots.partials(j)
        g.sum(axis=1, out=sums[rows])
        pairs = g.view(np.float64)  # |G|^2 is the sum of squares of re and im
        np.einsum("ij,ij->i", pairs, pairs, out=norms[rows])
        if self._rows.start == 0:
            momentum[:] = g[0].real
            imag[0] = np.max(np.abs(g[0].imag))


class Snapshots:
    """Per-row partials of a run's snapshots, filled by Propagator.record
    block by block, and the observables combined from them.

    A snapshot's partials are allocated when the first block records it,
    so a run holds only the snapshots it has reached. Each observable reads
    all rows in one fixed order, so it does not depend on how the rows
    were split into blocks.
    """

    def __init__(self, count: int, n: int) -> None:
        self._n = n
        self._partials: list[tuple | None] = [None] * count
        self._lock = threading.Lock()

    def partials(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Snapshot j's row sums, squared row norms, p(k) and the largest
        imaginary part on row 0 (one entry), allocated on first use."""
        with self._lock:  # both workers may reach snapshot j at once
            if self._partials[j] is None:
                half = self._n // 2 + 1
                self._partials[j] = (
                    np.empty(half, dtype=complex),
                    np.empty(half),
                    np.empty(self._n),
                    np.empty(1),
                )
            return self._partials[j]

    def momentum_distribution(self, j: int) -> np.ndarray:
        """p(k) = R[k, k], row delta = 0; the stored array, not a copy, so
        a run holds each momentum distribution once."""
        _, _, momentum, imag = self._partials[j]
        worst = float(imag[0])
        if worst > 1e-12:
            raise ValueError(f"momentum distribution has imaginary parts up to {worst:.3e}")
        return momentum

    def position_distribution(self, j: int) -> np.ndarray:
        """p(n) = rho(n, n), the inverse FFT of the row sums of G."""
        row_sums = self._partials[j][0]
        half, n = row_sums.size, self._n
        sums = np.empty(n, dtype=complex)
        sums[:half] = row_sums
        sums[half:] = sums[n - half : 0 : -1].conj()  # s[N - delta] = conj s[delta]
        diag = np.fft.ifft(sums)
        worst = float(np.max(np.abs(diag.imag)))
        if worst > 1e-12:
            raise ValueError(f"diagonal has imaginary parts up to {worst:.3e}")
        return diag.real.copy()

    def purity(self, j: int) -> float:
        """Tr(rho^2) = sum |G|^2 over all N rows; the rows 1..N/2 - 1 stand
        for their mirrors too."""
        norms = self._partials[j][1]
        return float(norms[0] + norms[-1] + 2.0 * norms[1:-1].sum())


def run_blocks(
    state: StateVector,
    measurement: DampingKernel | RegionPartition | None,
    interval: float | None,
    ops: list[tuple],
) -> None:
    """Take every block of rows through ops, each block on a Propagator of
    its own.

    ops is a list of (method, *args), with method Propagator.advance,
    Propagator.measure or Propagator.record; a block runs them in order.
    The calling thread and, when the run has two blocks or more and the
    host two cores, one worker thread take blocks in turn. The worker is
    joined before this returns.
    """
    n = state.n_sites
    half = n // 2 + 1
    couples = measurement is not None and _sort_columns(measurement, n)[1] > 0
    count = 1 if couples else -(-half * n // BLOCK_ENTRIES)
    bounds = [half * i // count for i in range(count + 1)]
    blocks = iter([range(lo, hi) for lo, hi in zip(bounds, bounds[1:])])
    lock = threading.Lock()

    def run_block(rows: range) -> None:
        # The engine goes on return, before the next block's is built.
        engine = Propagator(state, measurement, interval, rows)
        for method, *args in ops:
            method(engine, *args)

    def take_blocks() -> None:
        while True:
            with lock:
                rows = next(blocks, None)
            if rows is None:
                return
            run_block(rows)

    if min(2, os.cpu_count() or 1, count) == 1:
        take_blocks()
        return
    failures = []

    def work() -> None:
        try:
            take_blocks()
        except BaseException as err:  # raised again on the calling thread
            failures.append(err)

    # threading, not concurrent.futures: numpy has imported it already, and
    # the executor's import would add about 8 ms to every process start.
    worker = threading.Thread(target=work)
    worker.start()
    try:
        take_blocks()
    finally:
        worker.join()
    if failures:
        raise failures[0]


def _sort_columns(
    measurement: DampingKernel | RegionPartition, n: int
) -> tuple[np.ndarray, int, np.ndarray]:
    """Sort the columns d of the measurement's mask on rho((n + d) mod N, n).

    Returns (scale, c, cut). Every cut column lies in the window of the
    columns d = 1..c and their mirrors N - d, with c <= N/2. scale[d] is
    the value of column d outside the window, which is constant there, and
    1 inside it. cut[n, d - 1] is the mask down column d = 1..c, an
    (N, c) array. A minimal-image kernel's scale is its values, shared by
    every block; one built here is complex, which numpy would otherwise
    cast on every step.
    """
    sites = np.arange(n)
    separation = np.minimum(sites, n - sites)
    if isinstance(measurement, DampingKernel):
        values = measurement.values
        if measurement.distance_convention is DistanceConvention.MINIMAL_IMAGE:
            return values, 0, np.empty((n, 0))
        # LINEAR: column d is values[d] where n + d < N and values[N - d]
        # past the wrap; a column inside the window whose two values agree
        # is masked by that value.
        mirrored = values[-sites]
        c = int(separation[values != mirrored].max(initial=0))
        window = sites[1 : c + 1]
        cut = np.where(sites[:, None] < n - window, values[window], mirrored[window])
        inside = (separation > 0) & (separation <= c)
        return np.where(inside, 1.0, values).astype(complex), c, cut
    if measurement.n_regions == 1:
        return np.ones(n), 0, np.empty((n, 0))
    # Regions are contiguous and do not wrap, so some pair at separation d
    # shares a region iff min(d, N - d) is below the largest region's size;
    # with two regions or more, some pair at every d > 0 does not.
    largest = max(np.diff(measurement.boundaries + (n,)))
    c = int(min(largest - 1, n // 2))
    region = measurement.region_of
    cut = region[(sites[:, None] + sites[1 : c + 1]) % n] == region[:, None]
    return (separation < largest).astype(complex), c, cut

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
  of column d of H by that value, with no transform along delta; a PVM's
  are 1 or 0, so its step only fills the 0 ones with zeros. A
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

Band-limited stepping. Every column with min(d, N - d) >= L is 0 at
every n, for L = 1 + the largest min(d, N - d) that the channel leaves
nonzero: the largest region for a region PVM, 1 for a per-site PVM, the
support of a compact kernel. After one measurement H holds only the
2L - 1 band columns |d| < L. An engine with an interval whose width W, the
smallest integer >= 4L - 3 with no prime factor above 7, is below N
narrows at its first measurement (without an interval every leg would
build its kernel anew, which costs more than the N columns save). It
keeps the band columns of H in a (rows, W) array, column -d at W - d,
and frees G and the phase table. Multiplying row delta of G by its
phases is a cyclic convolution of row delta of H with ifft_N(phases)
along d. On the band only the lags |l| <= 2L - 2 of that kernel reach
the band, and with W >= 4L - 3 a cyclic product of length W wraps none
of its terms onto the band. So a narrowed leg is exact: fft_W, a
multiply by K = fft_W of the kernel cut to those lags, ifft_W, on every
row but row 0, whose phase is exactly 1. Then:

- advance(t) only adds t to a pending time;
- measure applies the pending leg with the interval's K, or with K built
  the same way for another pending time, then the channel: it zeroes
  columns L..W - L and runs the window step above with the mirror column
  N - d held at W - d. Two transforms of length W replace two of length
  N: for pvm_packet (N = 256, L = 42) W = 168;
- record rebuilds G in a temporary array of N columns for that call, as
  fft_N of the band in N columns times the pending leg's phases, and
  reads it as above.

Free legs, channels without cut columns and snapshots all act on each row
delta alone, so a Propagator may hold any range of rows, built from the
state's momentum amplitudes phi with G[delta, k] = conj phi[k - delta] phi[k] / N
and the phase tables of those rows only, each read off strided views of
phi and E doubled, with no index table. A block of a per-site PVM or a
compact kernel narrows on its own. run_blocks splits the rows of such a
run into blocks of about BLOCK_ENTRIES entries, small enough that a
block's G and phases stay in a core's L2 cache, and takes each block
through the whole schedule on its own: the calling thread and at most one more take
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
from numpy.lib.stride_tricks import sliding_window_view

from .channels import DampingKernel, DistanceConvention, RegionPartition
from .lattice import Basis, StateVector, _require_basis, dispersion_table

__all__ = ["Propagator", "Snapshots", "run_blocks"]

# Entries of G per row block: 2**15 complex128 values are 512 KiB, and with
# the block's phase table 1 MiB, well inside the reference machine's 4 MiB
# L2 per core.
BLOCK_ENTRIES = 2**15


class Propagator:
    """Exact free evolution and repeated measurement of one state, in place.

    measurement is a damping kernel, a region partition, or None for a run
    that is never measured. interval (natural time) is the leg length whose
    phase table, or once narrowed whose band kernel, is kept for the life
    of the engine; legs of any other length compute theirs when they are
    applied. rows is the range of rows delta the engine holds, all of
    0..N/2 by default; a measurement that cuts a column needs all of them.
    The state must be a position-basis vector on a power-of-two ring.
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
        self._n = n
        # Row 0's phase is exactly 1 on every leg, so a narrowed leg skips it.
        self._moving = 1 if rows.start == 0 else 0
        phi = np.fft.fft(state.amplitudes)
        if rows.start == 0:
            # The trace is sum |phi|^2 / N, checked once, by the block of row 0.
            trace = float(np.vdot(phi, phi).real) / n
            if abs(trace - 1.0) > 1e-12:
                raise ValueError(f"trace is {trace}, expected 1")
        # N is a power of two, so phi / n is exact and row 0 is |phi|^2 / N.
        self._g = np.multiply(_lagged(phi.conj(), rows), phi / n)

        self._band = None  # no measurement
        self._kernel = None  # the interval's band kernel, once narrowed
        self._narrow_to = None
        self._pending = 0.0
        self._work = None  # phases of other leg lengths, allocated on first use
        if measurement is not None:
            self._scale, band, window, cut = _sort_columns(measurement, n)
            self._band = band
            self._window = window
            # No cut column and a scale of 1 everywhere: the channel is the identity.
            ones = self._scale is None or bool(np.all(self._scale == 1.0))
            self._identity = not window and 2 * band > n and ones
            width = _smooth_width(4 * band - 3)
            if width < n and interval is not None:
                self._narrow_to = width
            if window:
                if rows != range(half):
                    raise ValueError("this measurement couples rows; hold all rows 0..N/2")
                # A PVM keeps or drops each entry: keep the ones it drops, to
                # zero them without a cast. A LINEAR kernel's mask multiplies.
                self._cut = ~cut if cut.dtype == bool else cut
                self._buffer = np.empty(cut.shape, dtype=complex)
                # conj exp(-2 pi i delta d / N) at [N/2 - delta, d - 1], for
                # buffer row N - delta: delta = N/2..1 down the rows, d = 1..c.
                sites = np.arange(n)
                turns = np.outer(sites[half - 1 : 0 : -1], sites[1 : window + 1]) % n
                self._twiddle = np.exp(-2j * np.pi * turns / n).conj()

        self._interval = interval
        self._phases = None
        if interval is not None:
            self._phases = self._phase_table(interval, np.empty_like(self._g))

    def _phase_table(self, t: float, out: np.ndarray) -> np.ndarray:
        """exp(i t (E(k - delta) - E(k))) into out, written straight into
        its imaginary part; exactly 1+0j on row 0."""
        energies = dispersion_table(self._n)
        out.real = 0.0
        np.subtract(_lagged(energies, self._rows), energies, out=out.imag)
        out.imag *= t
        return np.exp(out, out=out)

    def _band_kernel(self, phases: np.ndarray) -> np.ndarray:
        """fft_W of each moving row's circulant kernel ifft_N(phases), cut to
        the lags |l| <= 2L - 2 that carry the band onto itself; overwrites
        phases."""
        moving = phases[self._moving :]
        np.fft.ifft(moving, axis=1, out=moving)
        width, n = self._g.shape[1], self._n
        reach = 2 * self._band - 1
        kernel = np.zeros((moving.shape[0], width), dtype=complex)
        kernel[:, :reach] = moving[:, :reach]
        kernel[:, width - reach + 1 :] = moving[:, n - reach + 1 :]
        return np.fft.fft(kernel, axis=1, out=kernel)

    def advance(self, t: float) -> None:
        """Free evolution for natural time t; no transform. A narrowed
        engine only adds t to the leg it applies at the next measurement."""
        if self._kernel is not None:
            self._pending += t
            return
        if t == self._interval:
            phases = self._phases
        else:
            if self._work is None:
                self._work = np.empty_like(self._g)
            phases = self._phase_table(t, self._work)
        np.multiply(self._g, phases, out=self._g)

    def measure(self) -> None:
        """Apply the measurement channel once."""
        if self._band is None:
            raise ValueError("this run has no measurement")
        if self._identity:
            return
        if self._kernel is not None:
            self._leg()
        else:
            np.fft.ifft(self._g, axis=1, out=self._g)
            if self._narrow_to is not None:
                self._narrow()
        self._mask(self._g)
        if self._kernel is None:
            np.fft.fft(self._g, axis=1, out=self._g)

    def _narrow(self) -> None:
        """Keep only the band columns of H from now on, in a (rows, W)
        array, and free G and the interval's phase table for the band
        kernel."""
        self._work = None  # before the band is allocated, so the peak does not rise
        h, band, width = self._g, self._band, self._narrow_to
        self._g = np.zeros((h.shape[0], width), dtype=complex)
        self._g[:, :band] = h[:, :band]
        self._g[:, width - band + 1 :] = h[:, self._n - band + 1 :]
        del h
        phases, self._phases = self._phases, None
        self._kernel = self._band_kernel(phases)
        if self._scale is not None:
            scale = np.zeros(width, dtype=complex)
            scale[:band] = self._scale[:band]
            scale[width - band + 1 :] = self._scale[self._n - band + 1 :]
            self._scale = scale

    def _full_width(self) -> np.ndarray:
        """A temporary (rows, N) array for one call of a narrowed engine."""
        return np.empty((self._g.shape[0], self._n), dtype=complex)

    def _leg(self) -> None:
        """The pending free leg of a narrowed engine: an exact cyclic product
        of length W >= 4L - 3 with the leg's band kernel, which wraps
        nothing onto the band."""
        t, self._pending = self._pending, 0.0
        if t == 0.0:
            return
        if t == self._interval:
            kernel = self._kernel
        else:
            kernel = self._band_kernel(self._phase_table(t, self._full_width()))
        h = self._g[self._moving :]
        np.fft.fft(h, axis=1, out=h)
        np.multiply(h, kernel, out=h)
        np.fft.ifft(h, axis=1, out=h)

    def _mask(self, g: np.ndarray) -> None:
        """The channel on H[delta, d], N columns or a narrowed band's W."""
        half, width = g.shape
        band = self._band
        g[:, band : width - band + 1] = 0.0  # the columns it zeroes at every n
        if self._scale is not None:
            np.multiply(g, self._scale, out=g)  # 1 inside the window
        c = self._window
        if c:
            buffer, twiddle = self._buffer, self._twiddle
            # Column j of buffer is d = j + 1 and column j of mirror is N - d,
            # held at width - d. Buffer rows N/2..N - 1 are rows N - delta for
            # delta = N/2..1, the rows of twiddle; w conj(x) = conj(x conj(w))
            # builds them in place, in contiguous passes.
            mirror = g[:, width - 1 : width - c - 1 : -1]
            buffer[:half] = g[:, 1 : c + 1]
            upper = buffer[half:]  # rows N - delta, delta = N/2 - 1 .. 1
            upper[:] = mirror[half - 2 : 0 : -1]
            np.multiply(upper, twiddle[1:], out=upper)
            np.conjugate(upper, out=upper)
            np.fft.ifft(buffer, axis=0, out=buffer)
            if self._cut.dtype == bool:
                np.copyto(buffer, 0.0, where=self._cut)
            else:
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

    def _widen(self) -> np.ndarray:
        """G now, rebuilt from a narrowed engine's band: fft_N of the band
        in N columns, times the pending leg's phases."""
        h, band, n = self._g, self._band, self._n
        g = self._full_width()
        g[:, :band] = h[:, :band]
        g[:, band : n - band + 1] = 0.0
        g[:, n - band + 1 :] = h[:, h.shape[1] - band + 1 :]
        np.fft.fft(g, axis=1, out=g)
        if self._pending:
            # exp(i t E(k - delta)) exp(-i t E(k)), so no second table is needed
            turns = np.exp(1j * self._pending * dispersion_table(n))
            moving = g[self._moving :]
            np.multiply(moving, _lagged(turns, self._rows)[self._moving :], out=moving)
            np.multiply(moving, turns.conj(), out=moving)
        return g

    def record(self, snapshots: Snapshots, j: int) -> None:
        """Write this engine's rows of snapshot j: row sums, squared row
        norms and, if it holds row 0, the real part of row 0 and the
        largest imaginary part on it."""
        g = self._g if self._kernel is None else self._widen()
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
    couples = measurement is not None and _sort_columns(measurement, n)[2] > 0
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


def _lagged(x: np.ndarray, rows: range) -> np.ndarray:
    """x[(k - delta) mod N] at [delta - rows.start, k]: a strided view of x
    doubled, with no index table."""
    n = x.size
    doubled = np.concatenate((x, x))
    return sliding_window_view(doubled, n)[n - rows.stop + 1 : n - rows.start + 1][::-1]


def _smooth_width(m: int) -> int:
    """The smallest integer >= m with no prime factor above 7, a length
    numpy's FFT transforms fast."""
    while True:
        rest = m
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _sort_columns(
    measurement: DampingKernel | RegionPartition, n: int
) -> tuple[np.ndarray | None, int, int, np.ndarray]:
    """Sort the columns d of the measurement's mask on rho((n + d) mod N, n).

    Returns (scale, L, c, cut). Every column with min(d, N - d) >= L is 0
    at every n, and L <= N/2 + 1. Every cut column lies in the window of
    the columns d = 1..c and their mirrors N - d, with c < L. cut[n, d - 1]
    is the mask down column d = 1..c, an (N, c) array, bool for a PVM.
    scale[d] is the value of column d outside the window, which is constant
    there, and 1 inside it; it is None for a PVM, whose other columns below
    L are all 1. A minimal-image kernel's scale is its values, shared by
    every block; one built here is complex, which numpy would otherwise
    cast on every step.
    """
    sites = np.arange(n)
    separation = np.minimum(sites, n - sites)
    if isinstance(measurement, DampingKernel):
        values = measurement.values
        if measurement.distance_convention is DistanceConvention.MINIMAL_IMAGE:
            scale, c, cut = values, 0, np.empty((n, 0))
        else:
            # LINEAR: column d is values[d] where n + d < N and values[N - d]
            # past the wrap; a column inside the window whose two values
            # agree is masked by that value.
            mirrored = values[-sites]
            c = int(separation[values != mirrored].max(initial=0))
            window = sites[1 : c + 1]
            cut = np.where(sites[:, None] < n - window, values[window], mirrored[window])
            inside = (separation > 0) & (separation <= c)
            scale = np.where(inside, 1.0, values).astype(complex)
        return scale, 1 + max(c, int(separation[scale != 0].max())), c, cut
    if measurement.n_regions == 1:
        return None, n // 2 + 1, 0, np.empty((n, 0))
    # Regions are contiguous and do not wrap, so some pair at separation d
    # shares a region iff min(d, N - d) is below the largest region's size;
    # with two regions or more, some pair at every d > 0 does not.
    largest = max(np.diff(measurement.boundaries + (n,)))
    c = int(min(largest - 1, n // 2))
    region = measurement.region_of
    cut = region[(sites[:, None] + sites[1 : c + 1]) % n] == region[:, None]
    return None, c + 1, c, cut

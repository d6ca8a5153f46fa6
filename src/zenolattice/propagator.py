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

- free evolution is an elementwise phase exp(i t (E(k - delta) - E(k)))
  = u[k - delta] conj u[k], with u = exp(i t E) one N-site vector: two
  multiplies by views of u, on every row but row delta = 0, the momentum
  distribution, whose phase is exactly 1: 0 FFT passes;
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
2L - 1 band columns |d| < L. An engine whose width W, the smallest
integer >= 4L - 3 with no prime factor above 7, is below N narrows at its
first measurement. It keeps the band columns of H in a (rows, W) array,
column -d at W - d, frees G, and then builds the band kernel K of the last
leg's length. Multiplying row delta of G by its phases is a cyclic
convolution of row delta of H with ifft_N(phases) along d. On the band
only the lags |l| <= 2L - 2 of that kernel reach the band, and with
W >= 4L - 3 a cyclic product of length W wraps none of its terms onto
the band. So a narrowed leg is exact: fft_W, a multiply by K = fft_W of
the kernel cut to those lags, ifft_W, on every row but row 0, whose phase
is exactly 1. K is built one chunk of rows at a time, of CHUNK_ENTRIES
entries N columns wide: the leg applied to a chunk of ones, ifft_N, and
that chunk's lags written into K. Then:

- advance(t) only adds t to a pending time;
- measure applies the pending leg with the K of the last leg length, or
  with a K built the same way for another pending time, which replaces
  it; then the channel: it zeroes columns L..W - L and runs the window
  step above with the mirror column N - d held at W - d. Two transforms
  of length W replace two of length N: for pvm_packet (N = 256, L = 42)
  W = 168;
- record rebuilds G one chunk of rows at a time, as fft_N of the band in
  N columns times the pending leg's phases, and reads each chunk as
  above into that chunk's rows of the snapshot's partials.

So a narrowed engine holds no array N columns wide but one chunk. Every
engine builds the window step's (N, c) buffer in its first measurement, a
narrowing one after narrowing has freed G, so G, the band and the buffer
are never all alive.

Free legs, channels without cut columns and snapshots all act on each row
delta alone, so a Propagator may hold any range of rows, built from the
state's momentum amplitudes phi with G[delta, k] = conj phi[k - delta] phi[k] / N,
and a leg's phases on those rows are u[k - delta] conj u[k]: both are read
off strided views of phi and u doubled, with no index table. run_blocks
compiles the run's measurement once, into a ChannelPlan that every block's
engine reads; a block of a per-site PVM or a compact kernel narrows on its
own. It splits the rows of such a run into blocks of about BLOCK_ENTRIES
entries, small enough that a block's G stays in a core's L2 cache, and
takes each block through the whole schedule on its own, one after the
other, so the run holds one block's engine at a time. A snapshot writes
its rows' partials, the row sums s[delta], the squared norms of the rows
and the real part of row 0 with its largest imaginary part, into a
Snapshots object indexed by row, which allocates a snapshot's partials
when the first block records it; the observables are read off the
combined partials in a fixed order, so no result depends on how the rows
were split. A channel that cuts a column (a PVM of two regions or more,
most LINEAR kernels) couples rows through its transform along delta, so
such a run takes one block of all rows.

Row cut. In a run whose plan does not couple rows (unmeasured, a
minimal-image kernel, an identity or per-site PVM, narrowed or not) no
step moves weight from one row to another. A free leg multiplies row
delta by unit-modulus phases; a channel step convolves it along k with
w = DFT(v) / N, for v[d] the plan's multiplier on column d. So a row's
l1 norm grows by at most rho = sum |w| per measurement, and rho is 1 for
a PVM and for a PSD kernel, whose w >= 0 sums to values[0] = 1. The rows
start at ||G[delta]||_1 = (1/N) sum_k |phi(k)| |phi(k - delta)|, which
row_cut correlates directly, in O(N) memory: an FFT's round-off floor
would swamp these sums of 1e-15 and below. p(n) is the inverse FFT of the
row sums, and |s[delta]| <= ||G[delta]||_1, so dropping rows moves no
entry of p(n) by more than
C = (1/N) sum over the dropped rows of ||G[delta]||_1 rho^m,
with m the run's measurements and each row but N/2 counted with its
mirror. run_blocks starts from the rows 0..K - 1, for the smallest K with
C0 = C <= 2**-52, and splits those into its blocks; the other rows of
every snapshot stay 0. Row 0 is always kept, so p(k) and its moments are
exact. The purity loses at most the dropped rows' squared norms, at most
(N C)^2, below half an ulp of a purity >= 1/N for N up to 2**16. A plan
that couples rows keeps all N/2 + 1, and so does a state whose rows are
all above the cut: a position eigenstate, whose rows all have l1 norm 1.

Re-cut. A pointer damps every row delta > 0 as the run goes on: over the
40 applications of the pointer_n1024 benchmark workload row 10's l1 norm
falls from 0.62 to 4.9e-28. So run_blocks gives each block an equal share
of the budget 2**-52 - C0, fixed before any block starts, and after each
measurement a block drops the longest suffix of its rows whose current
l1 norms, counted as in C with rho raised to the measurements still to
come, fit in what is left of its share. The bound holds from the drop on:
no later step lets a row's l1 norm grow by more than rho per measurement.
The run's certificate C is C0 plus every row a block dropped, still at
most 2**-52, and no decision depends on another block.
A block drops rows through a prefix view of the one G (once narrowed,
band) array it built, and of its K, and steps the kept rows there: no
copy, no resize. The run holds one block's engine at a time, and a
block's peak comes at its start or at narrowing, before any re-cut, so
letting the dropped rows go sooner would lower no peak; they go with the
engine. A block whose rows are all gone stops: its remaining operations
would step and record no row.
Rows the blocks of pointer_n1024 (3 blocks, 80 rows at the start) hold
after 1, 5, 10, 20 and 40 applications: 78, 33, 14, 6 and 2, 13.2 on
average. Propagator itself holds all rows by default and drops none.

The position-basis functions in lattice and channels compute the same
steps one at a time; the tests use them as this engine's reference.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import DampingKernel, DistanceConvention, RegionPartition
from .lattice import Basis, StateVector, _require_basis, dispersion_table

__all__ = ["ChannelPlan", "Propagator", "Snapshots", "row_cut", "run_blocks"]

# Entries of G per row block: 2**15 complex128 values are 512 KiB, well
# inside the reference machine's 4 MiB L2 per core.
BLOCK_ENTRIES = 2**15
# Entries per chunk of rows that a narrowed engine takes N columns wide: a
# record's rebuilt G and a band kernel's ones, 16 rows at N = 256.
CHUNK_ENTRIES = 2**12
# The certificate budget: no p(n) entry of a row-local run moves by more.
BUDGET = 2.0**-52


class ChannelPlan:
    """One run's measurement compiled into the mask on H[delta, d] that
    every block's engine applies; nothing writes to it afterwards.

    band is L of the module docstring, at most N/2 + 1, window is its
    c < L, and couples is c > 0. width is W when W < N, so that the first
    measurement narrows to it, and N otherwise. cut[n, d - 1] is the (N, c) mask down columns
    d = 1..c: the entries a PVM drops, to zero them without a cast, or a
    LINEAR kernel's multiplier. scale[d] is the value of column d outside
    the window, constant there, and 1 inside it, at width columns with -d
    at width - d; None for a PVM, whose other columns below L are all 1. A
    minimal-image kernel that keeps N columns has its values as scale; one
    built here is complex, which numpy would otherwise cast on every step.
    twiddle is conj exp(-2 pi i delta d / N) at [N/2 - delta, d - 1], for
    buffer row N - delta: delta = N/2..1 down the rows, d = 1..c.
    growth is rho = sum |w| of the module docstring, for w = DFT(values) / N
    of a kernel, 1 for a PVM; it bounds a row's l1 growth per measurement
    only in a plan that does not couple rows.
    """

    def __init__(self, measurement: DampingKernel | RegionPartition) -> None:
        n = self.n = measurement.n_sites
        sites = np.arange(n)
        separation = np.minimum(sites, n - sites)
        scale, growth = None, 1.0
        if isinstance(measurement, DampingKernel):
            values = measurement.values
            growth = float(np.abs(np.fft.fft(values)).sum()) / n
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
            band = 1 + max(c, int(separation[scale != 0].max()))
        elif measurement.n_regions == 1:
            band, c, cut = n // 2 + 1, 0, np.empty((n, 0))
        else:
            # Regions are contiguous and do not wrap, so some pair at separation d
            # shares a region iff min(d, N - d) is below the largest region's size;
            # with two regions or more, some pair at every d > 0 does not.
            largest = max(np.diff(measurement.boundaries + (n,)))
            c = int(min(largest - 1, n // 2))
            region = measurement.region_of
            cut = region[(sites[:, None] + sites[1 : c + 1]) % n] != region[:, None]
            band = c + 1
        self.band, self.window, self.couples, self.growth = band, c, c > 0, growth
        self.width = min(_smooth_width(4 * band - 3), n)
        # No cut column and a scale of 1 everywhere: the channel is the identity.
        ones = scale is None or bool(np.all(scale == 1.0))
        self.identity = not c and 2 * band > n and ones
        if scale is not None and self.width < n:
            # A narrowing engine applies the scale only after it narrows.
            scale = _band_columns(scale, band, np.empty(self.width, dtype=complex))
        turns = np.outer(sites[n // 2 : 0 : -1], sites[1 : c + 1]) % n
        self.twiddle = np.exp(-2j * np.pi * turns / n).conj()
        self.scale, self.cut = scale, cut
        for table in (self.scale, self.cut, self.twiddle):
            if table is not None:
                table.flags.writeable = False


class Propagator:
    """Exact free evolution and repeated measurement of one state, in place.

    plan is the run's compiled measurement, shared with every other block
    of the run, or None for a run that is never measured. The engine keeps
    the phase vector exp(i t E), doubled, of the last leg length t it
    applied, or once narrowed that length's band kernel, so a run of equal
    legs builds it once; a leg of another length builds its own in its
    place. Besides G, the plan and, for a channel that couples rows, the
    window step's buffer, an engine that has not narrowed holds no array of
    N columns per row; a narrowed one holds its band, K and the buffer, and
    takes N columns only one chunk of CHUNK_ENTRIES entries at a time, for
    a record or a new K. rows is the range of rows delta the engine
    holds, all of 0..N/2 by default; a plan that couples rows needs all of
    them. share, if given, is the part of the run's certificate budget that
    the engine may spend on rows it drops after each measurement (the
    module docstring's re-cut), and measurements the number of measurements
    the run makes; spent is what it has spent. A narrowed engine re-cuts
    too, charging each row N sum_d |H[delta, d]| >= ||G[delta]||_1. It
    steps its kept rows as a prefix view of the arrays it built and frees
    none of them before it goes: a run holds one engine at a time. Without
    a share the engine keeps its rows. The state must be a position-basis
    vector on a power-of-two ring.
    """

    def __init__(
        self,
        state: StateVector,
        plan: ChannelPlan | None = None,
        rows: range | None = None,
        share: float | None = None,
        measurements: int = 0,
    ) -> None:
        _require_basis(state, Basis.POSITION, "Propagator")
        n = state.n_sites
        if plan is not None and plan.n != n:
            raise ValueError("measurement size does not match the state")
        half = n // 2 + 1
        rows = range(half) if rows is None else rows
        if plan is not None and plan.couples:
            if rows != range(half) or share is not None:
                raise ValueError("this measurement couples rows; hold all rows 0..N/2, drop none")
        self._plan = plan
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
        # Row by row: one broadcast multiply takes numpy's iterator buffers
        # beside G, and a block's start sets the run's peak. pointer_n1024's
        # tracemalloc peak is 0.812 MiB row by row, 0.952 MiB in one multiply.
        scaled = phi / n
        self._g = np.empty((len(rows), n), dtype=complex)
        for row, lagged in zip(self._g, _lagged(np.tile(phi.conj(), 2), rows)):
            np.multiply(lagged, scaled, out=row)

        self._share = share
        self._to_come = measurements
        self.spent = 0.0
        self._pending = 0.0
        self._buffer = None  # the window step's (N, c) buffer, built when first used
        # exp(i t E) doubled for a leg of length _table_t, or once narrowed its K
        self._table = None
        self._table_t = None

    @property
    def _narrowed(self) -> bool:
        """Whether the engine holds the band of H in W < N columns, not G."""
        return self._g.shape[1] < self._n

    def _phase_vector(self, t: float) -> np.ndarray:
        """u = exp(i t E(k)), doubled for _lagged."""
        return np.tile(np.exp(1j * t * dispersion_table(self._n)), 2)

    def _chunks(self, rows: range):
        """(slice, rows in it, a (rows, N) view) for each chunk of rows, of
        CHUNK_ENTRIES // N rows, or one row when a row has more entries. The
        views share one buffer, so a chunk is valid until the next is taken."""
        step = max(1, CHUNK_ENTRIES // self._n)
        buffer = np.empty((min(step, len(rows)), self._n), dtype=complex)
        for lo in range(0, len(rows), step):
            part = slice(lo, lo + step)
            yield part, rows[part], buffer[: len(rows[part])]

    def _free_leg(self, g: np.ndarray, turns: np.ndarray, rows: range) -> np.ndarray:
        """Multiply g, the rows of G in rows, N columns, by the phases
        exp(i t (E(k - delta) - E(k))) = u[k - delta] conj u[k], for turns
        the doubled u of _phase_vector; row 0, whose phase is exactly 1, is
        left alone when rows holds it."""
        skip = 1 if rows.start == 0 else 0
        moving = g[skip:]
        np.multiply(moving, _lagged(turns, rows[skip:]), out=moving)
        np.multiply(moving, turns[: self._n].conj(), out=moving)
        return g

    def _band_kernel(self, turns: np.ndarray) -> np.ndarray:
        """fft_W of each moving row's circulant kernel ifft_N(phases), cut to
        the lags |l| <= 2L - 2 that carry the band onto itself, for the
        phases of the leg whose doubled u is turns: the leg applied to a
        chunk of ones at a time, whose lags are written into K."""
        rows = self._rows[self._moving :]
        kernel = np.empty((len(rows), self._plan.width), dtype=complex)
        for part, chunk, phases in self._chunks(rows):
            phases.fill(1.0)
            self._free_leg(phases, turns, chunk)
            np.fft.ifft(phases, axis=1, out=phases)
            lags = _band_columns(phases, 2 * self._plan.band - 1, kernel[part])
            np.fft.fft(lags, axis=1, out=lags)
        return kernel

    def _leg_table(self, t: float) -> np.ndarray:
        """The doubled u of a leg of length t, or once narrowed its band
        kernel: the kept one if the last leg had length t, else a new one
        that takes its place."""
        if t != self._table_t:
            self._table = None  # before the new one, so the peak does not rise
            turns = self._phase_vector(t)
            self._table = self._band_kernel(turns) if self._narrowed else turns
            self._table_t = t
        return self._table

    def advance(self, t: float) -> None:
        """Free evolution for natural time t; no transform. A narrowed
        engine only adds t to the leg it applies at the next measurement."""
        if self._narrowed:
            self._pending += t
            return
        self._free_leg(self._g, self._leg_table(t), self._rows)

    def measure(self) -> None:
        """Apply the measurement channel once; an engine with a share then
        drops the rows it can (_recut)."""
        if self._plan is None:
            raise ValueError("this run has no measurement")
        if self._plan.identity:
            return
        if self._narrowed:
            self._leg()
        else:
            np.fft.ifft(self._g, axis=1, out=self._g)
            if self._plan.width < self._n:
                self._narrow()
        self._mask(self._g)
        if not self._narrowed:
            np.fft.fft(self._g, axis=1, out=self._g)
        if self._share is not None:
            self._recut()

    def _recut(self) -> None:
        """Drop the longest suffix of rows whose current l1 norms, each row
        but N/2 counted with its mirror and times rho^(measurements still to
        come) / N, fit in what is left of the share; row 0 stays. The norms
        are read one row at a time from the top, with no (rows, N)
        temporary. A narrowed engine holds H, not G, and charges each row
        N sum_d |H[delta, d]| >= ||G[delta]||_1."""
        self._to_come -= 1
        n, start = self._n, self._rows.start
        weight = self._plan.growth**self._to_come * (1.0 if self._narrowed else 1.0 / n)
        kept, spent = len(self._rows), self.spent
        while kept > self._moving:
            cost = weight * float(np.abs(self._g[kept - 1]).sum())
            if 2 * (start + kept - 1) < n:
                cost *= 2.0  # the row stands for its mirror too
            if spent + cost > self._share:
                break
            spent, kept = spent + cost, kept - 1
        if kept == len(self._rows):
            return
        self.spent = spent
        self._rows = range(start, start + kept)
        self._g = self._g[:kept]
        if self._narrowed and self._table is not None:
            self._table = self._table[: kept - self._moving]

    def _narrow(self) -> None:
        """Keep only the band columns of H from now on, in a (rows, W)
        array, free G, and then build the band kernel of the last leg's
        length in place of its phase vector."""
        band = np.empty((len(self._rows), self._plan.width), dtype=complex)
        self._g = _band_columns(self._g, self._plan.band, band)
        if self._table is not None:
            self._table = self._band_kernel(self._table)  # from the kept u

    def _leg(self) -> None:
        """The pending free leg of a narrowed engine: an exact cyclic product
        of length W >= 4L - 3 with the leg's band kernel, which wraps
        nothing onto the band."""
        t, self._pending = self._pending, 0.0
        if t == 0.0:
            return
        kernel = self._leg_table(t)
        h = self._g[self._moving :]
        np.fft.fft(h, axis=1, out=h)
        np.multiply(h, kernel, out=h)
        np.fft.ifft(h, axis=1, out=h)

    def _mask(self, g: np.ndarray) -> None:
        """The channel on H[delta, d], N columns or a narrowed band's W."""
        half, width = g.shape
        plan = self._plan
        g[:, plan.band : width - plan.band + 1] = 0.0  # the columns it zeroes at every n
        if plan.scale is not None:
            np.multiply(g, plan.scale, out=g)  # 1 inside the window
        c = plan.window
        if c:
            if self._buffer is None:  # built here, once a narrowing engine has freed G
                self._buffer = np.empty((self._n, c), dtype=complex)
            buffer, twiddle = self._buffer, plan.twiddle
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
            if plan.cut.dtype == bool:
                np.copyto(buffer, 0.0, where=plan.cut)
            else:
                np.multiply(buffer, plan.cut, out=buffer)
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

    def _g_chunks(self):
        """(rows, G on those rows) over the engine's rows: G itself, or once
        narrowed G rebuilt one chunk of rows at a time, as fft_N of the band
        in N columns times the pending leg's phases."""
        if not self._narrowed:
            yield self._rows, self._g
            return
        turns = self._phase_vector(self._pending) if self._pending else None
        for part, rows, g in self._chunks(self._rows):
            _band_columns(self._g[part], self._plan.band, g)
            np.fft.fft(g, axis=1, out=g)
            if turns is not None:
                self._free_leg(g, turns, rows)
            yield rows, g

    def record(self, snapshots: Snapshots, j: int) -> None:
        """Write this engine's rows of snapshot j: row sums, squared row
        norms and, if it holds row 0, the real part of row 0 and the
        largest imaginary part on it."""
        sums, norms, momentum, imag = snapshots.partials(j)
        for rows, g in self._g_chunks():
            part = slice(rows.start, rows.stop)
            g.sum(axis=1, out=sums[part])
            pairs = g.view(np.float64)  # |G|^2 is the sum of squares of re and im
            np.einsum("ij,ij->i", pairs, pairs, out=norms[part])
            if rows.start == 0:
                momentum[:] = g[0].real
                imag[0] = np.max(np.abs(g[0].imag))


class Snapshots:
    """Per-row partials of a run's snapshots, filled by Propagator.record
    one block after the other, and the observables combined from them.

    A snapshot's partials are allocated when the first block records it,
    so a run holds only the snapshots it has reached. Each observable reads
    all rows in one fixed order, so it does not depend on how the rows
    were split into blocks.
    """

    def __init__(self, count: int, n: int) -> None:
        self._n = n
        self._partials: list[tuple | None] = [None] * count

    def partials(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Snapshot j's row sums, squared row norms, p(k) and the largest
        imaginary part on row 0 (one entry), allocated on first use."""
        if self._partials[j] is None:
            half = self._n // 2 + 1
            # zeros: rows that no block holds, cut by row_cut, add nothing
            self._partials[j] = (
                np.zeros(half, dtype=complex),
                np.zeros(half),
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
    ops: list[tuple],
) -> float:
    """Take every block of the rows that row_cut keeps through ops, each
    block on a Propagator of its own; all of them read the one ChannelPlan
    built here. Returns the run's certificate C <= 2**-52: row_cut's plus
    what every block spent on the rows it dropped.

    ops is a list of (method, *args), with method Propagator.advance,
    Propagator.measure or Propagator.record; a block runs them in order.
    In a run whose plan does not couple rows, every block gets an equal
    share of the budget that row_cut leaves, fixed before any block
    starts, so what a block drops does not depend on the blocks before it.
    The blocks run one after the other, each engine freed before the next
    is built. A block whose engine holds no rows stops there: what is left
    of ops would step and record no row. The block of row 0 never drops it
    and is the first to record, so it allocates every snapshot's partials.
    """
    n = state.n_sites
    plan = None if measurement is None else ChannelPlan(measurement)
    measurements = sum(op[0] is Propagator.measure for op in ops)
    kept, certificate = row_cut(state, plan, measurements)
    couples = plan is not None and plan.couples
    # No more blocks than rows: past N = BLOCK_ENTRIES a row alone fills one.
    count = 1 if couples else min(kept, -(-kept * n // BLOCK_ENTRIES))
    # A hair under an equal part, so that math.fsum of the parts spent
    # cannot round C past the budget.
    share = None if couples else (BUDGET - certificate) / count * (1.0 - 2.0**-50)
    bounds = [kept * i // count for i in range(count + 1)]

    def run_block(rows: range) -> float:
        # The engine goes on return, before the next block's is built.
        engine = Propagator(state, plan, rows, share, measurements)
        for method, *args in ops:
            if not engine._rows:
                break  # a later step or record would read no row
            method(engine, *args)
        return engine.spent

    spent = [run_block(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    return math.fsum([certificate, *spent])


def row_cut(
    state: StateVector, plan: ChannelPlan | None, measurements: int
) -> tuple[int, float]:
    """(K, C0) of the module docstring: the rows 0..K - 1 that a run of
    this many measurements starts with, and the certificate C0 <= 2**-52
    that bounds how far dropping the others moves any entry of p(n). A plan
    that couples rows keeps all N/2 + 1, with C0 = 0."""
    n = state.n_sites
    half = n // 2 + 1
    if plan is not None and plan.couples:
        return half, 0.0
    magnitude = np.abs(np.fft.fft(state.amplitudes))
    # ||G[delta]||_1 = (1/N) sum_k |phi(k)| |phi(k - delta)|, correlated
    # directly: an FFT's round-off floor would swamp the smallest rows.
    l1 = np.correlate(np.concatenate([magnitude, magnitude[: half - 1]]), magnitude) / n
    l1[1 : n // 2] *= 2.0  # rows 1..N/2 - 1 stand for their mirrors too
    growth = 1.0 if plan is None else plan.growth**measurements
    # dropped[K] = C for a cut at K, summed from the smallest rows up
    dropped = np.append(np.cumsum(l1[::-1])[::-1], 0.0) * growth / n
    kept = 1 + int(np.argmax(dropped[1:] <= BUDGET))
    return kept, float(dropped[kept])


def _lagged(doubled: np.ndarray, rows: range) -> np.ndarray:
    """x[(k - delta) mod N] at [delta - rows.start, k], for doubled the
    contiguous N-vector x followed by itself: a view whose row delta starts
    at element N - delta, with no index table."""
    n, step = doubled.size // 2, doubled.itemsize
    offset = (n - rows.start) * step
    return np.ndarray((len(rows), n), doubled.dtype, doubled, offset, (-step, step))


def _band_columns(a: np.ndarray, keep: int, out: np.ndarray) -> np.ndarray:
    """out, complex: the columns d = 0..keep - 1 of a and their mirrors -d,
    held at the end, and 0 elsewhere."""
    width = out.shape[-1]
    out[..., :keep] = a[..., :keep]
    out[..., keep : width - keep + 1] = 0.0
    out[..., width - keep + 1 :] = a[..., a.shape[-1] - keep + 1 :]
    return out


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

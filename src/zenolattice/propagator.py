"""The stepping engine: one run's density matrix in half chord coordinates.

Chord rows. The engine stores the momentum-basis matrix R of
lattice.density_to_momentum in chord (difference) coordinates,
G[delta, k] = R[k, k - delta] with indices mod N and k on the contiguous
axis (Ozorio de Almeida, Phys. Rep. 295 (1998) 265). rho is Hermitian, so
G[-delta, k] = conj G[delta, k + delta], and the engine keeps only rows
delta = 0..N/2: Hermiticity holds by construction and cannot drift.
Round-off can still put imaginary parts on the distributions, which the
snapshots check. In these coordinates:

- a free leg is the elementwise phase exp(i t (E(k - delta) - E(k))) =
  u[k - delta] conj u[k], with u = exp(i t E): two multiplies by views of
  one phase table, on every row but row 0, whose phase is exactly 1, and
  0 FFT passes;
- an inverse FFT along k gives H[delta, d], where d = m - n is the site
  separation of rho(m, n), and a further inverse FFT along delta gives
  rho((n + d) mod N, n) up to a factor N. Every channel is a fixed mask on
  that. Column d of the mask is either one value at every n (constant),
  a multiply of column d of H with no transform along delta, or not (cut).
  A minimal-image kernel cuts no column: its step is an inverse FFT along
  k, a multiply by values[d] and an FFT back, one pass in all;
- a region PVM of two regions or more, the largest with L sites, cuts the
  columns with 0 < min(d, N - d) < L, and a LINEAR kernel the columns with
  values[d] != values[N - d]. The mask is symmetric, so these lie in a
  window of the columns d = 1..c and their mirrors N - d, with
  c = min(L - 1, N/2) for a PVM and the largest cut min(d, N - d) for a
  LINEAR kernel. By H[N - delta, d] = exp(-2 pi i delta d / N)
  conj H[delta, N - d], the window step (_mask) transforms along delta
  only a (c, N) buffer that basic slices fill and empty: 1 + 2c/N passes,
  with no twiddle in the symmetric frame of a narrowed engine (below);
- a snapshot costs O(N^2) and no transform: p(k) is row 0, p(n) is the
  inverse FFT of the row sums s[delta], with s[N - delta] = conj s[delta],
  and the purity is the sum of |G|^2 over all N rows (Snapshots).

Steps. An engine is stepped by two calls. measure(t) applies free
evolution for natural time t since its last measurement, or since t = 0 in
its pure stage, and then the channel. record(snapshots, j, t) reads the
state t after its last measurement, or after t = 0, and writes nothing to
it, so adding record times moves no other record.

Pure stage. Until its first measurement a run's state is pure, so an
engine holds only phi = fft(psi): a record at t reads psi(t) off phi
(_pure_record), and the first measurement builds G of psi(t), or for a plan
that narrows the band below (_pure_chunks). An unmeasured run never leaves
this stage, and each of its records reads psi at its own time. A run whose
channel is the identity, or whose schedule applies no measurement (no
interval, or a first measurement after the last record), is the unmeasured
run: harness.run_schedule gives it no plan, and no engine checks for the
identity.

Band. After one measurement H holds only the 2L - 1 band columns |d| < L,
for L = 1 + the largest min(d, N - d) that the channel leaves nonzero: the
largest region of a PVM, 1 for a per-site PVM, the support of a compact
kernel. A leg multiplies row delta of G by its phases, which is a cyclic
convolution of row delta of H with ifft_N(phases) along d, and only the
lags |l| <= 2L - 2 of that kernel reach the band. A cyclic product of
length W >= 4L - 3 wraps none of them onto the band. So an engine whose W,
the smallest such integer with no prime factor above 7, is below N narrows
at its first measurement, and its legs are exact: fft_W, a multiply by
K = fft_W of the kernel cut to those lags, and ifft_W, on every row but
row 0. It stores the band d-major, a (W, rows) array read as a (rows, W)
view with column -d at W - d. A measurement applies its leg before the
channel, with the K of the last leg length or a new one (_band_kernel). A
narrowed engine never holds G: narrowing builds G's rows a chunk at a time
and keeps their band columns (_pure_band), each row on its own, since a
transform along delta would spread each column's round-off over every row,
which the row cut below cannot allow. A record on the grid reads the band
(_band_record); one off it rebuilds G of its time a chunk of rows at a time
(_g_chunks). An engine of N columns records off the grid with no leg
applied: its squared row norms and p(k), which no leg changes, are read off
G, and its row sums are those of G times the leg's phases.

Symmetric frame. A narrowed engine stores H'[delta, d] = exp(-i pi delta d
/ N) H[delta, d], d signed, the band in Weyl's symmetric chord coordinates
(Ozorio de Almeida, above), in which its leg kernel is real: the kernel of
row delta is ifft_N of exp(i t (E(k - delta) - E(k))), and in the frame
that is the transform of exp(i t (E(j - delta/2) - E(j + delta/2))), whose
conjugate is its value at -j because E(k) = E(-k). So K, the fft_W of a
real kernel, is Hermitian, and the engine keeps its columns m <= W/2, W//2
+ 1 per moving row; a leg multiplies the columns m > W/2 by conj K[W - m].
Row 0, column 0 and |H| do not move, so a record on the grid and a re-cut
read the band as they would H. No phase of the frame is built per entry: G
rolled along k by ceil(delta/2), x[k - delta] y[k] read as x[k - a] y[k + b]
with a + b = delta, a = floor(delta/2), has ifft_N exp(-2 pi i b d / N)
H[delta, d], so H' is that on an even row and that times v[d] = exp(i pi
d / N) on an odd one. Narrowing and a new K build their rows so, off
strided views of the Weyl table of the two vectors (_weyl_pairs), and a
record off the grid runs it backwards: the band times v on odd rows, fft_N,
is G rolled by floor(delta/2), which a record reads alike, and the leg's
phases are read rolled alike. In the window step, H'[N - delta, d] =
conj H'[delta, -d], so the buffer's upper half is its mirror's conjugate,
with no twiddle; an odd column times v, and an even one as it is, is column
d of H shifted by floor(d/2) along delta, so its mask is the plan's cut
rolled by floor(d/2) along n, and the column takes conj v after the fft.
The plan's v is one N-vector, with delta' signed; v[N - delta'] is conj
v[delta'] but at delta' = N/2, whose entry _mask sets on its own.

Scratch. The band's zero padding, rows L..W - L of the d-major array, is
one contiguous block of at least (2L - 2)(N/2 + 1) entries, more than the
(L - 1) N of L - 1 rows of N columns. Every N-wide scratch of a narrowed
engine lies there and is set back to 0 after use (_scratch): narrowing's
chunks of G, a new K's chunks, records on and off the grid, and the window
step's (c, N) buffer, with the mirror column N - d held at W - d. Only where
the padding holds less than one row of N, or is not contiguous (a re-cut's
prefix view), is it one fresh chunk of CHUNK_ENTRIES entries. The d-major
layout is kept for that memory, not for speed. A narrowed engine holds its
band, K and, from its plan, the rolled cut and v: no array of N columns
per row and no (c, N/2) table. An engine of N columns holds G, the leg's
phase table (_phase_vector) and, for a window step, its own (c, N) buffer
and its plan's (c, N/2) twiddle table, and no other array of N columns per
row.

Row blocks. Free legs, channels without cut columns and snapshots act on
each row delta alone, so a Propagator may hold any range of rows, and
run_blocks steps such a run in blocks of about BLOCK_ENTRIES entries, one
after the other. A channel that cuts a column couples rows through its
transform along delta, so such a run is one block of all rows, and so is
an unmeasured run. Snapshots reads the blocks' partials in a fixed order,
so no result depends on how the rows were split.

Ufunc buffer. numpy copies an operand that is broadcast or not contiguous
with the output through an iterator buffer, which it allocates on each
such call: G's build, a leg's lagged view of u, a kernel's scale multiply,
and every multiply over a strided view of a d-major array. At numpy's
default of 8192 elements that is 128 KiB of complex128 per operand a call,
so engines step in in_one_row_buffer: one row of N, and the same results.

Row cut. In a measured run whose plan does not couple rows no step moves
weight from one row to another: a free leg multiplies row delta by
unit-modulus phases, and a channel step convolves it along k with
w = DFT(v) / N, for v[d] the plan's multiplier on column d. So a row's l1
norm grows by at most rho = sum |w| per measurement, which is 1 for a PVM
and for a PSD kernel. The rows start at ||G[delta]||_1 = (1/N) sum_k
|phi(k)| |phi(k - delta)|, which row_cut correlates directly, in O(N)
memory. p(n) is the inverse FFT of the row sums, and |s[delta]| <=
||G[delta]||_1, so dropping rows moves no entry of p(n) by more than
C = (1/N) sum over the dropped rows of ||G[delta]||_1 rho^m, with m the
run's measurements and each row but N/2 counted with its mirror.
run_blocks keeps the rows 0..K - 1 for the smallest K with C0 = C <=
2**-52. Row 0 is always kept, so p(k) and its moments are exact. The
purity loses at most (N C)^2, below half an ulp of a purity >= 1/N for N
up to 2**16. A plan that couples rows keeps all N/2 + 1 rows.

Re-cut. A pointer damps every row delta > 0 as the run goes on. So
run_blocks gives each block an equal share of the budget 2**-52 - C0,
fixed before any block starts, and after each measurement a block drops
the longest suffix of its rows whose current l1 norms, counted as in C
with rho raised to the measurements still to come, fit in what is left of
its share; a narrowed block charges N sum_d |H[delta, d]| >= ||G[delta]||_1.
No later step lets a row's l1 norm grow by more than rho per measurement,
so the run's certificate C, C0 plus every row a block dropped, is still at
most 2**-52, and no decision depends on another block. A block keeps its
rows as a prefix view of the arrays it built, with no copy, and stops once
they are all gone. Propagator itself holds all rows and drops none.

The position-basis functions in lattice and channels compute the same
steps one at a time; the tests use them as this engine's reference.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, TypeVar

import numpy as np

from .channels import DampingKernel, DistanceConvention, RegionPartition
from .lattice import StateVector, dispersion_table

__all__ = ["ChannelPlan", "Propagator", "Snapshots", "in_one_row_buffer", "row_cut", "run_blocks"]

# Entries of G per row block of a row-local run, which peaks at one
# block's G: 2**14 complex128 values are 256 KiB. Only such a run splits;
# an unmeasured run or one whose plan couples rows is one block.
BLOCK_ENTRIES = 2**14
# Entries of the chunk of rows, N columns wide, that a narrowed engine takes
# where its band's padding cannot hold its scratch (_scratch): 16 rows at
# N = 256.
CHUNK_ENTRIES = 2**12
# The certificate budget: no p(n) entry of a row-local run moves by more.
BUDGET = 2.0**-52

T = TypeVar("T")


class ChannelPlan:
    """One run's measurement compiled into the mask on H[delta, d] that
    every block's engine applies; nothing writes to it afterwards.

    band is L of the module docstring, at most N/2 + 1, window is its
    c < L, and couples is c > 0. width is W when W < N, so that the first
    measurement narrows to it, and N otherwise. The window's tables are
    d-major, as the window step's buffer: cut[d - 1, n] is the (c, N) mask
    along columns d = 1..c, the entries a PVM drops, to zero them without a
    cast, or a LINEAR kernel's multiplier. A plan of N columns has
    twiddle[d - 1, N/2 - delta] = conj exp(-2 pi i delta d / N), for buffer
    entry N - delta: delta = N/2..1 along each row, and half_shift None. A
    narrowing plan works in the module docstring's symmetric frame: its
    cut is rolled by floor(d/2) along n, half_shift is the N-vector
    v[delta'] = exp(i pi delta' / N), delta' signed, and twiddle is None.
    Each phase is exp of an integer reduced mod 2N or N. scale[d] is the
    value of column d outside the window, constant there, and 1 inside it,
    at width columns with -d at width - d; None for a PVM, whose other
    columns below L are all 1. A minimal-image kernel that keeps N columns
    has its values as scale; one built here is complex, which numpy would
    otherwise cast on every step. growth is rho = sum |w| of the module
    docstring, for w = DFT(values) / N of a kernel, 1 for a PVM; it bounds
    a row's l1 growth per measurement only in a plan that does not couple
    rows. identity says that the channel cuts no column and scales each by
    1, as a 1-region PVM or an all-ones kernel does; an engine applies such
    a plan like any other, and harness.run_schedule runs it as the
    unmeasured run instead.
    """

    def __init__(self, measurement: DampingKernel | RegionPartition) -> None:
        n = self.n = measurement.n_sites
        sites = np.arange(n)
        separation = np.minimum(sites, n - sites)
        scale, growth, region, c = None, 1.0, None, 0
        if isinstance(measurement, DampingKernel):
            values = measurement.values
            growth = float(np.abs(np.fft.fft(values)).sum()) / n
            if measurement.distance_convention is DistanceConvention.MINIMAL_IMAGE:
                scale = values
            else:
                # LINEAR: column d is values[d] where n + d < N and values[N - d]
                # past the wrap; a column inside the window whose two values
                # agree is masked by that value.
                mirrored = values[-sites]
                c = int(separation[values != mirrored].max(initial=0))
                inside = (separation > 0) & (separation <= c)
                scale = np.where(inside, 1.0, values).astype(complex)
            band = 1 + max(c, int(separation[scale != 0].max()))
        elif measurement.n_regions == 1:
            band = n // 2 + 1
        else:
            # Regions are contiguous and do not wrap, so some pair at separation d
            # shares a region iff min(d, N - d) is below the largest region's size;
            # with two regions or more, some pair at every d > 0 does not.
            largest = max(np.diff(measurement.boundaries + (n,)))
            c = int(min(largest - 1, n // 2))
            region = measurement.region_of
            band = c + 1
        self.band, self.window, self.couples, self.growth = band, c, c > 0, growth
        self.width = min(_smooth_width(4 * band - 3), n)
        narrows = self.width < n
        ones = scale is None or bool(np.all(scale == 1.0))
        self.identity = not c and 2 * band > n and ones
        if scale is not None and narrows:
            # A narrowing engine applies the scale only after it narrows.
            scale = _band_columns(scale, band, np.empty(self.width, dtype=complex))
        # Row d - 1 of the cut is column d = 1..c along n, read at n - floor(d/2)
        # in the symmetric frame of a narrowed engine.
        window = sites[1 : c + 1, None]
        at = (sites - window // 2) % n if narrows else sites
        if region is not None:
            cut = region[(at + window) % n] != region[at]
        elif c:
            cut = np.where(at < n - window, values[window], mirrored[window])
        else:
            cut = np.empty((0, n))
        self.scale, self.cut, self.twiddle, self.half_shift = scale, cut, None, None
        if narrows:
            self.half_shift = _turns(np.where(2 * sites > n, sites - n, sites), 2 * n)
        else:
            turns = np.outer(sites[1 : c + 1], sites[n // 2 : 0 : -1]) % n
            self.twiddle = np.exp(-2j * np.pi * turns / n).conj()
        for table in (self.scale, self.cut, self.twiddle, self.half_shift):
            if table is not None:
                table.flags.writeable = False


class Propagator:
    """Exact free evolution and repeated measurement of one state, in place.

    plan is the run's compiled measurement, shared with every other block
    of the run, or None for a run that is never measured, whose engine
    stays in its pure stage. It is stepped by measure(t) and read by
    record(snapshots, j, t), both timed from its last measurement. The
    engine keeps the phase table of the last leg length it applied or
    recorded at (_phase_vector), or once narrowed the band kernel of its
    last leg, so a run of equal legs builds it once; a leg of another
    length builds its own in its place. Step an engine inside
    in_one_row_buffer, as run_blocks, the tests and scripts/step_cost.py
    do: at numpy's default ufunc buffer each narrowed or window measure
    allocates numpy's iterator buffers. rows is the range of rows delta the
    engine holds, all of 0..N/2 by default; a plan that couples rows needs
    all of them. share, if given, is the part of the run's certificate
    budget that the engine may spend on rows it drops after each
    measurement (the module docstring's re-cut), and measurements the
    number of measurements the run makes; spent is what it has spent.
    Without a share the engine keeps its rows. The state's amplitudes were
    checked to be normalized when it was built; its ring must have a
    power-of-two size.
    """

    def __init__(
        self,
        state: StateVector,
        plan: ChannelPlan | None = None,
        rows: range | None = None,
        share: float | None = None,
        measurements: int = 0,
    ) -> None:
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
        # Row 0's phase is exactly 1 on every leg, so a leg skips it.
        self._moving = 1 if rows.start == 0 else 0
        # The pure stage holds phi; once measured, G (rows, N) or the band
        # as a (rows, W) view of a d-major array.
        self._phi = np.fft.fft(state.amplitudes)
        self._g = None

        self._share = share
        self._to_come = measurements
        self.spent = 0.0
        self._buffer = None  # the window step's (c, N) buffer
        # the phase table of a leg of length _table_t, or once narrowed its K
        self._table = None
        self._table_t = None

    @property
    def _narrowed(self) -> bool:
        """Whether the engine holds the band of H in W < N columns, not G."""
        return self._g is not None and self._g.shape[1] < self._n

    def _phase_vector(self, t: float) -> np.ndarray:
        """A leg's phase table for u = exp(i t E(k)), 5N/2 entries built in
        place: conj u, then u from k = N/2 on, then u. Its last 2N entries
        stand for u doubled, of which _lagged reads for rows delta <= N/2
        only the entries from N/2 on, which they hold. A narrowed engine's
        is the Weyl table of u and conj u instead (_weyl_pairs)."""
        n = self._n
        energies = dispersion_table(n)  # its temporaries go before the table comes
        table = np.empty(5 * n // 2, dtype=complex)
        u = table[n // 4 : 5 * n // 4] if self._narrowed else table[3 * n // 2 :]
        np.multiply(energies, t, out=u.imag)
        u.real = 0.0
        np.exp(u, out=u)
        if self._narrowed:
            np.conjugate(u, out=table[5 * n // 4 : 9 * n // 4])
            return _weyl_ends(table)
        table[n : 3 * n // 2] = u[n // 2 :]
        np.conjugate(u, out=table[:n])
        return table

    @contextlib.contextmanager
    def _scratch(self, band: np.ndarray, rows: int):
        """An (m, N) scratch of a narrowed engine, m <= rows and m >= 1 when
        rows is, for band its d-major (W, rows) array: a view of the band's
        zero padding, rows L..W - L, set back to 0 on exit, or, when that
        padding is not contiguous (a re-cut's prefix view) or holds less
        than one row of N, a fresh chunk of CHUNK_ENTRIES entries, or of one
        row when a row has more."""
        n, plan = self._n, self._plan
        padding = band[plan.band : plan.width - plan.band + 1]
        room = min(padding.size // n, rows) if padding.flags.c_contiguous else 0
        if not room:
            yield np.empty((min(max(1, CHUNK_ENTRIES // n), rows), n), dtype=complex)
            return
        scratch = padding.reshape(-1)[: room * n].reshape(room, n)
        try:
            yield scratch
        finally:
            scratch.fill(0.0)

    def _free_leg(self, g: np.ndarray, turns: np.ndarray, rows: range) -> np.ndarray:
        """Multiply g, the rows of G in rows, N columns, by the phases
        exp(i t (E(k - delta) - E(k))) = u[k - delta] conj u[k], for turns
        the table of _phase_vector; row 0, whose phase is exactly 1, is left
        alone when rows holds it."""
        n = self._n
        skip = 1 if rows.start == 0 else 0
        moving = g[skip:]
        np.multiply(moving, _lagged(turns[n // 2 :], rows[skip:]), out=moving)
        np.multiply(moving, turns[:n], out=moving)
        return g

    def _band_kernel(self, turns: np.ndarray) -> np.ndarray:
        """K, for the leg whose Weyl table is turns: fft_W of each moving
        row's circulant kernel ifft_N(phases), cut to the lags |l| <= 2L - 2
        that carry the band onto itself, in the symmetric frame, where it is
        real. The leg's phases, rolled by ceil(delta/2) along k (_weyl_pairs),
        are applied a chunk of rows at a time in the band's padding
        (_scratch) to exp(-2 pi i k (2L - 2) / N) rather than ones, so that
        ifft_N lays the lags out in order from -(2L - 2) at column 0; an odd
        row then takes v, the half shift the roll leaves. The lags' real
        parts go through rfft_W straight into K, a (rows, W//2 + 1) view of
        a d-major array, as the band, which then takes exp(2 pi i m (2L - 2)
        / W), putting lag l back at column l mod W."""
        plan, n = self._plan, self._n
        rows, reach, width, v = self._rows[self._moving :], 2 * plan.band - 2, plan.width, plan.half_shift
        kernel = np.empty((width // 2 + 1, len(rows)), dtype=complex).T
        with self._scratch(self._g.T, len(rows)) as scratch:
            for part, chunk, phases in _spans(rows, scratch):
                shift = phases[0]
                _turns(np.multiply(np.arange(n, dtype=float), -reach, out=shift.imag), n, out=shift)
                phases[1:] = shift
                for pick, behind, ahead in _weyl_pairs(turns, chunk, n, False):
                    np.multiply(phases[pick], behind, out=phases[pick])
                    np.multiply(phases[pick], ahead, out=phases[pick])
                np.fft.ifft(phases, axis=1, out=phases)
                odd = phases[1 - chunk.start % 2 :: 2]  # lag l at column l + reach
                np.multiply(odd[:, :reach], v[n - reach :], out=odd[:, :reach])
                np.multiply(odd[:, reach : 2 * reach + 1], v[: reach + 1], out=odd[:, reach : 2 * reach + 1])
                np.fft.rfft(phases.real[:, : 2 * reach + 1], width, axis=1, out=kernel[part])
        np.multiply(kernel, _turns(reach * np.arange(width // 2 + 1), width), out=kernel)
        return kernel

    def _leg_table(self, t: float) -> np.ndarray:
        """The phase table of a leg of length t, or once narrowed its band
        kernel: the kept one if the last leg had length t, else a new one
        that takes its place."""
        if t != self._table_t:
            self._table = None  # before the new one, so the peak does not rise
            turns = self._phase_vector(t)
            self._table = self._band_kernel(turns) if self._narrowed else turns
            self._table_t = t
        return self._table

    def measure(self, t: float) -> None:
        """Free evolution for natural time t since the last measurement, or
        since t = 0 in the pure stage, then the measurement channel once; an
        engine with a share then drops the rows it can (_recut). The first
        measurement ends the pure stage."""
        if self._plan is None:
            raise ValueError("this run has no measurement")
        if self._g is None:
            self._g = self._pure_band(t) if self._plan.width < self._n else self._pure_rows(t)
        else:
            self._leg(t)
        narrowed = self._narrowed
        if not narrowed:
            np.fft.ifft(self._g, axis=1, out=self._g)
        self._mask(self._g.T)
        if not narrowed:
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

    def _pure_chunks(self, buffer: np.ndarray, t: float, rolled: bool = False):
        """Leave the pure stage: (slice, rows in it, G of psi(t) on those
        rows) for each chunk of len(buffer) of the engine's rows, written
        into buffer in turn: G[delta, k] = conj phi(t)[k - delta] phi(t)[k] / N,
        for phi(t) = phi exp(-i t E), read off strided views of conj phi(t)
        doubled, or with rolled each row rolled by ceil(delta/2) along k,
        off the Weyl table of conj phi(t) and phi(t) / N (_weyl_pairs). Row
        0 is built from phi, its phase being exactly 1, so p(k) keeps every
        bit. No leg's phase table is held meanwhile."""
        n, rows, phi, skip = self._n, self._rows, self._phi, self._moving
        self._phi = None
        if skip:  # row 0 of the first chunk
            np.multiply(phi.conj(), phi / n, out=buffer[0])
        phi *= _pure_phases(n, t)  # phi(t), then phi(t) / N, in place
        if rolled:
            table = np.empty(5 * n // 2, dtype=complex)
            np.conjugate(phi, out=table[n // 4 : 5 * n // 4])
            np.divide(phi, n, out=table[5 * n // 4 : 9 * n // 4])  # exact: N is a power of two
            _weyl_ends(table)
            del phi
        else:
            doubled = np.empty(2 * n, dtype=complex)
            np.conjugate(phi, out=doubled[:n])
            doubled[n:] = doubled[:n]
            phi /= n  # exact: N is a power of two
        for part, chunk, g in _spans(rows, buffer):
            built = skip if part.start == 0 else 0
            if rolled:
                for pick, behind, ahead in _weyl_pairs(table, chunk[built:], n, False):
                    np.multiply(behind, ahead, out=g[built:][pick])
            else:
                np.multiply(_lagged(doubled, chunk[built:]), phi, out=g[built:])
            yield part, chunk, g

    def _pure_rows(self, t: float) -> np.ndarray:
        """G of psi(t) on the engine's rows, built whole."""
        g = np.empty((len(self._rows), self._n), dtype=complex)
        for _ in self._pure_chunks(g, t):
            pass
        return g

    def _pure_band(self, t: float) -> np.ndarray:
        """The band of H of psi(t) in the symmetric frame, with no G: G's
        rows, each rolled by ceil(delta/2) along k, are built one chunk at a
        time, transformed by ifft_N along k, which leaves an odd row half a
        shift short, made up by v, and their band columns kept. The chunks
        lie in the band's own zero padding, rows L..W - L of the d-major
        (W, rows) array, zeroed from the start and again afterwards
        (_scratch); a window step's buffer stays there. Returns the band as
        a (rows, W) view of that array."""
        plan, n, rows = self._plan, self._n, self._rows
        keep, width = plan.band, plan.width
        band = np.zeros((width, len(rows)), dtype=complex)
        h = band.T
        with self._scratch(band, len(rows)) as scratch:
            for part, chunk, g in self._pure_chunks(scratch, t, True):
                np.fft.ifft(g, axis=1, out=g)
                odd = g[1 - chunk.start % 2 :: 2]
                np.multiply(odd, plan.half_shift, out=odd)
                h[part, :keep] = g[:, :keep]
                h[part, width - keep + 1 :] = g[:, n - keep + 1 :]
        if plan.window:
            self._buffer = scratch[: plan.window]
        return h

    def _leg(self, t: float) -> None:
        """Free evolution for natural time t of a measured engine: G times
        the leg's phases, or once narrowed an exact cyclic product of length
        W >= 4L - 3 with the leg's band kernel, which wraps nothing onto the
        band. K holds the columns m <= W/2 of a Hermitian fft_W; a column
        m > W/2 is multiplied by conj K[W - m], as conj(conj(x) K[W - m])."""
        if t == 0.0:
            return
        kernel = self._leg_table(t)
        if not self._narrowed:
            self._free_leg(self._g, kernel, self._rows)
            return
        h = self._g[self._moving :]
        np.fft.fft(h, axis=1, out=h)
        lower, upper = h[:, : kernel.shape[1]], h[:, kernel.shape[1] :]
        np.multiply(lower, kernel, out=lower)
        np.conjugate(upper, out=upper)
        mirrored = upper[:, ::-1]  # m = W - 1 .. W//2 + 1, for W - m = 1 .. (W - 1)//2
        np.multiply(mirrored, kernel[:, 1 : upper.shape[1] + 1], out=mirrored)
        np.conjugate(upper, out=upper)
        np.fft.ifft(h, axis=1, out=h)

    def _mask(self, h: np.ndarray) -> None:
        """The channel on H, d-major as h[d, delta]: G.T of N columns or a
        narrowed band's W, whose zero padding holds the window buffer."""
        width, half = h.shape
        plan = self._plan
        if plan.scale is not None:  # 1 inside the window; along d's contiguous axis in G
            np.multiply(h.T, plan.scale, out=h.T)
        c = plan.window
        if c:
            if self._buffer is None:  # an engine of N columns keeps its own
                self._buffer = np.empty((c, self._n), dtype=complex)
            buffer, twiddle, shift = self._buffer, plan.twiddle, plan.half_shift
            # Row j of buffer is d = j + 1 and row j of mirror is N - d, held
            # at width - d. Buffer columns N/2..N - 1 are delta' = N - delta for
            # delta = N/2..1, the columns of twiddle; w conj(x) = conj(x conj(w))
            # builds them in place, in contiguous passes. In the symmetric
            # frame they are conj H'[delta, -d], with no twiddle, and an odd
            # row times v, whose entry 0 is 1, is a whole shift of H[., d].
            mirror = h[width - 1 : width - c - 1 : -1]
            odd = buffer[::2, 1:]  # d = 1, 3, ... from delta' = 1
            buffer[:, :half] = h[1 : c + 1]
            upper = buffer[:, half:]  # delta' = N - delta, delta = N/2 - 1 .. 1
            if twiddle is None:
                np.conjugate(mirror[:, half - 2 : 0 : -1], out=upper)
                np.multiply(odd, shift[1:], out=odd)
            else:
                upper[:] = mirror[:, half - 2 : 0 : -1]
                np.multiply(upper, twiddle[:, 1:], out=upper)
                np.conjugate(upper, out=upper)
            np.fft.ifft(buffer, axis=1, out=buffer)
            if plan.cut.dtype == bool:
                np.copyto(buffer, 0.0, where=plan.cut)
            else:
                np.multiply(buffer, plan.cut, out=buffer)
            np.fft.fft(buffer, axis=1, out=buffer)
            if twiddle is None:
                # v[N - delta'] is conj v[delta'] but at delta' = N/2, where
                # the two factors of v[N/2] = i make -1, set right below.
                np.multiply(odd, shift[:0:-1], out=odd)
            h[1 : c + 1] = buffer[:, :half]
            if twiddle is None:  # and -conj of that is H'[N/2, -d] = (-1)^d conj H'[N/2, d]
                np.negative(h[1 : c + 1 : 2, half - 1], out=h[1 : c + 1 : 2, half - 1])
            # delta = 0..N/2 of column N - d from (N - delta) mod N of column
            # d; column N/2, its own mirror, is written already.
            pairs = min(c, half - 2)
            lower = buffer[:, half - 1 :]  # delta' = N - delta, delta = N/2 .. 1
            if twiddle is not None:
                np.multiply(lower, twiddle, out=lower)
            np.conjugate(lower, out=lower)
            np.conjugate(buffer[:pairs, 0], out=mirror[:pairs, 0])
            mirror[:pairs, 1:] = lower[:pairs, ::-1]
        # The columns the channel zeroes at every n; in a narrowed band the
        # zero padding, where the window step's buffer was.
        h[plan.band : width - plan.band + 1] = 0.0

    def _g_chunks(self, t: float):
        """(rows, G on those rows, each row rolled by floor(delta/2) along k)
        t after a narrowed engine's last measurement, over its rows: G
        rebuilt one chunk of rows at a time in the band's padding
        (_scratch), as fft_N of the band in N columns, an odd row times v,
        which the roll makes a whole shift, times the phases of a leg of t,
        rolled alike (_weyl_pairs); a chunk is valid until the next. A
        record reads only row sums, norms and row 0, which no roll moves.
        The band itself is not written."""
        turns = self._phase_vector(t)
        with self._scratch(self._g.T, len(self._rows)) as scratch:
            for part, rows, g in _spans(self._rows, scratch):
                _band_columns(self._g[part], self._plan.band, g)
                odd = g[1 - rows.start % 2 :: 2]
                np.multiply(odd, self._plan.half_shift, out=odd)
                np.fft.fft(g, axis=1, out=g)
                skip = 1 if rows.start == 0 else 0  # row 0's phase is exactly 1
                for pick, behind, ahead in _weyl_pairs(turns, rows[skip:], self._n, True):
                    moving = g[skip:][pick]
                    np.multiply(moving, behind, out=moving)
                    np.multiply(moving, ahead, out=moving)
                yield rows, g

    def record(self, snapshots: Snapshots, j: int, t: float) -> None:
        """Write this engine's rows of snapshot j, natural time t after its
        last measurement or, in the pure stage, after t = 0, without writing
        to the state: row sums, squared row norms and, if it holds row 0,
        the real part of row 0 and the largest imaginary part on it. An
        engine in its pure stage reads them off psi(t) (_pure_record), a
        narrowed one at t = 0 off its band (_band_record) and otherwise off
        G rebuilt a chunk at a time (_g_chunks). An engine of N columns
        reads its squared row norms and row 0 off G, which no leg changes,
        and at t > 0 sums its rows times the leg's phases."""
        sums, norms, momentum, imag = snapshots.partials(j, self._rows)
        if self._g is None:
            self._pure_record(sums, norms, momentum, imag, t)
            return
        if self._narrowed and not t:
            self._band_record(sums, norms, momentum, imag)
            return
        start, n, skip = self._rows.start, self._n, self._moving
        for rows, g in self._g_chunks(t) if self._narrowed else [(self._rows, self._g)]:
            part = slice(rows.start - start, rows.stop - start)
            if t and not self._narrowed:  # row 0's phase is exactly 1
                turns = self._leg_table(t)
                g[:skip].sum(axis=1, out=sums[:skip])
                phases = _lagged(turns[n // 2 :], rows[skip:])
                np.einsum("ij,ij,j->i", g[skip:], phases, turns[:n], out=sums[skip:])
            else:
                g.sum(axis=1, out=sums[part])
            pairs = g.view(np.float64)  # |G|^2 is the sum of squares of re and im
            np.einsum("ij,ij->i", pairs, pairs, out=norms[part])
            if rows.start == 0:
                momentum[:] = g[0].real
                imag[0] = np.max(np.abs(g[0].imag))

    def _pure_record(self, sums, norms, momentum, imag, t: float) -> None:
        """record in the pure stage, with no G. Row 0 is q = |phi|^2 / N,
        built as G's row 0 is. The squared row norms, sum_k q(k) q(k - delta),
        do not depend on t; they are correlated directly, as row_cut
        correlates the l1 norms. The row sums are fft_N(p), for p(n) =
        |psi(t)(n)|^2; at t = 0 psi is ifft_N(phi), with no phases built."""
        n, phi, rows = self._n, self._phi, self._rows
        row = np.multiply(phi.conj(), phi / n)
        q = row.real
        if rows.start == 0:
            momentum[:] = q
            imag[0] = np.max(np.abs(row.imag))
        doubled = np.concatenate([q, q[: n // 2]])
        norms[:] = np.correlate(doubled[rows.start : rows.stop + n - 1], q)
        del row, q, doubled  # before psi's arrays come
        psi = np.fft.ifft(phi * _pure_phases(n, t) if t else phi)
        pairs = psi.view(np.float64).reshape(n, 2)
        sums[:] = np.fft.fft(np.einsum("ij,ij->i", pairs, pairs))[rows.start : rows.stop]

    def _band_record(self, sums, norms, momentum, imag) -> None:
        """record on the grid, off the band H with no G: the row sums are
        N H[:, 0], the squared row norms N sum_d |H|^2 by Parseval, and row 0
        of G is fft_N of band row 0 in N columns, one row of the padding."""
        n, band = self._n, self._g
        h = band.T  # d-major: row d of H over the rows, contiguous along them
        np.multiply(h[0], n, out=sums)
        pairs = h.view(np.float64)  # |H|^2 summed over d, down each re and im column
        np.einsum("dj,dj->j", pairs, pairs).reshape(-1, 2).sum(axis=1, out=norms)
        np.multiply(norms, n, out=norms)
        if self._rows.start == 0:  # after the norms, which read the padding
            with self._scratch(h, 1) as scratch:
                row = _band_columns(band[0], self._plan.band, scratch[0])
                np.fft.fft(row, out=row)
                momentum[:] = row.real
                imag[0] = np.max(np.abs(row.imag, out=row.imag))


class Snapshots:
    """Per-row partials of a run's snapshots, filled by Propagator.record
    one block after the other, and the observables combined from them.

    A snapshot's row sums and squared row norms are held in pieces, one per
    block that records it, each over the rows that block's engine holds at
    that record, so a run holds no entry for a row that no block recorded:
    one cut by row_cut or re-cut before the record. p(k) and its largest
    imaginary part are allocated when the first block records the
    snapshot, so a run holds only the snapshots it has reached. Each
    observable lays the pieces into N/2 + 1 rows, zeros elsewhere, and
    reads all of them in one fixed order, so it does not depend on how the
    rows were split into blocks.
    """

    def __init__(self, count: int, n: int) -> None:
        self._n = n
        # Per snapshot reached: p(k) followed by the largest imaginary part on
        # row 0, N + 1 entries, and a list of pieces, (rows, the row sums then
        # the squared row norms in 3 len(rows) float64 entries).
        self._partials: list[tuple[np.ndarray, list] | None] = [None] * count

    def partials(self, j: int, rows: range) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Snapshot j's row sums and squared row norms on rows, entry i for
        row rows.start + i, then its p(k) and the largest imaginary part on
        row 0 (one entry), for a record to write. The piece of rows is
        allocated on first use and handed out again to a second record
        over the same rows, which replaces it; rows that overlap another
        piece are refused."""
        if self._partials[j] is None:
            self._partials[j] = (np.empty(self._n + 1), [])
        momentum, pieces = self._partials[j]
        piece = next((entries for held, entries in pieces if held == rows), None)
        if piece is None:
            if rows and any(rows.start < held.stop and held.start < rows.stop for held, _ in pieces):
                raise ValueError(f"rows {rows} overlap rows snapshot {j} already holds")
            piece = np.empty(3 * len(rows))
            pieces.append((rows, piece))
        return (*_sums_and_norms(piece, rows), momentum[:-1], momentum[-1:])

    def momentum_distribution(self, j: int) -> np.ndarray:
        """p(k) = R[k, k], row delta = 0; a view of the stored array, not a
        copy, so a run holds each momentum distribution once."""
        momentum = self._partials[j][0]
        worst = float(momentum[-1])
        if not worst <= 1e-12:  # NaN fails too
            raise ValueError(f"momentum distribution has imaginary parts up to {worst:.3e}")
        return momentum[:-1]

    def _laid_out(self, j: int, which: int, out: np.ndarray) -> np.ndarray:
        """out, zeroed, with the row sums (which 0) or the squared row norms
        (which 1) of every piece of snapshot j at its rows."""
        out.fill(0.0)
        for rows, piece in self._partials[j][1]:
            out[rows.start : rows.stop] = _sums_and_norms(piece, rows)[which]
        return out

    def position_distribution(self, j: int) -> np.ndarray:
        """p(n) = rho(n, n), the inverse FFT of the row sums of G."""
        n = self._n
        half = n // 2 + 1
        sums = self._laid_out(j, 0, np.empty(n, dtype=complex))
        sums[half:] = sums[n - half : 0 : -1].conj()  # s[N - delta] = conj s[delta]
        diag = np.fft.ifft(sums)
        worst = float(np.max(np.abs(diag.imag)))
        if not worst <= 1e-12:
            raise ValueError(f"diagonal has imaginary parts up to {worst:.3e}")
        return diag.real.copy()

    def purity(self, j: int) -> float:
        """Tr(rho^2) = sum |G|^2 over all N rows; the rows 1..N/2 - 1 stand
        for their mirrors too."""
        norms = self._laid_out(j, 1, np.empty(self._n // 2 + 1))
        return float(norms[0] + norms[-1] + 2.0 * norms[1:-1].sum())


def run_blocks(state: StateVector, plan: ChannelPlan | None, ops: Iterable[tuple]) -> float:
    """Take every block of the rows that row_cut keeps through ops, each
    block on a Propagator of its own; all of them read plan, the run's one
    ChannelPlan, which no block rebuilds. plan is None for an unmeasured
    run: one engine of all rows, which stays in its pure stage, with no
    cut. Returns the run's certificate C <= 2**-52: row_cut's plus what
    every block spent on the rows it dropped, 0 for an unmeasured run.

    ops yields (method, *args), with method Propagator.measure or
    Propagator.record, and must yield the same ones
    on every pass, as a list does: one pass counts the measurements and
    each block makes one more, running them in order. In a run whose plan
    does not couple rows, every block gets an equal share of the budget
    that row_cut leaves, fixed before any block starts, so what a block
    drops does not depend on the blocks before it. The blocks run one
    after the other, each engine freed before the next is built. A block
    whose engine holds no rows stops there: what is left of ops would step
    and record no row. The block of row 0 never drops it and is the first
    to record, so it allocates every snapshot's partials.
    """
    n = state.n_sites
    measurements = sum(op[0] is Propagator.measure for op in ops)
    # An unmeasured run stays pure: one engine of all rows, none cut.
    whole = plan is None or plan.couples
    kept, certificate = (n // 2 + 1, 0.0) if plan is None else row_cut(state, plan, measurements)
    # No more blocks than rows: past N = BLOCK_ENTRIES a row alone fills one.
    count = 1 if whole else min(kept, -(-kept * n // BLOCK_ENTRIES))
    # A hair under an equal part, so that math.fsum of the parts spent
    # cannot round C past the budget.
    share = None if whole else (BUDGET - certificate) / count * (1.0 - 2.0**-50)
    bounds = [kept * i // count for i in range(count + 1)]

    def run_block(rows: range) -> float:
        # The engine goes on return, before the next block's is built.
        engine = Propagator(state, plan, rows, share, measurements)
        for method, *args in ops:
            if not engine._rows:
                break  # a later step or record would read no row
            method(engine, *args)
        return engine.spent

    spent = in_one_row_buffer(
        n, lambda: [run_block(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    )
    return math.fsum([certificate, *spent])


def in_one_row_buffer(n: int, action: Callable[[], T]) -> T:
    """action() with numpy's ufunc buffer at one row of N elements (the
    module docstring's "Ufunc buffer"), rounded up to the multiple of 16
    that numpy requires, or at the caller's size if that is smaller. The
    caller's size comes back on return, also when action raises: the scope
    is numpy's errstate, local to the context. run_blocks steps its blocks
    in it; a caller that steps a Propagator directly wraps those steps in
    it too, or each narrowed or window measure allocates numpy's iterator
    buffers of the default size."""
    with np.errstate():
        np.setbufsize(min(-(-n // 16) * 16, np.getbufsize()))
        return action()


def row_cut(state: StateVector, plan: ChannelPlan, measurements: int) -> tuple[int, float]:
    """(K, C0) of the module docstring: the rows 0..K - 1 that a run of
    this many measurements under plan starts with, and the certificate
    C0 <= 2**-52 that bounds how far dropping the others moves any entry
    of p(n). A plan that couples rows keeps all N/2 + 1, with C0 = 0."""
    n = state.n_sites
    half = n // 2 + 1
    if plan.couples:
        return half, 0.0
    magnitude = np.abs(np.fft.fft(state.amplitudes))
    # ||G[delta]||_1 = (1/N) sum_k |phi(k)| |phi(k - delta)|, correlated
    # directly: an FFT's round-off floor would swamp the smallest rows.
    l1 = np.correlate(np.concatenate([magnitude, magnitude[: half - 1]]), magnitude) / n
    l1[1 : n // 2] *= 2.0  # rows 1..N/2 - 1 stand for their mirrors too
    growth = plan.growth**measurements
    # dropped[K] = C for a cut at K, summed from the smallest rows up
    dropped = np.append(np.cumsum(l1[::-1])[::-1], 0.0) * growth / n
    kept = 1 + int(np.argmax(dropped[1:] <= BUDGET))
    return kept, float(dropped[kept])


def _pure_phases(n: int, t: float) -> np.ndarray:
    """exp(-i t E(k)): phi(t) = phi exp(-i t E) is psi(t)'s momentum amplitudes."""
    return np.exp(-1j * t * dispersion_table(n))


def _lagged(doubled: np.ndarray, rows: range) -> np.ndarray:
    """x[(k - delta) mod N] at [delta - rows.start, k], for doubled the
    contiguous N-vector x followed by itself: a view whose row delta starts
    at element N - delta, with no index table. Rows delta <= N/2 read only
    its elements from N/2 on."""
    n, step = doubled.size // 2, doubled.itemsize
    offset = (n - rows.start) * step
    return np.ndarray((len(rows), n), doubled.dtype, doubled, offset, (-step, step))


def _sums_and_norms(piece: np.ndarray, rows: range) -> tuple[np.ndarray, np.ndarray]:
    """The row sums, complex, and the squared row norms of a Snapshots
    piece over rows: views of its 2 len(rows) and len(rows) float64
    entries."""
    size = 2 * len(rows)
    return piece[:size].view(complex), piece[size:]


def _spans(rows: range, scratch: np.ndarray):
    """(slice, rows in it, a view of scratch) for each chunk of len(scratch)
    of rows, taken in turn: a chunk is valid until the next is taken."""
    step = max(1, len(scratch))
    for lo in range(0, len(rows), step):
        part = slice(lo, lo + step)
        yield part, rows[part], scratch[: len(rows[part])]


def _band_columns(a: np.ndarray, keep: int, out: np.ndarray) -> np.ndarray:
    """out, complex: the columns d = 0..keep - 1 of a and their mirrors -d,
    held at the end, and 0 elsewhere."""
    width = out.shape[-1]
    out[..., :keep] = a[..., :keep]
    out[..., keep : width - keep + 1] = 0.0
    out[..., width - keep + 1 :] = a[..., a.shape[-1] - keep + 1 :]
    return out


def _turns(q: np.ndarray, period: int, out: np.ndarray | None = None) -> np.ndarray:
    """exp(2 pi i q / period) for the integers q, written into out if given,
    whose imaginary part q may be; q is first reduced mod period in place,
    so that no angle exceeds 2 pi."""
    out = np.empty(q.shape, dtype=complex) if out is None else out
    np.multiply(np.remainder(q, period, out=q), 2 * np.pi / period, out=out.imag)
    out.real = 0.0
    return np.exp(out, out=out)


def _weyl_ends(table: np.ndarray) -> np.ndarray:
    """Complete a Weyl table in place and return it: 5N/2 entries, x over
    k = -N/4..N - 1 and then y over k = 0..5N/4 - 1, for x and y written
    at their k = 0..N - 1, entries N/4.. and 5N/4.."""
    quarter = table.size // 10
    table[:quarter] = table[4 * quarter : 5 * quarter]
    table[9 * quarter :] = table[5 * quarter : 6 * quarter]
    return table


def _weyl_pairs(table: np.ndarray, rows: range, n: int, late: bool):
    """(pick, x[k - a], y[k + b]) for each parity of delta in rows: pick
    selects those rows, and the views, off the Weyl table of x and y
    (_weyl_ends), hold the rows a + b = delta, a = floor(delta/2), or
    ceil(delta/2) with late. x[k - delta] y[k] rolled by b along k is
    x[k - a] y[k + b]: G's rows rolled into the symmetric frame, with no
    index table, for delta <= N/2."""
    step = table.itemsize
    for first in range(min(2, len(rows))):
        delta = rows[first]
        a = (delta + 1) // 2 if late else delta // 2
        count = len(range(first, len(rows), 2))
        behind = np.ndarray((count, n), table.dtype, table, (n // 4 - a) * step, (-step, step))
        ahead = np.ndarray((count, n), table.dtype, table, (5 * n // 4 + delta - a) * step, (step, step))
        yield slice(first, None, 2), behind, ahead


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

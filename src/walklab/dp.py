"""Dynamic-programming evolution of absorbed lattice walks.

A distribution is a ``Window`` of stride d: a dense float64 array of
weights with site = offset + d*index (d = 1: consecutive sites).  One
step stream, _steps, evolves a distribution under a step pmf by
convolution in every mode, applying one of three absorption modes after
every step:

  FREE      no absorption,
  POINT     mass arriving at the origin is removed with probability alpha
            (alpha=1 is total absorption; the surviving kernel for
            alpha<1 is the partially absorbed kernel),
  HALFLINE  all mass arriving at a site <= 0 is removed.

The two absorbed modes differ only in their absorbing set (_absorbing),
and a run records what it removed per step and per absorbing site: the
passage law (POINT) or the entrance law (HALFLINE).

The stream runs on the period coset.  When every jump is zmin + d*j (d,
from ``period``, is the lattice period of the law), a walk on the sites
c + dZ at one step is on c + zmin + dZ at the next, so the stream stores
only those sites, d apart, and steps with the compressed pmf pmf[::d]:
the law of (Y - zmin)/d.  For d = 1 that is every site and the pmf
itself.  Every stream advances in blocks of L <= BLOCK_STEPS steps and
ends with one block of the n mod L steps left (see _steps), each block
one advance: the free stream by one convolution with p^{*L}, an
absorbed stream by the same convolution of the sites that cannot reach
the absorbing set within the block and by killed matrices of the strip
that can (_plan), built by one walk of the strip and cached by strip
and block length, so every stream of a strip reads the same plan; a
one-step block is a one-step plan.  A free stream whose compressed
taps and start window are both palindromic, bit for bit (a symmetric
law from a symmetric start), stays palindromic: it computes the upper
half of each advance and mirrors it into the lower half (_folded),
about half the work, and its taps, the powers of palindromic taps, are
kept palindromic too (_power).  After every advance the stream
cuts the outer runs of stored sites whose weight is below
CUT = 2^-200, so the window follows the mass instead of growing by the
span on every step, and it adds the weights it cuts to a running cut
mass.  Every kernel here is substochastic, so a weight cut at step j
moves every later site and absorbed mass by at most that weight: each
of them lies within the cut mass of the uncut DP, the error the cut
computes.

``run_dp`` returns the window as the stream stores it, of stride d.  Its
start lies on one coset as well; a start over several classes (the
many-start window of ``engine.nu_and_particles``) is one run per class.

Given X, _steps also records, for the time sums of ``potential``, what
the weights of each advance's steps, summed on the fixed window [-X, X],
are read from: the block-start weights on the sites the block can carry
into [-X, X] and, in the absorbed modes, the strip's weights, whose plan
holds the strip's summed rows, which its walk sums as it goes.  The
stream itself computes no row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConstraintViolation, WindowOverflow

FREE = 0
POINT = 1
HALFLINE = 2

WINDOW_BUDGET = 4_000_000   # stored sites a stream may hold
BLOCK_STEPS = 64            # most steps per block, a power of two

# Edge weights below CUT are cut: far below every tolerance of the lab, and
# the mass they carry is reported, not assumed small.
CUT = 2.0 ** -200



@dataclass
class Window:
    """Dense window of weights on the sites offset + stride*i."""

    offset: int
    weights: np.ndarray
    stride: int = 1

    def _end(self) -> int:
        return self.offset + self.stride * len(self.weights)

    def prob(self, y: int) -> float:
        i, r = divmod(y - self.offset, self.stride)
        if r == 0 and 0 <= i < len(self.weights):
            return float(self.weights[i])
        return 0.0

    def mass(self) -> float:
        return float(self.weights.sum())

    def sites(self) -> np.ndarray:
        return self.offset + self.stride * np.arange(len(self.weights))

    def restricted_sum(self, lo: int, hi: int) -> float:
        """Sum of weights over sites in [lo, hi]."""
        a = max(-((self.offset - lo) // self.stride), 0)
        b = min((hi - self.offset) // self.stride + 1, len(self.weights))
        if b <= a:
            return 0.0
        return float(self.weights[a:b].sum())

    def _aligned(self, other: Window) -> bool:
        """Whether other, of the same stride, lies on the coset of self."""
        if other.stride != self.stride:
            raise ValueError("windows of different strides")
        return (other.offset - self.offset) % self.stride == 0

    def dot(self, other: Window) -> float:
        """Sum over common sites of the product of the two weights; 0.0
        for two windows on different cosets."""
        s = self.stride
        lo = max(self.offset, other.offset)
        hi = min(self._end(), other._end())
        if hi <= lo or not self._aligned(other):
            return 0.0
        a, b, m = (lo - self.offset) // s, (lo - other.offset) // s, \
            (hi - lo) // s
        return float(np.dot(self.weights[a:a + m], other.weights[b:b + m]))

    def reflected(self, z: int) -> Window:
        """The window w -> self.prob(z - w)."""
        return Window(z - self._end() + self.stride, self.weights[::-1],
                      self.stride)


@dataclass
class DPResult(Window):
    """Outcome of an n-step absorbed evolution.

    The window is the surviving distribution after n steps, of stride
    period(pmf); in HALFLINE mode its mass() is P_x[T > n], T the first
    time at a site <= 0.
    absorbed: (n, 1 - entry_base) array, None in FREE mode;
        absorbed[k-1, j] is the mass removed on step k at site
        entry_base + j, entry_base the lowest absorbing site
        (_absorbing): with alpha = 1 the passage law f_x(k) in POINT
        mode (entry_base 0, one column), the entrance law in HALFLINE.
    cut: the total weight the edge cut removed; every site and absorbed
        mass lies within cut of the uncut DP, and mass() + cut, plus
        what was absorbed, is the initial mass up to rounding.
    """

    absorbed: np.ndarray | None = None
    entry_base: int = 0
    cut: float = 0.0


def period(pmf: np.ndarray) -> int:
    """The gcd d of the pmf's nonzero indices: every jump is zmin + d*j."""
    return int(np.gcd.reduce(np.flatnonzero(pmf))) or 1


def _palindromic(a: np.ndarray) -> bool:
    """Whether a reads the same, bit for bit, from either end."""
    return np.array_equal(a, a[::-1])


def _mirror(a: np.ndarray) -> np.ndarray:
    """a with its lower half overwritten by its upper half, reversed:
    a[i] = a[len(a) - 1 - i] for i < len(a) // 2.  Returns a."""
    h = len(a) // 2
    a[:h] = a[::-1][:h]
    return a


@lru_cache(maxsize=128 * BLOCK_STEPS)   # the caches here bound their memory
def _power(key: bytes, r: int) -> np.ndarray:
    """The compressed taps of p^{*r}, r >= 1, np.frombuffer(key) those of
    p: one convolution of p^{*(r-1)} with them.  When the taps of p are
    palindromic, so is the exact p^{*r}, and each convolution's lower
    half is overwritten by its upper half mirrored (_mirror), so every
    power is palindromic bit for bit: a mirrored tap is a copy of its
    partner, whose exact value is its own, so it keeps its partner's
    rounding bound."""
    taps = np.frombuffer(key)
    if r == 1:
        return taps
    out = np.convolve(_power(key, r - 1), taps)
    return _mirror(out) if _palindromic(taps) else out


def _absorbing(zmin: int, mode: int, alpha: float):
    """The absorbing set of mode, (edge, rate, floor), None in FREE mode:
    each step removes the fraction rate of the mass at the sites edge..0,
    and a live window holds no weight below floor.  POINT: the site 0,
    rate alpha, no floor (-inf); HALFLINE: the sites 1 + zmin..0, where
    a step from [1, inf) can land at or below 0, rate 1, floor 1."""
    if mode == FREE:
        return None
    return (0, alpha, -math.inf) if mode == POINT else (1 + zmin, 1.0, 1)


def _block_len(t: int, zmin: int, d: int, n: int, ab) -> int:
    """Steps per block of an n-step stream, t the compressed tap count,
    ab its absorbing set (_absorbing).  FREE: min(BLOCK_STEPS, n).
    Absorbed: the largest power of two L <= min(BLOCK_STEPS, n) whose
    strip (_strip) holds fewer than 2 BLOCK_STEPS sites on every coset;
    L = 2 where no such power of two exceeds 1, so every stream of n >= 2
    steps advances at least two steps a block."""
    m = min(BLOCK_STEPS, n)
    if ab is None or m < 2:
        return max(m, 1)
    L = 2
    while 2 * L <= m and _strip(zmin, d, t, ab, 2 * L)[1] < 2 * BLOCK_STEPS:
        L *= 2
    return L


def _strip(zmin: int, d: int, t: int, ab, L: int, rho: int | None = None):
    """(first, size) of the strip of an L-step block of a stream on
    rho + dZ, t compressed taps, ab its absorbing set (edge, rate, floor):
    the sites of rho + dZ that can reach edge..0 within L steps and lie
    at or above floor, those in [max(floor, edge - L zmax), -L zmin];
    size of them from first, d apart.  Without rho, the strip on the
    coset of its lowest site, which holds the most."""
    edge, _, floor = ab
    lo = max(floor, edge - L * (zmin + d * (t - 1)))
    first = lo if rho is None else lo + (rho - lo) % d
    return first, max((-L * zmin - first) // d + 1, 0)


class _Plan(NamedTuple):
    first: int               # the strip's first site
    size: int                # its sites, d apart
    killed: np.ndarray       # (size, size + L(t-1))
    lost: np.ndarray         # (size, len(cols))
    cols: np.ndarray         # flat positions of lost's columns
    rows: np.ndarray | None  # (size, 2X+1), None without X


@lru_cache(maxsize=128)      # a stream keeps the plans it uses in a dict
def _plan_slot(key: bytes, zmin: int, d: int, ab, L: int,
               rho: int) -> list[_Plan | None]:
    """The cache entry of one strip: a list of one item, which _plan sets
    in place, the strip's plan or None before its first walk."""
    return [None]


def _plan(key: bytes, zmin: int, d: int, ab, L: int, rho: int,
          X: int | None = None) -> _Plan:
    """The strip plan of an L-step block of a stream whose window lies on
    rho + dZ, np.frombuffer(key) its compressed taps and ab its absorbing
    set (_absorbing).

    The cache is keyed by the strip, (taps, zmin, d, ab, L, rho), not by
    X: a plan walked with rows serves every stream of its strip that
    reads none, and the strip is walked again only for rows it lacks
    (none yet, or another X).

    The killed walks from the strip's sites (_strip) step L times, one
    convolution and one absorption a step: walk[q, i] is the weight of the walk
    from site i at column i + q, the site first + j zmin + d(i + q) after
    step j, and its first live rows hold every site the walks reach.  Each
    step removes the fraction rate of the mass at the absorbing sites
    edge..0 the walks reach.  Two buffers take turns as the walk and a
    third holds a tap's products, so a step allocates no array.

    In the frame where column c after the block is the site first + L zmin
    + dc, killed[i] is the weight of the walk from site i after L steps.
    lost[i] holds the masses it lost on the way, at the flat positions
    cols of the block's (L, 1 - edge) absorbed output, site edge + e in
    column e.  Given X, rows[i, x + X] is the walk's weight at site x,
    |x| <= X, summed over the L steps in step order: each step adds the
    walk, one slice, into a sum per (site, walk) of every site the walks
    reach, and the rows are read off that sum once.  Every entry is a sum
    of nonnegative products."""
    slot = _plan_slot(key, zmin, d, ab, L, rho)
    p = slot[0]
    if p is None or X is not None and (p.rows is None
                                       or p.rows.shape[1] != 2 * X + 1):
        p = slot[0] = _walk(np.frombuffer(key), zmin, d, ab, L, rho, X)
    return p


def _walk(taps: np.ndarray, zmin: int, d: int, ab, L: int, rho: int,
          X: int | None) -> _Plan:
    """The plan of _plan, from one walk of the strip, with rows given X."""
    t, (edge, rate, _) = len(taps), ab
    first, size = _strip(zmin, d, t, ab, L, rho)
    w = 1 - edge
    lost, cols = np.zeros((size, L * w)), []    # at most w sites a step
    walk = np.zeros((L * (t - 1) + 1, size))
    walk[0] = 1.0
    nxt, prod = np.zeros_like(walk), np.empty_like(walk)
    if X is not None:
        # acc[s - lo, i]: the walk from site i summed at site first + d i
        # + s, s = j zmin + d q after step j; lo..hi holds every such s and
        # the s of every site in [-X, X]
        zmax = zmin + d * (t - 1)
        lo = min(zmin, L * zmin, -X - first - d * (size - 1))
        hi = max(zmax, L * zmax, X - first)
        acc = np.zeros((hi - lo + 1, size))
    for j in range(1, L + 1):
        live = (j - 1) * (t - 1) + 1
        np.multiply(walk[:live], taps[0], out=nxt[:live])
        nxt[live:live + t - 1] = 0.0
        for m in range(1, t):
            np.multiply(walk[:live], taps[m], out=prod[:live])
            nxt[m:m + live] += prod[:live]
        walk, nxt, live = nxt, walk, live + t - 1
        base, flat = first + j * zmin, walk.reshape(-1)
        # the columns c at the sites base + d c in edge..0
        for c in range(-((base - edge) // d), -base // d + 1):
            i0, i1 = max(c - live + 1, 0), min(c + 1, size)
            if i0 >= i1:
                continue
            # walk[c - i, i] for i = i1 - 1 down to i0, size - 1 apart
            a = (c - i1 + 1) * size + i1 - 1
            at = flat[a:a + (i1 - i0 - 1) * (size - 1) + 1:max(size - 1, 1)]
            np.multiply(at, rate, out=lost[i0:i1, len(cols)][::-1])
            at *= 1.0 - rate
            cols.append((j - 1) * w + base + d * c - edge)
        if X is not None:
            s = j * zmin - lo
            acc[s:s + d * (live - 1) + 1:d] += walk[:live]
    killed = np.zeros((size, size + L * (t - 1)))
    s0, s1 = killed.strides                 # walk[q, i] at column i + q
    as_strided(killed, walk.shape, (s1, s0 + s1))[...] = walk
    rows = None
    if X is not None:   # rows[i, x + X] = acc[x - first - d i - lo, i],
        a0, a1 = acc.strides            # read from i = size - 1 down
        top = acc[-X - first - d * (size - 1) - lo:, size - 1:]
        rows = np.ascontiguousarray(as_strided(
            top, (size, 2 * X + 1), (d * a0 - a1, a0), writeable=False)[::-1])
    return _Plan(first, size, killed,
                 np.ascontiguousarray(lost[:, :len(cols)]),
                 np.array(cols, dtype=np.intp), rows)


@lru_cache(maxsize=128)
def _phase_taps(key: bytes, zmin: int, d: int, rho: int, r: int):
    """(base, T, phases) for the rows of r-step blocks with X + offset =
    rho (mod d), np.frombuffer(key) the compressed taps: T[i] holds the
    reversed shifted taps of the steps at column phase phases[i], summed in
    step order, and the band of a block with c = X + offset starts at the
    index base - c // d of its window (see _steps)."""
    powers = [_power(key, j) for j in range(1, r + 1)]
    j = np.arange(1, r + 1)
    a = -((rho + j * zmin) // d)
    width = max(a.max() - a_j + len(p) for a_j, p in zip(a, powers))
    phases, at = np.unique((rho + j * zmin) % d, return_inverse=True)
    T = np.zeros((len(phases), width))
    for i, a_j, p in zip(at, a, powers):
        end = width - (a.max() - a_j)
        T[i, end - len(p):end] += p[::-1]
    return int(a.max()) - width + 1, T, phases


def _aligned(a: np.ndarray) -> np.ndarray:
    """A copy of the float array a that starts on a 64-byte boundary."""
    buf = np.empty(len(a) + 7)
    i = -buf.ctypes.data % 64 // buf.itemsize
    out = buf[i:i + len(a)]
    out[:] = a
    return out


class _Band(NamedTuple):
    """What an advance of _steps records, given X, for the time sums."""
    phase: int               # the column phase (X + offset) mod d
    r: int                   # the block's steps
    taps: tuple              # _phase_taps of (phase, r)
    band: np.ndarray         # the block-start weights on the band, strip 0
    strip: np.ndarray | None  # the strip's weights, None if it holds none
    rows: np.ndarray | None  # the strip plan's summed rows, None in FREE


def _steps(offset: int, weights: np.ndarray, zmin: int, pmf: np.ndarray,
           n: int, mode: int, alpha: float, X: int | None = None):
    """Yield (k, offset, weights, absorbed, cut, band) after each advance,
    n steps in all.

    The window is strided: with d = period(pmf), the site of weights[i]
    is offset + d*i.  A walk on the coset c + dZ is on c + zmin + dZ one
    step later, so these are all the sites it reaches.  The stream steps
    with the compressed pmf pmf[::d], whose tap j is the jump zmin + d*j.

    The stream advances L steps at a time (_block_len), then takes the
    n mod L steps left as one more block of r = n mod L steps; every
    block is one advance of r steps, r = 1 included.  A FREE block is
    one convolution with the compressed taps of p^{*r}.  When those taps
    and the start window are palindromic, bit for bit, the FREE stream
    folds: each advance computes only the upper half of its outputs and
    copies it, reversed, into the lower half (_folded), and its cut scans
    that half and keeps [a, len - a).  Each upper-half output is the same
    sum of at most L(t-1)+1 nonnegative products as unfolded (the ramp's
    padding adds exact zeros), and a mirrored site copies its partner,
    whose exact value is its own, so each weight keeps its rounding bound;
    the taps of p^{*r} are palindromic bit for bit (_power), so every
    advance, and the window it leaves, is palindromic again.  Every other
    stream runs unfolded.  An absorbed
    block splits the window at its start: the strip of sites that can
    reach the absorbing set (_absorbing) within r steps, and the far
    sites, which cannot.  The far sites advance by the same
    convolution, the strip by one product with its killed matrix, and
    the two add (_plan, one per phase rho = offset mod d and block
    length, cached by strip).  Every product is of nonnegative numbers,
    so nothing cancels, and a site the absorption empties holds exactly
    0.0: in HALFLINE mode every site <= 0, which the cut then drops.  A
    HALFLINE start must hold no weight at a site <= 0 (run_dp refuses
    one), as the far sites would carry it.

    absorbed is the mass removed on the r steps of the advance, an
    (r, 1 - edge) array, site edge + e in column e (0.0 off the coset):
    the passage law (POINT) or the landing profiles (HALFLINE); None in
    FREE mode.  The yielded weights are the live array, not a copy; the
    stream never writes to an array after yielding it.

    band is None without X.  Given X, it is the advance's _Band, from
    which potential.time_sums reads the row: sum_{j=1..r} w_{k-r+j} at
    the sites -X..X, the weights of the advance's steps summed.  The
    stream records the block-start weights on the band, the sites its
    steps can carry into [-X, X], with the strip zeroed (within a block
    the far sites evolve freely), and, in the absorbed modes, the
    strip's weights and its plan's summed rows; the row is the band
    times the banded matrix of its class's summed taps, plus the strip
    times those rows.  It lies within r times the cut of the block's
    start.

    Step j of a block that starts at offset o holds the indices
    i = a_j + q, q = 0..Wc-1, of its coset, with a_j = -((X + o +
    j zmin) // d) the first in [-X, X] and Wc = 2X // d + 1; it sits at
    column (X + o + j zmin) mod d + d q, its phase plus d q.  With
    E = max_j a_j, its weight is sum_m T_j[m] w[a_j + q - m] =
    sum_s T'_j[s] w[E + q - s], where T'_j is T_j, the compressed taps of
    p^{*j}, shifted right by E - a_j: the same window of w, the band
    E - width + 1 .. E + Wc - 1, serves every step.  So the steps of one
    phase sum their T'_j, each entry at most r nonnegative taps, and each
    column of the row is one sum of at most width nonnegative products
    of those summed taps with the band.  The shifts and phases depend on
    the law, (X + o) mod d and r alone, so for each class (X + o) mod d
    and r the band covers the same sites, (X + o) mod d - X + d(E -
    width + 1) on, and the class's rows are the product of its bands,
    stacked, with one banded matrix; the summed taps are built once per
    process for each class (_phase_taps).

    After the absorption, every advance cuts the outer runs of weights
    below CUT, found by one vectorised scan of the window.  cut is the
    summed weight cut by step k; every weight is nonnegative, as the pmf
    and each initial window the lab passes are.  A weight cut at the end
    of a block moves each step inside the next one by at most itself.
    The cut reads the window alone, so n steps are m steps followed by
    n - m steps, bit for bit, when m is a multiple of the n-step stream's
    L and the (n - m)-step stream takes the same L: a folded window is a
    palindromic start, so its continuation folds too.  The stream ends
    early once the window is empty.  WINDOW_BUDGET bounds the stored
    sites, d apart, on every advance.

    np.convolve(cur, taps) is np.correlate(cur, taps[::-1]) whenever cur
    is at least as long as taps, so the taps are reversed once per block
    length and the advance calls that kernel directly; a shorter cur keeps
    np.convolve, which swaps the operands there.  The reversed taps sit
    on a 64-byte boundary (_aligned): np.correlate gives the same bits at
    any alignment of its operands, but read 129 taps 10-20% and 193 taps
    25-45% faster there than off it (2,000-6,000 sites, one host).
    """
    d = period(pmf)
    taps = pmf[::d]
    key, ab = taps.tobytes(), _absorbing(zmin, mode, alpha)
    L = _block_len(len(taps), zmin, d, n, ab)
    fold = ab is None and _palindromic(taps) and _palindromic(weights)
    cur, off, cut, k = weights, offset, 0.0, 0
    # count advances of r steps: the full blocks, then the rest
    for r, count in ((L, n // L), (n % L, 1)):
        if r == 0:
            return
        taps = _power(key, r)
        rev = _aligned(taps[::-1])
        t, shift = len(taps), r * zmin
        plans: dict[int, _Plan] = {}
        phase_taps: dict[int, tuple] = {}
        for _ in range(count):
            size = len(cur)
            if size == 0:
                return
            strip = None
            if ab is not None:
                rho = off % d
                if rho not in plans:
                    plans[rho] = _plan(key, zmin, d, ab, r, rho, X)
                p = plans[rho]
                s = (p.first - off) // d    # the strip's first index
                if max(s, 0) < min(s + p.size, size):   # the two meet
                    lo = min(s, 0)          # the far sites, strip zeroed
                    far = np.zeros(max(size, s + p.size) - lo)
                    far[-lo:size - lo] = cur
                    s -= lo
                    strip = far[s:s + p.size].copy()
                    far[s:s + p.size] = 0.0
                    cur, off, size = far, off + d * lo, len(far)
            band = None
            if X is not None:               # from the start, strip zeroed
                c = X + off
                if c % d not in phase_taps:
                    phase_taps[c % d] = _phase_taps(key, zmin, d, c % d, r)
                pt = phase_taps[c % d]
                lo = pt[0] - c // d
                w = np.zeros(pt[1].shape[1] + 2 * X // d)
                a, b = max(lo, 0), min(lo + len(w), size)
                if b > a:
                    w[a - lo:b - lo] = cur[a:b]
                band = _Band(c % d, r, pt, w, strip,
                             None if ab is None else p.rows)
            b = size + t - 1
            if b > WINDOW_BUDGET:
                raise WindowOverflow(f"window of {b} sites at step {k + r} "
                                     f"exceeds budget {WINDOW_BUDGET}")
            if fold:
                cur = _folded(cur, taps, rev)
            elif size >= t:
                cur = np.correlate(cur, rev, "full")
            else:
                cur = np.convolve(cur, taps)
            off += shift

            absorbed = None if ab is None else np.zeros((r, 1 - ab[0]))
            if strip is not None:
                cur[s:s + p.killed.shape[1]] += strip @ p.killed
                absorbed.reshape(-1)[p.cols] = strip @ p.lost
            if fold:                        # one half, b = len - a
                keep = cur[b // 2:] >= CUT
                a = int(keep[::-1].argmax())
                b = b - a if keep[-1 - a] else a
            else:
                keep = cur >= CUT
                a = int(keep.argmax())
                b = b - int(keep[::-1].argmax()) if keep[a] else a
            if a or b < len(cur):
                cut += float(cur[:a].sum() + cur[b:].sum())
                cur = cur[a:b]
                off += d * a
            k += r
            yield k, off, cur, absorbed, cut, band


def _folded(cur: np.ndarray, taps: np.ndarray,
            rev: np.ndarray) -> np.ndarray:
    """The advance of the palindromic window cur by the palindromic taps,
    rev reversed: the upper half of np.correlate(cur, rev, "full"), from
    one np.correlate over the inputs it reads, padded with the t - 1 zeros
    past the window's end, and the lower half its mirror (_mirror).  A
    window shorter than the taps takes np.convolve, then the mirror."""
    size, t = len(cur), len(taps)
    if size < t:
        return _mirror(np.convolve(cur, taps))
    out = np.empty(size + t - 1)
    h = len(out) // 2
    s = h - t + 1                   # the first input the upper half reads
    buf = np.zeros(size - s + t - 1)
    buf[:size - s] = cur[s:]
    out[h:] = np.correlate(buf, rev, "valid")
    return _mirror(out)


def free_deficit(zmin: int, pmf: np.ndarray, n: int) -> float:
    """What an n-step free stream adds to a unit start's mass, to first
    order: each block of r steps (_steps) multiplies the mass by the sum
    of the float taps of p^{*r}, which misses 1 by the float pmf's own
    deficit and the rounding that built the taps; each summed exactly.
    They are the taps the stream reads, folded or not (_power), so for
    a symmetric law this is the deficit of the palindromic taps."""
    d = period(pmf)
    taps = pmf[::d]
    L = _block_len(len(taps), zmin, d, n, None)
    return sum(count * math.fsum([*_power(taps.tobytes(), r), -1.0])
               for r, count in ((L, n // L), (n % L, 1)) if r)


def run_dp(init_offset: int, init_weights: np.ndarray, zmin: int,
           pmf: np.ndarray, n: int, mode: int = FREE,
           alpha: float = 1.0) -> DPResult:
    """Evolve a start on one coset n steps with per-step absorption.

    init_weights[i] sits at init_offset + d*i, d = period(pmf), as the
    window of a DPResult does, so a result continues as a start: m steps
    and then n - m more are the n-step run bit for bit when m ends a block
    of both (see _steps), and within float rounding of it otherwise.  In
    absorbed modes the start is taken as already past the step-0
    absorption (the zero-step kernel is the identity); a start with
    weight below the floor of its absorbing set (_absorbing), a HALFLINE
    start with weight at a site <= 0, raises ConstraintViolation.  The
    result is the window _steps leaves, of stride d.
    """
    d = period(pmf)
    off, cur, cut = init_offset, np.array(init_weights, dtype=np.float64), 0.0
    ab = _absorbing(zmin, mode, alpha)
    edge, _, floor = ab or (0, 0.0, -math.inf)      # FREE: nothing absorbs
    if cur.any() and off + d * int(np.argmax(cur != 0)) < floor:
        raise ConstraintViolation("halfline start with weight at a site <= 0")
    absorbed = None if ab is None else np.zeros((n, 1 - edge))
    for k, off, cur, removed, cut, _ in _steps(off, cur, zmin, pmf, n,
                                               mode, alpha):
        if removed is not None:
            absorbed[k - len(removed):k] = removed
    return DPResult(off, cur, d, absorbed, edge, float(cut))

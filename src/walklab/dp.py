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
  HALFLINE  all mass arriving at a site <= 0 is removed, and the profile
            of where it landed is recorded per step (the entrance law).

The stream runs on the period coset.  When every jump is zmin + d*j (d,
from ``period``, is the lattice period of the law), a walk on the sites
c + dZ at one step is on c + zmin + dZ at the next, so the stream stores
only those sites, d apart, and steps with the compressed pmf pmf[::d]:
the law of (Y - zmin)/d.  For d = 1 that is every site and the pmf
itself.  The absorbed streams advance one step at a time, the free
stream, which is translation-invariant, BLOCK_STEPS at a time (see
_steps).  After every advance the stream cuts the outer runs of stored
sites whose weight is below CUT = 2^-200, so the window follows the mass
instead of growing by the span on every step, and it adds the weights it
cuts to a running cut mass.  Every kernel here is substochastic, so a
weight cut at step j moves every later site, absorbed mass and
entrance-law entry by at most that weight: each of them lies within the
cut mass of the uncut DP, the error the cut computes.

``run_dp`` returns the window as the stream stores it, of stride d.  Its
start lies on one coset as well; a start over several classes (the
many-start window of ``engine.nu_and_particles``) is one run per class.

_blocks reads every step's weights on a fixed window [-X, X] off the
free stream, for the partial-sum table: one matrix product per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import WindowOverflow

FREE = 0
POINT = 1
HALFLINE = 2

WINDOW_BUDGET = 4_000_000   # stored sites a stream may hold
BLOCK_STEPS = 64            # steps per advance of a free stream

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
    absorbed: per-step absorbed mass (POINT mode), index k-1 = step k; with
        alpha = 1 it is the passage law f_x(k).
    entry: (n, depth) array of per-step landing profiles in HALFLINE
        mode; entry[k-1, j] is the mass landing at site entry_base + j
        on step k.
    cut: the total weight the edge cut removed; every site, absorbed mass
        and entry lies within cut of the uncut DP, and mass() + cut, plus
        what was absorbed, is the initial mass up to rounding.
    """

    absorbed: np.ndarray | None = None
    entry: np.ndarray | None = None
    entry_base: int = 0
    cut: float = 0.0


def period(pmf: np.ndarray) -> int:
    """The gcd d of the pmf's nonzero indices: every jump is zmin + d*j."""
    return int(np.gcd.reduce(np.flatnonzero(pmf))) or 1


def _powers(taps: np.ndarray, m: int) -> list[np.ndarray]:
    """The compressed taps of p^{*j}, j = 1..max(m, 1), taps = p^{*1}."""
    powers = [taps]
    for _ in range(m - 1):
        powers.append(np.convolve(powers[-1], taps))
    return powers


def _steps(offset: int, weights: np.ndarray, zmin: int, pmf: np.ndarray,
           n: int, mode: int, alpha: float):
    """Yield (k, offset, weights, absorbed, cut) after each advance, n
    steps in all.

    The window is strided: with d = period(pmf), the site of weights[i]
    is offset + d*i.  A walk on the coset c + dZ is on c + zmin + dZ one
    step later, so these are all the sites it reaches.  The stream steps
    with the compressed pmf pmf[::d], whose tap j is the jump zmin + d*j.
    A POINT or HALFLINE stream advances one step at a time.  A FREE
    stream advances L = min(BLOCK_STEPS, n) steps at a time, by one
    convolution with the compressed taps of p^{*L}, and a last block of
    n mod L steps ends it.

    absorbed is the mass removed on step k: a float in POINT mode (0.0 on
    the steps where site 0 is off the coset), the landing profile as an
    (offset, weights) pair on the same stride in HALFLINE mode (None when
    nothing landed), None in FREE mode.  The yielded weights are the live
    array, not a copy; the stream never writes to an array after yielding
    it.

    After the absorption, every advance cuts the outer runs of weights
    below CUT: a step scans inward from each edge only, so it pays for the
    sites it cuts, and a block of r > 1 steps, whose edges move r spans,
    finds them with one vectorised scan.  cut is the summed weight cut by
    step k; every weight is nonnegative, as the pmf and each initial
    window the lab passes are.  A weight cut at the end of a block moves
    each step inside the next one by at most itself.  The cut reads the
    window alone, so n steps are m steps followed by n - m steps, bit for
    bit, in the absorbed modes, and in FREE mode when m is a multiple of
    BLOCK_STEPS.  The stream ends early once the window is empty.
    WINDOW_BUDGET bounds the stored sites, d apart, on every advance.

    np.convolve(cur, taps) is np.correlate(cur, taps[::-1]) whenever cur
    is at least as long as taps, so the taps are reversed once per block
    length and the advance calls that kernel directly; a shorter cur keeps
    np.convolve, which swaps the operands there.
    """
    d = period(pmf)
    taps = pmf[::d]
    powers = _powers(taps, min(BLOCK_STEPS, n)) if mode == FREE else [taps]
    L = len(powers)
    cur, off, cut, k = weights, offset, 0.0, 0
    # count advances of r steps: the full blocks, then a partial one
    for r, count in ((L, n // L), (n % L, 1)):
        if r == 0:
            return
        taps = powers[r - 1]
        rev = np.ascontiguousarray(taps[::-1])
        t, shift = len(taps), r * zmin
        for _ in range(count):
            size = len(cur)
            if size == 0:
                return
            b = size + t - 1
            if b > WINDOW_BUDGET:
                raise WindowOverflow(f"window of {b} sites at step {k + r} "
                                     f"exceeds budget {WINDOW_BUDGET}")
            cur = (np.correlate(cur, rev, "full") if size >= t
                   else np.convolve(cur, taps))
            off += shift

            absorbed = None
            if mode == POINT:
                absorbed = 0.0
                i0, rem = divmod(-off, d)
                if rem == 0 and 0 <= i0 < b:
                    m = cur[i0]
                    absorbed = alpha * m
                    cur[i0] = (1.0 - alpha) * m
            elif mode == HALFLINE:
                hi = min(b, (-off) // d + 1)  # indices with site <= 0
                if hi > 0:
                    absorbed = (off, cur[:hi])
                    cur = cur[hi:]
                    off += d * hi
                    b -= hi
            if r > 1:
                keep = cur >= CUT
                a = int(keep.argmax())
                b = b - int(keep[::-1].argmax()) if keep[a] else a
                cut += float(cur[:a].sum() + cur[b:].sum())
            else:
                a = 0
                while a < b and (w := cur[a]) < CUT:
                    cut += w
                    a += 1
                while b > a and (w := cur[b - 1]) < CUT:
                    cut += w
                    b -= 1
            cur = cur[a:b]
            off += d * a
            k += r
            yield k, off, cur, absorbed, cut


def _blocks(offset: int, weights: np.ndarray, zmin: int, pmf: np.ndarray,
            n: int, X: int):
    """Yield (k, rows, cut, weights) after each block of the FREE stream
    of _steps, whose (k, cut, weights) these are.

    rows[j - 1], j = 1..r, r the block's length, is w_{k - r + j} on
    [-X, X], site -X + i in column i: one matrix product of the r rows of
    compressed taps of p^{*j} with the sliding window of the block's start
    over the sites they reach.  Each row lies within the cut of the
    block's start (see _steps).

    Row j of a block that starts at offset o holds the indices
    i = a_j + q, q = 0..Wc-1, of its coset, with a_j = -((X + o +
    j zmin) // d) the first in [-X, X] and Wc = 2X // d + 1; it sits at
    column (X + o + j zmin) mod d + d q.  With E = max_j a_j, its weight
    is sum_m T_j[m] w[a_j + q - m] = sum_s T'_j[s] w[E + q - s], where
    T'_j is T_j, the compressed taps of p^{*j}, shifted right by E - a_j:
    the same sliding window of w serves every row.  The shifts and
    columns depend on (X + o) mod d alone: one matrix per residue.
    """
    d = period(pmf)
    powers = _powers(pmf[::d], min(BLOCK_STEPS, n))
    L = len(powers)
    Wc = 2 * X // d + 1

    def plan(rho: int):
        """(first, T, columns) for blocks with X + offset = rho (mod d):
        first = E + (X + offset) // d, T the reversed shifted taps, one
        row per step, and columns the flat position of each row entry."""
        j = np.arange(1, L + 1)
        a = -((rho + j * zmin) // d)
        width = max(a.max() - a_j + len(p) for a_j, p in zip(a, powers))
        T = np.zeros((L, width))
        for row, a_j, p in zip(T, a, powers):
            end = width - (a.max() - a_j)
            row[end - len(p):end] = p[::-1]
        columns = ((j - 1) * d * Wc + (rho + j * zmin) % d)[:, None] \
            + d * np.arange(Wc)
        return int(a.max()), T, columns

    plans = [plan(rho) for rho in range(d)]
    off, cur, k0 = offset, weights, 0
    for k, nxt_off, nxt, _, cut in _steps(offset, weights, zmin, pmf, n,
                                          FREE, 1.0):
        r, c = k - k0, X + off
        first, T, columns = plans[c % d]
        lo = first - c // d - T.shape[1] + 1   # index of the window's start
        span = np.zeros(T.shape[1] + Wc - 1)
        a, b = max(lo, 0), min(lo + len(span), len(cur))
        if b > a:
            span[a - lo:b - lo] = cur[a:b]
        rows = np.zeros(r * d * Wc)
        rows[columns[:r]] = T[:r] @ as_strided(        # span[s + q] at (s, q)
            span, (T.shape[1], Wc), 2 * span.strides, writeable=False)
        yield k, rows.reshape(r, d * Wc)[:, :2 * X + 1], cut, nxt
        off, cur, k0 = nxt_off, nxt, k


def run_dp(
    init_offset: int,
    init_weights: np.ndarray,
    zmin: int,
    pmf: np.ndarray,
    n: int,
    mode: int = FREE,
    alpha: float = 1.0,
) -> DPResult:
    """Evolve a start on one coset n steps with per-step absorption.

    init_weights[i] sits at init_offset + d*i, d = period(pmf), as the
    window of a DPResult does, so a result continues as a start.  In
    POINT/HALFLINE modes the start is taken as already past the step-0
    absorption (the zero-step kernel is the identity).  The result is the
    window _steps leaves, of stride d.
    """
    d = period(pmf)
    off, cur, cut = init_offset, np.array(init_weights, dtype=np.float64), 0.0
    absorbed = np.zeros(n) if mode == POINT else None
    entry, entry_base = None, 0
    if mode == HALFLINE:
        entry = np.zeros((n, -zmin))
        entry_base = 1 + zmin
    for k, off, cur, removed, cut in _steps(off, cur, zmin, pmf, n, mode,
                                            alpha):
        if mode == POINT:
            absorbed[k - 1] = removed
        elif removed is not None:
            j = removed[0] - entry_base
            entry[k - 1, j: j + d * len(removed[1]): d] = removed[1]
    return DPResult(off, cur, d, absorbed, entry, entry_base, float(cut))

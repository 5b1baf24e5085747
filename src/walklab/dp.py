"""Dynamic-programming evolution of absorbed lattice walks.

A distribution over consecutive sites is a ``Window``: a dense float64
array of weights with site = offset + index.  One step stream evolves a
distribution under a step pmf by convolution, applying one of three
absorption modes after every step:

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
itself.  After every step, in every mode, the stream cuts the outer runs
of stored sites whose weight is below CUT = 2^-200, so the window follows
the mass instead of growing by the span on every step, and it adds the
weights it cuts to a running cut mass.  Every kernel here is
substochastic, so a weight cut at step j moves every later site, absorbed
mass and entrance-law entry by at most that weight: each of them lies
within the cut mass of the uncut DP, the error the cut computes.

``run_dp`` splits its initial window by residue class mod d, runs one
stream per class that holds weight, and lays the survivors and the
entrance profiles back on consecutive sites once, at the end, with exact
zeros on the sites no class reaches: every ``Window`` it returns is the
full-lattice window.  The potential kernel's partial sums and the Green
partial sums read one strided stream step by step instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WindowOverflow

FREE = 0
POINT = 1
HALFLINE = 2

DEFAULT_WINDOW_BUDGET = 4_000_000

# Edge weights below CUT are cut: far below every tolerance of the lab, and
# the mass they carry is reported, not assumed small.
CUT = 2.0 ** -200


@dataclass
class Window:
    """Dense window of weights over consecutive sites offset, offset+1, ..."""

    offset: int
    weights: np.ndarray

    def prob(self, y: int) -> float:
        i = y - self.offset
        if 0 <= i < len(self.weights):
            return float(self.weights[i])
        return 0.0

    def mass(self) -> float:
        return float(self.weights.sum())

    def sites(self) -> np.ndarray:
        return self.offset + np.arange(len(self.weights))

    def restricted_sum(self, lo: int, hi: int) -> float:
        """Sum of weights over sites in [lo, hi]."""
        a = max(lo - self.offset, 0)
        b = min(hi - self.offset + 1, len(self.weights))
        if b <= a:
            return 0.0
        return float(self.weights[a:b].sum())

    def dot(self, other: Window) -> float:
        """Sum over common sites of the product of the two weights."""
        lo = max(self.offset, other.offset)
        hi = min(self.offset + len(self.weights),
                 other.offset + len(other.weights))
        if hi <= lo:
            return 0.0
        return float(np.dot(self.weights[lo - self.offset: hi - self.offset],
                            other.weights[lo - other.offset: hi - other.offset]))

    def reflected(self, z: int) -> Window:
        """The window w -> self.prob(z - w)."""
        return Window(z - self.offset - len(self.weights) + 1,
                      self.weights[::-1])

    def minus(self, other: Window) -> Window:
        """self - other as a window over the union of the two supports."""
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.weights),
                 other.offset + len(other.weights))
        out = np.zeros(hi - lo)
        out[self.offset - lo: self.offset - lo + len(self.weights)] += \
            self.weights
        out[other.offset - lo: other.offset - lo + len(other.weights)] -= \
            other.weights
        return Window(lo, out)


@dataclass
class DPResult(Window):
    """Outcome of an n-step absorbed evolution.

    The window is the surviving distribution after n steps; in HALFLINE
    mode its mass() is P_x[T > n], T the first time at a site <= 0.
    absorbed: per-step absorbed mass (POINT mode), index k-1 = step k; with
        alpha = 1 it is the passage law f_x(k).
    entry: (n, depth) array of per-step landing profiles in HALFLINE
        mode; entry[k-1, j] is the mass landing at site entry_base + j
        on step k.
    cut: the total weight the edge cut removed, over every class stream;
        every site, absorbed mass and entry lies within cut of the uncut
        DP, and mass() + cut, plus what was absorbed, is the initial mass
        up to rounding.
    """

    absorbed: np.ndarray | None = None
    entry: np.ndarray | None = None
    entry_base: int = 0
    cut: float = 0.0


def period(pmf: np.ndarray) -> int:
    """The gcd d of the pmf's nonzero indices: every jump is zmin + d*j."""
    return int(np.gcd.reduce(np.flatnonzero(pmf))) or 1


def _steps(offset: int, weights: np.ndarray, zmin: int, pmf: np.ndarray,
           n: int, mode: int, alpha: float, window_budget: float):
    """Yield (k, offset, weights, absorbed, cut) after each step k = 1..n.

    The window is strided: with d = period(pmf), the site of weights[i]
    is offset + d*i.  A walk on the coset c + dZ is on c + zmin + dZ one
    step later, so these are all the sites it reaches.  The stream steps
    with the compressed pmf pmf[::d], whose tap j is the jump zmin + d*j;
    for d = 1 that is the pmf itself.

    absorbed is the mass removed on step k: a float in POINT mode (0.0 on
    the steps where site 0 is off the coset), the landing profile as an
    (offset, weights) pair on the same stride in HALFLINE mode (None when
    nothing landed), None in FREE mode.  The yielded weights are the live
    array, not a copy; the stream never writes to an array after yielding
    it.

    After the absorption, every step cuts the outer runs of weights below
    CUT, scanning inward from each edge only: a step pays for the sites it
    cuts, and each site is cut at most once.  cut is the summed weight
    cut on steps 1..k; every weight is nonnegative, as the pmf and each
    initial window the lab passes are.  The cut reads the window alone,
    so n steps are m steps followed by n - m steps, bit for bit.  The
    stream ends early once the window is empty.  window_budget bounds the
    stored sites, d apart.

    np.convolve(cur, taps) is np.correlate(cur, taps[::-1]) whenever cur
    is at least as long as taps, so the taps are reversed once per stream
    and the step calls that kernel directly; a shorter cur keeps
    np.convolve, which swaps the operands there.
    """
    d = period(pmf)
    taps = pmf[::d]
    t = len(taps)
    rev = np.ascontiguousarray(taps[::-1])
    cur, off, cut = weights, offset, 0.0
    for k in range(1, n + 1):
        size = len(cur)
        if size == 0:
            return
        b = size + t - 1
        if b > window_budget:
            raise WindowOverflow(
                f"window of {b} sites at step {k} exceeds budget "
                f"{window_budget}"
            )
        cur = (np.correlate(cur, rev, "full") if size >= t
               else np.convolve(cur, taps))
        off += zmin

        absorbed = None
        if mode == POINT:
            absorbed = 0.0
            i0, r = divmod(-off, d)
            if r == 0 and 0 <= i0 < b:
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
        a = 0
        while a < b and (w := cur[a]) < CUT:
            cut += w
            a += 1
        while b > a and (w := cur[b - 1]) < CUT:
            cut += w
            b -= 1
        cur = cur[a:b]
        off += d * a
        yield k, off, cur, absorbed, cut


def run_dp(
    init_offset: int,
    init_weights: np.ndarray,
    zmin: int,
    pmf: np.ndarray,
    n: int,
    mode: int = FREE,
    alpha: float = 1.0,
    window_budget: int = DEFAULT_WINDOW_BUDGET,
) -> DPResult:
    """Evolve an initial window n steps with per-step absorption.

    In POINT/HALFLINE modes the initial window is taken as already past
    the step-0 absorption (the zero-step kernel is the identity).

    The initial window is split by residue class mod period(pmf); each
    class with a nonzero weight runs as its own strided stream, and the
    survivors are laid back on consecutive sites once, at the end, with
    exact zeros on the sites no class reaches.  The result's cut adds up
    the cut mass of every class stream.
    """
    d = period(pmf)
    init = np.array(init_weights, dtype=np.float64)
    absorbed = np.zeros(n) if mode == POINT else None
    entry = None
    entry_base = 0
    if mode == HALFLINE:
        entry = np.zeros((n, -zmin))
        entry_base = 1 + zmin
    ends, total_cut = [], 0.0
    for r in [r for r in range(d) if init[r::d].any()] or [0]:
        off, cur, cut = init_offset + r, init[r::d], 0.0
        for k, off, cur, removed, cut in _steps(off, cur, zmin, pmf, n, mode,
                                                alpha, window_budget):
            if mode == POINT:
                absorbed[k - 1] += removed
            elif removed is not None:
                j = removed[0] - entry_base
                entry[k - 1, j: j + d * len(removed[1]): d] = removed[1]
        ends.append((off, cur))
        total_cut += cut
    # at most one class holds site 0 on a given step, so the POINT sums
    # above add one absorbed mass to zeros
    live = [e for e in ends if len(e[1])] or ends[:1]
    lo = min(off for off, _ in live)
    last = max(off + d * (len(cur) - 1) for off, cur in live)
    out = np.zeros(max(last - lo + 1, 0))
    for off, cur in live:
        out[off - lo: off - lo + d * len(cur): d] = cur
    return DPResult(lo, out, absorbed, entry, entry_base, float(total_cut))

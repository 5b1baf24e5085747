"""Dynamic-programming evolution of absorbed lattice walks.

A distribution over consecutive sites is a ``Window``: a dense float64
array of weights with site = offset + index.  One step stream evolves a
window under a step pmf by convolution, applying one of three
absorption modes after every step:

  FREE      no absorption,
  POINT     mass arriving at the origin is removed with probability alpha
            (alpha=1 is total absorption; the surviving kernel for
            alpha<1 is the partially absorbed kernel),
  HALFLINE  all mass arriving at a site <= 0 is removed, and the profile
            of where it landed is recorded per step (the entrance law).

After every step, in every mode, the stream cuts the outer runs of sites
whose weight is zero or subnormal (|w| < TINY), so the window follows the
mass instead of growing by the span on every step.  ``run_dp`` runs the
stream n steps and collects what was absorbed; the potential kernel's
partial sums and the Green partial sums read the stream step by step
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WindowOverflow

FREE = 0
POINT = 1
HALFLINE = 2

DEFAULT_WINDOW_BUDGET = 4_000_000

# Weights below the smallest normal float64 are cut from the edges: each
# moves a kept neighbour by under TINY, and subnormal arithmetic is slow.
TINY = float(np.finfo(np.float64).tiny)


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
    """

    absorbed: np.ndarray | None = None
    entry: np.ndarray | None = None
    entry_base: int = 0


def _cut(off: int, arr: np.ndarray) -> tuple[int, np.ndarray]:
    """Cut the outer runs of zero or subnormal weights, scanning inward
    from each edge only: a step pays for the sites it cuts, and each site
    is cut at most once."""
    a, b = 0, len(arr)
    while a < b and abs(arr[a]) < TINY:
        a += 1
    while b > a and abs(arr[b - 1]) < TINY:
        b -= 1
    return off + a, arr[a:b]


def _steps(offset: int, weights: np.ndarray, zmin: int, pmf: np.ndarray,
           n: int, mode: int, alpha: float, window_budget: float):
    """Yield (k, offset, weights, absorbed) after each step k = 1..n.

    absorbed is the mass removed on step k: a float in POINT mode, the
    landing profile as a Window in HALFLINE mode, None in FREE mode.  The
    yielded weights are the live array, not a copy; the stream never
    writes to an array after yielding it.

    After the absorption, every step cuts the outer runs of zero or
    subnormal weights (``_cut``).  The cut reads the window alone, so n
    steps are m steps followed by n - m steps, bit for bit.  The stream
    ends early once the window is empty.

    np.convolve(cur, pmf) is np.correlate(cur, pmf[::-1]) whenever cur is
    at least as long as pmf, so the pmf is reversed once per stream and
    the step calls that kernel directly; a shorter cur keeps np.convolve,
    which swaps the operands there.
    """
    cur, off = weights, offset
    rev = np.ascontiguousarray(pmf[::-1])
    for k in range(1, n + 1):
        if len(cur) == 0:
            return
        if len(cur) + len(pmf) - 1 > window_budget:
            raise WindowOverflow(
                f"window of {len(cur) + len(pmf) - 1} sites at step {k} "
                f"exceeds budget {window_budget}"
            )
        cur = (np.correlate(cur, rev, "full") if len(cur) >= len(pmf)
               else np.convolve(cur, pmf))
        off = off + zmin

        absorbed = None
        if mode == POINT:
            absorbed = 0.0
            i0 = -off
            if 0 <= i0 < len(cur):
                m = cur[i0]
                absorbed = alpha * m
                cur[i0] = (1.0 - alpha) * m
        elif mode == HALFLINE:
            hi = min(len(cur), -off + 1)  # indices with site <= 0
            if hi > 0:
                absorbed = Window(off, cur[:hi])
                cur = cur[hi:]
                off += hi
        off, cur = _cut(off, cur)
        yield k, off, cur, absorbed


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
    """
    off, cur = init_offset, np.array(init_weights, dtype=np.float64)
    absorbed = np.zeros(n) if mode == POINT else None
    entry = None
    entry_base = 0
    if mode == HALFLINE:
        entry = np.zeros((n, -zmin))
        entry_base = 1 + zmin
    for k, off, cur, removed in _steps(off, cur, zmin, pmf, n, mode, alpha,
                                       window_budget):
        if mode == POINT:
            absorbed[k - 1] = removed
        elif removed is not None:
            j = removed.offset - entry_base
            entry[k - 1, j: j + len(removed.weights)] = removed.weights
    return DPResult(off, cur, absorbed, entry, entry_base)

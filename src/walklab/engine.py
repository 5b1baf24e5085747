"""Exact path functionals of absorbed lattice walks.

Everything here is a thin layer over walklab.dp.  Free evolution,
kill-at-origin and kill-on-halfline kernels and partial absorption each
come from one run_dp, and each kernel is the dp.DPResult of its run,
which also holds what the run removed, per step and per absorbing site
(absorbed, from entry_base): the passage law of a point run, the
entrance law of a half-line run.  nu_and_particles sums point-absorbed
runs from many starts, and nu_tail_bound gives its truncation bound
with no DP.

"Exact" means exact up to float64 rounding; an optional rational mode
(evolve_free_exact / absorbed_at_origin_exact /
absorbed_on_halfline_exact, n <= 64) computes the same kernels, and
what they removed in one layout, {(k, site): value}, as Fractions, from
integer numerators over a power of the law's common denominator, and
is used to calibrate the float tolerances quoted elsewhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import dp
from .errors import ConstraintViolation, TailNotNegligible
from .laws import StepLaw, moments

EXACT_STEP_LIMIT = 64


def _run(law: StepLaw, x: int, n: int, mode: int,
         alpha: float = 1.0) -> dp.DPResult:
    zmin, pmf = law.pmf_array()
    return dp.run_dp(x, np.ones(1), zmin, pmf, n, mode=mode, alpha=alpha)


def evolve_free(law: StepLaw, x: int, n: int) -> dp.DPResult:
    """Free n-step distribution p^n(x, .)."""
    return _run(law, x, n, dp.FREE)


def absorbed_at_origin(law: StepLaw, x: int, n: int) -> dp.DPResult:
    """Kill-at-origin kernel q^n(x, .); absorbed[k-1, 0] is the passage
    law f_x(k), k <= n."""
    return _run(law, x, n, dp.POINT)


def absorbed_on_halfline(law: StepLaw, x: int, n: int) -> dp.DPResult:
    """Kill-on-(-inf,0] kernel; absorbed[k-1, j] is the entrance law
    h_x(k, entry_base + j), and mass() is P_x[T > n]."""
    if x < 1:
        raise ConstraintViolation("halfline absorption requires start x >= 1")
    return _run(law, x, n, dp.HALFLINE)


def partial_absorption(law: StepLaw, alpha: float, x: int,
                       n: int) -> dp.DPResult:
    """q_alpha^n(x, .): mass arriving at 0 is removed with probability alpha.

    Starting at 0 does not count as an arrival; the zero-step kernel is
    the identity for every alpha.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConstraintViolation("alpha must lie in [0, 1]")
    return _run(law, x, n, dp.POINT, alpha)


def nu_tail_bound(law: StepLaw, n: int) -> tuple[int, float]:
    """(x_max, tail bound) of nu_and_particles at n, with no DP; raises
    TailNotNegligible where nu_and_particles would.

    x_max = ceil(8 sqrt(sigma2 n)).  The tail over x > x_max is bounded by
    the Gaussian envelope sum_{x > x_max} g_{4n}(x) plus the exact
    big-jump term sum_{y<0} |y| P[Y < y - x/2], which vanishes for finite
    support once x_max is at least twice the largest down-jump; below
    that, TailNotNegligible.  The envelope sums a decreasing density from
    4 standard deviations of g_{4n} out, so it is below P[Z > 4] < 3.2e-5.
    """
    n_star = float(moments(law).sigma2) * n
    x_max = math.ceil(8.0 * math.sqrt(n_star))
    if x_max < 2 * (-law.zmin):
        raise TailNotNegligible("x_max below twice the largest down-jump")
    tail = 0.0
    var4 = 4.0 * n_star
    x = x_max + 1
    while True:
        t = math.exp(-x * x / (2.0 * var4)) / math.sqrt(2.0 * math.pi * var4)
        if x > x_max + 1 and t < 1e-18:
            break
        tail += t
        x += 1
    return x_max, tail


def nu_and_particles(law: StepLaw, n: int, ell: float = 1.0):
    """Truncation of nu_n = sum_{x>=1} Q_x^+(n), with an error bound, and
    the expected count of surviving particles in [-ell*sqrt(sigma2 n), -1]
    when one particle starts on every site of 1..x_max.

    A point-absorbed DP with unit mass on every start site gives both sums
    by linearity, one run per class of the sites mod the period.  x_max
    and the tail bound come from nu_tail_bound, whose guards run before
    the DP; the error bound adds the runs' cuts, within which both sums
    lie of the uncut DP.
    """
    x_max, tail = nu_tail_bound(law, n)
    n_star = float(moments(law).sigma2) * n
    zmin, pmf = law.pmf_array()
    d = dp.period(pmf)
    runs = [dp.run_dp(x, np.ones((x_max - x) // d + 1), zmin, pmf, n,
                      mode=dp.POINT) for x in range(1, min(d, x_max) + 1)]
    lo = -int(math.floor(ell * math.sqrt(n_star)))
    return (sum(r.restricted_sum(r.offset, -1) for r in runs),
            tail + sum(r.cut for r in runs),
            sum(r.restricted_sum(lo, -1) for r in runs))


# ---------------------------------------------------------------------------
# Exact rational mode (small n), used to calibrate float tolerances.

def _exact_stream(law: StepLaw, x: int, n: int, mode: int):
    """Rational n-step kernel from x in the dp mode, {site: value}, and
    the nonzero masses its absorbing set (dp._absorbing, at rate 1)
    removed, {(k, site): value}: the passage law (POINT) or the entrance
    law (HALFLINE); None in FREE mode.  The DP carries integer numerators
    over D^k, D the lcm of the law's denominators, as an object array of
    Python ints on the sites off, off+1, ...: np.convolve with the
    integer taps is exact."""
    if n > EXACT_STEP_LIMIT:
        raise ConstraintViolation(
            f"exact mode limited to n <= {EXACT_STEP_LIMIT}")
    D = math.lcm(*(w.denominator for _, w in law.items()))
    taps = np.zeros(law.zmax - law.zmin + 1, dtype=object)
    for z, w in law.items():
        taps[z - law.zmin] = int(w * D)
    cur, off = np.ones(1, dtype=object), x
    ab = dp._absorbing(law.zmin, mode, 1.0)
    removed = None if ab is None else {}
    for k in range(1, n + 1):
        cur = np.convolve(cur, taps)
        off += law.zmin
        if ab is not None:      # the sites edge..0 at indices lo..hi-1
            lo, hi = max(ab[0] - off, 0), max(min(len(cur), 1 - off), 0)
            removed.update({(k, off + i): Fraction(cur[i], D ** k)
                            for i in range(lo, hi) if cur[i]})
            cur[lo:hi] = 0
    return ({off + i: Fraction(m, D ** n) for i, m in enumerate(cur) if m},
            removed)


def evolve_free_exact(law: StepLaw, x: int, n: int) -> dict[int, Fraction]:
    return _exact_stream(law, x, n, dp.FREE)[0]


def absorbed_at_origin_exact(law: StepLaw, x: int, n: int):
    """Rational q^n(x, .) and passage law, {(k, 0): f_x(k)}; n <= 64."""
    return _exact_stream(law, x, n, dp.POINT)


def absorbed_on_halfline_exact(law: StepLaw, x: int, n: int):
    """Rational kill-on-(-inf,0] kernel and entrance law, {(k, y):
    h_x(k, y)}; n <= 64."""
    if x < 1:
        raise ConstraintViolation("halfline absorption requires start x >= 1")
    return _exact_stream(law, x, n, dp.HALFLINE)

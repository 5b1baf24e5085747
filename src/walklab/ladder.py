"""Ladder heights, the harmonic pair f_+/f_-, and entrance laws.

The ascending ladder height H+ is the overshoot at the first entry of the
walk into [1, inf) from 0; its renewal function generates f_-, the positive
harmonic function of the walk killed on (-inf, 0].  The descending ladder
of p is the ascending ladder of p~ (p reflected).

Both come from one exact Wiener-Hopf factorisation (Spitzer, Principles of
Random Walk, sections 17-19; Feller II, XII).  With a = -zmin, b = zmax,
s^a (1 - phi(s)) / (s - 1)^2 has a - 1 roots inside the unit disc and
b - 1 outside (none on it, as the law generates Z), and

    1 - E s^{H+} = (1 - s) prod_{|r| > 1} (1 - s / r);

the descending ladder takes 1/r for each root r inside the disc.  The
roots are laws.wiener_hopf_roots, the same ones the potential table is
solved from.  The product is expanded at ROOT_DPS digits and rounded to
float once.  The truncated half-line DP is kept as the independent route:
ladder_buckets reads a half-line run of verify.invariant_suite, which
checks it against the exact laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .dp import DPResult, Window
from .engine import absorbed_on_halfline  # noqa: F401, walkbench's tracing test reads it here
from .errors import OutOfWindow
from .laws import ROOT_DPS, StepLaw, moments, wiener_hopf_roots
from .potential import PotentialTable


@dataclass
class LadderHeightLaw:
    direction: str            # "ascending" | "descending"
    pmf: np.ndarray           # index h-1, heights 1..len(pmf)
    mean: float
    # always True now; kept because the benchmark's trace probe reads it
    exact: bool = True


def ladder_height_law(law: StepLaw, direction: str) -> LadderHeightLaw:
    """Exact ladder-height law from the Wiener-Hopf roots of `law`."""
    if direction not in ("ascending", "descending"):
        raise ValueError("direction must be 'ascending' or 'descending'")
    with mp.workdps(ROOT_DPS):
        up = direction == "ascending"
        ladder = [r if up else 1 / r
                  for r in wiener_hopf_roots(law) if (abs(r) > 1) == up]
        c = [mp.mpc(1)]     # (1 - s) prod (1 - s / r), lowest degree first
        for r in [mp.mpc(1)] + ladder:
            c = [u - v / r for u, v in zip(c + [0], [0] + c)]
        pmf = [-v.real for v in c[1:]]
        mean = sum(h * p for h, p in enumerate(pmf, 1))
        return LadderHeightLaw(direction, np.array([float(p) for p in pmf]),
                               float(mean))


def ladder_buckets(run: DPResult) -> tuple[np.ndarray, float]:
    """The DP route, from a half-line run from 1: (mass entering each
    height 1..b within its steps, deficit).  The deficit is the mass not
    entered by then plus the mass the DP cut, as the uncut run's bucket
    and survivors exceed the cut run's by at most the cut.  The first
    entry of S into [1, inf) from 0 is that of V = 1 - S into (-inf, 0]
    from 1, and V steps with the reflected law, so the ascending buckets
    read a run of the reflected law and the descending ones a run of the
    law itself; entry site y <= 0 is height 1 - y."""
    return run.absorbed.sum(axis=0)[::-1], run.mass() + run.cut


@dataclass
class HarmonicPair:
    """f_+/f_- on 1..X (index x-1) and increments u^+/u^- on 0..X."""

    X: int
    f_plus: np.ndarray
    f_minus: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray

    def fp(self, x: int) -> float:
        if not 1 <= x <= self.X:
            raise OutOfWindow(f"x={x} outside 1..{self.X}")
        return float(self.f_plus[x - 1])

    def fm(self, x: int) -> float:
        if not 1 <= x <= self.X:
            raise OutOfWindow(f"x={x} outside 1..{self.X}")
        return float(self.f_minus[x - 1])


def _renewal_density(pmf: np.ndarray, X: int) -> np.ndarray:
    """v(j) = expected number of ladder points at j, j = 0..X; v(0) = 1."""
    v = np.zeros(X + 1)
    v[0] = 1.0
    for j in range(1, X + 1):
        s = 0.0
        for h in range(1, min(j, len(pmf)) + 1):
            s += pmf[h - 1] * v[j - h]
        v[j] = s
    return v


def _f_table(ladder: LadderHeightLaw, X: int):
    """f(x) = f(1) (1 + sum_{j<=x-1} v(j)), u(y) = f(1) v(y-1)."""
    v = _renewal_density(ladder.pmf, X)
    f1 = ladder.mean
    f = f1 * (1.0 + np.concatenate([[0.0], np.cumsum(v[1:X])]))
    u = np.zeros(X + 1)
    u[1:] = f1 * v[:X]
    return f, u


def build_harmonic_pair(law: StepLaw, X: int = 400) -> HarmonicPair:
    f_minus, u_minus = _f_table(ladder_height_law(law, "ascending"), X)
    f_plus, u_plus = _f_table(ladder_height_law(law, "descending"), X)
    return HarmonicPair(X=X, f_plus=f_plus, f_minus=f_minus,
                        u_plus=u_plus, u_minus=u_minus)


def harmonicity_residual(law: StepLaw, pair: HarmonicPair, side: str,
                         x: int) -> float:
    """E[f(x +/- Y); x +/- Y > 0] - f(x); sign per (f_+, +Y) / (f_-, -Y)."""
    f = pair.fp if side == "plus" else pair.fm
    s = 0.0
    for z, w in law.items():
        arg = x + z if side == "plus" else x - z
        if arg > 0:
            s += float(w) * f(arg)
    return s - f(x)


def green_halfline(pair: HarmonicPair, sigma2: float, x: int, y: int) -> float:
    """Expected visits to y before entering (-inf, 0], started at x."""
    if not (1 <= x <= pair.X and 1 <= y <= pair.X):
        raise OutOfWindow(f"(x={x}, y={y}) outside 1..{pair.X}")
    s = sum(pair.u_plus[x - z] * pair.u_minus[y - z]
            for z in range(min(x, y) + 1))
    return 2.0 * s / sigma2


def _entrance_sums(law: StepLaw, weight) -> np.ndarray:
    """sum_{w>=1} weight(w) p(y - w) for y in [zmin+1, 0]."""
    return np.array([sum(weight(w) * float(law.prob(y - w))
                         for w in range(1, y - law.zmin + 1))
                     for y in range(law.zmin + 1, 1)])


def _h_inf(law: StepLaw, f_table: np.ndarray, sigma2: float) -> Window:
    """(2/sigma2) sum_{j>=1} f(j) p(y - j) on y in [zmin+1, 0]."""
    s = _entrance_sums(law, lambda j: f_table[j - 1])
    return Window(law.zmin + 1, 2.0 * s / sigma2)


def entrance_law_inf(law: StepLaw, pair: HarmonicPair) -> Window:
    """H_inf^+: hitting law of (-inf, 0] from a start receding to +inf."""
    sigma2 = float(moments(law).sigma2)
    return _h_inf(law, pair.f_minus, sigma2)


def entrance_law_minus_inf(law: StepLaw, pair: HarmonicPair) -> Window:
    """H_{-inf}^-: dual hitting law of [0, inf) from a start receding to
    -inf; same code run on the reflected law, pmf reported on y >= 0."""
    sigma2 = float(moments(law).sigma2)
    h = _h_inf(law.reflected(), pair.f_plus, sigma2)
    return Window(0, h.weights[::-1].copy())


def entrance_law_from(law: StepLaw, pair: HarmonicPair, x: int) -> Window:
    """H_x^+(y) = sum_{w>=1} g_halfline(x, w) p(y - w), y <= 0."""
    sigma2 = float(moments(law).sigma2)
    s = _entrance_sums(law, lambda w: green_halfline(pair, sigma2, x, w))
    return Window(law.zmin + 1, s)


def c_entrance_route(h: Window, table: PotentialTable,
                     sigma2: float) -> float:
    """sum_y h(y) (sigma2 a(y) + |y|): C^+ for h = H_inf^+, C^- for
    h = H_{-inf}^-."""
    return float(sum(h.prob(y) * (sigma2 * table.a(y) + abs(y))
                     for y in h.sites()))

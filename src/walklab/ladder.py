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
product is expanded at ROOT_DPS digits and rounded to float once.  The
truncated half-line DP is kept as the independent route (ladder_buckets),
checked against the exact laws in verify.invariant_suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np
from mpmath import mp

from .dp import Window
from .engine import absorbed_on_halfline
from .errors import FactorizationFailed, OutOfWindow
from .laws import StepLaw, moments
from .potential import PotentialTable

ROOT_DPS = 50         # digits of the root polish and the product expansion
NEWTON_STEPS = 60     # a simple root needs about 3 from a float64 seed
BUCKET_STEPS = 2048   # steps of the DP cross-check


@dataclass
class LadderHeightLaw:
    direction: str            # "ascending" | "descending"
    pmf: np.ndarray           # index h-1, heights 1..len(pmf)
    mean: float
    # always True now; kept because the benchmark's trace probe reads it
    exact: bool = True

    def height_mean(self) -> float:
        return self.mean


def _newton(coef: list, r, eps):
    """Polish a root r of coef (highest degree first); None if the steps
    do not settle within NEWTON_STEPS."""
    for _ in range(NEWTON_STEPS):
        p, d = coef[0], 0
        for v in coef[1:]:
            p, d = p * r + v, d * r + p
        if d == 0:
            return None
        step = p / d
        r -= step
        if abs(step) <= eps * abs(r):
            return r
    return None


@lru_cache(maxsize=None)
def _roots(law: StepLaw) -> tuple:
    """Roots of s^a (1 - phi(s)) / (s - 1)^2 at ROOT_DPS digits, from
    numpy.roots seeds polished by Newton steps."""
    a = -law.zmin
    q = [int(k == a) - law.prob(k - a) for k in range(law.zmax + a, -1, -1)]
    for _ in range(2):          # exact division by s - 1, remainder 0
        q = list(accumulate(q))[:-1]
    roots = []
    with mp.workdps(ROOT_DPS):
        coef = [mp.mpf(v.numerator) / v.denominator for v in q]
        eps = mp.mpf(10) ** (10 - ROOT_DPS)
        seeds = np.roots([float(v) for v in q]) if len(q) > 1 else []
        for seed in map(complex, seeds):
            r = _newton(coef, mp.mpc(seed), eps)
            if r is None:
                raise FactorizationFailed(f"{law.name}: the root near "
                                          f"{seed:.6g} did not converge")
            if any(abs(r - t) <= eps ** 0.5 * max(1, abs(r)) for t in roots):
                raise FactorizationFailed(f"{law.name}: roots near "
                                          f"{complex(r):.6g} are not distinct")
            roots.append(r)
    outside = sum(abs(r) > 1 for r in roots)
    if outside != law.zmax - 1:
        raise FactorizationFailed(f"{law.name}: {outside} roots outside the "
                                  f"unit disc, expected {law.zmax - 1}")
    return tuple(roots)


def ladder_height_law(law: StepLaw, direction: str) -> LadderHeightLaw:
    """Exact ladder-height law from the Wiener-Hopf roots of `law`."""
    if direction not in ("ascending", "descending"):
        raise ValueError("direction must be 'ascending' or 'descending'")
    with mp.workdps(ROOT_DPS):
        up = direction == "ascending"
        ladder = [r if up else 1 / r
                  for r in _roots(law) if (abs(r) > 1) == up]
        c = [mp.mpc(1)]     # (1 - s) prod (1 - s / r), lowest degree first
        for r in [mp.mpc(1)] + ladder:
            c = [u - v / r for u, v in zip(c + [0], [0] + c)]
        pmf = [-v.real for v in c[1:]]
        mean = sum(h * p for h, p in enumerate(pmf, 1))
        return LadderHeightLaw(direction, np.array([float(p) for p in pmf]),
                               float(mean))


def ladder_buckets(law: StepLaw, direction: str) -> tuple[np.ndarray, float]:
    """The DP route: (mass entering each height 1..b within BUCKET_STEPS
    steps, mass not entered by then).  The first entry of S into [1, inf)
    from 0 is that of V = 1 - S into (-inf, 0] from 1, and V steps with the
    reflected law; entry site y <= 0 is height 1 - y."""
    walk = law.reflected() if direction == "ascending" else law
    _, table = absorbed_on_halfline(walk, 1, BUCKET_STEPS)
    return table.partial_entrance()[1][::-1], table.deficit


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


@dataclass
class EntranceLaw(Window):
    """Hitting law as a window over the sites it can charge."""

    kind: str    # "H_x_plus" | "H_inf_plus" | "H_minus_inf"
    x: int | None


def _entrance_sums(law: StepLaw, weight) -> np.ndarray:
    """sum_{w>=1} weight(w) p(y - w) for y in [zmin+1, 0]."""
    return np.array([sum(weight(w) * float(law.prob(y - w))
                         for w in range(1, y - law.zmin + 1))
                     for y in range(law.zmin + 1, 1)])


def _h_inf(law: StepLaw, f_table: np.ndarray, sigma2: float) -> EntranceLaw:
    """(2/sigma2) sum_{j>=1} f(j) p(y - j) on y in [zmin+1, 0]."""
    s = _entrance_sums(law, lambda j: f_table[j - 1])
    return EntranceLaw(law.zmin + 1, 2.0 * s / sigma2, "H_inf_plus", None)


def entrance_law_inf(law: StepLaw, pair: HarmonicPair) -> EntranceLaw:
    """H_inf^+: hitting law of (-inf, 0] from a start receding to +inf."""
    sigma2 = float(moments(law).sigma2)
    return _h_inf(law, pair.f_minus, sigma2)


def entrance_law_minus_inf(law: StepLaw, pair: HarmonicPair) -> EntranceLaw:
    """H_{-inf}^-: dual hitting law of [0, inf) from a start receding to
    -inf; same code run on the reflected law, pmf reported on y >= 0."""
    sigma2 = float(moments(law).sigma2)
    h = _h_inf(law.reflected(), pair.f_plus, sigma2)
    return EntranceLaw(0, h.weights[::-1].copy(), "H_minus_inf", None)


def entrance_law_from(law: StepLaw, pair: HarmonicPair, x: int) -> EntranceLaw:
    """H_x^+(y) = sum_{w>=1} g_halfline(x, w) p(y - w), y <= 0."""
    sigma2 = float(moments(law).sigma2)
    s = _entrance_sums(law, lambda w: green_halfline(pair, sigma2, x, w))
    return EntranceLaw(law.zmin + 1, s, "H_x_plus", x)


@dataclass
class IdentityCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def potential_identities(law: StepLaw, pair: HarmonicPair,
                         table: PotentialTable,
                         xs=(5, 20, 50), ys=(0, -3)) -> list[IdentityCheck]:
    """Cross-checks tying the entrance laws, f_+, and a(x) together.

    The hitting-decomposition check needs y <= 0; x values must be
    positive and inside both windows.
    """
    sigma2 = float(moments(law).sigma2)
    h_inf = entrance_law_inf(law, pair)
    out = []
    out.append(IdentityCheck("H_inf_plus normalization", h_inf.mass(), 1.0))
    for x in xs:
        hx = entrance_law_from(law, pair, x)
        out.append(IdentityCheck(f"hitting-law mass x={x}", hx.mass(), 1.0))
        lhs = sum(hx.prob(z) * (-z) for z in hx.sites())
        out.append(IdentityCheck(
            f"overshoot mean vs f_+(x)-x, x={x}", lhs, pair.fp(x) - x))
        lhs = sum(hx.prob(z) * (sigma2 * table.a(z) - z) for z in hx.sites())
        out.append(IdentityCheck(
            f"potential transport x={x}", lhs, sigma2 * table.a(x) - x))
        for y in ys:
            lhs = sum(hx.prob(z) * table.a(z - y) for z in hx.sites())
            out.append(IdentityCheck(
                f"hitting decomposition x={x}, y={y}", lhs,
                table.a(x - y) - pair.fp(x) / sigma2))
    # edge behavior: f_+(X) - X vs the limit sum of H_inf_plus overshoot
    limit = sum(h_inf.prob(z) * (-z) for z in h_inf.sites())
    out.append(IdentityCheck("f_+ centering at window edge",
                             pair.fp(pair.X) - pair.X, limit))
    return out


def c_plus_entrance_route(law: StepLaw, pair: HarmonicPair,
                          table: PotentialTable) -> float:
    """C^+ = sum_y H_inf^+(y) (sigma2 a(y) + |y|)."""
    sigma2 = float(moments(law).sigma2)
    h = entrance_law_inf(law, pair)
    return float(sum(h.prob(y) * (sigma2 * table.a(y) + abs(y))
                     for y in h.sites()))


def c_minus_entrance_route(law: StepLaw, pair: HarmonicPair,
                           table: PotentialTable) -> float:
    """Dual route under the reflected law."""
    sigma2 = float(moments(law).sigma2)
    h = entrance_law_minus_inf(law, pair)
    return float(sum(h.prob(y) * (sigma2 * table.a(y) + abs(y))
                     for y in h.sites()))

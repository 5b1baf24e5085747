"""Ladder heights, the harmonic pair f_+/f_-, and entrance laws.

The ascending ladder height is the overshoot S at the first entry of
the walk into [1, inf) from 0; its renewal function generates f_-, the
positive harmonic function of the walk killed on (-inf, 0].  Descending
objects are the same construction under the reflected law (never a
separate formula), which enforces the duality structurally:

    descending ladder of p  ==  ascending ladder of p~ (p reflected).

Computation: the first entry into [1, inf) of S from 0 is the first
entry into (-inf, 0] of V = 1 - S from 1, and V steps with the
reflected law; so one half-line absorbed DP yields the ladder buckets.
Two exactness shortcuts cover unit-jump sides:

* max jump in the ladder direction is 1  ->  point mass at height 1;
* opposite side has unit max jump        ->  the ladder mean is exactly
  sigma^2 / (2 P[one-step move to the ladder side]), which pins the pmf
  completely when the support is {1, 2}.

Otherwise the DP buckets are renormalized over the unresolved deficit
(the bucket shape stabilizes much faster than the total mass) and a
shape-drift diagnostic is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dp import Window
from .engine import absorbed_on_halfline
from .errors import DeficitTooLarge, OutOfWindow
from .laws import StepLaw, moments
from .potential import PotentialTable


@dataclass
class LadderHeightLaw:
    direction: str            # "ascending" | "descending"
    pmf: np.ndarray           # index h-1, heights 1..len(pmf)
    mean: float
    deficit_estimate: float
    shape_drift: float
    exact: bool

    def height_mean(self) -> float:
        return self.mean


def _ladder_buckets(step_law: StepLaw, n_steps: int):
    """Entry-height buckets of the first passage of 1 - S below 1, where
    S steps with the reflection of `step_law` -- i.e. the ascending
    ladder of `step_law` truncated at n_steps."""
    _, table = absorbed_on_halfline(step_law.reflected(), 1, n_steps)
    # entry site y <= 0 corresponds to ladder height 1 - y
    h = table.h
    base = table.entry_base
    hmax = 1 - base
    buckets = np.zeros(hmax)
    part = np.zeros(hmax)  # buckets at n_steps // 4, for the drift check
    csum = h.cumsum(axis=0)
    for j in range(h.shape[1]):
        height = 1 - (base + j)
        buckets[height - 1] = csum[-1, j]
        part[height - 1] = csum[n_steps // 4 - 1, j]
    return buckets, part, table.deficit


def ladder_height_law(law: StepLaw, direction: str, n_steps: int = 2048,
                      tol: float = 0.05) -> LadderHeightLaw:
    if direction == "ascending":
        base_law = law
    elif direction == "descending":
        base_law = law.reflected()
    else:
        raise ValueError("direction must be 'ascending' or 'descending'")
    up = base_law.zmax          # max jump toward the ladder side
    down = base_law.zmin        # opposite side

    if up == 1:
        return LadderHeightLaw(direction, np.ones(1), 1.0, 0.0, 0.0, True)

    exact_mean = None
    if down == -1:
        # dual of the f_-(j) P[Y <= -j] = sigma^2/2 identity with a
        # single term on the unit-jump side
        m = moments(base_law)
        p_side = sum(w for z, w in base_law.items() if z <= -1)
        exact_mean = m.sigma2 / (2 * p_side)
        if up == 2:
            # support {1,2}: mean pins the pmf
            mean = float(exact_mean)
            pmf = np.array([2.0 - mean, mean - 1.0])
            return LadderHeightLaw(direction, pmf, mean, 0.0, 0.0, True)

    buckets, part, deficit = _ladder_buckets(base_law, n_steps)
    pmf = buckets / buckets.sum()
    pmf_part = part / part.sum()
    drift = float(np.max(np.abs(pmf - pmf_part)))
    if drift > tol:
        raise DeficitTooLarge(
            f"ladder bucket shape drift {drift:.3g} exceeds tol {tol:.3g}")
    heights = np.arange(1, len(pmf) + 1)
    if exact_mean is not None:
        # tilt the pmf onto the exact-mean constraint, preserving total mass
        c = heights - heights.mean()
        lam = (float(exact_mean) - heights @ pmf) / (heights @ c)
        pmf = pmf + lam * c
        mean = float(exact_mean)
    else:
        mean = float(heights @ pmf)
    return LadderHeightLaw(direction, pmf, mean, float(deficit), drift, False)


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


def harmonic_pair(asc: LadderHeightLaw, desc: LadderHeightLaw,
                  X: int = 400) -> HarmonicPair:
    f_minus, u_minus = _f_table(asc, X)
    f_plus, u_plus = _f_table(desc, X)
    return HarmonicPair(X=X, f_plus=f_plus, f_minus=f_minus,
                        u_plus=u_plus, u_minus=u_minus)


def build_harmonic_pair(law: StepLaw, X: int = 400, **kw) -> HarmonicPair:
    asc = ladder_height_law(law, "ascending", **kw)
    desc = ladder_height_law(law, "descending", **kw)
    return harmonic_pair(asc, desc, X)


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
    m = min(x, y)
    up = pair.u_plus
    um = pair.u_minus
    s = 0.0
    for z in range(0, m + 1):
        s += up[x - z] * um[y - z]
    return 2.0 * s / sigma2


@dataclass
class EntranceLaw(Window):
    """Hitting law as a window over the sites it can charge."""

    kind: str    # "H_x_plus" | "H_inf_plus" | "H_minus_inf"
    x: int | None


def _h_inf(law: StepLaw, f_table: np.ndarray, sigma2: float) -> EntranceLaw:
    """(2/sigma2) sum_{j>=1} f(j) p(y - j) on y in [zmin+1, 0]."""
    base = law.zmin + 1
    pmf = np.zeros(-law.zmin)
    for i in range(len(pmf)):
        y = base + i
        s = 0.0
        for j in range(1, y - law.zmin + 1):
            s += f_table[j - 1] * float(law.prob(y - j))
        pmf[i] = 2.0 * s / sigma2
    return EntranceLaw(base, pmf, "H_inf_plus", None)


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
    base = law.zmin + 1
    pmf = np.zeros(-law.zmin)
    for i in range(len(pmf)):
        y = base + i
        s = 0.0
        for w in range(1, y - law.zmin + 1):
            s += green_halfline(pair, sigma2, x, w) * float(law.prob(y - w))
        pmf[i] = s
    return EntranceLaw(base, pmf, "H_x_plus", x)


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

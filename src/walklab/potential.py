"""Potential kernel a(x), point-absorption Green function, and constants.

build_potential_table gives a(x) and C+- exactly, by one linear solve over
the Wiener-Hopf roots of the law.  Two independent routes to a(x) check
it: verify compares the table with a_fourier, and the tests compare both
with a_partial_sums.

* a_fourier: a(x) = (1/2pi) Int_{-pi}^{pi} Re[(1 - e^{ixl})/(1 - phi(l))] dl.
  The 2(1-cos xl)/(sigma2 l^2) singular part is integrated semi-
  analytically (|x|/sigma2 minus an explicit tail integral via Si); the
  smooth remainder is split into a non-oscillatory piece and two
  oscillatory pieces handled by weighted (cos/sin) adaptive quadrature.
  Near l = 0 the remainder suffers catastrophic cancellation in float64,
  so it is evaluated in 40-digit arithmetic on a fixed Gauss-Legendre
  patch [0, 0.02] (the integrand is analytic there, so the fixed rule is
  far below rounding error).

* a_partial_sums: sum_{k<=K} [p^k(0) - p^k(-x)] from the exact DP, with
  the k > K tail extrapolated by fitting the period-aggregated
  increments to a half-integer power basis and summing the fitted model
  with Hurwitz zeta functions.  The increments admit an asymptotic
  expansion in powers k^{-3/2}, k^{-2}, ... , which is what makes the
  extrapolation quantitatively reliable.  The DP stream cuts its zero and
  subnormal edges after every step, so the window stops growing like
  K * span.  The table stays bit-identical to an uncut DP: a step only
  averages weights, so the cuts shift later weights by at most the mass
  cut, while every nonzero weight in [-X, X] stays far above it for the
  laws tested, so the shift rounds away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from mpmath import mp
from scipy.integrate import quad
from scipy.special import sici, zeta

from . import dp
from .errors import (InconsistentEstimates, OutOfWindow,
                     QuadratureNotConverged, SingularSystem)
from .laws import (StepLaw, lattice_structure, moments, one_minus_phi_cos,
                   phi_sin, wiener_hopf_roots)

MP_PATCH = 0.02       # high-precision patch is [0, MP_PATCH]
MP_DPS = 40
GL_NODES = 24
QUAD_TOL = 1e-12


# ---------------------------------------------------------------------------
# Smooth remainder of the characteristic-function integrand.

def _ab_float(law: StepLaw, sigma2: float, l: float) -> tuple[float, float]:
    """A(l) = (1-phi_c)/|1-phi|^2 - 2/(sigma2 l^2),  B(l) = phi_s/|1-phi|^2."""
    c = one_minus_phi_cos(law, l)
    s = phi_sin(law, l)
    d2 = c * c + s * s
    return c / d2 - 2.0 / (sigma2 * l * l), s / d2


@lru_cache(maxsize=None)
def _patch_nodes(law: StepLaw):
    """Gauss-Legendre nodes on [0, MP_PATCH] with A, B precomputed in
    high precision (they do not depend on x)."""
    t, w = np.polynomial.legendre.leggauss(GL_NODES)
    ls = 0.5 * MP_PATCH * (t + 1.0)
    ws = 0.5 * MP_PATCH * w
    sigma2 = moments(law).sigma2
    avals, bvals = [], []
    with mp.workdps(MP_DPS):
        s2 = mp.mpf(sigma2.numerator) / sigma2.denominator
        for l in ls:
            lm = mp.mpf(l)
            c = mp.mpf(0)
            s = mp.mpf(0)
            for z, p in law.items():
                pm = mp.mpf(p.numerator) / p.denominator
                c += pm * 2 * mp.sin(z * lm / 2) ** 2
                s += pm * (mp.sin(z * lm) - z * lm)
            d2 = c * c + s * s
            avals.append(float(c / d2 - 2 / (s2 * lm * lm)))
            bvals.append(float(s / d2))
    return ls, ws, np.array(avals), np.array(bvals)


@lru_cache(maxsize=None)
def _a_nonosc_integral(law: StepLaw) -> float:
    """Int_{MP_PATCH}^{pi} A(l) dl, shared by every x."""
    sigma2 = float(moments(law).sigma2)
    val, err = quad(lambda l: _ab_float(law, sigma2, l)[0], MP_PATCH, math.pi,
                    epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    if err > 1e-10:
        raise QuadratureNotConverged(f"A integral error estimate {err:.2g}")
    return val


def _tail_integral(x: int) -> float:
    """Int_{pi}^{inf} (1 - cos xl)/l^2 dl, for x >= 0, to machine accuracy."""
    if x == 0:
        return 0.0
    si, _ = sici(math.pi * x)
    j = math.cos(math.pi * x) / math.pi - x * (math.pi / 2.0 - si)
    return 1.0 / math.pi - j


def a_fourier(law: StepLaw, x: int) -> float:
    """Potential kernel a(x) by characteristic-function quadrature."""
    if x == 0:
        return 0.0
    ax = abs(x)
    sigma2 = float(moments(law).sigma2)

    sgn = 1.0 if x > 0 else -1.0
    ls, ws, av, bv = _patch_nodes(law)
    patch = float(np.sum(ws * ((1.0 - np.cos(ax * ls)) * av
                               + sgn * np.sin(ax * ls) * bv)))

    ia_const = _a_nonosc_integral(law)
    osc_cos, e1 = quad(lambda l: _ab_float(law, sigma2, l)[0], MP_PATCH,
                       math.pi, weight="cos", wvar=ax,
                       epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
    osc_sin, e2 = quad(lambda l: _ab_float(law, sigma2, l)[1], MP_PATCH,
                       math.pi, weight="sin", wvar=ax,
                       epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
    if max(e1, e2) > 1e-10:
        raise QuadratureNotConverged(
            f"oscillatory quadrature error estimate {max(e1, e2):.2g}")

    i_ab = patch + (ia_const - osc_cos) + sgn * osc_sin
    return ax / sigma2 - 2.0 * _tail_integral(ax) / (math.pi * sigma2) \
        + i_ab / math.pi


# ---------------------------------------------------------------------------
# Partial-sum route.

PS_EXPONENTS = np.arange(1.5, 6.51, 0.5)


@lru_cache(maxsize=None)
def _partial_sum_table(law: StepLaw, X: int, K: int):
    """(acc, tail, bound) for all |x| <= X: acc accumulates
    sum_{k<=K} [p^k(0) - p^k(-x)] along one free DP from 0, and the tail
    beyond K is fitted to the block-aggregated increments."""
    d = lattice_structure(law).period
    M = K // d
    K = M * d
    m0 = M // 16  # fit window: blocks m0+1 .. M (several octaves for conditioning)
    zmin, pmf = law.pmf_array()

    acc = np.ones(2 * X + 1)                # k = 0 term; index x + X
    acc[X] = 0.0                            # except at x = 0
    blocks = np.zeros((M - m0, 2 * X + 1))
    win = np.empty(2 * X + 1)
    # no window budget: the window is bounded by K * span + 1 sites, and
    # far less once its underflowed edges are cut
    for k, off, cur, _ in dp._steps(0, np.ones(1), zmin, pmf, K, dp.FREE,
                                    1.0, math.inf):
        # p^k(s) for s in [-X, X]
        win[:] = 0.0
        lo = max(-X, off)
        hi = min(X, off + len(cur) - 1)
        if hi >= lo:
            win[lo + X: hi + X + 1] = cur[lo - off: hi - off + 1]
        delta = win[X] - win[::-1]          # p^k(0) - p^k(-x)
        acc += delta
        m = (k - 1) // d                    # block index, 0-based
        if m >= m0:
            blocks[m - m0] += delta
    tail, bound = _fit_tail(blocks, m0, M)
    return acc, tail, bound


def _fit_tail(blocks: np.ndarray, m0: int, M: int):
    """Fit block sums to sum_e c_e m^{-e} and return (tail, bound) arrays;
    the bound compares with the fit on all but the last two exponents."""
    m = np.arange(m0 + 1, M + 1, dtype=float)
    t = m / M
    design = t[:, None] ** (-PS_EXPONENTS[None, :])
    norms = np.linalg.norm(design, axis=0)
    scaled = design / norms
    # tail over m > M of c_e m^{-e} = c_e M^e zeta(e, M+1)
    scale = np.array([M ** e * zeta(e, M + 1) for e in PS_EXPONENTS])

    def solve(j: int):
        coef, *_ = np.linalg.lstsq(scaled[:, :j], blocks, rcond=None)
        coef /= norms[:j, None]
        return scale[:j] @ coef, coef

    tail, coef = solve(len(PS_EXPONENTS))
    tail_r, _ = solve(len(PS_EXPONENTS) - 2)
    bound = np.abs(tail - tail_r) + np.abs(blocks - design @ coef).sum(axis=0)
    return tail, bound


def a_partial_sums(law: StepLaw, x: int, K: int = 2 ** 16,
                   X: int | None = None) -> tuple[float, float]:
    """(extrapolated partial-sum value of a(x), remainder bound)."""
    if x == 0:
        return 0.0, 0.0
    if X is None:
        X = max(55, abs(x))
    elif abs(x) > X:
        raise OutOfWindow(f"|x|={abs(x)} exceeds window {X}")
    acc, tail, bound = _partial_sum_table(law, X, K)
    i = x + X
    return float(acc[i] + tail[i]), float(bound[i])


# ---------------------------------------------------------------------------
# Tables, Green function, constants.

@dataclass
class PotentialTable:
    X: int
    a_values: np.ndarray       # index x + X
    c_plus: float
    c_minus: float
    method: str
    error_estimate: float

    def a(self, x: int) -> float:
        i = x + self.X
        if not 0 <= i < len(self.a_values):
            raise OutOfWindow(f"x={x} outside [−{self.X}, {self.X}]")
        return float(self.a_values[i])

    def a_star(self, x: int) -> float:
        return self.a(x) + (1.0 if x == 0 else 0.0)


def build_potential_table(law: StepLaw, X: int = 80) -> PotentialTable:
    """a(x) on [-X, X] and C+- from one linear solve over the roots of
    laws.wiener_hopf_roots.

    With a = -zmin, b = zmax, a solves sum_z p(z) a(x+z) - a(x) = 1{x=0}
    with a(0) = 0 and sigma2 a(x) - |x| bounded, so

        sigma2 a(x) =  x + C+ + sum_{|r|<1} alpha_r r^x   for x >= 1-a,
        sigma2 a(x) = -x + C- + sum_{|r|>1} beta_r r^x    for x <= b-1.

    The two forms agree on [1-a, b-1] and vanish at 0: a + b equations in
    C+, C-, the a-1 alphas and the b-1 betas.  Each root's column is
    anchored where it is largest, r^(x-(1-a)) inside the disc and
    r^(x-(b-1)) outside, which keeps the system well conditioned.  The
    source equation at 0 is not imposed; its residual, with that of the
    solve, is the table's error estimate.
    """
    a, b = -law.zmin, law.zmax
    sigma2 = float(moments(law).sigma2)
    roots = [complex(r) for r in wiener_hopf_roots(law)]
    inner = np.array([r for r in roots if abs(r) < 1])
    outer = np.array([r for r in roots if abs(r) > 1])

    def right(x):   # inner-root columns at sites x >= 1-a
        return inner[None, :] ** (x[:, None] - (1 - a))

    def left(x):    # outer-root columns at sites x <= b-1
        return outer[None, :] ** (x[:, None] - (b - 1))

    # unknowns C+, C-, alphas, betas; rows: the forms agree at each y of
    # [1-a, b-1], then the right form vanishes at 0
    ys = np.arange(1 - a, b)
    one = np.ones((len(ys), 1))
    agree = np.hstack([one, -one, right(ys), -left(ys)])
    at_zero = np.hstack([[1.0, 0.0], right(np.zeros(1, int))[0],
                         np.zeros(b - 1)])
    A = np.vstack([agree, at_zero])
    rhs = np.append(-2.0 * ys, 0.0)
    try:
        coef = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as e:
        raise SingularSystem(f"{law.name}: potential root solve: {e}") from e
    c_plus, c_minus = coef[0].real, coef[1].real
    alpha, beta = coef[2:a + 1], coef[a + 1:]

    def a_of(x: np.ndarray) -> np.ndarray:
        out = np.zeros(len(x))
        pos, neg = x > 0, x < 0
        out[pos] = x[pos] + c_plus + (right(x[pos]) @ alpha).real
        out[neg] = -x[neg] + c_minus + (left(x[neg]) @ beta).real
        return out / sigma2

    zs, ps = law.pmf_array()
    source = ps @ a_of(np.arange(zs, zs + len(ps))) - 1.0
    err = np.abs(A @ coef - rhs).max() / sigma2 + abs(source)
    return PotentialTable(X=X, a_values=a_of(np.arange(-X, X + 1)),
                          c_plus=float(c_plus), c_minus=float(c_minus),
                          method="Wiener-Hopf root solve",
                          error_estimate=float(err))


def harmonicity_residuals(law: StepLaw, table: PotentialTable) -> np.ndarray:
    """Sum_z p(z) a(x+z) - a(x) - 1(x=0) on the interior of the window."""
    lo = -table.X - law.zmin
    hi = table.X - law.zmax
    out = []
    for x in range(lo, hi + 1):
        s = sum(float(w) * table.a(x + z) for z, w in law.items())
        out.append(s - table.a(x) - (1.0 if x == 0 else 0.0))
    return np.array(out)


def green_point(table: PotentialTable, x: int, y: int) -> float:
    """Expected visits to y before hitting 0, started at x (x, y != 0)."""
    return table.a(x) + table.a(-y) - table.a(x - y)


@dataclass
class WalkConstants:
    lambda3: float
    c_star: float
    c_plus: float
    c_minus: float
    errors: dict[str, float] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)


def _c_star_quadrature(law: StepLaw) -> tuple[float, float]:
    """C* two ways: via the subtracted-singularity integral of A, and via
    the direct difference against 1/(1 - cos l)."""
    sigma2 = float(moments(law).sigma2)
    ls, ws, av, _ = _patch_nodes(law)
    patch_a = float(np.sum(ws * av))
    int_a = patch_a + _a_nonosc_integral(law)
    c_star_sub = sigma2 * int_a / math.pi - 2.0 / math.pi ** 2

    def h(l):
        # 2/l^2 - 1/(1 - cos l), series for small l
        if l < 0.15:
            l2 = l * l
            return -(1.0 / 6.0 + l2 / 120.0 + l2 * l2 / 3024.0
                     + l2 * l2 * l2 / 86400.0)
        return 2.0 / (l * l) - 0.5 / math.sin(0.5 * l) ** 2

    hint, herr = quad(h, 0.0, math.pi, epsabs=QUAD_TOL, epsrel=QUAD_TOL)
    if herr > 1e-10:
        raise QuadratureNotConverged("C* comparison integral")
    # direct form: (1/pi) [ sigma2 Int ((1-phi_c)/|1-phi|^2) - Int 1/(1-cos) ]
    #            = (1/pi) [ sigma2 Int A + Int h ]
    c_star_direct = (sigma2 * int_a + hint) / math.pi
    return c_star_sub, c_star_direct


CONSTANTS_TOL = 1e-8   # root solve vs each form of C*, and vs lambda3


def constants(law: StepLaw, table: PotentialTable) -> WalkConstants:
    """lambda3 exact; C+- from the table's root solve and C* = (C+ + C-)/2,
    checked against both quadrature forms of C* and against the exact
    lambda3 = (C- - C+)/2.  Each error is the gap to the independent route
    plus the solve's own error."""
    m = moments(law)
    sigma2 = float(m.sigma2)
    lam3 = float(m.lambda3)
    c_plus, c_minus = table.c_plus, table.c_minus
    c_star = (c_plus + c_minus) / 2.0

    cs_sub, cs_dir = _c_star_quadrature(law)
    for name, val, ref in [
            ("C* subtracted quadrature", cs_sub, c_star),
            ("C* direct quadrature", cs_dir, c_star),
            ("lambda3 vs (C- - C+)/2", lam3, (c_minus - c_plus) / 2.0)]:
        if not abs(val - ref) <= CONSTANTS_TOL:
            raise InconsistentEstimates(
                f"{name}: {val!r} vs root solve {ref!r}")

    solve = sigma2 * table.error_estimate
    return WalkConstants(
        lambda3=lam3, c_star=c_star, c_plus=c_plus, c_minus=c_minus,
        errors={"c_star": max(abs(cs_sub - c_star),
                              abs(cs_dir - c_star)) + solve,
                "c_plus": abs(c_plus - (cs_sub - lam3)) + solve,
                "c_minus": abs(c_minus - (cs_sub + lam3)) + solve},
        provenance={"lambda3": "exact moments",
                    "c_star": "(C+ + C-)/2, checked by two quadratures",
                    "c_plus": table.method,
                    "c_minus": table.method},
    )


def expansion_check(law: StepLaw, table: PotentialTable,
                    consts: WalkConstants) -> np.ndarray:
    """Residual r(x) = sigma2 a(x) - |x| - C* + sign(x) lambda3 over the
    window, as rows (x, r); sign(0) = 0."""
    sigma2 = float(moments(law).sigma2)
    return np.array([(x, sigma2 * table.a(x) - abs(x) - consts.c_star
                      + ((x > 0) - (x < 0)) * consts.lambda3)
                     for x in range(-table.X, table.X + 1)])

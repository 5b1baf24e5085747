"""Potential kernel a(x), point-absorption Green function, and constants.

build_potential_table gives a(x) and C+- exactly, and hit_before_origin
gives P_y[hit N before 0] exactly, each by one linear solve over the
Wiener-Hopf roots of the law.  Two independent routes to a(x) check the
table: verify compares it with a_fourier, the tests both with
a_partial_sums.

* a_fourier: a(x) = (1/2pi) Int_{-pi}^{pi} Re[(1 - e^{ixl})/(1 - phi(l))] dl.
  The 2(1-cos xl)/(sigma2 l^2) singular part is integrated semi-
  analytically (|x|/sigma2 minus a tail integral via Si); the smooth
  remainder is a non-oscillatory piece plus two oscillatory pieces for
  weighted (cos/sin) adaptive quadrature, each gated by _quad.  On
  [0, 0.02] the remainder cancels catastrophically in float64, so it is
  summed there in 40-digit arithmetic on fixed Gauss-Legendre nodes.

* a_partial_sums: sum_{k<=K} [p^k(0) - p^k(-x)] from the exact DP, with
  the k > K tail fitted to the period-aggregated increments in powers
  k^{-3/2}, k^{-2}, ... (their asymptotic expansion) and summed with
  Hurwitz zeta functions.  The DP cuts its zero and subnormal edges after
  every step; a step only averages weights, so a cut shifts later weights
  by at most the mass cut, which rounds away against every nonzero weight
  in [-X, X] for the laws tested: the table is bit-identical to an uncut DP.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from mpmath import mp
from scipy.integrate import IntegrationWarning, quad
from scipy.special import sici, zeta

from . import dp
from .errors import (ConstraintViolation, InconsistentEstimates,
                     OutOfWindow, QuadratureNotConverged, SingularSystem)
from .laws import (StepLaw, lattice_structure, moments, one_minus_phi_cos,
                   phi_sin, wiener_hopf_roots)

MP_PATCH = 0.02       # high-precision patch is [0, MP_PATCH]
MP_DPS = 40
GL_NODES = 24
QUAD_TOL = 1e-12
QUAD_GATE = 1e-10     # largest error estimate a quadrature may return


def _quad(f, lo: float, hi: float, what: str, **kw) -> float:
    """quad at QUAD_TOL; an error estimate above QUAD_GATE or an
    IntegrationWarning (the estimate may be low) is QuadratureNotConverged."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(f, lo, hi, epsabs=QUAD_TOL, epsrel=QUAD_TOL, **kw)
        except IntegrationWarning as e:
            raise QuadratureNotConverged(
                f"{what}: {' '.join(str(e).split())}") from e
    if err > QUAD_GATE:
        raise QuadratureNotConverged(f"{what} error estimate {err:.2g}")
    return val


# ---------------------------------------------------------------------------
# Smooth remainder of the characteristic-function integrand.

@lru_cache(maxsize=None)
def _ab(law: StepLaw):
    """l -> (A(l), B(l)), memoised (the quadratures of every x share most
    nodes); A = (1-phi_c)/|1-phi|^2 - 2/(sigma2 l^2), B = phi_s/|1-phi|^2."""
    sigma2 = float(moments(law).sigma2)

    @lru_cache(maxsize=None)
    def ab(l: float) -> tuple[float, float]:
        c, s = one_minus_phi_cos(law, l), phi_sin(law, l)
        d2 = c * c + s * s
        return c / d2 - 2.0 / (sigma2 * l * l), s / d2
    return ab


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
    ab = _ab(law)
    return _quad(lambda l: ab(l)[0], MP_PATCH, math.pi, "A integral",
                 limit=200)


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
    ab = _ab(law)
    osc_cos = _quad(lambda l: ab(l)[0], MP_PATCH, math.pi, "cos quadrature",
                    weight="cos", wvar=ax, limit=400)
    osc_sin = _quad(lambda l: ab(l)[1], MP_PATCH, math.pi, "sin quadrature",
                    weight="sin", wvar=ax, limit=400)

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


def _root_columns(law: StepLaw, lo: int, hi: int):
    """(right, left) root columns at sites x: r^(x-lo) for the roots inside
    the unit disc, used on x >= lo, and r^(x-hi) for those outside, used on
    x <= hi; anchored where largest, they keep the solves well conditioned."""
    roots = [complex(r) for r in wiener_hopf_roots(law)]
    inner = np.array([r for r in roots if abs(r) < 1])
    outer = np.array([r for r in roots if abs(r) > 1])

    def right(x):
        return inner[None, :] ** (x[:, None] - lo)

    def left(x):
        return outer[None, :] ** (x[:, None] - hi)

    return right, left


def build_potential_table(law: StepLaw, X: int = 80) -> PotentialTable:
    """a(x) on [-X, X] and C+- from one linear solve over the roots of
    laws.wiener_hopf_roots.

    With a = -zmin, b = zmax, a solves sum_z p(z) a(x+z) - a(x) = 1{x=0}
    with a(0) = 0 and sigma2 a(x) - |x| bounded, so

        sigma2 a(x) =  x + C+ + sum_{|r|<1} alpha_r r^x   for x >= 1-a,
        sigma2 a(x) = -x + C- + sum_{|r|>1} beta_r r^x    for x <= b-1.

    The two forms agree on [1-a, b-1] and vanish at 0: a + b equations in
    C+, C-, the a-1 alphas and the b-1 betas, with the root columns of
    _root_columns.  The source equation at 0 is not imposed; its residual,
    with that of the solve, is the table's error estimate.
    """
    a, b = -law.zmin, law.zmax
    sigma2 = float(moments(law).sigma2)
    right, left = _root_columns(law, 1 - a, b - 1)

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


def hit_before_origin(law: StepLaw, N: int) -> np.ndarray:
    """h(y) = P_y[hit N before 0] for y = 0..N, exact, from one linear
    solve over the roots of laws.wiener_hopf_roots.  h is bounded and
    harmonic off {0, N}; with a = -zmin, b = zmax,

        h(y) = c  + sum_{|r|<1} alpha_r r^(y-(N+1-a))   for y >= N+1-a,
        h(y) = c' + sum_{|r|>1} beta_r r^(y-(b-1))      for y <= b-1,

    and h on [b, N-a] is free.  h(0) = 0, h(N) = 1, harmonicity at 1..N-1
    and agreement of the forms where they overlap ([N+1-a, b-1]) make a
    square system in N+1 unknowns, or a+b when the forms overlap."""
    if N < 1:
        raise ConstraintViolation("need N >= 1")
    a, b = -law.zmin, law.zmax
    lo = N + 1 - a
    right, left = _root_columns(law, lo, b - 1)
    free = np.arange(b, lo)
    n = a + b + len(free)

    # h at 1-a .. N-1+b as rows over the unknowns (c, alphas, c', betas,
    # free h): the left form to b-1, free h on [b, N-a], then the right
    ys = np.arange(1 - a, N + b)
    r, l = ys >= lo, ys <= b - 1
    R, L = np.zeros((2, len(ys), n), complex)
    R[r, 0], R[r, 1:a] = 1.0, right(ys[r])
    L[l, a], L[l, a + 1:a + b] = 1.0, left(ys[l])
    H = np.where(l[:, None], L, R)
    H[free - (1 - a), a + b + np.arange(len(free))] = 1.0

    # row y + a - 1 of H is site y; sum_z p(z) h(y+z) - h(y) at 1..N-1
    _, pmf = law.pmf_array()
    harm = sum(p * H[j:j + N - 1] for j, p in enumerate(pmf)) \
        - H[a:a + N - 1]
    A = np.vstack([harm, H[[a - 1, N + a - 1]], (R - L)[r & l]])
    try:
        coef = np.linalg.solve(A, np.eye(n)[N])   # 1 in the row h(N) = 1
    except np.linalg.LinAlgError as e:
        raise SingularSystem(f"{law.name}: hit-{N} root solve: {e}") from e
    return (H[a - 1:N + a] @ coef).real


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


def _c_star_quadrature(law: StepLaw) -> float:
    """C* by the subtracted-singularity integral of A.  The direct form,
    against 1/(1 - cos l), is the same number, as Int_0^pi [2/l^2 -
    1/(1 - cos l)] dl = [cot(l/2) - 2/l]_0^pi = -2/pi exactly."""
    sigma2 = float(moments(law).sigma2)
    _, ws, av, _ = _patch_nodes(law)
    int_a = float(np.sum(ws * av)) + _a_nonosc_integral(law)
    return sigma2 * int_a / math.pi - 2.0 / math.pi ** 2


CONSTANTS_TOL = 1e-8   # root solve vs the quadrature C*, and vs lambda3


def constants(law: StepLaw, table: PotentialTable) -> WalkConstants:
    """lambda3 exact; C+- from the table's root solve and C* = (C+ + C-)/2,
    checked against the quadrature C* and against the exact
    lambda3 = (C- - C+)/2.  Each error is the gap to the independent route
    plus the solve's own error."""
    m = moments(law)
    sigma2 = float(m.sigma2)
    lam3 = float(m.lambda3)
    c_plus, c_minus = table.c_plus, table.c_minus
    c_star = (c_plus + c_minus) / 2.0

    cs = _c_star_quadrature(law)
    for name, val, ref in [
            ("C* quadrature", cs, c_star),
            ("lambda3 vs (C- - C+)/2", lam3, (c_minus - c_plus) / 2.0)]:
        if not abs(val - ref) <= CONSTANTS_TOL:
            raise InconsistentEstimates(
                f"{name}: {val!r} vs root solve {ref!r}")

    solve = sigma2 * table.error_estimate
    return WalkConstants(
        lambda3=lam3, c_star=c_star, c_plus=c_plus, c_minus=c_minus,
        errors={"c_star": abs(cs - c_star) + solve,
                "c_plus": abs(c_plus - (cs - lam3)) + solve,
                "c_minus": abs(c_minus - (cs + lam3)) + solve},
        provenance={"lambda3": "exact moments",
                    "c_star": "(C+ + C-)/2, checked by quadrature",
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

"""Closed-form asymptotic right-hand sides and bound envelopes.

THEOREMS holds one entry per limit law the verification harness checks:
its right-hand side as a pure function of (x, y, n) and the precomputed
kernels, the key of the exact side it is compared with (one record of
verify.EXACT), its domain and the suffixes of its rows.  T11i,
T11ii and T13 carry the lattice factor, so both sides of a cell off the
walk's congruence class are 0.0.  Formulas that contain the free n-step
probability p^n(y - x) take it exact by default, from
WalkKernels.p_n_at: the Chapman-Kolmogorov dot of the two cached
half-length free windows.  Pass use_local_clt=True to substitute the
Gaussian surrogate d * g_n(y - x) * 1(reachable), which isolates
local-CLT error from limit-theorem error in reports; it reads the same
table, pair and entrance-law sites as the exact form with no DP, so
verify's grid plan uses it to find a failing cell before any DP runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ConstraintViolation
from .kernels import WalkKernels
from .potential import PotentialTable


@dataclass(frozen=True)
class GaussKernel:
    sigma2: float

    def n_star(self, n: int) -> float:
        return self.sigma2 * n

    def g(self, n: int, u: float) -> float:
        v = self.n_star(n)
        return math.exp(-u * u / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


def passage_density(xi: float, t: float) -> float:
    """Phi_xi(t): Brownian first-passage time density for level |xi|."""
    if t <= 0.0:
        return 0.0
    return abs(xi) * math.exp(-xi * xi / (2.0 * t)) \
        / (math.sqrt(2.0 * math.pi) * t ** 1.5)


class TheoremId(enum.Enum):
    T11i = "T11i"                    # kill-at-0 kernel, |x|,|y| << sqrt(n)
    T11ii = "T11ii"                  # kill-at-0 kernel, xy > 0, diffusive x,y
    T11iii_bound = "T11iii_bound"    # kill-at-0 kernel, xy < 0 envelope
    T12_refined = "T12_refined"      # kill-at-0 kernel, xy < 0 leading term
    T13 = "T13"                      # half-line kernel
    T14 = "T14"                      # entrance law h_x(n, y)
    C11 = "C11"                      # passage-time law P_x[T = n]
    P12_Qplus = "P12_Qplus"          # negative-side mass Q_x^+(n)
    T15_nu = "T15_nu"                # nu_n limit
    C12_particles = "C12_particles"  # surviving-particle count limit
    P61_ralpha = "P61_ralpha"        # partial-absorption excess r_alpha^n
    ThmA_passage = "ThmA_passage"    # passage law f_x(k) at the origin
    IVbound = "IVbound"              # uniform envelope for q^n(x, y)
    EQ14bound = "EQ14bound"          # envelope for h_x(n, y)


class _Env(NamedTuple):
    """Values shared by every right-hand side at one n."""
    g: GaussKernel
    s2: float
    n_star: float
    t: PotentialTable
    extras: dict
    clt: bool


@dataclass(frozen=True)
class Theorem:
    """One limit theorem, everything verify needs to check it."""

    id: TheoremId
    # the key of the exact side verify compares with, in verify.EXACT: the
    # "point", "halfline" or "r_alpha" kernel, "f_x" = f_x(n), "T" =
    # P_x[T = n], "h" = h_x(n, y), "Q+" = Q_x^+(n), "nu" = nu_n or
    # "particles" (the expected count)
    exact: str
    formula: Callable  # (k, x, y, n, _Env) -> right-hand side
    domain: str = ""   # the condition `inside` tests, for the error text
    inside: Callable | None = None   # (x, y, n) -> bool
    gated: bool = False    # needs |x| v |y| <= a_circ sqrt(n*)
    forms: tuple[str, ...] = ("",)   # row suffixes, a value per form

    def check(self, x: int, y: int, n: int, lim: float):
        """Raise ConstraintViolation if the cell lies outside the domain;
        lim is a_circ sqrt(n*)."""
        big = max(abs(x), abs(y))
        if self.gated and big > lim:
            raise ConstraintViolation(
                f"{self.id.value}: |x| v |y| = {big} exceeds a_circ "
                f"sqrt(n*) = {lim:.1f} at n={n}")
        if self.inside is not None and not self.inside(x, y, n):
            raise ConstraintViolation(
                f"{self.id.value} requires {self.domain}")


def _lattice(k: WalkKernels, n: int, displacement: int, v: float) -> float:
    """v times the period on reachable cells, else 0: a leading term
    carried on the walk's congruence class only."""
    if not k.structure.reachable(n, displacement):
        return 0.0
    return k.structure.period * v


def _p_n(k: WalkKernels, n: int, displacement: int,
         use_local_clt: bool) -> float:
    if use_local_clt:
        return _lattice(k, n, displacement,
                        GaussKernel(k.sigma2()).g(n, displacement))
    return k.p_n_at(n, displacement)


def _entrance(k, x, y, n, e):
    """T14; its local-CLT form carries no lattice factor."""
    base = k.pair.fp(x) * e.g.g(n, x) / n * k.h_inf_plus.prob(y)
    return base if e.clt else _lattice(k, n, y - x, base)


def _r_alpha(k, x, y, n, e):
    """P61_ralpha's two forms, with p^n(y - x) and with g_n(|x| + |y|)."""
    alpha = e.extras["alpha"]
    lead = (1.0 - alpha) / alpha * e.s2 * (e.t.a_star(x) + e.t.a_star(-y)) / n
    return (lead * _p_n(k, n, y - x, e.clt),
            lead * e.g.g(n, abs(x) + abs(y)))


def _x_nonzero(x, y, n):
    return x != 0


THEOREMS = {t.id: t for t in (
    Theorem(TheoremId.T11i, "point", lambda k, x, y, n, e:
            _p_n(k, n, y - x, e.clt) * ((e.s2 * e.s2 * e.t.a_star(x)
                                         * e.t.a(-y) + x * y) / e.n_star),
            gated=True),
    Theorem(TheoremId.T11ii, "point", lambda k, x, y, n, e:
            _lattice(k, n, y - x, e.g.g(n, y - x) - e.g.g(n, y + x)),
            "xy > 0", lambda x, y, n: x * y > 0),
    Theorem(TheoremId.T11iii_bound, "point", lambda k, x, y, n, e:
            min(abs(x), abs(y)) / max(abs(x), abs(y))
            * e.g.g(4 * n, max(abs(x), abs(y))),
            "0 < |x|^|y| < sqrt(n) < |x|v|y|", lambda x, y, n:
            0 < min(abs(x), abs(y)) < math.sqrt(n) < max(abs(x), abs(y))),
    Theorem(TheoremId.T12_refined, "point", lambda k, x, y, n, e:
            k.constants.c_plus * passage_density(x + abs(y), e.n_star),
            "y < 0 < x", lambda x, y, n: y < 0 < x, gated=True),
    Theorem(TheoremId.T13, "halfline", lambda k, x, y, n, e:
            _p_n(k, n, y - x, e.clt)
            * (2.0 * k.pair.fp(x) * k.pair.fm(y) / e.n_star),
            "x, y >= 1", lambda x, y, n: x >= 1 and y >= 1),
    Theorem(TheoremId.T14, "h", _entrance, "x != 0", _x_nonzero),
    Theorem(TheoremId.C11, "T", lambda k, x, y, n, e:
            k.pair.fp(x) * e.g.g(n, x) / n,
            "x != 0", _x_nonzero),
    Theorem(TheoremId.P12_Qplus, "Q+", lambda k, x, y, n, e:
            (e.s2 * e.t.a_star(x) - x) / math.sqrt(2.0 * math.pi * e.n_star)
            if x > 0 else math.erf(abs(x) / math.sqrt(2.0 * e.n_star)),
            "x != 0", _x_nonzero),
    Theorem(TheoremId.T15_nu, "nu", lambda k, x, y, n, e:
            0.5 * k.constants.c_plus),
    Theorem(TheoremId.C12_particles, "particles", lambda k, x, y, n, e:
            0.5 * k.constants.c_plus
            * math.erf(e.extras["ell"] / math.sqrt(2.0))),
    Theorem(TheoremId.P61_ralpha, "r_alpha", _r_alpha, forms=("_p", "_g")),
    Theorem(TheoremId.ThmA_passage, "f_x", lambda k, x, y, n, e:
            math.sqrt(e.s2) * e.t.a_star(x) * math.exp(-x * x / (
                2.0 * e.s2 * n)) / (math.sqrt(2.0 * math.pi) * n ** 1.5),
            "x != 0", _x_nonzero),
    Theorem(TheoremId.IVbound, "point", lambda k, x, y, n, e:
            (abs(x) + 1.0) * abs(y) / n ** 1.5),
    Theorem(TheoremId.EQ14bound, "h", lambda k, x, y, n, e:
            k.h_inf_plus.prob(y) / (x * math.sqrt(n)),
            "x != 0", _x_nonzero),
)}


def rhs(theorem: TheoremId, k: WalkKernels, x: int, y: int, n: int,
        extras: dict | None = None, use_local_clt: bool = False):
    """Evaluate a theorem's asymptotic right-hand side.

    Returns a float, or one float per form of Theorem.forms: P61_ralpha's
    with p^n(y-x), then with g_n(|x|+|y|).
    """
    s2 = k.sigma2()
    env = _Env(GaussKernel(s2), s2, s2 * n, k.table, extras or {},
               use_local_clt)
    return THEOREMS[theorem].formula(k, x, y, n, env)

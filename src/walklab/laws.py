"""Step laws: exact rational increment distributions on Z and their moments.

A step law is a finitely supported probability distribution p on the
integers with sum(z * p(z)) == 0, checked exactly over the rationals.
Everything downstream (kernels, potential tables, ladder laws) is built
from a validated ``StepLaw``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np
from mpmath import mp

from .errors import (
    DegenerateLaw,
    FactorizationFailed,
    LawError,
    NonUnitMass,
    NonzeroMean,
    Reducible,
    SupportTooWide,
)

MAX_SPAN = 64         # widest support build_law accepts, zmax - zmin
ROOT_DPS = 50         # digits of the root polish and the product expansion
NEWTON_STEPS = 60     # a simple root needs about 3 from a float64 seed


@dataclass(frozen=True)
class StepLaw:
    """An exact, validated increment law.

    increments and weights are parallel tuples, increments strictly
    increasing, weights positive Fractions summing to 1.
    """

    name: str
    increments: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def prob(self, z: int) -> Fraction:
        try:
            i = self.increments.index(z)
        except ValueError:
            return Fraction(0)
        return self.weights[i]

    @property
    def zmin(self) -> int:
        return self.increments[0]

    @property
    def zmax(self) -> int:
        return self.increments[-1]

    def pmf_array(self) -> tuple[int, np.ndarray]:
        """Return (zmin, dense float64 pmf over [zmin, zmax])."""
        arr = np.zeros(self.zmax - self.zmin + 1)
        for z, w in zip(self.increments, self.weights):
            arr[z - self.zmin] = float(w)
        return self.zmin, arr

    def reflected(self) -> "StepLaw":
        """The law of -Y."""
        incs = tuple(-z for z in reversed(self.increments))
        wts = tuple(reversed(self.weights))
        return StepLaw(self.name + "~reflected", incs, wts)

    def items(self):
        return zip(self.increments, self.weights)


@dataclass(frozen=True)
class Moments:
    sigma2: Fraction
    m3: Fraction            # E[Y^3]
    lambda3: Fraction       # E[Y^3] / (3 sigma^2)
    left_continuous: bool   # no downward jump below -1
    right_continuous: bool  # no upward jump above +1


@dataclass(frozen=True)
class LatticeStructure:
    """Arithmetic structure of the n-step supports.

    period d is the gcd of all pairwise support differences; the n-step
    distribution lives on n*shift + d*Z.  An aperiodic irreducible law
    has d == 1, shift == 0.
    """

    period: int
    shift: int

    def reachable(self, n: int, displacement: int) -> bool:
        return (displacement - n * self.shift) % self.period == 0


def build_law(pairs, name: str = "law") -> StepLaw:
    """Validate raw (increment, weight) pairs into a StepLaw.

    The name is a string.  Increments are integers: a float (even 2.0), a
    bool or a string is rejected.  Weights may be Fractions, ints, or
    "num/den" strings; a weight that is not finite is rejected.  Raises a
    LawError subclass on any violation; never silently repairs input.
    """
    if not isinstance(name, str):
        raise LawError(f"name {name!r} is not a string")
    try:
        parsed = [(z, Fraction(w)) for z, w in pairs]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise LawError(f"malformed pairs: {e}") from e
    table: dict[int, Fraction] = {}
    for z, w in parsed:
        if isinstance(z, bool) or not isinstance(z, numbers.Integral):
            raise LawError(f"increment {z!r} is not an integer")
        z = int(z)
        if w < 0:
            raise NonUnitMass(f"negative weight {w} at increment {z}")
        if w == 0:
            continue
        table[z] = table.get(z, Fraction(0)) + w
    if not table:
        raise NonUnitMass("empty law")
    total = sum(table.values())
    if total != 1:
        raise NonUnitMass(f"weights sum to {total}, expected 1")
    mean = sum(z * w for z, w in table.items())
    if mean != 0:
        raise NonzeroMean(f"mean is {mean}, expected 0")
    incs = sorted(table)
    if incs[-1] - incs[0] > MAX_SPAN:
        raise SupportTooWide(
            f"support span {incs[-1] - incs[0]} exceeds budget {MAX_SPAN}"
        )
    if len(incs) == 1:
        raise DegenerateLaw("law is a point mass at 0")
    g = reduce(math.gcd, (abs(z) for z in incs if z != 0))
    if g != 1:
        raise Reducible(f"gcd of support is {g}; walk does not generate Z")
    return StepLaw(name, tuple(incs), tuple(table[z] for z in incs))


def load_law(path: str) -> StepLaw:
    """Load a law from a JSON file {"name": ..., "pairs": [[z, "p/q"], ...]}."""
    with open(path) as f:
        try:
            doc = json.load(f)
            pairs = doc["pairs"]
        except (ValueError, KeyError, TypeError) as e:
            raise LawError(
                f'{path} is not a JSON object with "pairs": {e}') from e
    return build_law(pairs, name=doc.get("name", "law"))


@lru_cache(maxsize=None)
def moments(law: StepLaw) -> Moments:
    """The law's exact moments; cached, as StepLaw and Moments are frozen."""
    sigma2 = sum(w * z * z for z, w in law.items())
    if sigma2 == 0:
        raise DegenerateLaw("zero variance")
    m3 = sum(w * z ** 3 for z, w in law.items())
    return Moments(
        sigma2=sigma2,
        m3=m3,
        lambda3=m3 / (3 * sigma2),
        left_continuous=law.zmin >= -1,
        right_continuous=law.zmax <= 1,
    )


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
def wiener_hopf_roots(law: StepLaw) -> tuple:
    """Roots of s^a (1 - phi(s)) / (s - 1)^2 at ROOT_DPS digits, from
    numpy.roots seeds polished by Newton steps; a = -zmin.  The ladder
    laws and the potential table are both built from them."""
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


def lattice_structure(law: StepLaw) -> LatticeStructure:
    zs = law.increments
    d = 0
    for z in zs[1:]:
        d = math.gcd(d, z - zs[0])
    if d == 0:
        d = 1
    return LatticeStructure(period=d, shift=zs[0] % d)


# Taylor coefficients of sin t - t, from t^19 down to t^3
_SIN_SERIES = [(-1) ** k / math.factorial(2 * k + 1) for k in range(9, 0, -1)]


def _sin_minus_t(t: np.ndarray) -> np.ndarray:
    """sin t - t; by its Taylor series where |t| < 1, where the difference
    cancels (the series is truncated below 1e-19 relative)."""
    out = np.asarray(np.sin(t) - t)
    small = np.abs(t) < 1.0
    u = t[small]
    u2 = u * u
    acc = np.zeros_like(u)
    for coef in _SIN_SERIES:
        acc = acc * u2 + coef
    out[small] = acc * u2 * u
    return out


def phi_parts(law: StepLaw, l) -> tuple[np.ndarray, np.ndarray]:
    """(1 - Re phi(l), Im phi(l)) over an array of l, phi(l) = E exp(i l Y),
    without cancellation near l = 0: 1 - cos zl is summed as 2 sin^2(zl/2)
    and, as the mean is zero, Im phi as sum_z p(z) (sin zl - zl)."""
    l = np.asarray(l, dtype=float)
    c, s = np.zeros(l.shape), np.zeros(l.shape)
    for z, w in law.items():
        t = z * l
        c += float(w) * 2.0 * np.sin(0.5 * t) ** 2
        s += float(w) * _sin_minus_t(t)
    return c, s

"""Seeded inputs for the walklab benchmark: step laws and op plans.

Every run draws its inputs from ``random.Random(seed)``; the same seed gives
the same laws, the same plans and the same order.  A plan is one *round*: a
fixed list of slots, each naming the law it uses (a fixture or a random law
on a given support) and the grid it asks for.  The seed fills the slots: it
draws each random law's weights, the jitter on the random-law cells'
``xi``/``eta`` and the order of the ops.  Keeping the slots fixed keeps
what a round costs and which of its ops fail the same from seed to seed,
so the figures of two runs can be compared.

No law, ``x`` or grid cell is left out because walklab fails on it today.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

FIXTURES = {
    "srw": ((-1, Fraction(1, 2)), (1, Fraction(1, 2))),
    "l1": ((-2, Fraction(1, 6)), (-1, Fraction(1, 6)), (0, Fraction(1, 6)),
           (1, Fraction(1, 2))),
    "span3": ((-1, Fraction(2, 3)), (2, Fraction(1, 3))),
}

# Continuity classes: "both" has all jumps in {-1, 0, 1}; "left" has no
# jump below -1 (and some above +1); "right" is its mirror; "neither" has
# jumps beyond both.  Each class is drawn by at least one workload.
CLASSES = ("both", "left", "right", "neither")

# Random laws start from these supports and base weights; the seed scales
# every weight by a factor in [0.8, 1.25] and the extreme opposite the mean
# then takes the weight that makes the mean zero.  The supports are fixed
# because a law's support decides what its ops cost and which invariants
# fail: in every law drawn while this benchmark was written, the laws
# whose ladder heights take the DP path (see _ladder_path) failed the
# harmonic-pair invariants and the others passed them.
# Fixed supports keep those shares the same in every round, so the figures
# of two seeds can be compared.
RANDOM_BASES = {
    "both": ((-1, 1), (0, 2), (1, 1)),                  # lazy walk
    "lazy-low": ((-1, 1), (0, 16), (1, 1)),             # p in [.037, .082]
    "left-dp": ((-1, 3), (1, 1), (3, 1)),               # period 2
    "right-dp": ((-3, 1), (-1, 1), (0, 1), (1, 3)),
    "neither": ((-2, 2), (-1, 1), (0, 1), (1, 1), (2, 2)),
}

# Free-DP steps of the subnormal-share probe.
PROBE_STEPS = 2048

VERIFY_NS = (256, 1024, 4096, 16384)
POTENTIAL_K = 2 ** 16          # the library default of a_partial_sums
# x = -50 and 50: the edges of the range criterion 04 checks, where the
# two routes are farthest apart.  No x is drawn inside: the lazy walk's gap
# there grows from 1e-12 to 1e-8 with |x| and would move check_margin
# tenfold or more from seed to seed; the edges alone keep it repeatable.
POTENTIAL_XS = (-50, 50)
POTENTIAL_GAP_TOL = 1e-6       # two-route tolerance of criterion 04


@dataclass(frozen=True)
class Law:
    """A step law as the benchmark hands it to walklab, with the
    properties that claims about the benchmark may depend on."""

    name: str
    pairs: tuple[tuple[int, Fraction], ...]
    cls: str
    span: int
    period: int
    ladder_path: str          # "shortcut" | "dp"
    subnormal_share: float

    def json_doc(self) -> dict:
        return {"name": self.name,
                "pairs": [[z, f"{w.numerator}/{w.denominator}"]
                          for z, w in self.pairs]}

    def properties(self) -> dict:
        return {"class": self.cls, "span": self.span, "period": self.period,
                "ladder_path": self.ladder_path,
                "subnormal_share": self.subnormal_share}


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` selects the op in ``ops.py``."""

    kind: str                 # "potential" | "verify" | "kernels-report"
    law: Law
    xs: tuple[int, ...] = ()
    theorem: str = ""
    xi: tuple[float, ...] = ()
    eta: tuple[float, ...] = ()
    ns: tuple[int, ...] = VERIFY_NS
    K: int = POTENTIAL_K


@dataclass
class Plan:
    workload: str
    seed: int
    ops: list[Op] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Laws.

def _continuity(zmin: int, zmax: int) -> str:
    if zmin >= -1 and zmax <= 1:
        return "both"
    if zmin >= -1:
        return "left"
    if zmax <= 1:
        return "right"
    return "neither"


def _ladder_path(zmin: int, zmax: int) -> str:
    """"shortcut" when both ladder-height laws have an exact form at this
    commit's rule: the ladder side's largest jump is 1, or it is 2 while
    the opposite side is unit-jump.  Otherwise the ladder runs a DP."""
    def exact(up: int, down: int) -> bool:
        return up == 1 or (down == -1 and up == 2)
    return "shortcut" if exact(zmax, zmin) and exact(-zmin, -zmax) else "dp"


def subnormal_share(pairs, steps: int = PROBE_STEPS) -> float:
    """Share of the free DP window after ``steps`` steps from 0 whose
    weights are subnormal (nonzero but below the smallest normal float).
    Convolution on such values is many times slower than on normal ones."""
    zs = [z for z, _ in pairs]
    pmf = np.zeros(max(zs) - min(zs) + 1)
    for z, w in pairs:
        pmf[z - min(zs)] = float(w)
    cur = np.ones(1)
    for _ in range(steps):
        cur = np.convolve(cur, pmf)
    tiny = np.finfo(np.float64).tiny
    return float(np.count_nonzero((cur != 0) & (np.abs(cur) < tiny))
                 / len(cur))


def _make_law(name: str, table: dict[int, Fraction]) -> Law:
    pairs = tuple(sorted(table.items()))
    zs = [z for z, _ in pairs]
    period = 0
    for z in zs[1:]:
        period = math.gcd(period, z - zs[0])
    return Law(name=name, pairs=pairs, cls=_continuity(zs[0], zs[-1]),
               span=zs[-1] - zs[0], period=period or 1,
               ladder_path=_ladder_path(zs[0], zs[-1]),
               subnormal_share=subnormal_share(pairs))


def fixture(name: str) -> Law:
    return _make_law(name, dict(FIXTURES[name]))


def random_law(rng: random.Random, base: str, name: str) -> Law:
    """A zero-mean law on the support of RANDOM_BASES[base] with seeded
    weights.  Every law this draws generates Z and has variance > 0."""
    w = {z: v * Fraction(rng.randint(80, 125), 100)
         for z, v in RANDOM_BASES[base]}
    lo, hi = min(w), max(w)
    drift = sum(z * v for z, v in w.items())
    if drift > 0:
        w[lo] += drift / -lo
    elif drift < 0:
        w[hi] += -drift / hi
    total = sum(w.values())
    return _make_law(name, {z: v / total for z, v in w.items()})


# ---------------------------------------------------------------------------
# Plans.

def _jitter(rng: random.Random, v: float) -> float:
    """v moved by up to 5%, kept to two decimals (CLI arguments)."""
    return round(v * (1.0 + rng.uniform(-0.05, 0.05)), 2)


def _potential_plan(rng: random.Random, plan: Plan):
    # A partial-sum table at K = 2^16 takes 5 s (low-variance lazy walk)
    # to 20 s (l1) and over 90 s (span3, whose window is 14% subnormal) on
    # one core, and on a shared host twice that, so a round holds two: srw,
    # whose a(x) = |x| is known exactly, and a lazy walk
    # {-1: p, 0: 1 - 2p, 1: p} with p below 0.09, whose route gap at
    # |x| = 50 misses the 1e-6 bound by 100x or more.  Between p = 0.09 and
    # 0.2 the gap changes sign and crosses the bound, so a law drawn there
    # would pass or fail by chance from seed to seed.
    for law in (fixture("srw"), random_law(rng, "lazy-low", "lazy")):
        plan.ops.append(Op("potential", law, xs=POTENTIAL_XS))


# (law, theorem, xi, eta) per verify op; the law is a fixture or a key of
# RANDOM_BASES.  The cells include span3 C11 (rel_err 0.667 today), span3
# T11i at the default xi = eta = 0.2 (every cell unreachable, so no row is
# compared) and l1 T11i at xi = 0.65, whose x = 96 at n = 16384 lies
# outside the default a(x) table window of 80.  The seed moves xi and eta
# of the random-law cells only: a fixture cell moved by a few percent can
# land on a reachable lattice point or inside the table window, which
# would change the op's outcome from seed to seed.  Random laws of the
# other supports are left out to keep a run within its time: one verify op
# on "right-dp" (a 4% subnormal window) takes 12 to 20 s, and the ladder-DP
# laws are the subject of kernels-report.
VERIFY_SLOTS = (
    ("l1", "T11i", 0.2, 0.2),
    ("l1", "T11i", 0.65, 0.2),
    ("span3", "C11", 0.2, 0.2),
    ("span3", "T11i", 0.2, 0.2),
    ("both", "T11ii", 0.4, 0.6),
)

# Laws of one kernels-report round: the fixtures and one law per random
# base.  A round runs every slot of a workload twice (random laws with two
# draws of weights): op times on a shared host vary by 15% or more from
# one op to the next, and two samples of each slot steady the median and
# the 90th percentile.
SLOT_REPEATS = 2
KERNELS_SLOTS = ("srw", "l1", "span3", "both", "left-dp", "right-dp",
                 "neither")


def _slot_law(rng: random.Random, slot: str, index: int) -> Law:
    if slot in FIXTURES:
        return fixture(slot)
    return random_law(rng, slot, f"r{index}-{slot}")


def _verify_plan(rng: random.Random, plan: Plan):
    slots = VERIFY_SLOTS * SLOT_REPEATS
    for i, (slot, theorem, xi, eta) in enumerate(slots):
        law = _slot_law(rng, slot, i)
        if slot not in FIXTURES:
            xi, eta = _jitter(rng, xi), _jitter(rng, eta)
        plan.ops.append(Op("verify", law, theorem=theorem, xi=(xi,),
                           eta=(eta,)))


def _kernels_plan(rng: random.Random, plan: Plan):
    for i, slot in enumerate(KERNELS_SLOTS * SLOT_REPEATS):
        law = _slot_law(rng, slot, i)
        plan.ops.append(Op("kernels-report", law))


PLANNERS = {
    "potential-routes": _potential_plan,
    "verify-sweep": _verify_plan,
    "kernels-report": _kernels_plan,
}


def make_plan(workload: str, seed: int) -> Plan:
    """The round of ``workload`` for ``seed``, ops in a seeded order."""
    if workload not in PLANNERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(PLANNERS)}")
    rng = random.Random(f"{workload}/{seed}")
    plan = Plan(workload, seed)
    PLANNERS[workload](rng, plan)
    rng.shuffle(plan.ops)
    return plan

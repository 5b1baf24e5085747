"""Harness pitting the exact DP engines against the asymptotic formulas.

Two entry points:

* invariant_suite(law): structural identities that must hold at tight
  float tolerances (mass bookkeeping, Chapman-Kolmogorov, duality,
  domination, reachability, Green/harmonicity identities, ...), one row
  per record of the table INVARIANTS, each with a stable id.  Failures
  are data, not exceptions.

* compare_grid(spec, kernels): evaluates one limit theorem on a grid of
  scaled coordinates (xi, eta) and a geometric ladder of n, reporting
  exact value, asymptotic right-hand side, and relative error per cell.
  Limit statements carry no rates, so tolerances downstream are
  engineering calibrations; this module only reports.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from . import asymptotics, dp, engine, ladder, potential
from .asymptotics import TheoremId
from .errors import ConstraintViolation, QuadratureNotConverged
from .kernels import WalkKernels
from .laws import StepLaw, lattice_structure, moments

REL_ERR_FLOOR = 1e-16
_DP_MODE = {"point": dp.POINT, "halfline": dp.HALFLINE}
FOURIER_XS = (1, -1, 2, -2, 5, -5, 20, -20, 50, -50, 80, -80)
GREEN_X, GREEN_Y, GREEN_K = 2, 3, 1024   # the Green checks' x, y and K


# ---------------------------------------------------------------------------
# Invariant suite: one table of records, INVARIANTS, applied by one loop.

F, P, H = dp.FREE, dp.POINT, dp.HALFLINE
ND, NR, NEX, NORACLE = 256, 257, 48, 512   # the n of the rows that fix it
HIT_XS, STRIP_N = (5, 20, 50), 30    # the entrance laws' x, the strip's N


@dataclass
class InvariantResult:
    id: str
    name: str
    status: str          # "pass" | "fail" | "skip"
    residual: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class Invariant:
    """One row of the suite.  id is its key: the same for every law and
    n_big, and kept when the row is skipped.  name is its label, formatted
    with n = n_big, m = n_big // 2 and r = n_big - m.  reads lists the DP
    snapshots the row reads as (side, start, mode, n): side "law" or
    "reflected", n a step count or "n", "m" or "r".  check(suite, *runs),
    runs in the order of reads, returns (residual, tol[, detail]), and
    the row passes when |residual| <= tol; or it returns why the row is
    skipped.  Where gate(law) gives a reason, the row is skipped with it
    and reads nothing.  A kernels row runs only given the kernels."""

    id: str
    name: str
    check: Callable
    reads: tuple[tuple, ...] = ()
    gate: Callable[[StepLaw], str] | None = None
    kernels: bool = False


class _Suite:
    """What the checks read besides their snapshots (the law, n_big and
    the kernels k), and the checks longer than a line."""

    def __init__(self, law: StepLaw, k: WalkKernels | None, n_big: int):
        self.law, self.k, self.n_big = law, k, n_big
        self.struct = lattice_structure(law)
        self.sigma2 = float(moments(law).sigma2)
        self.steps = {"n": n_big, "m": n_big // 2, "r": n_big - n_big // 2}
        # the point and halfline streams from GREEN_X summed at GREEN_Y
        # over their first GREEN_K steps, run before the plan's streams
        self.greens = {} if k is None else {
            name: potential.time_sums(law, GREEN_X, mode, GREEN_Y, GREEN_K)
            for name, mode in _DP_MODE.items()}

    @cached_property
    def hitting(self) -> dict[str, list[float]]:
        """The first-entrance law H_x^+ (ladder.entrance_law_from) against
        f_+ and a(x), at x in HIT_XS: its mass, its mean overshoot f_+(x) -
        x, and its transport of sigma2 a(z) - z and of a(z - y), y <= 0,
        from x to the entry site z."""
        a, fp, s2 = self.k.table.a, self.k.pair.fp, self.sigma2
        hs = {x: ladder.entrance_law_from(self.law, self.k.pair, x)
              for x in HIT_XS}

        def mean(x: int, f) -> float:
            return sum(hs[x].prob(z) * f(z) for z in hs[x].sites().tolist())
        return {
            "mass": [hs[x].mass() - 1.0 for x in hs],
            "overshoot": [mean(x, lambda z: -z) - (fp(x) - x) for x in hs],
            "transport": [mean(x, lambda z: s2 * a(z) - z) - (s2 * a(x) - x)
                          for x in hs],
            "decomposition": [mean(x, lambda z: a(z - y))
                              - (a(x - y) - fp(x) / s2)
                              for x in hs for y in (0, -3)]}

    @cached_property
    def hit(self) -> np.ndarray:
        """P_y[hit STRIP_N before 0] for y = 0..STRIP_N, one exact solve."""
        return potential.hit_before_origin(self.law, STRIP_N)

    def _free_sites(self, full: dp.DPResult) -> tuple[int, int, int]:
        """The argmax of p^n_big and +-floor(sqrt(sigma2 n_big)) from it,
        rounded down to the period."""
        z0 = int(full.sites()[np.argmax(full.weights)])
        step = math.isqrt(int(moments(self.law).sigma2 * self.n_big))
        step -= step % self.struct.period
        return z0 - step, z0, z0 + step

    def _free_mass(self, full):
        """mass() + cut of p^n_big against what a fresh free stream's
        kernels give a unit start (dp.free_deficit)."""
        deficit = dp.free_deficit(*self.law.pmf_array(), self.n_big)
        return (full.mass() + full.cut - 1.0 - deficit, 1e-12,
                f"deficit={deficit:.3g}")

    def _free_ck(self, lo, hi, full):
        """p^n_big as the dot of its halves at the _free_sites; a site where
        p^n is 0 (the argmax never is) fails only if the dot is not 0."""
        gap = 0.0
        for z in self._free_sites(full):
            dot, pz = hi.dot(lo.reflected(z)), full.prob(z)
            gap = max(gap, abs(dot / pz - 1.0) if pz
                      else math.inf if dot else 0.0)
        return gap, 1e-12

    def _free_fourier(self, full):
        """p^n_big by the tilted Fourier rule at the _free_sites, within its
        bound plus the window's rounding (gamma_(3 n_k) of the block
        stream's sums, which bounds a single weight) and cut; the row
        reports the worst site."""
        gamma = potential._rounding_gamma(self.law, self.n_big)
        pairs = []
        for z in self._free_sites(full):
            v, bound = potential.p_fourier(self.law, self.n_big, z)
            pz = full.prob(z)
            pairs.append((abs(v - pz), bound + gamma * pz + full.cut))
        return max(pairs, key=lambda p: p[0] / p[1] if p[1]
                   else math.inf if p[0] else 0.0)

    def _domination(self, free, q, qh):
        """halfline <= point <= free at n = ND from 3, the free side read
        as the window from 0 shifted by 3."""
        p = dp.Window(free.offset + 3, free.weights, free.stride)
        worst = 0.0
        for y, w in zip(qh.sites().tolist(), qh.weights):
            worst = max(worst, w - q.prob(y))
        for y, w in zip(q.sites().tolist(), q.weights):
            worst = max(worst, w - p.prob(y))
        return max(worst, 0.0), 1e-14

    def _reflection(self, p, *qs):
        """q^n(x, y) = p^n(y - x) - p^n(y + x) on y >= 1, x = 1, 2, 5."""
        worst = 0.0
        for x0, qv in zip((1, 2, 5), qs):
            for y, w in zip(qv.sites().tolist(), qv.weights):
                if y >= 1:
                    worst = max(worst,
                                abs(w - (p.prob(y - x0) - p.prob(y + x0))))
        return worst, 1e-12

    def _pair_harmonicity(self):
        """The worst residual at the 39 sites 1 - zmin .. 39 - zmin, so a
        law with a down-jump of 39 or more checks as many sites as any."""
        worst = 0.0
        for side in ("plus", "minus"):
            for x in range(1 - self.law.zmin, 40 - self.law.zmin):
                worst = max(worst, abs(ladder.harmonicity_residual(
                    self.law, self.k.pair, side, x)))
        return worst, 1e-6

    def _buckets(self, run, direction: str):
        """Each exact height probability lies in [DP bucket, bucket +
        deficit]; a run of 0 steps enters nothing and bounds nothing."""
        if not len(run.absorbed):
            return "the half-line run from 1 has 0 steps"
        entered, deficit = ladder.ladder_buckets(run)
        gap = ladder.ladder_height_law(self.law, direction).pmf - entered
        return (max(0.0, -gap.min(), (gap - deficit).max()), 1e-12,
                f"deficit={deficit:.3g}")

    def _green(self, name: str):
        """G(x,y) - S_K = sum_z q^K(x,z) G(z,y) - q^K(x,y) lies in [0,
        G(y,y) P_x[T > K]], as G(z,y) <= G(y,y) (the maximum principle);
        each side, and the mass left, widened by the cut."""
        g = {"point": lambda x, y: potential.green_point(self.k.table, x, y),
             "halfline": lambda x, y: ladder.green_halfline(
                 self.k.pair, self.sigma2, x, y)}[name]
        acc, _, cut, mass, _ = self.greens[name]
        x, y = GREEN_X, GREEN_Y
        gap = g(x, y) + acc[0]             # acc[0], at -y, is -S_K
        bound = g(y, y) * (mass + cut) + cut
        return (max(-cut - gap, gap - bound, 0.0), 1e-12,
                f"gap={gap:.3g}, bound={bound:.3g}")

    def _strip(self, x: int):
        """The exact hit-N solve against G(x,N)/G(N,N), G from a_fourier."""
        N = STRIP_N

        def gap() -> float:
            a = {y: potential.a_fourier(self.law, y)
                 for y in (x, -N, x - N, N)}
            return (float(self.hit[x])
                    - (a[x] + a[-N] - a[x - N]) / (a[N] + a[-N]))
        return _quadrature(gap)


def _quadrature(gap) -> tuple:
    """gap() at the root-free routes' gate, or inf, with why, where a
    quadrature of potential.a_fourier did not converge."""
    try:
        return gap(), potential.QUAD_GATE
    except QuadratureNotConverged as e:
        return math.inf, potential.QUAD_GATE, str(e)


def invariant_suite(law: StepLaw, kernels: WalkKernels | None = None,
                    n_big: int = 4096) -> list[InvariantResult]:
    """Exact identities of the DP kernels, at float tolerances: one row
    per record of INVARIANTS, in its order (see Invariant), the kernel
    rows only given the kernels.

    The suite plans its DPs before it runs any: the plan is the union of
    the reads of the rows that run, and _planned_streams runs one stream
    per (increments, weights, start, mode) up to its last snapshot.  So a
    law equal to its reflection (srw, sym5, a symmetric lazy walk) reads
    its own runs for the reflected-law rows.  With kernels, the Green sums
    run first (_Suite): their strip plans (dp._plan) carry the rows they
    read, and serve the plan's streams of the same strips, so each strip
    is walked once.  Failures are data, not exceptions.
    """
    s = _Suite(law, kernels, n_big)
    sides = {"law": law, "reflected": law.reflected()}
    rows = [(rec, rec.gate and rec.gate(law)) for rec in INVARIANTS
            if kernels is not None or not rec.kernels]
    reads = {rec.id: [(sides[side], x, mode, s.steps.get(n, n))
                      for side, x, mode, n in rec.reads]
             for rec, skip in rows if not skip}
    snap = _planned_streams([rd for rds in reads.values() for rd in rds])
    results = []
    for rec, skip in rows:
        out = skip or rec.check(s, *(snap(*rd) for rd in reads[rec.id]))
        if isinstance(out, str):
            out, status = (0.0, 0.0, out), "skip"
        else:
            status = "pass" if abs(out[0]) <= out[1] else "fail"
        residual, tol, *detail = out
        results.append(InvariantResult(rec.id, rec.name.format(**s.steps),
                                       status, float(abs(residual)), tol,
                                       *detail))
    return results


def _stream(law: StepLaw, x: int, mode: int,
            ns: Iterable[int]) -> dict[int, dp.DPResult]:
    """{n: the n-step run of mode from x} for each n of ns, from one DP
    stream: each snapshot extends the one before it by run_dp on its window,
    its absorbed masses are concatenated to cover steps 1..n, and its cut
    adds the cut mass of the steps before.  A snapshot is the n-step run
    bit for bit when the snapshot before it ends a block of both runs
    (dp.run_dp), and lies within float rounding of it otherwise."""
    zmin, pmf = law.pmf_array()
    out, k, res = {}, 0, dp.DPResult(x, np.ones(1))
    for n in sorted(set(ns)):
        nxt = dp.run_dp(res.offset, res.weights, zmin, pmf, n - k, mode)
        if k and nxt.absorbed is not None:
            nxt.absorbed = np.concatenate((res.absorbed, nxt.absorbed))
        nxt.cut += res.cut
        out[n] = res = nxt
        k = n
    return out


def _planned_streams(reads):
    """Run each DP stream of a plan once, up to its last snapshot, and
    return snap(law, x, mode, n), the n-step run of mode from x.

    reads lists the snapshots (law, x, mode, n) that the rows read.  The
    plan keys them by (increments, weights, x, mode), so two laws with the
    same steps (a law equal to its reflection, and that reflection) share
    one stream per start and mode; _stream runs each key once."""
    plan: dict[tuple, tuple[StepLaw, set[int]]] = {}
    for lw, x, mode, n in reads:
        key = lw.increments, lw.weights, x, mode
        plan.setdefault(key, (lw, set()))[1].add(n)
    runs = {key: _stream(lw, key[2], key[3], ns)
            for key, (lw, ns) in plan.items()}

    def snap(lw: StepLaw, x: int, mode: int, n: int) -> dp.DPResult:
        return runs[lw.increments, lw.weights, x, mode][n]
    return snap


def _mass_rows(tag: str, side: str, x: int, n, at: str) -> list[Invariant]:
    """Mass bookkeeping of the point and halfline runs, one check: what
    survived, what was absorbed and what the edge cut removed add up to
    1.  Of the law itself, the point kernel's 0 at 0 sits between them."""
    rows = [Invariant(f"mass.{name}.{tag}", f"{name} mass bookkeeping {at}",
                      lambda s, q: (q.mass() + q.absorbed.sum() + q.cut - 1.0,
                                    1e-10), ((side, x, mode, n),))
            for name, mode in _DP_MODE.items()]
    if side == "law":
        rows.insert(1, Invariant(f"vanishes.{tag}",
                                 f"point kernel vanishes at 0, {at}",
                                 lambda s, q: (q.prob(0), 0.0),
                                 ((side, x, P, n),)))
    return rows


INVARIANTS: tuple[Invariant, ...] = (
    Invariant("free.mass", "free mass n={n}", _Suite._free_mass,
              (("law", 0, F, "n"),)),
    Invariant("free.chapman-kolmogorov",
              "free kernel by Chapman-Kolmogorov n={n}", _Suite._free_ck,
              (("law", 0, F, "m"), ("law", 0, F, "r"), ("law", 0, F, "n"))),
    Invariant("free.fourier", "free kernel by Fourier rule n={n}",
              _Suite._free_fourier, (("law", 0, F, "n"),)),
    *_mass_rows("x1", "law", 1, "n", "x=1 n={n}"),
    *_mass_rows("x3", "law", 3, ND, f"x=3 n={ND}"),
    *_mass_rows("reflected", "reflected", 1, "r", "x=1 n={r}, reflected law"),
    # the dual window: q^n(1, 1) = sum_z q^m(1, z) q~^r(1, z), as q^k(z, y)
    # = q~^k(y, z); then time reversal, q^ND(3, 5) = q~^ND(5, 3)
    *(Invariant(f"chapman-kolmogorov.{name}",
                f"Chapman-Kolmogorov {name} ({{m}}+{{r}})",
                lambda s, q, qr, full: (q.dot(qr) - full.prob(1), 1e-10),
                (("law", 1, mode, "m"), ("reflected", 1, mode, "r"),
                 ("law", 1, mode, "n"))) for name, mode in _DP_MODE.items()),
    *(Invariant(f"duality.{name}", f"duality {name} n={ND}",
                lambda s, q, qr: (q.prob(5) - qr.prob(3), 1e-12),
                (("law", 3, mode, ND), ("reflected", 5, mode, ND)))
      for name, mode in _DP_MODE.items()),
    # the support of p^n is confined to its congruence class
    Invariant("reachability", f"reachability n={NR}",
              lambda s, d: (max((abs(w) for y, w in zip(d.sites().tolist(),
                                                        d.weights)
                                 if not s.struct.reachable(NR, y)),
                                default=0.0), 0.0), (("law", 0, F, NR),)),
    Invariant("domination", "domination halfline <= point <= free",
              _Suite._domination,
              (("law", 0, F, ND), ("law", 3, P, ND), ("law", 3, H, ND))),
    # the float DP calibrated against the rational DP
    Invariant("float-vs-rational", f"float vs rational DP n={NEX}",
              lambda s, q: (max(abs(q.prob(z) - float(v)) for z, v in
                                engine.absorbed_at_origin_exact(
                                    s.law, 3, NEX)[0].items()), 1e-13),
              (("law", 3, P, NEX),)),
    Invariant("reflection-principle", "reflection principle",
              _Suite._reflection,
              (("law", 0, F, NORACLE), ("law", 1, P, NORACLE),
               ("law", 2, P, NORACLE), ("law", 5, P, NORACLE)),
              gate=lambda law: "" if law.increments == (-1, 1)
              else "law is not the unit-step walk"),
    # the halfline and point kernels of the domination row agree on y >= 1
    Invariant("left-continuous", "halfline == point for left-continuous law",
              lambda s, q, qh: (max(abs(q.prob(y) - qh.prob(y))
                                    for y in q.sites().tolist() if y >= 1),
                                1e-12),
              (("law", 3, P, ND), ("law", 3, H, ND)),
              gate=lambda law: "" if law.zmin >= -1
              else "law has down-jumps below -1"),
    Invariant("potential.harmonicity", "potential kernel harmonicity",
              lambda s: (np.max(np.abs(potential.harmonicity_residuals(
                  s.law, s.k.table))), 1e-8), kernels=True),
    Invariant("potential.a0", "a(0) = 0", lambda s: (s.k.table.a(0), 0.0),
              kernels=True),
    # the root-free route, at the check tolerance of its circle rule
    Invariant("potential.fourier", "potential table vs Fourier route",
              lambda s: _quadrature(lambda: max(
                  (abs(s.k.table.a(x) - potential.a_fourier(s.law, x))
                   for x in FOURIER_XS if abs(x) <= s.k.table.X),
                  default=0.0)), kernels=True),
    # the ladder-height laws and the harmonic pair built from them, which
    # read no potential table
    Invariant("pair.harmonicity", "harmonic pair harmonicity",
              _Suite._pair_harmonicity, kernels=True),
    Invariant("pair.edge", "f_pm(X)/X near 1 at table edge",
              lambda s: (max(abs(f(s.k.pair.X) / s.k.pair.X - 1.0)
                             for f in (s.k.pair.fp, s.k.pair.fm)), 0.05),
              kernels=True),
    Invariant("ladder.mean", "ladder-mean identity (sigma^2/2)",
              lambda s: (sum(float(s.k.pair.fm(j))
                             * float(sum(w for z, w in s.law.items()
                                         if z <= -j))
                             for j in range(1, -s.law.zmin + 1))
                         - s.sigma2 / 2.0, 1e-8), kernels=True),
    # ladder.ladder_buckets reads the half-line run from 1 of the reflected
    # law for the ascending heights, of the law for the descending ones
    *(Invariant(f"ladder.{d}", f"{d} ladder heights vs DP buckets",
                partial(_Suite._buckets, direction=d), (read,), kernels=True)
      for d, read in (("ascending", ("reflected", 1, H, "r")),
                      ("descending", ("law", 1, H, "m")))),
    Invariant("entrance.inf-plus", "H_inf_plus normalization",
              lambda s: (s.k.h_inf_plus.mass() - 1.0, 1e-8), kernels=True),
    Invariant("entrance.minus-inf", "H_minus_inf normalization",
              lambda s: (s.k.h_minus_inf.mass() - 1.0, 1e-8), kernels=True),
    # each row is the worst residual over its x (and y): _Suite.hitting
    *(Invariant(f"hitting.{kind}", label.format(",".join(map(str, HIT_XS))),
                lambda s, kind=kind: (max(map(abs, s.hitting[kind])), 1e-10),
                kernels=True)
      for kind, label in (("mass", "hitting-law mass x={}"),
                          ("overshoot", "overshoot mean vs f_+(x) - x, x={}"),
                          ("transport", "potential transport x={}"),
                          ("decomposition",
                           "hitting decomposition x={}, y=0,-3"))),
    # G(GREEN_X, GREEN_Y) against its DP sum over GREEN_K steps, rounded
    # down to the period (potential.time_sums)
    *(Invariant(f"green.{name}",
                f"green {name} tail bound x={GREEN_X} y={GREEN_Y}",
                partial(_Suite._green, name=name), kernels=True)
      for name in _DP_MODE),
    *(Invariant(f"strip.x{x}", f"strip vs green ratio x={x}",
                partial(_Suite._strip, x=x), kernels=True) for x in (5, 17)),
)


# ---------------------------------------------------------------------------
# Theorem comparison grids.

@dataclass
class GridSpec:
    theorem: TheoremId
    ns: tuple[int, ...] = (256, 1024, 4096)
    xis: tuple[float, ...] = (0.2,)
    etas: tuple[float, ...] = (0.2,)
    a_circ: float = 2.0
    alpha: float = 0.5
    ell: float = 1.0
    ys_literal: tuple[int, ...] | None = None


@dataclass
class Row:
    theorem: str
    law: str
    n: int
    x: int
    y: int
    exact: float
    rhs: float
    rel_err: float
    xi: float = 0.0
    eta: float = 0.0


@dataclass
class ComparisonReport:
    spec: GridSpec
    law_name: str
    rows: list[Row] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    tail_bounds: dict[int, float] = field(default_factory=dict)  # nu_n's

    def max_rel_err(self, n: int) -> float | None:
        """Largest rel_err over the rows at n; None if n compared no rows."""
        errs = [r.rel_err for r in self.rows if r.n == n]
        return max(errs) if errs else None


@dataclass(frozen=True)
class Exact:
    """One exact side, the record of EXACT that Theorem.exact names: the
    cell (x, y) at n reads value(run(law, x, n, spec), n, y).  Where no
    site of sites(law, y) is reachable from x at n, the run holds 0.0 at
    every site the value reads, and compare_grid takes 0.0 with no DP."""

    run: Callable     # (law, x, n, spec) -> the exact run from x
    value: Callable   # (run, n, y) -> the exact side at (n, y)
    cells: Callable   # (spec, law, n, coord) -> [(x, y, xi, eta), ...]
    # (law, y) -> the sites whose step-n weight, in the window, the passage
    # or the entrance law, the value reads (None: no site rule applies)
    sites: Callable | None = None
    half_dot: bool = False   # the value is the run's q^n(x, y): _half_dot
    tail: int | None = None  # the item of the run holding its tail bound
    # the GridSpec fields, beyond theorem and ns, whose values the cells,
    # the run or the value read
    reads: tuple[str, ...] = ()


def _point(law: StepLaw, x: int, n: int, spec: GridSpec) -> dp.DPResult:
    return engine.absorbed_at_origin(law, x, n)


def _halfline(law: StepLaw, x: int, n: int, spec: GridSpec) -> dp.DPResult:
    return engine.absorbed_on_halfline(law, x, n)


def _r_alpha(law: StepLaw, x: int, n: int, spec: GridSpec):
    return (engine.partial_absorption(law, spec.alpha, x, n),
            engine.absorbed_at_origin(law, x, n))


def _nu(law: StepLaw, x: int, n: int, spec: GridSpec):
    return engine.nu_and_particles(law, n, ell=spec.ell)


def _starts(spec: GridSpec, n: int, coord):
    """(x, xi) per xi, lazily: xi's cells share x = max(1, coord(xi, n))."""
    return ((max(1, coord(xi, n)), xi) for xi in spec.xis)


def _scaled(spec: GridSpec, law: StepLaw, n: int, coord) -> list[tuple]:
    return [(x, coord(eta, n), xi, eta)
            for x, xi in _starts(spec, n, coord) for eta in spec.etas]


def _at_zero(spec: GridSpec, law: StepLaw, n: int, coord) -> list[tuple]:
    return [(x, 0, xi, 0.0) for x, xi in _starts(spec, n, coord)]


def _both_signs(spec: GridSpec, law: StepLaw, n: int, coord) -> list[tuple]:
    """Both signs of x: the vanishing form (x > 0) and the erf form."""
    return [(xx, 0, math.copysign(xi, xx), 0.0)
            for x, xi in _starts(spec, n, coord) for xx in (x, -x)]


def _entered(spec: GridSpec, law: StepLaw, n: int, coord) -> list[tuple]:
    """The ys of --ys, or every site where a half-line run can enter."""
    return [(x, y, xi, float(y)) for x, xi in _starts(spec, n, coord)
            for y in spec.ys_literal or range(1 + law.zmin, 1)]


def _one_cell(spec: GridSpec, law: StepLaw, n: int, coord) -> list[tuple]:
    """After nu_tail_bound, which raises where nu_and_particles would."""
    engine.nu_tail_bound(law, n)
    return [(0, 0, 0.0, 0.0)]


def _removed_at(r: dp.DPResult, n: int, y: int) -> float:
    """f_x(n) of a point run, P_x[T = n] of a half-line run."""
    return float(r.absorbed[n - 1].sum())


# h's run has an absorbed column at y exactly where the site rule lists y,
# as its entry_base is 1 + zmin
EXACT = {
    "point": Exact(_point, lambda r, n, y: r.prob(y), _scaled,
                   lambda law, y: (y,) if y != 0 else (), half_dot=True,
                   reads=("xis", "etas")),
    "halfline": Exact(_halfline, lambda r, n, y: r.prob(y), _scaled,
                      lambda law, y: (y,) if y >= 1 else (), half_dot=True,
                      reads=("xis", "etas")),
    "r_alpha": Exact(_r_alpha, lambda r, n, y: r[0].prob(y) - r[1].prob(y),
                     _scaled, reads=("xis", "etas", "alpha")),
    "f_x": Exact(_point, _removed_at, _at_zero, lambda law, y: (0,),
                 reads=("xis",)),
    "T": Exact(_halfline, _removed_at, _at_zero,
               lambda law, y: range(1 + law.zmin, 1), reads=("xis",)),
    "h": Exact(_halfline,
               lambda r, n, y: float(r.absorbed[n - 1, y - r.entry_base]),
               _entered,
               lambda law, y: (y,) if 1 + law.zmin <= y <= 0 else (),
               reads=("xis", "ys_literal")),
    "Q+": Exact(_point, lambda r, n, y: r.restricted_sum(r.offset, -1),
                _both_signs, reads=("xis",)),
    # nu_n reads none of ell, which sets only the particles' interval
    "nu": Exact(_nu, lambda r, n, y: r[0], _one_cell, tail=1),
    "particles": Exact(_nu, lambda r, n, y: r[2], _one_cell, tail=1,
                       reads=("ell",)),
}


def unread_fields(spec: GridSpec) -> list[str]:
    """The fields of spec, in GridSpec's order, that differ from their
    defaults but that the theorem reads nowhere: not its exact side's
    record (Exact.reads), nor its formula (Theorem.extras), nor its domain
    gate (a_circ, where Theorem.gated).  compare_grid would drop them."""
    th = asymptotics.THEOREMS[spec.theorem]
    reads = {"theorem", "ns", *EXACT[th.exact].reads, *th.extras}
    if th.gated:
        reads.add("a_circ")
    default = GridSpec(spec.theorem)
    return [f.name for f in fields(GridSpec)
            if f.name not in reads
            and getattr(spec, f.name) != getattr(default, f.name)]


def compare_grid(spec: GridSpec, k: WalkKernels) -> ComparisonReport:
    """Compare a theorem's right-hand side with its exact side, the record
    EXACT[Theorem.exact], on every cell of the grid, in two passes.

    The plan (_plan) lists the cells (n, x, y, xi, eta), checks each
    against the theorem's domain (Theorem.check) and evaluates its
    right-hand side, once: no formula runs a DP, as p^n comes from the
    tilted Fourier rule.  So a scaled coordinate outside [-2^53, 2^53] or
    a cell outside the domain (ConstraintViolation), a formula that reads
    a table outside its window (OutOfWindow) or a nu_n tail that cannot
    be bounded (TailNotNegligible) stops the grid before the first DP,
    with the error of the first such cell in grid order.  The evaluation
    then takes the exact side of each cell, pairs it with the planned
    right-hand side, and emits rows and skips in grid order.

    A cell whose exact side reads only sites where the n-step run holds
    nothing (Exact.sites) reads 0.0, as the DP gives there, with no DP.
    Otherwise, a point or halfline cell whose y is the only y of its
    start x at n takes its exact side as the dot of two half runs
    (_half_dot): n steps in all, but about 1/sqrt(2) of the n-step run's
    site-steps, which grow like n^1.5.  E > 1 distinct ys would cost
    (1 + E)/(2 sqrt(2)) of those, so such a start, and every other exact
    side, runs one exact DP per start and n.  A cell whose two sides are
    0.0 is skipped: every off-coset cell of T11i, T11ii and T13, and the
    nu and particles cells of a left-continuous law (C+ = 0.0).  Their
    tail bounds go to tail_bounds, and P61_ralpha emits a row per form.
    """
    report = ComparisonReport(spec=spec, law_name=k.law.name)
    th = asymptotics.THEOREMS[spec.theorem]
    ex = EXACT[th.exact]
    extras = {f: getattr(spec, f) for f in th.extras}
    for n, cells in _plan(spec, k, ex, extras):
        runs: dict = {}
        ys = {x: {c[1] for c in cells if c[0] == x} for x, *_ in cells}
        for x, y, xi, eta, rv in cells:
            if ex.sites and not any(k.structure.reachable(n, z - x)
                                    for z in ex.sites(k.law, y)):
                exact = 0.0
            elif ex.half_dot and len(ys[x]) == 1:
                exact = _half_dot(ex.run, k.law, x, y, n, runs)
            else:
                if x not in runs:
                    runs[x] = ex.run(k.law, x, n, spec)
                exact = ex.value(runs[x], n, y)
                if ex.tail is not None:
                    report.tail_bounds[n] = runs[x][ex.tail]
            for suffix, v in zip(th.forms, rv if len(th.forms) > 1
                                 else (rv,)):
                _append(report, th, k, n, x, y, exact, v, xi, eta, suffix)
    return report


def _plan(spec: GridSpec, k: WalkKernels, ex: Exact,
          extras: dict) -> list[tuple[int, list[tuple]]]:
    """[(n, [(x, y, xi, eta, rhs), ...]) for n in spec.ns]: every cell of
    the grid (ex.cells), each checked and then its right-hand side
    evaluated, with no DP (see compare_grid).  A negative xi is refused:
    its start, max(1, round(xi sqrt(sigma2 n))), would be 1 at every n."""
    for xi in spec.xis:
        if xi < 0:
            raise ConstraintViolation(
                f"xi = {xi!r} < 0: a grid's start x = xi sqrt(sigma2 n) "
                f"needs xi >= 0")
    sigma2 = k.sigma2()
    th = asymptotics.THEOREMS[spec.theorem]

    # Lock each scaled cell to the same effective coordinate across n: pick
    # the lattice point at the smallest n and scale it by sqrt(n/n0) whenever
    # that ratio is a perfect square.  Rounding independently at each n would
    # jitter the effective xi and break monotone error decay.
    n0 = min(spec.ns)
    scale0 = math.sqrt(sigma2 * n0)

    def coord(v: float, n: int) -> int:
        scaled = v * math.sqrt(sigma2 * n)
        if not abs(scaled) <= 2.0 ** 53:       # also inf and nan
            raise ConstraintViolation(
                f"scaled coordinate {v!r} * sqrt(sigma2 n) = {scaled:.3g} at "
                f"n={n} lies outside [-2^53, 2^53]")
        base = round(v * scale0)
        if base == 0:
            base = 1 if v >= 0 else -1
        f = math.isqrt(n // n0)
        if f * f * n0 == n:
            return base * f
        return round(scaled)

    plan = []
    for n in spec.ns:
        lim = spec.a_circ * math.sqrt(sigma2 * n)
        cells = []
        for x, y, xi, eta in ex.cells(spec, k.law, n, coord):
            th.check(x, y, n, lim)
            cells.append((x, y, xi, eta,
                          asymptotics.rhs(spec.theorem, k, x, y, n, extras)))
        plan.append((n, cells))
    return plan


def _half_dot(run, law: StepLaw, x: int, y: int, n: int,
              runs: dict) -> float:
    """q^n(x, y) = sum_z q^(n-m)(x, z) q~^m(y, z), m = n // 2, of the point
    (x, y != 0) or halfline (x, y >= 1) kernel, whose run reads no spec,
    q~ that of the reflected law: by time reversal q^m(z, y) = q~^m(y, z).
    runs caches the half from x under ("x", x), from y under ("y", y)."""
    for key, lw, steps in ((("x", x), law, n - n // 2),
                           (("y", y), law.reflected(), n // 2)):
        if key not in runs:
            runs[key] = run(lw, key[1], steps, None)
    return runs["x", x].dot(runs["y", y])


def _append(report: ComparisonReport, th: asymptotics.Theorem,
            k: WalkKernels, n, x, y, exact, rv, xi, eta, suffix=""):
    name = th.id.value + suffix
    if exact == 0.0 and rv == 0.0:
        report.skipped.append(f"{name} n={n} x={x} y={y}: exact = rhs = 0")
        return
    rel_err = abs(exact - rv) / max(abs(exact), REL_ERR_FLOOR)
    report.rows.append(Row(name, k.law.name, n, x, y, float(exact),
                           float(rv), rel_err, xi, eta))


@dataclass
class SlopeSummary:
    theorem: str
    xi: float
    eta: float
    slope: float
    final_rel_err: float
    flagged: bool  # non-negative slope


def convergence_report(rep: ComparisonReport) -> list[SlopeSummary]:
    """Fit log(rel_err) against log(n) per scaled cell, over at least two
    distinct n.  A cell is (theorem, xi, eta, x > 0): the sign of x keeps
    apart Q+'s two cells at xi = 0, whose xi 0.0 and -0.0 compare equal."""
    out = []
    cells: dict[tuple, list[Row]] = {}
    for r in sorted(rep.rows, key=lambda r: r.n):
        if r.rel_err > 0:
            cells.setdefault((r.theorem, r.xi, r.eta, r.x > 0), []).append(r)
    for (th, xi, eta, _), usable in sorted(cells.items()):
        if len({r.n for r in usable}) < 2:
            continue
        ln = np.log([r.n for r in usable])
        le = np.log([r.rel_err for r in usable])
        slope = float(np.polyfit(ln, le, 1)[0])
        out.append(SlopeSummary(th, xi, eta, slope,
                                usable[-1].rel_err, slope >= 0.0))
    return out

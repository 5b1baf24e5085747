"""Harness pitting the exact DP engines against the asymptotic formulas.

Two entry points:

* invariant_suite(law): structural identities that must hold at tight
  float tolerances (mass bookkeeping, Chapman-Kolmogorov, duality,
  domination, reachability, Green/harmonicity identities, ...).
  Failures are data, not exceptions.

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
# Invariant suite.

@dataclass
class InvariantResult:
    name: str
    status: str          # "pass" | "fail" | "skip"
    residual: float
    tolerance: float
    detail: str = ""


def _check(results, name, residual, tol, detail=""):
    status = "pass" if abs(residual) <= tol else "fail"
    results.append(InvariantResult(name, status, float(abs(residual)),
                                   tol, detail))


def _skip(results, name, reason):
    results.append(InvariantResult(name, "skip", 0.0, 0.0, reason))


def _stream(law: StepLaw, x: int, mode: int,
            ns: Iterable[int]) -> dict[int, dp.DPResult]:
    """{n: the n-step run of mode from x} for each n of ns, from one DP
    stream: each snapshot extends the one before it by run_dp on its window,
    its absorbed or entry is concatenated to cover steps 1..n, and its cut
    adds the cut mass of the steps before.  A snapshot is the n-step run
    bit for bit when the snapshot before it ends a block of both runs
    (dp.run_dp), and lies within float rounding of it otherwise."""
    zmin, pmf = law.pmf_array()
    out, k, res = {}, 0, dp.DPResult(x, np.ones(1))
    for n in sorted(set(ns)):
        nxt = dp.run_dp(res.offset, res.weights, zmin, pmf, n - k, mode)
        if k and mode == dp.POINT:
            nxt.absorbed = np.concatenate((res.absorbed, nxt.absorbed))
        elif k and mode == dp.HALFLINE:
            nxt.entry = np.concatenate((res.entry, nxt.entry))
        nxt.cut += res.cut
        out[n] = res = nxt
        k = n
    return out


def _planned_streams(reads):
    """Run each DP stream of a plan once, up to its last snapshot, and
    return snap(law, x, mode, n), the n-step run of mode from x.

    reads lists (law, x, mode, ns), the snapshots ns that the checks read
    of the run of mode from x.  The plan keys them by (increments,
    weights, x, mode), so two laws with the same steps (a law equal to its
    reflection, and that reflection) share one stream per start and mode;
    _stream runs each key once.  An empty ns runs nothing."""
    plan: dict[tuple, tuple[StepLaw, set[int]]] = {}
    for lw, x, mode, ns in reads:
        key = lw.increments, lw.weights, x, mode
        plan.setdefault(key, (lw, set()))[1].update(ns)
    runs = {key: _stream(lw, key[2], key[3], ns)
            for key, (lw, ns) in plan.items()}

    def snap(lw: StepLaw, x: int, mode: int, n: int) -> dp.DPResult:
        return runs[lw.increments, lw.weights, x, mode][n]
    return snap


def invariant_suite(law: StepLaw, kernels: WalkKernels | None = None,
                    n_big: int = 4096) -> list[InvariantResult]:
    """Exact identities of the DP kernels, at float tolerances.

    The suite plans its DPs before it runs any: it lists every snapshot a
    check reads as (law, start, mode) -> {n}, and runs one stream per key
    of (increments, weights, start, mode) up to its last snapshot
    (_planned_streams).  A law equal to its reflection (srw, sym5, a
    symmetric lazy walk) so reads its own runs for the reflected-law
    checks.  With m = n_big // 2, the snapshots are:

    * free from 0 at 256, 257, m, n_big - m and n_big (and 512 for the
      unit-step walk): domination's free side (p^256(3, .) is the window
      from 0 shifted by 3), reachability, the two Chapman-Kolmogorov
      halves of p^n, free mass and the reflection oracle;
    * point and halfline from 1 at m and n_big: the first window and the
      full window of Chapman-Kolmogorov, mass bookkeeping x=1 at n_big
      (and the reflection oracle's x=1 at 512); the halfline run at m is
      the descending ladder-bucket run;
    * point and halfline from 3 at 48 (point only) and 256: float vs
      rational, domination, duality's first side and mass bookkeeping
      x=3 at 256;
    * point and halfline of the reflected law from 1 at n_big - m: the
      dual window of Chapman-Kolmogorov and mass bookkeeping there; the
      halfline run is the ascending ladder-bucket run;
    * point and halfline of the reflected law from 5 at 256: duality's
      second side;
    * point from 2 and 5 at 512 for the unit-step walk: the reflection
      oracle.

    The Green checks (with kernels) sum the point and halfline streams
    from 2 over their first 1024 steps (potential.time_sums), outside the
    plan, and bound each Green function's gap to its sum by G(y,y) times
    the mass left.  Those two streams run first: their strip plans
    (dp._plan) carry the rows they read, and serve the plan's streams of
    the same strips, so each strip is walked once.  Failures are data,
    not exceptions.
    """
    results: list[InvariantResult] = []
    struct = lattice_structure(law)
    refl = law.reflected()
    m, nd, nr, nex = n_big // 2, 256, 257, 48
    oracle = (512,) if law.increments == (-1, 1) else ()
    F, P, H = dp.FREE, dp.POINT, dp.HALFLINE
    greens = {} if kernels is None else {
        name: potential.time_sums(law, GREEN_X, mode, GREEN_Y, GREEN_K)
        for name, mode in _DP_MODE.items()}
    snap = _planned_streams([
        (law, 0, F, (nd, nr, m, n_big - m, n_big) + oracle),
        (law, 1, P, (m, n_big) + oracle), (law, 1, H, (m, n_big)),
        (law, 3, P, (nex, nd)), (law, 3, H, (nd,)),
        (refl, 1, P, (n_big - m,)), (refl, 1, H, (n_big - m,)),
        (refl, 5, P, (nd,)), (refl, 5, H, (nd,)),
        (law, 2, P, oracle), (law, 5, P, oracle)])

    # free evolution mass, and the free kernel as the Chapman-Kolmogorov dot
    # of its two halves
    p_lo, p_hi, full = (snap(law, 0, F, n) for n in (m, n_big - m, n_big))
    _check(results, f"free mass n={n_big}", full.mass() + full.cut - 1.0,
           1e-12)
    # at the argmax and at +-floor(sqrt(sigma2 n)) from it, rounded down to
    # the period; a site where p^n is 0 (the argmax never is) fails only
    # if the dot there is not 0
    z0 = int(full.sites()[np.argmax(full.weights)])
    step = math.isqrt(int(moments(law).sigma2 * n_big))
    step -= step % struct.period
    sites = (z0 - step, z0, z0 + step)
    gap = 0.0
    for z in sites:
        dot, pz = p_hi.dot(p_lo.reflected(z)), full.prob(z)
        gap = max(gap, abs(dot / pz - 1.0) if pz
                  else math.inf if dot else 0.0)
    _check(results, f"free kernel by Chapman-Kolmogorov n={n_big}", gap,
           1e-12)
    # the same sites by the tilted Fourier rule, within its bound plus the
    # window's rounding (gamma_(3 n_k) of the block stream's sums, which
    # bounds a single weight) and cut; the row reports the worst site
    gamma = potential._rounding_gamma(law, n_big)
    pairs = []
    for z in sites:
        (v, bound), pz = potential.p_fourier(law, n_big, z), full.prob(z)
        pairs.append((abs(v - pz), bound + gamma * pz + full.cut))
    gap, tol = max(pairs, key=lambda p: p[0] / p[1] if p[1]
                   else math.inf if p[0] else 0.0)
    _check(results, f"free kernel by Fourier rule n={n_big}", gap, tol)

    # mass conservation, point and halfline modes: what survived, what was
    # absorbed and what the edge cut removed add up to 1, at the last
    # snapshot of each of these runs, which other checks read too
    for lw, x, n in ((law, 1, n_big), (law, 3, nd), (refl, 1, n_big - m)):
        at = f"x={x} n={n}" + ("" if lw is law else ", reflected law")
        qp, qh = snap(lw, x, P, n), snap(lw, x, H, n)
        _check(results, f"point mass bookkeeping {at}",
               qp.mass() + qp.absorbed.sum() + qp.cut - 1.0, 1e-10)
        if lw is law:
            _check(results, f"point kernel vanishes at 0, {at}", qp.prob(0),
                   0.0)
        _check(results, f"halfline mass bookkeeping {at}",
               qh.mass() + qh.entry.sum() + qh.cut - 1.0, 1e-10)

    # Chapman-Kolmogorov via the dual window, q^n(1, 1) = sum_z q^m(1, z)
    # q~^(n-m)(1, z), as q^k(z, y) = q~^k(y, z); then duality (time
    # reversal), q^256(3, 5) = q~^256(5, 3)
    for name, mode in _DP_MODE.items():
        _check(results, f"Chapman-Kolmogorov {name} ({m}+{n_big - m})",
               snap(law, 1, mode, m).dot(snap(refl, 1, mode, n_big - m))
               - snap(law, 1, mode, n_big).prob(1), 1e-10)
    for name, mode in _DP_MODE.items():
        _check(results, f"duality {name} n={nd}",
               snap(law, 3, mode, nd).prob(5)
               - snap(refl, 5, mode, nd).prob(3), 1e-12)

    # reachability: support of p^n confined to the congruence class
    d = snap(law, 0, F, nr)
    bad = max((abs(w) for y, w in zip(d.sites().tolist(), d.weights)
               if not struct.reachable(nr, y)), default=0.0)
    _check(results, f"reachability n={nr}", bad, 0.0)

    # domination chain at n = 256
    free = snap(law, 0, F, nd)
    p = dp.Window(free.offset + 3, free.weights, free.stride)
    q, qh = snap(law, 3, P, nd), snap(law, 3, H, nd)
    worst = 0.0
    for y, w in zip(qh.sites().tolist(), qh.weights):
        worst = max(worst, w - q.prob(y))
    for y, w in zip(q.sites().tolist(), q.weights):
        worst = max(worst, w - p.prob(y))
    _check(results, "domination halfline <= point <= free",
           max(worst, 0.0), 1e-14)

    # float DP calibrated against rational DP
    exact = engine.absorbed_at_origin_exact(law, 3, nex)[0]
    qf = snap(law, 3, P, nex)
    err = max(abs(qf.prob(s) - float(v)) for s, v in exact.items())
    _check(results, f"float vs rational DP n={nex}", err, 1e-13)

    # reflection-principle oracle (symmetric unit-step walk only)
    if oracle:
        nn = oracle[0]
        p = snap(law, 0, F, nn)
        worst = 0.0
        for x0 in (1, 2, 5):
            qv = snap(law, x0, P, nn)
            for y, w in zip(qv.sites().tolist(), qv.weights):
                if y >= 1:
                    worst = max(worst,
                                abs(w - (p.prob(y - x0) - p.prob(y + x0))))
        _check(results, "reflection principle", worst, 1e-12)
    else:
        _skip(results, "reflection principle", "law is not the unit-step walk")

    # one-sided continuity: the halfline and point kernels of the domination
    # chain coincide on x,y >= 1
    if law.zmin >= -1:
        worst = max(abs(q.prob(y) - qh.prob(y))
                    for y in q.sites().tolist() if y >= 1)
        _check(results, "halfline == point for left-continuous law",
               worst, 1e-12)
    else:
        _skip(results, "halfline == point for left-continuous law",
              "law has down-jumps below -1")

    if kernels is not None:
        buckets = {"ascending": snap(refl, 1, H, n_big - m),
                   "descending": snap(law, 1, H, m)}
        _kernel_invariants(law, kernels, results, buckets, greens)
    return results


def _kernel_invariants(law: StepLaw, k: WalkKernels,
                       results: list[InvariantResult],
                       buckets: dict[str, dp.DPResult], greens: dict):
    sigma2 = k.sigma2()
    table, pair = k.table, k.pair

    res = potential.harmonicity_residuals(law, table)
    _check(results, "potential kernel harmonicity", np.max(np.abs(res)), 1e-8)
    _check(results, "a(0) = 0", table.a(0), 0.0)
    # the root-free route, at the check tolerance of its circle rule
    try:
        gap, detail = max((abs(table.a(x) - potential.a_fourier(law, x))
                           for x in FOURIER_XS if abs(x) <= table.X),
                          default=0.0), ""
    except QuadratureNotConverged as e:
        gap, detail = math.inf, str(e)
    _check(results, "potential table vs Fourier route", gap,
           potential.QUAD_GATE, detail)

    ladder_invariants(law, pair, results, buckets)

    # the first-entrance law H_x^+ (ladder.entrance_law_from) against f_+
    # and a(x): its mass, its mean overshoot f_+(x) - x, and its transport
    # of sigma2 a(z) - z and of a(z - y), y <= 0, from x to the entry
    # site z; each row is the worst residual over its x (and y)
    hs = {x: ladder.entrance_law_from(law, pair, x) for x in (5, 20, 50)}

    def mean(x: int, f) -> float:
        return sum(hs[x].prob(z) * f(z) for z in hs[x].sites().tolist())

    at = "x=" + ",".join(map(str, hs))
    for name, gaps in (
            (f"hitting-law mass {at}", [hs[x].mass() - 1.0 for x in hs]),
            (f"overshoot mean vs f_+(x) - x, {at}",
             [mean(x, lambda z: -z) - (pair.fp(x) - x) for x in hs]),
            (f"potential transport {at}",
             [mean(x, lambda z: sigma2 * table.a(z) - z)
              - (sigma2 * table.a(x) - x) for x in hs]),
            (f"hitting decomposition {at}, y=0,-3",
             [mean(x, lambda z: table.a(z - y))
              - (table.a(x - y) - pair.fp(x) / sigma2)
              for x in hs for y in (0, -3)])):
        _check(results, name, max(map(abs, gaps)), 1e-10)

    # Green functions against their DP sums S_K from x = 2 at y = 3, K =
    # 1024 rounded down to the period (greens[name], time_sums' of the
    # stream): G(x,y) - S_K = sum_z q^K(x,z) G(z,y) - q^K(x,y) lies in
    # [0, G(y,y) P_x[T > K]], as G(z,y) <= G(y,y) (the maximum principle);
    # each side, and the mass left, widened by the cut
    x, y = GREEN_X, GREEN_Y
    for name, fn in (
        ("point", lambda x, y: potential.green_point(table, x, y)),
        ("halfline", lambda x, y: ladder.green_halfline(pair, sigma2, x, y)),
    ):
        acc, _, cut, mass, _ = greens[name]
        gap = fn(x, y) + acc[0]             # acc[0], at -y, is -S_K
        bound = fn(y, y) * (mass + cut) + cut
        _check(results, f"green {name} tail bound x={x} y={y}",
               max(-cut - gap, gap - bound, 0.0), 1e-12,
               f"gap={gap:.3g}, bound={bound:.3g}")

    # exact hit-N solve vs the root-free G(x,N)/G(N,N), G from a_fourier
    N = 30
    for x in (5, 17):
        hit = engine.strip_exit(law, x, N).p_hit_high_before_origin
        try:
            a = {y: potential.a_fourier(law, y) for y in (x, -N, x - N, N)}
            gap, detail = hit - (a[x] + a[-N] - a[x - N]) / (a[N] + a[-N]), ""
        except QuadratureNotConverged as e:
            gap, detail = math.inf, str(e)
        _check(results, f"strip vs green ratio x={x}", gap,
               potential.QUAD_GATE, detail)


def ladder_invariants(law: StepLaw, pair: ladder.HarmonicPair,
                      results: list[InvariantResult],
                      buckets: dict[str, dp.DPResult]):
    """Checks of the ladder-height laws and of the harmonic pair built from
    them; they need no potential table.  buckets[direction] is the half-line
    run from 1 that ladder.ladder_buckets reads: of the reflected law for
    "ascending", of the law for "descending"."""
    sigma2 = float(moments(law).sigma2)
    worst = 0.0
    for side in ("plus", "minus"):
        for x in range(-law.zmin + 1, 40):
            worst = max(worst, abs(ladder.harmonicity_residual(
                law, pair, side, x)))
    _check(results, "harmonic pair harmonicity", worst, 1e-6)

    edge = max(abs(pair.fp(pair.X) / pair.X - 1.0),
               abs(pair.fm(pair.X) / pair.X - 1.0))
    _check(results, "f_pm(X)/X near 1 at table edge", edge, 0.05)

    rem_a = sum(float(pair.fm(j)) *
                float(sum(w for z, w in law.items() if z <= -j))
                for j in range(1, -law.zmin + 1)) - sigma2 / 2.0
    _check(results, "ladder-mean identity (sigma^2/2)", rem_a, 1e-8)

    # each exact height probability lies in [DP bucket, bucket + deficit];
    # a run of 0 steps enters nothing and bounds nothing
    for d in ("ascending", "descending"):
        if not len(buckets[d].entry):
            _skip(results, f"{d} ladder heights vs DP buckets",
                  "the half-line run from 1 has 0 steps")
            continue
        entered, deficit = ladder.ladder_buckets(buckets[d])
        gap = ladder.ladder_height_law(law, d).pmf - entered
        _check(results, f"{d} ladder heights vs DP buckets",
               max(0.0, -gap.min(), (gap - deficit).max()), 1e-12,
               f"deficit={deficit:.3g}")

    _check(results, "H_inf_plus normalization",
           ladder.entrance_law_inf(law, pair).mass() - 1.0, 1e-8)
    _check(results, "H_minus_inf normalization",
           ladder.entrance_law_minus_inf(law, pair).mass() - 1.0, 1e-8)


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


# h's run has an entry column at y exactly where the site rule lists y, as
# its entry_base is 1 + zmin
EXACT = {
    "point": Exact(_point, lambda r, n, y: r.prob(y), _scaled,
                   lambda law, y: (y,) if y != 0 else (), half_dot=True,
                   reads=("xis", "etas")),
    "halfline": Exact(_halfline, lambda r, n, y: r.prob(y), _scaled,
                      lambda law, y: (y,) if y >= 1 else (), half_dot=True,
                      reads=("xis", "etas")),
    "r_alpha": Exact(_r_alpha, lambda r, n, y: r[0].prob(y) - r[1].prob(y),
                     _scaled, reads=("xis", "etas", "alpha")),
    "f_x": Exact(_point, lambda r, n, y: float(r.absorbed[n - 1]), _at_zero,
                 lambda law, y: (0,), reads=("xis",)),
    "T": Exact(_halfline, lambda r, n, y: float(r.entry[n - 1].sum()),
               _at_zero, lambda law, y: range(1 + law.zmin, 1),
               reads=("xis",)),
    "h": Exact(_halfline,
               lambda r, n, y: float(r.entry[n - 1, y - r.entry_base]),
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


def convergence_report(reports: list[ComparisonReport]) -> list[SlopeSummary]:
    """Fit log(rel_err) against log(n) per scaled cell, over at least two
    distinct n.  A cell is (theorem, xi, eta, x > 0): the sign of x keeps
    apart Q+'s two cells at xi = 0, whose xi 0.0 and -0.0 compare equal."""
    out = []
    for rep in reports:
        cells: dict[tuple, list[Row]] = {}
        for r in sorted(rep.rows, key=lambda r: r.n):
            if r.rel_err > 0:
                cells.setdefault((r.theorem, r.xi, r.eta, r.x > 0),
                                 []).append(r)
        for (th, xi, eta, _), usable in sorted(cells.items()):
            if len({r.n for r in usable}) < 2:
                continue
            ln = np.log([r.n for r in usable])
            le = np.log([r.rel_err for r in usable])
            slope = float(np.polyfit(ln, le, 1)[0])
            out.append(SlopeSummary(th, xi, eta, slope,
                                    usable[-1].rel_err, slope >= 0.0))
    return out

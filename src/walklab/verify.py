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
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, dp, engine, ladder, potential
from .asymptotics import TheoremId
from .kernels import WalkKernels
from .laws import StepLaw, lattice_structure, moments

REL_ERR_FLOOR = 1e-16


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


def invariant_suite(law: StepLaw, kernels: WalkKernels | None = None,
                    n_big: int = 4096) -> list[InvariantResult]:
    results: list[InvariantResult] = []
    struct = lattice_structure(law)
    refl = law.reflected()

    # free evolution mass
    free = engine.evolve_free(law, 0, n_big)
    _check(results, f"free mass n={n_big}", free.distribution.mass() - 1.0,
           1e-12)

    # mass conservation, point and halfline modes
    for x in (1, 3):
        sl, fp = engine.absorbed_at_origin(law, x, n_big)
        _check(results, f"point mass bookkeeping x={x}",
               sl.distribution.mass() + fp.values.sum() - 1.0, 1e-10)
        _check(results, f"point kernel vanishes at 0, x={x}",
               sl.distribution.prob(0), 0.0)
        hl, tab = engine.absorbed_on_halfline(law, x, n_big)
        _check(results, f"halfline mass bookkeeping x={x}",
               hl.distribution.mass() + tab.h.sum() - 1.0, 1e-10)

    # Chapman-Kolmogorov via the dual window (q^n(z, y) = q~^n(y, z)), then
    # duality (time reversal)
    kill = {"point": engine.absorbed_at_origin,
            "halfline": engine.absorbed_on_halfline}
    mhalf, nd = n_big // 2, 256
    for mode, run in kill.items():
        a = run(law, 2, mhalf)[0].distribution
        b = run(refl, 3, mhalf)[0].distribution
        full = run(law, 2, n_big)[0].distribution
        _check(results, f"Chapman-Kolmogorov {mode} ({mhalf}+{mhalf})",
               a.dot(b) - full.prob(3), 1e-10)
    for mode, run in kill.items():
        a = run(law, 2, nd)[0].distribution
        b = run(refl, 5, nd)[0].distribution
        _check(results, f"duality {mode} n={nd}", a.prob(5) - b.prob(2), 1e-12)

    # reachability: support of p^n confined to the congruence class
    nr = 257
    d = engine.evolve_free(law, 0, nr).distribution
    bad = 0.0
    for i, w in enumerate(d.weights):
        if not struct.reachable(nr, d.offset + i):
            bad = max(bad, abs(w))
    _check(results, f"reachability n={nr}", bad, 0.0)

    # domination chain at n = 256
    x = 3
    p = engine.evolve_free(law, x, nd).distribution
    q = engine.absorbed_at_origin(law, x, nd)[0].distribution
    qh = engine.absorbed_on_halfline(law, x, nd)[0].distribution
    worst = 0.0
    for i, w in enumerate(qh.weights):
        y = qh.offset + i
        worst = max(worst, w - q.prob(y))
    for i, w in enumerate(q.weights):
        y = q.offset + i
        worst = max(worst, w - p.prob(y))
    _check(results, "domination halfline <= point <= free",
           max(worst, 0.0), 1e-14)

    # float DP calibrated against rational DP
    nex = 48
    exact = engine.absorbed_at_origin_exact(law, 2, nex)[0]
    qf = engine.absorbed_at_origin(law, 2, nex)[0].distribution
    err = max(abs(qf.prob(s) - float(v)) for s, v in exact.items())
    _check(results, f"float vs rational DP n={nex}", err, 1e-13)

    # reflection-principle oracle (symmetric unit-step walk only)
    if law.increments == (-1, 1):
        nn = 512
        p = engine.evolve_free(law, 0, nn).distribution
        worst = 0.0
        for x0, y0 in ((1, 1), (2, 4), (5, 3)):
            qv = engine.absorbed_at_origin(law, x0, nn)[0].distribution
            for i, w in enumerate(qv.weights):
                y = qv.offset + i
                if y < 1:
                    continue
                worst = max(worst, abs(w - (p.prob(y - x0) - p.prob(y + x0))))
        _check(results, "reflection principle", worst, 1e-12)
    else:
        _skip(results, "reflection principle", "law is not the unit-step walk")

    # one-sided continuity: halfline and point kernels coincide on x,y >= 1
    if law.zmin >= -1:
        q = engine.absorbed_at_origin(law, 3, nd)[0].distribution
        qh = engine.absorbed_on_halfline(law, 3, nd)[0].distribution
        worst = max(abs(q.prob(y) - qh.prob(y))
                    for y in range(1, q.offset + len(q.weights)))
        _check(results, "halfline == point for left-continuous law",
               worst, 1e-12)
    else:
        _skip(results, "halfline == point for left-continuous law",
              "law has down-jumps below -1")

    if kernels is not None:
        _kernel_invariants(law, kernels, results)
    return results


def _kernel_invariants(law: StepLaw, k: WalkKernels,
                       results: list[InvariantResult]):
    sigma2 = k.sigma2()
    table, pair = k.table, k.pair

    res = potential.harmonicity_residuals(law, table)
    _check(results, "potential kernel harmonicity", np.max(np.abs(res)), 1e-8)
    _check(results, "a(0) = 0", table.a(0), 0.0)

    ladder_invariants(law, pair, results)

    # Green functions dominate their DP partial sums, gap shrinking
    for name, fn in (
        ("point", lambda x, y: potential.green_point(table, x, y)),
        ("halfline", lambda x, y: ladder.green_halfline(pair, sigma2, x, y)),
    ):
        x, y = 2, 3
        gval = fn(x, y)
        sums = {n: _green_partial_sum(law, name, x, y, n)
                for n in (256, 1024)}
        g1, g2 = gval - sums[256], gval - sums[1024]
        ok = g1 > -1e-12 and g2 > -1e-12 and g1 >= 1.5 * g2
        _check(results, f"green {name} monotone from below",
               0.0 if ok else max(-g1, -g2, g2 - g1 / 1.5), 1e-12,
               f"gap(256)={g1:.3g}, gap(1024)={g2:.3g}")

    # strip solver vs Green-ratio identity for hitting N before 0
    N = 30
    for x in (5, 17):
        se = engine.strip_exit(law, x, N)
        ratio = potential.green_point(table, x, N) / \
            potential.green_point(table, N, N)
        _check(results, f"strip vs green ratio x={x}",
               se.p_hit_high_before_origin - ratio,
               se.undecided + 1e-8,
               f"undecided={se.undecided:.3g}")


def ladder_invariants(law: StepLaw, pair: ladder.HarmonicPair,
                      results: list[InvariantResult]):
    """Checks of the ladder-height laws and of the harmonic pair built from
    them; they need no potential table."""
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

    # each exact height probability lies in [DP bucket, bucket + deficit]
    for d in ("ascending", "descending"):
        buckets, deficit = ladder.ladder_buckets(law, d)
        gap = ladder.ladder_height_law(law, d).pmf - buckets
        _check(results, f"{d} ladder heights vs DP buckets",
               max(0.0, -gap.min(), (gap - deficit).max()), 1e-12,
               f"deficit={deficit:.3g}")

    _check(results, "H_inf_plus normalization",
           ladder.entrance_law_inf(law, pair).mass() - 1.0, 1e-8)
    _check(results, "H_minus_inf normalization",
           ladder.entrance_law_minus_inf(law, pair).mass() - 1.0, 1e-8)


def _green_partial_sum(law: StepLaw, mode: str, x: int, y: int,
                       n: int) -> float:
    """sum_{k<=n} q^k(x, y), accumulated step by step."""
    zmin, pmf = law.pmf_array()
    total = 1.0 if x == y else 0.0
    md = dp.POINT if mode == "point" else dp.HALFLINE
    for _, off, cur, _ in dp._steps(x, np.ones(1), zmin, pmf, n, md, 1.0,
                                    dp.DEFAULT_WINDOW_BUDGET):
        i = y - off
        if 0 <= i < len(cur):
            total += float(cur[i])
    return total


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
    note: str = ""


@dataclass
class ComparisonReport:
    spec: GridSpec
    law_name: str
    rows: list[Row] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    def max_rel_err(self, n: int) -> float | None:
        """Largest rel_err over the rows at n; None if n compared no rows."""
        errs = [r.rel_err for r in self.rows if r.n == n]
        return max(errs) if errs else None

    def cells(self):
        """Group rows by scaled coordinates, sorted: {(theorem,xi,eta): rows}."""
        out: dict[tuple, list[Row]] = {}
        for r in self.rows:
            out.setdefault((r.theorem, r.xi, r.eta), []).append(r)
        for v in out.values():
            v.sort(key=lambda r: r.n)
        return out


def _rel_err(exact: float, rhs_val: float) -> float:
    return abs(exact - rhs_val) / max(abs(exact), REL_ERR_FLOOR)


def compare_grid(spec: GridSpec, k: WalkKernels) -> ComparisonReport:
    report = ComparisonReport(spec=spec, law_name=k.law.name)
    sigma2 = k.sigma2()
    th = asymptotics.THEOREMS[spec.theorem]
    extras = {"alpha": spec.alpha, "ell": spec.ell}

    # Lock each scaled cell to the same effective coordinate across n: pick
    # the lattice point at the smallest n and scale it by sqrt(n/n0) whenever
    # that ratio is a perfect square.  Rounding independently at each n would
    # jitter the effective xi and break monotone error decay.
    n0 = min(spec.ns)
    scale0 = math.sqrt(sigma2 * n0)

    def coord(v: float, n: int) -> int:
        base = round(v * scale0)
        if base == 0:
            base = 1 if v >= 0 else -1
        f = math.isqrt(n // n0)
        if f * f * n0 == n:
            return base * f
        return round(v * math.sqrt(sigma2 * n))

    for n in spec.ns:
        lim = spec.a_circ * math.sqrt(sigma2 * n)
        if th.exact in ("nu", "particles"):
            nu, tail, particles = engine.nu_and_particles(
                k.law, n, ell=spec.ell)
            exact = nu if th.exact == "nu" else particles
            rv = asymptotics.rhs(spec.theorem, k, 0, 0, n, extras)
            both_zero = exact == 0.0 and abs(rv) < 1e-12
            if both_zero:
                report.skipped.append(f"{th.id.value} n={n}: exact = rhs = 0")
            report.rows.append(Row(
                th.id.value, k.law.name, n, 0, 0, exact, rv,
                0.0 if both_zero else _rel_err(exact, rv),
                note=f"tail_bound={tail:.3g}"))
            continue
        for xi in spec.xis:
            for x, y, row_xi, row_eta, exact in _cells(th.exact, spec, k, n,
                                                       xi, coord):
                th.check(x, y, n, lim)
                rv = asymptotics.rhs(spec.theorem, k, x, y, n, extras)
                # P61_ralpha emits both of its forms, as rows _p and _g
                forms = ((("_p", rv["p_form"]), ("_g", rv["g_form"]))
                         if isinstance(rv, dict) else (("", rv),))
                for suffix, v in forms:
                    _append(report, th, k, n, x, y, exact, v, row_xi,
                            row_eta, suffix)
    return report


def _cells(quantity: str, spec: GridSpec, k: WalkKernels, n: int, xi: float,
           coord):
    """(x, y, xi, eta, exact) of every cell at xi and n, with one exact
    run per start x."""
    x = max(1, coord(xi, n))
    if quantity == "Q+":
        # both signs of x: the vanishing form (x > 0) and the erf form
        for xx in (x, -x):
            exact, _ = engine.negative_mass(k.law, xx, n)
            yield xx, 0, math.copysign(xi, xx), 0.0, exact
        return
    if quantity == "r_alpha":
        dist = engine.r_alpha(k.law, spec.alpha, x, n)
    elif quantity in ("point", "f_x"):
        sl, fp = engine.absorbed_at_origin(k.law, x, n)
        dist = sl.distribution
    else:
        sl, tab = engine.absorbed_on_halfline(k.law, x, n)
        dist = sl.distribution
    if quantity == "f_x":
        yield x, 0, xi, 0.0, float(fp.values[n - 1])
    elif quantity == "T":
        yield x, 0, xi, 0.0, float(tab.t_pmf()[n - 1])
    elif quantity == "h":
        for y in spec.ys_literal or range(tab.entry_base, 1):
            yield x, y, xi, float(y), tab.h_at(n, y)
    else:
        for eta in spec.etas:
            y = coord(eta, n)
            yield x, y, xi, eta, dist.prob(y)


def _append(report: ComparisonReport, th: asymptotics.Theorem,
            k: WalkKernels, n, x, y, exact, rv, xi, eta, suffix=""):
    name = th.id.value + suffix
    if exact == 0.0 and rv == 0.0:
        report.skipped.append(f"{name} n={n} x={x} y={y}: exact = rhs = 0")
        return
    if th.lattice and not k.structure.reachable(n, y - x):
        report.skipped.append(f"{name} n={n} x={x} y={y}: unreachable cell")
        return
    report.rows.append(Row(name, k.law.name, n, x, y, float(exact),
                           float(rv), _rel_err(exact, rv), xi, eta))


@dataclass
class SlopeSummary:
    theorem: str
    xi: float
    eta: float
    slope: float
    final_rel_err: float
    flagged: bool  # non-negative slope


def convergence_report(reports: list[ComparisonReport]) -> list[SlopeSummary]:
    """Fit log(rel_err) against log(n) per scaled cell."""
    out = []
    for rep in reports:
        for (th, xi, eta), rows in sorted(rep.cells().items()):
            usable = [r for r in rows if r.rel_err > 0]
            if len(usable) < 2:
                continue
            ln = np.log([r.n for r in usable])
            le = np.log([r.rel_err for r in usable])
            slope = float(np.polyfit(ln, le, 1)[0])
            out.append(SlopeSummary(th, xi, eta, slope,
                                    usable[-1].rel_err, slope >= 0.0))
    return out

"""Acceptance gate: eleven criteria combining exact identities on the DP
engines with convergence trends against the closed-form limits.

Each test prints one PASS/FAIL line (visible with pytest -s; the assert
carries the same condition).  All tolerances are engineering calibrations.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from walklab import engine
from walklab.asymptotics import TheoremId, passage_density, rhs
from walklab.laws import moments
from walklab.ladder import entrance_law_inf
from walklab.potential import (a_fourier, a_partial_sums, expansion_check,
                               green_point, harmonicity_residuals,
                               hit_before_origin)
from walklab.verify import GridSpec, compare_grid, invariant_suite


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _decreasing(seq):
    return all(a > b for a, b in zip(seq, seq[1:]))


def test_criterion_01_exact_identity_suite(srw, l1):
    t0 = time.monotonic()
    worst = 0.0
    keep = ("mass", "Chapman", "duality", "reachability")
    for law in (srw, l1):
        for r in invariant_suite(law, kernels=None, n_big=4096):
            if r.status != "skip" and any(k in r.name for k in keep):
                worst = max(worst, r.residual)
    elapsed = time.monotonic() - t0
    _report(1, "exact identities (mass, CK, duality, reachability) "
               "< 1e-10 in < 120 s",
            worst < 1e-10 and elapsed < 120,
            f"max residual {worst:.2e}, {elapsed:.1f} s")


def test_criterion_02_unit_walk_closed_forms(srw, srw_kernels):
    k = srw_kernels
    errs = {}
    # a(x) = |x| by both methods
    errs["a_fourier"] = max(abs(a_fourier(srw, x) - abs(x))
                            for x in range(-10, 11))
    errs["a_partial"] = max(abs(a_partial_sums(srw, x)[0] - abs(x))
                            for x in range(-10, 11) if x != 0)
    # reflection principle
    n = 256
    free = engine.evolve_free(srw, 0, n)
    refl = 0.0
    for x in (1, 2, 7):
        q = engine.absorbed_at_origin(srw, x, n)
        for y in range(1, 40):
            refl = max(refl, abs(q.prob(y)
                                 - (free.prob(y - x) - free.prob(y + x))))
    errs["reflection"] = refl
    # gambler's ruin by the hit-N root solve and by Green ratio
    strip = 0.0
    for N, x in ((10, 3), (40, 11), (60, 59)):
        strip = max(strip, abs(hit_before_origin(srw, N)[x] - x / N))
        ratio = green_point(k.table, x, N) / green_point(k.table, N, N)
        strip = max(strip, abs(ratio - x / N))
    errs["strip"] = strip
    # harmonic pair and entrance law degenerate
    errs["f_pm"] = max(abs(k.pair.fp(x) - x) + abs(k.pair.fm(x) - x)
                       for x in (1, 5, 50))
    h = entrance_law_inf(srw, k.pair)
    errs["H_inf"] = abs(h.prob(0) - 1.0)
    c = k.constants
    errs["constants"] = max(abs(c.c_plus), abs(c.c_minus), abs(c.c_star),
                            abs(c.lambda3))
    ok = (errs["a_fourier"] < 1e-8 and errs["a_partial"] < 1e-8
          and errs["reflection"] < 1e-12 and errs["strip"] < 1e-10
          and errs["f_pm"] < 1e-10 and errs["H_inf"] < 1e-10
          and errs["constants"] < 1e-8)
    _report(2, "unit-walk closed forms (a=|x|, reflection, x/N, f=x, "
               "H=delta_0, constants 0)", ok,
            ", ".join(f"{k_}={v:.1e}" for k_, v in errs.items()))


def test_criterion_03_ladder_mean_identity(srw, l1, span3,
                                           srw_kernels, l1_kernels,
                                           span3_kernels):
    worst = 0.0
    for law, k in ((srw, srw_kernels), (l1, l1_kernels),
                   (span3, span3_kernels)):
        s2 = float(moments(law).sigma2)
        total = sum(k.pair.fm(j)
                    * float(sum(w for z, w in law.items() if z <= -j))
                    for j in range(1, -law.zmin + 1))
        worst = max(worst, abs(total - s2 / 2))
    _report(3, "descending-harmonic mean identity "
               "sum f_-(j) P[Y<=-j] = sigma^2/2 < 1e-8 on every law",
            worst < 1e-8, f"max residual {worst:.2e}")


def test_criterion_04_potential_cross_validation(l1, l1_kernels):
    cross = max(abs(a_partial_sums(l1, x)[0] - a_fourier(l1, x))
                for x in range(-50, 51) if x != 0)
    harm = float(np.abs(harmonicity_residuals(l1, l1_kernels.table)).max())
    rows = expansion_check(l1, l1_kernels.table, l1_kernels.constants)
    d = {int(x): abs(r) for x, r in rows}
    # the continuous (negative) side is exactly linear, so its residual sits
    # at float noise with nothing left to decrease
    shrinking = d[40] < d[10] and d[-40] < max(d[-10], 1e-12)
    ok = cross < 1e-6 and harm < 1e-8 and shrinking
    _report(4, "two-route a(x) agreement < 1e-6 (|x|<=50), harmonicity "
               "< 1e-8, expansion residual shrinking 10 -> 40",
            ok, f"cross={cross:.1e}, harm={harm:.1e}, "
                f"resid(10)={d[10]:.1e} resid(40)={d[40]:.1e}")


def test_criterion_05_c_plus_triangulation(l1, l1_kernels):
    k = l1_kernels
    rel = abs(k.c_plus_entrance - k.constants.c_plus) \
        / abs(k.constants.c_plus)
    # the transport row reads no DP; a small n_big keeps the suite short
    [transport] = [r.residual for r in invariant_suite(l1, k, n_big=256)
                   if r.name == "potential transport x=5,20,50"]
    ok = rel < 0.02 and transport < 1e-6
    _report(5, "C+ routes within 2%, transport identity < 1e-6 at "
               "x in {5,20,50}",
            ok, f"route gap {rel:.2%}, transport {transport:.1e}")


def test_criterion_06_kill_at_origin_theorem(l1_kernels):
    t0 = time.monotonic()
    rep = compare_grid(GridSpec(TheoremId.T11i, ns=(256, 1024, 4096),
                                xis=(0.2,), etas=(0.2, -0.2)), l1_kernels)
    ok = True
    details = []
    for eta in (0.2, -0.2):
        errs = [r.rel_err for n in (256, 1024, 4096) for r in rep.rows
                if r.n == n and r.eta == eta]
        ok &= _decreasing(errs)
        if eta > 0:
            ok &= errs[-1] < 0.1
        details.append(f"eta={eta}: " + "->".join(f"{e:.3f}" for e in errs))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300
    _report(6, "kill-at-origin kernel formula: errors decreasing, < 0.1 "
               "at n=4096, < 5 min",
            ok, "; ".join(details) + f"; {elapsed:.0f} s")


def test_criterion_07_halfline_theorems(l1_kernels):
    details = []
    ok = True
    for tid in (TheoremId.T13, TheoremId.C11):
        rep = compare_grid(GridSpec(tid, ns=(256, 1024, 4096)), l1_kernels)
        errs = [rep.max_rel_err(n) for n in (256, 1024, 4096)]
        ok &= _decreasing(errs) and errs[-1] < 0.1
        details.append(f"{tid.value}: " + "->".join(f"{e:.3f}"
                                                    for e in errs))
    # entrance-profile leading term at n = 4096
    rep = compare_grid(GridSpec(TheoremId.T14, ns=(4096,),
                                ys_literal=(0, -1, -2)), l1_kernels)
    worst = rep.max_rel_err(4096)
    ok &= worst < 0.15
    details.append(f"entrance profile {worst:.3f}")
    _report(7, "half-line passage formulas: errors decreasing < 0.1; "
               "entrance profile < 0.15 at n=4096", ok,
            "; ".join(details))


def test_criterion_08_crossing_count(srw, l1, l1_kernels):
    target = l1_kernels.constants.c_plus / 2
    nus = {n: engine.nu_and_particles(l1, n)[0] for n in (1024, 4096)}
    rel = {n: abs(v - target) / target for n, v in nus.items()}
    srw_zero = all(engine.nu_and_particles(srw, n)[0] == 0.0
                   for n in (256, 1024, 4096))
    ok = rel[4096] < 0.15 and rel[4096] < rel[1024] and srw_zero
    _report(8, "crossing count nu_n -> C+/2 (within 15% at 4096, "
               "improving); exactly 0 for the unit walk",
            ok, f"rel err 1024: {rel[1024]:.3f}, 4096: {rel[4096]:.3f}")


def test_criterion_09_bound_suites(l1, l1_kernels):
    # uniform bound: empirical constant of q^n(x,y) n^{3/2}/((|x|+1)|y|)
    consts = {}
    for n in (1024, 4096):
        best = 0.0
        for x in (1, 4, 15):
            dist = engine.absorbed_at_origin(l1, x, n)
            ys = dist.sites()
            vals = np.asarray(dist.weights)
            nz = ys != 0
            ratio = vals[nz] * n ** 1.5 / ((abs(x) + 1) * np.abs(ys[nz]))
            best = max(best, float(ratio.max()))
        consts[n] = best
    drift = abs(consts[4096] / consts[1024] - 1)
    # entrance-law envelope: fit the constant on small n, verify at 4096
    def max_ratio(n):
        spec = GridSpec(TheoremId.EQ14bound, ns=(n,), ys_literal=(0, -1, -2))
        rep = compare_grid(spec, l1_kernels)
        return max(r.exact / r.rhs for r in rep.rows if r.rhs > 0)
    fitted = max(max_ratio(256), max_ratio(1024))
    violated = max_ratio(4096) > fitted * (1 + 1e-9)
    ok = drift < 0.2 and not violated
    _report(9, "uniform-bound constant stable (< 20% drift); entrance "
               "envelope never violated",
            ok, f"drift {drift:.2%}, fitted C {fitted:.3f}")


def test_criterion_10_passage_density_identities():
    norm_err = 0.0
    for xi in (0.5, 1.0, 2.0):
        val, _ = quad(lambda t: passage_density(xi, t), 0, np.inf,
                      limit=200)
        norm_err = max(norm_err, abs(val - 1.0))
    conv, _ = quad(lambda t: passage_density(1, t)
                   * passage_density(2, 1 - t), 0, 1, limit=200)
    conv_err = abs(conv - passage_density(3, 1))
    ok = norm_err < 1e-8 and conv_err < 1e-8
    _report(10, "passage-density normalization and convolution "
                "identities < 1e-8",
            ok, f"norm {norm_err:.1e}, conv {conv_err:.1e}")


def test_criterion_11_partial_absorption_probe(l1_kernels):
    rep = compare_grid(GridSpec(TheoremId.P61_ralpha,
                                ns=(256, 1024, 4096), alpha=0.5,
                                etas=(-0.2,)), l1_kernels)
    ok = True
    details = []
    for form in ("P61_ralpha_p", "P61_ralpha_g"):
        errs = [r.rel_err for n in (256, 1024, 4096) for r in rep.rows
                if r.n == n and r.theorem == form]
        ok &= _decreasing(errs)
        details.append(f"{form[-1]}-form: "
                       + "->".join(f"{e:.3f}" for e in errs))
    # same-sign discrepancy between the two forms: reported, not asserted
    rep2 = compare_grid(GridSpec(TheoremId.P61_ralpha, ns=(4096,),
                                 alpha=0.5, etas=(0.2,)), l1_kernels)
    errs = {r.theorem: r.rel_err for r in rep2.rows}
    details.append("same-sign discrepancy (reported only): "
                   + ", ".join(f"{k.split('_')[-1]}-form={v:.3f}"
                               for k, v in errs.items()))
    _report(11, "partial-absorption correction: both forms converge on "
                "opposite-sign cells",
            ok, "; ".join(details))

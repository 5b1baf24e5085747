"""Potential kernel by two independent routes, Green function at the origin,
and the walk constants."""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklab import build_law, dp, engine, potential
from walklab.errors import (ConstraintViolation, OutOfWindow,
                            QuadratureNotConverged, SingularSystem)
from walklab.kernels import build_kernels
from walklab.laws import lattice_structure, moments
from walklab.potential import (CONSTANTS_TOL, _c_star_circle, _fit_tail,
                               a_fourier, a_partial_sums,
                               build_potential_table, constants,
                               expansion_check, green_point,
                               harmonicity_residuals, hit_before_origin,
                               p_fourier)
from walklab.verify import FOURIER_XS

from conftest import periodic_laws, zero_mean_laws


class TestFourierRoute:
    def test_zero_at_origin(self, l1):
        assert a_fourier(l1, 0) == 0.0

    def test_unit_walk_closed_form(self, srw):
        # a(x) = |x| for the unit-step walk (sigma^2 = 1)
        for x in (-7, -3, -1, 1, 3, 7):
            assert a_fourier(srw, x) == pytest.approx(abs(x), abs=1e-10)

    def test_one_sided_closed_form(self, l1):
        # no down-jumps requires sigma^2 a(-x) = x on the continuous side
        s2 = float(moments(l1).sigma2)
        for x in (1, 2, 5, 20):
            assert s2 * a_fourier(l1, -x) == pytest.approx(x, abs=1e-9)

    def test_skewed_law_one_step_value(self, l1):
        # harmonicity at 0 pins a(1): sum_z p(z) a(z) = 1 with
        # a(-2) = 3/2/sigma2..., solved by hand: a(1) = 5/4, a(-1) = 3/4
        assert a_fourier(l1, 1) == pytest.approx(1.25, abs=1e-9)
        assert a_fourier(l1, -1) == pytest.approx(0.75, abs=1e-9)


def _no_dp(*args, **kwargs):
    raise AssertionError("a DP ran")


def _coset_site(law, n, sd):
    """The site of p^n's coset nearest sd standard deviations from 0."""
    zmin, pmf = law.pmf_array()
    d = dp.period(pmf)
    z = round(sd * math.sqrt(float(moments(law).sigma2) * n))
    return z - (z - n * zmin) % d


class TestFreeKernelRule:
    """p_fourier, the tilted Fourier rule for p^n(z), against the free DP
    and the rational DP."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(zero_mean_laws(), periodic_laws()),
           st.integers(1, 2048), st.floats(-12.0, 12.0))
    def test_agrees_with_free_dp(self, law, n, sd):
        """Out to 12 sd the rule and run_dp agree within the rule's bound
        plus the DP's rounding (gamma of _rounding_gamma, relative to a sum
        of nonnegative products) and its cut."""
        zmin, pmf = law.pmf_array()
        res = dp.run_dp(0, np.ones(1), zmin, pmf, n)
        z = _coset_site(law, n, sd)
        v, bound = p_fourier(law, n, z)
        pz = res.prob(z)
        assert abs(v - pz) <= bound + potential._rounding_gamma(law, n) * pz \
            + res.cut

    @pytest.mark.parametrize("pairs", [
        [(-2, "1/6"), (-1, "1/6"), (0, "1/6"), (1, "1/2")],       # l1
        [(-1, "2/3"), (2, "1/3")],                                # span3
        [(z, "1/4") for z in (-3, -1, 1, 3)],                     # odd4
        [(-3, "1/5"), (0, "1/2"), (2, "3/10")],                   # tap gaps
    ])
    def test_bound_covers_rational_kernel(self, pairs, monkeypatch):
        """Every site of p^48 from the rational DP lies within the bound of
        the rule, which runs no DP, plus the rounding of the rational value
        to a float."""
        law = build_law(pairs, "law")
        n = 48
        exact = engine.evolve_free_exact(law, 0, n)
        monkeypatch.setattr(dp, "_steps", _no_dp)
        for z in range(n * law.zmin - 1, n * law.zmax + 2):
            want = float(exact.get(z, 0))
            v, bound = p_fourier(law, n, z)
            assert v >= 0.0
            assert abs(v - want) <= bound + 2.0 ** -53 * want, z

    def test_support_ends_and_off_coset(self, l1, span3, monkeypatch):
        """At the support's two ends the rule is q_0^n and q_(t-1)^n; off
        the coset and past the ends it is 0.0 with a bound of 0.0; none of
        it runs a DP."""
        monkeypatch.setattr(dp, "_steps", _no_dp)
        for n in (1, 7, 1024):
            assert p_fourier(l1, n, -2 * n)[0] == (1.0 / 6.0) ** n
            assert p_fourier(l1, n, n)[0] == 0.5 ** n
            assert p_fourier(span3, n, -n)[0] == (2.0 / 3.0) ** n
            assert p_fourier(span3, n, 2 * n)[0] == (1.0 / 3.0) ** n
            for z in (-2 * n - 1, n + 1):
                assert p_fourier(l1, n, z) == (0.0, 0.0)
            for z in (-n + 1, -n + 2, 2 * n + 3, -n - 3):
                assert p_fourier(span3, n, z) == (0.0, 0.0)
        assert p_fourier(l1, 0, 0) == (1.0, pytest.approx(0.0, abs=1e-15))
        assert p_fourier(l1, 0, 1) == (0.0, 0.0)

    @pytest.mark.parametrize("pairs", [
        [(z, "1/65") for z in range(-32, 33)],                    # u32
        [(-41, "20/61"), (20, "41/61")],                          # p61
    ], ids=["u32", "p61"])
    def test_wide_and_periodic_at_4096(self, pairs):
        """The widest law and a period-61 law at n = 4096, at 0, 3 and 9
        sd: within the summed bounds of the free DP, and within 1e-11
        relative of it."""
        law = build_law(pairs, "law")
        zmin, pmf = law.pmf_array()
        n = 4096
        res = dp.run_dp(0, np.ones(1), zmin, pmf, n)
        gamma = potential._rounding_gamma(law, n)
        for sd in (0, 3, 9):
            z = _coset_site(law, n, sd)
            v, bound = p_fourier(law, n, z)
            pz = res.prob(z)
            assert abs(v - pz) <= bound + gamma * pz + res.cut
            assert v == pytest.approx(pz, rel=1e-11)


class TestPartialSumRoute:
    def test_zero_at_origin(self, l1):
        v, b = a_partial_sums(l1, 0)
        assert v == 0.0 and b == 0.0

    def test_unit_walk(self, srw):
        for x in (1, 5, -5):
            v, bound = a_partial_sums(srw, x)
            assert v == pytest.approx(abs(x), abs=1e-8)

    def test_cross_method_agreement(self, l1):
        for x in (-30, -5, 1, 10, 30, 50):
            v, bound = a_partial_sums(l1, x)
            assert v == pytest.approx(a_fourier(l1, x), abs=1e-6)

    def test_bound_is_honest(self, l1):
        # reported remainder bound dominates the observed cross-method error
        for x in (7, 23, 41):
            v, bound = a_partial_sums(l1, x)
            assert abs(v - a_fourier(l1, x)) <= bound


@pytest.mark.parametrize("pairs", [
    [(-1, "1/2"), (1, "1/2")],                                # srw
    [(-2, "1/6"), (-1, "1/6"), (0, "1/6"), (1, "1/2")],       # l1
    [(-1, "2/3"), (2, "1/3")],                                # span3
    [(z, "1/5") for z in range(-2, 3)],                       # sym5
    [(z, "1/4") for z in (-3, -1, 1, 3)],                     # odd4
    [(-1, "5/8"), (1, "1/4"), (3, "1/8")],                    # period 2
    [(-41, "20/61"), (20, "41/61")],                          # period 61
])
def test_bound_covers_exact_a(pairs):
    """At the default K the bound, rounding included, covers the gap to
    the exact a(x): |x| for srw, else the root solve within its error.
    Without the rounding term srw's gap at x = 5 was 3.0e-13 against a
    bound of 6.0e-14.  The period-61 law groups its steps by
    G = lcm(64, 61) = 3904, so its fit reads 15 groups: a gap near 1e-10
    against a bound near 3e-4."""
    law = build_law(pairs, "law")
    table = build_potential_table(law)
    srw = law.increments == (-1, 1)
    for x in (-50, -17, -5, -1, 1, 5, 17, 50):
        v, bound = a_partial_sums(law, x)
        exact, err = (abs(x), 0.0) if srw else (table.a(x),
                                               table.error_estimate)
        assert abs(v - exact) <= bound + err


def _groups(law):
    """(G, d): the steps per group of the tail fit, lcm(dp.BLOCK_STEPS, d),
    and the period d."""
    d = lattice_structure(law).period
    return math.lcm(dp.BLOCK_STEPS, d), d


def _reference_blocks(law, X, K):
    """(acc, blocks) of _partial_sum_table by a plain loop over the first
    K steps, K rounded down to a multiple of G (_groups): every step
    convolves the whole window on the full lattice, nothing is ever cut,
    and every step adds its delta to acc and to its group of G steps."""
    G, _ = _groups(law)
    K = K // G * G
    zmin, pmf = law.pmf_array()
    acc = np.ones(2 * X + 1)
    acc[X] = 0.0
    blocks = np.zeros((K // G, 2 * X + 1))
    cur, off = np.ones(1), 0
    for k in range(1, K + 1):
        cur = np.convolve(cur, pmf)
        off += zmin
        i = np.arange(-X, X + 1) - off      # index of each site in cur
        inside = (i >= 0) & (i < len(cur))
        win = np.zeros(2 * X + 1)
        win[inside] = cur[i[inside]]
        delta = win[X] - win[::-1]
        acc += delta
        blocks[(k - 1) // G] += delta
    return acc, blocks


def _check_blocks_against_reference(law, X, K):
    """time_sums' free stream against the plain loop, which adds one
    uncut step at a time, over K rounded down to a multiple of G: acc and
    the group sums lie within twice the cut and the rounding bounds of the
    two routes, the loop's with n_k = (span + 3)k + 1 (span + 1 taps, the
    pmf and the sum), and the tail within the fit applied to the groups'
    bounds.  Returns the cut."""
    G, d = _groups(law)
    K = K // G * G
    acc, blocks, cut, _, origin = potential.time_sums(law, 0, dp.FREE, X, K)
    want_acc, want_blocks = _reference_blocks(law, X, K)
    k = G * np.arange(1, len(blocks) + 1)  # each group's last step

    def gamma(k):                           # both routes' gamma_(3 n_k)
        plain = (law.zmax - law.zmin + 3) * k + 1
        return (potential._rounding_gamma(law, k)
                + potential._gamma(3 * plain))

    err = gamma(K) * (2.0 * origin.sum() + 1.0 - acc) + 2.0 * cut
    assert (np.abs(acc - want_acc) <= err).all()
    block_err = gamma(k)[:, None] * (2.0 * origin[:, None] - blocks) \
        + 2.0 * cut
    assert (np.abs(blocks - want_blocks) <= block_err).all()
    tail, _, weights = _fit_tail(blocks, G, d)
    want_tail = _fit_tail(want_blocks, G, d)[0]
    assert (np.abs(tail - want_tail) <= np.abs(weights) @ block_err).all()
    return cut


@pytest.mark.parametrize("pairs", [
    [(-1, "1/2"), (1, "1/2")],                                # srw
    [(-2, "1/6"), (-1, "1/6"), (0, "1/6"), (1, "1/2")],       # l1
    [(-1, "2/3"), (2, "1/3")],                                # span3
    [(z, "1/5") for z in range(-2, 3)],                       # sym5
    [(-1, "6/103"), (0, "91/103"), (1, "6/103")],             # lazy walk
    [(z, "1/4") for z in (-3, -1, 1, 3)],                     # odd4
    [(-1, "5/8"), (1, "1/4"), (3, "1/8")],                    # period 2
])
def test_trimmed_table_is_bit_identical(pairs, monkeypatch):
    """The cut block stream against the plain loop, within the rounding
    bounds (the name dates from when the two agreed bit for bit)."""
    law = build_law(pairs, "law")
    X, K = 55, 2 ** 12
    widths = []
    stream = dp._steps

    def watched(*args, **kwargs):
        for item in stream(*args, **kwargs):
            widths.append(len(item[2]))
            yield item

    monkeypatch.setattr(dp, "_steps", watched)
    cut = _check_blocks_against_reference(law, X, K)
    # the bound adds twice the cut mass summed over the steps: 0 < it < 1e-50
    assert 0.0 < cut < 1e-50
    # the underflowed edges were cut: the untrimmed window ends at
    # K * span + 1 sites, the cut one at 21-57% of that for these laws
    assert max(widths) < 0.6 * (K * (law.zmax - law.zmin) + 1)


@settings(max_examples=20, deadline=None)
@given(zero_mean_laws())
def test_block_stream_for_any_law(law):
    """The block stream against the plain loop, periodic laws included, in
    blocks of 8 steps: G = lcm(8, d) is at most 56 for these laws (d <= 8),
    and K = max(2^9, 11 G) holds the 11 groups the fit needs."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dp, "BLOCK_STEPS", 8)
        _check_blocks_against_reference(law, 20, max(2 ** 9,
                                                     11 * _groups(law)[0]))


@pytest.mark.parametrize("pairs", [
    [(-1, "1/2"), (1, "1/2")],                                # srw
    [(-2, "1/6"), (-1, "1/6"), (0, "1/6"), (1, "1/2")],       # l1
    [(-1, "2/3"), (2, "1/3")],                                # span3
    [(z, "1/4") for z in (-3, -1, 1, 3)],                     # odd4
    [(-1, "5/8"), (1, "1/4"), (3, "1/8")],                    # period 2
])
def test_block_stream_is_exact(pairs, monkeypatch):
    """With blocks of 8 steps, 60 steps are seven blocks and a partial
    one of 4, in groups of G = lcm(8, d) steps, the last one short; acc,
    the group sums and origin match the rational DP's sums within their
    rounding bounds, and nothing is cut."""
    monkeypatch.setattr(dp, "BLOCK_STEPS", 8)
    law = build_law(pairs, "law")
    X, K = 12, 60
    acc, blocks, cut, mass, origin = potential.time_sums(law, 0, dp.FREE,
                                                         X, K)
    G, _ = _groups(law)
    w = [engine.evolve_free_exact(law, 0, k) for k in range(1, K + 1)]
    terms = [[p.get(0, 0) - p.get(-x, 0) for x in range(-X, X + 1)]
             for p in w]
    want = [float(1 - (x == 0) + sum(t[x + X] for t in terms))
            for x in range(-X, X + 1)]
    gamma = potential._rounding_gamma(law, K)
    assert cut == 0.0 and mass == pytest.approx(1.0, abs=1e-13)
    assert (np.abs(acc - want) <= gamma * (2.0 * origin.sum() + 1.0 - acc)
            ).all()
    groups = range(0, K, G)
    assert len(blocks) == len(origin) == len(groups)
    want_origin = [float(sum(p.get(0, 0) for p in w[g:g + G]))
                   for g in groups]
    assert np.abs(origin - want_origin).max() <= gamma * origin.sum()
    want_blocks = [[float(sum(t[i] for t in terms[g:g + G]))
                    for i in range(2 * X + 1)] for g in groups]
    assert (np.abs(blocks - want_blocks)
            <= gamma * (2.0 * origin[:, None] - blocks)).all()


@pytest.mark.parametrize("mode", [dp.FREE, dp.POINT, dp.HALFLINE])
def test_time_sums_cut_counts_every_step(l1, mode):
    """time_sums' cut sums one bound per step: a block's steps before its
    last read the window of its start, within the cut before the block,
    and its last step the cut window, within the block's own."""
    zmin, pmf = l1.pmf_array()
    start, K = (0 if mode == dp.FREE else 2), 1000
    want, k0, before = 0.0, 0, 0.0
    for k, _, _, _, cut, _ in dp._steps(start, np.ones(1), zmin, pmf, K,
                                        mode, 1.0):
        want += (k - k0 - 1) * before + cut
        k0, before = k, cut
    got = potential.time_sums(l1, start, mode, 3, K)[2]
    assert k0 == K and 0.0 < before < 1e-50
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _lstsq_tail(blocks, G, d):
    """The tail fit by SVD least squares, one solve per exponent set, on
    the groups g0 < g <= N, g0 = N // 16, each design row the sum of its
    G/d units' rows, added as _fit_tail adds them: at K = 2^12 the lazy
    walk's fit moves by 1e-8 relative when they are added in another
    order."""
    exps = potential.PS_EXPONENTS
    N, U = len(blocks), G // d
    g0, M = N // 16, N * U
    t = np.arange(g0 * U + 1, M + 1) / M
    design = np.stack([(t ** -e).reshape(-1, U).sum(axis=1) for e in exps],
                      axis=1)
    norms = np.linalg.norm(design, axis=0)
    scale = np.array([M ** e * float(mpmath.zeta(e, M + 1)) for e in exps])

    def solve(j):
        coef, *_ = np.linalg.lstsq(design[:, :j] / norms[:j], blocks[g0:],
                                   rcond=None)
        return scale[:j] @ (coef / norms[:j, None]), coef / norms[:j, None]

    tail, coef = solve(len(exps))
    tail_r, _ = solve(len(exps) - 2)
    return tail, (np.abs(tail - tail_r)
                  + np.abs(blocks[g0:] - design @ coef).sum(axis=0))


@pytest.mark.parametrize("pairs", [
    [(-1, "1/2"), (1, "1/2")],                                # srw
    [(-2, "1/6"), (-1, "1/6"), (0, "1/6"), (1, "1/2")],       # l1
    [(-1, "6/103"), (0, "91/103"), (1, "6/103")],             # lazy walk
])
def test_tail_fit_matches_lstsq(pairs):
    # the QR fit solves the same least-squares problems as an SVD, on the
    # 60 groups of 64 steps that follow the first 4
    law = build_law(pairs, "law")
    G, d = _groups(law)
    blocks = _reference_blocks(law, 55, 2 ** 12)[1]
    tail, bound, weights = _fit_tail(blocks, G, d)
    want_tail, want_bound = _lstsq_tail(blocks, G, d)
    tol = 1e-10 * np.maximum(1.0, np.abs(want_tail))
    assert (np.abs(tail - want_tail) <= tol).all()
    assert (np.abs(bound - want_bound) <= tol).all()
    # the fit is linear in the groups, and reads none before its window
    assert (np.abs(weights @ blocks - tail) <= tol).all()
    assert not weights[:len(blocks) // 16].any()


def test_tail_fit_needs_a_block_per_exponent(srw):
    # the fit needs a group of G = 64 steps per exponent: srw at K = 640
    # has 10 groups for 11 exponents, an underdetermined fit (an earlier
    # fit on 2-step blocks, 8 of them at K = 16, bounded its error at
    # x = 5 by 1e-3 where it was 8.5e-3), and K = 24 has none
    for K in (24, 640):
        with pytest.raises(ConstraintViolation, match="K >= 704"):
            a_partial_sums(srw, 5, K=K)
    v, bound = a_partial_sums(srw, 5, K=704)     # 11 groups
    assert abs(v - 5) <= bound


def test_table_holds_no_array_per_step():
    """The table keeps one row per group of 64 steps, 1024 of them for the
    lazy walk at K = 2^16, not one per step: its peak allocation stays
    below 8 MB (74 MB when every period's row was kept)."""
    law = build_law([(-1, "6/103"), (0, "91/103"), (1, "6/103")], "lazy")
    tracemalloc.start()
    try:
        potential._partial_sum_table.__wrapped__(law, 55, 2 ** 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


class TestPotentialTable:
    def test_positive_off_origin(self, l1_kernels):
        t = l1_kernels.table
        vals = np.delete(t.a_values, t.X)
        assert (vals > 0).all()
        assert t.a(0) == 0.0
        assert t.a_star(0) == 1.0

    def test_harmonicity(self, l1, l1_kernels):
        res = harmonicity_residuals(l1, l1_kernels.table)
        assert np.abs(res).max() < 1e-8

    def test_linear_growth_at_edges(self, l1, l1_kernels):
        t = l1_kernels.table
        s2 = float(moments(l1).sigma2)
        dev_mid = abs(s2 * t.a(40) / 40 - 1)
        dev_edge = abs(s2 * t.a(t.X) / t.X - 1)
        assert dev_edge < dev_mid

    def test_out_of_window(self, l1_kernels):
        with pytest.raises(OutOfWindow):
            l1_kernels.table.a(l1_kernels.table.X + 1)


class TestGreenPoint:
    def test_unit_walk_visit_count(self, srw_kernels):
        # expected visits to 1 from 1 before hitting 0 is exactly 2
        assert green_point(srw_kernels.table, 1, 1) == pytest.approx(
            2.0, abs=1e-9)

    def test_unit_walk_blocked_crossing(self, srw_kernels):
        # x and -x are separated by the absorbing origin
        assert green_point(srw_kernels.table, 2, -2) == pytest.approx(
            0.0, abs=1e-9)

    def test_nonnegative(self, l1_kernels):
        for x in (-3, 1, 4):
            for y in (-2, 1, 5):
                assert green_point(l1_kernels.table, x, y) >= -1e-10

    def test_duality(self, l1_kernels, l1, span3):
        # g(x,y) under p equals g(y,x) under the reflected law
        refl = build_potential_table(l1.reflected(), X=20)
        for x, y in ((1, 3), (2, -4), (-5, 2)):
            assert green_point(l1_kernels.table, x, y) == pytest.approx(
                green_point(refl, y, x), abs=1e-8)


class TestConstants:
    def test_unit_walk_all_zero(self, srw_kernels):
        c = srw_kernels.constants
        assert c.lambda3 == 0.0
        assert abs(c.c_star) < 1e-8
        assert abs(c.c_plus) < 1e-8
        assert abs(c.c_minus) < 1e-8

    def test_skewed_law_values(self, l1_kernels):
        # hand-derived from sigma^2 a(x) - |x| -> C* -+ lambda3:
        # continuous side gives C* + lambda3 = 0, so C* = 1/4, C+ = 1/2
        c = l1_kernels.constants
        assert c.lambda3 == pytest.approx(-0.25, abs=1e-15)
        assert c.c_star == pytest.approx(0.25, abs=1e-6)
        assert c.c_plus == pytest.approx(0.5, abs=1e-6)
        assert c.c_minus == pytest.approx(0.0, abs=1e-6)

    def test_one_sided_vanishing(self, span3_kernels):
        # no up-jumps above... span3 has unit down-steps: C+ = 0
        c = span3_kernels.constants
        assert abs(c.c_plus) < 1e-8
        assert c.c_minus == pytest.approx(2 / 3, abs=1e-6)

    def test_cross_check_relation(self, l1_kernels):
        c = l1_kernels.constants
        assert c.c_plus == pytest.approx(c.c_star - c.lambda3, abs=1e-6)
        assert c.c_minus == pytest.approx(c.c_star + c.lambda3, abs=1e-6)

    def test_entrance_route_agrees(self, l1_kernels):
        assert l1_kernels.c_plus_entrance == pytest.approx(
            l1_kernels.constants.c_plus, abs=1e-6)
        assert l1_kernels.c_minus_entrance == pytest.approx(
            0.0, abs=1e-10)


class TestExpansion:
    def test_residual_decays(self, l1, l1_kernels):
        rows = expansion_check(l1, l1_kernels.table, l1_kernels.constants)
        d = {int(x): abs(r) for x, r in rows}
        assert d[40] < d[10]
        assert d[40] < 1e-8

    def test_determinism(self, l1, l1_kernels):
        a = expansion_check(l1, l1_kernels.table, l1_kernels.constants)
        b = expansion_check(l1, l1_kernels.table, l1_kernels.constants)
        assert (a == b).all()


def test_fourier_vs_table(l1, l1_kernels):
    # the table comes from the root solve; the Fourier route is independent
    for x in (-11, 4, 37):
        assert l1_kernels.table.a(x) == pytest.approx(
            a_fourier(l1, x), abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(zero_mean_laws(span=12))
def test_root_solve_for_any_law(law):
    """The root-solve table matches the Fourier route, is harmonic off 0
    with the unit source at 0, and its C+- match the entrance routes."""
    k = build_kernels(law)
    for x in FOURIER_XS:
        assert k.table.a(x) == pytest.approx(a_fourier(law, x), abs=1e-10)
    assert np.abs(harmonicity_residuals(law, k.table)).max() <= 1e-12
    assert k.constants.c_plus == pytest.approx(k.c_plus_entrance, rel=1e-9,
                                               abs=1e-12)
    assert k.constants.c_minus == pytest.approx(k.c_minus_entrance,
                                                rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(zero_mean_laws(span=12))
def test_hit_before_origin_is_green_ratio(law):
    """The exact hit-N solve is G(x,N)/G(N,N) with G(x,y) = a(x) + a(-y)
    - a(x-y), a taken from the root-free Fourier route."""
    N = 30
    h = hit_before_origin(law, N)
    assert h[0] == pytest.approx(0.0, abs=1e-12)
    assert h[N] == pytest.approx(1.0, abs=1e-12)
    for x in (5, 17):
        a = {y: a_fourier(law, y) for y in (x, -N, x - N, N)}
        assert h[x] == pytest.approx(
            (a[x] + a[-N] - a[x - N]) / (a[N] + a[-N]), abs=1e-10)


WIDE61 = [(-41, "20/61"), (20, "41/61")]


def test_quadrature_gate_is_quiet(capfd):
    # a sparse wide law, period 61, on which adaptive quadrature of the
    # oscillatory integrand failed at |x| >= 25: the circle rule needs
    # 8192 nodes and matches the root solve
    law = build_law(WIDE61, "wide61")
    t = build_potential_table(law)
    for x in FOURIER_XS + (25, -25):
        assert a_fourier(law, x) == pytest.approx(t.a(x), abs=1e-10)
    assert capfd.readouterr().err == ""


def test_rule_past_its_node_cap_is_typed(capfd, monkeypatch):
    law = build_law(WIDE61, "wide61")
    monkeypatch.setattr(potential, "RULE_MAX_NODES", 4096)
    with pytest.raises(QuadratureNotConverged, match="4096 nodes"):
        a_fourier(law, 50)
    assert capfd.readouterr().err == ""


@settings(max_examples=10, deadline=None)
@given(zero_mean_laws(span=64, min_span=40, max_parts=2))
def test_circle_rule_on_sparse_wide_laws(law):
    """2-5 atoms, span 40-64: the root-free routes to a(x) and C* match the
    root solve."""
    t = build_potential_table(law)
    for x in FOURIER_XS:
        assert a_fourier(law, x) == pytest.approx(t.a(x), abs=1e-10)
    c_star = (t.c_plus + t.c_minus) / 2.0
    assert abs(_c_star_circle(law) - c_star) <= CONSTANTS_TOL


def test_widest_law_constants():
    # uniform on {-32..32}: symmetric, so lambda3 = 0 and C+ = C- = C*,
    # which the circle rule gives as 337.667621366924...
    law = build_law([(z, "1/65") for z in range(-32, 33)], "u32")
    t = build_potential_table(law)
    c = constants(law, t)
    want = _c_star_circle(law)
    assert want == pytest.approx(337.667621366924, rel=1e-12)
    assert c.lambda3 == 0.0
    for v in (c.c_plus, c.c_minus, c.c_star):
        assert v == pytest.approx(want, rel=1e-12)


def test_table_errors_are_computed(l1_kernels, span3_kernels):
    for k in (l1_kernels, span3_kernels):
        assert 0.0 <= k.table.error_estimate < 1e-13
        assert k.constants.errors["c_plus"] > 0.0
        assert k.table.method == "Wiener-Hopf root solve"


def test_singular_solve_is_typed(l1, monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularSystem, match="root solve"):
        build_potential_table(l1)

"""Ladder height laws, the harmonic pair (f_+, f_-), half-line Green
function, and entrance laws with their exact identities."""
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from walklab import build_law, engine, laws, verify
from walklab.errors import FactorizationFailed
from walklab.kernels import build_kernels
from walklab.ladder import (c_entrance_route, entrance_law_from,
                            entrance_law_inf, entrance_law_minus_inf,
                            green_halfline, harmonicity_residual,
                            ladder_height_law)
from walklab.laws import moments

from conftest import zero_mean_laws

SYM5_PAIRS = [(z, "1/5") for z in range(-2, 3)]


class TestLadderHeights:
    def test_unit_walk_both_trivial(self, srw):
        for d in ("ascending", "descending"):
            lad = ladder_height_law(srw, d)
            assert lad.exact
            assert lad.pmf[0] == pytest.approx(1.0, abs=1e-15)
            assert lad.mean == pytest.approx(1.0, abs=1e-15)

    def test_skewed_ascending_unit(self, l1):
        # up-jumps are unit, so the ascending ladder height is 1
        lad = ladder_height_law(l1, "ascending")
        assert lad.exact
        assert lad.pmf[0] == pytest.approx(1.0, abs=1e-15)

    def test_skewed_descending_exact(self, l1):
        # support {1, 2} with mean sigma^2/(2 P[Y >= 1]) = 4/3
        lad = ladder_height_law(l1, "descending")
        assert lad.exact
        assert lad.mean == pytest.approx(4 / 3, abs=1e-13)
        assert lad.pmf[0] == pytest.approx(2 / 3, abs=1e-13)
        assert lad.pmf[1] == pytest.approx(1 / 3, abs=1e-13)

    def test_mean_identity_wide_law(self, span3):
        # descending side has unit steps, so the ascending mean is exact:
        # E[H+] = sigma^2 / (2 P[Y <= -1]) = 2/(2*(2/3)) = 3/2
        lad = ladder_height_law(span3, "ascending")
        assert lad.mean == pytest.approx(1.5, abs=1e-13)

    def test_pmf_normalized(self, l1, span3):
        for law in (l1, span3):
            for d in ("ascending", "descending"):
                lad = ladder_height_law(law, d)
                assert lad.pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_five_point_golden_ratio(self):
        # s^2 (1 - phi(s)) / (s - 1)^2 = -(s^2 + 3s + 1)/5, whose root
        # outside the disc is -(3 + sqrt 5)/2
        law = build_law(SYM5_PAIRS, "sym5")
        want = [(math.sqrt(5) - 1) / 2, (3 - math.sqrt(5)) / 2]
        for d in ("ascending", "descending"):
            lad = ladder_height_law(law, d)
            assert lad.pmf == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("patch, message", [
        (lambda mp_: mp_.setattr(laws, "NEWTON_STEPS", 0),
         "did not converge"),
        (lambda mp_: mp_.setattr(laws.np, "roots",
                                 lambda c: np.array([-2.6, -2.6])),
         "not distinct"),
        (lambda mp_: (mp_.setattr(laws.np, "roots",
                                  lambda c: np.array([-2.0, -3.0])),
                      mp_.setattr(laws, "_newton", lambda c, r, e: r)),
         "2 roots outside the unit disc, expected 1"),
    ])
    def test_unresolved_roots_are_typed_errors(self, monkeypatch, patch,
                                               message):
        law = build_law(SYM5_PAIRS, f"sym5-{message}")   # a fresh cache key
        patch(monkeypatch)
        with pytest.raises(FactorizationFailed, match=message):
            ladder_height_law(law, "ascending")


LADDER_ROWS = ("pair.harmonicity", "pair.edge", "ladder.mean",
               "ladder.ascending", "ladder.descending", "entrance.inf-plus",
               "entrance.minus-inf")


@settings(max_examples=15, deadline=None)
@given(zero_mean_laws(span=12))
def test_ladder_invariants_for_any_law(law):
    """The ladder laws and the harmonic pair pass the invariant suite's
    rows, at its tolerances, for random laws of span up to 12, with the
    ladder buckets from the suite's 2048-step half-line runs at its default
    n_big: the suite runs with its table cut to those rows."""
    rows = tuple(r for r in verify.INVARIANTS if r.id in LADDER_ROWS)
    with mock.patch.object(verify, "INVARIANTS", rows):
        results = verify.invariant_suite(law, build_kernels(law))
    assert [r.id for r in results] == list(LADDER_ROWS)
    assert [r for r in results if r.status != "pass"] == []


def test_harmonicity_row_checks_wide_laws():
    """On p61 (zmin = -41) the harmonic pair row reads the 39 sites 42..80:
    a pair perturbed past x = 41 fails it, which a row reading the sites
    below 40 alone passed with no site checked."""
    law = build_law([(-41, "20/61"), (20, "41/61")], "p61")
    k = build_kernels(law)
    f_plus = k.pair.f_plus.copy()
    f_plus[41:] *= 1.0 + 1e-6
    bad = dataclasses.replace(k, pair=dataclasses.replace(k.pair,
                                                         f_plus=f_plus))
    rows = tuple(r for r in verify.INVARIANTS if r.id == "pair.harmonicity")
    with mock.patch.object(verify, "INVARIANTS", rows):
        [good] = verify.invariant_suite(law, k, n_big=64)
        [row] = verify.invariant_suite(law, bad, n_big=64)
    assert row.status == "fail", row
    assert good.status == "pass" and 0.0 < good.residual < 1e-12


class TestHarmonicPair:
    def test_unit_walk_identity_functions(self, srw_kernels):
        pair = srw_kernels.pair
        for x in (1, 2, 17, 100):
            assert pair.fp(x) == pytest.approx(x, abs=1e-12)
            assert pair.fm(x) == pytest.approx(x, abs=1e-12)

    def test_skewed_small_values(self, l1_kernels):
        # renewal recursion by hand for the descending ladder {1: 2/3, 2: 1/3}
        pair = l1_kernels.pair
        assert pair.fp(1) == pytest.approx(4 / 3, abs=1e-12)
        assert pair.fp(2) == pytest.approx(20 / 9, abs=1e-12)
        # ascending ladder is unit, so f_- is the identity
        assert pair.fm(1) == pytest.approx(1.0, abs=1e-12)
        assert pair.fm(7) == pytest.approx(7.0, abs=1e-12)

    def test_harmonic_on_halfline(self, l1, l1_kernels):
        for x in (1, 3, 50):
            assert abs(harmonicity_residual(
                l1, l1_kernels.pair, "plus", x)) < 1e-10
            assert abs(harmonicity_residual(
                l1, l1_kernels.pair, "minus", x)) < 1e-10

    def test_asymptotic_slope_one(self, l1_kernels):
        pair = l1_kernels.pair
        X = pair.X
        assert pair.fp(X) / X == pytest.approx(1.0, abs=0.01)
        assert pair.fm(X) / X == pytest.approx(1.0, abs=0.01)


class TestGreenHalfline:
    def test_unit_walk_value(self, srw, srw_kernels):
        s2 = float(moments(srw).sigma2)
        assert green_halfline(srw_kernels.pair, s2, 1, 1) == pytest.approx(
            2.0, abs=1e-10)

    def test_matches_dp_visit_counts(self, l1, l1_kernels):
        # sum over k of the half-line kernel = Green function; the partial
        # sum has a c/sqrt(n) tail, removed by one Richardson step
        from walklab import dp
        s2 = float(moments(l1).sigma2)
        x, y = 2, 3
        zmin, pmf = l1.pmf_array()

        def partial(n):
            cur_off, cur = x, np.ones(1)
            total = 1.0 if x == y else 0.0
            for _ in range(n):
                res = dp.run_dp(cur_off, cur, zmin, pmf, 1, mode=dp.HALFLINE)
                cur_off, cur = res.offset, res.weights
                i = y - cur_off
                if 0 <= i < len(cur):
                    total += cur[i]
            return total

        t1, t4 = partial(512), partial(2048)
        g = green_halfline(l1_kernels.pair, s2, x, y)
        assert t1 < t4 < g                       # monotone from below
        assert 2 * t4 - t1 == pytest.approx(g, abs=0.02)


class TestEntranceLaws:
    def test_from_infinity_oracle(self, l1, l1_kernels):
        h = entrance_law_inf(l1, l1_kernels.pair)
        assert h.prob(0) == pytest.approx(0.75, abs=1e-12)
        assert h.prob(-1) == pytest.approx(0.25, abs=1e-12)
        assert h.mass() == pytest.approx(1.0, abs=1e-12)

    def test_unit_walk_hits_origin_exactly(self, srw, srw_kernels):
        h = entrance_law_inf(srw, srw_kernels.pair)
        assert h.prob(0) == pytest.approx(1.0, abs=1e-12)

    def test_minus_infinity_mirror(self, l1, l1_kernels):
        h = entrance_law_minus_inf(l1, l1_kernels.pair)
        assert h.mass() == pytest.approx(1.0, abs=1e-10)
        # right-continuous law enters [0, inf) only at 0 from below
        assert h.prob(0) == pytest.approx(1.0, abs=1e-10)

    def test_finite_start_matches_dp(self, l1, l1_kernels):
        from walklab import engine
        x, n = 4, 4096
        h = entrance_law_from(l1, l1_kernels.pair, x)
        qh = engine.absorbed_on_halfline(l1, x, n)
        base, cols = qh.entry_base, qh.absorbed.sum(axis=0)
        h_lim = entrance_law_inf(l1, l1_kernels.pair)
        # mass still alive at n enters later with the limiting profile
        for y in range(base, 1):
            est = cols[y - base] + qh.mass() * h_lim.prob(y)
            assert h.prob(y) == pytest.approx(est, abs=2e-3)

    def test_identities(self, l1, l1_kernels):
        """The suite's rows tie H_x^+ to f_+ and a(x) at x = 5, 20, 50, and
        H_inf^+ has mass 1; the edge of f_+ is centred on the mean
        overshoot of H_inf^+."""
        rows = {r.name: r for r in verify.invariant_suite(
            l1, l1_kernels, n_big=256)}
        for name in ("H_inf_plus normalization",
                     "hitting-law mass x=5,20,50",
                     "overshoot mean vs f_+(x) - x, x=5,20,50",
                     "potential transport x=5,20,50",
                     "hitting decomposition x=5,20,50, y=0,-3"):
            assert rows[name].status == "pass", rows[name]
            assert rows[name].residual < 1e-10, rows[name]
        pair = l1_kernels.pair
        h_inf = entrance_law_inf(l1, pair)
        limit = sum(h_inf.prob(z) * (-z) for z in h_inf.sites())
        assert abs(pair.fp(pair.X) - pair.X - limit) < 1e-10

    def test_entrance_constant_routes(self, l1, l1_kernels):
        s2 = float(moments(l1).sigma2)
        cp = c_entrance_route(entrance_law_inf(l1, l1_kernels.pair),
                              l1_kernels.table, s2)
        cm = c_entrance_route(entrance_law_minus_inf(l1, l1_kernels.pair),
                              l1_kernels.table, s2)
        assert cp == pytest.approx(0.5, abs=1e-8)
        assert cm == pytest.approx(0.0, abs=1e-10)

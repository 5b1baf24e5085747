"""Exact transition kernels: free evolution, kill-at-origin, kill-on-halfline,
partial absorption, strip exits, and the rational calibration mode."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklab import dp, engine
from walklab.errors import TailNotNegligible, WindowOverflow

from conftest import zero_mean_laws


def _binom_pmf(n, k):
    return math.comb(n, k) / 2 ** n


class TestFree:
    def test_unit_walk_binomial(self, srw):
        n = 12
        sl = engine.evolve_free(srw, 0, n)
        for j in range(n + 1):
            assert sl.distribution.prob(2 * j - n) == pytest.approx(
                _binom_pmf(n, j), abs=1e-15)

    def test_mass_conserved(self, l1):
        sl = engine.evolve_free(l1, 3, 500)
        assert sl.distribution.mass() == pytest.approx(1.0, abs=1e-12)

    def test_window_budget(self, srw):
        zmin, pmf = srw.pmf_array()
        with pytest.raises(WindowOverflow):
            dp.run_dp(0, np.ones(1), zmin, pmf, 100, mode=dp.FREE,
                      window_budget=50)


class TestKillAtOrigin:
    def test_two_step_oracle(self, srw):
        # q^2(1,1) = p(1,2)p(2,1): the only surviving path is 1->2->1
        sl, fp = engine.absorbed_at_origin(srw, 1, 2)
        assert sl.distribution.prob(1) == pytest.approx(0.25, abs=1e-16)
        assert fp.values[0] == pytest.approx(0.5, abs=1e-16)

    def test_kernel_vanishes_at_origin(self, l1):
        sl, _ = engine.absorbed_at_origin(l1, 4, 100)
        assert sl.distribution.prob(0) == 0.0

    def test_mass_bookkeeping(self, l1):
        n = 300
        sl, fp = engine.absorbed_at_origin(l1, 2, n)
        total = sl.distribution.mass() + fp.values.sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_start_at_origin_not_absorbed(self, l1):
        # q^0 is the identity: the walk only dies on a later *arrival* at 0
        sl, fp = engine.absorbed_at_origin(l1, 0, 1)
        assert sl.distribution.mass() == pytest.approx(
            1 - float(l1.prob(0)), abs=1e-15)

    def test_duality(self, l1):
        # q^n(x,y) under p equals q^n(y,x) under the reflected law
        n, x, y = 64, 3, 5
        a = engine.absorbed_at_origin(l1, x, n)[0].distribution.prob(y)
        b = engine.absorbed_at_origin(
            l1.reflected(), y, n)[0].distribution.prob(x)
        assert a == pytest.approx(b, abs=1e-14)


class TestKillOnHalfline:
    def test_one_step_entry_profile(self, l1):
        # from x=1: P[T=1, S_T=-1] = p(-2), P[T=1, S_T=0] = p(-1)
        _, tab = engine.absorbed_on_halfline(l1, 1, 1)
        assert tab.h_at(1, -1) == pytest.approx(1 / 6, abs=1e-16)
        assert tab.h_at(1, 0) == pytest.approx(1 / 6, abs=1e-16)
        assert tab.h_at(1, -2) == 0.0

    def test_no_overshoot_for_unit_down_steps(self, srw):
        _, tab = engine.absorbed_on_halfline(srw, 1, 50)
        base, cols = tab.partial_entrance()
        for y in range(base, 0):
            assert abs(cols[y - base]) == 0.0

    def test_t_pmf_matches_surviving_mass(self, l1):
        n = 200
        sl, tab = engine.absorbed_on_halfline(l1, 3, n)
        assert tab.t_pmf().sum() == pytest.approx(
            1.0 - sl.distribution.mass(), abs=1e-12)
        assert tab.deficit == pytest.approx(
            sl.distribution.mass(), abs=1e-12)

    def test_dominated_by_point_kernel(self, l1):
        n, x = 128, 4
        half = engine.absorbed_on_halfline(l1, x, n)[0].distribution
        point = engine.absorbed_at_origin(l1, x, n)[0].distribution
        free = engine.evolve_free(l1, x, n).distribution
        for y in range(1, 40):
            q_half, q_pt, p = half.prob(y), point.prob(y), free.prob(y)
            assert 0.0 <= q_half <= q_pt + 1e-15 <= p + 1e-14


class TestPartialAbsorption:
    def test_alpha_one_is_kill_at_origin(self, l1):
        n, x = 64, 2
        a = engine.partial_absorption(l1, 1.0, x, n).distribution
        b = engine.absorbed_at_origin(l1, x, n)[0].distribution
        for y in range(-20, 21):
            assert a.prob(y) == pytest.approx(b.prob(y), abs=1e-15)

    def test_alpha_zero_is_free(self, l1):
        n, x = 64, 2
        a = engine.partial_absorption(l1, 0.0, x, n).distribution
        b = engine.evolve_free(l1, x, n).distribution
        for y in range(-20, 21):
            assert a.prob(y) == pytest.approx(b.prob(y), abs=1e-15)

    def test_monotone_in_alpha(self, l1):
        n, x = 48, 1
        dists = [engine.partial_absorption(l1, al, x, n).distribution
                 for al in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for y in range(-15, 16):
            vals = [d.prob(y) for d in dists]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_r_alpha_nonnegative(self, l1):
        r = engine.r_alpha(l1, 0.5, 3, 64)
        assert (np.asarray(r.weights) >= -1e-18).all()


class TestNegativeMass:
    def test_left_continuous_never_crosses(self, srw):
        q, _ = engine.negative_mass(srw, 5, 200)
        assert q == 0.0

    def test_one_step_oracle(self, l1):
        q, cum = engine.negative_mass(l1, 1, 1)
        assert q == pytest.approx(1 / 6, abs=1e-16)
        assert cum[1] == pytest.approx(1 / 6, abs=1e-16)
        assert cum[0] == 0.0

    def test_bounded_by_one(self, l1):
        q, _ = engine.negative_mass(l1, 2, 512)
        assert 0.0 <= q <= 1.0


class TestNuAndParticles:
    def test_left_continuous_nu_vanishes(self, srw):
        nu, tail, particles = engine.nu_and_particles(srw, 256)
        assert nu == 0.0
        assert particles == 0.0

    def test_tail_bound_small(self, l1):
        nu, tail, _ = engine.nu_and_particles(l1, 256)
        assert 0.0 < nu < 1.0
        assert tail < 1e-3

    def test_truncation_guard(self, l1):
        with pytest.raises(TailNotNegligible):
            engine.nu_and_particles(l1, 256, x_max=5)


class TestStripExit:
    def test_gamblers_ruin(self, srw):
        se = engine.strip_exit(srw, 3, 10)
        assert se.p_hit_high_before_origin == pytest.approx(0.3, abs=1e-12)
        assert se.mean_overshoot == 0.0
        assert se.undecided == 0.0

    def test_halfline_exit_probability_bounds(self, l1):
        se = engine.strip_exit(l1, 5, 50)
        assert 0.0 < se.p_exit_high_before_halfline < 1.0
        assert se.p_exit_high_before_halfline <= se.p_hit_high_before_origin \
            + se.undecided + 1e-12

    def test_requires_interior_start(self, srw):
        with pytest.raises(ValueError):
            engine.strip_exit(srw, 0, 10)


class TestExactMode:
    def test_rational_equals_float(self, l1):
        n, x = 32, 2
        exact = engine.evolve_free_exact(l1, x, n)
        fl = engine.evolve_free(l1, x, n).distribution
        for y, w in exact.items():
            assert fl.prob(y) == pytest.approx(float(w), abs=1e-14)

    def test_rational_absorbed_identity(self, srw):
        dist, absorbed = engine.absorbed_at_origin_exact(srw, 1, 2)
        assert dist[1] == Fraction(1, 4)
        assert absorbed[0] == Fraction(1, 2)

    def test_rational_mass_exact(self, l1):
        dist, absorbed = engine.absorbed_at_origin_exact(l1, 1, 16)
        assert sum(dist.values()) + sum(absorbed) == 1


def test_reachability_zeros(srw):
    sl = engine.evolve_free(srw, 0, 9)
    for y in range(-9, 10):
        if (y - 9) % 2 != 0:
            assert sl.distribution.prob(y) == 0.0


@settings(max_examples=50, deadline=None)
@given(zero_mean_laws(), st.integers(-6, 6), st.integers(1, 48),
       st.sampled_from([0.0, 0.5, 1.0]))
def test_run_dp_properties(law, x, n, alpha):
    """run_dp(n) is n chained run_dp(1) calls bit for bit in every mode;
    FREE and POINT match the rational DP; HALFLINE conserves mass."""
    zmin, pmf = law.pmf_array()
    for mode, x0 in ((dp.FREE, x), (dp.POINT, x), (dp.HALFLINE, abs(x) + 1)):
        full = dp.run_dp(x0, np.ones(1), zmin, pmf, n, mode=mode, alpha=alpha)
        off, w, absorbed, entry = x0, np.ones(1), [], []
        for _ in range(n):
            one = dp.run_dp(off, w, zmin, pmf, 1, mode=mode, alpha=alpha)
            off, w = one.offset, one.weights
            if mode == dp.POINT:
                absorbed.append(one.absorbed)
            if mode == dp.HALFLINE:
                entry.append(one.entry)
        assert full.offset == off
        assert np.array_equal(full.weights, w)
        if mode == dp.POINT:
            assert np.array_equal(full.absorbed, np.concatenate(absorbed))
        if mode == dp.HALFLINE:
            assert np.array_equal(full.entry, np.concatenate(entry))
            assert abs(full.mass() + full.entry.sum() - 1.0) <= 1e-12

    free = engine.evolve_free(law, x, n).distribution
    exact = engine.evolve_free_exact(law, x, n)
    for y in set(exact) | set(free.sites().tolist()):
        assert abs(free.prob(y) - float(exact.get(y, 0))) <= 1e-13
    sl, fp = engine.absorbed_at_origin(law, x, n)
    exact, passage = engine.absorbed_at_origin_exact(law, x, n)
    for y in set(exact) | set(sl.distribution.sites().tolist()):
        assert abs(sl.distribution.prob(y) - float(exact.get(y, 0))) <= 1e-13
    assert np.max(np.abs(fp.values - np.array(passage, dtype=float))) <= 1e-13


def test_trim_never_cuts_kept_sites():
    arr = np.array([0.0, 1e-310, 0.5, 1e-310, 0.0, 0.25, 0.0])  # sites -3..3
    assert dp._trim(-3, arr)[0] == -2                       # exact zeros only
    off, w = dp._trim(-3, arr, dp.TRIM_FLOOR)
    assert (off, list(w)) == (-1, [0.5, 1e-310, 0.0, 0.25])
    off, w = dp._trim(-3, arr, dp.TRIM_FLOOR, keep=(-3, -3))
    assert (off, len(w)) == (-3, 6)
    off, w = dp._trim(-3, arr, 1.0, keep=(1, 9))            # nothing live
    assert (off, list(w)) == (1, [0.0, 0.25, 0.0])
    assert len(dp._trim(-3, arr, 1.0, keep=(5, 9))[1]) == 0

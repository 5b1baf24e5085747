"""Exact transition kernels: free evolution, kill-at-origin, kill-on-halfline,
partial absorption, and the rational calibration mode."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walklab import asymptotics, build_law, dp, engine, potential
from walklab.errors import (ConstraintViolation, TailNotNegligible,
                             WindowOverflow)
from walklab.kernels import WalkKernels
from walklab.laws import lattice_structure, moments

from conftest import (DEEP_PAIRS, L1_PAIRS, SPAN3_PAIRS, SRW_PAIRS,
                      periodic_laws, zero_mean_laws)


def _binom_pmf(n, k):
    return math.comb(n, k) / 2 ** n


class TestFree:
    def test_unit_walk_binomial(self, srw):
        n = 12
        p = engine.evolve_free(srw, 0, n)
        for j in range(n + 1):
            assert p.prob(2 * j - n) == pytest.approx(
                _binom_pmf(n, j), abs=1e-15)

    def test_mass_conserved(self, l1):
        p = engine.evolve_free(l1, 3, 500)
        assert p.mass() == pytest.approx(1.0, abs=1e-12)

    def test_window_budget(self, srw, monkeypatch):
        zmin, pmf = srw.pmf_array()
        monkeypatch.setattr(dp, "WINDOW_BUDGET", 50)
        with pytest.raises(WindowOverflow):
            dp.run_dp(0, np.ones(1), zmin, pmf, 100, mode=dp.FREE)
        # the block stream of the partial sums checks it on every advance
        with pytest.raises(WindowOverflow, match="65 sites at step 64"):
            list(dp._steps(0, np.ones(1), zmin, pmf, 1024, dp.FREE, 1.0, 5))


class TestKillAtOrigin:
    def test_two_step_oracle(self, srw):
        # q^2(1,1) = p(1,2)p(2,1): the only surviving path is 1->2->1
        q = engine.absorbed_at_origin(srw, 1, 2)
        assert q.prob(1) == pytest.approx(0.25, abs=1e-16)
        assert q.absorbed[0, 0] == pytest.approx(0.5, abs=1e-16)

    def test_kernel_vanishes_at_origin(self, l1):
        q = engine.absorbed_at_origin(l1, 4, 100)
        assert q.prob(0) == 0.0

    def test_mass_bookkeeping(self, l1):
        n = 300
        q = engine.absorbed_at_origin(l1, 2, n)
        total = q.mass() + q.absorbed.sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_start_at_origin_not_absorbed(self, l1):
        # q^0 is the identity: the walk only dies on a later *arrival* at 0
        q = engine.absorbed_at_origin(l1, 0, 1)
        assert q.mass() == pytest.approx(
            1 - float(l1.prob(0)), abs=1e-15)

    def test_duality(self, l1):
        # q^n(x,y) under p equals q^n(y,x) under the reflected law
        n, x, y = 64, 3, 5
        a = engine.absorbed_at_origin(l1, x, n).prob(y)
        b = engine.absorbed_at_origin(l1.reflected(), y, n).prob(x)
        assert a == pytest.approx(b, abs=1e-14)


class TestKillOnHalfline:
    def test_one_step_entry_profile(self, l1):
        # from x=1: P[T=1, S_T=-1] = p(-2), P[T=1, S_T=0] = p(-1)
        qh = engine.absorbed_on_halfline(l1, 1, 1)
        assert qh.entry_base == -1 and qh.absorbed.shape == (1, 2)
        assert qh.absorbed[0, 0] == pytest.approx(1 / 6, abs=1e-16)  # y = -1
        assert qh.absorbed[0, 1] == pytest.approx(1 / 6, abs=1e-16)  # y = 0

    def test_no_overshoot_for_unit_down_steps(self, srw):
        qh = engine.absorbed_on_halfline(srw, 1, 50)
        cols = qh.absorbed.sum(axis=0)
        for y in range(qh.entry_base, 0):
            assert abs(cols[y - qh.entry_base]) == 0.0

    def test_t_pmf_matches_surviving_mass(self, l1):
        n = 200
        qh = engine.absorbed_on_halfline(l1, 3, n)
        assert qh.absorbed.sum(axis=1).sum() == pytest.approx(
            1.0 - qh.mass(), abs=1e-12)
        # mass() is P_x[T > n]: what a longer run enters after step n
        longer = engine.absorbed_on_halfline(l1, 3, 4 * n)
        assert qh.mass() == pytest.approx(
            longer.absorbed[n:].sum() + longer.mass(), abs=1e-12)

    def test_dominated_by_point_kernel(self, l1):
        n, x = 128, 4
        half = engine.absorbed_on_halfline(l1, x, n)
        point = engine.absorbed_at_origin(l1, x, n)
        free = engine.evolve_free(l1, x, n)
        for y in range(1, 40):
            q_half, q_pt, p = half.prob(y), point.prob(y), free.prob(y)
            assert 0.0 <= q_half <= q_pt + 1e-15 <= p + 1e-14


class TestPartialAbsorption:
    def test_alpha_one_is_kill_at_origin(self, l1):
        n, x = 64, 2
        a = engine.partial_absorption(l1, 1.0, x, n)
        b = engine.absorbed_at_origin(l1, x, n)
        for y in range(-20, 21):
            assert a.prob(y) == pytest.approx(b.prob(y), abs=1e-15)

    def test_alpha_zero_is_free(self, l1):
        n, x = 64, 2
        a = engine.partial_absorption(l1, 0.0, x, n)
        b = engine.evolve_free(l1, x, n)
        for y in range(-20, 21):
            assert a.prob(y) == pytest.approx(b.prob(y), abs=1e-15)

    def test_monotone_in_alpha(self, l1):
        n, x = 48, 1
        dists = [engine.partial_absorption(l1, al, x, n)
                 for al in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for y in range(-15, 16):
            vals = [d.prob(y) for d in dists]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestNegativeMass:
    """Q_x^+(n) = sum_{y <= -1} q^n(x, y), as verify reads it for Q+."""

    def test_left_continuous_never_crosses(self, srw):
        q = engine.absorbed_at_origin(srw, 5, 200)
        assert q.restricted_sum(q.offset, -1) == 0.0

    def test_one_step_oracle(self, l1):
        q = engine.absorbed_at_origin(l1, 1, 1)
        assert q.restricted_sum(q.offset, -1) == pytest.approx(1 / 6,
                                                               abs=1e-16)

    def test_bounded_by_one(self, l1):
        q = engine.absorbed_at_origin(l1, 2, 512)
        assert 0.0 <= q.restricted_sum(q.offset, -1) <= 1.0


class TestNuAndParticles:
    def test_left_continuous_nu_vanishes(self, srw):
        nu, tail, particles = engine.nu_and_particles(srw, 256)
        assert nu == 0.0
        assert particles == 0.0

    def test_tail_bound_small(self, l1):
        nu, tail, _ = engine.nu_and_particles(l1, 256)
        assert 0.0 < nu < 1.0
        assert tail < 1e-3

    def test_truncation_guard(self, monkeypatch):
        """The guard reads only the law and n: it raises before the DP
        runs."""
        def run_dp(*args, **kwargs):
            raise AssertionError("nu_and_particles ran its DP")
        monkeypatch.setattr(dp, "run_dp", run_dp)
        with pytest.raises(TailNotNegligible,
                           match="x_max below twice the largest"):
            engine.nu_and_particles(build_law(DEEP_PAIRS, "deep"), 2)


class TestExactMode:
    def test_rational_equals_float(self, l1):
        n, x = 32, 2
        exact = engine.evolve_free_exact(l1, x, n)
        fl = engine.evolve_free(l1, x, n)
        for y, w in exact.items():
            assert fl.prob(y) == pytest.approx(float(w), abs=1e-14)

    def test_rational_absorbed_identity(self, srw):
        dist, absorbed = engine.absorbed_at_origin_exact(srw, 1, 2)
        assert dist[1] == Fraction(1, 4)
        assert absorbed == {(1, 0): Fraction(1, 2)}

    def test_rational_mass_exact(self, l1):
        dist, absorbed = engine.absorbed_at_origin_exact(l1, 1, 16)
        assert sum(dist.values()) + sum(absorbed.values()) == 1


def test_reachability_zeros(srw):
    p = engine.evolve_free(srw, 0, 9)
    for y in range(-9, 10):
        if (y - 9) % 2 != 0:
            assert p.prob(y) == 0.0


@settings(max_examples=50, deadline=None)
@given(zero_mean_laws(), st.integers(-6, 6), st.integers(1, 48),
       st.sampled_from([0.0, 0.5, 1.0]))
def test_run_dp_properties(law, x, n, alpha):
    """With one-step blocks, run_dp(n) is n chained run_dp(1) calls bit
    for bit in every mode, and every mode matches the rational DP; HALFLINE
    conserves mass."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dp, "BLOCK_STEPS", 1)
        _check_run_dp_properties(law, x, n, alpha)


def _check_run_dp_properties(law, x, n, alpha):
    zmin, pmf = law.pmf_array()
    for mode, x0 in ((dp.FREE, x), (dp.POINT, x), (dp.HALFLINE, abs(x) + 1)):
        full = dp.run_dp(x0, np.ones(1), zmin, pmf, n, mode=mode, alpha=alpha)
        off, w, absorbed = x0, np.ones(1), []
        for _ in range(n):
            one = dp.run_dp(off, w, zmin, pmf, 1, mode=mode, alpha=alpha)
            off, w = one.offset, one.weights
            absorbed.append(one.absorbed)
        assert full.offset == off
        assert np.array_equal(full.weights, w)
        if mode != dp.FREE:
            assert np.array_equal(full.absorbed, np.concatenate(absorbed))
            assert abs(full.mass() + full.absorbed.sum() - 1.0) <= 1e-12

    free = engine.evolve_free(law, x, n)
    exact = engine.evolve_free_exact(law, x, n)
    for y in set(exact) | set(free.sites().tolist()):
        assert abs(free.prob(y) - float(exact.get(y, 0))) <= 1e-13
    for run, (exact, removed) in (
            (engine.absorbed_at_origin(law, x, n),
             engine.absorbed_at_origin_exact(law, x, n)),
            (engine.absorbed_on_halfline(law, abs(x) + 1, n),
             engine.absorbed_on_halfline_exact(law, abs(x) + 1, n))):
        for y in set(exact) | set(run.sites().tolist()):
            assert abs(run.prob(y) - float(exact.get(y, 0))) <= 1e-13
        assert np.max(np.abs(run.absorbed - _removed_table(run, removed)),
                      initial=0.0) <= 1e-13
        assert abs(run.absorbed.sum() - float(sum(removed.values()))) \
            <= 1e-13


def _removed_table(run, removed):
    """The rational stream's removed masses, {(k, site): value}, in the
    layout of run.absorbed: row k - 1, column site - run.entry_base."""
    out = np.zeros(run.absorbed.shape)
    for (k, y), v in removed.items():
        out[k - 1, y - run.entry_base] = float(v)
    return out


def test_cut_takes_only_outer_zero_and_subnormal_runs(srw, monkeypatch):
    """The edge cut takes the outer runs of weights below dp.CUT, zero and
    subnormal ones included, and reports their summed weight; with
    one-step blocks, a free stream's cut runs after every step."""
    monkeypatch.setattr(dp, "BLOCK_STEPS", 1)
    arr = np.array([0.0, 1e-70, 0.5, 1e-310, 0.0, 0.25, 5e-324, 1e-61])
    # one step of the law Y = 0 leaves arr on sites -3..4, then cuts it
    [(_, off, w, _, cut, _)] = dp._steps(-3, arr, 0, np.ones(1), 1, dp.FREE,
                                         1.0)
    assert (off, list(w)) == (-1, [0.5, 1e-310, 0.0, 0.25])
    assert cut == 1e-70 + 1e-61
    # a period-2 law: the window holds its coset only, with no zeros
    res = dp.run_dp(0, np.ones(1), -1, srw.pmf_array()[1], 9)
    assert (res.offset, len(res.weights), res.stride, res.cut) == \
        (-9, 10, 2, 0.0)
    assert np.count_nonzero(res.weights == 0.0) == 0
    # a window below CUT empties on the first step, ends the stream
    steps = list(dp._steps(0, np.full(3, 1e-70), -1, np.full(3, 1 / 3), 5,
                           dp.FREE, 1.0))
    assert [(k, len(w)) for k, _, w, _, _, _ in steps] == [(1, 0)]
    res = dp.run_dp(0, np.full(3, 1e-70), -1, np.full(3, 1 / 3), 5)
    assert len(res.weights) == 0
    assert res.cut == pytest.approx(3e-70, rel=1e-15)


def _laid_on(w, sites):
    """The weights of the window w at sites, a sorted array that holds
    every site of w: w.prob at each site, in one pass."""
    out = np.zeros(len(sites))
    out[np.searchsorted(sites, w.sites())] = w.weights
    return out


def _full_lattice_dp(offset, weights, zmin, pmf, n, mode, alpha, cut=True):
    """run_dp on every site of the lattice: np.convolve with the dense pmf,
    the same absorption and the same edge cut, applied to each residue
    class of the start mod the period on its own, as each class runs its
    own run_dp; the reference for the coset stream, and without the cut
    the reference for the cut.  Returns (offset, weights, absorbed, cut
    mass), absorbed in run_dp's layout: one column, site 0, in point
    mode, the sites 1 + zmin..0 in half-line mode.  In FREE mode a class
    whose start and compressed taps are palindromic is folded as its
    coset stream is (dp._steps): after each step its sites below its
    centre take the weights of their mirror sites."""
    d = dp.period(pmf)
    off, cur = offset, np.array(weights, dtype=float)
    absorbed = np.zeros((n, -zmin if mode == dp.HALFLINE else 1))
    mass_cut = 0.0
    centre = {}         # twice the start centre of each class that folds
    if mode == dp.FREE and dp._palindromic(pmf[::d]):
        for r in range(min(d, len(cur))):
            if dp._palindromic(cur[r::d]):
                centre[r] = 2 * (offset + r) + d * (len(cur[r::d]) - 1)
    for k in range(1, n + 1):
        if len(cur) == 0:
            break
        cur = np.convolve(cur, pmf)
        off += zmin
        sites = off + np.arange(len(cur))
        for r, c2 in centre.items():
            m2 = c2 + k * (2 * zmin + len(pmf) - 1)     # twice the centre
            low = np.flatnonzero(((sites - k * zmin - offset) % d == r)
                                 & (2 * sites < m2)
                                 & (m2 - sites < off + len(cur)))
            cur[low] = cur[m2 - sites[low] - off]
        if mode == dp.POINT and 0 <= -off < len(cur):
            absorbed[k - 1, 0] = alpha * cur[-off]
            cur[-off] *= 1.0 - alpha
        elif mode == dp.HALFLINE:
            hi = max(min(len(cur), -off + 1), 0)
            j = off - (1 + zmin)
            absorbed[k - 1, j:j + hi] = cur[:hi]
            cur, off = cur[hi:], off + hi
        if cut:
            # a walk from class c of the start is on c + k*zmin + dZ
            cls = (off + np.arange(len(cur)) - k * zmin) % d
            big = np.abs(cur) >= dp.CUT
            for c in range(d):
                drop = cls == c
                keep = np.flatnonzero(drop & big)
                if len(keep):
                    drop[keep[0]:keep[-1] + 1] = False
                mass_cut += np.abs(cur[drop]).sum()
                cur[drop] = 0.0
            live = np.flatnonzero(cur)
            a, b = (live[0], live[-1] + 1) if len(live) else (len(cur),) * 2
            cur, off = cur[a:b], off + a
    return off, cur, absorbed, mass_cut


@settings(max_examples=20, deadline=None)
@given(zero_mean_laws(span=8), st.integers(1, 6), st.integers(1, 1500),
       st.sampled_from([dp.FREE, dp.POINT, dp.HALFLINE]),
       st.sampled_from([0.5, 1.0]))
@example(build_law([(-2, "1/3"), (1, "2/3")], "law"), 1, 1014, dp.FREE, 0.5)
def test_cut_keeps_every_normal_weight(law, x, n, mode, alpha):
    """Against the uncut one-step DP, every site and absorbed mass
    (passage law or entrance law) of the cut block run lies within
    res.cut of it, up
    to the rounding of the two runs, gamma_(3 n_k) of the larger value
    (potential._rounding_gamma; the example is a free run whose bulk
    sites differ by 1.02e-14 relative); res.cut stays below 1e-50 at these
    n; and the cut window lies inside the uncut one."""
    zmin, pmf = law.pmf_array()
    res = dp.run_dp(x, np.ones(1), zmin, pmf, n, mode=mode, alpha=alpha)
    off, ref, absorbed, _ = _full_lattice_dp(
        x, np.ones(1), zmin, pmf, n, mode, alpha, cut=False)
    assert 0.0 <= res.cut < 1e-50
    assert res.stride == dp.period(pmf)
    assert np.all((off <= res.sites()) & (res.sites() < off + len(ref)))

    gamma = potential._rounding_gamma(law, n)

    def within(got, want):
        return np.all(np.abs(got - want)
                      <= res.cut + gamma * np.maximum(got, want))

    assert within(_laid_on(res, off + np.arange(len(ref))), ref)
    if mode != dp.FREE:
        assert within(res.absorbed, absorbed)


_MODES = [(dp.FREE, 1.0), (dp.POINT, 1.0), (dp.POINT, 0.5),
          (dp.HALFLINE, 1.0)]


def _coset_vs_full(law, offset, weights, n, mode, alpha):
    """One run_dp per residue class of the start mod the period, as
    nu_and_particles runs them, against the full-lattice DP.  Returns
    the classes' summed weight at each site of either side, the
    reference's there, and (summed, reference) pairs of the absorbed
    masses (passage or entrance laws) and of the cut masses.  Two classes
    never share a site, so each sum adds one run's value to zeros."""
    zmin, pmf = law.pmf_array()
    d = dp.period(pmf)
    weights = np.asarray(weights, dtype=float)
    runs = [dp.run_dp(offset + r, weights[r::d], zmin, pmf, n, mode=mode,
                      alpha=alpha) for r in range(min(d, len(weights)))]
    assert all(res.stride == d for res in runs)
    off, ref, absorbed, cut = _full_lattice_dp(
        offset, weights, zmin, pmf, n, mode, alpha)
    want = dp.Window(off, ref)
    sites = np.union1d(np.concatenate([r.sites() for r in runs]),
                       want.sites())
    got = sum(_laid_on(r, sites) for r in runs)
    summed = None if mode == dp.FREE else sum(r.absorbed for r in runs)
    return (got, _laid_on(want, sites), (summed, absorbed),
            (sum(r.cut for r in runs), cut))


@settings(max_examples=40, deadline=None)
@given(periodic_laws(), st.integers(-6, 6),
       st.lists(st.sampled_from([0.0, 0.25, 1 / 3, 1.0]), min_size=1,
                max_size=15),
       st.integers(1, 300), st.sampled_from(_MODES))
def test_coset_stream_matches_full_lattice(law, x, weights, n, mode_alpha):
    """On periodic laws, from windows that span several residue classes,
    the coset streams of the classes, in one-step blocks, agree with the
    full-lattice DP that cuts each class on its own: the same sites are
    nonzero, every weight and absorbed mass (passage or entrance law)
    agrees to 1e-15, and the cut masses to 1e-12 relative."""
    mode, alpha = mode_alpha
    x0 = abs(x) + 1 if mode == dp.HALFLINE else x
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dp, "BLOCK_STEPS", 1)
        got, want, (absorbed, absorbed_ref), (cut, cut_ref) = \
            _coset_vs_full(law, x0, weights, n, mode, alpha)
    assert np.array_equal(got != 0, want != 0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-15
    assert cut == pytest.approx(cut_ref, rel=1e-12, abs=0.0)
    if mode != dp.FREE:
        assert np.max(np.abs(absorbed - absorbed_ref)) <= 1e-15


@pytest.mark.parametrize("pairs", [
    [(-1, "1/2"), (1, "1/2")],                                # srw
    [(-1, "2/3"), (2, "1/3")],                                # span3
    [(z, "1/4") for z in (-3, -1, 1, 3)],                     # odd4
])
@pytest.mark.parametrize("mode, alpha", _MODES)
def test_coset_stream_is_bit_identical_on_fixtures(pairs, mode, alpha,
                                                   monkeypatch):
    """On srw, span3 and odd4 the free coset stream, in one-step blocks,
    is the full-lattice DP bit for bit, from one site and from a window
    over every class; srw and odd4 and these starts are palindromic, so
    both fold, each class about its own centre.  An absorbed one-step
    block adds its strip's products (the one-step plan) apart from the
    far sites' convolution, so in the absorbed modes every weight and
    absorbed mass lies within gamma_(3 n_k) (potential._rounding_gamma)
    of the larger value, plus both cuts, of the full-lattice DP's."""
    monkeypatch.setattr(dp, "BLOCK_STEPS", 1)
    law = build_law(pairs, "law")
    gamma = potential._rounding_gamma(law, 600)
    for x, weights in ((3, np.ones(1)), (1, np.ones(7))):
        got, want, (absorbed, absorbed_ref), (cut, cut_ref) = _coset_vs_full(
            law, x, weights, 600, mode, alpha)

        def close(a, b):
            return (np.abs(a - b)
                    <= gamma * np.maximum(a, b) + cut + cut_ref).all()

        assert cut == pytest.approx(cut_ref, rel=1e-12, abs=0.0)
        if mode == dp.FREE:
            assert np.array_equal(got, want)
        else:
            assert close(got, want) and close(absorbed, absorbed_ref)


_BLOCK_LAWS = pytest.mark.parametrize("pairs", [
    SRW_PAIRS, L1_PAIRS, SPAN3_PAIRS,
    [(z, "1/4") for z in (-3, -1, 1, 3)],                     # odd4
    [(-41, "20/61"), (20, "41/61")],                          # period 61
], ids=["srw", "l1", "span3", "odd4", "p61"])
W3_PAIRS = [(z, "1/7") for z in range(-3, 4)]
U32_PAIRS = [(z, "1/65") for z in range(-32, 33)]
_ABSORBED = [(dp.POINT, 1.0), (dp.POINT, 0.5), (dp.HALFLINE, 1.0)]


def _block_run(law, x, n, block_steps, mode=dp.FREE, alpha=1.0,
               weights=(1.0,)):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dp, "BLOCK_STEPS", block_steps)
        zmin, pmf = law.pmf_array()
        return dp.run_dp(x, np.array(weights), zmin, pmf, n, mode, alpha)


def _assert_blocks_match_steps(law, x, n, mode=dp.FREE, alpha=1.0,
                               weights=(1.0,)):
    """The run in blocks of dp.BLOCK_STEPS against the one-step run.
    By the count in potential._partial_sum_table, every weight of a free
    run, uncut, lies within relative gamma_(n') of the exact p^n, n' =
    (2t+1)n + 3Lt.  An absorbed block of L' steps rounds its strip's part
    no more often than its far part (L' steps of t products, then a
    product with at most L't strip sites), and once more where the two
    parts add.  The count gives a block 2L't roundings, and its advance
    takes at most L'(t-1) + 1 + (L'-1)t, fewer by L' + t - 1, so that one
    fits within n'.  So the two runs' weights, absorbed masses and
    entrance-law entries, each a sum of nonnegative products, differ by at
    most gamma_(3 n_k), n_k > n' (the bound of potential._rounding_gamma),
    times the larger, plus both runs' cut.  Absorption at 0 with
    alpha = 1 leaves exactly 0.0 there."""
    blocks, steps = (_block_run(law, x, n, b, mode, alpha, weights)
                     for b in (dp.BLOCK_STEPS, 1))
    gamma = potential._rounding_gamma(law, n)
    cut = blocks.cut + steps.cut

    def close(a, b):
        return (np.abs(a - b) <= gamma * np.maximum(a, b) + cut).all()

    sites = np.union1d(blocks.sites(), steps.sites())
    assert close(_laid_on(blocks, sites), _laid_on(steps, sites))
    if mode != dp.FREE:
        assert close(blocks.absorbed, steps.absorbed)
    if mode == dp.POINT and alpha == 1.0:
        assert blocks.prob(0) == 0.0


@_BLOCK_LAWS
def test_free_blocks_match_the_one_step_stream(pairs):
    law = build_law(pairs, "law")
    for n in (1, 63, 64, 65, 1000, 4096):
        _assert_blocks_match_steps(law, 3, n)


@pytest.mark.parametrize("t", [1, 3, 65, 129, 193])
def test_aligned_taps_give_the_same_advance(t):
    """dp._aligned copies the reversed taps onto a 64-byte boundary, and
    np.correlate gives the same bits there as at every other alignment,
    so the stream's advance does not depend on where the taps sit."""
    rng = np.random.default_rng(t)
    taps, cur = rng.random(t), rng.random(2000)
    rev = dp._aligned(taps[::-1])
    assert rev.ctypes.data % 64 == 0 and np.array_equal(rev, taps[::-1])
    buf = np.empty(t + 8)
    for i in range(8):                      # every 8-byte offset
        buf[i:i + t] = rev
        assert np.array_equal(np.correlate(cur, buf[i:i + t], "full"),
                              np.correlate(cur, rev, "full"))


_SYMMETRIC = {"srw": SRW_PAIRS,
              "lazy": [(-1, "1/4"), (0, "1/2"), (1, "1/4")],
              "sym5": [(z, "1/5") for z in range(-2, 3)],
              "odd4": [(z, "1/4") for z in (-3, -1, 1, 3)],
              "u32": U32_PAIRS}
_ASYMMETRIC = {"l1": L1_PAIRS, "span3": SPAN3_PAIRS,
               "p10": [(-7, "3/10"), (3, "7/10")]}


def _compressed(pairs):
    zmin, pmf = build_law(pairs, "law").pmf_array()
    return zmin, pmf, pmf[::dp.period(pmf)]


def _unfolded(offset, weights, zmin, pmf, n):
    """The free stream of dp._steps without the fold: each advance one
    full np.correlate with the taps of dp._power (np.convolve for a
    window shorter than them), and the cut scanned from both ends.
    Yields (k, offset, weights, cut) after each advance."""
    d = dp.period(pmf)
    taps = pmf[::d]
    L = dp._block_len(len(taps), zmin, d, n, None)
    off, cur, cut, k = offset, np.asarray(weights, dtype=float), 0.0, 0
    for r, count in ((L, n // L), (n % L, 1)):
        if r == 0:
            return
        power = dp._power(taps.tobytes(), r)
        for _ in range(count):
            if len(cur) == 0:
                return
            cur = (np.correlate(cur, power[::-1], "full")
                   if len(cur) >= len(power) else np.convolve(cur, power))
            live = np.flatnonzero(cur >= dp.CUT)
            a, b = (live[0], live[-1] + 1) if len(live) else (0, 0)
            cut += float(cur[:a].sum() + cur[b:].sum())
            cur, off, k = cur[a:b], off + r * zmin + d * a, k + r
            yield k, off, cur, cut


@pytest.mark.parametrize("name", [*_SYMMETRIC, *_ASYMMETRIC])
def test_powers_of_palindromic_taps_are_palindromic(name):
    """dp._power mirrors each convolution of palindromic taps, so every
    power of a symmetric law is palindromic bit for bit; the powers of a
    law whose taps are not palindromic are the plain np.convolve chain."""
    _, _, taps = _compressed({**_SYMMETRIC, **_ASYMMETRIC}[name])
    key, chain = taps.tobytes(), taps
    for r in range(1, dp.BLOCK_STEPS + 1):
        power = dp._power(key, r)
        if name in _SYMMETRIC:
            assert np.array_equal(power, power[::-1])
        else:
            assert np.array_equal(power, chain)
        chain = np.convolve(chain, taps)


@pytest.mark.parametrize("name", ["srw", "odd4", "sym5"])
def test_folded_stream_stays_palindromic(name):
    """A free stream of a symmetric law from a palindromic start is
    palindromic bit for bit after every advance, the last partial block
    too: from the origin, from a site away from it, and from a start
    over several sites of the coset."""
    zmin, pmf, _ = _compressed(_SYMMETRIC[name])
    for offset, weights in ((0, [1.0]), (7, [1.0]),
                            (-3, [0.25, 1.0, 0.5, 1.0, 0.25])):
        steps = list(dp._steps(offset, np.array(weights), zmin, pmf, 1000,
                               dp.FREE, 1.0))
        assert steps[-1][0] == 1000
        for _, _, w, _, _, _ in steps:
            assert np.array_equal(w, w[::-1])


@pytest.mark.parametrize("name, n", [("srw", 4096), ("lazy", 4096),
                                     ("sym5", 4096), ("odd4", 4096),
                                     ("u32", 256)])
def test_folded_stream_matches_the_unfolded_one(name, n):
    """The folded stream lies within gamma_(3 n_k)
    (potential._rounding_gamma) of the larger weight, plus both cuts, of
    the unfolded full-correlate stream: the fold only mirrors sites whose
    exact weights are equal, and the mirrored taps are copies."""
    law = build_law(_SYMMETRIC[name], name)
    zmin, pmf = law.pmf_array()
    got = dp.run_dp(5, np.ones(1), zmin, pmf, n)
    k, off, w, cut = list(_unfolded(5, np.ones(1), zmin, pmf, n))[-1]
    want = dp.Window(off, w, got.stride)
    assert k == n
    sites = np.union1d(got.sites(), want.sites())
    a, b = _laid_on(got, sites), _laid_on(want, sites)
    tol = potential._rounding_gamma(law, n) * np.maximum(a, b) \
        + got.cut + cut
    assert np.all(np.abs(a - b) <= tol)


@pytest.mark.parametrize("pairs, weights", [
    *((pairs, [1.0]) for pairs in _ASYMMETRIC.values()),
    (_SYMMETRIC["srw"], [1.0, 0.5, 0.25]),
    (_SYMMETRIC["odd4"], [1.0, 0.5, 0.25]),
], ids=[*_ASYMMETRIC, "srw-skew", "odd4-skew"])
def test_unfolded_streams_are_unchanged(pairs, weights):
    """A stream whose taps or start are not palindromic does not fold:
    advance by advance it is the unfolded reference bit for bit."""
    zmin, pmf, _ = _compressed(pairs)
    weights = np.array(weights)
    got = [(k, off, w, cut) for k, off, w, _, cut, _ in
           dp._steps(2, weights, zmin, pmf, 1000, dp.FREE, 1.0)]
    want = list(_unfolded(2, weights, zmin, pmf, 1000))
    assert len(got) == len(want)
    for (k, off, w, cut), (k1, off1, w1, cut1) in zip(got, want):
        assert (k, off, cut) == (k1, off1, cut1)
        assert np.array_equal(w, w1)


@pytest.mark.parametrize("name", ["srw", "lazy", "odd4"])
def test_folded_stream_continues_bit_for_bit(name):
    """A folded result continued by run_dp at a block boundary is again
    a palindromic start, so 640 steps and then 360 are 1000 steps bit for
    bit."""
    zmin, pmf, _ = _compressed(_SYMMETRIC[name])
    whole = dp.run_dp(3, np.ones(1), zmin, pmf, 1000)
    head = dp.run_dp(3, np.ones(1), zmin, pmf, 640)
    rest = dp.run_dp(head.offset, head.weights, zmin, pmf, 360)
    assert rest.offset == whole.offset
    assert np.array_equal(rest.weights, whole.weights)
    assert head.cut + rest.cut == pytest.approx(whole.cut, rel=1e-12)


def test_fold_halves_the_correlated_sites(monkeypatch):
    """The fold stays on: srw's free stream at n = 4096 computes at most
    55% of the output sites the unfolded stream computes, counted over
    every np.correlate call, and l1's, which does not fold, all of them."""
    counted, correlate = [0], np.correlate

    def counting(a, v, mode="valid"):
        out = correlate(a, v, mode)
        counted[0] += len(out)
        return out

    monkeypatch.setattr(np, "correlate", counting)
    share = {}
    for name, pairs in (("srw", SRW_PAIRS), ("l1", L1_PAIRS)):
        zmin, pmf, _ = _compressed(pairs)
        counted[0] = 0
        dp.run_dp(0, np.ones(1), zmin, pmf, 4096)
        folded = counted[0]
        counted[0] = 0
        list(_unfolded(0, np.ones(1), zmin, pmf, 4096))
        share[name] = folded / counted[0]
    assert share["srw"] <= 0.55
    assert share["l1"] == 1.0


@settings(max_examples=20, deadline=None)
@given(st.one_of(zero_mean_laws(), periodic_laws()), st.integers(-6, 6),
       st.integers(1, 700))
def test_free_blocks_match_the_one_step_stream_for_any_law(law, x, n):
    _assert_blocks_match_steps(law, x, n)


@_BLOCK_LAWS
def test_free_blocks_match_the_rational_dp(pairs, monkeypatch):
    """With blocks of 8 steps, 60 steps are seven blocks and a partial one
    of 4; nothing is cut, and every weight lies within relative
    gamma_(3 n_k) (potential._rounding_gamma) of the rational DP's."""
    monkeypatch.setattr(dp, "BLOCK_STEPS", 8)
    law = build_law(pairs, "law")
    res = engine.evolve_free(law, 3, 60)
    exact = engine.evolve_free_exact(law, 3, 60)
    gamma = potential._rounding_gamma(law, 60)
    assert res.cut == 0.0
    for y in set(exact) | set(res.sites().tolist()):
        want = float(exact.get(y, 0))
        assert abs(res.prob(y) - want) <= gamma * want


@pytest.mark.parametrize("pairs, point, halfline", [
    (SRW_PAIRS, 64, 64), (L1_PAIRS, 32, 32), (W3_PAIRS, 16, 32),
    (U32_PAIRS, 2, 2), ([(-41, "20/61"), (20, "41/61")], 64, 64),
], ids=["srw", "l1", "w3", "u32", "p61"])
def test_block_length_follows_the_strip(pairs, point, halfline):
    """An absorbed stream's L is the largest power of two up to
    min(BLOCK_STEPS, n) whose strip holds fewer than 2 BLOCK_STEPS sites:
    at most L(t-1) + 1 (point) or ceil(L |zmin| / d) (half line), and
    at least 2 from n = 2 on (u32's point strip for L = 2 holds 129
    sites); a one-step stream takes L = 1."""
    zmin, pmf = build_law(pairs, "law").pmf_array()
    d = dp.period(pmf)
    t = len(pmf[::d])
    for mode, want in ((dp.POINT, point), (dp.HALFLINE, halfline)):
        ab = dp._absorbing(zmin, mode, 1.0)
        assert dp._block_len(t, zmin, d, 4096, ab) == want
        assert dp._block_len(t, zmin, d, 5, ab) == min(want, 4)
        assert dp._block_len(t, zmin, d, 2, ab) == 2
        assert dp._block_len(t, zmin, d, 1, ab) == 1


@pytest.mark.parametrize("pairs", [SRW_PAIRS, SPAN3_PAIRS],
                         ids=["srw", "span3"])
def test_halfline_start_with_weight_at_or_below_zero_is_refused(pairs):
    """run_dp refuses a half-line start with weight at a site <= 0, whose
    far sites the blocks would carry past the absorption; zeros there are
    taken, and the run is that of the start without them, bit for bit."""
    zmin, pmf = build_law(pairs, "law").pmf_array()
    d = dp.period(pmf)
    for off, weights in ((0, [1.0]), (-2 * d, [0.0, 0.5, 0.0, 1.0]),
                         (1 - d, [1e-300, 1.0])):
        with pytest.raises(ConstraintViolation, match="site <= 0"):
            dp.run_dp(off, np.array(weights), zmin, pmf, 100, dp.HALFLINE)
    got = dp.run_dp(1 - 2 * d, np.array([0.0, 0.0, 1.0]), zmin, pmf, 100,
                    dp.HALFLINE)
    want = dp.run_dp(1, np.ones(1), zmin, pmf, 100, dp.HALFLINE)
    assert (got.offset, got.cut) == (want.offset, want.cut)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.absorbed, want.absorbed)


@_BLOCK_LAWS
@pytest.mark.parametrize("mode, alpha", _ABSORBED)
def test_absorbed_blocks_match_the_one_step_stream(pairs, mode, alpha):
    law = build_law(pairs, "law")
    for n in (1, 63, 64, 65, 1000, 4096):
        _assert_blocks_match_steps(law, 3, n, mode, alpha)


@pytest.mark.parametrize("mode, alpha", _ABSORBED)
def test_absorbed_blocks_match_the_one_step_stream_on_w3(mode, alpha):
    """The uniform law on -3..3, whose point blocks are 16 steps long."""
    law = build_law(W3_PAIRS, "w3")
    for n in (15, 16, 17, 1000):
        _assert_blocks_match_steps(law, 3, n, mode, alpha)


@settings(max_examples=20, deadline=None)
@given(st.one_of(zero_mean_laws(), periodic_laws()), st.integers(-6, 6),
       st.integers(1, 700), st.sampled_from(_ABSORBED))
def test_absorbed_blocks_match_the_one_step_stream_for_any_law(
        law, x, n, mode_alpha):
    mode, alpha = mode_alpha
    x0 = abs(x) + 1 if mode == dp.HALFLINE else x
    _assert_blocks_match_steps(law, x0, n, mode, alpha)


@pytest.mark.parametrize("mode, alpha", _ABSORBED)
def test_absorbed_blocks_from_any_start(l1, mode, alpha):
    """A start inside the strip (x = 1), one outside it (x = 200, whose
    first blocks advance by the free convolution alone), and
    nu_and_particles' many-start window, one unit on each of 1..x_max,
    which covers the strip and the far sites on its right."""
    n = 1000
    x_max = engine.nu_tail_bound(l1, n)[0]
    for x, weights in ((1, (1.0,)), (200, (1.0,)), (1, np.ones(x_max))):
        _assert_blocks_match_steps(l1, x, n, mode, alpha, weights)


@_BLOCK_LAWS
def test_absorbed_blocks_match_the_rational_dp(pairs, monkeypatch):
    """With BLOCK_STEPS = 8 the strip rule takes L = 8 (srw, span3, p61),
    4 (l1) or 2 (odd4): 60 and 63 steps are whole blocks, then a last
    block of the up to 7 steps left.  Nothing is cut, and the point
    kernel and its passage law, and the half-line kernel and its
    entrance law, lie within relative gamma_(3 n_k)
    (potential._rounding_gamma) of the rational DP's."""
    monkeypatch.setattr(dp, "BLOCK_STEPS", 8)
    law = build_law(pairs, "law")

    def close(got, want):
        want = np.array(want, dtype=float)
        return (np.abs(got - want) <= gamma * want).all()

    for n in (60, 63):
        gamma = potential._rounding_gamma(law, n)
        q = engine.absorbed_at_origin(law, 3, n)
        q_exact = engine.absorbed_at_origin_exact(law, 3, n)
        h = engine.absorbed_on_halfline(law, 3, n)
        h_exact = engine.absorbed_on_halfline_exact(law, 3, n)
        assert q.cut == h.cut == 0.0
        for res, (ex, removed) in ((q, q_exact), (h, h_exact)):
            ys = sorted(set(ex) | set(res.sites().tolist()))
            assert close([res.prob(y) for y in ys], [ex.get(y, 0) for y in ys])
            assert close(res.absorbed, _removed_table(res, removed))


def test_widest_law_streams_take_two_step_blocks():
    """u32's point strip for L = 2 holds 129 sites and its half-line strip
    64, so both streams take blocks of two steps, and 301 steps end in a
    one-step block; against the one-step blocks, within the rounding
    bound and the cut."""
    law = build_law(U32_PAIRS, "u32")
    zmin, pmf = law.pmf_array()
    for mode in (dp.POINT, dp.HALFLINE):
        assert dp._block_len(len(pmf), zmin, 1, 301,
                             dp._absorbing(zmin, mode, 1.0)) == 2
        _assert_blocks_match_steps(law, 5, 301, mode)


@_BLOCK_LAWS
@pytest.mark.parametrize("mode, alpha", _ABSORBED)
def test_strip_plan_matches_one_step_runs(pairs, mode, alpha):
    """dp._plan at the law's L and X = 0, 3 and 55, site by site: each
    strip site's killed row, lost masses and summed [-X, X] rows against a
    run from that site alone in one-step blocks, given X = 55, whose
    central columns are the rows for each X.  Both sum the same
    nonnegative products in other orders, so they agree within
    gamma_(3 n_L) (potential._rounding_gamma) of the larger value;
    nothing is cut within L steps of these laws.  Each X walks the strip
    afresh, and its rows are, to the bit, the central columns of the rows
    for X = 55, its killed, lost and cols those of X = 55; a stream
    without rows reads the last plan walked.  The phases 0, 1, d // 2 and
    d - 1 of the coset are checked."""
    law = build_law(pairs, "law")
    zmin, pmf = law.pmf_array()
    d = dp.period(pmf)
    taps, Xs, ab = pmf[::d], (0, 3, 55), dp._absorbing(zmin, mode, alpha)
    L = dp._block_len(len(taps), zmin, d, dp.BLOCK_STEPS, ab)
    gamma = potential._rounding_gamma(law, L)

    def close(a, b):
        return (np.abs(a - b) <= gamma * np.maximum(a, b)).all()

    for rho in sorted({0, 1 % d, d // 2, d - 1}):
        plans = {}
        for X in Xs:
            dp._plan_slot.cache_clear()     # a fresh walk for each X
            plans[X] = dp._plan(taps.tobytes(), zmin, d, ab, L, rho, X)
        wide = plans[Xs[-1]]
        for X, p in plans.items():
            e = Xs[-1] - X
            assert np.array_equal(p.rows, wide.rows[:, e:e + 2 * X + 1])
            for a, b in zip(p[:-1], wide[:-1]):
                assert np.array_equal(a, b)
        # a stream without rows reads the plan its strip was walked for
        assert dp._plan(taps.tobytes(), zmin, d, ab, L, rho) is wide
        sites = wide.first + L * zmin + d * np.arange(wide.killed.shape[1])
        for i in range(wide.size):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(dp, "BLOCK_STEPS", 1)
                run = list(dp._steps(wide.first + d * i, np.ones(1), zmin,
                                     pmf, L, mode, alpha, Xs[-1]))
            k, off, cur, _, cut, _ = run[-1]
            assert (k, cut) == (L, 0.0)
            end = dp.Window(off, cur, d)
            assert np.isin(end.sites(), sites).all()
            assert close(wide.killed[i], _laid_on(end, sites))
            lost = np.zeros(L * (1 - ab[0]))
            lost[wide.cols] = wide.lost[i]
            assert close(lost, np.concatenate(
                [np.ravel(a) for _, _, _, a, _, _ in run]))
            rows = np.zeros(2 * Xs[-1] + 1)
            for *_, band in run:            # each one-step row, read alone
                rows += potential._band_rows(
                    [band], potential._banded(band.taps, d, Xs[-1]), d)[0]
            for X, p in plans.items():
                e = Xs[-1] - X
                assert close(p.rows[i], rows[e:e + 2 * X + 1])


def _assert_time_sums_match_one_step(law, start, mode, X, K):
    """time_sums in blocks of dp.BLOCK_STEPS against one-step blocks,
    whose groups of d steps, G/d at a time, add up to the block run's
    groups of G = lcm(BLOCK_STEPS, d).  Every sum of the nonnegative
    weights w_k(0) and w_k(-x) lies within gamma_(3 n_k) of the larger, n_k
    the larger of the two runs' counts (potential._rounding_gamma), plus
    both runs' cut, twice for a free stream's terms w_k(0) - w_k(-x): each
    run rounds within gamma_(n_k), and the one-step run's count of k terms
    holds the G/d added here.  Returns both runs' time_sums."""
    d = dp.period(law.pmf_array()[1])
    runs, gamma = [], 0.0
    for b in (dp.BLOCK_STEPS, 1):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dp, "BLOCK_STEPS", b)
            runs.append(potential.time_sums(law, start, mode, X, K))
            gamma = max(gamma, potential._rounding_gamma(law, K))
    (acc, blocks, cut, mass, origin), (acc1, blocks1, cut1, mass1, origin1) \
        = runs
    at = np.arange(0, len(origin1), math.lcm(dp.BLOCK_STEPS, d) // d)
    blocks1, origin1 = (np.add.reduceat(v, at) for v in (blocks1, origin1))
    err = cut + cut1
    terms = 2.0 * err if mode == dp.FREE else err   # site 0 empty otherwise
    first = np.full(2 * X + 1, float(start == 0))   # the k = 0 term
    if abs(start) <= X:
        first[X - start] -= 1.0

    def close(a, b, S, err):
        return (np.abs(a - b) <= gamma * S + err).all()

    # the sums of w_k(0) + w_k(-x), from each run's own
    assert close(acc, acc1, np.maximum(2.0 * origin.sum() - acc,
                                       2.0 * origin1.sum() - acc1) + first,
                 terms)
    assert close(blocks, blocks1, np.maximum(2.0 * origin[:, None] - blocks,
                                             2.0 * origin1[:, None]
                                             - blocks1), terms)
    assert close(origin, origin1, np.maximum(origin, origin1), err)
    assert close(mass, mass1, max(mass, mass1), err)
    return runs


@_BLOCK_LAWS
@pytest.mark.parametrize("mode", [dp.POINT, dp.HALFLINE])
def test_absorbed_time_sums_in_blocks(pairs, mode):
    """time_sums of an absorbed stream reads a block's summed row off the
    far sites' matrix product and the strip's summed rows, the last block,
    of the K mod L steps left, included: against one-step blocks, within
    the rounding bound and the cut (_assert_time_sums_match_one_step);
    site 0 holds no mass in either, to the bit."""
    law = build_law(pairs, "law")
    runs = _assert_time_sums_match_one_step(law, 2, mode, 5, 1000)
    assert not runs[0][4].any() and not runs[1][4].any()


@pytest.mark.parametrize("pairs", [
    [(-1, "6/103"), (0, "91/103"), (1, "6/103")],             # lazy walk
    [(z, "1/5") for z in range(-2, 3)],                       # sym5
    W3_PAIRS,
    [(-7, "3/10"), (3, "7/10")],                              # period 10
], ids=["lazy", "sym5", "w3", "p10"])
@pytest.mark.parametrize("mode", [dp.FREE, dp.POINT, dp.HALFLINE])
def test_time_sums_in_groups_match_one_step_blocks(pairs, mode):
    """time_sums in every mode, from 0 (free) or 2, in blocks of 64 steps
    and groups of lcm(64, d) against one-step blocks: 1000 steps are 15
    groups of 64 and one of 40 on d = 1, three of 320 and one of 40 on
    the period-10 law."""
    law = build_law(pairs, "law")
    start = 0 if mode == dp.FREE else 2
    _assert_time_sums_match_one_step(law, start, mode, 7, 1000)


@pytest.mark.parametrize("pairs", [SPAN3_PAIRS, [(-7, "3/10"), (3, "7/10")]],
                         ids=["span3", "p10"])
@pytest.mark.parametrize("mode", [dp.FREE, dp.POINT, dp.HALFLINE])
def test_time_sums_read_rotating_phases_by_class(pairs, mode, monkeypatch):
    """time_sums reads its rows after the stream, one product per class
    (phase, r) of the bands: on span3 (d = 3) and the period-10 law an
    8-step block moves the column phase, so consecutive blocks fall in
    other classes, and K = 1020 is not a multiple of L = 8, so the last
    block of 4 steps is a class of its own.  Against one-step blocks
    within the rounding bound and the cut
    (_assert_time_sums_match_one_step)."""
    monkeypatch.setattr(dp, "BLOCK_STEPS", 8)
    law = build_law(pairs, "law")
    start, K = (0 if mode == dp.FREE else 2), 1020
    classes, stream = [], dp._steps

    def watched(*args, **kwargs):
        for item in stream(*args, **kwargs):
            classes.append((item[5].phase, item[5].r))
            yield item

    monkeypatch.setattr(dp, "_steps", watched)
    _assert_time_sums_match_one_step(law, start, mode, 7, K)
    blocks = [c for c in classes if c[1] > 1]       # the 8-step run's
    assert len(blocks) == K // 8 + 1 and blocks[-1][1] == K % 8
    assert len({phase for phase, _ in blocks[:-1]}) > 1
    assert all(a != b for a, b in zip(blocks, blocks[1:]))


def _laid_back(w):
    """The strided window w on consecutive sites, with exact zeros on the
    sites between: the layout run_dp once returned, kept as the
    reference for the strided Window."""
    out = np.zeros(max(w.stride * (len(w.weights) - 1) + 1, 0))
    out[::w.stride] = w.weights
    return dp.Window(w.offset, out)


@settings(max_examples=40, deadline=None)
@given(st.one_of(periodic_laws(), zero_mean_laws()), st.integers(1, 6),
       st.integers(1, 200), st.sampled_from([dp.FREE, dp.POINT,
                                             dp.HALFLINE]),
       st.integers(-400, 400), st.integers(-400, 400), st.integers(0, 60))
def test_strided_window_matches_its_laid_back_window(law, x, n, mode, lo,
                                                     hi, z):
    """prob, sites, mass, restricted_sum, dot and reflected of a DP
    window of stride period(pmf) agree with the same window laid back
    on consecutive sites: in and around the window, over bounds on and
    off the coset, and for dots on the same coset and on another one."""
    zmin, pmf = law.pmf_array()
    d = dp.period(pmf)
    a = dp.run_dp(x, np.ones(1), zmin, pmf, n, mode=mode, alpha=0.5)
    ref = _laid_back(a)
    assert a.stride == d
    ys = range(a.offset - 2 * d - 1, a.offset + d * len(a.weights) + 2 * d)
    assert [a.prob(y) for y in ys] == [ref.prob(y) for y in ys]
    assert np.array_equal(a.sites(), ref.sites()[::d])
    assert a.mass() == pytest.approx(ref.mass(), rel=1e-14, abs=0.0)
    for lo_, hi_ in ((lo, hi), (lo, -1), (a.offset + lo % d, hi),
                     (lo, a.offset - 1 + hi % d)):
        assert a.restricted_sum(lo_, hi_) == pytest.approx(
            ref.restricted_sum(lo_, hi_), rel=1e-14, abs=0.0)

    # dot with a window of the reflected law, of the same stride, on the
    # coset of a and on another one (for d > 1)
    rz, rpmf = law.reflected().pmf_array()
    b = dp.run_dp(x, np.ones(1), rz, rpmf, n // 2 + 1, mode=mode)
    for t in (a.offset + b.offset + d * z, a.offset + b.offset + d * z + 1):
        ab, ref_ab = a.dot(b.reflected(t)), ref.dot(_laid_back(b).reflected(t))
        assert ab == pytest.approx(ref_ab, rel=1e-14, abs=0.0)
        if (t - a.offset - b.offset) % d:
            assert ab == 0.0
        bt, ref_bt = b.reflected(t), _laid_back(b).reflected(t)
        assert bt.stride == d
        assert [bt.prob(y) for y in ys] == [ref_bt.prob(y) for y in ys]


def _no_dp(*args, **kwargs):
    raise AssertionError("a DP ran")


def _free_kernels(law):
    """A WalkKernels of the law alone: p_n and the right-hand sides' free
    factor asymptotics._p_n read only the law, so the tables are left
    out."""
    return WalkKernels(law, moments(law), lattice_structure(law),
                       *[None] * 7)


def _assert_p_n_at_is_the_dp(law, n):
    """The free factor p^n(z) of the right-hand sides (asymptotics._p_n,
    the tilted Fourier rule) against the free run p_n(n), at nine sites
    spread over |z| <= 4 sqrt(n) and the site after each: exactly 0.0 off
    the walk's coset, and elsewhere within the rule's bound plus the
    run's rounding and cut."""
    kernels = _free_kernels(law)
    full = kernels.p_n(n)
    gamma = potential._rounding_gamma(law, n)
    r = 4 * math.sqrt(n)
    for z in {round(-r + i * r / 4) + e for i in range(9) for e in (0, 1)}:
        got, want = asymptotics._p_n(kernels, n, z), full.prob(z)
        if not kernels.structure.reachable(n, z):
            assert got == want == 0.0, (n, z, got)
        bound = potential.p_fourier(law, n, z)[1]
        assert abs(got - want) <= bound + gamma * want + full.cut, \
            (n, z, got, want)


_P_N_AT_NS = (1, 2, 257, 1024, 4096)


@pytest.mark.parametrize("pairs", [
    SRW_PAIRS, L1_PAIRS, SPAN3_PAIRS,
    [(z, "1/4") for z in (-3, -1, 1, 3)],                     # odd4
], ids=["srw", "l1", "span3", "odd4"])
@pytest.mark.parametrize("n", _P_N_AT_NS)
def test_p_n_at_is_the_dp_on_fixtures(pairs, n):
    _assert_p_n_at_is_the_dp(build_law(pairs, "law"), n)


@settings(max_examples=10, deadline=None)
@given(periodic_laws())
def test_p_n_at_is_the_dp_on_periodic_laws(law):
    for n in _P_N_AT_NS:
        _assert_p_n_at_is_the_dp(law, n)


@settings(max_examples=20, deadline=None)
@given(st.one_of(zero_mean_laws(), periodic_laws()),
       st.sampled_from([1, 2, 7, 33, 64]))
@example(build_law([(-7, Fraction(1, 96)), (-1, Fraction(40, 96)),
                    (0, Fraction(8, 96)), (1, Fraction(47, 96))], "law"), 64)
def test_p_n_at_against_rationals(law, n):
    """The right-hand sides' free factor, with no DP, lies within the
    rule's bound plus the rounding of the rational value to a float of
    p^n(z) from the rational DP, at every site the walk reaches.  The
    example's p^64(-448) = 96^-64 is the support's end, q_0^n."""
    kernels = _free_kernels(law)
    exact = engine.evolve_free_exact(law, 0, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp, "_steps", _no_dp)
        for z, v in exact.items():
            want = float(v)
            bound = potential.p_fourier(law, n, z)[1]
            assert abs(asymptotics._p_n(kernels, n, z) - want) <= \
                bound + 2.0 ** -53 * want, z


def test_p_n_at_off_the_coset_runs_no_dp(span3, monkeypatch):
    """span3 has period 3 and shift 2: z = 0 is reachable only at n = 0
    mod 3, so at n = 8192 the free factor reads 0.0, as the DP gives, with
    no DP."""
    monkeypatch.setattr(dp, "_steps", _no_dp)
    assert asymptotics._p_n(_free_kernels(span3), 8192, 0) == 0.0


def _fraction_dp(law, x, n, killed=None):
    """The rational DP in Fractions, step by step: the reference for the
    integer-numerator DP.  Each step removes the mass at every site s
    with killed(s), into {(k, s): mass}."""
    cur, removed = {x: Fraction(1)}, {}
    for k in range(1, n + 1):
        out = {}
        for s, m in cur.items():
            for z, w in law.items():
                out[s + z] = out.get(s + z, Fraction(0)) + m * w
        cur = out
        for s in [s for s in cur if killed and killed(s)]:
            removed[k, s] = cur.pop(s)
    return cur, removed


@settings(max_examples=20, deadline=None)
@given(zero_mean_laws(), st.integers(-6, 6), st.integers(0, 24))
@example(build_law(SRW_PAIRS, "srw"), 3, 24)
@example(build_law(SPAN3_PAIRS, "span3"), -2, 24)
@example(build_law([(z, "1/4") for z in (-3, -1, 1, 3)], "odd4"), 3, 24)
@example(build_law([(z, "1/65") for z in range(-32, 33)], "u32"), -2, 6)
def test_integer_rational_dp_equals_fractions(law, x, n):
    """Equal Fraction dicts, and equal passage and entrance laws, on
    random laws and on four fixtures; u32 stops at 6 steps, as the
    Fraction loop is slow over 65 jumps."""
    assert engine.absorbed_at_origin_exact(law, x, n) == \
        _fraction_dp(law, x, n, lambda s: s == 0)
    assert engine.absorbed_on_halfline_exact(law, abs(x) + 1, n) == \
        _fraction_dp(law, abs(x) + 1, n, lambda s: s <= 0)
    assert engine.evolve_free_exact(law, x, n) == _fraction_dp(law, x, n)[0]

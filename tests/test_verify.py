"""Invariant suite, scaled comparison grids, region gating, and
convergence summaries."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walklab import (asymptotics, build_law, dp, engine, ladder, potential,
                     verify)
from walklab.asymptotics import THEOREMS, TheoremId
from walklab.errors import (ConstraintViolation, OutOfWindow,
                            TailNotNegligible, WalklabError)
from walklab.kernels import build_kernels
from walklab.laws import lattice_structure
from walklab.report import csv_text, emit_comparison, summary_text
from walklab.verify import (EXACT, GridSpec, _half_dot, _stream,
                            compare_grid, convergence_report,
                            invariant_suite)

from conftest import (DEEP_PAIRS, L1_PAIRS, SPAN3_PAIRS, SRW_PAIRS,
                      periodic_laws, zero_mean_laws)

PERIOD2_PAIRS = [(-1, "5/8"), (1, "1/4"), (3, "1/8")]


class TestInvariantSuite:
    @pytest.mark.parametrize("fixture", ["srw", "l1", "span3"])
    def test_all_pass(self, fixture, request):
        law = request.getfixturevalue(fixture)
        kernels = request.getfixturevalue(fixture + "_kernels")
        results = invariant_suite(law, kernels=kernels, n_big=512)
        failures = [r for r in results if r.status == "fail"]
        assert not failures, failures

    def test_reflection_oracle_runs_for_unit_walk(self, srw, srw_kernels):
        results = invariant_suite(srw, kernels=srw_kernels, n_big=256)
        names = {r.name: r.status for r in results}
        refl = [s for n, s in names.items() if "reflection" in n]
        assert refl and all(s == "pass" for s in refl)

    def test_left_continuity_checks_skipped_with_reason(self, l1,
                                                        l1_kernels):
        results = invariant_suite(l1, kernels=l1_kernels, n_big=256)
        skipped = [r for r in results if r.status == "skip"]
        assert skipped
        assert all(r.detail for r in skipped)

    def test_works_without_kernels(self, l1):
        results = invariant_suite(l1, kernels=None, n_big=256)
        assert all(r.status in ("pass", "skip") for r in results)

    def test_period_61_law(self):
        """{-41: 20/61, 20: 41/61}: every DP of the suite runs on one coset
        of 61Z, so the whole suite takes about a second."""
        law = build_law([(-41, "20/61"), (20, "41/61")], "p61")
        results = invariant_suite(law, kernels=build_kernels(law))
        failures = [r.name for r in results if r.status == "fail"]
        # every row passes, the Green rows too: their bound holds for
        # every law (the point row reads gap/bound 0.56 here)
        assert failures == []

    def test_odd_n_big_splits_chapman_kolmogorov(self, span3, monkeypatch):
        monkeypatch.setattr(dp, "BLOCK_STEPS", 1)
        results = invariant_suite(span3, kernels=None, n_big=257)
        ck = [r for r in results if r.name.startswith("Chapman")]
        assert [r.name[-9:] for r in ck] == ["(128+129)"] * 2
        assert all(r.status == "pass" for r in ck), ck
        # in one-step blocks, the free run takes 128 steps, one more to 129,
        # then 128 more: the single 257-step run bit for bit, so the mass
        # row keeps its value
        rows = {r.name: r for r in results}
        assert rows["free kernel by Chapman-Kolmogorov n=257"].status == "pass"
        assert rows["free mass n=257"].residual == abs(
            engine.evolve_free(span3, 0, 257).mass() - 1.0)

    def test_suite_step_budget(self, l1, l1_kernels, srw, srw_kernels,
                               monkeypatch):
        """One DP stream per (increments, weights, start, mode), run up to
        its last snapshot.  l1: 4096 steps each of free, point and halfline
        from 1, 2048 each of the reflected law's point and halfline from
        1, 256 each from 3 and from 5 in both modes, and 1024 each of the
        two Green partial sums (potential.time_sums, which caches nothing,
        so the count does not depend on the tests run before).  srw is its
        own reflection, so its reflected runs are its runs from 1 and 5,
        and the reflection oracle adds 512 from 2 and extends the point run
        from 5 to 512.  A stream run past its last read, or a reflected run
        that the law already has, changes the count (41,009 steps on l1
        when each check ran its own DP, 27,136 when the x=3 streams ran to
        n_big).  The count is of steps: the free streams run in one-step
        blocks here."""
        monkeypatch.setattr(dp, "BLOCK_STEPS", 1)
        steps, count = dp._steps, [0]

        def counted(*args, **kwargs):
            for item in steps(*args, **kwargs):
                count[0] += 1
                yield item

        monkeypatch.setattr(dp, "_steps", counted)
        for law, kernels, want in ((l1, l1_kernels, 19_456),
                                   (srw, srw_kernels, 16_128)):
            count[0] = 0
            invariant_suite(law, kernels=kernels, n_big=4096)
            assert count[0] == want <= 28_000, law.name

    def test_mass_rows_name_their_n(self, l1):
        """Mass bookkeeping reads x=1 at n_big, x=3 at 256 and the
        reflected law from 1 at n_big - n_big // 2, each row naming its n."""
        names = [r.name for r in invariant_suite(l1, n_big=513)
                 if "mass bookkeeping" in r.name or "vanishes" in r.name]
        assert names == [
            "point mass bookkeeping x=1 n=513",
            "point kernel vanishes at 0, x=1 n=513",
            "halfline mass bookkeeping x=1 n=513",
            "point mass bookkeeping x=3 n=256",
            "point kernel vanishes at 0, x=3 n=256",
            "halfline mass bookkeeping x=3 n=256",
            "point mass bookkeeping x=1 n=257, reflected law",
            "halfline mass bookkeeping x=1 n=257, reflected law"]


@pytest.mark.parametrize("pairs", [L1_PAIRS, SPAN3_PAIRS, SRW_PAIRS],
                         ids=["l1", "span3", "srw"])
def test_suite_walks_each_strip_once(pairs, monkeypatch):
    """The suite walks each strip (dp._plan, keyed by strip) once: the two
    Green time sums run first and walk their strips with rows, and the
    row-less streams of the same strips read those plans (span3 visits 3
    phases).  Its results do not depend on which stream walks a strip
    first: after a suite without kernels has walked every strip without
    rows, the Green streams walk theirs again with rows, and the suite
    reads as it does from an empty cache."""
    law = build_law(pairs, "law")
    kernels = build_kernels(law)
    walk, walks = dp._walk, []

    def counted(taps, zmin, d, mode, alpha, L, rho, X):
        walks.append((taps.tobytes(), zmin, d, mode, alpha, L, rho))
        return walk(taps, zmin, d, mode, alpha, L, rho, X)

    monkeypatch.setattr(dp, "_walk", counted)
    dp._plan_slot.cache_clear()
    first = invariant_suite(law, kernels)
    assert walks and len(walks) == len(set(walks))
    dp._plan_slot.cache_clear()
    invariant_suite(law)
    walks.clear()
    assert invariant_suite(law, kernels) == first
    assert walks and len(walks) == len(set(walks))


def _same(a, b):
    return a is b is None or (a.shape == b.shape
                              and a.tobytes() == b.tobytes())


_STREAM_LAWS = pytest.mark.parametrize("pairs", [
    SRW_PAIRS, L1_PAIRS, SPAN3_PAIRS,
    [(-41, "20/61"), (20, "41/61")],                          # period 61
    PERIOD2_PAIRS,
], ids=["srw", "l1", "span3", "p61", "period2"])


@_STREAM_LAWS
def test_stream_snapshots_are_fresh_runs(pairs, monkeypatch):
    """With one-step blocks, each snapshot of one stream, extended past
    the edge cut, is the fresh run of its length bit for bit, with its
    passage and entrance tables covering every step and the cut mass of
    every step."""
    monkeypatch.setattr(dp, "BLOCK_STEPS", 1)
    law = build_law(pairs, "law")
    zmin, pmf = law.pmf_array()
    for mode in (dp.FREE, dp.POINT, dp.HALFLINE):
        for n, got in _stream(law, 3, mode, (257, 2048, 4096)).items():
            want = dp.run_dp(3, np.ones(1), zmin, pmf, n, mode)
            assert (got.offset, got.entry_base) == (want.offset,
                                                    want.entry_base)
            for a, b in ((got.weights, want.weights),
                         (got.absorbed, want.absorbed),
                         (got.entry, want.entry)):
                assert _same(a, b), (mode, n)
            assert got.cut == pytest.approx(want.cut, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("pairs", [
    L1_PAIRS, SPAN3_PAIRS, [(-41, "20/61"), (20, "41/61")],
], ids=["l1", "span3", "p61"])
def test_free_snapshots_on_block_ends_are_fresh_runs(pairs):
    """A free snapshot at a multiple of dp.BLOCK_STEPS ends a block, so
    the stream extended from it takes the fresh run's blocks: 0 -> 256 ->
    4096 gives the 4096-step run's weights bit for bit, and its cut, the
    same nonnegative block cuts summed in another order, within
    2 gamma_m relative of it, m the number of blocks."""
    assert 256 % dp.BLOCK_STEPS == 0
    law = build_law(pairs, "law")
    zmin, pmf = law.pmf_array()
    got = _stream(law, 0, dp.FREE, (256, 4096))[4096]
    want = dp.run_dp(0, np.ones(1), zmin, pmf, 4096)
    assert got.offset == want.offset
    assert _same(got.weights, want.weights)
    assert got.cut == pytest.approx(
        want.cut, rel=2 * potential._gamma(4096 // dp.BLOCK_STEPS), abs=0.0)


@_STREAM_LAWS
def test_domination_reads_the_free_stream_shifted(pairs):
    """The suite's free side of domination, p^256(3, .), is the free
    stream's 256-step window from 0 shifted by 3: the run from 3, bit for
    bit, as the DP's arithmetic and its cut read the weights alone."""
    law = build_law(pairs, "law")
    got = _stream(law, 0, dp.FREE, (256, 257))[256]
    want = engine.evolve_free(law, 3, 256)
    assert got.offset + 3 == want.offset and got.cut == want.cut
    assert _same(got.weights, want.weights)


@pytest.mark.parametrize("mode", [dp.POINT, dp.HALFLINE])
def test_green_partial_sums_carry_the_cut(l1, mode, monkeypatch):
    """Each Green partial sum that potential.time_sums reads at x = -y
    lies within its error of the uncut stream's (dp.CUT = 0 cuts no
    nonzero weight), and that error is the summed cut, nonzero and below
    1e-50 on l1 up to 1024 steps; so does the mass left."""
    for K in (256, 1024):
        acc, _, err, mass, _ = potential.time_sums(l1, 2, mode, 3, K)
        with monkeypatch.context() as m:
            m.setattr(dp, "CUT", 0.0)
            ref, _, zero, ref_mass, _ = potential.time_sums(l1, 2, mode, 3,
                                                           K)
        assert zero == 0.0 and 0.0 < err < 1e-50
        assert abs(acc[0] - ref[0]) <= err + 1e-15 * abs(ref[0])
        assert abs(mass - ref_mass) <= err + 1e-15 * ref_mass


@pytest.mark.parametrize("mode", [dp.POINT, dp.HALFLINE])
@pytest.mark.parametrize("pairs", [L1_PAIRS, PERIOD2_PAIRS],
                         ids=["l1", "period2"])
def test_green_sums_after_the_window_empties(pairs, mode, monkeypatch):
    """A cut that empties the absorbed window ends the stream early, on
    the period-2 law within a block of two steps: the steps already
    collected still count, and each later step adds the last cut to the
    error.  The sums are the stream's own, step by step, in one-step
    blocks."""
    monkeypatch.setattr(dp, "BLOCK_STEPS", 1)
    monkeypatch.setattr(dp, "CUT", 2e-3)
    law = build_law(pairs, "law")
    zmin, pmf = law.pmf_array()
    want, ends, err = np.zeros(7), 0, 0.0
    want[3 - 2] = -1.0                      # the start, at x = -2
    for k, off, cur, _, cut, _ in dp._steps(2, np.ones(1), zmin, pmf, 1024,
                                            mode, 1.0):
        w = dp.Window(off, cur, dp.period(pmf))
        want -= [w.prob(-x) for x in range(-3, 4)]
        ends, err = k, err + cut
    assert 0 < ends < 1024
    acc, _, got_err, mass, _ = potential.time_sums(law, 2, mode, 3, 1024)
    assert np.array_equal(acc, want) and mass == 0.0
    assert got_err == err + (1024 - ends) * cut
    if len(pairs) == 3:
        assert ends % 2 == 1                # the stream ends mid-block


@settings(max_examples=10, deadline=None)
@given(law=st.one_of(zero_mean_laws(), periodic_laws()))
def test_green_rows_hold_for_any_law(law):
    """0 <= G(2,3) - S_K <= G(3,3) P_2[T > K] is a theorem, so both Green
    rows pass on every valid law."""
    rows = [r for r in invariant_suite(law, build_kernels(law), n_big=64)
            if r.name.startswith("green")]
    assert [r.status for r in rows] == ["pass", "pass"], rows


@pytest.mark.parametrize("scale", [1.02, 0.93])
def test_green_rows_catch_a_wrong_green_function(l1, l1_kernels, scale,
                                                 monkeypatch):
    """On l1 the point row fails a Green function 2% too high or 7% too
    low, and so does the half-line row."""
    point, half = potential.green_point, ladder.green_halfline
    monkeypatch.setattr(potential, "green_point",
                        lambda *a: scale * point(*a))
    monkeypatch.setattr(ladder, "green_halfline",
                        lambda *a: scale * half(*a))
    rows = [r for r in invariant_suite(l1, l1_kernels, n_big=64)
            if r.name.startswith("green")]
    assert [r.status for r in rows] == ["fail", "fail"], rows


class TestRegionGating:
    def test_cells_outside_region_raise(self, l1_kernels):
        spec = GridSpec(TheoremId.T11i, ns=(64,), xis=(5.0,), etas=(0.2,),
                        a_circ=2.0)
        with pytest.raises(ConstraintViolation):
            compare_grid(spec, l1_kernels)

    def test_same_sign_required(self, l1_kernels):
        spec = GridSpec(TheoremId.T11ii, ns=(256,), xis=(0.2,),
                        etas=(-0.2,))
        with pytest.raises(ConstraintViolation):
            compare_grid(spec, l1_kernels)

    def test_halfline_theorem_needs_positive_sites(self, l1_kernels):
        spec = GridSpec(TheoremId.T13, ns=(256,), xis=(0.2,), etas=(-0.2,))
        with pytest.raises(ConstraintViolation):
            compare_grid(spec, l1_kernels)


# In-domain grids for the ids whose default cell (xi = eta = 0.2) is outside.
IN_DOMAIN = {
    TheoremId.T12_refined: dict(etas=(-0.2,)),
    TheoremId.T11iii_bound: dict(xis=(0.02,), etas=(2.0,)),
    TheoremId.T14: dict(ys_literal=(0, -1, -2)),
    TheoremId.EQ14bound: dict(ys_literal=(0, -1, -2)),
}


def _no_dp(*args, **kwargs):
    raise AssertionError("a DP ran")


def _no_rule(*args, **kwargs):
    raise AssertionError("the Fourier rule ran")


class TestTheoremTable:
    def test_one_entry_per_id(self):
        assert set(THEOREMS) == set(TheoremId)
        assert all(t.id is i for i, t in THEOREMS.items())

    def test_every_exact_side_is_one_record(self):
        # each theorem names a record of verify.EXACT, and each record is
        # named by some theorem
        assert {t.exact for t in THEOREMS.values()} == set(EXACT)

    @pytest.mark.parametrize("theorem", list(TheoremId),
                             ids=lambda t: t.value)
    def test_every_theorem_compares(self, theorem, l1_kernels):
        spec = GridSpec(theorem, ns=(64, 256), **IN_DOMAIN.get(theorem, {}))
        rep = compare_grid(spec, l1_kernels)
        assert rep.rows
        for r in rep.rows:
            assert r.rel_err == abs(r.exact - r.rhs) / max(abs(r.exact),
                                                           1e-16)

    @pytest.mark.parametrize("theorem", list(TheoremId),
                             ids=lambda t: t.value)
    def test_unread_fields_change_nothing(self, theorem, l1_kernels):
        """A field that unread_fields would report, set away from its
        default, leaves the grid's rows, skips and tail bounds, or its
        error, as they were: the declarations (Exact.reads,
        Theorem.extras, Theorem.gated) name every field a grid reads."""
        base = GridSpec(theorem, ns=(64, 256), **IN_DOMAIN.get(theorem, {}))
        moved = dict(xis=(0.3,), etas=(0.4,), ys_literal=(-1,), alpha=0.3,
                     ell=2.0, a_circ=3.0)
        spec = dataclasses.replace(base, **moved)
        unread = verify.unread_fields(spec)
        other = dataclasses.replace(base, **{f: moved[f] for f in unread})
        assert verify.unread_fields(other) == unread

        def outcome(s):
            try:
                rep = compare_grid(s, l1_kernels)
            except WalklabError as e:
                return type(e), e.args
            return rep.rows, rep.skipped, rep.tail_bounds

        assert outcome(other) == outcome(base)

    def test_unread_fields_by_theorem(self):
        spec = dict(xis=(0.3,), etas=(0.4,), ys_literal=(-1,), alpha=0.3,
                    ell=2.0, a_circ=3.0)
        unread = {t.value: verify.unread_fields(GridSpec(t, **spec))
                  for t in TheoremId}
        # in GridSpec's order: xis, etas, a_circ, alpha, ell, ys_literal
        scaled = ["a_circ", "alpha", "ell", "ys_literal"]
        at_x = ["etas", "a_circ", "alpha", "ell", "ys_literal"]
        assert unread == {
            "T11i": ["alpha", "ell", "ys_literal"],
            "T11ii": scaled, "T11iii_bound": scaled,
            "T12_refined": ["alpha", "ell", "ys_literal"],
            "T13": scaled, "IVbound": scaled,
            "T14": ["etas", "a_circ", "alpha", "ell"],
            "EQ14bound": ["etas", "a_circ", "alpha", "ell"],
            "C11": at_x, "P12_Qplus": at_x, "ThmA_passage": at_x,
            "T15_nu": ["xis", *at_x],
            "C12_particles": ["xis", "etas", "a_circ", "alpha",
                              "ys_literal"],
            "P61_ralpha": ["a_circ", "ell", "ys_literal"]}
        # a field at its default is never reported
        assert all(verify.unread_fields(GridSpec(t)) == [] for t in TheoremId)

    @pytest.mark.parametrize("theorem, grid, error, message", [
        (TheoremId.T11i, dict(xis=(5.0,)), ConstraintViolation,
         "T11i: |x| v |y| = 46 exceeds a_circ sqrt(n*) = 18.5 at n=64"),
        (TheoremId.T11ii, dict(etas=(-0.2,)), ConstraintViolation,
         "T11ii requires xy > 0"),
        (TheoremId.T11iii_bound, {}, ConstraintViolation,
         "T11iii_bound requires 0 < |x|^|y| < sqrt(n) < |x|v|y|"),
        (TheoremId.T12_refined, {}, ConstraintViolation,
         "T12_refined requires y < 0 < x"),
        (TheoremId.T13, dict(etas=(-0.2,)), ConstraintViolation,
         "T13 requires x, y >= 1"),
        # the potential table holds a(x) for |x| <= 80; x = 96 at n = 16384
        (TheoremId.T11i, dict(ns=(256, 1024, 4096, 16384), xis=(0.65,)),
         OutOfWindow, "x=96 outside [\u221280, 80]"),
        # the harmonic pair holds f_+(x) for x <= 400; x = 440 at n = 16384
        (TheoremId.T13, dict(ns=(256, 16384), xis=(3.0,)), OutOfWindow,
         "x=440 outside 1..400"),
    ], ids=["a_circ", "same_sign", "T11iii_window", "opposite_sign",
            "halfline", "table_window", "pair_window"])
    def test_out_of_domain_grid_raises(self, theorem, grid, error, message,
                                       l1_kernels, monkeypatch):
        """A cell outside the domain or the windows fails the grid before
        its first DP, whatever its n."""
        monkeypatch.setattr(dp, "_steps", _no_dp)
        spec = GridSpec(theorem, **{"ns": (64, 256), **grid})
        with pytest.raises(error) as e:
            compare_grid(spec, l1_kernels)
        assert e.value.args == (message,)

    @pytest.mark.parametrize("theorem", [
        TheoremId.T14, TheoremId.C11, TheoremId.P12_Qplus,
        TheoremId.ThmA_passage, TheoremId.EQ14bound], ids=lambda t: t.value)
    def test_start_at_origin_raises(self, theorem):
        # the scaled grid never places x at 0, so the cell check is called
        with pytest.raises(ConstraintViolation) as e:
            THEOREMS[theorem].check(0, -1, 64, 18.5)
        assert str(e.value) == f"{theorem.value} requires x != 0"


class TestPlan:
    """compare_grid checks every cell, and evaluates its right-hand side with
    no DP, before the first DP of the grid."""

    def test_nu_tail_fails_before_the_first_dp(self, monkeypatch):
        # the tail of the deep law is not bounded at n = 2; n = 256 comes
        # first in the grid
        law = build_law(DEEP_PAIRS, "deep")
        k = build_kernels(law)
        monkeypatch.setattr(dp, "_steps", _no_dp)
        for theorem in (TheoremId.T15_nu, TheoremId.C12_particles):
            with pytest.raises(TailNotNegligible,
                               match="x_max below twice the largest"):
                compare_grid(GridSpec(theorem, ns=(256, 2)), k)

    def test_one_exact_run_per_start(self, l1_kernels, monkeypatch):
        """xi = 0.01 and 0.02 both start at x = 1, 2, 4 on l1, with one y:
        the two half streams of that (x, y) per n, and the rows of the two
        single-xi grids, in grid order."""
        spec = dict(ns=(256, 1024, 4096), etas=(0.2,))
        want = sorted(
            [r for xi in (0.01, 0.02) for r in compare_grid(
                GridSpec(TheoremId.T11ii, xis=(xi,), **spec),
                l1_kernels).rows], key=lambda r: r.n)
        steps, streams = dp._steps, []

        def counted(*args, **kwargs):
            streams.append(args[4])
            return steps(*args, **kwargs)

        monkeypatch.setattr(dp, "_steps", counted)
        rep = compare_grid(GridSpec(TheoremId.T11ii, xis=(0.01, 0.02),
                                    **spec), l1_kernels)
        assert streams == [128, 128, 512, 512, 2048, 2048]
        assert [(r.x, r.xi) for r in rep.rows] == [
            (1, 0.01), (1, 0.02), (2, 0.01), (2, 0.02), (4, 0.01),
            (4, 0.02)]
        assert rep.rows == want

    @pytest.mark.parametrize("theorem", [
        TheoremId.T11i, TheoremId.T13, TheoremId.P61_ralpha],
        ids=lambda t: t.value)
    def test_rhs_runs_no_free_stream(self, theorem, l1_kernels,
                                     monkeypatch):
        """p^n(y - x) of the right-hand side comes from the tilted Fourier
        rule: every stream the grid runs is an exact side's, none free."""
        steps, modes = dp._steps, []

        def counted(*args, **kwargs):
            modes.append(args[5])
            return steps(*args, **kwargs)

        monkeypatch.setattr(dp, "_steps", counted)
        rep = compare_grid(GridSpec(theorem, ns=(256, 1024, 4096)),
                           l1_kernels)
        assert len(rep.rows) >= 3
        assert modes and dp.FREE not in modes

    @pytest.mark.parametrize("theorem, rows", [
        (TheoremId.T11i, 12), (TheoremId.P61_ralpha, 24)],
        ids=["T11i", "P61_ralpha"])
    def test_one_rhs_per_cell(self, theorem, rows, l1_kernels, monkeypatch):
        """The plan evaluates each cell's right-hand side once, and the
        grid reads that value: 2 xis x 2 etas x 3 ns make 12 calls, and
        one call gives both of P61_ralpha's form rows."""
        rhs, calls = asymptotics.rhs, []

        def counted(*args, **kwargs):
            calls.append(args[2:5])
            return rhs(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "rhs", counted)
        rep = compare_grid(GridSpec(theorem, ns=(64, 256, 1024),
                                    xis=(0.2, 0.4), etas=(0.2, 0.4)),
                           l1_kernels)
        assert len(calls) == len(set(calls)) == 12
        assert len(rep.rows) == rows

    @pytest.mark.parametrize("theorem, xi, message", [
        (TheoremId.T11i, 0.65, "x=96 outside [\u221280, 80]"),
        (TheoremId.T13, 3.0, "x=440 outside 1..400"),
        (TheoremId.P61_ralpha, 0.65, "x=96 outside [\u221280, 80]")],
        ids=["T11i", "T13", "P61_ralpha"])
    def test_window_fails_before_quadrature(self, theorem, xi, message,
                                            l1_kernels, monkeypatch):
        """A grid whose start leaves the a(x) table or the harmonic pair
        raises OutOfWindow with no DP and no Fourier rule: each formula
        reads its table and pair before it calls the rule for p^n."""
        monkeypatch.setattr(dp, "_steps", _no_dp)
        monkeypatch.setattr(asymptotics, "p_fourier", _no_rule)
        with pytest.raises(OutOfWindow) as e:
            compare_grid(GridSpec(theorem, ns=(16384, 256), xis=(xi,)),
                         l1_kernels)
        assert e.value.args == (message,)

    @pytest.mark.parametrize("theorem", [
        TheoremId.T11i, TheoremId.T11ii, TheoremId.T13],
        ids=lambda t: t.value)
    def test_off_lattice_cells_run_no_dp(self, theorem, span3_kernels,
                                         monkeypatch):
        """Every cell of span3 on the default grid is off the walk's
        congruence class.  T11i, T11ii and T13 carry the lattice factor:
        the exact side is 0.0 with no DP, as the n-step run gave, and so is
        the right-hand side, with no DP for a free factor p^n(0)."""
        monkeypatch.setattr(dp, "_steps", _no_dp)
        rep = compare_grid(GridSpec(theorem), span3_kernels)
        assert rep.rows == []
        assert rep.skipped == [
            f"{theorem.value} n={n} x={x} y={x}: exact = rhs = 0"
            for n, x in ((256, 5), (1024, 10), (4096, 20))]

    @pytest.mark.parametrize("theorem", [
        TheoremId.C11, TheoremId.ThmA_passage, TheoremId.T14],
        ids=lambda t: t.value)
    def test_off_lattice_reads_run_no_dp(self, theorem, span3, span3_kernels,
                                         monkeypatch):
        """On span3 (period 3) the default cells start at x = 5, 10, 20 and
        read site 0 (f_x, the passage law), the entry sites 1 + zmin..0 =
        0 (T) or y = 0 (h), which are off the coset at n = 256 and 4096:
        those cells read 0.0 with no DP, and only n = 1024 runs one.  Every
        row reads the value of the n-step run."""
        spec = GridSpec(theorem)
        ex = EXACT[THEOREMS[theorem].exact]
        steps, streams = dp._steps, []

        def counted(*args, **kwargs):
            streams.append(args[4])
            return steps(*args, **kwargs)

        monkeypatch.setattr(dp, "_steps", counted)
        rep = compare_grid(spec, span3_kernels)
        assert streams == [1024]
        monkeypatch.setattr(dp, "_steps", steps)
        exact = {n: ex.value(ex.run(span3, x, n, spec), n, 0)
                 for n, x in ((256, 5), (1024, 10), (4096, 20))}
        assert exact[256] == exact[4096] == 0.0 < exact[1024]
        assert len(rep.rows) + len(rep.skipped) == 3
        assert all(r.exact == exact[r.n] for r in rep.rows)


@settings(max_examples=60, deadline=None)
@given(law=zero_mean_laws(), n=st.integers(1, 2048), x=st.integers(1, 40),
       y=st.integers(1, 40), flip=st.booleans(),
       quantity=st.sampled_from(["point", "halfline"]))
@example(law=build_law(PERIOD2_PAIRS, "period2"), n=7, x=3, y=2, flip=True,
         quantity="point")
@example(law=build_law(PERIOD2_PAIRS, "period2"), n=40, x=5, y=2,
         flip=False, quantity="halfline")
def test_half_dot_is_the_single_run(law, n, x, y, flip, quantity):
    """The dot of the two half runs is the n-step run's q^n(x, y), for y of
    both signs (point; flip negates y) and y >= 1 (halfline), off the
    congruence class too: within n ulps, the rounding budget of n steps,
    plus the cut of the halves and of the run, which bounds what the edge
    cut moves each side by.  A point cell with n <= 48 is also within n
    ulps plus the halves' cut of the rational DP."""
    y = -y if quantity == "point" and flip else y
    runs = {}
    got = _half_dot(EXACT[quantity].run, law, x, y, n, runs)
    run = EXACT[quantity].run(law, x, n, None)
    eps = np.finfo(np.float64).eps
    cut = runs["x", x].cut + runs["y", y].cut
    assert cut + run.cut < 1e-50
    want = run.prob(y)
    assert abs(got - want) <= n * eps * want + cut + run.cut
    if quantity == "point" and n <= 48:
        v = float(engine.absorbed_at_origin_exact(law, x, n)[0].get(y, 0))
        assert abs(got - v) <= n * eps * v + cut


@settings(max_examples=80, deadline=None)
@given(law=st.one_of(zero_mean_laws(), periodic_laws()),
       n=st.integers(1, 600), x=st.integers(1, 40), y=st.integers(-12, 40))
@example(law=build_law(SPAN3_PAIRS, "span3"), n=256, x=5, y=0)
@example(law=build_law(PERIOD2_PAIRS, "period2"), n=7, x=3, y=-1)
def test_site_rule_zero_is_the_runs_value(law, n, x, y):
    """Wherever a record's site rule lists no site that the walk from x
    reaches at n, the value its n-step run gives at (n, y) is exactly
    0.0, the value compare_grid takes there with no DP.  The one value
    with no column outside its sites, h at y outside 1 + zmin..0, reads
    a run whose entry columns are exactly 1 + zmin..0."""
    struct = lattice_structure(law)
    runs = {}
    for key, ex in EXACT.items():
        if ex.sites is None or any(struct.reachable(n, z - x)
                                   for z in ex.sites(law, y)):
            continue
        if ex.run not in runs:
            runs[ex.run] = ex.run(law, x, n, None)
        run = runs[ex.run]
        if key == "h" and not 1 + law.zmin <= y <= 0:
            assert run.entry_base == 1 + law.zmin
            assert run.entry.shape == (n, -law.zmin)
            continue
        assert ex.value(run, n, y) == 0.0, key


class TestCompareGrid:
    def test_rows_well_formed(self, l1_kernels):
        rep = compare_grid(GridSpec(TheoremId.T11i, ns=(256, 1024)),
                           l1_kernels)
        assert len(rep.rows) == 2
        for r in rep.rows:
            assert r.rel_err >= 0.0
            assert r.exact > 0.0

    def test_scaled_cells_locked_across_n(self, l1_kernels):
        # n ratios that are perfect squares reuse the same base point
        rep = compare_grid(GridSpec(TheoremId.T11i, ns=(256, 1024, 4096)),
                           l1_kernels)
        xs = [r.x for r in rep.rows]
        assert xs == [xs[0], 2 * xs[0], 4 * xs[0]]

    def test_unit_walk_nu_degenerate_cells_skipped(self, srw_kernels):
        # C+ = 0.0 on a left-continuous law, and so is nu_n: each n's one
        # cell is skipped, as every cell whose two sides are 0.0 is
        for theorem in (TheoremId.T15_nu, TheoremId.C12_particles):
            rep = compare_grid(GridSpec(theorem, ns=(64, 256)), srw_kernels)
            assert rep.rows == []
            assert rep.skipped == [
                f"{theorem.value} n={n} x=0 y=0: exact = rhs = 0"
                for n in (64, 256)]
            assert set(rep.tail_bounds) == {64, 256}

    def test_determinism(self, l1_kernels):
        spec = GridSpec(TheoremId.T13, ns=(256, 1024))
        a = emit_text(compare_grid(spec, l1_kernels))
        b = emit_text(compare_grid(spec, l1_kernels))
        assert a == b

    def test_partial_absorption_emits_both_forms(self, l1_kernels):
        rep = compare_grid(GridSpec(TheoremId.P61_ralpha, ns=(256,),
                                    etas=(-0.2,)), l1_kernels)
        suffixes = {r.theorem for r in rep.rows}
        assert suffixes == {"P61_ralpha_p", "P61_ralpha_g"}


def emit_text(rep):
    return csv_text(
        ("theorem", "law", "n", "x", "y", "exact", "rhs", "rel_err"),
        [(r.theorem, r.law, r.n, r.x, r.y, r.exact, r.rhs, r.rel_err)
         for r in rep.rows])


def test_n_without_rows_is_not_an_exact_match(span3_kernels):
    # span3 has period 3: the default T11i cells are reachable at n = 255
    # but not at n = 256
    rep = compare_grid(GridSpec(TheoremId.T11i, ns=(255, 256)),
                       span3_kernels)
    assert rep.max_rel_err(255) is not None
    assert rep.max_rel_err(256) is None
    text = summary_text([rep], [])
    assert "  n=255: max rel_err " in text
    assert "  n=256: no rows compared" in text


class TestConvergenceReport:
    def test_negative_slopes_where_theory_holds(self, l1_kernels):
        rep = compare_grid(GridSpec(TheoremId.C11, ns=(256, 1024, 4096)),
                           l1_kernels)
        slopes = convergence_report([rep])
        assert slopes
        assert all(s.slope < 0 for s in slopes)

    def test_no_slope_from_one_n(self, l1_kernels):
        # rows at one n, even several of them, fit no slope
        rep = compare_grid(GridSpec(TheoremId.T11ii, ns=(256, 256)),
                           l1_kernels)
        assert len(rep.rows) == 2 and convergence_report([rep]) == []

    def test_identical_inputs_identical_summary(self, l1_kernels):
        rep = compare_grid(GridSpec(TheoremId.C11, ns=(256, 1024)),
                           l1_kernels)
        assert convergence_report([rep]) == convergence_report([rep])


def test_emit_comparison_atomic(tmp_path, l1_kernels):
    rep = compare_grid(GridSpec(TheoremId.C11, ns=(256,)), l1_kernels)
    out = tmp_path / "cmp.csv"
    emit_comparison(rep, str(out))
    text = out.read_text()
    assert text.startswith("theorem,law,n,x,y,exact,rhs,rel_err")
    assert "C11" in text

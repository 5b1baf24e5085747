"""Closed-form right-hand sides: Gaussian kernel, first-passage density,
reachability factors, and the theorem evaluators on frozen oracles."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from walklab.asymptotics import GaussKernel, TheoremId, passage_density, rhs
from walklab.laws import lattice_structure


class TestGaussKernel:
    def test_peak_value(self):
        gk = GaussKernel(sigma2=1.0)
        for n in (1, 10, 400):
            assert gk.g(n, 0.0) == pytest.approx(
                1 / math.sqrt(2 * math.pi * n), rel=1e-15)

    def test_normalization(self):
        gk = GaussKernel(sigma2=1.7)
        val, _ = quad(lambda u: gk.g(50, u), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_n_star(self):
        assert GaussKernel(sigma2=2.5).n_star(4) == pytest.approx(10.0)


class TestPassageDensity:
    def test_normalization(self):
        for xi in (0.5, 1.0, 3.0):
            val, _ = quad(lambda t: passage_density(xi, t), 0, np.inf,
                          limit=200)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_convolution_identity(self):
        # first-passage times from disjoint levels add:
        # integral_0^1 phi_1(t) phi_2(1-t) dt = phi_3(1)
        val, _ = quad(lambda t: passage_density(1, t)
                      * passage_density(2, 1 - t), 0, 1, limit=200)
        assert val == pytest.approx(passage_density(3, 1), abs=1e-8)

    def test_scaling(self):
        # phi_xi(t) = xi^{-2} phi_1(t/xi^2) (Brownian scaling)
        xi, t = 1.7, 0.9
        assert passage_density(xi, t) == pytest.approx(
            passage_density(1.0, t / xi ** 2) / xi ** 2, rel=1e-12)


class TestReachable:
    def test_parity_walk(self, srw):
        s = lattice_structure(srw)
        assert s.reachable(3, 1)
        assert not s.reachable(3, 2)

    def test_aperiodic(self, l1):
        s = lattice_structure(l1)
        assert all(s.reachable(n, d) for n in (1, 5) for d in (-3, 0, 7))


class TestEvaluators:
    def test_kill_at_origin_formula_unit_walk(self, srw_kernels):
        # x = y = 1: a*(1)a(-1) = 1, xy = 1 -> rhs = 2/n p^n(0) on even n
        n = 400
        p0 = srw_kernels.p_n_at(n, 0)
        want = 2.0 / n * p0
        got = rhs(TheoremId.T11i, srw_kernels, 1, 1, n)
        assert got == pytest.approx(want, rel=1e-12)

    def test_gaussian_difference_form(self, srw_kernels):
        # closed form: g_n(0) - g_n(2x) times the period factor
        n, x = 400, 20
        want = 2 * (1 - math.exp(-2 * x * x / n)) / math.sqrt(
            2 * math.pi * n)
        got = rhs(TheoremId.T11ii, srw_kernels, x, x, n)
        assert got == pytest.approx(want, rel=1e-12)

    def test_halfline_formula_identity_harmonics(self, srw_kernels):
        # f_+ = f_- = id for the unit walk: rhs = 2xy/n p^n(y-x)
        n, x, y = 512, 2, 4
        want = 2 * x * y / n * srw_kernels.p_n_at(n, y - x)
        got = rhs(TheoremId.T13, srw_kernels, x, y, n)
        assert got == pytest.approx(want, rel=1e-12)

    def test_refined_form_vanishes_left_continuous(self, srw_kernels):
        # C+ = 0 kills the refined xy<0 estimate identically
        # C+ is 0 only up to quadrature noise (~1e-15)
        assert rhs(TheoremId.T12_refined, srw_kernels, 5, -3, 256) \
            == pytest.approx(0.0, abs=1e-12)

    def test_passage_time_tail_formula(self, srw_kernels):
        # ThmA: sigma a*(x) e^{-x^2/2 sigma^2 n} / sqrt(2 pi) n^{3/2}
        n, x = 100, 3
        want = 3 * math.exp(-9 / 200) / (math.sqrt(2 * math.pi) * 1000)
        got = rhs(TheoremId.ThmA_passage, srw_kernels, x, 0, n)
        assert got == pytest.approx(want, rel=1e-12)

    def test_nu_limit_is_half_c_plus(self, l1_kernels):
        got = rhs(TheoremId.T15_nu, l1_kernels, 0, 0, 1024)
        assert got == pytest.approx(
            l1_kernels.constants.c_plus / 2, rel=1e-12)

    def test_particle_count_formula(self, l1_kernels):
        ell = 1.0
        want = l1_kernels.constants.c_plus / math.sqrt(2 * math.pi) \
            * quad(lambda t: math.exp(-t * t / 2), 0, ell)[0]
        got = rhs(TheoremId.C12_particles, l1_kernels, 0, 0, 1024,
                  {"ell": ell})
        assert got == pytest.approx(want, rel=1e-10)

    def test_partial_absorption_forms_coincide_off_diagonal(
            self, l1_kernels):
        # the two emitted forms agree when xy < 0 with the local-CLT factor
        n, x, y = 1024, 6, -6
        forms = rhs(TheoremId.P61_ralpha, l1_kernels, x, y, n,
                    {"alpha": 0.5}, use_local_clt=True)
        assert forms[0] == pytest.approx(forms[1], rel=1e-12)

    def test_two_forms_differ_same_sign(self, l1_kernels):
        n, x, y = 1024, 6, 6
        forms = rhs(TheoremId.P61_ralpha, l1_kernels, x, y, n,
                    {"alpha": 0.5}, use_local_clt=True)
        assert forms[0] != pytest.approx(forms[1], rel=1e-3)

    def test_reflection_swap_symmetry(self, l1_kernels, span3_kernels):
        # rhs(T13) at (x,y) under p equals rhs(T13) at (y,x) under the
        # reflection, by the f_+ <-> f_- swap; verified on the same law
        # via its own symmetric roles
        n, x, y = 2048, 3, 5
        a = rhs(TheoremId.T13, l1_kernels, x, y, n, use_local_clt=True)
        b = rhs(TheoremId.T13, l1_kernels, y, x, n, use_local_clt=True)
        # f_+(x) f_-(y) vs f_+(y) f_-(x): equal only up to the harmonic
        # functions; check the exact ratio instead
        fp, fm = l1_kernels.pair.fp, l1_kernels.pair.fm
        assert a * fp(y) * fm(x) == pytest.approx(
            b * fp(x) * fm(y), rel=1e-12)

    def test_scaling_coherence(self, l1_kernels):
        # n * rhs(C11) at fixed scaled coordinate stabilizes within 1%
        s2 = float(l1_kernels.sigma2())
        vals = []
        for n in (4096, 16384):
            x = round(0.2 * math.sqrt(s2 * 4096)) * round(
                math.sqrt(n / 4096))
            vals.append(n * rhs(TheoremId.C11, l1_kernels, x, 0, n))
        assert vals[1] == pytest.approx(vals[0], rel=0.01)

    def test_determinism(self, l1_kernels):
        args = (TheoremId.T11i, l1_kernels, 4, 4, 512)
        assert rhs(*args) == rhs(*args)

    def test_envelope_shapes_positive(self, l1_kernels):
        assert rhs(TheoremId.IVbound, l1_kernels, 4, -3, 256) > 0
        assert rhs(TheoremId.T11iii_bound, l1_kernels, 3, 40, 256) > 0
        assert rhs(TheoremId.EQ14bound, l1_kernels, 4, 0, 256) > 0

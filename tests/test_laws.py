"""Step-law validation, exact moments, lattice structure, characteristic
function helpers."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from walklab.errors import (DegenerateLaw, LawError, NonUnitMass,
                            NonzeroMean, Reducible, SupportTooWide)
from walklab.laws import (build_law, lattice_structure, load_law, moments,
                          phi_parts)


class TestValidation:
    def test_mass_must_be_one(self):
        with pytest.raises(NonUnitMass):
            build_law([(-1, "1/2"), (1, "1/3")])

    def test_negative_weight_rejected(self):
        with pytest.raises(NonUnitMass):
            build_law([(-1, "3/2"), (1, "-1/2")])

    def test_mean_must_be_zero(self):
        with pytest.raises(NonzeroMean):
            build_law([(-1, "1/4"), (1, "3/4")])

    def test_point_mass_rejected(self):
        with pytest.raises(DegenerateLaw):
            build_law([(0, 1)])

    def test_sublattice_rejected(self):
        with pytest.raises(Reducible):
            build_law([(-2, "1/2"), (2, "1/2")])

    def test_span_budget(self):
        with pytest.raises(SupportTooWide):
            build_law([(-100, "1/101"), (1, "100/101")])

    def test_zero_weights_dropped(self):
        law = build_law([(-1, "1/2"), (0, 0), (1, "1/2")])
        assert law.increments == (-1, 1)

    def test_duplicates_merge(self):
        law = build_law([(-1, "1/4"), (-1, "1/4"), (1, "1/2")])
        assert law.prob(-1) == Fraction(1, 2)

    @pytest.mark.parametrize("z", [-1.5, -1.0, True, "-1", None],
                             ids=["1.5", "float", "bool", "str", "none"])
    def test_increment_must_be_an_integer(self, z):
        # int() would read -1.5 and -1.0 as -1, and True as 1
        with pytest.raises(LawError, match="is not an integer"):
            build_law([(z, "1/2"), (1, "1/2")])

    def test_load_law_roundtrip(self, tmp_path):
        p = tmp_path / "law.json"
        p.write_text('{"name": "x", "pairs": [[-1, "1/2"], [1, "1/2"]]}')
        law = load_law(str(p))
        assert law.name == "x"
        assert law.prob(1) == Fraction(1, 2)


class TestMoments:
    def test_unit_walk(self, srw):
        m = moments(srw)
        assert m.sigma2 == 1
        assert m.m3 == 0
        assert m.lambda3 == 0
        assert m.left_continuous and m.right_continuous

    def test_skewed_law(self, l1):
        m = moments(l1)
        assert m.sigma2 == Fraction(4, 3)
        assert m.m3 == -1
        assert m.lambda3 == Fraction(-1, 4)
        assert not m.left_continuous
        assert m.right_continuous

    def test_span3_law(self, span3):
        m = moments(span3)
        assert m.sigma2 == 2
        assert m.lambda3 == Fraction(1, 3)
        assert m.left_continuous
        assert not m.right_continuous


class TestLatticeStructure:
    def test_unit_walk_parity(self, srw):
        s = lattice_structure(srw)
        assert s.period == 2
        assert s.reachable(3, 1)
        assert not s.reachable(3, 2)

    def test_aperiodic(self, l1):
        s = lattice_structure(l1)
        assert s.period == 1
        assert all(s.reachable(n, d) for n in (1, 2, 3) for d in (-1, 0, 5))

    def test_period3(self, span3):
        s = lattice_structure(span3)
        assert s.period == 3
        assert s.shift == 2
        assert s.reachable(1, -1) and s.reachable(1, 2)
        assert not s.reachable(1, 0)


def _phi(law, l):
    """phi(l) = E exp(i l Y), summed naively."""
    return sum(float(w) * complex(math.cos(z * l), math.sin(z * l))
               for z, w in law.items())


class TestCharFn:
    def test_reflection(self, l1):
        c, s = phi_parts(l1, 0.7)
        cr, sr = phi_parts(l1.reflected(), -0.7)
        assert complex(1.0 - c, s) == pytest.approx(complex(1.0 - cr, sr))

    def test_stable_forms_match_naive(self, l1):
        ls = np.array([1e-8, 1e-3, 0.5, 2.0])
        for l, c, s in zip(ls, *phi_parts(l1, ls)):
            phi = _phi(l1, l)
            assert c == pytest.approx(1.0 - phi.real, abs=1e-15)
            # Im phi is summed less the linear term, which is 0 by mean zero
            assert s == pytest.approx(phi.imag, abs=1e-15)

    def test_small_l_scaling(self, l1):
        # 1 - Re phi(l) ~ sigma^2 l^2 / 2 without cancellation noise
        s2 = float(moments(l1).sigma2)
        l = 1e-7
        assert phi_parts(l1, l)[0] == pytest.approx(s2 * l * l / 2, rel=1e-10)

    def test_small_l_odd_part(self, l1):
        # Im phi(l) ~ -E[Y^3] l^3 / 6; a naive sum is off by 8e-5 here
        m3 = float(moments(l1).m3)
        l = 1e-6
        assert phi_parts(l1, l)[1] == pytest.approx(-m3 * l ** 3 / 6,
                                                    rel=1e-10)


law_strategy = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(1, 20)),
    min_size=2, max_size=6,
).map(lambda ps: {z: w for z, w in ps})


@given(law_strategy)
def test_random_laws_validate_or_reject(table):
    """build_law either returns a consistent law or raises a LawError."""
    total = sum(table.values())
    pairs = [(z, Fraction(w, total)) for z, w in table.items()]
    try:
        law = build_law(pairs)
    except (NonzeroMean, DegenerateLaw, Reducible):
        return
    assert sum(law.weights) == 1
    assert sum(z * w for z, w in law.items()) == 0
    m = moments(law)
    assert m.sigma2 > 0
    # spectral gap: 1 - Re phi > 0 away from the lattice period points
    d = lattice_structure(law).period
    l = math.pi / (2 * d)
    assert phi_parts(law, l)[0] > 0

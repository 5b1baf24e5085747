from fractions import Fraction

import pytest
from hypothesis import assume, strategies as st

from walklab import build_law
from walklab.errors import Reducible
from walklab.kernels import build_kernels

SRW_PAIRS = [(-1, "1/2"), (1, "1/2")]
L1_PAIRS = [(-2, "1/6"), (-1, "1/6"), (0, "1/6"), (1, "1/2")]
SPAN3_PAIRS = [(-1, "2/3"), (2, "1/3")]


@pytest.fixture(scope="session")
def srw():
    return build_law(SRW_PAIRS, "srw")


@pytest.fixture(scope="session")
def l1():
    return build_law(L1_PAIRS, "l1")


@pytest.fixture(scope="session")
def span3():
    return build_law(SPAN3_PAIRS, "span3")


@pytest.fixture(scope="session")
def srw_kernels(srw):
    return build_kernels(srw)


@pytest.fixture(scope="session")
def l1_kernels(l1):
    return build_kernels(l1)


@pytest.fixture(scope="session")
def span3_kernels(span3):
    return build_kernels(span3)


@st.composite
def zero_mean_laws(draw, span=8):
    """Mixtures of two-point zero-mean laws {-u, v} (plus an atom at 0)
    with support inside [-a, b], a + b <= span."""
    a = draw(st.integers(1, span - 1))
    b = draw(st.integers(1, span - a))
    parts = draw(st.lists(st.tuples(st.integers(1, a), st.integers(1, b),
                                    st.integers(1, 5)), min_size=1,
                          max_size=3))
    c0 = draw(st.integers(0, 3))
    total = c0 + sum(c for _, _, c in parts)
    pairs = [(0, Fraction(c0, total))]
    for u, v, c in parts:
        pairs += [(-u, Fraction(c * v, total * (u + v))),
                  (v, Fraction(c * u, total * (u + v)))]
    try:
        return build_law(pairs)
    except Reducible:
        assume(False)

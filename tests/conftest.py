import math
from fractions import Fraction

import pytest
from hypothesis import assume, strategies as st

from walklab import build_law
from walklab.errors import Reducible
from walklab.kernels import build_kernels

SRW_PAIRS = [(-1, "1/2"), (1, "1/2")]
L1_PAIRS = [(-2, "1/6"), (-1, "1/6"), (0, "1/6"), (1, "1/2")]
SPAN3_PAIRS = [(-1, "2/3"), (2, "1/3")]
# x_max = ceil(8 sqrt(sigma2 n)) of nu_and_particles is 4 at n = 2, below
# twice the down-jump of 10
DEEP_PAIRS = [(-10, "1/1000"), (0, "989/1000"), (1, "10/1000")]


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
def zero_mean_laws(draw, span=8, min_span=2, max_parts=3):
    """Mixtures of up to max_parts two-point zero-mean laws {-u, v} (plus an
    atom at 0) with support inside [-a, b], min_span <= a + b <= span.
    When min_span > 2 the first part is {-a, b} itself, so the support
    spans a + b."""
    a = draw(st.integers(1, span - 1))
    b = draw(st.integers(max(1, min_span - a), span - a))
    parts = draw(st.lists(st.tuples(st.integers(1, a), st.integers(1, b),
                                    st.integers(1, 5)), min_size=1,
                          max_size=max_parts))
    if min_span > 2:
        parts[0] = (a, b, parts[0][2])
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


@st.composite
def periodic_laws(draw, max_period=7, max_parts=3):
    """Zero-mean laws whose support lies on one coset c + dZ, gcd(c, d) = 1,
    2 <= d <= max_period: mixtures of two-point laws {-u, v} with
    v = c (mod d) and -u = c (mod d)."""
    d = draw(st.integers(2, max_period))
    c = draw(st.sampled_from([c for c in range(1, d) if math.gcd(c, d) == 1]))
    parts = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                    st.integers(1, 5)), min_size=1,
                          max_size=max_parts))
    total = sum(w for _, _, w in parts)
    pairs = []
    for i, j, w in parts:
        u, v = d - c + d * i, c + d * j
        pairs += [(-u, Fraction(w * v, total * (u + v))),
                  (v, Fraction(w * u, total * (u + v)))]
    try:
        return build_law(pairs)
    except Reducible:
        assume(False)

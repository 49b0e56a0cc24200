"""Field laws of the unified component scalar, checked on drawn operands.

Operands are plain rationals and quadratic rationals a + b*sqrt(D) over one
radicand per example: D = -1 (the Gaussian rationals) or the real D = 5.
Rationals must combine with either radicand.
"""
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bicomplex.scalars import GaussianRational, MixedScalarError, QuadRational

RADICANDS = (-1, 5)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
laws = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def same_field(draw, count: int):
    """``count`` scalars that lie in one field Q(sqrt(D))."""
    D = draw(st.sampled_from(RADICANDS))
    scalar = st.one_of(fractions, st.builds(QuadRational, st.just(D), fractions, fractions))
    return [draw(scalar) for _ in range(count)]


@laws
@given(same_field(3))
def test_ring_laws(xyz):
    x, y, z = xyz
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x
    assert -(-x) == x


@laws
@given(same_field(2))
def test_division_undoes_multiplication(xy):
    x, y = xy
    if y == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert (x * y) / y == x
        assert y * (1 / y) == 1


@laws
@given(same_field(2))
def test_equal_values_hash_equal(xy):
    x, y = xy
    if x == y:
        assert hash(x) == hash(y)


@laws
@given(fractions)
def test_rational_value_has_one_hash_in_every_form(q):
    forms = (q, GaussianRational(q, 0), QuadRational(7, q, 0))
    assert all(a == b for a in forms for b in forms)
    assert len({hash(f) for f in forms}) == 1
    assert len(set(forms)) == 1
    assert QuadRational(7, q, 1) != q
    assert QuadRational(7, q, 1) != QuadRational(-1, q, 1)


@laws
@given(fractions, fractions, fractions, fractions)
def test_two_radicands_do_not_mix(a, b, c, d):
    x = QuadRational(-1, a, b or 1)
    y = QuadRational(5, c, d or 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(MixedScalarError):
            op(x, y)
        with pytest.raises(MixedScalarError):
            op(y, x)
    assert x != y


@laws
@given(st.builds(QuadRational, st.sampled_from(RADICANDS), fractions, fractions),
       st.integers(-5, 5), st.integers(-5, 5))
def test_power_law(x, m, n):
    if not x and min(m, n) < 0:
        with pytest.raises(ZeroDivisionError):
            x ** min(m, n)
        return
    assert x ** m * x ** n == x ** (m + n)
    assert x ** abs(m) == math.prod([x] * abs(m))
    if m < 0:
        assert x ** m * x ** -m == 1

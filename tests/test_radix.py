import itertools

import pytest

from bicomplex.element import BicomplexElement
from bicomplex.radix import (
    DigitString,
    GaussBase,
    HypGaussBase,
    HypSplitBase,
    NonTerminationError,
    decode,
    digit_set,
    encode,
)

ALL_BASES = (HypSplitBase(-2), HypSplitBase(-3), HypGaussBase(-2), HypGaussBase(-3),
             GaussBase(-1, 1), GaussBase(-1, -1), GaussBase(-2, 1), GaussBase(-2, -1))


def hyperbolic(m, n):
    return BicomplexElement(m, n)


def j_lattice(u, v):
    return BicomplexElement.from_cartesian(u, 0, v, 0)


def gaussian(u, v):
    return BicomplexElement.from_cartesian(u, v, 0, 0)


def _domain_points(base, span):
    if isinstance(base, HypSplitBase):
        return (hyperbolic(m, n) for m in range(-span, span + 1)
                for n in range(-span, span + 1))
    if isinstance(base, HypGaussBase):
        return (j_lattice(u, v) for u in range(-span, span + 1)
                for v in range(-span, span + 1))
    return (gaussian(u, v) for u in range(-span, span + 1)
            for v in range(-span, span + 1))


def test_digit_sets():
    assert list(digit_set(HypSplitBase(-2))) == [0, 1, 2, 3, 4, 5]
    assert list(digit_set(HypGaussBase(-2))) == [0, 1, 2]
    assert list(digit_set(GaussBase(-1, 1))) == [0, 1]
    assert len(digit_set(HypSplitBase(-3))) == 12
    assert len(digit_set(HypGaussBase(-3))) == 8
    assert len(digit_set(GaussBase(-2, -1))) == 5


def test_base_validation():
    with pytest.raises(ValueError):
        HypSplitBase(-1)
    with pytest.raises(ValueError):
        HypGaussBase(0)
    with pytest.raises(ValueError):
        GaussBase(0, 1)
    with pytest.raises(ValueError):
        GaussBase(-1, 2)


def test_encode_zero_and_single_digits():
    for base in ALL_BASES:
        zero = encode(BicomplexElement.from_rational(0), base)
        assert zero.digits == (0,)
        assert decode(zero) == BicomplexElement.from_rational(0)
        for d in digit_set(base):
            value = BicomplexElement.from_rational(d)
            try:
                s = encode(value, base)
            except NonTerminationError:
                continue  # a digit value can still fail to expand (see below)
            assert decode(s) == value
            if d != 0:
                assert s.digits == (d,)


def test_split_round_trip_known_point():
    x = hyperbolic(7, -4)
    s = encode(x, HypSplitBase(-2))
    assert decode(s) == x
    assert list(s.digits) == [5, 3, 0, 3, 4, 1]  # lsd first


def test_decode_gauss_example():
    assert decode(DigitString((1, 1), GaussBase(-1, 1))) == gaussian(0, 1)  # q + 1 = i


def test_round_trips_medium_range():
    for base in ALL_BASES:
        if base == HypGaussBase(-2):
            continue  # no finite expansion for much of the lattice, below
        for x in _domain_points(base, 20):
            s = encode(x, base)
            assert decode(s) == x
            assert all(d in digit_set(base) for d in s.digits)
            assert DigitString(s.digits, base) == s  # built unchecked, so check it here
            assert len(s.digits) <= 64


def test_hyp_gauss_minus_two_has_cycles():
    """Base -2+j admits the forced two-cycle 1+j <-> -(1+j): an infinite
    descent shows 1+j has no finite expansion (its digit is forced to 0 and
    the quotient is -(1+j), and vice versa)."""
    with pytest.raises(NonTerminationError):
        encode(j_lattice(1, 1), HypGaussBase(-2))
    with pytest.raises(NonTerminationError):
        encode(BicomplexElement.from_rational(3), HypGaussBase(-2))
    # brute-force search oracle: no digit string of length <= 8 decodes to 3
    base = HypGaussBase(-2)
    three = BicomplexElement.from_rational(3)
    found = []
    for length in range(1, 9):
        for digits in itertools.product(digit_set(base), repeat=length):
            if length > 1 and digits[-1] == 0:
                continue
            if decode(DigitString(digits, base)) == three:
                found.append(digits)
    assert found == []
    # some values do expand in this base
    s = encode(j_lattice(0, 1), base)
    assert s.digits == (2, 1)
    assert decode(s) == j_lattice(0, 1)


def test_brute_force_search_matches_encode():
    """For a small base, collect every value reachable by digit strings of
    length <= 5 and check encode reproduces exactly those expansions."""
    base = HypGaussBase(-3)
    for length in range(1, 6):
        for digits in itertools.product(range(0, 8, 3), repeat=length):
            if length > 1 and digits[-1] == 0:
                continue
            value = decode(DigitString(digits, base))
            assert encode(value, base).digits == digits


def test_membership_validation():
    with pytest.raises(ValueError):
        encode(hyperbolic(1, 0), HypGaussBase(-3))  # outside Z[j]
    with pytest.raises(ValueError):
        encode(BicomplexElement.from_cartesian(1, 1, 1, 0), GaussBase(-1, 1))
    with pytest.raises(ValueError):
        encode(hyperbolic(3, 4), GaussBase(-1, 1))  # hyperbolic, not in the i-plane


def test_digit_string_validation():
    with pytest.raises(ValueError):
        DigitString((), HypSplitBase(-2))
    with pytest.raises(ValueError):
        DigitString((6,), HypSplitBase(-2))
    with pytest.raises(ValueError):
        DigitString((1, 0), HypSplitBase(-2))
    DigitString((0,), HypSplitBase(-2))


def test_non_integral_inputs_rejected():
    from fractions import Fraction
    with pytest.raises(ValueError):
        encode(BicomplexElement(Fraction(1, 2), Fraction(1, 2)), HypSplitBase(-2))
    with pytest.raises(ValueError):
        encode(BicomplexElement.from_cartesian(Fraction(1, 2), Fraction(1, 2), 0, 0),
               GaussBase(-2, 1))

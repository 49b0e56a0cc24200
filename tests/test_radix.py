import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

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


def _minus_three_digit_sum(n):
    """The alternating digit sum of the base -3 expansion of n."""
    total, sign = 0, 1
    while n:
        d = n % 3
        total, sign, n = total + sign * d, -sign, (n - d) // -3
    return total


def _expands_in_minus_two_plus_j(u, v):
    """The rule of the module docstring: u + v*j has a finite expansion in
    base -2+j iff u+v is the alternating digit sum of the base -3 expansion
    of u-v."""
    return u + v == _minus_three_digit_sum(u - v)


def _minus_two_plus_j_step(u, v):
    """One forced digit of base -2+j = (-1)*e1 + (-3)*e2, worked in the
    idempotent coordinates m = u+v, n = u-v: the digit is n mod 3, and the
    quotient (x - d)/q has m' = d - m and n' = (n - d)/(-3)."""
    m, n = u + v, u - v
    d = n % 3
    m, n = d - m, (n - d) // -3
    return (m + n) // 2, (m - n) // 2


def _named_state(exc):
    match = re.search(r"cycles \(state \((-?\d+), (-?\d+)\) revisited\)", str(exc))
    assert match, str(exc)
    return int(match[1]), int(match[2])


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
    """On [-50, 50]^2 the seven other bases expand every point, and -2+j the
    points of its rule; test_minus_two_plus_j_names_a_state_on_its_two_cycle
    checks that it raises on the rest."""
    for base in ALL_BASES:
        grid = itertools.product(range(-50, 51), repeat=2)  # the order of _domain_points
        for (u, v), x in zip(grid, _domain_points(base, 50)):
            if base == HypGaussBase(-2) and not _expands_in_minus_two_plus_j(u, v):
                continue
            s = encode(x, base)
            assert decode(s) == x
            assert all(d in digit_set(base) for d in s.digits)
            assert DigitString(s.digits, base) == s  # built unchecked, so check it here
            assert len(s.digits) <= 64


# The seven bases in which every point of the domain has a finite expansion,
# and the point of each with the given two integer coordinates.
CNS_BASES = tuple(base for base in ALL_BASES if base != HypGaussBase(-2))
POINT = {HypSplitBase: hyperbolic, HypGaussBase: j_lattice, GaussBase: gaussian}
# random integers of 64 to 512 bits, and small ones to mix scales
large = st.builds(lambda seed, bits: random.Random(seed).getrandbits(bits + 1) - (1 << bits),
                  st.integers(0, 2 ** 32), st.integers(64, 512))
coordinates = large | st.integers(-1000, 1000)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(CNS_BASES), large, coordinates)
def test_round_trips_large_inputs_in_the_cns_bases(base, u, v):
    x = POINT[type(base)](u, v)
    s = encode(x, base)
    assert decode(s) == x
    assert all(d in digit_set(base) for d in s.digits)
    assert s.digits[-1] != 0 or s.digits == (0,)


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


def test_minus_two_plus_j_names_a_state_on_its_two_cycle():
    """Off the rule's set, every orbit ends in the cycle m <-> -m at n = 0;
    the state that the error names lies on it."""
    base, failed = HypGaussBase(-2), 0
    for u in range(-50, 51):
        for v in range(-50, 51):
            if _expands_in_minus_two_plus_j(u, v):
                continue
            with pytest.raises(NonTerminationError, match="revisited") as err:
                encode(j_lattice(u, v), base)
            state = _named_state(err.value)
            assert _minus_two_plus_j_step(*_minus_two_plus_j_step(*state)) == state
            failed += 1
    assert failed == 101 * 101 - 197


def test_minus_two_plus_j_cycle_after_a_long_tail_is_found():
    """3^3000 = (-3)^3000 has 3001 base -3 digits before the orbit reaches
    n = 0 and cycles; the checkpoint must move into the cycle to see it before
    the 10^4-digit cap."""
    x = j_lattice(3 ** 3000, 0)
    with pytest.raises(NonTerminationError) as err:
        encode(x, HypGaussBase(-2))
    assert "revisited" in str(err.value) and "exceeded" not in str(err.value)
    state = _named_state(err.value)
    assert _minus_two_plus_j_step(*_minus_two_plus_j_step(*state)) == state


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

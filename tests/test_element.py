import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bicomplex.element import (
    BicomplexElement,
    E1,
    E2,
    I_UNIT,
    J_UNIT,
    K_UNIT,
    NullConeError,
    ONE,
)
from bicomplex.scalars import (
    GaussianRational,
    MixedScalarError,
    QuadRational,
    as_gaussian,
)


def cartesian_mul(a, b):
    """Independent product in Cartesian coordinates from the unit table
    i^2 = k^2 = -1, j^2 = 1, ij = k, ik = -j, jk = i."""
    x1, y1, z1, t1 = a
    x2, y2, z2, t2 = b
    return (x1 * x2 - y1 * y2 + z1 * z2 - t1 * t2,
            x1 * y2 + y1 * x2 + z1 * t2 + t1 * z2,
            x1 * z2 + z1 * x2 - y1 * t2 - t1 * y2,
            x1 * t2 + t1 * x2 + y1 * z2 + z1 * y2)


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
laws = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def elements(draw, count: int):
    """``count`` elements in one of the two views: from rational Cartesian
    coordinates, or on the idempotent basis with components in one field
    Q(sqrt(D)), D = -1 (Gaussian) or 5 (real quadratic, no Cartesian view)."""
    if draw(st.booleans()):
        coords = st.tuples(fractions, fractions, fractions, fractions)
        return [BicomplexElement.from_cartesian(*draw(coords)) for _ in range(count)]
    D = draw(st.sampled_from((-1, 5)))
    scalar = st.one_of(fractions, st.builds(QuadRational, st.just(D), fractions, fractions))
    return [BicomplexElement(draw(scalar), draw(scalar)) for _ in range(count)]


@laws
@given(elements(3))
def test_ring_axioms(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + -a == BicomplexElement.from_rational(0) and a * ONE == a


@laws
@given(st.tuples(fractions, fractions, fractions, fractions), elements(1))
def test_cartesian_round_trips(coords, drawn):
    el = BicomplexElement.from_cartesian(*coords)
    assert el.to_cartesian() == coords
    assert BicomplexElement.from_cartesian(*el.to_cartesian()) == el
    (el,) = drawn
    if el.has_cartesian_view:
        assert BicomplexElement.from_cartesian(*el.to_cartesian()) == el


@laws
@given(elements(2))
def test_equal_elements_hash_equal(ab):
    a, b = ab
    q = a.c1 - a.c1 + 3  # the rational 3, as a Fraction or a QuadRational with b = 0
    pairs = [(a * b, b * a), (a + b - b, a), (a.scale(3), a * BicomplexElement(q, q)),
             (BicomplexElement(q, q), BicomplexElement.from_cartesian(3, 0, 0, 0))]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)


def random_element(rng, span=9):
    return BicomplexElement.from_cartesian(*(Fraction(rng.randrange(-span, span + 1),
                                                      rng.choice((1, 1, 2, 3)))
                                             for _ in range(4)))


def test_from_cartesian_examples():
    assert BicomplexElement.from_cartesian(1, 0, 0, 0) == BicomplexElement(Fraction(1), Fraction(1))
    assert J_UNIT == BicomplexElement(Fraction(1), Fraction(-1))
    w = BicomplexElement.from_cartesian(1, 1, 1, -1)
    assert w.c1 == GaussianRational(2, 0)
    assert w.c2 == GaussianRational(0, 2)


def test_to_cartesian_examples():
    assert BicomplexElement(Fraction(1), Fraction(1)).to_cartesian() == (1, 0, 0, 0)
    w = BicomplexElement(GaussianRational(2, 0), GaussianRational(0, 2))
    assert w.to_cartesian() == (1, 1, 1, -1)
    k = BicomplexElement(GaussianRational(0, 1), GaussianRational(0, -1))
    assert k.to_cartesian() == (0, 0, 0, 1)
    assert k == K_UNIT


def test_cartesian_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        el = random_element(rng)
        assert BicomplexElement.from_cartesian(*el.to_cartesian()) == el


def test_no_cartesian_view_for_other_radicands():
    el = BicomplexElement(QuadRational(2, 0, 1), QuadRational(2, 0, -1))
    assert not el.has_cartesian_view
    with pytest.raises(ValueError):
        el.to_cartesian()
    # radicand -1 is just another notation for the Gaussian rationals
    el = BicomplexElement(QuadRational(-1, 1, 1), QuadRational(-1, 1, -1))
    assert el.to_cartesian() == (1, 0, 0, 1)


def test_idempotent_relations():
    assert (E1 * E2).is_zero
    assert E1 + E2 == ONE
    assert E1 * E1 == E1
    assert E2 * E2 == E2


def test_squaring_example_cross_checked():
    w = BicomplexElement.from_cartesian(1, 1, 1, -1)
    sq = w * w
    assert sq == BicomplexElement(GaussianRational(4, 0), GaussianRational(-4, 0))
    assert sq.to_cartesian() == cartesian_mul(w.to_cartesian(), w.to_cartesian())


def test_mul_matches_cartesian_oracle():
    rng = random.Random(32)
    for _ in range(300):
        a, b = random_element(rng), random_element(rng)
        assert (a * b).to_cartesian() == cartesian_mul(a.to_cartesian(), b.to_cartesian())


def test_invert():
    w = BicomplexElement(GaussianRational(2, 0), GaussianRational(0, 2))
    assert w.invert() == BicomplexElement(GaussianRational(Fraction(1, 2), 0),
                                          GaussianRational(0, Fraction(-1, 2)))
    assert w * w.invert() == ONE
    assert J_UNIT.invert() == J_UNIT
    with pytest.raises(NullConeError):
        E1.invert()


def test_power_law():
    rng = random.Random(41)
    for trial in range(120):
        if trial % 3:
            el = random_element(rng, span=4)
        else:  # components in Q(sqrt(5)), which have no Cartesian view
            el = BicomplexElement(*(QuadRational(5, rng.randrange(-3, 4), rng.randrange(-3, 4))
                                    for _ in range(2)))
        m, n = rng.randrange(-4, 5), rng.randrange(-4, 5)
        if el.in_null_cone and min(m, n) < 0:
            with pytest.raises(NullConeError):
                el ** min(m, n)
            continue
        assert el ** m * el ** n == el ** (m + n)
        assert el ** abs(m) == math.prod([el] * abs(m), start=ONE)
    assert E1 ** 3 == E1 and E1 ** 0 == ONE
    with pytest.raises(NullConeError):
        E1 ** -1


def test_conjugation_idempotent_forms():
    w = BicomplexElement(GaussianRational(2, 0), GaussianRational(0, 2))
    assert w.conjugate("i") == BicomplexElement(GaussianRational(0, 2), GaussianRational(2, 0))
    assert w.conjugate("j") == BicomplexElement(GaussianRational(2, 0), GaussianRational(0, -2))
    assert w.conjugate("k") == BicomplexElement(GaussianRational(0, -2), GaussianRational(2, 0))
    with pytest.raises(ValueError):
        w.conjugate("x")


def test_conjugation_cartesian_sign_patterns():
    rng = random.Random(33)
    for _ in range(100):
        el = random_element(rng)
        x, y, z, t = el.to_cartesian()
        assert el.conjugate("i") == BicomplexElement.from_cartesian(x, y, -z, -t)
        assert el.conjugate("j") == BicomplexElement.from_cartesian(x, -y, z, -t)
        assert el.conjugate("k") == BicomplexElement.from_cartesian(x, -y, -z, t)


def test_conjugation_example():
    w = BicomplexElement.from_cartesian(1, 1, 1, -1)
    assert w.conjugate("j") == BicomplexElement.from_cartesian(1, -1, 1, 1)


def test_conjugations_are_involutions():
    rng = random.Random(34)
    for _ in range(60):
        el = random_element(rng)
        for axis in "ijk":
            assert el.conjugate(axis).conjugate(axis) == el


def test_conjugations_compose_as_klein_group():
    rng = random.Random(35)
    for _ in range(60):
        el = random_element(rng)
        assert el.conjugate("i").conjugate("j") == el.conjugate("k")
        assert el.conjugate("j").conjugate("k") == el.conjugate("i")
        assert el.conjugate("k").conjugate("i") == el.conjugate("j")


def test_conjugations_are_ring_automorphisms():
    rng = random.Random(36)
    for _ in range(500):
        a, b = random_element(rng, span=5), random_element(rng, span=5)
        for axis in "ijk":
            assert (a * b).conjugate(axis) == a.conjugate(axis) * b.conjugate(axis)


def test_norm_examples():
    w = BicomplexElement(GaussianRational(2, 0), GaussianRational(0, 2))
    # oracle: the product of the element with its three conjugates
    product = w
    for axis in "ijk":
        product = product * w.conjugate(axis)
    assert product == BicomplexElement.from_rational(16)
    assert w.norm() == 16
    assert E1.norm() == 0
    assert J_UNIT.norm() == 1


def test_norm_of_real_quadratic_components():
    el = BicomplexElement(QuadRational(2, 0, 1), QuadRational(2, 0, -1))
    assert el.norm() == 4  # sqrt(2) * -sqrt(2) = -2, squared
    el = BicomplexElement(QuadRational(2, 1, 1), QuadRational(2, 1, 0))
    value = el.norm()
    assert isinstance(value, QuadRational)  # (1+sqrt(2))^2 is irrational
    assert value == QuadRational(2, 3, 2)


def test_norm_multiplicative_and_null_cone():
    rng = random.Random(37)
    for _ in range(500):
        a, b = random_element(rng, span=5), random_element(rng, span=5)
        assert (a * b).norm() == a.norm() * b.norm()
    for el in (E1, E2, BicomplexElement(GaussianRational(0, 0), GaussianRational(3, 1))):
        assert el.norm() == 0
        with pytest.raises(NullConeError):
            el.invert()
    w = BicomplexElement(GaussianRational(2, 1), GaussianRational(1, -3))
    assert w.norm() != 0
    w.invert()


def coordinate_recovery_check(el):
    """The four conjugation averages reproduce (x, y, z, t)."""
    x, y, z, t = el.to_cartesian()
    ci, cj, ck = (el.conjugate(axis) for axis in "ijk")
    quarter = Fraction(1, 4)
    checks = [
        ((el + ci + cj + ck).scale(quarter), x),
        ((el + ci - cj - ck).scale(quarter) * I_UNIT.invert(), y),
        ((el - ci + cj - ck).scale(quarter) * J_UNIT.invert(), z),
        ((el - ci - cj + ck).scale(quarter) * K_UNIT.invert(), t),
    ]
    return all(value == BicomplexElement.from_rational(coord) for value, coord in checks)


def test_coordinate_recovery():
    assert coordinate_recovery_check(ONE)
    assert coordinate_recovery_check(BicomplexElement.from_cartesian(1, 1, 1, -1))
    rng = random.Random(38)
    for _ in range(500):
        assert coordinate_recovery_check(random_element(rng))


def test_mixed_kind_arithmetic_rejected():
    with pytest.raises(MixedScalarError):
        QuadRational(2, 1, 1) + QuadRational(3, 1, 1)
    sqrt2 = BicomplexElement(QuadRational(2, 0, 1), QuadRational(2, 0, 1))
    sqrt3 = BicomplexElement(QuadRational(3, 0, 1), QuadRational(3, 0, 1))
    with pytest.raises(MixedScalarError):
        sqrt2 + sqrt3
    with pytest.raises(TypeError):
        BicomplexElement(QuadRational(2, 0, 1), QuadRational(3, 0, 1))
    # rationals embed in every component field
    rational = BicomplexElement(Fraction(1), Fraction(2))
    gaussian = BicomplexElement(GaussianRational(1, 1), GaussianRational(2, -3))
    assert rational + gaussian == BicomplexElement(GaussianRational(2, 1), GaussianRational(4, -3))
    assert BicomplexElement(Fraction(1), GaussianRational(1, 0)) == ONE


def test_rationals_embed_and_as_gaussian():
    assert Fraction(1, 2) + QuadRational(5, 0, 1) == QuadRational(5, Fraction(1, 2), 1)
    assert 3 * GaussianRational(0, 1) == GaussianRational(0, 3)
    assert GaussianRational(0, 1) * 3 == GaussianRational(0, 3)
    assert as_gaussian(QuadRational(-1, 1, 2)) == GaussianRational(1, 2)
    with pytest.raises(ValueError):
        as_gaussian(QuadRational(2, 0, 1))


def test_semantic_equality_and_hash():
    assert GaussianRational(2, 0) == Fraction(2)
    assert QuadRational(-1, 1, 2) == GaussianRational(1, 2)
    assert QuadRational(7, 3, 0) == 3
    assert BicomplexElement(Fraction(2), Fraction(2)) == \
        BicomplexElement(GaussianRational(2, 0), GaussianRational(2, 0))
    assert len({GaussianRational(1, 2), QuadRational(-1, 1, 2)}) == 1


def test_quad_rational_validation():
    with pytest.raises(ValueError):
        QuadRational(4, 1, 1)  # not squarefree
    with pytest.raises(ValueError):
        QuadRational(1, 1, 1)
    with pytest.raises(ValueError):
        QuadRational(0, 1, 1)


def test_element_str_forms():
    assert str(BicomplexElement.from_cartesian(1, 1, 1, -1)) == "1+i+j-k"
    assert str(BicomplexElement.from_cartesian(0, 0, 0, 0)) == "0"
    assert str(BicomplexElement.from_cartesian(Fraction(3, 2), 0, Fraction(-5, 7), 0)) == "3/2-5/7*j"
    assert str(BicomplexElement(QuadRational(2, 0, 1), QuadRational(2, 0, -1))) == \
        "[sqrt(2), -sqrt(2)]"

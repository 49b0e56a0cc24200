import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bicomplex.element import BicomplexElement, J_UNIT
from bicomplex.minpoly import (
    conjugate_pair_poly,
    eval_at_bicomplex,
    minpoly_bicomplex,
    minpoly_component,
    quartic_charpoly,
)
from bicomplex.polys import IntPoly, Poly, content_primitive
from bicomplex.scalars import GaussianRational, QuadRational, as_fraction


def random_gaussian_element(rng, span=6):
    return BicomplexElement(
        GaussianRational(rng.randrange(-span, span + 1), rng.randrange(-span, span + 1)),
        GaussianRational(rng.randrange(-span, span + 1), rng.randrange(-span, span + 1)))


def test_minpoly_component_examples():
    assert minpoly_component(Fraction(2)) == IntPoly.of(-2, 1)
    assert minpoly_component(GaussianRational(0, 2)) == IntPoly.of(4, 0, 1)
    half = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    poly = minpoly_component(half)
    assert poly == IntPoly.of(1, -2, 2)
    # (1+i)/2 really is a root
    acc = GaussianRational(0, 0)
    for c in reversed(poly.coeffs):
        acc = acc * half + GaussianRational(c, 0)
    assert acc.is_zero


def test_minpoly_component_rational_fraction():
    assert minpoly_component(Fraction(3, 2)) == IntPoly.of(-3, 2)
    assert minpoly_component(QuadRational(5, 1, 1)) == IntPoly.of(-4, -2, 1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.builds(QuadRational, st.sampled_from((-1, -3, -7, 2, 5, 6)),
              st.fractions(min_value=-50, max_value=50, max_denominator=40),
              st.fractions(min_value=-50, max_value=50, max_denominator=40))))
def test_minpoly_component_is_the_primitive_part_of_the_pair_poly(x):
    # the integer construction against the Fraction polynomials it replaces
    if isinstance(x, QuadRational) and x.b:
        expected = content_primitive(conjugate_pair_poly(x))[1]
    else:
        expected = content_primitive(Poly.of(-as_fraction(x), 1))[1]
    got = minpoly_component(x)
    assert got == expected and all(type(c) is int for c in got.coeffs)


def test_minpoly_bicomplex_product_example():
    w = BicomplexElement.from_cartesian(1, 1, 1, -1)
    result = minpoly_bicomplex(w)
    assert result.poly == IntPoly.of(-8, 4, -2, 1)
    assert result.kind == "product"
    assert result.component_polys == (IntPoly.of(-2, 1), IntPoly.of(4, 0, 1))
    assert eval_at_bicomplex(result.poly.to_poly(), w).is_zero


def test_minpoly_bicomplex_common_in_i_plane():
    w = BicomplexElement(GaussianRational(0, 1), GaussianRational(0, 1))
    result = minpoly_bicomplex(w)
    assert result.poly == IntPoly.of(1, 0, 1)
    assert result.kind == "common"


def test_minpoly_sqrt2_j_common_outside_i_and_k_planes():
    w = BicomplexElement(QuadRational(2, 0, 1), QuadRational(2, 0, -1))
    result = minpoly_bicomplex(w)
    assert result.poly == IntPoly.of(-2, 0, 1)
    assert result.kind == "common"
    assert w * w == BicomplexElement.from_rational(2)


def test_eval_examples():
    assert eval_at_bicomplex(Poly.of(0, 0, 1), J_UNIT) == BicomplexElement.from_rational(1)
    w = BicomplexElement.from_cartesian(1, 1, 1, -1)
    assert eval_at_bicomplex(Poly.of(-8, 4, -2, 1), w).is_zero
    assert eval_at_bicomplex(Poly.of(0, 1), w) == w


def test_minpoly_is_minimal_over_component_divisors():
    rng = random.Random(41)
    for _ in range(500):
        w = random_gaussian_element(rng)
        result = minpoly_bicomplex(w)
        assert eval_at_bicomplex(result.poly.to_poly(), w).is_zero
        if result.kind == "product":
            for part in result.component_polys:
                assert not eval_at_bicomplex(part.to_poly(), w).is_zero
        else:
            assert result.component_polys[0] == result.component_polys[1]


def test_minpoly_invariant_under_conjugation():
    rng = random.Random(42)
    for _ in range(200):
        w = random_gaussian_element(rng)
        reference = minpoly_bicomplex(w).poly
        for axis in "ijk":
            assert minpoly_bicomplex(w.conjugate(axis)).poly == reference


def test_kind_common_iff_component_or_its_conjugate():
    rng = random.Random(43)
    for _ in range(300):
        w = random_gaussian_element(rng)
        expected = w.c2 in (w.c1, w.c1.conjugate())
        assert (minpoly_bicomplex(w).kind == "common") == expected


def test_quartic_rational_element():
    poly, coeffs = quartic_charpoly(BicomplexElement.from_rational(3))
    assert poly == Poly.of(81, -108, 54, -12, 1)  # (X-3)^4
    assert coeffs.four_re == 12
    assert coeffs.norm == 81


def test_quartic_hyperbolic_element_is_square_of_quadratic():
    poly, _ = quartic_charpoly(J_UNIT)
    assert poly == Poly.of(-1, 0, 1) ** 2
    rng = random.Random(44)
    for _ in range(100):
        m, n = rng.randrange(-9, 10), rng.randrange(-9, 10)
        w = BicomplexElement(Fraction(m), Fraction(n))
        poly, _ = quartic_charpoly(w)
        assert poly == Poly.of(m * n, -(m + n), 1) ** 2
    for _ in range(100):
        a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
        g = GaussianRational(a, b)
        poly, _ = quartic_charpoly(BicomplexElement(g, g))
        assert poly == Poly.of(a * a + b * b, -2 * a, 1) ** 2


def test_quartic_generic_example():
    w = BicomplexElement.from_cartesian(1, 1, 1, -1)
    poly, coeffs = quartic_charpoly(w)
    assert coeffs.four_re == 4
    assert poly == Poly.of(16, -16, 8, -4, 1)
    quotient, rem = divmod(poly, minpoly_bicomplex(w).poly.to_poly())
    assert rem.is_zero
    assert quotient == Poly.of(-2, 1)


def test_quartic_random_properties():
    rng = random.Random(45)
    for _ in range(500):
        w = random_gaussian_element(rng, span=5)
        poly, coeffs = quartic_charpoly(w)
        assert eval_at_bicomplex(poly, w).is_zero
        mp = minpoly_bicomplex(w)
        quotient, rem = divmod(poly, mp.poly.to_poly())
        assert rem.is_zero
        # when both components share one minimal polynomial, the quartic is
        # a pure power of it
        if mp.kind == "common":
            assert poly == mp.poly.to_poly().monic() ** (4 // mp.poly.degree)
        assert coeffs.four_re == 4 * w.to_cartesian()[0]
        assert coeffs.norm == w.norm()


def test_quartic_is_product_of_component_quadratics():
    rng = random.Random(46)

    def rational():
        return Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))

    kinds = (
        lambda: BicomplexElement(rational(), rational()),
        lambda: BicomplexElement(GaussianRational(rational(), rational()),
                                 GaussianRational(rational(), rational())),
        lambda: BicomplexElement(*rng.sample([rational(), GaussianRational(rational(), rational())], 2)),
    )
    for make in kinds:
        for _ in range(500):
            w = make()
            product = conjugate_pair_poly(w.c1) * conjugate_pair_poly(w.c2)
            e4, e3, e2, e1 = product.coeffs[:4]
            poly, coeffs = quartic_charpoly(w)
            assert poly == product
            assert (coeffs.four_re, coeffs.pair_sum, coeffs.triple_sum, coeffs.norm) == (-e1, e2, -e3, e4)


# -- the primitive element theorem -----------------------------------------------

def _coordinates(el: BicomplexElement) -> list[Fraction]:
    """(a1, b1, a2, b2) for the components a + b*sqrt(D): a Q-linear,
    injective map on the elements whose components lie in one Q(sqrt(D))."""
    return [part for c in (el.c1, el.c2)
            for part in ((c.a, c.b) if isinstance(c, QuadRational) else (c, Fraction(0)))]


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q, by Gaussian elimination."""
    rows, rank = [row[:] for row in rows], 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def primitive_elements(draw):
    """theta with components in one Q(sqrt(D)), the second component drawn
    equal to the first or its field conjugate often enough to give ``common``."""
    D = draw(st.sampled_from((-1, -3, 2, 5)))
    small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    scalar = st.one_of(small, st.builds(QuadRational, st.just(D), small, small))
    c1 = draw(scalar)
    c2 = draw(st.one_of(
        scalar, st.just(c1),
        st.just(c1.field_conjugate() if isinstance(c1, QuadRational) else c1)))
    return BicomplexElement(c1, c2)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(primitive_elements())
def test_primitive_element_theorem(theta):
    """Q[theta] has dimension deg minpoly(theta): for ``product`` the powers
    1, theta, ..., theta^(d-1) are independent, so theta generates
    K1*e1 + K2*e2; for ``common`` the degree is the component's, and Q[theta]
    is the field of one component."""
    result = minpoly_bicomplex(theta)
    d = result.poly.degree
    powers = [_coordinates(theta ** k) for k in range(d + 1)]
    assert _rank(powers[:d]) == d
    assert eval_at_bicomplex(result.poly.to_poly(), theta).is_zero  # theta^d depends on them
    p1, p2 = result.component_polys
    if result.kind == "product":
        assert d == p1.degree + p2.degree and p1 != p2
    else:
        assert result.kind == "common" and d == p1.degree and p1 == p2 == result.poly

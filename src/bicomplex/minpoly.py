"""Minimal polynomials of bicomplex numbers with low-degree components.

The minimal polynomial of a bicomplex number is the least-degree primitive
integer polynomial with positive leading coefficient that annihilates it.
Because polynomial evaluation acts componentwise, it is the lcm of the two
component minimal polynomials: equal components polynomials give that common
value, otherwise (the components being irreducible) the product.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .element import BicomplexElement
from .numtheory import _Record
from .polys import IntPoly, Poly
from .scalars import QuadRational, as_fraction


class MinPolyResult(_Record):
    """Minimal polynomial together with the per-component polynomials.

    ``kind`` is ``"common"`` when both components share one minimal
    polynomial and ``"product"`` when the two (coprime) component
    polynomials are multiplied.
    """

    poly: IntPoly
    kind: str
    component_polys: tuple[IntPoly, IntPoly]


def conjugate_pair_poly(c) -> Poly:
    """(X - c)(X - c') for a component scalar c and its field conjugate c':
    X^2 - 2a*X + (a^2 - D*b^2) for a + b*sqrt(D) (D = -1 for the Gaussian
    rationals), and (X - c)^2 for a rational c."""
    if isinstance(c, QuadRational) and c.b:
        return Poly.of(c.field_norm(), -2 * c.a, 1)
    c = as_fraction(c)
    return Poly.of(c * c, -2 * c, 1)


def minpoly_component(scalar) -> IntPoly:
    """Minimal polynomial of a component scalar, built on integers.

    For a rational n/d it is d*X - n.  For a + b*sqrt(D) with b != 0, write
    a = A/d and b = B/d over d = lcm of their denominators: then
    d^2 * :func:`conjugate_pair_poly` is d^2*X^2 - 2*A*d*X + (A^2 - D*B^2),
    and its primitive part is one gcd away.
    """
    if isinstance(scalar, QuadRational) and scalar.b:
        a, b = scalar.a, scalar.b
        d = math.lcm(a.denominator, b.denominator)
        A, B = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        coeffs = (A * A - scalar.D * B * B, -2 * A * d, d * d)
        g = math.gcd(*coeffs)
        return IntPoly._make(coeffs if g == 1 else tuple([c // g for c in coeffs]))
    c = as_fraction(scalar)
    return IntPoly._make((-c.numerator, c.denominator))


def minpoly_bicomplex(element: BicomplexElement) -> MinPolyResult:
    """Minimal polynomial of a bicomplex number, as the component lcm."""
    p1 = minpoly_component(element.c1)
    p2 = minpoly_component(element.c2)
    if p1 == p2:
        return MinPolyResult(p1, "common", (p1, p2))
    return MinPolyResult(p1 * p2, "product", (p1, p2))


def eval_at_bicomplex(poly: Poly, element: BicomplexElement) -> BicomplexElement:
    """Componentwise Horner evaluation of a rational polynomial."""
    return BicomplexElement(poly(element.c1), poly(element.c2))


class QuarticCoefficients(_Record):
    """Symmetric functions of an element and its three conjugates.

    ``four_re`` is their sum (four times the real part), ``pair_sum`` the sum
    of the six pairwise products, ``triple_sum`` the sum of the four triple
    products, and ``norm`` their product.
    """

    four_re: Fraction
    pair_sum: Fraction
    triple_sum: Fraction
    norm: Fraction


def quartic_charpoly(element: BicomplexElement) -> tuple[Poly, QuarticCoefficients]:
    """The monic quartic whose roots are the element and its conjugates.

    For an element with a Cartesian view the four conjugation values have
    rational elementary symmetric functions, so

        P(X) = X^4 - four_re*X^3 + pair_sum*X^2 - triple_sum*X + norm

    annihilates the element, and the minimal polynomial divides it.  P is the
    product q(c1)*q(c2) of the component quadratics q = conjugate_pair_poly,
    so for an element of the hyperbolic plane or of either complex plane it
    is the square of the familiar quadratic X^2 - 2*Re*X + z*conj(z).
    """
    if not element.has_cartesian_view:
        raise ValueError(f"{element!r} has no Cartesian view")
    conjugates = [element] + [element.conjugate(axis) for axis in ("i", "j", "k")]

    def sym(k: int) -> Fraction:
        total = None
        for combo in itertools.combinations(conjugates, k):
            term = combo[0]
            for factor in combo[1:]:
                term = term * factor
            total = term if total is None else total + term
        value1, value2 = as_fraction(total.c1), as_fraction(total.c2)
        assert value1 == value2
        return value1

    e1, e2, e3, e4 = sym(1), sym(2), sym(3), sym(4)
    poly = Poly.of(e4, -e3, e2, -e1, 1)
    return poly, QuarticCoefficients(four_re=e1, pair_sum=e2, triple_sum=e3, norm=e4)

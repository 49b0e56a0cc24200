"""Dense exact polynomials over the rationals and primitive integer polynomials.

A polynomial is stored as a tuple of coefficients, lowest degree first, so
``Poly.of(-8, 4, -2, 1)`` is ``X^3 - 2*X^2 + 4*X - 8``.  Coefficients of
:class:`Poly` are :class:`fractions.Fraction`; :class:`IntPoly` keeps integer
coefficients and enforces the minimal-polynomial normal form used throughout
this package (primitive, positive leading coefficient).

The zero polynomial is the empty tuple; its degree is undefined and the
operations that need a degree reject it.

Products are one integer convolution over common denominators.  The gcd,
the Sturm chain and the cyclotomic polynomials work on integer coefficient
tuples with one sign-preserving pseudo-remainder kernel.  The last entry of
the Sturm chain is gcd(p, p'), so one chain both counts the real roots of p
and decides whether p is squarefree.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .numtheory import factorint, totient
from .scalars import format_terms, power


def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def _convolve(a, b) -> list[int]:
    """Coefficients of the product of two nonzero integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _cleared(coeffs) -> tuple[int, list[int]]:
    """The lcm L of the denominators of nonzero rationals, and L times each."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


@dataclass(frozen=True)
class Poly:
    """A dense polynomial with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs) -> Poly:
        """Build a polynomial from numbers, lowest degree first.

        >>> Poly.of(-1, 0, 1)
        Poly('X^2 - 1')
        """
        return Poly(_trim([Fraction(c) for c in coeffs]))

    @staticmethod
    def zero() -> Poly:
        return Poly(())

    @staticmethod
    def one() -> Poly:
        return Poly.of(1)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: Poly) -> Poly:
        return Poly(_trim([a + b for a, b in
                           itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0))]))

    def __sub__(self, other: Poly) -> Poly:
        return self + -other

    def __neg__(self) -> Poly:
        return Poly(tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly(_trim([a * other for a in self.coeffs]))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly.zero()
        (den_a, a), (den_b, b) = _cleared(self.coeffs), _cleared(other.coeffs)
        den = den_a * den_b
        # From a list: CPython parks each tuple(generator) on a free list.
        return Poly(tuple([Fraction(c, den) for c in _convolve(a, b)]))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, Poly.one())

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Exact quotient and remainder with deg(remainder) < deg(other)."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        rem, d, inv_lead = list(self.coeffs), other.degree, 1 / other.lead
        quot = [Fraction(0)] * max(len(rem) - d, 1)
        for k in range(len(rem) - 1 - d, -1, -1):
            c = rem[k + d] * inv_lead
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
        return Poly(_trim(quot)), Poly(_trim(rem))

    def __call__(self, x):
        """Horner evaluation; works for Fraction and complex arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> Poly:
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        return self * (1 / self.lead)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{format_poly(self)}')"


@dataclass(frozen=True)
class IntPoly:
    """A primitive integer polynomial with positive leading coefficient.

    This is the normal form of minimal polynomials: content 1 and positive
    leading coefficient.  The constant polynomial 1 is allowed (it is the
    empty product of factors); the zero polynomial is not.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("IntPoly cannot be the zero polynomial")
        if any(not isinstance(c, int) for c in self.coeffs):
            raise TypeError("IntPoly coefficients must be int")
        if self.coeffs[-1] <= 0:
            raise ValueError("IntPoly leading coefficient must be positive")
        if math.gcd(*self.coeffs) != 1:
            raise ValueError("IntPoly must be primitive")

    @staticmethod
    def of(*coeffs: int) -> IntPoly:
        return IntPoly(_trim(tuple(int(c) for c in coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        return self.coeffs[-1]

    def to_poly(self) -> Poly:
        return Poly(tuple(Fraction(c) for c in self.coeffs))

    __call__ = Poly.__call__
    __str__ = Poly.__str__
    __repr__ = Poly.__repr__

    def __mul__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        # Gauss's lemma: a product of primitive polynomials is primitive.
        return IntPoly(tuple(_convolve(self.coeffs, other.coeffs)))


def content_primitive(p: Poly) -> tuple[Fraction, IntPoly]:
    """Split a nonzero rational polynomial as scale * primitive.

    The primitive part has integer coefficients with gcd 1 and a positive
    leading coefficient; the scale carries the sign, so it is positive
    exactly when the input has a positive leading coefficient.

    >>> content_primitive(Poly.of(-2, 0, 2))
    (Fraction(2, 1), IntPoly('X^2 - 1'))
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no content decomposition")
    den, ints = _cleared(p.coeffs)
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return Fraction(g, den), IntPoly(tuple(c // g for c in ints))


def _primitive(a) -> tuple[int, ...]:
    """Divide integer coefficients by their positive content."""
    g = math.gcd(*a)
    return tuple(c // g for c in a)


def _pseudo_rem(a, b) -> list[int]:
    """A positive multiple of the remainder of a by b: each elimination step
    scales by |lead(b)| only (Brown & Traub, J. ACM 1971)."""
    rem, n, lead, scale = list(a), len(b) - 1, b[-1], abs(b[-1])
    while len(rem) > n:
        k = len(rem) - 1 - n
        top = rem.pop() if lead > 0 else -rem.pop()
        rem = [scale * c for c in rem[:k]] + [scale * c - top * d for c, d in zip(rem[k:], b)]
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _remainder_sequence(a, b) -> list[tuple[int, ...]]:
    """a, b and the primitive parts of minus each remainder, up to a constant
    or a zero remainder; the last entry is gcd(a, b) up to a nonzero factor."""
    seq = [a, b]
    while len(seq[-1]) > 1:
        rem = _pseudo_rem(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(_primitive([-c for c in rem]))
    return seq


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the rationals (integer remainder sequence)."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    if p.is_zero or q.is_zero:
        return (p + q).monic()  # gcd(p, 0) is p made monic
    g = _remainder_sequence(content_primitive(p)[1].coeffs, content_primitive(q)[1].coeffs)[-1]
    return Poly.of(*g).monic()


def sturm_chain(p: IntPoly) -> list[tuple[int, ...]]:
    """The Sturm chain of p as primitive integer coefficient tuples.

    Each entry is a positive multiple of the classical Sturm polynomial, so it
    has the same signs; the last entry is gcd(p, p') up to a nonzero factor.
    """
    if p.degree < 1:
        raise ValueError("a Sturm chain needs degree >= 1")
    return _remainder_sequence(p.coeffs, _primitive([i * c for i, c in enumerate(p.coeffs)][1:]))


def is_squarefree(p: IntPoly) -> bool:
    """True when gcd(p, p') is constant, i.e. p has no repeated complex root."""
    if p.degree < 1:
        raise ValueError("squarefreeness is only defined for degree >= 1")
    return len(sturm_chain(p)[-1]) == 1


def _sign_variations(values) -> int:
    return sum((a < 0) != (b < 0) for a, b in zip(values, values[1:]))


def sturm_real_root_count(p: IntPoly) -> int:
    """Exact number of distinct real roots of a squarefree polynomial.

    Counts the drop in sign variations of the Sturm chain between -inf and
    +inf.

    >>> sturm_real_root_count(IntPoly.of(-8, 4, -2, 1))
    1
    """
    if p.degree < 1:
        raise ValueError("root counting needs degree >= 1")
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        raise ValueError("Sturm count requires a squarefree polynomial")
    at_minus_inf = [q[-1] if len(q) % 2 else -q[-1] for q in chain]
    return _sign_variations(at_minus_inf) - _sign_variations([q[-1] for q in chain])


def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial.

    For n >= 2, Phi_n is the power series of the product of (1 - X^d)^mu(n/d)
    over the divisors d of n, cut at degree phi(n); each factor is one pass.

    >>> cyclotomic(12)
    IntPoly('X^4 - X^2 + 1')
    """
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if n == 1:
        return IntPoly((-1, 1))
    primes, top = list(factorint(n)), totient(n)
    c = [1] + [0] * top
    for size in range(len(primes) + 1):
        for subset in itertools.combinations(primes, size):
            d = n // math.prod(subset)
            if size % 2:  # divide by 1 - X^d
                for i in range(d, top + 1):
                    c[i] += c[i - d]
            else:  # multiply by 1 - X^d
                for i in range(top, d - 1, -1):
                    c[i] -= c[i - d]
    return IntPoly(tuple(c))


def format_poly(p: Poly | IntPoly) -> str:
    """ASCII form in X with explicit '*' between coefficient and variable."""
    units = ["", "X"] + [f"X^{k}" for k in range(2, len(p.coeffs))]
    return format_terms(reversed(list(zip(p.coeffs, units))), " ")

"""Dense exact polynomials over the rationals and primitive integer polynomials.

Coefficients are listed lowest degree first, so ``Poly.of(-8, 4, -2, 1)`` is
``X^3 - 2*X^2 + 4*X - 8``.  A :class:`Poly` is integer numerators over one
positive denominator, ``num`` and ``den``, with no factor common to all of
them; the zero polynomial is ``((), 1)``.  Its :class:`fractions.Fraction`
coefficients, ``coeffs``, are a view derived on demand for printing and JSON,
and every kernel works on the integers.  :class:`IntPoly` has integer
coefficients in the minimal-polynomial normal form used throughout this
package (primitive, positive leading coefficient).

Products follow Gauss's lemma: a product of rational polynomials is the
product of their contents times the product of their primitive parts, so each
factor's content is one gcd of its numerators, the primitive parts are
multiplied as integer polynomials, and only the product of the scales is
reduced.  The gcd is one integer pseudo-remainder sequence.  A gcd(p, p') mod
one word-size prime proves most polynomials squarefree without it.  Real roots
are counted by Descartes' rule of signs on integer Taylor shifts, as continued
fractions that step past a lower bound on the positive roots.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .base import WorkBudgetError, _Record
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


def _reduced(num, den: int) -> Poly:
    """The polynomial with integer numerators num over a nonzero den: trimmed,
    the sign of den moved into num, and their common factor divided out."""
    num = _trim(num)
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num, den = tuple([c // g for c in num]), den // g
    return Poly._make(num, den)


class Poly(_Record):
    """A dense polynomial with exact rational coefficients num[k] / den.

    ``num`` is a tuple of ints, lowest degree first, without trailing zeros,
    and ``den`` a positive int sharing no factor with all of them, so equal
    polynomials have equal fields; zero is ``((), 1)``.
    """

    num: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if any(not isinstance(c, int) for c in num) or not isinstance(den, int):
            raise TypeError("Poly numerators and denominator must be int")
        if den <= 0:
            raise ValueError("Poly denominator must be positive")
        if num and not num[-1]:
            raise ValueError("Poly numerators must not end in a zero")
        if math.gcd(den, *num) != 1:
            raise ValueError("Poly numerators and denominator must have no common factor")

    @staticmethod
    def of(*coeffs) -> Poly:
        """Build a polynomial from numbers, lowest degree first.

        >>> Poly.of(-1, 0, 1)
        Poly('X^2 - 1')
        """
        coeffs = [Fraction(c) for c in coeffs]
        # over the lcm of reduced denominators, each prime of it is missing
        # from the numerator of a coefficient whose denominator holds it fully
        den = math.lcm(*[c.denominator for c in coeffs])
        return Poly._make(_trim([c.numerator * (den // c.denominator) for c in coeffs]), den)

    @staticmethod
    def zero() -> Poly:
        return Poly._make((), 1)

    @staticmethod
    def one() -> Poly:
        return Poly._make((1,), 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on each read; no kernel reads them."""
        den = self.den
        return tuple([Fraction(c, den) for c in self.num])

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.num) - 1

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __add__(self, other: Poly) -> Poly:
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return _reduced([a * fa + b * fb for a, b in
                         itertools.zip_longest(self.num, other.num, fillvalue=0)], den)

    def __sub__(self, other: Poly) -> Poly:
        return self + -other

    def __neg__(self) -> Poly:
        return Poly._make(tuple([-a for a in self.num]), self.den)

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            return _reduced([a * other.numerator for a in self.num], self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return poly_product((self, other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, Poly.one())

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Exact quotient and remainder with deg(remainder) < deg(other).

        Integer pseudo-division of the numerators a by b: the remainder and
        the quotient are scaled by lead(b) only at a step whose leading
        coefficient lead(b) does not divide, so scale * a = quot * b + rem."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        b, rem, scale = other.num, list(self.num), 1
        d, lead = len(b) - 1, b[-1]
        quot = [0] * max(len(rem) - d, 1)
        for k in range(len(rem) - 1 - d, -1, -1):
            if rem[k + d] % lead:
                scale *= lead
                rem, quot = [lead * c for c in rem], [lead * c for c in quot]
            quot[k] = c = rem[k + d] // lead
            for j, y in enumerate(b):
                rem[k + j] -= c * y
        # with self = a / da and other = b / db:
        # self = quot * db / (scale * da) * other + rem / (scale * da)
        den = scale * self.den
        return _reduced([c * other.den for c in quot], den), _reduced(rem, den)

    def __call__(self, x):
        """Horner evaluation on the numerators, then one division by den;
        works for Fraction, QuadRational and complex arguments."""
        acc = 0
        for c in reversed(self.num):
            acc = acc * x + c
        if isinstance(acc, int):  # an int argument, or the zero polynomial
            return Fraction(acc, self.den)
        return acc if self.den == 1 else acc / self.den

    def monic(self) -> Poly:
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        return _reduced(self.num, self.num[-1])

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{format_poly(self)}')"


class IntPoly(_Record):
    """A primitive integer polynomial with positive leading coefficient.

    This is the normal form of minimal polynomials: content 1 and positive
    leading coefficient.  The constant polynomial 1 is allowed (it is the
    empty product of factors); the zero polynomial is not.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not (coeffs := self.coeffs):
            raise ValueError("IntPoly cannot be the zero polynomial")
        if any(not isinstance(c, int) for c in coeffs):
            raise TypeError("IntPoly coefficients must be int")
        if coeffs[-1] <= 0:
            raise ValueError("IntPoly leading coefficient must be positive")
        if math.gcd(*coeffs) != 1:
            raise ValueError("IntPoly must be primitive")

    @staticmethod
    def of(*coeffs: int) -> IntPoly:
        return IntPoly(_trim([int(c) for c in coeffs]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        return self.coeffs[-1]

    def to_poly(self, scale: Fraction = Fraction(1)) -> Poly:
        """This polynomial times a rational scale, as a :class:`Poly`.  Its
        content is 1, so scale's numerator and denominator need no reduction."""
        num = scale.numerator
        if not num:
            return Poly.zero()
        return Poly._make(self.coeffs if num == 1 else tuple([num * c for c in self.coeffs]),
                          scale.denominator)

    def monic(self) -> Poly:
        return Poly._make(self.coeffs, self.lead)

    def __call__(self, x):
        return self.to_poly()(x)

    __str__ = Poly.__str__
    __repr__ = Poly.__repr__

    def __mul__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        # Gauss's lemma: a product of primitive polynomials is primitive.
        return IntPoly._make(tuple(_convolve(self.coeffs, other.coeffs)))

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, IntPoly._make((1,)))


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
    num = p.num
    g = math.gcd(*num)
    if num[-1] < 0:
        g = -g
    return Fraction(g, p.den), IntPoly._make(num if g == 1 else tuple([c // g for c in num]))


def poly_product(factors) -> Poly:
    """The product of rational polynomials by Gauss's lemma.

    Each factor is num / den with content g = gcd(num); the product is the
    product of the scales g / den times the product of the primitive parts
    num / g, which is primitive, so only the scale is reduced, once.

    >>> poly_product([Poly.of(Fraction(1, 2), 1), Poly.of(-3, 1), Poly.of(0, -2)])
    Poly('-2*X^3 + 5*X^2 + 3*X')
    """
    num, den, prim = 1, 1, [1]
    for p in factors:
        if p.is_zero:
            return p
        g = math.gcd(*p.num)
        num, den = num * g, den * p.den
        prim = _convolve(prim, p.num if g == 1 else [c // g for c in p.num])
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return Poly._make(tuple(prim) if num == 1 else tuple([num * c for c in prim]), den)


def _primitive(a) -> tuple[int, ...]:
    """Divide integer coefficients by their positive content."""
    g = math.gcd(*a)
    return tuple([c // g for c in a])


def _pseudo_rem(a, b) -> list[int]:
    """A nonzero multiple of the remainder of a by b: each elimination step
    scales by lead(b) only (Brown & Traub, J. ACM 1971)."""
    rem, n, lead = list(a), len(b) - 1, b[-1]
    while len(rem) > n:
        k, top = len(rem) - 1 - n, rem.pop()
        rem = [lead * c for c in rem[:k]] + [lead * c - top * d for c, d in zip(rem[k:], b)]
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _remainder_gcd(a, b) -> tuple[int, ...]:
    """gcd(a, b) up to a nonzero factor, by a primitive remainder sequence."""
    while len(b) > 1 and (rem := _pseudo_rem(a, b)):
        a, b = b, _primitive(rem)
    return b


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the rationals (integer remainder sequence)."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    if p.is_zero or q.is_zero:
        return (p + q).monic()  # gcd(p, 0) is p made monic
    g = _remainder_gcd(_primitive(p.num), _primitive(q.num))
    return _reduced(g, g[-1])


# The squarefree test's prime, the largest below 2^30: one CPython digit.
_MODULUS = (1 << 30) - 35
# Taylor-shift word additions a real-root count may take: n(n + 1) per Taylor
# shift of degree n, times the 64-bit words of its largest coefficient grown
# by n bits, since the shift's partial sums stay below 2^(n+1) times it.
# About 2 s on a 2.0 GHz core; the test suite's inputs need at most 7.7e7
# (Mignotte's cluster at degree 60).
ISOLATION_WORK_LIMIT = 1 << 30


def is_squarefree(p: IntPoly) -> bool:
    """True when gcd(p, p') is constant, i.e. p has no repeated complex root.

    A square factor of p stays one, of its degree, mod a prime q that does not
    divide lead(p), so a constant gcd(p, p') mod q proves p squarefree; if it
    is not constant, the integer remainder sequence decides."""
    if p.degree < 1:
        raise ValueError("squarefreeness is only defined for degree >= 1")
    dp = _primitive([i * c for i, c in enumerate(p.coeffs)][1:])
    a = [c % _MODULUS for c in p.coeffs]
    b = _trim([c % _MODULUS for c in dp]) if p.lead % _MODULUS else ()
    while b:  # Euclid mod q
        a, b = b, _rem_mod(a, b)
    return len(a) == 1 or len(_remainder_gcd(p.coeffs, dp)) == 1


def _rem_mod(a, b) -> tuple[int, ...]:
    """The remainder of a by b mod _MODULUS, both reduced and b trimmed.

    Each elimination step takes its quotient digit as the top term of a over
    lead(b) mod q, which divides by b made monic, and rewrites only the
    len(b) - 1 terms of a below that top.  So a step costs the divisor's
    length, and a division by a remainder of degree 1 is linear in the degree
    of a.  The rewritten terms are reduced once at the end: each step adds
    less than q^2 to a term."""
    n, q = len(b) - 1, _MODULUS
    inverse, tail, rem = pow(b[-1], -1, q), b[:n], list(a)
    for k in range(len(rem) - 1, n - 1, -1):
        if top := rem[k] * inverse % q:
            rem[k - n:k] = [c - top * d for c, d in zip(rem[k - n:k], tail)]
    return _trim([c % q for c in rem[:n]])


def _shifted(c) -> list[int]:
    """The coefficients of f(x + 1), lowest degree first, where c lists those
    of f highest first: pass k of synthetic division by x - 1 fixes one."""
    out = []
    while c:
        c = list(itertools.accumulate(c))
        out.append(c.pop())
    return out


def _variations(a) -> int:
    """Sign variations in a coefficient list, zeros skipped."""
    signs = [c < 0 for c in a if c]
    return sum(map(operator.ne, signs, signs[1:]))


def _root_floor_log2(a) -> int:
    """A k with 2^k below every positive root of the polynomial whose
    coefficients, lowest first, are a (a[0] != 0, some sign variation).

    That is minus the ceiling log2 of the linear local-max bound (Akritas,
    Strzebonski & Vigklas 2008) on the positive roots of the reversal g: each
    negative g_i takes the share g_j / 2^t of the largest positive g_j above
    it, used t times so far, and log2((2^t |g_i| / g_j)^(1 / (j - i))) is at
    most t + bitlen(g_i) - bitlen(g_j) + 1 over j - i, rounded up."""
    g = a[::-1] if a[0] > 0 else [-c for c in reversed(a)]
    top = len(g) - 1
    bits, t, exponents = g[top].bit_length(), 1, []
    for i in range(top - 1, -1, -1):
        if (c := g[i]) < 0:
            exponents.append(-((bits - t - c.bit_length() - 1) // (top - i)))
            t += 1
        elif c > g[top]:
            top, bits, t = i, c.bit_length(), 1
    return -max(exponents)


def sturm_real_root_count(p: IntPoly) -> int:
    """Exact number of distinct real roots of a squarefree polynomial.

    Counts a root at 0, then the positive roots of p(x) and of p(-x) by
    Vincent-Collins-Akritas continued fractions (Akritas & Strzebonski,
    Nonlinear Anal. Model. Control 2005): Descartes' rule of signs settles a
    polynomial with 0 or 1 sign variations; otherwise a polynomial f whose
    positive roots all exceed 2^k >= 1 is first replaced by f(2^k (x + 1)),
    then split at 1 into f(x + 1) and (x + 1)^n f(1/(x + 1)), the second only
    when Budan's theorem leaves more than one root in (0, 1) possible.  The
    name is from the Sturm chain it replaced.

    >>> sturm_real_root_count(IntPoly.of(-8, 4, -2, 1))
    1
    """
    if p.degree < 1:
        raise ValueError("root counting needs degree >= 1")
    if not is_squarefree(p):  # no sign rule ever separates a repeated root
        raise ValueError("Sturm count requires a squarefree polynomial")
    work = 0

    def shifted(c):
        nonlocal work
        n = len(c) - 1
        work += n * (n + 1) * (1 + (max(map(int.bit_length, c)) + n) // 64)
        if work > ISOLATION_WORK_LIMIT:
            raise WorkBudgetError(f"counting real roots needs more than {ISOLATION_WORK_LIMIT} "
                                  "Taylor-shift word additions")
        return _shifted(c)

    zero = int(not p.coeffs[0])
    count, stack = zero, [p.coeffs[zero:], [-c if i % 2 else c for i, c in enumerate(p.coeffs[zero:])]]
    while stack:  # each entry lists coefficients lowest first, with a[0] != 0
        a = stack.pop()
        if (v := _variations(a)) < 2:
            count += v  # Descartes: 0 or 1 sign variations count the roots
            continue
        if (k := _root_floor_log2(a)) >= 0:  # roots above 2^k, so none at 0 after
            a = shifted([c << (k * i) for i, c in enumerate(a)][::-1])
            v = _variations(a)
        # Roots above 1 are those of a(x + 1); roots in (0, 1) are the positive
        # roots of (x + 1)^n a(1/(x + 1)), which is the reversal of a, shifted.
        right = shifted(a[::-1])
        if one := not right[0]:  # a root at 1 is the constant term of both
            count, right = count + 1, right[1:]
        stack.append(right)
        # Budan: (0, 1] holds v - var(right) roots less an even number.
        if (d := v - _variations(right) - one) < 2:
            count += d
        else:
            left = shifted(a)
            stack.append(left[1:] if one else left)
    return count


# Degree up to which a polynomial literal or Phi_n is built.  Phi_n takes one
# pass per divisor of the odd part of its radical, so the worst case has
# seven primes, as n = 1009470 (degree 190080, 64 passes), built in 0.85 s
# and printed in 0.13 s; a prime n at the limit takes 0.1 s (2-core
# container, Python 3.11).
DEGREE_LIMIT = 200_000


def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial.

    Phi_n(X) is Phi_r(X^(n/r)) for the radical r of n, and Phi_2m(X) is
    Phi_m(-X) for odd m > 1.  For the odd part m of r, Phi_m is the power
    series of the product of (1 - X^d)^mu(m/d) over the divisors d of m, cut
    at degree phi(m); each factor is one pass.  Raises ``WorkBudgetError``
    before anything is allocated when phi(n) is above ``DEGREE_LIMIT``.

    >>> cyclotomic(12)
    IntPoly('X^4 - X^2 + 1')
    """
    from .numtheory import factorint, totient

    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    top = totient(n)
    if top > DEGREE_LIMIT:
        raise WorkBudgetError(f"the cyclotomic polynomial Phi_{n} has degree {top}, above the "
                              f"limit of {DEGREE_LIMIT}")
    primes = list(factorint(n))
    odd = [p for p in primes if p != 2]
    m = math.prod(odd)
    if m == 1:
        c = [-1, 1]
    else:
        phi = math.prod(p - 1 for p in odd)
        c = [1] + [0] * phi
        for size in range(len(odd) + 1):
            for subset in itertools.combinations(odd, size):
                d = m // math.prod(subset)
                if size % 2:  # divide by 1 - X^d
                    for i in range(d, phi + 1):
                        c[i] += c[i - d]
                else:  # multiply by 1 - X^d
                    for i in range(phi, d - 1, -1):
                        c[i] -= c[i - d]
    if len(odd) < len(primes):  # Phi_2 = X + 1, and Phi_2m(X) = Phi_m(-X)
        c = [1, 1] if m == 1 else [-a if i % 2 else a for i, a in enumerate(c)]
    if (step := n // math.prod(primes)) > 1:  # X -> X^(n/r)
        spread = [0] * (top + 1)
        spread[::step] = c
        c = spread
    return IntPoly._make(tuple(c))


def format_poly(p: Poly | IntPoly) -> str:
    """ASCII form in X with explicit '*' between coefficient and variable."""
    units = ["", "X"] + [f"X^{k}" for k in range(2, len(p.coeffs))]
    return format_terms(reversed(list(zip(p.coeffs, units))), " ")

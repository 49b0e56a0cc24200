"""Component scalars for bicomplex elements.

An idempotent component is a plain rational (``fractions.Fraction`` or
``int``) or a quadratic rational ``a + b*sqrt(D)`` for a squarefree ``D``
(negative ``D`` encodes the imaginary quadratic field).  Gaussian rationals
``re + im*i`` are the case ``D = -1``, built by :func:`GaussianRational`.
Rationals combine with a quadratic rational of any radicand; combining two
quadratic rationals with different radicands raises
:class:`MixedScalarError`.

Equality and hashing are by numeric value: a quadratic rational with
``b == 0`` equals, and hashes as, the plain rational ``a``.

:func:`format_terms` writes every signed sum the package prints, and
:func:`power` is the one square-and-multiply loop behind each ``__pow__``.
"""
from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .numtheory import factorint

Rational = (int, Fraction)


class MixedScalarError(TypeError):
    """Arithmetic between quadratic rationals with different radicands."""


def is_squarefree_int(d: int) -> bool:
    return all(e == 1 for e in factorint(d).values())


class QuadRational:
    """a + b*sqrt(D) for squarefree D not in {0, 1}.

    Negative D means sqrt(D) = i*sqrt(|D|), so the value is imaginary
    quadratic; positive D gives a real quadratic value.  Instances are
    immutable; ``re`` and ``im`` name ``a`` and ``b``.
    """

    __slots__ = ("_D", "_a", "_b")

    def __init__(self, D: int, a, b=0):
        if D in (0, 1) or not is_squarefree_int(D):
            raise ValueError(f"radicand must be squarefree and not 0 or 1, got {D}")
        self._D, self._a, self._b = int(D), Fraction(a), Fraction(b)

    D = property(attrgetter("_D"))
    a = re = property(attrgetter("_a"))
    b = im = property(attrgetter("_b"))

    def _common_radicand(self, other: QuadRational) -> int:
        """The common radicand; raises on two different ones."""
        if other._D != self._D:
            raise MixedScalarError(f"mixed radicands sqrt({self._D}) and sqrt({other._D})")
        return self._D

    def __add__(self, other):
        if isinstance(other, QuadRational):
            return _quad(self._common_radicand(other), self._a + other._a, self._b + other._b)
        if isinstance(other, Rational):
            return _quad(self._D, self._a + other, self._b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QuadRational):
            return _quad(self._common_radicand(other), self._a - other._a, self._b - other._b)
        if isinstance(other, Rational):
            return _quad(self._D, self._a - other, self._b)
        return NotImplemented

    def __rsub__(self, other):
        if not isinstance(other, Rational):
            return NotImplemented
        return _quad(self._D, other - self._a, -self._b)

    def __neg__(self):
        return _quad(self._D, -self._a, -self._b)

    def __mul__(self, other):
        if isinstance(other, QuadRational):
            a, b, c, d = self._a, self._b, other._a, other._b
            D, bd = self._common_radicand(other), b * d
            # D = -1 is the Gaussian case; subtracting skips a Fraction product
            return _quad(D, a * c - bd if D == -1 else a * c + D * bd, a * d + b * c)
        if isinstance(other, Rational):
            return _quad(self._D, self._a * other, self._b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadRational):
            return self * (1 / other)
        if isinstance(other, Rational):
            return _quad(self._D, self._a / other, self._b / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if not isinstance(other, Rational):
            return NotImplemented
        n = self.field_norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic rational")
        return _quad(self._D, other * self._a / n, -other * self._b / n)

    def __pow__(self, n: int) -> QuadRational:
        if n < 0:
            return 1 / self ** (-n)
        return power(self, n, _quad(self._D, Fraction(1), Fraction(0)))

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    @property
    def is_zero(self) -> bool:
        return not self

    def conjugate(self) -> QuadRational:
        """Complex conjugation: negates b for D < 0, identity for D > 0."""
        return self.field_conjugate() if self._D < 0 else self

    def field_conjugate(self) -> QuadRational:
        """The field automorphism sqrt(D) -> -sqrt(D), for either sign of D."""
        return _quad(self._D, self._a, -self._b)

    def field_norm(self) -> Fraction:
        """a^2 - D*b^2, the norm down to the rationals."""
        return self._a * self._a - self._D * (self._b * self._b)

    def norm_sq(self):
        """|x|^2: the rational a^2 - D*b^2 when D < 0.  For D > 0 it is x^2,
        returned as a Fraction when rational and as a QuadRational otherwise."""
        if self._D < 0:
            return self.field_norm()
        sq = self * self
        return sq if sq._b else sq._a

    def __eq__(self, other):
        if isinstance(other, QuadRational):
            return (self._a == other._a and self._b == other._b
                    and (self._D == other._D or not self._b))
        if isinstance(other, Rational):
            return not self._b and self._a == other
        return NotImplemented

    def __hash__(self):
        # b != 0: the reduced parts as ints, which spares two Fraction hashes
        # (a modular inverse each); b == 0: the hash of the rational a it equals
        a, b = self._a, self._b
        if not b:
            return hash(a)
        return hash((self._D, a.numerator, a.denominator, b.numerator, b.denominator))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        if self._D == -1:
            return f"GaussianRational({self._a!r}, {self._b!r})"
        return f"QuadRational({self._D}, {self._a!r}, {self._b!r})"


def _quad(D: int, a: Fraction, b: Fraction) -> QuadRational:
    """Result constructor: the radicand is known valid, a and b are Fractions."""
    q = object.__new__(QuadRational)
    q._D, q._a, q._b = D, a, b
    return q


def GaussianRational(re, im=0) -> QuadRational:
    """re + im*i with exact rational parts: the quadratic rational at D = -1."""
    return _quad(-1, Fraction(re), Fraction(im))


def as_fraction(x) -> Fraction:
    """The value as a plain rational; raises if it is not rational."""
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, QuadRational) and not x._b:
        return x._a
    raise ValueError(f"{x!r} is not a rational value")


def as_gaussian(x) -> QuadRational:
    """The value as a Gaussian rational; raises if it does not lie in Q(i)."""
    if isinstance(x, QuadRational) and (x._D == -1 or not x._b):
        return x if x._D == -1 else GaussianRational(x._a)
    if isinstance(x, Rational):
        return GaussianRational(x)
    raise ValueError(f"{x!r} does not lie in Q(i)")


def abs_sq(x):
    """|x|^2.  Rational for rational, Gaussian and imaginary quadratic
    scalars; for real quadratic scalars the exact value x^2 is returned as a
    QuadRational since it is generally irrational."""
    return Fraction(x * x) if isinstance(x, Rational) else x.norm_sq()


def power(x, n: int, one):
    """x**n for n >= 0 by square-and-multiply; ``one`` is the result for n = 0."""
    result = one
    while True:
        if n & 1:
            result = result * x
        n >>= 1
        if not n:
            return result
        x = x * x


def format_terms(terms, sep: str) -> str:
    """The signed sum of (coefficient, unit) terms, in the order given.

    Zero terms are omitted, a unit coefficient is written as the bare unit
    and the empty unit marks a constant; ``sep`` goes on both sides of each
    sign between terms.  An all-zero sum is '0'.

    >>> format_terms([(Fraction(-3, 2), ""), (1, "i"), (-2, "j")], "")
    '-3/2+i-2*j'
    """
    parts = []
    for coeff, unit in terms:
        if coeff == 0:
            continue
        mag = abs(coeff)
        if not unit:
            body = str(mag)
        else:
            body = unit if mag == 1 else f"{mag}*{unit}"
        if parts:
            parts.append(f"{sep}{'-' if coeff < 0 else '+'}{sep}{body}")
        else:
            parts.append(f"-{body}" if coeff < 0 else body)
    return "".join(parts) or "0"


def format_scalar(x) -> str:
    """Literal form: 'a', 'a+b*i' or 'a+b*sqrt(D)' with exact fractions."""
    if isinstance(x, Rational):
        return format_terms([(x, "")], "")
    return format_terms([(x.a, ""), (x.b, "i" if x.D == -1 else f"sqrt({x.D})")], "")
